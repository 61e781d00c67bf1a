"""Undirected simple graphs on indexed vertices, and the constructions
linking a group generated by X and Y to its Cayley graph, the bipartite
coset graph on [G:X] u [G:Y], clique graphs, line graphs and normal
quotients.
"""

from dataclasses import dataclass

import numpy as np

from . import groups

#: Edges handled per step of the triangle check, to bound its temporaries.
TRIANGLE_CHUNK = 1 << 15


class Graph:
    """Simple undirected graph stored once, as a CSR adjacency: the
    neighbours of v are ``indices[indptr[v]:indptr[v + 1]]`` in ascending
    order.  Both arrays are read-only; every other view derives from them.

    ``edges`` is an (m, 2) integer array or any iterable of pairs;
    repeated edges are merged, loops and out-of-range vertices rejected.
    """

    def __init__(self, n: int, edges=()):
        self.n = n = int(n)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be vertex pairs")
        u, v = pairs[:, 0], pairs[:, 1]
        if np.any(u == v):
            raise ValueError("loops are not allowed")
        if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("vertex out of range")
        # one key u * n + v per arc, deduplicated after the sort
        keys = np.sort(np.concatenate([u * n + v, v * n + u]))
        keep = np.ones(len(keys), dtype=bool)
        keep[1:] = keys[1:] != keys[:-1]
        keys = keys[keep]
        tails, heads = np.divmod(keys, max(n, 1))
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tails, minlength=n), out=self.indptr[1:])
        self.indices = heads.astype(np.int32)
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_array(self) -> np.ndarray:
        """The edges as an int64 (m, 2) array of pairs u < v, in
        ascending order."""
        tails = _tails(self)
        fwd = tails < self.indices
        return np.stack([tails[fwd], self.indices[fwd]], axis=1)

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = int(np.searchsorted(nb, v))
        return i < len(nb) and int(nb[i]) == v

    def is_regular(self) -> int | None:
        degs = np.diff(self.indptr)
        return int(degs[0]) if self.n and np.all(degs == degs[0]) else None

    def neighbor_array(self, pad: int = -1) -> np.ndarray:
        """Neighbour lists as an int32 (n, max degree) array; row v holds
        the sorted neighbours of v, then ``pad`` up to the width.  For a
        regular graph this is a read-only view of ``indices``."""
        k = self.is_regular()
        if k is not None:
            return self.indices.reshape(self.n, k)
        degs = np.diff(self.indptr)
        out = np.full((self.n, int(degs.max()) if self.n else 0), pad, dtype=np.int32)
        out[_tails(self), np.arange(len(self.indices)) - np.repeat(self.indptr[:-1], degs)] = self.indices
        return out

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        raise TypeError("graphs are unhashable")


# -- array helpers on the CSR store ------------------------------------------

def _tails(graph: Graph) -> np.ndarray:
    """The tail vertex of every CSR slot (arc tail -> indices[slot])."""
    return np.repeat(np.arange(graph.n, dtype=np.int64), np.diff(graph.indptr))


def _ranges(starts, counts) -> np.ndarray:
    """Concatenation of the ranges starts[i], ..., starts[i] + counts[i] - 1."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) + np.repeat(starts - ends + counts, counts)


def _arc_keys(graph: Graph) -> np.ndarray:
    """tail * n + head for every slot; ascending, as the rows are."""
    return _tails(graph) * graph.n + graph.indices


def _find(keys: np.ndarray, query) -> np.ndarray:
    """Position of each query in the ascending ``keys``, or -1."""
    query = np.asarray(query, dtype=np.int64)
    if not len(keys):
        return np.full(query.shape, -1, dtype=np.int64)
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return np.where(keys[pos] == query, pos, -1)


def _slot_edges(graph: Graph) -> np.ndarray:
    """Row in edge_array() of the edge behind every CSR slot."""
    tails, heads = _tails(graph), graph.indices
    keys = np.minimum(tails, heads) * graph.n + np.maximum(tails, heads)
    return np.searchsorted(keys[tails < heads], keys)


def _pairs_within(ptr, values) -> tuple[np.ndarray, np.ndarray]:
    """(values[p], values[q]) for every p < q in one segment ptr[i]:ptr[i+1]."""
    sizes = np.diff(ptr)
    pos = np.arange(ptr[-1])
    later = np.repeat(ptr[1:], sizes) - pos - 1  # positions after p in its segment
    first = np.repeat(pos, later)
    return values[first], values[first + 1 + _ranges(np.zeros(len(pos), dtype=np.int64), later)]


def _codes(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


# -- builders ------------------------------------------------------------------

def cayley_graph(G, S) -> Graph:
    """Cayley graph of G with connection set S: edges {g, sg}.

    S must be inverse-closed and must not contain the identity; vertex i
    is the element with canonical code i.
    """
    S = _codes(sorted(set(S)))
    if np.any(S == G.identity):
        raise ValueError("identity must not lie in the connection set")
    if not np.isin(_codes(G.inv_vec(S)), S).all():
        raise ValueError("connection set is not inverse-closed")
    heads = _codes(G.mul_vec(S[:, None], np.arange(G.order)[None, :]))
    tails = np.broadcast_to(np.arange(G.order), heads.shape)
    fwd = tails < heads
    return Graph(G.order, np.stack([tails[fwd], heads[fwd]], axis=1))


def xy_connection_set(G) -> list[int]:
    """(X u Y) \\ {1} for a group carrying distinguished X and Y."""
    X = groups.closure(G, G.x_gens)
    Y = groups.closure(G, G.y_gens)
    return sorted((set(X) | set(Y)) - {G.identity})


@dataclass
class SigmaInfo:
    """Bookkeeping for the coset graph: vertex i < n_x is X-coset i,
    vertex n_x + j is Y-coset j.  The cosets are the rows of int64 member
    arrays; the index arrays map a group code to its coset's row."""
    x_cosets: np.ndarray
    y_cosets: np.ndarray
    x_index: np.ndarray
    y_index: np.ndarray

    @property
    def n_x(self) -> int:
        return len(self.x_cosets)

    def x_vertex(self, code: int) -> int:
        return int(self.x_index[code])

    def y_vertex(self, code: int) -> int:
        return self.n_x + int(self.y_index[code])


def sigma_graph(G, budget: int = groups.DEFAULT_BUDGET) -> tuple[Graph, SigmaInfo]:
    """Bipartite graph on right X-cosets and Y-cosets, adjacent iff they
    intersect.  Each group element h contributes the edge {Xh, Yh}, and
    |Xh n Yg| <= 1 makes that map one-to-one onto the edge set.
    """
    X = groups.closure(G, G.x_gens, budget)
    Y = groups.closure(G, G.y_gens, budget)
    x_cosets, x_index = groups.coset_index_array(G, X)
    y_cosets, y_index = groups.coset_index_array(G, Y)
    info = SigmaInfo(x_cosets, y_cosets, x_index, y_index)
    edges = np.stack([info.x_index, info.n_x + info.y_index], axis=1)
    return Graph(info.n_x + len(info.y_cosets), edges), info


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("parts must be nonempty")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def maximal_cliques(graph: Graph, budget: int = 10**7) -> list[list[int]]:
    """Pivot-free Bron-Kerbosch enumeration, canonically sorted."""
    bitsets = [sum(1 << v for v in graph.neighbors(u).tolist()) for u in range(graph.n)]
    out = []
    calls = 0

    def expand(r: list[int], p: int, x: int):
        nonlocal calls
        calls += 1
        if calls > budget:
            raise groups.BudgetExceeded("clique enumeration budget exceeded")
        if p == 0 and x == 0:
            out.append(sorted(r))
            return
        while p:
            v = (p & -p).bit_length() - 1
            vb = 1 << v
            expand(r + [v], p & bitsets[v], x & bitsets[v])
            p &= ~vb
            x |= vb

    expand([], (1 << graph.n) - 1, 0)
    out.sort()
    return out


def verify_clique_cover(graph: Graph, cliques: list[list[int]]) -> None:
    """Check that ``cliques`` are maximal cliques covering each edge exactly
    once; raises ValueError otherwise.  Used to validate the coset fast
    path against the graph itself.  Cliques of one size are checked
    together, as the rows of one array.
    """
    n, degs = graph.n, np.diff(graph.indptr)
    arc_keys = _arc_keys(graph)
    covered = [np.zeros(0, dtype=np.int64)]
    for size in sorted({len(c) for c in cliques}):
        if size == 0:  # every vertex extends the empty clique
            if n:
                raise ValueError("clique is not maximal")
            continue
        members = _codes([c for c in cliques if len(c) == size])
        i, j = np.triu_indices(size, 1)
        a, b = members[:, i].ravel(), members[:, j].ravel()
        if np.any(_find(arc_keys, a * n + b) < 0):
            raise ValueError("clique contains a non-edge")
        covered.append(np.minimum(a, b) * n + np.maximum(a, b))
        # no vertex is its own neighbor, so a vertex adjacent to all
        # ``size`` members lies outside the clique and would extend it
        flat = members.ravel()
        owner = np.repeat(np.arange(len(flat)) // size, degs[flat])
        seen = np.sort(owner * n + graph.indices[_ranges(graph.indptr[flat], degs[flat])])
        starts = np.flatnonzero(np.diff(seen, prepend=-1))
        if np.any(np.diff(starts, append=len(seen)) == size):
            raise ValueError("clique is not maximal")
    covered = np.sort(np.concatenate(covered))
    if np.any(covered[1:] == covered[:-1]):
        raise ValueError("edge lies in two of the cliques")
    if len(covered) != graph.edge_count():
        raise ValueError("cliques do not cover every edge")


def clique_graph(graph: Graph, cliques: list[list[int]] | None = None,
                 budget: int = 10**7) -> tuple[Graph, list[list[int]]]:
    """Graph on maximal cliques, adjacent iff their intersection is
    nonempty.  A precomputed clique list (e.g. the cosets of a tagged
    Cayley instance) may be passed in; it is verified before use.
    """
    if cliques is None:
        cliques = maximal_cliques(graph, budget)
    else:
        cliques = sorted(sorted(c) for c in cliques)
        verify_clique_cover(graph, cliques)
    sizes = np.array([len(c) for c in cliques], dtype=np.int64)
    vertex = _codes([v for c in cliques for v in c])
    order = np.argsort(vertex, kind="stable")
    ptr = np.concatenate([[0], np.cumsum(np.bincount(vertex, minlength=graph.n))])
    a, b = _pairs_within(ptr, np.repeat(np.arange(len(cliques)), sizes)[order])
    return Graph(len(cliques), np.stack([a, b], axis=1)), cliques


def coset_cliques(info: SigmaInfo) -> list[list[int]]:
    """The X- and Y-cosets as vertex sets of the Cayley graph."""
    return info.x_cosets.tolist() + info.y_cosets.tolist()


def line_graph(graph: Graph) -> Graph:
    """Graph on the edges of ``graph`` (vertex i is row i of
    ``edge_array()``), adjacent iff they share an endpoint.  The adjacent
    pairs are those of the edges met at each vertex: the edge indices of
    one CSR row."""
    a, b = _pairs_within(graph.indptr, _slot_edges(graph))
    return Graph(graph.edge_count(), np.stack([a, b], axis=1))


def phi_map(gamma: Graph, sigma: Graph, info: SigmaInfo) -> list[int]:
    """The bijection z -> {Xz, Yz} from group elements to coset-graph
    edges, returned as a list mapping Cayley vertex -> line-graph
    vertex.  Verifies edge-by-edge that it realises an isomorphism from
    the Cayley graph to the line graph of the coset graph; raises
    ValueError on any failure (which would signal an implementation bug).
    """
    lg = line_graph(sigma)
    edges = sigma.edge_array()
    # Xz < Yz as vertices, so (Xz, Yz) is a row of edge_array() if an edge
    phi = _find(edges[:, 0] * sigma.n + edges[:, 1],
                info.x_index * sigma.n + info.n_x + info.y_index)
    if np.any(phi < 0):
        raise ValueError("phi image is not an edge of the coset graph")
    if len(phi) != lg.n or np.any(np.bincount(phi, minlength=lg.n) != 1):
        raise ValueError("phi is not a bijection onto the edges")
    g, h = phi[gamma.edge_array().T]
    if np.any(_find(_arc_keys(lg), g * lg.n + h) < 0):
        raise ValueError("phi does not preserve an edge")
    if gamma.edge_count() != lg.edge_count():
        raise ValueError("edge counts of the Cayley and line graphs differ")
    return phi.tolist()


def normal_quotient(graph: Graph, partition: list[list[int]]) -> tuple[Graph, bool]:
    """Quotient by a vertex partition, plus whether valency is preserved
    (the cover condition).  Cells keep their given order."""
    sizes = [len(cell) for cell in partition]
    members = _codes([v for cell in partition for v in cell])
    hits = np.bincount(members, minlength=graph.n)
    if np.any(hits > 1):
        raise ValueError("partition cells overlap")
    if len(hits) != graph.n or np.any(hits == 0):
        raise ValueError("partition does not cover the vertex set")
    cell_of = np.empty(graph.n, dtype=np.int64)
    cell_of[members] = np.repeat(np.arange(len(partition)), sizes)
    a, b = cell_of[graph.edge_array().T]
    quotient = Graph(len(partition), np.stack([a, b], axis=1)[a != b])
    k = graph.is_regular()
    preserved = k is not None and quotient.is_regular() == k
    return quotient, preserved


def bfs_layers(graph: Graph, v: int) -> tuple[list[int], list[int]]:
    """Exact BFS distances from v (-1 for unreachable) and layer sizes."""
    degs = np.diff(graph.indptr)
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[v] = 0
    frontier = np.array([v], dtype=np.int64)
    layers = [1]
    while True:
        reached = graph.indices[_ranges(graph.indptr[frontier], degs[frontier])]
        reached = np.sort(reached[dist[reached] < 0])
        frontier = reached[np.diff(reached, prepend=-1) != 0]
        if not len(frontier):
            return dist.tolist(), layers
        dist[frontier] = len(layers)
        layers.append(len(frontier))


def edge_coloring(graph: Graph, G, X, Y) -> np.ndarray:
    """Tag each Cayley edge {g, h}, g < h, as an X-edge (h g^-1 in X) or a
    Y-edge: one colour "X" or "Y" per row of ``graph.edge_array()``."""
    g, h = graph.edge_array().T
    diff = _codes(G.mul_vec(h, G.inv_vec(g)))
    in_x = np.isin(diff, _codes(X))
    if not np.all(in_x | np.isin(diff, _codes(Y))):
        raise ValueError("edge difference lies outside X u Y")
    return np.where(in_x, "X", "Y")


def triangles_monochromatic(graph: Graph, colors) -> bool:
    """Whether every triangle has its three edges in one colour, with
    ``colors`` aligned to ``graph.edge_array()``.

    Triangle u < v < w is met once: from the slot u -> v, the later slots
    u -> w of row u are paired with v, and the arc v -> w is looked up among
    the sorted arc keys.  Edges are taken ``TRIANGLE_CHUNK`` at a time, so
    the temporaries stay bounded."""
    colors = np.asarray(colors)
    if len(colors) != graph.edge_count():
        raise ValueError("need one colour per edge")
    tails, heads = _tails(graph), graph.indices.astype(np.int64)
    keys = tails * graph.n + heads
    slot_color = colors[_slot_edges(graph)]
    fwd = np.flatnonzero(tails < heads)
    for start in range(0, len(fwd), TRIANGLE_CHUNK):
        uv = fwd[start:start + TRIANGLE_CHUNK]
        later = graph.indptr[tails[uv] + 1] - uv - 1
        uw = _ranges(uv + 1, later)
        vw = _find(keys, np.repeat(heads[uv], later) * graph.n + heads[uw])
        tri = vw >= 0
        c = np.repeat(slot_color[uv], later)[tri]
        if np.any(slot_color[uw[tri]] != c) or np.any(slot_color[vw[tri]] != c):
            return False
    return True


# graph6 format (header <= 62 vertices is one byte, larger graphs use the
# '~' + 3-byte extension) and a plain "u v" edge-list format.  Body bit
# k = j(j-1)/2 + i is the pair i < j (the upper triangle column by column),
# packed six bits to a byte, most significant bit first, each byte plus 63.

def _graph6_size_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    raise ValueError("graph too large for the supported graph6 sizes")


def to_graph6(graph: Graph) -> str:
    n = graph.n
    header = _graph6_size_bytes(n)
    body = np.full((n * (n - 1) // 2 + 5) // 6, 63, dtype=np.uint8)  # "?" is 63
    i, j = graph.edge_array().T
    k = j * (j - 1) // 2 + i
    np.add.at(body, k // 6, (32 >> (k % 6)).astype(np.uint8))
    return (header + body.tobytes()).decode("ascii")


def to_edgelist(graph: Graph) -> str:
    edges = graph.edge_array()
    return "%d %d\n" * len(edges) % tuple(edges.ravel().tolist())

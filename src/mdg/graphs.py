"""Undirected simple graphs on indexed vertices, and the constructions
linking a group generated by X and Y to its Cayley graph, the bipartite
coset graph on [G:X] u [G:Y], clique graphs, line graphs and normal
quotients.
"""

from dataclasses import dataclass

import numpy as np

from . import groups

CHUNK = groups.CHUNK


class Graph:
    """Simple undirected graph stored once, as a CSR adjacency: the
    neighbours of v are ``indices[indptr[v]:indptr[v + 1]]`` in ascending
    order.  Both arrays are read-only; every other view derives from them.
    ``indices`` holds vertex ids in ``_index_dtype(n)`` (int16 up to 2^15
    vertices) and ``indptr`` is int32 while the arc count fits; arithmetic
    that can leave those ranges widens where it is done.  Permutations of
    the vertices stay int32 (``permgroups``).

    ``edges`` is an (m, 2) integer array or any iterable of pairs;
    repeated edges are merged, loops and out-of-range vertices rejected.
    """

    def __init__(self, n: int, edges=()):
        self.n = n = int(n)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.dtype.kind != "i":
            pairs = pairs.astype(np.int64)
        if pairs.size == 0:
            pairs = pairs.reshape(0, 2)
        if pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be vertex pairs")
        u, v = pairs[:, 0], pairs[:, 1]
        if np.any(u == v):
            raise ValueError("loops are not allowed")
        if len(pairs) and (pairs.min() < 0 or pairs.max() >= n):
            raise ValueError("vertex out of range")
        # one key u * n + v per arc, built and sorted in place, deduplicated
        m, dtype = len(pairs), _index_dtype(n * n + 1)
        keys = np.empty(2 * m, dtype=dtype)
        for out, tail, head in ((keys[:m], u, v), (keys[m:], v, u)):
            np.multiply(tail, n, out=out, dtype=dtype)
            out += head
        keys.sort()
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            keys = keys[np.concatenate([[True], ~repeated])]
        self.indptr = np.searchsorted(keys, np.arange(n + 1, dtype=dtype) * n).astype(
            _index_dtype(len(keys) + 1, (np.int32,)), copy=False)
        np.remainder(keys, max(n, 1), out=keys)
        self.indices = keys.astype(_index_dtype(n), copy=False)
        self.indptr.flags.writeable = self.indices.flags.writeable = False

    @classmethod
    def _from_rows(cls, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """The graph whose CSR rows are already built: each row ascending,
        with no loop or repeat, and u in row v iff v in row u.  Nothing is
        checked; both arrays are made read-only."""
        graph = cls.__new__(cls)
        graph.n, graph.indptr, graph.indices = len(indptr) - 1, indptr, indices
        indptr.flags.writeable = indices.flags.writeable = False
        return graph

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def edge_count(self) -> int:
        return len(self.indices) // 2

    def edge_array(self) -> np.ndarray:
        """The edges as an (m, 2) array of pairs u < v, of the type of
        ``indices``, in ascending order, filled a block of arcs at a time."""
        out = np.empty((self.edge_count(), 2), dtype=self.indices.dtype)
        done = 0
        for _, tails, heads in _forward_arcs(self):
            out[done:done + len(tails), 0] = tails
            out[done:done + len(tails), 1] = heads
            done += len(tails)
        return out

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors(u)
        i = int(np.searchsorted(nb, v))
        return i < len(nb) and int(nb[i]) == v

    def is_regular(self) -> int | None:
        degs = np.diff(self.indptr)
        return int(degs[0]) if self.n and np.all(degs == degs[0]) else None

    def neighbor_array(self) -> np.ndarray:
        """Neighbour lists as an (n, max degree) array of a type holding
        every vertex and n; row v holds the sorted neighbours of v, then
        the padding n up to the width.  For a regular graph this is a
        read-only view of ``indices``."""
        k = self.is_regular()
        if k is not None:
            return self.indices.reshape(self.n, k)
        degs = np.diff(self.indptr)
        out = np.full((self.n, int(degs.max()) if self.n else 0), self.n,
                      dtype=_index_dtype(self.n + 1))
        tails = np.repeat(np.arange(self.n), degs)
        out[tails, np.arange(len(self.indices)) - self.indptr[tails]] = self.indices
        return out

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        raise TypeError("graphs are unhashable")


# -- array helpers on the CSR store ------------------------------------------

def _index_dtype(limit: int, types=(np.int16, np.int32)):
    """The narrowest of ``types``, else int64, that holds range(limit):
    the type of every stored array of vertex ids, cosets or slots."""
    return next((t for t in types if limit <= np.iinfo(t).max + 1), np.int64)


def _ranges(starts, counts) -> np.ndarray:
    """Concatenation of the ranges starts[i], ..., starts[i] + counts[i] - 1."""
    ends = np.cumsum(counts)
    out = np.repeat(starts - ends + counts, counts)
    out += np.arange(len(out))
    return out


def _blocks(cum, per_item: int = 1):
    """Consecutive ranges lo:hi covering the items whose cumulative weights
    are ``cum`` (cum[0] == 0); each weighs at most CHUNK // per_item, or is a
    single item."""
    step = max(1, CHUNK // max(1, per_item))
    lo, last = 0, len(cum) - 1
    while lo < last:
        hi = max(lo + 1, int(np.searchsorted(cum, int(cum[lo]) + step, side="right")) - 1)
        yield lo, hi
        lo = hi


def _forward_arcs(graph: Graph, per_arc: int = 1):
    """The arcs u -> v with u < v, in slot order (the order of the rows of
    ``edge_array()``), as (slots, tails, heads) per block of tails holding
    at most CHUNK // per_arc arcs."""
    ptr = graph.indptr
    for lo, hi in _blocks(ptr, per_arc):
        tails = np.repeat(np.arange(lo, hi), np.diff(ptr[lo:hi + 1]))
        heads = graph.indices[ptr[lo]:ptr[hi]]
        fwd = np.flatnonzero(tails < heads)
        yield ptr[lo] + fwd, tails[fwd], heads[fwd]


def _find_arcs(graph: Graph, tails, heads) -> np.ndarray:
    """Slot of each arc tails[i] -> heads[i], or -1 where there is none: one
    binary search in every tail's sorted row at once."""
    ptr, nb = graph.indptr, graph.indices
    tails = np.asarray(tails)
    if not len(nb):
        return np.full(tails.shape, -1, dtype=np.int64)
    lo, hi = ptr[tails], ptr[1:][tails]  # not tails + 1, which may wrap
    end = hi
    for _ in range(int((hi - lo).max(initial=0)).bit_length()):
        mid = lo + ((hi - lo) >> 1)
        less = nb[np.minimum(mid, len(nb) - 1)] < heads
        lo, hi = np.where(less & (lo < hi), mid + 1, lo), np.where(less, hi, mid)
    hit = (lo < end) & (nb[np.minimum(lo, len(nb) - 1)] == heads)
    return np.where(hit, lo, -1)


def _slot_edges(graph: Graph) -> np.ndarray:
    """Row in edge_array() of the edge behind every CSR slot: each forward
    arc numbers its edge, and its reverse arc takes the same number."""
    out = np.empty(len(graph.indices), dtype=_index_dtype(graph.edge_count()))
    done = 0
    for slots, tails, heads in _forward_arcs(graph):
        ids = np.arange(done, done + len(slots))
        out[slots] = out[_find_arcs(graph, heads, tails)] = ids
        done += len(slots)
    return out


def _pairs_within(ptr, values) -> np.ndarray:
    """(values[p], values[q]) for every p < q in one segment ptr[i]:ptr[i+1],
    as the rows of an array filled a block of segments at a time."""
    sizes = np.diff(ptr).astype(np.int64)
    start = np.concatenate([[0], np.cumsum(sizes * (sizes - 1) // 2)])  # first row per segment
    out = np.empty((int(start[-1]), 2), dtype=values.dtype)
    # a block's temporaries run over its positions and over its pairs
    for lo, hi in _blocks(start + ptr):
        pos = np.arange(ptr[lo], ptr[hi])
        later = np.repeat(ptr[lo + 1:hi + 1], sizes[lo:hi]) - pos - 1  # positions after p
        first = np.repeat(pos, later)
        rows = out[start[lo]:start[hi]]
        rows[:, 0] = values[first]
        rows[:, 1] = values[first + 1 + _ranges(np.zeros(len(pos), dtype=np.int64), later)]
    return out


def _codes(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


# -- builders ------------------------------------------------------------------

def cayley_graph(G, S) -> Graph:
    """Cayley graph of G with connection set S: edges {g, sg}.

    S must be inverse-closed and must not contain the identity; vertex i
    is the element with canonical code i.  Row g is S g, sorted: S is a set
    without 1, so the row has no loop or repeat, and h = s g iff
    g = s^-1 h with s^-1 in S, so the rows are symmetric.
    """
    S = _codes(sorted(set(S)))
    if np.any(S == G.identity):
        raise ValueError("identity must not lie in the connection set")
    if not np.isin(_codes(G.inv_vec(S)), S).all():
        raise ValueError("connection set is not inverse-closed")
    k = len(S)
    indices = np.empty(G.order * k, dtype=_index_dtype(G.order))
    rows = indices.reshape(G.order, k)
    # one block of rows against every s at a time
    step = max(1, CHUNK // max(1, k))
    for lo in range(0, G.order, step):
        block = rows[lo:lo + step]
        block[:] = G.mul_vec(S[:, None], np.arange(lo, lo + len(block))).T
        block.sort(axis=1)
    ptr = _index_dtype(len(indices) + 1, (np.int32,))
    return Graph._from_rows(np.arange(G.order + 1, dtype=ptr) * k, indices)


def xy_connection_set(G) -> list[int]:
    """(X u Y) \\ {1} for a group carrying distinguished X and Y."""
    S = groups.sorted_codes(np.concatenate([groups.closure_array(G, G.x_gens),
                                            groups.closure_array(G, G.y_gens)]))
    return S[S != G.identity].tolist()


@dataclass
class SigmaInfo:
    """Bookkeeping for the coset graph: vertex i < n_x is X-coset i,
    vertex n_x + j is Y-coset j.  The cosets are the rows of member
    arrays; the index arrays map a group code to its coset's row.  All
    four hold ``_index_dtype(G.order)`` integers."""
    x_cosets: np.ndarray
    y_cosets: np.ndarray
    x_index: np.ndarray
    y_index: np.ndarray

    @property
    def n_x(self) -> int:
        return len(self.x_cosets)


def right_cosets(G, subgroup) -> tuple[np.ndarray, np.ndarray]:
    """Right cosets S h of a subgroup as the rows of an array, rows
    ascending and ordered by their least member, plus every code's row,
    both in ``_index_dtype(G.order)``.
    The codes least in their cosets are found, and then the cosets
    through them listed, a block of at most CHUNK products at a time.
    Raises ValueError if ``subgroup`` is not multiplication-closed."""
    sub = groups.sorted_codes(subgroup)
    if not np.any(sub == G.identity):
        raise ValueError("subgroup must contain the identity")
    if not np.isin(_codes(G.mul_vec(sub[:, None], sub[None, :])), sub).all():
        raise ValueError("subgroup is not closed under multiplication")
    dtype, step = _index_dtype(G.order), max(1, CHUNK // len(sub))
    blocks = (np.arange(lo, min(lo + step, G.order), dtype=np.uint64)
              for lo in range(0, G.order, step))
    roots = np.concatenate([h[G.mul_vec(sub[:, None], h).min(axis=0) == h] for h in blocks])
    rows, index = np.empty((len(roots), len(sub)), dtype=dtype), np.empty(G.order, dtype=dtype)
    for lo in range(0, len(roots), step):
        block = rows[lo:lo + step]
        block[:] = G.mul_vec(sub[:, None], roots[lo:lo + step]).T
        block.sort(axis=1)
        index[block] = np.arange(lo, lo + len(block), dtype=dtype)[:, None]
    return rows, index


def sigma_graph(G) -> tuple[Graph, SigmaInfo]:
    """Bipartite graph on right X-cosets and Y-cosets, adjacent iff they
    intersect.  The row of an X-coset lists the Y-cosets of its members,
    and the row of a Y-coset the X-cosets of its members.  Each group
    element h then gives the edge {Xh, Yh} once; ValueError when a row
    repeats a coset, that is when two members of a coset share a coset of
    the other side and |Xh n Yg| <= 1 fails.
    """
    groups.check_budget(G.order)
    x_cosets, x_index = right_cosets(G, groups.closure_array(G, G.x_gens))
    y_cosets, y_index = right_cosets(G, groups.closure_array(G, G.y_gens))
    info = SigmaInfo(x_cosets, y_cosets, x_index, y_index)
    n_x, n_y = info.n_x, len(y_cosets)
    indices = np.empty(x_cosets.size + y_cosets.size, dtype=_index_dtype(n_x + n_y))
    ptr = _index_dtype(len(indices) + 1, (np.int32,))
    wx, wy = x_cosets.shape[1], y_cosets.shape[1]
    indptr = np.concatenate([np.arange(n_x, dtype=ptr) * wx,
                             x_cosets.size + np.arange(n_y + 1, dtype=ptr) * wy])
    for cosets, index, offset, out in ((x_cosets, y_index, n_x, indices[:x_cosets.size]),
                                       (y_cosets, x_index, 0, indices[x_cosets.size:])):
        rows = out.reshape(cosets.shape)
        step = max(1, CHUNK // cosets.shape[1])
        for lo in range(0, len(cosets), step):
            block = rows[lo:lo + step]
            np.add(index[cosets[lo:lo + step]], offset, out=block)
            block.sort(axis=1)
            if np.any(block[:, 1:] == block[:, :-1]):
                raise ValueError("two members of a coset share a coset of the other side")
    return Graph._from_rows(indptr, indices), info


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("parts must be nonempty")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def verify_clique_cover(graph: Graph, cliques: np.ndarray) -> None:
    """Check that the rows of ``cliques``, a 2-D array of nonempty cliques
    of one size, are exactly the maximal cliques of the graph, each edge
    lying in one of them; raises ValueError otherwise.  Used to check the
    coset cliques against the graph itself.  The rows are checked a block
    at a time.

    With each edge in exactly one clique, the cliques are all the maximal
    ones iff no vertex outside a clique is adjacent to two of its members
    (the three would make a triangle that lies in no clique) and each
    isolated vertex is one of the cliques.
    """
    members = np.asarray(cliques)
    if members.ndim != 2 or members.shape[1] == 0:
        raise ValueError("cliques must be the nonempty rows of a 2-D array")
    n, degs = graph.n, np.diff(graph.indptr)
    size, width = members.shape[1], int(degs.max(initial=0))
    if members.size and (members.min() < 0 or members.max() >= n):
        raise ValueError("clique vertex out of range")
    covered = np.zeros(len(graph.indices), dtype=bool)  # per forward arc
    twice = triangle = False
    step = max(1, CHUNK // (size * max(width, size)))
    i, j = np.triu_indices(size, 1)
    for lo in range(0, len(members), step):
        block = members[lo:lo + step]
        a, b = block[:, i].ravel(), block[:, j].ravel()
        slots = np.sort(_find_arcs(graph, np.minimum(a, b), np.maximum(a, b)))
        if len(slots) and slots[0] < 0:
            raise ValueError("clique contains a non-edge")
        twice = twice or covered[slots].any() or bool(np.any(slots[1:] == slots[:-1]))
        covered[slots] = True
    # no vertex is its own neighbor, so a vertex adjacent to all ``size``
    # members lies outside the clique and would extend it; no key (clique,
    # neighbour) occurs more than ``size`` times, so one occurs that often
    # iff the sorted keys hold a run of ``size``.  Each member meets the
    # size - 1 others, which repeats its key size - 2 times; a vertex
    # outside that meets two members repeats a key once more.
    for lo in range(0, len(members), step):
        flat = members[lo:lo + step].ravel()
        keys = (np.arange(len(flat)) // size * n).astype(_index_dtype(len(flat) // size * n))
        seen = np.repeat(keys, degs[flat])
        seen += graph.indices[_ranges(graph.indptr[flat], degs[flat])]
        seen.sort()
        runs = len(seen) - size + 1
        if runs > 0 and np.any(seen[size - 1:] == seen[:runs]):
            raise ValueError("clique is not maximal")
        repeats = np.count_nonzero(seen[1:] == seen[:-1])
        triangle = triangle or repeats != len(flat) * max(size - 2, 0)
    if twice:
        raise ValueError("edge lies in two of the cliques")
    if np.count_nonzero(covered) != graph.edge_count():
        raise ValueError("cliques do not cover every edge")
    if triangle:
        raise ValueError("a triangle lies in no clique")
    if np.any(np.bincount(members.ravel(), minlength=n)[degs == 0] != 1):
        raise ValueError("an isolated vertex is not exactly one of the cliques")


def clique_graph(graph: Graph, cliques: np.ndarray) -> Graph:
    """Graph on the maximal cliques, adjacent iff their intersection is
    nonempty, vertex i being row i of ``cliques``.  The cliques, of one
    size (e.g. the cosets of a tagged Cayley instance), are the rows of a
    2-D array, verified to be exactly the maximal cliques.
    """
    cliques = np.asarray(cliques)
    verify_clique_cover(graph, cliques)
    vertex = cliques.ravel()
    ptr = np.concatenate([[0], np.cumsum(np.bincount(vertex, minlength=graph.n))])
    # position p of ``vertex`` lies in clique p // size: the cliques of each
    # vertex in turn, with nothing else of the sort kept alive
    owner = (np.argsort(vertex, kind="stable") // cliques.shape[1]).astype(
        _index_dtype(len(cliques)))
    return Graph(len(cliques), _pairs_within(ptr, owner))


def coset_cliques(info: SigmaInfo) -> np.ndarray:
    """The X- and Y-cosets as vertex sets of the Cayley graph: the rows of
    one array."""
    return np.concatenate([info.x_cosets, info.y_cosets])


def phi_map(gamma: Graph, sigma: Graph, info: SigmaInfo) -> np.ndarray:
    """The bijection z -> {Xz, Yz} from group elements to coset-graph
    edges, returned as an integer array mapping Cayley vertex -> line-graph
    vertex (row of ``sigma.edge_array()``).  Verifies that it realises an
    isomorphism from the Cayley graph to the line graph of the coset graph
    without building the line graph: the images of every Cayley edge share
    an endpoint, which for phi(g) = {Xg, Yg} and phi(h) = {Xh, Yh} means
    Xg = Xh or Yg = Yh, and the edge counts agree, the line graph having
    C(deg v, 2) edges at each vertex v.  Raises ValueError on any failure
    (which would signal an implementation bug).
    """
    # Xz < Yz as vertices, so Xz -> Yz is the forward arc of an edge, if any
    heads = np.add(info.y_index, info.n_x, dtype=_index_dtype(info.n_x + len(info.y_cosets)))
    slots = _find_arcs(sigma, info.x_index, heads)
    if np.any(slots < 0):
        raise ValueError("phi image is not an edge of the coset graph")
    phi = _slot_edges(sigma)[slots]
    m = sigma.edge_count()
    if len(phi) != m or np.any(np.bincount(phi, minlength=m) != 1):
        raise ValueError("phi is not a bijection onto the edges")
    for _, g, h in _forward_arcs(gamma):
        if not np.all((info.x_index[g] == info.x_index[h]) | (info.y_index[g] == info.y_index[h])):
            raise ValueError("phi does not preserve an edge")
    degs = np.diff(sigma.indptr).astype(np.int64)
    if gamma.edge_count() != int(np.sum(degs * (degs - 1) // 2)):
        raise ValueError("edge counts of the Cayley and line graphs differ")
    return phi


def cell_roots(labels, n: int) -> np.ndarray:
    """The least members, ascending, of the cells of a partition of
    range(n) given as each point's least cell member (``labels``, such as
    ``permgroups.orbits`` returns); ValueError for any other array."""
    labels, points = np.asarray(labels), np.arange(n)
    if labels.shape != (n,) or (n and labels.dtype.kind not in "iu"):
        raise ValueError("need one integer label per point")
    if np.any(labels < 0) or np.any(labels > points):
        raise ValueError("a label is out of range or above its point")
    if np.any(labels[labels] != labels):
        raise ValueError("a label is not the least member of its cell")
    return np.flatnonzero(labels == points)


def normal_quotient(graph: Graph, labels) -> tuple[Graph, bool]:
    """Quotient by a vertex partition given as each vertex's least cell
    member, plus whether valency is preserved (the cover condition).
    Cells are numbered by least member.  Every vertex is mapped to its
    cell's number once; the edges are read a block at a time, and only
    each block's distinct cell pairs a < b, named a * q + b, are kept."""
    roots = cell_roots(labels, graph.n)
    q = len(roots)
    number = np.empty(graph.n, dtype=_index_dtype(q))
    number[roots] = np.arange(q)
    cell, pairs = number[labels], np.empty(0, dtype=np.int64)
    for _, u, v in _forward_arcs(graph):
        a, b = np.sort([cell[u], cell[v]], axis=0)
        pairs = groups.sorted_codes(np.concatenate([pairs, (a.astype(np.int64) * q + b)[a != b]]))
    quotient = Graph(q, np.stack(np.divmod(pairs, q), axis=1))
    k = graph.is_regular()
    preserved = k is not None and quotient.is_regular() == k
    return quotient, preserved


def bfs_layers(graph: Graph, v: int) -> tuple[np.ndarray, list[int]]:
    """Exact BFS distances from v (-1 for unreachable), as an int64 array
    over the vertices, and the layer sizes.
    The frontier's rows are read a block of at most CHUNK // 4 arcs at a
    time, as a block's arc indices keep several 8-byte temporaries, and the
    next layer is marked in a mask over the vertices."""
    ptr, degs = graph.indptr, np.diff(graph.indptr)
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[v] = 0
    frontier = np.array([v], dtype=np.int64)
    layers = [1]
    marked = np.zeros(graph.n, dtype=bool)
    while True:
        cum = np.concatenate([[0], np.cumsum(degs[frontier])])
        for lo, hi in _blocks(cum, 4):
            rows = frontier[lo:hi]
            marked[graph.indices[_ranges(ptr[rows], degs[rows])]] = True
        marked[dist >= 0] = False
        frontier = np.flatnonzero(marked)
        if not len(frontier):
            return dist, layers
        marked[frontier] = False
        dist[frontier] = len(layers)
        layers.append(len(frontier))


def edge_coloring(graph: Graph, G, X, Y) -> np.ndarray:
    """Tag each Cayley edge {g, h}, g < h, as an X-edge (h g^-1 in X) or a
    Y-edge: one colour "X" or "Y" per row of ``graph.edge_array()``."""
    X, Y = _codes(X), _codes(Y)
    out = np.empty(graph.edge_count(), dtype="<U1")
    done = 0
    # the products keep several 8-byte temporaries per arc: half blocks
    for _, g, h in _forward_arcs(graph, 2):
        diff = _codes(G.mul_vec(h, G.inv_vec(g)))
        in_x = np.isin(diff, X)
        if not np.all(in_x | np.isin(diff, Y)):
            raise ValueError("edge difference lies outside X u Y")
        out[done:done + len(g)] = np.where(in_x, "X", "Y")
        done += len(g)
    return out


def triangles_monochromatic(graph: Graph, colors) -> bool:
    """Whether every triangle has its three edges in one colour, with
    ``colors`` aligned to ``graph.edge_array()``.

    Triangle u < v < w is met once: from the slot u -> v, the later slots
    u -> w of row u are paired with v, and the arc v -> w is looked up in
    row v.  All three arcs are forward, so colours are needed only at the
    forward slots.  Arcs u -> v are taken a block at a time, so the
    temporaries stay bounded."""
    colors = np.asarray(colors)
    if len(colors) != graph.edge_count():
        raise ValueError("need one colour per edge")
    ptr = graph.indptr
    # edges are numbered in slot order and a row's forward slots are
    # consecutive, so forward slot s of row u is edge s + off[u]
    off = np.zeros(graph.n, dtype=np.int64)
    done = 0
    for slots, tails, _ in _forward_arcs(graph):
        off[tails] = np.arange(done, done + len(slots)) - slots
        done += len(slots)
    for uv, u, v in _forward_arcs(graph, int(np.diff(ptr).max(initial=0))):
        later = ptr[u + 1] - uv - 1
        uw = _ranges(uv + 1, later)
        arc = np.repeat(np.arange(len(uv)), later)  # the arc u -> v of each pair
        vw = _find_arcs(graph, v[arc], graph.indices[uw])
        tri = np.flatnonzero(vw >= 0)
        arc, uw, vw = arc[tri], uw[tri], vw[tri]
        c = colors[(uv + off[u])[arc]]
        if np.any(colors[uw + off[u][arc]] != c) or np.any(colors[vw + off[v][arc]] != c):
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


def to_graph6(graph: Graph) -> bytearray:
    """The graph6 bytes, without a newline: the header and body are one
    buffer, and the body is filled in place, a block of edges at a time."""
    n = graph.n
    header = _graph6_size_bytes(n)
    out = bytearray(len(header) + (n * (n - 1) // 2 + 5) // 6)
    out[:len(header)] = header
    body = np.frombuffer(out, dtype=np.uint8, offset=len(header))
    body[:] = 63  # "?": six zero bits
    for _, i, j in _forward_arcs(graph):
        k = j.astype(np.int64) * (j - 1) // 2 + i
        np.add.at(body, k // 6, (32 >> (k % 6)).astype(np.uint8))
    return out


def to_edgelist(graph: Graph) -> str:
    edges = graph.edge_array()
    return "%d %d\n" * len(edges) % tuple(edges.ravel().tolist())

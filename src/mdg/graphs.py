"""Undirected simple graphs on indexed vertices, and the constructions
linking a group generated by X and Y to its Cayley graph, the bipartite
coset graph on [G:X] u [G:Y], clique graphs, line graphs and normal
quotients.
"""

import bisect
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import groups


class Graph:
    """Simple undirected graph with sorted neighbor lists."""

    def __init__(self, n: int, edges):
        self.n = n
        nbrs = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise ValueError("loops are not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError("vertex out of range")
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.neighbors = [sorted(s) for s in nbrs]

    def edge_count(self) -> int:
        return sum(len(nb) for nb in self.neighbors) // 2

    def edges(self):
        for u in range(self.n):
            for v in self.neighbors[u]:
                if u < v:
                    yield (u, v)

    def has_edge(self, u: int, v: int) -> bool:
        nb = self.neighbors[u]
        i = bisect.bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def is_regular(self) -> int | None:
        degs = {len(nb) for nb in self.neighbors}
        return degs.pop() if len(degs) == 1 else None

    def neighbor_array(self, pad: int = -1) -> np.ndarray:
        """Neighbour lists as an int32 (n, max degree) array; row v holds
        the sorted neighbours of v, then ``pad`` up to the width."""
        degs = np.fromiter(map(len, self.neighbors), dtype=np.int64, count=self.n)
        width = int(degs.max()) if self.n else 0
        out = np.full((self.n, width), pad, dtype=np.int32)
        flat = np.fromiter(itertools.chain.from_iterable(self.neighbors),
                           dtype=np.int32, count=int(degs.sum()))
        starts = np.cumsum(degs) - degs
        out[np.repeat(np.arange(self.n), degs), np.arange(len(flat)) - np.repeat(starts, degs)] = flat
        return out

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.neighbors == other.neighbors

    def __hash__(self):
        raise TypeError("graphs are unhashable")


def cayley_graph(G, S) -> Graph:
    """Cayley graph of G with connection set S: edges {g, sg}.

    S must be inverse-closed and must not contain the identity; vertex i
    is the element with canonical code i.
    """
    S = sorted(set(S))
    if G.identity in S:
        raise ValueError("identity must not lie in the connection set")
    sset = set(S)
    for s in S:
        if G.inv(s) not in sset:
            raise ValueError("connection set is not inverse-closed")
    edges = []
    for g in G.elements():
        for s in S:
            h = G.mul(s, g)
            if g < h:
                edges.append((g, h))
    return Graph(G.order, edges)


def xy_connection_set(G) -> list[int]:
    """(X u Y) \\ {1} for a group carrying distinguished X and Y."""
    X = groups.closure(G, G.x_gens)
    Y = groups.closure(G, G.y_gens)
    return sorted((set(X) | set(Y)) - {G.identity})


@dataclass
class SigmaInfo:
    """Bookkeeping for the coset graph: vertex i < n_x is X-coset i,
    vertex n_x + j is Y-coset j."""
    x_cosets: list[list[int]]
    y_cosets: list[list[int]]
    x_index: list[int]
    y_index: list[int]

    @property
    def n_x(self) -> int:
        return len(self.x_cosets)

    def x_vertex(self, code: int) -> int:
        return self.x_index[code]

    def y_vertex(self, code: int) -> int:
        return self.n_x + self.y_index[code]

    @functools.cached_property
    def coset_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(X-coset members, Y-coset members, x_index, y_index) as int32
        arrays, one coset per row; built on first use."""
        return tuple(np.array(a, dtype=np.int32)
                     for a in (self.x_cosets, self.y_cosets, self.x_index, self.y_index))


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
    edges = {(info.x_vertex(h), info.y_vertex(h)) for h in G.elements()}
    graph = Graph(info.n_x + len(y_cosets), sorted(edges))
    return graph, info


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise ValueError("parts must be nonempty")
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def maximal_cliques(graph: Graph, budget: int = 10**7) -> list[list[int]]:
    """Pivot-free Bron-Kerbosch enumeration, canonically sorted."""
    bitsets = [sum(1 << v for v in nb) for nb in graph.neighbors]
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
    path against the graph itself.
    """
    edge_cover = {}
    for ci, c in enumerate(cliques):
        for v in c:
            for w in c:
                if v < w and not graph.has_edge(v, w):
                    raise ValueError("clique contains a non-edge")
        # no vertex is its own neighbor, so every common neighbor of the
        # members lies outside the clique and would extend it
        common = set(graph.neighbors[c[0]]) if c else set(range(graph.n))
        for v in c[1:]:
            common.intersection_update(graph.neighbors[v])
        if common:
            raise ValueError("clique is not maximal")
        for v in c:
            for w in c:
                if v < w:
                    if (v, w) in edge_cover:
                        raise ValueError("edge lies in two of the cliques")
                    edge_cover[(v, w)] = ci
    if len(edge_cover) != graph.edge_count():
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
    membership = [[] for _ in range(graph.n)]
    for ci, c in enumerate(cliques):
        for v in c:
            membership[v].append(ci)
    edges = set()
    for v in range(graph.n):
        mem = membership[v]
        for i in range(len(mem)):
            for j in range(i + 1, len(mem)):
                edges.add((mem[i], mem[j]))
    return Graph(len(cliques), sorted(edges)), cliques


def coset_cliques(G, info: SigmaInfo) -> list[list[int]]:
    """The X- and Y-cosets as vertex sets of the Cayley graph."""
    return [list(c) for c in info.x_cosets] + [list(c) for c in info.y_cosets]


def line_graph(graph: Graph) -> tuple[Graph, list[tuple[int, int]]]:
    """Graph on the edges of ``graph`` (in sorted endpoint order),
    adjacent iff they share an endpoint."""
    edge_list = sorted(graph.edges())
    index = {e: i for i, e in enumerate(edge_list)}
    incident = [[] for _ in range(graph.n)]
    for e, i in index.items():
        incident[e[0]].append(i)
        incident[e[1]].append(i)
    edges = set()
    for inc in incident:
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                x, y = inc[a], inc[b]
                edges.add((min(x, y), max(x, y)))
    return Graph(len(edge_list), sorted(edges)), edge_list


def phi_map(G, gamma: Graph, sigma: Graph, info: SigmaInfo) -> list[int]:
    """The bijection z -> {Xz, Yz} from group elements to coset-graph
    edges, returned as an array mapping Cayley vertex -> line-graph
    vertex.  Verifies edge-by-edge that it realises an isomorphism from
    the Cayley graph to the line graph of the coset graph; raises
    ValueError on any failure (which would signal an implementation bug).
    """
    lg, edge_list = line_graph(sigma)
    edge_index = {e: i for i, e in enumerate(edge_list)}
    phi = []
    for z in G.elements():
        e = (info.x_vertex(z), info.y_vertex(z))
        if e not in edge_index:
            raise ValueError("phi image is not an edge of the coset graph")
        phi.append(edge_index[e])
    if len(set(phi)) != len(phi) or len(phi) != lg.n:
        raise ValueError("phi is not a bijection onto the edges")
    count = 0
    for g, h in gamma.edges():
        if not lg.has_edge(phi[g], phi[h]):
            raise ValueError("phi does not preserve an edge")
        count += 1
    if count != lg.edge_count():
        raise ValueError("edge counts of the Cayley and line graphs differ")
    return phi


def normal_quotient(graph: Graph, partition: list[list[int]]) -> tuple[Graph, bool]:
    """Quotient by a vertex partition, plus whether valency is preserved
    (the cover condition).  Cells keep their given order."""
    cell_of = [None] * graph.n
    for ci, cell in enumerate(partition):
        for v in cell:
            if cell_of[v] is not None:
                raise ValueError("partition cells overlap")
            cell_of[v] = ci
    if any(c is None for c in cell_of):
        raise ValueError("partition does not cover the vertex set")
    edges = set()
    for u, v in graph.edges():
        a, b = cell_of[u], cell_of[v]
        if a != b:
            edges.add((min(a, b), max(a, b)))
    quotient = Graph(len(partition), sorted(edges))
    k = graph.is_regular()
    preserved = k is not None and quotient.is_regular() == k
    return quotient, preserved


def bfs_layers(graph: Graph, v: int) -> tuple[list[int], list[int]]:
    """Exact BFS distances from v (-1 for unreachable) and layer sizes."""
    dist = [-1] * graph.n
    dist[v] = 0
    frontier = [v]
    layers = [1]
    while frontier:
        new = []
        for u in frontier:
            for w in graph.neighbors[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    new.append(w)
        if new:
            layers.append(len(new))
        frontier = new
    return dist, layers


def edge_coloring(graph: Graph, G, X, Y) -> dict[tuple[int, int], str]:
    """Tag each Cayley edge {g, h} as an X-edge (h g^-1 in X) or Y-edge."""
    xset, yset = set(X), set(Y)
    colors = {}
    for g, h in graph.edges():
        d = G.mul(h, G.inv(g))
        if d in xset:
            colors[(g, h)] = "X"
        elif d in yset:
            colors[(g, h)] = "Y"
        else:
            raise ValueError("edge difference lies outside X u Y")
    return colors


def triangles_monochromatic(graph: Graph, colors: dict[tuple[int, int], str]) -> bool:
    for u, v in graph.edges():
        for w in set(graph.neighbors[u]).intersection(graph.neighbors[v]):
            c = {colors[(u, v)],
                 colors[(min(u, w), max(u, w))],
                 colors[(min(v, w), max(v, w))]}
            if len(c) != 1:
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
    body = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))  # "?" is 63
    for i, j in graph.edges():
        k = j * (j - 1) // 2 + i
        body[k // 6] += 32 >> (k % 6)
    return (_graph6_size_bytes(n) + body).decode("ascii")


def from_graph6(s: str) -> Graph:
    data = [c - 63 for c in s.strip().encode("ascii")]
    if not data:
        raise ValueError("empty graph6 string")
    if any(not 0 <= c <= 63 for c in data):
        raise ValueError("invalid graph6 character")
    if data[0] == 63:
        if len(data) < 4:
            raise ValueError("truncated graph6 size header")
        if data[1] == 63:
            raise ValueError("graph too large for the supported graph6 sizes")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        data = data[4:]
    else:
        n = data[0]
        data = data[1:]
    nbits = n * (n - 1) // 2
    if len(data) != (nbits + 5) // 6:
        raise ValueError("graph6 body has the wrong length")
    edges = []
    for b, c in enumerate(data):
        while c:
            r = c.bit_length() - 1
            c ^= 1 << r
            k = 6 * b + 5 - r
            if k < nbits:  # padding bits are ignored
                j = (1 + math.isqrt(8 * k + 1)) // 2
                edges.append((k - j * (j - 1) // 2, j))
    return Graph(n, edges)


def to_edgelist(graph: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in graph.edges())


def from_edgelist(text: str, n: int | None = None) -> Graph:
    edges = []
    top = -1
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        u, v = map(int, line.split())
        edges.append((u, v))
        top = max(top, u, v)
    return Graph(top + 1 if n is None else n, edges)

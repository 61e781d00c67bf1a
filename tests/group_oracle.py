"""Test oracles for mdg.groups and mdg.graphs, kept from earlier designs.

``TableGroup`` is an explicit multiplication-table backend for small
groups.  ``cosets`` forms the whole (|H|, |G|) product at once, the oracle
for the blocked ``graphs.right_cosets``.  ``mat_transpose`` is the scalar
F_2 transpose behind the per-element lift formulas.  ``dihedral_mul`` and
``dihedral_inv`` are the scalar factor-by-factor arithmetic of
``groups.DihedralProduct``, whose product and inverse are array forms.
``cayley_graph_from_pairs`` and ``sigma_graph_from_pairs`` build Γ and Σ
from their edge lists through the general ``graphs.Graph``, the oracles
for the builders that write the neighbour rows directly.  ``complete_bipartite``
lists the edges of K(m, n), which ``export --target kbip`` now builds as
the coset graph of C_2^(2n).  ``line_graph`` builds
a line graph on the rows of ``edge_array()``.
``maximal_cliques`` enumerates the maximal cliques with Bron-Kerbosch.
``center`` scans every code for the ones that commute with the
generators: the oracle for ``groups.is_center``, which reads Z(G) = G'
from the generators' words.  ``bfs_layers`` is the breadth-first search
on the neighbour array, the oracle for the distance layers."""

import itertools

import numpy as np

from mdg import graphs, groups


class TableGroup:
    """Explicit multiplication-table backend for small groups."""

    def __init__(self, table, identity=0, x_gens=(), y_gens=()):
        self.table = np.array(table, dtype=np.int64)
        self.order = len(self.table)
        if self.table.shape != (self.order, self.order) or not self.order:
            raise ValueError("the table must be a nonempty square array")
        self.identity = identity
        self.x_gens = list(x_gens)
        self.y_gens = list(y_gens)
        self.gens = self.x_gens + self.y_gens
        is_id = self.table == identity
        if not is_id.any(axis=1).all():
            raise ValueError("table has an element without an inverse")
        self._inv = np.argmax(is_id, axis=1)

    def mul_vec(self, g1, g2):
        """Elementwise (broadcast) product: a fancy index into the table."""
        return self.table[np.asarray(g1, dtype=np.int64), np.asarray(g2, dtype=np.int64)]

    def inv_vec(self, g):
        return self._inv[np.asarray(g, dtype=np.int64)]


def _factors(ms, code: int) -> list[tuple[int, int]]:
    """(flip, rotation) of every dihedral factor, least significant first."""
    out = []
    for m in ms:
        code, v = divmod(code, 2 * m)
        out.append((v // m, v % m))
    return out


def dihedral_code(ms, factors) -> int:
    code = 0
    for m, (flip, rot) in zip(reversed(ms), reversed(factors)):
        code = code * (2 * m) + flip * m + rot
    return code


def dihedral_mul(ms, g1: int, g2: int) -> int:
    return dihedral_code(ms, [(f1 ^ f2, (k2 - k1 if f2 else k2 + k1) % m)
                              for m, (f1, k1), (f2, k2) in zip(ms, _factors(ms, g1), _factors(ms, g2))])


def dihedral_inv(ms, g: int) -> int:
    return dihedral_code(ms, [(flip, rot if flip else (-rot) % m)
                              for m, (flip, rot) in zip(ms, _factors(ms, g))])


def cosets(G, subgroup) -> np.ndarray:
    """Right cosets S h as the rows of an int64 array: each row sorted, rows
    sorted by their minimal member.

    Raises ValueError if ``subgroup`` is not multiplication-closed.
    """
    sub = np.asarray(sorted(set(subgroup)), dtype=np.int64)
    if not np.any(sub == G.identity):
        raise ValueError("subgroup must contain the identity")
    if not np.isin(np.asarray(G.mul_vec(sub[:, None], sub[None, :]), dtype=np.int64), sub).all():
        raise ValueError("subgroup is not closed under multiplication")
    # column h holds the coset S h; its least member names the coset
    products = np.asarray(G.mul_vec(sub[:, None], np.arange(G.order)[None, :]), dtype=np.int64)
    reps = np.flatnonzero(products.min(axis=0) == np.arange(G.order))
    return np.sort(products[:, reps].T, axis=1)


def coset_index_array(G, subgroup) -> tuple[np.ndarray, np.ndarray]:
    """Cosets plus a code -> coset-index lookup array."""
    cs = cosets(G, subgroup)
    idx = np.empty(G.order, dtype=np.int64)
    idx[cs] = np.arange(len(cs))[:, None]
    return cs, idx


def mat_transpose(m: int, n: int) -> int:
    t = 0
    for i in range(n):
        for j in range(n):
            if (m >> (i * n + j)) & 1:
                t |= 1 << (j * n + i)
    return t


def cayley_graph_from_pairs(G, S) -> graphs.Graph:
    """Cay(G, S) from its pairs {g, s g}, each edge listed from both ends."""
    S = np.asarray(sorted(set(S)), dtype=np.int64)
    heads = np.asarray(G.mul_vec(S[:, None], np.arange(G.order)[None, :]), dtype=np.int64)
    tails = np.broadcast_to(np.arange(G.order), heads.shape)
    return graphs.Graph(G.order, np.stack([tails.ravel(), heads.ravel()], axis=1))


def sigma_graph_from_pairs(info: graphs.SigmaInfo) -> graphs.Graph:
    """The coset graph from its pairs {Xh, Yh}, one per group element;
    repeated pairs are merged."""
    pairs = np.stack([info.x_index, info.n_x + info.y_index], axis=1).astype(np.int64)
    return graphs.Graph(info.n_x + len(info.y_cosets), pairs)


def complete_bipartite(m: int, n: int) -> graphs.Graph:
    if m < 1 or n < 1:
        raise ValueError("parts must be nonempty")
    return graphs.Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def line_graph(graph: graphs.Graph) -> graphs.Graph:
    """Graph on the edges of ``graph`` (vertex i is row i of
    ``edge_array()``), adjacent iff they share an endpoint.  The adjacent
    pairs are those of the edges met at each vertex."""
    met = [[] for _ in range(graph.n)]
    for i, (u, w) in enumerate(graph.edge_array().tolist()):
        met[u].append(i)
        met[w].append(i)
    return graphs.Graph(graph.edge_count(), [
        pair for edges in met for pair in itertools.combinations(edges, 2)])


def maximal_cliques(graph: graphs.Graph) -> list[list[int]]:
    """Pivot-free Bron-Kerbosch enumeration, canonically sorted."""
    bitsets = [sum(1 << v for v in graph.neighbors(u).tolist()) for u in range(graph.n)]
    out = []

    def expand(r: list[int], p: int, x: int):
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


def center(G) -> np.ndarray:
    """The elements commuting with every generator in ``G.gens``: the
    centraliser of the generators, which is the center when they generate G
    (for the tensor group the ``order`` claim shows that they do), marked in
    a mask of a bit per code, the first the highest, and listed once."""
    groups.check_budget(G.order)
    central = np.zeros(-(-G.order // 8), dtype=np.uint8)
    # a block's codes are made with it and kept while they commute with each
    # generator in turn; a code weighs its own 8 bytes, one product's and the
    # other product's 8-byte temporaries: three in the tensor product, and in
    # a dihedral product a pair of digit arrays per factor and seven more
    for lo, hi in groups._blocks(G.order, 2 + (2 * len(G.ms) + 7 if hasattr(G, "ms") else 3)):
        block = np.arange(lo, hi, dtype=np.int64)
        for g in G.gens:
            block = block[G.mul_vec(block, g) == G.mul_vec(g, block)]
        np.bitwise_or.at(central, block >> 3, (128 >> (block & 7)).astype(np.uint8))
    return np.flatnonzero(np.unpackbits(central, count=G.order))


def bfs_layers(graph: graphs.Graph, v: int, depth: int | None = None) -> tuple[np.ndarray, list[int]]:
    """Exact BFS distances from v (-1 for unreachable, or beyond ``depth``
    if given), as an int64 array over the vertices, and the layer sizes.
    The frontier's rows are read a block of rows at a time, weighed at four
    8-byte temporaries per slot, and the next layer is marked in a mask
    over the vertices, with one more slot for the padding."""
    rows = graph.neighbor_array()
    dist = np.full(graph.n, -1, dtype=np.int64)
    dist[v] = 0
    frontier = np.array([v], dtype=np.int64)
    layers = [1]
    marked = np.zeros(graph.n + 1, dtype=bool)
    seen = marked[:graph.n]  # the vertices' slots, without the padding's
    while len(layers) - 1 != depth:
        for lo, hi in groups._blocks(len(frontier), 4 * rows.shape[1]):
            marked[rows[frontier[lo:hi]]] = True
        seen[dist >= 0] = False
        frontier = np.flatnonzero(seen)
        if not len(frontier):
            break
        seen[frontier] = False
        dist[frontier] = len(layers)
        layers.append(len(frontier))
    return dist, layers

"""Undirected simple graphs on indexed vertices, each stored as its padded
neighbour array, and the constructions linking a group generated by X and
Y to its Cayley graph and the bipartite coset graph on [G:X] u [G:Y]; the
neighbourhood of 1 in the Cayley graph, which decides its cliques,
line-graph structure and edge colours; and graph6 and edge-list export.
"""

from collections import namedtuple

import numpy as np

from . import groups


class Graph:
    """Simple undirected graph stored once, as a read-only neighbour array:
    row v holds the neighbours of v in ascending order, then the padding n
    up to the maximum degree.  A regular graph has no padding.  The array
    takes ``_index_dtype`` of the largest value it stores (int16 up to 2^15
    vertices with no padding); arithmetic that can leave that range widens
    where it is done.  Permutations of the vertices stay int32
    (``permgroups``).

    ``edges`` is an (m, 2) integer array or any iterable of integer pairs;
    repeats are merged, loops and out-of-range or non-integer vertices rejected.
    """

    def __init__(self, n: int, edges=()):
        n = int(n)
        pairs = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if pairs.size == 0:
            pairs = pairs.astype(np.int64).reshape(0, 2)
        if pairs.dtype.kind not in "iu" or pairs.ndim != 2 or pairs.shape[1] != 2:
            raise ValueError("edges must be pairs of integer vertices")
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
        # the heads, by tail and then head, fill each row's first slots in turn
        degs = np.diff(np.searchsorted(keys, np.arange(n + 1, dtype=dtype) * n))
        width = int(degs.max(initial=0))
        padded = bool(np.any(degs != width))
        rows = np.full((n, width), n if padded else 0, dtype=_index_dtype(n + padded))
        rows[np.arange(width) < degs[:, None]] = keys % max(n, 1)
        self.n, self._rows = n, rows
        rows.flags.writeable = False

    @classmethod
    def _from_rows(cls, rows: np.ndarray) -> "Graph":
        """The graph whose neighbour array is already built: each row
        ascending, with no loop or repeat, then padded with n, and u in row
        v iff v in row u.  Nothing is checked; the array is made read-only."""
        graph = cls.__new__(cls)
        graph.n, graph._rows = len(rows), rows
        rows.flags.writeable = False
        return graph

    def neighbor_array(self) -> np.ndarray:
        """The stored (n, max degree) neighbour array, read-only."""
        return self._rows

    def neighbors(self, v: int) -> np.ndarray:
        row = self._rows[v]
        return row[:np.searchsorted(row, self.n)]

    def edge_count(self) -> int:
        return int(np.count_nonzero(self._rows < self.n)) // 2

    def edge_array(self) -> np.ndarray:
        """The edges as an (m, 2) array of pairs u < v, in
        ``_index_dtype(n)``, ascending, filled a block of rows at a time."""
        out = np.empty((self.edge_count(), 2), dtype=_index_dtype(self.n))
        done = 0
        for tails, heads in _forward_arcs(self):
            out[done:done + len(tails), 0] = tails
            out[done:done + len(tails), 1] = heads
            done += len(tails)
        return out

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.any(self.neighbors(u) == v))

    def is_regular(self) -> int | None:  # the degree if no row ends in padding
        width = self._rows.shape[1]
        return width if self.n and not np.any(self._rows[:, -1:] == self.n) else None

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and np.array_equal(self._rows, other._rows))


# -- array helpers on the neighbour array ------------------------------------

def _index_dtype(limit: int):
    """The narrowest of int16, int32 and int64 that holds range(limit): the
    type of every stored array of vertex ids or cosets."""
    return next((t for t in (np.int16, np.int32) if limit <= np.iinfo(t).max + 1), np.int64)


def _forward_arcs(graph: Graph, per_arc: int = 4):
    """The arcs u -> v with u < v in ascending order, the rows of
    ``edge_array()``, as (tails, heads) per block of rows; ``per_arc``
    counts the caller's 8-byte temporaries per slot and these four (the
    tails, the mask, the heads and the caller's hold on the last block)."""
    rows = graph.neighbor_array()
    for lo, hi in groups._blocks(graph.n, per_arc * rows.shape[1]):
        heads = rows[lo:hi]
        tails = np.arange(lo, hi, dtype=rows.dtype)[:, None]
        fwd = (tails < heads) & (heads < graph.n)
        yield np.broadcast_to(tails, heads.shape)[fwd], heads[fwd]


def _codes(a) -> np.ndarray:
    return np.asarray(a, dtype=np.int64)


# -- builders ------------------------------------------------------------------

def connection_set(G, S) -> np.ndarray:
    """The distinct members of S, sorted, as int64, once S is checked
    inverse-closed and without the identity: then Cay(G, S) is a simple
    graph, regular of valency len(S)."""
    S = _codes(sorted(set(S)))
    if np.any(S == G.identity):
        raise ValueError("identity must not lie in the connection set")
    if not np.isin(_codes(G.inv_vec(S)), S, assume_unique=True).all():
        raise ValueError("connection set is not inverse-closed")
    return S


def cayley_graph(G, S) -> Graph:
    """Cayley graph of G with connection set S (``connection_set``): edges
    {g, sg}; vertex i is the element with canonical code i.  Row g is S g,
    sorted: S is a set without 1, so the row has no loop or repeat, and
    h = s g iff g = s^-1 h with s^-1 in S, so the rows are symmetric."""
    S = connection_set(G, S)
    rows = np.empty((G.order, len(S)), dtype=_index_dtype(G.order))
    # one block of rows against every s at a time
    for lo, hi in groups._blocks(G.order, len(S)):
        block = rows[lo:hi]
        block[:] = G.mul_vec(S[:, None], np.arange(lo, hi)).T
        block.sort(axis=1)
    return Graph._from_rows(rows)


def xy_connection_set(G) -> list[int]:
    """(X u Y) \\ {1} for a group carrying distinguished X and Y."""
    S = groups.sorted_codes(np.concatenate([groups.closure_array(G, G.x_gens),
                                            groups.closure_array(G, G.y_gens)]))
    return S[S != G.identity].tolist()


Neighbourhood = namedtuple("Neighbourhood", "x_degree y_degree trivial_meet two_cliques apart")


def identity_neighbourhood(G, S) -> Neighbourhood:
    """The neighbourhood S of 1 in Cay(G, S), in which s ~ t iff s t^-1 lies
    in S, read from one |S| x |S| product table against X = <G.x_gens> and
    Y = <G.y_gens>: how many members of S lie in X and in Y; whether
    X n Y = {1}; whether S is X \\ {1} and Y \\ {1}, each a clique; and
    whether no edge joins the two.  R(G) acts on the Cayley graph by
    automorphisms, transitively, so every vertex's neighbourhood is a copy."""
    X, Y = (groups.closure_array(G, gens) for gens in (G.x_gens, G.y_gens))
    S = _codes(S)
    adjacent = groups.in_sorted(G.mul_vec(S[:, None], G.inv_vec(S)[None, :]), np.sort(S))
    in_x, in_y = np.isin(S, X, assume_unique=True), np.isin(S, Y, assume_unique=True)
    same_side = in_x[:, None] & in_x | in_y[:, None] & in_y
    np.fill_diagonal(same_side, False)
    sides = np.concatenate([X[X != G.identity], Y[Y != G.identity]])
    return Neighbourhood(
        int(np.count_nonzero(in_x)), int(np.count_nonzero(in_y)),
        np.intersect1d(X, Y, assume_unique=True).tolist() == [G.identity],
        np.array_equal(np.sort(S), np.sort(sides)) and bool(np.all(adjacent[same_side])),
        not np.any(adjacent & ~same_side))


class SigmaInfo(namedtuple("SigmaInfo", "x_cosets y_cosets x_index y_index")):
    """Bookkeeping for the coset graph: vertex i < n_x is X-coset i,
    vertex n_x + j is Y-coset j.  The cosets are the rows of member
    arrays; the index arrays map a group code to its coset's row.  All
    four hold ``_index_dtype(G.order)`` integers."""
    __slots__ = ()

    @property
    def n_x(self) -> int:
        return len(self.x_cosets)


def right_cosets(G, subgroup) -> tuple[np.ndarray, np.ndarray]:
    """Right cosets S h of a subgroup as the rows of an array, rows
    ascending and ordered by their least member, plus every code's row,
    both in ``_index_dtype(G.order)``.
    The codes least in their cosets are found, and then the cosets
    through them listed, a block of codes at a time, weighed by their
    products with the subgroup.
    Raises ValueError if ``subgroup`` is not multiplication-closed."""
    sub = groups.sorted_codes(subgroup)
    if not np.any(sub == G.identity):
        raise ValueError("subgroup must contain the identity")
    if not groups.in_sorted(G.mul_vec(sub[:, None], sub[None, :]), sub).all():
        raise ValueError("subgroup is not closed under multiplication")
    dtype = _index_dtype(G.order)
    blocks = (np.arange(lo, hi, dtype=np.uint64) for lo, hi in groups._blocks(G.order, len(sub)))
    roots = np.concatenate([h[G.mul_vec(sub[:, None], h).min(axis=0) == h] for h in blocks])
    rows, index = np.empty((len(roots), len(sub)), dtype=dtype), np.empty(G.order, dtype=dtype)
    for lo, hi in groups._blocks(len(roots), len(sub)):
        block = rows[lo:hi]
        block[:] = G.mul_vec(sub[:, None], roots[lo:hi]).T
        block.sort(axis=1)
        index[block] = np.arange(lo, hi, dtype=dtype)[:, None]
    return rows, index


def sigma_graph(G) -> tuple[Graph, SigmaInfo]:
    """Bipartite graph on right X-cosets and Y-cosets, adjacent iff they
    intersect.  The row of an X-coset lists the Y-cosets of its members,
    and the row of a Y-coset the X-cosets of its members.  Each group
    element h then gives the edge {Xh, Yh} once; ValueError when a row
    repeats a coset, that is when two members of a coset share a coset of
    the other side and |Xh n Yg| <= 1 fails.  When |X| != |Y| the rows of
    the smaller side are padded.
    """
    groups.check_budget(G.order)
    x_cosets, x_index = right_cosets(G, groups.closure_array(G, G.x_gens))
    y_cosets, y_index = right_cosets(G, groups.closure_array(G, G.y_gens))
    info = SigmaInfo(x_cosets, y_cosets, x_index, y_index)
    n, n_x, (wx, wy) = info.n_x + len(y_cosets), info.n_x, (x_cosets.shape[1], y_cosets.shape[1])
    rows = np.empty((n, max(wx, wy)), dtype=_index_dtype(n + (wx != wy)))
    for cosets, index, offset, side in ((x_cosets, y_index, n_x, rows[:n_x]),
                                        (y_cosets, x_index, 0, rows[n_x:])):
        width = cosets.shape[1]
        if width < rows.shape[1]:
            side[:, width:] = n
        for lo, hi in groups._blocks(len(cosets), width):
            block = side[lo:hi, :width]
            np.add(index[cosets[lo:hi]], offset, out=block)
            block.sort(axis=1)
            if np.any(block[:, 1:] == block[:, :-1]):
                raise ValueError("two members of a coset share a coset of the other side")
    return Graph._from_rows(rows), info


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
    for i, j in _forward_arcs(graph):
        k = j.astype(np.int64) * (j - 1) // 2 + i
        np.add.at(body, k // 6, (32 >> (k % 6)).astype(np.uint8))
    return out


def to_edgelist(graph: Graph) -> str:
    """The edges as "u v" lines in ``edge_array()`` order, formatted a block
    of rows at a time: the forward arcs' ints, their list and tuple slots
    and their lines weigh about seven 8-byte temporaries per slot."""
    return "".join("%d %d\n" * len(u) % tuple(np.stack([u, v], axis=1).ravel().tolist())
                   for u, v in _forward_arcs(graph, 4 + 7))

"""Graph automorphism search by partition refinement and backtracking.

The search is a certification search against a known subgroup: candidate
branches already reachable by known automorphisms are skipped, and every
other branch is either turned into a new explicit automorphism or refuted
by an exhaustive sub-search.  With the full group supplied as the known
subgroup the search degenerates into a (still exhaustive) verification
that nothing further exists.

Partitions are int arrays (``Partition``), and each node of the search
refines once, from its parent's refined partition.
"""

from dataclasses import dataclass

import numpy as np

from . import graphs, groups, permgroups


class Partition:
    """An ordered partition of the vertices 0..n-1 in three int arrays:
    ``order`` lists the vertices cell by cell, each cell ascending; cell i
    is ``order[starts[i]:starts[i + 1]]``, the last start being n; and
    ``cell[v]`` is the index of the cell holding v.  Its length is its
    number of cells."""

    def __init__(self, order: np.ndarray, starts: np.ndarray):
        self.order, self.starts = order, starts
        sizes = np.diff(starts)
        self.cell = np.empty(len(order), dtype=np.int32)
        self.cell[order] = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)

    @classmethod
    def unit(cls, n: int) -> "Partition":
        """All n vertices in one cell (no cell when n is 0), built directly."""
        return cls(np.arange(n, dtype=np.int32), np.array([0, n] if n else [0]))

    def __len__(self) -> int:
        return len(self.starts) - 1

    def members(self, i: int) -> np.ndarray:
        return self.order[self.starts[i]:self.starts[i + 1]]

    def first_split(self) -> int | None:
        """Index of the first cell with more than one vertex, if any."""
        big = np.flatnonzero(np.diff(self.starts) > 1)
        return int(big[0]) if len(big) else None

    def individualize(self, v: int) -> "Partition":
        """v taken out of its cell into a singleton cell just before it."""
        c = self.cell[v]
        lo, hi = self.starts[c], self.starts[c + 1]
        if hi - lo == 1:
            return self
        order = self.order.copy()
        order[lo:hi] = np.append(v, order[lo:hi][order[lo:hi] != v])
        return Partition(order, np.insert(self.starts, c + 1, lo + 1))


def _row_words(nbr: np.ndarray, cell: np.ndarray, verts: np.ndarray, k: int) -> np.ndarray:
    """The sorted row of neighbour cells of each vertex in ``verts``
    (``cell`` maps the padding to k, above every cell index), as k - entry
    packed first-most-significant into uint64 words, one column per vertex:
    words ascend as rows descend.  Rows are taken CHUNK // degree at a
    time, and each block is packed with array shifts."""
    d, width = nbr.shape[1], k.bit_length()
    per = 64 // width
    # column j is field j % per of word j // per; a shorter last word keeps
    # its fields in its low bits
    col = np.arange(d)
    shifts = (np.minimum(per, d - col // per * per) - 1 - col % per).astype(np.uint64)
    shifts *= np.uint64(width)
    words = np.zeros((-(-d // per) or 1, len(verts)), dtype=np.uint64)
    if not d:  # every row is empty
        return words
    step = max(1, graphs.CHUNK // d)
    for lo in range(0, len(verts), step):
        rows = cell[nbr[verts[lo:lo + step]]]
        rows.sort(axis=1)
        fields = np.subtract(k, rows, out=rows).astype(np.uint64)
        fields <<= shifts
        words[:, lo:lo + step] = np.bitwise_or.reduceat(fields, np.arange(0, d, per), axis=1).T
        del rows, fields  # before the next block's are made
    return words


def refine(graph: graphs.Graph, part: Partition) -> Partition:
    """Deterministic equitable refinement: split every cell by the tuple
    of neighbour counts into all current cells, until stable.

    The parts of a split cell replace it in ascending count-tuple order,
    each ascending.  A pass sorts vertices by cell, then by their sorted
    row of neighbour cells padded with a sentinel above every cell index,
    packed into uint64 words (``_row_words``): rows sort descending exactly
    when count tuples sort ascending.  After a pass the vertices of a cell
    have equal counts into each cell that split, so the next pass reads
    only the cells next to the parts other than the largest (the first
    pass: every cell).  Rows are read a block of vertices at a time
    (McKay & Piperno, J. Symb. Comput. 60, 2014).
    """
    n = graph.n
    if len(part.order) != n:
        raise ValueError("cells must partition the vertices")
    nbr = graph.neighbor_array()
    step = max(1, graphs.CHUNK // max(1, nbr.shape[1]))
    todo = np.flatnonzero(np.diff(part.starts) > 1)
    while len(todo):
        k = len(part)
        pos = graphs._ranges(part.starts[todo], np.diff(part.starts)[todo])
        verts = part.order[pos]
        cur = part.cell[verts]
        words = _row_words(nbr, np.append(part.cell, np.int32(k)), verts, k)  # k pads
        # lexsort is stable, so each part keeps its vertices ascending
        srt = np.lexsort((*words[::-1], cur))
        words, cur, verts = words[:, srt], cur[srt], verts[srt]
        new = np.append(False, (cur[1:] == cur[:-1]) & np.any(words[:, 1:] != words[:, :-1], 0))
        if not new.any():
            break
        order = part.order.copy()
        order[pos] = verts
        part = Partition(order, np.sort(np.concatenate([part.starts, pos[new]])))
        # every part but the largest of each old cell (one, if several tie)
        first = np.flatnonzero(np.append(True, cur[1:] != cur[:-1]) | new)
        size = np.diff(np.append(first, len(pos)))
        big = np.lexsort((-size, cur[first]))
        small = np.ones(len(first), dtype=bool)
        small[big[np.append(True, np.diff(cur[first][big]) != 0)]] = False
        smalls = verts[np.repeat(small, size)]
        touched = np.zeros(len(part), dtype=bool)
        for lo in range(0, len(smalls), step):
            near = nbr[smalls[lo:lo + step]].ravel()
            touched[part.cell[near[near < n]]] = True
        todo = np.flatnonzero(touched & (np.diff(part.starts) > 1))
    return part


class _Matcher:
    """Searches for an automorphism sending one individualization sequence
    to another, sharing a node budget across calls.  A node refines its
    source-side child once, for every target vertex tried against it."""

    def __init__(self, graph: graphs.Graph, budget: int):
        self.graph, self.budget, self.nodes = graph, budget, 0

    def find(self, cs: Partition, parent_t: Partition, seq_s: list[int],
             seq_t: list[int]) -> np.ndarray | None:
        """``cs`` is the refined partition of ``seq_s``, and ``parent_t``
        that of ``seq_t`` without its last vertex."""
        self.nodes += 1
        if self.nodes > self.budget:
            raise groups.BudgetExceeded(f"matcher exceeded {self.budget} nodes")
        g = self.graph
        ct = refine(g, parent_t.individualize(seq_t[-1]))
        if not np.array_equal(cs.starts, ct.starts):
            return None
        # individualized vertices must sit in matching positions
        if not np.array_equal(cs.cell[seq_s], ct.cell[seq_t]):
            return None
        split = cs.first_split()
        if split is None:
            p = np.empty(g.n, dtype=np.int32)
            p[cs.order] = ct.order
            return p if permgroups.are_automorphisms(g, [p]) else None
        v = int(cs.members(split)[0])
        child_s = refine(g, cs.individualize(v))
        for u in ct.members(split).tolist():
            found = self.find(child_s, ct, seq_s + [v], seq_t + [u])
            if found is not None:
                return found
        return None


@dataclass
class AutResult:
    gens: list
    order: int | None
    complete: bool
    nodes: int


def automorphism_group(graph: graphs.Graph, known_gens=(), node_budget: int = 1 << 20) -> AutResult:
    """Full automorphism group as (generators, order) from a backtrack
    search seeded with ``known_gens``.

    The order is exact: at every level each vertex of the branching cell
    is either reached by a found automorphism or exhaustively refuted,
    so the orbit products equal the true stabilizer-chain indices.
    On budget exhaustion returns complete=False with order None.
    """
    gens = [permgroups.as_perm(g) for g in known_gens]
    if not permgroups.are_automorphisms(graph, gens):
        raise ValueError("known generator is not an automorphism")
    n = graph.n
    matcher = _Matcher(graph, node_budget)
    order = 1
    seq: list[int] = []
    cells = refine(graph, Partition.unit(n))
    try:
        while True:
            split = cells.first_split()
            if split is None:
                break
            members = cells.members(split)
            v = int(members[0])
            stab = [g for g in gens if np.array_equal(g[seq], seq)]
            orb_v = permgroups.orbit_mask(stab, v, n)
            refuted = np.zeros(n, dtype=bool)
            child = refine(graph, cells.individualize(v))
            for u in members.tolist():
                if orb_v[u] or refuted[u]:
                    continue
                p = matcher.find(child, cells, seq + [v], seq + [u])
                if p is None:
                    refuted |= permgroups.orbit_mask(stab, u, n)
                else:
                    gens.append(p)
                    stab.append(p)
                    orb_v = permgroups.orbit_mask(stab, v, n)
            order *= int(np.count_nonzero(orb_v))
            seq.append(v)
            cells = child
    except groups.BudgetExceeded:
        return AutResult(gens, None, False, matcher.nodes)
    return AutResult(gens, order, True, matcher.nodes)

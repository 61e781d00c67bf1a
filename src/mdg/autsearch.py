"""Graph automorphism orders by partition refinement.

``certified_order`` certifies |Aut(graph)| from known automorphisms: it
individualises one vertex a level and refines, and the known automorphisms
that fix the earlier base points must be transitive on each individualised
cell.  Partitions are int arrays (``Partition``), and each level refines
once, from the previous level's refined partition.
"""

import numpy as np

from . import graphs, permgroups


class Partition:
    """An ordered partition of the vertices 0..n-1 in three int arrays:
    ``order`` lists the vertices cell by cell, each cell ascending; cell i
    is ``order[starts[i]:starts[i + 1]]``, the last start being n; and
    ``cell[v]`` is the index of the cell holding v.  Its length is its
    number of cells, and ``singleton`` the vertex ``individualize`` took out."""

    def __init__(self, order: np.ndarray, starts: np.ndarray, singleton: int | None = None):
        self.order, self.starts, self.singleton = order, starts, singleton
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
        return Partition(order, np.insert(self.starts, c + 1, lo + 1), v)


def refine(graph: graphs.Graph, part: Partition) -> Partition:
    """Deterministic equitable refinement: split every cell by the tuple
    of neighbour counts into all current cells, until stable.

    The parts of a split cell replace it in ascending count-tuple order,
    each ascending.  A pass takes the vertices of the cells it reads, each
    with its sorted row of neighbour cells (the padding read as k, above
    every cell index) rewritten in place as k - entry, and lexsorts them
    by cell, then by that row: rewritten rows ascend exactly when count
    tuples do.  A part starts wherever two vertices of one cell, next to
    each other in that order, differ in some column, compared a column at
    a time.  The rows are read whole, not in blocks: the CLI refines only
    Sigma(2) and Sigma(3).  After a pass the vertices of a cell have equal
    counts into each cell that split, so the next pass reads only the
    cells next to the parts other than the largest (the first pass: every
    cell, or, after ``individualize`` of an equitable partition, the cells
    next to its singleton) (McKay & Piperno, J. Symb. Comput. 60, 2014).
    """
    n = graph.n
    if len(part.order) != n:
        raise ValueError("cells must partition the vertices")
    nbr = graph.neighbor_array()
    todo = np.flatnonzero(np.diff(part.starts) > 1)
    if part.singleton is not None:  # a table lookup: np.isin's sort imports numpy.ma
        todo = todo[np.isin(todo, part.cell[graph.neighbors(part.singleton)], kind="table")]
    while len(todo):
        k = len(part)
        pos = np.flatnonzero(np.isin(part.cell[part.order], todo, kind="table"))
        verts = part.order[pos]
        cur = part.cell[verts]
        rows = np.append(part.cell, np.int32(k))[nbr[verts]]  # k pads
        rows.sort(axis=1)
        np.subtract(k, rows, out=rows)
        # lexsort is stable, so each part keeps its vertices ascending
        srt = np.lexsort((*rows.T[::-1], cur))
        cur, verts = cur[srt], verts[srt]
        new = np.zeros(len(pos), dtype=bool)
        for col in rows.T:
            col = col[srt]
            new[1:] |= col[1:] != col[:-1]
        del rows  # before the next pass gathers its own
        new[1:] &= cur[1:] == cur[:-1]
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
        near = nbr[verts[np.repeat(small, size)]].ravel()
        touched = np.zeros(len(part), dtype=bool)
        touched[part.cell[near[near < n]]] = True
        todo = np.flatnonzero(touched & (np.diff(part.starts) > 1))
    return part


def certified_order(graph: graphs.Graph, known_gens) -> int:
    """The order of Aut(graph), certified from the automorphisms
    ``known_gens`` alone, which it checks first.

    From the unit partition it refines, then at each level individualises
    the first vertex v of the first cell with more than one vertex: v's
    orbit under the seeds that fix the earlier base points, grown a layer
    of images at a time, must cover that cell.  The order is the product of
    the cells' sizes; else a ValueError names the cell, never a wrong order.

    Sound because refinement is invariant under A_seq, the automorphisms
    fixing the base points: each cell is a union of A_seq-orbits, and the
    seeds, which lie in A_seq, make v's orbit the whole cell, so |A_seq|
    is the cell's size times the order of v's stabilizer in A_seq.  When
    every cell is a singleton A_seq is trivial (the orbit pruning of
    McKay & Piperno, J. Symb. Comput. 60, 2014, with no branch left to
    search).
    """
    gens = [permgroups.as_perm(g) for g in known_gens]
    if not permgroups.are_automorphisms(graph, gens):
        raise ValueError("known generator is not an automorphism")
    order, seq = 1, []
    cells = refine(graph, Partition.unit(graph.n))
    while (split := cells.first_split()) is not None:
        members = cells.members(split)
        v = int(members[0])
        seeds = [g for g in gens if np.array_equal(g[seq], seq)]
        orbit, frontier = np.arange(graph.n) == v, np.array([v])
        while len(frontier) and not orbit[members].all():
            layer = np.zeros(graph.n, dtype=bool)
            for g in seeds:
                layer[g[frontier]] = True
            frontier = np.flatnonzero(layer & ~orbit)
            orbit[frontier] = True
        if not orbit[members].all():
            raise ValueError(f"cell {split} ({len(members)} vertices) is not one orbit of "
                             f"the known automorphisms fixing {seq}")
        order *= len(members)
        seq.append(v)
        cells = refine(graph, cells.individualize(v))
    return order

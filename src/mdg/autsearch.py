"""Graph automorphism search by partition refinement and backtracking.

The search is a certification search against a known subgroup: candidate
branches already reachable by known automorphisms are skipped, and every
other branch is either turned into a new explicit automorphism or refuted
by an exhaustive sub-search.  With the full group supplied as the known
subgroup the search degenerates into a (still exhaustive) verification
that nothing further exists.
"""

from dataclasses import dataclass

import numpy as np

from . import graphs, groups, permgroups


def refine(graph: graphs.Graph, cells) -> list[list[int]]:
    """Deterministic equitable refinement: split every cell by the tuple
    of neighbor counts into all current cells, until stable.

    The parts of a split cell are ordered by ascending count tuple, and
    every cell lists its vertices in ascending order.  A pass is one
    lexsort: a vertex's sorted row of neighbour cells, padded with a
    sentinel above every cell index, sorts in descending order exactly
    when its count tuple sorts in ascending order.  The padded row matrix
    takes n * (maximum degree) entries.
    """
    n = graph.n
    cell_of = np.full(n + 1, n, dtype=np.int32)  # slot n: the padding sentinel
    members = [np.asarray(c, dtype=np.int64) for c in cells if len(c)]
    flat = np.concatenate(members) if members else np.zeros(0, dtype=np.int64)
    if len(flat) != n or not np.array_equal(np.sort(flat), np.arange(n)):
        raise ValueError("cells must partition the vertices")
    for ci, c in enumerate(members):
        cell_of[c] = ci
    k = len(members)
    nbr = graph.neighbor_array(pad=n)
    while True:
        rows = np.sort(cell_of[nbr], axis=1)
        cur = cell_of[:n]
        # lexsort is stable, so each part keeps its vertices ascending
        order = np.lexsort([-rows[:, j] for j in reversed(range(rows.shape[1]))] + [cur])
        srt, sc = rows[order], cur[order]
        starts = np.ones(n, dtype=bool)
        starts[1:] = (sc[1:] != sc[:-1]) | np.any(srt[1:] != srt[:-1], axis=1)
        new_k = int(starts.sum())
        if new_k == k:
            break
        cur[order] = np.cumsum(starts) - 1
        k = new_k
    order = np.argsort(cell_of[:n], kind="stable")
    bounds = np.flatnonzero(np.diff(cell_of[order])) + 1
    return [c.tolist() for c in np.split(order, bounds)] if n else []


def _individualize(cells, v: int) -> list[list[int]]:
    out = []
    for c in cells:
        if v in c and len(c) > 1:
            out.append([v])
            out.append([u for u in c if u != v])
        else:
            out.append(c)
    return out


def _refine_seq(graph: graphs.Graph, seq) -> list[list[int]]:
    cells = refine(graph, [list(range(graph.n))])
    for v in seq:
        cells = refine(graph, _individualize(cells, v))
    return cells


class _Matcher:
    """Searches for an automorphism sending one individualization sequence
    to another, sharing a node budget across calls."""

    def __init__(self, graph: graphs.Graph, budget: int):
        self.graph = graph
        self.budget = budget
        self.nodes = 0

    def find(self, seq_s: list[int], seq_t: list[int]) -> np.ndarray | None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise groups.BudgetExceeded(f"matcher exceeded {self.budget} nodes")
        g = self.graph
        cs = _refine_seq(g, seq_s)
        ct = _refine_seq(g, seq_t)
        if [len(c) for c in cs] != [len(c) for c in ct]:
            return None
        # individualized vertices must sit in matching positions
        pos_s = {c[0]: i for i, c in enumerate(cs) if len(c) == 1}
        pos_t = {c[0]: i for i, c in enumerate(ct) if len(c) == 1}
        if [pos_s[v] for v in seq_s] != [pos_t[v] for v in seq_t]:
            return None
        split = next((i for i, c in enumerate(cs) if len(c) > 1), None)
        if split is None:
            p = np.empty(g.n, dtype=np.int32)
            for c_s, c_t in zip(cs, ct):
                p[c_s[0]] = c_t[0]
            if permgroups.is_automorphism(g, p):
                return p
            return None
        v = cs[split][0]
        for u in ct[split]:
            found = self.find(seq_s + [v], seq_t + [u])
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
    matcher = _Matcher(graph, node_budget)
    order = 1
    seq: list[int] = []
    cells = refine(graph, [list(range(graph.n))])
    try:
        while True:
            split = next((i for i, c in enumerate(cells) if len(c) > 1), None)
            if split is None:
                break
            v = cells[split][0]
            stab = [g for g in gens if all(int(g[x]) == x for x in seq)]
            orb_v = set(permgroups.orbit_of(stab, v, graph.n))
            refuted: set[int] = set()
            for u in cells[split]:
                if u in orb_v or u in refuted:
                    continue
                p = matcher.find(seq + [v], seq + [u])
                if p is None:
                    refuted.update(permgroups.orbit_of(stab, u, graph.n))
                else:
                    gens.append(p)
                    stab.append(p)
                    orb_v = set(permgroups.orbit_of(stab, v, graph.n))
            order *= len(orb_v)
            seq.append(v)
            cells = refine(graph, _individualize(cells, v))
    except groups.BudgetExceeded:
        return AutResult(gens, None, False, matcher.nodes)
    return AutResult(gens, order, True, matcher.nodes)


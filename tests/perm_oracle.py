"""Test oracles for mdg.permgroups, kept from earlier designs of it.

``TreePermGroup`` is the Schreier-Sims that ``permgroups.PermGroup`` used
before its levels became transversal arrays: Schreier-tree walks and one
pending Schreier pair at a time.  It is the reference that ``PermGroup``'s
orders are tested against, and the one
``order_with_regular_normal_subgroup`` counts with, so that the full-degree
computation of the generated symmetry order, the oracle for
``generated_order``, shares no group-order code with what it checks; it
checks every lift as a permutation of all |G| codes, so it is practical at
n <= 3 only.  The transitivity flags, the complete-bipartite test and the
edge-affine witness below search sets of vertex pairs, edges and subgroup
elements directly instead of counting orbits of induced actions.
``line_graph_as_cayley`` is the converse construction, Γ rebuilt from the
action of G on the coset-graph edges; no claim uses it yet.  ``orbits`` is
the orbit partition as lists of cells, one breadth-first search per orbit
(``orbit_mask``), the oracle for the orbit labels of ``permgroups.orbits``.
``transitivity_report`` reads the flags of a group given by permutations
of all of a graph's vertices, on the ball of radius 3
(``gamma_oracle.ball_report``) and with ``edge_action`` on the rows of
``edge_array()``: the oracle for ``permgroups.local_two_arc`` and
``cayley_transitivity``.
``induced_sigma_perm`` pushes a permutation of all codes down to the coset
vertices, reading every member of every coset: the reference that
``permgroups.coset_action`` is tested against.  ``right_mult_perm`` and
``partition_from_cells`` build the inputs these tests compare on.
``automorphism_group`` is the backtracking search that certified
|Aut(graph)| before ``autsearch.certified_order``: it also finds the
automorphisms its seeds miss, or refutes them, so it is the reference that
``certified_order`` is tested against, unseeded or seeded."""

from collections import namedtuple

import numpy as np

import gamma_oracle
from mdg import graphs, groups, permgroups
from mdg.autsearch import Partition, refine
from mdg.permgroups import are_automorphisms, as_perm, compose, identity_perm, inverse, is_identity


def right_mult_perm(G, g: int) -> np.ndarray:
    """R(g): vertex k -> code of (element k) * g."""
    return G.mul_vec(np.arange(G.order), g).astype(np.int32)


def induced_sigma_perm(info: graphs.SigmaInfo, p: np.ndarray) -> np.ndarray:
    """Push a permutation of group-element vertices down to the coset
    vertices; raises ValueError if some coset image is not a coset.

    The image of a coset is an X-coset iff it has the X-coset size and all
    its members share one X-coset index; likewise for Y."""
    p = as_perm(p)
    if len(p) != len(info.x_index):
        raise ValueError("permutation degree is not the group order")
    sides = ((info.x_index, info.x_cosets.shape[1], 0),
             (info.y_index, info.y_cosets.shape[1], info.n_x))
    out = []
    for members in (info.x_cosets, info.y_cosets):
        images = p[members]
        target = np.full(len(members), -1, dtype=np.int32)
        for index, size, offset in sides:
            if members.shape[1] == size:
                idx = index[images]
                hit = (target < 0) & np.all(idx == idx[:, :1], axis=1)
                target = np.where(hit, offset + idx[:, 0], target)
        if np.any(target < 0):
            raise ValueError("coset image is not a coset")
        out.append(target)
    return as_perm(np.concatenate(out))


def partition_from_cells(n: int, cells) -> Partition:
    """The ``autsearch.Partition`` of the given nonempty cells in order;
    they must partition 0..n-1."""
    members = [np.sort(np.asarray(c, dtype=np.int32)) for c in cells if len(c)]
    order = np.concatenate(members) if members else np.zeros(0, dtype=np.int32)
    if len(order) != n or not np.array_equal(np.sort(order), np.arange(n)):
        raise ValueError("cells must partition the vertices")
    return Partition(order, np.cumsum([0] + [len(c) for c in members]))


def orbit_mask(gens, seed: int, degree: int) -> np.ndarray:
    """The orbit of ``seed`` as a boolean mask over the points, one
    breadth-first layer of images at a time."""
    seen = np.zeros(degree, dtype=bool)
    seen[seed] = True
    layer = np.array([seed])
    while len(layer):
        images = np.unique(np.concatenate([g[layer] for g in gens] or [layer[:0]]))
        layer = images[~seen[images]]
        seen[layer] = True
    return seen


def orbits(gens, degree: int) -> list[list[int]]:
    """Orbit partition, cells ordered by minimal vertex."""
    gens = [as_perm(g) for g in gens]
    assigned = np.zeros(degree, dtype=bool)
    out = []
    for v in range(degree):
        if assigned[v]:
            continue
        orb = orbit_mask(gens, v, degree)
        assigned |= orb
        out.append(np.flatnonzero(orb).tolist())
    return out


class _Level:
    __slots__ = ("base", "gens", "inv_gens", "orbit", "pending")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.inv_gens: list[np.ndarray] = []
        self.orbit: dict[int, tuple[int, int]] = {base: (-1, -1)}
        self.pending: list[tuple[int, int]] = []  # (point, gen index) Schreier pairs


class TreePermGroup:
    """``permgroups.PermGroup`` as it was before its levels became arrays:
    a deterministic Schreier-Sims that keeps each level's orbit as a
    Schreier tree (point -> (parent, generator index)), rebuilds every
    transversal element by walking it, and sifts one Schreier pair
    (point, generator) at a time from a list of pending pairs."""

    def __init__(self, gens, degree: int | None = None):
        gens = [as_perm(g) for g in gens]
        if degree is None:
            if not gens:
                raise ValueError("need a degree for the trivial group")
            degree = len(gens[0])
        if any(len(g) != degree for g in gens):
            raise ValueError("generators must share a degree")
        self.degree = degree
        self.gens = [g for g in gens if not is_identity(g)]
        self._levels: list[_Level] | None = None

    # -- BSGS construction -------------------------------------------------

    def _transversal_inv_apply(self, level: _Level, p: np.ndarray, point: int) -> np.ndarray:
        """Return p * u^-1 where u is the transversal element b -> point,
        by walking the Schreier tree and applying inverse generators."""
        path = []
        while point != level.base:
            prev, gi = level.orbit[point]
            path.append(gi)
            point = prev
        for gi in path:
            p = compose(p, level.inv_gens[gi])
        return p

    def _orbit_grow(self, level: _Level, seeds) -> None:
        frontier = list(seeds)
        while frontier:
            new = []
            for pt in frontier:
                for gi, g in enumerate(level.gens):
                    img = int(g[pt])
                    if img not in level.orbit:
                        level.orbit[img] = (pt, gi)
                        level.pending.extend((img, k) for k in range(len(level.gens)))
                        new.append(img)
            frontier = new

    def _add_gen_at(self, li: int, p: np.ndarray) -> None:
        """Install a strong generator fixing the first ``li`` base points.

        It joins the generating set of every level up to ``li``: it lies
        in all those stabilizers and may grow any of their orbits."""
        levels = self._levels
        if li == len(levels):
            moved = int(np.nonzero(p != np.arange(self.degree, dtype=np.int32))[0][0])
            levels.append(_Level(moved))
        p_inv = inverse(p)
        for i in range(min(li, len(levels) - 1) + 1):
            level = levels[i]
            level.gens.append(p)
            level.inv_gens.append(p_inv)
            gi = len(level.gens) - 1
            level.pending.extend((pt, gi) for pt in level.orbit)
            self._orbit_grow(level, list(level.orbit))

    def _sift_from(self, li: int, p: np.ndarray) -> tuple[np.ndarray, int]:
        """Sift p through levels >= li; returns (residue, level index where
        it stuck).  Residue is the identity iff p is in the subgroup."""
        levels = self._levels
        i = li
        while i < len(levels):
            level = levels[i]
            img = int(p[level.base])
            if img != level.base:
                if img not in level.orbit:
                    return p, i
                p = self._transversal_inv_apply(level, p, img)
            i += 1
        return p, len(levels)

    def _build(self) -> None:
        if self._levels is not None:
            return
        self._levels = []
        for g in self.gens:
            residue, li = self._sift_from(0, g)
            if not is_identity(residue):
                self._add_gen_at(li, residue)
        # Process Schreier pairs until every level is verified; a pair that
        # once sifts to the identity never needs re-checking.
        while True:
            li = next((i for i, lv in enumerate(self._levels) if lv.pending), None)
            if li is None:
                break
            level = self._levels[li]
            pt, gi = level.pending.pop()
            g = level.gens[gi]
            u = inverse(self._transversal_inv_apply(level, identity_perm(self.degree), pt))
            p = compose(u, g)
            p = self._transversal_inv_apply(level, p, int(p[level.base]))
            residue, lj = self._sift_from(li + 1, p)
            if not is_identity(residue):
                self._add_gen_at(lj, residue)

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        self._build()
        n = 1
        for level in self._levels:
            n *= len(level.orbit)
        return n


def order_with_regular_normal_subgroup(G, stab_gens) -> int:
    """Order of <R(G) gens, stab_gens> via the verified factorisation
    R(G) . <stab_gens>.

    Checks that every stab generator fixes vertex 0 and conjugates each
    R(s) back into R(G); then the product set is a subgroup, it meets the
    stabilizer of 0 in exactly <stab_gens>, and the order is
    |G| * |<stab_gens>| with the second factor from ``TreePermGroup``.
    """
    r_gens = {s: right_mult_perm(G, s) for s in G.gens}
    for sg in stab_gens:
        if int(sg[G.identity]) != G.identity:
            raise ValueError("stabilizer generator moves the identity vertex")
        sg_inv = inverse(sg)
        for s, rp in r_gens.items():
            conj = compose(compose(sg_inv, rp), sg)
            t = int(conj[G.identity])
            if not np.array_equal(conj, right_mult_perm(G, t)):
                raise ValueError("stabilizer generator does not normalise the regular action")
    return G.order * TreePermGroup(list(stab_gens), G.order).order()


# -- the whole-graph transitivity report, the oracle for the local forms -----

def edge_action(graph, perms) -> list[np.ndarray]:
    """Each automorphism's action on the edges, as permutations of the rows
    of ``edge_array()``, numbered through a dict of the rows."""
    edges = graph.edge_array().tolist()
    row = {tuple(e): i for i, e in enumerate(edges)}
    return [np.array([row[tuple(sorted((int(p[u]), int(p[w]))))] for u, w in edges],
                     dtype=np.int64) for p in perms]


def transitivity_report(graph, gens, stabilizer_certified=False) -> permgroups.TransitivityReport:
    """``gamma_oracle.ball_report`` of <gens>, permutations of all vertices
    checked once; ``edge`` counts the edge orbits where <gens> is not
    arc-transitive.  It was the 2-arc row of the coset graph before
    ``permgroups.local_two_arc`` read that row at one vertex."""
    gens = [permgroups.as_perm(g) for g in gens]
    if not are_automorphisms(graph, gens):
        raise ValueError("generator is not a graph automorphism")
    ball, dist = gamma_oracle.ball_of(graph)
    rep = gamma_oracle.ball_report(graph, ball, dist, [g[ball] for g in gens if int(g[0]) == 0],
                                 permgroups._orbit_count(gens, graph.n) == 1,
                                 stabilizer_certified)
    if not rep.arc and graph.edge_count():
        rep = rep._replace(edge=permgroups._orbit_count(edge_action(graph, gens),
                                                        graph.edge_count()) == 1)
    return rep


# -- the set-based searches that permgroups replaced by orbit counting -----

def _pair_orbit_count(stab_gens, pairs: set[tuple[int, int]]) -> int:
    remaining = set(pairs)
    count = 0
    while remaining:
        seed = min(remaining)
        frontier = [seed]
        remaining.discard(seed)
        while frontier:
            new = []
            for (u, w) in frontier:
                for g in stab_gens:
                    img = (int(g[u]), int(g[w]))
                    if img in remaining:
                        remaining.discard(img)
                        new.append(img)
            frontier = new
        count += 1
    return count


def transitivity_flags(graph, gens, stab_gens, base: int = 0) -> dict:
    """``transitivity_report(...).flags()`` by breadth-first search over
    sets of vertex pairs and of edges."""
    gens = [as_perm(g) for g in gens]
    stab_gens = [as_perm(g) for g in stab_gens]
    if not are_automorphisms(graph, gens + stab_gens):
        raise ValueError("generator is not a graph automorphism")
    vertex = bool(orbit_mask(gens + stab_gens, base, graph.n).all())
    dist, _ = graphs.bfs_layers(graph, base)
    n1 = graph.neighbors(base).tolist()
    arc = vertex and _pair_orbit_count(stab_gens, {(u, u) for u in n1}) == 1
    if arc or graph.edge_count() == 0:
        edge = arc
    else:
        e0 = tuple(graph.edge_array()[0].tolist())
        seen = {e0}
        frontier = [e0]
        while frontier:
            new = []
            for (u, w) in frontier:
                for g in gens + stab_gens:
                    a, b = int(g[u]), int(g[w])
                    img = (a, b) if a < b else (b, a)
                    if img not in seen:
                        seen.add(img)
                        new.append(img)
            frontier = new
        edge = len(seen) == graph.edge_count()
    pairs = {(u, w) for u in n1 for w in n1 if u != w}
    two_arc = vertex and len(pairs) > 0 and _pair_orbit_count(stab_gens, pairs) == 1
    geo = {(u, w) for (u, w) in pairs if not graph.has_edge(u, w)}
    two_geodesic = vertex and len(geo) > 0 and _pair_orbit_count(stab_gens, geo) == 1
    layer_orbit_count = {}
    for cell in orbits(stab_gens, graph.n):
        d = dist[cell[0]]
        layer_orbit_count[d] = layer_orbit_count.get(d, 0) + 1
    return {"vertex": vertex, "edge": edge, "arc": arc, "2-arc": two_arc,
            "2-geodesic": two_geodesic,
            **{f"{i}-distance": vertex and layer_orbit_count.get(i, 0) == 1 for i in (1, 2, 3)}}


def distance_diagram(graph, stab_gens, v: int) -> dict:
    """``gamma_oracle.distance_diagram(...).to_dict()`` from the orbits as
    lists of cells, with one neighbour-count row per vertex."""
    dist, _ = graphs.bfs_layers(graph, v)
    cells = orbits(stab_gens, graph.n)
    dists = []
    for cell in cells:
        ds = {dist[u] for u in cell}
        if len(ds) != 1:
            raise ValueError("orbit does not refine the distance layers")
        dists.append(ds.pop())
    order = sorted(range(len(cells)), key=lambda i: (dists[i], cells[i][0]))
    cells = [cells[i] for i in order]
    dists = [dists[i] for i in order]
    cell_of = np.empty(graph.n, dtype=np.int64)
    for ci, cell in enumerate(cells):
        cell_of[cell] = ci
    counts = []
    for cell in cells:
        rows = [np.bincount(cell_of[graph.neighbors(u)], minlength=len(cells)) for u in cell]
        if any(not np.array_equal(r, rows[0]) for r in rows):
            raise ValueError("inter-cell neighbor count is not constant")
        counts.append(rows[0].tolist())
    return {"base": v, "counts": counts,
            "cells": [{"distance": d, "size": len(c), "members_min": c[0]}
                      for c, d in zip(cells, dists)]}


def bipartition(graph) -> tuple[list[int], list[int]]:
    color = [-1] * graph.n
    for start in range(graph.n):
        if color[start] >= 0:
            continue
        color[start] = 0
        frontier = [start]
        while frontier:
            new = []
            for u in frontier:
                for w in graph.neighbors(u).tolist():
                    if color[w] < 0:
                        color[w] = 1 - color[u]
                        new.append(w)
                    elif color[w] == color[u]:
                        raise ValueError("graph is not bipartite")
            frontier = new
    return ([v for v in range(graph.n) if color[v] == 0],
            [v for v in range(graph.n) if color[v] == 1])


def is_complete_bipartite(graph) -> tuple[int, int] | None:
    try:
        a, b = bipartition(graph)
    except ValueError:
        return None
    if graph.edge_count() == len(a) * len(b):
        return len(a), len(b)
    return None


def perm_closure(gens, degree: int, budget: int = 1 << 14) -> list[np.ndarray]:
    """Every element of <gens>, by breadth-first products keyed by bytes."""
    gens = [as_perm(g) for g in gens]
    seen = {identity_perm(degree).tobytes(): identity_perm(degree)}
    frontier = list(seen.values())
    for g in gens:
        if g.tobytes() not in seen:
            seen[g.tobytes()] = g
            frontier.append(g)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                p = compose(a, g)
                if p.tobytes() not in seen:
                    seen[p.tobytes()] = p
                    new.append(p)
        if len(seen) > budget:
            raise ValueError("permutation closure exceeded budget")
        frontier = new
    return list(seen.values())


def edge_affine_witness(quotient, group_gens, candidate_gens) -> tuple[bool, int]:
    """(ok, subgroup order) of ``permgroups.edge_affine_witness`` by listing
    every subgroup element.  Sound only for generators that are
    automorphisms of the quotient: it never checks that they are."""
    parts = is_complete_bipartite(quotient)
    if parts is None or parts[0] != parts[1]:
        return False, 0
    m = parts[0]
    sub = perm_closure(candidate_gens, quotient.n)
    if len(sub) != m * m or any(not is_identity(compose(p, p)) for p in sub):
        return False, len(sub)
    keys = {p.tobytes() for p in sub}
    for g in group_gens:
        g_inv = inverse(as_perm(g))
        for c in candidate_gens:
            if compose(compose(g_inv, as_perm(c)), as_perm(g)).tobytes() not in keys:
                return False, len(sub)
    if len(orbits(list(candidate_gens), quotient.n)) < 2:
        return False, len(sub)
    e0 = quotient.edge_array()[0].tolist()
    edge_orbit = {tuple(sorted((int(p[e0[0]]), int(p[e0[1]])))) for p in sub}
    return len(edge_orbit) == m * m, len(sub)


def line_graph_as_cayley(G, info: graphs.SigmaInfo, sigma: graphs.Graph,
                         gamma: graphs.Graph) -> tuple[list[int], bool]:
    """Reconstruct the connection set from the edge-regular action of G on
    the coset-graph edges (h sends the base edge {X, Y} to {Xh, Yh}).

    Returns (S, verdict): S is the set of elements moving the base edge to
    an incident edge, and the verdict is whether Cay(G, S) coincides
    vertex-for-vertex with the supplied line-graph model ``gamma``.
    """
    x, y = info.x_index, info.n_x + info.y_index
    keys = np.sort(x * sigma.n + y)
    if np.any(keys[1:] == keys[:-1]) or G.order != sigma.edge_count():
        raise ValueError("the action on edges is not regular")
    # another edge {Xh, Yh} meets the base edge iff it shares exactly one
    # endpoint with it: Xh = X or Yh = Y, but not both
    bx, by = x[G.identity], y[G.identity]
    S = np.flatnonzero((x == bx) != (y == by)).tolist()
    cay = graphs.cayley_graph(G, S)
    return S, cay == gamma


# -- the backtracking search, the oracle for autsearch.certified_order ---------

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


AutResult = namedtuple("AutResult", "gens order complete nodes")


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
            lab = permgroups.orbits(stab, n)  # each point's orbit under stab
            refuted = np.zeros(n, dtype=bool)
            child = refine(graph, cells.individualize(v))
            for u in members.tolist():
                if lab[u] == lab[v] or refuted[u]:
                    continue
                p = matcher.find(child, cells, seq + [v], seq + [u])
                if p is None:
                    refuted |= lab == lab[u]
                else:
                    gens.append(p)
                    stab.append(p)
                    lab = permgroups.orbits(stab, n)
            order *= int(np.count_nonzero(lab == lab[v]))
            seq.append(v)
            cells = child
    except groups.BudgetExceeded:
        return AutResult(gens, None, False, matcher.nodes)
    return AutResult(gens, order, True, matcher.nodes)

"""Permutation groups on graph vertices.

Permutations are numpy int32 arrays mapping vertex -> image.  PermGroup
keeps a base and strong generating set computed by a deterministic,
randomisation-free Schreier-Sims (base points chosen as minimal moved
points; transversal elements rebuilt by walking the Schreier tree, so no
per-point permutation storage is needed at large degrees).
"""

from dataclasses import dataclass, field

import numpy as np

from . import f2, graphs, groups


def identity_perm(degree: int) -> np.ndarray:
    return np.arange(degree, dtype=np.int32)


def as_perm(images) -> np.ndarray:
    p = np.asarray(images, dtype=np.int32)
    if p.ndim != 1 or (len(p) and (p.min() < 0 or p.max() >= len(p))):
        raise ValueError("not a permutation")
    # len(p) images in range(len(p)) that reach every point reach each once
    hit = np.zeros(len(p), dtype=bool)
    hit[p] = True
    if not hit.all():
        raise ValueError("not a permutation")
    return p


def compose(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Apply p first, then q: (p * q)[v] = q[p[v]]."""
    return q[p]


def inverse(p: np.ndarray) -> np.ndarray:
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p), dtype=p.dtype)
    return inv


def is_identity(p: np.ndarray) -> bool:
    return bool(np.all(p == np.arange(len(p), dtype=p.dtype)))


class _Level:
    __slots__ = ("base", "gens", "inv_gens", "orbit", "pending")

    def __init__(self, base: int):
        self.base = base
        self.gens: list[np.ndarray] = []
        self.inv_gens: list[np.ndarray] = []
        self.orbit: dict[int, tuple[int, int]] = {base: (-1, -1)}
        self.pending: list[tuple[int, int]] = []  # (point, gen index) Schreier pairs


class PermGroup:
    """Group generated by vertex permutations, with its exact order from a
    base and strong generating set."""

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


def orbit_mask(gens, seed: int, degree: int) -> np.ndarray:
    """The orbit of ``seed`` as a boolean mask over the points."""
    seen = np.zeros(degree, dtype=bool)
    seen[seed] = True
    frontier = np.array([seed], dtype=np.int32)
    while len(frontier):
        hit = np.zeros(degree, dtype=bool)
        for g in gens:
            hit[g[frontier]] = True
        frontier = np.flatnonzero(hit & ~seen)
        seen[frontier] = True
    return seen


def orbits(gens, degree: int) -> np.ndarray:
    """Orbit labels: the least point of each point's orbit, as an int32
    array (the generators are int32 permutations, so every point fits).
    Along each generator, the larger of two roots is hooked under the
    smaller, then pointers jump until every label is a root (Shiloach &
    Vishkin, J. Algorithms 3, 1982); a pass that hooks nothing ends it."""
    gens = [as_perm(g) for g in gens]
    if any(len(g) != degree for g in gens):
        raise ValueError("generators must have the given degree")
    label = np.arange(degree, dtype=np.int32)
    hooked = True
    while hooked:
        hooked = False
        for g in gens:
            other = label[g]
            cut = other != label
            if cut.any():
                a, b = label[cut], other[cut]
                np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
                hooked = True
                while not np.array_equal(up := label[label], label):
                    label = up
    return label


def _orbit_count(gens, degree: int) -> int:
    """The number of orbits of <gens> on range(degree)."""
    return int(np.count_nonzero(orbits(gens, degree) == np.arange(degree)))


def are_automorphisms(graph: graphs.Graph, perms) -> bool:
    """Whether every permutation in ``perms`` is an automorphism of the
    graph; a regular graph's neighbour array is built once for all, and
    compared a block of rows at a time."""
    perms = [as_perm(p) for p in perms]
    if any(len(p) != graph.n for p in perms):
        return False
    k = graph.is_regular()
    if k is not None and k > 0:
        nbr, step = graph.neighbor_array(), max(1, graphs.CHUNK // k)
        return all(np.array_equal(np.sort(p[nbr[lo:lo + step]], axis=1), nbr[p[lo:lo + step]])
                   for p in perms for lo in range(0, graph.n, step))
    # p maps the edge set one-to-one, so it is an automorphism iff the
    # image edge set, as sorted keys, is the edge set
    u, w = graph.edge_array().T
    keys = u * graph.n + w
    for p in perms:
        a, b = p[u].astype(np.int64), p[w].astype(np.int64)
        if not np.array_equal(np.sort(np.minimum(a, b) * graph.n + np.maximum(a, b)), keys):
            return False
    return True


# -- actions attached to the group backends --------------------------------

def stabilizer_lift_images(G, codes=None):
    """Images of ``codes`` (default: every code), as int64, under each
    generator of the vertex-0 stabilizer preserving the connection set
    (X u Y) \\ {0}; each is built only when the caller asks for the next.
    For each GL transvection M, x_i -> row_i(M) with the y_j fixed, so
    x -> x.M and A -> M^T A; then for each M, y_j -> row_j(M) with the x_i
    fixed, so y -> y.M and A -> A M; last the involution swapping x_i and
    y_i, (x, y, A) -> (y, x, outer(y, x) + A^T)."""
    ms = f2.gl_generators(G.n)
    for m in ms:
        xs = [G.encode(f2.mat_row(m, i, G.n), 0, 0) for i in range(G.n)]
        yield G.word_images(xs, G.y_gens, codes)
    for m in ms:
        ys = [G.encode(0, f2.mat_row(m, j, G.n), 0) for j in range(G.n)]
        yield G.word_images(G.x_gens, ys, codes)
    yield G.word_images(G.y_gens, G.x_gens, codes)


def action_gens(G, info=None) -> list[np.ndarray]:
    """The right multiplications by ``G.gens``, then the stabilizer lifts:
    int32 permutations of every code (only built at n <= 3, where every
    code fits), or, given the coset graph's ``info``, the permutations they
    induce on its vertices from one representative per coset
    (``coset_action``).  The callers check them with ``are_automorphisms``."""
    if info is None:
        # map, so each lift's int64 images are freed before the next lift's are built
        return ([G.mul_vec(np.arange(G.order), g).astype(np.int32) for g in G.gens]
                + list(map(lambda p: p.astype(np.int32), stabilizer_lift_images(G))))
    probes = coset_probes(info)
    return ([coset_action(info, G.mul_vec(probes, g)) for g in G.gens]
            + [coset_action(info, p) for p in stabilizer_lift_images(G, probes)])


def generated_order(G, S, images) -> int:
    """Order of <R(G), lifts> for the tensor group G, from each lift's
    images of the sorted connection set S = (X u Y) \\ {1}.

    Each lift must permute S; its generator images must satisfy the defining
    relations, so by von Dyck they define an endomorphism phi of G; and phi
    must agree with the lift on S, so phi(S) = S generates G and phi is an
    automorphism.  Automorphisms act faithfully on S, fix 1 and normalise
    R(G), meeting it trivially: the order is |G| * |<lifts on S>|."""
    S = np.asarray(S, dtype=np.int64)
    at = np.searchsorted(S, G.gens)
    if (np.any(np.diff(S) <= 0) or not np.array_equal(S[at % len(S)], G.gens)
            or not np.array_equal(G.word_images(G.x_gens, G.y_gens, S), S)):
        raise ValueError("S is not a sorted set of generators and their words")
    perms = []
    for img in images:
        img = np.asarray(img, dtype=np.int64)
        if not np.array_equal(np.sort(img), S):
            raise ValueError("lift does not permute the connection set")
        xs, ys = img[at[:G.n]].tolist(), img[at[G.n:]].tolist()
        if not groups.relations_hold(G, xs, ys):
            raise ValueError("lift's generator images break a defining relation")
        if not np.array_equal(G.word_images(xs, ys, S), img):
            raise ValueError("lift differs from the automorphism its generator images define")
        perms.append(np.searchsorted(S, img))
    return G.order * PermGroup(perms, len(S)).order()


def expected_symmetry_order(n: int) -> int:
    """Order of the group generated by the regular action together with
    the connection-set stabilizer lifts: 2^(n^2+2n) * |GL(n,2)|^2 * 2."""
    return (1 << (n * n + 2 * n)) * f2.gl_order(n) ** 2 * 2


def quotient_perm(labels, p: np.ndarray) -> np.ndarray:
    """Push a permutation down to the cells, numbered by least member, of
    an invariant partition given as each point's least cell member; raises
    ValueError if some cell image straddles two cells."""
    p = as_perm(p)
    roots = graphs.cell_roots(labels, len(p))
    images = np.asarray(labels)[p]
    if not np.array_equal(images, images[labels]):
        raise ValueError("permutation does not preserve the partition")
    return as_perm(np.searchsorted(roots, images[roots]))


# -- distance diagrams -----------------------------------------------------

@dataclass
class DistanceDiagram:
    """Equitable partition of the vertices into stabilizer orbits labelled
    by distance from the base vertex, with constant inter-cell neighbor
    counts; a cell is its least member and its size."""
    base: int
    mins: list[int]
    sizes: list[int]
    distances: list[int]
    counts: list[list[int]] = field(repr=False)

    def cell_sizes_by_distance(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for size, d in zip(self.sizes, self.distances):
            out.setdefault(d, []).append(size)
        return [sorted(out[d]) for d in sorted(out)]

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "cells": [{"distance": d, "size": size, "members_min": m}
                      for m, size, d in zip(self.mins, self.sizes, self.distances)],
            "counts": self.counts,
        }


def distance_diagram(graph: graphs.Graph, stab_gens, v: int) -> DistanceDiagram:
    stab_gens = [as_perm(g) for g in stab_gens]
    for g in stab_gens:
        if int(g[v]) != v:
            raise ValueError("stabilizer generators must fix the base vertex")
    dist = graphs.bfs_layers(graph, v)[0]
    labels = orbits(stab_gens, graph.n)
    if not np.array_equal(dist[labels], dist):
        raise ValueError("orbit does not refine the distance layers")
    # cells by distance, then by least member; each least member's number
    roots = np.flatnonzero(labels == np.arange(graph.n))
    roots = roots[np.argsort(dist[roots], kind="stable")]
    number = np.zeros(graph.n, dtype=np.int64)
    number[roots] = np.arange(len(roots))
    degs = np.diff(graph.indptr)

    def rows(vs):
        """Each vertex's neighbour count in every cell."""
        heads = graph.indices[graphs._ranges(graph.indptr[vs], degs[vs])]
        keys = np.repeat(np.arange(len(vs)) * len(roots), degs[vs]) + number[labels[heads]]
        return np.bincount(keys, minlength=len(vs) * len(roots)).reshape(len(vs), len(roots))

    counts = rows(roots)
    # a block's count rows and arcs each hold at most about CHUNK entries
    step = max(1, graphs.CHUNK // max(len(roots), int(degs.max(initial=0))))
    for lo in range(0, graph.n, step):
        vs = np.arange(lo, min(lo + step, graph.n))
        if not np.array_equal(rows(vs), counts[number[labels[vs]]]):
            raise ValueError("inter-cell neighbor count is not constant")
    return DistanceDiagram(v, roots.tolist(), np.bincount(labels)[roots].tolist(),
                           dist[roots].tolist(), counts.tolist())


# -- transitivity checks ---------------------------------------------------

@dataclass
class TransitivityReport:
    vertex: bool
    edge: bool
    arc: bool
    two_arc: bool
    two_geodesic: bool
    distance: dict[int, bool]
    stabilizer_certified: bool

    def flags(self) -> dict:
        return {"vertex": self.vertex, "edge": self.edge, "arc": self.arc,
                "2-arc": self.two_arc, "2-geodesic": self.two_geodesic,
                **{f"{i}-distance": v for i, v in self.distance.items()}}


def _edge_action(graph: graphs.Graph, perms) -> list[np.ndarray]:
    """Each automorphism's action on the edges, as permutations of the rows
    of ``edge_array()``."""
    u, w = graph.edge_array().T
    keys = u * graph.n + w
    out = []
    for p in perms:
        a, b = p[u].astype(np.int64), p[w].astype(np.int64)
        out.append(np.searchsorted(keys, np.minimum(a, b) * graph.n + np.maximum(a, b)))
    return out


def transitivity_report(graph: graphs.Graph, gens, base: int = 0,
                        stabilizer_certified: bool = False) -> TransitivityReport:
    """Transitivity flags computed by stabilizer-orbit counting at a base
    vertex of a vertex-transitive graph.

    The members of ``gens`` that fix ``base`` generate a subgroup of its
    stabilizer in the group generated by ``gens``.  Positive flags are
    valid for that group; negative flags are only conclusive when the
    caller certifies that they generate the full stabilizer
    (``stabilizer_certified``).

    Transitivity on an empty set counts as false: a graph without edges
    has ``edge``, ``arc``, ``two_arc`` and ``two_geodesic`` all false,
    since the group has no orbit on its edges rather than one.
    """
    gens = [as_perm(g) for g in gens]
    if not are_automorphisms(graph, gens):
        raise ValueError("generator is not a graph automorphism")
    stab_gens = [g for g in gens if int(g[base]) == base]
    vertex = bool(orbit_mask(gens, base, graph.n).all())
    # the stabilizer on the k neighbours of the base, and on the ordered
    # neighbour pairs (i, j), named i * k + j
    n1 = graph.neighbors(base)
    k = len(n1)
    local = [np.searchsorted(n1, g[n1]) for g in stab_gens]
    arc = vertex and _orbit_count(local, k) == 1
    if arc or graph.edge_count() == 0:
        edge = arc
    else:
        edge = _orbit_count(_edge_action(graph, gens), graph.edge_count()) == 1
    # the diagonal i == j is a union of pair orbits; one (i, j) per other orbit
    pairs = orbits([(q[:, None] * k + q).ravel() for q in local], k * k)
    roots = np.flatnonzero(pairs == np.arange(k * k)).tolist()
    off = [(i, j) for i, j in (divmod(r, k) for r in roots) if i != j]
    two_arc = vertex and len(off) == 1
    geo = [(i, j) for i, j in off if not graph.has_edge(int(n1[i]), int(n1[j]))]
    two_geodesic = vertex and len(geo) == 1
    # the distance of each stabilizer orbit's least member; the orbit
    # labels are freed before the BFS makes its temporaries
    roots = orbits(stab_gens, graph.n) == np.arange(graph.n)
    layers = graphs.bfs_layers(graph, base)[0][roots]
    distance = {i: vertex and int(np.count_nonzero(layers == i)) == 1 for i in (1, 2, 3)}
    return TransitivityReport(vertex, edge, arc, two_arc, two_geodesic, distance,
                              stabilizer_certified)


# -- induced actions and witnesses ----------------------------------------

def coset_probes(info: graphs.SigmaInfo) -> np.ndarray:
    """The codes whose images ``coset_action`` reads, as int64: the least
    member of every X-coset, then of every Y-coset, then the members of X
    and of Y."""
    return np.concatenate([info.x_cosets[:, 0], info.y_cosets[:, 0],
                           info.x_cosets[0], info.y_cosets[0]]).astype(np.int64)


def coset_action(info: graphs.SigmaInfo, images) -> np.ndarray:
    """The permutation of the coset vertices induced by a map of group
    elements that sends every coset Xh to a coset through h's image, such
    as a right multiplication or an automorphism, from its int64 images of
    ``coset_probes(info)``: one representative per coset (Seress,
    Permutation Group Algorithms, CUP 2003, §5.5).

    X goes to the side on which its image lies within a single coset, and
    each X-coset to the coset on that side holding its least member's
    image; Y likewise.  |Xh n Yg| <= 1, so no image lies within a coset of
    both sides; ValueError when the image of X or of Y lies within none."""
    images = np.asarray(images, dtype=np.int64)
    n_x, n = info.n_x, info.n_x + len(info.y_cosets)
    sides = ((info.x_index, info.x_cosets.shape[1], 0),
             (info.y_index, info.y_cosets.shape[1], n_x))
    if len(images) != n + sides[0][1] + sides[1][1]:
        raise ValueError("need one image per coset probe")
    if images.min() < 0 or images.max() >= len(info.x_index):
        raise ValueError("image is not a group element")
    out = np.empty(n, dtype=np.int32)
    members = images[n:]
    for (lo, hi), (_, width, _) in zip(((0, n_x), (n_x, n)), sides):
        subgroup, members = members[:width], members[width:]
        side = next((s for s in sides if s[1] == width
                     and np.all(s[0][subgroup] == s[0][subgroup[0]])), None)
        if side is None:
            raise ValueError("image of X or Y lies within no single coset")
        index, _, offset = side
        out[lo:hi] = index[images[lo:hi]] + offset
    return as_perm(out)


def is_complete_bipartite(graph: graphs.Graph) -> tuple[int, int] | None:
    """(|A|, |B|) if the graph is complete bipartite on B = N(0) and the
    other vertices A, else None."""
    in_b = np.zeros(graph.n, dtype=bool)
    if graph.n:
        in_b[graph.neighbors(0)] = True
    u, w = graph.edge_array().T
    nb = int(in_b.sum())
    if np.all(in_b[u] != in_b[w]) and graph.edge_count() == (graph.n - nb) * nb:
        return graph.n - nb, nb
    return None


@dataclass
class EdgeAffineWitness:
    ok: bool
    subgroup_order: int
    failing_check: str | None = None


def edge_affine_witness(quotient: graphs.Graph, group_gens, candidate_gens) -> EdgeAffineWitness:
    """Verify that the candidate generators witness an edge-affine action
    on a complete bipartite quotient: every generator must be an
    automorphism, and the subgroup the candidates generate must be
    elementary abelian of order m^2, normalised by every group generator,
    intransitive on vertices and regular on the m^2 edges."""
    parts = is_complete_bipartite(quotient)
    if parts is None or parts[0] != parts[1]:
        return EdgeAffineWitness(False, 0, "quotient is not a balanced complete bipartite graph")
    group_gens = [as_perm(g) for g in group_gens]
    candidate_gens = [as_perm(c) for c in candidate_gens]
    if not are_automorphisms(quotient, group_gens + candidate_gens):
        return EdgeAffineWitness(False, 0, "generator is not an automorphism of the quotient")
    m = parts[0]
    order = PermGroup(candidate_gens, quotient.n).order()
    fail = lambda why: EdgeAffineWitness(False, order, why)
    if order != m * m:
        return fail(f"subgroup order {order} != {m * m}")
    # generated by commuting involutions <=> elementary abelian
    if not all(is_identity(compose(p, p)) for p in candidate_gens):
        return fail("subgroup has an element of order > 2")
    if any(not np.array_equal(compose(p, q), compose(q, p))
           for p in candidate_gens for q in candidate_gens):
        return fail("candidate generators do not commute")
    conj = [compose(compose(inverse(g), c), g) for g in group_gens for c in candidate_gens]
    if PermGroup(candidate_gens + conj, quotient.n).order() != order:
        return fail("subgroup is not normalised by the group generators")
    if _orbit_count(candidate_gens, quotient.n) < 2:
        return fail("subgroup is vertex-transitive")
    # of order m^2, so transitive on the m^2 edges iff regular on them
    if _orbit_count(_edge_action(quotient, candidate_gens), m * m) != 1:
        return fail("subgroup is not regular on the edges")
    return EdgeAffineWitness(True, order)

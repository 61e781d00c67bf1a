"""Permutation groups on graph vertices.

Permutations are numpy int32 arrays mapping vertex -> image, even where a
graph stores its vertex ids in int16 (``graphs._index_dtype``), each checked
once by ``as_perm`` where it is made or enters, and fixing the padding n of
a graph's neighbour array where it is checked on one.  PermGroup keeps a
base and strong generating set computed by a deterministic,
randomisation-free Schreier-Sims: each base point is the least point its
level's generators move, and each level stores a transversal element and its
inverse for every orbit point, as rows of int32 arrays, since its callers'
degrees are small (the 2(2^n - 1) points of the connection set for
``generated_order``, the 2^(n+1) vertices of the edge-affine quotient).
"""

import math
from collections import namedtuple

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


def _least_moved(perms) -> int:
    """The least point that one of ``perms`` moves; not all are the identity."""
    return min(int(np.argmax(p != np.arange(len(p)))) for p in perms)


class PermGroup:
    """Group generated by vertex permutations, with its exact order from a
    base and strong generating set (Seress, Permutation Group Algorithms,
    CUP 2003, ch. 4).

    Level i is a list [base, strong generators, u, u_inv, row].  Its
    generators fix the bases of the levels before it.  The transversal of
    the base's orbit under them is the int32 array u, one row per orbit
    point r: u[row[r]] maps the base to r, row is -1 off the orbit, and
    u[0] is the identity.  u_inv holds the inverses of u's rows."""

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
        self._levels: list[list] | None = None

    def _level(self, base: int, gens) -> list:
        """A new level of ``gens`` at ``base``."""
        row = np.full(self.degree, -1, dtype=np.int32)
        row[base] = 0
        u = identity_perm(self.degree)[None, :]
        level = [base, [], u, u, row]
        self._grow(level, gens)
        return level

    def _grow(self, level: list, gens) -> None:
        """Add ``gens`` to a level's strong generators and extend its orbit
        by one generator's images of the whole orbit at a time, u_(r^g) =
        u_r g, until no generator brings a new point."""
        base, strong, u, u_inv, row = level
        strong.extend(gens)
        grown = True
        while grown:
            grown = False
            for g in strong:
                img = g[u[:, base]]
                fresh = row[img] < 0
                if fresh.any():
                    w = g[u[fresh]]
                    w_inv = np.empty_like(w)
                    np.put_along_axis(w_inv, w, np.broadcast_to(u[0], w.shape), axis=1)
                    row[img[fresh]] = np.arange(len(u), len(u) + len(w))
                    u, u_inv, grown = np.concatenate([u, w]), np.concatenate([u_inv, w_inv]), True
        level[2:4] = u, u_inv

    def _sift(self, s: np.ndarray, j: int):
        """Sift the rows of ``s`` through the levels from j on: the level
        where the first row sticks and its residue, or (number of levels,
        None) when every row sifts to the identity."""
        for base, _, _, u_inv, row in self._levels[j:]:
            at = row[s[:, base]]
            if np.any(at < 0):
                return j, s[np.argmax(at < 0)]
            s = np.take_along_axis(u_inv[at], s, axis=1)
            j += 1
        moved = np.any(s != identity_perm(self.degree), axis=1)
        return j, (s[np.argmax(moved)] if moved.any() else None)

    def _verify(self, i: int) -> int:
        """The next level to verify once level i's Schreier generators
        u_r g u_(r^g)^-1 are sifted through the levels after it, as one
        array per strong generator g.  The first residue that is not the
        identity joins the levels after i up to where it stuck (a new level
        if it passed them all), and that level is next; else level i - 1."""
        base, strong, u, u_inv, row = self._levels[i]
        for g in strong:
            j, h = self._sift(np.take_along_axis(u_inv[row[g[u[:, base]]]], g[u], axis=1), i + 1)
            if h is not None:
                if j == len(self._levels):
                    self._levels.append(self._level(_least_moved([h]), []))
                for level in self._levels[i + 1:j + 1]:
                    self._grow(level, [h])
                return j
        return i - 1

    def order(self) -> int:
        if self._levels is None:
            # level i + 1 starts with the generators of level i that fix its base
            self._levels, gens = [], self.gens
            while gens:
                base = _least_moved(gens)
                self._levels.append(self._level(base, gens))
                gens = [g for g in gens if g[base] == base]
            i = len(self._levels) - 1
            while i >= 0:
                i = self._verify(i)
        return math.prod(len(level[2]) for level in self._levels)


def orbits(gens, degree: int) -> np.ndarray:
    """Orbit labels: the least point of each point's orbit, as an int32
    array (the generators are int32 permutations, so every point fits).
    Along each generator, the larger of two roots is hooked under the
    smaller, then pointers jump until every label is a root (Shiloach &
    Vishkin, J. Algorithms 3, 1982); a pass that hooks nothing ends it."""
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
    """Whether every permutation in ``perms`` is an automorphism of the graph:
    p, fixing the padding n, maps each padded row onto its image's row, up
    to order, compared a block of rows at a time."""
    if any(len(p) != graph.n for p in perms):
        return False
    nbr = graph.neighbor_array()
    return all(np.array_equal(np.sort(q[nbr[lo:hi]], axis=1), nbr[q[lo:hi]])
               for q in (np.append(p, np.int32(graph.n)) for p in perms)
               for lo, hi in groups._blocks(graph.n, nbr.shape[1]))


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
        return ([as_perm(G.mul_vec(np.arange(G.order), g)) for g in G.gens]
                + list(map(as_perm, stabilizer_lift_images(G))))
    probes = coset_probes(info)
    return ([coset_action(info, G.mul_vec(probes, g)) for g in G.gens]
            + [coset_action(info, p) for p in stabilizer_lift_images(G, probes)])


def checked_lifts(G, S, codes, images):
    """Each of ``images``, a lift's int64 images of the sorted ``codes``,
    which hold the sorted connection set S = (X u Y) \\ {1}, once checked:
    the lift must permute S; its generator images must satisfy the defining
    relations, so by von Dyck they define an endomorphism phi of G; and phi
    must agree with the lift on ``codes``, so phi(S) = S generates G and phi
    is an automorphism.  ValueError names the first check that fails."""
    S, codes = np.asarray(S, dtype=np.int64), np.asarray(codes, dtype=np.int64)
    on_s = np.searchsorted(codes, S) % len(codes)
    at = on_s[np.searchsorted(S, G.gens) % len(S)]  # the generators' places in codes
    if (np.any(np.diff(S) <= 0) or not np.array_equal(codes[np.r_[on_s, at]], np.r_[S, G.gens])
            or not np.array_equal(G.word_images(G.x_gens, G.y_gens, S), S)):
        raise ValueError("S is not a sorted set of generators and their words")
    for img in images:
        img = np.asarray(img, dtype=np.int64)
        if not np.array_equal(np.sort(img[on_s]), S):
            raise ValueError("lift does not permute the connection set")
        xs, ys = img[at[:G.n]].tolist(), img[at[G.n:]].tolist()
        if not groups.relations_hold(G, xs, ys):
            raise ValueError("lift's generator images break a defining relation")
        if not np.array_equal(G.word_images(xs, ys, codes), img):
            raise ValueError("lift differs from the automorphism its generator images define")
        yield img


def generated_order(G, S, images) -> int:
    """Order of <R(G), lifts> from the lifts' ``checked_lifts`` images of S:
    automorphisms act faithfully on S, fix 1 and normalise R(G), meeting it
    trivially, so the order is |G| * |<lifts on S>|."""
    return G.order * PermGroup([np.searchsorted(S, img) for img in checked_lifts(
        G, S, S, images)], len(S)).order()


def expected_symmetry_order(n: int) -> int:
    """Order of the group generated by the regular action together with
    the connection-set stabilizer lifts: 2^(n^2+2n) * |GL(n,2)|^2 * 2."""
    return (1 << (n * n + 2 * n)) * f2.gl_order(n) ** 2 * 2


# -- distance diagrams, from the cells of the lifts -------------------------

class DistanceDiagram(namedtuple("DistanceDiagram", "base reps sizes distances counts")):
    """Equitable partition of the vertices into stabilizer orbits labelled
    by distance from the base vertex, with constant inter-cell neighbor
    counts; a cell is a member, its representative, and its size.  In the
    diagrams that ``least_members`` orders, and in the output, the
    representative is the cell's least member."""
    __slots__ = ()

    def cell_sizes_by_distance(self) -> list[list[int]]:
        out: dict[int, list[int]] = {}
        for size, d in zip(self.sizes, self.distances):
            out.setdefault(d, []).append(size)
        return [sorted(out[d]) for d in sorted(out)]

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "cells": [{"distance": d, "size": size, "members_min": m}
                      for m, size, d in zip(self.reps, self.sizes, self.distances)],
            "counts": self.counts,
        }


def _invariants(G, codes) -> np.ndarray:
    """The GL(n, 2) x GL(n, 2) invariants of each code (x, y, A) of the
    tensor group, packed into an int64 of 22 bits: the ranks of A,
    [A | x^T], [A ; y] and [[A, x^T], [y, c]] for c = 0 and c = 1, four
    bits each, then whether x = 0 and whether y = 0 (README, the cells).
    All five ranks come from one echelon form of [A | x^T] over F_2."""
    x, y, *rows = G.decode_vec(codes)
    one, top, zero = np.uint64(1), np.uint64(1 << G.n), np.uint64(0)
    # row i of [A | x^T] has x_i as bit n; each row in turn clears its
    # lowest set bit, its pivot, from the rows after it
    rows, pivots = [r | (x >> np.uint64(i) & one) * top for i, r in enumerate(rows)], []
    for i, row in enumerate(rows):
        pivots.append(row & (~row + one))
        rows[i + 1:] = [r ^ np.where(r & pivots[i] != 0, row, zero) for r in rows[i + 1:]]

    def grows(v, mask):
        """Whether the row v adds to the rank of the rows, each cut to ``mask``."""
        for row, pivot in zip(rows, pivots):
            v = v ^ np.where(v & pivot != 0, row & mask, zero)
        return v != 0

    rank_a = sum((row & ~top) != 0 for row in rows)
    rank_ax = sum(row != 0 for row in rows)
    out = np.zeros(len(x), dtype=np.int64)
    for rank in (rank_a, rank_ax, rank_a + grows(y, ~top), rank_ax + grows(y, ~zero),
                 rank_ax + grows(y | top, ~zero)):
        out = out << 4 | rank
    return out << 2 | (x == 0) << 1 | (y == 0)


def cell_keys(G, codes) -> np.ndarray:
    """Each code's cell key, one int64: the sorted pair of its
    ``_invariants`` and those of its image under the swap lift.  Two codes
    share a key iff the lifts map one to the other (README, the cells).  A
    code weighs about 4n + 12 8-byte temporaries."""
    codes = np.asarray(codes, dtype=np.int64)
    own = _invariants(G, codes)
    swapped = _invariants(G, G.word_images(G.y_gens, G.x_gens, codes))
    return np.minimum(own, swapped) << 22 | np.maximum(own, swapped)


def _cells_of(keys, found, what: str) -> np.ndarray:
    """The cell of each of the keys ``found``, the index of its entry in
    ``keys``; ValueError naming ``what`` if one is no cell's key."""
    order = np.argsort(keys)
    at = order[np.searchsorted(keys[order], found).clip(max=len(keys) - 1)]
    if not np.array_equal(keys[at], found):
        raise ValueError(f"{what} has the key of no cell")
    return at


def cell_diagram(G, S, generated: int) -> DistanceDiagram:
    """The distance diagram about 1 of Γ = Cay(G, S), S = (X u Y) \\ {1},
    under the lifts, by a breadth-first search over its cells, not its
    vertices: the cells are the classes of ``cell_keys``.  The
    representative r of each cell gives its count row from the keys of its
    neighbours s r, s in S, and a key not seen before opens a new cell, one
    step further from 1, with that neighbour as its representative.  The
    sizes follow |C_j| = |C_i| c_ij / c_ji along the search tree from
    |C_0| = 1 (an equitable partition's quotient matrix: Brouwer, Cohen &
    Neumaier, *Distance-Regular Graphs*, 1989).  ValueError unless the
    sizes sum to ``generated`` = |<G.gens>|, |C_i| c_ij = |C_j| c_ji on
    every pair of cells, and every neighbour of a representative has its
    own cell's count row."""
    S = np.asarray(S, dtype=np.int64)
    reps, dists, parents, rows = [G.identity], [0], [0], []
    cell_of = {int(cell_keys(G, reps)[0]): 0}
    for i, rep in enumerate(reps):  # reps grows as cells open
        nbrs = G.mul_vec(S, rep).astype(np.int64)
        keys = cell_keys(G, nbrs).tolist()
        for code, key in zip(nbrs.tolist(), keys):
            if key not in cell_of:
                cell_of[key] = len(reps)
                reps.append(code)
                dists.append(dists[i] + 1)
                parents.append(i)
        rows.append([cell_of[key] for key in keys])
    k = len(reps)
    counts = np.array([np.bincount(row, minlength=k) for row in rows])
    sizes = [1]
    for j in range(1, k):
        size, back = sizes[parents[j]] * int(counts[parents[j], j]), int(counts[j, parents[j]])
        if not back or size % back:
            raise ValueError(f"cell {j} has no whole size from the cell that opened it")
        sizes.append(size // back)
    if sum(sizes) != generated:
        raise ValueError(f"the cells hold {sum(sizes)} codes, not |<G.gens>| = {generated}")
    if any(sizes[i] * int(counts[i, j]) != sizes[j] * int(counts[j, i])
           for i in range(k) for j in range(i)):
        raise ValueError("the cells' counts are not those of an equitable partition")
    # every neighbour of a representative against its cell's count row, by blocks of them
    keys = np.array(list(cell_of), dtype=np.int64)
    met = G.mul_vec(S[None, :], np.array(reps, dtype=np.int64)[:, None]).ravel().astype(np.int64)
    met_cells = np.array(rows).ravel()
    for lo, hi in groups._blocks(len(met), len(S) * (4 * G.n + 12)):
        cells = _cells_of(keys, cell_keys(G, G.mul_vec(S[None, :], met[lo:hi, None]).ravel()),
                          "a neighbour's neighbour")
        cells = cells.reshape(hi - lo, len(S)) + k * np.arange(hi - lo)[:, None]
        if not np.array_equal(np.bincount(cells.ravel(), minlength=k * (hi - lo)).reshape(-1, k),
                              counts[met_cells[lo:hi]]):
            raise ValueError("two members of a cell have different count rows")
    return DistanceDiagram(0, reps, sizes, dists, counts.tolist())


def least_members(G, diag: DistanceDiagram) -> DistanceDiagram:
    """``diag`` with each cell represented by its least member, and the
    cells in order of distance, then least member: the codes are keyed in
    ascending order, a block at a time, until every cell is hit.
    ValueError if a code's key names no cell."""
    keys = cell_keys(G, diag.reps)
    least = np.full(len(keys), G.order, dtype=np.int64)
    for lo, hi in groups._blocks(G.order, 4 * G.n + 12):
        cells = _cells_of(keys, cell_keys(G, np.arange(lo, hi)), f"a code in [{lo}, {hi})")
        np.minimum.at(least, cells, np.arange(lo, hi))
        if least.max() < G.order:
            break
    cells = sorted(range(len(keys)), key=lambda i: (diag.distances[i], least[i]))
    return DistanceDiagram(diag.base, least[cells].tolist(), [diag.sizes[i] for i in cells],
                           [diag.distances[i] for i in cells],
                           [[diag.counts[i][j] for j in cells] for i in cells])


# -- transitivity checks ---------------------------------------------------

class TransitivityReport(namedtuple("TransitivityReport", "vertex edge arc two_arc two_geodesic "
                                    "distance stabilizer_certified")):
    __slots__ = ()

    def flags(self) -> dict:
        return {"vertex": self.vertex, "edge": self.edge, "arc": self.arc,
                "2-arc": self.two_arc, "2-geodesic": self.two_geodesic,
                **{f"{i}-distance": v for i, v in self.distance.items()}}


def _distinct_pair_orbits(local, k: int) -> list[tuple[int, int]]:
    """One ordered pair (i, j), i != j, of points of range(k) in each orbit of
    the permutations ``local`` on such pairs; pair (i, j) is named i * k + j,
    in int32, and the diagonal i == j is a union of pair orbits."""
    local = [q.astype(np.int32) for q in local if not is_identity(q)]
    pairs = orbits([(q[:, None] * k + q).ravel() for q in local], k * k)
    roots = np.flatnonzero(pairs == np.arange(k * k)).tolist()
    return [(i, j) for i, j in (divmod(r, k) for r in roots) if i != j]


def ball_report(G, S, ball, dist, stab, vertex, far,
                stabilizer_certified=False) -> TransitivityReport:
    """Flags of a group A of automorphisms of Γ = Cay(G, S), where u ~ w iff
    u w^-1 lies in the sorted S, vertex-transitive iff ``vertex``, from the
    orbits on the ball of radius 2 about 1 (the sorted ``ball``, at
    distances ``dist``) of ``stab``, members of A_1 given by their images
    of the ball; ``far`` is whether A_1 is transitive on sphere 3.  True
    flags hold for A, false ones if ``stab`` generates A_1
    (``stabilizer_certified``).  An empty set has no orbit; ``edge`` is
    ``arc``, exact if A reverses edges."""
    places = [np.searchsorted(ball, img) for img in stab]
    # the stabilizer on the neighbours of the base, and on their ordered pairs
    n1 = np.flatnonzero(dist == 1)
    off = np.array(_distinct_pair_orbits([np.searchsorted(n1, q[n1]) for q in places], len(n1)),
                   dtype=np.int64).reshape(-1, 2)
    u, w = ball[n1[off[:, 0]]], ball[n1[off[:, 1]]]
    geo = np.count_nonzero(~groups.in_sorted(G.mul_vec(u, G.inv_vec(w)), S))
    # the distance of each stabilizer orbit's least member on the ball
    cells = dist[orbits(places, len(ball)) == np.arange(len(ball))]
    distance = {i: vertex and int(np.count_nonzero(cells == i)) == 1 for i in (1, 2)}
    return TransitivityReport(vertex, distance[1], distance[1], vertex and len(off) == 1,
                              vertex and int(geo) == 1, {**distance, 3: vertex and far},
                              stabilizer_certified)


def cayley_transitivity(G, S, generated, diagram, stabilizer_certified=False) -> TransitivityReport:
    """``ball_report`` of A = <R(G), lifts> on Γ = Cay(G, S), S = (X u Y) \\ {1},
    read about 1 from G alone: vertex-transitive iff ``generated`` =
    |<G.gens>| counts every code, and transitive on sphere 3 iff it is one
    cell of ``diagram`` (``cell_diagram``).  The ball of radius 2 is 1, S
    and S S.  Each lift agrees on it with an automorphism of G permuting S
    (``checked_lifts``), so it is an automorphism of Γ normalising R(G) and
    fixing 1: <lifts> = A_1 (Praeger, 1993).  Each must also map the row
    S h of every h within distance 1 onto the row of its image."""
    S = np.asarray(S, dtype=np.int64)
    ball = groups.sorted_codes(np.concatenate([
        [G.identity], S, G.mul_vec(S[:, None], S).ravel().astype(np.int64)]))
    dist = np.where(ball == G.identity, 0, np.where(groups.in_sorted(ball, S), 1, 2))
    lifts = list(checked_lifts(G, S, ball, stabilizer_lift_images(G, ball)))
    inner = np.flatnonzero(dist <= 1)
    at = np.searchsorted(ball, G.mul_vec(S[:, None], ball[inner]).astype(np.int64))
    for img in lifts:
        if not np.array_equal(np.sort(img[at], axis=0), np.sort(
                G.mul_vec(S[:, None], img[inner]).astype(np.int64), axis=0)):
            raise ValueError("lift is not an automorphism of the Cayley graph near vertex 0")
    return ball_report(G, S, ball, dist, lifts, generated == G.order,
                       diagram.distances.count(3) == 1, stabilizer_certified)


def local_two_arc(G, S) -> bool:
    """Whether A = <R(G), lifts> is 2-arc-transitive on Σ, read at the vertex
    X = X·1 from G alone (README, the local action): each lift, checked by
    ``checked_lifts`` on X u Y, must map X onto X and Y onto Y, or swap them,
    and one must swap them, so A is vertex-transitive; then A_X acts on the
    neighbours Y·x of X as on x in X, and its subgroup generated by R(X) and
    the lifts that keep X must be transitive on the ordered pairs of distinct
    points.  That subgroup may be smaller than A_X: only True is conclusive."""
    X, Y, codes = groups.sides(G)
    on_x, on_y = np.searchsorted(codes, X), np.searchsorted(codes, Y)
    local, swaps = [np.searchsorted(X, G.mul_vec(X, x)) for x in G.x_gens], False
    for img in checked_lifts(G, S, codes, stabilizer_lift_images(G, codes)):
        to_x, to_y = np.sort(img[on_x]), np.sort(img[on_y])
        if np.array_equal(to_x, X) and np.array_equal(to_y, Y):
            local.append(np.searchsorted(X, img[on_x]))
        elif np.array_equal(to_x, Y) and np.array_equal(to_y, X):
            swaps = True
        else:
            raise ValueError("lift maps X onto neither X nor Y")
    return swaps and len(_distinct_pair_orbits(local, len(X))) == 1


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
        np.add(index[images[lo:hi]], offset, out=out[lo:hi], dtype=np.int32)
    return as_perm(out)


Cover = namedtuple("Cover", "quotient preserved probes action")


def central_quotient(G, N) -> Cover:
    """Σ(G)/N as Σ(G/N, XN/N, YN/N) for N as sorted codes (README, the
    cover): the coset of word v, the product of G.gens over the bits of v,
    is code v of ``groups.Elementary(n)``, whose Σ is ``quotient``;
    ``preserved`` is whether it keeps Σ's valency, and ``action`` reads a
    map's permutation of it from its images of ``probes``, X and Y."""
    gens = np.asarray(G.gens, dtype=np.int64)
    if not all(groups.in_sorted(w, N).all() for w in (
            G.mul_vec(gens, gens), groups.commutator(G, gens[:, None], gens))):
        raise ValueError("the generators are not commuting involutions in G/N")
    words, names = groups.coset_words(G, N)
    quotient, info = graphs.sigma_graph(groups.Elementary(len(G.x_gens)))
    X, Y = (groups.closure_array(G, g) for g in (G.x_gens, G.y_gens))
    meet = len(np.intersect1d(X, Y, assume_unique=True))
    return Cover(quotient, quotient.is_regular() == len(X) // meet == len(Y) // meet,
                 words[coset_probes(info)], lambda images: coset_action(info, names(images)))


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


EdgeAffineWitness = namedtuple("EdgeAffineWitness", "ok subgroup_order failing_check",
                               defaults=(None,))


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
    if _orbit_count(_biclique_edge_action(quotient, m, candidate_gens), m * m) != 1:
        return fail("subgroup is not regular on the edges")
    return EdgeAffineWitness(True, order)


def _biclique_edge_action(graph: graphs.Graph, m: int, perms) -> list[np.ndarray]:
    """Each automorphism's action on the edges of K(m, m), with B = N(0):
    the edge {a, b}, a not in B and b in B, is numbered rank(a) * m + rank(b)
    by the ranks on each side, and an image that swaps the sides is read in
    the same order."""
    in_b = np.zeros(graph.n, dtype=bool)
    in_b[graph.neighbors(0)] = True
    rank = np.empty(graph.n, dtype=np.int64)
    rank[~in_b] = rank[in_b] = np.arange(m)
    a, b = np.repeat(np.flatnonzero(~in_b), m), np.tile(np.flatnonzero(in_b), m)
    return [np.where(in_b[p[a]], rank[p[b]] * m + rank[p[a]], rank[p[a]] * m + rank[p[b]])
            for p in perms]

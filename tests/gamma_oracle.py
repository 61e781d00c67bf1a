"""The whole-Γ kernels of the distance diagram and of the Cayley graph's
transitivity row, kept from before both were read at vertex 1 from the
cells of the lifts (``permgroups.cell_diagram``) and the ball of radius 2
built from S (``permgroups.cayley_transitivity``).  They need Γ, built
on all |G| codes, and the lifts as permutations of all codes, so they
are practical at n <= 3 only, where they are the oracles for those
rows: ``distance_diagram`` on the lifts' orbits, ``checked_diagram``
with the lifts checked on Γ first, and ``cayley_transitivity`` with its
check of every right multiplication on Γ a block of rows at a time and
its flags from the lifts on the ball of radius 3 (``ball_of``,
``ball_report``)."""

import numpy as np

import group_oracle
from mdg import graphs, groups, permgroups
from mdg.permgroups import (DistanceDiagram, TransitivityReport, _distinct_pair_orbits, as_perm,
                            orbits)


def checked_diagram(G, gamma) -> permgroups.DistanceDiagram:
    """The distance diagram of Γ under the stabilizer lifts, each a
    permutation of all codes checked to be an automorphism of Γ."""
    lifts = list(map(permgroups.as_perm, permgroups.stabilizer_lift_images(G)))
    if not permgroups.are_automorphisms(gamma, lifts):
        raise ValueError("lift is not an automorphism")
    return distance_diagram(gamma, lifts)


def distance_diagram(graph: graphs.Graph, stab_gens) -> DistanceDiagram:
    """The distance diagram of ``stab_gens``, which fix the base vertex 0."""
    stab_gens = [as_perm(g) for g in stab_gens]
    for g in stab_gens:
        if int(g[0]) != 0:
            raise ValueError("stabilizer generators must fix the base vertex")
    dist = group_oracle.bfs_layers(graph, 0)[0]
    labels = orbits(stab_gens, graph.n)
    if not np.array_equal(dist[labels], dist):
        raise ValueError("orbit does not refine the distance layers")
    # cells by distance, then by least member; each least member's number
    roots = np.flatnonzero(labels == np.arange(graph.n))
    roots = roots[np.argsort(dist[roots], kind="stable")]
    number = np.zeros(graph.n, dtype=np.int64)
    number[roots] = np.arange(len(roots))
    nbr = graph.neighbor_array()
    # the padding n is counted in an extra cell, past the last, and dropped
    cell_of = np.append(number[labels], len(roots))

    def rows(vs):
        """Each vertex's neighbour count in every cell."""
        keys = np.arange(len(vs))[:, None] * (len(roots) + 1) + cell_of[nbr[vs]]
        counts = np.bincount(keys.ravel(), minlength=len(vs) * (len(roots) + 1))
        return counts.reshape(len(vs), len(roots) + 1)[:, :-1]

    counts = rows(roots)
    # a block's count rows and slots are weighed by the longer of the two
    for lo, hi in groups._blocks(graph.n, max(len(roots) + 1, nbr.shape[1])):
        vs = np.arange(lo, hi)
        if not np.array_equal(rows(vs), counts[number[labels[vs]]]):
            raise ValueError("inter-cell neighbor count is not constant")
    return DistanceDiagram(0, roots.tolist(), np.bincount(labels)[roots].tolist(),
                           dist[roots].tolist(), counts.tolist())


# -- the transitivity row, from the lifts on the ball of radius 3 ------------

def ball_of(graph: graphs.Graph) -> tuple[np.ndarray, np.ndarray]:
    """The vertices at distance <= 3 from vertex 0, and their distances."""
    dist = group_oracle.bfs_layers(graph, 0, 3)[0]
    ball = np.flatnonzero(dist >= 0)
    return ball, dist[ball]


def ball_report(graph, ball, dist, stab, vertex, stabilizer_certified=False) -> TransitivityReport:
    """Flags of a group A of automorphisms, vertex-transitive iff ``vertex``,
    from the orbits on the ball (``ball_of``, at distances ``dist``) of
    ``stab``, members of A_0 given by their images of the ball: true flags
    hold for A, false ones if ``stab`` generates A_0 (``stabilizer_certified``).
    An empty set has no orbit; ``edge`` is ``arc``, exact if A reverses edges."""
    places = [np.searchsorted(ball, img) for img in stab]
    # the stabilizer on the neighbours of the base, and on their ordered pairs
    n1 = np.flatnonzero(dist == 1)
    off = _distinct_pair_orbits([np.searchsorted(n1, q[n1]) for q in places], len(n1))
    geo = [(i, j) for i, j in off if not graph.has_edge(int(ball[n1[i]]), int(ball[n1[j]]))]
    # the distance of each stabilizer orbit's least member on the ball
    cells = dist[orbits(places, len(ball)) == np.arange(len(ball))]
    distance = {i: vertex and int(np.count_nonzero(cells == i)) == 1 for i in (1, 2, 3)}
    return TransitivityReport(vertex, distance[1], distance[1], vertex and len(off) == 1,
                              vertex and len(geo) == 1, distance, stabilizer_certified)


def cayley_transitivity(G, S, gamma, generated, stabilizer_certified=False) -> TransitivityReport:
    """``ball_report`` of A = <R(G), lifts> on the Cayley graph ``gamma`` of
    G on S = (X u Y) \\ {1}, vertex-transitive iff ``generated`` = |<G.gens>|
    counts every vertex, with no permutation of all codes.  Each R(g), g
    in G.gens (involutions), is an automorphism of ``gamma`` (checked by blocks
    of rows), so it is the Cayley graph on the row of 0; each lift agrees on the
    ball with an automorphism of G permuting S (``checked_lifts``) and maps
    each row within distance 2 onto its image's row, so it is an automorphism
    of ``gamma`` normalising R(G) and fixing 0: <lifts> = A_0 (Praeger, 1993)."""
    ball, dist = ball_of(gamma)
    lifts = list(permgroups.checked_lifts(G, S, ball, permgroups.stabilizer_lift_images(G, ball)))
    # rows within distance 2 by place in the ball; padding n stays past it
    rows, inner = gamma.neighbor_array(), np.flatnonzero(dist <= 2)
    at = np.searchsorted(ball, rows[ball[inner]])
    for img in lifts:
        if not np.array_equal(np.sort(np.append(img, gamma.n)[at], axis=1), rows[img[inner]]):
            raise ValueError("lift is not an automorphism of the Cayley graph near vertex 0")
    # as g^2 = 1, row h sent onto row hg gives row hg onto row h: check h <= hg, cover both
    for g in G.gens:
        if G.mul_vec(g, g) != G.identity:
            raise ValueError("generator is not an involution")
        ok = np.zeros(gamma.n, dtype=bool)
        for lo, hi in groups._blocks(gamma.n, 3 * rows.shape[1]):
            h = np.arange(lo, hi, dtype=np.uint64)
            img = G.mul_vec(h, g)
            h, img = h[h <= img], img[h <= img]
            ok[h] = ok[img] = np.array_equal(np.sort(G.mul_vec(rows[h], g), axis=1), rows[img])
        if not ok.all():
            raise ValueError("right multiplication is not an automorphism of the Cayley graph")
    return ball_report(gamma, ball, dist, lifts, generated == gamma.n, stabilizer_certified)

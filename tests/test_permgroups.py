import itertools
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cover_oracle
import gamma_oracle
import perm_oracle
from group_oracle import bfs_layers, complete_bipartite
from mdg import claims, cli, f2, graphs, groups, permgroups as pg

try:
    import networkx as nx
except ImportError:
    nx = None
needs_networkx = pytest.mark.skipif(nx is None, reason="networkx is not installed")


G2 = groups.TensorGroup(2)
S2 = graphs.xy_connection_set(G2)
GAMMA2 = graphs.cayley_graph(G2, S2)
SIGMA2, INFO2 = graphs.sigma_graph(G2)
GENS2 = pg.action_gens(G2)
R2, LIFTS2 = GENS2[:len(G2.gens)], GENS2[len(G2.gens):]
SIGMA_GENS2 = pg.action_gens(G2, INFO2)
DIAG2 = pg.cell_diagram(G2, S2, G2.order)


def test_perm_basics():
    p = pg.as_perm([1, 2, 0])
    q = pg.as_perm([0, 2, 1])
    assert list(pg.compose(p, q)) == [2, 1, 0]
    assert list(pg.compose(p, pg.inverse(p))) == [0, 1, 2]
    assert pg.is_identity(pg.identity_perm(4))
    with pytest.raises(ValueError):
        pg.as_perm([0, 0, 1])


@pytest.mark.parametrize("images", [[0, 0, 1], [1, 2, -1], [-3, 1, 2], [0, 1, 3], [3, 0, 1, 2, 9],
                                    [[0, 1], [1, 0]], [[0]]],
                         ids=["repeated", "negative", "negative-first", "at-len", "above-len",
                              "2d", "2d-single"])
def test_as_perm_rejects_non_permutations(images):
    with pytest.raises(ValueError, match="not a permutation"):
        pg.as_perm(images)


def test_as_perm_accepts_permutations():
    assert pg.as_perm([]).tolist() == []
    for p in itertools.permutations(range(4)):
        assert pg.as_perm(p).tolist() == list(p)


def test_permgroup_known_orders():
    assert pg.PermGroup([pg.as_perm([1, 0, 2, 3]), pg.as_perm([1, 2, 3, 0])]).order() == 24
    assert pg.PermGroup([pg.as_perm([1, 0, 2, 3, 4]), pg.as_perm([1, 2, 3, 4, 0])]).order() == 120
    assert pg.PermGroup([pg.as_perm([1, 2, 3, 0]), pg.as_perm([3, 2, 1, 0])]).order() == 8
    assert pg.PermGroup([pg.as_perm([1, 2, 0])]).order() == 3
    assert pg.PermGroup([], degree=5).order() == 1


def random_generators(rng, m: int) -> list[np.ndarray]:
    """Up to three permutations of range(m): the identity, a random one, or a
    random one of a random subset of the points, so that small, intransitive
    and imprimitive groups turn up as well as S_m and A_m."""
    gens = []
    for _ in range(rng.integers(0, 4)):
        p, kind = np.arange(m, dtype=np.int32), rng.integers(0, 5)
        if kind and m > 1:
            moved = rng.choice(m, rng.integers(2, m + 1) if kind > 1 else m, replace=False)
            p[moved] = rng.permutation(moved)
        gens.append(p)
    return gens


@pytest.mark.parametrize("gens, degree", [([], 0), ([], 1), ([], 5), ([pg.identity_perm(4)], None),
                                          ([pg.identity_perm(3)] * 2, 3),
                                          ([pg.identity_perm(4), pg.as_perm([1, 0, 3, 2])], None)],
                         ids=["degree-0", "degree-1", "degree-5", "identity", "two-identities",
                              "identity-and-involution"])
def test_permgroup_order_on_trivial_inputs(gens, degree):
    order = pg.PermGroup(gens, degree).order()
    assert order == perm_oracle.TreePermGroup(gens, degree).order()
    assert order == len(perm_oracle.perm_closure(gens, len(gens[0]) if degree is None else degree))


def test_permgroup_order_matches_the_references_on_random_subgroups():
    """PermGroup against the Schreier-tree reference on 500 seeded random
    subgroups of S_m, m <= 10, and against listing every element where the
    reference puts the order within 7!."""
    rng = np.random.default_rng(2003)
    for case in range(500):
        m = int(rng.integers(1, 11))
        gens = random_generators(rng, m)
        order = pg.PermGroup(gens, m).order()
        assert order == perm_oracle.TreePermGroup(gens, m).order(), (case, gens)
        if order <= 5040:
            assert order == len(perm_oracle.perm_closure(gens, m)), (case, gens)


def test_permgroup_lagrange_spot_check():
    stab_order = pg.PermGroup(LIFTS2).order()
    for size in np.bincount(pg.orbits(LIFTS2, 256)):
        assert size == 0 or stab_order % size == 0


def test_orbits():
    assert pg.orbits([], 3).tolist() == [0, 1, 2]
    sizes = np.bincount(pg.orbits(LIFTS2, 256))
    assert sorted(sizes[sizes > 0]) == sorted([1, 6, 18, 18, 36, 9, 36, 72, 18, 36, 6])
    assert not pg.orbits(R2, 256).any()
    with pytest.raises(ValueError):
        pg.orbits(LIFTS2, 255)


def test_is_automorphism():
    c4 = graphs.Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert pg.are_automorphisms(c4, [pg.as_perm([1, 2, 3, 0])])
    p3 = graphs.Graph(3, [(0, 1), (1, 2)])
    assert not pg.are_automorphisms(p3, [pg.as_perm([1, 0, 2])])


def test_right_mult_action():
    # the builder's first generators are R(g) for g in G.gens, in order
    assert pg.is_identity(perm_oracle.right_mult_perm(G2, 0))
    assert all(np.array_equal(p, perm_oracle.right_mult_perm(G2, g)) for p, g in zip(R2, G2.gens))
    assert pg.PermGroup(R2).order() == 256
    assert pg.are_automorphisms(GAMMA2, R2)


def test_lift_identities():
    # every GL generator is a transvection, an involution, and so is the swap
    assert len(LIFTS2) == 2 * len(f2.gl_generators(2)) + 1
    for p in LIFTS2:
        assert pg.is_identity(pg.compose(p, p))
    delta = LIFTS2[-1]
    g = G2.encode(1, 1, 0)  # e1 + f1
    assert int(delta[g]) == G2.encode(1, 1, f2.outer(1, 1, 2))


def test_x_lift_fixes_y_and_permutes_x():
    Y = groups.closure_array(G2, G2.y_gens).tolist()
    X = groups.closure_array(G2, G2.x_gens).tolist()
    for lift in LIFTS2[:len(f2.gl_generators(2))]:
        assert [int(lift[y]) for y in Y] == Y
        assert sorted(int(lift[x]) for x in X) == sorted(X)


def test_connection_stabilizer_gens():
    sset = set(S2)
    for p in LIFTS2:
        assert int(p[0]) == 0
        assert {int(p[s]) for s in S2} == sset
    assert pg.are_automorphisms(GAMMA2, LIFTS2)
    assert pg.PermGroup(LIFTS2).order() == 72  # 6 * 6 * 2


def test_order_with_regular_normal_subgroup():
    order = pg.generated_order(G2, S2, pg.stabilizer_lift_images(G2, S2))
    assert order == 18432 == pg.PermGroup(R2 + LIFTS2).order()
    with pytest.raises(ValueError):
        pg.generated_order(G2, S2, [p[S2] for p in LIFTS2 + R2[:1]])


@pytest.mark.parametrize("n", [2, 3])
def test_generated_order_matches_the_full_degree_oracle(n):
    G = groups.TensorGroup(n)
    S = graphs.xy_connection_set(G)
    lifts = pg.action_gens(G)[len(G.gens):]
    on_s = list(pg.stabilizer_lift_images(G, S))
    # the lifts on S are the full-degree lifts restricted to S
    assert all(np.array_equal(a, p[S]) for a, p in zip(on_s, lifts))
    order = pg.generated_order(G, S, on_s)
    assert order == perm_oracle.order_with_regular_normal_subgroup(G, lifts)
    assert order == pg.expected_symmetry_order(n)


@pytest.mark.parametrize("outside", [G2.order, G2.order + 5, -1])
def test_generated_order_rejects_a_code_outside_the_group(outside):
    with pytest.raises(ValueError, match="generators and their words"):
        pg.generated_order(G2, sorted(S2 + [outside]), [])


def test_generated_order_rejects_a_singular_lift():
    # x_0, x_1 -> x_0: x -> x.M for M with both rows e1, which is not injective
    singular = G2.word_images([G2.x_gens[0]] * 2, G2.y_gens, S2)
    images = [*pg.stabilizer_lift_images(G2, S2), singular]
    with pytest.raises(ValueError, match="permute"):
        pg.generated_order(G2, S2, images)


def test_generated_order_rejects_a_non_homomorphism():
    # swap two elements of X that are not generators: S is preserved and the
    # generators are fixed, so only the word check can see it
    G3 = groups.TensorGroup(3)
    S3 = graphs.xy_connection_set(G3)
    X3 = groups.closure_array(G3, G3.x_gens).tolist()
    a, b = [x for x in X3 if x != G3.identity and x not in G3.x_gens][:2]
    swapped = np.array(S3)
    swapped[S3.index(a)], swapped[S3.index(b)] = b, a
    assert sorted(swapped.tolist()) == S3
    with pytest.raises(ValueError, match="differs"):
        pg.generated_order(G3, S3, [swapped])


def test_generated_order_rejects_broken_relations():
    # swap x_1 and y_1: a permutation of S, but the images of x_1 and x_2
    # no longer commute
    x, y = G2.x_gens[0], G2.y_gens[0]
    images = np.array(S2)
    images[S2.index(x)], images[S2.index(y)] = y, x
    with pytest.raises(ValueError, match="relation"):
        pg.generated_order(G2, S2, [images])


def test_full_degree_lift_with_a_wrong_matrix_part_is_rejected(monkeypatch):
    # generated_order never looks at the A-part of the formula, so the
    # full-degree verification and the check on the ball must still catch
    # a wrong one
    real = pg.stabilizer_lift_images

    def keep_a(G, codes=None):
        on = np.arange(G.order) if codes is None else np.asarray(codes, dtype=np.int64)
        mask = np.int64((1 << (2 * G.n)) - 1)
        for images in real(G, codes):
            yield (images & mask) | (on & ~mask)

    assert all(np.array_equal(a, b) for a, b in zip(keep_a(G2, S2), real(G2, S2)))
    assert not np.array_equal(next(keep_a(G2)), next(real(G2)))
    assert pg.are_automorphisms(GAMMA2, pg.action_gens(G2))
    monkeypatch.setattr(pg, "stabilizer_lift_images", keep_a)
    assert not pg.are_automorphisms(GAMMA2, pg.action_gens(G2))
    with pytest.raises(ValueError, match="differs"):
        pg.cayley_transitivity(G2, S2, G2.order, DIAG2)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_generated_order_meets_the_closed_form(n):
    G = groups.TensorGroup(n)
    S = graphs.xy_connection_set(G)
    expected = pg.expected_symmetry_order(n)
    assert pg.generated_order(G, S, pg.stabilizer_lift_images(G, S)) == expected


def test_permgroup_holds_two_blocks_beyond_its_levels_at_n6():
    """On the 61 lifts on the 126 points of S(6), order() keeps at most
    2 * CHUNK 8-byte temporaries (512 kB) traced beyond the levels it keeps:
    one generator's Schreier generators and the gather sifting them, each
    orbit x degree in int32 (about 330 kB on Linux, CPython 3.11, numpy 2.4,
    with about 730 kB of levels)."""
    G = groups.TensorGroup(6)
    S = graphs.xy_connection_set(G)
    group = pg.PermGroup([np.searchsorted(S, img) for img in pg.stabilizer_lift_images(G, S)])
    tracemalloc.start()
    try:
        group.order()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 2 * groups.CHUNK * 8, f"{peak - held} bytes beyond the levels"


def test_expected_symmetry_order():
    assert pg.expected_symmetry_order(2) == 18432
    assert pg.expected_symmetry_order(3) == 1849688064


def test_distance_diagram_gamma2():
    diag = gamma_oracle.distance_diagram(GAMMA2, LIFTS2)
    assert diag.cell_sizes_by_distance() == [[1], [6], [18], [18, 36], [9, 36, 72], [18, 36], [6]]
    for row in diag.counts:
        assert sum(row) == 6  # row sums are the valency
    cells = perm_oracle.orbits(LIFTS2, 256)
    assert sorted(zip(diag.reps, diag.sizes)) == [(c[0], len(c)) for c in cells]
    d = diag.to_dict()
    assert d["cells"][0] == {"distance": 0, "size": 1, "members_min": 0}


def test_distance_diagram_k44():
    k44 = complete_bipartite(4, 4)
    stab = [pg.as_perm([0, 2, 3, 1, 4, 5, 6, 7]), pg.as_perm([0, 2, 1, 3, 4, 5, 6, 7]),
            pg.as_perm([0, 1, 2, 3, 5, 6, 7, 4]), pg.as_perm([0, 1, 2, 3, 5, 4, 6, 7])]
    diag = gamma_oracle.distance_diagram(k44, stab)
    assert diag.cell_sizes_by_distance() == [[1], [4], [3]]


def test_distance_diagram_rejects_moving_base():
    with pytest.raises(ValueError):
        gamma_oracle.distance_diagram(GAMMA2, R2)


@pytest.mark.parametrize("stab, why", [
    ([0, 2, 1, 3], "inter-cell neighbor count is not constant"),
    ([0, 3, 2, 1], "orbit does not refine the distance layers"),
], ids=["unequal-counts", "across-distances"])
def test_distance_diagram_refuses_a_partition_that_is_no_diagram(stab, why):
    """On the path 1 - 0 - 2 - 3, swapping 1 and 2 joins vertices with
    unequal counts, and swapping 0's neighbour 1 with 3 joins distances."""
    path = graphs.Graph(4, [(0, 1), (0, 2), (2, 3)])
    with pytest.raises(ValueError, match=why):
        gamma_oracle.distance_diagram(path, [pg.as_perm(stab)])


def test_transitivity_gamma2():
    rep = perm_oracle.transitivity_report(GAMMA2, GENS2, stabilizer_certified=True)
    assert rep.flags() == {"vertex": True, "edge": True, "arc": True,
                           "2-arc": False, "2-geodesic": True,
                           "1-distance": True, "2-distance": True, "3-distance": False}
    assert rep.stabilizer_certified


def test_transitivity_k44():
    k44 = complete_bipartite(4, 4)
    gens = [pg.as_perm([1, 2, 3, 0, 4, 5, 6, 7]), pg.as_perm([1, 0, 2, 3, 4, 5, 6, 7]),
            pg.as_perm([0, 1, 2, 3, 5, 6, 7, 4]), pg.as_perm([4, 5, 6, 7, 0, 1, 2, 3])]
    stab = [pg.as_perm([0, 2, 3, 1, 4, 5, 6, 7]), pg.as_perm([0, 2, 1, 3, 4, 5, 6, 7]),
            pg.as_perm([0, 1, 2, 3, 5, 6, 7, 4]), pg.as_perm([0, 1, 2, 3, 5, 4, 6, 7])]
    rep = perm_oracle.transitivity_report(k44, gens + stab, stabilizer_certified=True)
    assert rep.vertex and rep.edge and rep.arc and rep.two_arc and rep.two_geodesic
    assert rep.distance == {1: True, 2: True, 3: False}


def test_transitivity_edgeless_graph():
    rep = perm_oracle.transitivity_report(graphs.Graph(4, []),
                                 [pg.as_perm([1, 2, 3, 0]), pg.identity_perm(4)])
    assert rep.vertex
    assert not (rep.edge or rep.arc or rep.two_arc or rep.two_geodesic)
    assert rep.distance == {1: False, 2: False, 3: False}
    single = perm_oracle.transitivity_report(graphs.Graph(1, []), [])
    assert single.vertex and not single.edge


def test_transitivity_rejects_non_automorphism():
    with pytest.raises(ValueError):
        perm_oracle.transitivity_report(GAMMA2, [pg.as_perm(list(range(1, 256)) + [0])])


def test_transitivity_report_checks_each_generator_once(monkeypatch):
    calls = []
    check = pg.as_perm
    monkeypatch.setattr(pg, "as_perm", lambda p: calls.append(1) or check(p))
    assert perm_oracle.transitivity_report(SIGMA2, SIGMA_GENS2).two_arc
    assert len(calls) == len(SIGMA_GENS2)


@pytest.mark.parametrize("n", [2, 3])
def test_cayley_transitivity_matches_the_report_on_all_codes(n):
    """The row read from S, |<G.gens>| and the cells equals the whole-Γ row
    and the report on the permutations of all codes."""
    G = groups.TensorGroup(n)
    S = graphs.xy_connection_set(G)
    gamma = graphs.cayley_graph(G, S)
    order = groups.subgroup_order(G, G.gens)
    local = pg.cayley_transitivity(G, S, order, pg.cell_diagram(G, S, order)).flags()
    assert local == gamma_oracle.cayley_transitivity(G, S, gamma, order).flags()
    assert local == perm_oracle.transitivity_report(gamma, pg.action_gens(G)).flags()
    assert local == claims.GAMMA_EXPECTED_FLAGS
    if n == 2:
        assert local == perm_oracle.transitivity_flags(GAMMA2, GENS2, LIFTS2)


def test_cayley_transitivity_reads_vertex_from_the_group_its_gens_generate():
    """A stand-in group whose ``gens`` generate a proper subgroup: TensorGroup(2)
    with its order doubled, so that the codes 256..511 are a second coset
    that ``mul_vec`` keeps apart (bit 8 goes through the XOR untouched).  Its
    Cayley graph on S is two copies of Γ(2), every check of the row passes,
    and R(<gens>) fixes each copy, so no flag holds: the row reads |<gens>|
    from the context's ``generated``, not the backend's order; the cells
    about 1 hold the 256 codes of the copy of 1."""
    G = groups.TensorGroup(2)
    G.order *= 2
    S = graphs.xy_connection_set(G)
    assert S == S2 and groups.subgroup_order(G, G.gens) == 256
    gamma = graphs.cayley_graph(G, S)
    assert gamma.n == 512 and bfs_layers(gamma, 0)[1] == [1, 6, 18, 54, 117, 54, 6]
    diag = pg.cell_diagram(G, S, 256)
    assert diag == DIAG2
    rep = pg.cayley_transitivity(G, S, 256, diag)
    assert not rep.vertex and not any(rep.flags().values())
    assert not any(gamma_oracle.cayley_transitivity(G, S, gamma, 256).flags().values())
    assert pg.cayley_transitivity(G2, S2, 256, DIAG2).vertex
    ctx = claims.Context(G)
    ctx.update(S=S)
    (claim,) = claims.run([next(r for r in claims.GRAPHS if r[0] == "cayley-transitivity")], ctx)
    assert claim.status == "fail" and not any(claim.computed.values())


def test_cayley_transitivity_refuses_a_generator_that_is_no_involution(monkeypatch):
    """The whole-Γ row checks only the rows h <= hg for R(g), which covers
    every row when g^2 = 1; a generator of order 4 (x_0 y_0) is refused, not
    passed.  ``checked_lifts`` already refuses it as no member of S, so it
    is skipped."""
    G = groups.TensorGroup(2)
    G.gens = G.gens + [int(G.mul_vec(G.x_gens[0], G.y_gens[0]))]
    monkeypatch.setattr(pg, "checked_lifts", lambda G, S, codes, lifts: lifts)
    assert G.mul_vec(G.gens[-1], G.gens[-1]) != G.identity
    with pytest.raises(ValueError, match="generator is not an involution"):
        gamma_oracle.cayley_transitivity(G, S2, GAMMA2, G.order)


def _plant_in_the_first_lift(edit):
    """Planters of ``edit(G, images, at)`` on the first lift's images,
    where ``at(code)`` marks that code among the codes asked for."""
    real = pg.stabilizer_lift_images

    def planted(G, codes=None):
        asked = np.arange(G.order) if codes is None else np.asarray(codes)
        lifts = real(G, codes)
        first = next(lifts)
        edit(G, first, lambda code: asked == code)
        yield first
        yield from lifts

    return lambda monkeypatch, ctx: monkeypatch.setattr(pg, "stabilizer_lift_images", planted)


def _swap_x0_and_y0(G, images, at):
    # a permutation of S, but the images of x_0 and x_1 no longer commute
    x, y = at(G.x_gens[0]), at(G.y_gens[0])
    images[x], images[y] = images[y][0], images[x][0]


def _send_x0_out_of_s(G, images, at):
    x, y = at(G.x_gens[0]), at(G.y_gens[0])
    images[x] = G.mul_vec(images[x], images[y]).astype(np.int64)


def _move_an_edge(within):
    """A planter of Γ(2) with one edge {u, w} moved to {u, c}, where u, w
    and c lie at the distances from 0 in ``within``: at 4 or more, the ball
    of radius 3 and its rows stay as they were."""
    def plant(monkeypatch, ctx):
        dist = bfs_layers(GAMMA2, 0)[0]
        edges = GAMMA2.edge_array().tolist()
        u, w = next(e for e in edges if dist[e[0]] in within and dist[e[1]] in within)
        c = next(v for v in range(GAMMA2.n)
                 if dist[v] in within and v not in (u, w) and not GAMMA2.has_edge(u, v))
        ctx["gamma"] = graphs.Graph(GAMMA2.n, [e for e in edges if e != [u, w]] + [(u, c)])
    return plant


@pytest.mark.parametrize("plant, why, row_reads_it", [
    (_plant_in_the_first_lift(_swap_x0_and_y0), "lift's generator images break a defining relation",
     True),
    (_plant_in_the_first_lift(_send_x0_out_of_s), "lift does not permute the connection set", True),
    (_move_an_edge((1, 2)), "lift is not an automorphism of the Cayley graph near vertex 0", False),
    (_move_an_edge((4, 5, 6)), "right multiplication is not an automorphism of the Cayley graph",
     False),
], ids=["broken-relation", "leaves-s", "moved-near-edge", "moved-far-edge"])
def test_cayley_transitivity_names_what_a_planted_input_breaks(monkeypatch, plant, why,
                                                               row_reads_it):
    """A planted lift fails the row and the whole-Γ row with the check
    named.  A planted Γ fails the whole-Γ row, and not the row, which
    reads no Γ."""
    ctx = claims.Context(G2)
    plant(monkeypatch, ctx)
    with pytest.raises(ValueError, match=why):
        gamma_oracle.cayley_transitivity(G2, S2, ctx.get("gamma", GAMMA2), 256)
    row = next(r for r in claims.GRAPHS if r[0] == "cayley-transitivity")
    (claim,) = claims.run([row], ctx)
    assert (claim.status, claim.computed) == (
        ("fail", f"error: ValueError: {why}") if row_reads_it
        else ("pass", claims.GAMMA_EXPECTED_FLAGS))


# -- the cells of the lifts about 1 ----------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_the_cell_keys_are_the_orbits_of_the_lifts(n):
    """Two codes share a key iff they share an orbit of the lifts, checked
    on every code: the keys and the orbit labels make one partition, of
    11 and 17 cells."""
    G = groups.TensorGroup(n)
    labels = pg.orbits([pg.as_perm(p) for p in pg.stabilizer_lift_images(G)], G.order)
    keys = pg.cell_keys(G, np.arange(G.order))
    pairs = set(zip(labels.tolist(), keys.tolist()))
    assert len(pairs) == len(set(labels.tolist())) == len(set(keys.tolist())) == 6 * n - 1


def test_the_cell_search_meets_the_closed_forms_at_n4():
    """23 = 6n - 1 cells, the diameter 2n + 2 and the first spheres, S and
    S S less 1 and S, at n = 4, where Γ(4) is never built."""
    G = groups.TensorGroup(4)
    S = graphs.xy_connection_set(G)
    diag = pg.cell_diagram(G, S, G.order)
    two = groups.sorted_codes(G.mul_vec(np.array(S)[:, None], S))
    assert len(diag.reps) == 23 and max(diag.distances) == 10
    layers = [sum(sizes) for sizes in diag.cell_sizes_by_distance()]
    assert sum(layers) == G.order and layers[:3] == [1, len(S), len(two) - 1 - len(S)]


def _without_the_zero_flags(monkeypatch):
    invariants = pg._invariants
    monkeypatch.setattr(pg, "_invariants", lambda G, codes: invariants(G, codes) & ~3)


def _misname_5(monkeypatch):
    """Keys that name code 5, which no representative at n = 2 meets as a
    neighbour, by the key of 1."""
    keys, one = pg.cell_keys, pg.cell_keys(G2, [G2.identity])[0]
    monkeypatch.setattr(pg, "cell_keys", lambda G, codes: np.where(
        np.asarray(codes) == 5, one, keys(G, codes)))


@pytest.mark.parametrize("plant, generated, why", [
    (_without_the_zero_flags, 256, "the cells hold 133 codes, not |<G.gens>| = 256"),
    (_without_the_zero_flags, 133, "the cells' counts are not those of an equitable partition"),
    (_misname_5, 256, "two members of a cell have different count rows"),
    (lambda monkeypatch: None, 255, "the cells hold 256 codes, not |<G.gens>| = 255"),
], ids=["merging-key", "merging-key-at-its-own-count", "one-code-misnamed", "wrong-order"])
def test_each_check_of_the_cells_can_fail(monkeypatch, plant, generated, why):
    """Keys without the two zero flags merge orbits: their sizes miss |G|,
    and, given their own sum as |<G.gens>|, they break the pair condition.
    One code misnamed, two steps from the representatives, has a count row
    unlike its cell's."""
    plant(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(why)):
        pg.cell_diagram(G2, S2, generated)


def test_a_connection_set_that_is_not_inverse_closed_is_refused():
    """Without x_0 y_0's inverse, x_0 y_0 leads to a cell with no way back."""
    z = int(G2.mul_vec(G2.x_gens[0], G2.y_gens[0]))
    with pytest.raises(ValueError, match="no whole size"):
        pg.cell_diagram(G2, sorted(S2 + [z]), G2.order)


def test_least_members_refuses_a_code_in_no_cell(monkeypatch):
    diag, keys = pg.cell_diagram(G2, S2, G2.order), pg.cell_keys
    monkeypatch.setattr(pg, "cell_keys", lambda G, codes: np.where(
        np.asarray(codes) == 3, -1, keys(G, codes)))
    with pytest.raises(ValueError, match="key of no cell"):
        pg.least_members(G2, diag)


# -- Σ's 2-arc row, read at the vertex X ----------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_local_two_arc_matches_the_whole_sigma_report(n):
    """The row read from G alone is the 2-arc flag of <R(G), lifts> as
    permutations of all of Σ as built."""
    G = groups.TensorGroup(n)
    sigma, info = graphs.sigma_graph(G)
    local = pg.local_two_arc(G, graphs.xy_connection_set(G))
    assert local is True
    assert local == perm_oracle.transitivity_report(sigma, pg.action_gens(G, info)).two_arc


def _keep_lifts(keep):
    """A planter of the lifts that ``keep`` picks from the list of them."""
    real = pg.stabilizer_lift_images
    planted = lambda G, codes=None: iter(keep(list(real(G, codes))))
    return lambda monkeypatch, ctx: monkeypatch.setattr(pg, "stabilizer_lift_images", planted)


def _mix_the_sides_unchecked(monkeypatch, ctx):
    """The first lift sends x_0 to y_0 and y_0 into X, and ``checked_lifts``,
    which would refuse it, is passed through: X goes onto neither side."""
    monkeypatch.setattr(pg, "checked_lifts", lambda G, S, codes, lifts: lifts)
    _plant_in_the_first_lift(_swap_x0_and_y0)(monkeypatch, ctx)


@pytest.mark.parametrize("plant, computed", [
    (_plant_in_the_first_lift(_swap_x0_and_y0),
     "error: ValueError: lift's generator images break a defining relation"),
    (_mix_the_sides_unchecked, "error: ValueError: lift maps X onto neither X nor Y"),
    (_keep_lifts(lambda lifts: lifts[:-1]), False),
    (_keep_lifts(lambda lifts: lifts[-1:]), False),
], ids=["broken-relation", "mixes-the-sides", "no-swap", "translations-only"])
def test_the_two_arc_row_fails_on_planted_lifts(monkeypatch, plant, computed):
    """A lift that breaks a relation, or maps X onto neither X nor Y, fails
    the row with the check named.  With the swap dropped, A is not
    vertex-transitive as far as the lifts show; with the swap alone, the
    local group is R(X), regular on the neighbours of X, so transitive but
    not 2-transitive: both read False."""
    ctx = claims.Context(G2)
    plant(monkeypatch, ctx)
    (claim,) = claims.run([r for r in claims.GRAPHS if r[0] == "coset-graph-2-arc-transitive"], ctx)
    assert (claim.status, claim.computed) == ("fail", computed)


def test_induced_sigma_perm():
    assert pg.is_identity(perm_oracle.induced_sigma_perm(INFO2, pg.identity_perm(256)))
    # the H-image acts with two vertex orbits and regularly on the edges
    induced = [perm_oracle.induced_sigma_perm(INFO2, p) for p in R2]
    assert pg.orbits(induced, SIGMA2.n).tolist() == [0] * 64 + [64] * 64
    assert perm_oracle.transitivity_report(SIGMA2, induced).edge


def test_induced_sigma_perm_rejects_non_coset_map():
    bad = pg.identity_perm(256)
    bad[0], bad[4] = 4, 0  # swaps an X-element with a Y-element
    with pytest.raises(ValueError):
        perm_oracle.induced_sigma_perm(INFO2, bad)


def test_bipartition_helpers():
    assert pg.is_complete_bipartite(complete_bipartite(4, 4)) == (4, 4)
    c6 = graphs.Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert pg.is_complete_bipartite(c6) is None
    c5 = graphs.Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert pg.is_complete_bipartite(c5) is None


def test_edge_affine_witness_positive():
    labels, quotient, _ = cover_oracle.sigma_quotient(G2, SIGMA2, INFO2)
    assert cover_oracle.edge_affine_ok(G2, labels, quotient, SIGMA_GENS2)


def test_sigma_right_multiplications_fixing_the_base_join_the_stabilizer():
    # R(x_i) maps the X-coset X, the base vertex, to itself: with the side
    # swap, the right multiplications are arc-transitive on Σ, since X acts
    # regularly on the Y-cosets through its members, the base's neighbours
    r_and_swap = SIGMA_GENS2[:len(G2.gens)] + SIGMA_GENS2[-1:]
    assert [int(p[0]) == 0 for p in r_and_swap] == [True] * G2.n + [False] * (G2.n + 1)
    rep = perm_oracle.transitivity_report(SIGMA2, r_and_swap)
    assert rep.vertex and rep.arc and not rep.two_arc


def test_edge_affine_witness_refutations():
    k44 = complete_bipartite(4, 4)
    wreath = [pg.as_perm([1, 2, 3, 0, 4, 5, 6, 7]), pg.as_perm([1, 0, 2, 3, 4, 5, 6, 7]),
              pg.as_perm([0, 1, 2, 3, 5, 6, 7, 4]), pg.as_perm([0, 1, 2, 3, 5, 4, 6, 7]),
              pg.as_perm([4, 5, 6, 7, 0, 1, 2, 3])]
    # elementary abelian of the right order, but not normal in the wreath group
    candidate = [pg.as_perm([1, 0, 2, 3, 4, 5, 6, 7]), pg.as_perm([0, 1, 3, 2, 4, 5, 6, 7]),
                 pg.as_perm([0, 1, 2, 3, 5, 4, 6, 7]), pg.as_perm([0, 1, 2, 3, 4, 5, 7, 6])]
    w = pg.edge_affine_witness(k44, wreath, candidate)
    assert not w.ok and w.failing_check is not None
    # wrong order
    w2 = pg.edge_affine_witness(k44, wreath, candidate[:1])
    assert not w2.ok and "order" in w2.failing_check


def test_quotient_perm_rejects_non_invariant():
    labels = np.array([0, 0, 2, 2])
    assert cover_oracle.quotient_perm(labels, pg.as_perm([3, 2, 1, 0])).tolist() == [1, 0]
    with pytest.raises(ValueError):
        cover_oracle.quotient_perm(labels, pg.as_perm([0, 2, 1, 3]))


@pytest.mark.parametrize("labels", [[0, 0, 2], [0, 0, 2, 2, 4], [0, 0, 2, 4], [0, 0, 2, -1],
                                    [0, 0, 1, 1], [1, 1, 2, 2], [0, 0, 2, 2.0]],
                         ids=["too-short", "too-long", "out-of-range", "negative",
                              "not-a-root", "above-its-point", "not-integers"])
def test_quotient_perm_rejects_malformed_labels(labels):
    with pytest.raises(ValueError):
        cover_oracle.quotient_perm(np.array(labels), pg.as_perm([1, 0, 3, 2]))


def test_line_graph_as_cayley_roundtrip():
    G, S, gamma, sigma, info = cli.build_instance(2)
    S_rec, verdict = perm_oracle.line_graph_as_cayley(G, info, sigma, gamma)
    assert verdict
    assert len(S_rec) == 6
    assert S_rec == S


def _set_orbit(gens, seed):
    seen = {seed}
    stack = [seed]
    while stack:
        v = stack.pop()
        for g in gens:
            w = int(g[v])
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return sorted(seen)


@given(st.integers(min_value=1, max_value=30).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.permutations(range(n)), max_size=4),
                        st.integers(0, n - 1))))
@settings(max_examples=200, deadline=None)
def test_orbit_of_matches_a_set_based_search(case):
    n, perms, seed = case
    gens = [pg.as_perm(p) for p in perms]
    labels, orbit = pg.orbits(gens, n), _set_orbit(gens, seed)
    assert np.flatnonzero(labels == labels[seed]).tolist() == orbit
    assert np.flatnonzero(perm_oracle.orbit_mask(gens, seed, n)).tolist() == orbit
    cells = [list(o) for o in sorted({tuple(_set_orbit(gens, v)) for v in range(n)})]
    assert perm_oracle.orbits(gens, n) == cells
    assert labels.tolist() == [_set_orbit(gens, v)[0] for v in range(n)]


@pytest.mark.parametrize("cycles", [1, 2])
def test_orbits_of_shuffled_long_cycles(cycles):
    # least-label propagation alone moves a label one step along a cycle per
    # round, tens of thousands of rounds here; hooking roots and jumping
    # pointers takes a handful
    n = 1 << 16
    order = np.random.default_rng(7).permutation(n).reshape(cycles, -1)
    cycle = np.empty(n, dtype=np.int32)
    for points in order:
        cycle[points] = np.roll(points, -1)
    t0 = time.perf_counter()
    labels = pg.orbits([cycle], n)
    assert time.perf_counter() - t0 < 1.0
    expect = np.empty(n, dtype=np.int64)
    for points in order:
        expect[points] = points.min()
    assert np.array_equal(labels, expect)


def test_orbit_of_on_sigma3_is_everything():
    G = groups.TensorGroup(3)
    sigma, info = graphs.sigma_graph(G)
    assert not pg.orbits(pg.action_gens(G, info), sigma.n).any()


# -- orbit counting against the set-based searches it replaced -------------

def cycles(degree, *cycs):
    """The permutation of range(degree) with the given cycles."""
    p = list(range(degree))
    for c in cycs:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a] = b
    return pg.as_perm(p)


@pytest.mark.parametrize("graph, gens", [
    (GAMMA2, GENS2),
    (SIGMA2, SIGMA_GENS2),
    (SIGMA2, SIGMA_GENS2[:len(G2.gens)]),
    (SIGMA2, SIGMA_GENS2[G2.n:len(G2.gens)]),  # intransitive: the edge flag is from the edge action
], ids=["gamma2", "sigma2", "sigma2-regular-action", "sigma2-y-side"])
def test_transitivity_flags_are_python_bools(graph, gens):
    flags = perm_oracle.transitivity_report(graph, gens).flags()
    assert all(type(v) is bool for v in flags.values()), flags


# Graphs on at most 9 vertices: any edge set, or a circulant (vertex-transitive).
small_graphs = st.one_of(
    st.integers(min_value=0, max_value=9).flatmap(
        lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
            lambda bits: graphs.Graph(n, [e for e, b in zip(itertools.combinations(range(n), 2), bits)
                                          if b]))),
    st.integers(min_value=1, max_value=9).flatmap(
        lambda n: st.sets(st.integers(1, max(1, n // 2))).map(
            lambda jumps: graphs.Graph(n, {tuple(sorted((v, (v + j) % n)))
                                           for v in range(n) for j in jumps if j % n}))))


@given(small_graphs.filter(lambda g: g.n > 0), st.sampled_from(["all", "subset", "none"]), st.data())
@settings(max_examples=300, deadline=None)
def test_transitivity_report_matches_the_pair_search(graph, mode, data):
    found = perm_oracle.automorphism_group(graph).gens
    if mode == "subset":
        found = [g for g, keep in zip(found, data.draw(st.lists(
            st.booleans(), min_size=len(found), max_size=len(found)))) if keep]
    gens = [] if mode == "none" else found
    stab = [g for g in gens if g[0] == 0]
    flags = perm_oracle.transitivity_report(graph, gens).flags()
    assert flags == perm_oracle.transitivity_flags(graph, gens, stab)
    assert all(type(v) is bool for v in flags.values())


@st.composite
def complete_bipartite_like(draw):
    """K(A, B) with some vertices in neither part, and up to two vertex
    pairs toggled."""
    n = draw(st.integers(min_value=0, max_value=9))
    side = draw(st.lists(st.sampled_from("ABC"), min_size=n, max_size=n))
    edges = {(u, w) for u, w in itertools.combinations(range(n), 2) if {side[u], side[w]} == {"A", "B"}}
    if n > 1:
        for u, w in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2)):
            if u != w:
                edges ^= {(min(u, w), max(u, w))}
    return graphs.Graph(n, sorted(edges))


bipartite_cases = [graphs.Graph(0), graphs.Graph(6), graphs.Graph(5, [(1, 3), (1, 4), (2, 3), (2, 4)]),
                   graphs.Graph(5, [(0, 2), (0, 3), (1, 2), (1, 3)])]


def _with_examples(test):
    for g in bipartite_cases:
        test = example(g)(test)
    return test


@_with_examples
@given(st.one_of(complete_bipartite_like(), small_graphs))
@settings(max_examples=300, deadline=None)
def test_is_complete_bipartite_matches_the_bfs_oracle(graph):
    assert pg.is_complete_bipartite(graph) == perm_oracle.is_complete_bipartite(graph)


@needs_networkx
@_with_examples
@given(st.one_of(complete_bipartite_like(), small_graphs))
@settings(max_examples=200, deadline=None)
def test_is_complete_bipartite_matches_networkx(graph):
    ref = nx.Graph()
    ref.add_nodes_from(range(graph.n))
    ref.add_edges_from(graph.edge_array().tolist())
    got = pg.is_complete_bipartite(graph)
    if got is None:
        assert not any(nx.is_isomorphic(ref, nx.complete_bipartite_graph(a, graph.n - a))
                       for a in range(graph.n + 1))
    else:
        assert sum(got) == graph.n and nx.is_isomorphic(ref, nx.complete_bipartite_graph(*got))


def _kmm_automorphisms(m, rnd, count):
    """Random automorphisms of K(m, m): a permutation of each side, then a
    swap of the sides half of the time."""
    out = []
    for _ in range(count):
        a, b = rnd.sample(range(m), m), rnd.sample(range(m, 2 * m), m)
        out.append(pg.as_perm(b + a if rnd.random() < 0.5 else a + b))
    return out


def _kmm_translations(m):
    """The elementary abelian group of order m^2 acting by XOR on each side
    of K(m, m), m a power of two: an edge-affine witness."""
    bits = [1 << i for i in range(m.bit_length() - 1)]
    return ([pg.as_perm([v ^ t if v < m else v for v in range(2 * m)]) for t in bits]
            + [pg.as_perm([v if v < m else m + ((v - m) ^ t) for v in range(2 * m)]) for t in bits])


@given(st.sampled_from([2, 4]), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_edge_affine_witness_matches_the_closure_oracle(m, rnd):
    kmm = complete_bipartite(m, m)
    h = _kmm_automorphisms(m, rnd, 1)[0]
    conj = lambda p: pg.compose(pg.compose(pg.inverse(h), p), h)
    kind = rnd.choice(["random", "pairs", "witness", "drop", "replace"])
    if kind == "random":
        candidate = _kmm_automorphisms(m, rnd, rnd.randint(0, 4))
    elif kind == "pairs":  # order m^2 only for m <= 4; a witness only for m = 2
        candidate = [conj(cycles(2 * m, [2 * i, 2 * i + 1])) for i in range(m)]
    else:
        candidate = [conj(t) for t in _kmm_translations(m)]
        if kind != "witness":
            i = rnd.randrange(len(candidate))
            candidate[i:i + 1] = [] if kind == "drop" else _kmm_automorphisms(m, rnd, 1)
    swap = pg.as_perm([(v + m) % (2 * m) for v in range(2 * m)])
    extra = rnd.sample([conj(swap)] + _kmm_automorphisms(m, rnd, 2), rnd.randint(0, 2))
    w = pg.edge_affine_witness(kmm, candidate + extra, candidate)
    assert (w.ok, w.subgroup_order) == perm_oracle.edge_affine_witness(kmm, candidate + extra, candidate)


K22, K44 = complete_bipartite(2, 2), complete_bipartite(4, 4)
WREATH44 = [cycles(8, [0, 1, 2, 3]), cycles(8, [0, 1]), cycles(8, [4, 5, 6, 7]), cycles(8, [4, 5]),
            cycles(8, [0, 4], [1, 5], [2, 6], [3, 7])]
PAIRS44 = [cycles(8, [0, 1]), cycles(8, [2, 3]), cycles(8, [4, 5]), cycles(8, [6, 7])]
# the dihedral group of order 16 on the 8-cycle 0 4 1 5 2 6 3 7: two
# non-commuting involutions, each of which keeps or swaps the two sides
RING = [0, 4, 1, 5, 2, 6, 3, 7]


def ring_reflection(shift):
    p = [0] * 8
    for i, v in enumerate(RING):
        p[v] = RING[(shift - i) % 8]
    return pg.as_perm(p)


D16 = [ring_reflection(0), ring_reflection(1)]


WITNESS_FAILURES = [
    (complete_bipartite(2, 3), [], [], "not a balanced complete bipartite"),
    (graphs.Graph(4, [(0, 1), (1, 2), (2, 3)]), [], [], "not a balanced complete bipartite"),
    (K22, [cycles(4, [1, 2]), cycles(4, [0, 3])], [cycles(4, [1, 2]), cycles(4, [0, 3])],
     "not an automorphism"),
    (K22, [], [cycles(4, [0, 1])], "subgroup order 2 != 4"),
    (K22, [], [cycles(4, [0, 2, 1, 3])], "element of order > 2"),
    (K44, D16, D16, "do not commute"),
    (K44, WREATH44, PAIRS44, "not normalised"),
    (K22, [], [cycles(4, [0, 2], [1, 3]), cycles(4, [0, 1], [2, 3])], "vertex-transitive"),
    (K44, PAIRS44, PAIRS44, "not regular on the edges"),
]


@pytest.mark.parametrize("quotient, group_gens, candidate, message", WITNESS_FAILURES,
                         ids=[case[-1] for case in WITNESS_FAILURES])
def test_edge_affine_witness_failure_branches(quotient, group_gens, candidate, message):
    w = pg.edge_affine_witness(quotient, group_gens, candidate)
    assert not w.ok and message in w.failing_check


def test_edge_affine_witness_rejects_non_automorphisms():
    # both are involutions fixing a vertex of each side, so they generate a
    # group of order 4 with an edge orbit of size 4, but (1 2) maps the
    # edge {0, 2} to the non-edge {0, 1}
    gens = [cycles(4, [1, 2]), cycles(4, [0, 3])]
    assert not pg.are_automorphisms(K22, gens[:1])
    w = pg.edge_affine_witness(K22, gens, gens)
    assert not w.ok and "not an automorphism" in w.failing_check


def test_quotient_perm_rejects_a_permutation_of_the_first_members_only():
    # the first members 0 and 2 stay in distinct cells, but 1 joins 2's cell
    with pytest.raises(ValueError, match="partition"):
        cover_oracle.quotient_perm(np.array([0, 0, 2, 2]), pg.as_perm([1, 2, 3, 0]))

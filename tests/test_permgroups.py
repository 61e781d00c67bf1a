import itertools
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import perm_oracle
from mdg import autsearch, cli, f2, graphs, groups, permgroups as pg

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


def test_permgroup_lagrange_spot_check():
    stab_order = pg.PermGroup(LIFTS2).order()
    for size in np.bincount(pg.orbits(LIFTS2, 256)):
        assert size == 0 or stab_order % size == 0


def test_orbits():
    assert pg.orbits([], 3).tolist() == [0, 1, 2]
    sizes = np.bincount(pg.orbits(LIFTS2, 256))
    assert sorted(sizes[sizes > 0]) == sorted([1, 6, 18, 18, 36, 9, 36, 72, 18, 36, 6])
    assert pg.orbit_mask(R2, 0, 256).all()
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
    Y = groups.closure(G2, G2.y_gens)
    X = groups.closure(G2, G2.x_gens)
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
    X3 = groups.closure(G3, G3.x_gens)
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
    # full-degree verification must still catch a wrong one
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


def test_expected_symmetry_order():
    assert pg.expected_symmetry_order(2) == 18432
    assert pg.expected_symmetry_order(3) == 1849688064


def test_distance_diagram_gamma2():
    diag = pg.distance_diagram(GAMMA2, LIFTS2, 0)
    assert diag.cell_sizes_by_distance() == [[1], [6], [18], [18, 36], [9, 36, 72], [18, 36], [6]]
    for row in diag.counts:
        assert sum(row) == 6  # row sums are the valency
    cells = perm_oracle.orbits(LIFTS2, 256)
    assert sorted(zip(diag.mins, diag.sizes)) == [(c[0], len(c)) for c in cells]
    d = diag.to_dict()
    assert d["cells"][0] == {"distance": 0, "size": 1, "members_min": 0}


def test_distance_diagram_k44():
    k44 = graphs.complete_bipartite(4, 4)
    stab = [pg.as_perm([0, 2, 3, 1, 4, 5, 6, 7]), pg.as_perm([0, 2, 1, 3, 4, 5, 6, 7]),
            pg.as_perm([0, 1, 2, 3, 5, 6, 7, 4]), pg.as_perm([0, 1, 2, 3, 5, 4, 6, 7])]
    diag = pg.distance_diagram(k44, stab, 0)
    assert diag.cell_sizes_by_distance() == [[1], [4], [3]]


def test_distance_diagram_rejects_moving_base():
    with pytest.raises(ValueError):
        pg.distance_diagram(GAMMA2, R2, 0)


def test_transitivity_gamma2():
    rep = pg.transitivity_report(GAMMA2, GENS2, stabilizer_certified=True)
    assert rep.flags() == {"vertex": True, "edge": True, "arc": True,
                           "2-arc": False, "2-geodesic": True,
                           "1-distance": True, "2-distance": True, "3-distance": False}
    assert rep.stabilizer_certified


def test_transitivity_k44():
    k44 = graphs.complete_bipartite(4, 4)
    gens = [pg.as_perm([1, 2, 3, 0, 4, 5, 6, 7]), pg.as_perm([1, 0, 2, 3, 4, 5, 6, 7]),
            pg.as_perm([0, 1, 2, 3, 5, 6, 7, 4]), pg.as_perm([4, 5, 6, 7, 0, 1, 2, 3])]
    stab = [pg.as_perm([0, 2, 3, 1, 4, 5, 6, 7]), pg.as_perm([0, 2, 1, 3, 4, 5, 6, 7]),
            pg.as_perm([0, 1, 2, 3, 5, 6, 7, 4]), pg.as_perm([0, 1, 2, 3, 5, 4, 6, 7])]
    rep = pg.transitivity_report(k44, gens + stab, stabilizer_certified=True)
    assert rep.vertex and rep.edge and rep.arc and rep.two_arc and rep.two_geodesic
    assert rep.distance == {1: True, 2: True, 3: False}


def test_transitivity_edgeless_graph():
    rep = pg.transitivity_report(graphs.Graph(4, []),
                                 [pg.as_perm([1, 2, 3, 0]), pg.identity_perm(4)])
    assert rep.vertex
    assert not (rep.edge or rep.arc or rep.two_arc or rep.two_geodesic)
    assert rep.distance == {1: False, 2: False, 3: False}
    single = pg.transitivity_report(graphs.Graph(1, []), [])
    assert single.vertex and not single.edge


def test_transitivity_rejects_non_automorphism():
    with pytest.raises(ValueError):
        pg.transitivity_report(GAMMA2, [pg.as_perm(list(range(1, 256)) + [0])])


def test_induced_sigma_perm():
    assert pg.is_identity(perm_oracle.induced_sigma_perm(INFO2, pg.identity_perm(256)))
    # the H-image acts with two vertex orbits and regularly on the edges
    induced = [perm_oracle.induced_sigma_perm(INFO2, p) for p in R2]
    assert pg.orbits(induced, SIGMA2.n).tolist() == [0] * 64 + [64] * 64
    assert pg.transitivity_report(SIGMA2, induced).edge


def test_induced_sigma_perm_rejects_non_coset_map():
    bad = pg.identity_perm(256)
    bad[0], bad[4] = 4, 0  # swaps an X-element with a Y-element
    with pytest.raises(ValueError):
        perm_oracle.induced_sigma_perm(INFO2, bad)


def test_bipartition_helpers():
    assert pg.is_complete_bipartite(graphs.complete_bipartite(4, 4)) == (4, 4)
    c6 = graphs.Graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert pg.is_complete_bipartite(c6) is None
    c5 = graphs.Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert pg.is_complete_bipartite(c5) is None


def test_edge_affine_witness_positive():
    labels = cli.derived_orbit_partition(G2, SIGMA2, INFO2)
    quotient, _ = graphs.normal_quotient(SIGMA2, labels)
    assert cli._edge_affine_ok(G2, labels, quotient, SIGMA_GENS2)


def test_sigma_right_multiplications_fixing_the_base_join_the_stabilizer():
    # R(x_i) maps the X-coset X, the base vertex, to itself: with the side
    # swap, the right multiplications are arc-transitive on Σ, since X acts
    # regularly on the Y-cosets through its members, the base's neighbours
    r_and_swap = SIGMA_GENS2[:len(G2.gens)] + SIGMA_GENS2[-1:]
    assert [int(p[0]) == 0 for p in r_and_swap] == [True] * G2.n + [False] * (G2.n + 1)
    rep = pg.transitivity_report(SIGMA2, r_and_swap)
    assert rep.vertex and rep.arc and not rep.two_arc


def test_edge_affine_witness_refutations():
    k44 = graphs.complete_bipartite(4, 4)
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
    assert pg.quotient_perm(labels, pg.as_perm([3, 2, 1, 0])).tolist() == [1, 0]
    with pytest.raises(ValueError):
        pg.quotient_perm(labels, pg.as_perm([0, 2, 1, 3]))


@pytest.mark.parametrize("labels", [[0, 0, 2], [0, 0, 2, 2, 4], [0, 0, 2, 4], [0, 0, 2, -1],
                                    [0, 0, 1, 1], [1, 1, 2, 2], [0, 0, 2, 2.0]],
                         ids=["too-short", "too-long", "out-of-range", "negative",
                              "not-a-root", "above-its-point", "not-integers"])
def test_quotient_perm_rejects_malformed_labels(labels):
    with pytest.raises(ValueError):
        pg.quotient_perm(np.array(labels), pg.as_perm([1, 0, 3, 2]))


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
    assert np.flatnonzero(pg.orbit_mask(gens, seed, n)).tolist() == _set_orbit(gens, seed)
    cells = [list(o) for o in sorted({tuple(_set_orbit(gens, v)) for v in range(n)})]
    assert perm_oracle.orbits(gens, n) == cells
    assert pg.orbits(gens, n).tolist() == [_set_orbit(gens, v)[0] for v in range(n)]


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
    assert pg.orbit_mask(pg.action_gens(G, info), 0, sigma.n).all()


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
    flags = pg.transitivity_report(graph, gens).flags()
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
    found = autsearch.automorphism_group(graph).gens
    if mode == "subset":
        found = [g for g, keep in zip(found, data.draw(st.lists(
            st.booleans(), min_size=len(found), max_size=len(found)))) if keep]
    gens = [] if mode == "none" else found
    stab = [g for g in gens if g[0] == 0]
    flags = pg.transitivity_report(graph, gens).flags()
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
    kmm = graphs.complete_bipartite(m, m)
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


K22, K44 = graphs.complete_bipartite(2, 2), graphs.complete_bipartite(4, 4)
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
    (graphs.complete_bipartite(2, 3), [], [], "not a balanced complete bipartite"),
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
        pg.quotient_perm(np.array([0, 0, 2, 2]), pg.as_perm([1, 2, 3, 0]))

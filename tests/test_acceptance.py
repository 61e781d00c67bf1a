"""Acceptance gate: one test per criterion, each printing a single
pass/fail line.  The heavyweight n=3 objects are built once and shared.
"""

import sys

import numpy as np

import perm_oracle
from mdg import autsearch, cli, graphs, groups, permgroups as pg


_cache = {}


def inst(n):
    if n not in _cache:
        G, S, gamma, sigma, info = cli.build_instance(n)
        _cache[n] = {"G": G, "S": S, "gamma": gamma, "sigma": sigma, "info": info}
    return _cache[n]


def gamma_gens(n):
    """The right multiplications and the stabilizer lifts on all codes."""
    d = inst(n)
    if "gamma_gens" not in d:
        d["gamma_gens"] = pg.action_gens(d["G"])
        assert pg.are_automorphisms(d["gamma"], d["gamma_gens"])
    return d["gamma_gens"]


def lifts(n):
    return gamma_gens(n)[len(inst(n)["G"].gens):]


def sigma_gens(n):
    """The same generators, induced on the coset graph from the coset
    representatives."""
    d = inst(n)
    if "sigma_gens" not in d:
        d["sigma_gens"] = pg.action_gens(d["G"], d["info"])
    return d["sigma_gens"]


def quotient_data(n):
    d = inst(n)
    if "labels" not in d:
        labels = cli.derived_orbit_partition(d["G"], d["sigma"], d["info"])
        quotient, preserved = graphs.normal_quotient(d["sigma"], labels)
        d.update(labels=labels, quotient=quotient, preserved=preserved)
    return d


RESULTS = []  # echoed by conftest in the terminal summary


def _report(num, desc, ok):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc}"
    RESULTS.append(line)
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def test_criterion_01_group_orders():
    ok = all(len(groups.closure(groups.TensorGroup(n), groups.TensorGroup(n).gens))
             == 1 << (n * n + 2 * n) for n in (2, 3))
    _report(1, "group orders 256 and 32768 match 2^(n^2+2n)", ok)


def test_criterion_02_presentation():
    class Broken(groups.TensorGroup):
        # no tensor term in either arithmetic: one consistent wrong group
        def mul(self, g1, g2):
            return g1 ^ g2

        def mul_vec(self, g1, g2):
            return np.asarray(g1, dtype=np.uint64) ^ np.asarray(g2, dtype=np.uint64)

    ok = (groups.verify_presentation(groups.TensorGroup(2))
          and groups.verify_presentation(groups.TensorGroup(3))
          and not groups.verify_presentation(Broken(2)))
    _report(2, "defining relations hold and the order count pins the presentation", ok)


def test_criterion_03_structure():
    ok = True
    for n in (2, 3):
        G = groups.TensorGroup(n)
        derived = groups.derived_subgroup(G)
        ok &= derived == groups.center(G)
        ok &= derived == [G.encode(0, 0, a) for a in range(1 << (n * n))]
        ok &= groups.abelianization_structure(G, derived) == [2] * (2 * n)
    _report(3, "derived subgroup = center = pure tensors; quotient C_2^2n", ok)


def test_criterion_04_graph_counts():
    d2, d3 = inst(2), inst(3)
    ok = (d2["gamma"].n == 256 and d2["gamma"].is_regular() == 6
          and d2["sigma"].n == 128 and d2["sigma"].is_regular() == 4
          and d2["sigma"].edge_count() == 256
          and d3["gamma"].n == 32768 and d3["gamma"].is_regular() == 14
          and d3["sigma"].n == 8192 and d3["sigma"].is_regular() == 8)
    _report(4, "vertex counts and valencies of the Cayley and coset graphs", ok)


def test_criterion_05_clique_and_line_graph_isomorphisms():
    ok = True
    for n in (2, 3):
        d = inst(n)
        ok &= graphs.clique_graph(d["gamma"], graphs.coset_cliques(d["info"])) == d["sigma"]
        phi = graphs.phi_map(d["gamma"], d["sigma"], d["info"])
        ok &= len(phi) == d["G"].order
    _report(5, "clique graph is the coset graph; line graph is the Cayley graph", ok)


def test_criterion_06_cover():
    ok = True
    for n in (2, 3):
        d = quotient_data(n)
        ok &= pg.is_complete_bipartite(d["quotient"]) == (1 << n, 1 << n)
        ok &= d["preserved"]
        sizes = np.bincount(d["labels"])
        ok &= set(sizes[sizes > 0].tolist()) == {1 << (n * n)}  # semiregular
    _report(6, "coset graph covers the complete bipartite quotient semiregularly", ok)


def test_criterion_07_edge_affine_witness():
    ok = True
    for n in (2, 3):
        d = quotient_data(n)
        ok &= cli._edge_affine_ok(d["G"], d["labels"], d["quotient"], sigma_gens(n))
    _report(7, "elementary abelian normal subgroup regular on quotient edges", ok)


def test_criterion_08_distance_diagram():
    d = inst(2)
    diag = pg.distance_diagram(d["gamma"], lifts(2), 0)
    ok, why = cli.diagram_matches_reference(diag, cli.load_reference_diagram())
    idx = {(dd, size): i for i, (size, dd) in enumerate(zip(diag.sizes, diag.distances))}
    row = diag.counts[idx[(1, 6)]]
    ok &= (row[idx[(0, 1)]], row[idx[(1, 6)]], row[idx[(2, 18)]]) == (1, 2, 3)
    _report(8, f"distance diagram matches the reference data ({why})", ok)


def test_criterion_09_transitivity():
    ok = True
    for n in (2, 3):
        d = inst(n)
        rep = pg.transitivity_report(d["gamma"], gamma_gens(n), stabilizer_certified=(n == 2))
        ok &= rep.flags() == cli.GAMMA_EXPECTED_FLAGS
        srep = pg.transitivity_report(d["sigma"], sigma_gens(n))
        ok &= srep.vertex and srep.two_arc
    _report(9, "Cayley graph 2-geodesic- but not 2-arc-/3-distance-transitive; "
               "coset graph 2-arc-transitive", ok)


def test_criterion_10_full_automorphism_search():
    d = inst(2)
    res_g = autsearch.automorphism_group(d["gamma"], gamma_gens(2))
    res_s = autsearch.automorphism_group(d["sigma"], sigma_gens(2))
    ok = (res_g.complete and res_s.complete
          and res_g.order == res_s.order == 18432 == pg.expected_symmetry_order(2))
    _report(10, "full searches on both graphs certify automorphism order 18432", ok)


def test_criterion_11_generated_order():
    ok = True
    for n in (2, 3):
        d = inst(n)
        ok &= pg.generated_order(d["G"], d["S"], pg.stabilizer_lift_images(d["G"], d["S"])) == \
            pg.expected_symmetry_order(n)
    # independent full-degree cross-check at n=2
    d2 = inst(2)
    ok &= pg.PermGroup(gamma_gens(2)).order() == 18432
    _report(11, "order of <regular action, stabilizer lifts> matches the formula at n=2,3", ok)


def test_criterion_12_connection_set_roundtrip():
    d = inst(2)
    S_rec, verdict = perm_oracle.line_graph_as_cayley(d["G"], d["info"], d["sigma"], d["gamma"])
    ok = verdict and len(S_rec) == 6 and S_rec == d["S"]
    _report(12, "connection set recovered from the edge action rebuilds the Cayley graph", ok)


def test_criterion_13_property_suites():
    cases = 0
    ok = True

    # associativity: exhaustive at n=2 via the multiplication table
    G2 = inst(2)["G"]
    codes = np.arange(256, dtype=np.uint64)
    table = G2.mul_vec(codes[:, None], codes[None, :]).astype(np.int64)
    for g1 in range(256):
        left = table[table[g1]]          # (g1 g2) g3
        right = table[g1][table]         # g1 (g2 g3)
        ok &= bool(np.array_equal(left, right))
        cases += 256 * 256

    # associativity, inverse law and commutator closed form: sampled at n=3
    G3 = inst(3)["G"]
    rng = np.random.default_rng(0)
    a, b, c = (rng.integers(0, G3.order, 200_000, dtype=np.uint64) for _ in range(3))
    ok &= bool(np.array_equal(G3.mul_vec(G3.mul_vec(a, b), c),
                              G3.mul_vec(a, G3.mul_vec(b, c))))
    cases += len(a)
    allc = np.arange(G3.order, dtype=np.uint64)
    ok &= bool(np.all(G3.mul_vec(allc, G3.inv_vec(allc)) == 0))
    cases += G3.order
    comm = G3.mul_vec(G3.mul_vec(G3.mul_vec(G3.inv_vec(a), G3.inv_vec(b)), a), b)
    n = G3.n
    mask = np.uint64((1 << n) - 1)
    x1, y1 = a & mask, (a >> np.uint64(n)) & mask
    x2, y2 = b & mask, (b >> np.uint64(n)) & mask
    expect = np.zeros_like(a)
    for i in range(n):
        r1 = ((x1 >> np.uint64(i)) & np.uint64(1)) * y2
        r2 = ((x2 >> np.uint64(i)) & np.uint64(1)) * y1
        expect ^= (r1 ^ r2) << np.uint64(2 * n + i * n)
    ok &= bool(np.array_equal(comm, expect))
    cases += len(a)

    # phi equivariance: phi(z)^R(h) = phi(zh), all z for sampled h at n=3
    d3 = inst(3)
    phi = np.array(graphs.phi_map(d3["gamma"], d3["sigma"], d3["info"]),
                   dtype=np.int64)
    edge_list = list(map(tuple, d3["sigma"].edge_array().tolist()))
    edge_index = {e: i for i, e in enumerate(edge_list)}
    for h in rng.integers(1, G3.order, 4, dtype=np.uint64):
        rp = perm_oracle.right_mult_perm(G3, int(h))
        sp = perm_oracle.induced_sigma_perm(d3["info"], rp)
        edge_perm = np.empty(len(edge_list), dtype=np.int64)
        for i, (u, v) in enumerate(edge_list):
            a2, b2 = int(sp[u]), int(sp[v])
            edge_perm[i] = edge_index[(min(a2, b2), max(a2, b2))]
        ok &= bool(np.array_equal(phi[rp], edge_perm[phi]))
        cases += len(phi)

    # refinement determinism (search-based; full property tests live in
    # the autsearch suite)
    gamma2 = inst(2)["gamma"]
    part = perm_oracle.partition_from_cells(256, [[0], range(1, 256)])
    once, again = autsearch.refine(gamma2, part), autsearch.refine(gamma2, part)
    ok &= np.array_equal(once.order, again.order) and np.array_equal(once.starts, again.starts)

    ok &= cases >= 100_000
    _report(13, f"algebraic property suites, {cases} sampled cases", ok)

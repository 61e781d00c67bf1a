import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mdg import autsearch, cli, graphs, groups, permgroups as pg


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graphs.Graph(10, edges)


def test_refine_regular_fixed_point():
    k44 = graphs.complete_bipartite(4, 4)
    assert autsearch.refine(k44, [list(range(8))]) == [list(range(8))]


def test_refine_splits_by_degree():
    p3 = graphs.Graph(3, [(0, 1), (1, 2)])
    assert autsearch.refine(p3, [[0, 1, 2]]) == [[0, 2], [1]]


def test_refine_after_individualizing_refines_layers():
    G, S, gamma, sigma, info = cli.build_instance(2)
    cells = autsearch.refine(gamma, [[0], [v for v in range(1, 256)]])
    dist, _ = graphs.bfs_layers(gamma, 0)
    for cell in cells:
        assert len({dist[v] for v in cell}) == 1


def test_refine_deterministic():
    g = petersen()
    once = autsearch.refine(g, [[0], list(range(1, 10))])
    again = autsearch.refine(g, [[0], list(range(1, 10))])
    assert once == again


def test_aut_small_graphs():
    assert autsearch.automorphism_group(graphs.Graph(1, [])).order == 1
    c5 = graphs.Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert autsearch.automorphism_group(c5).order == 10
    assert autsearch.automorphism_group(graphs.complete_bipartite(4, 4)).order == 1152
    assert autsearch.automorphism_group(petersen()).order == 120


def test_aut_generators_verified():
    res = autsearch.automorphism_group(petersen())
    g = petersen()
    for p in res.gens:
        assert pg.is_automorphism(g, p)


def test_aut_known_subgroup_must_be_automorphisms():
    with pytest.raises(ValueError):
        autsearch.automorphism_group(petersen(), [pg.as_perm([1, 0] + list(range(2, 10)))])


def test_aut_budget_exhaustion():
    G, S, gamma, sigma, info = cli.build_instance(2)
    res = autsearch.automorphism_group(gamma, node_budget=2)
    assert not res.complete and res.order is None


def test_aut_gamma2_certification():
    G, S, gamma, sigma, info = cli.build_instance(2)
    known = pg.right_mult_action(G) + pg.connection_stabilizer_gens(G, verify_graph=gamma)
    res = autsearch.automorphism_group(gamma, known)
    assert res.complete and res.order == 18432
    # the same order falls out of an unseeded search
    assert autsearch.automorphism_group(gamma).order == 18432


def test_aut_deterministic():
    a = autsearch.automorphism_group(petersen())
    b = autsearch.automorphism_group(petersen())
    assert a.order == b.order and a.nodes == b.nodes
    assert len(a.gens) == len(b.gens)
    assert all(np.array_equal(p, q) for p, q in zip(a.gens, b.gens))


def test_canonical_form_distinguishes():
    ck, _, _ = autsearch.canonical_form(graphs.complete_bipartite(4, 4))
    cc, _, _ = autsearch.canonical_form(graphs.Graph(8, [(i, (i + 1) % 8) for i in range(8)]))
    assert ck != cc


def test_canonical_form_budget_exhaustion():
    with pytest.raises(groups.BudgetExceeded):
        autsearch.canonical_form(petersen(), node_budget=1)


def test_canonical_form_size_limit():
    with pytest.raises(ValueError):
        autsearch.canonical_form(graphs.Graph(513, []))


@given(st.integers(min_value=1, max_value=10), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_canonical_form_relabeling_invariance(n, rnd):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [e for e in pairs if rnd.random() < 0.4]
    g = graphs.Graph(n, chosen)
    perm = list(range(n))
    rnd.shuffle(perm)
    relabeled = graphs.Graph(n, [(perm[u], perm[v]) for u, v in chosen])
    c1, _, _ = autsearch.canonical_form(g)
    c2, _, _ = autsearch.canonical_form(relabeled)
    assert c1 == c2


def test_canonical_form_of_sigma_relabeling():
    G, S, gamma, sigma, info = cli.build_instance(2)
    rng = random.Random(11)
    perm = list(range(sigma.n))
    rng.shuffle(perm)
    relab = graphs.Graph(sigma.n, [(perm[u], perm[v]) for u, v in sigma.edge_array().tolist()])
    c1, _, _ = autsearch.canonical_form(sigma)
    c2, _, _ = autsearch.canonical_form(relab)
    assert c1 == c2

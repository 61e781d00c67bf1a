import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import perm_oracle
from group_oracle import bfs_layers, complete_bipartite
from mdg import autsearch, claims, cli, graphs, groups, permgroups as pg

try:
    import networkx as nx
except ImportError:
    nx = None
needs_networkx = pytest.mark.skipif(nx is None, reason="networkx is not installed")


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graphs.Graph(10, edges)


def refine(graph, cells) -> list[list[int]]:
    part = autsearch.refine(graph, perm_oracle.partition_from_cells(graph.n, cells))
    return [c.tolist() for c in np.split(part.order, part.starts[1:-1])] if len(part) else []


def test_refine_regular_fixed_point():
    k44 = complete_bipartite(4, 4)
    assert refine(k44, [list(range(8))]) == [list(range(8))]


def test_refine_splits_by_degree():
    p3 = graphs.Graph(3, [(0, 1), (1, 2)])
    assert refine(p3, [[0, 1, 2]]) == [[0, 2], [1]]


def test_refine_after_individualizing_refines_layers():
    G, S, gamma, sigma, info = cli.build_instance(2)
    cells = refine(gamma, [[0], [v for v in range(1, 256)]])
    dist, _ = bfs_layers(gamma, 0)
    for cell in cells:
        assert len({dist[v] for v in cell}) == 1


def test_refine_deterministic():
    g = petersen()
    once = refine(g, [[0], list(range(1, 10))])
    again = refine(g, [[0], list(range(1, 10))])
    assert once == again


def test_aut_small_graphs():
    assert perm_oracle.automorphism_group(graphs.Graph(1, [])).order == 1
    c5 = graphs.Graph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert perm_oracle.automorphism_group(c5).order == 10
    assert perm_oracle.automorphism_group(complete_bipartite(4, 4)).order == 1152
    assert perm_oracle.automorphism_group(petersen()).order == 120


def test_aut_generators_verified():
    res = perm_oracle.automorphism_group(petersen())
    g = petersen()
    assert pg.are_automorphisms(g, res.gens)


def test_aut_known_subgroup_must_be_automorphisms():
    swap = pg.as_perm([1, 0] + list(range(2, 10)))
    with pytest.raises(ValueError):
        perm_oracle.automorphism_group(petersen(), [swap])
    with pytest.raises(ValueError, match="not an automorphism"):
        autsearch.certified_order(petersen(), [swap])


def test_aut_budget_exhaustion():
    G, S, gamma, sigma, info = cli.build_instance(2)
    res = perm_oracle.automorphism_group(gamma, node_budget=2)
    assert not res.complete and res.order is None


def test_aut_gamma2_certification():
    G, S, gamma, sigma, info = cli.build_instance(2)
    assert autsearch.certified_order(gamma, pg.action_gens(G)) == 18432
    # the same order falls out of an unseeded search
    assert perm_oracle.automorphism_group(gamma).order == 18432


def test_aut_deterministic():
    a = perm_oracle.automorphism_group(petersen())
    b = perm_oracle.automorphism_group(petersen())
    assert a.order == b.order and a.nodes == b.nodes
    assert len(a.gens) == len(b.gens)
    assert all(np.array_equal(p, q) for p, q in zip(a.gens, b.gens))


def test_aut_order_of_sigma_relabeling():
    G, S, gamma, sigma, info = cli.build_instance(2)
    rng = random.Random(11)
    perm = list(range(sigma.n))
    rng.shuffle(perm)
    relab = graphs.Graph(sigma.n, [(perm[u], perm[v]) for u, v in sigma.edge_array().tolist()])
    a, b = perm_oracle.automorphism_group(sigma), perm_oracle.automorphism_group(relab)
    assert a.complete and b.complete and a.order == b.order == 18432


@given(st.integers(min_value=1, max_value=10), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_aut_order_relabeling_invariance(n, rnd):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [e for e in pairs if rnd.random() < 0.4]
    g = graphs.Graph(n, chosen)
    perm = list(range(n))
    rnd.shuffle(perm)
    relabeled = graphs.Graph(n, [(perm[u], perm[v]) for u, v in chosen])
    a, b = perm_oracle.automorphism_group(g), perm_oracle.automorphism_group(relabeled)
    assert a.complete and b.complete and a.order == b.order


# Every graph on at most 6 vertices, as a mask over the vertex pairs.  VF2
# enumerates all n! candidate maps of an edgeless graph, so n stays small.
small_graphs = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2).map(
        lambda bits: graphs.Graph(n, [e for e, b in zip(itertools.combinations(range(n), 2), bits)
                                      if b])))


@needs_networkx
@given(small_graphs)
@settings(max_examples=200, deadline=None)
def test_aut_order_matches_networkx(graph):
    res = perm_oracle.automorphism_group(graph)
    ref = nx.Graph()
    ref.add_nodes_from(range(graph.n))
    ref.add_edges_from(graph.edge_array().tolist())
    self_maps = sum(1 for _ in nx.isomorphism.GraphMatcher(ref, ref).isomorphisms_iter())
    assert res.complete and res.order == self_maps
    assert pg.are_automorphisms(graph, res.gens)


def _sigma_of_dihedral(*ms):
    return graphs.sigma_graph(groups.DihedralProduct(*ms))[0]


# Unseeded searches as the list-partition search found them, when it
# re-refined every node from the unit partition: order, matcher nodes,
# generator count and the first 16 hex digits of the SHA-256 of the
# generators' int32 bytes, in order.
SEARCH_PINS = {
    "sigma2": (lambda: cli.build_instance(2)[3], 18432, 58, 15, "5a0caa0fd95b7623"),
    "gamma2": (lambda: cli.build_instance(2)[2], 18432, 30, 10, "283f1ff259fc0d86"),
    "petersen": (petersen, 120, 9, 4, "741e6896047a51c4"),
    "dihedral-2-4": (lambda: _sigma_of_dihedral(2, 4), 4096, 67, 12, "0ce8332b7f406fb2"),
    "dihedral-4-4": (lambda: _sigma_of_dihedral(4, 4), 256, 17, 7, "839c3b8188d33183"),
    "dihedral-2-4-6": (lambda: _sigma_of_dihedral(2, 4, 6), 54043195528445952, 1508, 55,
                       "5e699210dffb1b73"),
}


@pytest.mark.parametrize("name", sorted(SEARCH_PINS))
def test_search_matches_the_pinned_searches(name):
    build, order, nodes, count, digest = SEARCH_PINS[name]
    graph = build()
    res = perm_oracle.automorphism_group(graph)
    h = hashlib.sha256()
    for p in res.gens:
        assert p.dtype == np.int32
        h.update(p.tobytes())
    assert (res.complete, res.order, res.nodes, len(res.gens)) == (True, order, nodes, count)
    assert h.hexdigest()[:16] == digest
    assert pg.are_automorphisms(graph, res.gens)


@given(small_graphs, st.data())
@settings(max_examples=200, deadline=None)
def test_certified_order_is_the_search_order_or_a_refusal(graph, data):
    """Seeded with the search's generators, or with a subset of them,
    ``certified_order`` returns the order the search certifies (which
    ``test_aut_order_matches_networkx`` checks) or refuses; never another
    number."""
    res = perm_oracle.automorphism_group(graph)
    keep = data.draw(st.lists(st.booleans(), min_size=len(res.gens), max_size=len(res.gens)))
    for seeds in (res.gens, [g for g, k in zip(res.gens, keep) if k]):
        try:
            order = autsearch.certified_order(graph, seeds)
        except ValueError as e:
            assert "is not one orbit" in str(e)
        else:
            assert order == res.order


def test_certified_order_refuses_a_regular_graph_that_is_not_vertex_transitive():
    """C3 ∪ C4 is 2-regular, so refinement leaves its 7 vertices in one
    cell, which no automorphism makes one orbit: all 48 are refused."""
    graph = graphs.Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (3, 6)])
    res = perm_oracle.automorphism_group(graph)
    every = perm_oracle.perm_closure(res.gens, graph.n)
    assert res.order == len(every) == 48
    with pytest.raises(ValueError, match="cell 0 \\(7 vertices\\) is not one orbit"):
        autsearch.certified_order(graph, every)


def test_the_gamma_search_certifies_the_order_the_line_graph_row_reports():
    """``certified_order`` on Γ(3) itself, seeded with the actions on all
    codes, certifies the order that ``full-automorphism-order-gamma`` reads
    from Σ's certified order by Whitney's theorem (both graphs at n = 2:
    criterion 10)."""
    G = groups.TensorGroup(3)
    row = claims.run([claims.SEARCH["gamma"]], claims.Context(G))[0]
    assert row.status == claims.PASS
    assert autsearch.certified_order(claims.Context(G).gamma, pg.action_gens(G)) == row.computed

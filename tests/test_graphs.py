import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cover_oracle
from graph_io import from_edgelist, from_graph6
from group_oracle import (TableGroup, complete_bipartite, coset_index_array, cosets, line_graph,
                          maximal_cliques)
from mdg import f2, graphs, groups


G2 = groups.TensorGroup(2)
S2 = graphs.xy_connection_set(G2)
GAMMA2 = graphs.cayley_graph(G2, S2)
SIGMA2, INFO2 = graphs.sigma_graph(G2)


def test_cayley_validations():
    with pytest.raises(ValueError):
        graphs.cayley_graph(G2, [0, 1])
    with pytest.raises(ValueError):
        # f1 * e1 is not an involution, and its inverse is missing
        graphs.cayley_graph(G2, [int(G2.mul_vec(G2.y_gens[0], G2.x_gens[0]))])


def test_cayley_k2():
    table = [[0, 1], [1, 0]]
    T = TableGroup(table)
    g = graphs.cayley_graph(T, [1])
    assert g.n == 2 and g.edge_count() == 1


def test_gamma2_counts():
    assert GAMMA2.n == 256
    assert GAMMA2.is_regular() == 6
    assert GAMMA2.edge_count() == 768


def test_sigma2_counts():
    assert SIGMA2.n == 128
    assert SIGMA2.is_regular() == 4
    assert SIGMA2.edge_count() == 256


def test_sigma_neighborhood_structure():
    # the neighbors of the coset Xh are exactly the cosets Yxh, x in X
    X = groups.closure_array(G2, G2.x_gens)
    for h in (0, 7, 100, 255):
        v = int(INFO2.x_index[h])
        expect = sorted({INFO2.n_x + int(INFO2.y_index[G2.mul_vec(x, h)]) for x in X})
        assert SIGMA2.neighbors(v).tolist() == expect


def test_complete_bipartite():
    k = complete_bipartite(4, 4)
    assert k.n == 8 and k.edge_count() == 16 and k.is_regular() == 4
    single = complete_bipartite(1, 1)
    assert single.edge_count() == 1


def test_maximal_cliques_small():
    k3 = graphs.Graph(3, [(0, 1), (0, 2), (1, 2)])
    assert maximal_cliques(k3) == [[0, 1, 2]]
    k44 = complete_bipartite(4, 4)
    assert maximal_cliques(k44) == k44.edge_array().tolist()  # the edges


def test_line_graph_small():
    k3 = graphs.Graph(3, [(0, 1), (0, 2), (1, 2)])
    lg = line_graph(k3)
    assert lg.n == 3 and lg.edge_count() == 3
    star = graphs.Graph(4, [(0, 1), (0, 2), (0, 3)])
    lg2 = line_graph(star)
    assert lg2.n == 3 and lg2.edge_count() == 3


def test_line_graph_of_sigma():
    lg = line_graph(SIGMA2)
    assert lg.n == 256
    assert lg.is_regular() == 6


def test_normal_quotient_trivial():
    q, preserved = cover_oracle.normal_quotient(GAMMA2, np.arange(GAMMA2.n))
    assert q == GAMMA2 and preserved
    with pytest.raises(ValueError):
        cover_oracle.normal_quotient(GAMMA2, [0, 0])


def test_bfs_layers():
    dist, sizes = graphs.bfs_layers(GAMMA2, 0)
    assert sizes == [1, 6, 18, 54, 117, 54, 6]
    assert dist.dtype == np.int64 and dist.shape == (256,) and dist.max() == 6
    assert np.bincount(dist).tolist() == sizes
    _, k = graphs.bfs_layers(complete_bipartite(4, 4), 0)
    assert k == [1, 4, 3]
    _, single = graphs.bfs_layers(graphs.Graph(1, []), 0)
    assert single == [1]


def test_bfs_layers_stop_at_the_depth():
    full, sizes = graphs.bfs_layers(GAMMA2, 0)
    for depth in range(9):
        dist, layers = graphs.bfs_layers(GAMMA2, 0, depth)
        assert layers == sizes[:depth + 1]
        assert dist.tolist() == np.where(full <= depth, full, -1).tolist()
    assert graphs.bfs_layers(GAMMA2, 0, 3)[1] == [1, 6, 18, 54]


def _layer_sets(n):
    G = groups.TensorGroup(n)
    gamma = graphs.cayley_graph(G, graphs.xy_connection_set(G))
    dist, _ = graphs.bfs_layers(gamma, 0)
    x0 = [x for x in groups.closure_array(G, G.x_gens).tolist() if x]
    y0 = [y for y in groups.closure_array(G, G.y_gens).tolist() if y]
    return G, dist, x0, y0


@pytest.mark.parametrize("n", [2, 3])
def test_distance_two_layer_structure(n):
    G, dist, x0, y0 = _layer_sets(n)
    expect = set()
    for x in x0:
        for y in y0:
            xv, yv = x, G.decode(y)[1]
            expect.add(G.encode(xv, yv, 0))
            expect.add(G.encode(xv, yv, f2.outer(xv, yv, n)))
    assert {v for v in range(G.order) if dist[v] == 2} == expect


@pytest.mark.parametrize("n", [2, 3])
def test_distance_three_layer_structure(n):
    G, dist, x0, y0 = _layer_sets(n)
    expect = set()
    for x in x0:
        xv = x
        for y in y0:
            yv = G.decode(y)[1]
            t = f2.outer(xv, yv, n)
            expect.add(G.encode(0, yv, t))   # y + x(x)y
            expect.add(G.encode(xv, 0, t))   # x + x(x)y
            for y2 in y0:
                y2v = G.decode(y2)[1]
                if y2v != yv:
                    expect.add(G.encode(xv, yv, f2.outer(xv, y2v, n)))
            for x2 in x0:
                if x2 != x:
                    expect.add(G.encode(xv, yv, f2.outer(x2, yv, n)))
    assert {v for v in range(G.order) if dist[v] == 3} == expect


def test_graph6_known_strings():
    k2 = graphs.Graph(2, [(0, 1)])
    assert graphs.to_graph6(k2) == b"A_"
    p3 = graphs.Graph(3, [(0, 1), (1, 2)])
    assert graphs.to_graph6(p3) == b"Bg"


@given(st.integers(min_value=1, max_value=12), st.data())
@settings(max_examples=100)
def test_graph6_roundtrip(n, data):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [e for e in pairs if data.draw(st.booleans())]
    g = graphs.Graph(n, chosen)
    assert from_graph6(graphs.to_graph6(g)) == g


def test_graph6_long_header_roundtrip():
    s = graphs.to_graph6(SIGMA2)
    assert s.startswith(b"~")
    assert from_graph6(s) == SIGMA2


@pytest.mark.parametrize("text", ["", "~", "~??", "A", "A__", "B!"])
def test_from_graph6_rejects_malformed(text):
    with pytest.raises(ValueError):
        from_graph6(text)


def test_edgelist_roundtrip():
    text = graphs.to_edgelist(GAMMA2)
    assert len(text.strip().splitlines()) == 768
    assert from_edgelist(text, n=256) == GAMMA2


# Differential checks against networkx, when it is installed.

def _nx_graph(graph):
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edge_array().tolist())
    return nx, g


random_graphs = st.integers(min_value=1, max_value=40).flatmap(
    lambda n: st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=120)
    .map(lambda pairs: graphs.Graph(n, [(u, v) for u, v in pairs if u != v])))


def _check_graph6_against_networkx(graph):
    nx, g = _nx_graph(graph)
    s = graphs.to_graph6(graph)
    assert s == nx.to_graph6_bytes(g, header=False).rstrip(b"\n")
    assert from_graph6(s) == graph


@pytest.mark.parametrize("graph", [GAMMA2, SIGMA2, complete_bipartite(4, 4),
                                   graphs.Graph(1, [])],
                         ids=["gamma2", "sigma2", "k44", "k1"])
def test_graph6_matches_networkx(graph):
    _check_graph6_against_networkx(graph)


@given(random_graphs)
@settings(max_examples=100, deadline=None)
def test_graph6_matches_networkx_random(graph):
    _check_graph6_against_networkx(graph)


def _check_cliques_against_networkx(graph):
    nx, g = _nx_graph(graph)
    assert maximal_cliques(graph) == sorted(sorted(c) for c in nx.find_cliques(g))


def test_maximal_cliques_match_networkx_gamma2():
    _check_cliques_against_networkx(GAMMA2)


@given(random_graphs)
@settings(max_examples=100, deadline=None)
def test_maximal_cliques_match_networkx_random(graph):
    _check_cliques_against_networkx(graph)


# The blocked coset rows and the array closure, against the whole-product
# coset oracle and the closure over a mask of all G.

def mask_closure(G, gens) -> list[int]:
    return np.flatnonzero(groups._closure_mask(G, gens)).tolist()


@pytest.mark.parametrize("n", [2, 3])
def test_right_cosets_match_the_whole_product_oracle(n):
    G = groups.TensorGroup(n)
    for gens in (G.x_gens, G.y_gens, G.gens[:1], []):
        sub = groups.closure_array(G, gens)
        rows, index = graphs.right_cosets(G, sub)
        expect_rows, expect_index = coset_index_array(G, sub)
        assert np.array_equal(rows, expect_rows) and np.array_equal(index, expect_index)


@given(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3), st.data())
@settings(max_examples=60, deadline=None)
def test_right_cosets_match_the_oracle_on_dihedral_products(ms, data):
    G = groups.DihedralProduct(*ms)
    codes = st.integers(min_value=0, max_value=G.order - 1)
    sub = groups.closure_array(G, data.draw(st.lists(codes, max_size=3)))
    rows, index = graphs.right_cosets(G, sub)
    assert np.array_equal(rows, cosets(G, sub))
    assert np.array_equal(rows[index], np.sort(G.mul_vec(sub[None, :],
                                                         np.arange(G.order)[:, None]), axis=1))
    # one more element: a subgroup only when it adds an involution to {1}
    candidate = sorted(set(sub) | {data.draw(codes)})
    try:
        expect = cosets(G, candidate)
    except ValueError:
        with pytest.raises(ValueError, match="not closed"):
            graphs.right_cosets(G, candidate)
    else:
        assert np.array_equal(graphs.right_cosets(G, candidate)[0], expect)


def test_right_cosets_reject_a_non_subgroup_of_a_dihedral_product():
    D = groups.DihedralProduct(2, 4)
    flip_and_rotation = [0, D.x_gens[0], int(D.mul_vec(D.x_gens[1], D.y_gens[1]))]
    for build in (graphs.right_cosets, cosets):
        with pytest.raises(ValueError, match="not closed"):
            build(D, flip_and_rotation)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_xy_connection_set_needs_no_mask_over_the_group(n):
    G = groups.TensorGroup(n)
    X, Y = mask_closure(G, G.x_gens), mask_closure(G, G.y_gens)
    assert groups.closure_array(G, G.x_gens).tolist() == X
    assert graphs.xy_connection_set(G) == sorted((set(X) | set(Y)) - {G.identity})


@given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=3), st.data())
@settings(max_examples=60, deadline=None)
def test_closure_array_matches_the_mask_closure(ms, data):
    G = groups.DihedralProduct(*ms)
    gens = data.draw(st.lists(st.integers(min_value=0, max_value=G.order - 1), max_size=3))
    sub = groups.closure_array(G, gens)
    assert sub.dtype == np.int64 and sub.tolist() == mask_closure(G, gens)


def test_closure_array_keeps_its_budget(monkeypatch):
    G = groups.TensorGroup(7)
    monkeypatch.setattr(groups, "DEFAULT_BUDGET", 128)
    assert len(groups.closure_array(G, G.x_gens)) == 128
    monkeypatch.setattr(groups, "DEFAULT_BUDGET", 127)
    with pytest.raises(groups.BudgetExceeded):
        groups.closure_array(G, G.x_gens)
    monkeypatch.setattr(groups, "DEFAULT_BUDGET", 1 << 10)
    with pytest.raises(groups.BudgetExceeded):
        groups.closure_array(G, G.gens)

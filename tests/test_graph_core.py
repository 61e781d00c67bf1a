"""Differential tests of the CSR graph core and the array passes built on
it.  The oracles share no code with mdg.graphs: networkx where it is
installed, otherwise scalar loops kept in this file."""

import dataclasses
import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import perm_oracle
from group_oracle import (TableGroup, cayley_graph_from_pairs, line_graph, maximal_cliques,
                          sigma_graph_from_pairs)
from mdg import autsearch, cli, graphs, groups, permgroups

try:
    import networkx as nx
except ImportError:
    nx = None
needs_networkx = pytest.mark.skipif(nx is None, reason="networkx is not installed")

G2, S2, GAMMA2, SIGMA2, INFO2 = cli.build_instance(2)


def to_nx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edge_array().tolist())
    return g


def sorted_edges(g):
    return sorted(tuple(sorted(e)) for e in g.edges())


# Raw edge lists: duplicates, both orientations and isolated vertices.
edge_lists = st.integers(min_value=0, max_value=30).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1]),
        max_size=90) if n > 1 else st.just([])))


@needs_networkx
@given(edge_lists)
@settings(max_examples=200, deadline=None)
def test_graph_matches_networkx(case):
    n, pairs = case
    ref = nx.Graph()
    ref.add_nodes_from(range(n))
    ref.add_edges_from(pairs)
    g = graphs.Graph(n, pairs)
    assert g == graphs.Graph(n, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    assert g.n == n and g.edge_count() == ref.number_of_edges()
    assert g.edge_array().tolist() == [list(e) for e in sorted_edges(ref)]
    for v in range(n):
        assert g.neighbors(v).tolist() == sorted(ref.adj[v])
    degrees = {d for _, d in ref.degree()}
    assert g.is_regular() == (degrees.pop() if len(degrees) == 1 else None)
    for u, v in itertools.product(range(min(n, 8)), repeat=2):
        assert g.has_edge(u, v) == ref.has_edge(u, v)
    width = max((d for _, d in ref.degree()), default=0)
    expect = [sorted(ref.adj[v]) + [n] * (width - ref.degree(v)) for v in range(n)]
    assert g.neighbor_array().tolist() == expect


def test_graph_edge_cases():
    for n in (0, 1):
        g = graphs.Graph(n)
        assert g.n == n and g.edge_count() == 0 and g.edge_array().shape == (0, 2)
        assert g.indptr.tolist() == [0] * (n + 1)
    assert graphs.Graph(0).is_regular() is None
    assert graphs.Graph(1).is_regular() == 0
    assert graphs.Graph(3, [(2, 0), (0, 2), (2, 0)]).edge_array().tolist() == [[0, 2]]
    for bad in ([(1, 1)], [(0, 3)], [(-1, 0)], [(0, 1, 2)]):
        with pytest.raises(ValueError):
            graphs.Graph(3, bad)
    g = graphs.Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.indices[0] = 2  # the store is read-only


def test_regular_neighbor_array_is_a_view_of_the_store():
    nbr = GAMMA2.neighbor_array()
    assert nbr.base is not None and np.shares_memory(nbr, GAMMA2.indices)
    assert nbr.tolist() == [GAMMA2.neighbors(v).tolist() for v in range(GAMMA2.n)]


random_graphs = edge_lists.map(lambda case: graphs.Graph(*case))


def _check_line_graph(graph):
    lg = line_graph(graph)
    ref = to_nx(graph)
    index = {e: i for i, e in enumerate(sorted_edges(ref))}
    # line-graph vertex i is row i of edge_array()
    assert list(map(tuple, graph.edge_array().tolist())) == list(index)
    lref = nx.relabel_nodes(nx.line_graph(ref), lambda e: index[tuple(sorted(e))])
    assert lg.n == len(index)
    assert lg.edge_array().tolist() == [list(e) for e in sorted_edges(lref)]


@needs_networkx
@pytest.mark.parametrize("graph", [GAMMA2, SIGMA2, graphs.complete_bipartite(3, 5)],
                         ids=["gamma2", "sigma2", "k35"])
def test_line_graph_matches_networkx(graph):
    _check_line_graph(graph)


@needs_networkx
@given(random_graphs)
@settings(max_examples=100, deadline=None)
def test_line_graph_matches_networkx_random(graph):
    _check_line_graph(graph)


@needs_networkx
def test_phi_map_is_an_isomorphism_onto_the_networkx_line_graph():
    phi = graphs.phi_map(GAMMA2, SIGMA2, INFO2)
    sigma = to_nx(SIGMA2)
    index = {e: i for i, e in enumerate(sorted_edges(sigma))}
    lref = nx.relabel_nodes(nx.line_graph(sigma), lambda e: index[tuple(sorted(e))])
    # phi(z) is the edge {Xz, Yz}
    for z in G2.elements():
        assert phi[z] == index[(int(INFO2.x_index[z]), INFO2.n_x + int(INFO2.y_index[z]))]
    gamma = to_nx(GAMMA2)
    nx.set_node_attributes(gamma, {z: phi[z] for z in gamma}, "label")
    nx.set_node_attributes(lref, {i: i for i in lref}, "label")
    # VF2, forced to follow phi by the labels, confirms it is an isomorphism
    matcher = nx.algorithms.isomorphism.GraphMatcher(
        gamma, lref, node_match=lambda a, b: a["label"] == b["label"])
    assert matcher.is_isomorphic()
    assert matcher.mapping == {z: phi[z] for z in gamma}


def test_phi_map_rejects_a_wrong_cayley_graph():
    edges = GAMMA2.edge_array()
    with pytest.raises(ValueError, match="edge counts"):
        graphs.phi_map(graphs.Graph(GAMMA2.n, edges[1:]), SIGMA2, INFO2)
    far = next(v for v in range(1, GAMMA2.n) if not GAMMA2.has_edge(0, v))
    moved = graphs.Graph(GAMMA2.n, np.vstack([edges[1:], [[0, far]]]))
    with pytest.raises(ValueError, match="does not preserve an edge"):
        graphs.phi_map(moved, SIGMA2, INFO2)
    with pytest.raises(ValueError, match="not an edge of the coset graph"):
        graphs.phi_map(GAMMA2, graphs.Graph(SIGMA2.n, SIGMA2.edge_array()[1:]), INFO2)


def brute_force_monochromatic(graph, colors):
    """Every triangle from a triple loop over vertices."""
    colour = {tuple(e): c for e, c in zip(graph.edge_array().tolist(), colors)}
    adj = [set(graph.neighbors(v).tolist()) for v in range(graph.n)]
    for a in range(graph.n):
        for b in adj[a]:
            for c in adj[a] & adj[b]:
                if a < b < c and len({colour[(a, b)], colour[(a, c)], colour[(b, c)]}) != 1:
                    return False
    return True


def test_triangles_match_brute_force_on_gamma2_with_random_flips():
    X = groups.closure(G2, G2.x_gens)
    Y = groups.closure(G2, G2.y_gens)
    colors = graphs.edge_coloring(GAMMA2, G2, X, Y)
    assert graphs.triangles_monochromatic(GAMMA2, colors) and brute_force_monochromatic(GAMMA2, colors)
    rng = random.Random(5)
    for flips in (1, 1, 1, 2, 3, 20, 300):
        c = colors.copy()
        for i in rng.sample(range(len(c)), flips):
            c[i] = "Y" if c[i] == "X" else "X"
        assert graphs.triangles_monochromatic(GAMMA2, c) == brute_force_monochromatic(GAMMA2, c)


def test_every_flipped_edge_of_gamma2_is_caught():
    X = groups.closure(G2, G2.x_gens)
    Y = groups.closure(G2, G2.y_gens)
    colors = graphs.edge_coloring(GAMMA2, G2, X, Y)
    for i in range(len(colors)):
        c = colors.copy()
        c[i] = "Y" if c[i] == "X" else "X"
        assert not graphs.triangles_monochromatic(GAMMA2, c)


@given(random_graphs, st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_triangles_match_brute_force_random(graph, rnd):
    colors = np.array([rnd.choice("XY") if rnd.random() < 0.2 else "X"
                       for _ in range(graph.edge_count())], dtype="U1")
    assert graphs.triangles_monochromatic(graph, colors) == brute_force_monochromatic(graph, colors)


def test_triangles_need_one_colour_per_edge():
    with pytest.raises(ValueError):
        graphs.triangles_monochromatic(GAMMA2, np.array(["X"] * 3))


def test_edge_coloring_matches_the_scalar_rule():
    X = groups.closure(G2, G2.x_gens)
    Y = groups.closure(G2, G2.y_gens)
    colors = graphs.edge_coloring(GAMMA2, G2, X, Y)
    expect = ["X" if G2.mul(h, G2.inv(g)) in X else "Y" for g, h in GAMMA2.edge_array().tolist()]
    assert colors.tolist() == expect
    with pytest.raises(ValueError):
        graphs.edge_coloring(GAMMA2, G2, X, [0])


def scalar_cayley_edges(G, S):
    return sorted({(min(g, G.mul(s, g)), max(g, G.mul(s, g))) for g in G.elements() for s in S})


def _s3():
    perms = list(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(q[p[k]] for k in range(3))] for q in perms] for p in perms]
    return TableGroup(table, x_gens=[1], y_gens=[2])


@pytest.mark.parametrize("G", [G2, groups.DihedralProduct(3, 4), groups.DihedralProduct(2, 2, 2), _s3()],
                         ids=["tensor2", "dihedral34", "dihedral222", "table-s3"])
def test_cayley_graph_matches_a_scalar_builder(G):
    S = graphs.xy_connection_set(G)
    g = graphs.cayley_graph(G, S)
    assert g.n == G.order
    assert [tuple(e) for e in g.edge_array().tolist()] == scalar_cayley_edges(G, S)


@needs_networkx
def test_bfs_layers_match_networkx():
    rng = random.Random(3)
    for graph in (GAMMA2, SIGMA2, graphs.Graph(7, [(0, 1), (1, 2), (4, 5)])):
        ref = to_nx(graph)
        for v in rng.sample(range(graph.n), 3):
            dist, layers = graphs.bfs_layers(graph, v)
            lengths = nx.single_source_shortest_path_length(ref, v)
            assert dist.tolist() == [lengths.get(u, -1) for u in range(graph.n)]
            assert layers == [sum(1 for d in lengths.values() if d == k)
                              for k in range(max(lengths.values()) + 1)]


def test_normal_quotient_matches_a_scalar_quotient():
    labels = cli.derived_orbit_partition(G2, SIGMA2, INFO2)
    quotient, preserved = graphs.normal_quotient(SIGMA2, labels)
    part = perm_oracle.orbits(
        [perm_oracle.induced_sigma_perm(INFO2, perm_oracle.right_mult_perm(G2, d))
         for d in cli.derived_basis(G2)], SIGMA2.n)
    assert labels.tolist() == [next(c[0] for c in part if v in c) for v in range(SIGMA2.n)]
    cell = {v: i for i, c in enumerate(part) for v in c}
    expect = sorted({(min(cell[u], cell[v]), max(cell[u], cell[v]))
                     for u, v in SIGMA2.edge_array().tolist() if cell[u] != cell[v]})
    assert [tuple(e) for e in quotient.edge_array().tolist()] == expect
    assert preserved


BAD_LABELS = {
    "too-short": lambda labels: labels[:-1],
    "too-long": lambda labels: np.append(labels, 0),
    "negative": lambda labels: np.where(np.arange(len(labels)) == 5, -1, labels),
    "out-of-range": lambda labels: np.where(np.arange(len(labels)) == 0, len(labels), labels),
    "above-its-point": lambda labels: np.where(labels == 0, 1, labels),
    "not-a-root": lambda labels: np.where(np.arange(len(labels)) == 7, 4, labels),
    "not-integers": lambda labels: labels.astype(float),
}


@pytest.mark.parametrize("bad", sorted(BAD_LABELS))
def test_normal_quotient_rejects_malformed_labels(bad):
    labels = BAD_LABELS[bad](cli.derived_orbit_partition(G2, SIGMA2, INFO2))
    with pytest.raises(ValueError):
        graphs.normal_quotient(SIGMA2, labels)


def scalar_clique_graph_edges(cliques):
    return sorted({(i, j) for i, j in itertools.combinations(range(len(cliques)), 2)
                   if set(cliques[i]) & set(cliques[j])})


def by_size(cliques):
    """The cliques of each size, ascending, as the rows of one array."""
    sizes = [len(c) for c in cliques]
    return [np.array([c for c in cliques if len(c) == size], dtype=np.int64)
            .reshape(sizes.count(size), size) for size in sorted(set(sizes))]


@given(random_graphs)
@settings(max_examples=100, deadline=None)
def test_clique_graph_and_cover_check_match_scalar_rules(graph):
    cliques = maximal_cliques(graph)
    # maximal cliques always cover the edges; the check passes iff they are
    # nonempty and of one size, so that one array holds them, and each edge
    # lies in only one of them; an array of only some of them never passes
    pairs = [p for c in cliques for p in itertools.combinations(c, 2)]
    one_size = len(by_size(cliques)) == 1 and len(cliques[0]) > 0
    for same in by_size(cliques):
        if not one_size:
            with pytest.raises(ValueError):
                graphs.verify_clique_cover(graph, same)
        elif len(pairs) == len(set(pairs)):
            cg = graphs.clique_graph(graph, same)
            assert [tuple(e) for e in cg.edge_array().tolist()] == scalar_clique_graph_edges(cliques)
        else:
            with pytest.raises(ValueError, match="two of the cliques"):
                graphs.verify_clique_cover(graph, same)


def _far(graph, row):
    """A vertex outside ``row`` and not adjacent to its first member, if any."""
    return next((v for v in range(graph.n) if v not in row and v != row[0]
                 and not graph.has_edge(row[0], v)), None)


def test_verify_clique_cover_catches_each_fault():
    cliques = np.array(sorted(sorted(c) for c in graphs.coset_cliques(INFO2)))
    graphs.verify_clique_cover(GAMMA2, cliques)
    far = _far(GAMMA2, cliques[0].tolist())
    bad = {
        "cover every edge": cliques[1:],
        "two of the cliques": np.vstack([cliques, cliques[:1]]),
        "non-edge": np.vstack([cliques, [[0, *cliques[0, 1:-1], far]]]),
        "not maximal": cliques[:, :-1],
        "out of range": np.vstack([cliques, [[0, 1, 2, GAMMA2.n]]]),
        "nonempty rows of a 2-D array": np.empty((3, 0), dtype=np.int64),
    }
    for why, cover in bad.items():
        with pytest.raises(ValueError, match=why):
            graphs.verify_clique_cover(GAMMA2, cover)
    for cover in (cliques.ravel(), cliques.tolist() + [[0]]):
        with pytest.raises(ValueError):
            graphs.verify_clique_cover(GAMMA2, cover)
    graphs.verify_clique_cover(graphs.Graph(2), np.array([[0], [1]]))
    graphs.verify_clique_cover(graphs.Graph(0), np.empty((0, 1), dtype=np.int64))


# three K4s that pairwise share one vertex: the shared vertices 0, 1, 2 make
# a triangle whose edges lie in three different K4s, a fourth maximal clique
THREE_K4S = np.array([[0, 2, 3, 4], [0, 1, 5, 6], [1, 2, 7, 8]])


def union_of_cliques(n, rows):
    return graphs.Graph(n, [p for r in rows for p in itertools.combinations(r, 2)])


def test_a_cover_missing_a_triangle_is_rejected():
    graph = union_of_cliques(9, THREE_K4S.tolist())
    assert maximal_cliques(graph) == sorted(THREE_K4S.tolist() + [[0, 1, 2]])
    with pytest.raises(ValueError, match="a triangle lies in no clique"):
        graphs.clique_graph(graph, THREE_K4S)
    assert scalar_cover_error(graph, THREE_K4S) == \
        over_chunks(lambda: graphs.verify_clique_cover(graph, THREE_K4S)) == \
        ("ValueError", "a triangle lies in no clique")
    # two K4s sharing one vertex leave no such triangle
    two = THREE_K4S[:2]
    cg = graphs.clique_graph(union_of_cliques(7, two.tolist()), two)
    assert cg.n == 2 and cg.edge_count() == 1


def test_a_cover_leaving_out_an_isolated_vertex_is_rejected():
    k4 = np.array([[0, 1, 2, 3]])
    graphs.verify_clique_cover(union_of_cliques(4, k4), k4)
    with pytest.raises(ValueError, match="isolated vertex"):
        graphs.verify_clique_cover(union_of_cliques(5, k4), k4)
    edgeless = graphs.Graph(3)
    graphs.verify_clique_cover(edgeless, np.array([[2], [0], [1]]))
    for cover in ([[0], [1]], [[0], [1], [2], [2]]):
        with pytest.raises(ValueError, match="isolated vertex"):
            graphs.verify_clique_cover(edgeless, np.array(cover))
    # vertex i is row i: the three singletons share nothing
    assert graphs.clique_graph(edgeless, np.array([[2], [0], [1]])) == graphs.Graph(3)


def test_clique_graph_rejects_zero_width_cliques():
    with pytest.raises(ValueError, match="nonempty rows"):
        graphs.clique_graph(graphs.Graph(3), np.empty((3, 0)))


def test_clique_graph_numbers_the_cliques_by_their_rows():
    # a path 0 - 1 - 2 - 3: its edges are its maximal cliques, and two
    # edges meet iff their rows are adjacent in this order
    path = graphs.Graph(4, [(0, 1), (1, 2), (2, 3)])
    rows = np.array([[3, 2], [1, 0], [2, 1]])
    assert graphs.clique_graph(path, rows).edge_array().tolist() == [[0, 2], [1, 2]]


# -- block boundaries ----------------------------------------------------------
# Every blocked pass must give the same answer, and raise the same error,
# whatever the block size: one element per step, an odd size that splits
# rows, segments and cliques, and the default.

CHUNKS = (1, 7, graphs.CHUNK)


def _canon(x):
    if isinstance(x, graphs.Graph):
        return ("graph", x.n, x.edge_array().tolist())
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, tuple):
        return tuple(map(_canon, x))
    return x


def over_chunks(fn, chunks=CHUNKS):
    """fn() under each block size, as the result or the ValueError text;
    asserts that every block size gives the same one, and returns it."""
    out = []
    for chunk in chunks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graphs, "CHUNK", chunk)
            try:
                out.append(_canon(fn()))
            except ValueError as e:
                out.append(("ValueError", str(e)))
    assert out.count(out[0]) == len(out), out
    return out[0]


def scalar_cover_error(graph, cliques):
    """The fault verify_clique_cover reports first, from set arithmetic: a
    non-edge; a clique some vertex extends; an edge in two cliques; an
    uncovered edge; a vertex outside a clique adjacent to two of its
    members; an isolated vertex that is not exactly one of the cliques."""
    cliques = np.asarray(cliques).tolist()
    adj = [set(graph.neighbors(v).tolist()) for v in range(graph.n)]
    if any(b not in adj[a] for c in cliques for a, b in itertools.combinations(c, 2)):
        return ("ValueError", "clique contains a non-edge")
    if any(set(range(graph.n)).intersection(*(adj[v] for v in c)) for c in cliques):
        return ("ValueError", "clique is not maximal")
    pairs = [tuple(sorted(p)) for c in cliques for p in itertools.combinations(c, 2)]
    if len(pairs) != len(set(pairs)):
        return ("ValueError", "edge lies in two of the cliques")
    if len(pairs) != graph.edge_count():
        return ("ValueError", "cliques do not cover every edge")
    if any(len(adj[u] & set(c)) >= 2 for c in cliques for u in set(range(graph.n)) - set(c)):
        return ("ValueError", "a triangle lies in no clique")
    if any(cliques.count([v]) != 1 for v in range(graph.n) if not adj[v]):
        return ("ValueError", "an isolated vertex is not exactly one of the cliques")
    return None


# Graphs made of random cliques of one size: the cover of those cliques is
# accepted exactly when it is the set of all maximal cliques and no two of
# them share an edge.
clique_unions = st.integers(min_value=1, max_value=5).flatmap(
    lambda size: st.integers(min_value=size, max_value=3 * size + 2).flatmap(
        lambda n: st.tuples(st.just(n), st.just(size), st.lists(
            st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True),
            max_size=7))))


@given(clique_unions)
@example((9, 4, THREE_K4S.tolist()))
@example((7, 4, THREE_K4S[:2].tolist()))
@example((3, 1, [[2], [0], [1]]))
@settings(max_examples=150, deadline=None)
def test_cover_check_accepts_exactly_the_maximal_cliques(case):
    n, size, rows = case
    graph = union_of_cliques(n, rows)
    cover = np.array(rows, dtype=np.int64).reshape(len(rows), size)
    got = over_chunks(lambda: graphs.verify_clique_cover(graph, cover))
    pairs = [tuple(sorted(p)) for r in rows for p in itertools.combinations(r, 2)]
    exact = sorted(sorted(r) for r in rows) == maximal_cliques(graph)
    assert (got is None) == (exact and len(pairs) == len(set(pairs)))
    assert got == scalar_cover_error(graph, cover)


def _edges(graph):
    return [tuple(e) for e in graph.edge_array().tolist()]


@pytest.mark.parametrize("G", [G2, groups.DihedralProduct(3, 4), _s3()],
                         ids=["tensor2", "dihedral34", "table-s3"])
def test_cayley_graph_is_the_same_for_every_block_size(G):
    S = graphs.xy_connection_set(G)
    assert over_chunks(lambda: graphs.cayley_graph(G, S)) == \
        ("graph", G.order, [list(e) for e in scalar_cayley_edges(G, S)])


@pytest.mark.parametrize("G", [G2, groups.TensorGroup(3), groups.DihedralProduct(2, 3),
                               groups.DihedralProduct(4, 4)],
                         ids=["tensor2", "tensor3", "dihedral23", "dihedral44"])
def test_row_builders_match_the_pair_list_oracle(G):
    """Γ and Σ written row by row equal the graphs built from their pairs,
    at every block size; at order 32,768 a prime block size stands in for
    the single-element one, which takes seconds there."""
    chunks = CHUNKS if G.order < 1 << 12 else (509, graphs.CHUNK)
    S = graphs.xy_connection_set(G)
    assert over_chunks(lambda: graphs.cayley_graph(G, S), chunks) == \
        _canon(cayley_graph_from_pairs(G, S))
    sigma, info = graphs.sigma_graph(G)
    assert over_chunks(lambda: graphs.sigma_graph(G)[0], chunks) == \
        _canon(sigma_graph_from_pairs(info))
    assert sigma.edge_count() == G.order


@given(st.sampled_from([G2, groups.DihedralProduct(3, 4), groups.DihedralProduct(2, 2, 2), _s3()]),
       st.data())
@settings(max_examples=40, deadline=None)
def test_cayley_graph_matches_the_pair_list_oracle_on_random_connection_sets(G, data):
    picked = data.draw(st.sets(st.integers(min_value=0, max_value=G.order - 1), max_size=8))
    S = sorted(({G.inv(s) for s in picked} | picked) - {G.identity})
    assert over_chunks(lambda: graphs.cayley_graph(G, S)) == _canon(cayley_graph_from_pairs(G, S))


def test_sigma_graph_rejects_a_coset_meeting_another_twice():
    # in D_2 the flip x and the flipped rotation y are one element, so X = Y
    # and the X-coset X meets the Y-coset Y in two elements
    assert over_chunks(lambda: graphs.sigma_graph(groups.DihedralProduct(1))[0]) == \
        ("ValueError", "two members of a coset share a coset of the other side")


def test_phi_map_rejects_two_swapped_images():
    """Swapping the cosets of z and of a vertex far from z keeps phi a
    bijection onto the edges, but moves the image of an edge at z."""
    far = next(v for v in range(1, GAMMA2.n) if not GAMMA2.has_edge(0, v))
    x, y = INFO2.x_index.copy(), INFO2.y_index.copy()
    x[[0, far]], y[[0, far]] = x[[far, 0]], y[[far, 0]]
    swapped = dataclasses.replace(INFO2, x_index=x, y_index=y)
    kind, text = over_chunks(lambda: graphs.phi_map(GAMMA2, SIGMA2, swapped))
    assert kind == "ValueError" and "does not preserve an edge" in text


def scalar_bfs(graph, v):
    dist = [-1] * graph.n
    dist[v] = 0
    queue = deque([v])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u).tolist():
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist, [dist.count(k) for k in range(max(dist) + 1)]


def test_identifications_are_the_same_for_every_block_size():
    for graph in (GAMMA2, SIGMA2):
        lg = over_chunks(lambda: line_graph(graph))
        assert lg == ("graph", graph.edge_count(),
                      [list(e) for e in scalar_clique_graph_edges(_edges(graph))])
    cliques = graphs.coset_cliques(INFO2).tolist()
    cg = over_chunks(lambda: graphs.clique_graph(GAMMA2, graphs.coset_cliques(INFO2)))
    assert cg[2] == [list(e) for e in scalar_clique_graph_edges(cliques)]
    assert over_chunks(lambda: graphs.clique_graph(GAMMA2, graphs.coset_cliques(INFO2)) == SIGMA2)
    assert over_chunks(lambda: graphs.phi_map(GAMMA2, SIGMA2, INFO2)) == \
        [_edges(SIGMA2).index((int(INFO2.x_index[z]), INFO2.n_x + int(INFO2.y_index[z])))
         for z in G2.elements()]
    edges = GAMMA2.edge_array()
    far = next(v for v in range(1, GAMMA2.n) if not GAMMA2.has_edge(0, v))
    for gamma, sigma, why in (
            (graphs.Graph(GAMMA2.n, edges[1:]), SIGMA2, "edge counts"),
            (graphs.Graph(GAMMA2.n, np.vstack([edges[1:], [[0, far]]])), SIGMA2, "does not preserve"),
            (GAMMA2, graphs.Graph(SIGMA2.n, SIGMA2.edge_array()[1:]), "not an edge of the coset")):
        kind, text = over_chunks(lambda: graphs.phi_map(gamma, sigma, INFO2))
        assert kind == "ValueError" and why in text


def test_cover_faults_are_the_same_for_every_block_size():
    cliques = np.array(sorted(sorted(c) for c in graphs.coset_cliques(INFO2)))
    far = _far(GAMMA2, cliques[0].tolist())
    covers = [cliques, cliques[1:], np.vstack([cliques, cliques[:1]]),
              np.vstack([cliques, [[0, *cliques[0, 1:-1], far]]]), cliques[:, :-1],
              cliques[:, :2]]
    for cover in covers:
        got = over_chunks(lambda: graphs.verify_clique_cover(GAMMA2, cover))
        assert got == scalar_cover_error(GAMMA2, cover)


def test_colour_kernels_are_the_same_for_every_block_size():
    X = groups.closure(G2, G2.x_gens)
    Y = groups.closure(G2, G2.y_gens)
    colors = over_chunks(lambda: graphs.edge_coloring(GAMMA2, G2, X, Y))
    assert colors == ["X" if G2.mul(h, G2.inv(g)) in X else "Y" for g, h in _edges(GAMMA2)]
    assert over_chunks(lambda: graphs.edge_coloring(GAMMA2, G2, X, [0])) == \
        ("ValueError", "edge difference lies outside X u Y")
    rng = random.Random(11)
    for flips in (0, 1, 2, 40):
        c = np.array(colors)
        for i in rng.sample(range(len(c)), flips):
            c[i] = "Y" if c[i] == "X" else "X"
        assert over_chunks(lambda: graphs.triangles_monochromatic(GAMMA2, c)) == \
            brute_force_monochromatic(GAMMA2, c)


def test_automorphism_check_is_the_same_for_every_block_size():
    lifts = permgroups.action_gens(G2)
    assert over_chunks(lambda: permgroups.are_automorphisms(GAMMA2, lifts))
    swap = np.arange(GAMMA2.n)
    far = next(v for v in range(1, GAMMA2.n) if not GAMMA2.has_edge(0, v))
    swap[[GAMMA2.neighbors(0)[0], far]] = swap[[far, GAMMA2.neighbors(0)[0]]]
    assert not over_chunks(lambda: permgroups.are_automorphisms(GAMMA2, lifts + [swap]))


def _diagram_or_error(fn):
    try:
        return fn()
    except ValueError as e:
        return ("ValueError", str(e))


def test_distance_diagram_is_the_same_for_every_block_size():
    # the lifts' diagram; a path 1 - 0 - 2 - 3 whose "stabilizer" swaps 1 and
    # 2 (equal distances, unequal counts); one that swaps 0's neighbour 1
    # with 3, at distance 2
    lifts = permgroups.action_gens(G2)[len(G2.gens):]
    path = graphs.Graph(4, [(0, 1), (0, 2), (2, 3)])
    for graph, stab in ((GAMMA2, lifts), (path, [permgroups.as_perm([0, 2, 1, 3])]),
                        (path, [permgroups.as_perm([0, 3, 2, 1])])):
        got = over_chunks(lambda: _diagram_or_error(
            lambda: permgroups.distance_diagram(graph, stab, 0).to_dict()))
        assert got == _diagram_or_error(lambda: perm_oracle.distance_diagram(graph, stab, 0))


@given(random_graphs, st.randoms(use_true_random=False))
@example(graphs.Graph(9, [(0, v) for v in range(1, 9)]), random.Random(0))
@example(graphs.Graph(6), random.Random(0))
@settings(max_examples=100, deadline=None)
def test_blocked_kernels_match_the_oracles_on_random_graphs(graph, rnd):
    """Irregular graphs, a star and an edgeless graph, at every block size."""
    assert over_chunks(lambda: line_graph(graph)) == \
        ("graph", graph.edge_count(), [list(e) for e in scalar_clique_graph_edges(_edges(graph))])
    cliques = maximal_cliques(graph)
    for same in by_size(cliques):
        if not same.size:  # the empty graph's one maximal clique is empty
            continue
        covers = [same, same[1:], np.vstack([same, same[:1]])]
        if same.shape[1] > 1:
            covers.append(same[:, :-1])
            far = _far(graph, same[0].tolist())
            if far is not None:
                covers.append(np.vstack([same, [[*same[0, :-1], far]]]))
        for cover in covers:
            got = over_chunks(lambda: graphs.verify_clique_cover(graph, cover))
            assert got == scalar_cover_error(graph, cover)
        if len(same) == len(cliques) and scalar_cover_error(graph, same) is None:
            cg = over_chunks(lambda: graphs.clique_graph(graph, same))
            assert cg[2] == [list(e) for e in scalar_clique_graph_edges(cliques)]
    colors = np.array([rnd.choice("XY") if rnd.random() < 0.2 else "X"
                       for _ in range(graph.edge_count())], dtype="U1")
    assert over_chunks(lambda: graphs.triangles_monochromatic(graph, colors)) == \
        brute_force_monochromatic(graph, colors)
    if graph.n:
        v = rnd.randrange(graph.n)
        assert over_chunks(lambda: graphs.bfs_layers(graph, v)) == scalar_bfs(graph, v)


def test_bfs_layers_are_the_same_for_every_block_size():
    for graph in (GAMMA2, SIGMA2):
        for v in (0, 77, graph.n - 1):
            assert over_chunks(lambda: graphs.bfs_layers(graph, v)) == scalar_bfs(graph, v)


@given(random_graphs, st.randoms(use_true_random=False))
@example(graphs.Graph(0), random.Random(0))
@example(graphs.Graph(5), random.Random(0))
@settings(max_examples=100, deadline=None)
def test_normal_quotient_matches_a_scalar_quotient_for_every_block_size(graph, rnd):
    cells = [rnd.randrange(graph.n // 3 + 1) for _ in range(graph.n)]
    least = {}
    for v, c in enumerate(cells):
        least.setdefault(c, v)
    labels = np.array([least[c] for c in cells], dtype=np.int64)
    number = {r: i for i, r in enumerate(sorted(least.values()))}
    expect = sorted({tuple(sorted((number[labels[u]], number[labels[v]])))
                     for u, v in graph.edge_array().tolist() if labels[u] != labels[v]})
    quotient, preserved = over_chunks(lambda: graphs.normal_quotient(graph, labels))
    assert quotient == ("graph", len(number), [list(e) for e in expect])
    k = graph.is_regular()
    assert preserved == (k is not None and graphs.Graph(len(number), expect).is_regular() == k)


# -- the index-width rule at its boundaries ------------------------------------

@pytest.mark.parametrize("limit, dtype", [(0, np.int16), (1 << 15, np.int16),
                                          ((1 << 15) + 1, np.int32), (1 << 31, np.int32),
                                          ((1 << 31) + 1, np.int64)])
def test_index_dtype_is_the_narrowest_type_holding_the_range(limit, dtype):
    assert graphs._index_dtype(limit) is dtype
    assert limit - 1 <= np.iinfo(dtype).max
    # row pointers: never narrower than int32
    assert graphs._index_dtype(limit, (np.int32,)) is (np.int32 if dtype is np.int16 else dtype)


N16 = 1 << 15  # the most vertices whose ids fit in int16
_rnd = random.Random(15)
BOUNDARY_EDGES = {
    "one-edge": [(0, N16 - 1)],
    # irregular, with the top vertices 32,767, 32,766, ... in many rows
    "irregular": [(0, N16 - 1), (N16 - 2, N16 - 1)] + [
        (_rnd.choice([_rnd.randrange(50), _rnd.randrange(N16 - 60, N16)]),
         _rnd.randrange(N16 - 60, N16)) for _ in range(400)],
}


@pytest.fixture(scope="module", params=sorted(BOUNDARY_EDGES))
def boundary_graphs(request):
    """The same edges on 2^15 vertices (int16 ids) and on 2^15 + 1 (int32)."""
    edges = [(u, v) for u, v in BOUNDARY_EDGES[request.param] if u != v]
    return edges, graphs.Graph(N16, edges), graphs.Graph(N16 + 1, edges)


def test_a_graph_on_2_15_vertices_matches_its_int32_build(boundary_graphs):
    edges, g, h = boundary_graphs
    assert g.indices.dtype == np.int16 and h.indices.dtype == np.int32
    assert g.indptr.dtype == h.indptr.dtype == np.int32
    assert g.is_regular() is None
    assert g.edge_array().dtype == np.int16
    assert np.array_equal(g.edge_array(), h.edge_array())
    top = [0, 1, 7, N16 - 3, N16 - 2, N16 - 1]
    for u, v in itertools.product(top, repeat=2):
        assert g.has_edge(u, v) == h.has_edge(u, v)
    assert g.has_edge(0, N16 - 1) and g.has_edge(N16 - 1, 0)
    # the padding sentinel n = 2^15 does not fit in int16, so it widens
    a, b = g.neighbor_array(), h.neighbor_array()
    assert np.array_equal(np.where(a == g.n, -1, a), np.where(b[:N16] == h.n, -1, b[:N16]))
    assert np.count_nonzero(a == g.n) == np.count_nonzero(b[:N16] == h.n) > 0
    # arc lookups from the top row, whose end pointer sits one past 2^15 - 1
    u, v = g.edge_array().T
    for tails, heads in ((u, v), (v, u)):
        slots = graphs._find_arcs(g, tails, heads)
        assert slots.min() >= 0 and np.array_equal(slots, graphs._find_arcs(h, tails, heads))
    assert np.array_equal(graphs._slot_edges(g), graphs._slot_edges(h))
    # a block of one clique: its keys (clique, neighbour) stay below 1 * 2^15
    errors = []
    for graph in (g, h):
        with pytest.raises(ValueError) as e:
            graphs.verify_clique_cover(graph, np.array([[0, N16 - 1]]))
        errors.append(str(e.value))
    assert errors[0] == errors[1]
    # the extra vertex of h is isolated: kept in a cell of its own, it
    # splits nothing, so both refinements order the first 2^15 alike
    gp = autsearch.refine(g, autsearch.Partition.unit(N16))
    hp = autsearch.refine(h, perm_oracle.partition_from_cells(N16 + 1, [range(N16), [N16]]))
    assert len(gp) >= 2
    assert np.array_equal(hp.order[:N16], gp.order) and np.array_equal(hp.starts[:-1], gp.starts)


def test_graph6_on_2_15_vertices(boundary_graphs):
    """Body bit j(j-1)/2 + i passes 2^15 from j = 182; the bodies of the
    int16 and int32 builds agree, and the set bits are the edges'."""
    edges, g, h = boundary_graphs
    a, b = graphs.to_graph6(g), graphs.to_graph6(h)
    assert a[:4] == bytes([126, 63 + 8, 63, 63])
    body_a = np.frombuffer(a, dtype=np.uint8, offset=4)
    body_b = np.frombuffer(b, dtype=np.uint8, offset=4)
    assert np.array_equal(body_a, body_b[:len(body_a)]) and np.all(body_b[len(body_a):] == 63)
    expect = {}
    for i, j in {tuple(sorted(e)) for e in edges}:
        k = j * (j - 1) // 2 + i
        expect[k // 6] = expect.get(k // 6, 0) | 32 >> k % 6
    hit = np.flatnonzero(body_a != 63)
    assert dict(zip(hit.tolist(), (body_a[hit] - 63).tolist())) == expect


@needs_networkx
def test_graph6_of_an_int16_graph_past_the_offset_wrap_matches_networkx():
    rnd = random.Random(600)
    n = 600
    g = graphs.Graph(n, [(0, n - 1), (n - 2, n - 1)]
                     + [tuple(rnd.sample(range(n), 2)) for _ in range(900)])
    assert g.indices.dtype == np.int16
    assert graphs.to_graph6(g) == nx.to_graph6_bytes(to_nx(g), header=False).rstrip(b"\n")


def test_edge_keys_widen_past_int16():
    """Two copies of an irregular graph on 150 vertices: edge keys u * 300 + v
    pass 2^15, and swapping the copies moves every key across it."""
    rnd = random.Random(256)
    half = 150
    base = [(0, half - 1)] + [tuple(rnd.sample(range(half), 2)) for _ in range(260)]
    g = graphs.Graph(2 * half, base + [(u + half, v + half) for u, v in base])
    assert g.indices.dtype == np.int16 and g.is_regular() is None
    swap = np.roll(np.arange(2 * half, dtype=np.int32), half)
    assert permgroups.are_automorphisms(g, [swap, permgroups.identity_perm(g.n)])
    moved = swap.copy()
    moved[[0, 1]] = moved[[1, 0]]
    assert not permgroups.are_automorphisms(g, [moved])
    rows = {e: i for i, e in enumerate(map(tuple, g.edge_array().tolist()))}
    for p in (swap, permgroups.identity_perm(g.n)):
        got = permgroups._edge_action(g, [p])[0]
        assert got.tolist() == [rows[tuple(sorted((int(p[u]), int(p[v]))))]
                                for u, v in g.edge_array().tolist()]

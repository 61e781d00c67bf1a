"""Differential tests of the graph core, stored as padded neighbour arrays,
and the array passes built on it.  The oracles share no code with mdg.graphs: networkx where it is
installed, otherwise scalar loops kept in this file."""

import itertools
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import cover_oracle
import gamma_oracle
import perm_oracle
from group_oracle import (TableGroup, bfs_layers, cayley_graph_from_pairs, complete_bipartite,
                          line_graph, sigma_graph_from_pairs)
from mdg import autsearch, claims, cli, graphs, groups, permgroups

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
        assert g.neighbor_array().shape == (n, 0)
    assert graphs.Graph(0).is_regular() is None
    assert graphs.Graph(1).is_regular() == 0
    assert graphs.Graph(3, [(2, 0), (0, 2), (2, 0)]).edge_array().tolist() == [[0, 2]]
    for bad in ([(1, 1)], [(0, 3)], [(-1, 0)], [(0, 1, 2)], [(0.9, 2)], [(0, 1.5)], [("0", "1")]):
        with pytest.raises(ValueError):
            graphs.Graph(3, bad)
    g = graphs.Graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        g.neighbor_array()[0, 0] = 2  # the store is read-only
    # a graph compares by value, so it is unhashable
    for use in (hash, lambda g: {g}):
        with pytest.raises(TypeError):
            use(g)


def test_regular_neighbor_array_is_a_view_of_the_store():
    """The neighbour array is the store itself, read-only, with no copy made
    and, for a regular graph, no padding."""
    nbr = GAMMA2.neighbor_array()
    assert nbr is GAMMA2.neighbor_array() and not nbr.flags.writeable
    assert nbr.shape == (GAMMA2.n, GAMMA2.is_regular()) and nbr.max() < GAMMA2.n
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
@pytest.mark.parametrize("graph", [GAMMA2, SIGMA2, complete_bipartite(3, 5)],
                         ids=["gamma2", "sigma2", "k35"])
def test_line_graph_matches_networkx(graph):
    _check_line_graph(graph)


@needs_networkx
@given(random_graphs)
@settings(max_examples=100, deadline=None)
def test_line_graph_matches_networkx_random(graph):
    _check_line_graph(graph)


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


# -- the rows read from the neighbourhood of 1, against Γ and Σ as built ------

@pytest.fixture(scope="module", params=[2, 3])
def built(request):
    """G, Γ, Σ and its coset bookkeeping at n, and the values of the rows
    that read the neighbourhood of 1 there."""
    G, _, gamma, sigma, info = cli.build_instance(request.param)
    rows = [r for r in claims.GRAPHS if "neighbourhood" in r[3]]
    return G, gamma, sigma, info, {c.id: c.computed for c in claims.run(rows, claims.Context(G))}


def _edge_sides(G, graph):
    """Whether each edge {g, h} of ``edge_array()`` has h g^-1 in X, and
    whether in Y."""
    g, h = graph.edge_array().astype(np.int64).T
    diff = np.asarray(G.mul_vec(h, G.inv_vec(g)), dtype=np.int64)
    return tuple(np.isin(diff, groups.closure_array(G, gens)) for gens in (G.x_gens, G.y_gens))


@needs_networkx
def test_the_maximal_cliques_of_gamma_are_the_cosets(built):
    """networkx's maximal cliques of Γ are the right cosets of X and Y, each
    code lies in two of them, and the graph of the cosets that meet, coset i
    being vertex i, is Σ (1.3 s at n = 3)."""
    G, gamma, sigma, info, computed = built
    cosets = np.concatenate([info.x_cosets, info.y_cosets]).astype(np.int64)
    cliques = sorted(map(sorted, nx.find_cliques(to_nx(gamma)))) == sorted(cosets.tolist())
    twice = np.bincount(cosets.ravel(), minlength=G.order).tolist() == [2] * G.order
    # each code's two positions, in its X-coset's row and its Y-coset's
    meets = np.argsort(cosets.ravel(), kind="stable").reshape(-1, 2) // cosets.shape[1]
    assert cliques and twice and graphs.Graph(len(cosets), meets) == sigma
    assert computed["clique-graph-is-coset-graph"] is True


@needs_networkx
def test_gamma_is_the_line_graph_of_sigma_under_z_to_xz_yz(built):
    """nx.line_graph(Σ) is Γ under the map z -> {Xz, Yz}, read from the
    coset bookkeeping, with no isomorphism search (1.3 s at n = 3)."""
    G, gamma, sigma, info, computed = built
    phi = list(zip(info.x_index.tolist(), (info.n_x + info.y_index.astype(np.int64)).tolist()))
    line = nx.line_graph(to_nx(sigma))
    pair = lambda e: tuple(sorted(e))
    assert sorted(phi) == sorted(map(pair, line))  # a bijection onto Σ's edges
    assert sorted(pair((phi[g], phi[h])) for g, h in gamma.edge_array().tolist()) == \
        sorted(pair(map(pair, e)) for e in line.edges())
    assert computed["line-graph-is-cayley-graph"] is True


def test_every_triangle_of_gamma_is_monochromatic(built):
    """The triple loop finds no triangle of Γ with two colours, an edge
    {g, h} being an X-edge when h g^-1 lies in X (0.4 s at n = 3)."""
    G, gamma, sigma, info, computed = built
    assert brute_force_monochromatic(gamma, _edge_sides(G, gamma)[0])
    assert computed["triangles-monochromatic"] is True


def test_edge_colour_counts_match_the_edge_differences(built):
    """Each edge's difference h g^-1 lies in exactly one of X and Y, and the
    row counts the edges on each side."""
    G, gamma, sigma, info, computed = built
    in_x, in_y = _edge_sides(G, gamma)
    assert np.all(in_x ^ in_y)
    assert computed["edge-color-counts"] == (np.count_nonzero(in_x), np.count_nonzero(in_y))


# -- the count rows read from G, against Γ and Σ as built --------------------

COUNT_ROWS = ("cayley-vertices", "cayley-valency", "coset-graph-vertices", "coset-graph-valency",
              "coset-graph-edges")


def test_the_count_rows_match_gamma_and_sigma_as_built(built):
    """Each count row, read from |<G.gens>|, S, X and Y with no graph
    built, is the count of Γ or Σ as built."""
    G, gamma, sigma, info, _ = built
    computed = {c.id: c.computed for c in claims.run(
        [r for r in claims.GRAPHS if r[0] in COUNT_ROWS], claims.Context(G))}
    assert computed == {"cayley-vertices": gamma.n, "cayley-valency": gamma.is_regular(),
                        "coset-graph-vertices": sigma.n, "coset-graph-valency": sigma.is_regular(),
                        "coset-graph-edges": sigma.edge_count()}
    assert None not in computed.values()


# -- the rows read from G/G', against Σ as built ------------------------------

COVER_ROWS = ("quotient-complete-bipartite", "quotient-preserves-valency",
              "derived-action-semiregular", "edge-affine-witness")


def _numbering(pushed, local) -> np.ndarray:
    """The numbering of the vertices that carries the action of each of
    ``pushed`` to that of the same member of ``local``, grown from vertex 0
    along the generators; it is checked by the caller."""
    number = np.full(len(pushed[0]), -1)
    number[0], todo = 0, [0]
    while todo:
        v = todo.pop()
        for a, b in zip(pushed, local):
            if number[a[v]] < 0:
                number[a[v]] = b[number[v]]
                todo.append(int(a[v]))
    return number


def test_the_cover_rows_match_sigma_as_built(built):
    """Each row read from G/G' has the value its whole-Σ kernel gives
    (``cover_oracle``): the quotient of Σ by the G'-orbits, its valency, the
    orbit sizes and the witness on the actions pushed down from Σ.  The
    actions read from the probes are those pushed down, under one numbering
    of K(2^n, 2^n) that also carries the one quotient's edges to the
    other's (0.2 s at n = 3)."""
    G, gamma, sigma, info, _ = built
    ctx = claims.Context(G)
    computed = {c.id: c.computed for c in claims.run(
        [r for r in claims.GRAPHS if r[0] in COVER_ROWS], ctx)}
    labels, quotient, preserved = cover_oracle.sigma_quotient(G, sigma, info)
    sigma_gens = permgroups.action_gens(G, info)
    sizes = np.bincount(labels)[labels]
    assert computed == {
        "quotient-complete-bipartite": permgroups.is_complete_bipartite(quotient),
        "quotient-preserves-valency": preserved,
        "derived-action-semiregular": bool(np.all(sizes == 1 << (G.n ** 2))),
        "edge-affine-witness": cover_oracle.edge_affine_ok(G, labels, quotient, sigma_gens)}
    assert set(computed.values()) == {(1 << G.n, 1 << G.n), True}
    cover = permgroups.central_quotient(G, groups.derived_subgroup(G))
    local = ([cover.action(G.mul_vec(cover.probes, g)) for g in G.gens]
             + list(map(cover.action, permgroups.stabilizer_lift_images(G, cover.probes))))
    pushed = [cover_oracle.quotient_perm(labels, p) for p in sigma_gens]
    number = _numbering(pushed, local)
    assert sorted(number.tolist()) == list(range(quotient.n))
    for a, b in zip(pushed, local):
        assert np.array_equal(number[a], b[number])
    assert graphs.Graph(quotient.n, number[quotient.edge_array()]) == cover.quotient


def test_the_witness_numbers_the_edges_of_k_m_m_as_the_oracle_does(built):
    """On Σ/G' = K(2^n, 2^n), the witness's edge action, the edge {a, b}
    numbered rank(a) 2^n + rank(b), is the action on the rows of
    ``edge_array()``, under one numbering of the edges, for R(G.gens) and
    every lift, the side swap included."""
    G = built[0]
    cover = permgroups.central_quotient(G, groups.derived_subgroup(G))
    gens = ([cover.action(G.mul_vec(cover.probes, g)) for g in G.gens]
            + list(map(cover.action, permgroups.stabilizer_lift_images(G, cover.probes))))
    assert any(p[0] >= 1 << G.n for p in gens)  # one swaps the sides
    rows = perm_oracle.edge_action(cover.quotient, gens)
    ranked = permgroups._biclique_edge_action(cover.quotient, 1 << G.n, gens)
    number = _numbering(rows, ranked)
    assert sorted(number.tolist()) == list(range(1 << (2 * G.n)))
    for a, b in zip(rows, ranked):
        assert np.array_equal(number[a], b[number])


def scalar_cayley_edges(G, S):
    return sorted({tuple(sorted((g, int(G.mul_vec(s, g))))) for g in range(G.order) for s in S})


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
            dist, layers = bfs_layers(graph, v)
            lengths = nx.single_source_shortest_path_length(ref, v)
            assert dist.tolist() == [lengths.get(u, -1) for u in range(graph.n)]
            assert layers == [sum(1 for d in lengths.values() if d == k)
                              for k in range(max(lengths.values()) + 1)]


def test_normal_quotient_matches_a_scalar_quotient():
    labels = cover_oracle.derived_orbit_partition(G2, SIGMA2, INFO2)
    quotient, preserved = cover_oracle.normal_quotient(SIGMA2, labels)
    part = perm_oracle.orbits(
        [perm_oracle.induced_sigma_perm(INFO2, perm_oracle.right_mult_perm(G2, d))
         for d in cover_oracle.derived_basis(G2)], SIGMA2.n)
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
    labels = BAD_LABELS[bad](cover_oracle.derived_orbit_partition(G2, SIGMA2, INFO2))
    with pytest.raises(ValueError):
        cover_oracle.normal_quotient(SIGMA2, labels)


# -- block boundaries ----------------------------------------------------------
# Every blocked pass must give the same answer, and raise the same error,
# whatever the block size: one element per step, an odd size that splits
# rows and segments, and the default.

CHUNKS = (1, 7, groups.CHUNK)


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
            mp.setattr(groups, "CHUNK", chunk)
            try:
                out.append(_canon(fn()))
            except ValueError as e:
                out.append(("ValueError", str(e)))
    assert out.count(out[0]) == len(out), out
    return out[0]


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
    chunks = CHUNKS if G.order < 1 << 12 else (509, groups.CHUNK)
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
    S = sorted(({int(G.inv_vec(s)) for s in picked} | picked) - {G.identity})
    assert over_chunks(lambda: graphs.cayley_graph(G, S)) == _canon(cayley_graph_from_pairs(G, S))


def test_sigma_graph_rejects_a_coset_meeting_another_twice():
    # in D_2 the flip x and the flipped rotation y are one element, so X = Y
    # and the X-coset X meets the Y-coset Y in two elements
    assert over_chunks(lambda: graphs.sigma_graph(groups.DihedralProduct(1))[0]) == \
        ("ValueError", "two members of a coset share a coset of the other side")


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


def scalar_exports(graph):
    """The rows of ``edge_array()``, the edge list and the graph6 bytes, from
    the neighbour lists by scalar loops: graph6 sets bit j(j - 1)/2 + i of
    the body for each edge i < j, six bits a byte, the first the highest."""
    edges = [[u, w] for u in range(graph.n) for w in graph.neighbors(u).tolist() if u < w]
    bits = [0] * (graph.n * (graph.n - 1) // 2)
    for u, w in edges:
        bits[w * (w - 1) // 2 + u] = 1
    bits += [0] * (-len(bits) % 6)
    body = bytes(63 + int("".join(map(str, bits[k:k + 6])), 2) for k in range(0, len(bits), 6))
    n = graph.n
    header = bytes([n + 63]) if n <= 62 else bytes([126, 63 + (n >> 12), 63 + (n >> 6 & 63),
                                                    63 + (n & 63)])
    return edges, "".join(f"{u} {w}\n" for u, w in edges), header + body


def _exports(graph):
    return graph.edge_array(), graphs.to_edgelist(graph), bytes(graphs.to_graph6(graph))


def test_identifications_are_the_same_for_every_block_size():
    """The edge numbering that identifies Γ with L(Σ), the rows of
    ``edge_array()``, and the edge-list and graph6 writers, all three read
    through ``graphs._forward_arcs``' blocks, are the scalar ones at every
    block size."""
    for graph in (GAMMA2, SIGMA2):
        assert over_chunks(lambda: _exports(graph)) == scalar_exports(graph)


def test_automorphism_check_is_the_same_for_every_block_size():
    lifts = permgroups.action_gens(G2)
    assert over_chunks(lambda: permgroups.are_automorphisms(GAMMA2, lifts))
    swap = np.arange(GAMMA2.n)
    far = next(v for v in range(1, GAMMA2.n) if not GAMMA2.has_edge(0, v))
    swap[[GAMMA2.neighbors(0)[0], far]] = swap[[far, GAMMA2.neighbors(0)[0]]]
    assert not over_chunks(lambda: permgroups.are_automorphisms(GAMMA2, lifts + [swap]))


def test_lifts_and_transitivity_are_the_same_for_every_block_size():
    """The word images, closures and row checks inside the lifts and the
    Cayley transitivity report give the same answer at every block size."""
    ball = gamma_oracle.ball_of(GAMMA2)[0]
    for fn in (lambda: tuple(permgroups.action_gens(G2)),
               lambda: tuple(permgroups.action_gens(G2, INFO2)),
               lambda: tuple(permgroups.checked_lifts(
                   G2, S2, ball, permgroups.stabilizer_lift_images(G2, ball))),
               lambda: permgroups.cayley_transitivity(
                   G2, S2, 256, permgroups.cell_diagram(G2, S2, 256)).flags()):
        assert over_chunks(fn) == _canon(fn())


def _without_the_zero_flags(monkeypatch):
    """Cell keys that cannot tell x = 0 or y = 0 from x, y != 0."""
    invariants = permgroups._invariants
    monkeypatch.setattr(permgroups, "_invariants", lambda G, codes: invariants(G, codes) & ~3)


def test_distance_diagram_is_the_same_for_every_block_size(monkeypatch):
    """The cell search, which checks the neighbours of the representatives a
    block at a time, and the scan for the least members, keyed a block of
    codes at a time, give the diagram of the lifts' orbits on Γ as built
    (the whole-Γ oracle) at n = 2 and 3, at every block size; with keys
    that merge cells they refuse the same way at every block size."""
    cases = [(G2, S2, GAMMA2, CHUNKS), (*cli.build_instance(3)[:3], (509, groups.CHUNK))]
    for G, S, gamma, chunks in cases:
        diagram = lambda: permgroups.least_members(G, permgroups.cell_diagram(G, S, G.order))
        assert over_chunks(lambda: diagram().to_dict(), chunks) == \
            gamma_oracle.checked_diagram(G, gamma).to_dict()
    _without_the_zero_flags(monkeypatch)
    for G, S, _, chunks in cases:
        assert over_chunks(lambda: permgroups.cell_diagram(G, S, G.order), chunks)[0] == \
            "ValueError"


@given(random_graphs, st.randoms(use_true_random=False))
@example(graphs.Graph(9, [(0, v) for v in range(1, 9)]), random.Random(0))
@example(graphs.Graph(6), random.Random(0))
@settings(max_examples=100, deadline=None)
def test_blocked_kernels_match_the_oracles_on_random_graphs(graph, rnd):
    """Irregular graphs, a star and an edgeless graph, at every block size."""
    assert over_chunks(lambda: _exports(graph)) == scalar_exports(graph)
    if graph.n:
        v = rnd.randrange(graph.n)
        assert over_chunks(lambda: bfs_layers(graph, v)) == scalar_bfs(graph, v)


def test_bfs_layers_are_the_same_for_every_block_size():
    for graph in (GAMMA2, SIGMA2):
        for v in (0, 77, graph.n - 1):
            assert over_chunks(lambda: bfs_layers(graph, v)) == scalar_bfs(graph, v)


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
    quotient, preserved = over_chunks(lambda: cover_oracle.normal_quotient(graph, labels))
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
    # the padding n = 2^15 passes int16, so both stores are int32; the edges are not
    assert g.neighbor_array().dtype == h.neighbor_array().dtype == np.int32
    assert g.is_regular() is None
    assert g.edge_array().dtype == np.int16 and h.edge_array().dtype == np.int32
    assert np.array_equal(g.edge_array(), h.edge_array())
    top = [0, 1, 7, N16 - 3, N16 - 2, N16 - 1]
    for u, v in itertools.product(top, repeat=2):
        assert g.has_edge(u, v) == h.has_edge(u, v)
    assert g.has_edge(0, N16 - 1) and g.has_edge(N16 - 1, 0)
    a, b = g.neighbor_array(), h.neighbor_array()
    assert np.array_equal(np.where(a == g.n, -1, a), np.where(b[:N16] == h.n, -1, b[:N16]))
    assert np.count_nonzero(a == g.n) == np.count_nonzero(b[:N16] == h.n) > 0
    # automorphism checks with 2^15 - 1 moved and the padding 2^15 fixed
    edge_set = {tuple(sorted(e)) for e in edges}
    for swap in ([], [0, N16 - 1], [0, 1], [N16 - 2, N16 - 1]):
        p = np.arange(N16 + 1, dtype=np.int32)
        p[swap] = p[swap[::-1]]
        auto = {tuple(sorted((int(p[u]), int(p[v])))) for u, v in edge_set} == edge_set
        assert permgroups.are_automorphisms(g, [p[:N16]]) == auto
        assert permgroups.are_automorphisms(h, [p]) == auto
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
    assert g.neighbor_array().dtype == np.int16  # the padding 600 fits
    assert graphs.to_graph6(g) == nx.to_graph6_bytes(to_nx(g), header=False).rstrip(b"\n")


def _maps_the_edge_set(graph, p) -> bool:
    """The edge-set oracle: p maps the edges of the graph onto its edges."""
    edges = {tuple(e) for e in graph.edge_array().tolist()}
    return {tuple(sorted((int(p[u]), int(p[w])))) for u, w in edges} == edges


def test_automorphism_rows_agree_with_the_edge_sets_past_int16():
    """Two copies of an irregular graph on 150 vertices, swapped whole or
    with two vertices also swapped; a path with an isolated vertex, a graph
    with no edges, and a path on the top three of 70,000 vertices, whose
    padding 70,000 passes int16 while the permutations stay int32.  Some
    permutations map a vertex onto one of another degree, where only the
    padding tells the rows apart.  The row check agrees with the edge sets."""
    rnd = random.Random(256)
    half = 150
    base = [(0, half - 1)] + [tuple(rnd.sample(range(half), 2)) for _ in range(260)]
    g = graphs.Graph(2 * half, base + [(u + half, v + half) for u, v in base])
    assert g.neighbor_array().dtype == np.int16 and g.is_regular() is None
    swap = np.roll(np.arange(2 * half, dtype=np.int32), half)
    assert permgroups.are_automorphisms(g, [swap, permgroups.identity_perm(g.n)])
    moved = swap.copy()
    moved[[0, 1]] = moved[[1, 0]]
    as_perms = lambda *ps: [permgroups.as_perm(p) for p in ps]
    cases = [(g, [swap, permgroups.identity_perm(g.n), moved], [True, True, False]),
             (graphs.Graph(5, [(0, 1), (1, 2), (2, 3)]),
              as_perms([3, 2, 1, 0, 4], [4, 2, 1, 0, 3], [0, 1, 2, 3, 4]), [True, False, True]),
             (graphs.Graph(4, []), as_perms([1, 0, 3, 2]), [True])]
    top = graphs.Graph(70000, [(69997, 69999), (69998, 69999)])
    assert top.neighbor_array().dtype == np.int32 and np.any(top.neighbor_array() == 70000)
    flip, out = np.arange(70000, dtype=np.int32), np.arange(70000, dtype=np.int32)
    flip[[69997, 69998]], out[[0, 69998]] = [69998, 69997], [69998, 0]
    cases.append((top, [permgroups.identity_perm(70000), flip, out], [True, True, False]))
    for graph, perms, autos in cases:
        for p, auto in zip(perms, autos):
            assert _maps_the_edge_set(graph, p) == auto
            assert permgroups.are_automorphisms(graph, [p]) == auto
    # vertex 0, isolated, onto 69,998, of degree 1; vertex 4 of the path likewise
    assert len(top.neighbors(0)) != len(top.neighbors(int(out[0])))


@given(random_graphs, st.randoms(use_true_random=False))
@example(graphs.Graph(9, [(0, v) for v in range(1, 9)]), random.Random(0))
@example(graphs.Graph(6, [(0, 1), (2, 3), (3, 4)]), random.Random(1))
@settings(max_examples=100, deadline=None)
def test_automorphism_check_matches_the_edge_sets_on_random_graphs(graph, rnd):
    """Irregular graphs under the identity, a random permutation, a swap of
    two vertices and a swap of two vertices of different degrees, each on
    its own and all together, at every block size."""
    degree = [len(graph.neighbors(v)) for v in range(graph.n)]
    perms = [np.arange(graph.n, dtype=np.int32),
             np.array(rnd.sample(range(graph.n), graph.n), dtype=np.int32)]
    pairs = [(u, w) for u in range(graph.n) for w in range(u)]
    uneven = [(u, w) for u, w in pairs if degree[u] != degree[w]]
    for pick in ([rnd.choice(pairs)] if pairs else []) + ([rnd.choice(uneven)] if uneven else []):
        p = np.arange(graph.n, dtype=np.int32)
        p[list(pick)] = p[list(pick[::-1])]
        perms.append(p)
    for p in perms:
        expect = _maps_the_edge_set(graph, p)
        assert over_chunks(lambda: permgroups.are_automorphisms(graph, [p])) == expect
    if uneven:
        assert not permgroups.are_automorphisms(graph, perms[-1:])
    assert permgroups.are_automorphisms(graph, perms) == all(
        _maps_the_edge_set(graph, p) for p in perms)


# -- the store of the graphs the commands build --------------------------------

def _assert_stored_without_padding(graph):
    """Regular, so every row is full, in the narrowest type of its largest id."""
    nbr = graph.neighbor_array()
    k = graph.is_regular()
    assert k is not None and nbr.shape == (graph.n, k)
    assert nbr.max() == graph.n - 1 and not np.any(nbr == graph.n)
    assert nbr.dtype == graphs._index_dtype(int(nbr.max()) + 1)


def test_gamma_and_sigma_are_stored_without_padding(built):
    """Γ(3), on exactly 2^15 vertices, and Σ(3) keep int16 ids, as at n = 2."""
    G, gamma, sigma, _, _ = built
    for graph in (gamma, sigma):
        _assert_stored_without_padding(graph)
        assert graph.neighbor_array().dtype == np.int16
    assert gamma.n == G.order and (G.n < 3 or gamma.n == 1 << 15)


@pytest.mark.parametrize("n", range(2, 8))
def test_the_quotient_k_m_m_is_stored_without_padding(n):
    """Σ of Elementary(n), the quotient of Σ(n) by G' and the kbip export."""
    quotient = graphs.sigma_graph(groups.Elementary(n))[0]
    _assert_stored_without_padding(quotient)
    assert quotient.n == 2 << n and quotient.is_regular() == 1 << n

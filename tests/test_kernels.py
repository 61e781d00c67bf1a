"""Differential tests of the numpy kernels against scalar oracles that
share no code with them: per-element F_2 formulas for the stabilizer
lifts, scalar products for ``TensorGroup.word_images``, per-coset set
lookups for the induced coset action, and the dictionary-bucket and
list-partition refinements for ``autsearch.refine``."""

import random
import time

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from group_oracle import mat_transpose
from perm_oracle import induced_sigma_perm, partition_from_cells, right_mult_perm
from test_graph_core import over_chunks
from mdg import autsearch, cli, f2, graphs, groups, permgroups as pg
from mdg.autsearch import Partition


def reference_refine(graph, cells):
    """Equitable refinement one vertex at a time: bucket each cell by its
    vertices' count vectors into all current cells, until stable."""
    cells = [sorted(c) for c in cells]
    while True:
        cell_of = [0] * graph.n
        for ci, c in enumerate(cells):
            for v in c:
                cell_of[v] = ci
        k = len(cells)
        new_cells = []
        changed = False
        for c in cells:
            buckets = {}
            for v in c:
                counts = [0] * k
                for u in graph.neighbors(v).tolist():
                    counts[cell_of[u]] += 1
                buckets.setdefault(tuple(counts), []).append(v)
            if len(buckets) > 1:
                changed = True
            for sig in sorted(buckets):
                new_cells.append(buckets[sig])
        cells = new_cells
        if not changed:
            return cells


def lexsort_refine(graph, cells):
    """The list-partition refinement the array one replaced: every pass
    lexsorts the padded neighbour-cell rows of all n vertices."""
    n = graph.n
    cell_of = np.full(n + 1, n, dtype=np.int32)  # slot n: the padding sentinel
    members = [np.asarray(c, dtype=np.int64) for c in cells if len(c)]
    for ci, c in enumerate(members):
        cell_of[c] = ci
    k = len(members)
    nbr = graph.neighbor_array()
    while True:
        rows = np.sort(cell_of[nbr], axis=1)
        cur = cell_of[:n]
        order = np.lexsort([-rows[:, j] for j in reversed(range(rows.shape[1]))] + [cur])
        srt, sc = rows[order], cur[order]
        starts = np.ones(n, dtype=bool)
        starts[1:] = (sc[1:] != sc[:-1]) | np.any(srt[1:] != srt[:-1], axis=1)
        new_k = int(starts.sum())
        if new_k == k:
            break
        cur[order] = np.cumsum(starts) - 1
        k = new_k
    order = np.argsort(cell_of[:n], kind="stable")
    bounds = np.flatnonzero(np.diff(cell_of[order])) + 1
    return [c.tolist() for c in np.split(order, bounds)] if n else []


def reference_individualize(cells, v):
    """The list form of individualising v: [v] just before the rest of its
    cell."""
    out = []
    for c in cells:
        if v in c and len(c) > 1:
            out.append([v])
            out.append([u for u in c if u != v])
        else:
            out.append(c)
    return out


def cells_of(part) -> list[list[int]]:
    """A partition's cells as vertex lists."""
    return [c.tolist() for c in np.split(part.order, part.starts[1:-1])] if len(part) else []


def refine(graph, cells) -> list[list[int]]:
    return cells_of(autsearch.refine(graph, partition_from_cells(graph.n, cells)))


def check_arrays(part, n):
    """The three arrays of a partition describe the same cells."""
    sizes = np.diff(part.starts)
    assert part.starts[0] == 0 and part.starts[-1] == n and np.all(sizes > 0)
    assert np.array_equal(part.cell[part.order], np.repeat(np.arange(len(sizes)), sizes))
    for i in range(len(part)):
        assert np.all(np.diff(part.members(i)) > 0)


def reference_induced(info, p):
    """Induced coset permutation by looking up each coset's image set."""
    cosets = info.x_cosets.tolist() + info.y_cosets.tolist()
    vertex_of = {frozenset(c): i for i, c in enumerate(cosets)}
    return [vertex_of[frozenset(int(p[m]) for m in c)] for c in cosets]


def scalar_x_lift(G, m, code):
    n = G.n
    x, y, a = G.decode(code)
    return G.encode(f2.vec_mat(x, m, n), y, f2.mat_mul(mat_transpose(m, n), a, n))


def scalar_y_lift(G, m, code):
    n = G.n
    x, y, a = G.decode(code)
    return G.encode(x, f2.vec_mat(y, m, n), f2.mat_mul(a, m, n))


def scalar_swap(G, code):
    n = G.n
    x, y, a = G.decode(code)
    return G.encode(y, x, f2.outer(y, x, n) ^ mat_transpose(a, n))


def sample_codes(G):
    """Every code at n = 2; 4,096 seeded random codes beyond that."""
    if G.n == 2:
        return list(G.elements())
    return random.Random(G.n).sample(range(G.order), 4096)


def side_rows(G, m):
    """The images x_i -> row_i(M) on the X side and y_j -> row_j(M) on
    the Y side."""
    rows = [f2.mat_row(m, i, G.n) for i in range(G.n)]
    return [G.encode(r, 0, 0) for r in rows], [G.encode(0, r, 0) for r in rows]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_lifts_match_scalar_formulas(n):
    G = groups.TensorGroup(n)
    codes = sample_codes(G)
    gens = f2.gl_generators(n)
    lifts = list(pg.stabilizer_lift_images(G, codes))
    assert len(lifts) == 2 * len(gens) + 1
    for m, x_lift, y_lift in zip(gens, lifts, lifts[len(gens):]):
        assert x_lift.tolist() == [scalar_x_lift(G, m, c) for c in codes]
        assert y_lift.tolist() == [scalar_y_lift(G, m, c) for c in codes]
    assert lifts[-1].tolist() == [scalar_swap(G, c) for c in codes]
    # the same word map for a product of transvections that is not one
    product = gens[0]
    for m in gens[1:]:
        product = f2.mat_mul(product, m, n)
    xs, ys = side_rows(G, product)
    assert G.word_images(xs, G.y_gens, codes).tolist() == [scalar_x_lift(G, product, c) for c in codes]
    assert G.word_images(G.x_gens, ys, codes).tolist() == [scalar_y_lift(G, product, c) for c in codes]
    if n > 3:
        return
    # the builder's full-degree arrays are permutations that agree with the images
    full = pg.action_gens(G)[len(G.gens):]
    assert len(full) == len(lifts)
    for p, on in zip(full, lifts):
        assert p.dtype == np.int32 and on.dtype == np.int64 and len(p) == G.order
        pg.as_perm(p)
        assert np.array_equal(p[codes], on)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_lift_images_of_wide_codes_do_not_wrap(n):
    # codes have n^2 + 2n >= 35 bits here, too wide for int32
    G = groups.TensorGroup(n)
    top = [G.order - 1]
    gens = f2.gl_generators(n)
    m = gens[0]
    xs, ys = side_rows(G, m)
    lifts = list(pg.stabilizer_lift_images(G, top))
    cases = ((lifts[0], xs, G.y_gens, scalar_x_lift(G, m, top[0])),
             (lifts[len(gens)], G.x_gens, ys, scalar_y_lift(G, m, top[0])),
             (lifts[-1], G.y_gens, G.x_gens, scalar_swap(G, top[0])))
    for got, x_imgs, y_imgs, scalar in cases:
        assert got.dtype == np.int64
        assert got.tolist() == G.word_images(x_imgs, y_imgs, top).tolist() == [scalar]
    assert min(cases[0][3], cases[1][3]) >= 1 << 31


def scalar_word_image(G, x_imgs, y_imgs, comms, code):
    """One code's image, one scalar product at a time: the x-word, the
    y-word, then comms[i][j] = [x_imgs[i], y_imgs[j]] for each set entry
    (i, j) of A."""
    x, y, a = G.decode(code)
    out = G.identity
    for bits, imgs in ((x, x_imgs), (y, y_imgs)):
        for i, g in enumerate(imgs):
            if bits >> i & 1:
                out = G.mul(out, g)
    for i in range(G.n):
        for j in range(G.n):
            if a >> (i * G.n + j) & 1:
                out = G.mul(out, comms[i][j])
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
def test_word_images_match_scalar_products(n):
    G = groups.TensorGroup(n)
    codes = sample_codes(G)
    rng = random.Random(n)
    for _ in range(2):
        x_imgs = [rng.randrange(G.order) for _ in range(n)]
        y_imgs = [rng.randrange(G.order) for _ in range(n)]
        # random images, so the map is no homomorphism
        assert not groups.relations_hold(G, x_imgs, y_imgs)
        comms = [[groups.commutator(G, gx, gy) for gy in y_imgs] for gx in x_imgs]
        got = G.word_images(x_imgs, y_imgs, codes)
        assert got.dtype == np.int64
        assert got.tolist() == [scalar_word_image(G, x_imgs, y_imgs, comms, c) for c in codes]
    # the generators' own images give the identity map on every code
    if n == 2:
        assert G.word_images(G.x_gens, G.y_gens).tolist() == list(G.elements())


@pytest.mark.parametrize("chunk", [1, 7, 100])
def test_word_images_are_the_same_for_every_block_size(chunk, monkeypatch):
    """The codes are taken CHUNK at a time, both when given and when every
    code is meant; a short last block and one code per block included."""
    G = groups.TensorGroup(2)
    rng = random.Random(chunk)
    x_imgs = [rng.randrange(G.order) for _ in range(2)]
    y_imgs = [rng.randrange(G.order) for _ in range(2)]
    codes = [rng.randrange(G.order) for _ in range(301)]
    every, some = G.word_images(x_imgs, y_imgs), G.word_images(x_imgs, y_imgs, codes)
    monkeypatch.setattr(groups, "CHUNK", chunk)
    assert np.array_equal(G.word_images(x_imgs, y_imgs), every)
    assert np.array_equal(G.word_images(x_imgs, y_imgs, codes), some)
    assert np.array_equal(every[codes], some)


def sigma_test_perms(G):
    """Right multiplications, matrix lifts on both sides and the swap."""
    rng = random.Random(7)
    gens = pg.action_gens(G)
    return (gens[:len(G.gens)] + [right_mult_perm(G, rng.randrange(G.order)) for _ in range(4)]
            + gens[len(G.gens):])


@pytest.mark.parametrize("n", [2, 3])
def test_induced_sigma_perm_matches_coset_lookup(n):
    G = groups.TensorGroup(n)
    sigma, info = graphs.sigma_graph(G)
    perms = sigma_test_perms(G)
    if n == 3:
        perms = perms[:2] + perms[-2:]
    for p in perms:
        assert induced_sigma_perm(info, p).tolist() == reference_induced(info, p)
    swapped = induced_sigma_perm(info, perms[-1])
    assert all(int(v) >= info.n_x for v in swapped[:info.n_x])
    assert all(int(v) < info.n_x for v in swapped[info.n_x:])


def test_induced_sigma_perm_rejects_what_the_lookup_rejects():
    G = groups.TensorGroup(2)
    sigma, info = graphs.sigma_graph(G)
    rng = np.random.default_rng(5)
    for _ in range(20):
        p = rng.permutation(G.order).astype(np.int32)
        with pytest.raises(KeyError):
            reference_induced(info, p)
        with pytest.raises(ValueError, match="coset image is not a coset"):
            induced_sigma_perm(info, p)
    with pytest.raises(ValueError):
        induced_sigma_perm(info, pg.identity_perm(G.order - 1))


@pytest.mark.parametrize("n", [2, 3])
def test_coset_action_matches_the_induced_permutation(n):
    """From the coset representatives, the same permutation of the coset
    vertices as pushing each permutation of all codes down."""
    G = groups.TensorGroup(n)
    sigma, info = graphs.sigma_graph(G)
    probes = pg.coset_probes(info)
    assert probes.dtype == np.int64 and len(probes) == sigma.n + 2 * (1 << n)
    for g in G.gens + cli.derived_basis(G):
        got = pg.coset_action(info, G.mul_vec(probes, g))
        assert got.dtype == np.int32
        assert np.array_equal(got, induced_sigma_perm(info, right_mult_perm(G, g)))
    lifts = list(zip(pg.stabilizer_lift_images(G), pg.stabilizer_lift_images(G, probes)))
    assert len(lifts) == 2 * len(f2.gl_generators(n)) + 1
    for full, images in lifts:
        got = pg.coset_action(info, images)
        assert np.array_equal(got, induced_sigma_perm(info, full))
    # the last lift is the side swap: the X-cosets and the Y-cosets trade places
    assert np.all(got[:info.n_x] >= info.n_x) and np.all(got[info.n_x:] < info.n_x)
    # the builder gives these generators on Σ in the order it gives them on all codes
    on_sigma, on_codes = pg.action_gens(G, info), pg.action_gens(G)
    assert len(on_sigma) == len(on_codes) == len(G.gens) + len(lifts)
    assert all(np.array_equal(p, induced_sigma_perm(info, q)) for p, q in zip(on_sigma, on_codes))


@pytest.mark.parametrize("ms", [(2, 2), (4, 4), (2, 4, 6)])
def test_coset_action_matches_the_induced_permutation_on_dihedral_products(ms):
    G = groups.DihedralProduct(*ms)
    sigma, info = graphs.sigma_graph(G)
    probes = pg.coset_probes(info)
    rng = random.Random(3)
    for g in G.gens + [rng.randrange(G.order) for _ in range(4)]:
        want = induced_sigma_perm(info, right_mult_perm(G, g))
        assert np.array_equal(pg.coset_action(info, G.mul_vec(probes, g)), want)


def test_coset_action_rejects_a_map_that_scatters_x():
    G = groups.TensorGroup(2)
    sigma, info = graphs.sigma_graph(G)
    probes = pg.coset_probes(info)
    bad = pg.identity_perm(G.order)
    bad[0], bad[4] = 4, 0  # X = {0, 1, 2, 3} goes to {4, 1, 2, 3}: x_0 and y_0 both in it
    with pytest.raises(ValueError, match="coset image is not a coset"):
        induced_sigma_perm(info, bad)
    with pytest.raises(ValueError, match="lies within no single coset"):
        pg.coset_action(info, bad[probes])
    with pytest.raises(ValueError, match="one image per coset probe"):
        pg.coset_action(info, probes[:-1])
    for wrong in (-1, G.order):
        images = probes.copy()
        images[7] = wrong
        with pytest.raises(ValueError, match="not a group element"):
            pg.coset_action(info, images)


@st.composite
def graphs_and_partitions(draw):
    """Graphs with uneven degrees and isolated vertices, each with a
    random ordered partition of its vertices."""
    n = draw(st.integers(min_value=0, max_value=14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = draw(st.sampled_from([0.1, 0.3, 0.6]))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [e for e in pairs if rnd.random() < density]
    labels = [rnd.randrange(3) for _ in range(n)]
    cells = [[v for v in range(n) if labels[v] == lab] for lab in rnd.sample(range(3), 3)]
    return graphs.Graph(n, edges), [c for c in cells if c]


@given(graphs_and_partitions())
@settings(max_examples=300, deadline=None)
def test_refine_matches_reference_on_random_graphs(case):
    graph, cells = case
    assert refine(graph, cells) == reference_refine(graph, cells) == lexsort_refine(graph, cells)
    unit = [list(range(graph.n))]
    assert refine(graph, unit) == reference_refine(graph, unit) == lexsort_refine(graph, unit)
    # and one individualisation deeper, from the refined partition
    part = autsearch.refine(graph, partition_from_cells(graph.n, cells))
    check_arrays(part, graph.n)
    split = part.first_split()
    if split is not None:
        for u in part.members(split).tolist():
            start = part.individualize(u)
            check_arrays(start, graph.n)
            assert cells_of(start) == reference_individualize(cells_of(part), u)
            deeper = autsearch.refine(graph, start)
            check_arrays(deeper, graph.n)
            assert cells_of(deeper) == reference_refine(graph, cells_of(start))


@given(st.integers(min_value=20, max_value=50), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_refine_matches_reference_with_many_cells_and_high_degree(n, rnd):
    """Rows of up to 49 neighbour cells among up to 25 cells: several packed
    words per row, and several passes."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < 0.5]
    labels = [rnd.randrange(n // 2) for _ in range(n)]
    cells = [c for c in ([v for v in range(n) if labels[v] == lab] for lab in range(n // 2)) if c]
    graph = graphs.Graph(n, edges)
    assert refine(graph, cells) == reference_refine(graph, cells) == lexsort_refine(graph, cells)
    part = autsearch.refine(graph, partition_from_cells(n, cells))
    split = part.first_split()
    if split is not None:
        start = part.individualize(int(part.members(split)[-1]))
        deeper = cells_of(autsearch.refine(graph, start))
        assert deeper == reference_refine(graph, cells_of(start))


@pytest.mark.parametrize("target", ["sigma", "gamma"])
def test_refine_matches_reference_along_individualisation(target):
    G, S, gamma, sigma, info = cli.build_instance(2)
    graph = sigma if target == "sigma" else gamma
    part = autsearch.refine(graph, partition_from_cells(graph.n, [range(graph.n)]))
    assert cells_of(part) == reference_refine(graph, [list(range(graph.n))])
    assert cells_of(part) == lexsort_refine(graph, [list(range(graph.n))])
    steps = 0
    while True:
        split = part.first_split()
        if split is None:
            break
        members = part.members(split).tolist()
        # the search's own sequence, plus every sibling at the first level
        for u in members if steps == 0 else members[:1]:
            start = part.individualize(u)
            assert cells_of(start) == reference_individualize(cells_of(part), u)
            deeper = cells_of(autsearch.refine(graph, start))
            assert deeper == reference_refine(graph, cells_of(start))
        part = autsearch.refine(graph, part.individualize(members[0]))
        steps += 1
    assert steps > 0


STAR = graphs.Graph(9, [(0, v) for v in range(1, 9)])


@given(graphs_and_partitions())
@example((STAR, [list(range(9))]))
@example((STAR, [[3], [0, 1, 2, 4, 5, 6, 7, 8]]))
@settings(max_examples=150, deadline=None)
def test_refine_is_the_same_for_every_block_size(case):
    """Rows read in blocks of CHUNK // degree vertices give the reference's
    partitions whether CHUNK is 1, 7 or the default."""
    graph, cells = case
    got = over_chunks(lambda: cells_of(autsearch.refine(graph, partition_from_cells(graph.n, cells))))
    assert got == reference_refine(graph, cells)


def test_refine_packs_wide_rows_with_array_shifts():
    """K(1, 2000): rows of 2000 entries, in blocks of 16 rows.  Packing each
    block a column at a time took about 2 s; array shifts take under 0.1 s."""
    star = graphs.Graph(2001, [(0, v) for v in range(1, 2001)])
    unit = partition_from_cells(star.n, [range(star.n)])
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        part = autsearch.refine(star, unit)
        times.append(time.perf_counter() - t0)
    assert cells_of(part) == [list(range(1, 2001)), [0]]
    assert min(times) < 0.6, times


def test_unit_partition_is_the_one_cell_partition():
    for n in (0, 1, 5):
        unit, cells = Partition.unit(n), partition_from_cells(n, [range(n)])
        for a, b in ((unit.order, cells.order), (unit.starts, cells.starts), (unit.cell, cells.cell)):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        check_arrays(unit, n)


def test_refine_and_search_on_tiny_and_edgeless_graphs():
    for n in (0, 1, 5):
        g = graphs.Graph(n, [])
        unit = [list(range(n))]
        assert refine(g, unit) == reference_refine(g, unit)
        res = autsearch.automorphism_group(g)
        assert res.complete and res.order == [1, 1, 120][(0, 1, 5).index(n)]
    g = graphs.Graph(5, [])
    assert refine(g, [[3], [0, 1, 2, 4]]) == [[3], [0, 1, 2, 4]]
    assert autsearch.automorphism_group(graphs.Graph(6, [(0, 1)])).order == 48


def test_refine_rejects_a_non_partition():
    g = graphs.Graph(3, [(0, 1)])
    for cells in ([[0, 1]], [[0, 1], [1, 2]], [[0, 1, 2, 3]]):
        with pytest.raises(ValueError):
            autsearch.refine(g, partition_from_cells(g.n, cells))
    with pytest.raises(ValueError):
        autsearch.refine(g, partition_from_cells(2, [[0, 1]]))


def test_are_automorphisms_agrees_with_single_checks():
    G, S, gamma, sigma, info = cli.build_instance(2)
    rng = np.random.default_rng(1)
    good = pg.action_gens(G)
    bad = [rng.permutation(G.order).astype(np.int32) for _ in range(3)]
    assert pg.are_automorphisms(gamma, good)
    assert all(pg.are_automorphisms(gamma, [p]) for p in good)
    assert not any(pg.are_automorphisms(gamma, [p]) for p in bad)
    assert not pg.are_automorphisms(gamma, good + bad[:1])
    assert not pg.are_automorphisms(gamma, good + [pg.identity_perm(G.order + 1)])
    assert pg.are_automorphisms(gamma, [])
    path = graphs.Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert pg.are_automorphisms(path, [pg.as_perm([3, 2, 1, 0]), pg.identity_perm(4)])
    assert not pg.are_automorphisms(path, [pg.as_perm([3, 2, 1, 0]), pg.as_perm([1, 0, 2, 3])])


def test_neighbor_array_pads_irregular_rows():
    g = graphs.Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert g.neighbor_array().tolist() == [[1, 2, 3], [0, 4, 4], [0, 4, 4], [0, 4, 4]]
    assert graphs.Graph(3, []).neighbor_array().shape == (3, 0)
    assert graphs.Graph(0, []).neighbor_array().shape == (0, 0)

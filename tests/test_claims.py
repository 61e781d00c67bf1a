"""The claim table's context and size rule."""

import collections
import pathlib
import re
import tracemalloc

import numpy as np
import pytest

import cover_oracle
from group_oracle import center, maximal_cliques
from mdg import claims, graphs, groups, permgroups


def test_an_object_is_built_once_and_released_after_its_last_reader(monkeypatch):
    calls = collections.Counter()
    for name in ("cayley_graph", "sigma_graph"):
        build = getattr(graphs, name)
        monkeypatch.setattr(graphs, name, lambda G, *a, _build=build, _name=name: calls.update(
            [(_name, type(G).__name__)]) or _build(G, *a))
    held = []  # the objects the context holds as each row starts

    def row(cid, expected, compute, needs):
        return cid, expected, lambda c: (held.append(sorted(c)), compute(c))[1], needs

    ctx = claims.Context(groups.TensorGroup(2))
    rep = claims.run([row("gamma-once", 256, lambda c: c.gamma.n, "gamma"),
                      row("gamma-again", 6, lambda c: c.gamma.is_regular(), "gamma"),
                      row("quotient", (4, 4),
                          lambda c: permgroups.is_complete_bipartite(c.cover.quotient), "cover"),
                      row("x-cosets", 64, lambda c: c.info.n_x, "info"),
                      row("sigma", 128, lambda c: c.sigma.n, "sigma")], ctx)
    assert [c.status for c in rep] == ["pass"] * 5
    # Γ, Σ, and the coset graph of G/G' that the cover builds, once each
    assert calls == {("cayley_graph", "TensorGroup"): 1, ("sigma_graph", "TensorGroup"): 1,
                     ("sigma_graph", "Elementary"): 1}
    # Γ and S go after their last reader, and G, G' and the cover after the
    # quotient; the coset bookkeeping goes after its row, while the coset
    # graph stays for Σ's
    assert held == [[], ["S", "gamma"], [], [], ["coset_graph"]]
    assert ctx == {}


@pytest.mark.parametrize("rows, group", [
    ("GROUP", lambda: groups.TensorGroup(3)),
    ("DIHEDRAL", lambda: groups.DihedralProduct(4, 4)),
    ("GRAPHS", lambda: groups.TensorGroup(2)),
], ids=["group-n3", "dihedral-4-4", "graphs-n2"])
def test_each_group_quantity_is_computed_at_most_once(monkeypatch, rows, group):
    """|<G.gens>|, G' and the structure of G/G' are objects of the context,
    computed once however many rows read them; the group tables read
    |<G.gens>| in four rows and G/G' in two."""
    calls = collections.Counter()
    for name in ("subgroup_order", "derived_subgroup", "abelianization_structure"):
        f = getattr(groups, name)
        monkeypatch.setattr(groups, name, lambda *a, _f=f, _name=name: calls.update([_name]) or _f(*a))
    rep = claims.run(getattr(claims, rows), claims.Context(group()))
    assert [c.status for c in rep] == ["pass"] * len(rep)
    assert max(calls.values()) == 1
    if rows != "GRAPHS":
        assert calls["subgroup_order"] == 1


def test_only_the_claim_table_computes_the_group_quantities():
    """|<G.gens>|, G' and the structure of G/G' are computed where the
    claim table builds its objects and rows: no other module calls the
    functions that compute them."""
    call = re.compile(r"(?<!def )\b(subgroup_order|derived_subgroup|abelianization_structure)\(")
    modules = sorted(pathlib.Path(claims.__file__).parent.glob("*.py"))
    assert [p.name for p in modules if p.name != "claims.py" and call.search(p.read_text())] == []


LOCAL_ROWS = ("cayley-valency", "coset-graph-valency", "clique-graph-is-coset-graph",
              "line-graph-is-cayley-graph", "triangles-monochromatic", "coset-graph-2-arc-transitive")


def test_over_budget_objects_are_never_built():
    """At n = 5, Γ(5) and Σ(5) would hold about 2·10^12 and 2·10^11
    entries: the graph suite skips every claim that needs them, or G, before
    it builds anything, and computes the rows that read the neighbourhood
    of 1, the local action at X, or S, X and Y alone, under a 2 MB traced
    peak (about 50 kB on Linux, CPython 3.11, numpy 2)."""
    tracemalloc.start()
    try:
        rep = claims.run(claims.GRAPHS, claims.Context(groups.TensorGroup(5)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [c.status for c in rep] == ["pass" if c.id in LOCAL_ROWS else "skipped" for c in rep]
    assert peak < 2 << 20, f"traced peak {peak} bytes"


def test_the_cayley_transitivity_row_holds_no_permutation_of_all_codes_at_once():
    """With G, S, |<G.gens>| and the cells built first, the row reads the
    lifts on the ball of radius 2 built from S, with no Γ: a traced peak
    within 2 * CHUNK 8-byte temporaries, 512 kB (about 70 kB on Linux,
    CPython 3.11, numpy 2.4; 1.0 MB on the ball of radius 3 in Γ(3)),
    where the 19 actions as permutations of all 32,768 codes would take
    2.4 MB alone."""
    ctx = claims.Context(groups.TensorGroup(3))
    assert ctx.S and ctx.generated == 1 << 15 and ctx.diagram
    row = next(r for r in claims.GRAPHS if r[0] == "cayley-transitivity")
    tracemalloc.start()
    try:
        (claim,) = claims.run([row], ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert claim.status == "pass", claim
    assert "gamma" not in ctx
    assert peak <= 2 * groups.CHUNK * 8, f"traced peak {peak} bytes"


def test_no_group_or_graph_row_reaches_a_built_graph():
    """Every row of ``verify group`` and ``verify graphs`` reads G through
    |<G.gens>|, G', S and the neighbourhood of 1: none needs Γ, Σ or the
    coset graph, directly or through another object.  ``aut`` and
    ``export`` still build them."""
    built = {"gamma", "coset_graph", "sigma"}
    assert [r[0] for r in (*claims.GROUP, *claims.GRAPHS)
            if built & set(claims.needs_of(r[3]))] == []


def _rows(ids, ctx):
    """The report of the rows ``ids`` of the group and graph tables on ``ctx``."""
    return {c.id: c for c in claims.run([r for r in (*claims.GROUP, *claims.GRAPHS)
                                         if r[0] in ids], ctx)}


@pytest.mark.parametrize("extra, why", [
    ("identity", "identity must not lie in the connection set"),
    ("x0y0", "connection set is not inverse-closed"),
], ids=["with-1", "without-an-inverse"])
def test_a_connection_set_with_1_or_without_an_inverse_fails_the_valency_row(extra, why):
    """S with 1 added, or with x_0 y_0 and not its inverse, gives no simple
    Cayley graph: ``cayley-valency`` fails with the check named."""
    G = groups.TensorGroup(2)
    add = G.identity if extra == "identity" else int(G.mul_vec(G.x_gens[0], G.y_gens[0]))
    assert int(G.inv_vec(add)) != add or extra == "identity"
    ctx = claims.Context(G)
    ctx.update(S=[*graphs.xy_connection_set(G), add])
    claim = _rows({"cayley-valency"}, ctx)["cayley-valency"]
    assert (claim.status, claim.computed) == (claims.FAIL, f"error: ValueError: {why}")


def test_x_and_y_meeting_beyond_1_fail_the_coset_valency_and_edge_rows():
    """In D_2 x D_4 the flip x_0 of D_2 is also y_0, so X and Y meet in
    {1, x_0}: an X-coset meets a Y-coset twice, and the two rows that
    count Σ's valency and edges from |X| and |<X u Y>| fail."""
    G = groups.DihedralProduct(1, 2)
    assert G.x_gens[0] == G.y_gens[0]
    rows = _rows({"coset-graph-valency", "coset-graph-edges"}, claims.Context(G))
    assert {(c.status, c.computed) for c in rows.values()} == {
        (claims.FAIL, "error: ValueError: X and Y meet in more than 1")}
    assert len(rows) == 2


def _grown(G, derived):  # G' with x_0's coset of it
    return {"derived": groups.sorted_codes(np.concatenate([derived, G.mul_vec(derived, G.x_gens[0])]))}


def _shrunk(G, derived):  # one commutator and 1
    return {"derived": groups.sorted_codes(
        [G.identity, groups.commutator(G, G.x_gens[0], G.y_gens[0])])}


def _twisted(G, derived):  # G' with [x_0, y_0] traded for x_1 [x_0, y_0]
    c = groups.commutator(G, np.asarray(G.x_gens)[:, None], np.asarray(G.y_gens)).ravel()
    return {"derived": groups.closure_array(G, [*c[1:], G.mul_vec(G.x_gens[1], c[0])])}


@pytest.mark.parametrize("plant, computed", [
    (_grown, "error: ValueError: the generators have rank < 4 in G/N"),
    (_twisted, False), (_shrunk, False), (lambda G, _: {"generated": G.order // 2}, False),
], ids=["g-prime-and-x0", "g-prime-twisted", "one-commutator", "half-the-order"])
def test_a_planted_g_prime_or_order_fails_the_centre_row(plant, computed):
    """G' with x_0 joined holds a word, x_0, so two words share a coset;
    G' with one commutator traded for x_1 times it has |G'| elements, no
    word in it, but is not central; G' cut to one commutator has too few
    cosets for the 2^(2n) words to fill G; and a |<G.gens>| of half |G| is
    not |G'| times the words.  Each fails ``derived-equals-center``, which
    passes on the tensor group's own G' and order."""
    G = groups.TensorGroup(2)
    row = {"derived-equals-center"}
    assert _rows(row, claims.Context(G))["derived-equals-center"].status == claims.PASS
    planted, ctx = plant(G, groups.derived_subgroup(G)), claims.Context(G)
    ctx.update(planted)
    claim = _rows(row, ctx)["derived-equals-center"]
    assert (claim.status, claim.computed) == (claims.FAIL, computed)
    if plant is _twisted:
        N = planted["derived"]
        assert len(N) == 16 and not groups.commutes_with_gens(G, N).all()


def test_the_table_ids_are_unique_and_every_need_is_an_object():
    for rows in (claims.GROUP, claims.DIHEDRAL, claims.GRAPHS,
                 (claims.GENERATED_ORDER, *claims.SEARCH.values())):
        assert len({r[0] for r in rows}) == len(rows)
        for r in rows:
            assert set(claims.needs_of(r[3])) <= set(claims.OBJECTS)


def test_a_planted_edge_between_the_cliques_fails_the_rows_of_the_neighbourhood():
    """S with x_0 y_0 and its inverse added joins X \\ {1} to Y \\ {1}: Γ
    built on it has maximal cliques that are no cosets, the four rows that
    read the neighbourhood of 1 fail, and Γ's certified order is not
    reported."""
    G = groups.TensorGroup(2)
    z = int(G.mul_vec(G.x_gens[0], G.y_gens[0]))
    planted = sorted({*graphs.xy_connection_set(G), z, int(G.inv_vec(z))})
    assert len(planted) == 8
    info = graphs.sigma_graph(G)[1]
    cosets = np.concatenate([info.x_cosets, info.y_cosets]).tolist()
    assert maximal_cliques(graphs.cayley_graph(G, planted)) != sorted(cosets)
    ctx = claims.Context(G)  # a stand-in S, as the runner would build it
    ctx.update(S=planted)
    rows = [r for r in claims.GRAPHS if "neighbourhood" in r[3]] + [claims.SEARCH["gamma"]]
    assert [c.status for c in claims.run(rows, ctx)] == ["fail"] * 5


def test_the_certified_order_of_gamma_builds_no_gamma():
    """Whitney's premise Γ = L(Σ) is read from the neighbourhood of 1."""
    assert "gamma" not in claims.needs_of(claims.SEARCH["gamma"][3])


@pytest.fixture(scope="module")
def n3():
    """The inputs of the graph passes at n = 3, built once."""
    ctx = claims.Context(groups.TensorGroup(3))
    objects = {name: getattr(ctx, name)
               for name in ("S", "gamma", "sigma", "info", "derived", "generated", "diagram")}
    objects["labels"] = cover_oracle.derived_orbit_partition(ctx.group, ctx.sigma, ctx.info)
    return dict(objects, G=ctx.group)


def _cayley_row(o):
    # a context of its own, as the runner releases its objects after the row
    ctx = claims.Context(o["G"])
    ctx.update(S=o["S"], generated=o["generated"], diagram=o["diagram"])
    return claims.run([next(r for r in claims.GRAPHS if r[0] == "cayley-transitivity")], ctx)


PASSES = {
    "normal_quotient": lambda o: cover_oracle.normal_quotient(o["sigma"], o["labels"]),
    "central_quotient": lambda o: permgroups.central_quotient(o["G"], o["derived"]),
    "cayley-transitivity": _cayley_row,
    "cell_diagram": lambda o: permgroups.cell_diagram(o["G"], o["S"], o["generated"]),
    "least_members": lambda o: permgroups.least_members(o["G"], o["diagram"]),
    "center": lambda o: center(o["G"]),
    "is_center": lambda o: groups.is_center(o["G"], o["generated"], o["derived"]),
}


@pytest.mark.parametrize("name", sorted(PASSES))
def test_each_graph_pass_holds_two_blocks_at_n3(n3, name):
    """Each pass keeps at most 2 * CHUNK 8-byte temporaries (512 kB) traced
    beyond its inputs and its output: a block of its own and one of the arc
    search inside it, with the arrays as long as the graph in narrow types
    (about 210 to 500 kB on Linux, CPython 3.11, numpy 2.4; 0.9 to 2.5 MB
    before the blocks were weighted by their temporaries, and 1.1 MB for the
    center when it listed every code first)."""
    tracemalloc.start()
    try:
        out = PASSES[name](n3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if name == "cayley-transitivity":
        assert [c.status for c in out] == ["pass"]
    assert peak - held <= 2 * groups.CHUNK * 8, f"{peak - held} bytes beyond the output"


@pytest.mark.parametrize("ms", [(200, 201), (4,) * 7], ids=["d400-d402", "d8^7"])
def test_center_holds_two_blocks_on_dihedral_products(ms, monkeypatch):
    """A dihedral product keeps a pair of digit arrays per factor in each
    product, so the centre weighs its blocks by the factors: within
    2 * CHUNK 8-byte temporaries beyond its output (about half that on
    Linux, CPython 3.11, numpy 2.4; 1.3 and 2.4 times it at five
    temporaries a code for every backend).  CHUNK is raised to 2^18, so
    that the 2^21 codes of D_8^7 take 184 traced blocks, not 1,473 (3.7 s
    against 23 s)."""
    monkeypatch.setattr(groups, "CHUNK", 1 << 18)
    G = groups.DihedralProduct(*ms)
    tracemalloc.start()
    try:
        out = center(G)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == 2 ** sum(m % 2 == 0 for m in ms)
    assert peak - held <= 2 * groups.CHUNK * 8, f"{peak - held} bytes beyond the output"


def test_edgelist_holds_at_most_half_again_its_length_at_n3(n3):
    """to_edgelist(Γ(3)) formats a block of rows at a time, so beyond the
    2.6 MB text it returns it holds at most 1.5 times that length: the
    pieces it joins and one block (about 2.6 MB on Linux, CPython 3.11,
    numpy 2.4; 21.6 MB when every endpoint went into one tuple)."""
    tracemalloc.start()
    try:
        text = graphs.to_edgelist(n3["gamma"])
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - held <= 1.5 * len(text), f"{peak - held} bytes beyond {len(text)}"


def test_center_holds_one_mask_beyond_its_output():
    """The centre marks each block's central codes in one mask over G and
    lists them once: on C_2^20, all 2^20 codes central, it holds at most
    G.order bytes and two blocks beyond its 8 MB output (8.5 MB beyond it
    on ten factors D_4, the same group, when it joined a list of blocks).
    ``Elementary(10)`` multiplies by one XOR: 0.1 s traced, where the
    dihedral product's ten factors take 30 s."""
    G = groups.Elementary(10)
    tracemalloc.start()
    try:
        out = center(G)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(out) == G.order
    assert peak - held <= G.order + 2 * groups.CHUNK * 8, f"{peak - held} bytes beyond the output"


COVER_ROWS = ("quotient-complete-bipartite", "quotient-preserves-valency",
              "derived-action-semiregular", "edge-affine-witness")


def _cover_rows(G, derived=None):
    """The four rows read from G/G', with G' planted when given."""
    ctx = claims.Context(G)
    if derived is not None:
        ctx.update(derived=groups.sorted_codes(derived))
    return {c.id: c for c in claims.run([r for r in claims.GRAPHS if r[0] in COVER_ROWS], ctx)}


def test_the_cover_rows_build_no_sigma():
    """The quotient, its valency, the semiregularity of G' and the
    edge-affine witness are read from G/G': none of the four rows needs
    Σ or the actions on it."""
    for row in (r for r in claims.GRAPHS if r[0] in COVER_ROWS):
        assert not {"coset_graph", "sigma", "info", "sigma_gens"} & set(claims.needs_of(row[3]))


@pytest.mark.parametrize("n", range(2, 8))
def test_the_two_arc_row_reads_s_alone_and_passes_at_every_n(n):
    """Σ's 2-arc row needs S and no Σ, nor the actions on it, so it
    computes at every n = 2..7, each within a second (5-90 ms on Linux,
    CPython 3.11, numpy 2)."""
    row = next(r for r in claims.GRAPHS if r[0] == "coset-graph-2-arc-transitive")
    assert claims.needs_of(row[3]) == ["S"]
    (claim,) = claims.run([row], claims.Context(groups.TensorGroup(n)))
    assert claim.status == claims.PASS and claim.computed is True
    assert claim.ms < 1000, claim


def test_a_lift_that_mixes_the_sides_fails_the_witness(monkeypatch):
    """A first lift that sends x_0 to y_0 but keeps x_1 maps X onto no coset
    of X G'/G' or Y G'/G': the witness row fails, the other three pass."""
    lifts = permgroups.stabilizer_lift_images

    def mixing(G, codes=None):
        yield G.word_images([G.y_gens[0], *G.x_gens[1:]], [G.x_gens[0], *G.y_gens[1:]], codes)
        yield from lifts(G, codes)

    monkeypatch.setattr(permgroups, "stabilizer_lift_images", mixing)
    rows = _cover_rows(groups.TensorGroup(2))
    assert [i for i, c in rows.items() if c.status != claims.PASS] == ["edge-affine-witness"]
    assert rows["edge-affine-witness"].computed == \
        "error: ValueError: image of X or Y lies within no single coset"


def test_a_subgroup_that_meets_x_fails_the_semiregular_row():
    """N = <x_0> in D_4 x D_4 is central but meets X: it is not semiregular
    on the X-cosets, and x_0 falls into N, so the generators' images have
    rank 3 in G/N and the rows that read the quotient fail too."""
    G = groups.DihedralProduct(2, 2)
    rows = _cover_rows(G, [G.identity, G.x_gens[0]])
    assert rows["derived-action-semiregular"].computed is False
    assert rows["quotient-complete-bipartite"].computed == \
        "error: ValueError: the generators have rank < 4 in G/N"
    assert all(c.status == claims.FAIL for c in rows.values())


def test_generators_of_rank_below_2n_fail_the_quotient_rows():
    """N = <x_0 y_0> in D_4 x D_4 is central and meets X and Y in 1 alone,
    so the semiregular row passes; but x_0 and y_0 share a coset of N, so
    the rows that read G/N fail.  The tensor group's own G' passes all
    four."""
    G = groups.DihedralProduct(2, 2)
    rows = _cover_rows(G, [G.identity, int(G.mul_vec(G.x_gens[0], G.y_gens[0]))])
    assert rows["derived-action-semiregular"].status == claims.PASS
    for cid in COVER_ROWS[:2]:
        assert rows[cid].computed == "error: ValueError: the generators have rank < 4 in G/N"
    assert rows["edge-affine-witness"].status == claims.FAIL
    assert {c.status for c in _cover_rows(groups.TensorGroup(2)).values()} == {claims.PASS}

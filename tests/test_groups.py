import itertools
import pathlib
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cover_oracle
from group_oracle import TableGroup, center, cosets, dihedral_code, dihedral_inv, dihedral_mul
from mdg import claims, f2, graphs, groups


G2 = groups.TensorGroup(2)
elem2 = st.integers(min_value=0, max_value=G2.order - 1)


def test_identity_laws():
    for g in range(G2.order):
        assert int(G2.mul_vec(g, 0)) == g
        assert int(G2.mul_vec(0, g)) == g
        assert int(G2.mul_vec(g, G2.inv_vec(g))) == 0
        assert int(G2.mul_vec(G2.inv_vec(g), g)) == 0


def test_xy_multiplication_order_matters():
    e1 = G2.x_gens[0]
    f1 = G2.y_gens[0]
    # xy = x + y; yx = x + y + x(x)y
    assert int(G2.mul_vec(e1, f1)) == G2.encode(1, 1, 0)
    assert int(G2.mul_vec(f1, e1)) == G2.encode(1, 1, f2.outer(1, 1, 2))


@given(elem2, elem2)
def test_commutator_closed_form(g1, g2):
    x1, y1, _ = G2.decode(g1)
    x2, y2, _ = G2.decode(g2)
    expect = G2.encode(0, 0, f2.outer(x1, y2, 2) ^ f2.outer(x2, y1, 2))
    assert groups.commutator(G2, g1, g2) == expect


def test_inv_fixed_points():
    # g is an involution (or trivial) exactly when the x/y parts have
    # zero outer product
    for g in range(G2.order):
        x, y, _ = G2.decode(g)
        assert (int(G2.inv_vec(g)) == g) == (f2.outer(x, y, 2) == 0)


def test_closure_and_budget(monkeypatch):
    assert len(groups.closure_array(G2, G2.gens)) == 256
    monkeypatch.setattr(groups, "DEFAULT_BUDGET", 10)
    with pytest.raises(groups.BudgetExceeded):
        groups.closure_array(G2, G2.gens)


def mixed(G):
    """``is_mixed_dihedral`` on the quantities the claim table computes."""
    derived = groups.derived_subgroup(G)
    return groups.is_mixed_dihedral(G, groups.subgroup_order(G, G.gens), derived,
                                    groups.abelianization_structure(G, derived))


def presentation(G):
    return groups.verify_presentation(G, groups.subgroup_order(G, G.gens))


def test_verify_presentation():
    assert presentation(G2)
    assert presentation(groups.TensorGroup(3))


class Broken(groups.TensorGroup):
    # drop the tensor correction term from the product, so that this is
    # an (abelian) group of the wrong order
    def mul_vec(self, g1, g2):
        return np.asarray(g1, dtype=np.uint64) ^ np.asarray(g2, dtype=np.uint64)


def test_verify_presentation_mutation():
    assert not presentation(Broken(2))
    # through the table: the generated order, not the backend's, fails the row
    rep = claims.run(claims.GROUP, claims.Context(Broken(2)))
    assert {c.id: c.status for c in rep}["relations-and-count"] == "fail"


def test_derived_subgroup_is_pure_tensors():
    derived = groups.derived_subgroup(G2)
    assert derived.tolist() == [G2.encode(0, 0, a) for a in range(16)]
    assert np.array_equal(derived, center(G2))


@pytest.mark.parametrize("G", [G2, groups.TensorGroup(3), groups.DihedralProduct(3, 4),
                               groups.DihedralProduct(2, 4, 6)], ids=lambda G: str(G.order))
def test_subgroups_are_sorted_int64_arrays(G):
    for sub in (groups.closure_array(G, G.x_gens), groups.closure_array(G, G.gens),
                groups.derived_subgroup(G), center(G)):
        assert isinstance(sub, np.ndarray) and sub.dtype == np.int64 and sub.ndim == 1
        assert len(sub) and np.all(np.diff(sub) > 0)


def test_abelianization_structure():
    derived = groups.derived_subgroup(G2)
    assert groups.abelianization_structure(G2, derived) == [2, 2, 2, 2]


def test_is_mixed_dihedral_tensor_backend():
    rep = mixed(G2)
    assert rep.is_mixed_dihedral
    assert rep.order == 256
    assert rep.derived_subgroup_order == 16
    assert rep.abelianization_structure == [2, 2, 2, 2]


def test_dihedral_product_relations():
    D = groups.DihedralProduct(4, 4)
    assert D.order == 64
    for x, y, m in zip(D.x_gens, D.y_gens, D.ms):
        assert int(D.mul_vec(x, x)) == 0
        assert int(D.mul_vec(y, y)) == 0
        xy = D.mul_vec(x, y)
        p = 0
        for _ in range(m):
            p = int(D.mul_vec(p, xy))
        assert p == 0


def test_dihedral_product_mixed():
    rep = mixed(groups.DihedralProduct(4, 4))
    assert rep.is_mixed_dihedral
    assert rep.derived_subgroup_order == 4


def test_dihedral_odd_factor_is_not_mixed():
    # D_6: the derived subgroup is C_3, so the abelianization is C_2 x C_2
    # of rank 2, not the required rank 2n = 2 with order 4 ... the actual
    # computed verdict: abelianization [2], derived order 3 -> refusal.
    rep = mixed(groups.DihedralProduct(3))
    assert not rep.is_mixed_dihedral
    assert rep.derived_subgroup_order == 3
    assert rep.abelianization_structure == [2]
    assert "abelianization" in rep.failure_reason


def test_dihedral_center():
    D = groups.DihedralProduct(4, 4)
    assert len(center(D)) == 4
    assert len(groups.derived_subgroup(D)) == 4


def test_cosets():
    X = groups.closure_array(G2, G2.x_gens)
    cos, index = graphs.right_cosets(G2, X)
    assert len(cos) == 64
    assert all(len(c) == 4 for c in cos)
    assert sorted(v for c in cos for v in c) == list(range(256))
    members = G2.mul_vec(X[None, :], np.arange(256)[:, None])
    assert np.array_equal(cos[index], np.sort(members, axis=1))
    whole, index = graphs.right_cosets(G2, range(G2.order))
    assert whole.tolist() == [list(range(G2.order))] and not index.any()
    assert cos.tolist() == cosets(G2, X).tolist()


def test_coset_intersections_at_most_one():
    X = groups.closure_array(G2, G2.x_gens)
    Y = groups.closure_array(G2, G2.y_gens)
    xc, _ = graphs.right_cosets(G2, X)
    yc, _ = graphs.right_cosets(G2, Y)
    for a in xc:
        sa = set(a)
        for b in yc:
            assert len(sa.intersection(b)) <= 1


def test_cosets_rejects_non_subgroup():
    for build in (graphs.right_cosets, cosets):
        with pytest.raises(ValueError):
            build(G2, [0, 1, 4])
        with pytest.raises(ValueError, match="identity"):
            build(G2, [1])


def test_table_group():
    # C_2 x C_2 as an explicit table
    table = [[a ^ b for b in range(4)] for a in range(4)]
    T = TableGroup(table, x_gens=[1], y_gens=[2])
    assert int(T.mul_vec(1, 2)) == 3
    assert int(T.inv_vec(3)) == 3
    assert groups.closure_array(T, [1, 2]).tolist() == [0, 1, 2, 3]


# -- the tensor product against its closed form -----------------------------

def closed_mul(G, g1, g2):
    """(x1+x2, y1+y2, A1+A2+outer(x2, y1)), from the decoded triples."""
    (x1, y1, a1), (x2, y2, a2) = G.decode(g1), G.decode(g2)
    return G.encode(x1 ^ x2, y1 ^ y2, a1 ^ a2 ^ f2.outer(x2, y1, G.n))


def closed_inv(G, g):
    x, y, a = G.decode(g)
    return G.encode(x, y, a ^ f2.outer(x, y, G.n))


def closed_commutator(G, g1, g2):
    (x1, y1, _), (x2, y2, _) = G.decode(g1), G.decode(g2)
    return G.encode(0, 0, f2.outer(x1, y2, G.n) ^ f2.outer(x2, y1, G.n))


def scalar_commutator(G, a, b):
    """[a, b] from four products of single codes, sharing no code with the
    broadcast one."""
    mul = lambda p, q: int(G.mul_vec(p, q))
    return mul(mul(mul(int(G.inv_vec(a)), int(G.inv_vec(b))), a), b)


def test_mul_vec_matches_scalar():
    rng = np.random.default_rng(0)
    G3 = groups.TensorGroup(3)
    a = rng.integers(0, G3.order, 500, dtype=np.uint64)
    b = rng.integers(0, G3.order, 500, dtype=np.uint64)
    prod = G3.mul_vec(a, b)
    invs = G3.inv_vec(a)
    for i in range(500):
        assert int(prod[i]) == int(G3.mul_vec(int(a[i]), int(b[i]))) == \
            closed_mul(G3, int(a[i]), int(b[i]))
        assert int(invs[i]) == int(G3.inv_vec(int(a[i]))) == closed_inv(G3, int(a[i]))


@pytest.mark.parametrize("n", range(1, 8))
def test_tensor_arithmetic_matches_the_closed_form(n):
    G = groups.TensorGroup(n)
    rng = random.Random(n)
    a = [rng.randrange(G.order) for _ in range(24)]
    b = [rng.randrange(G.order) for _ in range(17)]
    if n == 7:  # the top bit of a 63-bit code
        a[:4] = [g | 1 << 62 for g in a[:4]]
        b[:4] = [g | 1 << 62 for g in b[:4]]
    if n <= 2:  # every pair
        a = b = list(range(G.order))
    va, vb = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
    want = [[closed_mul(G, p, q) for q in b] for p in a]
    # (k, 1) x (m,), and a scalar on either side
    assert G.mul_vec(va[:, None], vb).tolist() == want
    assert G.mul_vec(a[0], vb).tolist() == want[0]
    assert G.mul_vec(va, b[-1]).tolist() == [row[-1] for row in want]
    assert int(G.mul_vec(a[1], b[2])) == want[1][2]
    assert G.inv_vec(va).tolist() == [closed_inv(G, g) for g in a]
    assert int(G.inv_vec(a[0])) == closed_inv(G, a[0])
    comms = [[closed_commutator(G, p, q) for q in b] for p in a]
    assert groups.commutator(G, va[:, None], vb).tolist() == comms
    assert groups.commutator(G, a[0], vb).tolist() == comms[0]
    assert int(groups.commutator(G, a[1], b[2])) == comms[1][2]


def _symmetric_table(k):
    """S_k as permutation tuples composed left to right, indexed in
    lexicographic order; index 0 is the identity."""
    perms = list(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(q[p[i]] for i in range(k))] for q in perms] for p in perms]


BACKENDS = {
    "dihedral-3-4": groups.DihedralProduct(3, 4),
    "dihedral-2-2-2": groups.DihedralProduct(2, 2, 2),
    "table-s3": TableGroup(_symmetric_table(3), x_gens=[1], y_gens=[2]),
    "tensor-2": G2,
}


@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_mul_vec_and_inv_vec_match_scalar_on_all_pairs(name):
    G = BACKENDS[name]
    codes = np.arange(G.order)
    table = G.mul_vec(codes[:, None], codes[None, :])
    assert table.shape == (G.order, G.order)
    assert table.tolist() == [[int(G.mul_vec(a, b)) for b in range(G.order)]
                              for a in range(G.order)]
    assert np.asarray(G.inv_vec(codes)).tolist() == [int(G.inv_vec(a)) for a in range(G.order)]
    # a scalar on either side broadcasts
    assert np.asarray(G.mul_vec(codes, 1)).tolist() == table[:, 1].tolist()
    assert np.asarray(G.mul_vec(1, codes)).tolist() == table[1].tolist()


@pytest.mark.parametrize("ms", [(4, 4), (2, 4, 6), (3,), (5, 7), (1, 2)])
def test_dihedral_arithmetic_matches_the_factor_oracle(ms):
    D = groups.DihedralProduct(*ms)
    codes = np.arange(D.order)
    assert D.mul_vec(codes[:, None], codes[None, :]).tolist() == \
        [[dihedral_mul(ms, a, b) for b in codes.tolist()] for a in codes.tolist()]
    assert D.inv_vec(codes).tolist() == [dihedral_inv(ms, a) for a in codes.tolist()]
    one = lambda i, k: [(1, k % m) if j == i else (0, 0) for j, m in enumerate(ms)]
    assert D.x_gens == [dihedral_code(ms, one(i, 0)) for i in range(len(ms))]
    assert D.y_gens == [dihedral_code(ms, one(i, 1)) for i in range(len(ms))]


@pytest.mark.parametrize("G", [G2, groups.DihedralProduct(2, 4, 6)],
                         ids=["tensor-2", "dihedral-2-4-6"])
def test_subgroup_order_is_the_same_for_every_block_size(G, monkeypatch):
    subsets = (G.gens, G.x_gens, G.y_gens, cover_oracle.derived_basis(G), G.gens[:1], [])
    want = [len(groups.closure_array(G, gens)) for gens in subsets]
    for chunk in (1, 7, groups.CHUNK):
        monkeypatch.setattr(groups, "CHUNK", chunk)
        assert [groups.subgroup_order(G, gens) for gens in subsets] == want


def test_only_groups_names_the_block_budget():
    """Blocks are sized in one place, ``groups._blocks``: no other module
    names CHUNK, so patching ``groups.CHUNK`` varies every blocked pass."""
    modules = sorted(pathlib.Path(groups.__file__).parent.glob("*.py"))
    assert [p.name for p in modules if p.name != "groups.py"
            and re.search(r"\bCHUNK\b", p.read_text())] == []


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_inverse_matches_the_closed_form(n):
    # (x, y, A)^-1 = (x, y, A + outer(x, y))
    G = groups.TensorGroup(n)
    want = [g ^ (f2.outer(*G.decode(g)[:2], n) << (2 * n)) for g in range(G.order)]
    assert G.inv_vec(np.arange(G.order)).tolist() == want


@pytest.mark.parametrize("table", [[[0, 1], [1, 1]], [], [[0, 1]], [[0, 1], [1]]])
def test_table_group_rejects_a_malformed_table(table):
    with pytest.raises(ValueError):
        TableGroup(table)


def test_center_of_s3_and_dihedral_products():
    assert center(BACKENDS["table-s3"]).tolist() == [0]
    D = groups.DihedralProduct(3, 4)
    # D_6 has a trivial center, D_8 a center of order 2
    assert len(center(D)) == 2
    assert center(D).tolist() == [
        z for z in range(D.order)
        if all(int(D.mul_vec(z, h)) == int(D.mul_vec(h, z)) for h in range(D.order))]


def brute_center(G):
    """The center by its definition: the codes commuting with every code.
    Each code is screened against the first 64 codes, then the survivors
    against all of them, in blocks of about 2^21 products."""
    codes = np.arange(G.order)
    cand = codes
    for others in (codes[:64], codes):
        cand = cand[np.concatenate([
            (G.mul_vec(block[:, None], others) == G.mul_vec(others, block[:, None])).all(axis=1)
            for block in np.array_split(cand, max(1, len(cand) * len(others) >> 21))])]
    return cand.tolist()


@pytest.mark.parametrize("G", [G2, groups.TensorGroup(3), BACKENDS["table-s3"],
                               groups.DihedralProduct(3, 4)], ids=lambda G: str(G.order))
def test_center_matches_the_brute_force_definition(G):
    assert center(G).tolist() == brute_center(G)


@pytest.mark.parametrize("chunk", [1, 7, groups.CHUNK])
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_center_is_the_same_for_every_block_size(name, chunk, monkeypatch):
    G = BACKENDS[name]
    monkeypatch.setattr(groups, "CHUNK", chunk)
    assert center(G).tolist() == brute_center(G)


@pytest.mark.parametrize("n", [2, 3])
def test_the_centre_row_matches_the_scan_of_every_code(n):
    """``derived-equals-center``, read from the generators' words, G' and
    |<G.gens>|, has the value of comparing G' with the centre that the
    oracle finds by scanning every code."""
    G = groups.TensorGroup(n)
    (claim,) = claims.run([r for r in claims.GROUP if r[0] == "derived-equals-center"],
                          claims.Context(G))
    assert claim.computed is bool(np.array_equal(groups.derived_subgroup(G), center(G))) is True


@pytest.mark.parametrize("ms", [(4, 4), (2, 2), (4, 8), (3, 4)], ids=lambda ms: "-".join(map(str, ms)))
def test_is_center_agrees_with_the_scan_on_dihedral_products(ms):
    """``is_center`` reads G' as the centre of D_8^2, as the scan finds.  On
    C_2^4 every word commutes with the generators, and in D_8 x D_16 G' is
    not central: it says False where G' is not the centre.  In D_6 x D_8
    the rotation of D_6 is a word and lies in G', so it raises, as
    ``central_quotient`` does."""
    G = groups.DihedralProduct(*ms)
    derived, order = groups.derived_subgroup(G), groups.subgroup_order(G, G.gens)
    equal = bool(np.array_equal(derived, center(G)))
    assert equal is (ms == (4, 4))
    if ms == (3, 4):
        with pytest.raises(ValueError, match="rank < 4"):
            groups.is_center(G, order, derived)
    else:
        assert groups.is_center(G, order, derived) is equal


def test_derived_subgroup_holds_no_mask_over_g():
    """The normal closure tests each conjugate against the subgroup it
    grows, by binary search: at n = 4 it traces at most G.order / 2 bytes,
    where the byte mask over G it allocated each round took 16 MB (about
    5.5 MB against 19.4 MB on Linux, CPython 3.11, numpy 2.4)."""
    G = groups.TensorGroup(4)
    tracemalloc.start()
    try:
        derived = groups.derived_subgroup(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(derived) == 1 << 16
    assert peak <= G.order // 2, f"traced peak {peak} bytes"


def test_center_of_a_large_dihedral_product():
    # order 160,800; D_2m has a center of order 2 for even m and 1 for odd m
    D = groups.DihedralProduct(200, 201)
    z = center(D)
    assert len(z) == 2 and z[0] == 0
    assert all(int(D.mul_vec(z[1], g)) == int(D.mul_vec(g, z[1])) for g in D.gens)


# -- the array closure against a scalar breadth-first oracle ---------------

def scalar_closure(G, gens):
    """Subgroup generated by ``gens`` by breadth-first search, one product
    of two codes at a time."""
    seen = {G.identity}
    seen.update(gens)
    frontier = sorted(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                p = int(G.mul_vec(a, g))
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return sorted(seen)


def scalar_derived_subgroup(G):
    """Normal closure of the generator commutators, one product at a time."""
    comms = {scalar_commutator(G, a, b) for a in G.gens for b in G.gens} - {G.identity}
    while True:
        sub = scalar_closure(G, sorted(comms))
        conj = {int(G.mul_vec(G.mul_vec(G.inv_vec(g), z), g))
                for z in sub for g in G.gens} - set(sub)
        if not conj:
            return sub
        comms = set(sub) | conj


def scalar_is_mixed_dihedral(G) -> bool:
    """The definition, checked element by element: X and Y elementary
    abelian of equal order 2^n, generating G, and G/G' elementary abelian
    of order 2^(2n) (every square lies in G')."""
    X, Y = scalar_closure(G, G.x_gens), scalar_closure(G, G.y_gens)
    derived = set(scalar_derived_subgroup(G))
    n = len(X).bit_length() - 1

    def elementary_abelian(S):
        return (all(int(G.mul_vec(a, a)) == G.identity for a in S)
                and all(int(G.mul_vec(a, b)) == int(G.mul_vec(b, a)) for a in S for b in S))

    return (len(X) == len(Y) == 1 << n and elementary_abelian(X) and elementary_abelian(Y)
            and len(scalar_closure(G, G.gens)) == G.order
            and all(int(G.mul_vec(g, g)) in derived for g in range(G.order))
            and G.order == len(derived) << (2 * n))


@pytest.mark.parametrize("n", [2, 3])
def test_closure_matches_the_scalar_oracle_on_tensor_groups(n):
    G = groups.TensorGroup(n)
    for gens in (G.gens, G.x_gens, G.y_gens, cover_oracle.derived_basis(G)):
        assert groups.closure_array(G, gens).tolist() == scalar_closure(G, gens)
    assert groups.derived_subgroup(G).tolist() == scalar_derived_subgroup(G)


def test_closure_matches_the_scalar_oracle_on_every_subset_of_s3():
    T = BACKENDS["table-s3"]
    for k in range(T.order + 1):
        for gens in itertools.combinations(range(T.order), k):
            assert groups.closure_array(T, gens).tolist() == scalar_closure(T, gens)


def test_derived_subgroup_takes_the_normal_closure():
    # S_4 from a transposition and a 4-cycle: the commutator of the two
    # generates a cyclic subgroup that is not normal, and the derived
    # subgroup is all of A_4
    perms = list(itertools.permutations(range(4)))
    T = TableGroup(_symmetric_table(4), x_gens=[perms.index((1, 0, 2, 3))],
                          y_gens=[perms.index((1, 2, 3, 0))])
    assert len(scalar_closure(T, cover_oracle.derived_basis(T))) < 12
    derived = groups.derived_subgroup(T)
    assert len(derived) == 12
    assert derived.tolist() == scalar_derived_subgroup(T)


dihedral_products = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(
    lambda ms: groups.DihedralProduct(*ms))


@settings(max_examples=30, deadline=None)
@given(dihedral_products, st.data())
def test_closure_matches_the_scalar_oracle_on_dihedral_products(D, data):
    codes = st.integers(0, D.order - 1)
    for gens in (D.gens, D.x_gens, D.y_gens, data.draw(st.lists(codes, max_size=4)),
                 data.draw(st.lists(st.sampled_from(D.gens), unique=True))):
        assert groups.closure_array(D, gens).tolist() == scalar_closure(D, gens)


@settings(max_examples=30, deadline=None)
@given(dihedral_products)
def test_group_claims_match_the_scalar_oracle_on_dihedral_products(D):
    derived = scalar_derived_subgroup(D)
    assert groups.derived_subgroup(D).tolist() == derived
    rep = mixed(D)
    assert rep.is_mixed_dihedral == scalar_is_mixed_dihedral(D)
    assert rep.derived_subgroup_order == len(derived)


# -- the relations against a scalar oracle ---------------------------------

def scalar_relations_hold(G, xs, ys) -> bool:
    """The presentation's relations, one pair of elements at a time."""
    e, comm = G.identity, lambda a, b: scalar_commutator(G, a, b)
    cs = [comm(a, b) for a in xs for b in ys]
    return (all(int(G.mul_vec(a, a)) == e for a in xs + ys)
            and all(comm(a, b) == e for side in (xs, ys) for a in side for b in side)
            and all(int(G.mul_vec(c, c)) == e for c in cs)
            and all(comm(c, t) == e for c in cs for t in xs + ys))


@pytest.mark.parametrize("G", [G2, groups.TensorGroup(3), Broken(2), groups.DihedralProduct(4, 4),
                               groups.DihedralProduct(3, 4), groups.DihedralProduct(2, 4, 6),
                               BACKENDS["table-s3"]], ids=lambda G: f"{type(G).__name__}-{G.order}")
def test_relations_hold_matches_the_scalar_oracle(G):
    rng = random.Random(G.order)
    k = len(G.x_gens)
    # each side alone, so that a pair failing only to commute is seen
    cases = [(G.x_gens, G.y_gens), (G.y_gens, G.x_gens), (G.x_gens, G.x_gens), ([], []),
             (G.gens, []), ([], G.gens), (G.gens, G.gens)]
    for _ in range(20):
        # random images, and the generators with one image replaced
        cases.append(([rng.randrange(G.order) for _ in range(k)],
                      [rng.randrange(G.order) for _ in range(k)]))
        xs = list(G.x_gens)
        xs[rng.randrange(k)] = rng.choice(G.gens + [rng.randrange(G.order)])
        cases.append((xs, G.y_gens))
    verdicts = [groups.relations_hold(G, xs, ys) for xs, ys in cases]
    assert all(type(v) is bool for v in verdicts)
    assert verdicts == [scalar_relations_hold(G, xs, ys) for xs, ys in cases]


def test_relations_hold_sees_a_commutator_that_is_not_central():
    """Commuting involutions x_0, x_1 and y_0, y_1 of S_6 whose four
    commutators are involutions: every relation holds but the last, as some
    [x_i, y_j] fails to commute with a generator."""
    perms = list(itertools.permutations(range(6)))
    T = TableGroup(_symmetric_table(6))
    xs = [perms.index(p) for p in ((4, 2, 1, 5, 0, 3), (4, 3, 5, 1, 0, 2))]
    ys = [perms.index(p) for p in ((0, 1, 4, 3, 2, 5), (1, 0, 2, 3, 4, 5))]
    comm = lambda a, b: scalar_commutator(T, a, b)
    cs = [comm(a, b) for a in xs for b in ys]
    assert all(int(T.mul_vec(g, g)) == 0 for g in xs + ys + cs)
    assert comm(*xs) == comm(*ys) == 0
    assert any(comm(c, t) != 0 for c in cs for t in xs + ys)
    assert not groups.relations_hold(T, xs, ys) and not scalar_relations_hold(T, xs, ys)


D8 = groups.DihedralProduct(4)


@pytest.mark.parametrize("G, structure", [
    # C_4 = <g>: g commutes with itself but is no involution, and G/G' = C_4
    (TableGroup([[(a + b) % 4 for b in range(4)] for a in range(4)], x_gens=[1], y_gens=[1]), [4]),
    # X = Y = D_8, from a flip and a flipped rotation: involutions that do not commute
    (TableGroup(D8.mul_vec(np.arange(8)[:, None], np.arange(8)), x_gens=D8.gens, y_gens=D8.gens),
     [2, 2]),
], ids=["c4", "d8"])
def test_a_side_that_is_not_elementary_abelian_is_refused(G, structure):
    rep = mixed(G)
    assert not rep.is_mixed_dihedral
    assert rep.failure_reason.startswith("X and Y are not elementary abelian")
    assert rep.abelianization_structure == structure
    assert not scalar_is_mixed_dihedral(G)

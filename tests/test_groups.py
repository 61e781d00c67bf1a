import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from group_oracle import TableGroup, cosets, dihedral_code, dihedral_inv, dihedral_mul
from mdg import cli, f2, graphs, groups


G2 = groups.TensorGroup(2)
elem2 = st.integers(min_value=0, max_value=G2.order - 1)


def test_identity_laws():
    for g in G2.elements():
        assert G2.mul(g, 0) == g
        assert G2.mul(0, g) == g
        assert G2.mul(g, G2.inv(g)) == 0
        assert G2.mul(G2.inv(g), g) == 0


def test_xy_multiplication_order_matters():
    e1 = G2.x_gens[0]
    f1 = G2.y_gens[0]
    # xy = x + y; yx = x + y + x(x)y
    assert G2.mul(e1, f1) == G2.encode(1, 1, 0)
    assert G2.mul(f1, e1) == G2.encode(1, 1, f2.outer(1, 1, 2))


@given(elem2, elem2)
def test_commutator_closed_form(g1, g2):
    x1, y1, _ = G2.decode(g1)
    x2, y2, _ = G2.decode(g2)
    expect = G2.encode(0, 0, f2.outer(x1, y2, 2) ^ f2.outer(x2, y1, 2))
    assert groups.commutator(G2, g1, g2) == expect


def test_inv_fixed_points():
    # g is an involution (or trivial) exactly when the x/y parts have
    # zero outer product
    for g in G2.elements():
        x, y, _ = G2.decode(g)
        assert (G2.inv(g) == g) == (f2.outer(x, y, 2) == 0)


def test_closure_and_budget(monkeypatch):
    assert len(groups.closure(G2, G2.gens)) == 256
    monkeypatch.setattr(groups, "DEFAULT_BUDGET", 10)
    with pytest.raises(groups.BudgetExceeded):
        groups.closure(G2, G2.gens)


def test_verify_presentation():
    assert groups.verify_presentation(G2)
    assert groups.verify_presentation(groups.TensorGroup(3))


class Broken(groups.TensorGroup):
    # drop the tensor correction term from both arithmetics, so that this
    # is one consistent (abelian) group of the wrong order
    def mul(self, g1, g2):
        return g1 ^ g2

    def mul_vec(self, g1, g2):
        return np.asarray(g1, dtype=np.uint64) ^ np.asarray(g2, dtype=np.uint64)


def test_verify_presentation_mutation():
    assert not groups.verify_presentation(Broken(2))


def test_derived_subgroup_is_pure_tensors():
    derived = groups.derived_subgroup(G2)
    assert derived == [G2.encode(0, 0, a) for a in range(16)]
    assert derived == groups.center(G2)


def test_abelianization_structure():
    derived = groups.derived_subgroup(G2)
    assert groups.abelianization_structure(G2, derived) == [2, 2, 2, 2]


def test_is_mixed_dihedral_tensor_backend():
    rep = groups.is_mixed_dihedral(G2)
    assert rep.is_mixed_dihedral
    assert rep.order == 256
    assert rep.derived_subgroup_order == 16
    assert rep.abelianization_structure == [2, 2, 2, 2]


def test_dihedral_product_relations():
    D = groups.DihedralProduct(4, 4)
    assert D.order == 64
    for x, y, m in zip(D.x_gens, D.y_gens, D.ms):
        assert D.mul(x, x) == 0
        assert D.mul(y, y) == 0
        xy = D.mul(x, y)
        p = 0
        for _ in range(m):
            p = D.mul(p, xy)
        assert p == 0


def test_dihedral_product_mixed():
    rep = groups.is_mixed_dihedral(groups.DihedralProduct(4, 4))
    assert rep.is_mixed_dihedral
    assert rep.derived_subgroup_order == 4


def test_dihedral_odd_factor_is_not_mixed():
    # D_6: the derived subgroup is C_3, so the abelianization is C_2 x C_2
    # of rank 2, not the required rank 2n = 2 with order 4 ... the actual
    # computed verdict: abelianization [2], derived order 3 -> refusal.
    rep = groups.is_mixed_dihedral(groups.DihedralProduct(3))
    assert not rep.is_mixed_dihedral
    assert rep.derived_subgroup_order == 3
    assert rep.abelianization_structure == [2]
    assert "abelianization" in rep.failure_reason


def test_dihedral_center():
    D = groups.DihedralProduct(4, 4)
    assert len(groups.center(D)) == 4
    assert len(groups.derived_subgroup(D)) == 4


def test_cosets():
    X = groups.closure(G2, G2.x_gens)
    cos, index = graphs.right_cosets(G2, X)
    assert len(cos) == 64
    assert all(len(c) == 4 for c in cos)
    assert sorted(v for c in cos for v in c) == list(range(256))
    members = G2.mul_vec(np.array(X)[None, :], np.arange(256)[:, None])
    assert np.array_equal(cos[index], np.sort(members, axis=1))
    whole, index = graphs.right_cosets(G2, list(G2.elements()))
    assert whole.tolist() == [list(G2.elements())] and not index.any()
    assert cos.tolist() == cosets(G2, X).tolist()


def test_coset_intersections_at_most_one():
    X = groups.closure(G2, G2.x_gens)
    Y = groups.closure(G2, G2.y_gens)
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
    assert T.mul(1, 2) == 3
    assert T.inv(3) == 3
    assert len(groups.closure(T, [1, 2])) == 4


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
    """[a, b] from four scalar products, sharing no code with the array one."""
    return G.mul(G.mul(G.mul(G.inv(a), G.inv(b)), a), b)


def test_mul_vec_matches_scalar():
    rng = np.random.default_rng(0)
    G3 = groups.TensorGroup(3)
    a = rng.integers(0, G3.order, 500, dtype=np.uint64)
    b = rng.integers(0, G3.order, 500, dtype=np.uint64)
    prod = G3.mul_vec(a, b)
    invs = G3.inv_vec(a)
    for i in range(500):
        assert int(prod[i]) == G3.mul(int(a[i]), int(b[i])) == closed_mul(G3, int(a[i]), int(b[i]))
        assert int(invs[i]) == G3.inv(int(a[i])) == closed_inv(G3, int(a[i]))


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
        a = b = list(G.elements())
    va, vb = np.array(a, dtype=np.uint64), np.array(b, dtype=np.uint64)
    want = [[closed_mul(G, p, q) for q in b] for p in a]
    # (k, 1) x (m,), and a scalar on either side
    assert G.mul_vec(va[:, None], vb).tolist() == want
    assert G.mul_vec(a[0], vb).tolist() == want[0]
    assert G.mul_vec(va, b[-1]).tolist() == [row[-1] for row in want]
    assert int(G.mul_vec(a[1], b[2])) == want[1][2]
    products = [G.mul(p, q) for p, q in zip(a, b)]
    assert all(type(p) is int for p in products)
    assert products == [want[i][i] for i in range(len(products))]
    assert G.inv_vec(va).tolist() == [G.inv(g) for g in a] == [closed_inv(G, g) for g in a]
    assert type(G.inv(a[0])) is int
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
    assert table.tolist() == [[G.mul(a, b) for b in G.elements()] for a in G.elements()]
    assert np.asarray(G.inv_vec(codes)).tolist() == [G.inv(a) for a in G.elements()]
    # a scalar on either side broadcasts
    assert np.asarray(G.mul_vec(codes, 1)).tolist() == [G.mul(a, 1) for a in G.elements()]


@pytest.mark.parametrize("ms", [(4, 4), (2, 4, 6), (3,), (5, 7), (1, 2)])
def test_dihedral_arithmetic_matches_the_factor_oracle(ms):
    D = groups.DihedralProduct(*ms)
    codes = np.arange(D.order)
    assert D.mul_vec(codes[:, None], codes[None, :]).tolist() == \
        [[dihedral_mul(ms, a, b) for b in codes.tolist()] for a in codes.tolist()]
    assert [D.mul(a, b) for a in (0, 1, D.order - 1) for b in codes.tolist()] == \
        [dihedral_mul(ms, a, b) for a in (0, 1, D.order - 1) for b in codes.tolist()]
    assert [D.inv(a) for a in codes.tolist()] == [dihedral_inv(ms, a) for a in codes.tolist()]
    assert type(D.mul(1, 1)) is int and type(D.inv(1)) is int
    one = lambda i, k: [(1, k % m) if j == i else (0, 0) for j, m in enumerate(ms)]
    assert D.x_gens == [dihedral_code(ms, one(i, 0)) for i in range(len(ms))]
    assert D.y_gens == [dihedral_code(ms, one(i, 1)) for i in range(len(ms))]


@pytest.mark.parametrize("G", [G2, groups.DihedralProduct(2, 4, 6)],
                         ids=["tensor-2", "dihedral-2-4-6"])
def test_subgroup_order_is_the_same_for_every_block_size(G, monkeypatch):
    subsets = (G.gens, G.x_gens, G.y_gens, cli.derived_basis(G), G.gens[:1], [])
    want = [len(groups.closure_array(G, gens)) for gens in subsets]
    for chunk in (1, 7, groups.CHUNK):
        monkeypatch.setattr(groups, "CHUNK", chunk)
        assert [groups.subgroup_order(G, gens) for gens in subsets] == want


@pytest.mark.parametrize("n", [2, 3])
def test_tensor_inverse_matches_the_closed_form(n):
    # (x, y, A)^-1 = (x, y, A + outer(x, y))
    G = groups.TensorGroup(n)
    want = [g ^ (f2.outer(*G.decode(g)[:2], n) << (2 * n)) for g in G.elements()]
    assert [G.inv(g) for g in G.elements()] == want
    assert G.inv_vec(np.arange(G.order)).tolist() == want


@pytest.mark.parametrize("table", [[[0, 1], [1, 1]], [], [[0, 1]], [[0, 1], [1]]])
def test_table_group_rejects_a_malformed_table(table):
    with pytest.raises(ValueError):
        TableGroup(table)


def test_center_of_s3_and_dihedral_products():
    assert groups.center(BACKENDS["table-s3"]) == [0]
    D = groups.DihedralProduct(3, 4)
    # D_6 has a trivial center, D_8 a center of order 2
    assert len(groups.center(D)) == 2
    assert groups.center(D) == [z for z in D.elements()
                                if all(D.mul(z, h) == D.mul(h, z) for h in D.elements())]


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
    assert groups.center(G) == brute_center(G)


@pytest.mark.parametrize("chunk", [1, 7, groups.CHUNK])
@pytest.mark.parametrize("name", sorted(BACKENDS))
def test_center_is_the_same_for_every_block_size(name, chunk, monkeypatch):
    G = BACKENDS[name]
    monkeypatch.setattr(groups, "CHUNK", chunk)
    assert groups.center(G) == brute_center(G)


def test_center_of_a_large_dihedral_product():
    # order 160,800; D_2m has a center of order 2 for even m and 1 for odd m
    D = groups.DihedralProduct(200, 201)
    z = groups.center(D)
    assert len(z) == 2 and z[0] == 0
    assert all(D.mul(z[1], g) == D.mul(g, z[1]) for g in D.gens)


# -- the array closure against a scalar breadth-first oracle ---------------

def scalar_closure(G, gens):
    """Subgroup generated by ``gens`` by breadth-first search, one scalar
    product at a time."""
    seen = {G.identity}
    seen.update(gens)
    frontier = sorted(seen)
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                p = G.mul(a, g)
                if p not in seen:
                    seen.add(p)
                    new.append(p)
        frontier = new
    return sorted(seen)


def scalar_derived_subgroup(G):
    """Normal closure of the generator commutators, by scalar products."""
    comms = {scalar_commutator(G, a, b) for a in G.gens for b in G.gens} - {G.identity}
    while True:
        sub = scalar_closure(G, sorted(comms))
        conj = {G.mul(G.mul(G.inv(g), z), g) for z in sub for g in G.gens} - set(sub)
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
        return (all(G.mul(a, a) == G.identity for a in S)
                and all(G.mul(a, b) == G.mul(b, a) for a in S for b in S))

    return (len(X) == len(Y) == 1 << n and elementary_abelian(X) and elementary_abelian(Y)
            and len(scalar_closure(G, G.gens)) == G.order
            and all(G.mul(g, g) in derived for g in G.elements())
            and G.order == len(derived) << (2 * n))


@pytest.mark.parametrize("n", [2, 3])
def test_closure_matches_the_scalar_oracle_on_tensor_groups(n):
    G = groups.TensorGroup(n)
    for gens in (G.gens, G.x_gens, G.y_gens, cli.derived_basis(G)):
        assert groups.closure(G, gens) == scalar_closure(G, gens)
    assert groups.derived_subgroup(G) == scalar_derived_subgroup(G)


def test_closure_matches_the_scalar_oracle_on_every_subset_of_s3():
    T = BACKENDS["table-s3"]
    for k in range(T.order + 1):
        for gens in itertools.combinations(T.elements(), k):
            assert groups.closure(T, gens) == scalar_closure(T, gens)


def test_derived_subgroup_takes_the_normal_closure():
    # S_4 from a transposition and a 4-cycle: the commutator of the two
    # generates a cyclic subgroup that is not normal, and the derived
    # subgroup is all of A_4
    perms = list(itertools.permutations(range(4)))
    T = TableGroup(_symmetric_table(4), x_gens=[perms.index((1, 0, 2, 3))],
                          y_gens=[perms.index((1, 2, 3, 0))])
    assert len(scalar_closure(T, cli.derived_basis(T))) < 12
    derived = groups.derived_subgroup(T)
    assert len(derived) == 12
    assert derived == scalar_derived_subgroup(T)


dihedral_products = st.lists(st.integers(1, 6), min_size=1, max_size=3).map(
    lambda ms: groups.DihedralProduct(*ms))


@settings(max_examples=30, deadline=None)
@given(dihedral_products, st.data())
def test_closure_matches_the_scalar_oracle_on_dihedral_products(D, data):
    codes = st.integers(0, D.order - 1)
    for gens in (D.gens, D.x_gens, D.y_gens, data.draw(st.lists(codes, max_size=4)),
                 data.draw(st.lists(st.sampled_from(D.gens), unique=True))):
        assert groups.closure(D, gens) == scalar_closure(D, gens)


@settings(max_examples=30, deadline=None)
@given(dihedral_products)
def test_group_claims_match_the_scalar_oracle_on_dihedral_products(D):
    derived = scalar_derived_subgroup(D)
    assert groups.derived_subgroup(D) == derived
    rep = groups.is_mixed_dihedral(D)
    assert rep.is_mixed_dihedral == scalar_is_mixed_dihedral(D)
    assert rep.derived_subgroup_order == len(derived)


# -- the relations against a scalar oracle ---------------------------------

def scalar_relations_hold(G, xs, ys) -> bool:
    """The presentation's relations, one pair of elements at a time."""
    e, comm = G.identity, lambda a, b: scalar_commutator(G, a, b)
    cs = [comm(a, b) for a in xs for b in ys]
    return (all(G.mul(a, a) == e for a in xs + ys)
            and all(comm(a, b) == e for side in (xs, ys) for a in side for b in side)
            and all(G.mul(c, c) == e for c in cs)
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
    assert all(T.mul(g, g) == 0 for g in xs + ys + cs)
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
    rep = groups.is_mixed_dihedral(G)
    assert not rep.is_mixed_dihedral
    assert rep.failure_reason.startswith("X and Y are not elementary abelian")
    assert rep.abelianization_structure == structure
    assert not scalar_is_mixed_dihedral(G)

import pytest
from hypothesis import given, strategies as st

from group_oracle import mat_transpose
from mdg import f2, permgroups as pg


def entry(m, i, j, n):
    """Entry (i, j) of a packed matrix: bit i*n + j."""
    return (m >> (i * n + j)) & 1


def vec(n):
    return st.integers(min_value=0, max_value=(1 << n) - 1)


def mat(n):
    return st.integers(min_value=0, max_value=(1 << (n * n)) - 1)


def test_outer_zero_and_basis():
    assert f2.outer(0, 0b11, 2) == 0
    assert f2.outer(0b11, 0, 2) == 0
    # e_1 (x) f_1 has a single 1 at (0, 0)
    assert f2.outer(1, 1, 2) == 1


def test_outer_hand_example():
    # x = (1,1), y = (0,1): entry (i,j) = x_i y_j -> [[0,1],[0,1]]
    m = f2.outer(0b11, 0b10, 2)
    expect = [[0, 1], [0, 1]]
    for i in range(2):
        for j in range(2):
            assert entry(m, i, j, 2) == expect[i][j]


@given(vec(3), vec(3), vec(3))
def test_outer_bilinear(x, x2, y):
    n = 3
    assert f2.outer(x ^ x2, y, n) == f2.outer(x, y, n) ^ f2.outer(x2, y, n)
    assert f2.outer(y, x ^ x2, n) == f2.outer(y, x, n) ^ f2.outer(y, x2, n)


def test_outer_dimension_check():
    with pytest.raises(ValueError):
        f2.outer(0b100, 0, 2)


def test_mat_row_roundtrip():
    rows = [0b101, 0b010, 0b111]
    m = f2.mat_from_rows(rows, 3)
    assert [f2.mat_row(m, i, 3) for i in range(3)] == rows


def test_identity_and_transvections():
    for n in (2, 3):
        eye = f2.identity_mat(n)
        assert all(entry(eye, i, j, n) == (i == j) for i in range(n) for j in range(n))
    t = f2.transvection(0, 1, 2)
    assert f2.mat_mul(t, t, 2) == f2.identity_mat(2)  # an involution, so invertible
    with pytest.raises(ValueError):
        f2.transvection(1, 1, 2)


@given(mat(3))
def test_transpose_involution(m):
    assert mat_transpose(mat_transpose(m, 3), 3) == m


@given(mat(3), mat(3), mat(3))
def test_mat_mul_associative(a, b, c):
    n = 3
    assert f2.mat_mul(f2.mat_mul(a, b, n), c, n) == f2.mat_mul(a, f2.mat_mul(b, c, n), n)


@given(vec(3), mat(3), mat(3))
def test_vec_mat_is_action(x, a, b):
    n = 3
    assert f2.vec_mat(f2.vec_mat(x, a, n), b, n) == f2.vec_mat(x, f2.mat_mul(a, b, n), n)


def test_gl_generators_closure_orders():
    # GL(n, 2) acts faithfully on the 2^n - 1 nonzero vectors: each
    # generator must permute them (as_perm rejects a singular matrix), and
    # the permutation group they generate must have order |GL(n, 2)|
    for n, order in ((2, 6), (3, 168), (4, 20160)):
        perms = [pg.as_perm([f2.vec_mat(v, m, n) - 1 for v in range(1, 1 << n)])
                 for m in f2.gl_generators(n)]
        assert pg.PermGroup(perms).order() == order == f2.gl_order(n)


def test_gl_order_values():
    assert f2.gl_order(1) == 1
    assert f2.gl_order(2) == 6
    assert f2.gl_order(3) == 168
    with pytest.raises(ValueError):
        f2.gl_generators(1)


def test_dimension_cap():
    with pytest.raises(ValueError):
        f2.identity_mat(8)
    f2.identity_mat(7)  # the cap itself is fine

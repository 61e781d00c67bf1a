"""Linear algebra over F_2 with bit-packed vectors and matrices.

A vector of length n is an int whose bit i is coordinate i (little-endian).
An n x n matrix is an int holding the rows contiguously: bit i*n + j is
entry (i, j).  Only what the group construction needs is provided here;
there is deliberately no general rank / solve machinery.

Dimension is capped at MAX_DIM so a packed group element (n^2 + 2n bits)
always fits in 63 bits.
"""

MAX_DIM = 7


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(f"dimension must be in [1, {MAX_DIM}], got {n}")


def vec_mask(n: int) -> int:
    return (1 << n) - 1


def outer(x: int, y: int, n: int) -> int:
    """Outer product of two length-n vectors: entry (i, j) = x_i * y_j.

    Row i of the result is y when bit i of x is set, else zero.
    """
    _check_dim(n)
    if x >> n or y >> n:
        raise ValueError("vector does not fit in dimension n")
    m = 0
    for i in range(n):
        if (x >> i) & 1:
            m |= y << (i * n)
    return m


def mat_row(m: int, i: int, n: int) -> int:
    return (m >> (i * n)) & vec_mask(n)


def mat_from_rows(rows, n: int) -> int:
    m = 0
    for i, r in enumerate(rows):
        m |= (r & vec_mask(n)) << (i * n)
    return m


def identity_mat(n: int) -> int:
    _check_dim(n)
    return mat_from_rows([1 << i for i in range(n)], n)


def transvection(i: int, j: int, n: int) -> int:
    """Identity matrix plus a single off-diagonal 1 at (i, j), i != j."""
    if i == j:
        raise ValueError("transvection needs i != j")
    return identity_mat(n) | (1 << (i * n + j))


def vec_mat(x: int, m: int, n: int) -> int:
    """Row vector times matrix: XOR of the rows of m selected by bits of x."""
    r = 0
    for i in range(n):
        if (x >> i) & 1:
            r ^= mat_row(m, i, n)
    return r


def mat_mul(a: int, b: int, n: int) -> int:
    """Matrix product over F_2: row i of the result is row_i(a) . b."""
    return mat_from_rows([vec_mat(mat_row(a, i, n), b, n) for i in range(n)], n)


def gl_generators(n: int) -> list[int]:
    """All elementary transvections T_ij (i != j); they generate GL(n, 2).

    Deterministic order: i ascending, then j ascending.
    """
    if n < 2:
        raise ValueError("gl_generators needs n >= 2")
    _check_dim(n)
    return [transvection(i, j, n) for i in range(n) for j in range(n) if i != j]


def gl_order(n: int) -> int:
    """|GL(n, 2)| = prod_{i=0}^{n-1} (2^n - 2^i)."""
    _check_dim(n)
    order = 1
    for i in range(n):
        order *= (1 << n) - (1 << i)
    return order


"""Finite 2-groups generated by two elementary abelian subgroups X and Y.

Three concrete backends are provided:

* ``TensorGroup(n)`` -- the group on F_2^n + F_2^n + F_2^{n x n} whose
  product twists the matrix part by an outer product of the vector parts.
  Elements are packed little-endian as [x bits | y bits | A bits row-major]
  into a single int, which doubles as the canonical vertex code downstream.
* ``DihedralProduct(m_1, ..., m_n)`` -- a direct product of dihedral groups
  of orders 2*m_i, with X the flips and Y the flipped rotations.
* ``Elementary(n)`` -- F_2^n + F_2^n under addition, the tensor group
  modulo its derived subgroup, with X and Y the two summands.

Every backend exposes elements as canonical integer codes in
``range(order)`` and its product and inverse as the elementwise array
operations ``mul_vec``/``inv_vec``; closures, subgroup and quotient
computations all run over codes so one engine serves every backend.  A
subgroup is a sorted int64 array of codes.
"""

from collections import namedtuple

import numpy as np

from . import f2

#: Largest group order the enumeration-based operations will touch.
DEFAULT_BUDGET = 1 << 24

#: The block budget of every array pass over codes, graph rows or pairs but
#: ``autsearch.refine``'s, which read their rows whole (the CLI refines only
#: Sigma(2) and Sigma(3), 8,192 rows of 8): a block holds at most about CHUNK
#: 8-byte temporaries in all, a graph row weighing its slots, padding
#: included.  ``_blocks`` is the one place where blocks are sized from it; a
#: pass inside another's block takes its own.  Arrays as long as the graph
#: are stored in ``graphs._index_dtype`` widths.
CHUNK = 1 << 15


def _blocks(count: int, per_item: int = 1):
    """Consecutive ranges (lo, hi) covering range(count), each of CHUNK //
    per_item items or one, ``per_item`` a pass's 8-byte temporaries per item."""
    step = max(1, CHUNK // max(1, per_item))
    return ((lo, min(lo + step, count)) for lo in range(0, count, step))


class BudgetExceeded(Exception):
    pass


def check_budget(order: int) -> None:
    if order > DEFAULT_BUDGET:
        raise BudgetExceeded(f"group order {order} exceeds enumeration budget {DEFAULT_BUDGET}")


class TensorGroup:
    """The 2-group of order 2^(n^2+2n) generated by X and Y.

    An element is a triple (x, y, A) with x, y in F_2^n and A an n x n
    matrix over F_2; the product of (x1, y1, A1) and (x2, y2, A2) is
    (x1+x2, y1+y2, A1+A2+outer(x2, y1)) and the inverse of (x, y, A) is
    (x, y, A+outer(x, y)).  Identity is code 0.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        f2._check_dim(n)
        self.n = n
        self.order = 1 << (n * n + 2 * n)
        self.identity = 0
        self.x_gens = [self.encode(1 << i, 0, 0) for i in range(n)]
        self.y_gens = [self.encode(0, 1 << i, 0) for i in range(n)]
        self.gens = self.x_gens + self.y_gens
        self._vmask = f2.vec_mask(n)
        # the product's matrix term outer(x2, y1), shifted into place, at
        # entry y1 2^n + x2: y1 sits in bits n..2n-1 of the left code and
        # x2 in bits 0..n-1 of the right one, so they index it unshifted
        self._twist = np.array([f2.outer(x, y, n) << (2 * n)
                                for y in range(1 << n) for x in range(1 << n)], dtype=np.uint64)

    def encode(self, x: int, y: int, a: int) -> int:
        n = self.n
        return x | (y << n) | (a << (2 * n))

    def decode(self, code: int) -> tuple[int, int, int]:
        n, code = self.n, int(code)
        return code & self._vmask, (code >> n) & self._vmask, code >> (2 * n)

    def decode_vec(self, codes) -> list[np.ndarray]:
        """x, y and the n rows of A of each code, as uint64 bit-mask arrays:
        the code's n + 2 fields of n bits."""
        codes, mask = np.asarray(codes, dtype=np.uint64), np.uint64(self._vmask)
        return [(codes >> np.uint64(self.n * i)) & mask for i in range(self.n + 2)]

    def mul_vec(self, g1, g2):
        """Elementwise (broadcast) product of two uint64 code arrays: the
        XOR of the codes and one gather from the twist table."""
        g1 = np.asarray(g1, dtype=np.uint64)
        g2 = np.asarray(g2, dtype=np.uint64)
        term = np.asarray((g1 & np.uint64(self._vmask << self.n)) | (g2 & np.uint64(self._vmask)))
        out = g1 ^ g2
        # gathered in place: the table index of each entry is read before
        # the entry is written, and "clip" mode takes no buffered copy
        np.take(self._twist, term.view(np.int64), out=term, mode="clip")
        out ^= term
        return out

    def inv_vec(self, g):
        # g^2 = (0, 0, outer(x, y)), so g ^ g^2 = (x, y, A + outer(x, y))
        g = np.asarray(g, dtype=np.uint64)
        return g ^ self.mul_vec(g, g)

    def word_images(self, x_imgs, y_imgs, codes=None) -> np.ndarray:
        """Images of ``codes`` (default: every code), as int64, under the map
        sending x_i to x_imgs[i] and y_j to y_imgs[j]: the code (x, y, A) is
        the x-word times the y-word times [x_i, y_j] over the set bits (i, j)
        of A.  When the images satisfy the relations this is, by von Dyck,
        the endomorphism they define.  The codes are taken a block at a
        time (``_blocks``)."""
        codes = None if codes is None else np.asarray(codes, dtype=np.uint64)
        tables = []
        for imgs in (x_imgs, y_imgs):
            # the word of every vector: table[k | 1 << i] = table[k] . imgs[i]
            table = np.array([self.identity], dtype=np.uint64)
            for g in imgs:
                table = np.concatenate([table, self.mul_vec(table, g)])
            tables.append(table)
        # every x-word times every y-word: the word of (x, y) is entry
        # y 2^n + x of the products, the code's low 2n bits
        words = self.mul_vec(tables[0][None, :], tables[1][:, None]).ravel()
        # a commutator is a central (0, 0, B): right multiplication XORs in B;
        # bit (i, j) of A is bit 2n + i n + j of the code
        comms = commutator(self, np.asarray(x_imgs, dtype=np.uint64)[:, None],
                           np.asarray(y_imgs, dtype=np.uint64)).ravel()
        shifts = np.arange(2 * self.n, 2 * self.n + len(comms), dtype=np.uint64)
        size = self.order if codes is None else len(codes)
        out = np.empty(size, dtype=np.uint64)
        for lo, hi in _blocks(size):
            block = np.arange(lo, hi, dtype=np.uint64) if codes is None else codes[lo:hi]
            part = out[lo:hi]
            # an int64 view and "clip" mode: no copy of the indices, no buffered output
            np.take(words, (block & np.uint64((1 << (2 * self.n)) - 1)).view(np.int64),
                    out=part, mode="clip")
            term = np.empty_like(part)  # one buffer holds each term in turn
            for shift, comm in zip(shifts, comms):
                np.right_shift(block, shift, out=term)
                term &= np.uint64(1)
                term *= comm
                part ^= term
        return out.view(np.int64)


class Elementary:
    """F_2^(2n) under XOR, with x_i bit i and y_i bit n + i of the code."""

    def __init__(self, n: int):
        self.n, self.order, self.identity = n, 1 << (2 * n), 0
        self.x_gens, self.y_gens = [1 << i for i in range(n)], [1 << (n + i) for i in range(n)]
        self.gens = self.x_gens + self.y_gens

    def mul_vec(self, g1, g2):
        return np.asarray(g1, dtype=np.uint64) ^ np.asarray(g2, dtype=np.uint64)

    def inv_vec(self, g):
        return np.asarray(g, dtype=np.uint64)


class DihedralProduct:
    """Direct product of dihedral groups D_{2m_i}.

    Each factor is encoded as flip * m + rotation, factors combined in a
    mixed-radix code.  In factor i, x_i is the bare flip and y_i = x_i r_i,
    so x_i^2 = y_i^2 = (x_i y_i)^{m_i} = 1.
    """

    def __init__(self, *ms: int):
        if not ms or any(m < 1 for m in ms):
            raise ValueError("need factor orders m_i >= 1")
        self.ms = tuple(ms)
        self.n = len(ms)
        self.order = 1
        for m in ms:
            self.order *= 2 * m
        self.identity = 0
        flip = lambda i, rot: int(self._undigits((1, rot % m) if j == i else (0, 0)
                                                 for j, m in enumerate(ms)))
        self.x_gens = [flip(i, 0) for i in range(self.n)]
        self.y_gens = [flip(i, 1) for i in range(self.n)]
        self.gens = self.x_gens + self.y_gens

    # The arithmetic, on int64 arrays of mixed-radix codes.

    def _digits(self, g):
        """(flip, rotation) arrays of every factor, least significant first."""
        g = np.asarray(g, dtype=np.int64)
        out = []
        for m in self.ms:
            g, v = np.divmod(g, 2 * m)
            out.append(np.divmod(v, m))
        return out

    def _undigits(self, digits):
        code, radix = 0, 1
        for m, (flip, rot) in zip(self.ms, digits):
            code = code + (flip * m + rot) * radix
            radix *= 2 * m
        return np.asarray(code, dtype=np.int64)

    def mul_vec(self, g1, g2):
        """Elementwise (broadcast) product of two int64 code arrays."""
        return self._undigits(
            (f1 ^ f2, np.where(f2 == 1, k2 - k1, k2 + k1) % m)
            for m, (f1, k1), (f2, k2) in zip(self.ms, self._digits(g1), self._digits(g2)))

    def inv_vec(self, g):
        return self._undigits((flip, np.where(flip == 1, rot, -rot % m))
                              for m, (flip, rot) in zip(self.ms, self._digits(g)))


def commutator(G, g1, g2):
    """[g1, g2] = g1^-1 g2^-1 g1 g2, elementwise over broadcast code arrays."""
    m = G.mul_vec
    return m(m(m(G.inv_vec(g1), G.inv_vec(g2)), g1), g2)


def _closure_mask(G, gens) -> np.ndarray:
    """Subgroup generated by ``gens``, as a boolean mask over every code
    (a byte each, to count subgroups as large as G): the identity's orbit
    under right multiplication, grown a breadth-first layer at a time and
    each layer a block of codes at a time."""
    check_budget(G.order)
    seen = np.zeros(G.order, dtype=bool)
    seen[G.identity] = True
    seen[list(gens)] = True
    frontier = np.flatnonzero(seen)
    new = np.zeros_like(seen)
    while frontier.size:
        new[:] = False
        for lo, hi in _blocks(len(frontier)):
            for g in gens:
                new[G.mul_vec(frontier[lo:hi], g)] = True
        new &= ~seen
        seen |= new
        frontier = np.flatnonzero(new)
    return seen


def closure_array(G, gens) -> np.ndarray:
    """Subgroup generated by ``gens``, as a sorted int64 array of codes,
    grown a breadth-first layer at a time with no mask over G, so its cost
    scales with the subgroup; BudgetExceeded past ``DEFAULT_BUDGET``
    elements."""
    gens = np.asarray(gens, dtype=np.int64)
    seen = frontier = np.array([G.identity], dtype=np.int64)
    while len(frontier):
        found = sorted_codes(G.mul_vec(frontier[:, None], gens[None, :]))
        frontier = found[~np.isin(found, seen, assume_unique=True)]
        seen = sorted_codes(np.concatenate([seen, frontier]))
        check_budget(len(seen))
    return seen


def sorted_codes(codes) -> np.ndarray:
    """Distinct codes, sorted, as int64 (np.unique imports numpy.ma)."""
    codes = np.sort(np.asarray(codes, dtype=np.int64), axis=None)
    return codes[np.diff(codes, prepend=-1) != 0]


def in_sorted(codes, members) -> np.ndarray:
    """Whether each code lies in the nonempty sorted int64 ``members``, by
    binary search (np.isin of codes with repeats imports numpy.ma)."""
    codes = np.asarray(codes, dtype=np.int64)
    return members[np.searchsorted(members, codes).clip(max=len(members) - 1)] == codes


def sides(G) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """X = <G.x_gens>, Y = <G.y_gens> and X u Y as sorted codes;
    ValueError unless X n Y = {1}."""
    X, Y = (closure_array(G, gens) for gens in (G.x_gens, G.y_gens))
    codes = sorted_codes(np.concatenate([X, Y]))
    if len(codes) != len(X) + len(Y) - 1:
        raise ValueError("X and Y meet in more than 1")
    return X, Y, codes


def subgroup_order(G, gens) -> int:
    """|<gens>|, counted on the closure's mask without listing it."""
    return int(np.count_nonzero(_closure_mask(G, gens)))


def derived_subgroup(G) -> np.ndarray:
    """Normal closure of the commutators of generator pairs, grown until
    every generator's conjugates of it lie in it (``in_sorted``)."""
    check_budget(G.order)
    gens = np.asarray(G.gens, dtype=np.int64)
    comms = sorted_codes(commutator(G, gens[:, None], gens))
    while True:
        sub = closure_array(G, comms)
        # each generator's conjugates of sub in turn, and those outside it
        conj = np.concatenate([c[~in_sorted(c, sub)] for c in (
            G.mul_vec(G.mul_vec(G.inv_vec(g), sub), g) for g in G.gens)]).astype(np.int64)
        if not len(conj):
            return sub
        comms = sorted_codes(np.concatenate([comms, conj]))


def commutes_with_gens(G, codes) -> np.ndarray:
    """Whether each code (int64) commutes with every generator in ``G.gens``."""
    return np.logical_and.reduce([G.mul_vec(codes, g) == G.mul_vec(g, codes) for g in G.gens])


def coset_words(G, N):
    """The words of ``G.gens``, word v their product over the bits of v, as
    int64, and ``names``, which maps codes to the word in each one's coset
    of N (sorted codes); ValueError unless the words lie in distinct cosets."""
    words = np.array([G.identity], dtype=np.int64)
    for g in G.gens:
        words = np.concatenate([words, np.asarray(G.mul_vec(words, g), dtype=np.int64)])
    inv = G.inv_vec(words)

    def names(codes):
        hit = np.concatenate([in_sorted(G.mul_vec(inv, codes[lo:hi, None]), N)
                              for lo, hi in _blocks(len(codes), 3 * len(words))])
        if not hit.any(axis=1).all():
            raise ValueError("a code shares a coset of N with no word of the generators")
        return hit.argmax(axis=1)

    if not np.array_equal(names(words), np.arange(len(words))):
        raise ValueError(f"the generators have rank < {len(G.gens)} in G/N")
    return words, names


def is_center(G, generated: int, N) -> bool:
    """Whether N (sorted codes) is the centre of <G.gens>, of order
    ``generated``, from the generators' words (README): N is central, the
    words are a transversal of N, and no word but 1 is central."""
    words, _ = coset_words(G, N)
    return bool(commutes_with_gens(G, N).all() and len(words) * len(N) == generated
                and np.flatnonzero(commutes_with_gens(G, words)).tolist() == [0])


def relations_hold(G, xs, ys) -> bool:
    """Whether xs, ys satisfy the 2n-generator presentation's relations:
    x_i^2 = y_i^2 = 1, the x's commute, the y's commute, [x_i, y_j]^2 = 1
    and [[x_i, y_j], x_k] = [[x_i, y_j], y_k] = 1."""
    xs, ys = np.asarray(xs, dtype=np.int64), np.asarray(ys, dtype=np.int64)
    gens = np.concatenate([xs, ys])
    c = commutator(G, xs[:, None], ys).ravel()
    return all(np.all(w == G.identity) for w in (
        G.mul_vec(gens, gens), commutator(G, xs[:, None], xs), commutator(G, ys[:, None], ys),
        G.mul_vec(c, c), commutator(G, c[:, None], gens)))


def verify_presentation(G: TensorGroup, generated: int) -> bool:
    """True iff the generators satisfy ``relations_hold`` and generate, as
    ``generated`` = |<G.gens>| counts, the full 2^(n^2+2n) elements (the
    counting bound that pins the abstract presentation down to this group)."""
    n = G.n
    return relations_hold(G, G.x_gens, G.y_gens) and generated == G.order == 1 << (n * n + 2 * n)


MixedDihedralReport = namedtuple(
    "MixedDihedralReport", "is_mixed_dihedral order derived_subgroup_order "
    "abelianization_structure failure_reason", defaults=(None,))


def _elementary_abelian_rank(G, gens) -> int | None:
    """log2 of |<gens>| if <gens> is elementary abelian, that is when its
    generators are commuting involutions."""
    gens = np.asarray(gens, dtype=np.int64)
    if np.all(G.mul_vec(gens, gens) == G.identity) and np.all(
            commutator(G, gens[:, None], gens) == G.identity):
        return len(closure_array(G, gens)).bit_length() - 1
    return None


def abelianization_structure(G, derived: np.ndarray) -> list[int]:
    """Cyclic factor orders of G/G', specialised to exponent-2 quotients.

    The quotient of any group by its derived subgroup is abelian; here we
    only need to distinguish C_2^k (every generator squares into G') from
    anything else, so no Smith normal form is required.
    """
    index = G.order // len(derived)
    gens = np.asarray(G.gens, dtype=np.int64)
    if np.isin(sorted_codes(G.mul_vec(gens, gens)), derived, assume_unique=True).all():
        rank = index.bit_length() - 1
        if 1 << rank == index:
            return [2] * rank
    # fall back to reporting the bare quotient order as one factor
    return [index]


def is_mixed_dihedral(G, generated: int, derived: np.ndarray, ab: list[int]) -> MixedDihedralReport:
    """Decide whether G is mixed dihedral relative to its X and Y, given
    |<G.gens>| (``generated``), the derived subgroup and the structure of
    G/G' (``abelianization_structure``).

    Requires X and Y elementary abelian of equal order 2^n, X and Y
    together generating G, and G/G' elementary abelian of order 2^(2n).
    """
    def fail(reason):
        return MixedDihedralReport(False, G.order, len(derived), ab, reason)

    rx = _elementary_abelian_rank(G, G.x_gens)
    ry = _elementary_abelian_rank(G, G.y_gens)
    if rx is None or ry is None or rx != ry:
        return fail("X and Y are not elementary abelian of equal order 2^n")
    n = rx
    if generated != G.order:
        return fail("X and Y do not generate the whole group")
    if ab != [2] * (2 * n):
        return fail(f"abelianization is {ab}, expected C_2^{2 * n}")
    return MixedDihedralReport(True, G.order, len(derived), ab)

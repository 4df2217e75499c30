"""Exact rational linear algebra: a p-adic (Dixon) solver for linear systems
of full column rank, and a phase-1 simplex for the feasibility of
{A x = b, x >= 0}, with Farkas certificates.

The solver works on integers only: an LU factorization modulo one word-size
prime, p-adic lifting of the solution (Dixon, Numer. Math. 40, 1982), and
rational reconstruction of every entry (von zur Gathen and Gerhard, Modern
Computer Algebra, section 5.10).  A reconstructed candidate is returned only
after it satisfies every equation exactly.

The factorization and the triangular solves of the lifting run on packed
rows: one Python int holds a whole row (or column) of residues, each in its
own byte-aligned lane of w bits, so that one elimination step on a row is a
shift, one small-by-big multiply and an add, all inside CPython's big-int
code (SIMD within a register, as in `rng.SplitMix64.blocks`).  Lanes are not
reduced after each step; w is wide enough for every step to the last
(delayed modular reduction, Dumas, Giorgi and Pernet, ACM TOMS 35, 2008),
and a lane is reduced modulo p only where its value is read.  Ints enter
lanes only through `_pack` (one `int.to_bytes` per value, joined), for
lanes of any width.  They leave by three reads: `_unpack_mod` reduces the
lowest lanes of a row, slices of one `int.to_bytes`; `_lu_mod` and the
triangular `sweep` read lane 0 alone, by a mask, and reduce it; and
`_residual_divider` reads its own biased lanes back by slicing one
`to_bytes`, exact and unreduced.

The simplex minimizes the sum of one artificial variable per row (rows are
sign-normalized so the right-hand side is nonnegative).  Bland's smallest
index rule is used for both the entering and the leaving choice, so the
pivoting cannot cycle and terminates on every input.  It pivots on integers
over one common denominator (Edmonds, J. Res. NBS 71B, 1967; Bareiss, Math.
Comp. 22, 1968): the optimum of zero is detected exactly, never within a
tolerance.

If the optimum is positive the system is infeasible and the dual vector of
the phase-1 optimum is returned: a y with y^T A <= 0 componentwise and
y^T b > 0, which is a self-contained contradiction with x >= 0.
`farkas_contradiction` re-checks a certificate mechanically, independent of
how it was produced, on integer numerators over one denominator per row.

The coefficient matrix A is an int matrix, such as the 0/1 incidence matrix
of `contextuality.global_section_system` or the balance system of
`dynamics.find_stationary`, and is read as it is, with no copy; a Fraction,
bool or other entry in A is a DomainError.  Only the right-hand side b
(rational for the simplex and the Farkas check, int for the solver) and the
certificate may be rational; they are scaled to integers by
`rationals._scaled`, and Fractions are built again only for the returned
values.  When the pivot and the common denominator d are both 1, as on most
pivots of an incidence system, the simplex's row update subtracts a multiple
of the pivot row, with no product by the pivot and no division.
`farkas_contradiction` scales a row only by the denominator of its
right-hand side.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, compress, count, repeat
from math import gcd, isqrt, lcm
from operator import add, floordiv, gt, mul, sub
from typing import Sequence

from .errors import DomainError
from .rationals import _scaled

# The three largest primes below 2**30 (2**30 - 35, - 41, - 83).  In the
# packed elimination a prime sets only the lane width (`_lane_bytes`): below
# 2**30 a lane is 9 bytes for every system up to 2047 unknowns, the state cap
# included (`_pack` and `_unpack_mod` take lanes of any width).  A lane is
# about 2 log2(p) + log2(n) bits and the lift count falls as 1 / log2(p), so
# a smaller prime trades narrower lanes for more lifts; the primes were kept,
# not re-measured, for the packed LU.  Literal so that no prime search runs
# at import or on the first call.
_PRIMES = (1073741789, 1073741783, 1073741741)


def _all_int(values) -> bool:
    """True when every value is an int (not a bool, not a Fraction); one
    pass in C."""
    return set(map(type, values)) <= {int}


def _require_int_matrix(
    name: str, rows: Sequence[Sequence[int]], rhs: Sequence
) -> None:
    """DomainError naming `name` unless rows is a rectangular int matrix with
    one row per entry of rhs; nothing is copied."""
    if len(rows) != len(rhs):
        raise DomainError(f"{name}: rhs length does not match row count")
    if any(len(row) != len(rows[0]) for row in rows):
        raise DomainError(f"{name}: ragged coefficient matrix")
    if not _all_int(chain.from_iterable(rows)):
        raise DomainError(f"{name}: coefficients must be ints")


def _lane_bytes(n: int, p: int) -> int:
    """Bytes per lane of a packed row of n columns modulo p.

    A lane starts below p and gains less than p**2 per elimination step, of
    which there are fewer than n, so it stays below p + (n + 1) * p**2; one
    spare bit on top, rounded up to whole bytes.
    """
    return ((p + (n + 1) * p * p).bit_length() + 8) // 8


def _pack(values, size: int) -> int:
    """One int whose lane j, `size` bytes wide, holds values[j], a
    nonnegative int that fits the lane: the little-endian bytes of every
    value, joined."""
    return int.from_bytes(
        b"".join(map(int.to_bytes, values, repeat(size), repeat("little"))), "little"
    )


def _unpack_mod(packed: int, count: int, size: int, p: int) -> list[int]:
    """The lowest `count` lanes of `packed`, `size` bytes each, reduced
    modulo p: slices of one `to_bytes`, each read back and reduced."""
    raw = packed.to_bytes(count * size, "little")
    return [
        int.from_bytes(raw[k : k + size], "little") % p
        for k in range(0, count * size, size)
    ]


def _lu_mod(coeffs: list[list[int]], n: int, p: int):
    """LU with row pivoting modulo p of an m x n matrix (m >= n).

    Right-looking elimination on packed rows: each remaining row of the
    Schur complement is one int whose lane j holds its column c + j,
    congruent modulo p but never reduced (`_lane_bytes` bounds it).  For
    column c the pivot is the first remaining row whose head, lane 0 modulo
    p, is nonzero; its other lanes are read once, reduced, into the row of U
    (`_unpack_mod`) and packed again (`_pack`), and every other row r with
    head h becomes (r >> w) + (p - l) * packed U row with l = h / pivot
    modulo p: one small-by-big multiply, one add and one shift, all in C.
    Returns the indices of n pivot rows, the strict lower factor (unit
    diagonal implied) and the strict upper factor row by row, and the
    inverted diagonal of U; or None when the rank modulo p is below n.
    """
    size = _lane_bytes(n, p)
    w = 8 * size
    mask = (1 << w) - 1
    lower: list[list[int]] = [[] for _ in coeffs]  # L entries so far, for every row
    upper: list[list[int]] = []
    diag_inv: list[int] = []
    pivots: list[int] = []
    # the rows not yet pivots, in their original order: index, L, packed row
    rest = list(range(len(coeffs)))
    rest_lower = list(lower)
    packed = [_pack([a % p for a in row], size) for row in coeffs]
    for c in range(n):
        heads = [(r & mask) % p for r in packed]
        at = next((k for k, h in enumerate(heads) if h), None)
        if at is None:
            return None
        pivots.append(rest.pop(at))
        inv = pow(heads.pop(at), -1, p)
        diag_inv.append(inv)
        del rest_lower[at]
        urow = _unpack_mod(packed.pop(at) >> w, n - c - 1, size, p)
        upper.append(urow)
        prow = _pack(urow, size)
        factors = [h * inv % p for h in heads]
        for row_l, l in zip(rest_lower, factors):
            row_l.append(l)
        packed = [(r >> w) + (p - l) * prow for r, l in zip(packed, factors)]
    return pivots, [lower[i] for i in pivots], upper, diag_inv


def _lower_columns(rows: list[list[int]], size: int) -> list[int]:
    """The columns of a strictly lower triangular n x n matrix, given as
    rows with row t holding its t entries left of the diagonal: column k
    from row k + 1 down, each packed by `_pack`."""
    return [_pack([row[k] for row in rows[k + 1 :]], size) for k in range(len(rows))]


def _triangular_solver(lower, upper, diag_inv, p: int):
    """The solve of L U x = r modulo p for the factors of `_lu_mod`, as a
    function of r (ints of any sign and size) returning x reduced.

    Both substitutions are forward, column by column on packed lanes: the
    unsolved part of the right-hand side is one int, each step takes
    v = lane 0 modulo p (times the inverted pivot, for U), then sets the
    rest to (rest >> w) + (p - v) * column.  Back substitution in U is
    forward substitution in U with rows and columns reversed, on the
    reversed vector.  The columns are packed once, in the lanes of
    `_lu_mod`.
    """
    n = len(diag_inv)
    size = _lane_bytes(n, p)
    w = 8 * size
    mask = (1 << w) - 1
    lower_cols = _lower_columns(lower, size)
    upper_cols = _lower_columns([upper[n - 1 - t][::-1] for t in range(n)], size)
    ones = [1] * n
    inverted = diag_inv[::-1]

    def sweep(values: list[int], columns: list[int], scales: list[int]) -> list[int]:
        rest = _pack(values, size)
        out = []
        for col, s in zip(columns, scales):
            v = (rest & mask) * s % p
            out.append(v)
            rest = (rest >> w) + (p - v) * col
        return out

    def solve(r: list[int]) -> list[int]:
        y = sweep([v % p for v in r], lower_cols, ones)
        return sweep(y[::-1], upper_cols, inverted)[::-1]

    return solve


def _residual_divider(rows: list[list[int]], p: int):
    """The exact lift step r -> (r - A digit) / p for the n x n int matrix
    A = rows and digits in [0, p), as a function of (r, digit).

    The columns of A are packed once by `_pack`, each entry raised by
    b = max |A_ij| so that every lane is nonnegative, in lanes wide enough
    for n (p - 1) 2 b, which pass 64 bits when A's entries are large.
    A digit + b sum(digit) is then one sum of n small-by-big products, read
    back lane by lane; no lane is reduced, so r stays exact.
    """
    n = len(rows)
    bias = max(abs(e) for row in rows for e in row)
    size = ((n * p * 2 * bias).bit_length() + 8) // 8
    columns = [_pack([e + bias for e in col], size) for col in zip(*rows)]
    offsets = range(0, n * size, size)

    def divide(r: list[int], digit: list[int]) -> list[int]:
        raw = sum(map(mul, digit, columns)).to_bytes(n * size, "little")
        shift = bias * sum(digit)
        return [
            (ri + shift - int.from_bytes(raw[k : k + size], "little")) // p
            for ri, k in zip(r, offsets)
        ]

    return divide


def _reconstruct(residues: list[int], modulus: int, bound: int):
    """Common denominator d and numerators of the rationals congruent to
    `residues` modulo `modulus`, with numerators and d at most `bound`.

    Each entry is first tried against the denominator found so far (one
    multiplication); only when that fails is it reconstructed by the
    half-extended Euclidean algorithm.  None when no such rationals exist.
    """
    half = modulus // 2
    d = 1
    nums: list[int] = []
    for u in residues:
        y = d * u % modulus
        centred = y - modulus if y > half else y
        if abs(centred) <= bound:
            nums.append(centred)
            continue
        r0, r1, t0, t1 = modulus, y, 0, 1
        while r1 > bound:
            q = r0 // r1
            r0, r1 = r1, r0 - q * r1
            t0, t1 = t1, t0 - q * t1
        if t1 < 0:
            r1, t1 = -r1, -t1
        if t1 == 0 or d * t1 > bound or gcd(r1, t1) != 1:
            return None
        nums = [v * t1 for v in nums]
        nums.append(r1)
        d *= t1
    return d, nums


def _satisfies(coeffs, consts, which, d: int, nums: list[int]) -> bool:
    return all(sum(map(mul, coeffs[i], nums)) == consts[i] * d for i in which)


def solve_linear_fraction_free(
    rows: Sequence[Sequence[int]], rhs: Sequence[int]
) -> tuple[Fraction, ...] | None:
    """The solution of a (possibly redundant) int linear system A x = b with
    full column rank, or None when the system is inconsistent.

    Dixon's p-adic lifting on A and b as given: an LU factorization modulo
    a word-size prime picks n independent rows (the next prime is tried
    when the rank modulo the first one is below n), and the solution of
    those rows is lifted one p-adic digit at a time, each lift an O(n^2)
    triangular solve plus an exact division of the residual by p.  The
    factorization is right-looking elimination on packed rows of residues
    (`_lu_mod`), and each triangular solve sweeps the packed columns of L and
    U once (`_triangular_solver`); they give the pivots, factors and digits
    of the Crout order, which picks the same first row with a nonzero head.
    The residual r - A digit is exact, one packed product per lift over the
    columns of the pivot rows (`_residual_divider`).  After each lift every
    entry is rationally reconstructed; a candidate is accepted only when two
    consecutive reconstructions agree and it satisfies every row of the
    integer system exactly.  A candidate that satisfies the pivot rows is
    their unique solution, so if it fails any other row the system is
    inconsistent.  The Hadamard bound of the pivot rows caps the number of
    lifts: past it the reconstruction is unique.  All arithmetic is on
    integers; only the returned entries are Fractions.

    Raises DomainError for an entry of A or b that is not an int (a
    Fraction or a bool included) and when the rank is below n modulo every
    prime tried.
    """
    _require_int_matrix("solve_linear_fraction_free", rows, rhs)
    if not _all_int(rhs):
        raise DomainError("solve_linear_fraction_free: rhs entries must be ints")
    m = len(rows)
    n = len(rows[0]) if m else 0
    if n == 0:
        return None if any(rhs) else ()
    for p in _PRIMES:
        lu = _lu_mod(rows, n, p)
        if lu is not None:
            break
    else:
        raise DomainError(
            f"coefficient matrix has rank below {n} modulo every prime tried"
        )
    pivots, lower, upper, diag_inv = lu
    solve = _triangular_solver(lower, upper, diag_inv, p)
    divide = _residual_divider([rows[i] for i in pivots], p)
    r = [rhs[i] for i in pivots]
    chosen = set(pivots)
    others = [i for i in range(m) if i not in chosen]

    # Cramer with Hadamard's inequality: every numerator and the common
    # denominator of the solution are at most sqrt(prod |row_i, b_i|^2)
    hadamard_sq = 1
    for i in pivots:
        hadamard_sq *= sum(e * e for e in rows[i]) + rhs[i] * rhs[i]

    acc = [0] * n
    modulus = 1
    previous = None
    while True:
        digit = solve(r)
        r = divide(r, digit)
        acc = [s + modulus * v for s, v in zip(acc, digit)]
        modulus *= p
        unique = modulus > 2 * hadamard_sq
        candidate = _reconstruct(acc, modulus, isqrt((modulus - 1) // 2))
        if candidate is not None and (unique or candidate == previous):
            d, nums = candidate
            if _satisfies(rows, rhs, pivots, d, nums):
                if not _satisfies(rows, rhs, others, d, nums):
                    return None
                return tuple(Fraction(v, d) for v in nums)
        if unique:
            raise AssertionError("reconstruction past the Hadamard bound failed")
        previous = candidate


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    solution: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None


def feasible_point(
    rows: Sequence[Sequence[int]], rhs: Sequence[Fraction | int]
) -> FeasibilityResult:
    """Decide {A x = b, x >= 0} exactly.

    Feasible systems yield a basic feasible solution (a vertex of the
    polytope); infeasible ones yield a Farkas certificate against the
    original, un-normalized rows.

    A is an int matrix, taken as it is, row by row; a Fraction, bool or
    other entry in A is a DomainError.  b is rational.  The rational tableau
    is an integer tableau T over one common denominator d, which starts at
    1.  The right-hand side is scaled by the lcm of its denominators, and
    the artificial identity is not scaled.  A pivot on (r, s) sets every
    other row, reduced costs included, to (T_i T_rs - T_is T_r) / d, which
    divides exactly (Edmonds), and then d to T_rs > 0.  When T_rs = d = 1
    that is T_i - T_is T_r, computed with no product by the pivot and no
    division.  So signs and ratio orders (cross-multiplied) are those of
    the rational tableau, whose right-hand side scale only changes units:
    Bland's rule takes the same pivots to the same vertex and dual.
    """
    _require_int_matrix("feasible_point", rows, rhs)
    m = len(rows)
    if m == 0:
        return FeasibilityResult(True, (), None)
    n = len(rows[0])
    flipped = [b < 0 for b in rhs]
    rhs_scale, consts = _scaled([-b if f else b for b, f in zip(rhs, flipped)])
    coeffs = [[-e for e in r] if f else r for r, f in zip(rows, flipped)]
    tab: list[list[int]] = []
    for i, (row, b) in enumerate(zip(coeffs, consts)):
        art = [0] * m
        art[i] = 1
        tab.append([*row, *art, b])
    # row m: reduced costs for minimizing the artificial sum; artificial
    # columns start basic, so their reduced costs are zero
    tab.append([-sum(col) for col in zip(*tab)])
    tab[m][n:-1] = [0] * m

    basis = [n + i for i in range(m)]
    d = 1
    while True:
        enter = next(compress(count(), map(gt, repeat(0), tab[m][: n + m])), None)
        if enter is None:
            break
        # smallest ratio value / coeff, ties to the smallest basic variable
        leave = None
        for i in range(m):
            coeff, value = tab[i][enter], tab[i][-1]
            if coeff > 0 and (
                leave is None
                or (value * best[0], basis[i]) < (best[1] * coeff, basis[leave])
            ):
                leave, best = i, (coeff, value)
        if leave is None:
            raise AssertionError("phase-1 objective is bounded; no leaving row found")
        prow = tab[leave]
        pivot = prow[enter]
        for i, row in enumerate(tab):
            f = row[enter]
            if i == leave or (not f and pivot == d):
                continue
            if pivot != 1 or d != 1:
                # (a pivot - f b) / d
                tab[i] = list(
                    map(
                        floordiv,
                        map(sub, map(mul, row, repeat(pivot)), map(mul, repeat(f), prow)),
                        repeat(d),
                    )
                )
            elif f == 1:
                tab[i] = list(map(sub, row, prow))
            elif f == -1:
                tab[i] = list(map(add, row, prow))
            else:
                tab[i] = list(map(sub, row, map(mul, repeat(f), prow)))
        d = pivot
        basis[leave] = enter

    # the last column: basic values and phase-1 objective, times d, in its units
    zrow = tab[m]
    if zrow[-1] == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = Fraction(tab[i][-1], d * rhs_scale)
        return FeasibilityResult(True, tuple(x), None)

    # dual value of row i: artificial i has cost 1 and column e_i, so its
    # reduced cost, zrow[n + i] / d, is 1 - y_i
    y = [Fraction(d - zrow[n + i], d) for i in range(m)]
    y = [-yi if flipped[i] else yi for i, yi in enumerate(y)]
    return FeasibilityResult(False, None, tuple(y))


def farkas_contradiction(
    rows: Sequence[Sequence[int]],
    rhs: Sequence[Fraction | int],
    certificate: Sequence[Fraction | int],
) -> bool:
    """True when y^T A <= 0 componentwise while y^T b > 0.

    A is an int matrix; a Fraction, bool or other entry in A is a
    DomainError.  On integers: y is scaled to one denominator D, and b_i,
    for each row with y_i != 0, to its own denominator q_i.  With L the lcm
    of those q_i, the column sums are accumulated as y_i D L A_ij and the
    right-hand side as y_i D (L / q_i) (q_i b_i): the rational sums times
    D L > 0, so every sign is the rational one.  Each row is added to the
    column sums in one pass in C, never copied.  As with zip, a ragged A is
    read to the width of its shortest row.
    """
    m = len(rows)
    if len(certificate) != m or m != len(rhs):
        return False
    if not _all_int(chain.from_iterable(rows)):
        raise DomainError("farkas_contradiction: coefficients must be ints")
    width = min(map(len, rows), default=0)
    # (y_i D, q_i, A_i, q_i b_i)
    weighted = [
        (y, b.denominator, row, b.numerator)
        for y, row, b in zip(_scaled(certificate)[1], rows, rhs)
        if y
    ]
    common = lcm(*(q for _, q, _, _ in weighted))
    sums = [0] * width
    total = 0
    for y, q, row, c in weighted:
        sums = list(map(add, sums, map(mul, repeat(y * common), row)))
        total += y * (common // q) * c
    return all(s <= 0 for s in sums) and total > 0

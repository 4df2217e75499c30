from fractions import Fraction
from math import lcm
from operator import mul
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    crout_lu_mod,
    fraction_farkas_contradiction,
    fraction_simplex,
    row_lu_solve_mod,
    solve_linear,
)
from procnet import exactlp
from procnet.errors import DomainError
from procnet.scenario import DEFAULT_MAX_STATES
from procnet.exactlp import (
    farkas_contradiction,
    feasible_point,
    solve_linear_fraction_free,
)

F = Fraction
SOLVERS = (solve_linear, solve_linear_fraction_free)


def frac_rows(rows):
    return [[F(e) for e in row] for row in rows]


def int_equations(rows, rhs):
    """The system with each equation [A_i | b_i] multiplied by the lcm of
    its denominators: int rows and an int right-hand side with the same
    solutions, row for row (zero rows stay zero, signs of b_i are kept)."""
    int_rows, int_rhs = [], []
    for row, b in zip(rows, rhs):
        equation = [F(e) for e in (*row, b)]
        scale = lcm(*(e.denominator for e in equation))
        *coeffs, c = (int(e * scale) for e in equation)
        int_rows.append(coeffs)
        int_rhs.append(c)
    return int_rows, int_rhs


class TestSolveLinear:
    def test_unique_solution(self):
        for solve in SOLVERS:
            x = solve([[2, 1], [1, -1]], [5, 1])
            assert x == (F(2), F(1))

    def test_redundant_rows_ok(self):
        x = solve_linear([[1, 1], [2, 2]], [3, 6])
        assert x is not None
        assert x[0] + x[1] == 3
        for solve in SOLVERS:
            x = solve([[1, 1], [1, -1], [2, 2]], [3, 1, 6])
            assert x == (F(2), F(1))

    def test_inconsistent_returns_none(self):
        assert solve_linear([[1, 1], [1, 1]], [1, 2]) is None
        for solve in SOLVERS:
            assert solve([[1, 0], [0, 1], [1, 1]], [1, 1, 3]) is None

    def test_free_variables_default_to_zero(self):
        x = solve_linear([[1, 0, 1]], [4])
        assert x == (F(4), F(0), F(0))


def _rank(rows):
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = F(work[i][col]) / work[rank][col]
            work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    return rank


_rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 7))


@st.composite
def nonsingular_with_extra_row(draw):
    """A nonsingular n x n rational system plus one row that is a rational
    combination of its rows, inserted at a drawn position; each equation is
    then scaled to ints (`int_equations`)."""
    n = draw(st.integers(1, 10))
    rows = [draw(st.lists(_rationals, min_size=n, max_size=n)) for _ in range(n)]
    if _rank(rows) < n:
        # shift the diagonal until the matrix is nonsingular
        for i in range(n):
            rows[i][i] += 7 * n
    rhs = draw(st.lists(_rationals, min_size=n, max_size=n))
    weights = draw(st.lists(_rationals, min_size=n, max_size=n))
    extra = [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)]
    extra_rhs = sum(w * b for w, b in zip(weights, rhs))
    at = draw(st.integers(0, n))
    rows.insert(at, extra)
    rhs.insert(at, extra_rhs)
    return (*int_equations(rows, rhs), at)


@st.composite
def integer_systems(draw):
    """An int system with full column rank: n x n nonsingular ("full"), plus
    an int combination of its rows at a drawn position ("redundant"), whose
    right-hand side is then off by one ("inconsistent")."""
    n = draw(st.integers(1, 8))
    ints = st.integers(-6, 6)
    rows = [draw(st.lists(ints, min_size=n, max_size=n)) for _ in range(n)]
    if _rank(rows) < n:
        for i in range(n):
            rows[i][i] += 7 * n
    rhs = draw(st.lists(ints, min_size=n, max_size=n))
    kind = draw(st.sampled_from(("full", "redundant", "inconsistent")))
    if kind != "full":
        weights = draw(st.lists(ints, min_size=n, max_size=n))
        at = draw(st.integers(0, n))
        rows.insert(at, [sum(w * row[j] for w, row in zip(weights, rows)) for j in range(n)])
        rhs.insert(at, sum(w * b for w, b in zip(weights, rhs)) + (kind == "inconsistent"))
    return rows, rhs, kind


class TestDixonSolve:
    """The production solver against the Gauss-Jordan oracle."""

    @settings(max_examples=60, deadline=None)
    @given(nonsingular_with_extra_row())
    def test_agrees_with_oracle_on_redundant_nonsingular_systems(self, system):
        rows, rhs, _ = system
        assert _rank(rows) == len(rows[0])
        x = solve_linear_fraction_free(rows, rhs)
        assert x is not None
        assert x == solve_linear(rows, rhs)

    @settings(max_examples=30, deadline=None)
    @given(nonsingular_with_extra_row())
    def test_inconsistent_extra_row_returns_none(self, system):
        rows, rhs, at = system
        rhs[at] += 1
        assert solve_linear(rows, rhs) is None
        assert solve_linear_fraction_free(rows, rhs) is None

    @settings(max_examples=80, deadline=None)
    @given(integer_systems())
    def test_int_rows_agree_with_fraction_rows_and_the_oracle(self, system):
        rows, rhs, kind = system
        x = solve_linear_fraction_free(rows, rhs)
        assert (x is None) == (kind == "inconsistent")
        fractions = (frac_rows(rows), [F(b) for b in rhs])
        # the same rows as Fractions are refused, not scaled
        with pytest.raises(DomainError, match="solve_linear_fraction_free"):
            solve_linear_fraction_free(*fractions)
        assert x == solve_linear(*fractions)

    def test_singular_modulo_the_first_prime_takes_the_next_one(self, monkeypatch):
        p = exactlp._PRIMES[0]
        systems = [
            ([[p, 0], [0, 1]], [p, 3], (F(1), F(3))),
            # determinant exactly p: singular modulo p, not over Q
            ([[p + 1, 1], [1, 1]], [p + 2, 2], (F(1), F(1))),
        ]
        for rows, rhs, expected in systems:
            assert solve_linear_fraction_free(rows, rhs) == expected
        monkeypatch.setattr(exactlp, "_PRIMES", (p,))
        for rows, rhs, _ in systems:
            with pytest.raises(DomainError):
                solve_linear_fraction_free(rows, rhs)

    def test_agreeing_candidate_that_fails_a_row_keeps_lifting(self):
        # modulo p and p**2 the residues of 1 + p**2 both reconstruct to 1,
        # so only the exact check stops the solver from returning 1
        p = exactlp._PRIMES[0]
        rows = [[1, 0], [0, 1]]
        assert solve_linear_fraction_free(rows, [1 + p * p, 3]) == (
            F(1 + p * p),
            F(3),
        )

    def test_large_entries_of_both_signs_stay_exact(self):
        # the residual's lanes are sized by n (p - 1) 2 max |A_ij|: entries of
        # either sign near that maximum fill them
        rng = Random(7)
        n, top = 24, 2**70
        rows = [
            [rng.choice((-1, 1)) * (top - rng.randrange(1000)) for _ in range(n)]
            for _ in range(n)
        ]
        rhs = [rng.randrange(-top, top) for _ in range(n)]
        x = solve_linear_fraction_free(rows, rhs)
        assert x is not None
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b

    def test_rank_deficient_input_raises(self):
        with pytest.raises(DomainError):
            solve_linear_fraction_free([[1, 1], [2, 2]], [3, 6])
        with pytest.raises(DomainError):
            solve_linear_fraction_free([[1, 0, 1]], [4])

    def test_empty_and_zero_width_systems(self):
        assert solve_linear_fraction_free([], []) == ()
        assert solve_linear_fraction_free([[], []], [0, 0]) == ()
        assert solve_linear_fraction_free([[], []], [0, 1]) is None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            solve_linear_fraction_free([[1, 1]], [1, 2])
        with pytest.raises(DomainError):
            solve_linear_fraction_free([[1, 1], [1]], [1, 2])

    @pytest.mark.parametrize(
        "rows, rhs",
        [
            ([[F(2), 1], [1, -1]], [5, 1]),
            ([[2, 1], [1, F(-1, 2)]], [5, 1]),
            ([[2, 1], [1, True]], [5, 1]),
            ([[2, 1], [1, -1]], [F(5), 1]),
            ([[2, 1], [1, -1]], [5, F(1, 2)]),
            ([[2, 1], [1, -1]], [5, True]),
        ],
        ids=["fraction", "fraction-half", "bool", "fraction-rhs", "half-rhs", "bool-rhs"],
    )
    def test_non_int_coefficient_or_rhs_is_a_domain_error(self, rows, rhs):
        with pytest.raises(DomainError, match="solve_linear_fraction_free"):
            solve_linear_fraction_free(rows, rhs)

    def test_every_prime_passes_deterministic_miller_rabin(self):
        # these bases decide primality for every n < 3.3 * 10**24
        bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

        def is_prime(n):
            if n < 2:
                return False
            for q in bases:
                if n % q == 0:
                    return n == q
            d, s = n - 1, 0
            while d % 2 == 0:
                d //= 2
                s += 1
            for a in bases:
                x = pow(a, d, n)
                if x in (1, n - 1):
                    continue
                for _ in range(s - 1):
                    x = x * x % n
                    if x == n - 1:
                        break
                else:
                    return False
            return True

        assert not is_prime(2**61 + 1) and is_prime(2**61 - 1)
        assert len(set(exactlp._PRIMES)) == len(exactlp._PRIMES) >= 2
        for p in exactlp._PRIMES:
            assert p < 2**30 and is_prime(p)


_lu_primes = st.sampled_from((2, 3, 101, 65521, exactlp._PRIMES[0]))


@st.composite
def modular_systems(draw):
    """An m x n int matrix (m >= n) and a prime.  Entries mix small values,
    residues near p, multiples of p (zero modulo p), negatives and values
    past p.  "lead" makes the first rows' leading entries zero modulo p, so
    the first pivot is not row 0; "deficient" makes the last column a
    combination of the others modulo p, so the rank modulo p is below n."""
    p = draw(_lu_primes)
    n = draw(st.integers(1, 9))
    m = draw(st.integers(n, n + 3))
    entry = st.one_of(
        st.integers(-9, 9),
        st.integers(p - 4, p - 1),
        st.builds(lambda k, s: k * p + s, st.integers(-3, 3), st.integers(-2, 2)),
        st.integers(-(p**3), p**3),
    )
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]
    kind = draw(st.sampled_from(("any", "lead", "deficient")))
    if kind == "lead":
        for row in rows[: draw(st.integers(1, m))]:
            row[0] = p * draw(st.integers(-3, 3))
    elif kind == "deficient":
        weights = draw(st.lists(st.integers(-3, 3), min_size=n - 1, max_size=n - 1))
        shift = draw(st.integers(-2, 2))
        for row in rows:
            row[-1] = sum(w * a for w, a in zip(weights, row)) + p * shift
    return rows, n, p, kind


def _lanes_of(values, size):
    return sum(v << (8 * size * j) for j, v in enumerate(values))


def _oracle_solve_agrees(lu, p, r):
    pivots, lower, upper, diag_inv = lu
    solve = exactlp._triangular_solver(lower, upper, diag_inv, p)
    assert solve(r) == row_lu_solve_mod(lower, upper, diag_inv, r, p)


class TestPackedLU:
    """The packed-lane LU and triangular solve against the Crout oracle."""

    @settings(max_examples=300, deadline=None)
    @given(modular_systems(), st.data())
    def test_same_factors_and_digits_as_crout(self, system, data):
        rows, n, p, kind = system
        lu = exactlp._lu_mod(rows, n, p)
        assert lu == crout_lu_mod(rows, n, p)
        if kind == "deficient":
            assert lu is None
        if lu is None:
            return
        big = st.integers(-(p**4), p**4)
        r = data.draw(st.lists(big | st.integers(-2 * p, -1), min_size=n, max_size=n))
        _oracle_solve_agrees(lu, p, r)

    def test_leading_zero_heads_pivot_on_a_later_row(self):
        p = exactlp._PRIMES[0]
        rows = [[p, 1, 2], [-2 * p, 3, 1], [5, p + 1, -7], [1, 1, 1]]
        lu = exactlp._lu_mod(rows, 3, p)
        assert lu == crout_lu_mod(rows, 3, p)
        assert lu[0][0] == 2

    def test_rank_below_n_modulo_the_first_prime_is_none(self):
        p = exactlp._PRIMES[0]
        # determinant p: nonsingular over Q, singular modulo p
        rows = [[p + 1, 1], [1, 1]]
        assert exactlp._lu_mod(rows, 2, p) is None
        assert crout_lu_mod(rows, 2, p) is None
        assert exactlp._lu_mod(rows, 2, exactlp._PRIMES[1]) is not None

    def test_residues_near_p_do_not_overflow_the_lanes(self):
        # at n = 128 every lane gains close to p**2 per step for a hundred
        # steps and more; lanes one byte narrower than _lane_bytes overflow
        p = exactlp._PRIMES[0]
        rng = Random(12)
        n = 128
        rows = [[p - rng.randint(1, 6) for _ in range(n)] for _ in range(n + 1)]
        lu = exactlp._lu_mod(rows, n, p)
        assert lu is not None
        assert lu == crout_lu_mod(rows, n, p)
        _oracle_solve_agrees(lu, p, [p - rng.randint(1, 6) for _ in range(n)])
        _oracle_solve_agrees(lu, p, [-rng.randrange(p**2) for _ in range(n)])

    def test_lane_width_covers_the_state_cap_for_every_prime(self):
        n = DEFAULT_MAX_STATES
        for p in exactlp._PRIMES:
            size = exactlp._lane_bytes(n, p)
            assert p + (n + 1) * p * p < 2 ** (8 * size)
            # the LU's lanes stay within two 64-bit words at the state cap
            assert size <= 16

    def test_pack_and_unpack_lanes(self):
        p = exactlp._PRIMES[0]
        residues = [0, 1, p - 1, 2**64 - 1, 12345]
        for size in (8, 9, 13, 16):
            assert exactlp._pack(residues, size) == _lanes_of(residues, size)
            # unreduced lanes use their full width, high word included
            full = [*residues, 2 ** (8 * size) - 1, 2 ** (8 * size - 1) + 5]
            assert exactlp._unpack_mod(_lanes_of(full, size), len(full), size, p) == [
                v % p for v in full
            ]
        # lanes wider than two words hold values past 2**64 (the residual's
        # biased columns)
        for size in (17, 24):
            wide = [*residues, 2**64, 2**100 + 7, 2 ** (8 * size) - 1]
            packed = exactlp._pack(wide, size)
            assert packed == _lanes_of(wide, size)
            assert exactlp._unpack_mod(packed, len(wide), size, p) == [v % p for v in wide]
        assert exactlp._unpack_mod(0, 0, 9, p) == []


class TestFeasiblePoint:
    def test_simplex_face_is_feasible(self):
        res = feasible_point([[1, 1, 1]], [F(1)])
        assert res.feasible
        assert sum(res.solution) == 1
        assert all(v >= 0 for v in res.solution)

    def test_negative_sum_is_infeasible_with_certificate(self):
        rows = [[1, 1]]
        rhs = [F(-1)]
        res = feasible_point(rows, rhs)
        assert not res.feasible
        assert farkas_contradiction(rows, rhs, res.certificate)

    def test_conflicting_equalities_yield_certificate(self):
        rows = [[1, 0], [1, 0]]
        rhs = [F(1), F(2)]
        res = feasible_point(rows, rhs)
        assert not res.feasible
        assert farkas_contradiction(rows, rhs, res.certificate)

    def test_equality_with_upper_bound_conflict(self):
        # x1 + x2 = 1 and x1 + x2 = 3 cannot both hold
        rows = [[1, 1], [1, 1]]
        rhs = [F(1), F(3)]
        res = feasible_point(rows, rhs)
        assert not res.feasible
        assert farkas_contradiction(rows, rhs, res.certificate)

    def test_zero_rows_and_zero_rhs(self):
        rows = [[0, 0], [1, 2]]
        rhs = [F(0), F(4)]
        res = feasible_point(rows, rhs)
        assert res.feasible
        x = res.solution
        assert x[0] + 2 * x[1] == 4

    def test_empty_system_is_feasible(self):
        res = feasible_point([], [])
        assert res.feasible
        assert res.solution == ()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            feasible_point([[1, 1]], [F(1), F(2)])

    @pytest.mark.parametrize(
        "rows",
        [[[F(1), 1], [1, 0]], [[1, 1], [1, F(1, 2)]], [[1, 1], [True, 0]], [[1, 1.0]]],
        ids=["fraction-one", "fraction-half", "bool", "float"],
    )
    def test_non_int_coefficient_is_a_domain_error(self, rows):
        rhs = [F(1)] * len(rows)
        with pytest.raises(DomainError, match="feasible_point"):
            feasible_point(rows, rhs)
        with pytest.raises(DomainError, match="farkas_contradiction"):
            farkas_contradiction(rows, rhs, [F(1)] * len(rows))

    def test_random_systems_agree_with_construction(self):
        # systems built from a known nonnegative solution must be feasible,
        # and the returned point must satisfy them exactly
        rng = Random(42)
        for _ in range(30):
            n = rng.randint(2, 6)
            m = rng.randint(1, 4)
            hidden = [F(rng.randint(0, 5), rng.randint(1, 4)) for _ in range(n)]
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
            rhs = [sum(r[j] * hidden[j] for j in range(n)) for r in rows]
            res = feasible_point(rows, rhs)
            assert res.feasible
            for r, b in zip(rows, rhs):
                assert sum(rj * xj for rj, xj in zip(r, res.solution)) == b
            assert all(x >= 0 for x in res.solution)

    def test_certificates_always_verify_on_infeasible_instances(self):
        rng = Random(43)
        found = 0
        for _ in range(60):
            n = rng.randint(1, 4)
            m = rng.randint(2, 4)
            rows = [[rng.randint(0, 2) for _ in range(n)] for _ in range(m)]
            rhs = [F(rng.randint(-2, 4)) for _ in range(m)]
            res = feasible_point(rows, rhs)
            if not res.feasible:
                found += 1
                assert farkas_contradiction(rows, rhs, res.certificate)
        assert found > 5


_lp_entries = st.builds(
    F, st.integers(-4, 4), st.sampled_from((1, 1, 1, 2, 3, 4, 6, 35))
)
_lp_ints = st.integers(-4, 4)
_lp_forms = {
    "fraction": (_lp_entries, F(0), (F(1), F(2), F(-1), F(-1, 3))),
    "int": (_lp_ints, 0, (1, 2, -1)),
    "mixed": (st.one_of(_lp_entries, _lp_ints), 0, (F(1), 2, -1, F(-1, 3))),
}


@st.composite
def incidence_systems(draw):
    """0/1 incidence blocks with exactly one 1 per column in each block and
    an all-ones last row, as `global_section_system` builds them: int rows
    and a Fraction right-hand side, either the marginals of a hidden
    distribution (feasible) or a drawn distribution per block (contextual
    or not), with the last entry 1."""
    n = draw(st.integers(1, 8))
    rows, sizes = [], []
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.integers(1, 3))
        owner = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        rows += [[int(o == r) for o in owner] for r in range(k)]
        sizes.append(k)
    rows.append([1] * n)
    weights = st.integers(0, 4)
    if draw(st.booleans()):
        hidden = draw(st.lists(weights, min_size=n, max_size=n).filter(any))
        rhs = [F(sum(map(mul, row, hidden)), sum(hidden)) for row in rows]
    else:
        rhs = []
        for k in sizes:
            drawn = draw(st.lists(weights, min_size=k, max_size=k).filter(any))
            rhs += [F(w, sum(drawn)) for w in drawn]
        rhs.append(F(1))
    return rows, rhs


@st.composite
def lp_systems(draw):
    """Small systems {A x = b}: feasible ones built from a hidden point
    x >= 0 with zero entries (degenerate vertices), and arbitrary ones,
    most of them infeasible.  Some rows are zero, and some are copies of
    another row scaled by a nonzero factor, so ratio tests tie and
    negative factors flip rows.  The coefficients are Fractions, ints, or
    a mix of both, with a Fraction right-hand side; or the system is a 0/1
    incidence system (`incidence_systems`).  A Fraction or mixed system is
    scaled to ints equation by equation (`int_equations`), so its ties,
    flipped rows and zero rows reach the int tableau."""
    form = draw(st.sampled_from(("fraction", "int", "mixed", "incidence")))
    if form == "incidence":
        return draw(incidence_systems())
    entries, zero, factors = _lp_forms[form]
    m = draw(st.integers(1, 6))
    n = draw(st.integers(0, 7))
    rows = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        rows[i] = [zero] * n
    if draw(st.booleans()):
        hidden = draw(
            st.lists(
                st.one_of(st.just(F(0)), st.builds(F, st.integers(0, 5), st.integers(1, 6))),
                min_size=n,
                max_size=n,
            )
        )
        rhs = [sum((a * h for a, h in zip(row, hidden)), F(0)) for row in rows]
    else:
        rhs = draw(st.lists(_lp_entries, min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        factor = draw(st.sampled_from(factors))
        rows[dst] = [factor * e for e in rows[src]]
        rhs[dst] = factor * rhs[src]
    if form != "int":
        rows, rhs = int_equations(rows, rhs)
    return rows, rhs


class TestIntegerSimplexAgainstOracle:
    """The integer tableau against the Fraction tableau it replaced."""

    # lp_systems draws four kinds in equal shares, so about 300 of these
    # are Fraction-only systems, scaled to ints equation by equation
    @settings(max_examples=1200, deadline=None)
    @given(lp_systems())
    # Bland's path: two pivots with pivot = d = 1 (rows with factors 1, -1
    # and 3), then pivot != d
    @example(([[1, 0], [1, -1], [0, 0], [1, 2]], [F(2), F(3, 2), F(0), F(3)]))
    # pivot != d, then pivot = d > 1 (the general step), then pivot != d,
    # then pivot = d = 1
    @example(([[-1, 0, 1], [1, 0, 0], [2, -1, 2]], [F(2), F(1), F(0)]))
    # an infeasible incidence system (three two-row blocks over three
    # columns) whose path is two unit pivots, then pivot != d
    @example(
        (
            [[1, 1, 0], [0, 0, 1], [0, 1, 1], [1, 0, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1]],
            [F(3, 4), F(1, 4), F(1, 4), F(3, 4), F(1, 2), F(1, 2), F(1)],
        )
    )
    def test_same_vertex_or_certificate_as_the_fraction_tableau(self, system):
        rows, rhs = system
        res = feasible_point(rows, rhs)
        assert res == fraction_simplex(rows, rhs)
        if res.feasible:
            assert all(v >= 0 for v in res.solution)
            for row, b in zip(rows, rhs):
                assert sum((a * v for a, v in zip(row, res.solution)), F(0)) == b
        else:
            assert farkas_contradiction(rows, rhs, res.certificate)


class TestIntegerFarkasAgainstOracle:
    """The integer Farkas check against the Fraction sums it replaced."""

    # about 300 Fraction-only systems scaled to ints, as in the simplex
    # test above
    @settings(max_examples=1200, deadline=None)
    @given(lp_systems(), st.data())
    def test_same_verdict_as_the_fraction_sums(self, system, data):
        rows, rhs = system
        m = len(rows)
        res = feasible_point(rows, rhs)
        if res.feasible or data.draw(st.booleans()):
            y = data.draw(st.lists(_lp_entries, min_size=m, max_size=m))
        else:
            # a valid certificate, rescaled to other denominators
            factor = data.draw(st.sampled_from((F(1), F(2, 7), F(5, 3))))
            y = [factor * v for v in res.certificate]
            assert farkas_contradiction(rows, rhs, y)
        edit = data.draw(st.sampled_from(("none", "alter", "zero", "short", "long")))
        if edit == "alter":
            y[data.draw(st.integers(0, m - 1))] += data.draw(_lp_entries)
        elif edit == "zero":
            y = [F(0)] * m
        elif edit == "short":
            y = y[:-1]
        elif edit == "long":
            y = y + [F(1)]
        assert farkas_contradiction(rows, rhs, y) == fraction_farkas_contradiction(
            rows, rhs, y
        )

    @pytest.mark.parametrize(
        "rows, rhs, y",
        [
            ([], [], []),
            ([], [], [F(1)]),
            ([[1]], [], [F(1)]),
            ([[]], [F(1)], [F(1)]),
            ([[]], [F(-1)], [F(1)]),
            # a ragged A is read to the width of its shortest row
            ([[0, 1], [-1]], [F(0), F(-1, 3)], [F(1), F(-1)]),
            ([[-1, 2], [-1]], [F(1, 3), F(0)], [F(2), F(1)]),
        ],
    )
    def test_edge_cases_match_the_fraction_sums(self, rows, rhs, y):
        assert farkas_contradiction(rows, rhs, y) == fraction_farkas_contradiction(
            rows, rhs, y
        )

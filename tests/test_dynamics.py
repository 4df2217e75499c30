import re
import time
from collections import Counter
from fractions import Fraction
from math import gcd
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from procnet import (
    Distribution,
    ProcessTensor,
    Variable,
    bundled_network_path,
    contract_network,
    find_stationary,
    is_ergodic,
    load_network_file,
    section_index,
    simulate_chain,
    step,
    verify_stationary,
)
from oracle import (
    dense_simulate_chain,
    dense_step,
    dense_verify_stationary,
    solve_linear,
    tarjan_components,
)
from procnet import scenario
from procnet.dynamics import (
    MAX_STEPS,
    StationaryResult,
    _recurrent_class,
    _strongly_connected_components,
    _support_graph,
    require_stationary,
)
from procnet.errors import DomainError, ResourceLimitError
from procnet.rng import _LANES as LANES
from generators import random_closed_network, random_stochastic_rows

F = Fraction
BINARY = ("0", "1")


def closed_tensor(name, n_vars, rows):
    variables = tuple(Variable(f"S{k}", BINARY) for k in range(n_vars))
    return ProcessTensor.from_matrix(name, (), variables, (), rows)


def identity_rows(n):
    return tuple(
        tuple(F(1) if i == j else F(0) for j in range(n)) for i in range(n)
    )


@st.composite
def closed_chains(draw):
    """A closed process on 1-2 variables whose alphabets of 1-3 outcomes are
    drawn in any order; rows mix zero entries with rows of one nonzero."""
    sizes = [draw(st.integers(1, 3)) for _ in range(draw(st.integers(1, 2)))]
    variables = tuple(
        Variable(f"S{k}", tuple(draw(st.permutations(("0", "1", "2")[:size]))))
        for k, size in enumerate(sizes)
    )
    n = scenario.section_count(variables)
    rng = Random(draw(st.integers(0, 2**32)))
    rows = []
    for _ in range(n):
        weights = [rng.randint(0, 3) for _ in range(n)]
        if rng.random() < 0.3 or not any(weights):
            weights = [0] * n
            weights[rng.randrange(n)] = 1
        rows.append([F(w, sum(weights)) for w in weights])
    return ProcessTensor.from_matrix("chain", (), variables, (), rows)


def integer_chain(n, rows):
    """A closed process on one variable of n outcomes; row r is the weights
    nums[c] / d of rows[r] = (d, nums), stored in lowest terms."""
    variables = (Variable("S", tuple(str(i) for i in range(n))),)
    stored = []
    for d, nums in rows:
        g = gcd(d, *nums)
        stored.append((d // g, tuple((c, a // g) for c, a in enumerate(nums) if a)))
    return ProcessTensor("chain", (), variables, (), tuple(stored))


@st.composite
def guide_corner_chains(draw):
    """Chains whose thresholds sit where the guide table of `simulate_chain`
    either decides a top-byte bucket or falls back to the exact search.

    "tiny": every row holds runs of weights near 2**-60 over a denominator
    above 2**64, so several thresholds share one bucket; "edges": weights
    k/256, every threshold on a bucket edge, mixed with k/512 ones that
    split a bucket in half; "wide": 257-260 states, and rows of every
    nonzero (more than 256, so most buckets fall back) among rows of 1-3.
    """
    kind = draw(st.sampled_from(("tiny", "edges", "wide")))
    rng = Random(draw(st.integers(0, 2**32)))
    n = rng.randint(257, 260) if kind == "wide" else rng.randint(2, 6)
    rows = []
    for _ in range(n):
        if kind == "tiny":
            d = 2**64 + rng.randrange(1, 2**40)
            tiny = [rng.randint(1, 2**5) for _ in range(rng.randint(0, n - 2))]
            head = rng.randrange(1, d - sum(tiny))
            nums = [head, *tiny, d - head - sum(tiny)]
            rows.append((d, nums + [0] * (n - len(nums))))
        elif kind == "edges":
            d = rng.choice((256, 512))
            cuts = sorted(rng.sample(range(1, d), n - 1))
            rows.append((d, [b - a for a, b in zip([0, *cuts], [*cuts, d])]))
        elif rng.random() < 0.2:
            nums = [rng.randint(1, 5) for _ in range(n)]
            rows.append((sum(nums), nums))
        else:
            nums = [0] * n
            for c in rng.sample(range(n), rng.randint(1, 3)):
                nums[c] = rng.randint(1, 4)
            rows.append((sum(nums), nums))
    return integer_chain(n, rows)


def some_distribution(sigma, seed):
    """Weights with mixed denominators, drawn from a few values so that the
    gaps of a fixed-point check often tie and the first worst state counts."""
    rng = Random(seed)
    raw = [rng.choice((0, 0, F(1, 2), F(1, 3), F(2, 5), 1)) for _ in sigma.rows]
    raw[rng.randrange(len(raw))] += 1
    total = sum(raw)
    return Distribution(sigma.internals, tuple(F(r) / total for r in raw))


class TestAgreesWithTheDenseRows:
    @settings(max_examples=150, deadline=None)
    @given(closed_chains(), st.integers(0, 2**32))
    def test_step_and_verify_stationary(self, sigma, seed):
        dist = some_distribution(sigma, seed)
        assert step(sigma, dist) == dense_step(sigma, dist)
        assert verify_stationary(sigma, dist) == dense_verify_stationary(sigma, dist)
        pi = find_stationary(sigma).distribution
        assert verify_stationary(sigma, pi) == dense_verify_stationary(sigma, pi)

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(closed_chains(), guide_corner_chains()),
        st.integers(0, 2**64 - 1),
        st.booleans(),
        st.sampled_from((60, LANES - 1, LANES, LANES + 1, 2 * LANES + 7)),
    )
    def test_simulate_chain(self, sigma, seed, from_distribution, steps):
        # lengths around the lane blocks of the random stream; the oracle
        # draws one scalar next_uint64 a step and reads no guide table
        init = some_distribution(sigma, seed) if from_distribution else (
            scenario.section_at(sigma.internals, seed % len(sigma.rows))
        )
        trail = simulate_chain(sigma, init, steps, seed)
        assert trail == dense_simulate_chain(sigma, init, steps, seed)


    @settings(max_examples=100, deadline=None)
    @given(closed_chains(), st.integers(0, 2**32), st.sampled_from((F(1, 2), F(3, 2))))
    def test_a_row_that_is_not_a_probability_row_is_refused_when_built(
        self, sigma, seed, scale
    ):
        # simulate_chain once refused such a row at the first step taken
        # from it; the constructor refuses it before any step, reached or not
        matrix = [list(row) for row in sigma.matrix]
        bad = seed % len(matrix)
        matrix[bad] = [e * scale for e in matrix[bad]]
        message = f"process 'chain': row {bad} sums to {scale}, not 1"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            ProcessTensor.from_matrix("chain", (), sigma.internals, (), matrix)


def triangle_next(state):
    # one synchronous update of the cyclic negation network
    x, y, z = state
    return (z, "1" if x == "0" else "0", y)


class TestStep:
    def test_identity_keeps_any_distribution(self):
        rng = Random(21)
        sigma = closed_tensor("id", 2, identity_rows(4))
        raw = [rng.randint(1, 5) for _ in range(4)]
        total = sum(raw)
        pi = Distribution(sigma.internals, tuple(F(r, total) for r in raw))
        assert step(sigma, pi).weights == pi.weights

    def test_triangle_moves_point_mass_along_the_cycle(self, triangle_sigma):
        # expected successor computed from the update rule, not from the matrix
        start = ("0", "0", "1")
        expected = triangle_next(start)
        pi = Distribution.point_mass(triangle_sigma.internals, start)
        after = step(triangle_sigma, pi)
        assert after.weights == Distribution.point_mass(
            triangle_sigma.internals, expected
        ).weights
        # this state lies on the two-state cycle: stepping twice returns
        assert triangle_next(expected) == start

    def test_doubly_stochastic_fixes_uniform(self):
        rows = (
            (F(1, 2), F(1, 4), F(1, 4), F(0)),
            (F(1, 4), F(1, 2), F(0), F(1, 4)),
            (F(1, 4), F(0), F(1, 2), F(1, 4)),
            (F(0), F(1, 4), F(1, 4), F(1, 2)),
        )
        sigma = closed_tensor("ds", 2, rows)
        uniform = Distribution.uniform(sigma.internals)
        assert step(sigma, uniform).weights == uniform.weights

    def test_open_process_rejected(self):
        p = ProcessTensor.from_matrix(
            "open", (Variable("I", BINARY),), (), (Variable("O", BINARY),),
            ((F(1), F(0)), (F(0), F(1))),
        )
        with pytest.raises(DomainError):
            step(p, Distribution.uniform((Variable("I", BINARY),)))

    def test_variable_mismatch_rejected(self):
        sigma = closed_tensor("id", 1, identity_rows(2))
        other = Distribution.uniform((Variable("W", BINARY),))
        with pytest.raises(DomainError):
            step(sigma, other)

    def test_variable_mismatch_message_is_bounded(self):
        # both variable lists are cut, however many variables the input has
        sigma = closed_tensor("id", 1, identity_rows(2))
        many = Distribution.uniform(tuple(Variable(f"W{k}", ("0",)) for k in range(5000)))
        with pytest.raises(DomainError, match="does not match") as info:
            step(sigma, many)
        assert len(str(info.value)) < 200

    def test_mass_conserved_on_random_closed_tensors(self):
        rng = Random(22)
        for _ in range(15):
            n_vars = rng.randint(1, 4)
            n = 2 ** n_vars
            sigma = closed_tensor(
                "rand", n_vars, random_stochastic_rows(rng, n, n, allow_zeros=True)
            )
            raw = [rng.randint(0, 6) for _ in range(n)]
            if not any(raw):
                raw[0] = 1
            pi = Distribution(sigma.internals, tuple(F(r, sum(raw)) for r in raw))
            assert sum(step(sigma, pi).weights) == 1


class TestVerifyStationary:
    def test_sixcycle_is_stationary(self, triangle_sigma, sixcycle_omega):
        check = verify_stationary(triangle_sigma, sixcycle_omega)
        assert check.stationary
        assert check.residual == 0

    def test_uniform_is_stationary_for_permutations(self, triangle_sigma):
        uniform = Distribution.uniform(triangle_sigma.internals)
        assert verify_stationary(triangle_sigma, uniform).stationary

    def test_point_mass_on_moving_state_has_residual_one(self, triangle_sigma):
        pi = Distribution.point_mass(triangle_sigma.internals, ("0", "0", "1"))
        check = verify_stationary(triangle_sigma, pi)
        assert not check.stationary
        assert check.residual == 1

    def test_worst_state_is_reported_as_labels(self, triangle_sigma, sixcycle_omega):
        pi = Distribution.point_mass(triangle_sigma.internals, ("0", "0", "1"))
        # the mass leaves 001 for 110; the first of the two states is reported
        assert verify_stationary(triangle_sigma, pi).worst_state == ("0", "0", "1")
        assert verify_stationary(triangle_sigma, sixcycle_omega).worst_state is None


class TestFindStationary:
    def test_two_state_mixing_chain_has_unique_fixed_point(self):
        sigma = closed_tensor(
            "mix", 1, ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        )
        result = find_stationary(sigma)
        assert result.distribution.weights == (F(1, 2), F(1, 2))
        assert result.method == "lp_vertex"
        assert result.residual == 0

    def test_identity_returns_some_stationary_point(self):
        sigma = closed_tensor("id", 1, identity_rows(2))
        result = find_stationary(sigma)
        assert verify_stationary(sigma, result.distribution).stationary

    def test_chsh_permutation(self, chsh_sigma):
        result = find_stationary(chsh_sigma)
        assert verify_stationary(chsh_sigma, result.distribution).stationary
        # the uniform vector is stationary as well (permutation matrix)
        uniform = Distribution.uniform(chsh_sigma.internals)
        assert verify_stationary(chsh_sigma, uniform).stationary

    def test_fixed_point_contract_on_random_networks(self):
        rng = Random(23)
        for _ in range(20):
            net = random_closed_network(rng, allow_zeros=True)
            sigma = contract_network(net)
            result = find_stationary(sigma)
            assert step(sigma, result.distribution).weights == result.distribution.weights

    def test_agrees_with_oracle_on_criterion_4_population(self):
        # the population of acceptance criterion 4 (same seed and draws),
        # restricted to at most 32 states so the Gauss-Jordan oracle is quick
        rng = Random(20_240_101)
        checked = 0
        for k in range(200):
            sigma = contract_network(random_closed_network(rng, allow_zeros=(k % 3 == 0)))
            n = len(sigma.rows)
            if n > 32:
                continue
            matrix = sigma.matrix
            cls = _recurrent_class(sigma)
            rows = [
                [matrix[i][j] - (i == j) for i in cls] for j in cls
            ] + [[F(1)] * len(cls)]
            rhs = [F(0)] * len(cls) + [F(1)]
            expected = [F(0)] * n
            for state, w in zip(cls, solve_linear(rows, rhs)):
                expected[state] = w
            assert find_stationary(sigma).distribution.weights == tuple(expected)
            checked += 1
        assert checked >= 100

    def test_convex_combinations_stay_stationary(self, triangle_sigma, sixcycle_omega):
        uniform = Distribution.uniform(triangle_sigma.internals)
        for lam in (F(1, 3), F(2, 7), F(15, 16)):
            mixed = Distribution(
                triangle_sigma.internals,
                tuple(
                    lam * a + (1 - lam) * b
                    for a, b in zip(sixcycle_omega.weights, uniform.weights)
                ),
            )
            assert verify_stationary(triangle_sigma, mixed).stationary

    def test_state_cap(self, monkeypatch):
        # the cap is read at call time, so a small one stands in for 1024
        monkeypatch.setattr(scenario, "DEFAULT_MAX_STATES", 4)
        sigma = closed_tensor("id", 3, identity_rows(8))
        with pytest.raises(ResourceLimitError, match="size 8 exceeds the cap of 4"):
            find_stationary(sigma)

    @pytest.mark.parametrize(
        "rows, total",
        [
            (((2, ((1, 1),)), (2, ((0, 1),))), "1/2"),
            (((1, ((1, 2),)), (1, ((0, 1),))), "2"),
        ],
        ids=["halves", "double"],
    )
    def test_class_without_probability_rows_is_a_domain_error(self, rows, total):
        # the balance equations of the class {0, 1} would have no solution;
        # the constructor refuses the class's first row, so find_stationary
        # never sees it
        with pytest.raises(DomainError, match=f"^process 'bad': row 0 sums to {total}, not 1$"):
            ProcessTensor("bad", (), (Variable("S", BINARY),), (), rows)


@pytest.mark.parametrize(
    "run",
    [
        step,
        verify_stationary,
        require_stationary,
        lambda sigma, dist: simulate_chain(sigma, dist, 50, 9),
    ],
    ids=["step", "verify_stationary", "require_stationary", "simulate_chain"],
)
def test_a_distribution_over_permuted_variables_is_aligned(run):
    # the same distribution with its variables in reverse order gives the
    # same result as in the process's order
    sigma = contract_network(random_closed_network(Random(25), near_uniform=True))
    pi = find_stationary(sigma).distribution
    permuted = pi.reorder(tuple(reversed(pi.variable_names)))
    assert permuted.variable_names != pi.variable_names
    assert run(sigma, permuted) == run(sigma, pi)


@pytest.mark.parametrize(
    "run",
    [
        step,
        verify_stationary,
        require_stationary,
        lambda sigma, dist: simulate_chain(sigma, dist, 3, 0),
    ],
    ids=["step", "verify_stationary", "require_stationary", "simulate_chain"],
)
def test_a_variable_over_another_alphabet_is_refused(run):
    # same names as the process's (X, Y, Z), but X over three outcomes or
    # over two in the other order: 12 weights once passed the fixed-point
    # check against 8 rows, and simulate_chain ended in an IndexError
    sigma = contract_network(load_network_file(bundled_network_path("product")).network)
    x, y, z = sigma.internals
    for foreign in (Variable("X", ("0", "1", "2")), Variable("X", ("1", "0"))):
        for variables in ((foreign, y, z), (z, foreign, y)):
            with pytest.raises(DomainError, match="does not match the process variables"):
                run(sigma, Distribution.uniform(variables))


def test_require_stationary_aligns_a_distribution_once(
    monkeypatch, triangle_sigma, sixcycle_omega
):
    # each alignment reorders every state; the fixed-point check reads the
    # distribution already aligned
    shuffled = sixcycle_omega.reorder(("Z", "X", "Y"))
    calls = []
    reorder = Distribution.reorder

    def counted(dist, names):
        calls.append(tuple(names))
        return reorder(dist, names)

    monkeypatch.setattr(Distribution, "reorder", counted)
    assert require_stationary(triangle_sigma, shuffled) == sixcycle_omega
    assert calls == [("X", "Y", "Z")]


@pytest.mark.parametrize(
    "run", [step, verify_stationary, require_stationary], ids=lambda f: f.__name__
)
def test_an_open_process_is_refused_before_the_distribution_is_aligned(run):
    # the distribution's variables do not match either; closedness is
    # checked first, as in every chain function
    p = ProcessTensor.from_matrix(
        "open", (Variable("I", BINARY),), (), (Variable("O", BINARY),),
        ((F(1), F(0)), (F(0), F(1))),
    )
    with pytest.raises(DomainError, match="^process 'open' is not closed"):
        run(p, Distribution.uniform((Variable("W", BINARY),)))


def test_stationary_result_checks_its_provenance(triangle_sigma):
    # both methods are exact, so the residual is a constant, not a field
    dist = Distribution.uniform(triangle_sigma.internals)
    with pytest.raises(DomainError, match="^unknown method 'guess'$"):
        StationaryResult(dist, "guess")
    assert StationaryResult(dist, "user_supplied").residual == 0

class TestStructure:
    def test_triangle_permutation_is_reducible(self, triangle_sigma):
        # the permutation splits the states into several classes
        assert len(_strongly_connected_components(_support_graph(triangle_sigma))) > 1
        assert not is_ergodic(triangle_sigma)

    def test_flip_chain_period_two(self):
        # irreducible, so only its period 2 keeps it from being ergodic; one
        # lazy step makes it aperiodic
        sigma = closed_tensor("flip", 1, ((F(0), F(1)), (F(1), F(0))))
        assert len(_strongly_connected_components(_support_graph(sigma))) == 1
        assert not is_ergodic(sigma)
        lazy = closed_tensor("lazy", 1, ((F(1, 2), F(1, 2)), (F(1), F(0))))
        assert is_ergodic(lazy)

    def test_a_lone_state_is_ergodic_and_needs_a_transition(self):
        # its self-loop is a cycle of length 1; an empty row, a state with
        # no transition, is not a probability row
        s = Variable("S", ("0",))
        assert is_ergodic(ProcessTensor("lone", (), (s,), (), ((1, ((0, 1),)),)))
        with pytest.raises(DomainError, match="^process 'lone': row 0 sums to 0, not 1$"):
            ProcessTensor("lone", (), (s,), (), ((1, ()),))

    def test_positive_chain_is_ergodic(self):
        rng = Random(24)
        net = random_closed_network(rng, near_uniform=True)
        assert is_ergodic(contract_network(net))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.lists(
                st.sets(st.integers(0, n - 1), min_size=1, max_size=2),
                min_size=n, max_size=n,
            )
        )
    )
    def test_ergodic_exactly_when_the_support_is_primitive(self, succ):
        # irreducible and aperiodic means some power of the 0/1 support
        # matrix is all ones, and (n - 1)^2 + 1 is the latest (Wielandt)
        n = len(succ)
        rows = tuple((len(t), tuple((c, 1) for c in sorted(t))) for t in succ)
        s = Variable("S", tuple(map(str, range(n))))
        sigma = ProcessTensor("support", (), (s,), (), rows)
        reach = [set(t) for t in succ]
        for _ in range((n - 1) ** 2):
            reach = [set().union(*(succ[w] for w in r)) for r in reach]
        assert is_ergodic(sigma) == all(len(r) == n for r in reach)

    def test_open_process_is_refused(self):
        p = ProcessTensor.from_matrix(
            "open", (Variable("I", BINARY),), (), (Variable("O", BINARY),),
            ((F(1), F(0)), (F(0), F(1))),
        )
        with pytest.raises(DomainError, match="is not closed"):
            is_ergodic(p)


@st.composite
def successor_lists(draw):
    """A graph as successor lists under shuffled state labels: closed cycles
    of 1-6 states (a 1-cycle is a self-loop), a path of up to 40 transient
    states into them, states with no successor, and up to 8 random edges,
    which may merge classes or let a cycle leak."""
    cycles = draw(st.lists(st.integers(1, 6), max_size=4))
    path = draw(st.integers(0, 40))
    sinks = draw(st.integers(0 if cycles or path else 1, 3))
    n = sum(cycles) + path + sinks
    state = st.integers(0, n - 1)
    succ: list[list[int]] = [[] for _ in range(n)]
    base = 0
    for size in cycles:
        for k in range(size):
            succ[base + k].append(base + (k + 1) % size)
        base += size
    for k in range(base, base + path):
        succ[k].append(k + 1 if k + 1 < base + path else draw(state))
    for a, b in draw(st.lists(st.tuples(state, state), max_size=8)):
        if b not in succ[a]:
            succ[a].append(b)
    label = draw(st.permutations(range(n)))
    relabelled: list[list[int]] = [[] for _ in range(n)]
    for v, targets in enumerate(succ):
        relabelled[label[v]] = [label[w] for w in targets]
    return relabelled


def partition(components):
    return sorted(tuple(comp) for comp in components)


class TestComponents:
    @settings(max_examples=300, deadline=None)
    @given(successor_lists())
    def test_same_partition_as_tarjan(self, succ):
        assert partition(_strongly_connected_components(succ)) == partition(
            tarjan_components(succ)
        )

    def test_long_path_needs_no_recursion(self):
        # far deeper than the interpreter's default recursion limit of 1000
        n = 5000
        succ = [[v + 1] for v in range(n - 1)] + [[n - 1]]
        assert partition(_strongly_connected_components(succ)) == [(v,) for v in range(n)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.booleans())
    def test_recurrent_class_is_the_oracle_closed_class(self, seed, contracted):
        # the closed class with the smallest first state, on reducible chains:
        # sparse rows (denominators 2 or 3, zeros allowed) of a contracted
        # network or of a hand-built tensor
        rng = Random(seed)
        if contracted:
            net = random_closed_network(
                rng, allow_zeros=True, max_denominator=rng.choice((2, 3))
            )
            sigma = contract_network(net)
        else:
            n_vars = rng.randint(1, 4)
            rows = random_stochastic_rows(
                rng, 2**n_vars, 2**n_vars, rng.choice((2, 3)), allow_zeros=True
            )
            sigma = closed_tensor("rand", n_vars, rows)
        succ = _support_graph(sigma)
        classes = tarjan_components(succ)
        assume(len(classes) > 1)
        closed = [
            comp for comp in classes if all(w in comp for v in comp for w in succ[v])
        ]
        assert _recurrent_class(sigma) == min(closed, key=lambda comp: comp[0])


class TestSimulate:
    def test_identity_trajectory_is_constant(self):
        sigma = closed_tensor("id", 2, identity_rows(4))
        trail = simulate_chain(sigma, ("1", "0"), steps=5, seed=3)
        # ("1", "0") is section 2 of two binary variables
        assert trail == (2,) * 6

    def test_triangle_three_steps_deterministic(self, triangle_sigma):
        # the permutation makes the trajectory seed-independent
        start = ("0", "1", "1")
        expected = [start]
        for _ in range(3):
            expected.append(triangle_next(expected[-1]))
        expected = [section_index(triangle_sigma.internals, s) for s in expected]
        for seed in (0, 1, 99):
            trail = simulate_chain(triangle_sigma, start, steps=3, seed=seed)
            assert list(trail) == expected

    @pytest.mark.parametrize("init", ["0000", "0", 5])
    def test_initial_outcomes_must_be_a_sequence_other_than_a_str(self, chsh_sigma, init):
        # "0000" would split into the four outcomes of state 0
        with pytest.raises(DomainError, match="a section's outcomes"):
            simulate_chain(chsh_sigma, init, 5, 1)

    def test_flip_chain_alternates(self):
        sigma = closed_tensor("flip", 1, ((F(0), F(1)), (F(1), F(0))))
        trail = simulate_chain(sigma, ("0",), steps=4, seed=11)
        assert trail == (0, 1, 0, 1, 0)

    def test_same_seed_reproduces(self):
        rng = Random(25)
        net = random_closed_network(rng, near_uniform=True)
        sigma = contract_network(net)
        init = find_stationary(sigma).distribution
        a = simulate_chain(sigma, init, steps=50, seed=17)
        b = simulate_chain(sigma, init, steps=50, seed=17)
        assert a == b
        c = simulate_chain(sigma, init, steps=50, seed=18)
        assert a != c

    def test_zero_steps_returns_initial_only(self, triangle_sigma):
        trail = simulate_chain(triangle_sigma, ("0", "0", "0"), steps=0, seed=1)
        assert trail == (0,)

    @pytest.mark.parametrize(
        "row, total",
        [((F(1, 2), F(0), F(0)), "1/2"), ((F(0), F(0), F(0)), "0")],
        ids=["half", "zero"],
    )
    def test_row_that_is_not_a_probability_row_is_refused(self, row, total):
        # sampled from, both rows would give state 2, a transition of
        # probability 0; no chain holding them can be built
        s = Variable("S", ("0", "1", "2"))
        with pytest.raises(DomainError, match=f"^process 'p': row 0 sums to {total}, not 1$"):
            ProcessTensor.from_matrix(
                "p", (), (s,), (), (row, (F(0), F(1), F(0)), (F(0), F(0), F(1)))
            )

    def test_negative_steps_rejected(self, triangle_sigma):
        with pytest.raises(DomainError):
            simulate_chain(triangle_sigma, ("0", "0", "0"), steps=-1, seed=1)

    @pytest.mark.parametrize("steps", [2.5, "3", True, None])
    def test_steps_that_are_not_ints_are_refused(self, triangle_sigma, steps):
        start = ("0", "0", "0")
        with pytest.raises(DomainError, match="steps must be an int"):
            simulate_chain(triangle_sigma, start, steps, 1)

    @pytest.mark.parametrize("seed", [1.5, "3", None, True])
    def test_seeds_that_are_not_ints_are_refused(self, triangle_sigma, seed):
        # unchecked, True would run as seed 1 and the others raise TypeError
        start = ("0", "0", "0")
        with pytest.raises(DomainError, match=f"seed must be an int, not {seed!r}"):
            simulate_chain(triangle_sigma, start, 5, seed)

    def test_negative_seed_wraps(self):
        sigma = closed_tensor("mix", 1, ((F(1, 2), F(1, 2)), (F(1, 3), F(2, 3))))
        assert simulate_chain(sigma, ("0",), 40, -1) == simulate_chain(
            sigma, ("0",), 40, 2**64 - 1
        )

    def test_steps_over_the_cap_refused_before_the_first_draw(self, triangle_sigma):
        uniform = Distribution.uniform(triangle_sigma.internals)
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match="cap of 10000000"):
            simulate_chain(triangle_sigma, uniform, steps=MAX_STEPS + 1, seed=1)
        assert time.perf_counter() - start < 1.0


def visit_frequencies(sigma, trail):
    """The share of the trajectory's states spent in each state (a Cesaro
    average of the chain)."""
    counts = Counter(trail)
    return [F(counts[i], len(trail)) for i in range(len(sigma.rows))]


class TestEstimateStationary:
    """Time averages along one `simulate_chain` trajectory against the exact
    stationary distribution."""

    def test_cesaro_estimate_tracks_exact_on_ergodic_chain(self):
        rng = Random(26)
        net = random_closed_network(rng, n_nodes=3, near_uniform=True)
        sigma = contract_network(net)
        exact = find_stationary(sigma).distribution
        est = visit_frequencies(sigma, simulate_chain(sigma, exact, steps=30_000, seed=4))
        gap = max(abs(float(a) - float(b)) for a, b in zip(est, exact.weights))
        assert gap < 0.02

    def test_periodic_chain_time_average(self):
        sigma = closed_tensor("flip", 1, ((F(0), F(1)), (F(1), F(0))))
        est = visit_frequencies(sigma, simulate_chain(sigma, ("0",), steps=999, seed=0))
        # 1000 visited states alternate, so the average is exactly (1/2, 1/2)
        assert est == [F(1, 2), F(1, 2)]
        average = Distribution(sigma.internals, tuple(est))
        assert verify_stationary(sigma, average).stationary

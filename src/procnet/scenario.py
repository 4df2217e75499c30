"""Finite measurement scenarios: variables, sections, exact distributions.

A section is a joint outcome assignment for an ordered set of variables.
At the API it is its outcome tuple, one outcome per variable in order
(`section_at`, `Distribution.support`); inside the code it is an index.
Sections are indexed lexicographically by (variable order, alphabet order),
row-major with the last variable fastest; every dense vector in the package
uses that layout.  All probabilities are exact rationals end to end, so
equality checks downstream are exact and never depend on a float tolerance.
A `Distribution` has one integer form, its weights over their common
denominator, computed once when it is built; its checks, `marginalize` and
the chain updates in `dynamics` work on those integers and build Fractions
only for the weights of a new distribution.

Everything here is immutable after construction and safe to share between
threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DomainError, ResourceLimitError
from .rationals import _scaled, echo

ZERO = Fraction(0)
ONE = Fraction(1)

# The stationary solve and the LP over global sections are dense in the
# state count; contraction's work follows the nonzeros, at most one row of
# them per state.
DEFAULT_MAX_STATES = 1024
# Contraction forms one integer product per nonzero of the global process;
# the cap admits every strictly positive chain of 9 binary wires (512 x 512).
DEFAULT_MAX_NONZEROS = 2**18
# The structure stages compare nodes and contexts pairwise, and variables of
# one outcome leave the state count at 1; a ring of 128 nodes and 4 such
# wires per arrow (512 variables) is analyzed in about 0.3 s.
DEFAULT_MAX_NODES = 128
DEFAULT_MAX_VARIABLES = 512


def _require_state_cap(n: int) -> None:
    """Raise ResourceLimitError when n states exceed DEFAULT_MAX_STATES."""
    if n > DEFAULT_MAX_STATES:
        raise ResourceLimitError(
            f"state space of size {n} exceeds the cap of {DEFAULT_MAX_STATES}"
        )


def _require_nonzero_cap(n: int) -> None:
    """Raise ResourceLimitError when n nonzeros exceed DEFAULT_MAX_NONZEROS."""
    if n > DEFAULT_MAX_NONZEROS:
        raise ResourceLimitError(
            f"global process of {n} nonzeros exceeds the cap of {DEFAULT_MAX_NONZEROS}"
        )


def _require_structure_caps(n_nodes: int, n_variables: int) -> None:
    """Raise ResourceLimitError when a network's nodes or global variables
    exceed DEFAULT_MAX_NODES or DEFAULT_MAX_VARIABLES."""
    for n, cap, what in (
        (n_nodes, DEFAULT_MAX_NODES, "nodes"),
        (n_variables, DEFAULT_MAX_VARIABLES, "global variables"),
    ):
        if n > cap:
            raise ResourceLimitError(f"structure check: {n} {what} exceed the cap of {cap}")


def _sequence(values, what: str) -> tuple:
    """values as a tuple; a bare str, which would split into its characters,
    a mapping, which would yield its keys, or a value that is not iterable
    is a DomainError naming `what`."""
    if isinstance(values, (str, Mapping)) or not isinstance(values, Iterable):
        raise DomainError(
            f"{what} must be a sequence other than a str or a mapping, not {echo(values)}"
        )
    return tuple(values)


def _names(values, what: str) -> tuple[str, ...]:
    """values as a `_sequence` of variable names; an entry that is not a str
    is a DomainError naming `what`, before any name is sorted or hashed."""
    names = _sequence(values, what)
    for name in names:
        if not isinstance(name, str):
            raise DomainError(f"an entry of {what} must be a str, not {echo(name)}")
    return names


@dataclass(frozen=True)
class Variable:
    """A named observable with a finite, ordered outcome alphabet."""

    name: str
    alphabet: tuple[str, ...]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise DomainError("variable name must be a nonempty string")
        object.__setattr__(
            self, "alphabet", _sequence(self.alphabet, f"alphabet of {self.name!r}")
        )
        if not self.alphabet:
            raise DomainError(f"variable {self.name!r} needs at least one outcome")
        if any(not isinstance(o, str) for o in self.alphabet):
            raise DomainError(f"outcomes of {self.name!r} must be strings")
        if len(set(self.alphabet)) != len(self.alphabet):
            raise DomainError(f"outcomes of {self.name!r} must be distinct")

    @property
    def size(self) -> int:
        return len(self.alphabet)

    def index(self, outcome: str) -> int:
        try:
            return self.alphabet.index(outcome)
        except ValueError:
            raise DomainError(
                f"outcome {outcome!r} not in alphabet of {self.name!r}"
            ) from None


def _check_distinct_names(variables: Sequence[Variable]) -> None:
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise DomainError("variable names must be distinct")


def section_count(variables: Sequence[Variable]) -> int:
    n = 1
    for v in variables:
        n *= v.size
    return n


def iter_outcome_tuples(variables: Sequence[Variable]) -> Iterator[tuple[str, ...]]:
    """All joint outcomes in index order (last variable fastest)."""
    return product(*[v.alphabet for v in variables])


def section_at(variables: Sequence[Variable], index: int) -> tuple[str, ...]:
    """The outcome tuple of section `index`, in variable order; an index
    that is not an int (a bool included) is a DomainError."""
    if type(index) is not int:
        raise DomainError(f"section index must be an int, not {echo(index)}")
    total = section_count(variables)
    if not 0 <= index < total:
        raise DomainError(f"section index {index} out of range 0..{total - 1}")
    outcomes = []
    for v in reversed(variables):
        index, digit = divmod(index, v.size)
        outcomes.append(v.alphabet[digit])
    return tuple(reversed(outcomes))


def section_index(variables: Sequence[Variable], section) -> int:
    """Index of a section given as its outcomes, one per variable in order.

    The outcomes must be a sequence such as a tuple or a list; a bare str,
    which would split into one-character outcomes, a mapping, whose keys
    would be read as outcomes, or a value that is not iterable is a
    DomainError.
    """
    outcomes = _sequence(section, "a section's outcomes")
    if len(outcomes) != len(variables):
        raise DomainError("outcome tuple length does not match variable list")
    idx = 0
    for v, o in zip(variables, outcomes):
        idx = idx * v.size + v.index(o)
    return idx


def _index_table(
    sub_vars: Sequence[Variable], space_vars: Sequence[Variable]
) -> list[int]:
    """For each section of space_vars, in index order, the index of its
    restriction to sub_vars.  Variables of space_vars not in sub_vars are
    dropped; variables of sub_vars not in space_vars contribute 0, so with
    sub_vars the larger space the entries are offsets into it."""
    stride, acc = {}, 1
    for v in reversed(sub_vars):
        stride[v.name] = acc
        acc *= v.size
    table = [0]
    for v in space_vars:
        s = stride.get(v.name, 0)
        steps = [d * s for d in range(v.size)]
        table = [t + step for t in table for step in steps]
    return table


def _as_fraction(value) -> Fraction:
    """An int or a Fraction as a Fraction; a float, a bool, a string or any
    other value is a DomainError (strings are parsed only, and bounded, by
    `rationals.parse_rational`)."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise DomainError("probabilities must be exact rationals, not floats")
    if type(value) is bool or not isinstance(value, (int, Fraction)):
        raise DomainError(f"probabilities must be ints or Fractions, not {echo(value)}")
    return Fraction(value)


@dataclass(frozen=True)
class Distribution:
    """Exact probability weights over the sections of a variable list.

    The constructor scales the weights once to their common denominator d
    and keeps `(d, numerators)` in the private `_integers` (left out of
    `__init__`, `==`, `hash` and `repr`): the sign and sum-to-one checks run
    on those integers, and `marginalize`, `dynamics.step`,
    `verify_stationary` and `simulate_chain` read them instead of scaling
    or adding the weights again.
    """

    variables: tuple[Variable, ...]
    weights: tuple[Fraction, ...]
    _integers: tuple[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        _check_distinct_names(self.variables)
        weights = tuple(_as_fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != section_count(self.variables):
            raise DomainError(
                f"expected {section_count(self.variables)} weights, got {len(weights)}"
            )
        d, numerators = _scaled(weights)
        if min(numerators) < 0:
            raise DomainError("weights must be nonnegative")
        if sum(numerators) != d:
            raise DomainError("weights must sum to exactly 1")
        object.__setattr__(self, "_integers", (d, tuple(numerators)))

    @classmethod
    def uniform(cls, variables: Sequence[Variable]) -> "Distribution":
        variables = tuple(variables)
        n = section_count(variables)
        return cls(variables, (Fraction(1, n),) * n)

    @classmethod
    def point_mass(cls, variables: Sequence[Variable], outcomes) -> "Distribution":
        variables = tuple(variables)
        idx = section_index(variables, outcomes)
        weights = [ZERO] * section_count(variables)
        weights[idx] = ONE
        return cls(variables, tuple(weights))

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    def weight(self, section) -> Fraction:
        return self.weights[section_index(self.variables, section)]

    def support(self) -> tuple[tuple[str, ...], ...]:
        return tuple(
            section_at(self.variables, i) for i, w in enumerate(self.weights) if w > 0
        )

    def reorder(self, names: Sequence[str]) -> "Distribution":
        """Same distribution with the variables permuted into the given order."""
        names = _names(names, "reorder names")
        if sorted(names) != sorted(self.variable_names):
            raise DomainError("reorder requires a permutation of the variable names")
        return marginalize(self, names)


def marginalize(dist: Distribution, names: Iterable[str]) -> Distribution:
    """Sum out every variable not listed; the result follows the given order.

    The weight of a target section is the total weight of all source sections
    restricting to it.  The sums run on the source's integers `(d,
    numerators)`, and each target weight is its numerator total over d, so
    total mass is preserved exactly.
    """
    names = _names(names, "marginalization names")
    if len(set(names)) != len(names):
        raise DomainError("marginalization names must be distinct")
    position = {v.name: k for k, v in enumerate(dist.variables)}
    try:
        positions = [position[n] for n in names]
    except KeyError as exc:
        raise DomainError(f"variable {exc.args[0]!r} not in distribution") from None
    target_vars = tuple(dist.variables[p] for p in positions)
    if target_vars == dist.variables:
        return dist

    d, nums = dist._integers
    totals = [0] * section_count(target_vars)
    for t, n in compress(zip(_index_table(target_vars, dist.variables), nums), nums):
        totals[t] += n
    return Distribution(target_vars, tuple(Fraction(total, d) for total in totals))


@dataclass(frozen=True)
class MeasurementScenario:
    """Variables plus the family of maximal jointly-measurable contexts.

    Contexts below the maximal ones are never materialized; queries about
    them marginalize on demand.
    """

    variables: tuple[Variable, ...]
    maximal_contexts: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(
            self,
            "maximal_contexts",
            tuple(
                _names(ctx, "a maximal context")
                for ctx in _sequence(self.maximal_contexts, "maximal contexts")
            ),
        )
        _check_distinct_names(self.variables)
        declared = {v.name for v in self.variables}
        if not self.maximal_contexts:
            raise DomainError("a scenario needs at least one maximal context")
        covered: set[str] = set()
        sets = []
        for ctx in self.maximal_contexts:
            if not ctx:
                raise DomainError("contexts must be nonempty")
            if len(set(ctx)) != len(ctx):
                raise DomainError(f"context {ctx} repeats a variable")
            unknown = set(ctx) - declared
            if unknown:
                raise DomainError(f"context {ctx} uses undeclared variables {sorted(unknown)}")
            covered |= set(ctx)
            sets.append(frozenset(ctx))
        if covered != declared:
            raise DomainError(f"variables {sorted(declared - covered)} appear in no context")
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j and a <= b:
                    raise DomainError(
                        f"context {self.maximal_contexts[i]} is contained in "
                        f"{self.maximal_contexts[j]}; maximal contexts must be incomparable"
                    )

    def variable(self, name: str) -> Variable:
        for v in self.variables:
            if v.name == name:
                return v
        raise DomainError(f"unknown variable {name!r}")

    def context_variables(self, context: Sequence[str]) -> tuple[Variable, ...]:
        return tuple(self.variable(n) for n in context)


@dataclass(frozen=True)
class EmpiricalModel:
    """A scenario with one exact distribution per maximal context."""

    scenario: MeasurementScenario
    context_distributions: tuple[Distribution, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "context_distributions", tuple(self.context_distributions)
        )
        ctxs = self.scenario.maximal_contexts
        if len(self.context_distributions) != len(ctxs):
            raise DomainError("need exactly one distribution per maximal context")
        for ctx, dist in zip(ctxs, self.context_distributions):
            if dist.variable_names != ctx:
                raise DomainError(
                    f"distribution over {dist.variable_names} does not match context {ctx}"
                )
            for v in dist.variables:
                if v != self.scenario.variable(v.name):
                    raise DomainError(
                        f"variable {v.name!r} disagrees with the scenario's declaration"
                    )

    def distribution_for(self, context: Iterable[str]) -> Distribution:
        wanted = frozenset(_names(context, "a context"))
        for ctx, dist in zip(self.scenario.maximal_contexts, self.context_distributions):
            if frozenset(ctx) == wanted:
                return dist
        raise DomainError(f"no maximal context with variables {sorted(wanted)}")


@dataclass(frozen=True)
class OverlapViolation:
    """One coordinate where two context marginals disagree."""

    first: tuple[str, ...]
    second: tuple[str, ...]
    overlap: tuple[str, ...]
    outcomes: tuple[str, ...]
    first_weight: Fraction
    second_weight: Fraction


@dataclass(frozen=True)
class CompatibilityReport:
    violations: tuple[OverlapViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_empirical_model(em: EmpiricalModel) -> CompatibilityReport:
    """Check the no-signalling condition on every pair of maximal contexts.

    For contexts U, V with nonempty intersection the two marginals on
    U ∩ V are compared coordinate-wise, exactly; every entry where they
    differ is reported.
    """
    order = [v.name for v in em.scenario.variables]
    ctxs = em.scenario.maximal_contexts
    name_sets = [set(ctx) for ctx in ctxs]
    violations: list[OverlapViolation] = []
    for i in range(len(ctxs)):
        for j in range(i + 1, len(ctxs)):
            shared = name_sets[i] & name_sets[j]
            if not shared:
                continue
            common = [n for n in order if n in shared]
            mi = marginalize(em.context_distributions[i], common)
            mj = marginalize(em.context_distributions[j], common)
            for k, outcomes in enumerate(iter_outcome_tuples(mi.variables)):
                if mi.weights[k] != mj.weights[k]:
                    violations.append(
                        OverlapViolation(
                            first=ctxs[i],
                            second=ctxs[j],
                            overlap=tuple(common),
                            outcomes=outcomes,
                            first_weight=mi.weights[k],
                            second_weight=mj.weights[k],
                        )
                    )
    return CompatibilityReport(tuple(violations))

"""Deciding whether an empirical model admits a global distribution.

Non-contextuality is an exact linear feasibility problem: one unknown per
global section, constrained to be nonnegative, to sum to one, and to add up
to the observed weight of every section of every maximal context.  The
solver works in rationals, so the verdict is a theorem about the input, not
a float artifact.  Infeasible instances carry a dual (Farkas) vector that
any third party can re-check against the constraint system; feasible ones
carry a witness whose marginals are re-verified before it is returned.

Strong contextuality is possibilistic and decided by brute force: does any
global assignment receive positive weight in every context?

Regularity of a scenario's context hypergraph (the shapes on which every
compatible family extends to a global distribution) is decided by iterated
Graham reduction: repeatedly drop variables private to a single context and
contexts contained in others; the hypergraph is acyclic exactly when
everything reduces away.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Sequence

from .errors import DomainError
from .exactlp import farkas_contradiction, feasible_point
from .rationals import echo
from .scenario import (
    ONE,
    Distribution,
    EmpiricalModel,
    MeasurementScenario,
    _index_table,
    _names,
    _require_state_cap,
    iter_outcome_tuples,
    marginalize,
    section_count,
)


@dataclass(frozen=True)
class ConstraintRow:
    """Label of one row of the feasibility system (for auditable certificates)."""

    context: tuple[str, ...] | None
    outcomes: tuple[str, ...] | None

    @property
    def is_normalization(self) -> bool:
        return self.context is None


@dataclass(frozen=True)
class ContextualityVerdict:
    contextual: bool
    strongly_contextual: bool
    witness: Distribution | None
    certificate: tuple[Fraction, ...] | None
    certificate_rows: tuple[ConstraintRow, ...] | None
    notes: str

    def __post_init__(self):
        if self.strongly_contextual and not self.contextual:
            raise DomainError("strong contextuality implies contextuality")


def global_section_system(
    em: EmpiricalModel,
) -> tuple[list[list[int]], list[Fraction], list[ConstraintRow]]:
    """The exact system {A q = b} over global-section weights q >= 0.

    One row per (maximal context, context section) pair demanding the
    summed weight of all matching global sections, plus a final
    normalization row; rows are ordered that way so certificates can be
    read back against the labels.  A is the 0/1 incidence matrix as plain
    ints: each context's block has exactly one 1 per column, and the
    normalization row is all ones.  b holds the context weights as given,
    then 1, as Fractions.  More global sections than the state cap is a
    ResourceLimitError, raised before any row is built.
    """
    variables = em.scenario.variables
    n = section_count(variables)
    _require_state_cap(n)
    rows: list[list[int]] = []
    rhs: list[Fraction] = []
    labels: list[ConstraintRow] = []
    for ctx, dist in zip(em.scenario.maximal_contexts, em.context_distributions):
        ctx_rows = [[0] * n for _ in dist.weights]
        for g, k in enumerate(_index_table(dist.variables, variables)):
            ctx_rows[k][g] = 1
        rows.extend(ctx_rows)
        rhs.extend(dist.weights)
        labels.extend(
            ConstraintRow(ctx, outcomes)
            for outcomes in iter_outcome_tuples(dist.variables)
        )
    rows.append([1] * n)
    rhs.append(ONE)
    labels.append(ConstraintRow(None, None))
    return rows, rhs, labels


def decide_contextuality(em: EmpiricalModel) -> ContextualityVerdict:
    """Exact verdict with a checkable witness or Farkas certificate.

    Strong contextuality is enumerated only for infeasible models; a
    witness rules it out.  More global sections than the state cap is a
    ResourceLimitError (from `global_section_system`).
    """
    rows, rhs, labels = global_section_system(em)
    result = feasible_point(rows, rhs)
    if result.feasible:
        witness = Distribution(em.scenario.variables, result.solution)
        for ctx, dist in zip(em.scenario.maximal_contexts, em.context_distributions):
            if marginalize(witness, ctx).weights != dist.weights:
                raise AssertionError("witness fails to reproduce a context marginal")
        return ContextualityVerdict(
            contextual=False,
            strongly_contextual=False,
            witness=witness,
            certificate=None,
            certificate_rows=None,
            notes="feasible by exact phase-1 simplex; witness marginals re-checked",
        )
    if not farkas_contradiction(rows, rhs, result.certificate):
        raise AssertionError("infeasibility certificate failed its mechanical check")
    return ContextualityVerdict(
        contextual=True,
        strongly_contextual=is_strongly_contextual(em),
        witness=None,
        certificate=result.certificate,
        certificate_rows=tuple(labels),
        notes="infeasible by exact phase-1 simplex; Farkas certificate verified",
    )


def verify_infeasibility_certificate(
    em: EmpiricalModel, certificate: Sequence[Fraction | int]
) -> bool:
    """Re-check a certificate against a freshly built constraint system.

    Every entry must be an int or a Fraction; any other entry, a bool
    included, is a DomainError.  More global sections than the state cap is
    a ResourceLimitError, as in `global_section_system`.
    """
    certificate = tuple(certificate)
    for y in certificate:
        if type(y) is bool or not isinstance(y, (int, Fraction)):
            raise DomainError(f"certificate entry is not an int or a Fraction: {echo(y)}")
    rows, rhs, _ = global_section_system(em)
    return farkas_contradiction(rows, rhs, certificate)


def is_strongly_contextual(em: EmpiricalModel) -> bool:
    """True when no global assignment is possibilistically consistent.

    Enumerates every global section (at most the state cap, else
    ResourceLimitError) and asks whether each maximal context gives its
    restriction positive weight.
    """
    _require_state_cap(section_count(em.scenario.variables))
    variables = em.scenario.variables
    restrictions = [
        (_index_table(dist.variables, variables), dist.weights)
        for dist in em.context_distributions
    ]
    return not any(
        all(weights[table[g]] for table, weights in restrictions)
        for g in range(section_count(variables))
    )


@dataclass(frozen=True)
class ChshReport:
    """Correlator analysis of a four-context, two-outcome square scenario.

    The bounds are constants of the class, read as attributes but not
    arguments.  The quantum bound 2*sqrt(2) is irrational, so it is stored
    squared: a value v violates it exactly when v*v > tsirelson_squared.
    """

    value: Fraction
    correlators: tuple[Fraction, Fraction, Fraction, Fraction]
    term_signs: tuple[int, int, int, int]
    labeling: tuple[str, str, str, str]
    classical_bound: ClassVar[Fraction] = Fraction(2)
    pr_bound: ClassVar[Fraction] = Fraction(4)
    tsirelson_squared: ClassVar[Fraction] = Fraction(8)

    def __post_init__(self):
        if not (0 <= self.value <= 4):
            raise DomainError("CHSH value must lie in [0, 4]")

    @property
    def violates_classical(self) -> bool:
        return self.value > self.classical_bound

    @property
    def violates_tsirelson(self) -> bool:
        return self.value * self.value > self.tsirelson_squared


def detect_chsh_labeling(
    scenario: MeasurementScenario,
) -> tuple[str, str, str, str] | None:
    """Find (A1, A2, B1, B2) such that the contexts are the four (Ai, Bj).

    Returns None unless the scenario is a two-outcome square: four binary
    variables, four two-variable contexts forming a 4-cycle.
    """
    if len(scenario.variables) != 4 or len(scenario.maximal_contexts) != 4:
        return None
    if any(v.size != 2 for v in scenario.variables):
        return None
    if any(len(ctx) != 2 for ctx in scenario.maximal_contexts):
        return None
    # four distinct edges: a scenario's maximal contexts are incomparable
    edges = {frozenset(ctx) for ctx in scenario.maximal_contexts}
    names = [v.name for v in scenario.variables]
    a1 = names[0]
    neighbors = sorted(
        {n for e in edges if a1 in e for n in e if n != a1},
        key=names.index,
    )
    if len(neighbors) != 2:
        return None
    b1, b2 = neighbors
    a2 = next(n for n in names if n not in (a1, b1, b2))
    wanted = {
        frozenset((a1, b1)),
        frozenset((a1, b2)),
        frozenset((a2, b1)),
        frozenset((a2, b2)),
    }
    if edges != wanted:
        return None
    return a1, a2, b1, b2


def chsh_value(
    em: EmpiricalModel, labeling: tuple[str, str, str, str] | None = None
) -> ChshReport:
    """Largest single-negation combination of the four correlators.

    E_ij is the parity expectation sum_{a,b} (-1)^(a xor b) P(a, b) over the
    context (A_i, B_j), outcomes taken by alphabet position.  All four
    sign patterns with exactly one negated term are tried and the best kept,
    so the verdict does not depend on which context carries the
    anti-correlation.  A labeling passed in must be a sequence of exactly
    four names (A1, A2, B1, B2); a bare str, a value that is not iterable
    or another count is a DomainError.
    """
    if labeling is None:
        labeling = detect_chsh_labeling(em.scenario)
        if labeling is None:
            raise DomainError("scenario is not a two-outcome square; pass a labeling")
    labeling = _names(labeling, "a CHSH labeling")
    if len(labeling) != 4:
        raise DomainError(f"a CHSH labeling needs 4 names, not {len(labeling)}")
    a1, a2, b1, b2 = labeling

    def correlator(a_name: str, b_name: str) -> Fraction:
        dist = em.distribution_for((a_name, b_name))
        if any(v.size != 2 for v in dist.variables):
            raise DomainError("CHSH needs two-outcome variables")
        # section k of two binary variables has outcome positions k // 2 and
        # k % 2, so its parity is even for k = 0 and 3 whatever their order
        w = dist.weights
        return w[0] - w[1] - w[2] + w[3]

    es = (
        correlator(a1, b1),
        correlator(a1, b2),
        correlator(a2, b1),
        correlator(a2, b2),
    )
    best = None
    best_signs = None
    for negate in range(4):
        signs = tuple(-1 if k == negate else 1 for k in range(4))
        value = abs(sum(s * e for s, e in zip(signs, es)))
        if best is None or value > best:
            best = value
            best_signs = signs
    return ChshReport(
        value=best,
        correlators=es,
        term_signs=best_signs,
        labeling=labeling,
    )


@dataclass(frozen=True)
class GrahamTrace:
    """Reduction log: variable drops and context absorptions, in order.

    `absorptions` lists (context index, parent index, separator) where the
    separator is the context's surviving variable set at absorption time;
    reversing the list gives an order in which compatible distributions can
    be built context by context (used by the test generators).
    """

    regular: bool
    dropped_variables: tuple[tuple[str, int], ...]
    absorptions: tuple[tuple[int, int, tuple[str, ...]], ...]
    root: int | None


def graham_reduction(scenario: MeasurementScenario) -> GrahamTrace:
    order = [v.name for v in scenario.variables]
    alive: dict[int, set[str]] = {
        i: set(ctx) for i, ctx in enumerate(scenario.maximal_contexts)
    }
    dropped: list[tuple[str, int]] = []
    absorptions: list[tuple[int, int, tuple[str, ...]]] = []

    changed = True
    while changed:
        changed = False
        for i in sorted(alive):
            for j in sorted(alive):
                if i == j:
                    continue
                if alive[i] <= alive[j] and (alive[i] != alive[j] or j < i):
                    separator = tuple(n for n in order if n in alive[i])
                    absorptions.append((i, j, separator))
                    del alive[i]
                    changed = True
                    break
            if changed:
                break
        if changed:
            continue
        counts: dict[str, list[int]] = {}
        for i, ctx in alive.items():
            for name in ctx:
                counts.setdefault(name, []).append(i)
        for name in order:
            holders = counts.get(name, [])
            if len(holders) == 1:
                alive[holders[0]].discard(name)
                dropped.append((name, holders[0]))
                changed = True

    if len(alive) == 1:
        (root, remaining), = alive.items()
        regular = not remaining
    else:
        root = None
        regular = False
    return GrahamTrace(
        regular=regular,
        dropped_variables=tuple(dropped),
        absorptions=tuple(absorptions),
        root=root,
    )


def vorobev_regular(scenario: MeasurementScenario) -> bool:
    """True when the maximal-context hypergraph is acyclic (fully reducible)."""
    return graham_reduction(scenario).regular

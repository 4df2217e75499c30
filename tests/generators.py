"""Random instances for property tests and diagnostics.

Closed reciprocity-free networks are built as directed cycles of 3-5 nodes
with optional extra forward arrows (never creating a two-node loop), binary
arrow alphabets, and rational matrix rows with bounded denominators.
Scenario generators produce small context families; the tree-shaped ones
are grown along a running-intersection order and are therefore always
Graham-reducible.

Everything is driven by a caller-supplied `random.Random`, so runs are
reproducible from the seed.
"""
from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Sequence

from procnet.contextuality import graham_reduction
from procnet.errors import DomainError
from procnet.process import Network, ProcessTensor, Variable
from procnet.scenario import (
    ONE,
    Distribution,
    EmpiricalModel,
    MeasurementScenario,
    _index_table,
    marginalize,
    section_count,
)

BINARY = ("0", "1")


def random_stochastic_rows(
    rng: Random,
    n_rows: int,
    n_cols: int,
    max_denominator: int = 16,
    allow_zeros: bool = False,
) -> tuple[tuple[Fraction, ...], ...]:
    """Rows of nonnegative rationals with denominator <= max_denominator,
    each summing to exactly 1."""
    if n_cols > max_denominator and not allow_zeros:
        raise DomainError("cannot make every entry positive with this denominator")
    rows = []
    for _ in range(n_rows):
        denom = rng.randint(max(n_cols, 2) if not allow_zeros else 2, max_denominator)
        if allow_zeros:
            counts = [0] * n_cols
            for _ in range(denom):
                counts[rng.randrange(n_cols)] += 1
        else:
            cuts = sorted(rng.sample(range(1, denom), n_cols - 1)) if n_cols > 1 else []
            bounds = [0] + cuts + [denom]
            counts = [bounds[k + 1] - bounds[k] for k in range(n_cols)]
        rows.append(tuple(Fraction(c, denom) for c in counts))
    return tuple(rows)


def random_near_uniform_rows(
    rng: Random, n_rows: int, n_cols: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Strictly positive rows with mild jitter; the induced chains mix fast."""
    rows = []
    for _ in range(n_rows):
        parts = [rng.randint(8, 16) for _ in range(n_cols)]
        total = sum(parts)
        rows.append(tuple(Fraction(p, total) for p in parts))
    return tuple(rows)


def random_closed_network(
    rng: Random,
    n_nodes: int | None = None,
    max_arrows: int = 6,
    max_denominator: int = 16,
    allow_zeros: bool = False,
    near_uniform: bool = False,
) -> Network:
    """A closed, reciprocity-free network with binary arrows.

    The backbone is the directed cycle n0 -> n1 -> ... -> n0; extra forward
    arrows (parallel or skipping) are added while no pair of nodes ever
    points both ways at each other.
    """
    if n_nodes is None:
        n_nodes = rng.randint(3, 5)
    if n_nodes < 3:
        raise DomainError("need at least three nodes to avoid reciprocities")
    arrows: list[tuple[int, int]] = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    budget = min(max_arrows, 10) - n_nodes
    for _ in range(rng.randint(0, max(budget, 0))):
        u = rng.randrange(n_nodes)
        span = rng.randint(1, n_nodes - 2) if n_nodes > 3 else 1
        v = (u + span) % n_nodes
        if (v, u) in arrows:
            continue
        arrows.append((u, v))

    variables = [Variable(f"w{k}", BINARY) for k in range(len(arrows))]
    inputs: dict[int, list[Variable]] = {i: [] for i in range(n_nodes)}
    outputs: dict[int, list[Variable]] = {i: [] for i in range(n_nodes)}
    for var, (u, v) in zip(variables, arrows):
        outputs[u].append(var)
        inputs[v].append(var)

    nodes = []
    for i in range(n_nodes):
        n_rows = section_count(inputs[i])
        n_cols = section_count(outputs[i])
        if near_uniform:
            matrix = random_near_uniform_rows(rng, n_rows, n_cols)
        else:
            matrix = random_stochastic_rows(
                rng, n_rows, n_cols, max_denominator, allow_zeros
            )
        nodes.append(
            ProcessTensor.from_matrix(f"n{i}", tuple(inputs[i]), (), tuple(outputs[i]), matrix)
        )
    return Network(tuple(nodes))


def random_distribution(
    rng: Random, variables: Sequence[Variable], max_weight: int = 12
) -> Distribution:
    """A random exact distribution (positive on at least one section)."""
    n = section_count(tuple(variables))
    raw = [rng.randint(0, max_weight) for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1
    total = sum(raw)
    return Distribution(tuple(variables), tuple(Fraction(r, total) for r in raw))


def random_scenario(
    rng: Random,
    max_contexts: int = 4,
    pool: Sequence[Variable] | None = None,
) -> MeasurementScenario:
    """A small scenario with incomparable contexts over binary variables."""
    if pool is None:
        pool = [Variable(name, BINARY) for name in ("P", "Q", "R", "S", "T")]
    contexts: list[tuple[str, ...]] = []
    for _ in range(rng.randint(1, max_contexts)):
        size = rng.randint(1, 3)
        ctx = tuple(v.name for v in rng.sample(list(pool), size))
        cset = set(ctx)
        if any(cset <= set(c) for c in contexts):
            continue
        contexts = [c for c in contexts if not set(c) <= cset]
        contexts.append(ctx)
    used = {name for ctx in contexts for name in ctx}
    variables = tuple(v for v in pool if v.name in used)
    return MeasurementScenario(variables, tuple(contexts))


def random_tree_scenario(
    rng: Random,
    max_contexts: int = 4,
    pool: Sequence[Variable] | None = None,
) -> MeasurementScenario:
    """Contexts grown along a running-intersection order (always reducible)."""
    if pool is None:
        pool = [Variable(name, BINARY) for name in ("P", "Q", "R", "S", "T")]
    fresh = list(pool)
    rng.shuffle(fresh)
    first_size = rng.randint(1, min(3, len(fresh)))
    contexts = [tuple(v.name for v in fresh[:first_size])]
    del fresh[:first_size]
    target = rng.randint(1, max_contexts)
    while fresh and len(contexts) < target:
        parent = list(rng.choice(contexts))
        shared = rng.sample(parent, rng.randint(1, len(parent)))
        new_size = rng.randint(1, min(2, len(fresh)))
        new = [v.name for v in fresh[:new_size]]
        del fresh[:new_size]
        candidate = tuple(shared + new)
        # keep the family an antichain: the candidate strictly extends any
        # context it swallows (it always carries fresh variables)
        contexts = [c for c in contexts if not set(c) <= set(candidate)]
        contexts.append(candidate)
    used = {name for ctx in contexts for name in ctx}
    variables = tuple(v for v in pool if v.name in used)
    return MeasurementScenario(variables, tuple(contexts))


def family_by_global_marginals(rng: Random, scenario: MeasurementScenario) -> EmpiricalModel:
    """Marginals of one random global distribution: compatible by construction."""
    joint = random_distribution(rng, scenario.variables)
    dists = tuple(marginalize(joint, ctx) for ctx in scenario.maximal_contexts)
    return EmpiricalModel(scenario, dists)


def family_by_elimination(rng: Random, scenario: MeasurementScenario) -> EmpiricalModel:
    """Compatible family built context by context along the reduction order.

    Each context extends the marginal its separator inherits from the
    already-built side with a fresh random conditional, so the family is
    compatible on every overlap without ever writing down a global
    distribution.  Requires a Graham-reducible scenario.
    """
    trace = graham_reduction(scenario)
    if not trace.regular:
        raise DomainError("elimination construction needs a reducible scenario")
    contexts = scenario.maximal_contexts
    dists: dict[int, Distribution] = {}
    root_vars = scenario.context_variables(contexts[trace.root])
    dists[trace.root] = random_distribution(rng, root_vars)

    for child, parent, separator in reversed(trace.absorptions):
        parent_dist = dists[parent]
        sep_marginal = marginalize(parent_dist, separator)
        ctx_vars = scenario.context_variables(contexts[child])
        sep_set = set(separator)
        rest_vars = tuple(v for v in ctx_vars if v.name not in sep_set)
        sep_vars = sep_marginal.variables
        conditionals = [
            random_distribution(rng, rest_vars).weights if rest_vars else (ONE,)
            for _ in range(section_count(sep_vars))
        ]
        # a context section weighs its separator marginal times its
        # conditional given the separator (an empty separator weighs 1)
        sep_of = _index_table(sep_vars, ctx_vars)
        rest_of = _index_table(rest_vars, ctx_vars)
        weights = tuple(
            sep_marginal.weights[s] * conditionals[s][r] for s, r in zip(sep_of, rest_of)
        )
        dists[child] = Distribution(ctx_vars, weights)

    return EmpiricalModel(scenario, tuple(dists[i] for i in range(len(contexts))))

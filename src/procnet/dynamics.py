"""Discrete-time evolution of closed processes and exact stationary analysis.

A closed process is a Markov chain on the sections of its internal
variables: row = state at time t, column = state at time t+1.  Stationary
distributions are computed exactly by restricting the chain to a recurrent
communicating class (the classes come from Kosaraju's two iterative
depth-first passes, `_strongly_connected_components`) and solving the
balance equations by p-adic lifting with rational reconstruction
(`exactlp.solve_linear_fraction_free`); the result is a vertex of the
polytope {w (M - Id) = 0, w >= 0, sum w = 1} and is returned only after the
exact fixed-point check `verify_stationary`, which reads only the process
and the distribution and compares integers.  Power iteration is
deliberately not used: the interesting chains here are periodic
permutations on which it does not converge.

`step` and `verify_stationary` share one integer product of a distribution
and the process rows, `_integer_product`: it reads the distribution's own
integer form (`Distribution._integers`, scaled once when it was built) and
the rows' numerators, and adds and multiplies no Fraction.

The Monte Carlo side is `simulate_chain`, the trajectory behind `procnet
simulate`'s frequencies, an independent check on the exact node
distributions; it uses the documented generator from `rng` so runs are
reproducible from the seed alone.  `simulate_chain` picks most next states
from the top byte of the draw through a 256-slot guide table per visited
state (`_guide`), and the rest by the exact threshold search, so the
trajectory is the one the sampling rule of `rng` defines.  A block of draws
is a view of dense native-order 64-bit words, one draw a word: the loop
walks the block's top bytes (every 8th byte, `rng.top_bytes`), and only the
exact search reads a full draw, at an index it derives from the trajectory's
length.  A trajectory is a tuple of state indices in the
`Distribution.weights` layout of the process's internals;
`scenario.section_at` or `iter_outcome_tuples` turn an index into its
outcome tuple, the one label form of a section, which is also what
`simulate_chain` takes as a starting state.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import ClassVar

from .errors import DomainError, ResourceLimitError, StationarityError
from .exactlp import solve_linear_fraction_free
from .process import ProcessTensor
from .rationals import echo
from .rng import SplitMix64, cumulative_thresholds, sample_index, top_bytes
from .scenario import (
    DEFAULT_MAX_STATES,  # re-exported as dynamics.DEFAULT_MAX_STATES
    ZERO,
    Distribution,
    _require_state_cap,
    section_at,
    section_count,
    section_index,
)

# a trajectory holds about 15 bytes a step (its list and its tuple), so the
# cap bounds it near 150 MB
MAX_STEPS = 10_000_000

_METHODS = ("lp_vertex", "user_supplied")


@dataclass(frozen=True)
class StationaryResult:
    """An exact stationary distribution together with its provenance; both
    methods give an exact fixed point, so the residual is always 0."""

    distribution: Distribution
    method: str
    residual: ClassVar[Fraction] = ZERO

    def __post_init__(self):
        if self.method not in _METHODS:
            raise DomainError(f"unknown method {self.method!r}")


@dataclass(frozen=True)
class StationaryCheck:
    stationary: bool
    residual: Fraction
    worst_state: tuple[str, ...] | None


def _require_closed(sigma: ProcessTensor) -> None:
    if not sigma.is_closed:
        raise DomainError(
            f"process {sigma.name!r} is not closed (inputs/outputs present)"
        )


def _aligned(sigma: ProcessTensor, dist: Distribution) -> Distribution:
    """dist in the variable order of `sigma.internals`.

    Its variables must be those of the process, compared as Variables (name
    and alphabet) and reordered when only their order differs; anything
    else, a variable of the same name over another alphabet included, is a
    DomainError, so no weight is ever read against a row it does not index.
    """
    if dist.variables == sigma.internals:
        return dist
    if set(dist.variables) == set(sigma.internals):
        return dist.reorder(tuple(v.name for v in sigma.internals))
    raise DomainError(
        f"distribution over {echo(dist.variables)} does not match "
        f"the process variables {echo(sigma.internals)}"
    )


def _integer_product(sigma: ProcessTensor, dist: Distribution) -> tuple[int, list[int]]:
    """(L, totals) with totals[c] / (d L) = (w M)_c, for `dist` aligned with
    the closed `sigma` and `(d, n)` its integers.

    Row r holds its entries as numerators a_rc over l_r; L is the lcm of
    the l_r of the rows of positive weight, and column c totals
    n_r (L / l_r) a_rc over those rows.
    """
    weighted = [(n_r, row) for n_r, row in zip(dist._integers[1], sigma.rows) if n_r]
    common = lcm(*(l_r for _, (l_r, _) in weighted))
    totals = [0] * len(sigma.rows)
    for n_r, (l_r, row) in weighted:
        f = n_r * (common // l_r)
        for c, a in row:
            totals[c] += f * a
    return common, totals


def step(sigma: ProcessTensor, dist: Distribution) -> Distribution:
    """One synchronous update: new weight of x is sum_x' M[x'][x] * w[x'].

    The sums are the integer totals of `_integer_product`; each new weight
    is its total over d L.
    """
    _require_closed(sigma)
    dist = _aligned(sigma, dist)
    common, totals = _integer_product(sigma, dist)
    scale = dist._integers[0] * common
    return Distribution(sigma.internals, tuple(Fraction(t, scale) for t in totals))


def verify_stationary(sigma: ProcessTensor, dist: Distribution) -> StationaryCheck:
    """Exact fixed-point check; reports the max-norm residual otherwise.

    On integers, independent of how `dist` was found: with `(d, n)` the
    distribution's integers and `(L, totals)` the integer product of
    `_integer_product`, column c's total is (w M)_c d L and is compared
    with n_c L.  The residual is the largest gap over d L, and the worst
    state the first one at that gap.
    """
    dist = _aligned(sigma, dist)
    _require_closed(sigma)
    d, nums = dist._integers
    common, totals = _integer_product(sigma, dist)
    gaps = [abs(t - n_c * common) for t, n_c in zip(totals, nums)]
    top = max(gaps)
    if not top:
        return StationaryCheck(True, ZERO, None)
    worst = section_at(sigma.internals, gaps.index(top))
    return StationaryCheck(False, Fraction(top, d * common), worst)


def _support_graph(sigma: ProcessTensor) -> list[list[int]]:
    return [[c for c, _ in row] for _, row in sigma.rows]


def _strongly_connected_components(succ: list[list[int]]) -> list[list[int]]:
    """The communicating classes of the graph `succ`, each sorted (Kosaraju).

    A depth-first search over `succ` lists the states in the order their
    searches finish.  Walking that list backwards, each state not yet
    labelled collects, over the reversed edges, every unlabelled state that
    reaches it: one class per such root.  Both searches keep explicit
    stacks, so a long path does not run into the recursion limit.
    """
    n = len(succ)
    seen = [False] * n
    finished: list[int] = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, iter(succ[root]))]
        while stack:
            v, edges = stack[-1]
            for w in edges:
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, iter(succ[w])))
                    break
            else:
                finished.append(v)
                stack.pop()
    pred: list[list[int]] = [[] for _ in range(n)]
    for v, targets in enumerate(succ):
        for w in targets:
            pred[w].append(v)
    labelled = [False] * n
    components: list[list[int]] = []
    for root in reversed(finished):
        if labelled[root]:
            continue
        labelled[root] = True
        comp = [root]
        for v in comp:  # also visits the states appended below
            for w in pred[v]:
                if not labelled[w]:
                    labelled[w] = True
                    comp.append(w)
        components.append(sorted(comp))
    return components


def _recurrent_class(sigma: ProcessTensor) -> list[int]:
    """A closed communicating class, deterministically chosen."""
    succ = _support_graph(sigma)
    closed = []
    for comp in _strongly_connected_components(succ):
        inside = set(comp)
        if all(w in inside for v in comp for w in succ[v]):
            closed.append(comp)
    if not closed:
        raise AssertionError("a finite chain always has a closed class")
    return min(closed, key=lambda comp: comp[0])


def find_stationary(sigma: ProcessTensor) -> StationaryResult:
    """An exact stationary distribution of a closed process.

    The chain restricted to a recurrent class is irreducible, so its balance
    equations have a unique positive solution; it is found by the exact
    p-adic solver, embedded with zeros elsewhere and checked to be a fixed
    point before it is returned.  Reducible chains have several recurrent
    classes; the one containing the smallest state index is used, making the
    output deterministic.  A hand-built tensor over the state cap is refused
    (ResourceLimitError); contraction never builds one.
    """
    _require_closed(sigma)
    n = section_count(sigma.internals)
    _require_state_cap(n)
    cls = _recurrent_class(sigma)
    k = len(cls)
    # unknowns v_i = w_i / l_i: balance row j is sum_i a_ij v_i - l_j v_j = 0
    # over the closed class, and the last row is sum_i l_i v_i = 1
    position = {state: j for j, state in enumerate(cls)}
    scales = [sigma.rows[state][0] for state in cls]
    rows = [[0] * k for _ in range(k)]
    for i, state in enumerate(cls):
        for c, a in sigma.rows[state][1]:
            rows[position[c]][i] = a
    for j, l_j in enumerate(scales):
        rows[j][j] -= l_j
    rows.append(scales)
    rhs = [0] * k + [1]
    solution = solve_linear_fraction_free(rows, rhs)
    if solution is None or any(v < 0 for v in solution):
        raise AssertionError("balance equations of a recurrent class must solve")
    weights = [ZERO] * n
    for state, l_i, v in zip(cls, scales, solution):
        weights[state] = l_i * v
    dist = Distribution(sigma.internals, tuple(weights))
    check = verify_stationary(sigma, dist)
    if not check.stationary:
        raise AssertionError("computed distribution failed the exact fixed-point check")
    return StationaryResult(dist, "lp_vertex")


def is_ergodic(sigma: ProcessTensor) -> bool:
    """Irreducible and aperiodic, hence convergent from every start.

    One support graph and one pass of `_strongly_connected_components`
    decide irreducibility; the period, the gcd of the cycle lengths, then
    comes from the levels of a breadth-first search from state 0.
    """
    _require_closed(sigma)
    succ = _support_graph(sigma)
    if len(_strongly_connected_components(succ)) != 1:
        return False
    level = {0: 0}
    frontier = [0]
    g = 0
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ[v]:
                if w in level:
                    g = gcd(g, level[v] + 1 - level[w])
                else:
                    level[w] = level[v] + 1
                    nxt.append(w)
        frontier = nxt
    return g == 1


def _require_steps(steps: int, least: int = 0) -> None:
    """Refuse a `steps` that is not an int (a bool included), fewer than
    `least` or more than MAX_STEPS steps, before work."""
    if type(steps) is not int:
        raise DomainError(f"steps must be an int, not {echo(steps)}")
    if steps < least:
        raise DomainError(f"steps must be >= {least}")
    if steps > MAX_STEPS:
        raise ResourceLimitError(f"steps exceed the cap of {MAX_STEPS}")


def simulate_chain(
    sigma: ProcessTensor,
    init,
    steps: int,
    seed: int,
) -> tuple[int, ...]:
    """Reproducible trajectory of length steps+1 (initial state included).

    The states are indices into the sections of `sigma.internals`.  `init`
    is a Distribution (sampled first, with the same generator) or a section:
    its outcome labels in the variable order of `sigma.internals`, as
    `section_index` reads them.  The state at t+1 is sampled from the row of
    the state at t, per the rule documented in `rng` (a row's guide table and
    thresholds are built when the chain first leaves its state).  More than
    MAX_STEPS steps is a ResourceLimitError, and a `seed` that is not an int
    (a bool included) a DomainError, both raised before the first draw.
    """
    _require_closed(sigma)
    _require_steps(steps)
    if type(seed) is not int:
        raise DomainError(f"seed must be an int, not {echo(seed)}")
    rng = SplitMix64(seed)
    if isinstance(init, Distribution):
        d, nums = _aligned(sigma, init)._integers
        state = sample_index(rng, cumulative_thresholds(nums, d))
    else:
        state = section_index(sigma.internals, init)
    # every state starts on a table whose slots all fall back to the exact
    # search, which builds the state's sampler and guide on its first visit
    guides = [_UNBUILT] * len(sigma.rows)
    samplers: list[tuple[list[int], list[int]] | None] = [None] * len(sigma.rows)
    trail = [state]
    append = trail.append
    for block in rng.blocks(steps):
        # the draw of the step that makes trail[t] is block[t - first]
        first = len(trail)
        for b in top_bytes(block):
            nxt = guides[state][b]
            if nxt < 0:
                sampler = samplers[state]
                if sampler is None:
                    sampler = samplers[state] = _sampler(sigma, state)
                    guides[state] = _guide(*sampler)
                columns, thresholds = sampler
                nxt = columns[bisect_right(thresholds, block[len(trail) - first])]
            state = nxt
            append(state)
    return tuple(trail)


def _sampler(sigma: ProcessTensor, state: int) -> tuple[list[int], list[int]]:
    """The columns and cumulative thresholds of the row of `state`."""
    common, row = sigma.rows[state]
    return [c for c, _ in row], cumulative_thresholds([a for _, a in row], common)


# the guide of a state not visited yet: every slot falls back
_UNBUILT = (-1,) * 256


def _guide(columns: list[int], thresholds: list[int]) -> list[int]:
    """Slot b: the column that every draw with top byte b selects, or -1
    when a threshold falls strictly inside the bucket [b, b + 1) * 2**56.

    Built by runs: column j holds the buckets that lie wholly inside
    [T_{j-1}, T_j), so a bucket that a threshold splits is held by none.
    """
    guide = [-1] * 256
    low = 0
    for c, t in zip(columns, thresholds):
        first, last = -(-low >> 56), t >> 56
        guide[first:last] = [c] * (last - first)
        low = t
    return guide


def require_stationary(sigma: ProcessTensor, dist: Distribution) -> Distribution:
    """Raise StationarityError unless dist is an exact fixed point."""
    check = verify_stationary(sigma, dist)
    if not check.stationary:
        raise StationarityError(
            f"distribution is not stationary: max residual {check.residual} "
            f"at state {check.worst_state}"
        )
    return _aligned(sigma, dist)

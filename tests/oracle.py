"""Reference oracles for the production solvers, on Fractions.

`solve_linear` is Gauss-Jordan: slow but obviously correct, and more
general than `procnet.exactlp.solve_linear_fraction_free`: it accepts
rational coefficients and right-hand sides, where the production solver
takes ints only, and rank-deficient systems, whose free variables it sets
to zero.

`crout_lu_mod` and `row_lu_solve_mod` are the LU modulo p of
`procnet.exactlp._lu_mod` in Crout order, every entry of L and U one dot
product of earlier entries reduced once, and its triangular solve row by
row: the same factors and digits as the packed-lane elimination, with no
lanes that could overflow.

`fraction_simplex` is the phase-1 simplex of
`procnet.exactlp.feasible_point` on a dense Fraction tableau.

`fraction_farkas_contradiction` is `procnet.exactlp.farkas_contradiction`
as sums of Fraction products.

Both take a rational A; `feasible_point` and `farkas_contradiction` take
an int A (b and the certificate may be rational), so the tests hand the
oracles and the production code the same int system.

`dense_contract` is `procnet.process.contract_network` as a triple loop
over every (row, column, node), zero entries included, in Fractions.

`scan_global_variable_order` and `pairwise_find_reciprocities` are
`procnet.process.global_variable_order` and `find_reciprocities` as scans
of the nodes: the first builds the produced, consumed and node-internal
name sets afresh, the second tests every node pair for outputs the other
reads, where the production code reads what the `Network` constructor
derived once from its wiring.

`fraction_marginalize` is `procnet.scenario.marginalize` as Fraction sums
over the weights, where the production code sums the distribution's
integer numerators over its common denominator.

`fraction_node_delta` is `procnet.empirical._node_delta` on Fractions: it
marginalizes the stationary distribution onto the node's inputs and onto
its outputs, weights each row by its input weight over the row's
denominator, and sums the node's rows and columns in Fractions, where the
production code reads one integer marginal on the node's context.

`dense_step`, `dense_verify_stationary` and `dense_simulate_chain` are
`procnet.dynamics.step`, `verify_stationary` and `simulate_chain` on the
dense rows of the `matrix` view, in Fractions; the simulation samples with
thresholds over every column, zero entries included, and clamps a draw past
the row's mass to the last column.

`pairwise_node_frequencies` is `procnet.empirical.empirical_node_frequencies`
as it was before it counted bytes: a `Counter` over the consecutive pairs
of the trajectory, each distinct pair range-checked and turned into its
node key once, where the production code gathers one coded lane per state
and counts each key's lane in one byte string.

`n_cycle_excess` and `n_cycle_certificate` decide the contextuality of an
n-cycle model (n contexts of two binary variables, each variable in two of
them) by the inequalities of Araujo, Quintino, Budroni, Terra Cunha and
Cabello, PRA 88, 022118 (2013): a no-signalling n-cycle model is
non-contextual exactly when sum_i g_i E_i <= n - 2 for every sign vector g
with an odd number of -1s, E_i being context i's parity correlator
w0 - w1 - w2 + w3 by outcome position.  They read the context
distributions and never build the global-section system that
`procnet.contextuality.decide_contextuality` solves.  A violated
inequality is a Farkas vector: g_i * (1, -1, -1, 1) on context i's rows
and -(n - 2) on the normalization row give every global section at most 0
(its parities multiply to 1, so with an odd g some term is -1), and
y . b = sum_i g_i E_i - (n - 2) > 0.

`tarjan_components` is the iterative Tarjan that
`procnet.dynamics._strongly_connected_components` replaced (low-links,
on-stack flags and a work stack of edge indices): the same partition of a
successor-list graph into strongly connected classes, each sorted, found in
one pass instead of Kosaraju's two.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from itertools import pairwise, product
from operator import mul
from typing import Iterable, Sequence

from procnet.dynamics import (
    StationaryCheck,
    _aligned,
    _require_closed,
    _require_steps,
)
from procnet.empirical import MarginalCheck, NodeDistribution
from procnet.errors import DomainError
from procnet.exactlp import FeasibilityResult
from procnet.process import Network, ProcessTensor
from procnet.rng import SplitMix64
from procnet.scenario import (
    ONE,
    ZERO,
    Distribution,
    EmpiricalModel,
    Variable,
    _index_table,
    _names,
    _require_state_cap,
    marginalize,
    section_at,
    section_count,
    section_index,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def solve_linear(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """One exact solution of a (possibly redundant) linear system, or None.

    Free variables are set to zero; inconsistent systems return None.
    """
    m = len(rows)
    if m != len(rhs):
        raise DomainError("rhs length does not match row count")
    n = len(rows[0]) if m else 0
    aug = [[Fraction(e) for e in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    if any(len(row) != n + 1 for row in aug):
        raise DomainError("ragged coefficient matrix")

    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        factor = aug[r][col]
        # entries left of col in the pivot row are already zero
        aug[r][col:] = [e / factor for e in aug[r][col:]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i][col:] = [
                    a - f * b if b else a for a, b in zip(aug[i][col:], aug[r][col:])
                ]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [_ZERO] * n
    for k, col in enumerate(pivot_cols):
        x[col] = aug[k][n]
    return tuple(x)


def crout_lu_mod(coeffs: list[list[int]], n: int, p: int):
    """LU with row pivoting modulo p of an m x n matrix (m >= n), in Crout
    order: the pivot of column c is the first remaining row whose entry of
    the Schur complement is nonzero modulo p.

    Returns the indices of n pivot rows, the strict lower factor (unit
    diagonal implied) and the strict upper factor row by row, and the
    inverted diagonal of U; or None when the rank modulo p is below n.
    """
    lower = [[] for _ in coeffs]  # L entries so far, for every row
    upper_cols: list[list[int]] = [[] for _ in range(n)]  # U entries so far
    upper: list[list[int]] = []
    diag_inv: list[int] = []
    pivots: list[int] = []
    rest = list(range(len(coeffs)))
    for c in range(n):
        col = upper_cols[c]
        heads = [(coeffs[i][c] - sum(map(mul, lower[i], col))) % p for i in rest]
        at = next((k for k, h in enumerate(heads) if h), None)
        if at is None:
            return None
        piv = rest.pop(at)
        inv = pow(heads.pop(at), -1, p)
        pivots.append(piv)
        diag_inv.append(inv)
        row_l, row_a = lower[piv], coeffs[piv]
        urow = [
            (row_a[j] - sum(map(mul, row_l, upper_cols[j]))) % p
            for j in range(c + 1, n)
        ]
        upper.append(urow)
        for j, u in zip(range(c + 1, n), urow):
            upper_cols[j].append(u)
        for i, h in zip(rest, heads):
            lower[i].append(h * inv % p)
    return pivots, [lower[i] for i in pivots], upper, diag_inv


def row_lu_solve_mod(lower, upper, diag_inv, r: list[int], p: int) -> list[int]:
    """x with L U x = r modulo p, for the factors of `crout_lu_mod`: forward
    and back substitution one row at a time."""
    y: list[int] = []
    for row, ri in zip(lower, r):
        y.append((ri - sum(map(mul, row, y))) % p)
    n = len(y)
    x = [0] * n
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - sum(map(mul, upper[i], x[i + 1 :]))) * diag_inv[i] % p
    return x


def fraction_simplex(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> FeasibilityResult:
    """Decide {A x = b, x >= 0} on a dense tableau of Fractions.

    The same phase 1 as `procnet.exactlp.feasible_point` (one artificial
    per sign-normalized row, Bland's rule for entering and leaving), with
    every pivot done in Fractions; the production solver must return
    exactly the same vertex or certificate.
    """
    m = len(rows)
    if m != len(rhs):
        raise DomainError("rhs length does not match row count")
    n = len(rows[0]) if m else 0
    if m == 0:
        return FeasibilityResult(True, (), None)

    flipped = [rhs[i] < 0 for i in range(m)]
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(e) for e in rows[i]]
        b = Fraction(rhs[i])
        if len(row) != n:
            raise DomainError("ragged coefficient matrix")
        if flipped[i]:
            row = [-e for e in row]
            b = -b
        art = [_ZERO] * m
        art[i] = _ONE
        tab.append(row + art + [b])

    basis = [n + i for i in range(m)]
    # reduced costs for minimizing the artificial sum; artificial columns
    # start basic, so their reduced costs are zero
    zrow = [
        -sum(tab[i][j] for i in range(m)) if j < n else _ZERO for j in range(n + m)
    ]
    zrow.append(-sum(tab[i][n + m] for i in range(m)))

    width = n + m
    while True:
        enter = next((j for j in range(width) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][width] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded; no leaving row found")
        pivot = tab[leave][enter]
        tab[leave] = [e / pivot for e in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if zrow[enter] != 0:
            f = zrow[enter]
            zrow = [a - f * b for a, b in zip(zrow, tab[leave])]
        basis[leave] = enter

    objective = -zrow[width]
    if objective == 0:
        x = [_ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tab[i][width]
        return FeasibilityResult(True, tuple(x), None)

    # dual value of row i: artificial i has cost 1 and column e_i, so its
    # reduced cost is 1 - y_i
    y = [_ONE - zrow[n + i] for i in range(m)]
    y = [-yi if flipped[i] else yi for i, yi in enumerate(y)]
    return FeasibilityResult(False, None, tuple(y))


def fraction_farkas_contradiction(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    certificate: Sequence[Fraction],
) -> bool:
    """True when y^T A <= 0 componentwise while y^T b > 0."""
    m = len(rows)
    if len(certificate) != m or m != len(rhs):
        return False
    sums = [sum(map(mul, certificate, col)) for col in (*zip(*rows), rhs)]
    return all(s <= 0 for s in sums[:-1]) and sums[-1] > 0


def dense_contract(net: Network) -> ProcessTensor:
    """Multiply all nodes into the global process, entry by entry."""
    g_inputs, g_internals, g_outputs = scan_global_variable_order(net)
    row_vars = g_inputs + g_internals
    col_vars = g_internals + g_outputs
    n_rows = section_count(row_vars)
    n_cols = section_count(col_vars)
    _require_state_cap(n_rows)
    _require_state_cap(n_cols)

    row_tables = [_index_table(n.row_variables, row_vars) for n in net.nodes]
    col_tables = [_index_table(n.col_variables, col_vars) for n in net.nodes]
    matrices = [n.matrix for n in net.nodes]
    n_nodes = len(net.nodes)
    rows = []
    for r in range(n_rows):
        node_rows = [matrices[i][row_tables[i][r]] for i in range(n_nodes)]
        row = []
        for c in range(n_cols):
            acc = ONE
            for i in range(n_nodes):
                e = node_rows[i][col_tables[i][c]]
                if not e:
                    acc = ZERO
                    break
                acc = acc * e
            row.append(acc)
        rows.append(tuple(row))
    return ProcessTensor.from_matrix(
        "global", g_inputs, g_internals, g_outputs, tuple(rows)
    )


def scan_global_variable_order(
    net: Network,
) -> tuple[tuple[Variable, ...], tuple[Variable, ...], tuple[Variable, ...]]:
    produced = {v.name for n in net.nodes for v in n.outputs}
    consumed = {v.name for n in net.nodes for v in n.inputs}
    node_internal = {v.name for n in net.nodes for v in n.internals}

    seen: dict[str, Variable] = {}
    for n in net.nodes:
        for v in n.variables:
            if v.name not in seen:
                seen[v.name] = v

    g_inputs, g_internals, g_outputs = [], [], []
    for name, v in seen.items():
        if name in node_internal or (name in produced and name in consumed):
            g_internals.append(v)
        elif name in consumed:
            g_inputs.append(v)
        else:
            g_outputs.append(v)
    return tuple(g_inputs), tuple(g_internals), tuple(g_outputs)


def _provides(a: ProcessTensor, b: ProcessTensor) -> bool:
    out_names = {v.name for v in a.outputs}
    return any(v.name in out_names for v in b.inputs)


def pairwise_find_reciprocities(net: Network) -> tuple[tuple[str, str], ...]:
    pairs = []
    for i, a in enumerate(net.nodes):
        if a.internals:
            pairs.append((a.name, a.name))
        for b in net.nodes[i + 1 :]:
            if _provides(a, b) and _provides(b, a):
                pairs.append((a.name, b.name))
    return tuple(pairs)


def fraction_marginalize(dist: Distribution, names: Iterable[str]) -> Distribution:
    """Sum out every variable not listed; the result follows the given order."""
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

    out = [ZERO] * section_count(target_vars)
    for t, w in zip(_index_table(target_vars, dist.variables), dist.weights):
        if w:
            out[t] += w
    return Distribution(target_vars, tuple(out))


def fraction_node_delta(
    node: ProcessTensor, stationary: Distribution
) -> tuple[NodeDistribution, MarginalCheck]:
    """A node's distribution and its marginal check, from one stationary
    marginal on the node's inputs (which also weights its rows) and one on
    its outputs, compared with the node's row and column sums."""
    # without internals, rows are input sections and columns output sections,
    # so (row, col) is the section row * n_cols + col of the context
    input_names = tuple(v.name for v in node.inputs)
    output_names = tuple(v.name for v in node.outputs)
    on_inputs = marginalize(stationary, input_names).weights
    on_outputs = marginalize(stationary, output_names).weights
    n_cols = len(on_outputs)
    weights = [ZERO] * (len(node.rows) * n_cols)
    for r, (base, (common, row)) in enumerate(zip(on_inputs, node.rows)):
        if base:
            base /= common
            for c, a in row:
                weights[r * n_cols + c] = base * a
    dist = Distribution(node.inputs + node.outputs, weights)
    row_sums = [sum(weights[r : r + n_cols], ZERO) for r in range(0, len(weights), n_cols)]
    col_sums = [sum(weights[c::n_cols], ZERO) for c in range(n_cols)]
    check = MarginalCheck(
        node.name,
        _mismatches(node.inputs, row_sums, on_inputs),
        _mismatches(node.outputs, col_sums, on_outputs),
    )
    return NodeDistribution(node.name, input_names + output_names, dist), check


def _mismatches(variables, lhs, rhs) -> tuple:
    # sections are labelled only where the two marginals differ
    return tuple(
        (section_at(variables, k), a, b)
        for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b
    )


def dense_step(sigma: ProcessTensor, dist: Distribution) -> Distribution:
    """One synchronous update: new weight of x is sum_x' M[x'][x] * w[x']."""
    _require_closed(sigma)
    dist = _aligned(sigma, dist)
    matrix = sigma.matrix
    n = len(dist.weights)
    out = [ZERO] * n
    for r, w in enumerate(dist.weights):
        if not w:
            continue
        row = matrix[r]
        for c in range(n):
            e = row[c]
            if e:
                out[c] += w * e
    return Distribution(sigma.internals, tuple(out))


def dense_verify_stationary(sigma: ProcessTensor, dist: Distribution) -> StationaryCheck:
    """Exact fixed-point check; reports the max-norm residual otherwise."""
    dist = _aligned(sigma, dist)
    after = dense_step(sigma, dist)
    residual = ZERO
    worst = None
    for i, (a, b) in enumerate(zip(after.weights, dist.weights)):
        gap = abs(a - b)
        if gap > residual:
            residual = gap
            worst = i
    if worst is not None:
        worst = section_at(sigma.internals, worst)
    return StationaryCheck(residual == 0, residual, worst)


_SCALE = 1 << 64


def dense_cumulative_thresholds(weights: Sequence[Fraction]) -> list[int]:
    """Integer cut points in [0, 2**64] implementing the sampling rule."""
    thresholds = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        thresholds.append((acc.numerator * _SCALE) // acc.denominator)
    return thresholds


def dense_sample_index(rng: SplitMix64, thresholds: Sequence[int]) -> int:
    r = rng.next_uint64()
    idx = bisect_right(thresholds, r)
    # guard against an all-zero tail when r lands on the top boundary
    return min(idx, len(thresholds) - 1)


def dense_simulate_chain(
    sigma: ProcessTensor, init, steps: int, seed: int
) -> tuple[int, ...]:
    """Reproducible trajectory of length steps+1 (initial state included)."""
    _require_closed(sigma)
    _require_steps(steps)
    rng = SplitMix64(seed)
    if isinstance(init, Distribution):
        weights = _aligned(sigma, init).weights
        state = dense_sample_index(rng, dense_cumulative_thresholds(weights))
    else:
        state = section_index(sigma.internals, init)
    matrix = sigma.matrix
    thresholds: dict[int, list[int]] = {}
    trail = [state]
    for _ in range(steps):
        t = thresholds.get(state)
        if t is None:
            t = dense_cumulative_thresholds(matrix[state])
            thresholds[state] = t
        state = dense_sample_index(rng, t)
        trail.append(state)
    return tuple(trail)


def pairwise_node_frequencies(
    sigma: ProcessTensor, node: ProcessTensor, trajectory: Sequence[int]
) -> Distribution:
    """Observed frequencies of (node inputs at t, node outputs at t+1)."""
    if len(trajectory) < 2:
        raise DomainError("need at least one transition to count frequencies")
    known = set(sigma.internals)
    for v in node.inputs + node.outputs:
        if v not in known:
            raise DomainError(
                f"node variable {v.name!r} is not a variable of the global process"
            )
    rows = _index_table(node.inputs, sigma.internals)
    cols = _index_table(node.outputs, sigma.internals)
    out_count = section_count(node.outputs)
    # each distinct transition is range-checked and counted once
    counts = [0] * section_count(node.inputs + node.outputs)
    for (a, b), k in Counter(pairwise(trajectory)).items():
        if not (0 <= a < len(rows) and 0 <= b < len(rows)):
            raise DomainError(f"trajectory state indices must be in 0..{len(rows) - 1}")
        counts[rows[a] * out_count + cols[b]] += k
    total = len(trajectory) - 1
    weights = tuple(Fraction(k, total) for k in counts)
    return Distribution(node.inputs + node.outputs, weights)


def tarjan_components(succ: list[list[int]]) -> list[list[int]]:
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    counter = 0
    components: list[list[int]] = []
    for root in range(n):
        if index[root] != -1:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, edge = work[-1]
            if edge == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            for k in range(edge, len(succ[v])):
                w = succ[v][k]
                if index[w] == -1:
                    work[-1] = (v, k + 1)
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
    return components


_PARITY = (1, -1, -1, 1)


def n_cycle_excess(model: EmpiricalModel) -> tuple[Fraction, tuple[int, ...]]:
    """The largest sum_i g_i E_i - (n - 2) over the sign vectors g with an
    odd number of -1s, and a g that attains it; the model is
    contextual exactly when the excess is positive."""
    contexts = model.scenario.maximal_contexts
    n = len(contexts)
    distributions = model.context_distributions
    if any(len(c) != 2 or len(d.weights) != 4 for c, d in zip(contexts, distributions)):
        raise DomainError("an n-cycle model has contexts of two binary variables")
    names = [name for ctx in contexts for name in ctx]
    if (
        n < 3
        or any(names.count(name) != 2 for name in names)
        or not all(set(contexts[i - 1]) & set(contexts[i]) for i in range(n))
    ):
        raise DomainError("the contexts of an n-cycle model form one cycle, in order")
    correlators = [sum(s * w for s, w in zip(_PARITY, d.weights)) for d in distributions]
    return max(
        (sum(g * e for g, e in zip(signs, correlators)) - (n - 2), signs)
        for signs in product((1, -1), repeat=n)
        if signs.count(-1) % 2
    )


def n_cycle_certificate(signs: Sequence[int]) -> tuple[int, ...]:
    """The Farkas vector of the inequality with these signs, in the row
    order of `global_section_system`: four rows per context, then the
    normalization row."""
    return tuple(g * s for g in signs for s in _PARITY) + (2 - len(signs),)

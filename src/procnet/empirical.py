"""Per-node input/output distributions induced by a stationary distribution.

For a node of a closed, reciprocity-free network, the joint distribution of
(inputs read at time t, outputs written at time t+1) in the stationary
regime factorizes as

    node_dist(i, o) = matrix[input section i][output section o]
                      * stationary_marginal_on_inputs(i)

because the output block at t+1 depends on the state at t only through the
node's own inputs.  Collecting one such distribution per node, over the
context inputs-union-outputs, yields a no-signalling empirical model: its
input and output marginals both reproduce the corresponding marginals of
the stationary distribution, which forces agreement on every overlap.  Both
facts are checked exactly rather than assumed, in the one pass per node that
builds its distribution (`_node_delta`).  That pass reads the stationary
distribution once, as the integers of its marginal on the node's context:
the row and column sums of that marginal are the stationary marginals on the
inputs and on the outputs, and the node weights and both checks are integer
sums over one denominator.  Fractions are built only for the returned
weights and the reported mismatches.

Nothing here contracts a network or checks a distribution: `analyze` runs
the checked front half (`analysis.stationary_regime`: the structure check,
contraction and an exact fixed-point check) once per network file, and only
then hands each node and the stationary distribution to `_node_delta` and
the node distributions to `_assemble_model`.

`empirical_node_frequencies` is the Monte Carlo counterpart: it counts the
same (input, output) events along a trajectory of state indices from
`dynamics.simulate_chain`, without turning any state into labels.  The
counting is byte work: one coded lane per state from restriction index
tables, a masked lane merge that pairs the input row of state t with the
output column of state t + 1, and one `bytes.count` per event.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import itemgetter
from typing import Sequence

from .errors import DomainError, StructureError
from .process import ProcessTensor
from .dynamics import _require_closed
from .scenario import (
    CompatibilityReport,
    Distribution,
    EmpiricalModel,
    MeasurementScenario,
    Variable,
    _index_table,
    marginalize,
    section_at,
    section_count,
    validate_empirical_model,
)


# steps gathered at once by `empirical_node_frequencies`: joining a chunk's
# lanes takes 80 bytes a lane of scratch, so this bounds it near 0.3 MB
_CHUNK_STEPS = 1 << 12


@dataclass(frozen=True)
class NodeDistribution:
    """A node's joint input/output distribution under a stationary regime."""

    node: str
    context: tuple[str, ...]
    distribution: Distribution

    def __post_init__(self):
        if self.distribution.variable_names != self.context:
            raise DomainError("distribution variables must equal the context")


@dataclass(frozen=True)
class MarginalCheck:
    """Coordinate-level comparison of node marginals against the stationary ones."""

    node: str
    input_mismatches: tuple[tuple[tuple[str, ...], Fraction, Fraction], ...]
    output_mismatches: tuple[tuple[tuple[str, ...], Fraction, Fraction], ...]

    @property
    def ok(self) -> bool:
        return not self.input_mismatches and not self.output_mismatches


def _node_delta(
    node: ProcessTensor, stationary: Distribution
) -> tuple[NodeDistribution, MarginalCheck]:
    """A node's distribution and its marginal check, from one stationary
    marginal on the node's context, read as its integers `(d, joint)`.

    Without internals, rows are input sections and columns output sections,
    so section r * n_cols + c of the context is (row r, column c), and the
    row and column sums of `joint` are the stationary marginals on the
    inputs and on the outputs.  Row r, entries a_rc over l_r, is weighted by
    its input sum n_r: the node weights are n_r (L / l_r) a_rc over d L, L
    the lcm of the l_r of the rows with n_r > 0 (a row with n_r = 0 adds
    zeros).  The checks compare the integer row and column sums of those
    weights with the stationary sums times L; Fractions are built only for
    the node weights and the mismatches.
    """
    context = tuple(v.name for v in node.inputs + node.outputs)
    d, joint = marginalize(stationary, context)._integers
    n_cols = section_count(node.outputs)
    on_inputs, on_outputs = _margins(joint, n_cols)
    common = lcm(*(l for n, (l, _) in zip(on_inputs, node.rows) if n))
    nums = [0] * len(joint)
    for r, (n, (l, row)) in enumerate(zip(on_inputs, node.rows)):
        for c, a in row:
            nums[r * n_cols + c] = n * common // l * a
    dist = Distribution(node.inputs + node.outputs, [Fraction(n, d * common) for n in nums])
    row_sums, col_sums = _margins(nums, n_cols)
    check = MarginalCheck(
        node.name,
        _mismatches(node.inputs, row_sums, [n * common for n in on_inputs], d * common),
        _mismatches(node.outputs, col_sums, [m * common for m in on_outputs], d * common),
    )
    return NodeDistribution(node.name, context, dist), check


def _margins(values: Sequence[int], n_cols: int) -> tuple[list[int], list[int]]:
    """The row sums and the column sums of values, read as rows of n_cols."""
    rows = [sum(values[r : r + n_cols]) for r in range(0, len(values), n_cols)]
    return rows, [sum(values[c::n_cols]) for c in range(n_cols)]


def _mismatches(variables, lhs, rhs, scale) -> tuple:
    # lhs and rhs are numerators over scale; sections are labelled and
    # weights built only where the two differ
    return tuple(
        (section_at(variables, k), Fraction(a, scale), Fraction(b, scale))
        for k, (a, b) in enumerate(zip(lhs, rhs)) if a != b
    )


def _assemble_model(
    variables: tuple[Variable, ...], deltas: Sequence[NodeDistribution]
) -> tuple[EmpiricalModel, CompatibilityReport]:
    """The model over variables (the states' variables) of the node
    distributions and its (passing) overlap check."""
    if not deltas:
        raise StructureError("cannot build a model from an empty network")
    keep: list[NodeDistribution] = []
    for i, cand in enumerate(deltas):
        cand_set = frozenset(cand.context)
        absorbed = False
        for j, other in enumerate(deltas):
            if i == j:
                continue
            other_set = frozenset(other.context)
            if cand_set < other_set or (cand_set == other_set and j < i):
                projected = marginalize(other.distribution, cand.context)
                if projected.weights != cand.distribution.weights:
                    raise AssertionError(
                        f"node {cand.node!r} disagrees with the containing context "
                        f"of {other.node!r}"
                    )
                absorbed = True
                break
        if not absorbed:
            keep.append(cand)

    scenario = MeasurementScenario(
        variables=variables,
        maximal_contexts=tuple(nd.context for nd in keep),
    )
    model = EmpiricalModel(scenario, tuple(nd.distribution for nd in keep))
    report = validate_empirical_model(model)
    if not report.ok:
        raise AssertionError(
            f"overlap compatibility failed for a verified stationary input: "
            f"{report.violations[0]}"
        )
    return model, report


def empirical_node_frequencies(
    sigma: ProcessTensor,
    node: ProcessTensor,
    trajectory: Sequence[int],
) -> Distribution:
    """Observed frequencies of (node inputs at t, node outputs at t+1).

    The trajectory holds state indices of the closed global process, as
    `simulate_chain` returns them, each in 0..n-1 for n states; the node's
    variables must be variables of that process (same name and alphabet).
    Counting runs over the steps-many consecutive pairs, so the result is
    an exact empirical distribution.  An open `sigma` is a DomainError,
    raised before any lane is built; any other index is one too, raised
    while the lanes are gathered, before any event is counted.
    """
    _require_closed(sigma)
    if len(trajectory) < 2:
        raise DomainError("need at least one transition to count frequencies")
    known = set(sigma.internals)
    for v in node.inputs + node.outputs:
        if v not in known:
            raise DomainError(
                f"node variable {v.name!r} is not a variable of the global process"
            )
    n = len(sigma.rows)
    in_count, out_count = section_count(node.inputs), section_count(node.outputs)
    # state s codes its node input row r and output column c as r << shift | c,
    # in one lane of `width` bytes (see `_lane`)
    shift = (out_count - 1).bit_length()
    in_bits = (in_count - 1).bit_length()
    width = -(-(shift + in_bits) // 7) or 1
    rows = _index_table(node.inputs, sigma.internals)
    cols = _index_table(node.outputs, sigma.internals)
    codes = {s: _lane(r << shift | c, width) for s, (r, c) in enumerate(zip(rows, cols))}
    row_lane = _lane(((1 << in_bits) - 1) << shift, width)
    col_lane = _lane((1 << shift) - 1, width)
    steps = len(trajectory) - 1
    chunks = []
    for start in range(0, steps, _CHUNK_STEPS):
        part = trajectory[start : start + _CHUNK_STEPS + 1]  # its last state opens the next
        # keyed by state, so an index outside 0..n-1 is refused before any count
        try:
            lanes = b"".join(itemgetter(*part)(codes))
        except (KeyError, TypeError):
            raise DomainError(f"trajectory state indices must be in 0..{n - 1}") from None
        m = len(part) - 1
        # lane t: the input row of state t and the output column of state t + 1
        key = (
            int.from_bytes(lanes[:-width], "big") & int.from_bytes(row_lane * m, "big")
            | int.from_bytes(lanes[width:], "big") & int.from_bytes(col_lane * m, "big")
        )
        chunks.append(key.to_bytes(m * width, "big"))
    keys = b"".join(chunks)
    counts = [
        keys.count(_lane(r << shift | c, width))
        for r in range(in_count) for c in range(out_count)
    ]
    weights = tuple(Fraction(k, steps) for k in counts)
    return Distribution(node.inputs + node.outputs, weights)


def _lane(value: int, width: int) -> bytes:
    """value < 2**(7 width) as `width` bytes of 7 bits each, most significant
    first, with the top bit of the first byte set.

    Only the first byte of such a lane has its top bit set, so in a run of
    lanes a lane's bytes can match only at a lane start: `bytes.count` of
    one lane counts exactly the lanes equal to it.  `_lane(a) & _lane(b)` is
    `_lane(a & b)` and `_lane(a) | _lane(b)` is `_lane(a | b)`, so runs of
    lanes are masked and merged as whole ints.
    """
    digits = sum(((value >> 7 * j) & 0x7F) << 8 * j for j in range(width))
    return (digits | 0x80 << 8 * (width - 1)).to_bytes(width, "big")

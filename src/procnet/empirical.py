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

The three stage functions (`node_distribution`, `verify_marginal_theorem`,
`build_empirical_model`) take only a network and a distribution, and each
runs the one checked front half `_checked_regime` before it reads a node:
the structure check, contraction, and the exact fixed-point check of the
distribution against that network's own global process.  So only a
stationary regime reaches a node distribution or a model; `analyze` and
`simulate` run the same function once per network file
(`analysis.stationary_regime`), where it also solves or looks up the
distribution by name.

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
from typing import Callable, Sequence

from .errors import DomainError, StationarityError, StructureError
from .process import (
    Network,
    ProcessTensor,
    classify_network,
    contract_network,
    find_reciprocities,
    global_variable_order,
)
from .dynamics import (
    StationaryResult,
    _require_closed,
    find_stationary,
    require_stationary,
)
from .scenario import (
    CompatibilityReport,
    Distribution,
    EmpiricalModel,
    MeasurementScenario,
    Variable,
    _index_table,
    _require_structure_caps,
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


def _require_closed_reciprocity_free(net: Network) -> None:
    """The structure check every analysis starts with: a network over the
    node or variable cap is a ResourceLimitError, before any pairwise work;
    an open network or one with reciprocities a StructureError."""
    _require_structure_caps(len(net.nodes), sum(map(len, global_variable_order(net))))
    shape = classify_network(net)
    if not shape.closed:
        raise StructureError(
            f"network is open; dangling inputs {list(shape.dangling_inputs)}, "
            f"dangling outputs {list(shape.dangling_outputs)}"
        )
    reciprocities = find_reciprocities(net)
    if reciprocities:
        raise StructureError(f"network has reciprocities: {list(reciprocities)}")


def _checked_regime(
    net: Network,
    omega: str | Distribution,
    named: Callable[[str], Distribution] | None = None,
) -> tuple[ProcessTensor, StationaryResult]:
    """The checked front half of every analysis: the global process of net
    and a stationary distribution of it.

    The structure check runs first, then contraction, which refuses a state
    space over the state cap whatever omega is.  omega "solve" computes the
    distribution with `find_stationary`; another str is the name of a vector
    that `named` looks up, only after contraction, a failed lookup being a
    StationarityError; that vector, or a Distribution passed as omega, must
    be an exact fixed point of the process (`require_stationary`).
    """
    # a node with internals is a self-reciprocity, so none survives this
    _require_closed_reciprocity_free(net)
    sigma = contract_network(net)
    if omega == "solve":
        return sigma, find_stationary(sigma)
    if isinstance(omega, str):
        try:
            omega = named(omega)
        except DomainError as exc:
            raise StationarityError(str(exc)) from exc
    return sigma, StationaryResult(require_stationary(sigma, omega), "user_supplied")


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


def node_distribution(
    net: Network, stationary: Distribution, node_name: str
) -> NodeDistribution:
    """The joint input/output distribution of one node.

    Requires a closed, reciprocity-free network and a distribution that is
    an exact fixed point of its global process (StationarityError
    otherwise); to read many nodes of one network, `analyze` contracts and
    checks once.
    """
    node = net.node(node_name)
    return _node_delta(node, _checked_regime(net, stationary)[1].distribution)[0]


def verify_marginal_theorem(
    net: Network, stationary: Distribution, node_name: str
) -> MarginalCheck:
    """Check exactly that a node's input and output marginals equal the
    stationary marginals on the same variables.

    The inputs are checked as in `node_distribution`, so the check passes
    for every input it accepts; it exists as an executable diagnostic, and
    reports each mismatch as (outcomes, node weight, stationary weight),
    from the same pass as `node_distribution`.
    """
    node = net.node(node_name)
    return _node_delta(node, _checked_regime(net, stationary)[1].distribution)[1]


def build_empirical_model(net: Network, stationary: Distribution) -> EmpiricalModel:
    """Assemble the empirical model of a closed, reciprocity-free network.

    The inputs are checked as in `node_distribution`.  One maximal context
    per node (its inputs plus outputs); a node whose context is contained in
    another's is absorbed after an exact agreement check, keeping the
    context family an antichain.  The finished model is re-validated, exactly,
    for overlap compatibility.
    """
    stationary = _checked_regime(net, stationary)[1].distribution
    deltas = [_node_delta(node, stationary)[0] for node in net.nodes]
    return _assemble_model(stationary.variables, deltas)[0]


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

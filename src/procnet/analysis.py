"""The whole chain from a network file to its contextuality verdict, once.

network -> global process -> stationary distribution -> one input/output
distribution per node -> empirical model -> contextuality verdict.  `analyze`
runs each stage exactly once and keeps every result in one frozen
`Analysis`, which both report forms of `procnet analyze` render; it is the
one public route to node distributions, their marginal checks and the
model.  `stationary_regime` is the checked front half it shares with
`procnet simulate`: the structure check, contraction, and a stationary
distribution that is solved for or looked up and checked exactly.  A
network built in Python enters as a `NetworkFile` that names its vector.
"""
from __future__ import annotations

from dataclasses import dataclass

from .contextuality import (
    ChshReport,
    ContextualityVerdict,
    chsh_value,
    decide_contextuality,
    detect_chsh_labeling,
    vorobev_regular,
)
from .dynamics import StationaryResult, find_stationary, require_stationary
from .empirical import MarginalCheck, NodeDistribution, _assemble_model, _node_delta
from .errors import DomainError, StationarityError, StructureError
from .netfile import NetworkFile
from .process import (
    Network,
    ProcessTensor,
    classify_network,
    contract_network,
    find_reciprocities,
    global_variable_order,
)
from .scenario import CompatibilityReport, EmpiricalModel, _require_structure_caps


@dataclass(frozen=True)
class Analysis:
    """Every stage's result for one network and one stationary distribution."""

    network: Network
    process: ProcessTensor
    stationary: StationaryResult
    node_distributions: tuple[NodeDistribution, ...]
    marginal_checks: tuple[MarginalCheck, ...]
    model: EmpiricalModel
    compatibility: CompatibilityReport
    verdict: ContextualityVerdict
    vorobev_regular: bool
    chsh: ChshReport | None


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


def stationary_regime(
    nf: NetworkFile, omega: str = "solve"
) -> tuple[ProcessTensor, StationaryResult]:
    """The global process of a file's network and a stationary distribution.

    The network must be closed and reciprocity-free (StructureError).
    Contraction refuses a state space over the state cap before it starts
    (ResourceLimitError), whatever omega is.  omega "solve" computes the
    distribution with `find_stationary`; any other value names a vector of
    the file, looked up only after contraction, which must exist and be an
    exact fixed point (StationarityError).
    """
    # a node with internals is a self-reciprocity, so none survives this
    _require_closed_reciprocity_free(nf.network)
    sigma = contract_network(nf.network)
    if omega == "solve":
        return sigma, find_stationary(sigma)
    try:
        dist = nf.stationary_named(omega)
    except DomainError as exc:
        raise StationarityError(str(exc)) from exc
    return sigma, StationaryResult(require_stationary(sigma, dist), "user_supplied")


def analyze(nf: NetworkFile, omega: str = "solve") -> Analysis:
    """Run the whole chain on a network file (omega as in `stationary_regime`).

    The state cap applies whatever omega is, and the global sections of the
    model are the states of the process, so no later stage meets a larger
    space than contraction admitted.
    """
    net = nf.network
    sigma, stationary = stationary_regime(nf, omega)
    pairs = [_node_delta(node, stationary.distribution) for node in net.nodes]
    deltas = tuple(delta for delta, _ in pairs)
    model, compatibility = _assemble_model(sigma.internals, deltas)
    labeling = detect_chsh_labeling(model.scenario)
    return Analysis(
        network=net,
        process=sigma,
        stationary=stationary,
        node_distributions=deltas,
        marginal_checks=tuple(check for _, check in pairs),
        model=model,
        compatibility=compatibility,
        verdict=decide_contextuality(model),
        vorobev_regular=vorobev_regular(model.scenario),
        chsh=chsh_value(model, labeling) if labeling else None,
    )

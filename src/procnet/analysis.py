"""The whole chain from a network file to its contextuality verdict, once.

network -> global process -> stationary distribution -> one input/output
distribution per node -> empirical model -> contextuality verdict.  `analyze`
runs each stage exactly once and keeps every result in one frozen
`Analysis`, which both report forms of `procnet analyze` render.
`stationary_regime` is the front half it shares with `procnet simulate`.
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
from .dynamics import StationaryResult
from .empirical import (
    MarginalCheck,
    NodeDistribution,
    _assemble_model,
    _checked_regime,
    _node_delta,
)
from .netfile import NetworkFile
from .process import Network, ProcessTensor
from .scenario import CompatibilityReport, EmpiricalModel


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


def stationary_regime(
    nf: NetworkFile, omega: str = "solve"
) -> tuple[ProcessTensor, StationaryResult]:
    """The global process of a file's network and a stationary distribution.

    The network must be closed and reciprocity-free (StructureError).
    Contraction refuses a state space over the state cap before it starts
    (ResourceLimitError), whatever omega is.  omega "solve" computes the
    distribution with `find_stationary`; any other value names a vector of
    the file, which must be an exact fixed point (StationarityError).
    """
    return _checked_regime(nf.network, omega, nf.stationary_named)


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

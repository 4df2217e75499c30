"""Networks of finite stochastic processes, analyzed exactly.

Build open stochastic processes, wire them into networks by shared variable
names, contract a closed network into its global Markov process, compute or
verify stationary distributions in exact rational arithmetic, extract the
per-node input/output distributions they induce, and decide whether the
resulting empirical model is (strongly) contextual, with checkable
witnesses and infeasibility certificates.  `analyze` runs that whole chain
on a network file.
"""
from .scenario import (
    CompatibilityReport,
    Distribution,
    EmpiricalModel,
    MeasurementScenario,
    OverlapViolation,
    Variable,
    iter_outcome_tuples,
    marginalize,
    section_at,
    section_count,
    section_index,
    validate_empirical_model,
)
from .process import (
    Network,
    NetworkShape,
    ProcessTensor,
    classify_network,
    contract_network,
    find_reciprocities,
    global_variable_order,
)
from .dynamics import (
    DEFAULT_MAX_STATES,
    StationaryCheck,
    StationaryResult,
    find_stationary,
    is_ergodic,
    simulate_chain,
    step,
    verify_stationary,
)
from .empirical import (
    MarginalCheck,
    NodeDistribution,
    empirical_node_frequencies,
)
from .contextuality import (
    ChshReport,
    ContextualityVerdict,
    GrahamTrace,
    chsh_value,
    decide_contextuality,
    detect_chsh_labeling,
    global_section_system,
    graham_reduction,
    is_strongly_contextual,
    verify_infeasibility_certificate,
    vorobev_regular,
)
from .analysis import Analysis, analyze
from .netfile import (
    FORMAT_VERSION,
    FileCheck,
    NetworkFile,
    check_network_text,
    load_network_file,
    parse_network_text,
    serialize_network_file,
)
from .errors import (
    DomainError,
    ParseError,
    ProcnetError,
    ResourceLimitError,
    StationarityError,
    StructureError,
    WiringError,
)

__version__ = "0.1.0"

__all__ = [
    "CompatibilityReport",
    "Distribution",
    "EmpiricalModel",
    "MeasurementScenario",
    "OverlapViolation",
    "Variable",
    "iter_outcome_tuples",
    "marginalize",
    "section_at",
    "section_count",
    "section_index",
    "validate_empirical_model",
    "Network",
    "NetworkShape",
    "ProcessTensor",
    "classify_network",
    "contract_network",
    "find_reciprocities",
    "global_variable_order",
    "DEFAULT_MAX_STATES",
    "StationaryCheck",
    "StationaryResult",
    "find_stationary",
    "is_ergodic",
    "simulate_chain",
    "step",
    "verify_stationary",
    "MarginalCheck",
    "NodeDistribution",
    "empirical_node_frequencies",
    "ChshReport",
    "ContextualityVerdict",
    "GrahamTrace",
    "chsh_value",
    "decide_contextuality",
    "detect_chsh_labeling",
    "global_section_system",
    "graham_reduction",
    "is_strongly_contextual",
    "verify_infeasibility_certificate",
    "vorobev_regular",
    "Analysis",
    "analyze",
    "FORMAT_VERSION",
    "FileCheck",
    "NetworkFile",
    "check_network_text",
    "load_network_file",
    "parse_network_text",
    "serialize_network_file",
    "DomainError",
    "ParseError",
    "ProcnetError",
    "ResourceLimitError",
    "StationarityError",
    "StructureError",
    "WiringError",
    "bundled_network_path",
    "__version__",
]


def bundled_network_path(name: str):
    """Path of a bundled example network file ("triangle", "chsh", ...)."""
    from importlib.resources import files

    resource = files("procnet").joinpath("data", f"{name}.network")
    if not resource.is_file():
        raise DomainError(f"no bundled network named {name!r}")
    return resource

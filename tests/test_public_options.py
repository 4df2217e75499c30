"""The public API's names and options, pinned.

Every name of `procnet.__all__`, and every parameter with a default on one
of them (a function, a class's constructor, or a public method of a procnet
class), is listed here, so a new export or option shows up as a change to
this file.  Each one is a second way to call a stage, so one is added only
where no checked path already does the job.
"""
import inspect
import re
from pathlib import Path

import procnet

README = Path(__file__).parent.parent / "README.md"

NAMES = {
    "CompatibilityReport", "Distribution", "EmpiricalModel", "MeasurementScenario",
    "OverlapViolation", "Variable", "iter_outcome_tuples", "marginalize",
    "section_at", "section_count", "section_index", "validate_empirical_model",
    "Network", "NetworkShape", "ProcessTensor", "classify_network",
    "contract_network", "find_reciprocities", "global_variable_order",
    "DEFAULT_MAX_STATES", "StationaryCheck", "StationaryResult", "find_stationary",
    "is_ergodic", "simulate_chain", "step", "verify_stationary",
    "MarginalCheck", "NodeDistribution", "empirical_node_frequencies",
    "ChshReport", "ContextualityVerdict", "GrahamTrace", "chsh_value",
    "decide_contextuality", "detect_chsh_labeling", "global_section_system",
    "graham_reduction", "is_strongly_contextual", "verify_infeasibility_certificate",
    "vorobev_regular",
    "Analysis", "analyze",
    "FORMAT_VERSION", "FileCheck", "NetworkFile", "check_network_text",
    "load_network_file", "parse_network_text", "serialize_network_file",
    "DomainError", "ParseError", "ProcnetError", "ResourceLimitError",
    "StationarityError", "StructureError", "WiringError",
    "bundled_network_path", "__version__",
}

OPTIONS = {
    "analyze.omega",
    "chsh_value.labeling",
}


def public_callables():
    """(label, function) for every function, constructor and public method
    reachable from `procnet.__all__`; exceptions add none, since none
    defines its own constructor."""
    for name in procnet.__all__:
        obj = getattr(procnet, name)
        if not inspect.isclass(obj):
            if callable(obj):
                yield name, obj
            continue
        if inspect.isfunction(obj.__init__):
            yield name, obj
        for klass in obj.__mro__:
            if not klass.__module__.startswith("procnet"):
                continue
            for attr, member in vars(klass).items():
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def test_the_public_names_are_exactly_the_pinned_ones():
    assert len(procnet.__all__) == len(NAMES)
    assert set(procnet.__all__) == NAMES


def test_the_readme_imports_only_public_names():
    # the README's import block runs, and names nothing outside __all__, so
    # a name removed from the package cannot linger in the docs
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"^from procnet import \(.*?^\)$", text, re.M | re.S)
    namespace = {}
    exec(block, namespace)
    imported = set(namespace) - {"__builtins__"}
    assert len(imported) > 20
    assert imported <= set(procnet.__all__)


def test_the_public_options_are_exactly_the_pinned_ones():
    found = {
        f"{label}.{p.name}"
        for label, fn in public_callables()
        for p in inspect.signature(fn).parameters.values()
        if p.default is not inspect.Parameter.empty
    }
    assert found == OPTIONS


def test_the_walk_reaches_constructors_and_methods():
    labels = {label for label, _ in public_callables()}
    assert {"Distribution.uniform", "ProcessTensor.from_matrix", "ChshReport"} <= labels
    assert {"analyze", "NetworkFile", "NetworkFile.stationary_named"} <= labels

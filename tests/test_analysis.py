import json
import sys
import time
from collections import Counter

import pytest

from procnet import (
    analyze,
    bundled_network_path,
    classify_network,
    contract_network,
    find_reciprocities,
    find_stationary,
    global_section_system,
    is_strongly_contextual,
    load_network_file,
    marginalize,
    parse_network_text,
    validate_empirical_model,
    verify_infeasibility_certificate,
)
from procnet import analysis, scenario
from procnet.analysis import stationary_regime
from procnet.cli import main
from procnet.dynamics import _strongly_connected_components, _support_graph
from procnet.empirical import _node_delta
from procnet.errors import ResourceLimitError, StationarityError, StructureError
from procnet.exactlp import farkas_contradiction
from builders import one_outcome_cycle_doc


def count_calls(monkeypatch, func, calls: Counter, key=lambda *args: None):
    """Count calls of func under every procnet module name that binds it."""

    def wrapper(*args, **kwargs):
        calls[(func.__name__, key(*args))] += 1
        return func(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "procnet" or name.startswith("procnet."):
            for attr, value in list(vars(module).items()):
                if value is func:
                    monkeypatch.setattr(module, attr, wrapper)


STAGES = (
    classify_network,
    find_reciprocities,
    contract_network,
    find_stationary,
    validate_empirical_model,
    global_section_system,
    farkas_contradiction,
    is_strongly_contextual,
    verify_infeasibility_certificate,
)


@pytest.mark.parametrize(
    "name, omega, contextual",
    [("triangle", "sixcycle", True), ("chsh", "solve", True), ("product", "solve", False)],
)
def test_one_analyze_call_runs_each_stage_once(monkeypatch, name, omega, contextual):
    nf = load_network_file(bundled_network_path(name))
    calls: Counter = Counter()
    for func in STAGES:
        count_calls(monkeypatch, func, calls)
    count_calls(monkeypatch, _node_delta, calls, key=lambda node, _: node.name)

    a = analyze(nf, omega)

    assert a.verdict.contextual is contextual
    once = 1 if contextual else 0
    assert calls == Counter(
        {
            ("classify_network", None): 1,
            ("find_reciprocities", None): 1,
            ("contract_network", None): 1,
            ("find_stationary", None): 1 if omega == "solve" else 0,
            ("validate_empirical_model", None): 1,
            ("global_section_system", None): 1,
            ("farkas_contradiction", None): once,
            ("is_strongly_contextual", None): once,
            ("verify_infeasibility_certificate", None): 0,
            **{("_node_delta", node): 1 for node in nf.network.node_names},
        }
    )


@pytest.mark.parametrize(
    "name, omega",
    [("triangle", "sixcycle"), ("chsh", "solve"), ("product", "solve"), ("chain", "exact")],
)
def test_one_analyze_call_marginalizes_the_stationary_distribution_once_per_node(
    monkeypatch, name, omega
):
    # once per node, onto its context (inputs then outputs); the witness
    # check also marginalizes a distribution over every state, so sources
    # are compared by identity, and every source is kept alive until then
    nf = load_network_file(bundled_network_path(name))
    calls = []
    count_calls(
        monkeypatch, marginalize, Counter(), key=lambda d, names: calls.append((d, names))
    )

    a = analyze(nf, omega)

    stationary = a.stationary.distribution
    assert [tuple(names) for d, names in calls if d is stationary] == [
        tuple(v.name for v in node.inputs + node.outputs) for node in nf.network.nodes
    ]


def test_an_empty_network_is_a_structure_error(capsys, tmp_path):
    path = tmp_path / "empty.network"
    path.write_text('{"format_version": 1, "variables": [], "nodes": []}', encoding="utf-8")
    with pytest.raises(StructureError, match="cannot build a model from an empty network"):
        analyze(load_network_file(path))

    assert main(["analyze", str(path)]) == 4
    assert "cannot build a model from an empty network" in capsys.readouterr().err


@pytest.mark.parametrize(
    "shape, message",
    [
        ((1000, 1), "structure check: 1000 nodes exceed the cap of 128"),
        ((3, 3000), "structure check: 9000 global variables exceed the cap of 512"),
    ],
    ids=["ring-1000", "cycle-9000-wires"],
)
def test_structure_caps_refuse_analyze(shape, message):
    # one state each, so only the node and variable caps can refuse them
    nf = parse_network_text(json.dumps(one_outcome_cycle_doc(*shape)))
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=message):
        analyze(nf)
    assert time.perf_counter() - start < 1.0


def test_contraction_refuses_before_a_vector_name_is_looked_up():
    # 2^11 states, and no vector of that name: the state cap refuses first
    doc = {
        "format_version": 1,
        "variables": [{"name": f"W{k}", "alphabet": ["0", "1"]} for k in range(11)],
        "nodes": [
            {
                "name": f"copy{k}",
                "inputs": [f"W{k}"],
                "internals": [],
                "outputs": [f"W{(k + 1) % 11}"],
                "matrix": [["1", "0"], ["0", "1"]],
            }
            for k in range(11)
        ],
    }
    nf = parse_network_text(json.dumps(doc))
    with pytest.raises(ResourceLimitError, match="state space of size 2048 exceeds"):
        stationary_regime(nf, "missing")
    small = load_network_file(bundled_network_path("triangle"))
    with pytest.raises(StationarityError, match="no stationary distribution named 'missing'"):
        stationary_regime(small, "missing")


@pytest.mark.parametrize("omega", ["sixcycle", "solve"])
def test_analyze_and_simulate_each_run_the_front_half_once(monkeypatch, capsys, omega):
    calls: Counter = Counter()
    count_calls(monkeypatch, analysis.stationary_regime, calls)
    path = bundled_network_path("triangle")
    analyze(load_network_file(path), omega)
    assert calls == Counter({("stationary_regime", None): 1})
    argv = ["simulate", str(path), "--node", "alpha", "--omega", omega, "--steps", "50"]
    assert main(argv) == 0
    capsys.readouterr()
    assert calls == Counter({("stationary_regime", None): 2})


@pytest.mark.parametrize(
    "cap, value, message",
    [
        ("DEFAULT_MAX_NODES", 3, "4 nodes exceed the cap of 3"),
        ("DEFAULT_MAX_VARIABLES", 3, "4 global variables exceed the cap of 3"),
    ],
)
def test_structure_caps_are_read_at_call_time(monkeypatch, cap, value, message):
    # triangle has 3 nodes and 3 variables, chsh 4 and 4
    monkeypatch.setattr(scenario, cap, value)
    assert analyze(load_network_file(bundled_network_path("triangle"))).verdict
    with pytest.raises(ResourceLimitError, match=message):
        analyze(load_network_file(bundled_network_path("chsh")))


@pytest.mark.parametrize(
    "name, node, omega",
    [
        ("triangle", "alpha", "sixcycle"),
        ("chsh", "n11", "solve"),
        ("product", "beta", "solve"),
    ],
)
def test_one_simulate_call_checks_the_structure_once(
    monkeypatch, capsys, name, node, omega
):
    calls: Counter = Counter()
    for func in STAGES:
        count_calls(monkeypatch, func, calls)
    count_calls(monkeypatch, _node_delta, calls, key=lambda node, _: node.name)
    path = str(bundled_network_path(name))
    argv = ["simulate", path, "--node", node, "--omega", omega, "--steps", "50"]

    assert main(argv) == 0

    capsys.readouterr()
    assert calls == Counter(
        {
            ("classify_network", None): 1,
            ("find_reciprocities", None): 1,
            ("contract_network", None): 1,
            ("find_stationary", None): 1 if omega == "solve" else 0,
            ("_node_delta", node): 1,
        }
    )


@pytest.mark.parametrize(
    "name, node, omega, passes",
    [
        ("triangle", "alpha", "sixcycle", 1),
        ("triangle", "alpha", "solve", 2),
        ("product", "beta", "solve", 2),
        ("chain", "stage1", "exact", 1),
    ],
)
def test_one_simulate_call_builds_one_graph_per_chain_question(
    monkeypatch, capsys, name, node, omega, passes
):
    # one support graph and one component pass for the ergodicity report,
    # and one more for find_stationary's recurrent class
    calls: Counter = Counter()
    count_calls(monkeypatch, _support_graph, calls)
    count_calls(monkeypatch, _strongly_connected_components, calls)
    path = str(bundled_network_path(name))
    argv = ["simulate", path, "--node", node, "--omega", omega, "--steps", "50"]

    assert main(argv) == 0

    capsys.readouterr()
    assert calls == Counter(
        {("_support_graph", None): passes, ("_strongly_connected_components", None): passes}
    )


@pytest.mark.parametrize("name, omega", [("triangle", "sixcycle"), ("chain", "exact")])
def test_analysis_agrees_with_the_public_stage_functions(name, omega):
    nf = load_network_file(bundled_network_path(name))
    a = analyze(nf, omega)
    assert a.stationary.distribution == nf.stationary_named(omega)
    assert all(check.ok for check in a.marginal_checks)
    assert a.compatibility == validate_empirical_model(a.model)
    if a.verdict.contextual:
        assert verify_infeasibility_certificate(a.model, a.verdict.certificate)
        assert a.verdict.strongly_contextual == is_strongly_contextual(a.model)
    else:
        assert not a.verdict.strongly_contextual

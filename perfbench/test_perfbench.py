"""Self-test of the benchmark harness, on tiny inputs.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import shutil
from random import Random

import pytest

import checks
import inputs
import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bundled_path(name):
    return run.ROOT / "src" / "procnet" / "data" / f"{name}.network"


def tiny(monkeypatch):
    # no 4-wire rungs: a 4-cycle is a CHSH square, which the checks exclude
    monkeypatch.setattr(inputs, "LADDER_RUNGS", {3: 2, 5: 1})
    monkeypatch.setattr(inputs, "RING_PATTERNS", {3: ("110", "100"), 5: ("11000", "10000")})
    monkeypatch.setattr(inputs, "SIMULATE_EXTRA", ((), ((0, 1),)))
    monkeypatch.setattr(inputs, "SIMULATE_STEPS", 500)


@pytest.fixture
def tmp_path():
    """A temporary directory inside the checkout, removed afterwards."""
    path = run.OUT_DIR / "selftest"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", ["ladder", "ring", "simulate"])
def test_input_digest_follows_the_seed(tmp_path, monkeypatch, workload):
    tiny(monkeypatch)

    def digest(seed, sub):
        (tmp_path / sub).mkdir()
        return inputs.digest(inputs.build(workload, seed, tmp_path / sub, bundled_path))

    first = digest(7, "a")
    assert digest(7, "b") == first
    assert digest(8, "c") != first


def test_a_ring_seed_changes_only_the_outcome_order():
    docs = [inputs.ring_network(Random(seed), "110000000") for seed in range(4)]
    assert all(d["nodes"] == docs[0]["nodes"] for d in docs)
    assert len({json.dumps(d["variables"]) for d in docs}) > 1


def analyze(cli, doc, tmp_path):
    path = tmp_path / "case.network"
    path.write_text(json.dumps(doc))
    code, text = run.invoke(cli, ["analyze", str(path), "--json"])
    assert code == 0
    return json.loads(text)


@pytest.fixture(scope="module")
def cli():
    run.sys.path.insert(0, str(run.ROOT / "src"))
    return run.fresh_import()[0]


def test_checker_rejects_a_corrupted_witness(cli, tmp_path):
    doc = inputs.ring_network(Random(1), "11000")
    report = analyze(cli, doc, tmp_path)
    chain = checks.Chain(doc)
    assert report["contextuality"]["witness"] is not None
    assert checks.check_analyze(chain, report, "ring", 0) == []
    weights = report["contextuality"]["witness"]["weights"]
    moved = next(k for k, w in enumerate(weights) if w != "0")
    bad = copy.deepcopy(report)
    bad["contextuality"]["witness"]["weights"][moved] = "0"
    bad["contextuality"]["witness"]["weights"][(moved + 1) % len(weights)] = weights[moved]
    assert checks.check_analyze(chain, bad, "ring", 0)


def test_checker_rejects_a_corrupted_certificate(cli, tmp_path):
    doc = inputs.ring_network(Random(1), "100")
    report = analyze(cli, doc, tmp_path)
    chain = checks.Chain(doc)
    assert report["contextuality"]["contextual"]
    assert checks.check_analyze(chain, report, "ring", 1) == []
    bad = copy.deepcopy(report)
    coefficients = bad["contextuality"]["certificate"]["coefficients"]
    coefficients[-1] = "-1000"
    assert checks.check_analyze(chain, bad, "ring", 1)


def test_checker_rejects_a_wrong_stationary_vector(cli, tmp_path):
    doc = inputs.ladder_network(Random(2), 3)
    report = analyze(cli, doc, tmp_path)
    chain = checks.Chain(doc)
    assert checks.check_analyze(chain, report, "ladder") == []
    bad = copy.deepcopy(report)
    bad["stationary"]["distribution"]["weights"] = ["1/8"] * 8
    assert checks.check_analyze(chain, bad, "ladder")


def test_checker_rejects_a_corrupted_frequency_table(cli, tmp_path):
    doc = inputs.simulate_network(Random(3), ((0, 1),))
    path = tmp_path / "sim.network"
    path.write_text(json.dumps(doc))
    argv = ["simulate", str(path), "--node", "n1", "--steps", "400", "--seed", "9", "--json"]
    code, text = run.invoke(cli, argv)
    assert code == 0
    report = json.loads(text)
    chain = checks.Chain(doc)
    assert checks.check_simulate(chain, report, "n1", 400, 9) == []
    bad = copy.deepcopy(report)
    rows = bad["estimates"]
    rows[0]["frequency"], rows[1]["frequency"] = rows[1]["frequency"], rows[0]["frequency"]
    if rows[0]["frequency"] == rows[1]["frequency"]:
        rows[0]["frequency"] = "1"
    assert checks.check_simulate(chain, bad, "n1", 400, 9)


def run_once(monkeypatch, capsys, workload, trace):
    tiny(monkeypatch)
    code = run.main(["--workload", workload, "--seed", "5", "--seconds", "0.01",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(monkeypatch, capsys, workload):
    lines, result = run_once(monkeypatch, capsys, workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.split()[2] == unit for line in lines)
        assert result["metrics"][name]["value"] > 0
    printed = {line.split()[0] for line in lines}
    assert {"call_p50_s", "call_tail_s", "failed_share"} <= printed
    assert ("steps_per_s" in printed) == (workload == "simulate")


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_per_layer_metric_is_printed_with_its_unit(monkeypatch, capsys, workload):
    lines, result = run_once(monkeypatch, capsys, workload, 1)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.split()[2] == unit for line in lines)
        assert result["metrics"][name]["value"] > 0


def test_a_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.setattr(run.spans, "LAYERS", run.spans.LAYERS + (
        ("procnet.dynamics", "no_such_function", "dynamics.gone", None),))
    tracer = run.spans.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["procnet.dynamics.no_such_function"]


def test_a_repeat_that_differs_from_the_first_pass_is_counted():
    class Drifting:
        count = 0

        def main(self, argv):
            self.count += 1
            print(self.count if argv == ["moving"] else "same")
            return 0

    calls = [inputs.Call("steady", ["steady"]), inputs.Call("moving", ["moving"])]
    times, refs, first, mismatches = run.run_passes(Drifting(), calls, budget=0, passes=3)
    assert [len(t) for t in times] == [3, 3] and len(refs) == 7 and len(first) == 2
    assert mismatches == [0, 2]


def test_wall_time_takes_each_call_at_its_median_pass():
    assert run.median_pass([[0.3, 0.1, 0.2], [2.0, 3.0, 1.5]]) == pytest.approx(2.2)


def test_times_are_scaled_to_the_reference_speed():
    slow = 2 * run.REFERENCE_S
    # call k of pass p ran between refs[2p + k] and refs[2p + k + 1]
    refs = [slow, slow, run.REFERENCE_S, run.REFERENCE_S, run.REFERENCE_S]
    first_call, second_call = run.at_reference([[1.0, 1.0], [1.0, 1.0]], refs)
    assert first_call == pytest.approx([0.5, 1.0])
    assert second_call == pytest.approx([2 / 3, 1.0])

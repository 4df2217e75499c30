"""Benchmark of procnet through its public CLI entry point.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a procnet checkout.  One sequential caller (a closed
loop with one client, no threads) calls `procnet.cli.main([...])` in this
process on the workload's input set, pass after pass, for about `--seconds`
seconds.  Human-readable lines go to standard output first; the last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
With `--trace 1` a second series of passes runs with every layer wrapped in
spans (see spans.py), and the metrics are the per-layer ones; the spans and
the full per-layer table are written to `.perfbench/`.  See README.md in
this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("bundled", "ladder", "ring", "simulate")
SETUP_REPS = 10
MIN_PASSES = 2
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".perfbench"

# Call and set-up times are reported at a fixed reference speed.  The
# machine the benchmark was tuned on (a 2-vCPU x86 VM shared with other
# tenants, Python 3.11) changed speed by up to 2x in phases of seconds to
# minutes, and procnet's calls slowed and sped up with it.  So
# `reference_loop`, a fixed piece of the benchmark's own Python, runs before
# every timed call and set-up and once after the last, and each time is
# scaled by REFERENCE_S / (mean of the two reference-loop times around it).
# REFERENCE_S is about that loop's median time on the tuning machine, so scaled
# times read as seconds there.  The raw times are printed as well.
REFERENCE_S = 0.006
# Workloads whose call times are reported raw.  A `ladder` pass is mostly
# one 7-wire stationary solve on large integers, whose time did not follow
# the reference loop: in four sets of five or six runs, scaling gave
# `ladder` wall_s spreads of 0.14 to 0.27, the raw times 0.05 to 0.19.
RAW_CALLS = ("ladder",)

# The benchmark's own tiny warm-up call of every set-up: the bundled
# `product` network, the smallest demo.  A workload's own first call would
# make set-up time repeat the workload's call time.
WARM_UP = ("product", ["--omega", "solve", "--json"])


def declared(kind: str) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json lists under `kind`.

    The JSON line of a run holds exactly these; every other metric is a
    printed line.
    """
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


def reference_loop() -> float:
    """Seconds taken by a fixed mix of Fraction arithmetic and dict updates,
    the kinds of work procnet's calls are made of."""
    start = time.perf_counter()
    acc = Fraction(0)
    counts: dict = {}
    for i in range(1, 1500):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        key = (i % 13, i % 5)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


def at_reference(times, refs):
    """Times scaled to the reference speed.

    `times` holds one list per call (one entry per pass) and `refs` the
    reference-loop times in the order they ran: a loop, then each call of
    each pass followed by a loop, so the k-th call of pass p ran between
    refs[p * len(times) + k] and the next one.  Each time is scaled by
    REFERENCE_S / (the mean of those two).
    """
    n = len(times)
    return [[t * REFERENCE_S * 2 / (refs[p * n + k] + refs[p * n + k + 1])
             for p, t in enumerate(per_call)]
            for k, per_call in enumerate(times)]


def fresh_import():
    """Import procnet.cli anew, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "procnet" or n.startswith("procnet.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("procnet.cli"), importlib.import_module("procnet")


def invoke(cli, argv):
    """One CLI call with its output captured: (exit code, stdout).

    An exception escaping the CLI is a failed call, not a benchmark crash;
    its traceback takes the place of the output.
    """
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:
        return "exception", traceback.format_exc()
    return code, out.getvalue()


def run_passes(cli, calls, budget, passes=None, on_call=None):
    """Closed loop over the input set.

    Without `passes`, another pass starts while it is expected to end
    nearer to `budget` seconds than stopping now would (at least
    `MIN_PASSES`), and in trace mode `passes` repeats the untraced count.
    The reference loop runs before every call and once after the last; it
    is not counted in the budget.  Only the first pass's outputs are kept;
    a later output that differs from it is counted per call, so memory does
    not grow with the number of passes.  Returns the times of each call
    (one list per call, one entry per pass), the reference-loop times in
    run order, the first pass's (exit code, stdout) per call and the
    per-call mismatch counts.
    """
    times = [[] for _ in calls]
    refs = [reference_loop()]
    first = []
    mismatches = [0] * len(calls)
    elapsed = 0.0

    def another_pass():
        done = len(times[0])
        if passes is not None:
            return done < passes
        return done < MIN_PASSES or elapsed + elapsed / done / 2 < budget

    while another_pass():
        for k, call in enumerate(calls):
            if on_call is not None:
                on_call(call)
            start = time.perf_counter()
            result = invoke(cli, call.argv)
            took = time.perf_counter() - start
            refs.append(reference_loop())
            times[k].append(took)
            elapsed += took
            if len(first) < len(calls):
                first.append(result)
            elif result != first[k]:
                mismatches[k] += 1
    return times, refs, first, mismatches


def median_pass(times) -> float:
    """The input set once, each call at its median over the passes of the
    run."""
    return sum(statistics.median(t) for t in times)


def tail(times):
    """(percentile, value): the highest whole percentile with >= 10 samples
    beyond it, or (None, None) below 20 samples, where no tail exists."""
    ordered = sorted(times)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return None, None


def check_call(workload, call, code, text) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {text.strip().splitlines()[-1:]}"]
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return ["output is not JSON"]
    if workload == "bundled":
        golden = json.loads((GOLDEN_DIR / f"{call.name}_analyze.json").read_text())
        return [] if report == golden else ["report differs from the golden file"]
    chain = checks.Chain(call.doc)
    if workload == "simulate":
        return checks.check_simulate(chain, report, call.info["node"], call.info["steps"],
                                     call.info["seed"])
    return checks.check_analyze(chain, report, workload, call.info.get("parity"))


def verify(workload, digest, calls, first, mismatches, passes):
    """Check the outputs; returns (failed call count, problem lines).

    The first pass is checked in full; a later pass fails a call whose
    output is not the first pass's byte for byte.  Generated workloads are
    also compared with the reference table recorded at the seed commit,
    where it holds this input set.
    """
    bad = {}
    for call, (code, text) in zip(calls, first):
        problems = check_call(workload, call, code, text)
        if problems:
            bad[call.name] = problems
    reference = json.loads((HERE / "reference.json").read_text()).get(workload, {})
    pinned = reference.get(digest)
    if pinned is not None:
        for call, (code, text) in zip(calls, first):
            if call.name not in bad and pinned[call.name] != checks.reference_digest(
                    workload, call.name, json.loads(text)):
                bad[call.name] = ["differs from the seed-commit reference"]
    failed = sum(passes if call.name in bad else mismatches[k]
                 for k, call in enumerate(calls))
    lines = [f"FAIL {name}: {p}" for name, problems in bad.items() for p in problems]
    lines += [f"FAIL {call.name}: {n} later passes differ from the first"
              for call, n in zip(calls, mismatches) if n]
    if workload != "bundled":
        lines.append("reference table: " + ("compared" if pinned is not None
                                             else "no entry for this input set; "
                                             "independent checks only"))
    return failed, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "procnet" / "cli.py").is_file():
        print(f"error: no procnet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT_DIR / f"inputs-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(workload, seed, workdir):
    """One set-up: fresh import of procnet, input generation and file
    writes, the warm-up call.  Returns (seconds, procnet.cli, calls)."""
    start = time.perf_counter()
    cli, procnet = fresh_import()
    calls = inputs.build(workload, seed, workdir, procnet.bundled_network_path)
    name, options = WARM_UP
    invoke(cli, ["analyze", str(procnet.bundled_network_path(name)), *options])
    return time.perf_counter() - start, cli, calls


def set_ups(workload, seed, workdir, count):
    """`count` set-ups, with the reference loop before each and after the
    last.  Returns the raw and scaled set-up times and the last set-up's
    (procnet.cli, calls)."""
    raw, refs = [], [reference_loop()]
    for _ in range(count):
        took, cli, calls = set_up(workload, seed, workdir)
        refs.append(reference_loop())
        raw.append(took)
    return raw, at_reference([raw], refs)[0], cli, calls


def measure(args, workdir) -> int:
    workload, seed = args.workload, args.seed
    end_to_end, per_layer = declared("end_to_end"), declared("per_layer")
    setup_raw, setup_times, cli, calls = set_ups(workload, seed, workdir, SETUP_REPS)
    digest = inputs.digest(calls)

    budget = args.seconds / 2 if args.trace else args.seconds
    raw_times, refs, first, mismatches = run_passes(cli, calls, budget)
    times = raw_times if workload in RAW_CALLS else at_reference(raw_times, refs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # as many set-ups again after the passes, so that set-up time is
    # sampled at two moments of the run
    more_raw, more, _, _ = set_ups(workload, seed, workdir, SETUP_REPS)
    setup_raw += more_raw
    setup_times += more
    passes = len(times[0])
    call_times = [t for per_call in times for t in per_call]
    wall = median_pass(times)

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        call_rungs = {}

        def on_call(call):
            tracer.call_id += 1
            call_rungs[tracer.call_id] = call.rung

        try:
            traced_raw, traced_refs, traced_first, traced_mismatches = run_passes(
                sys.modules["procnet.cli"], calls, budget, passes=passes, on_call=on_call)
        finally:
            tracer.uninstall()
        mismatches = [m + t + (out != ref) for m, t, out, ref
                      in zip(mismatches, traced_mismatches, traced_first, first)]
        traced_times = (traced_raw if workload in RAW_CALLS
                        else at_reference(traced_raw, traced_refs))
        passes *= 2

    failed, problems = verify(workload, digest, calls, first, mismatches, passes)
    attempted = passes * len(calls)

    print(f"workload {workload}  seed {seed}  input sha256 {digest}")
    print(f"calls per pass {len(calls)}  untraced passes {len(times[0])}  "
          f"calls {len(call_times)}")
    for line in problems:
        print(line)
    print(f"failed_share {failed / attempted:.6f} (failed {failed} of {attempted} attempted)")
    print(f"reference loop median {statistics.median(refs):.6f} s over {len(refs)} runs "
          f"(REFERENCE_S {REFERENCE_S} s); raw wall_s {median_pass(raw_times):.6f} s, "
          f"raw setup_s {statistics.median(setup_raw):.6f} s")

    if not args.trace:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
        for name, unit in end_to_end.items():
            print(f"{name} {metrics[name]:.6f} {unit}")
        print(f"call_p50_s {statistics.median(call_times):.6f} s")
        p, tail_value = tail(call_times)
        if p is None:
            print(f"call_tail_s n/a (only {len(call_times)} calls; needs 20)")
        else:
            beyond = len(call_times) - math.ceil(p * len(call_times) / 100)
            print(f"call_tail_s {tail_value:.6f} s (p{p} of {len(call_times)} calls, "
                  f"{beyond} beyond)")
        if workload == "simulate":
            steps = sum(c.info["steps"] for c in calls)
            print(f"steps_per_s {steps / wall:.1f} 1/s ({steps} steps per pass)")
        result = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in end_to_end.items()}
    else:
        traced_passes = len(traced_times[0])
        traced_mean = sum(map(sum, traced_raw)) / traced_passes
        table = spans.layer_table(tracer.spans, tracer.sizes, call_rungs, traced_passes)
        table["trace.overhead"] = median_pass(traced_times) / wall
        print(f"traced passes {traced_passes}  untraced wall_s {wall:.6f} s  "
              f"traced wall_s {median_pass(traced_times):.6f} s")
        if tracer.absent or tracer.absent_sizes:
            print("absent: " + ", ".join(tracer.absent + sorted(tracer.absent_sizes)))
        for name in sorted(table):
            value = table[name]
            if isinstance(value, Fraction):
                value = float(value)
            print(f"{name} {value:.6g} {unit_of(name)}")
        for line in design_checks(workload, table, traced_mean):
            print(line)
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{workload}-{seed}.json"
        out.write_text(json.dumps({
            "workload": workload, "seed": seed, "input_sha256": digest,
            "untraced_wall_s": wall, "traced_call_s": traced_raw,
            "spans": [dict(zip(("name", "start", "end", "parent", "call"), s))
                      for s in tracer.spans],
            "sizes": tracer.sizes, "absent": tracer.absent,
            "table": {k: float(v) for k, v in table.items()},
        }))
        print(f"spans and table written to {out.relative_to(ROOT)}")
        result = {name: {"value": float(table[name]), "unit": unit}
                  for name, unit in per_layer.items()}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def unit_of(name: str) -> str:
    base = re.sub(r"\.w\d+$", "", name)
    if base.endswith("_s"):
        return "s"
    if base == "trace.overhead":
        return "ratio"
    if base == "dynamics.denominator_bits":
        return "bits"
    return "count"


def design_checks(workload, table, wall) -> list[str]:
    """The workload-design claims, confirmed or not on this commit.

    `wall` is the mean traced pass time, so that spans and the time they
    are compared with come from the same passes on a machine whose speed
    drifts.
    """
    claims = {
        "ladder": [("dynamics.stationary_s >= 0.5 * wall_s",
                    table["dynamics.stationary_s"] >= 0.5 * wall)],
        "ring": [("dynamics.stationary_s <= 0.1 * wall_s",
                  table["dynamics.stationary_s"] <= 0.1 * wall),
                 ("process.contract_s + exactlp.simplex_s >= 0.5 * wall_s",
                  table["process.contract_s"] + table["exactlp.simplex_s"] >= 0.5 * wall)],
        "simulate": [("dynamics.simulate_s + empirical.frequencies_s >= 0.9 * wall_s",
                      table["dynamics.simulate_s"] + table["empirical.frequencies_s"]
                      >= 0.9 * wall)],
    }.get(workload, [])
    return [f"design {'holds' if ok else 'DOES NOT HOLD'}: {text}" for text, ok in claims]


if __name__ == "__main__":
    sys.exit(main())

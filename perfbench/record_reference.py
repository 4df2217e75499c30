"""Record the reference table for the generated workloads.

    python3 perfbench/record_reference.py 0 19 [workload ...]

Runs every call of the named generated workloads (default `ladder`, `ring`
and `simulate`) once for each seed in the inclusive range, checks each
output with the independent checks, and replaces the workload's table in
`perfbench/reference.json`: one digest of the pinned values per call, keyed
by the sha256 of the input set.
Run it only at a commit whose outputs are known good, and only when the
input generators change; `run.py` compares against the table and never
writes it.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run

GENERATED = ("ladder", "ring", "simulate")


def main(argv) -> int:
    first, last = int(argv[0]), int(argv[1])
    workloads = argv[2:] or GENERATED
    sys.path.insert(0, str(run.ROOT / "src"))
    cli, procnet = run.fresh_import()
    path = run.HERE / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        for workload in workloads:
            table[workload] = {}
            for seed in range(first, last + 1):
                calls = run.inputs.build(workload, seed, Path(tmp), procnet.bundled_network_path)
                entry = {}
                for call in calls:
                    code, text = run.invoke(cli, call.argv)
                    problems = run.check_call(workload, call, code, text)
                    if problems:
                        print(f"{workload} seed {seed} {call.name}: {problems}", file=sys.stderr)
                        return 1
                    entry[call.name] = run.checks.reference_digest(
                        workload, call.name, json.loads(text))
                table[workload][run.inputs.digest(calls)] = entry
                path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
                print(f"{workload} seed {seed}: {len(entry)} calls recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

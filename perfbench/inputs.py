"""Seeded input sets for the benchmark workloads.

The generators here are the benchmark's own and import nothing from
procnet, so a change to the library cannot silently change a workload.
Every network is a plain `.network` JSON document (format_version 1) built
from `random.Random(seed)`: the same seed gives the same bytes, and the
sha256 of the whole input set is printed so two commits can be shown to run
identical inputs.

What the seed draws is chosen so that every seed costs the same work:
where a call's cost follows a drawn value (ladder rows, ring copy/negation
patterns, the observed simulate node), that value is fixed, and the seed
draws what the cost does not follow (wire outcome orders, simulate rows and
simulation seeds).

Each call in a workload is described by a `Call`: the file to analyze or
simulate, the CLI arguments, and the facts the output checker needs
(variable order, node rows, ring parity).
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random

BINARY = ["0", "1"]

# Rungs of the generated workloads, in wires (binary variables), and how
# many networks each rung holds.  8-wire ladders (about 100 s for the
# stationary solve alone) stay out until the solver gets faster.
LADDER_RUNGS = {5: 6, 6: 3, 7: 1}
# Copy/negation pattern of each ring, per rung: "1" negates, "0" copies.
# The cost of a ring follows its pattern (an 8-wire even ring took from
# 0.4 s to 1.2 s over seeded patterns, a 10-wire even ring from 5 s to
# 15 s), so the patterns are fixed and the seed draws only each wire's
# outcome order (see `ring_network`).  There is no 10-wire rung: its one
# odd ring, a 5 s call, spread by 0.21 over ten runs whether or not its
# time was scaled to the reference speed, while the rest of the pass
# spread by 0.05 scaled.
RING_PATTERNS = {
    8: ("10000000", "11000000", "10001000"),
    9: ("100000000", "110000000"),
}
# Parallel arrows added to the 3-node cycle of the generated simulate
# networks (3, 4 and 5 wires), and the node whose frequencies are counted.
# The counting cost follows the observed node's wires, so both are fixed;
# the seed draws the rows and the simulation seed.
SIMULATE_EXTRA = ((), ((0, 1),), ((0, 1), (1, 2)))
SIMULATE_NODE = "n1"
PRODUCT_NODE = "alpha"
SIMULATE_STEPS = 100_000

# The README demos, with the omegas tests/test_cli.py uses for the goldens.
BUNDLED = (("triangle", "sixcycle"), ("chsh", "solve"), ("product", "solve"), ("chain", "exact"))


@dataclass
class Call:
    """One CLI invocation of a workload and what its checker needs to know."""

    name: str
    argv: list[str]
    rung: int | None = None
    doc: dict | None = None
    info: dict = field(default_factory=dict)


def fmt_rational(value: Fraction) -> str:
    """procnet's "p/q" wire format ("p" for integers)."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _near_uniform_row(rng: Random, n_cols: int) -> list[Fraction]:
    parts = [rng.randint(8, 16) for _ in range(n_cols)]
    total = sum(parts)
    return [Fraction(p, total) for p in parts]


def _network(wires: list[str], nodes: list[tuple[str, list[str], list[str], list]],
             alphabets: list[list[str]] | None = None) -> dict:
    alphabets = alphabets or [BINARY] * len(wires)
    return {
        "format_version": 1,
        "variables": [{"name": w, "alphabet": a} for w, a in zip(wires, alphabets)],
        "nodes": [
            {
                "name": name,
                "inputs": ins,
                "internals": [],
                "outputs": outs,
                "matrix": [[fmt_rational(e) for e in row] for row in matrix],
            }
            for name, ins, outs, matrix in nodes
        ],
    }


def _outcome_orders(rng: Random, k: int) -> list[list[str]]:
    """The seeded outcome order of each of k binary wires."""
    return [BINARY if rng.random() < 0.5 else BINARY[::-1] for _ in range(k)]


def ladder_network(rng: Random, k: int, index: int = 0) -> dict:
    """A stochastic k-cycle: node i reads w(i-1) and writes w(i).

    Every row is (a/d, (d-a)/d) with 0 < a < d <= 16, so the global chain
    is one recurrent class and the stationary solve runs on all 2**k states.
    The row denominators are spread evenly over 2..16.  The cost of the
    solve follows the rows (one 7-wire network took 1.3 times as long as
    another), so the rows are drawn from a fixed generator per rung and
    `index`, and the seed (`rng`) draws only each wire's outcome order, as
    in `ring_network`: the labels of the rows change, the computation on
    outcome positions does not.
    """
    rows_rng = Random(f"ladder-rows:{k}:{index}")
    denominators = [2 + (15 * j) // (2 * k) for j in range(2 * k)]
    rows_rng.shuffle(denominators)
    rows = []
    for d in denominators:
        a = rows_rng.randint(1, d - 1)
        rows.append([Fraction(a, d), Fraction(d - a, d)])
    wires = [f"w{i}" for i in range(k)]
    nodes = [(f"n{i}", [wires[i - 1]], [wires[i]], rows[2 * i: 2 * i + 2]) for i in range(k)]
    return _network(wires, nodes, _outcome_orders(rng, k))


def ring_network(rng: Random, pattern: str) -> dict:
    """A ring of copy/negation nodes: node i reads w(i-1) and writes w(i).

    Node i negates where `pattern[i]` is "1" and copies where it is "0", by
    outcome position.  The seed draws each wire's outcome order ("0", "1")
    or ("1", "0"): in terms of the labels that changes which nodes copy and
    which negate, but not the parity, and it leaves the computation on
    outcome positions, and so its cost, the same for every seed.  Odd rings
    generalize `triangle` (strongly contextual), even rings are not
    contextual.
    """
    k = len(pattern)
    copy = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    negate = [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]]
    wires = [f"w{i}" for i in range(k)]
    nodes = [
        (f"n{i}", [wires[i - 1]], [wires[i]], negate if pattern[i] == "1" else copy)
        for i in range(k)
    ]
    return _network(wires, nodes, _outcome_orders(rng, k))


def simulate_network(rng: Random, extra: tuple[tuple[int, int], ...]) -> dict:
    """Three nodes on a cycle plus the `extra` parallel arrows, near-uniform rows."""
    arrows = [(0, 1), (1, 2), (2, 0), *extra]
    wires = [f"w{k}" for k in range(len(arrows))]
    nodes = []
    for i in range(3):
        ins = [w for w, (_, v) in zip(wires, arrows) if v == i]
        outs = [w for w, (u, _) in zip(wires, arrows) if u == i]
        matrix = [_near_uniform_row(rng, 2 ** len(outs)) for _ in range(2 ** len(ins))]
        nodes.append((f"n{i}", ins, outs, matrix))
    return _network(wires, nodes)


def _write(workdir: Path, name: str, doc: dict) -> str:
    path = workdir / f"{name}.network"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def build(workload: str, seed: int, workdir: Path, bundled_path) -> list[Call]:
    """Generate and write the input set of a workload; return its calls.

    `bundled_path(name)` locates a bundled network file; it is the only
    thing taken from the program under test.
    """
    rng = Random(f"{workload}:{seed}")
    calls: list[Call] = []
    if workload == "bundled":
        for name, omega in BUNDLED:
            path = str(bundled_path(name))
            calls.append(
                Call(name, ["analyze", path, "--omega", omega, "--json"])
            )
    elif workload == "ladder":
        for k, count in LADDER_RUNGS.items():
            for j in range(count):
                doc = ladder_network(rng, k, j)
                name = f"ladder-w{k}-{j}"
                path = _write(workdir, name, doc)
                calls.append(Call(name, ["analyze", path, "--json"], rung=k, doc=doc))
    elif workload == "ring":
        for k, patterns in RING_PATTERNS.items():
            for j, pattern in enumerate(patterns):
                doc = ring_network(rng, pattern)
                name = f"ring-w{k}-{j}"
                path = _write(workdir, name, doc)
                calls.append(
                    Call(name, ["analyze", path, "--json"], rung=k, doc=doc,
                         info={"parity": pattern.count("1") % 2})
                )
    elif workload == "simulate":
        docs = [("product", None, PRODUCT_NODE)] + [
            (f"sim-{3 + len(extra)}", simulate_network(rng, extra), SIMULATE_NODE)
            for extra in SIMULATE_EXTRA
        ]
        for name, doc, node in docs:
            if doc is None:
                path = str(bundled_path("product"))
                doc = json.loads(Path(path).read_text(encoding="utf-8"))
            else:
                path = _write(workdir, name, doc)
            sim_seed = rng.randrange(2**32)
            argv = ["simulate", path, "--node", node, "--steps", str(SIMULATE_STEPS),
                    "--seed", str(sim_seed), "--json"]
            calls.append(Call(name, argv, doc=doc,
                              info={"node": node, "seed": sim_seed, "steps": SIMULATE_STEPS}))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return calls


def digest(calls: list[Call]) -> str:
    """sha256 over every call's input bytes and arguments, in order.

    The input file's path is left out of the arguments: it differs between
    checkouts, while the bytes behind it do not.
    """
    h = hashlib.sha256()
    for call in calls:
        h.update(json.dumps(call.argv[:1] + call.argv[2:]).encode())
        h.update(Path(call.argv[1]).read_bytes())
    return h.hexdigest()

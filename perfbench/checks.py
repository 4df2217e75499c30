"""Output checks, independent of procnet, run outside the timed region.

Every check works from the benchmark's own reading of the input document
and its own `Fraction` arithmetic: the global chain is rebuilt as a product
of node rows, stationary vectors are checked as exact fixed points,
witnesses are re-marginalized, Farkas certificates are re-checked against a
system the checker builds itself, and simulated frequency tables are
recomputed from the documented SplitMix64 rule.  A check returns a list of
problems; an empty list means the output is correct.
"""
from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from fractions import Fraction
from itertools import product

from inputs import fmt_rational

_MASK64 = (1 << 64) - 1


class Chain:
    """The global chain of a closed network without node internals.

    Variables are in global first-appearance order (nodes in declaration
    order, each node's inputs then outputs); a state is the tuple of
    outcome positions, and state indices are lexicographic in that order.
    """

    def __init__(self, doc: dict):
        alphabets = {v["name"]: list(v["alphabet"]) for v in doc["variables"]}
        order: list[str] = []
        for node in doc["nodes"]:
            for name in node["inputs"] + node["outputs"]:
                if name not in order:
                    order.append(name)
        self.names = order
        self.alphabets = [alphabets[n] for n in order]
        self.sizes = [len(a) for a in self.alphabets]
        pos = {n: k for k, n in enumerate(order)}
        self.nodes = [
            (
                node["name"],
                [pos[n] for n in node["inputs"]],
                [pos[n] for n in node["outputs"]],
                [[Fraction(e) for e in row] for row in node["matrix"]],
            )
            for node in doc["nodes"]
        ]
        self.states = list(product(*[range(s) for s in self.sizes]))
        self.n = len(self.states)

    def index(self, digits) -> int:
        idx = 0
        for d, s in zip(digits, self.sizes):
            idx = idx * s + d
        return idx

    def section(self, digits, positions) -> int:
        """Index of the restriction of a state to `positions`."""
        idx = 0
        for p in positions:
            idx = idx * self.sizes[p] + digits[p]
        return idx

    def row(self, state: int) -> dict[int, Fraction]:
        """Nonzero entries of one row: the product of the node rows."""
        digits = self.states[state]
        partial = [([0] * len(self.sizes), Fraction(1))]
        for _, ins, outs, matrix in self.nodes:
            node_row = matrix[self.section(digits, ins)]
            grown = []
            for col, e in enumerate(node_row):
                if not e:
                    continue
                out_digits = []
                for p in reversed(outs):
                    out_digits.append(col % self.sizes[p])
                    col //= self.sizes[p]
                for nxt, acc in partial:
                    nxt = list(nxt)
                    for p, d in zip(outs, reversed(out_digits)):
                        nxt[p] = d
                    grown.append((nxt, acc * e))
            partial = grown
        return {self.index(nxt): acc for nxt, acc in partial}

    def is_fixed_point(self, weights: list[Fraction]) -> bool:
        after = [Fraction(0)] * self.n
        for s, w in enumerate(weights):
            if w:
                for c, e in self.row(s).items():
                    after[c] += w * e
        return after == weights

    def orbit(self, state: int) -> list[int]:
        """States visited from `state` by a deterministic chain, back to it."""
        seen = [state]
        while True:
            (nxt,) = self.row(seen[-1])
            if nxt == state:
                return seen
            seen.append(nxt)

    def node_distribution(self, node: int, weights: list[Fraction]) -> list[Fraction]:
        """Joint (inputs at t, outputs at t+1) of one node, lexicographic."""
        _, ins, outs, matrix = self.nodes[node]
        n_out = len(matrix[0])
        marginal = [Fraction(0)] * len(matrix)
        for s, w in enumerate(weights):
            if w:
                marginal[self.section(self.states[s], ins)] += w
        return [marginal[r] * matrix[r][c] for r in range(len(matrix)) for c in range(n_out)]

    def solve_stationary(self) -> list[Fraction]:
        """Unique stationary vector of an irreducible chain, by Gauss-Jordan."""
        n = self.n
        rows = [[Fraction(0)] * n + [Fraction(0)] for _ in range(n)]
        for s in range(n):
            for c, e in self.row(s).items():
                rows[c][s] += e
        for c in range(n):
            rows[c][c] -= 1
        rows[-1] = [Fraction(1)] * (n + 1)
        for col in range(n):
            piv = next(r for r in range(col, n) if rows[r][col])
            rows[col], rows[piv] = rows[piv], rows[col]
            f = rows[col][col]
            rows[col] = [e / f for e in rows[col]]
            for r in range(n):
                if r != col and rows[r][col]:
                    g = rows[r][col]
                    rows[r] = [a - g * b for a, b in zip(rows[r], rows[col])]
        return [rows[r][n] for r in range(n)]


def _weights(dist: dict) -> list[Fraction]:
    return [Fraction(w) for w in dist["weights"]]


def _acyclic(contexts: list[set[str]]) -> bool:
    """GYO reduction: drop private variables and contained edges until stuck."""
    edges = [set(c) for c in contexts]
    changed = True
    while changed and len(edges) > 1:
        changed = False
        for i, e in enumerate(edges):
            if any(j != i and e <= f for j, f in enumerate(edges)):
                del edges[i]
                changed = True
                break
        if changed:
            continue
        for e in edges:
            private = {v for v in e if sum(v in f for f in edges) == 1}
            if private:
                e -= private
                changed = True
    return len(edges) <= 1


def check_analyze(chain: Chain, report: dict, kind: str, parity: int | None = None) -> list[str]:
    """Problems with an `analyze --json` report on a generated network."""
    problems = []
    gp = report["global_process"]
    if gp["variables"] != chain.names or gp["states"] != chain.n:
        problems.append("global process variables or state count differ")
        return problems
    w = _weights(report["stationary"]["distribution"])
    if len(w) != chain.n or any(x < 0 for x in w) or sum(w) != 1:
        problems.append("stationary vector is not a distribution")
        return problems
    if kind == "ladder":
        # every row strictly positive: one recurrent class, unique fixed point
        if not all(w) or not chain.is_fixed_point(w):
            problems.append("stationary vector is not the positive fixed point")
    else:
        # deterministic ring: the recurrent class of state 0, uniformly
        cycle = set(chain.orbit(0))
        expect = [Fraction(1, len(cycle)) if s in cycle else Fraction(0) for s in range(chain.n)]
        if w != expect:
            problems.append("stationary vector is not uniform on the cycle of state 0")

    deltas = [chain.node_distribution(i, w) for i in range(len(chain.nodes))]
    ctx_pos = [ins + outs for _, ins, outs, _ in chain.nodes]
    contexts = [[chain.names[p] for p in positions] for positions in ctx_pos]
    for i, (name, ctx) in enumerate(zip((n[0] for n in chain.nodes), contexts)):
        got = report["node_distributions"][i]
        if got["node"] != name or got["context"] != ctx:
            problems.append(f"node distribution {i} is for the wrong node or context")
        elif _weights(got["distribution"]) != deltas[i]:
            problems.append(f"node distribution of {name} differs")
    if not all(c["inputs_match"] and c["outputs_match"] for c in report["marginal_checks"]):
        problems.append("a marginal check failed")
    if not report["no_signalling"]["consistent"]:
        problems.append("model reported as signalling")
    if report["scenario"]["maximal_contexts"] != contexts:
        problems.append("maximal contexts differ")
    if report["scenario"]["vorobev_regular"] != _acyclic([set(c) for c in contexts]):
        problems.append("Vorobev flag differs")
    if report["chsh"]["applicable"]:
        problems.append("CHSH reported applicable on a scenario that is not a square")

    cx = report["contextuality"]
    if cx["contextual"]:
        cert = cx["certificate"]
        y = [Fraction(c) for c in cert["coefficients"]]
        rows = []  # (context, section index, right-hand side); None: normalization
        for label in cert["rows"]:
            if label["context"] is None:
                rows.append((None, None, Fraction(1)))
                continue
            k = contexts.index(label["context"])
            digits = {p: chain.alphabets[p].index(o) for p, o in zip(ctx_pos[k], label["outcomes"])}
            idx = chain.section(digits, ctx_pos[k])
            rows.append((k, idx, deltas[k][idx]))
        if len(y) != len(rows):
            problems.append("certificate length differs from its row labels")
        elif sum(yi * b for yi, (_, _, b) in zip(y, rows)) <= 0:
            problems.append("certificate: y.b is not positive")
        elif any(
            sum(yi for yi, (k, idx, _) in zip(y, rows)
                if k is None or chain.section(g, ctx_pos[k]) == idx) > 0
            for g in chain.states
        ):
            problems.append("certificate: y.A has a positive entry")
    else:
        q = _weights(cx["witness"])
        if any(x < 0 for x in q) or sum(q) != 1 or len(q) != chain.n:
            problems.append("witness is not a distribution")
        else:
            for k, positions in enumerate(ctx_pos):
                marg = [Fraction(0)] * len(deltas[k])
                for g, x in zip(chain.states, q):
                    if x:
                        marg[chain.section(g, positions)] += x
                if marg != deltas[k]:
                    problems.append(f"witness does not reproduce context {contexts[k]}")
                    break
    strong = not any(
        all(deltas[k][chain.section(g, positions)] for k, positions in enumerate(ctx_pos))
        for g in chain.states
    )
    if cx["strongly_contextual"] != strong:
        problems.append("strong contextuality flag differs")
    if parity is not None and cx["contextual"] != bool(parity):
        problems.append(f"ring of parity {parity} has contextual={cx['contextual']}")
    return problems


def _splitmix(seed: int):
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def _thresholds(weights) -> list[int]:
    out = []
    acc = Fraction(0)
    for w in weights:
        acc += w
        out.append((acc.numerator << 64) // acc.denominator)
    return out


def expected_frequencies(chain: Chain, node_name: str, steps: int, seed: int):
    """Frequencies and exact values of one node, per the documented rule.

    The trajectory starts from a draw of the stationary vector, then draws
    each next state from the current row; the node's (inputs at t, outputs
    at t+1) pairs are counted over the steps.
    """
    w = chain.solve_stationary()
    node = next(i for i, n in enumerate(chain.nodes) if n[0] == node_name)
    _, ins, outs, matrix = chain.nodes[node]
    n_out = len(matrix[0])
    draws = _splitmix(seed)

    def sample(thresholds):
        return min(bisect_right(thresholds, next(draws)), len(thresholds) - 1)

    table = {}
    state = sample(_thresholds(w))
    counts = [0] * (len(matrix) * n_out)
    for _ in range(steps):
        t = table.get(state)
        if t is None:
            row = chain.row(state)
            t = table[state] = _thresholds([row.get(c, Fraction(0)) for c in range(chain.n)])
        nxt = sample(t)
        counts[chain.section(chain.states[state], ins) * n_out
               + chain.section(chain.states[nxt], outs)] += 1
        state = nxt
    return [Fraction(c, steps) for c in counts], chain.node_distribution(node, w)


def check_simulate(chain: Chain, report: dict, node: str, steps: int, seed: int) -> list[str]:
    problems = []
    freq, exact = expected_frequencies(chain, node, steps, seed)
    rows = report["estimates"]
    if [r["frequency"] for r in rows] != [fmt_rational(f) for f in freq]:
        problems.append("frequency table differs from the SplitMix64 recomputation")
    if [r["exact"] for r in rows] != [fmt_rational(p) for p in exact]:
        problems.append("exact node distribution differs")
    if report["steps"] != steps or report["seed"] != seed or report["node"] != node:
        problems.append("report echoes the wrong steps, seed or node")
    if report["ergodic"] is not True:
        problems.append("strictly positive chain not reported ergodic")
    return problems


def reference_values(workload: str, report: dict) -> list:
    """The values a reference table pins for one call's report."""
    if workload == "simulate":
        return [r["frequency"] for r in report["estimates"]]
    cx = report["contextuality"]
    return [
        report["stationary"]["distribution"]["weights"],
        cx["contextual"],
        cx["strongly_contextual"],
        report["chsh"].get("value"),
        report["scenario"]["vorobev_regular"],
    ]


def reference_digest(workload: str, name: str, report: dict) -> str:
    """Short sha256 of the values pinned for one call."""
    pinned = [[name, reference_values(workload, report)]]
    return hashlib.sha256(json.dumps(pinned, sort_keys=True).encode()).hexdigest()[:16]

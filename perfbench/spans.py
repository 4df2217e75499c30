"""Per-layer spans, recorded from outside the program.

A `Tracer` wraps the public functions listed in `LAYERS`.  The wrapper
replaces the function object in every `procnet.*` module namespace that
binds it, so `from .x import f` aliases are caught as well.  Each call
records a span (name, start, end, parent span, call id) in memory; sizes are
computed from the returned value after the span has ended, so they do not
count as layer time.  A listed function that does not exist, or a size
whose return value has changed shape, is reported as absent rather than
failing the run.

`layer_table` turns the spans into the per-layer metrics: summed durations
(`<span>_s`), self times (`<span>_self_s`, duration minus child spans;
`cli.self_s` for the whole-layer span `cli`),
call counts (`<span>.calls`) and sizes, per pass over the input set and per
rung.
"""
from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from fractions import Fraction
from functools import wraps
from time import perf_counter


def _states(result, args, kwargs):
    # contraction result: row count and nonzero entries of the global matrix
    matrix = result.matrix
    return {"process.states": len(matrix),
            "process.nonzeros": sum(1 for row in matrix for e in row if e)}


def _stationary(result, args, kwargs):
    weights = result.distribution.weights
    return {
        "dynamics.recurrent_states": sum(1 for w in weights if w),
        "dynamics.denominator_bits": max(w.denominator.bit_length() for w in weights),
    }


def _solve(result, args, kwargs):
    return {"exactlp.solve_dim": len(result) if result is not None else 0}


def _simplex(result, args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    return {"exactlp.lp_rows": len(rows), "exactlp.lp_cols": len(rows[0]) if rows else 0}


def _steps(result, args, kwargs):
    return {"dynamics.steps": len(result) - 1}


# (module, public function, span name, size function).  Several functions
# may share a span name; nested spans of one name are counted once.
LAYERS = (
    ("procnet.netfile", "load_network_file", "netfile.load", None),
    ("procnet.netfile", "check_network_text", "netfile.check", None),
    ("procnet.process", "contract_network", "process.contract", _states),
    ("procnet.process", "classify_network", "process.classify", None),
    ("procnet.process", "find_reciprocities", "process.reciprocities", None),
    ("procnet.dynamics", "find_stationary", "dynamics.stationary", _stationary),
    ("procnet.dynamics", "verify_stationary", "dynamics.verify", None),
    ("procnet.dynamics", "simulate_chain", "dynamics.simulate", _steps),
    ("procnet.dynamics", "is_ergodic", "dynamics.ergodic", None),
    ("procnet.exactlp", "solve_linear_fraction_free", "exactlp.solve", _solve),
    ("procnet.exactlp", "feasible_point", "exactlp.simplex", _simplex),
    ("procnet.exactlp", "farkas_contradiction", "exactlp.farkas", None),
    ("procnet.empirical", "node_distribution", "empirical.node", None),
    ("procnet.empirical", "verify_marginal_theorem", "empirical.marginal", None),
    ("procnet.empirical", "build_empirical_model", "empirical.model", None),
    ("procnet.empirical", "empirical_node_frequencies", "empirical.frequencies", None),
    ("procnet.scenario", "validate_empirical_model", "scenario.overlap", None),
    ("procnet.scenario", "marginalize", "scenario.marginalize", None),
    ("procnet.contextuality", "decide_contextuality", "contextuality.decide", None),
    ("procnet.contextuality", "is_strongly_contextual", "contextuality.strong", None),
    ("procnet.contextuality", "global_section_system", "contextuality.system", None),
    ("procnet.contextuality", "verify_infeasibility_certificate", "contextuality.certificate", None),
    ("procnet.contextuality", "detect_chsh_labeling", "contextuality.chsh", None),
    ("procnet.contextuality", "chsh_value", "contextuality.chsh", None),
    ("procnet.contextuality", "graham_reduction", "contextuality.graham", None),
    ("procnet.cli", "main", "cli", None),
)

# Every size the functions above report.  The largest denominator is a
# maximum over calls; every other size is summed.
SIZES = ("dynamics.denominator_bits", "dynamics.recurrent_states", "dynamics.steps",
         "exactlp.lp_cols", "exactlp.lp_rows", "exactlp.solve_dim",
         "process.nonzeros", "process.states")
MAX_SIZES = {"dynamics.denominator_bits"}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, call id]
        self.sizes: list = []  # (call id, size name, value)
        self.absent: list[str] = []
        self.absent_sizes: set[str] = set()
        self.call_id = 0
        self._stack: list[int] = []
        self._installed: list = []

    def _wrap(self, fn, name, size):
        spans, sizes, stack = self.spans, self.sizes, self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else None, self.call_id])
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid][1] = start
                spans[sid][2] = end
            if size is not None:
                try:
                    measured = size(result, args, kwargs)
                except (AttributeError, TypeError, KeyError, IndexError):
                    # the return value no longer has the shape this size reads
                    self.absent_sizes.add(size.__name__)
                else:
                    sizes.extend((self.call_id, key, value) for key, value in measured.items())
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "procnet" or n.startswith("procnet."))]
        for module_name, attr, name, size in LAYERS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(original, name, size)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()


def _durations(spans, calls):
    """Per span name: (summed time, self time, call count), over `calls`.

    A span nested in a span of the same name is not counted again.  Self
    time subtracts every direct child span.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, call in spans:
        if parent is not None:
            child_time[parent] += end - start
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    for sid, (name, start, end, parent, call) in enumerate(spans):
        if call not in calls:
            continue
        ancestor = parent
        nested = False
        while ancestor is not None:
            if spans[ancestor][0] == name:
                nested = True
                break
            ancestor = spans[ancestor][3]
        count[name] += 1
        if nested:
            continue
        total[name] += end - start
        self_time[name] += end - start - child_time[sid]
    return total, self_time, count


def _self_key(name: str) -> str:
    """`<span>_self_s`; a span that is a whole layer (`cli`, no dot) gives
    the layer's own time, `<layer>.self_s`."""
    return f"{name}_self_s" if "." in name else f"{name}.self_s"


def layer_table(spans, sizes, call_rungs: dict[int, int | None], passes: int) -> dict:
    """Per-layer metrics per pass: {metric: value}, plus `.w<k>` per rung.

    `call_rungs` maps each traced call id to its rung (wires) or None.
    """
    groups = {"": set(call_rungs)}
    for call, rung in call_rungs.items():
        if rung is not None:
            groups.setdefault(f".w{rung}", set()).add(call)
    table = {}
    for suffix, calls in groups.items():
        total, self_time, count = _durations(spans, calls)
        for name in sorted({name for _, _, name, _ in LAYERS}):
            table[f"{name}_s{suffix}"] = total.get(name, 0.0) / passes
            table[_self_key(name) + suffix] = self_time.get(name, 0.0) / passes
            table[f"{name}.calls{suffix}"] = Fraction(count.get(name, 0), passes)
        agg: dict[str, int] = {}
        for call, key, value in sizes:
            if call not in calls:
                continue
            if key in MAX_SIZES:
                agg[key] = max(agg.get(key, 0), value)
            else:
                agg[key] = agg.get(key, 0) + value
        for key in SIZES:
            value = agg.get(key, 0)
            table[f"{key}{suffix}"] = value if key in MAX_SIZES else Fraction(value, passes)
    return table

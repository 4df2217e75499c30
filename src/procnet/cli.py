"""Command-line interface: validate, analyze, simulate.

`analyze` renders one `procnet.analysis.Analysis`, and `simulate` starts
from the same `stationary_regime`; this module only parses arguments,
renders results and maps errors to exit codes.

Exit codes: 0 success, 2 parse error or unreadable file, 3 semantic error
(including size-cap refusals), 4 structure error (open network or
reciprocities), 5 stationary verification failure.  `--json` switches
every command to a machine-readable report with the key layout documented
in the README; the human output carries the same information.
"""
from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from pathlib import Path

from .analysis import Analysis, analyze, stationary_regime
from .dynamics import _require_steps, is_ergodic, simulate_chain
from .empirical import _node_delta, empirical_node_frequencies
from .errors import ParseError, ProcnetError, StationarityError, StructureError
from .netfile import _read_text, check_network_text, load_network_file
from .process import classify_network
from .rationals import echo, format_rational
from .scenario import iter_outcome_tuples, section_count

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SEMANTIC = 3
EXIT_STRUCTURE = 4
EXIT_STATIONARY = 5

# longest argparse error message: room for a bad int option's echo, cut to
# MAX_ECHO_CHARS already, and for the subcommand list after a misspelt one
MAX_USAGE_ERROR_CHARS = 160

# the exit code of an error caught by `main`: the first class that matches;
# any other ProcnetError (a domain, wiring or size-cap error) is semantic
_EXIT_FOR_ERROR = (
    (ParseError, EXIT_PARSE),
    (StructureError, EXIT_STRUCTURE),
    (StationarityError, EXIT_STATIONARY),
    (OSError, EXIT_PARSE),  # a missing file, a directory, no permission
    (ProcnetError, EXIT_SEMANTIC),
)


def _dist_json(dist) -> dict:
    return {
        "variables": list(dist.variable_names),
        "weights": [format_rational(w) for w in dist.weights],
    }


def _print_distribution(dist) -> None:
    for outcomes, w in zip(iter_outcome_tuples(dist.variables), dist.weights):
        if w:
            pairs = ", ".join(
                f"{v.name}={o}" for v, o in zip(dist.variables, outcomes)
            )
            print(f"    P({pairs}) = {format_rational(w)}")


def cmd_validate(args) -> int:
    check = check_network_text(_read_text(args.file))
    if args.json:
        print(
            json.dumps(
                {
                    "report": "validate",
                    "file": Path(args.file).name,
                    "ok": check.ok,
                    "stage": check.stage,
                    "issues": list(check.issues),
                },
                indent=2,
            )
        )
    else:
        if check.ok:
            nf = check.file
            shape = classify_network(nf.network)
            print(f"{args.file}: OK")
            print(f"  nodes: {len(nf.network.nodes)}  variables: {len(nf.variables)}")
            print(f"  closed: {'yes' if shape.closed else 'no'}")
        else:
            print(f"{args.file}: {check.stage} errors")
            for issue in check.issues:
                print(f"  - {issue}")
    if check.ok:
        return EXIT_OK
    return EXIT_PARSE if check.stage == "parse" else EXIT_SEMANTIC


def _analyze_json(a: Analysis, filename: str, omega: str) -> dict:
    sigma = a.process
    n_states = section_count(sigma.internals)
    verdict = a.verdict
    chsh = a.chsh
    report = {
        "report": "analyze",
        "file": filename,
        "network": {
            "nodes": list(a.network.node_names),
            "closed": True,
            "reciprocities": [],
        },
        "global_process": {
            "variables": [v.name for v in sigma.internals],
            "states": n_states,
            "rows": n_states,
            "cols": n_states,
        },
        "stationary": {
            "source": omega if omega != "solve" else "solved",
            "method": a.stationary.method,
            "residual": format_rational(a.stationary.residual),
            "distribution": _dist_json(a.stationary.distribution),
        },
        "node_distributions": [
            {
                "node": nd.node,
                "context": list(nd.context),
                "distribution": _dist_json(nd.distribution),
            }
            for nd in a.node_distributions
        ],
        "marginal_checks": [
            {
                "node": mc.node,
                "inputs_match": not mc.input_mismatches,
                "outputs_match": not mc.output_mismatches,
            }
            for mc in a.marginal_checks
        ],
        "no_signalling": {
            "consistent": a.compatibility.ok,
            "violations": len(a.compatibility.violations),
        },
        "scenario": {
            "maximal_contexts": [list(c) for c in a.model.scenario.maximal_contexts],
            "vorobev_regular": a.vorobev_regular,
        },
        "contextuality": {
            "contextual": verdict.contextual,
            "strongly_contextual": verdict.strongly_contextual,
            "notes": verdict.notes,
            "witness": _dist_json(verdict.witness) if verdict.witness else None,
            "certificate": (
                {
                    "coefficients": [format_rational(c) for c in verdict.certificate],
                    "rows": [
                        {"context": list(r.context), "outcomes": list(r.outcomes)}
                        if not r.is_normalization
                        else {"context": None, "outcomes": None}
                        for r in verdict.certificate_rows
                    ],
                    # decide_contextuality raises unless farkas_contradiction
                    # accepts the certificate
                    "verified": True,
                }
                if verdict.contextual
                else None
            ),
        },
        "chsh": (
            {
                "applicable": True,
                "labeling": list(chsh.labeling),
                "correlators": [format_rational(e) for e in chsh.correlators],
                "value": format_rational(chsh.value),
                "term_signs": list(chsh.term_signs),
                "classical_bound": format_rational(chsh.classical_bound),
                "pr_bound": format_rational(chsh.pr_bound),
                "tsirelson_squared": format_rational(chsh.tsirelson_squared),
                "violates_classical": chsh.violates_classical,
                "violates_tsirelson": chsh.violates_tsirelson,
            }
            if chsh
            else {"applicable": False}
        ),
    }
    return report


def _print_analyze(report: dict, a: Analysis) -> None:
    net = report["network"]
    print(f"file: {report['file']}")
    print(f"nodes: {', '.join(net['nodes'])}  (closed, no reciprocities)")
    gp = report["global_process"]
    print(
        f"global process: variables {', '.join(gp['variables'])} "
        f"({gp['states']} states, {gp['rows']}x{gp['cols']})"
    )
    st = report["stationary"]
    print(
        f"stationary: {st['source']} (method {st['method']}, residual {st['residual']})"
    )
    print("node distributions:")
    for nd in a.node_distributions:
        print(f"  {nd.node}: context {{{', '.join(nd.context)}}}")
        _print_distribution(nd.distribution)
    checks = report["marginal_checks"]
    ok = all(c["inputs_match"] and c["outputs_match"] for c in checks)
    print(f"input/output marginals match stationary: {'yes' if ok else 'NO'}")
    ns = report["no_signalling"]
    print(
        "overlap compatibility (no-signalling): "
        + ("consistent" if ns["consistent"] else f"{ns['violations']} violations")
    )
    cx = report["contextuality"]
    print(f"contextual: {'yes' if cx['contextual'] else 'no'}")
    if cx["contextual"]:
        print("  infeasibility certificate verified: yes")
    else:
        support = sum(1 for w in cx["witness"]["weights"] if w != "0")
        print(
            f"  global witness found ({support} support points; marginals "
            f"reproduce every context exactly)"
        )
    print(f"strongly contextual: {'yes' if cx['strongly_contextual'] else 'no'}")
    chsh = report["chsh"]
    if chsh["applicable"]:
        print(
            f"CHSH: value {chsh['value']} (labeling {', '.join(chsh['labeling'])}; "
            f"classical bound {chsh['classical_bound']}, "
            f"quantum bound squared {chsh['tsirelson_squared']}, "
            f"box bound {chsh['pr_bound']})"
        )
        print(
            f"  violates classical bound: {'yes' if chsh['violates_classical'] else 'no'}"
            f"; violates quantum bound: {'yes' if chsh['violates_tsirelson'] else 'no'}"
        )
    else:
        print("CHSH: not applicable (scenario is not a two-outcome square)")
    print(
        "scenario Vorobev-regular: "
        + ("yes" if report["scenario"]["vorobev_regular"] else "no")
    )


def cmd_analyze(args) -> int:
    a = analyze(load_network_file(args.file), args.omega)
    report = _analyze_json(a, Path(args.file).name, args.omega)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_analyze(report, a)
    return EXIT_OK


def cmd_simulate(args) -> int:
    _require_steps(args.steps, 1)  # frequencies need one transition
    nf = load_network_file(args.file)
    node = nf.network.node(args.node)
    sigma, stat = stationary_regime(nf, args.omega)
    exact = _node_delta(node, stat.distribution)[0].distribution

    trail = simulate_chain(sigma, stat.distribution, args.steps, args.seed)
    observed = empirical_node_frequencies(sigma, node, trail)
    ergodic = is_ergodic(sigma)

    rows = []
    max_error = 0.0
    for outcomes, p, f in zip(
        iter_outcome_tuples(exact.variables), exact.weights, observed.weights
    ):
        err = abs(float(f) - float(p))
        max_error = max(max_error, err)
        band = 3.0 * (float(p) * (1.0 - float(p)) / args.steps) ** 0.5
        rows.append(
            {
                "outcomes": list(outcomes),
                "frequency": format_rational(f),
                "exact": format_rational(p),
                "abs_error": err,
                "three_sigma_band": band,
                "within_band": err <= band if band > 0 else f == p,
            }
        )
    note = (
        "chain verified irreducible and aperiodic; frequencies converge to the "
        "exact values"
        if ergodic
        else "chain not verified irreducible+aperiodic; frequencies are Cesaro "
        "time-averages along one trajectory and may depend on the start"
    )
    if args.json:
        print(
            json.dumps(
                {
                    "report": "simulate",
                    "file": Path(args.file).name,
                    "node": args.node,
                    "steps": args.steps,
                    "seed": args.seed,
                    "ergodic": ergodic,
                    "note": note,
                    "variables": list(exact.variable_names),
                    "estimates": rows,
                    "max_abs_error": max_error,
                },
                indent=2,
            )
        )
    else:
        print(f"file: {Path(args.file).name}  node: {args.node}")
        print(f"steps: {args.steps}  seed: {args.seed}")
        print(f"note: {note}")
        header = ", ".join(exact.variable_names)
        print(f"observed frequency of ({header}) input/output events:")
        for row in rows:
            print(
                f"  ({', '.join(row['outcomes'])}): "
                f"{row['frequency']} vs exact {row['exact']} "
                f"(|err| {row['abs_error']:.6f}, 3se band {row['three_sigma_band']:.6f})"
            )
        print(f"max abs error: {max_error:.6f}")
    return EXIT_OK


def _int_option(text: str) -> int:
    """An int option's value; a bad token is echoed cut, like every error."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {echo(text)}") from None


class _Parser(argparse.ArgumentParser):
    """argparse's parser with its error message cut to MAX_USAGE_ERROR_CHARS,
    since argparse echoes an unknown argument or subcommand whole.
    `add_subparsers` builds the subcommand parsers of the same class."""

    def error(self, message: str):
        if len(message) > MAX_USAGE_ERROR_CHARS:
            message = message[:MAX_USAGE_ERROR_CHARS] + "..."
        super().error(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; `parse_args` reads it
    without changing it."""
    parser = _Parser(
        prog="procnet",
        description=(
            "Analyze networks of finite stochastic processes: exact contraction, "
            "stationary distributions, induced empirical models, contextuality."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a network file")
    p_validate.add_argument("file")
    p_validate.add_argument("--json", action="store_true")
    p_validate.set_defaults(func=cmd_validate)

    p_analyze = sub.add_parser(
        "analyze", help="full pipeline: contract, stationary, model, contextuality"
    )
    p_analyze.add_argument("file")
    p_analyze.add_argument(
        "--omega",
        default="solve",
        help="stationary distribution: a name from the file, or 'solve' (default)",
    )
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser(
        "simulate", help="Monte Carlo check of one node's input/output distribution"
    )
    p_sim.add_argument("file")
    p_sim.add_argument("--node", required=True, help="node to observe")
    p_sim.add_argument("--steps", type=_int_option, default=100_000)
    p_sim.add_argument("--seed", type=_int_option, default=0)
    p_sim.add_argument(
        "--omega",
        default="solve",
        help="stationary distribution for the exact comparison (name or 'solve')",
    )
    p_sim.add_argument("--json", action="store_true")
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def _message(exc: Exception) -> str:
    """The error's text; an OSError's file name is echoed cut, like every
    echo of input."""
    if isinstance(exc, OSError) and exc.filename is not None:
        return f"[Errno {exc.errno}] {exc.strerror}: {echo(exc.filename)}"
    return str(exc)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ProcnetError, OSError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return next(code for kind, code in _EXIT_FOR_ERROR if isinstance(exc, kind))


if __name__ == "__main__":
    raise SystemExit(main())

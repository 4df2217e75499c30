"""The versioned network file format (UTF-8 JSON, extension ".network").

Schema, format_version 1:

    {
      "format_version": 1,
      "variables": [{"name": "X", "alphabet": ["0", "1"]}, ...],
      "nodes": [
        {"name": "alpha",
         "inputs": ["X"], "internals": [], "outputs": ["Y"],
         "matrix": [["0", "1"], ["1", "0"]]},
        ...
      ],
      "stationary": {"label": ["1/6", "0", ...], ...}        # optional
    }

Wiring is by shared variable name: an output of one node and the equally
named input of another are the same arrow.  Matrix rows are indexed by
sections of (inputs ++ internals), columns by sections of
(internals ++ outputs), lexicographic in declaration order.  Entries are
exact rationals written as "p/q" strings (plain integers and exact decimal
strings are accepted on input).  Stationary vectors run over the closed
network's variables in global first-appearance order.

format_version is the JSON integer 1 (not true, not 1.0); alphabet entries
and variable names are strings, never coerced.  Malformed structure raises
ParseError; well-formed files carrying semantic mistakes (unknown names,
wrong shapes, non-stochastic rows, wiring conflicts, bad stationary vectors)
are collected by `check_network_text` into a report, which is what the
CLI's validate command prints.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import DomainError, ParseError, WiringError
from .process import Network, ProcessTensor, global_variable_order
from .rationals import echo, format_rational, parse_rational
from .scenario import Distribution, Variable

FORMAT_VERSION = 1


@dataclass(frozen=True)
class NetworkFile:
    """Parsed contents of a network file."""

    variables: tuple[Variable, ...]
    network: Network
    stationary: tuple[tuple[str, Distribution], ...]

    def stationary_named(self, label: str) -> Distribution:
        for name, dist in self.stationary:
            if name == label:
                return dist
        raise DomainError(f"no stationary distribution named {echo(label)} in the file")


@dataclass(frozen=True)
class FileCheck:
    """Outcome of checking a file: parse failure, semantic issues, or a file."""

    stage: str  # "parse" | "semantic" | "ok"
    issues: tuple[str, ...]
    file: NetworkFile | None

    @property
    def ok(self) -> bool:
        return self.stage == "ok"


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ParseError(message)


def _structure(text: str):
    try:
        doc = json.loads(text)
    except ValueError as exc:  # also integers past the int-string digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("invalid JSON: nested too deeply for the JSON decoder") from exc
    _expect(isinstance(doc, dict), "top level must be an object")
    _expect("format_version" in doc, "missing format_version")
    # type first: true == 1 == 1.0 in Python
    _expect(
        type(doc["format_version"]) is int and doc["format_version"] == FORMAT_VERSION,
        f"unsupported format_version {echo(doc['format_version'])} "
        f"(expected {FORMAT_VERSION})",
    )
    _expect(isinstance(doc.get("variables"), list), "variables must be a list")
    _expect(isinstance(doc.get("nodes"), list), "nodes must be a list")
    for entry in doc["variables"]:
        _expect(isinstance(entry, dict), "each variable must be an object")
        _expect(isinstance(entry.get("name"), str), "variable name must be a string")
        _expect(
            isinstance(entry.get("alphabet"), list) and entry["alphabet"],
            f"variable {echo(entry.get('name'))}: alphabet must be a nonempty list",
        )
        _expect(
            all(isinstance(o, str) for o in entry["alphabet"]),
            f"variable {echo(entry.get('name'))}: alphabet entries must be strings",
        )
    for entry in doc["nodes"]:
        _expect(isinstance(entry, dict), "each node must be an object")
        _expect(isinstance(entry.get("name"), str), "node name must be a string")
        for role in ("inputs", "internals", "outputs"):
            names = entry.get(role, [])
            _expect(
                isinstance(names, list) and all(isinstance(n, str) for n in names),
                f"node {echo(entry.get('name'))}: {role} must be a list of names",
            )
        _expect(
            isinstance(entry.get("matrix"), list) and entry["matrix"],
            f"node {echo(entry.get('name'))}: matrix must be a nonempty list of rows",
        )
        for row in entry["matrix"]:
            _expect(
                isinstance(row, list),
                f"node {echo(entry.get('name'))}: each matrix row must be a list",
            )
    stationary = doc.get("stationary", {})
    _expect(isinstance(stationary, dict), "stationary must be an object of named vectors")
    for label, vector in stationary.items():
        _expect(isinstance(vector, list), f"stationary {echo(label)} must be a list")
    return doc


def check_network_text(text: str) -> FileCheck:
    """Parse and semantically check; never raises for content problems."""
    try:
        doc = _structure(text)
    except ParseError as exc:
        return FileCheck("parse", (str(exc),), None)

    issues: list[str] = []
    table: dict[str, Variable] = {}
    variables: list[Variable] = []
    for entry in doc["variables"]:
        name = entry["name"]
        if name in table:
            issues.append(f"variable {name!r} declared twice")
            continue
        try:
            var = Variable(name, entry["alphabet"])
        except DomainError as exc:
            issues.append(str(exc))
            continue
        table[name] = var
        variables.append(var)

    nodes: list[ProcessTensor] = []
    seen_nodes: set[str] = set()
    for entry in doc["nodes"]:
        node_name = entry["name"]
        if node_name in seen_nodes:
            issues.append(f"node {node_name!r} declared twice")
            continue
        seen_nodes.add(node_name)
        roles = {}
        missing = False
        for role in ("inputs", "internals", "outputs"):
            names = entry.get(role, [])
            unknown = [n for n in names if n not in table]
            if unknown:
                issues.append(f"node {node_name!r}: undeclared variables {unknown}")
                missing = True
            roles[role] = tuple(table[n] for n in names if n in table)
        if missing:
            continue
        try:
            matrix = tuple(
                tuple(parse_rational(e) for e in row) for row in entry["matrix"]
            )
        except ParseError as exc:
            issues.append(f"node {node_name!r}: {exc}")
            continue
        try:
            node = ProcessTensor.from_matrix(
                node_name, roles["inputs"], roles["internals"], roles["outputs"], matrix
            )
        except DomainError as exc:
            issues.append(str(exc))
            continue
        nodes.append(node)

    network = None
    try:
        network = Network(tuple(nodes))
    except WiringError as exc:
        issues.append(str(exc))

    stationary: list[tuple[str, Distribution]] = []
    raw = doc.get("stationary", {})
    # a node that failed to build leaves its wires dangling, so the vectors
    # are checked only when every node built
    if network is not None and raw and len(nodes) == len(seen_nodes):
        g_in, g_internal, g_out = global_variable_order(network)
        # global inputs and outputs are exactly the dangling wires
        if g_in or g_out:
            issues.append("stationary vectors are only meaningful for closed networks")
        else:
            for label, vector in raw.items():
                try:
                    weights = tuple(parse_rational(e) for e in vector)
                except ParseError as exc:
                    issues.append(f"stationary {label!r}: {exc}")
                    continue
                try:
                    stationary.append((label, Distribution(g_internal, weights)))
                except DomainError as exc:
                    issues.append(f"stationary {label!r}: {exc}")

    if issues:
        return FileCheck("semantic", tuple(issues), None)
    return FileCheck(
        "ok", (), NetworkFile(tuple(variables), network, tuple(stationary))
    )


def parse_network_text(text: str) -> NetworkFile:
    """Strict parse: raises ParseError or DomainError instead of reporting."""
    check = check_network_text(text)
    if check.stage == "parse":
        raise ParseError(check.issues[0])
    if check.stage == "semantic":
        raise DomainError("; ".join(check.issues))
    return check.file


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 are a ParseError, and an
    unreadable file raises its OSError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not UTF-8: {exc}") from exc


def load_network_file(path) -> NetworkFile:
    return parse_network_text(_read_text(path))


def serialize_network_file(nf: NetworkFile) -> str:
    """Canonical text: declaration order preserved, rationals as "p/q"."""
    doc = {
        "format_version": FORMAT_VERSION,
        "variables": [
            {"name": v.name, "alphabet": list(v.alphabet)} for v in nf.variables
        ],
        "nodes": [
            {
                "name": n.name,
                "inputs": [v.name for v in n.inputs],
                "internals": [v.name for v in n.internals],
                "outputs": [v.name for v in n.outputs],
                "matrix": [[format_rational(e) for e in row] for row in n.matrix],
            }
            for n in nf.network.nodes
        ],
    }
    if nf.stationary:
        doc["stationary"] = {
            label: [format_rational(w) for w in dist.weights]
            for label, dist in nf.stationary
        }
    return json.dumps(doc, indent=2) + "\n"

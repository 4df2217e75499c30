"""Open stochastic processes, networks of them, and network contraction.

A process is a stochastic matrix whose rows are indexed by sections of
(inputs ++ internals), the values seen at time t, and whose columns are
indexed by sections of (internals ++ outputs), the values produced at
time t+1.  Networks wire an output variable of one node to the equally
named input variable of another; every wired variable becomes an internal
variable of the contracted global process.

The constructor refuses any row that is not a probability row, so every
process, read from a file, built from dense rows or contracted, is
stochastic, and no later stage checks a row again.

A process stores each row as integers: a denominator l and the nonzero
numerators over it.  The global entry is the plain product of the node
entries, so contraction order cannot change the result; nodes are folded in
declaration order and only nonzero numerators are multiplied.  The later
stages are dense in the state count, and contraction's work follows the
nonzeros, so `contract_network` refuses a global process of more than
`scenario.DEFAULT_MAX_STATES` rows or columns, or of more than
`scenario.DEFAULT_MAX_NONZEROS` nonzeros, before it builds any row.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from .errors import DomainError, WiringError
from .rationals import _scaled, echo, format_rational
from .scenario import (
    ZERO,
    Variable,
    _as_fraction,
    _index_table,
    _require_nonzero_cap,
    _require_state_cap,
    section_count,
)


@dataclass(frozen=True)
class ProcessTensor:
    """A stochastic matrix with named, role-tagged variables; `rows[r]` is
    `(l, ((column, numerator), ...))`, row r's nonzero entries over l > 0,
    columns strictly increasing and gcd(l, numerators) = 1.  Every row is a
    probability row: its numerators are positive and sum to l.  The rows are
    checked in order, and the first negative entry or wrong sum is a
    DomainError naming the row."""

    name: str
    inputs: tuple[Variable, ...]
    internals: tuple[Variable, ...]
    outputs: tuple[Variable, ...]
    rows: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise DomainError("process name must be a nonempty string")
        for role in ("inputs", "internals", "outputs"):
            object.__setattr__(self, role, tuple(getattr(self, role)))
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise DomainError(f"process {self.name!r} repeats a variable name")
        n_rows = section_count(self.row_variables)
        if type(self.rows) is not tuple or len(self.rows) != n_rows:
            raise DomainError(f"process {self.name!r}: wrong number of rows")
        n_cols = section_count(self.col_variables)
        malformed = DomainError(
            f"process {self.name!r}: a row must be (l, ((column, numerator), ...)) with "
            f"l > 0, columns increasing in 0..{n_cols - 1}, nonzero ints, gcd 1"
        )
        for r, row in enumerate(self.rows):
            if type(row) is not tuple or len(row) != 2 or type(row[1]) is not tuple:
                raise malformed
            common, last, total = row[0], -1, 0
            if type(common) is not int or common < 1:
                raise malformed
            for entry in row[1]:
                if type(entry) is not tuple or len(entry) != 2:
                    raise malformed
                c, a = entry
                if not (type(c) is int and last < c < n_cols and type(a) is int and a):
                    raise malformed
                if a < 0:
                    raise DomainError(
                        f"process {self.name!r}: negative entry "
                        f"{format_rational(Fraction(a, row[0]))} at ({r}, {c})"
                    )
                last = c
                total += a
                if common != 1:
                    common = gcd(common, a)
            if common != 1:
                raise malformed
            if total != row[0]:
                raise DomainError(
                    f"process {self.name!r}: row {r} sums to "
                    f"{format_rational(Fraction(total, row[0]))}, not 1"
                )

    @classmethod
    def from_matrix(cls, name, inputs, internals, outputs, matrix) -> "ProcessTensor":
        """A process from dense rows, one entry per column."""
        matrix = [[_as_fraction(e) for e in row] for row in matrix]
        n_rows = section_count(tuple(inputs) + tuple(internals))
        n_cols = section_count(tuple(internals) + tuple(outputs))
        if len(matrix) != n_rows or any(len(row) != n_cols for row in matrix):
            raise DomainError(
                f"process {name!r}: matrix must be {n_rows}x{n_cols} "
                f"for its declared variables"
            )
        # the lcm of a row's reduced denominators is coprime to its numerators
        rows = tuple(
            (common, tuple((c, a) for c, a in enumerate(ints) if a))
            for common, ints in map(_scaled, matrix)
        )
        return cls(name, inputs, internals, outputs, rows)

    @property
    def matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense rows, zeros included, built afresh on each access."""
        n_cols = section_count(self.col_variables)
        dense = [[ZERO] * n_cols for _ in self.rows]
        for entries, (common, row) in zip(dense, self.rows):
            for c, a in row:
                entries[c] = Fraction(a, common)
        return tuple(map(tuple, dense))

    @property
    def row_variables(self) -> tuple[Variable, ...]:
        return self.inputs + self.internals

    @property
    def col_variables(self) -> tuple[Variable, ...]:
        return self.internals + self.outputs

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self.inputs + self.internals + self.outputs

    @property
    def is_closed(self) -> bool:
        return not self.inputs and not self.outputs


@dataclass(frozen=True)
class Network:
    """Processes wired by shared variable names.

    A name may be the output of at most one node and the input of at most
    one node; a name appearing in both roles is a wire and becomes internal
    to the global process.  Node-internal names must not occur anywhere
    else.  Wired endpoints must declare identical alphabets.

    The constructor derives the wiring once, in two private fields outside
    `__init__`, `==`, `hash` and `repr`: `_roles`, the global (inputs,
    internals, outputs) that `global_variable_order` returns, and `_links`,
    the (producer index, consumer index) pair of every wire, which
    `find_reciprocities` reads.
    """

    nodes: tuple[ProcessTensor, ...]
    _roles: tuple[tuple[Variable, ...], ...] = field(init=False, repr=False, compare=False)
    _links: frozenset[tuple[int, int]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        names = [n.name for n in self.nodes]
        if len(set(names)) != len(names):
            raise WiringError("node names must be distinct")
        producers: dict[str, str] = {}
        consumers: dict[str, str] = {}
        internal_owner: dict[str, str] = {}
        declared: dict[str, Variable] = {}

        def declare(var: Variable, node: str):
            seen = declared.get(var.name)
            if seen is not None and seen != var:
                raise WiringError(
                    f"variable {var.name!r} declared with different alphabets "
                    f"({seen.alphabet} vs {var.alphabet})"
                )
            declared[var.name] = var

        for node in self.nodes:
            for v in node.inputs:
                if v.name in consumers:
                    raise WiringError(
                        f"variable {v.name!r} is an input of both "
                        f"{consumers[v.name]!r} and {node.name!r}"
                    )
                consumers[v.name] = node.name
                declare(v, node.name)
            for v in node.outputs:
                if v.name in producers:
                    raise WiringError(
                        f"variable {v.name!r} is an output of both "
                        f"{producers[v.name]!r} and {node.name!r}"
                    )
                producers[v.name] = node.name
                declare(v, node.name)
            for v in node.internals:
                if v.name in internal_owner:
                    raise WiringError(
                        f"internal variable {v.name!r} appears in two nodes"
                    )
                internal_owner[v.name] = node.name
                declare(v, node.name)
        for name, owner in internal_owner.items():
            if name in producers or name in consumers:
                raise WiringError(
                    f"internal variable {name!r} of {owner!r} collides with an arrow name"
                )
        # keys by first appearance; variables of one name are equal by now.
        # The sign is +1 for a global input, -1 for an output, 0 for an
        # internal (a wire or a node internal)
        order = {v.name: v for n in self.nodes for v in n.variables}
        sign = {name: (name in consumers) - (name in producers) for name in order}
        roles = tuple(
            tuple(v for name, v in order.items() if sign[name] == s) for s in (1, 0, -1)
        )
        index = {name: i for i, name in enumerate(names)}
        links = {(index[producers[w]], index[consumers[w]]) for w in producers if w in consumers}
        object.__setattr__(self, "_roles", roles)
        object.__setattr__(self, "_links", frozenset(links))

    def node(self, name: str) -> ProcessTensor:
        for n in self.nodes:
            if n.name == name:
                return n
        raise DomainError(f"no node named {echo(name)}")

    @property
    def node_names(self) -> tuple[str, ...]:
        return tuple(n.name for n in self.nodes)


@dataclass(frozen=True)
class NetworkShape:
    closed: bool
    dangling_inputs: tuple[str, ...]
    dangling_outputs: tuple[str, ...]


def classify_network(net: Network) -> NetworkShape:
    """Closed when every node input is produced and every output consumed.

    The dangling wires are the global process's inputs and outputs, in
    `global_variable_order`.
    """
    g_inputs, _, g_outputs = global_variable_order(net)
    return NetworkShape(
        closed=not g_inputs and not g_outputs,
        dangling_inputs=tuple(v.name for v in g_inputs),
        dangling_outputs=tuple(v.name for v in g_outputs),
    )


def find_reciprocities(net: Network) -> tuple[tuple[str, str], ...]:
    """All unordered node pairs that provide each other, by node position:
    each node's pair with itself first, then its pairs with later nodes.

    A node with an internal variable is a reciprocity with itself: its
    internal state plays both roles at once.
    """
    links = net._links
    pairs = [(i, i) for i, n in enumerate(net.nodes) if n.internals]
    pairs += [(i, j) for i, j in links if i < j and (j, i) in links]
    return tuple((net.nodes[i].name, net.nodes[j].name) for i, j in sorted(pairs))


def global_variable_order(
    net: Network,
) -> tuple[tuple[Variable, ...], tuple[Variable, ...], tuple[Variable, ...]]:
    """(inputs, internals, outputs) of the global process.

    Variables are ordered by first appearance, scanning nodes in declaration
    order and each node's (inputs, internals, outputs) in declared order.
    This fixes the file layout of stationary vectors, so keep it stable.
    """
    return net._roles


def contract_network(net: Network) -> ProcessTensor:
    """Multiply all nodes into the single global process.

    The network may be open or closed: its dangling wires are the global
    inputs and outputs, so two processes wired output to input are a
    two-node network.

    Each node reads its inputs and internals from the row side (time t) and
    writes its internals and outputs on the column side (time t+1), so the
    entry of the result at (row, column) is the product of the node entries
    at the correspondingly restricted sections.  Only nonzero node entries
    are multiplied: a global row's numerators are products of node-row
    numerators over D, the product of the node rows' l, and the row is
    already in lowest terms.  More rows or columns than the state cap,
    or more nonzeros (per row, the product of the node rows' nonzero counts)
    than the nonzero cap, is a ResourceLimitError, raised first.
    """
    g_inputs, g_internals, g_outputs = global_variable_order(net)
    row_vars = g_inputs + g_internals
    col_vars = g_internals + g_outputs
    n_rows = section_count(row_vars)
    n_cols = section_count(col_vars)
    _require_state_cap(n_rows)
    _require_state_cap(n_cols)
    # at global row r, node i reads its row net.nodes[i].rows[tables[i][r]]
    tables = [_index_table(n.row_variables, row_vars) for n in net.nodes]
    counts = [1] * n_rows
    for n, table in zip(net.nodes, tables):
        sizes = [len(row) for _, row in n.rows]
        counts = [k * sizes[t] for k, t in zip(counts, table)]
    _require_nonzero_cap(sum(counts))

    # one node writes each column variable, so a global column is a sum of one
    # offset per node; shifted[i][r] holds node i's row at global row r as
    # (l, [(offset, numerator)])
    shifted = []
    for n, table in zip(net.nodes, tables):
        offsets = _index_table(col_vars, n.col_variables)
        node_rows = [
            (common, [(offsets[c], a) for c, a in row]) for common, row in n.rows
        ]
        shifted.append([node_rows[t] for t in table])
    rows = []
    for r in range(n_rows):
        denominator, terms = 1, [(0, 1)]
        for node_rows in shifted:
            common, entries = node_rows[r]
            denominator *= common
            terms = [(c + o, a * e) for c, a in terms for o, e in entries]
        terms.sort()
        # already in lowest terms: a prime dividing every product a_i b_j of
        # two probability rows divides all numerators of one of them, so also
        # their sum, that row's l, and the constructor refuses such a row; the
        # product is again a probability row, so this holds node by node
        rows.append((denominator, tuple(terms)))
    return ProcessTensor("global", g_inputs, g_internals, g_outputs, tuple(rows))


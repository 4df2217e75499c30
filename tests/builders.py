"""Deterministic builders that only the tests use.

`deterministic_process` and `uniform_process` build internal-free
processes from a rule or as uniform rows, `reorder_process` permutes the
variables within each role, `iter_sections` and `restrict_section` list
and project sections as tuples of (name, outcome) pairs, and `one_outcome_cycle_doc` writes a network file
document of any size over one state.  None of them is needed for a
verdict, so they live here rather than in the package.
"""
from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from procnet.errors import DomainError
from procnet.process import ProcessTensor
from procnet.scenario import (
    Variable,
    _index_table,
    iter_outcome_tuples,
    section_count,
)


def deterministic_process(
    name: str,
    inputs: Sequence[Variable],
    outputs: Sequence[Variable],
    rule,
) -> ProcessTensor:
    """Internal-free process with entry 1 exactly when rule(inputs) == outputs."""
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    column = {o: c for c, o in enumerate(iter_outcome_tuples(outputs))}
    rows = []
    for in_outcomes in iter_outcome_tuples(inputs):
        c = column.get(tuple(rule(in_outcomes)))
        rows.append((1, () if c is None else ((c, 1),)))
    return ProcessTensor(name, inputs, (), outputs, tuple(rows))


def uniform_process(
    name: str, inputs: Sequence[Variable], outputs: Sequence[Variable]
) -> ProcessTensor:
    """Internal-free process whose every row is the uniform distribution."""
    inputs = tuple(inputs)
    outputs = tuple(outputs)
    n_cols = section_count(outputs)
    row = (n_cols, tuple((c, 1) for c in range(n_cols)))
    return ProcessTensor(name, inputs, (), outputs, (row,) * section_count(inputs))


def reorder_process(
    process: ProcessTensor,
    inputs: Sequence[str],
    internals: Sequence[str],
    outputs: Sequence[str],
) -> ProcessTensor:
    """Permute the variables within each role, shuffling the rows to match."""

    def pick(names: Sequence[str], pool: tuple[Variable, ...]) -> tuple[Variable, ...]:
        by_name = {v.name: v for v in pool}
        if sorted(names) != sorted(by_name):
            raise DomainError(
                f"{list(names)} is not a permutation of {sorted(by_name)}"
            )
        return tuple(by_name[n] for n in names)

    new_inputs = pick(inputs, process.inputs)
    new_internals = pick(internals, process.internals)
    new_outputs = pick(outputs, process.outputs)

    # new row index -> old row index, and old column index -> new column index
    row_map = _index_table(process.row_variables, new_inputs + new_internals)
    col_map = _index_table(new_internals + new_outputs, process.col_variables)
    rows = []
    for r in row_map:
        common, row = process.rows[r]
        rows.append((common, tuple(sorted((col_map[c], a) for c, a in row))))
    return ProcessTensor(process.name, new_inputs, new_internals, new_outputs, tuple(rows))


Pairs = tuple[tuple[str, str], ...]


def iter_sections(variables: Sequence[Variable]) -> Iterator[Pairs]:
    """Every section as its (name, outcome) pairs, in index order."""
    names = tuple(v.name for v in variables)
    for outcomes in iter_outcome_tuples(variables):
        yield tuple(zip(names, outcomes))


def restrict_section(section: Pairs, names: Iterable[str]) -> Pairs:
    """Project a section onto a subset of its variables, in the given order."""
    names = tuple(names)
    lookup = dict(section)
    missing = [n for n in names if n not in lookup]
    if missing:
        raise DomainError(f"cannot restrict: {missing} not among {sorted(lookup)}")
    if len(set(names)) != len(names):
        raise DomainError("restriction names must be distinct")
    return tuple((n, lookup[n]) for n in names)


def one_outcome_cycle_doc(n_nodes: int, wires: int):
    """A directed cycle of n_nodes relays, each arrow `wires` variables of one
    outcome: one state whatever the size, so the state cap never refuses it."""
    names = [[f"W{k}_{j}" for j in range(wires)] for k in range(n_nodes)]
    return {
        "format_version": 1,
        "variables": [{"name": n, "alphabet": ["0"]} for arrow in names for n in arrow],
        "nodes": [
            {
                "name": f"relay{k}",
                "inputs": names[k],
                "internals": [],
                "outputs": names[(k + 1) % n_nodes],
                "matrix": [["1"]],
            }
            for k in range(n_nodes)
        ],
    }

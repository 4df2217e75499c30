"""Reference oracles for the production solvers, on Fractions.

`solve_linear` is Gauss-Jordan: slow but obviously correct, and more
general than `procnet.exactlp.solve_linear_fraction_free`: it accepts
rank-deficient systems and sets free variables to zero.

`fraction_simplex` is the phase-1 simplex of
`procnet.exactlp.feasible_point` on a dense Fraction tableau.

`dense_contract` is `procnet.process.contract_network` as a triple loop
over every (row, column, node), zero entries included.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from procnet.errors import DomainError
from procnet.exactlp import FeasibilityResult
from procnet.process import Network, ProcessTensor, global_variable_order
from procnet.scenario import (
    ONE,
    ZERO,
    _index_table,
    _require_state_cap,
    section_count,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def solve_linear(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...] | None:
    """One exact solution of a (possibly redundant) linear system, or None.

    Free variables are set to zero; inconsistent systems return None.
    """
    m = len(rows)
    if m != len(rhs):
        raise DomainError("rhs length does not match row count")
    n = len(rows[0]) if m else 0
    aug = [[Fraction(e) for e in row] + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    if any(len(row) != n + 1 for row in aug):
        raise DomainError("ragged coefficient matrix")

    pivot_cols: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        factor = aug[r][col]
        # entries left of col in the pivot row are already zero
        aug[r][col:] = [e / factor for e in aug[r][col:]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i][col:] = [
                    a - f * b if b else a for a, b in zip(aug[i][col:], aug[r][col:])
                ]
        pivot_cols.append(col)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [_ZERO] * n
    for k, col in enumerate(pivot_cols):
        x[col] = aug[k][n]
    return tuple(x)


def fraction_simplex(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> FeasibilityResult:
    """Decide {A x = b, x >= 0} on a dense tableau of Fractions.

    The same phase 1 as `procnet.exactlp.feasible_point` (one artificial
    per sign-normalized row, Bland's rule for entering and leaving), with
    every pivot done in Fractions; the production solver must return
    exactly the same vertex or certificate.
    """
    m = len(rows)
    if m != len(rhs):
        raise DomainError("rhs length does not match row count")
    n = len(rows[0]) if m else 0
    if m == 0:
        return FeasibilityResult(True, (), None)

    flipped = [rhs[i] < 0 for i in range(m)]
    tab: list[list[Fraction]] = []
    for i in range(m):
        row = [Fraction(e) for e in rows[i]]
        b = Fraction(rhs[i])
        if len(row) != n:
            raise DomainError("ragged coefficient matrix")
        if flipped[i]:
            row = [-e for e in row]
            b = -b
        art = [_ZERO] * m
        art[i] = _ONE
        tab.append(row + art + [b])

    basis = [n + i for i in range(m)]
    # reduced costs for minimizing the artificial sum; artificial columns
    # start basic, so their reduced costs are zero
    zrow = [
        -sum(tab[i][j] for i in range(m)) if j < n else _ZERO for j in range(n + m)
    ]
    zrow.append(-sum(tab[i][n + m] for i in range(m)))

    width = n + m
    while True:
        enter = next((j for j in range(width) if zrow[j] < 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            coeff = tab[i][enter]
            if coeff > 0:
                ratio = tab[i][width] / coeff
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        if leave is None:
            raise AssertionError("phase-1 objective is bounded; no leaving row found")
        pivot = tab[leave][enter]
        tab[leave] = [e / pivot for e in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[leave])]
        if zrow[enter] != 0:
            f = zrow[enter]
            zrow = [a - f * b for a, b in zip(zrow, tab[leave])]
        basis[leave] = enter

    objective = -zrow[width]
    if objective == 0:
        x = [_ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tab[i][width]
        return FeasibilityResult(True, tuple(x), None)

    # dual value of row i: artificial i has cost 1 and column e_i, so its
    # reduced cost is 1 - y_i
    y = [_ONE - zrow[n + i] for i in range(m)]
    y = [-yi if flipped[i] else yi for i, yi in enumerate(y)]
    return FeasibilityResult(False, None, tuple(y))


def dense_contract(net: Network) -> ProcessTensor:
    """Multiply all nodes into the global process, entry by entry."""
    g_inputs, g_internals, g_outputs = global_variable_order(net)
    row_vars = g_inputs + g_internals
    col_vars = g_internals + g_outputs
    n_rows = section_count(row_vars)
    n_cols = section_count(col_vars)
    _require_state_cap(n_rows)
    _require_state_cap(n_cols)

    row_tables = [_index_table(n.row_variables, row_vars) for n in net.nodes]
    col_tables = [_index_table(n.col_variables, col_vars) for n in net.nodes]
    matrices = [n.matrix for n in net.nodes]
    n_nodes = len(net.nodes)
    rows = []
    for r in range(n_rows):
        node_rows = [matrices[i][row_tables[i][r]] for i in range(n_nodes)]
        row = []
        for c in range(n_cols):
            acc = ONE
            for i in range(n_nodes):
                e = node_rows[i][col_tables[i][c]]
                if not e:
                    acc = ZERO
                    break
                acc = acc * e
            row.append(acc)
        rows.append(tuple(row))
    return ProcessTensor("global", g_inputs, g_internals, g_outputs, tuple(rows))

"""Reference oracle for the production solver: Gauss-Jordan on Fractions.

Slow but obviously correct, and more general than
`procnet.exactlp.solve_linear_fraction_free`: it accepts rank-deficient
systems and sets free variables to zero.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from procnet.errors import DomainError

_ZERO = Fraction(0)


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

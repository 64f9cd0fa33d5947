"""Exact linear algebra over Fraction: RREF and nullspace."""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row-echelon form; returns (rows, pivot_columns).

    Gauss-Jordan on sparse rows: each row is a ``{column: value}`` map of its
    nonzero entries, so elimination touches only nonzeros.  The reduced form
    is unique, so the dense rows returned do not depend on pivot choice.
    """
    if not rows:
        return [], []
    ncols = len(rows[0])
    todo = [{c: Fraction(v) for c, v in enumerate(row) if v} for row in rows]
    todo = [row for row in todo if row]
    done, pivots = [], []
    # elimination only fills columns some row already holds
    for c in sorted(set().union(*todo)):
        pr = next((i for i, row in enumerate(todo) if c in row), None)
        if pr is None:
            continue
        prow = todo.pop(pr)
        pv = prow.pop(c)
        prow = {j: v / pv for j, v in prow.items()}
        for row in (*todo, *done):
            fac = row.pop(c, None)
            if fac is None:
                continue
            for j, v in prow.items():
                w = row.get(j, 0) - fac * v
                if w:
                    row[j] = w
                else:
                    del row[j]
        prow[c] = Fraction(1)
        done.append(prow)
        pivots.append(c)
        if not todo:
            break
    zero = Fraction(0)
    return [[row.get(j, zero) for j in range(ncols)] for row in done], pivots


def nullspace(rows, ncols: int) -> list:
    """Basis of the right null space of the matrix given by ``rows``."""
    red, pivots = rref(rows) if rows else ([], [])
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, p in zip(red, pivots):
            v[p] = -row[fc]
        basis.append(v)
    return basis

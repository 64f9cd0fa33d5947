"""Exact linear algebra over Fraction: RREF, solve, nullspace."""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row-echelon form; returns (rows, pivot_columns)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [v / pv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                fac = m[i][c]
                m[i] = [a - fac * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [row for row in m[:r]], pivots


def solve(rows, rhs) -> Optional[list]:
    """One solution of A x = b, or None if inconsistent (A given by rows)."""
    if not rows:
        return None
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    n = len(rows[0])
    for row in red:
        if all(v == 0 for v in row[:n]) and row[n] != 0:
            return None
    x = [Fraction(0)] * n
    for row, p in zip(red, pivots):
        if p == n:
            return None
        x[p] = row[n]
    return x


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

"""Exact linear algebra over Fraction, all on one row reduction.

``EchelonBasis`` grows the reduced row-echelon form of sparse
``{column: Fraction}`` vectors one insert at a time; on request each row
also keeps the combination of kept input vectors it equals.  ``rref`` and
``nullspace`` read off it, and so do ``liealg``'s subspaces and closure.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

_ZERO, _ONE = Fraction(0), Fraction(1)


def sparse(row: Sequence) -> dict:
    return {c: Fraction(v) for c, v in enumerate(row) if v}


def axpy(dst: dict, f, src: dict) -> None:
    """dst -= f * src on sparse maps, dropping entries that cancel."""
    for k, c in src.items():
        w = dst.get(k, 0) - f * c
        if w:
            dst[k] = w
        else:
            del dst[k]


class EchelonBasis:
    """Reduced echelon basis of sparse vectors, seeded with dense ``rows``.

    ``rows`` maps each pivot to its row: pivot entry 1, nothing left of the
    pivot, zero at every other pivot.  Such a row set is the unique RREF of
    its span.  With ``combinations``, ``combs`` maps each pivot to the
    combination ``{m: Fraction}`` of kept inputs (in insertion order) that
    its row equals.
    """

    def __init__(self, rows=(), combinations: bool = False):
        self.rows: dict = {}
        self.combs = {} if combinations else None
        self.kept = 0
        for row in rows:
            self.insert(sparse(row))

    def reduce(self, vec: dict):
        """(remainder, expansion): vec = remainder + sum_m expansion[m] kept[m].

        The remainder is empty exactly when ``vec`` lies in the span; the
        expansion is None without combinations.  As rows vanish at each
        other's pivots, each pivot of ``vec`` is cleared by its own row.
        """
        hits = [(p, f) for p, f in vec.items() if p in self.rows]
        rem = dict(vec)
        for p, f in hits:
            axpy(rem, f, self.rows[p])
        if self.combs is None:
            return rem, None
        expansion: dict = {}
        for p, f in hits:
            axpy(expansion, -f, self.combs[p])
        return rem, expansion

    def insert(self, vec: dict) -> bool:
        """Keep ``vec`` as the next input vector unless it lies in the span."""
        rem, expansion = self.reduce(vec)
        if not rem:
            return False
        p = min(rem)
        pv = rem.pop(p)
        row = {ax: c / pv for ax, c in rem.items()}
        row[p] = _ONE
        if expansion is not None:
            comb = {m: -c / pv for m, c in expansion.items()}
            comb[self.kept] = 1 / pv
        # back-reduce, so that the new pivot column is zero in the other rows
        for q, other in self.rows.items():
            f = other.get(p)
            if f is not None:
                axpy(other, f, row)
                if expansion is not None:
                    axpy(self.combs[q], f, comb)
        self.rows[p] = row
        if expansion is not None:
            self.combs[p] = comb
        self.kept += 1
        return True

    def dense(self, ncols: int):
        """The RREF as dense rows of length ``ncols``, and its pivot columns."""
        pivots = sorted(self.rows)
        return [[self.rows[p].get(j, _ZERO) for j in range(ncols)]
                for p in pivots], pivots


def rref(rows: Sequence[Sequence[Fraction]]):
    """Reduced row-echelon form; returns (rows, pivot_columns)."""
    return EchelonBasis(rows).dense(len(rows[0])) if rows else ([], [])


def nullspace(rows, ncols: int) -> list:
    """Basis of the right null space of the matrix given by ``rows``."""
    red = EchelonBasis(rows).rows
    basis = []
    for fc in (c for c in range(ncols) if c not in red):
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for p, row in red.items():
            v[p] = -row.get(fc, _ZERO)
        basis.append(v)
    return basis

"""Exact linear algebra over stored rationals, all on one row reduction.

A vector is a sparse map ``{index: q}`` with no zero entry, ``q`` a stored
rational (``int`` when integral, else ``Fraction``) under ``expr``'s kernel.
``EchelonBasis`` grows the reduced row-echelon form of such vectors one
insert at a time; on request each row also keeps the combination of kept
input vectors it equals.  ``nullspace`` reads off it, and so do
``liealg``'s subspaces and closure.
"""
from __future__ import annotations

from typing import Iterable

from .expr import _qadd, _qinv, _qmul


def axpy(dst: dict, f, src: dict) -> None:
    """dst -= f * src on sparse maps, dropping entries that cancel."""
    f = -f
    for k, c in src.items():
        w = _qadd(dst.get(k, 0), _qmul(f, c))
        if w:
            dst[k] = w
        else:
            del dst[k]


class EchelonBasis:
    """Reduced echelon basis of sparse vectors, seeded with ``vecs``.

    ``rows`` maps each pivot to its row: pivot entry 1, nothing left of the
    pivot, zero at every other pivot.  Such a row set is the unique RREF of
    its span.  With ``combinations``, ``combs`` maps each pivot to the
    combination ``{m: q}`` of kept inputs (in insertion order) that its row
    equals.  Input entries may be any ``int`` or ``Fraction``, zero
    included: zeros are dropped, and each pivot is inverted once
    (``_qinv``) and multiplied in with ``_qmul``, so every stored entry is
    a stored rational.
    """

    def __init__(self, vecs: Iterable[dict] = (), combinations: bool = False):
        self.rows: dict = {}
        self.combs = {} if combinations else None
        self.kept = 0
        for vec in vecs:
            self.insert(vec)

    def reduce(self, vec: dict):
        """(remainder, expansion): vec = remainder + sum_m expansion[m] kept[m].

        The remainder is empty exactly when ``vec`` lies in the span; the
        expansion is None without combinations.  As rows vanish at each
        other's pivots, each pivot of ``vec`` is cleared by its own row.
        """
        rem = {k: c for k, c in vec.items() if c}
        hits = [(p, f) for p, f in rem.items() if p in self.rows]
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
        inv = _qinv(rem.pop(p))
        row = {ax: _qmul(c, inv) for ax, c in rem.items()}
        row[p] = 1
        if expansion is not None:
            comb = {m: _qmul(c, -inv) for m, c in expansion.items()}
            comb[self.kept] = inv
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


def nullspace(vecs: Iterable[dict], ncols: int) -> list:
    """Basis of the right null space of the matrix whose rows are ``vecs``:
    one vector per free column, in increasing column order."""
    red = EchelonBasis(vecs).rows
    basis = []
    for fc in (c for c in range(ncols) if c not in red):
        v = {fc: 1}
        for p, row in red.items():
            if fc in row:
                v[p] = -row[fc]
        basis.append(v)
    return basis

"""Structure analysis of finitely presented Lie algebras.

Presentations are built either from abstract structure constants or by
closing a list of concrete vector fields under the Lie bracket.  All linear
algebra is exact over stored rationals (``expr._q``), which the vectors,
``Subspace`` rows and the structure constants ``close_or_fail`` reads off hold.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ._linalg import EchelonBasis, axpy, nullspace
from .expr import (Chart, Expr, ZERO, _qadd, _qmul, add_products, diff,
                   iter_terms, mul, pow_, provably_nonzero, rat,
                   structurally_zero, substitute, sym)
from .vecfield import VectorField, bracket


class NonClosure(Exception):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """Subspace of Q^n held as its reduced echelon basis.

    ``rows`` are the sparse RREF rows in pivot order and ``pivots`` their
    pivot columns.  The RREF of a span is unique, so equal rows mean equal
    subspaces.
    """

    def __init__(self, vecs: Iterable[dict], ambient: int):
        self._basis = EchelonBasis(vecs)
        self.ambient = ambient

    @property
    def pivots(self) -> list:
        return sorted(self._basis.rows)

    @property
    def rows(self) -> list:
        return [self._basis.rows[p] for p in self.pivots]

    @property
    def dim(self) -> int:
        return len(self._basis.rows)

    def contains(self, vec: dict) -> bool:
        return not self._basis.reduce(vec)[0]

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(map(self.contains, other.rows))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.rows == other.rows)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def coordinate_subspace(indices: Iterable[int], ambient: int) -> Subspace:
    return Subspace([{i: 1} for i in indices], ambient)


def subspace_intersection(S: Subspace, T: Subspace) -> Subspace:
    """span(S) ^ span(T): each row of T that S and the earlier rows of T
    already span contributes the S-part of its expansion."""
    if S.ambient != T.ambient:
        raise ValueError("ambient dimensions differ")
    s_basis = S.rows
    basis = EchelonBasis(s_basis, combinations=True)
    meet = []
    for row in T.rows:
        rem, expansion = basis.reduce(row)
        if rem:
            basis.insert(row)
            continue
        part: dict = {}
        for m, c in expansion.items():
            if m < len(s_basis):
                axpy(part, -c, s_basis[m])
        meet.append(part)
    return Subspace(meet, S.ambient)


# ---------------------------------------------------------------------------
# coordinatization of concrete vector fields

class _Coordinatizer:
    """Maps vector fields to exact rational vectors over a growing basis of
    (coordinate, canonical-term-signature) axes."""

    def __init__(self):
        self.index: dict = {}

    def _axis(self, coord: str, sig) -> int:
        key = (coord, sig)
        if key not in self.index:
            self.index[key] = len(self.index)
        return self.index[key]

    def decompose(self, F: VectorField) -> dict:
        """``{axis: q}`` with stored rationals ``q``, nonzero entries only."""
        out: dict = {}
        for coord, e in F.coeffs.items():
            for coef, sig in iter_terms(e):
                ax = self._axis(coord, sig)
                out[ax] = _qadd(out.get(ax, 0), coef)
        return {ax: c for ax, c in out.items() if c}


# ---------------------------------------------------------------------------
# presentations

class LieAlgebraPresentation:
    """Basis with a closed bracket table [e_i,e_j] = sum_k c^k_ij e_k.

    ``table`` maps both orders (i, j) and (j, i) of every pair with a
    nonzero bracket to its sparse row ``{k: c^k_ij}``; a pair it lacks has
    a vanishing bracket.  The input table may give each pair in either
    order.
    """

    def __init__(self, labels: Sequence[str], table: dict):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.pruned = ()
        self.table = {}
        for (i, j), coords in table.items():
            row = {k: c for k, c in coords.items() if c}
            if i != j and row:
                self.table[(i, j)] = row
                self.table[(j, i)] = {k: -c for k, c in row.items()}
        self._check_jacobi()

    def c(self, i: int, j: int) -> dict:
        """[e_i, e_j] as a sparse row; ``{}`` when the bracket vanishes."""
        return self.table.get((i, j), {})

    def bracket_coords(self, v: dict, w: dict) -> dict:
        out: dict = {}
        for i, a in v.items():
            for j, b in w.items():
                row = self.table.get((i, j))
                if row is not None:
                    axpy(out, -_qmul(a, b), row)
        return out

    def _check_jacobi(self):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    s: dict = {}
                    # [e_a, [e_b, e_c]] over the cyclic shifts, the inner
                    # bracket of basis vectors read off the table
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, x in self.c(b, c).items():
                            axpy(s, -x, self.c(a, m))
                    if s:
                        raise NonClosure(
                            f"Jacobi identity fails on ({self.labels[i]}, "
                            f"{self.labels[j]}, {self.labels[k]})", s)

    def whole(self) -> Subspace:
        return coordinate_subspace(range(self.n), self.n)


def close_or_fail(fields: Sequence[VectorField],
                  labels: Optional[Sequence[str]] = None) -> LieAlgebraPresentation:
    """Structure constants if all pairwise brackets lie in the span.

    Raises NonClosure naming the escaping bracket; linearly dependent input
    is pruned (recorded on the result as ``pruned``).  One echelon basis
    serves both: a field that reduces to zero is pruned, and a bracket that
    reduces to zero reads its structure constants off the reduction.
    """
    if labels is None:
        labels = [f"e{i + 1}" for i in range(len(fields))]
    coord = _Coordinatizer()
    basis = EchelonBasis(combinations=True)
    kept, pruned = [], []
    for lbl, F in zip(labels, fields):
        if basis.insert(coord.decompose(F)):
            kept.append((lbl, F))
        else:
            pruned.append(lbl)
    n = len(kept)

    table: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = bracket(kept[i][1], kept[j][1])
            # an axis no field has is left in the remainder
            rem, coords = basis.reduce(coord.decompose(br))
            if rem:
                raise NonClosure(
                    f"[{kept[i][0]}, {kept[j][0]}] escapes the span", br)
            table[(i, j)] = coords
    pres = LieAlgebraPresentation([lbl for lbl, _ in kept], table)
    pres.pruned = tuple(pruned)
    return pres


# ---------------------------------------------------------------------------
# structure subspaces

def product_space(A: LieAlgebraPresentation, S: Subspace, T: Subspace) -> Subspace:
    return Subspace([A.bracket_coords(v, w) for v in S.rows for w in T.rows],
                    A.n)


def derived_series(A: LieAlgebraPresentation,
                   S: Optional[Subspace] = None) -> list:
    """S, [S,S], [[S,S],[S,S]], ..., starting at all of A when S is None.

    The series ends at zero, or before the first term that is no smaller
    than the one it is taken from.
    """
    out = [A.whole() if S is None else S]
    while out[-1].dim:
        nxt = product_space(A, out[-1], out[-1])
        if nxt.dim >= out[-1].dim:
            break
        out.append(nxt)
    return out


def centralizer(A: LieAlgebraPresentation, S: Subspace) -> Subspace:
    rows = []
    for w in S.rows:
        # row k of ad(w)^T: the k-th coordinate of [e_i, w] over i
        ad: dict = {}
        for i in range(A.n):
            for k, c in A.bracket_coords({i: 1}, w).items():
                ad.setdefault(k, {})[i] = c
        rows.extend(ad.values())
    return Subspace(nullspace(rows, A.n), A.n)


def center(A: LieAlgebraPresentation) -> Subspace:
    return centralizer(A, A.whole())


def is_ideal(A: LieAlgebraPresentation, S: Subspace) -> bool:
    return S.contains_subspace(product_space(A, A.whole(), S))


def is_solvable(A: LieAlgebraPresentation, S: Subspace) -> bool:
    """The derived series of S reaches zero, and S is a subalgebra: a
    subspace whose series reaches zero may still have [S,S] outside S."""
    ds = derived_series(A, S)
    return ds[-1].dim == 0 and all(
        a.contains_subspace(b) for a, b in zip(ds, ds[1:]))


# ---------------------------------------------------------------------------
# flag-constrained automorphism solving

@dataclass
class AutomorphismFamily:
    """Solved parametric automorphism family.

    ``entries[(i,j)]`` is the matrix entry (0-based, A e_j = sum_i a_ij e_i)
    after applying all solved constraints; ``solved`` maps entry symbols to
    their forced values; ``unresolved`` lists remaining equations.
    """
    n: int
    entries: dict
    symbols: dict
    solved: dict
    unresolved: list
    invariant_coordinate_subspaces: list

    def entry(self, i: int, j: int) -> Expr:
        return self.entries[(i, j)]


def flag_automorphism_solve(A: LieAlgebraPresentation,
                            flag: Sequence[Subspace]) -> AutomorphismFamily:
    """Solve A[x,y] = [Ax,Ay] under invariance of every flag subspace.

    The flag imposes linear shape constraints; bracket preservation gives
    bilinear equations, eliminated by successive linear solves (divisions
    only by provably nonzero coefficients).  Anything left unresolved is
    returned as constraints, never guessed.
    """
    n = A.n
    if n > 6:
        raise ValueError("flag_automorphism_solve is restricted to dim <= 6")
    ch = Chart()
    full_chain = sorted(s.dim for s in flag) == list(range(1, n + 1))
    syms: dict = {}
    for i in range(n):
        for j in range(n):
            nz = full_chain and i == j
            syms[(i, j)] = ch.parameter(f"a{i + 1}{j + 1}", nonzero=nz)
    entries = {(i, j): sym(syms[(i, j)]) for i in range(n) for j in range(n)}

    eqs = []
    # flag invariance: for v in V, A v reduced modulo V must vanish
    for V in flag:
        for v in V.rows:
            img = [add_products(*[(entries[(i, j)], rat(c)) for j, c in v.items()])
                   for i in range(n)]
            for row, p in zip(V.rows, V.pivots):
                fpiv = img[p]
                for k, c in row.items():
                    img[k] = add_products((img[k],), (rat(-c), fpiv))
            eqs.extend(img)
    # bracket preservation: row r of A [e_i, e_j] - [A e_i, A e_j]
    for i in range(n):
        for j in range(i + 1, n):
            rows = [[(entries[(r, k)], rat(c)) for k, c in A.c(i, j).items()]
                    for r in range(n)]
            for p in range(n):
                for q in range(n):
                    if p == q:
                        continue
                    for r, c in A.c(p, q).items():
                        rows[r].append((rat(-c), entries[(p, i)], entries[(q, j)]))
            eqs.extend(add_products(*row) for row in rows)

    unknowns = sorted(syms.values(), key=lambda s: s.name)
    solved: dict = {}

    def apply_solved(e: Expr) -> Expr:
        for _ in range(n * n):
            e2 = substitute(e, solved)
            if e2 == e:
                return e2
            e = e2
        return e

    progress = True
    while progress:
        progress = False
        remaining = []
        for eq in eqs:
            eq = apply_solved(eq)
            if structurally_zero(eq):
                continue
            hit = None
            for v in unknowns:
                if v in solved:
                    continue
                c = diff(eq, v)
                if structurally_zero(c) or not structurally_zero(diff(c, v)):
                    continue
                if not provably_nonzero(c):
                    continue
                r = substitute(eq, {v: ZERO})
                hit = (v, mul(rat(-1), r, pow_(c, -1)))
                break
            if hit is not None:
                solved[hit[0]] = hit[1]
                progress = True
            else:
                remaining.append(eq)
        eqs = remaining

    final_entries = {k: apply_solved(v) for k, v in entries.items()}
    unresolved = [apply_solved(e) for e in eqs]
    unresolved = [e for e in unresolved if not structurally_zero(e)]

    invariant = []
    for mask in range(1, 1 << n):
        subset = [j for j in range(n) if mask >> j & 1]
        ok = all(structurally_zero(final_entries[(i, j)])
                 for j in subset for i in range(n) if i not in subset)
        if ok:
            invariant.append(tuple(j + 1 for j in subset))
    invariant.sort(key=lambda s: (len(s), s))

    return AutomorphismFamily(n=n, entries=final_entries, symbols=syms,
                              solved=solved, unresolved=unresolved,
                              invariant_coordinate_subspaces=invariant)

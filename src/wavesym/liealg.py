"""Structure analysis of finitely presented Lie algebras.

Presentations are built either from abstract structure constants or by
closing a list of concrete vector fields under the Lie bracket.  All linear
algebra is exact over Fraction.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from ._linalg import nullspace, rref, solve
from .expr import (Chart, Expr, Mul, Rat, Sym, Pow, ZERO, add, diff,
                   iter_terms, mul, pow_, rat, structurally_zero, substitute,
                   sym)
from .vecfield import VectorField, bracket


class NonClosure(Exception):
    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class NotRational(Exception):
    pass


# ---------------------------------------------------------------------------
# subspaces

class Subspace:
    """Subspace of Q^n stored in reduced row-echelon form."""

    def __init__(self, rows: Sequence[Sequence[Fraction]], ambient: int):
        red, piv = rref(rows)
        self.rows = tuple(tuple(r) for r in red)
        self.pivots = tuple(piv)
        self.ambient = ambient

    @classmethod
    def span(cls, vectors: Sequence[Sequence[Fraction]], ambient: int) -> "Subspace":
        return cls(list(vectors), ambient)

    @classmethod
    def zero(cls, ambient: int) -> "Subspace":
        return cls([], ambient)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def reduce(self, vec: Sequence[Fraction]) -> list:
        v = list(map(Fraction, vec))
        for row, p in zip(self.rows, self.pivots):
            if v[p] != 0:
                f = v[p]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return all(c == 0 for c in self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace) and self.ambient == other.ambient
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient, self.rows))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def coordinate_subspace(indices: Sequence[int], ambient: int) -> Subspace:
    rows = []
    for i in indices:
        v = [Fraction(0)] * ambient
        v[i] = Fraction(1)
        rows.append(v)
    return Subspace(rows, ambient)


def subspace_intersection(S: Subspace, T: Subspace) -> Subspace:
    """Intersection via the kernel of [S^T | -T^T]."""
    if S.ambient != T.ambient:
        raise ValueError("ambient dimensions differ")
    ns, nt = len(S.rows), len(T.rows)
    if ns == 0 or nt == 0:
        return Subspace.zero(S.ambient)
    rows = []
    for d in range(S.ambient):
        rows.append([S.rows[i][d] for i in range(ns)] +
                    [-T.rows[j][d] for j in range(nt)])
    basis = []
    for vec in nullspace(rows, ns + nt):
        basis.append([sum(vec[i] * S.rows[i][d] for i in range(ns))
                      for d in range(S.ambient)])
    return Subspace(basis, S.ambient)


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
        out: dict = {}
        for coord, e in F.coeffs.items():
            for coef, sig in iter_terms(e):
                ax = self._axis(coord, sig)
                out[ax] = out.get(ax, Fraction(0)) + coef
        return out

    def vector(self, F: VectorField, size: Optional[int] = None) -> list:
        d = self.decompose(F)
        n = size if size is not None else len(self.index)
        v = [Fraction(0)] * n
        for ax, c in d.items():
            if ax >= n:
                return v + [Fraction(1)]  # sentinel; caller treats as escape
            v[ax] = c
        return v


# ---------------------------------------------------------------------------
# presentations

class LieAlgebraPresentation:
    """Basis with a closed bracket table [e_i,e_j] = sum_k c^k_ij e_k."""

    def __init__(self, labels: Sequence[str], table: dict,
                 fields: Optional[Sequence[VectorField]] = None,
                 check: bool = True):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.table = {}
        for (i, j), coords in table.items():
            if i == j:
                continue
            if i > j:
                i, j, coords = j, i, [-c for c in coords]
            row = tuple(Fraction(c) for c in coords)
            if any(v != 0 for v in row):
                self.table[(i, j)] = row
        self.fields = tuple(fields) if fields is not None else None
        if check:
            self._check_jacobi()

    def c(self, i: int, j: int) -> tuple:
        if i == j:
            return tuple(Fraction(0) for _ in range(self.n))
        if i < j:
            return self.table.get((i, j), tuple(Fraction(0) for _ in range(self.n)))
        return tuple(-v for v in self.c(j, i))

    def bracket_coords(self, v: Sequence[Fraction], w: Sequence[Fraction]) -> list:
        out = [Fraction(0)] * self.n
        for i in range(self.n):
            if v[i] == 0:
                continue
            for j in range(self.n):
                if w[j] == 0 or i == j:
                    continue
                cij = self.c(i, j)
                f = v[i] * w[j]
                for k in range(self.n):
                    if cij[k] != 0:
                        out[k] += f * cij[k]
        return out

    def basis_vector(self, i: int) -> list:
        v = [Fraction(0)] * self.n
        v[i] = Fraction(1)
        return v

    def _check_jacobi(self):
        for i in range(self.n):
            for j in range(i + 1, self.n):
                for k in range(j + 1, self.n):
                    ei, ej, ek = (self.basis_vector(m) for m in (i, j, k))
                    s = [a + b + c for a, b, c in zip(
                        self.bracket_coords(ei, self.bracket_coords(ej, ek)),
                        self.bracket_coords(ej, self.bracket_coords(ek, ei)),
                        self.bracket_coords(ek, self.bracket_coords(ei, ej)))]
                    if any(v != 0 for v in s):
                        raise NonClosure(
                            f"Jacobi identity fails on ({self.labels[i]}, "
                            f"{self.labels[j]}, {self.labels[k]})", s)

    def whole(self) -> Subspace:
        return coordinate_subspace(range(self.n), self.n)

    # -- table I/O ("i j k c" lines, 1-based) --------------------------------
    def format_table(self) -> str:
        lines = []
        for (i, j), coords in sorted(self.table.items()):
            for k, c in enumerate(coords):
                if c != 0:
                    lines.append(f"{i + 1} {j + 1} {k + 1} {c}")
        return "\n".join(lines)

    @classmethod
    def parse_table(cls, text: str, labels: Sequence[str]) -> "LieAlgebraPresentation":
        n = len(labels)
        table: dict = {}
        for line in text.strip().splitlines():
            if not line.strip():
                continue
            i, j, k, c = line.split()
            i, j, k = int(i) - 1, int(j) - 1, int(k) - 1
            row = list(table.get((i, j), [Fraction(0)] * n))
            row[k] = Fraction(c)
            table[(i, j)] = row
        return cls(labels, table)


def close_or_fail(fields: Sequence[VectorField],
                  labels: Optional[Sequence[str]] = None) -> LieAlgebraPresentation:
    """Structure constants if all pairwise brackets lie in the span.

    Raises NonClosure naming the escaping bracket; linearly dependent input
    is pruned (recorded on the result as ``pruned``).
    """
    if labels is None:
        labels = [f"e{i + 1}" for i in range(len(fields))]
    coord = _Coordinatizer()
    decomps = [coord.decompose(F) for F in fields]
    size = len(coord.index)
    vecs = [[d.get(ax, Fraction(0)) for ax in range(size)] for d in decomps]

    kept, kept_vecs, pruned = [], [], []
    span_rows: list = []
    for lbl, F, v in zip(labels, fields, vecs):
        test = Subspace(span_rows + [v], size)
        if test.dim == len(span_rows) + 1:
            span_rows.append(v)
            kept.append((lbl, F))
            kept_vecs.append(v)
        else:
            pruned.append(lbl)
    n = len(kept)
    span = Subspace(kept_vecs, size)

    table: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            br = bracket(kept[i][1], kept[j][1])
            bd = coord.decompose(br)
            if any(ax >= size for ax in bd):
                raise NonClosure(
                    f"[{kept[i][0]}, {kept[j][0]}] escapes the span", br)
            bv = [bd.get(ax, Fraction(0)) for ax in range(size)]
            if not span.contains(bv):
                raise NonClosure(
                    f"[{kept[i][0]}, {kept[j][0]}] escapes the span", br)
            coords = solve([[kept_vecs[m][ax] for m in range(n)]
                            for ax in range(size)], bv)
            if coords is None:
                raise NonClosure(
                    f"[{kept[i][0]}, {kept[j][0]}] has no basis expansion", br)
            table[(i, j)] = coords
    pres = LieAlgebraPresentation([lbl for lbl, _ in kept], table,
                                  fields=[F for _, F in kept])
    pres.pruned = tuple(pruned)
    return pres


# ---------------------------------------------------------------------------
# structure subspaces

def product_space(A: LieAlgebraPresentation, S: Subspace, T: Subspace) -> Subspace:
    vecs = []
    for v in S.rows:
        for w in T.rows:
            vecs.append(A.bracket_coords(v, w))
    return Subspace(vecs, A.n)


def derived_series(A: LieAlgebraPresentation) -> list:
    out = [A.whole()]
    while True:
        nxt = product_space(A, out[-1], out[-1])
        if nxt.dim == out[-1].dim:
            break
        out.append(nxt)
        if nxt.dim == 0:
            break
    return out


def centralizer(A: LieAlgebraPresentation, S: Subspace) -> Subspace:
    rows = []
    for w in S.rows:
        cols = [A.bracket_coords(A.basis_vector(i), list(w)) for i in range(A.n)]
        for k in range(A.n):
            rows.append([cols[i][k] for i in range(A.n)])
    basis = nullspace(rows, A.n)
    return Subspace(basis, A.n)


def center(A: LieAlgebraPresentation) -> Subspace:
    return centralizer(A, A.whole())


def is_ideal(A: LieAlgebraPresentation, S: Subspace) -> bool:
    return S.contains_subspace(product_space(A, A.whole(), S))


def is_solvable(A: LieAlgebraPresentation, S: Optional[Subspace] = None) -> bool:
    cur = S if S is not None else A.whole()
    while True:
        nxt = product_space(A, cur, cur)
        if not cur.contains_subspace(nxt):
            return False
        if nxt.dim == 0:
            return True
        if nxt.dim == cur.dim:
            return False
        cur = nxt


def killing_form(A: LieAlgebraPresentation) -> list:
    ad = []
    for i in range(A.n):
        ad.append([A.bracket_coords(A.basis_vector(i), A.basis_vector(j))
                   for j in range(A.n)])  # ad[i][j] = coords of [e_i, e_j]
    K = [[Fraction(0)] * A.n for _ in range(A.n)]
    for i in range(A.n):
        for j in range(A.n):
            s = Fraction(0)
            for k in range(A.n):
                for l in range(A.n):
                    s += ad[i][k][l] * ad[j][l][k]
            K[i][j] = s
    return K


def radical(A: LieAlgebraPresentation) -> Subspace:
    """Maximal solvable ideal via Cartan's criterion:
    rad = {x : K(x, y) = 0 for all y in [A,A]}; verified post hoc."""
    K = killing_form(A)
    derived = product_space(A, A.whole(), A.whole())
    rows = []
    for y in derived.rows:
        rows.append([sum(K[i][j] * y[j] for j in range(A.n)) for i in range(A.n)])
    R = Subspace(nullspace(rows, A.n) if rows else
                 [A.basis_vector(i) for i in range(A.n)], A.n)
    if not is_ideal(A, R) or not is_solvable(A, R):
        raise NotRational(
            "radical post-check failed (parameterized table?); refuse")
    return R


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


def provably_nonzero(e: Expr) -> bool:
    if isinstance(e, Rat):
        return e.q != 0
    if isinstance(e, Sym):
        return e.s.nonzero or e.s.positive
    if isinstance(e, Pow):
        return provably_nonzero(e.base)
    if isinstance(e, Mul):
        return e.coef != 0 and all(provably_nonzero(f) for f in e.factors)
    return False


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
            img = [add(*[mul(entries[(i, j)], rat(v[j])) for j in range(n)])
                   for i in range(n)]
            img_red = list(img)
            for row, p in zip(V.rows, V.pivots):
                fpiv = img_red[p]
                img_red = [add(c, mul(rat(-1), fpiv, rat(row[k])))
                           for k, c in enumerate(img_red)]
            eqs.extend(img_red)
    # bracket preservation
    for i in range(n):
        for j in range(i + 1, n):
            cij = A.c(i, j)
            lhs = [add(*[mul(entries[(r, k)], rat(cij[k])) for k in range(n)])
                   for r in range(n)]
            rhs = [ZERO] * n
            for p in range(n):
                for q in range(n):
                    if p == q:
                        continue
                    cpq = A.c(p, q)
                    coefpq = mul(entries[(p, i)], entries[(q, j)])
                    for r in range(n):
                        if cpq[r] != 0:
                            rhs[r] = add(rhs[r], mul(coefpq, rat(cpq[r])))
            for r in range(n):
                eqs.append(add(lhs[r], mul(rat(-1), rhs[r])))

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

"""Lie algebra structure analysis on exact rational presentations.

Vectors and table rows are sparse ``{index: Fraction}`` maps; the sympy
oracles work on dense matrices, densified here."""
import random
from dataclasses import replace
from fractions import Fraction

import pytest
import sympy

from wavesym.charts import BASE_COORDS
from wavesym.equivalence import EquivalenceAlgebra, Gen
from wavesym.expr import add, equal, mul, rat, structurally_zero, sym
from wavesym.liealg import (LieAlgebraPresentation, NonClosure, Subspace,
                            _Coordinatizer, center, centralizer, close_or_fail,
                            coordinate_subspace, derived_series,
                            flag_automorphism_solve, is_ideal, is_solvable,
                            subspace_intersection)
from wavesym.parse import parse
from wavesym.vecfield import bracket, vf


@pytest.fixture(scope="module")
def m():
    ea = EquivalenceAlgebra()
    fields = [ea.field(Gen("G", rat(1))), ea.field(Gen("F1")),
              ea.field(Gen("F2")), ea.field(Gen("Pt")), ea.field(Gen("Dt"))]
    return close_or_fail(fields, labels=["G1", "F1", "F2", "Pt", "Dt"])


def test_close_nilpotent_piece():
    ea = EquivalenceAlgebra()
    pres = close_or_fail([ea.field(Gen("Pt")), ea.field(Gen("F1")),
                          ea.field(Gen("G", rat(1)))],
                         labels=["Pt", "F1", "G1"])
    # [Pt, F1] = G(1), everything else zero
    assert pres.table == {(0, 1): {2: 1}, (1, 0): {2: -1}}


def test_close_kernel_heisenberg(ch):
    k = [vf(ch, BASE_COORDS, t=rat(1)), vf(ch, BASE_COORDS, u=rat(1)),
         vf(ch, BASE_COORDS, u=sym(ch.get("t")))]
    H = close_or_fail(k, labels=["Pt", "Pu", "tPu"])
    assert H.table == {(0, 2): {1: 1}, (2, 0): {1: -1}}
    assert is_solvable(H, H.whole())


def test_close_abelian_projections(ch):
    A = close_or_fail([vf(ch, BASE_COORDS, t=sym(ch.get("t"))),
                       vf(ch, BASE_COORDS, x=rat(1))])
    assert not A.table
    assert center(A) == A.whole()


def test_close_failure_witness(ch):
    fields = [vf(ch, BASE_COORDS, t=rat(1)), vf(ch, BASE_COORDS, t=parse("t^2", ch))]
    with pytest.raises(NonClosure, match=r"^\[e1, e2\] escapes the span$") as exc:
        close_or_fail(fields)
    assert exc.value.witness.coeffs == bracket(*fields).coeffs


def test_dependent_input_pruned(ch):
    A = close_or_fail([vf(ch, BASE_COORDS, t=rat(1)),
                       vf(ch, BASE_COORDS, t=rat(2))])
    assert A.n == 1 and A.pruned
    # a presentation from structure constants has pruned nothing
    assert LieAlgebraPresentation(["a", "b"], {}).pruned == ()


def test_megaideal_chain(m):
    ds = derived_series(m)
    assert [s.dim for s in ds] == [5, 4, 2, 0]
    assert ds[1] == coordinate_subspace([0, 1, 2, 3], 5)
    assert ds[2] == coordinate_subspace([0, 1], 5)
    assert center(m) == coordinate_subspace([0], 5)
    assert centralizer(m, ds[2]) == coordinate_subspace([0, 1, 2], 5)


def test_solvable_cases(m):
    assert is_solvable(m, m.whole())
    sl2 = LieAlgebraPresentation(
        ["h", "e", "f"], {(0, 1): {1: 2}, (0, 2): {2: -2}, (1, 2): {0: 1}})
    assert not is_solvable(sl2, sl2.whole())
    # span(e, f): its derived series <e,f> > <h> > 0 reaches zero, but
    # [S, S] = <h> leaves S, so S is no subalgebra
    S = coordinate_subspace([1, 2], 3)
    assert [T.dim for T in derived_series(sl2, S)] == [2, 1, 0]
    assert not is_solvable(sl2, S)
    assert is_solvable(sl2, coordinate_subspace([0, 1], 3))


def test_derived_series_strictly_decreases(m):
    ds = derived_series(m)
    assert all(a.dim > b.dim for a, b in zip(ds, ds[1:]))


def test_returned_ideals_are_ideals(m):
    for S in derived_series(m)[1:]:
        assert is_ideal(m, S)
    assert is_ideal(m, center(m))


def test_centralizer_correctness(m):
    S = derived_series(m)[2]
    C = centralizer(m, S)
    for v in C.rows:
        for w in S.rows:
            assert m.bracket_coords(v, w) == {}


def test_flag_automorphism_solve(m):
    flag = [coordinate_subspace(list(range(k)), 5) for k in (1, 2, 3, 4, 5)]
    fam = flag_automorphism_solve(m, flag)
    names = {s.name: sym(s) for s in fam.symbols.values()}
    assert equal(fam.entry(4, 4), rat(1))               # a55 = 1
    assert structurally_zero(fam.entry(2, 3))           # a34 = 0
    assert equal(fam.entry(1, 3), mul(names["a44"], names["a35"]))
    assert equal(fam.entry(0, 3),
                 add(mul(names["a44"], names["a25"]),
                     mul(rat(-1), names["a45"], fam.entry(1, 3))))
    assert not fam.unresolved
    assert (1, 2, 4) in fam.invariant_coordinate_subspaces  # <G(1),F1,Pt>
    # the flag members themselves stay invariant
    for k in (1, 2, 3, 4):
        assert tuple(range(1, k + 1)) in fam.invariant_coordinate_subspaces


def test_automorphism_numeric_check_bites(m):
    """The numeric check passes the solved family and fails it once a single
    entry is perturbed: a forced zero, or the last diagonal entry."""
    from wavesym.classif import _automorphism_numeric_check
    flag = [coordinate_subspace(list(range(k)), 5) for k in (1, 2, 3, 4, 5)]
    fam = flag_automorphism_solve(m, flag)
    assert _automorphism_numeric_check(m, fam, seed=7, trials=20)
    for i, j in ((2, 3), (4, 4)):
        entries = dict(fam.entries)
        entries[(i, j)] = add(entries[(i, j)], rat(1))
        bad = replace(fam, entries=entries)
        assert not _automorphism_numeric_check(m, bad, seed=7, trials=20)


def test_flag_identity_on_abelian(ch):
    A = close_or_fail([vf(ch, BASE_COORDS, t=sym(ch.get("t"))),
                       vf(ch, BASE_COORDS, x=rat(1))])
    fam = flag_automorphism_solve(A, [A.whole()])
    assert not fam.solved and not fam.unresolved


def test_subspace_from_int_and_zero_entries():
    """Int entries and explicit zeros go in; the rows hold only nonzero
    Fractions, in pivot order, and equal spans give equal subspaces."""
    S = Subspace([{0: 0, 1: 2, 2: 4}, {0: 3, 1: 0, 2: 0}, {0: 0, 2: 0}], 3)
    assert S.pivots == [0, 1]
    assert S.rows == [{0: 1}, {1: 1, 2: 2}]
    assert all(type(v) is Fraction and v != 0 for row in S.rows
               for v in row.values())
    T = Subspace([{0: Fraction(1, 2), 1: Fraction(1, 3), 2: Fraction(2, 3)},
                  {1: Fraction(-1), 2: Fraction(-2)}], 3)
    assert S == T and T == S
    assert S != Subspace([{0: 1}, {1: 1}], 3)
    assert S != Subspace([{0: 1}, {1: 1, 2: 2}], 4)
    assert S.contains({0: 5, 1: 1, 2: 2, 3: 0}) and not S.contains({2: 1})


def test_subspace_intersection():
    S = Subspace([{0: 1}, {1: 1}], 3)
    T = Subspace([{1: 1}, {2: 1}], 3)
    I = subspace_intersection(S, T)
    assert I == Subspace([{1: 1}], 3)


def test_jacobi_validated():
    # [a,b] = c, [b,c] = b, [a,c] = 0 violates Jacobi: J(a,b,c) = c
    with pytest.raises(NonClosure):
        LieAlgebraPresentation(
            ["a", "b", "c"],
            {(0, 1): {2: 1}, (1, 2): {1: 1}})


def test_jacobi_validated_through_reversed_pair():
    # [a,b] = c, [a,c] = a: J(a,b,c) = [b,[c,a]] = [b,-a] = c, read off the
    # table only through the reversed pairs (c,a) and (b,a)
    with pytest.raises(NonClosure, match=r"\(a, b, c\)"):
        LieAlgebraPresentation(
            ["a", "b", "c"],
            {(0, 1): {2: 1}, (0, 2): {0: 1}})


# ---------------------------------------------------------------------------
# close_or_fail against a sympy oracle on the coordinatized fields

def _sympy(q: Fraction):
    return sympy.Rational(q.numerator, q.denominator)


def _columns(vecs, size):
    """The sympy matrix whose columns are the sparse vectors ``vecs``."""
    return sympy.Matrix(size, len(vecs),
                        lambda ax, m: _sympy(vecs[m].get(ax, Fraction(0))))


def _assert_closure_matches_oracle(fields, labels):
    """Kept and pruned labels follow the rank increments in input order; an
    escaping bracket raises NonClosure naming the first escaping pair; every
    table row solves kept_matrix * c = bracket_vector exactly."""
    coordz = _Coordinatizer()
    decs = [coordz.decompose(F) for F in fields]
    kept, pruned, cols = [], [], []
    for lbl, F, d in zip(labels, fields, decs):
        if _columns(cols + [d], len(coordz.index)).rank() == len(cols) + 1:
            kept.append((lbl, F))
            cols.append(d)
        else:
            pruned.append(lbl)
    brackets, escape = {}, None
    for i in range(len(kept)):
        for j in range(i + 1, len(kept)):
            br = bracket(kept[i][1], kept[j][1])
            b = coordz.decompose(br)
            size = len(coordz.index)
            if _columns(cols + [b], size).rank() > len(cols):
                escape = (f"[{kept[i][0]}, {kept[j][0]}] escapes the span", br)
                break
            brackets[(i, j)] = (_columns([b], size), size)
        if escape:
            break
    if escape:
        with pytest.raises(NonClosure) as exc:
            close_or_fail(fields, labels=labels)
        assert str(exc.value) == escape[0]
        assert exc.value.witness.coeffs == escape[1].coeffs
        return False
    pres = close_or_fail(fields, labels=labels)
    assert list(pres.labels) == [lbl for lbl, _ in kept]
    assert list(pres.pruned) == pruned
    for (i, j), (bv, size) in brackets.items():
        c = pres.c(i, j)
        assert all(type(v) is Fraction and v != 0 for v in c.values())
        assert _columns(cols, size) * _columns([c], pres.n) == bv
    return True


def test_close_matches_oracle_on_catalog(spec, ch):
    from wavesym.classif import _kernel_extension, builtin_catalog
    closed = 0
    for case in builtin_catalog():
        fields = _kernel_extension(ch, case.parsed(spec)[2],
                                   (case.samples or ({},))[0])
        closed += _assert_closure_matches_oracle(
            fields, [f"e{i + 1}" for i in range(len(fields))])
    assert closed == 32


def test_close_matches_oracle_on_subalgebra_lists():
    from wavesym.classif import _subalgebra_list_items
    items = _subalgebra_list_items(EquivalenceAlgebra())
    assert len(items) == 23
    for _, fields in items:
        assert _assert_closure_matches_oracle(
            fields, [f"e{i + 1}" for i in range(len(fields))])


def test_close_matches_oracle_on_random_spans(ch):
    """Seeded spans of base-chart fields, polynomial in (t, x, u), with
    duplicates, scalar multiples and sums of earlier fields mixed in."""
    t, x, u = (sym(ch.get(n)) for n in ("t", "x", "u"))
    gens = [{"t": rat(1)}, {"t": t}, {"t": mul(t, t)}, {"x": rat(1)},
            {"x": x}, {"u": rat(1)}, {"u": u}, {"u": t}, {"u": x},
            {"t": x}, {"u": mul(t, t)}]
    rng = random.Random(47)
    coefs = [Fraction(c) for c in (-2, -1, 1, 2, 3)] + [Fraction(1, 2)]

    def combo():
        out = vf(ch, BASE_COORDS, **rng.choice(gens))
        for _ in range(rng.randrange(2)):
            out = out + vf(ch, BASE_COORDS, **rng.choice(gens)).scale(rng.choice(coefs))
        return out

    outcomes = set()
    for _ in range(40):
        fields = [combo() for _ in range(rng.randint(2, 4))]
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                extra = rng.choice(fields)
            elif kind == 1:
                extra = rng.choice(fields).scale(rng.choice(coefs))
            else:
                extra = rng.choice(fields) + rng.choice(fields)
            fields.insert(rng.randint(1, len(fields)), extra)
        outcomes.add(_assert_closure_matches_oracle(
            fields, [f"v{i}" for i in range(len(fields))]))
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# sparse structure constants against a dense reference

@pytest.fixture(scope="module")
def g11():
    from wavesym.classif import G11_LABELS, _g11_fields
    return close_or_fail(_g11_fields(EquivalenceAlgebra()), labels=G11_LABELS)


def _dense(vec, n):
    return [vec.get(k, Fraction(0)) for k in range(n)]


def _dense_rows(S):
    return tuple(tuple(_dense(row, S.ambient)) for row in S.rows)


def _unit(i, n):
    return [Fraction(int(i == j)) for j in range(n)]


def _dense_bracket(A, v, w):
    """sum_ijk v_i w_j c^k_ij e_k on dense vectors, c read off the public
    table for i < j only and extended by antisymmetry."""
    def c(i, j):
        if i < j:
            return _dense(A.table.get((i, j), {}), A.n)
        if i > j:
            return [-a for a in c(j, i)]
        return [0] * A.n
    out = [Fraction(0)] * A.n
    for i in range(A.n):
        for j in range(A.n):
            cij = c(i, j)
            for k in range(A.n):
                out[k] += v[i] * w[j] * cij[k]
    return out


@pytest.mark.parametrize("name", ["m", "g11"])
def test_bracket_coords_matches_dense(name, request):
    A = request.getfixturevalue(name)
    assert A.n == {"m": 5, "g11": 11}[name] and not A.pruned
    rng = random.Random(61)

    def vec():
        return [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                if rng.random() < 0.5 else Fraction(0) for _ in range(A.n)]
    def sparse(v):
        return {k: x for k, x in enumerate(v) if x}
    for _ in range(60):
        v, w = vec(), vec()
        out = A.bracket_coords(sparse(v), sparse(w))
        assert all(x != 0 for x in out.values())
        assert _dense(out, A.n) == _dense_bracket(A, v, w)
    for i in range(A.n):
        for j in range(A.n):
            assert _dense(A.c(i, j), A.n) == \
                _dense_bracket(A, _unit(i, A.n), _unit(j, A.n))


def test_absent_bracket_is_empty(m):
    """c is {} for every vanishing pair, the diagonal included; the table
    holds both orders of every other pair, with no zero entry."""
    pairs = [(i, j) for i in range(m.n) for j in range(m.n)]
    absent = [(i, j) for i, j in pairs if (i, j) not in m.table]
    assert len(absent) > m.n
    assert all(m.c(i, j) == {} for i, j in absent)
    for i, j in pairs:
        assert ((i, j) in m.table) == ((j, i) in m.table)
        assert all(x != 0 for x in m.c(i, j).values())
        assert m.c(j, i) == {k: -x for k, x in m.c(i, j).items()}


# ---------------------------------------------------------------------------
# subspace operations against a sympy oracle

def _oracle_rows(vectors, n):
    """The reduced row-echelon rows of span(vectors) in Q^n, by sympy."""
    if not vectors:
        return ()
    R, piv = sympy.Matrix([[_sympy(Fraction(v)) for v in row]
                           for row in vectors]).rref()
    return tuple(tuple(Fraction(int(R[i, j].p), int(R[i, j].q))
                       for j in range(n)) for i in range(len(piv)))


def _oracle_intersection(S, T):
    """span(S) ^ span(T) from the sympy null space of [S^T | -T^T]."""
    if not S.rows or not T.rows:
        return ()
    A = sympy.Matrix([[_sympy(v) for v in row] for row in _dense_rows(S)]).T
    B = sympy.Matrix([[_sympy(v) for v in row] for row in _dense_rows(T)]).T
    vecs = [list(A * z[:S.dim, :]) for z in A.row_join(-B).nullspace()]
    return _oracle_rows(vecs, S.ambient)


def _oracle_centralizer(A, S):
    """{v : [v, w] = 0 for w in S}, the bracket read off the public table."""
    n = A.n
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for (i, j), row in A.table.items():
        if i < j:
            c[i][j] = _dense(row, n)
            c[j][i] = [-v for v in c[i][j]]
    # row k of the block for w: v -> [v, w]_k = sum_i v_i sum_j w_j c_ij^k
    rows = [[_sympy(sum(w[j] * c[i][j][k] for j in range(n))) for i in range(n)]
            for w in _dense_rows(S) for k in range(n)]
    if not rows:
        return _oracle_rows([_unit(i, n) for i in range(n)], n)
    return _oracle_rows([list(z) for z in sympy.Matrix(rows).nullspace()], n)


def _random_span(rng, n, shared=()):
    """A few seeded rational vectors of Q^n, some of them shared with another
    span or combined from earlier ones, so that spans meet and repeat."""
    def vec():
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                if rng.random() < 0.6 else Fraction(0) for _ in range(n)]
    out = [list(v) for v in shared if rng.random() < 0.7]
    for _ in range(rng.randint(0, n)):
        out.append(vec())
    if len(out) >= 2 and rng.random() < 0.5:
        a, b = rng.sample(out, 2)
        out.append([x + rng.randint(-2, 2) * y for x, y in zip(a, b)])
    rng.shuffle(out)
    return Subspace([dict(enumerate(v)) for v in out], n)


def test_subspace_intersection_matches_oracle():
    rng = random.Random(83)
    dims = []
    for _ in range(150):
        n = rng.randint(1, 7)
        shared = [[Fraction(rng.randint(-3, 3)) for _ in range(n)]
                  for _ in range(rng.randint(0, 2))]
        S, T = _random_span(rng, n, shared), _random_span(rng, n, shared)
        got = subspace_intersection(S, T)
        assert _dense_rows(got) == _oracle_intersection(S, T)
        assert subspace_intersection(T, S) == got
        stacked = Subspace(list(S.rows) + list(T.rows), n)
        assert got.dim == S.dim + T.dim - stacked.dim
        dims.append((got.dim, min(S.dim, T.dim)))
    # trivial, proper and whole intersections all occur
    assert any(d == 0 < m for d, m in dims)
    assert any(0 < d < m for d, m in dims)
    assert any(0 < d == m for d, m in dims)


@pytest.mark.parametrize("name", ["m", "g11"])
def test_centralizer_and_center_match_oracle(name, request):
    A = request.getfixturevalue(name)
    rng = random.Random(89)
    assert _dense_rows(center(A)) == _oracle_centralizer(A, A.whole())
    spans = [_random_span(rng, A.n) for _ in range(25)]
    spans += [coordinate_subspace(rng.sample(range(A.n), k), A.n)
              for k in range(A.n + 1)]
    for S in spans:
        C = centralizer(A, S)
        assert _dense_rows(C) == _oracle_centralizer(A, S)
        # inside a subalgebra h: C_h(S) = C(S) ^ h, checked against the oracle
        H = Subspace(list(S.rows) + list(C.rows), A.n)
        assert _dense_rows(subspace_intersection(C, H)) == \
            _oracle_intersection(C, H)


def test_megaideal_spans_against_oracle(g11):
    """The four relative centralizers of the megaideal chain, as the campaign
    computes them, equal the sympy centralizers restricted to each subspace."""
    idx = {lbl: i for i, lbl in enumerate(g11.labels)}

    def span(*names):
        return coordinate_subspace([idx[s] for s in names], g11.n)

    g1 = span("Pt", "F1", "F2", "D1", "Dx", "G1", "Gx", "Gx2", "Gx3")
    g2 = span("D1", "Dx", "G1", "Gx", "Gx2", "Gx3", "F1")
    g3 = span("D1", "Dx", "G1", "Gx", "Gx2", "Gx3")
    for S, h, want in ((g3, g1, span("Pt", "G1", "F1", "F2")),
                       (g2, g1, span("G1", "F1", "F2")),
                       (g2, g2, span("G1", "F1")),
                       (g1, g1, span("G1"))):
        got = subspace_intersection(centralizer(g11, S), h)
        assert got == want
        oracle_c = [dict(enumerate(r)) for r in _oracle_centralizer(g11, S)]
        assert _dense_rows(got) == _oracle_intersection(
            Subspace(oracle_c, g11.n), h)

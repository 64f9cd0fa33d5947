"""Exact linear algebra (`_linalg`) against an independent oracle: sympy's
exact rational row reduction.  sympy is used by the tests only.  The test
matrices are dense lists; they go in as sparse maps with their zero entries
kept, and results are densified here for the comparison.  Every entry that
`_linalg` stores is a stored rational: an ``int`` when integral, else a
``Fraction``, and never zero."""
import random
from fractions import Fraction

import pytest
import sympy

from wavesym import _linalg, detsys, liealg
from wavesym._linalg import EchelonBasis, nullspace
from wavesym.classif import SECTIONS, run_campaign
from wavesym.expr import _qinv
from wavesym.report import PASS

SHAPES = [(12, 5), (5, 12), (8, 8), (40, 20), (3, 20), (20, 3)]


def _oracle(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(v.numerator, v.denominator)
                         for r in rows for v in map(Fraction, r)])


def _frac(v) -> Fraction:
    v = sympy.Rational(v)
    return Fraction(int(v.p), int(v.q))


def _sparse(rows):
    return [dict(enumerate(r)) for r in rows]


def _dense(vec, ncols):
    return [vec.get(j, Fraction(0)) for j in range(ncols)]


def _rref(rows, ncols):
    """The rows of an EchelonBasis sorted by pivot, dense, and the pivots."""
    red = EchelonBasis(_sparse(rows)).rows
    pivots = sorted(red)
    return [_dense(red[p], ncols) for p in pivots], pivots


def _stored(v) -> bool:
    """``v`` is a nonzero stored rational: an ``int``, or a ``Fraction``
    that is not integral."""
    return (type(v) is int or type(v) is Fraction and v.denominator > 1) and v != 0


def _stored_exactly(vecs):
    """Every stored entry is a nonzero stored rational."""
    return all(_stored(v) for vec in vecs for v in vec.values())


def _oracle_rref(rows, ncols):
    red, pivots = _oracle(rows, ncols).rref()
    return ([[_frac(red[i, j]) for j in range(ncols)]
             for i in range(len(pivots))], list(pivots))


def _random_matrix(rng, nrows, ncols, density):
    """Sparse rational entries with small denominators, as in the ansatz
    systems; some rows repeated or combined, so rank deficiency is common."""
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.2:
            a, b = rng.choice(rows), rng.choice(rows)
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            rows.append([x + c * y for x, y in zip(a, b)])
        elif rows and rng.random() < 0.1:
            rows.append(list(rng.choice(rows)))
        else:
            rows.append([Fraction(rng.choice([-6, -2, -1, 1, 1, 2, 3, 6]),
                                  rng.randint(1, 6))
                         if rng.random() < density else Fraction(0)
                         for _ in range(ncols)])
    return rows


def _cases():
    rng = random.Random(31)
    for nrows, ncols in SHAPES:
        for density in (0.1, 0.3, 0.6):
            for _ in range(4):
                yield _random_matrix(rng, nrows, ncols, density), ncols


EDGE = {
    "all zero rows": ([[0, 0, 0], [0, 0, 0]], 3),
    "zero rows between": ([[0, 0, 0, 0], [1, 2, 0, 3], [0, 0, 0, 0],
                           [0, 0, 5, 1]], 4),
    "duplicate rows": ([[1, 2, 3], [1, 2, 3], [1, 2, 3]], 3),
    "rank deficient": ([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0],
                        [1, 3, 4, 4]], 4),
    "full rank": ([[0, 1], [1, 0]], 2),
    "single column": ([[0], [Fraction(2, 3)], [1]], 1),
}


@pytest.mark.parametrize("name", sorted(EDGE))
def test_rref_edge_cases_match_oracle(name):
    rows, ncols = EDGE[name]
    assert _rref(rows, ncols) == _oracle_rref(rows, ncols)


def test_empty_matrix():
    assert EchelonBasis().rows == {}
    assert nullspace([], 3) == [{0: 1}, {1: 1}, {2: 1}]
    assert nullspace([{0: 0, 1: 0, 2: 0}], 3) == nullspace([], 3)


def test_rref_random_matches_oracle():
    n = 0
    for rows, ncols in _cases():
        assert _rref(rows, ncols) == _oracle_rref(rows, ncols)
        assert _stored_exactly(EchelonBasis(_sparse(rows)).rows.values())
        n += 1
    assert n == len(SHAPES) * 3 * 4


def test_nullspace_random_matches_oracle():
    for rows, ncols in _cases():
        basis = nullspace(_sparse(rows), ncols)
        expected = [[_frac(v) for v in vec]
                    for vec in _oracle(rows, ncols).nullspace()]
        assert [_dense(vec, ncols) for vec in basis] == expected
        assert _stored_exactly(basis)
        for vec in basis:
            assert all(sum(r[j] * c for j, c in vec.items()) == 0 for r in rows)


def test_int_rows_give_stored_rational_entries():
    """Rows of ints, as the ansatz solver's coefficients often are, come back
    as stored rationals: ``int`` where a pivot division is integral, else a
    ``Fraction``."""
    for rows, ncols in ([[2, 4, 6], [1, 3, 2]], 3), ([[3, 1], [6, 2]], 2):
        red = EchelonBasis(_sparse(rows)).rows
        basis = nullspace(_sparse(rows), ncols)
        assert red and basis
        assert _stored_exactly(list(red.values()) + basis)
    assert EchelonBasis([{0: 2, 1: 4, 2: 6}]).rows == {0: {0: 1, 1: 2, 2: 3}}
    assert type(nullspace([{0: 3, 1: 1}], 2)[0][0]) is Fraction


def test_echelon_basis_normalizes_input():
    """Int entries and explicit zeros go in; only nonzero stored rationals
    are stored, each pivot is 1, and the remainder of a vector in the span is
    empty whatever zeros it carries."""
    basis = EchelonBasis([{0: 0, 1: 2, 2: 3}, {0: 0, 1: 0, 2: 0},
                          {0: 3, 1: 0, 2: 1}])
    assert basis.rows == {0: {0: 1, 2: Fraction(1, 3)},
                          1: {1: 1, 2: Fraction(3, 2)}}
    assert _stored_exactly(basis.rows.values())
    assert basis.kept == 2
    assert basis.reduce({0: 3, 1: 2, 2: 4, 3: 0}) == ({}, None)
    rem, _ = basis.reduce({0: 0, 2: 5})
    assert rem == {2: 5}
    assert not basis.insert({0: 6, 1: 0, 2: 2})
    assert basis.insert({2: 7, 4: 0}) and basis.rows[2] == {2: 1}
    assert _stored_exactly(basis.rows.values())


def _combination(coeffs, vecs, ncols):
    """sum_m coeffs[m] * vecs[m], dense."""
    return [sum((c * vecs[m].get(j, 0) for m, c in coeffs.items()), Fraction(0))
            for j in range(ncols)]


def test_echelon_basis_rows_and_combinations():
    """Inserted one at a time, the rows sorted by pivot are sympy's RREF;
    each row equals its combination of the kept inputs, and each pruned
    vector's expansion over the kept inputs gives the vector back."""
    n_pruned = 0
    for rows, ncols in _cases():
        basis = EchelonBasis(combinations=True)
        kept, pruned = [], []
        for vec in _sparse(rows):
            (kept if basis.insert(vec) else pruned).append(vec)
        pivots = sorted(basis.rows)
        assert ([_dense(basis.rows[p], ncols) for p in pivots], pivots) == \
            _oracle_rref(rows, ncols)
        assert basis.kept == len(kept) == len(basis.rows)
        assert _stored_exactly(basis.rows.values())
        assert _stored_exactly(basis.combs.values())
        for p, row in basis.rows.items():
            assert _combination(basis.combs[p], kept, ncols) == \
                _dense(row, ncols)
        for vec in pruned:
            rem, expansion = basis.reduce(vec)
            assert rem == {} and _stored_exactly([expansion])
            assert _combination(expansion, kept, ncols) == \
                _dense(vec, ncols)
        n_pruned += len(pruned)
    assert n_pruned > 100


@pytest.mark.parametrize("a", [1, -1, 3, -3, Fraction(1, 3), Fraction(-1, 3),
                               Fraction(2, 3), Fraction(-7, 4), Fraction(1),
                               Fraction(-6)])
def test_pivot_inverse(a):
    """``_qinv`` of ±1, ±k, ±1/k and p/q (and of an input ``Fraction`` with
    denominator 1) is ``1/a`` as a stored rational: a unit or ``1/k`` pivot
    inverts to an ``int``."""
    inv = _qinv(a)
    assert inv == 1 / Fraction(a) and _stored(inv)
    assert type(inv) is (int if Fraction(a).numerator in (1, -1) else Fraction)


def test_nullspace_matches_oracle_on_campaign_systems(monkeypatch):
    """Every null space a serial campaign (seed 0) takes: the 71 ansatz
    systems of the table and special rows and the centralizer systems of the
    algebra sections, each against sympy's nullspace."""
    def recorder(seen):
        def recording(vecs, ncols):
            vecs = list(vecs)
            seen.append((vecs, ncols))
            return real(vecs, ncols)
        return recording

    real = _linalg.nullspace
    ansatz, centralizers = [], []
    monkeypatch.setattr(detsys, "nullspace", recorder(ansatz))
    monkeypatch.setattr(liealg, "nullspace", recorder(centralizers))
    assert run_campaign(SECTIONS, seed=0).status == PASS
    assert (len(ansatz), len(centralizers)) == (71, 5)
    for vecs, ncols in ansatz + centralizers:
        rows = [_dense(v, ncols) for v in vecs]
        basis = nullspace(vecs, ncols)
        expected = [[_frac(v) for v in vec]
                    for vec in _oracle(rows, ncols).nullspace()]
        assert [_dense(vec, ncols) for vec in basis] == expected
        assert _stored_exactly(basis)

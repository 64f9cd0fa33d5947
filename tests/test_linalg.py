"""Exact linear algebra (`_linalg`) against an independent oracle: sympy's
exact rational row reduction.  sympy is used by the tests only."""
import random
from fractions import Fraction

import pytest
import sympy

from wavesym._linalg import EchelonBasis, nullspace, rref, sparse

SHAPES = [(12, 5), (5, 12), (8, 8), (40, 20), (3, 20), (20, 3)]


def _oracle(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(v.numerator, v.denominator)
                         for r in rows for v in map(Fraction, r)])


def _frac(v) -> Fraction:
    v = sympy.Rational(v)
    return Fraction(int(v.p), int(v.q))


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
    assert rref(rows) == _oracle_rref(rows, ncols)


def test_empty_matrix():
    assert rref([]) == ([], [])
    assert nullspace([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert nullspace([[0, 0, 0]], 3) == nullspace([], 3)


def test_rref_random_matches_oracle():
    n = 0
    for rows, ncols in _cases():
        red, pivots = rref(rows)
        assert (red, pivots) == _oracle_rref(rows, ncols)
        assert all(isinstance(v, Fraction) for r in red for v in r)
        n += 1
    assert n == len(SHAPES) * 3 * 4


def test_nullspace_random_matches_oracle():
    for rows, ncols in _cases():
        basis = nullspace(rows, ncols)
        expected = [[_frac(v) for v in vec]
                    for vec in _oracle(rows, ncols).nullspace()]
        assert basis == expected
        for vec in basis:
            assert all(sum(a * b for a, b in zip(r, vec)) == 0 for r in rows)


def test_int_rows_give_fraction_entries():
    """Rows of ints, as the ansatz solver's coefficients often are, come back
    as exact Fraction entries, also where a pivot division is not integral."""
    for rows, ncols in ([[2, 4, 6], [1, 3, 2]], 3), ([[3, 1], [6, 2]], 2):
        red, _ = rref(rows)
        basis = nullspace(rows, ncols)
        assert red and basis
        assert all(type(v) is Fraction for r in red + basis for v in r)


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
        for row in rows:
            vec = sparse(row)
            (kept if basis.insert(vec) else pruned).append(vec)
        assert basis.dense(ncols) == _oracle_rref(rows, ncols)
        assert basis.kept == len(kept) == len(basis.rows)
        for p, row in basis.rows.items():
            assert _combination(basis.combs[p], kept, ncols) == \
                [row.get(j, 0) for j in range(ncols)]
        for vec in pruned:
            rem, expansion = basis.reduce(vec)
            assert rem == {}
            assert _combination(expansion, kept, ncols) == \
                [vec.get(j, 0) for j in range(ncols)]
        n_pruned += len(pruned)
    assert n_pruned > 100

"""Exact linear algebra (`_linalg`) against an independent oracle: sympy's
exact rational row reduction.  sympy is used by the tests only."""
import random
from fractions import Fraction

import pytest
import sympy

from wavesym._linalg import nullspace, rref, solve

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


def test_solve_random_matches_oracle():
    rng = random.Random(32)
    consistent = inconsistent = 0
    for rows, ncols in _cases():
        A = _oracle(rows, ncols)
        if rng.random() < 0.5:
            # b in the column space: A times a random vector
            y = [Fraction(rng.randint(-4, 4), rng.randint(1, 4))
                 for _ in range(ncols)]
            b = [sum(a * c for a, c in zip(r, y)) for r in rows]
        else:
            b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in rows]
        x = solve(rows, b)
        try:
            sol, params = A.gauss_jordan_solve(_oracle([[v] for v in b], 1))
        except ValueError:  # the oracle finds no solution
            assert x is None
            inconsistent += 1
            continue
        sol = sol.subs({p: 0 for p in params})
        assert x == [_frac(sol[i, 0]) for i in range(ncols)]
        assert [sum(a * c for a, c in zip(r, x)) for r in rows] == b
        consistent += 1
    assert consistent > 15 and inconsistent > 15


def test_solve_inconsistent_returns_none():
    assert solve([[1, 2], [2, 4]], [1, 3]) is None
    assert solve([[0, 0], [0, 0]], [0, 1]) is None
    assert solve([[1, 2], [2, 4]], [1, 2]) == [1, 0]

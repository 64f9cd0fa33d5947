"""Seeded random identities for the `properties` workload.

Four families, mixed 200:100:50:200 per 550 items (4:2:1:4 per round):

* ``jacobi``: for random base-chart fields A, B, C, the Jacobi sum and the
  antisymmetry sum [A,B] + [B,A] vanish.
* ``prolong_hom``: prolong2([Q1,Q2]) equals [prolong2 Q1, prolong2 Q2] on the
  2-jet chart, for random fields with tau_u = xi_u = 0.
* ``functoriality``: pushing forward through L2 o L1 equals pushing forward
  through L1, then L2, for random lifted equivalence transformations.
* ``dtdx``: D_t D_x e equals D_x D_t e on the free jet space.

Every identity is checked as an exact structural zero: a vector field whose
coefficients all canonicalize to zero, or an expression that
``structurally_zero`` accepts.  Inputs are drawn fresh from the seed, so
almost no input repeats.  Only public wavesym calls are used.

``false`` is a deliberately wrong claim ([A,B] == [B,A]) that the negative
controls inject to show that the gate counts a failed identity.
"""
from __future__ import annotations

import random
import time
import zlib
from fractions import Fraction
from itertools import combinations_with_replacement

from wavesym.charts import BASE_COORDS
from wavesym.detsys import ClassSpec
from wavesym.equivalence import (EquivalenceAlgebra, Gen, lift_D, lift_Dt,
                                 lift_Du, lift_F1, lift_F2, lift_G, lift_Pt)
from wavesym.expr import (add, exp_, mul, pow_, rat, structurally_zero, sym,
                          total_derivative)
from wavesym.parse import parse
from wavesym.vecfield import VectorField, bracket, prolong2, pushforward, vf

ROUND = ("jacobi", "jacobi", "prolong_hom", "dtdx", "jacobi", "functoriality",
         "dtdx", "jacobi", "prolong_hom", "dtdx", "dtdx")

JET2 = ("t", "x", "u", "u_t", "u_x", "u_tt", "u_tx", "u_xx")


class Context:
    """Charts and fixed objects shared by every identity of one pass."""

    def __init__(self):
        self.ch = ClassSpec.default().chart
        self.ea = EquivalenceAlgebra()
        self.f_app = parse("f(x,u_x)", self.ch)


def _poly(ch, rng: random.Random, names, max_deg: int = 2):
    """A nonzero constant plus distinct monomials of degree 1, 2 and 3,
    capped at max_deg, in random variables.  The shape is fixed (no zero
    constant, no monomials that merge or cancel), so that the cost of one
    identity varies little, which keeps the item percentiles steady."""
    degs = [min(deg, max_deg) for deg in (1, 2, 3)]
    terms = [rat(Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), rng.randint(1, 3)))]
    for deg in sorted(set(degs)):
        monomials = list(combinations_with_replacement(sorted(names), deg))
        for mono in rng.sample(monomials, min(degs.count(deg), len(monomials))):
            term = rat(rng.choice((-3, -2, -1, 1, 2, 3)))
            for name in mono:
                term = mul(term, sym(ch.get(name)))
            terms.append(term)
    return add(*terms)


def _base_field(ch, rng, tx_only: bool = False) -> VectorField:
    tx = ("t", "x") if tx_only else ("t", "x", "u")
    return vf(ch, BASE_COORDS, t=_poly(ch, rng, tx), x=_poly(ch, rng, tx),
              u=_poly(ch, rng, ("t", "x", "u")))


def _jet2_field(pr, ch) -> VectorField:
    coeffs = dict(pr.base.coeffs)
    coeffs.update({"u_t": pr.eta_t, "u_x": pr.eta_x, "u_tt": pr.eta_tt,
                   "u_tx": pr.eta_tx, "u_xx": pr.eta_xx})
    return VectorField(ch, JET2, coeffs, check=False)


def _lifted(ctx: Context, rng: random.Random):
    ch = ctx.ea.chart
    c = rat(Fraction(rng.randint(1, 5), rng.randint(1, 3)))
    kind = rng.randrange(7)
    if kind < 5:
        return (lift_Pt, lift_Dt, lift_Du, lift_F1, lift_F2)[kind](ch, c)
    if kind == 5:
        return lift_G(ch, _poly(ch, rng, ("x",)))
    x = sym(ch.get("x"))
    a, b = Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 3))
    return lift_D(ch, add(mul(rat(a), x), rat(b)),
                  mul(add(x, rat(-b)), pow_(rat(a), -1)))


# ---------------------------------------------------------------------------
# builders: draw the inputs of one identity from the rng

def _build_triple(ctx, rng):
    return tuple(_base_field(ctx.ch, rng) for _ in range(3))


def _build_pair(ctx, rng):
    return _base_field(ctx.ch, rng, tx_only=True), _base_field(ctx.ch, rng, tx_only=True)


def _build_functoriality(ctx, rng):
    ch = ctx.ea.chart
    gen = rng.choice((Gen("Du"), Gen("Dt"), Gen("Pt"), Gen("F1"), Gen("F2"),
                      Gen("D", _poly(ch, rng, ("x",))),
                      Gen("G", _poly(ch, rng, ("x",)))))
    return _lifted(ctx, rng), _lifted(ctx, rng), ctx.ea.field(gen)


def _build_jet_expr(ctx, rng):
    ch = ctx.ch
    e = _poly(ch, rng, JET2, max_deg=3)
    if rng.random() < 0.3:
        e = add(e, mul(ctx.f_app, _poly(ch, rng, JET2, max_deg=1)))
    if rng.random() < 0.2:
        e = mul(e, exp_(sym(ch.get(rng.choice(("x", "u_x"))))))
    return e


def _build_false(ctx, rng):
    return _base_field(ctx.ch, rng), _base_field(ctx.ch, rng)


# ---------------------------------------------------------------------------
# checks: compute both sides, return (holds exactly, canonical text of a side)

def _check_jacobi(ctx, inputs):
    A, B, C = inputs
    AB = bracket(A, B)
    jac = bracket(A, bracket(B, C)) + bracket(B, bracket(C, A)) + bracket(C, AB)
    anti = AB + bracket(B, A)
    return jac.is_zero_field() and anti.is_zero_field(), AB


def _check_prolong_hom(ctx, inputs):
    Q1, Q2 = inputs
    lhs = _jet2_field(prolong2(bracket(Q1, Q2)), ctx.ch)
    rhs = bracket(_jet2_field(prolong2(Q1), ctx.ch), _jet2_field(prolong2(Q2), ctx.ch))
    return (lhs - rhs).is_zero_field(), lhs


def _check_functoriality(ctx, inputs):
    L1, L2, V = inputs
    two_step = pushforward(L2, pushforward(L1, V))
    one_step = pushforward(L2.compose(L1), V)
    return (two_step - one_step).is_zero_field(), one_step


def _check_dtdx(ctx, e):
    ch = ctx.ch
    ab = total_derivative(total_derivative(e, "t", ch), "x", ch)
    ba = total_derivative(total_derivative(e, "x", ch), "t", ch)
    return structurally_zero(add(ab, mul(rat(-1), ba))), ab


def _check_false(ctx, inputs):
    A, B = inputs
    AB = bracket(A, B)
    return (AB - bracket(B, A)).is_zero_field(), AB


FAMILIES = {
    "jacobi": (_build_triple, _check_jacobi),
    "prolong_hom": (_build_pair, _check_prolong_hom),
    "functoriality": (_build_functoriality, _check_functoriality),
    "dtdx": (_build_jet_expr, _check_dtdx),
    "false": (_build_false, _check_false),
}


def schedule(rounds: int, inject_false: bool = False) -> list:
    """Family names of one pass: ``rounds`` rounds of the 4:2:1:4 mix, with
    one ``false`` item first when the negative control is on."""
    return (["false"] if inject_false else []) + list(ROUND) * rounds


def digest(side) -> str:
    """CRC of the canonical text of one computed side, so that two runs that
    build different canonical forms give different report bytes."""
    return format(zlib.crc32(repr(side).encode()), "08x")


def run_one(ctx: Context, family: str, rng: random.Random):
    """Build one identity's inputs from ``rng``, then time its check alone.

    Returns (holds, seconds, digest)."""
    build, check = FAMILIES[family]
    inputs = build(ctx, rng)
    t0 = time.perf_counter()
    holds, side = check(ctx, inputs)
    seconds = time.perf_counter() - t0
    return holds, seconds, digest(side)

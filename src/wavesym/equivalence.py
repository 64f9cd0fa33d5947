"""Equivalence-algebra generators and lifted equivalence transformations.

The generators live on the augmented chart (t,x,u,u_x,f,g):

    Du = u du + u_x du_x + g dg          Dt = t dt - 2f df - 2g dg
    Pt = dt                              F1 = t du
    F2 = t^2 du + 2 dg
    D(phi) = phi dx - phi_x u_x du_x + 2 phi_x f df + phi_xx u_x f dg
    G(psi) = psi du + psi_x du_x - psi_xx f dg

Elementary transformations (shift/scaling of t, scaling/gauging of u,
arbitrary x-reparametrization) are provided as lifted transforms on the same
chart, composable and push-forwardable; each is ``EquivParams.action`` with
one parameter moved off the identity.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .charts import AUG_COORDS, augmented_chart
from .expr import Chart, Expr, MINUS_ONE, add_products, app, diff, mul, pow_, rat, sym
from .vecfield import EquivParams, LiftedTransform, VectorField


@dataclass(frozen=True)
class Gen:
    """Tag for a generator: kind in {Du,Dt,Pt,F1,F2,D,G}, fn for D/G."""
    kind: str
    fn: Optional[Expr] = None

    def label(self) -> str:
        if self.fn is None:
            return self.kind
        from .printer import to_str
        return f"{self.kind}({to_str(self.fn)})"


class EquivalenceAlgebra:
    def __init__(self):
        self.chart = augmented_chart()

    def _s(self, name: str) -> Expr:
        return sym(self.chart.get(name))

    def field(self, gen: Gen) -> VectorField:
        ch = self.chart
        t, x, u, ux, f, g = (self._s(n) for n in AUG_COORDS)
        X = ch.get("x")
        k = gen.kind
        if k == "Du":
            return VectorField(ch, AUG_COORDS, {"u": u, "u_x": ux, "g": g})
        if k == "Dt":
            return VectorField(ch, AUG_COORDS,
                               {"t": t, "f": mul(rat(-2), f), "g": mul(rat(-2), g)})
        if k == "Pt":
            return VectorField(ch, AUG_COORDS, {"t": rat(1)})
        if k == "F1":
            return VectorField(ch, AUG_COORDS, {"u": t})
        if k == "F2":
            return VectorField(ch, AUG_COORDS, {"u": mul(t, t), "g": rat(2)})
        if k == "D":
            phi = gen.fn
            px = diff(phi, X)
            pxx = diff(px, X)
            return VectorField(ch, AUG_COORDS,
                               {"x": phi, "u_x": mul(rat(-1), px, ux),
                                "f": mul(rat(2), px, f), "g": mul(pxx, ux, f)})
        if k == "G":
            psi = gen.fn
            px = diff(psi, X)
            pxx = diff(px, X)
            return VectorField(ch, AUG_COORDS,
                               {"u": psi, "u_x": px, "g": mul(rat(-1), pxx, f)})
        raise ValueError(k)

    def formal(self, fname: str) -> Expr:
        """phi(x)-style formal function on the augmented chart."""
        return app(self.chart.get(fname), (0,), (self._s("x"),))

    def _table_lookup(self, p: Gen, q: Gen) -> Optional[VectorField]:
        X = self.chart.get("x")
        key = (p.kind, q.kind)
        if key == ("G", "Du"):
            return self.field(Gen("G", p.fn))
        if key == ("F1", "Du"):
            return self.field(Gen("F1"))
        if key == ("F2", "Du"):
            return self.field(Gen("F2"))
        if key == ("Dt", "F1"):
            return self.field(Gen("F1"))
        if key == ("Dt", "F2"):
            return self.field(Gen("F2")).scale(2)
        if key == ("Pt", "Dt"):
            return self.field(Gen("Pt"))
        if key == ("Pt", "F1"):
            return self.field(Gen("G", rat(1)))
        if key == ("Pt", "F2"):
            return self.field(Gen("F1")).scale(2)
        if key == ("D", "D"):
            return self.field(Gen("D", add_products((p.fn, diff(q.fn, X)),
                                                    (MINUS_ONE, diff(p.fn, X), q.fn))))
        if key == ("D", "G"):
            return self.field(Gen("G", mul(p.fn, diff(q.fn, X))))
        return None

    def expected_bracket(self, a: Gen, b: Gen) -> VectorField:
        """The printed commutation table, extended by zero off the list."""
        v = self._table_lookup(a, b)
        if v is not None:
            return v
        v = self._table_lookup(b, a)
        if v is not None:
            return v.scale(-1)
        return VectorField(self.chart, AUG_COORDS, {})


# ---------------------------------------------------------------------------
# lifted elementary transformations: each moves one parameter of
# EquivParams off the identity, and its inverse moves it to the inverse value

def _lift(ch: Chart, fwd: dict, bwd: dict) -> LiftedTransform:
    f, g = sym(ch.get("f")), sym(ch.get("g"))
    return LiftedTransform(ch, EquivParams.moved(ch, **fwd).action(f, g),
                           EquivParams.moved(ch, **bwd).action(f, g))


def lift_Pt(ch: Chart, c0: Expr) -> LiftedTransform:
    return _lift(ch, {"c0": c0}, {"c0": mul(rat(-1), c0)})


def lift_Dt(ch: Chart, c1: Expr) -> LiftedTransform:
    return _lift(ch, {"c1": c1}, {"c1": pow_(c1, -1)})


def lift_Du(ch: Chart, c2: Expr) -> LiftedTransform:
    return _lift(ch, {"c2": c2}, {"c2": pow_(c2, -1)})


def lift_F1(ch: Chart, c3: Expr) -> LiftedTransform:
    return _lift(ch, {"c3": c3}, {"c3": mul(rat(-1), c3)})


def lift_F2(ch: Chart, c4: Expr) -> LiftedTransform:
    return _lift(ch, {"c4": c4}, {"c4": mul(rat(-1), c4)})


def lift_G(ch: Chart, psi: Expr) -> LiftedTransform:
    return _lift(ch, {"psi": psi}, {"psi": mul(rat(-1), psi)})


def lift_D(ch: Chart, phi: Expr, phi_inv: Expr) -> LiftedTransform:
    """x-reparametrization; ``phi_inv`` is the inverse function, written in
    x.  A ``phi_inv`` that does not invert ``phi`` raises ValueError, as
    ``EquivParams`` checks it."""
    return _lift(ch, {"phi": phi, "phi_inv": phi_inv},
                 {"phi": phi_inv, "phi_inv": phi})

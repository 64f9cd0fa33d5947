"""Vector fields, Lie brackets, prolongation, the equivalence group.

Fields live on a declared chart: the base chart (t,x,u) or the augmented
chart (t,x,u,u_x,f,g).  On the augmented chart the u_x coefficient is
redundant data and is checked on construction against the first-prolongation
formula applied to the (t,x,u) part.

``prolong2`` and ``bracket`` keep their results in the process-lifetime
tables ``_PROLONGED`` and ``_BRACKETS``, like ``expr``'s ``_TIMES`` and
``diff``'s memo: a field is keyed by its chart, its coordinate tuple and its
interned coefficient nodes in coordinate order, so each distinct field is
prolonged, and each distinct pair bracketed, once per process.  The results
are shared and must not be edited.  ``eta_tx``, which no invariance residual
reads, is derived only when read, and so is the split of ``eta_tt`` as
A + B u_tt that every invariance residual of the field reads.

An element of the equivalence group is an ``EquivParams`` on either chart:
its parameters, the maps they give, ``compose``, ``inverse`` and the
closed-form ``action``.  ``compose`` and ``inverse`` read the parameters
off the composed or solved maps in one place, ``_read_off``.  The change of
variables (``transform_equation``), ``apply_equivalence`` and, on the
augmented chart, ``pushforward`` take one.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .charts import AUG_COORDS, BASE_COORDS
from .expr import (Chart, Expr, MINUS_ONE, PARAMETER, Symbol, ZERO, add_products,
                   diff, equal, free_symbols, is_positive, mul, pow_, rat,
                   structurally_zero, substitute, sym, total_derivative)


class ChartMismatch(ValueError):
    pass


class ProlongationError(ValueError):
    pass


class TransformLeavesClass(ValueError):
    """The image equation is not of the form u_tt = f(x,u_x) u_xx + g(x,u_x)."""

    def __init__(self, message: str, residual: Expr):
        super().__init__(message)
        self.residual = residual


class VectorField:
    __slots__ = ("chart", "coords", "coeffs")

    def __init__(self, chart: Chart, coords: Sequence[str], coeffs: Mapping[str, Expr],
                 check: bool = True):
        self.chart = chart
        self.coords = tuple(coords)
        self.coeffs = {c: e for c, e in coeffs.items()
                       if not structurally_zero(e)}
        for c in self.coeffs:
            if c not in self.coords:
                raise ChartMismatch(f"coefficient for {c!r} not a chart coordinate")
        if check:
            self._validate()

    def _validate(self):
        if self.coords == BASE_COORDS:
            for c, e in self.coeffs.items():
                for s in free_symbols(e):
                    if s.kind in ("jet",) or (s.kind == "dependent" and s.name != "u"):
                        raise ChartMismatch(
                            f"base-chart coefficient of d/d{c} depends on {s.name}")
        elif self.coords == AUG_COORDS:
            tau, xi, eta = (self.coeff(n) for n in ("t", "x", "u"))
            x, u = self.chart.get("x"), self.chart.get("u")
            ux = sym(self.chart.get("u_x"))
            if not structurally_zero(diff(tau, x)) or not structurally_zero(diff(tau, u)):
                raise ChartMismatch("augmented chart needs tau = tau(t)")
            expected = add_products((diff(eta, x),), (ux, diff(eta, u)),
                                    (MINUS_ONE, ux, diff(xi, x)),
                                    (MINUS_ONE, ux, ux, diff(xi, u)))
            if not equal(self.coeff("u_x"), expected):
                raise ChartMismatch(
                    "u_x coefficient disagrees with the first-prolongation formula")

    def coeff(self, name: str) -> Expr:
        return self.coeffs.get(name, ZERO)

    def apply(self, e: Expr) -> Expr:
        """Act as a derivation: sum of coeff * d/d(coord)."""
        return add_products(*self._products(e))

    def _products(self, e: Expr, *more):
        """``(coeff, de/dcoord)`` over the ``(coord, coeff)`` pairs of this
        field and ``more``, skipping a zero ``de/dcoord`` (``diff`` returns
        the interned ``ZERO`` for one)."""
        for c, v in (*self.coeffs.items(), *more):
            d = diff(e, self.chart.get(c))
            if d is not ZERO:
                yield v, d

    def __add__(self, other: "VectorField", *k: Expr) -> "VectorField":
        """self + k other, k a product of factors (none: 1)."""
        if self.coords != other.coords:
            raise ChartMismatch("cannot add fields on different charts")
        names = [c for c in self.coords if c in self.coeffs or c in other.coeffs]
        return VectorField(self.chart, self.coords,
                           {c: add_products((self.coeff(c),), (*k, other.coeff(c)))
                            for c in names}, check=False)

    def __sub__(self, other: "VectorField") -> "VectorField":
        return self.__add__(other, MINUS_ONE)

    def scale(self, k) -> "VectorField":
        return VectorField(self.chart, self.coords,
                           {c: mul(rat(k) if isinstance(k, (int, Fraction)) else k, v)
                            for c, v in self.coeffs.items()}, check=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VectorField) or self.coords != other.coords:
            return False
        names = set(self.coeffs) | set(other.coeffs)
        return all(equal(self.coeff(c), other.coeff(c)) for c in names)

    __hash__ = None  # mutable-equality semantics; not usable as a dict key

    def is_zero_field(self) -> bool:
        return not self.coeffs

    def __repr__(self):
        from .printer import to_str
        if not self.coeffs:
            return "0"
        return " + ".join(f"({to_str(v)})@{c}" for c, v in sorted(self.coeffs.items(),
                                                                  key=lambda kv: self.coords.index(kv[0])))


def vf(chart: Chart, coords: Sequence[str], check: bool = True, **coeffs) -> VectorField:
    """Convenience builder; keys named after coordinates (u_x as ux)."""
    fixed = {("u_x" if k == "ux" else k): v for k, v in coeffs.items()}
    return VectorField(chart, coords, fixed, check=check)


def _key(V: VectorField) -> tuple:
    """The memo key of a field: chart, coordinates, coefficient nodes."""
    return (V.chart, V.coords, *map(V.coeff, V.coords))


# {_key(V) + W's coefficient nodes: bracket(V, W)} for the life of the process
_BRACKETS: dict = {}


def bracket(V: VectorField, W: VectorField) -> VectorField:
    """Lie bracket [V,W]^i = V(W^i) - W(V^i), coordinate-wise, computed once
    per pair.  Not checked again: on the base chart it adds no symbol, and
    on the augmented chart first prolongation of point fields is a
    Lie-algebra homomorphism."""
    if V.coords != W.coords or V.chart is not W.chart:
        raise ChartMismatch("bracket needs fields on a common chart")
    key = (*_key(V), *map(W.coeff, V.coords))
    out = _BRACKETS.get(key)
    if out is None:
        out = _BRACKETS[key] = _bracket(V, W)
    return out


def _bracket(V: VectorField, W: VectorField) -> VectorField:
    out = {}
    for c in V.coords:
        out[c] = add_products(*V._products(W.coeff(c)),
                              *((MINUS_ONE, *p) for p in W._products(V.coeff(c))))
    return VectorField(V.chart, V.coords, out, check=False)


# ---------------------------------------------------------------------------
# second prolongation

def _second_order(name: str, e: Expr) -> Expr:
    """``e``, refused when a jet of order above two survives in it."""
    for s in free_symbols(e):
        if s.kind == "jet" and s.order > 2:
            raise ProlongationError(f"third-order jet survived in {name}: {s.name}")
    return e


@dataclass
class ProlongedField:
    """Second prolongation of a base-chart field: coefficients of
    d/du_t, d/du_x, d/du_tt, d/du_tx, d/du_xx.  ``Wt`` is D_t of the
    characteristic eta - tau u_t - xi u_x, kept for ``eta_tx``."""
    base: VectorField
    eta_t: Expr
    eta_x: Expr
    eta_tt: Expr
    eta_xx: Expr
    Wt: Expr

    @cached_property
    def eta_tx(self) -> Expr:
        """Derived when read: a third-order jet in it would also be one in
        eta_tt or eta_xx, which ``prolong2`` refuses."""
        Q = self.base
        ch = Q.chart
        return _second_order("eta_tx", add_products(
            (total_derivative(self.Wt, "x", ch),),
            (Q.coeff("t"), sym(ch.jet("u", 2, 1))), (Q.coeff("x"), sym(ch.jet("u", 1, 2)))))

    @cached_property
    def tt_split(self) -> tuple:
        """``(A, B)`` free of u_tt with eta_tt = A + B u_tt, split when first
        read.  A second prolongation of a point field is affine in u_tt;
        anything else raises."""
        u_tt = self.base.chart.get("u_tt")
        B = diff(self.eta_tt, u_tt)
        A = add_products((self.eta_tt,), (MINUS_ONE, B, sym(u_tt)))
        if u_tt in free_symbols(A) or u_tt in free_symbols(B):
            raise ProlongationError("eta_tt is not affine in u_tt")
        return A, B

    def apply(self, e: Expr) -> Expr:
        return add_products(*self.base._products(
            e, ("u_t", self.eta_t), ("u_x", self.eta_x), ("u_tt", self.eta_tt),
            ("u_tx", self.eta_tx), ("u_xx", self.eta_xx)))


# {_key(Q): prolong2(Q)} for the life of the process
_PROLONGED: dict = {}


def prolong2(Q: VectorField) -> ProlongedField:
    """Second prolongation via eta^J = D_J(eta - tau u_t - xi u_x) + tau u_{J,t}
    + xi u_{J,x}, computed once per field."""
    if Q.coords != BASE_COORDS:
        raise ChartMismatch("prolong2 expects a base-chart field")
    key = _key(Q)
    pr = _PROLONGED.get(key)
    if pr is None:
        pr = _PROLONGED[key] = _prolong2(Q)
    return pr


def _prolong2(Q: VectorField) -> ProlongedField:
    ch = Q.chart
    tau, xi, eta = Q.coeff("t"), Q.coeff("x"), Q.coeff("u")
    ut, ux = sym(ch.get("u_t")), sym(ch.get("u_x"))
    W = add_products((eta,), (MINUS_ONE, tau, ut), (MINUS_ONE, xi, ux))

    def D(e, d):
        return total_derivative(e, d, ch)

    def jet(nt, nx):
        return sym(ch.jet("u", nt, nx))

    Wt, Wx = D(W, "t"), D(W, "x")
    out = {
        "eta_t": add_products((Wt,), (tau, jet(2, 0)), (xi, jet(1, 1))),
        "eta_x": add_products((Wx,), (tau, jet(1, 1)), (xi, jet(0, 2))),
        "eta_tt": add_products((D(Wt, "t"),), (tau, jet(3, 0)), (xi, jet(2, 1))),
        "eta_xx": add_products((D(Wx, "x"),), (tau, jet(1, 2)), (xi, jet(0, 3))),
    }
    return ProlongedField(Q, **{n: _second_order(n, e) for n, e in out.items()}, Wt=Wt)


# ---------------------------------------------------------------------------
# the equivalence group

def _invert(expr: Expr, var: Symbol, given: Optional[Expr]) -> Optional[Expr]:
    """The inverse map of ``expr``, a function of ``var`` alone, written in
    ``var``: ``given`` when supplied, else the closed form of an affine map,
    else None."""
    if given is not None:
        return given
    a = diff(expr, var)
    if not structurally_zero(diff(a, var)):
        return None
    b = substitute(expr, {var: ZERO})
    return mul(add_products((sym(var),), (MINUS_ONE, b)), pow_(a, -1))


def _read_off(ch: Chart, T: Expr, phi: Expr, U: Expr,
              phi_inv: Optional[Expr]) -> "EquivParams":
    """The element with maps t~ = T, x~ = phi, u~ = U: its parameters are read
    off the maps by ``diff`` and ``substitute``, exactly, as the maps are of
    the group's form."""
    t, u = ch.get("t"), ch.get("u")
    U0 = substitute(U, {u: ZERO})
    U0_t = diff(U0, t)
    return EquivParams(
        ch, c0=substitute(T, {t: ZERO}), c1=diff(T, t), c2=diff(U, u),
        c3=substitute(U0_t, {t: ZERO}), c4=mul(rat(Fraction(1, 2)), diff(U0_t, t)),
        phi=phi, psi=substitute(U0, {t: ZERO}), phi_inv=phi_inv)


@dataclass
class EquivParams:
    """An element of the equivalence group:
    t~ = c1 t + c0, x~ = phi(x), u~ = c2 u + c4 t^2 + c3 t + psi(x).

    ``phi_inv`` is the inverse of phi, written in x, or None where it has
    no closed form; an affine phi inverts automatically.  c1, phi_x and c2
    are recorded as nonvanishing.  The constants c0..c4 may not depend on
    t, x, u or a jet, and phi and psi may depend on x alone: on these terms
    ``compose`` and ``inverse`` read the parameters off their maps exactly.
    """
    chart: Chart
    c0: Expr
    c1: Expr
    c2: Expr
    c3: Expr
    c4: Expr
    phi: Expr
    psi: Expr
    phi_inv: Optional[Expr] = None

    def __post_init__(self):
        x = self.chart.get("x")
        for what in ("c0", "c1", "c2", "c3", "c4", "phi", "psi"):
            allowed = (x,) if what in ("phi", "psi") else ()
            for s in free_symbols(getattr(self, what)):
                if s.kind in ("independent", "dependent", "jet", "coordinate") \
                        and s not in allowed:
                    raise ChartMismatch(f"{what} may not depend on {s.name}")
        if self.phi_inv is not None and not equal(
                substitute(self.phi_inv, {x: self.phi}), sym(x)):
            raise ValueError("phi_inv(phi(x)) is not x")

    @classmethod
    def moved(cls, chart: Chart, **params) -> "EquivParams":
        """The identity transformation with the named parameters set."""
        one = rat(1)
        identity = dict(c0=ZERO, c1=one, c2=one, c3=ZERO, c4=ZERO,
                        phi=sym(chart.get("x")), psi=ZERO)
        return cls(chart, **{**identity, **params})

    def T(self) -> Expr:
        return add_products((self.c1, sym(self.chart.get("t"))), (self.c0,))

    def U0(self) -> Expr:
        t = sym(self.chart.get("t"))
        return add_products((self.c4, t, t), (self.c3, t), (self.psi,))

    def U(self) -> Expr:
        return add_products((self.c2, sym(self.chart.get("u"))), (self.U0(),))

    def compose(self, first: "EquivParams") -> "EquivParams":
        """self after first (acts as self ∘ first): the parameters are read
        off the maps of self with first's maps substituted in."""
        ch = self.chart
        t, x, u = ch.get("t"), ch.get("x"), ch.get("u")
        maps = {t: first.T(), x: first.phi, u: first.U()}
        inv1, inv2 = (_invert(P.phi, x, P.phi_inv) for P in (first, self))
        return _read_off(
            ch, substitute(self.T(), maps), substitute(self.phi, maps),
            substitute(self.U(), maps),
            None if inv1 is None or inv2 is None else substitute(inv1, {x: inv2}))

    def inverse(self) -> "EquivParams":
        """The inverse element: its parameters are read off the maps solved
        for t, x and u.  Its ``phi_inv`` is phi where phi inverts a given
        ``phi_inv`` exactly, else None: where x has no sign, phi = exp(x)
        against lnabs(x) gives |x|."""
        ch = self.chart
        t, x, u = ch.get("t"), ch.get("x"), ch.get("u")
        back = {t: _invert(self.T(), t, None), x: _invert(self.phi, x, self.phi_inv)}
        if back[x] is None:
            raise ProlongationError("no closed-form inverse available for x-component")
        U = mul(add_products((sym(u),), (MINUS_ONE, substitute(self.U0(), back))),
                pow_(self.c2, -1))
        exact = self.phi_inv is not None and equal(
            substitute(self.phi, {x: back[x]}), sym(x))
        return _read_off(ch, back[t], back[x], U, self.phi if exact else None)

    def action(self, f: Expr, g: Expr) -> dict:
        """The closed-form action on (t, x, u, u_x, f, g), each new coordinate
        written in the old ones:
        u_x~ = (c2 u_x + psi_x)/phi_x,  f~ = phi_x^2 f/c1^2,
        g~ = (c2 g + u_x~ phi_xx f - psi_xx f + 2 c4)/c1^2."""
        ch = self.chart
        x, ux = ch.get("x"), sym(ch.get("u_x"))
        phi_x = diff(self.phi, x)
        psi_x = diff(self.psi, x)
        inv_c1sq = pow_(self.c1, -2)
        ux_new = mul(add_products((self.c2, ux), (psi_x,)), pow_(phi_x, -1))
        return {"t": self.T(), "x": self.phi, "u": self.U(), "u_x": ux_new,
                "f": mul(pow_(phi_x, 2), inv_c1sq, f),
                "g": mul(inv_c1sq,
                         add_products((self.c2, g), (ux_new, diff(phi_x, x), f),
                                      (MINUS_ONE, diff(psi_x, x), f),
                                      (rat(2), self.c4)))}


# the new x on a positive half-line while an image is rewritten in it; a
# leading underscore: no chart declares it and no parse produces it
_NEW_XP = Symbol("_newXP", PARAMETER, positive=True)


def transform_equation(P: EquivParams, f: Expr, g: Expr):
    """Change of variables on u_tt = f u_xx + g.

    Succeeds iff the image again has the class form with (f~, g~) depending
    only on (x~, u_x~); returns that pair expressed in the new coordinates
    (reusing the symbols x, u_x).  Raises TransformLeavesClass otherwise.
    """
    return _to_new_coords(P, *transform_equation_old_coords(P, f, g))


def transform_equation_old_coords(P: EquivParams, f: Expr, g: Expr):
    """The transformed pair (f~, g~) still written in the old coordinates."""
    ch = P.chart
    t, x = ch.get("t"), ch.get("x")
    u_tt, u_tx, u_xx = ch.get("u_tt"), ch.get("u_tx"), ch.get("u_xx")

    U = P.U()
    T_t = diff(P.T(), t)
    X_x = diff(P.phi, x)
    DtU = total_derivative(U, "t", ch)
    DxU = total_derivative(U, "x", ch)
    ut_new = mul(DtU, pow_(T_t, -1))
    ux_new = mul(DxU, pow_(X_x, -1))
    utt_new = mul(add_products((total_derivative(DtU, "t", ch),),
                               (MINUS_ONE, ut_new, diff(T_t, t))), pow_(T_t, -2))
    uxx_new = mul(add_products((total_derivative(DxU, "x", ch),),
                               (MINUS_ONE, ux_new, diff(X_x, x))), pow_(X_x, -2))

    S = substitute(utt_new, {u_tt: add_products((f, sym(u_xx)), (g,))})

    from .expr import collect
    S_parts = collect(S, [u_xx, u_tx])
    cross = S_parts.get(sym(u_tx))
    if cross is not None and not structurally_zero(cross):
        raise TransformLeavesClass("a u_tx term survives", cross)
    A = S_parts.get(sym(u_xx), ZERO)
    B = collect(uxx_new, [u_xx]).get(sym(u_xx), ZERO)
    f_new = mul(A, pow_(B, -1))
    g_new = add_products((S,), (MINUS_ONE, f_new, uxx_new))
    for s in free_symbols(g_new):
        if s.kind == "jet" and s.order >= 2:
            raise TransformLeavesClass(
                f"second-order jet {s.name} survives in the inhomogeneity", g_new)
    return f_new, g_new


def _to_new_coords(P: EquivParams, *exprs: Expr) -> tuple:
    """Each of ``exprs`` rewritten in the new coordinates (x, u_x standing for
    x~, u_x~), through the x and u_x maps of ``P.inverse()``.  x~ and u_x~
    depend on x and u_x alone, so an image is a class member exactly when
    it is free of t, u and u_t."""
    ch = P.chart
    x, u_x = ch.get("x"), ch.get("u_x")
    others = {ch.get(n) for n in ("t", "u", "u_t")}
    old = P.inverse().action(ZERO, ZERO)
    new = {x: old["x"], u_x: old["u_x"]}
    # a provably positive phi puts the new x on a positive half-line
    positive = is_positive(P.phi)
    if positive:
        new = {s: substitute(e, {x: sym(_NEW_XP)}) for s, e in new.items()}
    images = []
    for e in exprs:
        bad = sorted(s.name for s in free_symbols(e) if s in others)
        if bad:
            raise TransformLeavesClass(
                f"image depends on {bad}; not a class member", e)
        out = substitute(e, new)
        images.append(substitute(out, {_NEW_XP: sym(x)}) if positive else out)
    return tuple(images)


def apply_equivalence(par: EquivParams, f: Expr, g: Expr):
    """Equivalence action with arguments rewritten to the new coordinates."""
    image = par.action(f, g)
    return _to_new_coords(par, image["f"], image["g"])


# ---------------------------------------------------------------------------
# push-forwards on (t,x,u,u_x,f,g)

def pushforward(P: EquivParams, V: VectorField) -> VectorField:
    """Standard transformation rule of vector-field coefficients under P on
    the augmented chart: the maps are ``P.action(f, g)``, and the new
    coefficients are written in the new coordinates through
    ``P.inverse().action(f, g)``."""
    if V.coords != AUG_COORDS or V.chart is not P.chart:
        raise ChartMismatch("pushforward acts on augmented-chart fields of P's chart")
    ch = V.chart
    f, g = sym(ch.get("f")), sym(ch.get("g"))
    maps, inv = P.action(f, g), P.inverse().action(f, g)
    subs_inv = {ch.get(c): inv[c] for c in AUG_COORDS}
    return VectorField(ch, AUG_COORDS, {c: substitute(V.apply(maps[c]), subs_inv)
                                        for c in AUG_COORDS}, check=False)

"""Determining equations for Lie symmetries of u_tt = f(x,u_x) u_xx + g(x,u_x).

The residual of the infinitesimal invariance criterion is computed from the
second prolongation and restricted to the equation manifold; splitting over
jet monomials that are not arguments of the arbitrary elements yields the
determining system.  The residual rule takes any equation u_tt = R with R
free of u_tt and u_tx (``_residual_products``); the class is the one call
with R = f u_xx + g (``ClassSpec.rhs``).  The restriction acts on eta_tt
alone, split once per prolongation as A + B u_tt, so the residual is a
sum of products.  A finite ansatz turns the symmetry condition into an exact
rational linear system whose null space is the symmetry algebra within the
ansatz; its rows are read from those products' term map (``product_terms``),
and the residual is never built as an expression.  The basis functions of
each coordinate are linearly independent (``AnsatzBasis`` refuses others),
so a null vector stands for one field: the solution carries the vectors
and builds the fields only when they are read.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from ._linalg import EchelonBasis, nullspace
from .charts import BASE_COORDS, equation_chart
from .expr import (Chart, Expr, MINUS_ONE, Sym, ZERO, add_products, app, atoms,
                   collect, diff, free_symbols, is_zero, iter_terms, mul,
                   product_terms, rat, structurally_zero, substitute, sym)
from .parse import parse
from .vecfield import (ProlongationError, ProlongedField, VectorField,
                       prolong2, vf)


@dataclass
class ClassSpec:
    """The class u_tt = f(x,u_x) u_xx + g(x,u_x), f != 0, (f_ux, g_uxux) != 0,
    on its chart; it owns what is derived from the class alone, each part
    computed once."""
    chart: Chart

    @classmethod
    def default(cls) -> "ClassSpec":
        return cls(equation_chart())

    def f_symbolic(self) -> Expr:
        ch = self.chart
        return app(ch.get("f"), (0, 0), (sym(ch.get("x")), sym(ch.get("u_x"))))

    def g_symbolic(self) -> Expr:
        ch = self.chart
        return app(ch.get("g"), (0, 0), (sym(ch.get("x")), sym(ch.get("u_x"))))

    def rhs(self, f: Expr, g: Expr) -> Expr:
        """The right-hand side f u_xx + g of the class equation u_tt = R."""
        return add_products((f, sym(self.chart.get("u_xx"))), (g,))

    @cached_property
    def kernel_is_symmetry(self) -> bool:
        """Whether every kernel field is a symmetry for symbolic f(x,u_x),
        g(x,u_x), hence of every equation of the class."""
        f, g = self.f_symbolic(), self.g_symbolic()
        return all(check_symmetry(self, f, g, K)[0].verdict == "zero"
                   for K in kernel_fields(self.chart))

    @cached_property
    def default_ansatz(self) -> "_ParametricAnsatz":
        """The default basis, parsed and prolonged."""
        return _ParametricAnsatz.build(self.chart, AnsatzBasis.default(self.chart))


def kernel_fields(chart: Chart) -> list:
    """The kernel algebra <d_t, d_u, t d_u> (Heisenberg)."""
    return [vf(chart, BASE_COORDS, t=rat(1)),
            vf(chart, BASE_COORDS, u=rat(1)),
            vf(chart, BASE_COORDS, u=sym(chart.get("t")))]


def invariance_residual(spec: ClassSpec, Q: VectorField, f: Expr, g: Expr) -> Expr:
    """Q_(2) L restricted to L = 0, where L = u_tt - R and R = spec.rhs(f, g)."""
    return add_products(*_residual_products(prolong2(Q), spec.rhs(f, g)))


def _residual_products(pr: ProlongedField, R: Expr) -> tuple:
    """The products whose sum is the invariance residual of u_tt = R for the
    field prolonged as ``pr``.  R may hold t, x, u, u_t, u_x and u_xx, not
    u_tt or u_tx; then u_tt enters ``pr.apply(L)``, L = u_tt - R, through
    eta_tt alone, with dL/du_tt = 1: restricting eta_tt = A + B u_tt
    (``pr.tt_split``) to A + B R restricts the whole."""
    ch = pr.base.chart
    for s in free_symbols(R):
        if s.kind in ("dependent", "jet") and s.name not in ("u", "u_t", "u_x", "u_xx"):
            raise ProlongationError(f"right-hand side depends on {s.name}")
    L = add_products((sym(ch.get("u_tt")),), (MINUS_ONE, R))
    A, B = pr.tt_split
    return (*pr.base._products(L, ("u_t", pr.eta_t), ("u_x", pr.eta_x),
                               ("u_xx", pr.eta_xx)),
            (A,), (B, R))


def check_symmetry(spec: ClassSpec, f: Expr, g: Expr, Q: VectorField):
    """Zero verdict for the invariance residual; never silently passes an
    undecided zero test."""
    res = invariance_residual(spec, Q, f, g)
    return is_zero(res), res


@dataclass
class DeterminingEquation:
    monomial: str
    expr: Expr

    def __repr__(self):
        from .printer import to_str
        return f"[{self.monomial}]  {to_str(self.expr)} = 0"


@dataclass
class DeterminingSystem:
    """Raw splits, the derived preliminary conditions and the reduced rows."""
    raw: list
    preliminary: list
    rows: list
    split_log: list

    def format(self) -> str:
        out = ["stage 1 (general tau, xi, eta; split over u_tx*u_t, u_tx, u_xx*u_t):"]
        out += [f"  {e!r}" for e in self.raw]
        out += ["always (derived):"]
        out += [f"  {e!r}" for e in self.preliminary]
        out += ["stage 2 (tau_u = xi_u = 0 imposed):"]
        out += [f"  {e!r}" for e in self.rows]
        out += ["split log:"]
        out += [f"  {line}" for line in self.split_log]
        return "\n".join(out)


def _unknown_coefficient_field(ch: Chart) -> VectorField:
    t, x, u = (sym(ch.get(n)) for n in ("t", "x", "u"))
    args = (t, x, u)
    return vf(ch, BASE_COORDS,
              t=app(ch.get("tau"), (0, 0, 0), args),
              x=app(ch.get("xi"), (0, 0, 0), args),
              u=app(ch.get("eta"), (0, 0, 0), args),
              check=False)


def _kill_u_partials(e: Expr) -> Expr:
    """Impose tau_u = xi_u = 0 by sending every u-slot partial to zero."""
    table = {}
    for a in atoms(e):
        if a.fn.name in ("tau", "xi") and a.didx[2] > 0:
            table[a] = ZERO
    return substitute(e, table) if table else e


def generate_determining_system(spec: ClassSpec) -> DeterminingSystem:
    """Reproduce the determining equations: the three raw splits over
    u_tx*u_t, u_tx and u_xx*u_t, the four derived preliminary conditions
    (tau_u = 0 follows from f != 0), and the remaining split rows."""
    ch = spec.chart
    u_t, u_tx, u_xx, u_x = (ch.get(n) for n in ("u_t", "u_tx", "u_xx", "u_x"))
    f, g = spec.f_symbolic(), spec.g_symbolic()
    Q = _unknown_coefficient_field(ch)
    R1 = invariance_residual(spec, Q, f, g)

    col1 = collect(R1, [u_t, u_tx, u_xx])
    m_txt = mul(sym(u_tx), sym(u_t))
    m_xxt = mul(sym(u_xx), sym(u_t))
    raw = [
        DeterminingEquation("u_tx*u_t", col1.get(m_txt, ZERO)),
        DeterminingEquation("u_tx", col1.get(sym(u_tx), ZERO)),
        DeterminingEquation("u_xx*u_t", col1.get(m_xxt, ZERO)),
    ]
    # tau_u = 0: differentiating the u_tx split by u_x and combining with the
    # u_xx*u_t split leaves 3 f tau_u = 0, and f != 0.
    comb = add_products((rat(Fraction(1, 2)), diff(raw[1].expr, u_x)),
                        (MINUS_ONE, raw[2].expr))
    tau_u, xi_u, eta_uu = (parse(name, ch) for name in ("tau_u", "xi_u", "eta_uu"))

    R2 = _kill_u_partials(R1)
    col2 = collect(R2, [u_t, u_tx, u_xx])
    rest = substitute(col2.get(rat(1), ZERO), {eta_uu: ZERO})

    preliminary = [
        DeterminingEquation("xi_u", xi_u),
        DeterminingEquation("tau_u", tau_u),
        DeterminingEquation("xi_t - f*tau_x",
                            mul(rat(Fraction(-1, 2)), col2.get(sym(u_tx), ZERO))),
        DeterminingEquation("tau_x*f_ux", col2.get(m_xxt, ZERO)),
    ]
    rows = [
        DeterminingEquation("u_t^2", col2.get(mul(sym(u_t), sym(u_t)), ZERO)),
        DeterminingEquation("u_xx", mul(rat(-1), col2.get(sym(u_xx), ZERO))),
        DeterminingEquation("u_t", col2.get(sym(u_t), ZERO)),
        DeterminingEquation("rest", rest),
    ]
    log = [f"stage 1 monomials: {sorted(repr(k) for k in col1)}",
           f"stage 2 monomials: {sorted(repr(k) for k in col2)}",
           "tau_u = 0 derived from f != 0 via D_ux(u_tx split) and the "
           "u_xx*u_t split (their combination is 3*f*tau_u)",
           f"combination check: {comb!r}"]
    return DeterminingSystem(raw=raw, preliminary=preliminary, rows=rows,
                             split_log=log)


# ---------------------------------------------------------------------------
# simplified (always-valid) conditions

def simplified_system_residuals(Q: VectorField) -> list:
    """tau_u, tau_x, xi_u, xi_t, eta_uu, eta_xu, eta_ttx, tau_ttt and
    2 eta_tu - tau_tt for a concrete coefficient field."""
    ch = Q.chart
    t, x, u = (ch.get(n) for n in ("t", "x", "u"))
    tau, xi, eta = Q.coeff("t"), Q.coeff("x"), Q.coeff("u")
    return [
        diff(tau, u), diff(tau, x), diff(xi, u), diff(xi, t),
        diff(diff(eta, u), u), diff(diff(eta, x), u),
        diff(diff(diff(eta, t), t), x), diff(diff(diff(tau, t), t), t),
        add_products((rat(2), diff(diff(eta, t), u)), (MINUS_ONE, diff(diff(tau, t), t))),
    ]


def satisfies_simplified_system(Q: VectorField) -> bool:
    return all(structurally_zero(e) for e in simplified_system_residuals(Q))


# ---------------------------------------------------------------------------
# finite-ansatz solving

@dataclass(frozen=True)
class AnsatzBasis:
    """Basis functions for tau, xi and eta.  The functions on one coordinate
    must be linearly independent over their canonical terms, so that a
    coefficient vector over ``slots`` stands for exactly one field; a
    dependent basis raises ``ValueError`` naming the coordinate."""
    tau: tuple
    xi: tuple
    eta: tuple

    def __post_init__(self):
        for name in ("tau", "xi", "eta"):
            axes: dict = {}
            rows = EchelonBasis()
            for b in getattr(self, name):
                if not rows.insert({axes.setdefault(sig, len(axes)): c
                                    for c, sig in iter_terms(b)}):
                    raise ValueError(f"ansatz basis functions for {name} are "
                                     f"linearly dependent at {b!r}")

    @classmethod
    def default(cls, ch: Chart) -> "AnsatzBasis":
        """Closure of every coefficient function appearing in the built-in
        classification catalog."""
        def P(*texts):
            return tuple(parse(s, ch) for s in texts)
        return cls(tau=P("1", "t", "t^2"),
                   xi=P("1", "x", "x^2", "exp(x)", "exp(2*x)", "exp(-x)"),
                   eta=P("u", "t*u", "1", "t", "t^2", "x", "t*x", "t^2*x",
                         "x^2", "exp(x)", "x*lnabs(x)"))

    def size(self) -> int:
        return len(self.tau) + len(self.xi) + len(self.eta)

    @cached_property
    def slots(self) -> tuple:
        """``(coordinate, function)`` per ansatz unknown, in column order."""
        return tuple([("t", b) for b in self.tau] + [("x", b) for b in self.xi]
                     + [("u", b) for b in self.eta])


class CollectionFailure(Exception):
    pass


def _combine(ch: Chart, slots: tuple, weights) -> VectorField:
    """The field sum_j w_j b_j over ``slots`` = ((coordinate, b_j), ...),
    with ``weights`` the pairs (j, w_j), each w_j an Expr."""
    prods = {"t": [], "x": [], "u": []}
    for j, w in weights:
        coord, b = slots[j]
        prods[coord].append((w, b))
    return VectorField(ch, BASE_COORDS, {n: add_products(*p) for n, p in prods.items()},
                       check=False)


@dataclass(frozen=True)
class _ParametricAnsatz:
    """Q = sum_i k_i b_i over a basis, with its second prolongation."""
    basis: AnsatzBasis
    ks: tuple
    prolonged: ProlongedField

    @classmethod
    def build(cls, ch: Chart, basis: AnsatzBasis) -> "_ParametricAnsatz":
        # a leading underscore: no chart declares it and no parse produces it
        names = [f"_k{j}" for j in range(basis.size())]
        ks = tuple(ch.get(n) if n in ch else ch.parameter(n) for n in names)
        return cls(basis, ks, prolong2(_combine(ch, basis.slots, enumerate(map(sym, ks)))))


@dataclass
class AnsatzSolution:
    """The null space of the ansatz system: one vector ``{column: q}`` per
    dimension over ``basis.slots``.  The basis is independent on each
    coordinate, so each vector stands for one field; ``fields`` builds
    them when read."""
    chart: Chart
    null: list
    basis: AnsatzBasis
    n_equations: int

    @property
    def dimension(self) -> int:
        return len(self.null)

    @cached_property
    def fields(self) -> list:
        slots = self.basis.slots
        return [_combine(self.chart, slots, ((j, rat(c)) for j, c in vec.items()))
                for vec in self.null]


def solve_within_ansatz(spec: ClassSpec, f: Expr, g: Expr,
                        basis: Optional[AnsatzBasis] = None) -> AnsatzSolution:
    """Plug the parametric ansatz into the invariance residual, split the
    exact linear system over canonical monomials, and return the null space.

    The reported dimension is a statement *within the declared ansatz*: an
    under-approximation of the maximal algebra's dimension.  Without an
    explicit basis the spec's default one is used.
    """
    ch = spec.chart
    ansatz = (spec.default_ansatz if basis is None
              else _ParametricAnsatz.build(ch, basis))
    ks = ansatz.ks
    terms = product_terms(*_residual_products(ansatz.prolonged, spec.rhs(f, g)))

    column = {k: j for j, k in enumerate(ks)}
    rows_map: dict = {}
    for factors, coef in terms.items():
        if coef == 0:
            continue
        k_hits = [fct for fct in factors
                  if isinstance(fct, Sym) and fct.s in column]
        if len(k_hits) != 1:
            raise CollectionFailure(
                "residual term not linear-homogeneous in the ansatz: "
                f"{mul(rat(coef), *factors)!r}")
        # factors of a canonical product are key-sorted, so the remaining
        # tuple is the monomial signature as it stands
        sig = tuple(fct for fct in factors if fct is not k_hits[0])
        rows_map.setdefault(sig, {})[column[k_hits[0].s]] = coef

    return AnsatzSolution(ch, nullspace(rows_map.values(), len(ks)),
                          ansatz.basis, n_equations=len(rows_map))

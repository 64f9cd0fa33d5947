"""Prebuilt symbol tables for the two working charts.

``equation_chart`` hosts everything on the equation side: jet space of the
dependent variables (u, plus v and w1 for the potential-system checks),
classification parameters and arbitrary-function symbols.

``augmented_chart`` hosts the equivalence-algebra side, where f and g are
plain coordinates of the space (t, x, u, u_x, f, g).
"""
from __future__ import annotations

from .expr import Chart, UNKNOWN


def _common_parameters(ch: Chart) -> None:
    ch.parameter("p")
    ch.parameter("q")
    ch.parameter("nu", nonzero=True)
    ch.parameter("delta", square_one=True, nonzero=True)
    ch.parameter("eps", idempotent=True)
    ch.parameter("eps2", square_one=True, nonzero=True)
    ch.parameter("c0")
    ch.parameter("c1", nonzero=True)
    ch.parameter("c2", nonzero=True)
    ch.parameter("c3")
    ch.parameter("c4")
    ch.parameter("b", nonzero=True)
    ch.parameter("d")
    for name in ("a1", "a2", "a3", "p1", "p2", "k1", "k2"):
        ch.parameter(name)


def equation_chart() -> Chart:
    ch = Chart(jet_cap=4)
    ch.independent("t")
    ch.independent("x")
    for dep in ("u", "v", "w1"):
        ch.dependent(dep)
        for nt in range(ch.jet_cap + 1):
            for nx in range(ch.jet_cap + 1):
                if 0 < nt + nx <= ch.jet_cap:
                    ch.jet(dep, nt, nx)
    _common_parameters(ch)
    ch.function("f", ("x", "u_x"), nonzero=True)
    ch.function("g", ("x", "u_x"))
    ch.function("F", ("z",), nonzero=True)
    ch.function("G", ("z",))
    for name in ("mu", "theta", "alpha", "beta", "phi", "psi", "zeta"):
        ch.function(name, ("x",), nonzero=(name in ("theta", "phi")))
    ch.function("tau", ("t", "x", "u"), kind=UNKNOWN)
    ch.function("xi", ("t", "x", "u"), kind=UNKNOWN)
    ch.function("eta", ("t", "x", "u"), kind=UNKNOWN)
    return ch


def augmented_chart() -> Chart:
    ch = Chart(jet_cap=1)
    ch.independent("t")
    # the consideration is local: fix this chart on a positive x half-line so
    # that push-forwards through exponential reparametrizations close exactly
    ch.independent("x", positive=True)
    ch.dependent("u")
    ch.jet("u", 0, 1)
    ch.coordinate("f", nonzero=True)
    ch.coordinate("g")
    _common_parameters(ch)
    for name in ("phi", "psi", "chi", "theta", "phi1", "phi2", "psi1", "psi2"):
        ch.function(name, ("x",), nonzero=True)
    return ch


AUG_COORDS = ("t", "x", "u", "u_x", "f", "g")
BASE_COORDS = ("t", "x", "u")

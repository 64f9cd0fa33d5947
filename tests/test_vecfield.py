"""Vector fields: brackets, prolongation, transforms, push-forwards."""
import random
from fractions import Fraction

import pytest

from wavesym.charts import AUG_COORDS, BASE_COORDS
from wavesym.equivalence import (EquivalenceAlgebra, Gen, lift_D, lift_Dt,
                                 lift_Du, lift_F1, lift_F2, lift_G, lift_Pt)
from wavesym.expr import (add, app, diff, equal, exp_, lnabs, mul, pow_, rat,
                          structurally_zero, substitute, sym)
from wavesym.parse import parse
from wavesym.vecfield import (ChartMismatch, EquivParams, PointTransform,
                              TransformLeavesClass, VectorField,
                              apply_equivalence_old_coords, bracket,
                              compose_point_transforms, prolong2, pushforward,
                              transform_equation, transform_equation_old_coords,
                              vf)


@pytest.fixture(scope="module")
def ea():
    return EquivalenceAlgebra()


def test_bracket_table_examples(ea):
    # [P^t, D^t] = P^t from the commutation table
    assert bracket(ea.field(Gen("Pt")), ea.field(Gen("Dt"))) == ea.field(Gen("Pt"))
    # [D(phi1), D(phi2)] = D(phi1 phi2_x - phi1_x phi2)
    phi1, phi2 = ea.formal("phi1"), ea.formal("phi2")
    x = ea.chart.get("x")
    got = bracket(ea.field(Gen("D", phi1)), ea.field(Gen("D", phi2)))
    want = ea.field(Gen("D", add(mul(phi1, diff(phi2, x)),
                                 mul(rat(-1), diff(phi1, x), phi2))))
    assert got == want


def test_bracket_constant_fields_commute(ch):
    V = vf(ch, BASE_COORDS, t=rat(1))
    W = vf(ch, BASE_COORDS, x=rat(1))
    assert bracket(V, W).is_zero_field()


def test_bracket_chart_mismatch(ch, ea):
    V = vf(ch, BASE_COORDS, t=rat(1))
    W = ea.field(Gen("Pt"))
    with pytest.raises(ChartMismatch):
        bracket(V, W)


def test_augmented_ux_coefficient_checked(ea):
    ch = ea.chart
    with pytest.raises(ChartMismatch):
        VectorField(ch, AUG_COORDS, {"u": sym(ch.get("u")), "u_x": rat(5)})


def test_prolong_examples(ch):
    pr = prolong2(vf(ch, BASE_COORDS, t=rat(1)))
    assert all(structurally_zero(e) for e in
               (pr.eta_t, pr.eta_x, pr.eta_tt, pr.eta_tx, pr.eta_xx))
    pr = prolong2(vf(ch, BASE_COORDS, u=sym(ch.get("t"))))
    assert equal(pr.eta_t, rat(1))
    for e in (pr.eta_x, pr.eta_tt, pr.eta_tx, pr.eta_xx):
        assert structurally_zero(e)
    pr = prolong2(vf(ch, BASE_COORDS, t=parse("2*t", ch), u=sym(ch.get("u"))))
    assert equal(pr.eta_t, parse("-u_t", ch))
    assert equal(pr.eta_x, parse("u_x", ch))
    assert equal(pr.eta_tt, parse("-3*u_tt", ch))
    assert equal(pr.eta_xx, parse("u_xx", ch))


def test_transform_scaling(ch):
    c1 = sym(ch.get("c1"))
    P = PointTransform(ch, T=mul(c1, sym(ch.get("t"))), X=sym(ch.get("x")),
                       U1=rat(1), U0=rat(0))
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    fn, gn = transform_equation(P, f, g)
    assert equal(fn, mul(pow_(c1, -2), f))
    assert equal(gn, mul(pow_(c1, -2), g))


def test_transform_identity(ch):
    P = PointTransform(ch, T=sym(ch.get("t")), X=sym(ch.get("x")),
                       U1=rat(1), U0=rat(0))
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    fn, gn = transform_equation(P, f, g)
    assert equal(fn, f) and equal(gn, g)


def test_transform_gauge_psi(ch):
    """u~ = u + psi(x): f unchanged, g~ = g - psi_xx f, u_x~ = u_x + psi_x."""
    x = ch.get("x")
    psi = app(ch.get("psi"), (0,), (sym(x),))
    P = PointTransform(ch, T=sym(ch.get("t")), X=sym(x), U1=rat(1), U0=psi)
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    fn, gn = transform_equation(P, f, g)
    shift = {ch.get("u_x"): parse("u_x - psi_x", ch)}
    from wavesym.expr import substitute
    assert equal(fn, substitute(f, shift))
    assert equal(gn, substitute(add(g, mul(rat(-1), parse("psi_xx", ch), f)), shift))


def test_inverse_unavailable_reported(ch):
    from wavesym.vecfield import ProlongationError
    P = PointTransform(ch, T=sym(ch.get("t")), X=parse("exp(x)", ch),
                       U1=rat(1), U0=rat(0))  # x_inv not supplied
    with pytest.raises(ProlongationError):
        transform_equation(P, parse("f(x,u_x)", ch), parse("g(x,u_x)", ch))


def test_transform_leaves_class(ch):
    # T = t^2 is not fiber-preserving in the admissible sense: the image
    # inhomogeneity depends on the new time
    P = PointTransform(ch, T=parse("t^2", ch), X=sym(ch.get("x")),
                       U1=rat(1), U0=rat(0),
                       t_inv=parse("abs(t)^(1/2)", ch))
    with pytest.raises(TransformLeavesClass):
        transform_equation(P, parse("f(x,u_x)", ch), parse("g(x,u_x)", ch))


def test_apply_equivalence_rows(ch):
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    x = sym(ch.get("x"))
    # c4-only: g~ = g + 2 c4
    par = EquivParams(ch, rat(0), rat(1), rat(1), rat(0), sym(ch.get("c4")),
                      x, rat(0))
    fn, gn = apply_equivalence_old_coords(par, f, g)
    assert equal(fn, f)
    assert equal(gn, add(g, mul(rat(2), sym(ch.get("c4")))))
    # identity parameters
    par = EquivParams(ch, rat(0), rat(1), rat(1), rat(0), rat(0), x, rat(0))
    fn, gn = apply_equivalence_old_coords(par, f, g)
    assert equal(fn, f) and equal(gn, g)


def test_apply_equivalence_matches_transform_generic_phi(ch):
    """Cross-operation oracle: phi generic, the rest identity."""
    x = ch.get("x")
    phi = app(ch.get("phi"), (0,), (sym(x),))
    par = EquivParams(ch, rat(0), rat(1), rat(1), rat(0), rat(0), phi, rat(0))
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    fa, ga = apply_equivalence_old_coords(par, f, g)
    P = PointTransform(ch, T=sym(ch.get("t")), X=phi, U1=rat(1), U0=rat(0))
    ft, gt = transform_equation_old_coords(P, f, g)
    assert equal(fa, ft) and equal(ga, gt)
    # printed row: f~ = phi_x^2 f, g~ = g + phi_xx u_x f / phi_x
    phi_x = diff(phi, x)
    assert equal(ft, mul(pow_(phi_x, 2), f))
    assert equal(gt, add(g, mul(diff(phi_x, x), sym(ch.get("u_x")), f,
                                pow_(phi_x, -1))))


def test_pushforward_examples(ea):
    ch = ea.chart
    psi = ea.formal("psi")
    # G_*(psi) D^u = D^u - G(psi)
    got = pushforward(lift_G(ch, psi), ea.field(Gen("Du")))
    assert got == ea.field(Gen("Du")) - ea.field(Gen("G", psi))
    # D_*(theta) G(psi) = G(psi o theta^-1) at theta = 2x+1
    theta = parse("2*x + 1", ch)
    theta_hat = parse("(x - 1)/2", ch)
    got = pushforward(lift_D(ch, theta, theta_hat), ea.field(Gen("G", psi)))
    want = ea.field(Gen("G", app(ch.get("psi"), (0,), (theta_hat,))))
    assert got == want
    # identity transform fixes any generator
    ident = lift_Pt(ch, rat(0))
    V = ea.field(Gen("Dt"))
    assert pushforward(ident, V) == V


def test_lift_inverse_inverts_maps(ea):
    """For every elementary lift, substituting ``inv`` into ``maps``, and
    ``maps`` into ``inv``, gives back each coordinate of the chart."""
    ch = ea.chart
    x = sym(ch.get("x"))
    for seed in range(4):
        rng = random.Random(seed)

        def c():
            return rat(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                rng.randint(1, 3)))
        psi = add(c(), mul(c(), x), mul(c(), x, x), mul(c(), x, x, x))
        a, b = c(), c()
        lifts = [lift_Pt(ch, c()), lift_Dt(ch, c()), lift_Du(ch, c()),
                 lift_F1(ch, c()), lift_F2(ch, c()), lift_G(ch, psi),
                 lift_D(ch, add(mul(a, x), b),
                        mul(add(x, mul(rat(-1), b)), pow_(a, -1))),
                 lift_D(ch, exp_(x), lnabs(x))]
        for L in lifts:
            fwd = {ch.get(n): L.maps[n] for n in AUG_COORDS}
            bwd = {ch.get(n): L.inv[n] for n in AUG_COORDS}
            for n in AUG_COORDS:
                assert equal(substitute(L.maps[n], bwd), sym(ch.get(n))), n
                assert equal(substitute(L.inv[n], fwd), sym(ch.get(n))), n


def test_pushforward_translation_fixes_own_generator(ea):
    ch = ea.chart
    c0 = sym(ch.get("c0"))
    got = pushforward(lift_Pt(ch, c0), ea.field(Gen("Pt")))
    assert got == ea.field(Gen("Pt"))


def test_compose_point_transforms(ch):
    t, x = sym(ch.get("t")), sym(ch.get("x"))
    P1 = PointTransform(ch, T=mul(rat(2), t), X=x, U1=rat(1), U0=rat(0))
    P2 = PointTransform(ch, T=add(t, rat(3)), X=x, U1=rat(1), U0=mul(rat(5), t))
    C = compose_point_transforms(P2, P1)
    assert equal(C.T, add(mul(rat(2), t), rat(3)))
    assert equal(C.U0, mul(rat(10), t))
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    step = transform_equation(P1, f, g)
    step = transform_equation(P2, step[0], step[1])
    whole = transform_equation(C, f, g)
    assert equal(step[0], whole[0]) and equal(step[1], whole[1])

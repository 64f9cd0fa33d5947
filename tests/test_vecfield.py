"""Vector fields: brackets, prolongation, transforms, push-forwards."""
import random
from fractions import Fraction

import pytest

from wavesym.charts import AUG_COORDS, BASE_COORDS
from wavesym.equivalence import (EquivalenceAlgebra, Gen, lift_D, lift_Dt,
                                 lift_Du, lift_F1, lift_F2, lift_G, lift_Pt)
from wavesym.expr import (Add, add, app, diff, equal, exp_, lnabs, mul, pow_,
                          rat, structurally_zero, substitute, sym)
from wavesym.parse import parse
from wavesym.vecfield import (ChartMismatch, EquivParams, PointTransform,
                              TransformLeavesClass, VectorField, bracket,
                              compose_point_transforms, prolong2, pushforward,
                              transform_equation, transform_equation_old_coords,
                              vf)

from property_suites import random_base_field


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


def test_bracket_keeps_the_chart_invariant(ch, ea):
    """``bracket`` does not validate its result; brackets of validated
    fields still pass the chart check: seeded base-chart fields, and every
    pair of equivalence generators, with formal phi and psi."""
    rng = random.Random(53)
    for _ in range(20):
        bracket(random_base_field(ch, rng), random_base_field(ch, rng))._validate()
    gens = [Gen(k) for k in ("Du", "Dt", "Pt", "F1", "F2")] + \
        [Gen(k, ea.formal(n)) for k, n in (("D", "phi1"), ("D", "phi2"),
                                            ("G", "psi1"), ("G", "psi2"))]
    fields = [ea.field(g) for g in gens]
    for i, V in enumerate(fields):
        for W in fields[i + 1:]:
            bracket(V, W)._validate()


def _interned(cls):
    """The number of nodes in a node class's table, a trie of dicts."""
    def leaves(table):
        return sum(leaves(v) if type(v) is dict else 1 for v in table.values())
    return leaves(cls._nodes)


def test_derivations_build_no_intermediate_sums(ch):
    """With diff's memo warm, V(e) interns at most one new sum, its result,
    and [V, W] at most one per coefficient: no product coeff * de/dz is
    built as a sum of its own on the way."""
    V = vf(ch, BASE_COORDS, t=parse("7/11*t^2 + x", ch), x=parse("x*u - 3/13", ch),
           u=parse("u*t + 5/17*x^2", ch))
    W = vf(ch, BASE_COORDS, t=parse("x^2 - 2/19*t", ch), x=parse("u^2 + 9/23*t*x", ch),
           u=parse("t*x - 4/29*u", ch))
    e = parse("t*x^2 + 6/31*u^2*x + t*u", ch)
    for g in (e, *V.coeffs.values(), *W.coeffs.values()):
        for c in BASE_COORDS:
            diff(g, ch.get(c))
    before = _interned(Add)
    V.apply(e)
    assert _interned(Add) - before <= 1
    before = _interned(Add)
    bracket(V, W)
    assert _interned(Add) - before <= len(BASE_COORDS)


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
    image = par.action(f, g)
    assert equal(image["f"], f)
    assert equal(image["g"], add(g, mul(rat(2), sym(ch.get("c4")))))
    # identity parameters
    par = EquivParams(ch, rat(0), rat(1), rat(1), rat(0), rat(0), x, rat(0))
    image = par.action(f, g)
    assert equal(image["f"], f) and equal(image["g"], g)


def test_apply_equivalence_matches_transform_generic_phi(ch):
    """Cross-operation oracle: phi generic, the rest identity."""
    x = ch.get("x")
    phi = app(ch.get("phi"), (0,), (sym(x),))
    par = EquivParams(ch, rat(0), rat(1), rat(1), rat(0), rat(0), phi, rat(0))
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    image = par.action(f, g)
    P = PointTransform(ch, T=sym(ch.get("t")), X=phi, U1=rat(1), U0=rat(0))
    ft, gt = transform_equation_old_coords(P, f, g)
    assert equal(image["f"], ft) and equal(image["g"], gt)
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


def _reference_maps(ch, kind, p):
    """The seven elementary maps on (t, x, u, u_x, f, g), each written out on
    its own: an oracle for ``EquivParams.action``.  Coordinates left out are
    fixed."""
    x = ch.get("x")
    t, u, ux, f, g = (sym(ch.get(n)) for n in ("t", "u", "u_x", "f", "g"))
    if kind == "Pt":
        return {"t": add(t, p)}
    if kind == "Dt":
        return {"t": mul(p, t), "f": mul(pow_(p, -2), f), "g": mul(pow_(p, -2), g)}
    if kind == "Du":
        return {"u": mul(p, u), "u_x": mul(p, ux), "g": mul(p, g)}
    if kind == "F1":
        return {"u": add(u, mul(p, t))}
    if kind == "F2":
        return {"u": add(u, mul(p, t, t)), "g": add(g, mul(rat(2), p))}
    px = diff(p, x)
    if kind == "G":
        return {"u": add(u, p), "u_x": add(ux, px),
                "g": add(g, mul(rat(-1), diff(px, x), f))}
    return {"x": p, "u_x": mul(ux, pow_(px, -1)), "f": mul(pow_(px, 2), f),
            "g": add(g, mul(diff(px, x), ux, f, pow_(px, -1)))}


def test_lifts_match_reference_maps(ea):
    """Each lift's ``maps`` and ``inv`` are the reference maps at the
    parameter and at its inverse, as canonical trees: at seeded rational,
    symbolic (c1, c4) and formal (psi(x)) parameters, and for D at an affine
    and an exponential phi."""
    ch = ea.chart
    x = sym(ch.get("x"))
    neg = lambda e: mul(rat(-1), e)
    recip = lambda e: pow_(e, -1)
    c1, c4 = sym(ch.get("c1")), sym(ch.get("c4"))
    cases = [(lift_Dt, "Dt", c1, recip(c1)), (lift_F2, "F2", c4, neg(c4)),
             (lift_G, "G", ea.formal("psi"), neg(ea.formal("psi")))]
    for seed in range(4):
        rng = random.Random(seed)

        def c():
            return rat(Fraction(rng.choice((-1, 1)) * rng.randint(1, 5),
                                rng.randint(1, 3)))
        cases += [(lift, kind, p, inv(p)) for lift, kind, inv, p in (
            (lift_Pt, "Pt", neg, c()), (lift_Dt, "Dt", recip, c()),
            (lift_Du, "Du", recip, c()), (lift_F1, "F1", neg, c()),
            (lift_F2, "F2", neg, c()),
            (lift_G, "G", neg, add(c(), mul(c(), x), mul(c(), x, x))))]
        a, b = c(), c()
        cases.append((lift_D, "D", add(mul(a, x), b),
                      mul(add(x, neg(b)), recip(a))))
    cases.append((lift_D, "D", exp_(x), lnabs(x)))
    for lift, kind, p, q in cases:
        L = lift(ch, p, q) if kind == "D" else lift(ch, p)
        for got, want in ((L.maps, _reference_maps(ch, kind, p)),
                          (L.inv, _reference_maps(ch, kind, q))):
            assert got == {n: want.get(n, sym(ch.get(n))) for n in AUG_COORDS}, kind


def test_lift_D_refuses_a_wrong_inverse(ea):
    """``lift_D`` checks ``phi_inv`` against ``phi`` as ``EquivParams`` does;
    a true inverse leaves the maps as the reference writes them."""
    ch = ea.chart
    with pytest.raises(ValueError):
        lift_D(ch, parse("2*x", ch), parse("x", ch))
    phi, phi_inv = parse("2*x + 1", ch), parse("(x - 1)/2", ch)
    L = lift_D(ch, phi, phi_inv)
    for got, want in ((L.maps, _reference_maps(ch, "D", phi)),
                      (L.inv, _reference_maps(ch, "D", phi_inv))):
        assert got == {n: want.get(n, sym(ch.get(n))) for n in AUG_COORDS}


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

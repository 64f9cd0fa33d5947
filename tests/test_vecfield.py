"""Vector fields: brackets, prolongation, transforms, push-forwards."""
import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

from wavesym.charts import AUG_COORDS, BASE_COORDS, equation_chart
from wavesym.equivalence import (EquivalenceAlgebra, Gen, lift_D, lift_Dt,
                                 lift_Du, lift_F1, lift_F2, lift_G, lift_Pt)
from wavesym.expr import (Add, UnknownIdentifier, add, app, diff, equal, exp_,
                          lnabs, mul, pow_, rat, structurally_zero, substitute,
                          sym)
from wavesym.parse import parse, parse_vector_field
from wavesym.vecfield import (ChartMismatch, EquivParams, ProlongationError,
                              TransformLeavesClass, VectorField, bracket,
                              prolong2, pushforward, transform_equation,
                              transform_equation_old_coords, vf)

from property_suites import random_base_field
from sympy_text import SympyText


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


def test_field_sum_orders_coefficients_by_chart():
    """A sum of fields lists its coefficients in chart order under every
    string hash seed, so the axes liealg numbers from them do not move."""
    code = ("import json; from wavesym.equivalence import EquivalenceAlgebra, Gen; "
            "ea = EquivalenceAlgebra(); "
            "Du, Dt, Pt, F2 = (ea.field(Gen(k)) for k in ('Du', 'Dt', 'Pt', 'F2')); "
            "D = ea.field(Gen('D', ea.formal('phi1'))); "
            "print(json.dumps([list(V.coeffs) for V in (Du + Dt, Dt + Du, Pt + F2, "
            "F2 - Pt, D + Du, Du - D + Dt)]))")
    outs = set()
    for seed in ("1", "2", "3", "4"):
        outs.add(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                env=dict(os.environ, PYTHONHASHSEED=seed), text=True,
                                check=True, timeout=120).stdout)
    assert len(outs) == 1
    for names in json.loads(outs.pop()):
        assert names == [c for c in AUG_COORDS if c in names]


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


# ---------------------------------------------------------------------------
# prolong2 against the textbook formula in sympy

def _random_exp_field(ch, rng) -> VectorField:
    """A seeded random base field whose coefficients are polynomials in
    t, x, u, some times or plus a polynomial times exp of t, x, u or 2x."""
    Q = random_base_field(ch, rng)
    coeffs = {}
    for c in BASE_COORDS:
        e = Q.coeff(c)
        r = rng.random()
        arg = parse(rng.choice(("t", "x", "u", "2*x")), ch)
        if r < 0.35:
            e = mul(e, exp_(arg))
        elif r < 0.7:
            e = add(e, mul(random_base_field(ch, rng).coeff(c), exp_(arg)))
        coeffs[c] = e
    return VectorField(ch, BASE_COORDS, coeffs)


def test_prolong2_matches_the_textbook_formula_in_sympy(ch):
    """All five coefficients of prolong2, the lazily built eta_tx included,
    equal eta^J = D_J(eta - tau u_t - xi u_x) + tau u_{J,t} + xi u_{J,x}
    computed in sympy from the printed text, on 12 seeded random fields
    with polynomial and exp coefficients."""
    S = SympyText(ch)
    jets = S.jets("u", 4)
    rng = random.Random(2511)
    for _ in range(12):
        Q = _random_exp_field(ch, rng)
        pr = prolong2(Q)
        assert "eta_tx" not in vars(pr)     # derived only when read
        tau, xi, eta = (S(Q.coeff(c)) for c in BASE_COORDS)
        W = eta - tau * jets[1, 0] - xi * jets[0, 1]
        for got, (nt, nx) in ((pr.eta_t, (1, 0)), (pr.eta_x, (0, 1)),
                              (pr.eta_tt, (2, 0)), (pr.eta_tx, (1, 1)),
                              (pr.eta_xx, (0, 2))):
            want = W
            for d in "t" * nt + "x" * nx:
                want = S.D(want, d, jets)
            want += tau * jets[nt + 1, nx] + xi * jets[nt, nx + 1]
            assert sympy.expand(S(got) - want) == 0, (Q, nt, nx)


def test_prolong2_refuses_the_hostile_ansatz_bases(ch):
    """The parametric fields of the bases eta = u; u_x and tau = 1; u_xx,
    built unchecked as the ansatz builds them, hold a jet: prolong2 itself
    raises, on every call, and so does building either ansatz."""
    from wavesym.detsys import AnsatzBasis, _ParametricAnsatz
    from wavesym.vecfield import ProlongationError
    for coord, text in (("u", "a1*u + a2*u_x"), ("t", "a1 + a2*u_xx")):
        Q = VectorField(ch, BASE_COORDS, {coord: parse(text, ch)}, check=False)
        for _ in range(2):
            with pytest.raises(ProlongationError):
                prolong2(Q)
    default = AnsatzBasis.default(ch)
    for name, texts in (("eta", ("u", "u_x")), ("tau", ("1", "u_xx"))):
        basis = dataclasses.replace(default, **{name: tuple(parse(s, ch) for s in texts)})
        with pytest.raises(ProlongationError):
            _ParametricAnsatz.build(ch, basis)


# ---------------------------------------------------------------------------
# the prolong2 and bracket tables

def test_equal_fields_share_one_prolongation_and_bracket(ch):
    """Equal fields parsed twice are two objects with the same coefficient
    nodes: prolong2 and bracket return the stored result for both."""
    texts = ("t^2@t + t*u@u", "exp(x)@x + x*u@u")
    V1, W1 = (parse_vector_field(s, ch, BASE_COORDS) for s in texts)
    V2, W2 = (parse_vector_field(s, ch, BASE_COORDS) for s in texts)
    assert V1 is not V2 and W1 is not W2
    assert prolong2(V1) is prolong2(V2)
    assert bracket(V1, W1) is bracket(V2, W2)
    assert bracket(W1, V1) is not bracket(V1, W1)


def test_memo_tables_separate_charts_and_coordinates():
    """Fields with equal coefficient nodes in coordinate order, on two
    equation charts or on two coordinate tuples of one chart, never share
    an entry: each result lives on its own chart and coordinates."""
    from wavesym import vecfield
    from wavesym.charts import equation_chart
    charts = (equation_chart(), equation_chart())
    fields = [[parse_vector_field(s, c, BASE_COORDS)
               for s in ("t^2@t + t*u@u", "x@x + u@u")] for c in charts]
    assert fields[0][0].coeff("t") is fields[1][0].coeff("t")
    prs = [prolong2(V) for V, _ in fields]
    brs = [bracket(V, W) for V, W in fields]
    assert prs[0] is not prs[1] and brs[0] is not brs[1]
    for c, pr, br in zip(charts, prs, brs):
        assert pr.base.chart is c and br.chart is c
        assert pr.eta_tt is prs[0].eta_tt and br == brs[0]
    # the same nodes in coordinate order on (t, x, u) and (x, t, u)
    ch = charts[0]
    a, b, c = (parse(e, ch) for e in ("t", "x^2", "t^2"))
    got = {}
    for coords in (BASE_COORDS, ("x", "t", "u")):
        first, second = coords[:2]
        V = VectorField(ch, coords, {first: a, second: b, "u": sym(ch.get("u"))})
        W = VectorField(ch, coords, {first: rat(1), "u": c})
        got[coords] = bracket(V, W)
        assert got[coords].coords == coords
        assert got[coords] == vecfield._bracket(V, W)
    assert got[BASE_COORDS] != got["x", "t", "u"]


def test_memo_tables_are_transparent(ch):
    """prolong2 and bracket give the same nodes with their tables cleared
    before each call as warm, and a warm call returns the stored object."""
    from wavesym import vecfield
    rng = random.Random(2512)
    fields = [_random_exp_field(ch, rng) for _ in range(8)]
    pairs = list(zip(fields, fields[1:] + fields[:1]))

    def coefficients(pr):
        return (pr.eta_t, pr.eta_x, pr.eta_tt, pr.eta_tx, pr.eta_xx)

    cold = []
    for Q, (V, W) in zip(fields, pairs):
        vecfield._PROLONGED.clear()
        vecfield._BRACKETS.clear()
        cold.append((coefficients(prolong2(Q)), bracket(V, W).coeffs))
    warm = [(prolong2(Q), bracket(V, W)) for Q, (V, W) in zip(fields, pairs)]
    for (pr, br), (cold_pr, cold_br), Q, (V, W) in zip(warm, cold, fields, pairs):
        assert all(a is b for a, b in zip(coefficients(pr), cold_pr))
        assert br.coeffs.keys() == cold_br.keys()
        assert all(br.coeffs[c] is cold_br[c] for c in br.coeffs)
        assert prolong2(Q) is pr and bracket(V, W) is br


def test_transform_scaling(ch):
    c1 = sym(ch.get("c1"))
    P = EquivParams.moved(ch, c1=c1)
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    fn, gn = transform_equation(P, f, g)
    assert equal(fn, mul(pow_(c1, -2), f))
    assert equal(gn, mul(pow_(c1, -2), g))


def test_transform_identity(ch):
    P = EquivParams.moved(ch)
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    fn, gn = transform_equation(P, f, g)
    assert equal(fn, f) and equal(gn, g)


def test_transform_gauge_psi(ch):
    """u~ = u + psi(x): f unchanged, g~ = g - psi_xx f, u_x~ = u_x + psi_x."""
    x = ch.get("x")
    psi = app(ch.get("psi"), (0,), (sym(x),))
    P = EquivParams.moved(ch, psi=psi)
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    fn, gn = transform_equation(P, f, g)
    shift = {ch.get("u_x"): parse("u_x - psi_x", ch)}
    from wavesym.expr import substitute
    assert equal(fn, substitute(f, shift))
    assert equal(gn, substitute(add(g, mul(rat(-1), parse("psi_xx", ch), f)), shift))


def test_inverse_unavailable_reported(ch):
    P = EquivParams.moved(ch, phi=parse("exp(x)", ch))  # phi_inv not supplied
    with pytest.raises(ProlongationError):
        transform_equation(P, parse("f(x,u_x)", ch), parse("g(x,u_x)", ch))


def test_transform_leaves_class(ch):
    # an input outside the class: g = t u_x depends on time, and so does the
    # image inhomogeneity
    P = EquivParams.moved(ch, c1=rat(2))
    with pytest.raises(TransformLeavesClass, match=r"image depends on \['t'\]"):
        transform_equation(P, parse("f(x,u_x)", ch), parse("t*u_x", ch))


def test_placeholders_stay_off_the_chart():
    """The new coordinates of a change of variables are held by symbols no
    chart declares: after a transform ``newT`` still does not parse, and a
    parameter named ``newT`` is an ordinary symbol of the image."""
    ch = equation_chart()
    f = parse("f(x,u_x)", ch)
    transform_equation(EquivParams.moved(ch, c1=rat(2)), f, parse("g(x,u_x)", ch))
    with pytest.raises(UnknownIdentifier):
        parse("newT", ch)
    ch.parameter("newT")
    g = parse("newT*u_x", ch)
    fn, gn = transform_equation(EquivParams.moved(ch), f, g)
    assert equal(fn, f) and equal(gn, g)


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
    ft, gt = transform_equation_old_coords(par, f, g)
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
    """For every elementary lift, substituting the inverse's action into the
    lift's, and the lift's into the inverse's, gives back each coordinate of
    the chart."""
    ch = ea.chart
    x, f, g = (sym(ch.get(n)) for n in ("x", "f", "g"))
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
            maps, inv = L.action(f, g), L.inverse().action(f, g)
            fwd = {ch.get(n): maps[n] for n in AUG_COORDS}
            bwd = {ch.get(n): inv[n] for n in AUG_COORDS}
            for n in AUG_COORDS:
                assert equal(substitute(maps[n], bwd), sym(ch.get(n))), n
                assert equal(substitute(inv[n], fwd), sym(ch.get(n))), n


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
    """The actions of each lift and of its inverse are the reference maps at
    the parameter and at its inverse, as canonical trees: at seeded
    rational, symbolic (c1, c4) and formal (psi(x)) parameters, and for D at
    an affine and an exponential phi."""
    ch = ea.chart
    x, f, g = (sym(ch.get(n)) for n in ("x", "f", "g"))
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
        for got, want in ((L.action(f, g), _reference_maps(ch, kind, p)),
                          (L.inverse().action(f, g), _reference_maps(ch, kind, q))):
            assert got == {n: want.get(n, sym(ch.get(n))) for n in AUG_COORDS}, kind


def test_lift_D_refuses_a_wrong_inverse(ea):
    """``lift_D`` checks ``phi_inv`` against ``phi`` as ``EquivParams`` does;
    a true inverse leaves the maps as the reference writes them."""
    ch = ea.chart
    f, g = sym(ch.get("f")), sym(ch.get("g"))
    with pytest.raises(ValueError):
        lift_D(ch, parse("2*x", ch), parse("x", ch))
    phi, phi_inv = parse("2*x + 1", ch), parse("(x - 1)/2", ch)
    L = lift_D(ch, phi, phi_inv)
    for got, want in ((L.action(f, g), _reference_maps(ch, "D", phi)),
                      (L.inverse().action(f, g), _reference_maps(ch, "D", phi_inv))):
        assert got == {n: want.get(n, sym(ch.get(n))) for n in AUG_COORDS}


def test_element_without_closed_form_inverse_inverts_again(ea):
    """phi = exp(x) has no closed-form inverse, so the inverse element takes
    its phi from the given phi_inv.  On the positive-x augmented chart phi
    inverts that exactly, so the inverse keeps phi as its phi_inv: it is
    inverted again, pushed forward through and composed with either way
    round.  On the equation chart exp(-x/2) against -2 lnabs(x) gives |x|,
    so there the inverse keeps none and cannot be inverted again."""
    ch = ea.chart
    x, f, g = (sym(ch.get(n)) for n in ("x", "f", "g"))
    L = lift_D(ch, exp_(x), lnabs(x))
    Li = L.inverse()
    assert Li.phi is lnabs(x) and Li.phi_inv is exp_(x)
    for gen in (Gen("G", ea.formal("psi")), Gen("Dt"), Gen("Du")):
        V = ea.field(gen)
        assert pushforward(Li, pushforward(L, V)) == V
    identity = EquivParams.moved(ch).action(f, g)
    assert Li.compose(L).action(f, g) == identity
    assert L.compose(Li).action(f, g) == identity
    assert Li.inverse().action(f, g) == L.action(f, g)
    eq = equation_chart()
    P = EquivParams.moved(eq, phi=parse("exp(-x/2)", eq),
                          phi_inv=parse("-2*lnabs(x)", eq))
    assert P.inverse().phi_inv is None
    with pytest.raises(ProlongationError):
        P.inverse().inverse()


def test_pushforward_translation_fixes_own_generator(ea):
    ch = ea.chart
    c0 = sym(ch.get("c0"))
    got = pushforward(lift_Pt(ch, c0), ea.field(Gen("Pt")))
    assert got == ea.field(Gen("Pt"))


def test_compose_matches_substitution(ch):
    """b.compose(a) acts as b after a: its maps are b's maps at t -> a.T(),
    x -> a.phi, u -> a.U(), and its phi_inv is a's inverse after b's.  Every
    parameter is off the identity, so no term of the read-off can hide."""
    t, x, u = (ch.get(n) for n in ("t", "x", "u"))
    a = EquivParams(ch, c0=rat(3), c1=rat(2), c2=rat(-5), c3=rat(7), c4=rat(Fraction(1, 2)),
                    phi=parse("2*x + 1", ch), psi=parse("x^2 - x", ch))
    b = EquivParams(ch, c0=rat(-4), c1=rat(Fraction(-1, 3)), c2=rat(6), c3=rat(-2),
                    c4=rat(5), phi=parse("exp(x)", ch), psi=parse("x^3 + 1", ch),
                    phi_inv=lnabs(sym(x)))
    C = b.compose(a)
    maps = {t: a.T(), x: a.phi, u: a.U()}
    assert equal(C.T(), substitute(b.T(), maps))
    assert equal(C.phi, substitute(b.phi, maps))
    assert equal(C.U(), substitute(b.U(), maps))
    assert equal(C.phi_inv, parse("(lnabs(x) - 1)/2", ch))
    # the whole change of variables equals the two steps
    f, g = parse("f(x,u_x)", ch), parse("g(x,u_x)", ch)
    step = transform_equation(b, *transform_equation(a, f, g))
    whole = transform_equation(C, f, g)
    assert equal(step[0], whole[0]) and equal(step[1], whole[1])


def test_inverse_undoes_the_element(ch):
    """P.inverse() after P gives back t, x and u, at two full elements (every
    parameter off the identity); an affine element composed with its
    inverse, either way round, has the identity parameters."""
    t, x, u = (ch.get(n) for n in ("t", "x", "u"))
    a = EquivParams(ch, c0=rat(3), c1=rat(2), c2=rat(-5), c3=rat(7), c4=rat(Fraction(1, 2)),
                    phi=parse("2*x + 1", ch), psi=parse("x^2 - x", ch))
    b = EquivParams(ch, c0=rat(-4), c1=rat(Fraction(-1, 3)), c2=rat(6), c3=rat(-2),
                    c4=rat(5), phi=parse("exp(x)", ch), psi=parse("x^3 + 1", ch),
                    phi_inv=lnabs(sym(x)))
    for P in (a, b):
        Q = P.inverse()
        maps = {t: P.T(), x: P.phi, u: P.U()}
        assert equal(substitute(Q.T(), maps), sym(t))
        assert equal(substitute(Q.phi, maps), sym(x))
        assert equal(substitute(Q.U(), maps), sym(u))
    identity = EquivParams.moved(ch)
    for C in (a.compose(a.inverse()), a.inverse().compose(a)):
        for n in ("c0", "c1", "c2", "c3", "c4", "phi", "psi"):
            assert equal(getattr(C, n), getattr(identity, n)), n

"""Determining equations, kernel, ansatz solving."""
import dataclasses
from fractions import Fraction

import pytest

from wavesym.charts import BASE_COORDS
from wavesym.detsys import (AnsatzBasis, ClassSpec,
                            check_symmetry, generate_determining_system,
                            invariance_residual, kernel_fields,
                            satisfies_simplified_system, solve_within_ansatz)
from wavesym.expr import add, app, equal, is_zero, mul, rat, sym
from wavesym.parse import parse, parse_vector_field
from wavesym.vecfield import vf


def P(s, ch):
    return parse(s, ch)


def test_kernel_symbolic(spec, ch):
    f, g = spec.f_symbolic(), spec.g_symbolic()
    for Q in kernel_fields(ch):
        res, _ = check_symmetry(spec, f, g, Q)
        assert res.verdict == "zero"


def test_kernel_on_random_members(spec, ch):
    """The three kernel fields pass for 20 concrete (f,g) samples."""
    import random
    rng = random.Random(4242)
    pool = ["u_x^(-4)", "exp(2*u_x)", "abs(u_x)^(5)", "x^2*exp(u_x)",
            "exp(2*x)*(1 + u_x^2)", "x + u_x^3", "lnabs(u_x)", "x^(-1)*u_x^(-3)"]
    for _ in range(20):
        a = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        f = mul(rat(a), P(rng.choice(pool), ch))
        g = mul(rat(rng.randint(-5, 5)), P(rng.choice(pool), ch))
        for Q in kernel_fields(ch):
            res, _ = check_symmetry(spec, f, g, Q)
            assert res.verdict == "zero"


def test_invariance_residual_examples(spec, ch):
    f, g = spec.f_symbolic(), spec.g_symbolic()
    assert is_zero(invariance_residual(
        spec, vf(ch, BASE_COORDS, u=rat(1)), f, g)).verdict == "zero"
    assert is_zero(invariance_residual(
        spec, vf(ch, BASE_COORDS, u=sym(ch.get("t"))), f, g)).verdict == "zero"
    Fu = app(ch.get("F"), (0,), (sym(ch.get("u_x")),))
    resid = invariance_residual(spec, vf(ch, BASE_COORDS, x=rat(1)),
                                mul(P("exp(2*x)", ch), Fu), rat(0))
    assert equal(resid, mul(rat(-2), P("exp(2*x)", ch), Fu, sym(ch.get("u_xx"))))
    assert is_zero(resid).verdict == "nonzero"


def test_determining_system_rows(spec, ch):
    ds = generate_determining_system(spec)
    f = spec.f_symbolic()
    tau_x, tau_u = P("tau_x", ch), P("tau_u", ch)
    xi_u, xi_t = P("xi_u", ch), P("xi_t", ch)
    ux = sym(ch.get("u_x"))

    # raw stage-1 splits (the u_tx coefficient carries tau_x, not tau_t)
    assert equal(ds.raw[0].expr, mul(rat(-2), xi_u))
    assert equal(ds.raw[1].expr,
                 add(mul(rat(-2), xi_t), mul(rat(2), f, add(tau_x, mul(tau_u, ux)))))
    assert equal(ds.raw[2].expr,
                 add(mul(rat(-2), f, tau_u),
                     mul(add(tau_x, mul(tau_u, ux)), P("f_ux", ch))))

    # the four preliminary conditions
    assert equal(ds.preliminary[0].expr, xi_u)
    assert equal(ds.preliminary[1].expr, tau_u)
    assert equal(ds.preliminary[2].expr, add(xi_t, mul(rat(-1), f, tau_x)))
    assert equal(ds.preliminary[3].expr, mul(tau_x, P("f_ux", ch)))

    # the four remaining rows
    assert equal(ds.rows[0].expr, P("eta_uu", ch))
    assert equal(ds.rows[1].expr, P(
        "2*(tau_t - xi_x)*f(x,u_x) + xi*f_x + (eta_x + (eta_u - xi_x)*u_x)*f_ux", ch))
    assert equal(ds.rows[2].expr, P(
        "2*eta_tu - tau_tt + tau_xx*f(x,u_x) + tau_x*g_ux", ch))
    assert equal(ds.rows[3].expr, P(
        "eta_tt - xi_tt*u_x - (eta_xx + (2*eta_xu - xi_xx)*u_x)*f(x,u_x)"
        " + (eta_u - 2*tau_t)*g(x,u_x) - xi*g_x"
        " - (eta_x + (eta_u - xi_x)*u_x)*g_ux", ch))


def test_tau_u_derivation_logged(spec):
    """The log prints the combination of the u_tx and u_xx*u_t splits, and
    it is exactly 3 f tau_u; a wrong combination (the u_tx split alone)
    would print another line."""
    ds = generate_determining_system(spec)
    want = "combination check: 3*f*tau_u"
    assert want in ds.split_log
    assert f"combination check: {ds.raw[1].expr!r}" != want


def _instantiate_determining_equation(eqn_expr, ch, tau, xi, eta, f, g):
    from wavesym.expr import atoms, diff, substitute
    table = {}
    for a in atoms(eqn_expr):
        if a.fn.name in ("tau", "xi", "eta"):
            d = {"tau": tau, "xi": xi, "eta": eta}[a.fn.name]
            slots = ("t", "x", "u")
        elif a.fn.name in ("f", "g"):
            d = f if a.fn.name == "f" else g
            slots = ("x", "u_x")
        else:
            continue
        for slot, cnt in enumerate(a.didx):
            for _ in range(cnt):
                d = diff(d, ch.get(slots[slot]))
        table[a] = d
    return substitute(eqn_expr, table)


def test_determining_system_vanishes_on_whole_catalog(spec, ch):
    """Substituting any catalog generator together with that case's (f,g)
    into the determining rows gives zero identically."""
    from wavesym.classif import CATALOG
    ds = generate_determining_system(spec)
    eqns = ds.rows + ds.preliminary
    for case in CATALOG:
        f, g, gens = case.parsed(spec)
        for Q in gens:
            tau, xi, eta = Q.coeff("t"), Q.coeff("x"), Q.coeff("u")
            for eqn in eqns:
                e = _instantiate_determining_equation(eqn.expr, ch, tau, xi,
                                                      eta, f, g)
                assert is_zero(e).verdict == "zero", (case.id, eqn.monomial)


def test_simplified_system_filter_on_solutions(spec, ch):
    """Every ansatz solution for concrete (f,g) with f_ux != 0 satisfies the
    always-valid simplified conditions."""
    members = [("abs(u_x)^4", "0"), ("u_x^(-4)", "nu*x^(-1)*u_x^(-3)"),
               ("exp(2*u_x)", "exp(3*u_x)")]
    for ftxt, gtxt in members:
        f = P(ftxt, ch)
        g = P(gtxt, ch)
        from wavesym.expr import substitute
        g = substitute(g, {ch.get("nu"): rat(2)})
        sol = solve_within_ansatz(spec, f, g)
        assert sol.dimension >= 3
        for F in sol.fields:
            assert satisfies_simplified_system(F)


def test_check_symmetry_table_examples(spec, ch):
    res, _ = check_symmetry(spec, P("delta*u_x^(-4)", ch), rat(0),
                            parse_vector_field("t^2@t + t*u@u", ch, BASE_COORDS))
    assert res.verdict == "zero"
    res, _ = check_symmetry(spec, P("delta*x^2*exp(2*u_x)", ch),
                            P("nu*x*exp(2*u_x)", ch),
                            parse_vector_field("x@x + u@u", ch, BASE_COORDS))
    assert res.verdict == "zero"
    res, _ = check_symmetry(spec, P("exp(2*x)", ch), rat(0),
                            parse_vector_field("1@x", ch, BASE_COORDS))
    assert res.verdict == "nonzero"


def test_ansatz_dimensions(spec, ch):
    assert solve_within_ansatz(spec, P("u_x^(-4)", ch), rat(0)).dimension == 7
    assert solve_within_ansatz(spec, P("abs(u_x)^4", ch), rat(0)).dimension == 6
    # generic member of the case-3 family: kernel + one extension
    sol = solve_within_ansatz(spec, P("exp(2*x)*(1 + u_x^2)", ch), rat(0))
    assert sol.dimension == 4
    # fully generic sample: kernel only
    sol = solve_within_ansatz(spec, P("x^2 + exp(u_x)", ch), P("u_x^3", ch))
    assert sol.dimension == 3


def test_ansatz_solutions_are_symmetries(spec, ch):
    f, g = P("u_x^(-4)", ch), P("u_x^(-3)", ch)
    sol = solve_within_ansatz(spec, f, g)
    assert sol.dimension == 6
    for F in sol.fields:
        res, _ = check_symmetry(spec, f, g, F)
        assert res.verdict == "zero"
        assert satisfies_simplified_system(F)


def _small_basis(ch):
    return AnsatzBasis(tau=(P("1", ch), P("t", ch)),
                       xi=(P("1", ch), P("x", ch)),
                       eta=(P("u", ch), P("1", ch), P("t", ch)))


def test_ansatz_basis_refuses_dependent_functions(ch):
    """Linear dependence is judged per coordinate over canonical terms: a
    multiple, a zero or a sum of other functions on one coordinate raises
    ValueError naming it; sums that stay independent, and one function on
    two coordinates, are accepted."""
    small = _small_basis(ch)
    for name, texts in (("xi", ("1", "x", "3*x")), ("eta", ("u", "0")),
                        ("tau", ("1", "t", "2 + 3*t"))):
        with pytest.raises(ValueError, match=f"for {name} are linearly dependent"):
            dataclasses.replace(small, **{name: tuple(P(s, ch) for s in texts)})
    multi = dataclasses.replace(small, tau=(P("1 + t", ch), P("1 - t", ch)),
                                eta=(P("u", ch), P("1", ch), P("t + u", ch)))
    assert multi.slots[:2] == (("t", P("1 + t", ch)), ("t", P("1 - t", ch)))
    assert dataclasses.replace(small, xi=small.tau).slots[2:4] == \
        (("x", P("1", ch)), ("x", P("t", ch)))


def test_ansatz_basis_refuses_constant_factors(ch):
    """A term factor free of t, x and u (a logarithm or root of a rational,
    a parameter) raises ValueError naming the coordinate, as canonical
    terms do not prove independence over it; the default basis has none."""
    small = _small_basis(ch)
    for name, text in (("eta", "lnabs(2)"), ("tau", "2^(1/2)*t"),
                       ("xi", "delta*x + 1")):
        with pytest.raises(ValueError, match=f"for {name} has a factor free"):
            dataclasses.replace(small, **{name: (P("x^2", ch), P(text, ch))})
    AnsatzBasis.default(ch)


def test_ansatz_monotone_under_enlargement(spec, ch):
    small = _small_basis(ch)
    f, g = P("u_x^(-4)", ch), rat(0)
    d_small = solve_within_ansatz(spec, f, g, small).dimension
    d_full = solve_within_ansatz(spec, f, g).dimension
    assert d_small <= d_full


def test_ansatz_cache_isolation():
    """The default ansatz, kept once per spec, and a custom basis solved on
    the same chart do not leak into each other, in either order."""
    def dims(order):
        spec = ClassSpec.default()
        ch = spec.chart
        f, g = P("u_x^(-4)", ch), rat(0)
        small = _small_basis(ch)
        sols = [solve_within_ansatz(spec, f, g, small if b else None)
                for b in order]
        # the shared default basis cannot be edited in place
        with pytest.raises(dataclasses.FrozenInstanceError):
            sols[0].basis.tau = ()
        return [sol.dimension for sol in sols]

    fresh_default, fresh_small = dims([False]) + dims([True])
    assert dims([False, True, False]) == [fresh_default, fresh_small,
                                          fresh_default] == [7, 6, 7]


def test_default_ansatz_built_once_per_spec(monkeypatch):
    """Across several catalog cases on one spec, the default basis is
    parsed once and the parametric ansatz field is prolonged once.  A second
    spec on the same chart builds its own over the same unknowns."""
    from wavesym import classif, detsys
    from wavesym.expr import free_symbols

    spec = ClassSpec.default()
    calls = {"parse": 0, "prolong_ansatz": 0, "prolong_other": 0, "solve": 0}

    def counting(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def prolong2(Q):
        names = {s.name for e in Q.coeffs.values() for s in free_symbols(e)}
        calls["prolong_ansatz" if "_k0" in names else "prolong_other"] += 1
        return real_prolong2(Q)

    real_prolong2 = detsys.prolong2
    monkeypatch.setattr(detsys, "prolong2", prolong2)
    monkeypatch.setattr(detsys, "parse", counting("parse", detsys.parse))
    monkeypatch.setattr(classif, "solve_within_ansatz",
                        counting("solve", classif.solve_within_ansatz))
    reports = [classif.verify_case(spec, case) for case in classif.CATALOG
               if case.id in ("1", "7", "22")]
    assert [r.status for r in reports] == ["pass"] * 3
    assert calls["solve"] == 7
    assert calls["prolong_ansatz"] == 1
    assert calls["parse"] == AnsatzBasis.default(spec.chart).size() == 20
    # the generator checks still prolong each generator field
    assert calls["prolong_other"] > 0
    again = ClassSpec(spec.chart).default_ansatz
    assert calls["prolong_ansatz"] == 2
    assert again.ks == spec.default_ansatz.ks


def test_ansatz_unknowns_stay_off_the_chart():
    """The ansatz unknowns _k0, _k1, ... are symbols no chart declares: after
    a catalog case is verified, none of them is on the spec's chart."""
    from wavesym import classif
    spec = ClassSpec.default()
    assert classif.verify_case(spec, classif.CATALOG[0]).status == "pass"
    assert [k.name for k in spec.default_ansatz.ks[:2]] == ["_k0", "_k1"]
    assert "_k0" not in spec.chart
    assert not any(name.startswith("_k") for name in spec.chart.symbols)


def test_prolonged_residual_restricts_before_multiplying(spec, ch):
    """The residual products of u_tt = R, with eta_tt split as A + B u_tt and
    restricted to A + B R, sum to the canonical form of restricting the
    applied product.  R is the class right-hand side f u_xx + g and, outside
    the class, the telegraph image D_x(f(x,u) u_x + g(x,u)) of the same
    (f, g), for every catalog generator at its first sample; for the default
    ansatz and the class R their nonzero term map is that form's terms."""
    from wavesym.classif import _instantiate, _kernel_extension, builtin_catalog
    from wavesym.detsys import _residual_products
    from wavesym.expr import (add_products, iter_terms, product_terms,
                              substitute, total_derivative)
    from wavesym.vecfield import prolong2

    u_tt, u_x, u = ch.get("u_tt"), ch.get("u_x"), sym(ch.get("u"))

    def restricted_after(pr, R):
        return substitute(pr.apply(add(sym(u_tt), mul(rat(-1), R))), {u_tt: R})

    def telegraph(f, g):
        fu, gu = substitute(f, {u_x: u}), substitute(g, {u_x: u})
        return total_derivative(add(mul(fu, sym(u_x)), gu), "x", ch)

    pairs = []
    for case in builtin_catalog():
        f, g, gens = case.parsed(spec)
        sample = case.samples[0]
        fi, gi = _instantiate(f, ch, sample), _instantiate(g, ch, sample)
        pairs += [(prolong2(Q), fi, gi)
                  for Q in _kernel_extension(ch, gens, sample)[3:]]
    assert len(pairs) == 74
    for pr, f, g in pairs:
        for R in (spec.rhs(f, g), telegraph(f, g)):
            ps = _residual_products(pr, R)
            assert add_products(*ps) == restricted_after(pr, R)
    ansatz = spec.default_ansatz
    for f, g in (("u_x^(-4)", "0"), ("exp(2*u_x)", "exp(3*u_x)"),
                 ("x^2*abs(u_x)^4", "x*u_x + lnabs(u_x)")):
        R = spec.rhs(P(f, ch), P(g, ch))
        ps = _residual_products(ansatz.prolonged, R)
        want = restricted_after(ansatz.prolonged, R)
        assert add_products(*ps) == want
        assert {fs: c for fs, c in product_terms(*ps).items() if c != 0} \
            == {fs: c for c, fs in iter_terms(want)}


def test_residual_refuses_a_right_hand_side_outside_its_jets(spec, ch):
    """u_tt = R needs R free of u_tt, u_tx, higher jets and other dependent
    variables: the prolongation's products would drop their terms."""
    from wavesym.detsys import _residual_products
    from wavesym.vecfield import ProlongationError, prolong2
    pr = prolong2(parse_vector_field("x@x + u@u", ch, BASE_COORDS))
    assert _residual_products(pr, P("u_t*u_xx + u", ch))
    for bad in ("u_tx", "u_tt", "u_xxx", "v_x"):
        with pytest.raises(ProlongationError):
            _residual_products(pr, P(bad, ch))


def test_tt_split_refuses_a_nonaffine_eta_tt(spec, ch):
    """eta_tt = A + B u_tt only where neither holds u_tt: a hand-built
    prolongation whose eta_tt holds u_tt^2 is refused, not restricted."""
    from wavesym.vecfield import ProlongationError, prolong2
    pr = prolong2(parse_vector_field("x@x + u@u", ch, BASE_COORDS))
    A, B = pr.tt_split
    assert add(A, mul(B, P("u_tt", ch))) is pr.eta_tt
    bad = dataclasses.replace(pr, eta_tt=add(pr.eta_tt, P("u_tt^2", ch)))
    for _ in range(2):
        with pytest.raises(ProlongationError):
            bad.tt_split

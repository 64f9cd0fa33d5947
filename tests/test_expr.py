"""Expression core: construction, differentiation, canonical form, zero test."""
import random
from fractions import Fraction

import pytest

from wavesym.expr import (AbsPow, Add, App, ExpF, LnAbs, Mul, Pow, Rat, Sym,
                          SingularValue, abspow, add, app, collect, diff,
                          equal, evaluate, exp_, is_zero, lnabs, mul, pow_,
                          rat, substitute, sym, total_derivative,
                          NotPolynomial)
from wavesym.parse import parse
from wavesym.printer import to_str


def P(s, ch):
    return parse(s, ch)


def test_parse_examples(ch):
    e = P("u_x^(-4)", ch)
    assert isinstance(e, Pow) and e.exp == Fraction(-4)
    assert e.base == sym(ch.get("u_x"))

    e = P("f(x,u_x)*u_xx + g(x,u_x)", ch)
    assert equal(e, add(mul(P("f", ch), sym(ch.get("u_xx"))), P("g", ch)))

    e = P("abs(u_x)^(2*p)", ch)
    assert isinstance(e, AbsPow)
    assert equal(e.exp, mul(rat(2), sym(ch.get("p"))))


def test_formal_partial(ch):
    assert diff(P("f(x,u_x)", ch), ch.get("u_x")) == P("f_ux", ch)
    # mixed partial suffix parses in either order
    assert P("f_xux", ch) == P("f_uxx", ch)


def test_abs_power_derivative_oracle(ch):
    # d|u_x|^{2p}/du_x == derivative of (u_x^2)^p, checked at u_x = +-3, p = 2
    e = diff(P("abs(u_x)^(2*p)", ch), ch.get("u_x"))
    assert equal(e, mul(rat(2), sym(ch.get("p")), P("abs(u_x)^(2*p)", ch),
                        pow_(sym(ch.get("u_x")), -1)))
    for v in (3, -3):
        got = evaluate(substitute(e, {ch.get("u_x"): rat(v), ch.get("p"): rat(2)}), {})
        # oracle: (u_x^2)^p with p = 2 differentiates to 4 u_x^3
        assert got == Fraction(4 * v ** 3)


def test_lnabs_derivative(ch):
    assert equal(diff(lnabs(sym(ch.get("u_x"))), ch.get("u_x")),
                 pow_(sym(ch.get("u_x")), -1))


def test_total_derivative_examples(ch):
    assert total_derivative(sym(ch.get("u")), "x", ch) == sym(ch.get("u_x"))
    assert equal(total_derivative(P("f(x,u_x)", ch), "x", ch),
                 P("f_x + f_ux*u_xx", ch))
    assert equal(total_derivative(P("u - 2*t*u_t", ch), "t", ch),
                 P("-u_t - 2*t*u_tt", ch))


def test_total_derivative_order_overflow(ch):
    from wavesym.expr import JetOrderError
    top = sym(ch.jet("u", 2, 2))
    with pytest.raises(JetOrderError):
        total_derivative(top, "t", ch)


def test_substitute_examples(ch):
    onshell = P("f(x,u_x)*u_xx + g(x,u_x)", ch)
    assert substitute(sym(ch.get("u_tt")), {ch.get("u_tt"): onshell}, chart=ch) \
        == onshell
    e = P("x + u_x", ch)
    assert substitute(e, {}) == e
    # u_ttt via total differentiation of the binding
    got = substitute(sym(ch.jet("u", 3, 0)), {ch.get("u_tt"): onshell}, chart=ch)
    assert equal(got, P("f_ux*u_tx*u_xx + f(x,u_x)*u_txx + g_ux*u_tx", ch))


def test_substitute_inconsistent(ch):
    from wavesym.expr import InconsistentBindings
    with pytest.raises(InconsistentBindings):
        # binding reintroduces the bound jet through derivation
        substitute(sym(ch.jet("u", 3, 0)),
                   {ch.get("u_t"): mul(sym(ch.get("u_tt")), sym(ch.get("t")))},
                   chart=ch)


def test_normalize_examples(ch):
    assert equal(P("(u_x*u_x)*f(x,u_x)", ch), mul(P("f", ch), P("u_x^2", ch)))
    assert equal(P("delta^2*u_xx", ch), P("u_xx", ch))
    assert equal(P("exp(2*x)*exp(-2*x)*g(x,u_x)", ch), P("g", ch))
    assert equal(P("eps^3", ch), P("eps", ch))


def test_is_zero_examples(ch):
    assert is_zero(rat(0)).verdict == "zero"
    assert is_zero(P("u_x - u_x", ch)).verdict == "zero"
    assert is_zero(P("f_ux", ch)).verdict == "nonzero"


def test_is_zero_denominator_clearing(ch):
    e = P("(x+1)^(-2)*(x^2+2*x+1) - 1", ch)
    assert is_zero(e).verdict == "zero"
    assert is_zero(P("(x+u)^(-3)*(x+u) - (x+u)^(-2)", ch)).verdict == "zero"


def test_is_zero_undecided_surfaced(ch):
    # ln|2| + ln|3| - ln|6| is identically zero but not canonically so:
    # sampling alone must never upgrade it to "zero"
    e = add(lnabs(rat(2)), lnabs(rat(3)), mul(rat(-1), lnabs(rat(6))))
    res = is_zero(e)
    assert res.verdict == "undecided-after-sampling"
    assert res.samples > 0


def test_collect_examples(ch):
    ut = ch.get("u_t")
    e = P("tau_u*xi_u*u_t^2 + (tau_u*xi_t + tau_t*xi_u)*u_t + 5", ch)
    col = collect(e, [ut])
    assert equal(col[rat(1)], rat(5))
    assert equal(col[sym(ut)], P("tau_u*xi_t + tau_t*xi_u", ch))
    assert equal(col[pow_(sym(ut), 2)], P("tau_u*xi_u", ch))
    col2 = collect(P("5", ch), [ut])
    assert list(col2) == [rat(1)]
    col3 = collect(P("eta_uu*u_t^2 + 2*eta_tu*u_t", ch), [ut])
    assert equal(col3[pow_(sym(ut), 2)], P("eta_uu", ch))
    assert equal(col3[sym(ut)], P("2*eta_tu", ch))


def test_collect_not_polynomial(ch):
    with pytest.raises(NotPolynomial):
        collect(P("u_t^(-1)", ch), [ch.get("u_t")])
    with pytest.raises(NotPolynomial):
        collect(P("f(x,u_x)", ch), [ch.get("u_x")])


def test_exp_lnabs_interplay(ch):
    x = sym(ch.get("x"))
    u = sym(ch.get("u"))
    e = exp_(add(mul(rat(2), u), mul(rat(-2), lnabs(x))))
    assert equal(e, mul(pow_(x, -2), exp_(mul(rat(2), u))))
    assert equal(lnabs(exp_(u)), u)
    assert equal(lnabs(rat(-1)), rat(0))
    # |x^2|^(3/2) = |x|^3 = x^2 |x| when the sign of x is unknown
    assert equal(abspow(P("x^2", ch), rat(Fraction(3, 2))),
                 mul(P("x^2", ch), abspow(x, rat(1))))


def test_singularities(ch):
    with pytest.raises(SingularValue):
        pow_(rat(0), -1)
    with pytest.raises(SingularValue):
        lnabs(rat(0))


_SYMS = ("t", "x", "u", "u_t", "u_x")


def _random_expr(ch, rng, depth=3, transcendental=False):
    if depth == 0 or rng.random() < 0.3:
        r = rng.random()
        if r < 0.4:
            return rat(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
        return sym(ch.get(rng.choice(_SYMS)))
    op = rng.randrange(5 if transcendental else 3)
    a = _random_expr(ch, rng, depth - 1, transcendental)
    b = _random_expr(ch, rng, depth - 1, transcendental)
    if op == 0:
        return add(a, b)
    if op == 1:
        return mul(a, b)
    if op == 2:
        return pow_(a, rng.choice((2, 3)))
    if op == 3:
        return exp_(a)
    try:
        return lnabs(a)
    except SingularValue:
        return a


def _rebuild(e):
    """``e`` rebuilt one level through its constructor, children as they are."""
    if isinstance(e, (Rat, Sym)):
        return e
    if isinstance(e, App):
        return app(e.fn, e.didx, e.args)
    if isinstance(e, Pow):
        return pow_(e.base, e.exp)
    if isinstance(e, AbsPow):
        return abspow(e.base, e.exp)
    if isinstance(e, ExpF):
        return exp_(e.arg)
    if isinstance(e, LnAbs):
        return lnabs(e.arg)
    if isinstance(e, Mul):
        return mul(rat(e.coef), *e.factors)
    if isinstance(e, Add):
        return add(*e.terms)
    raise TypeError(type(e))


def _children(e):
    if isinstance(e, App):
        return e.args
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, AbsPow):
        return (e.base, e.exp)
    if isinstance(e, (ExpF, LnAbs)):
        return (e.arg,)
    if isinstance(e, Mul):
        return e.factors
    if isinstance(e, Add):
        return e.terms
    return ()


def _assert_constructor_fixpoint(e):
    """Every subtree of ``e`` is a fixpoint of its own constructor, so no
    bottom-up re-canonicalization pass could change ``e``."""
    stack = [e]
    while stack:
        n = stack.pop()
        assert _rebuild(n) == n, to_str(n)
        stack.extend(_children(n))


def test_constructor_fixpoint(spec, ch):
    """Random transcendental trees and the parsed catalog are canonical at
    every node."""
    from wavesym.classif import builtin_catalog
    rng = random.Random(101)
    for _ in range(200):
        _assert_constructor_fixpoint(_random_expr(ch, rng, transcendental=True))
    for case in builtin_catalog():
        f, g, gens = case.parsed(spec)
        for e in [f, g] + [c for Q in gens for c in Q.coeffs.values()]:
            _assert_constructor_fixpoint(e)


def _random_valued_expr(ch, rng, env, depth=3):
    """A random polynomial tree and its exact value at ``env``, computed with
    Fraction arithmetic alongside the constructors, not through them."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
            return rat(q), q
        s = ch.get(rng.choice(_SYMS))
        return sym(s), env[s].q
    op = rng.randrange(3)
    a, va = _random_valued_expr(ch, rng, env, depth - 1)
    b, vb = _random_valued_expr(ch, rng, env, depth - 1)
    if op == 0:
        return add(a, b), va + vb
    if op == 1:
        return mul(a, b), va * vb
    k = rng.choice((2, 3))
    return pow_(a, k), va ** k


def test_evaluation_homomorphism_random():
    """The canonical form of a polynomial tree keeps its exact rational value
    at 100 random points."""
    from wavesym.charts import equation_chart
    ch = equation_chart()
    rng = random.Random(79)
    for _ in range(100):
        env = {ch.get(n): rat(Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 9)))
               for n in _SYMS}
        e, value = _random_valued_expr(ch, rng, env)
        assert evaluate(e, env) == value


def test_mixed_partials_random():
    from wavesym.charts import equation_chart
    ch = equation_chart()
    rng = random.Random(53)
    pairs = [(ch.get("x"), ch.get("u")), (ch.get("t"), ch.get("u_x")),
             (ch.get("u"), ch.get("u_t"))]
    for _ in range(120):
        e = _random_expr(ch, rng, transcendental=True)
        a, b = rng.choice(pairs)
        assert diff(diff(e, a), b) == diff(diff(e, b), a)


def test_leibniz_rule(ch):
    rng = random.Random(11)
    from wavesym.charts import equation_chart
    ch2 = equation_chart()
    for _ in range(60):
        a = _random_expr(ch2, rng)
        b = _random_expr(ch2, rng)
        s = ch2.get(rng.choice(_SYMS))
        lhs = diff(mul(a, b), s)
        rhs = add(mul(diff(a, s), b), mul(a, diff(b, s)))
        assert equal(lhs, rhs)


def test_print_parse_roundtrip(ch):
    cases = [
        "u_x^(-4)", "f(x,u_x)*u_xx + g(x,u_x)", "abs(u_x)^(2*p)",
        "2*lnabs(u_x) + 2*x", "exp(q*u_x)", "delta*x^2*exp(2*u_x)",
        "x - eps*lnabs(u_x)", "eps*abs(u_x)^(p + 1/2) + 2*x",
        "-3/4*t^2*u + x*lnabs(x)",
    ]
    for s in cases:
        e = parse(s, ch)
        assert parse(to_str(e), ch) == e

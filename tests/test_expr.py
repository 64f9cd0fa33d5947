"""Expression core: construction, differentiation, canonical form, zero test."""
import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import sympy

import wavesym.expr as expr_module
from wavesym.expr import (AbsPow, Add, App, ExpF, LnAbs, Mul, Pow, Rat, Sym,
                          ZERO, ExpansionTooLarge, SingularValue,
                          _Transcendental, _sum, abspow, add, add_products,
                          app, collect, diff, equal, evaluate, exp_,
                          free_symbols, is_zero, iter_terms, lnabs, mul, pow_,
                          product_terms, rat, substitute, sym,
                          total_derivative, NotPolynomial)
from wavesym.parse import parse
from wavesym.printer import to_str

from sympy_text import SympyText


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
    assert substitute(sym(ch.get("u_tt")), {ch.get("u_tt"): onshell}) is onshell
    e = P("x + u_x", ch)
    assert substitute(e, {}) == e
    # a bound jet binds that jet alone, not its total derivatives
    u_ttt = sym(ch.jet("u", 3, 0))
    assert substitute(u_ttt, {ch.get("u_tt"): onshell}) is u_ttt


def test_normalize_examples(ch):
    assert equal(P("(u_x*u_x)*f(x,u_x)", ch), mul(P("f", ch), P("u_x^2", ch)))
    assert equal(P("delta^2*u_xx", ch), P("u_xx", ch))
    assert equal(P("exp(2*x)*exp(-2*x)*g(x,u_x)", ch), P("g", ch))
    assert equal(P("eps^3", ch), P("eps", ch))


def test_is_zero_examples(ch):
    assert is_zero(rat(0)).verdict == "zero"
    assert is_zero(P("u_x - u_x", ch)).verdict == "zero"
    assert is_zero(P("f_ux", ch)).verdict == "nonzero"


_DENOMINATOR_CLEARING = ("(x+1)^(-2)*(x^2+2*x+1) - 1",
                         "(x+u)^(-3)*(x+u) - (x+u)^(-2)",
                         "(x+1)^(1/2)*(x^2+2*x+1)^(-1)*(x+1) - (x+1)^(-1/2)",
                         "x^(1/2)*(x+1)^(-1) + x^(1/2)*x*(x+1)^(-1) - x^(1/2)")


def test_is_zero_denominator_clearing(ch):
    for s in _DENOMINATOR_CLEARING:
        assert is_zero(P(s, ch)).verdict == "zero", s


def test_is_zero_undecided_surfaced(ch):
    """Zero but not canonically so: sampling alone never upgrades these to
    "zero", and the detail counts the points that evaluated to exactly zero
    apart from those whose enclosure merely contains zero."""
    for text, exact in (("(x^2)^(1/2) - abs(x)", 32),
                        ("lnabs(2)+lnabs(3)-lnabs(6)", 0),
                        ("2^(1/2)*3^(1/2) - 6^(1/2)", 0)):
        res = is_zero(P(text, ch))
        assert (res.verdict, res.samples) == ("undecided-after-sampling", 32)
        assert res.detail == ("32 rational samples on a non-canonical-zero "
                              f"form: {exact} exactly zero, {32 - exact} with "
                              "an enclosure containing zero"), text


# equal arguments that no canonical form shows equal: one value, so sampling
# may leave the difference undecided but must never call it nonzero
_EQUAL_ATOMS = ("F(lnabs(2)+lnabs(3)) - F(lnabs(6))",
                "F(x*lnabs(2)+x*lnabs(3)) - F(x*lnabs(6))",
                "F(G(x)) - F(G(x)+lnabs(2)+lnabs(3)-lnabs(6))")
# atoms whose arguments differ at the point, innermost first where nested
_SEPARATED_ATOMS = ("F(x) - F(x^2)", "F(G(x)) - F(G(2*x))",
                    "G(F(x)) - G(F(2*x))", "f_ux",
                    "F(x^(10000000)) - F(x^(10000001))")


def test_is_zero_atoms_share_values_only_by_proof(ch):
    for text in _EQUAL_ATOMS:
        assert is_zero(P(text, ch)).verdict == "undecided-after-sampling", text
    for text in _SEPARATED_ATOMS:
        assert is_zero(P(text, ch)).verdict == "nonzero", text


def test_is_zero_names_why_points_were_skipped(ch):
    """With every sample point skipped, the detail counts each cause."""
    for text, why in (
            ("F(lnabs(2)+lnabs(3)) - F(lnabs(6))",
             "128 with atom arguments neither equal nor separated"),
            ("x*(lnabs(2)+lnabs(3)-lnabs(6))^(-1)", "128 singular"),
            ("exp(x^(10000000) + x^(-10000000))*u_x",
             "128 with a value too large to enclose")):
        res = is_zero(P(text, ch))
        assert (res.verdict, res.samples) == ("undecided-after-sampling", 0)
        assert res.detail == f"no sample point evaluated: {why}", text


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


def _rebuild(e, kids=None):
    """``e`` rebuilt one level through its constructor, from ``kids`` in
    place of its children (by default the children as they are)."""
    if isinstance(e, (Rat, Sym)):
        return e
    kids = _children(e) if kids is None else kids
    if isinstance(e, App):
        return app(e.fn, e.didx, kids)
    if isinstance(e, Pow):
        return pow_(kids[0], e.exp)
    if isinstance(e, AbsPow):
        return abspow(*kids)
    if isinstance(e, ExpF):
        return exp_(kids[0])
    if isinstance(e, LnAbs):
        return lnabs(kids[0])
    if isinstance(e, Mul):
        return mul(rat(e.coef), *kids)
    if isinstance(e, Add):
        return add(*kids)
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
        assert _rebuild(n) is n, to_str(n)
        stack.extend(_children(n))


def _sample_trees(spec, ch):
    """200 random transcendental trees, the parsed catalog, the prolonged
    default ansatz and 60 products of random sums."""
    from wavesym.classif import builtin_catalog
    rng = random.Random(101)
    for _ in range(200):
        yield _random_expr(ch, rng, transcendental=True)
    for case in builtin_catalog():
        f, g, gens = case.parsed(spec)
        yield from [f, g] + [c for Q in gens for c in Q.coeffs.values()]
    pr = spec.default_ansatz.prolonged
    yield from pr.base.coeffs.values()
    yield from (pr.eta_t, pr.eta_x, pr.eta_tt, pr.eta_tx, pr.eta_xx)
    rng = random.Random(107)
    atoms = [P(a, ch) for a in _PRODUCT_ATOMS]
    for _ in range(60):
        yield mul(*_random_sums(ch, rng, atoms))


# factors that mul merges by different rules: plain and fractional powers
# (some merge to an integer), rational roots, square-one and idempotent
# parameters, exp and abs-powers, and powers of sums
_PRODUCT_ATOMS = ("x", "u_x", "t", "x^(1/2)", "x^(-1/2)", "2^(1/2)",
                  "3^(1/2)", "delta", "eps", "exp(x)", "exp(-u)",
                  "abs(u_x)^p", "abs(u_x)^(1/3)", "(x+1)^(-1)",
                  "(u+t)^(1/2)")


def _random_sums(ch, rng, atoms):
    """2-4 random sums over ``atoms``; some are ``x + 1`` or ``u + t``, the
    bases of the atoms' powers of sums."""
    sums = []
    for _ in range(rng.randint(2, 4)):
        if rng.random() < 0.2:
            sums.append(P(rng.choice(("x + 1", "u + t")), ch))
            continue
        sums.append(add(*[
            mul(rat(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2))),
                *rng.sample(atoms, rng.randint(0, 2)))
            for _ in range(rng.randint(2, 3))]))
    return sums


def _terms(e):
    return e.terms if isinstance(e, Add) else (e,)


def _mul_reference(*sums):
    """A product of sums distributed term by term: one ``mul`` per pair of
    terms, each product read back term by term, summed at the end."""
    terms = [rat(1)]
    for s in sums:
        terms = [r for t in terms for u in _terms(s) for r in _terms(mul(t, u))]
    return add(*terms)


def test_mul_matches_term_by_term_reference(ch):
    """Products of random sums equal the term-by-term distribution.  At a
    random point each keeps its exact value where that value is rational
    (perfect squares make the square roots of symbols rational); elsewhere
    its interval enclosure meets the product of its factors' enclosures."""
    import mpmath
    rng = random.Random(109)
    atoms = [P(a, ch) for a in _PRODUCT_ATOMS]
    names = ("t", "x", "u", "u_x")
    evaluated = 0
    for _ in range(300):
        sums = _random_sums(ch, rng, atoms)
        got = mul(*sums)
        assert got == _mul_reference(*sums), [to_str(s) for s in sums]
        env = {ch.get(n): rat(Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2)
               for n in names}
        env[ch.get("delta")] = rat(rng.choice((1, -1)))
        env[ch.get("eps")] = rat(rng.choice((0, 1)))
        env[ch.get("p")] = rat(rng.randint(-2, 2))
        try:
            want = Fraction(1)
            for s in sums:
                want *= evaluate(s, env)
        except _Transcendental:
            enclose = [expr_module._eval_interval(substitute(e, env), mpmath.iv)
                       for e in (got, *sums)]
            prod = mpmath.iv.mpf(1)
            for w in enclose[1:]:
                prod = prod * w
            assert enclose[0].a <= prod.b and prod.a <= enclose[0].b
            continue
        assert evaluate(got, env) == want
        evaluated += 1
    assert evaluated > 30


def test_mul_expands_sums_in_one_call(ch, monkeypatch):
    """A product of sums makes one _mul_terms call once its term pairs are
    in _TIMES, and each pair, exp(x)*exp(u) included, is merged by one
    _mul_terms call of its own the first time it is met.  A constant term,
    of the coefficient or of a partial product, times a term is that term
    scaled, with no pair and no call."""
    a, b, c, d, e, f = (sym(ch.get(n)) for n in ("t", "x", "u", "u_t", "u_x", "u_tt"))
    plain = (add(a, b, c), add(d, e, f))
    exps = (add(a, exp_(b)), add(exp_(c), rat(1)))
    real = expr_module._mul_terms
    calls = []

    def counting(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(expr_module, "_TIMES", {})
    monkeypatch.setattr(expr_module, "_mul_terms", counting)
    for cold in (1, 0):
        calls.clear()
        assert len(expr_module.mul(*plain).terms) == 9
        # the 9 pairs of a term of the first sum and one of the second
        assert len(calls) == 1 + 9 * cold
        calls.clear()
        got = expr_module.mul(*exps)
        # 1 + exp(u) expands first: only exp(u) makes pairs, with t and exp(x)
        assert len(calls) == 1 + 2 * cold
        assert sum(all(isinstance(x, ExpF) for x in p) for p in calls
                   if len(p) == 2) == cold
        assert got == P("t*exp(u) + t + exp(x + u) + exp(x)", ch)


def test_rebuilt_sum_expands_after_pending_sums(ch):
    """A product whose merged factor rebuilds to a sum (here u + (x+1)^(1/2))
    expands the sums among its parts first.  Radicals of one sum merge
    differently in another order: expanded first, the rebuilt sum's
    (x+1)^(1/2) would meet that of the last part and make x + 1."""
    b = P("(u + (x+1)^(1/2))^(1/2)", ch)
    s1, s2 = P("(x+1)^(-1/2) + t", ch), P("(x+1)^(1/2) + 1", ch)
    want = P("1 + t + u + (x+1)^(1/2) + t*u + t*u*(x+1)^(1/2) + t*x"
             " + t*(x+1)^(1/2) + u*(x+1)^(-1/2)", ch)
    assert mul(b, b, s1, s2) is want
    assert mul(s1, b, s2, b) is want


def test_add_products_is_add_of_muls(spec, ch):
    """add_products(*ps) is the node add(*[mul(*p) for p in ps]): on random
    products of sample trees, with -1 factors and cancelling products, on
    exp and abs-power pairs that _mul_terms must rebuild, and on one or no
    product.  On the random products it is the sum of product_terms(*ps),
    whose nonzero entries are that node's terms."""
    trees = list(_sample_trees(spec, ch))
    small = [t for t in trees if len(_terms(t)) <= 6]
    rng = random.Random(113)
    for _ in range(200):
        ps = [(rng.choice(trees),)] + [
            tuple(rng.sample(small, rng.randint(1, 3)))
            for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            ps.append((rat(-1), *rng.choice(ps)))
        rng.shuffle(ps)
        want = add(*[mul(*p) for p in ps])
        assert add_products(*ps) is want
        terms = product_terms(*ps)
        assert _sum(terms) is want
        assert {f: c for f, c in terms.items() if c != 0} \
            == {f: c for c, f in iter_terms(want) if c != 0}
    a, b = P("exp(x) + t", ch), P("exp(-u) + 1", ch)
    c, d = P("abs(u_x)^p + x", ch), P("abs(u_x)^(1/3) - t", ch)
    for ps in ([(a, b)], [(c, d)], [(a, b), (c, d), (rat(-1), a, c)]):
        assert add_products(*ps) is add(*[mul(*p) for p in ps])
    assert add_products((a, c), (rat(-1), c, a)) is ZERO
    assert add_products((a, b, c)) is mul(a, b, c)
    assert add_products() is ZERO


def _table_products(spec, ch):
    """200 seeded products of sample trees, then products with term pairs
    whose merged factors reduce further: exps, abs-powers of one base, a
    rational root squared and a square root of a sum squared."""
    small = [t for t in _sample_trees(spec, ch) if len(_terms(t)) <= 6]
    rng = random.Random(131)
    ps = [tuple(rng.sample(small, rng.randint(2, 3))) for _ in range(200)]
    a, b = P("exp(x) + t", ch), P("exp(-u) + 1", ch)
    c, d = P("abs(u_x)^p + x", ch), P("abs(u_x)^(1/3) - t", ch)
    r, s = P("2^(1/2) + x", ch), P("(x+1)^(1/2) + t", ch)
    return ps + [(a, b), (c, d), (a, b, c, d), (r, r), (s, s)]


def test_term_product_table_is_transparent(spec, ch, monkeypatch):
    """mul and add_products build the same node with the _TIMES table
    cleared before each call as with it warm, and a repeated product calls
    _times for none of its term pairs."""
    table = expr_module._TIMES
    ps = _table_products(spec, ch)
    groups = [ps[i:i + 3] for i in range(0, len(ps), 3)]

    def each_cold(build, args):
        out = []
        for a in args:
            table.clear()
            out.append(build(*a))
        return out

    cold = each_cold(mul, ps)
    cold_sums = each_cold(add_products, groups)
    real = expr_module._times
    calls = []

    def counting(f1, f2):
        calls.append((f1, f2))
        return real(f1, f2)

    monkeypatch.setattr(expr_module, "_times", counting)
    for warm_pass in range(2):
        calls.clear()
        assert all(mul(*p) is e for p, e in zip(ps, cold))
        assert all(add_products(*g) is e for g, e in zip(groups, cold_sums))
        # the first pass fills the table, the second finds every pair in it
        assert bool(calls) == (warm_pass == 0)
    # a stored product is a term map: 2^(1/2)*2^(1/2) is the constant 2,
    # (x+1)^(1/2)*(x+1)^(1/2) the two terms of x + 1
    r2, rx = P("2^(1/2)", ch), P("(x+1)^(1/2)", ch)
    assert table[(r2,), (r2,)] == (((), 2),)
    assert dict(table[(rx,), (rx,)]) == {(P("x", ch),): 1, (): 1}


def test_term_product_table_holds_canonical_factors(spec, ch):
    """Every factor in a _TIMES key or stored product is a fixpoint of its
    constructor and none is a positive integer power of a sum, which the
    canonical form expands, also after denominator clearing."""
    expr_module._TIMES.clear()
    for p in _table_products(spec, ch):
        mul(*p)
    for s in _DENOMINATOR_CLEARING:
        assert is_zero(P(s, ch)).verdict == "zero", s
    factors = {x for pair, entries in expr_module._TIMES.items()
               for f in (*pair, *(g for g, _ in entries)) for x in f}
    assert factors
    for x in factors:
        _assert_constructor_fixpoint(x)
        assert not (isinstance(x, Pow) and isinstance(x.base, Add)
                    and x.exp > 0 and x.exp.denominator == 1), to_str(x)


def test_rational_kernel_matches_fraction_arithmetic():
    """_qadd and _qmul give Fraction's sum and product in stored form, an
    int exactly when the result is integral: on 2,000 seeded pairs of int
    and Fraction operands with zero, negatives, equal denominators,
    integral results and +-2**200."""
    q = expr_module._q
    rng = random.Random(137)
    big = 2 ** 200

    def operand():
        n = rng.choice((0, 1, -1, rng.randint(-9, 9), big, -big, big + 1))
        return q(Fraction(n, rng.choice((1, 1, 2, 3, 6, rng.randint(1, 12), big))))

    for _ in range(2000):
        a = operand()
        b = rng.choice((
            operand(),
            q(Fraction(rng.randint(-9, 9), Fraction(a).denominator)),
            q(rng.randint(-3, 3) - Fraction(a)),
            q(rng.randint(-3, 3) / Fraction(a)) if a else 0))
        for got, want in ((expr_module._qadd(a, b), q(Fraction(a) + Fraction(b))),
                          (expr_module._qmul(a, b), q(Fraction(a) * Fraction(b)))):
            assert got == want and type(got) is type(want), (a, b, got)
            assert (got.numerator, got.denominator) == \
                (want.numerator, want.denominator)


def _chain_nodes(e):
    """The distinct App, Pow, AbsPow, ExpF and LnAbs nodes of ``e``."""
    out, stack = {}, [e]
    while stack:
        n = stack.pop()
        if isinstance(n, (App, Pow, AbsPow, ExpF, LnAbs)):
            out[n] = None
        stack.extend(_children(n))
    return list(out)


def _derivative_products(t, s):
    """The products whose sum is diff(t, s) by the product rule on a
    product and the chain rule on the other nodes, each written out per
    node kind."""
    if isinstance(t, Mul):
        return [(Rat(t.coef), diff(f, s), *t.factors[:i], *t.factors[i + 1:])
                for i, f in enumerate(t.factors)]
    if isinstance(t, App):
        return [(App(t.fn, tuple(n + (j == i) for j, n in enumerate(t.didx)),
                     t.args), diff(a, s))
                for i, a in enumerate(t.args)]
    if isinstance(t, Pow):
        return [(rat(t.exp), pow_(t.base, t.exp - 1), diff(t.base, s))]
    if isinstance(t, AbsPow):
        return [(t.exp, t, pow_(t.base, -1), diff(t.base, s)),
                (t, lnabs(t.base), diff(t.exp, s))]
    if isinstance(t, ExpF):
        return [(t, diff(t.arg, s))]
    return [(pow_(t.arg, -1), diff(t.arg, s))]


def test_derivative_products_match_add_products(spec, ch):
    """diff's product and chain rules and total_derivative multiply through
    _times_into, and return the node add_products returns for the same
    products, with _TIMES and diff's memo cleared: for every symbol of
    every sample tree, on the tree's product terms and on each of its App,
    Pow, AbsPow, ExpF and LnAbs nodes.  On the tree and on each of those
    nodes, total_derivative is the per-jet formula diff(e, x_i) plus the
    sum of s_i diff(e, s) over the dependent and jet symbols s."""
    from wavesym.expr import JetOrderError
    checked = chained = 0
    for e in _sample_trees(spec, ch):
        nodes = _chain_nodes(e)
        products = [t for t in _terms(e) if isinstance(t, Mul)]
        for s in sorted(free_symbols(e), key=lambda s: s.name):
            expr_module._TIMES.clear()
            expr_module._DIFF_CACHE.clear()
            for t in products + nodes:
                got = diff(t, s)
                assert got is add_products(*_derivative_products(t, s)), \
                    (to_str(t), s.name)
                _assert_constructor_fixpoint(got)
                checked += 1
        for n, direction in itertools.product([e, *nodes], "tx"):
            try:
                want = add_products((diff(n, ch.get(direction)),), *[
                    (sym(ch.jet(s.dep, s.index[0] + (direction == "t"),
                                s.index[1] + (direction == "x"))), diff(n, s))
                    for s in free_symbols(n) if s.kind in ("dependent", "jet")])
            except JetOrderError:
                with pytest.raises(JetOrderError):
                    total_derivative(n, direction, ch)
                continue
            got = total_derivative(n, direction, ch)
            assert got is want, (to_str(n), direction)
            _assert_constructor_fixpoint(got)
            chained += n is not e
    assert checked > 1000 and chained > 1000


def test_total_derivative_of_an_atom_leaves_diff_memo(ch, monkeypatch):
    """total_derivative runs its own chain rule: on a function atom or an
    exponential it adds no entry to diff's memo."""
    memo = {}
    monkeypatch.setattr(expr_module, "_DIFF_CACHE", memo)
    for text in ("f(x,u_x)", "exp(u_x^2)", "lnabs(1 + u_x^2)*f(x,u_x)"):
        for direction in "tx":
            assert total_derivative(P(text, ch), direction, ch) is not ZERO
    assert not any(memo.values())


def test_total_derivative_refuses_other_directions(ch):
    with pytest.raises(ValueError, match="direction"):
        total_derivative(P("u_x + t*x", ch), "y", ch)
    with pytest.raises(ValueError, match="direction"):
        total_derivative(rat(3), "y", ch)


def test_diff_of_product_makes_no_mul_terms_call(ch, monkeypatch):
    """With diff's memo cold, the derivative of a polynomial product is
    formed in the term-product loop alone: the only _mul_terms calls are
    the merges of term pairs not yet in _TIMES, one each, and there are
    none once the table holds them."""
    e = P("3*t*x*u_x*u_tt", ch)
    assert isinstance(e, Mul)
    real = expr_module._mul_terms
    calls = []

    def counting(*args):
        calls.append(args)
        return real(*args)

    table = {}
    monkeypatch.setattr(expr_module, "_TIMES", table)
    monkeypatch.setattr(expr_module, "_mul_terms", counting)
    for cold in (True, False):
        calls.clear()
        monkeypatch.setattr(expr_module, "_DIFF_CACHE", {})
        got = [diff(e, ch.get(n)) for n in ("t", "x", "u_x", "u_tt", "u")]
        assert [a[0] for a in calls] == ([f1 + f2 for f1, f2 in table] if cold else [])
    monkeypatch.undo()
    assert got == [P(s, ch) for s in ("3*x*u_x*u_tt", "3*t*u_x*u_tt",
                                      "3*t*x*u_tt", "3*t*x*u_x", "0")]


def test_diff_of_a_sum_is_add_of_its_term_derivatives(spec, ch, monkeypatch):
    """diff of a sum, which runs the product rule of all its terms into one
    map, is the node add(*[diff(t, s) for t in terms]): with _DIFF_CACHE and
    _TIMES both cleared before each side, and with both warm, for every
    symbol of every sample sum.  The memo gains no entry for a product term
    of the sum."""
    monkeypatch.setattr(expr_module, "_TIMES", {})
    monkeypatch.setattr(expr_module, "_DIFF_CACHE", {})

    def cold(build):
        expr_module._TIMES.clear()
        expr_module._DIFF_CACHE.clear()
        return build()

    checked = 0
    for e in _sample_trees(spec, ch):
        if not isinstance(e, Add) or len(e.terms) > 60:
            continue
        for s in sorted(free_symbols(e), key=lambda s: s.name):
            got = cold(lambda: diff(e, s))
            want = cold(lambda: add(*[diff(t, s) for t in e.terms]))
            assert got is want, (to_str(e), s.name)
            expr_module._DIFF_CACHE.clear()
            assert diff(e, s) is want and diff(e, s) is want
            assert add(*[diff(t, s) for t in e.terms]) is want
            checked += 1
    assert checked > 300
    e = P("3*t*x + x*u_x^2 + exp(x)", ch)
    x = ch.get("x")
    assert cold(lambda: diff(e, x)) is P("3*t + u_x^2 + exp(x)", ch)
    memo = expr_module._DIFF_CACHE[x]
    assert e in memo and P("exp(x)", ch) in memo
    assert not any(isinstance(t, Mul) and t in memo for t in e.terms)


def test_product_terms_is_the_merge_of_each_products_map(spec, ch):
    """product_terms(*ps), which expands every product straight into one
    map, is the merge of each product's own _mul_terms map, entry for entry
    with zero coefficients included: for a lone constant, a lone sum, a
    constant times two sums, a zero coefficient, products whose merged
    factors reduce and are multiplied in again (2^(1/2)*2^(1/2)*(x+1)),
    all of these together, and seeded groups of products of sample sums."""
    def merged(ps):
        acc = {}
        for p in ps:
            for f, c in expr_module._mul_terms(p, {}).items():
                acc[f] = expr_module._qadd(acc[f], c) if f in acc else c
        return acc

    r2 = P("2^(1/2)", ch)
    s1, s2 = P("x + 1", ch), P("u_x - t + 2^(1/2)", ch)
    cases = [(rat(3),), (s1,), (rat(-2), s1, s2), (rat(0), s1), (r2, r2, s1),
             (s2, r2, s1, r2), (rat(-1), s1, s2)]
    products = _table_products(spec, ch)
    groups = [[p] for p in cases] + [cases] + \
        [products[i:i + 3] for i in range(0, len(products), 3)]
    for ps in groups:
        got = product_terms(*ps)
        assert got == merged(ps), ps
        assert _sum(got) is add(*[mul(*p) for p in ps])
    assert product_terms((r2, r2, s1)) == {(P("x", ch),): 2, (): 2}
    assert product_terms((rat(0), s1)) == {} == product_terms()
    # cancelling products leave their entries at zero
    assert set(product_terms(*cases[1:3], (rat(2), s1, s2)).values()) == {0, 1}


# diff, total_derivative and add_products against sympy

_ORACLE_ATOMS = ("t", "x", "u", "u_t", "u_x", "x^(-1)", "u_x^2", "exp(x)",
                 "exp(u - 2*t)", "lnabs(x)", "lnabs(u_x + 1)", "abs(u_x)^(1/3)",
                 "abs(x)^(-3/2)", "abs(u_x)^p", "(x + 1)^(1/2)", "f(x,u_x)",
                 "f_ux")
# oracle points avoid the poles and branch points of the atoms
_ORACLE_VALUES = tuple(sympy.Rational(*q) for q in
                       ((-7, 3), (-1, 2), (2, 5), (3, 2), (5, 7), (-4, 9)))


def _oracle_sums(ch, rng, n):
    """``n`` seeded random sums of 2-4 terms, each a rational coefficient
    times up to three of the oracle atoms."""
    atoms = [P(a, ch) for a in _ORACLE_ATOMS]
    return [add(*[mul(rat(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))),
                      *rng.sample(atoms, rng.randint(0, 3)))
                  for _ in range(rng.randint(2, 4))])
            for _ in range(n)]


def _sympy_agree(got, want, rng) -> str:
    """"expanded" where sympy expands ``got - want`` to zero; else "points",
    once the difference is exactly zero at three seeded rational points."""
    d = sympy.expand(got - want)
    if d == 0:
        return "expanded"
    for _ in range(3):
        point = {s: rng.choice(_ORACLE_VALUES) for s in d.free_symbols}
        assert sympy.expand(d.subs(point)) == 0, (got, want, point)
    return "points"


def test_derivations_match_sympy(ch):
    """diff, total_derivative and add_products agree with sympy on the
    printed text of 30 seeded random sums with rational coefficients, exp,
    lnabs, abs-powers, a root of a sum and the formal atom f(x,u_x) with
    its partial f_ux: diff by six symbols, both total derivatives, and 30
    sums of products of those sums with a constant.  sympy expands most
    differences to zero; the rest (abs-powers, whose sympy derivative
    holds sign) vanish exactly at rational points."""
    S = SympyText(ch)
    jets = S.jets("u", 2)
    rng = random.Random(2611)
    sums = _oracle_sums(ch, rng, 30)
    paths = []
    for e in sums:
        se = S(e)
        for name in ("t", "x", "u", "u_t", "u_x", "p"):
            paths.append(_sympy_agree(S(diff(e, ch.get(name))),
                                      sympy.diff(se, S.names[name]), rng))
        for d in "tx":
            paths.append(_sympy_agree(S(total_derivative(e, d, ch)),
                                      S.D(se, d, jets), rng))
    for _ in range(30):
        ps = [(rat(Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
               *rng.sample(sums, rng.randint(1, 2)))
              for _ in range(rng.randint(1, 3))]
        want = sympy.Add(*[sympy.Mul(*map(S, p)) for p in ps])
        paths.append(_sympy_agree(S(add_products(*ps)), want, rng))
    assert len(paths) == 270
    assert paths.count("expanded") > 150 and paths.count("points") > 10


def test_large_power_of_sum_refused(ch):
    """A power of a sum whose expansion would take more than
    MAX_EXPANSION_PRODUCTS term products raises; (1+x+u_x)^40 expands."""
    s = P("1 + x + u_x", ch)
    assert len(pow_(s, 40).terms) == 861
    with pytest.raises(ExpansionTooLarge):
        pow_(P("1 + u_x", ch), 10 ** 6)
    with pytest.raises(ExpansionTooLarge):
        pow_(s, 10 ** 100)


def test_large_rational_power_refused():
    """A rational power whose value would take more than
    MAX_EXPANSION_PRODUCTS bits raises, on the positive and negative integer
    paths, the exact-root path and the integer part of a fractional power;
    small ones and powers of 0 and 1 fold."""
    import time
    t0 = time.monotonic()
    for q, k in ((2, 10 ** 12), (Fraction(1, 2), -10 ** 12), (3, -10 ** 6),
                 (4, Fraction(10 ** 12 + 1, 2)), (2, Fraction(10 ** 12, 3))):
        with pytest.raises(ExpansionTooLarge):
            pow_(rat(q), k)
    assert time.monotonic() - t0 < 5
    assert pow_(rat(2), 1000) == rat(2 ** 1000)
    assert pow_(rat(-1), 10 ** 12) == pow_(rat(1), -10 ** 12) == rat(1)
    assert pow_(rat(0), 10 ** 12) == rat(0)
    assert pow_(rat(4), Fraction(3, 2)) == rat(8)
    # a root of a huge degree exists only for 1; 2^(1/10^12) stays a power
    assert pow_(rat(2), Fraction(1, 10 ** 12)) == Pow(rat(2), Fraction(1, 10 ** 12))


def test_rational_powers_of_rationals_canonical(ch):
    """A positive rational to a fractional power keeps integer bases with
    exponents in (0, 1), the rest in the coefficient, so equal products of
    powers of one base are equal trees; distinct integer bases would need
    factoring, and those stay undecided, never zero."""
    for text in ("2^(3/2) - 2*2^(1/2)", "2^(5/2) - 4*2^(1/2)",
                 "(1/2)^(3/2) - 2^(-3/2)", "(2/3)^(1/2) - 2^(1/2)*3^(-1/2)",
                 "(2^(1/2))^3 - 2^(1/2)*2^(1/2)*2^(1/2)"):
        assert P(text, ch) == rat(0), text
    assert is_zero(P("12^(1/2) - 2*3^(1/2)", ch)).verdict == \
        "undecided-after-sampling"
    rng = random.Random(113)
    atoms = [P(a, ch) for a in ("2^(1/2)", "(1/2)^(2/3)", "(3/4)^(-1/2)",
                                "x", "exp(x)", "delta", "abs(u_x)^(1/3)")]
    for _ in range(200):
        prod = mul(rat(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))),
                   *rng.sample(atoms, rng.randint(1, 4)))
        k = rng.randint(2, 5)
        assert pow_(prod, k) == mul(*[prod] * k), (to_str(prod), k)


def test_power_of_sum_equals_sequential_product(ch):
    """A power of a sum, one ``mul`` over ``k`` copies, equals ``k - 1``
    sequential products, for 300 random sums."""
    rng = random.Random(127)
    atoms = [P(a, ch) for a in _PRODUCT_ATOMS]
    tried = 0
    while tried < 300:
        s = _random_sums(ch, rng, atoms)[0]
        if not isinstance(s, Add):
            continue
        tried += 1
        k = rng.randint(2, 5)
        want = s
        for _ in range(k - 1):
            want = mul(want, s)
        assert pow_(s, k) == want, (to_str(s), k)


def test_constructor_fixpoint(spec, ch):
    """Random transcendental trees, the parsed catalog, the prolonged
    default ansatz and products of random sums are canonical at every
    node."""
    for e in _sample_trees(spec, ch):
        _assert_constructor_fixpoint(e)


def test_equal_trees_are_one_node(ch):
    """Constructors intern their nodes: an equal tree built along another
    path is the same object."""
    square = P("(x+1)^2", ch)
    x1 = P("x + 1", ch)
    assert square is mul(x1, x1) is pow_(P("1 + x", ch), 2)
    assert square is P("x^2 + 2*x + 1", ch)
    assert square is substitute(P("(t+1)^2", ch), {ch.get("t"): sym(ch.get("x"))})
    assert rat(Fraction(4, 2)) is rat(2) and type(rat(Fraction(4, 2)).q) is int


def test_diff_of_equal_trees_runs_once(ch, monkeypatch):
    """Two separately parsed equal trees are one node, so differentiating
    the second is a memo hit on the first."""
    seen = []
    real = expr_module._diff

    def counting(e, s):
        seen.append(e)
        return real(e, s)
    monkeypatch.setattr(expr_module, "_DIFF_CACHE", {})
    monkeypatch.setattr(expr_module, "_diff", counting)
    a = P("exp(x)*u_x^2 + f(x,u_x)", ch)
    b = P("f(x, u_x) + u_x^2*exp(x)", ch)
    assert a is b
    d = diff(a, ch.get("x"))
    assert sum(e is a for e in seen) == 1
    calls = len(seen)
    assert diff(b, ch.get("x")) is d and len(seen) == calls


def test_pickle_and_copy_keep_interning(spec, ch):
    for e in _sample_trees(spec, ch):
        assert pickle.loads(pickle.dumps(e)) is e, to_str(e)
        assert copy.deepcopy(e) is e and copy.copy(e) is e


def test_unpickled_in_another_hash_seed_is_interned(ch):
    """A tree pickled by processes with other string hash seeds unpickles to
    this process's node: symbols rebuild their hash where they land."""
    text = "x*u_x + exp(t) + f(x,u_x)"
    code = ("import pickle, sys; from wavesym.detsys import ClassSpec; "
            "from wavesym.parse import parse; sys.stdout.buffer.write("
            f"pickle.dumps(parse({text!r}, ClassSpec.default().chart)))")
    for seed in ("1", "2"):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             env=dict(os.environ, PYTHONHASHSEED=seed),
                             check=True, timeout=120).stdout
        assert pickle.loads(out) is P(text, ch)


def _subst_reference(e, table):
    """Substitution that rebuilds every node through its constructor."""
    if e in table:
        return table[e]
    return _rebuild(e, [_subst_reference(c, table) for c in _children(e)])


def test_substitute_unbound_returns_input(ch):
    e = P("exp(x)*u_x^2 + lnabs(t + u)*f(x,u_x)", ch)
    assert substitute(e, {ch.get("u_t"): rat(3)}) is e
    assert substitute(e, {}) is e


def test_substitute_shares_untouched_terms(ch):
    e = P("x*u + exp(t) + u_x^2 + f(x,u_x)", ch)
    got = substitute(e, {ch.get("u"): rat(2)})
    assert got == P("2*x + exp(t) + u_x^2 + f(x,u_x)", ch)
    untouched = [t for t in e.terms if ch.get("u") not in free_symbols(t)]
    assert len(untouched) == 3
    assert all(any(g is t for g in got.terms) for t in untouched)


def test_substitute_matches_rebuilding_reference(spec, ch):
    """On the random trees, with random bindings of one or two symbols, the
    sharing substitution equals one that rebuilds every node."""
    rng = random.Random(103)
    values = [rat(0), rat(2), rat(Fraction(-1, 3)), P("x + 1", ch),
              P("t*u", ch), P("exp(u_x)", ch), P("u_t^2 - x", ch)]
    checked = 0  # trees the bindings change
    for e in itertools.islice(_sample_trees(spec, ch), 200):
        free = sorted(free_symbols(e), key=lambda s: s.name)
        bound = rng.sample(free, min(len(free), rng.randint(1, 2)))
        bindings = {s: rng.choice(values) for s in bound}
        try:
            want = _subst_reference(e, {sym(s): v for s, v in bindings.items()})
        except SingularValue:
            with pytest.raises(SingularValue):
                substitute(e, bindings)
            continue
        got = substitute(e, bindings)
        assert got == want, to_str(e)
        checked += got is not e
    assert checked > 100


def _stored_rational(n):
    if isinstance(n, Rat):
        return n.q
    if isinstance(n, Mul):
        return n.coef
    if isinstance(n, Pow):
        return n.exp
    return None


def test_stored_rationals_int_when_integral(spec, ch):
    """Every stored rational is an int, or a Fraction that is not integral:
    never a float and never an integral Fraction."""
    for e in _sample_trees(spec, ch):
        stack = [e]
        while stack:
            n = stack.pop()
            q = _stored_rational(n)
            if q is not None:
                assert type(q) is int or \
                    (type(q) is Fraction and q.denominator != 1), \
                    (to_str(n), repr(q))
            stack.extend(_children(n))


@pytest.mark.parametrize("base, k, want", [
    (2, -3, Fraction(1, 8)),
    (3, -2, Fraction(1, 9)),
    (Fraction(1, 2), -1, 2),
    (4, Fraction(1, 2), 2),
    (Fraction(4, 9), Fraction(-1, 2), Fraction(3, 2)),
    (Fraction(8, 27), Fraction(2, 3), Fraction(4, 9)),
])
def test_rational_powers_exact(base, k, want):
    got = pow_(rat(base), k)
    assert got == rat(want)
    assert isinstance(got, Rat) and type(got.q) is type(want)


def test_evaluate_returns_fraction(ch):
    """x^-2 * u evaluates exactly, as a Fraction even where it is integral."""
    x, u = ch.get("x"), ch.get("u")
    e = mul(pow_(sym(x), -2), sym(u))
    for xv, uv, want in ((3, 5, Fraction(5, 9)), (1, 3, Fraction(3)),
                         (Fraction(1, 2), 2, Fraction(8))):
        got = evaluate(e, {x: rat(xv), u: rat(uv)})
        assert type(got) is Fraction and got == want


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

"""Exact symbolic expression core.

Expressions are immutable trees over symbols, exact rational constants and a
small set of node kinds: n-ary sums, n-ary products with one rational
coefficient, rational powers, exp, ln-of-abs, abs-powers |e|^q with possibly
symbolic exponent, and applications of function symbols carrying a formal
partial-derivative multi-index.

Every constructor returns the canonical normal form: sums of products with
merged powers, sorted deterministically, with the constraint rewrites for
marked parameters (square-one, idempotent) applied.  All arithmetic is exact;
no floating point ever enters a stored tree.

The invariant is enforced once, at construction: raw node classes are built
only inside this module, every tree that leaves it is canonical, and there is
no re-normalization pass.  ``iter_terms`` is the one way to read a canonical
expression back as (coefficient, factors) terms.

Stored rationals (``Rat.q``, ``Mul.coef``, ``Pow.exp``) are ``int`` when
integral and ``Fraction`` (denominator > 1) otherwise; the node constructors
apply this through ``_q``.  Nearly every rational in a tree is a small
integer, so the constructors' coefficient and exponent arithmetic runs as
native ``int`` operations instead of ``fractions.py`` calls.  An ``int`` and
the equal ``Fraction`` compare and hash alike and print the same, so keys,
term order and report text do not depend on the representation.  Where a
power could leave the rationals (``int ** -n`` is a float), the value is
lifted to ``Fraction`` first, and ``evaluate`` always returns a ``Fraction``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence, Union

Rational = Union[int, Fraction]


def _q(v) -> Rational:
    """The stored form of a rational: ``int`` when integral, else ``Fraction``."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


# ---------------------------------------------------------------------------
# symbols

INDEPENDENT = "independent"
DEPENDENT = "dependent"
JET = "jet"
PARAMETER = "parameter"
COORDINATE = "coordinate"
FUNCTION = "function"
UNKNOWN = "unknown"


class Symbol:
    """A named atom: variable, jet coordinate, parameter or function symbol.

    ``dep``/``index`` identify jet coordinates (dependent name and the
    (n_t, n_x) derivative multi-index).  ``arg_names`` lists the declared
    arguments of a function symbol.  Flag attributes record algebraic side
    conditions used by the constructors and by the sampling oracle.
    """

    __slots__ = ("name", "kind", "dep", "index", "arg_names",
                 "square_one", "idempotent", "positive", "nonzero", "_h")

    def __init__(self, name, kind, dep=None, index=None, arg_names=None,
                 square_one=False, idempotent=False, positive=False, nonzero=False):
        self.name = name
        self.kind = kind
        self.dep = dep
        self.index = index
        self.arg_names = tuple(arg_names) if arg_names else None
        self.square_one = square_one
        self.idempotent = idempotent
        self.positive = positive
        self.nonzero = nonzero
        self._h = hash(self._id())

    def _id(self):
        # flags are part of the identity: a positive-marked x is a different
        # atom (with different folding semantics) than an unsigned one
        return (self.name, self.kind, self.dep, self.index, self.arg_names,
                self.square_one, self.idempotent, self.positive, self.nonzero)

    def __eq__(self, other):
        return isinstance(other, Symbol) and self._id() == other._id()

    def __hash__(self):
        return self._h

    def __repr__(self):
        return f"Symbol({self.name!r})"

    @property
    def order(self):
        return sum(self.index) if self.index else 0


def jet_name(dep: str, nt: int, nx: int) -> str:
    if nt == 0 and nx == 0:
        return dep
    return dep + "_" + "t" * nt + "x" * nx


class Chart:
    """Symbol table: independents (t,x), dependent variables with jets up to
    a cap, parameters, coordinates and function symbols."""

    def __init__(self, jet_cap: int = 4):
        self.jet_cap = jet_cap
        self.symbols: dict[str, Symbol] = {}
        self.independents: list[Symbol] = []
        self.dependents: list[Symbol] = []

    def _register(self, s: Symbol) -> Symbol:
        if s.name in self.symbols:
            raise ValueError(f"symbol {s.name!r} already declared")
        self.symbols[s.name] = s
        return s

    def independent(self, name: str, **flags) -> Symbol:
        s = self._register(Symbol(name, INDEPENDENT, **flags))
        self.independents.append(s)
        return s

    def dependent(self, name: str) -> Symbol:
        s = self._register(Symbol(name, DEPENDENT, dep=name, index=(0, 0)))
        self.dependents.append(s)
        return s

    def jet(self, dep: str, nt: int, nx: int) -> Symbol:
        if nt == 0 and nx == 0:
            return self.symbols[dep]
        if nt + nx > self.jet_cap:
            raise JetOrderError(f"jet order {nt + nx} exceeds cap {self.jet_cap}")
        name = jet_name(dep, nt, nx)
        s = self.symbols.get(name)
        if s is None:
            s = self.symbols[name] = Symbol(name, JET, dep=dep, index=(nt, nx))
        return s

    def parameter(self, name: str, **flags) -> Symbol:
        return self._register(Symbol(name, PARAMETER, **flags))

    def coordinate(self, name: str, **flags) -> Symbol:
        return self._register(Symbol(name, COORDINATE, **flags))

    def function(self, name: str, arg_names: Sequence[str],
                 kind: str = FUNCTION, **flags) -> Symbol:
        return self._register(Symbol(name, kind, arg_names=arg_names, **flags))

    def get(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise UnknownIdentifier(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self.symbols


class JetOrderError(ValueError):
    pass


class UnknownIdentifier(Exception):
    pass


class NotPolynomial(Exception):
    pass


class SingularValue(Exception):
    pass


class InconsistentBindings(Exception):
    pass


# ---------------------------------------------------------------------------
# expression nodes

class Expr:
    __slots__ = ("_h", "_k")

    def key(self):
        k = self._k
        if k is None:
            k = self._k = self._key()
        return k

    def __hash__(self):
        h = self._h
        if h is None:
            h = self._h = hash(self.key())
        return h

    def __eq__(self, other):
        return self is other or (isinstance(other, Expr) and self.key() == other.key())

    def __repr__(self):
        from .printer import to_str
        return to_str(self)

    # arithmetic sugar (used heavily by tests and callers)
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add(self, mul(rat(-1), _coerce(other)))

    def __rsub__(self, other):
        return add(_coerce(other), mul(rat(-1), self))

    def __mul__(self, other):
        return mul(self, _coerce(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return mul(self, pow_(_coerce(other), -1))

    def __rtruediv__(self, other):
        return mul(_coerce(other), pow_(self, -1))

    def __pow__(self, e):
        return pow_(self, e)

    def __neg__(self):
        return mul(rat(-1), self)


def _coerce(v) -> "Expr":
    if isinstance(v, Expr):
        return v
    if isinstance(v, (int, Fraction)):
        return rat(v)
    if isinstance(v, Symbol):
        return sym(v)
    raise TypeError(f"cannot coerce {v!r} to Expr")


class Rat(Expr):
    __slots__ = ("q",)

    def __init__(self, q: Rational):
        self.q = _q(q)
        self._h = None
        self._k = None

    def _key(self):
        return (0, self.q)


class Sym(Expr):
    __slots__ = ("s",)

    def __init__(self, s: Symbol):
        self.s = s
        self._h = None
        self._k = None

    def _key(self):
        return (1,) + self.s._id()


class App(Expr):
    """Application of a function symbol, with formal partial multi-index.

    ``didx[i]`` counts derivatives with respect to the i-th declared argument
    slot; mixed partials are symmetric by construction.
    """

    __slots__ = ("fn", "didx", "args")

    def __init__(self, fn: Symbol, didx: tuple, args: tuple):
        self.fn = fn
        self.didx = didx
        self.args = args
        self._h = None
        self._k = None

    def _key(self):
        return (2, self.fn._id(), self.didx, tuple(a.key() for a in self.args))


class Pow(Expr):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Rational):
        self.base = base
        self.exp = _q(exp)
        self._h = None
        self._k = None

    def _key(self):
        return (3, self.base.key(), self.exp)


class AbsPow(Expr):
    """|base|^exp with possibly symbolic exponent; base assumed nonvanishing."""

    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: Expr):
        self.base = base
        self.exp = exp
        self._h = None
        self._k = None

    def _key(self):
        return (4, self.base.key(), self.exp.key())


class ExpF(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._h = None
        self._k = None

    def _key(self):
        return (5, self.arg.key())


class LnAbs(Expr):
    __slots__ = ("arg",)

    def __init__(self, arg: Expr):
        self.arg = arg
        self._h = None
        self._k = None

    def _key(self):
        return (6, self.arg.key())


class Mul(Expr):
    """coef * f1 * f2 * ...; factors sorted, merged, never Mul/Rat."""

    __slots__ = ("coef", "factors")

    def __init__(self, coef: Rational, factors: tuple):
        self.coef = _q(coef)
        self.factors = factors
        self._h = None
        self._k = None

    def _key(self):
        return (7, tuple(f.key() for f in self.factors), self.coef)


class Add(Expr):
    __slots__ = ("terms",)

    def __init__(self, terms: tuple):
        self.terms = terms
        self._h = None
        self._k = None

    def _key(self):
        return (8, tuple(t.key() for t in self.terms))


ZERO: Expr
ONE: Expr
MINUS_ONE: Expr


# ---------------------------------------------------------------------------
# smart constructors

def rat(q: Rational) -> Expr:
    return Rat(q)


def sym(s: Symbol) -> Expr:
    return Sym(s)


def app(fn: Symbol, didx: Sequence[int], args: Sequence[Expr]) -> Expr:
    if fn.arg_names is None or len(fn.arg_names) != len(args):
        raise ValueError(f"arity mismatch for {fn.name}")
    if len(didx) != len(args):
        raise ValueError(f"bad derivative index for {fn.name}")
    return App(fn, tuple(int(i) for i in didx), tuple(args))


def is_positive(e: Expr) -> bool:
    """Conservative positivity: True only when provable from structure/marks."""
    if isinstance(e, Rat):
        return e.q > 0
    if isinstance(e, Sym):
        return e.s.positive
    if isinstance(e, (ExpF, AbsPow)):
        return True
    if isinstance(e, Pow):
        return is_positive(e.base) or e.exp.denominator == 1 and e.exp % 2 == 0 and provably_nonzero(e.base)
    if isinstance(e, Mul):
        return e.coef > 0 and all(is_positive(f) for f in e.factors)
    if isinstance(e, Add):
        return all(is_positive(t) for t in e.terms)
    return False


def provably_nonzero(e: Expr) -> bool:
    """Conservative nonvanishing: True only when provable from structure/marks."""
    if isinstance(e, Rat):
        return e.q != 0
    if isinstance(e, Sym):
        return e.s.nonzero or e.s.positive
    if isinstance(e, App):
        return e.fn.nonzero
    if isinstance(e, Pow):
        return provably_nonzero(e.base)
    if isinstance(e, Mul):
        return e.coef != 0 and all(provably_nonzero(f) for f in e.factors)
    return isinstance(e, (ExpF, AbsPow))


def add(*parts: Expr) -> Expr:
    const = 0
    acc: dict = {}   # factor-tuple -> coefficient

    def put(coef: Rational, factors: tuple):
        nonlocal const
        if not factors:
            const += coef
            return
        cur = acc.get(factors)
        acc[factors] = coef if cur is None else cur + coef

    stack = list(parts)
    while stack:
        e = stack.pop()
        if isinstance(e, Add):
            stack.extend(e.terms)
        elif isinstance(e, Rat):
            const += e.q
        elif isinstance(e, Mul):
            put(e.coef, e.factors)
        else:
            put(1, (e,))

    terms = []
    for factors, coef in acc.items():
        if coef == 0:
            continue
        if coef == 1 and len(factors) == 1:
            terms.append(factors[0])
        else:
            terms.append(Mul(coef, factors))
    if const != 0:
        terms.append(Rat(const))
    if not terms:
        return Rat(0)
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=lambda t: t.key())
    return Add(tuple(terms))


def _constraint_fold(base: Expr, k: Rational):
    """Apply square-one / idempotent parameter rewrites to integer powers."""
    if isinstance(base, Sym) and k.denominator == 1:
        n = k.numerator
        if base.s.square_one:
            return base, n % 2
        if base.s.idempotent and n > 0:
            return base, 1
    return base, k


def mul(*parts: Expr, _depth: int = 0) -> Expr:
    if _depth > 24:
        raise RuntimeError("mul normalization did not reach a fixpoint")
    coef = 1
    pow_acc: dict = {}    # base Expr -> rational exponent
    abs_acc: dict = {}    # base Expr -> list of exponent Exprs
    exp_args: list = []   # summands of a single exp() factor
    adds: list = []       # Add factors to distribute at the end

    work = list(parts)
    while work:
        e = work.pop()
        if isinstance(e, Rat):
            coef *= e.q
        elif isinstance(e, Mul):
            coef *= e.coef
            work.extend(e.factors)
        elif isinstance(e, ExpF):
            exp_args.append(e.arg)
        elif isinstance(e, Pow):
            pow_acc[e.base] = pow_acc.get(e.base, 0) + e.exp
        elif isinstance(e, AbsPow):
            abs_acc.setdefault(e.base, []).append(e.exp)
        elif isinstance(e, Add):
            adds.append(e)
        else:
            pow_acc[e] = pow_acc.get(e, 0) + 1

    if coef == 0:
        return Rat(0)

    # rebuild merged factors; a rebuild may itself reduce (rational folds,
    # even abs-powers, exp/ln extraction), in which case run another pass
    factors = []
    redo = []
    for base, k in pow_acc.items():
        # base^1 is base itself unless it must be flattened or distributed
        if k == 1 and not isinstance(base, (Rat, Mul, Add)):
            factors.append(base)
            continue
        base, k = _constraint_fold(base, k)
        if k == 0:
            continue
        p = pow_(base, k)
        if (isinstance(p, Pow) and p.base == base) or \
                (k == 1 and p == base and not isinstance(p, (Rat, Mul, Add))):
            factors.append(p)
        else:
            redo.append(p)
    for base, exps in abs_acc.items():
        q = add(*exps)
        a = abspow(base, q)
        if isinstance(a, AbsPow) and a.base == base:
            factors.append(a)
        else:
            redo.append(a)
    if exp_args:
        x = exp_(add(*exp_args))
        if isinstance(x, ExpF):
            factors.append(x)
        else:
            redo.append(x)

    if redo:
        return mul(Rat(coef), *factors, *redo, *adds, _depth=_depth + 1)

    if not adds:
        if not factors:
            return Rat(coef)
        if coef == 1 and len(factors) == 1:
            return factors[0]
        factors.sort(key=lambda f: f.key())
        return Mul(coef, tuple(factors))

    # distribute products over sums (full expansion)
    head = Mul(1, tuple(sorted(factors, key=lambda f: f.key()))) \
        if factors else Rat(1)
    result_terms = [mul(Rat(coef), head)] if factors else [Rat(coef)]
    for a in adds:
        if isinstance(a, Add):
            result_terms = [mul(t, s) for t in result_terms for s in a.terms]
        else:
            result_terms = [mul(t, a) for t in result_terms]
    return add(*result_terms)


def pow_(base: Expr, exp) -> Expr:
    if isinstance(exp, Expr):
        if isinstance(exp, Rat):
            exp = exp.q
        else:
            # symbolic exponents exist only on abs-powers (or positive bases)
            if is_positive(base) or isinstance(base, (ExpF, AbsPow)):
                return abspow(base, exp)
            raise ValueError(
                "symbolic exponent on a base of unknown sign; use abspow()")
    k = _q(exp)
    if k == 0:
        return Rat(1)
    if k == 1:
        return base
    if isinstance(base, Rat):
        q = base.q
        if k.denominator == 1:
            if k > 0:
                return Rat(q ** k)
            if q == 0:
                raise SingularValue("0 raised to a negative power")
            return Rat(Fraction(q) ** k)
        if q == 0:
            return Rat(0) if k > 0 else _raise_singular()
        if q > 0:
            root = _exact_root(q, k)
            if root is not None:
                return Rat(root)
        return Pow(base, k)
    if isinstance(base, Pow):
        if k.denominator == 1 or is_positive(base.base):
            return pow_(base.base, base.exp * k)
        return Pow(base, k)
    if isinstance(base, AbsPow):
        return abspow(base.base, mul(base.exp, rat(k)))
    if isinstance(base, ExpF):
        return exp_(mul(base.arg, rat(k)))
    if isinstance(base, Mul):
        if k.denominator == 1 or (base.coef > 0 and all(is_positive(f) for f in base.factors)):
            return mul(pow_(Rat(base.coef), k), *[pow_(f, k) for f in base.factors])
        return Pow(base, k)
    if isinstance(base, Add):
        if k.denominator == 1 and k > 0:
            out = base
            for _ in range(int(k) - 1):
                out = mul(out, base)
            return out
        return Pow(base, k)
    if isinstance(base, Sym):
        base2, k2 = _constraint_fold(base, k)
        if k2 == 0:
            return Rat(1)
        if k2 == 1:
            return base2
        return Pow(base2, k2)
    return Pow(base, k)


def _raise_singular():
    raise SingularValue("0 raised to a negative power")


def _exact_root(q: Rational, k: Fraction) -> Optional[Fraction]:
    """q**k as an exact Fraction when q > 0 is a perfect power, else None."""
    n, d = k.numerator, k.denominator

    def iroot(m: int, r: int) -> Optional[int]:
        if m == 1:
            return 1
        lo, hi = 1, m
        while lo <= hi:
            mid = (lo + hi) // 2
            v = mid ** r
            if v == m:
                return mid
            if v < m:
                lo = mid + 1
            else:
                hi = mid - 1
        return None

    rn = iroot(q.numerator, d)
    rd = iroot(q.denominator, d)
    if rn is None or rd is None:
        return None
    return Fraction(rn, rd) ** n


def abspow(base: Expr, exp) -> Expr:
    exp = _coerce(exp)
    if isinstance(exp, Rat) and exp.q == 0:
        return Rat(1)
    if isinstance(base, Rat):
        if base.q == 0:
            raise SingularValue("|0|^q")
        aq = abs(base.q)
        if isinstance(exp, Rat):
            return pow_(Rat(aq), exp.q)
        if aq == 1:
            return Rat(1)
        return AbsPow(Rat(aq), exp)
    if isinstance(base, Mul):
        parts = [abspow(Rat(base.coef), exp)]
        parts += [abspow(f, exp) for f in base.factors]
        return mul(*parts)
    if isinstance(base, Pow):
        return abspow(base.base, mul(exp, rat(base.exp)))
    if isinstance(base, AbsPow):
        return abspow(base.base, mul(base.exp, exp))
    if isinstance(base, ExpF):
        return exp_(mul(base.arg, exp))
    if is_positive(base):
        if isinstance(exp, Rat):
            return pow_(base, exp.q)
        return AbsPow(base, exp)
    if isinstance(exp, Rat):
        q = exp.q
        even = 2 * (q.numerator // (2 * q.denominator))
        frac = q - even
        if frac == 0:
            return pow_(base, even)
        if even == 0:
            return AbsPow(base, Rat(frac))
        return mul(pow_(base, even), AbsPow(base, Rat(frac)))
    return AbsPow(base, exp)


def exp_(a: Expr) -> Expr:
    a = _coerce(a)
    if isinstance(a, Rat) and a.q == 0:
        return Rat(1)
    # pull out q*lnabs(b) summands: exp(q ln|b|) = |b|^q
    terms = a.terms if isinstance(a, Add) else (a,)
    keep = []
    pulled = []
    for t in terms:
        ln_factor = None
        rest_coef = 1
        rest = []
        if isinstance(t, LnAbs):
            ln_factor = t
        elif isinstance(t, Mul):
            lns = [f for f in t.factors if isinstance(f, LnAbs)]
            if len(lns) == 1:
                ln_factor = lns[0]
                rest_coef = t.coef
                rest = [f for f in t.factors if f is not ln_factor]
        if ln_factor is None:
            keep.append(t)
        else:
            q = mul(Rat(rest_coef), *rest) if rest else Rat(rest_coef)
            pulled.append(abspow(ln_factor.arg, q))
    if not pulled:
        return ExpF(a)
    rest_sum = add(*keep) if keep else Rat(0)
    parts = pulled
    if not (isinstance(rest_sum, Rat) and rest_sum.q == 0):
        parts = pulled + [ExpF(rest_sum)]
    return mul(*parts)


def lnabs(a: Expr) -> Expr:
    a = _coerce(a)
    if isinstance(a, Rat):
        if a.q == 0:
            raise SingularValue("ln|0|")
        if abs(a.q) == 1:
            return Rat(0)
        return LnAbs(Rat(abs(a.q)))
    if isinstance(a, Mul):
        parts = [lnabs(Rat(a.coef))] if abs(a.coef) != 1 else []
        parts += [lnabs(f) for f in a.factors]
        return add(*parts) if parts else Rat(0)
    if isinstance(a, Pow):
        return mul(rat(a.exp), lnabs(a.base))
    if isinstance(a, AbsPow):
        return mul(a.exp, lnabs(a.base))
    if isinstance(a, ExpF):
        return a.arg
    return LnAbs(a)


ZERO = rat(0)
ONE = rat(1)
MINUS_ONE = rat(-1)


# ---------------------------------------------------------------------------
# structural queries

def iter_terms(e: Expr):
    """Yield ``(coef, factors)`` for each term of canonical ``e``.

    A constant term gives ``(q, ())``, a product its coefficient and its
    key-sorted factor tuple, any other node ``(1, (node,))``.
    """
    for t in (e.terms if isinstance(e, Add) else (e,)):
        if isinstance(t, Mul):
            yield t.coef, t.factors
        elif isinstance(t, Rat):
            yield t.q, ()
        else:
            yield 1, (t,)


def _nodes(e: Expr) -> list:
    """Every node of ``e``, parents before their children."""
    nodes = [e]
    for n in nodes:     # the list grows under the loop
        if isinstance(n, (Sym, Rat)):
            continue
        if isinstance(n, Mul):
            nodes.extend(n.factors)
        elif isinstance(n, Add):
            nodes.extend(n.terms)
        elif isinstance(n, App):
            nodes.extend(n.args)
        elif isinstance(n, Pow):
            nodes.append(n.base)
        elif isinstance(n, AbsPow):
            nodes.append(n.base)
            nodes.append(n.exp)
        elif isinstance(n, (ExpF, LnAbs)):
            nodes.append(n.arg)
    return nodes


def free_symbols(e: Expr) -> set:
    """The symbols of ``e``, function symbols included."""
    out = set()
    for n in _nodes(e):
        if isinstance(n, Sym):
            out.add(n.s)
        elif isinstance(n, App):
            out.add(n.fn)
    return out


def contains_symbol(e: Expr, s: Symbol) -> bool:
    return s in free_symbols(e)


def atoms(e: Expr) -> set:
    """All App atoms occurring in ``e`` (function applications, any didx)."""
    return {n for n in _nodes(e) if isinstance(n, App)}


# ---------------------------------------------------------------------------
# differentiation

_DIFF_CACHE: dict = {}


def diff(e: Expr, s: Symbol) -> Expr:
    """Exact partial derivative with respect to a symbol.

    Function symbols differentiate to formal partials by the chain rule over
    their argument expressions; |e|^q differentiates under the recorded
    nonvanishing assumption of its base.
    """
    key = (e, s)
    hit = _DIFF_CACHE.get(key)
    if hit is not None:
        return hit
    out = _diff(e, s)
    _DIFF_CACHE[key] = out
    return out


def _diff(e: Expr, s: Symbol) -> Expr:
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.s == s else ZERO
    if isinstance(e, App):
        parts = []
        for i, a in enumerate(e.args):
            da = diff(a, s)
            if isinstance(da, Rat) and da.q == 0:
                continue
            didx = list(e.didx)
            didx[i] += 1
            parts.append(mul(App(e.fn, tuple(didx), e.args), da))
        return add(*parts) if parts else ZERO
    if isinstance(e, Pow):
        db = diff(e.base, s)
        if isinstance(db, Rat) and db.q == 0:
            return ZERO
        return mul(rat(e.exp), pow_(e.base, e.exp - 1), db)
    if isinstance(e, AbsPow):
        db = diff(e.base, s)
        dq = diff(e.exp, s)
        parts = []
        if not (isinstance(db, Rat) and db.q == 0):
            parts.append(mul(e.exp, e, pow_(e.base, -1), db))
        if not (isinstance(dq, Rat) and dq.q == 0):
            parts.append(mul(e, lnabs(e.base), dq))
        return add(*parts) if parts else ZERO
    if isinstance(e, ExpF):
        da = diff(e.arg, s)
        if isinstance(da, Rat) and da.q == 0:
            return ZERO
        return mul(e, da)
    if isinstance(e, LnAbs):
        da = diff(e.arg, s)
        if isinstance(da, Rat) and da.q == 0:
            return ZERO
        return mul(pow_(e.arg, -1), da)
    if isinstance(e, Mul):
        parts = []
        for i, f in enumerate(e.factors):
            df = diff(f, s)
            if isinstance(df, Rat) and df.q == 0:
                continue
            rest = e.factors[:i] + e.factors[i + 1:]
            parts.append(mul(Rat(e.coef), df, *rest))
        return add(*parts) if parts else ZERO
    if isinstance(e, Add):
        return add(*[diff(t, s) for t in e.terms])
    raise TypeError(type(e))


def total_derivative(e: Expr, direction: str, chart: Chart) -> Expr:
    """Total derivative D_t or D_x on the jet space of ``chart``.

    Jet variables are promoted by one order; exceeding the chart's jet cap
    raises JetOrderError.
    """
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")
    di = (1, 0) if direction == "t" else (0, 1)
    dir_sym = chart.get(direction)
    parts = [diff(e, dir_sym)]
    for s in free_symbols(e):
        if s.kind in (DEPENDENT, JET):
            nt, nx = s.index
            promoted = chart.jet(s.dep, nt + di[0], nx + di[1])
            d = diff(e, s)
            if not (isinstance(d, Rat) and d.q == 0):
                parts.append(mul(sym(promoted), d))
    return add(*parts)


# ---------------------------------------------------------------------------
# substitution

def substitute(e: Expr, bindings: Mapping, chart: Optional[Chart] = None) -> Expr:
    """Simultaneous substitution; keys are Symbols or atom Exprs (Sym/App).

    When a jet variable is bound and ``e`` contains one of its total
    derivatives, the needed binding is derived by total differentiation of
    the given one (requires ``chart``).
    """
    table: dict = {}
    for k, v in bindings.items():
        if isinstance(k, Symbol):
            table[Sym(k)] = _coerce(v)
        else:
            table[k] = _coerce(v)

    if chart is not None:
        jet_binds = {k.s: v for k, v in table.items()
                     if isinstance(k, Sym) and k.s.kind in (JET, DEPENDENT)}
        if jet_binds:
            for s in sorted(free_symbols(e), key=lambda s: s.name):
                if s.kind not in (JET, DEPENDENT) or Sym(s) in table:
                    continue
                for base_sym, val in sorted(jet_binds.items(), key=lambda kv: kv[0].name):
                    if s.dep != base_sym.dep:
                        continue
                    dt = s.index[0] - base_sym.index[0]
                    dx = s.index[1] - base_sym.index[1]
                    if dt >= 0 and dx >= 0 and (dt, dx) != (0, 0):
                        d = val
                        for _ in range(dt):
                            d = total_derivative(d, "t", chart)
                        for _ in range(dx):
                            d = total_derivative(d, "x", chart)
                        table[Sym(s)] = d
                        break

    out = _subst(e, table)
    if chart is not None:
        # on-shell substitution: a bound jet surviving (or resurfacing through
        # the derived bindings) means the binding set was inconsistent
        for k in table:
            if isinstance(k, Sym) and k.s.kind in (JET, DEPENDENT) \
                    and contains_symbol(out, k.s):
                raise InconsistentBindings(
                    f"bound jet {k.s.name} reappears after substitution")
    return out


def _subst(e: Expr, table: Mapping) -> Expr:
    """``e`` with the bound atoms replaced.  A node whose children all come
    back as the same objects is returned itself: the constructors' fixpoint
    invariant makes the rebuild equal to it."""
    hit = table.get(e)
    if hit is not None:
        return hit
    if isinstance(e, (Rat, Sym)):
        return e
    if isinstance(e, App):
        args = tuple(_subst(a, table) for a in e.args)
        return e if _same(args, e.args) else App(e.fn, e.didx, args)
    if isinstance(e, Pow):
        base = _subst(e.base, table)
        return e if base is e.base else pow_(base, e.exp)
    if isinstance(e, AbsPow):
        base, ex = _subst(e.base, table), _subst(e.exp, table)
        return e if base is e.base and ex is e.exp else abspow(base, ex)
    if isinstance(e, ExpF):
        arg = _subst(e.arg, table)
        return e if arg is e.arg else exp_(arg)
    if isinstance(e, LnAbs):
        arg = _subst(e.arg, table)
        return e if arg is e.arg else lnabs(arg)
    if isinstance(e, Mul):
        factors = [_subst(f, table) for f in e.factors]
        return e if _same(factors, e.factors) else mul(Rat(e.coef), *factors)
    if isinstance(e, Add):
        terms = [_subst(t, table) for t in e.terms]
        return e if _same(terms, e.terms) else add(*terms)
    raise TypeError(type(e))


def _same(new: Sequence[Expr], old: Sequence[Expr]) -> bool:
    return all(a is b for a, b in zip(new, old))


# ---------------------------------------------------------------------------
# collection

def collect(e: Expr, variables: Sequence[Symbol]) -> dict:
    """Split ``e`` = sum(monomial * coefficient) over monomials in ``variables``.

    Coefficients are free of the listed variables; raises NotPolynomial if a
    variable occurs with a non-polynomial dependence (negative power, or
    buried inside a function argument / transcendental node).
    """
    vset = set(variables)
    out: dict = {}
    for coef, factors in iter_terms(e):
        mono = []
        rest = []
        for f in factors:
            base, k = (f.base, f.exp) if isinstance(f, Pow) else (f, 1)
            if isinstance(base, Sym) and base.s in vset:
                if k.denominator != 1 or k < 0:
                    raise NotPolynomial(f"{base.s.name} appears with exponent {k}")
                mono.append(f)
            else:
                for s in free_symbols(f):
                    if s in vset:
                        raise NotPolynomial(
                            f"{s.name} occurs in a non-polynomial position")
                rest.append(f)
        key = mul(*mono) if mono else ONE
        val = mul(Rat(coef), *rest) if rest else Rat(coef)
        out[key] = add(out[key], val) if key in out else val
    return {k: v for k, v in out.items() if not (isinstance(v, Rat) and v.q == 0)}


# ---------------------------------------------------------------------------
# zero testing

ZERO_V = "zero"
NONZERO_V = "nonzero"
UNDECIDED_V = "undecided-after-sampling"


@dataclass
class ZeroResult:
    verdict: str
    samples: int = 0
    detail: str = ""

    def __bool__(self):
        return self.verdict == ZERO_V


def _clear_denominators(e: Expr) -> Expr:
    """Multiply through by sum-based denominators (nonzero by assumption);
    sound for zero testing only."""
    for _ in range(6):
        if not isinstance(e, (Add, Mul, Pow)):
            return e
        need: dict = {}
        terms = list(iter_terms(e))
        for _, factors in terms:
            for f in factors:
                if isinstance(f, Pow) and f.exp < 0 and isinstance(f.base, Add):
                    cur = need.get(f.base, 0)
                    need[f.base] = max(cur, -f.exp)
        if not need:
            return e
        # multiply term by term with raw Pow nodes so each denominator merges
        # with its clearing factor before positive sum-powers expand
        mults = [Pow(b, k) for b, k in need.items()]
        e = add(*[mul(Rat(coef), *factors, *mults) for coef, factors in terms])
    return e


def structurally_zero(e: Expr) -> bool:
    if isinstance(e, Rat) and e.q == 0:
        return True
    cleared = _clear_denominators(e)
    return isinstance(cleared, Rat) and cleared.q == 0


def _sample_value(s: Symbol, rng: random.Random) -> Fraction:
    if s.square_one:
        return Fraction(rng.choice((1, -1)))
    if s.idempotent:
        return Fraction(rng.choice((0, 1)))
    num = rng.randint(1, 1000)
    den = rng.randint(1, 1000)
    v = Fraction(num, den)
    if s.positive:
        return v
    return v if rng.random() < 0.5 else -v


class _Transcendental(Exception):
    pass


def _eval_fraction(e: Expr) -> Fraction:
    if isinstance(e, Rat):
        return Fraction(e.q)
    if isinstance(e, Pow):
        b = _eval_fraction(e.base)
        if e.exp.denominator != 1:
            raise _Transcendental()
        if b == 0 and e.exp < 0:
            raise SingularValue("pole")
        return b ** e.exp.numerator
    if isinstance(e, Mul):
        v = Fraction(e.coef)
        for f in e.factors:
            v *= _eval_fraction(f)
        return v
    if isinstance(e, Add):
        return sum((_eval_fraction(t) for t in e.terms), Fraction(0))
    if isinstance(e, (ExpF, LnAbs, AbsPow)):
        raise _Transcendental()
    raise _Transcendental()


def _iv_has_zero(v) -> bool:
    return v.a <= 0 <= v.b


def _eval_interval(e: Expr, iv):
    if isinstance(e, Rat):
        return iv.mpf(e.q.numerator) / iv.mpf(e.q.denominator)
    if isinstance(e, Pow):
        b = _eval_interval(e.base, iv)
        if _iv_has_zero(b) and e.exp < 0:
            raise SingularValue("pole interval")
        if e.exp.denominator == 1:
            return b ** e.exp.numerator
        if b.a > 0:
            return iv.exp(iv.log(b) * iv.mpf(e.exp.numerator) / iv.mpf(e.exp.denominator))
        raise SingularValue("fractional power of non-positive interval")
    if isinstance(e, AbsPow):
        b = abs(_eval_interval(e.base, iv))
        if _iv_has_zero(b):
            raise SingularValue("abs-power at zero")
        q = _eval_interval(e.exp, iv)
        return iv.exp(iv.log(b) * q)
    if isinstance(e, ExpF):
        return iv.exp(_eval_interval(e.arg, iv))
    if isinstance(e, LnAbs):
        a = abs(_eval_interval(e.arg, iv))
        if _iv_has_zero(a):
            raise SingularValue("ln|0|")
        return iv.log(a)
    if isinstance(e, Mul):
        v = iv.mpf(e.coef.numerator) / iv.mpf(e.coef.denominator)
        for f in e.factors:
            v = v * _eval_interval(f, iv)
        return v
    if isinstance(e, Add):
        v = iv.mpf(0)
        for t in e.terms:
            v = v + _eval_interval(t, iv)
        return v
    raise SingularValue(f"cannot evaluate node {type(e).__name__}")


def evaluate(e: Expr, env: Mapping) -> Fraction:
    """Exact rational evaluation (raises on transcendental nodes)."""
    bound = substitute(e, env)
    for a in atoms(bound):
        raise _Transcendental(f"unbound function atom {a!r}")
    return _eval_fraction(bound)


def is_zero(e: Expr) -> ZeroResult:
    """Decide zero-ness: canonical zero is authoritative; random rational
    sampling is a falsifier only ("undecided" is surfaced, never treated as
    zero)."""
    if isinstance(e, Rat):
        return ZeroResult(ZERO_V if e.q == 0 else NONZERO_V)
    cleared = _clear_denominators(e)
    if isinstance(cleared, Rat):
        return ZeroResult(ZERO_V if cleared.q == 0 else NONZERO_V)

    # seed from the canonical text so runs are bit-for-bit reproducible
    # (Python's built-in hash is randomized per process)
    import zlib
    from .printer import to_str
    rng = random.Random(0x5EED ^ zlib.crc32(to_str(e).encode()))
    syms = sorted(free_symbols(e), key=lambda s: s.name)
    base_syms = [s for s in syms if s.arg_names is None]

    tried = 0
    done = 0
    # 32 evaluated points, out of at most 128 tried (singular ones skipped)
    while done < 32 and tried < 128:
        tried += 1
        env = {s: rat(_sample_value(s, rng)) for s in base_syms}
        try:
            bound = substitute(e, env)
            atom_env = {}
            for a in sorted(atoms(bound), key=lambda a: a.key()):
                atom_env[a] = rat(_sample_value(a.fn, rng))
            bound = _subst(bound, atom_env)
            try:
                v = _eval_fraction(bound)
                if v != 0:
                    return ZeroResult(NONZERO_V, samples=done + 1)
            except _Transcendental:
                import mpmath
                iv = mpmath.iv
                old = iv.dps
                try:
                    iv.dps = 60
                    w = _eval_interval(bound, iv)
                finally:
                    iv.dps = old
                if not _iv_has_zero(w):
                    return ZeroResult(NONZERO_V, samples=done + 1)
            done += 1
        except SingularValue:
            continue
    if done == 0:
        return ZeroResult(UNDECIDED_V, samples=0,
                          detail="all sample points hit singularities")
    return ZeroResult(UNDECIDED_V, samples=done,
                      detail=f"{done} rational samples all evaluated to zero "
                             "on a non-canonical-zero form")


def equal(a: Expr, b: Expr) -> bool:
    """Exact (structural-after-clearing) equality of canonical forms."""
    return structurally_zero(add(a, mul(MINUS_ONE, b)))

"""Exact symbolic expression core.

Expressions are immutable trees over symbols, exact rational constants and a
small set of node kinds: n-ary sums, n-ary products with one rational
coefficient, rational powers, exp, ln-of-abs, abs-powers |e|^q with possibly
symbolic exponent, and applications of function symbols carrying a formal
partial-derivative multi-index.

Every constructor returns the canonical normal form: sums of products with
merged powers, sorted deterministically, with the constraint rewrites for
marked parameters (square-one, idempotent) applied, and fractional powers of
rationals over integer bases with exponents in (0, 1).  All arithmetic is
exact; no floating point ever enters a stored tree.

The invariant is enforced once, at construction: raw node classes are built
only inside this module, every tree that leaves it is canonical, and there is
no re-normalization pass.  ``iter_terms`` is the one way to read a canonical
expression back as (coefficient, factors) terms.

Nodes are interned: a constructor called with the fields of a node it has
built returns that node (``Expr.__new__``), so equal trees are one object,
``==`` is identity and hashing is object hashing.  The node tables, like
``diff``'s memo and the term-product table ``_TIMES``, live as long as the
process.

Products of sums expand in one pass: ``_mul_terms`` multiplies its partial
products, a ``{key-sorted factors: coef}`` map, by each sum's terms.  It is
the one rule by which factors merge: factors of one base add exponents and
are rebuilt by ``_power``, ``abspow`` or ``exp_`` (a factor alone in its
group is canonical already), and a rebuild that reduces further is
multiplied in again.  The product of two terms is that merge of their
factors (``_times``), a term map in its own right: ``2^(1/2)*2^(1/2)`` is
the constant 2, ``(a+b)^(1/2)*(a+b)^(1/2)`` the two terms of ``a + b``.
``_TIMES`` keeps it for each pair of interned factor tuples, so every pair
is merged once per process.  ``_times_into`` is that pair loop (a constant
term times another is that term scaled): ``diff`` and ``total_derivative``
differ only at a symbol, and ``_derivation`` runs their product rule of all
the terms of a sum, or chain rule of any other node, through it into one
map, with no node, memo entry or ``add`` per term.
``product_terms`` has ``_mul_terms`` expand every product straight into one
map; ``add_products`` is its sum.  A power of a sum over
``MAX_EXPANSION_PRODUCTS`` term products raises ``ExpansionTooLarge``, as
does a rational power whose value would take more bits.

``is_zero`` samples with the constructors as its one exact evaluator: at a
point a value is exact where the bound tree folds to a ``Rat``, else a
60-digit interval enclosure (of the unbound tree if it is too large to bind).
Function atoms, innermost first, share a value only where their arguments
are proved equal and take a fresh one only where they are proved different.

Stored rationals (``Rat.q``, ``Mul.coef``, ``Pow.exp``) are ``int`` when
integral and ``Fraction`` otherwise (``_q``); the two compare, hash and print
alike.  The term maps add and multiply them with ``_qadd`` and ``_qmul``,
which return the stored form: native ``int`` arithmetic when both operands
are ``int``, else one ``gcd`` on their numerators and denominators, so no
``Fraction`` operator (with its reflected-operand dispatch) runs there.  A
power that could leave the rationals (``int ** -n`` is a float) is lifted to
``Fraction`` first.  ``_linalg`` and ``liealg`` do their exact linear algebra
on the same stored rationals with these helpers and ``_qinv``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Mapping, Optional, Sequence, Union

Rational = Union[int, Fraction]

# pow_ refuses to expand a sum to a power that takes more term products,
# and to raise a rational to a power that takes more bits
MAX_EXPANSION_PRODUCTS = 100_000


def _q(v) -> Rational:
    """The stored form of a rational: ``int`` when integral, else ``Fraction``."""
    if type(v) is int:
        return v
    if type(v) is not Fraction:
        v = Fraction(v)
    return v.numerator if v.denominator == 1 else v


def _qadd(a: Rational, b: Rational) -> Rational:
    """``_q(a + b)`` for stored rationals, in native ``int`` arithmetic."""
    if type(a) is int and type(b) is int:
        return a + b
    ad, bd = a.denominator, b.denominator
    return _qfrac(a.numerator * bd + b.numerator * ad, ad * bd)


def _qmul(a: Rational, b: Rational) -> Rational:
    """``_q(a * b)`` for stored rationals, in native ``int`` arithmetic."""
    if type(a) is int and type(b) is int:
        return a * b
    return _qfrac(a.numerator * b.numerator, a.denominator * b.denominator)


def _qfrac(n: int, d: int) -> Rational:
    """The stored form of ``n/d`` for ``d > 0``."""
    g = gcd(n, d)
    return n // g if g == d else Fraction(n // g, d // g)


def _qinv(a: Rational) -> Rational:
    """``_q(1 / a)`` for a nonzero ``int`` or ``Fraction``: ``d/n`` is
    already in lowest terms, so only the sign moves to the numerator."""
    n, d = a.numerator, a.denominator
    if n < 0:
        n, d = -n, -d
    return d if n == 1 else Fraction(d, n)


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
                 "square_one", "idempotent", "positive", "nonzero", "_id", "_h")

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
        # flags are part of the identity: a positive-marked x is a different
        # atom (with different folding semantics) than an unsigned one.  The
        # tuple lists the constructor's arguments in order
        self._id = (name, kind, dep, index, self.arg_names,
                    square_one, idempotent, positive, nonzero)
        self._h = hash(self._id)

    def __eq__(self, other):
        return self is other or (isinstance(other, Symbol) and self._id == other._id)

    def __hash__(self):
        return self._h

    def __reduce__(self):
        # rebuilt, so the string hash in ``_h`` is the unpickling process's
        return Symbol, self._id

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

    def _register(self, s: Symbol) -> Symbol:
        if s.name in self.symbols:
            raise ValueError(f"symbol {s.name!r} already declared")
        self.symbols[s.name] = s
        return s

    def independent(self, name: str, **flags) -> Symbol:
        return self._register(Symbol(name, INDEPENDENT, **flags))

    def dependent(self, name: str) -> Symbol:
        return self._register(Symbol(name, DEPENDENT, dep=name, index=(0, 0)))

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


class ExpansionTooLarge(ValueError):
    pass


# ---------------------------------------------------------------------------
# expression nodes

class Expr:
    """A canonical node.  Each node class keeps the nodes it has built in
    ``_nodes``, a trie of dicts keyed by one field at each level (so no key
    tuple is kept per node), and returns the stored node for equal fields.
    Children are interned already, so they are keyed by identity."""

    __slots__ = ("_k",)

    def __init_subclass__(cls):
        cls._nodes = {}

    def __new__(cls, *fields):
        table = cls._nodes
        for f in fields[:-1]:
            sub = table.get(f)
            if sub is None:
                sub = table[f] = {}
            table = sub
        node = table.get(fields[-1])
        if node is None:
            node = table[fields[-1]] = object.__new__(cls)
            for name, v in zip(cls.__slots__, fields):
                # the rational fields (Rat.q, Pow.exp, Mul.coef) are stored by _q
                setattr(node, name, v if isinstance(v, (Expr, Symbol, tuple)) else _q(v))
            node._k = None
        return node

    def __reduce__(self):
        return type(self), tuple(getattr(self, n) for n in self.__slots__)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def key(self):
        k = self._k
        if k is None:
            k = self._k = self._key()
        return k

    def __repr__(self):
        from .printer import to_str
        return to_str(self)

    # arithmetic sugar (used heavily by tests and callers)
    def __add__(self, other):
        return add(self, _coerce(other))

    __radd__ = __add__

    def __sub__(self, other):
        return add_products((self,), (MINUS_ONE, _coerce(other)))

    def __rsub__(self, other):
        return add_products((_coerce(other),), (MINUS_ONE, self))

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

    def _key(self):
        return (0, self.q)


class Sym(Expr):
    __slots__ = ("s",)

    def _key(self):
        return (1, self.s._id)


class App(Expr):
    """Application of a function symbol, with formal partial multi-index.

    ``didx[i]`` counts derivatives with respect to the i-th declared argument
    slot; mixed partials are symmetric by construction.
    """

    __slots__ = ("fn", "didx", "args")

    def _key(self):
        return (2, self.fn._id, self.didx, tuple(a.key() for a in self.args))


class Pow(Expr):
    __slots__ = ("base", "exp")

    def _key(self):
        return (3, self.base.key(), self.exp)


class AbsPow(Expr):
    """|base|^exp with possibly symbolic exponent; base assumed nonvanishing."""

    __slots__ = ("base", "exp")

    def _key(self):
        return (4, self.base.key(), self.exp.key())


class ExpF(Expr):
    __slots__ = ("arg",)

    def _key(self):
        return (5, self.arg.key())


class LnAbs(Expr):
    __slots__ = ("arg",)

    def _key(self):
        return (6, self.arg.key())


class Mul(Expr):
    """coef * f1 * f2 * ...; factors sorted, merged, never Mul/Rat."""

    __slots__ = ("coef", "factors")

    def _key(self):
        return (7, tuple(f.key() for f in self.factors), self.coef)


class Add(Expr):
    __slots__ = ("terms",)

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


_NO_NODES: dict = {}     # read-only: the table of a coefficient with no Mul


def _sum(acc: dict) -> Expr:
    """The canonical sum of a ``{key-sorted factors: coef}`` map, in which
    ``()`` keys the constant: the one place terms are built.  A product
    already built is read from ``Mul._nodes`` without a constructor call."""
    muls = Mul._nodes
    terms = [f[0] if c == 1 and len(f) == 1
             else (muls.get(c, _NO_NODES).get(f) or Mul(c, f)) if f else Rat(c)
             for f, c in acc.items() if c != 0]
    if not terms:
        return Rat(0)
    if len(terms) == 1:
        return terms[0]
    terms.sort(key=Expr.key)
    return Add(tuple(terms))


def add(*parts: Expr) -> Expr:
    acc: dict = {}
    for e in parts:
        for c, f in iter_terms(e):
            old = acc.get(f)
            acc[f] = c if old is None else _qadd(old, c)
    return _sum(acc)


def _constraint_fold(base: Expr, k: Rational):
    """Apply square-one / idempotent parameter rewrites to integer powers."""
    if isinstance(base, Sym) and k.denominator == 1:
        n = k.numerator
        if base.s.square_one:
            return base, n % 2
        if base.s.idempotent and n > 0:
            return base, 1
    return base, k


def add_products(*products: Sequence[Expr]) -> Expr:
    """``add(*[mul(*p) for p in products])``, summed from ``product_terms``."""
    return _sum(product_terms(*products))


def product_terms(*products: Sequence[Expr]) -> dict:
    """The ``{key-sorted factors: coef}`` map of the sum of ``products``, in
    which a coefficient may be zero: ``_mul_terms`` expands every product
    straight into one map, and no product is built as a node."""
    acc: dict = {}
    for p in products:
        _mul_terms(p, acc)
    return acc


def mul(*parts: Expr) -> Expr:
    return _sum(_mul_terms(parts, {}))


def _mul_terms(parts: Sequence[Expr], out: dict, depth: int = 0) -> dict:
    """``out`` with the product of ``parts`` added to it, both as
    ``{key-sorted factors: coef}`` maps."""
    if len(parts) == 1:     # a canonical node is its own product
        _times_into(out, 1, (), iter_terms(parts[0]))
        return out
    if depth > 24:
        raise RuntimeError("mul normalization did not reach a fixpoint")
    coef = 1
    pow_acc: dict = {}    # base Expr -> its powers (a plain factor is one)
    abs_acc: dict = {}    # base Expr -> its abs-powers
    exps: list = []       # exp() factors
    adds: list = []       # Add factors to distribute at the end

    work = list(parts)
    while work:
        e = work.pop()
        if isinstance(e, Rat):
            coef = _qmul(coef, e.q)
        elif isinstance(e, Mul):
            coef = _qmul(coef, e.coef)
            work.extend(e.factors)
        elif isinstance(e, ExpF):
            exps.append(e)
        elif isinstance(e, Pow):
            pow_acc.setdefault(e.base, []).append(e)
        elif isinstance(e, AbsPow):
            abs_acc.setdefault(e.base, []).append(e)
        elif isinstance(e, Add):
            adds.append(e)
        else:
            pow_acc.setdefault(e, []).append(e)

    if coef == 0:
        return out

    # rebuild merged factors; a canonical factor alone in its group is its
    # own rebuild.  A rebuild may itself reduce (rational folds, even
    # abs-powers, exp/ln extraction), in which case run another pass
    factors = []
    redo = []
    for base, fs in pow_acc.items():
        if len(fs) == 1:
            factors.append(fs[0])
            continue
        k = 0
        for f in fs:
            k = _qadd(k, f.exp if isinstance(f, Pow) else 1)
        p, plain = _power(base, k)
        if p is not None:
            (factors if plain else redo).append(p)
    for base, fs in abs_acc.items():
        a = fs[0] if len(fs) == 1 else abspow(base, add(*[f.exp for f in fs]))
        if isinstance(a, AbsPow) and a.base == base:
            factors.append(a)
        else:
            redo.append(a)
    if exps:
        x = exps[0] if len(exps) == 1 else exp_(add(*[f.arg for f in exps]))
        if isinstance(x, ExpF):
            factors.append(x)
        else:
            redo.append(x)

    if redo:
        # the sums still to expand join the next pass: expanding a rebuilt
        # sum before them changes the form of products whose radicals of
        # one sum merge, as in (u + (x+1)^(1/2))^(1/2) squared times
        # ((x+1)^(-1/2) + t) * ((x+1)^(1/2) + 1)
        return _mul_terms((Rat(coef), *factors, *redo, *adds), out, depth + 1)

    # expand products of sums in one pass: partial products are
    # {key-sorted factors: coef} entries, multiplied by each sum's terms,
    # the last sum's straight into ``out``
    key = tuple(sorted(factors, key=Expr.key))
    acc = {key: coef}
    for n, a in enumerate(adds, 1):
        terms = iter_terms(a)
        prods = out if n == len(adds) else {}
        for f1, c1 in acc.items():
            _times_into(prods, c1, f1, terms)
        acc = prods
    if not adds:    # a lone term
        _times_into(out, coef, (), ((1, key),))
    return out


# {(f1, f2): _times(f1, f2)} for the life of the process
_TIMES: dict = {}


def _times(f1: tuple, f2: tuple) -> tuple:
    """The product of two terms' key-sorted factors as ``(factors, coef)``
    entries, by ``_mul_terms``: the one rule by which factors merge."""
    return tuple(_mul_terms(f1 + f2, {}).items())


def _times_into(prods: dict, c1: Rational, f1: tuple, terms: list) -> None:
    """Add the products of the term ``c1 * f1`` (key-sorted factors) with
    each of ``terms`` (as ``iter_terms`` gives them) to the map ``prods``.
    A constant term (no ``f1``) scales each term, with no ``_TIMES`` lookup."""
    for c2, f2 in terms:
        try:
            entries = _TIMES[f1, f2] if f1 else ((f2, 1),)
        except KeyError:
            entries = _TIMES[f1, f2] = _times(f1, f2)
        c12 = _qmul(c1, c2)
        for f, c in entries:
            c = c12 if c == 1 else _qmul(c12, c)
            old = prods.get(f)
            prods[f] = c if old is None else _qadd(old, c)


def _power(base: Expr, k: Rational):
    """``mul``'s rebuild of the merged factor ``base^k`` as ``(p, plain)``:
    ``p`` is None when it cancels, and one that is not plain must pass
    through ``mul`` again."""
    if k != 1:
        base, k = _constraint_fold(base, k)
        if k == 0:
            return None, True
    if k == 1:
        return base, not isinstance(base, (Rat, Mul, Add))
    p = pow_(base, k)
    return p, isinstance(p, Pow) and p.base == base


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
        if q == 0:
            if k < 0:
                raise SingularValue("0 raised to a negative power")
            return base
        if k.denominator == 1:
            return Rat(_rat_power(q, k))
        if q > 0:
            root = _exact_root(q, k)
            if root is not None:
                return Rat(root)
            # (n/d)^k = (n/d)^m n^r d^(1-r) / d, m = floor(k), r = k - m
            m = k.numerator // k.denominator
            if q.denominator > 1 or m != 0:
                return mul(Rat(Fraction(_rat_power(q, m), q.denominator)),
                           pow_(Rat(q.numerator), k - m),
                           pow_(Rat(q.denominator), 1 - k + m))
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
            n = len(base.terms)
            # expanding takes sum_{j<k} n*C(n+j-1, j) < n*C(n+k-1, n) term
            # products; checking n*k first keeps comb() small
            if n * k > MAX_EXPANSION_PRODUCTS or \
                    n * comb(n + k - 1, n) > MAX_EXPANSION_PRODUCTS:
                raise ExpansionTooLarge(f"a sum of {n} terms to the power "
                                        f"{k} is too large to expand")
            return mul(*[base] * int(k))
        return Pow(base, k)
    if isinstance(base, Sym):
        base2, k2 = _constraint_fold(base, k)
        if k2 == 0:
            return Rat(1)
        if k2 == 1:
            return base2
        return Pow(base2, k2)
    return Pow(base, k)


def _rat_power(q: Rational, k: int) -> Rational:
    """q**k for an integer k, refused when it would take more than
    ``MAX_EXPANSION_PRODUCTS`` bits.  It takes at least |k| floor(log2 m),
    m the larger of q's |numerator| and denominator."""
    if abs(k) * (max(abs(q.numerator), q.denominator).bit_length() - 1) \
            > MAX_EXPANSION_PRODUCTS:
        raise ExpansionTooLarge(f"{q} to the power {k} is too large to "
                                "compute exactly")
    return q ** k if k > 0 else Fraction(q) ** k


def _exact_root(q: Rational, k: Fraction) -> Optional[Fraction]:
    """q**k as an exact Fraction when q > 0 is a perfect power, else None."""
    n, d = k.numerator, k.denominator

    def iroot(m: int, r: int) -> Optional[int]:
        # a root of at least 2 has 2**r <= m, and at most 2**(bits/r + 1)
        if r >= m.bit_length():
            return 1 if m == 1 else None
        lo, hi = 1, 1 << (m.bit_length() // r + 1)
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
    return _rat_power(Fraction(rn, rd), n)


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

def iter_terms(e: Expr) -> list:
    """The ``(coef, factors)`` of each term of canonical ``e``, as a list.

    A constant term gives ``(q, ())``, a product its coefficient and its
    key-sorted factor tuple, any other node ``(1, (node,))``.
    """
    return [(t.coef, t.factors) if type(t) is Mul
            else (t.q, ()) if type(t) is Rat else (1, (t,))
            for t in (e.terms if type(e) is Add else (e,))]


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


def atoms(e: Expr) -> set:
    """All App atoms occurring in ``e`` (function applications, any didx)."""
    return {n for n in _nodes(e) if isinstance(n, App)}


# ---------------------------------------------------------------------------
# differentiation

# {symbol: {node: derivative}}: a table per symbol needs no (node, symbol)
# key tuple per entry, and interned nodes hit by identity
_DIFF_CACHE: dict = {}


def diff(e: Expr, s: Symbol) -> Expr:
    """Exact partial derivative with respect to a symbol.

    Function symbols differentiate to formal partials by the chain rule over
    their argument expressions; |e|^q differentiates under the recorded
    nonvanishing assumption of its base.
    """
    memo = _DIFF_CACHE.get(s)
    if memo is None:
        memo = _DIFF_CACHE[s] = {}
    out = memo.get(e)
    if out is None:
        out = memo[e] = _diff(e, s)
    return out


def _diff(e: Expr, s: Symbol) -> Expr:
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        return ONE if e.s == s else ZERO
    return _derivation(e, lambda f: diff(f, s))


def _derivation(e: Expr, derivation) -> Expr:
    """``derivation`` of a node other than ``Rat`` and ``Sym``, from its value
    on the node's children, into one term map: a sum or product by the
    product rule over its distinct factors (the factors but one of a product
    are its key-sorted factor tuple), any other node by the chain rule, with
    the outer partial formed only where the argument's derivative is not 0."""
    prods: dict = {}
    if isinstance(e, (Mul, Add)):
        done: dict = {}
        for c, fs in iter_terms(e):
            for i, f in enumerate(fs):
                d = done.get(f)
                if d is None:
                    d = derivation(f)
                    d = done[f] = [] if d is ZERO else iter_terms(d)
                if d:
                    _times_into(prods, c, fs[:i] + fs[i + 1:], d)
        return _sum(prods)
    args = (e.args if isinstance(e, App) else (e.base, e.exp)
            if isinstance(e, AbsPow) else (e.base,) if isinstance(e, Pow)
            else (e.arg,))
    for i, a in enumerate(args):
        d = derivation(a)
        if d is not ZERO:
            d = iter_terms(d)
            for c, fs in iter_terms(_partial(e, i)):
                _times_into(prods, c, fs, d)
    return _sum(prods)


def _partial(e: Expr, i: int) -> Expr:
    """The partial of ``e`` by its ``i``-th argument as ``_derivation`` lists
    them; |e|^q's holds under the recorded nonvanishing of its base."""
    if isinstance(e, App):
        return App(e.fn, e.didx[:i] + (e.didx[i] + 1,) + e.didx[i + 1:], e.args)
    if isinstance(e, Pow):
        return mul(rat(e.exp), pow_(e.base, e.exp - 1))
    if isinstance(e, AbsPow):
        return mul(e.exp, e, pow_(e.base, -1)) if i == 0 else mul(e, lnabs(e.base))
    return e if isinstance(e, ExpF) else pow_(e.arg, -1)    # exp or ln|.|


def total_derivative(e: Expr, direction: str, chart: Chart) -> Expr:
    """Total derivative D_t or D_x on the jet space of ``chart``: the
    derivation of ``diff`` that promotes a dependent or jet variable by one
    order (exceeding the chart's jet cap raises JetOrderError) and takes
    the direction's independent variable to one."""
    if direction not in ("t", "x"):
        raise ValueError("direction must be 't' or 'x'")
    if isinstance(e, Rat):
        return ZERO
    if isinstance(e, Sym):
        s = e.s
        if s.kind in (DEPENDENT, JET):
            nt, nx = s.index
            return Sym(chart.jet(s.dep, nt + (direction == "t"), nx + (direction == "x")))
        return ONE if s == chart.get(direction) else ZERO
    return _derivation(e, lambda f: total_derivative(f, direction, chart))


# ---------------------------------------------------------------------------
# substitution

def substitute(e: Expr, bindings: Mapping) -> Expr:
    """Simultaneous substitution; keys are Symbols or atom Exprs (Sym/App).
    A bound jet binds that jet alone, never its derivatives."""
    table = {Sym(k) if isinstance(k, Symbol) else k: _coerce(v)
             for k, v in bindings.items()}
    return _subst(e, table)


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
        terms = iter_terms(e)
        for _, factors in terms:
            for f in factors:
                if isinstance(f, Pow) and f.exp < 0 and isinstance(f.base, Add):
                    need[f.base] = max(need.get(f.base, 0), -f.exp)
        if not need:
            return e
        # each term's own power of a denominator joins its clearing power
        # before pow_ builds (and expands) it
        products = []
        for coef, factors in terms:
            own: dict = {}
            rest = [Rat(coef)]
            for f in factors:
                if isinstance(f, Pow) and f.base in need:
                    own[f.base] = f.exp
                else:
                    rest.append(f)
            products.append((*rest, *[pow_(b, _qadd(k, own.get(b, 0)))
                                      for b, k in need.items()]))
        e = add_products(*products)
    return e


def structurally_zero(e: Expr) -> bool:
    cleared = _clear_denominators(e)
    return isinstance(cleared, Rat) and cleared.q == 0


def _sample_value(s: Symbol, rng: random.Random) -> Fraction:
    if s.square_one:
        return Fraction(rng.choice((1, -1)))
    if s.idempotent:
        return Fraction(rng.choice((0, 1)))
    v = Fraction(rng.randint(1, 1000), rng.randint(1, 1000))
    return v if s.positive or rng.random() < 0.5 else -v


class _Transcendental(Exception):
    pass


def _iv_exp(iv, v):
    # refused past 2^10000: mpmath's exp runs over a minute at 2^100000
    if iv.mag(v) > 10_000:
        raise ExpansionTooLarge("exp of a value too large to enclose")
    return iv.exp(v)


def _eval_interval(e: Expr, iv, env: Optional[Mapping] = None):
    """An interval enclosing ``e``, its symbols and atoms read from ``env``."""
    if env and isinstance(e, (Sym, App)):
        e = env.get(e.s if isinstance(e, Sym) else e, e)
    if isinstance(e, Rat):
        return iv.mpf(e.q.numerator) / iv.mpf(e.q.denominator)
    if isinstance(e, Pow):
        b = _eval_interval(e.base, iv, env)
        if 0 in b and e.exp < 0:
            raise SingularValue("pole interval")
        if e.exp.denominator == 1:
            return b ** e.exp.numerator
        if b.a > 0:
            return _iv_exp(iv, iv.log(b) * iv.mpf(e.exp.numerator) / iv.mpf(e.exp.denominator))
        raise SingularValue("fractional power of non-positive interval")
    if isinstance(e, AbsPow):
        b = abs(_eval_interval(e.base, iv, env))
        if 0 in b:
            raise SingularValue("abs-power at zero")
        q = _eval_interval(e.exp, iv, env)
        return _iv_exp(iv, iv.log(b) * q)
    if isinstance(e, ExpF):
        return _iv_exp(iv, _eval_interval(e.arg, iv, env))
    if isinstance(e, LnAbs):
        a = abs(_eval_interval(e.arg, iv, env))
        if 0 in a:
            raise SingularValue("ln|0|")
        return iv.log(a)
    if isinstance(e, Mul):
        v = iv.mpf(e.coef.numerator) / iv.mpf(e.coef.denominator)
        for f in e.factors:
            v = v * _eval_interval(f, iv, env)
        return v
    if isinstance(e, Add):
        v = iv.mpf(0)
        for t in e.terms:
            v = v + _eval_interval(t, iv, env)
        return v
    raise SingularValue(f"cannot evaluate node {type(e).__name__}")


def evaluate(e: Expr, env: Mapping) -> Fraction:
    """Exact rational value of ``e`` at ``env``; a bound tree that does not
    fold to a ``Rat`` raises ``_Transcendental``."""
    v = substitute(e, env)
    if not isinstance(v, Rat):
        raise _Transcendental(f"{v!r} is not rational")
    return Fraction(v.q)


def _nonzero_at(e: Expr, env: Mapping) -> Optional[bool]:
    """Whether ``e`` is nonzero at the point ``env`` (symbols and atoms to
    ``Rat``): exact where the bound tree folds to a ``Rat``, else True where
    a 60-digit enclosure (unbound if too large to bind) excludes zero, and
    None (unknown) where it does not."""
    try:
        e, env = substitute(e, env), {}
    except ExpansionTooLarge:
        pass
    if isinstance(e, Rat):
        return e.q != 0
    import mpmath
    iv = mpmath.iv
    old, iv.dps = iv.dps, 60
    try:
        return 0 not in _eval_interval(e, iv, env) or None
    finally:
        iv.dps = old


def _value_atoms(apps: Sequence[App], env: dict, rng: random.Random) -> bool:
    """Value ``apps``, innermost first, into ``env``.  An atom whose arguments
    are proved equal to an earlier atom's of the same function and partial
    shares its value; one proved to differ from each such atom in some
    argument takes a fresh value.  False when neither is proved."""
    for i, a in enumerate(apps):
        fresh = True
        for b in apps[:i]:
            if (b.fn, b.didx) != (a.fn, a.didx):
                continue
            sep = {_nonzero_at(add_products((x,), (MINUS_ONE, y)), env)
                   for x, y in zip(a.args, b.args)}
            if sep <= {False}:
                env[a] = env[b]
                break
            fresh = fresh and True in sep
        else:
            if not fresh:
                return False
            env[a] = rat(_sample_value(a.fn, rng))
    return True


def is_zero(e: Expr) -> ZeroResult:
    """Decide zero-ness: canonical zero is authoritative; random rational
    sampling is a falsifier only ("undecided" is surfaced, never treated as
    zero)."""
    cleared = _clear_denominators(e)
    if isinstance(cleared, Rat):
        return ZeroResult(ZERO_V if cleared.q == 0 else NONZERO_V)

    # seed from the canonical text so runs are bit-for-bit reproducible
    # (Python's built-in hash is randomized per process)
    import zlib
    from .printer import to_str
    rng = random.Random(0x5EED ^ zlib.crc32(to_str(e).encode()))
    syms = [s for s in sorted(free_symbols(e), key=lambda s: s.name)
            if s.arg_names is None]
    # a node's children follow it in _nodes, so reversed, inner atoms lead
    apps = list(dict.fromkeys(n for n in reversed(_nodes(e))
                              if isinstance(n, App)))

    skipped: dict = {}
    done = exact = 0
    # 32 evaluated points, out of at most 128 tried
    while done < 32 and done + sum(skipped.values()) < 128:
        env = {s: rat(_sample_value(s, rng)) for s in syms}
        why = "with atom arguments neither equal nor separated"
        try:
            if _value_atoms(apps, env, rng):
                at = _nonzero_at(e, env)
                if at:
                    return ZeroResult(NONZERO_V, samples=done + 1)
                done += 1
                exact += at is False
                continue
        except SingularValue:
            why = "singular"
        except ExpansionTooLarge:
            why = "with a value too large to enclose"
        skipped[why] = skipped.get(why, 0) + 1
    if done == 0:
        return ZeroResult(UNDECIDED_V, detail="no sample point evaluated: " +
                          ", ".join(f"{n} {why}" for why, n in skipped.items()))
    return ZeroResult(UNDECIDED_V, samples=done,
                      detail=f"{done} rational samples on a non-canonical-zero "
                             f"form: {exact} exactly zero, {done - exact} with an "
                             "enclosure containing zero")


def equal(a: Expr, b: Expr) -> bool:
    """Exact (structural-after-clearing) equality of interned canonical forms."""
    return a is b or structurally_zero(add_products((a,), (MINUS_ONE, b)))

"""Expression parser.

Grammar (byte-exact contract):
  identifiers  [A-Za-z][A-Za-z0-9]* with an optional _suffix for jet
               variables (u_t, u_tx, ...) and formal partials (f_x, f_ux);
  application  f(x,u_x);
  operators    + - * / ^ with standard precedence, ^ right-associative,
               unary minus;
  functions    abs(e), exp(e), lnabs(e)  (ln(abs(e)) is accepted as lnabs);
  literals     decimal integers; rationals are written 3/4;
  fields       term@coordinate terms joined by + and - (ux is u_x), where
               a term is a product like 2*t, so a sum is parenthesized.
"""
from __future__ import annotations

import re
from typing import Optional, Sequence

from .expr import (Chart, DEPENDENT, Expr, FUNCTION, Rat, Symbol, UNKNOWN,
                   UnknownIdentifier, abspow, add, app, exp_, lnabs, mul,
                   pow_, rat, sym)
from .vecfield import VectorField


class ParseError(Exception):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (byte offset {pos})")
        self.pos = pos


_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<name>[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)?)
  | (?P<num>\d+)
  | (?P<op>[-+*/^(),@])
""", re.VERBOSE)

_RESERVED = ("abs", "exp", "lnabs", "ln")


def _tokenize(text: str):
    pos = 0
    out = []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("end", "", len(text)))
    return out


def _compressed(name: str) -> str:
    return name.replace("_", "")


def _resolve_name(token: str, chart: Chart, pos: int):
    """Return ('sym', Symbol) or ('fn', Symbol, didx)."""
    if token in chart:
        s = chart.get(token)
        if s.kind in (FUNCTION, UNKNOWN):
            return ("fn", s, tuple(0 for _ in s.arg_names))
        return ("sym", s)
    if "_" in token:
        head, suffix = token.split("_", 1)
        if head in chart:
            s = chart.get(head)
            if s.kind == DEPENDENT:
                if not set(suffix) <= {"t", "x"}:
                    raise ParseError(f"bad jet suffix {suffix!r} on {head!r}", pos)
                nt, nx = suffix.count("t"), suffix.count("x")
                return ("sym", chart.jet(head, nt, nx))
            if s.kind in (FUNCTION, UNKNOWN):
                didx = _parse_partial_suffix(s, suffix)
                if didx is None:
                    raise ParseError(
                        f"cannot read {suffix!r} as partials of {head!r}", pos)
                return ("fn", s, didx)
    raise UnknownIdentifier(f"{token!r} (byte offset {pos})")


def _parse_partial_suffix(s: Symbol, suffix: str) -> Optional[tuple]:
    comp = [_compressed(a) for a in s.arg_names]

    def walk(rest: str, counts: tuple):
        if not rest:
            return counts
        for i, c in enumerate(comp):
            if rest.startswith(c):
                nxt = walk(rest[len(c):], counts[:i] + (counts[i] + 1,) + counts[i + 1:])
                if nxt is not None:
                    return nxt
        return None

    return walk(suffix, tuple(0 for _ in comp))


def _default_args(s: Symbol, chart: Chart, pos: int) -> tuple:
    args = []
    for name in s.arg_names:
        if name not in chart:
            raise ParseError(
                f"{s.name!r} needs explicit arguments ({name!r} is not a chart symbol)", pos)
        args.append(sym(chart.get(name)))
    return tuple(args)


class _Parser:
    def __init__(self, tokens, chart: Chart):
        self.toks = tokens
        self.i = 0
        self.chart = chart

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, value: str):
        kind, val, pos = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val!r}", pos)

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, pos = self.peek()
            if val in ("+", "-"):
                self.next()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else add(e, mul(rat(-1), rhs))
            else:
                return e

    def field(self, coords: Sequence[str]) -> dict:
        """term@coordinate terms joined by + and -, as ``{coordinate: Expr}``."""
        coeffs: dict = {}
        sign = 1
        while True:
            e = mul(rat(sign), self.term())
            self.expect("@")
            kind, val, pos = self.next()
            coord = "u_x" if val == "ux" else val
            if coord not in coords:
                raise ParseError(f"unknown coordinate {val!r}", pos)
            coeffs[coord] = add(coeffs[coord], e) if coord in coeffs else e
            val = self.peek()[1]
            if val not in ("+", "-"):
                return coeffs
            self.next()
            sign = 1 if val == "+" else -1

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind, val, pos = self.peek()
            if val == "*":
                self.next()
                e = mul(e, self.unary())
            elif val == "/":
                self.next()
                e = mul(e, pow_(self.unary(), -1))
            else:
                return e

    def unary(self) -> Expr:
        kind, val, pos = self.peek()
        if val == "-":
            self.next()
            return mul(rat(-1), self.unary())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, pos = self.peek()
        if val == "^":
            self.next()
            e = self.unary()
            if isinstance(e, Rat):
                return pow_(base, e.q)
            return pow_(base, e)
        return base

    def atom(self) -> Expr:
        kind, val, pos = self.next()
        if val == "(":
            e = self.expr()
            self.expect(")")
            return e
        if kind == "num":
            return rat(int(val))
        if kind == "name":
            if val in _RESERVED:
                return self.builtin(val, pos)
            resolved = _resolve_name(val, self.chart, pos)
            if resolved[0] == "sym":
                return sym(resolved[1])
            _, fn, didx = resolved
            if self.peek()[1] == "(":
                self.next()
                args = [self.expr()]
                while self.peek()[1] == ",":
                    self.next()
                    args.append(self.expr())
                self.expect(")")
                if len(args) != len(fn.arg_names):
                    raise ParseError(
                        f"{fn.name!r} expects {len(fn.arg_names)} argument(s), got {len(args)}", pos)
                return app(fn, didx, args)
            return app(fn, didx, _default_args(fn, self.chart, pos))
        raise ParseError(f"unexpected token {val!r}", pos)

    def builtin(self, name: str, pos: int) -> Expr:
        if name == "ln":
            # ln only in the spelling ln(abs(e))
            self.expect("(")
            kind, val, p2 = self.next()
            if val != "abs":
                raise ParseError("ln(...) is only accepted as ln(abs(e)) or lnabs(e)", p2)
            self.expect("(")
            inner = self.expr()
            self.expect(")")
            self.expect(")")
            return lnabs(inner)
        self.expect("(")
        inner = self.expr()
        self.expect(")")
        if name == "abs":
            return abspow(inner, 1)
        if name == "exp":
            return exp_(inner)
        return lnabs(inner)


def _run(text: str, chart: Chart, rule):
    """Apply ``rule`` to a fresh parser over ``text``; the whole input must
    be consumed."""
    p = _Parser(_tokenize(text), chart)
    try:
        out = rule(p)
    except RecursionError:
        raise ParseError("expression nested too deeply", p.peek()[2]) from None
    kind, val, pos = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input {val!r}", pos)
    return out


def parse(text: str, chart: Chart) -> Expr:
    """Parse ``text`` against ``chart``; returns the canonical Expr."""
    return _run(text, chart, _Parser.expr)


def parse_vector_field(text: str, chart: Chart, coords: Sequence[str]):
    """Parse the coefficient@coordinate syntax, e.g. "2*t@t + u@u"."""
    return VectorField(chart, coords, _run(text, chart, lambda p: p.field(coords)))

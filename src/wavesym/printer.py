"""Canonical text form for expressions.

``parse(to_str(e)) == e`` holds on canonical forms; the grammar is the one
accepted by :mod:`wavesym.parse`.
"""
from __future__ import annotations

from .expr import (Add, AbsPow, App, Expr, ExpF, LnAbs, Mul, Pow, Rat, Sym)

_PREC_ADD = 10
_PREC_MUL = 20
_PREC_NEG = 30
_PREC_POW = 40
_PREC_ATOM = 50


def _paren(s: str, inner: int, outer: int) -> str:
    return f"({s})" if inner < outer else s


def _suffix(appnode: App) -> str:
    names = appnode.fn.arg_names
    parts = []
    for slot, count in enumerate(appnode.didx):
        parts.append(names[slot].replace("_", "") * count)
    return "".join(parts)


def _default_args(appnode: App) -> bool:
    names = appnode.fn.arg_names
    for name, a in zip(names, appnode.args):
        if not (isinstance(a, Sym) and a.s.name == name):
            return False
    return True


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Rat):
        q = e.q
        if q < 0:
            return f"-{-q}", _PREC_NEG
        if q.denominator != 1:
            return str(q), _PREC_MUL
        return str(q), _PREC_ATOM
    if isinstance(e, Sym):
        return e.s.name, _PREC_ATOM
    if isinstance(e, App):
        name = e.fn.name
        if any(e.didx):
            name += "_" + _suffix(e)
        if _default_args(e):
            return name, _PREC_ATOM
        args = ",".join(to_str(a) for a in e.args)
        return f"{name}({args})", _PREC_ATOM
    if isinstance(e, Pow):
        b, bp = _render(e.base)
        b = _paren(b, bp, _PREC_ATOM)
        k = e.exp
        if k.denominator == 1 and k > 0:
            return f"{b}^{k}", _PREC_POW
        return f"{b}^({k})", _PREC_POW
    if isinstance(e, AbsPow):
        b = to_str(e.base)
        if isinstance(e.exp, Rat) and e.exp.q == 1:
            return f"abs({b})", _PREC_ATOM
        if isinstance(e.exp, Rat) and e.exp.q.denominator == 1 and e.exp.q > 0:
            return f"abs({b})^{e.exp.q}", _PREC_POW
        return f"abs({b})^({to_str(e.exp)})", _PREC_POW
    if isinstance(e, ExpF):
        return f"exp({to_str(e.arg)})", _PREC_ATOM
    if isinstance(e, LnAbs):
        return f"lnabs({to_str(e.arg)})", _PREC_ATOM
    if isinstance(e, Mul):
        parts = []
        for f in e.factors:
            s, p = _render(f)
            parts.append(_paren(s, p, _PREC_MUL))
        body = "*".join(parts)
        c = e.coef
        if c == 1:
            return body, _PREC_MUL
        if c == -1:
            return f"-{body}", _PREC_NEG
        prefix = str(c) if c > 0 else f"-{-c}"
        s = f"{prefix}*{body}"
        return (s, _PREC_NEG) if c < 0 else (s, _PREC_MUL)
    if isinstance(e, Add):
        out = []
        for i, t in enumerate(e.terms):
            s, p = _render(t)
            if i == 0:
                out.append(_paren(s, p, _PREC_ADD))
            elif s.startswith("-"):
                out.append(" - " + s[1:])
            else:
                out.append(" + " + s)
        return "".join(out), _PREC_ADD
    raise TypeError(type(e))


def to_str(e: Expr) -> str:
    return _render(e)[0]

"""Printed wavesym text read back as sympy, for the sympy oracles.

``SympyText(ch)(e)`` reads ``to_str(e)`` of an expression on the chart
``ch``: ``^`` is ``**``, ``lnabs(a)`` is ``log(Abs(a))`` and ``abs`` is
``Abs``.  Each symbol of the chart, the jets ``u_t``, ``u_tx``, ... included,
is a real sympy Symbol of its name (positive or nonzero where the chart
marks it so; the square-one and idempotent marks have no sympy form, so
oracle inputs leave those parameters out).  Each function symbol is an
undefined sympy function, so ``beta`` or ``zeta`` never reads as sympy's
own.  A formal partial at its declared arguments, ``f_ux`` for
``f(x,u_x)``, reads as ``Derivative(f(x, u_x), u_x)``.
"""
import itertools
import re

import sympy

from wavesym.printer import to_str

# formal partials up to this total order are named
MAX_PARTIAL = 4


class SympyText:
    def __init__(self, ch):
        def real(name, s=None):
            flags = {"positive": True} if s is not None and s.positive else \
                {"nonzero": True} if s is not None and s.nonzero else {}
            return sympy.Symbol(name, real=True, **flags)

        self.names = {"exp": sympy.exp, "abs": sympy.Abs,
                      "lnabs": lambda a: sympy.log(sympy.Abs(a))}
        self.calls = {}      # function name -> undefined sympy function
        for s in ch.symbols.values():
            if s.arg_names is None:
                self.names[s.name] = real(s.name, s)
                continue
            fn = self.calls[s.name] = sympy.Function(s.name)
            args = [self.names[a] if a in self.names else real(a)
                    for a in s.arg_names]
            for didx in itertools.product(range(MAX_PARTIAL + 1), repeat=len(args)):
                if sum(didx) > MAX_PARTIAL:
                    continue
                suffix = "".join(a.replace("_", "") * n
                                 for a, n in zip(s.arg_names, didx))
                at = fn(*args)
                self.names[s.name + ("_" + suffix if suffix else "")] = \
                    sympy.diff(at, *[(a, n) for a, n in zip(args, didx) if n]) \
                    if suffix else at
        self.locals = {**self.names, **{f"{n}__call": fn for n, fn in self.calls.items()}}

    def __call__(self, e) -> sympy.Expr:
        def call(m):
            name = m.group(1)
            if name in self.calls:
                return f"{name}__call("
            if name in self.names and name not in ("exp", "abs", "lnabs"):
                raise ValueError(f"{name} is read at its declared arguments only")
            return m.group(0)

        text = re.sub(r"\b([A-Za-z]\w*)\(", call, to_str(e).replace("^", "**"))
        return sympy.sympify(text, locals=self.locals)

    def jets(self, dep: str, order: int) -> dict:
        """{(nt, nx): the symbol of the jet of ``dep``}, up to ``order``."""
        return {(nt, nx): self.names[dep + ("_" + "t" * nt + "x" * nx if nt + nx else "")]
                for nt in range(order + 1) for nx in range(order + 1 - nt)}

    def D(self, F, d: str, jets: dict) -> sympy.Expr:
        """The total derivative D_t (``d = "t"``) or D_x of F over ``jets``."""
        step = (1, 0) if d == "t" else (0, 1)
        out = sympy.diff(F, self.names[d])
        for (nt, nx), s in jets.items():
            up = jets.get((nt + step[0], nx + step[1]))
            if up is not None:
                out += up * sympy.diff(F, s)
        return out

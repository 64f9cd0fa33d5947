"""Per-layer tracing of wavesym from outside the package.

``install`` wraps public functions by rebinding them in every ``wavesym.*``
module namespace that holds them, so calls made inside the package go
through the wrapper too.  Each wrapper counts calls and accumulates
inclusive and self time (inclusive minus the time of traced callees).  The
coarse calls also record spans ``(id, parent_id, name, label, start, end)``
whose parent is the nearest enclosing span; hot constructors keep only the
aggregates.  A few wrappers look at arguments or results to count wasted or
special work (repeated inputs, normalize calls that change their input,
zero tests that had to sample).

``rebind`` is also used on its own by the untraced passes, to time one
catalog case at a time.
"""
from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time

TARGETS = {
    "expr": ("add", "mul", "pow_", "normalize", "diff", "total_derivative",
             "substitute", "structurally_zero", "is_zero"),
    "vecfield": ("prolong2", "bracket", "pushforward", "transform_equation"),
    "detsys": ("invariance_residual", "check_symmetry", "solve_within_ansatz"),
    "_linalg": ("rref", "nullspace", "solve"),
    "liealg": ("close_or_fail", "flag_automorphism_solve", "centralizer",
               "radical"),
    "parse": ("parse", "parse_vector_field"),
    "classif": ("run_section", "verify_case"),
}

RAISED = object()

# calls that get a span; the rest (constructors, diff, ...) are too hot
SPANNED = {
    "classif.run_section": lambda a: a[0],
    "classif.verify_case": lambda a: a[1].id,
    "detsys.solve_within_ansatz": lambda a: "",
    "detsys.check_symmetry": lambda a: "",
    "liealg.close_or_fail": lambda a: "",
    "liealg.flag_automorphism_solve": lambda a: "",
    "liealg.centralizer": lambda a: "",
    "liealg.radical": lambda a: "",
}


@functools.lru_cache(maxsize=None)
def wavesym_modules() -> list:
    import wavesym
    mods = [wavesym]
    for info in pkgutil.iter_modules(wavesym.__path__):
        mods.append(importlib.import_module(f"wavesym.{info.name}"))
    return mods


def rebind(module: str, name: str, make_wrapper) -> bool:
    """Replace ``wavesym.<module>.<name>`` by ``make_wrapper(original)`` in
    every wavesym module that holds the original.  False if it is absent."""
    owner = importlib.import_module(f"wavesym.{module}")
    original = getattr(owner, name, None)
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for mod in wavesym_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
    return True


class Tracer:
    def __init__(self):
        # per function: [calls, inclusive seconds, self seconds]
        self.agg: dict = {}
        self.extra: dict = {}
        self.spans: list = []
        # one entry per active traced call: time spent in traced callees
        self._child = [0.0]
        self._span_stack = [None]
        self._seen_diff: set = set()
        self._seen_prolong: set = set()
        self._normalize_depth = 0
        self._hooks = self._observers()

    def reset(self):
        """Forget everything recorded so far, in place: the wrappers hold
        references to these containers.  A forked worker calls this, so
        that it reports only its own work."""
        for row in self.agg.values():
            row[:] = [0, 0.0, 0.0]
        self.extra.clear()
        self.spans.clear()
        self._child[:] = [0.0]
        self._span_stack[:] = [None]
        self._seen_diff.clear()
        self._seen_prolong.clear()
        self._normalize_depth = 0

    def _count(self, key: str, n: int = 1):
        self.extra[key] = self.extra.get(key, 0) + n

    def wrap(self, qual: str, fn):
        agg = self.agg.setdefault(qual, [0, 0.0, 0.0])
        child, spans, span_stack = self._child, self.spans, self._span_stack
        clock = time.perf_counter
        observe = self._hooks.get(qual)
        label_of = SPANNED.get(qual)

        def traced(*args, **kwargs):
            if observe is not None:
                pre = observe(args, kwargs)
            span_id = None
            if label_of is not None:
                span_id = len(spans)
                spans.append([span_id, span_stack[-1], qual, label_of(args), 0.0, 0.0])
                span_stack.append(span_id)
            child.append(0.0)
            out = RAISED
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - inner
                if span_id is not None:
                    span_stack.pop()
                    spans[span_id][4:6] = [t0, t1]
                if observe is not None:
                    pre(out)
            return out
        return traced

    def _observers(self) -> dict:
        """Per-function hooks: called with the arguments before the call,
        they return a callback that sees the result (``RAISED`` if the call
        raised)."""
        def ignore(out):
            pass

        def diff(args, kwargs):
            key = (args[0], args[1])
            if key in self._seen_diff:
                self._count("expr.diff.repeats")
            else:
                self._seen_diff.add(key)
            return ignore

        def prolong2(args, kwargs):
            Q = args[0]
            key = (Q.coords, frozenset(Q.coeffs.items()))
            if key in self._seen_prolong:
                self._count("vecfield.prolong2.repeats")
            else:
                self._seen_prolong.add(key)
            return ignore

        def normalize(args, kwargs):
            self._normalize_depth += 1
            top = self._normalize_depth == 1
            e = args[0]

            def done(out):
                self._normalize_depth -= 1
                if top and out is not RAISED:
                    self._count("expr.normalize.top_calls")
                    if out is not e and out != e:
                        self._count("expr.normalize.changed")
            return done

        def is_zero(args, kwargs):
            def done(r):
                if r is RAISED:
                    return
                undecided = r.verdict not in ("zero", "nonzero")
                if r.samples > 0 or undecided:
                    self._count("expr.is_zero.sampled")
                if undecided:
                    self._count("expr.is_zero.undecided")
            return done

        def solve_within_ansatz(args, kwargs):
            def done(sol):
                if sol is not RAISED:
                    self._count("detsys.solve_within_ansatz.rows", sol.n_equations)
            return done

        return {"expr.diff": diff, "vecfield.prolong2": prolong2,
                "expr.normalize": normalize, "expr.is_zero": is_zero,
                "detsys.solve_within_ansatz": solve_within_ansatz}

    def install(self):
        for module, names in TARGETS.items():
            for name in names:
                qual = f"{module}.{name}"
                rebind(module, name, lambda fn, q=qual: self.wrap(q, fn))

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"agg": self.agg, "extra": self.extra,
                       "spans": self.spans}, fh)

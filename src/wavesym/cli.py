"""Command-line interface.

Subcommands expose the individual operations (bracket, prolong, detsys,
check, dim, transform) and the verification campaign (verify).  Exit codes:
0 all verdicts pass, 1 verification failure, 2 usage or parse error,
3 undecided zero tests (sound for CI gating: "proved nonzero" and
"undecided" are different failures).
"""
from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .charts import AUG_COORDS, BASE_COORDS, augmented_chart
from .detsys import (AnsatzBasis, ClassSpec, check_symmetry,
                     generate_determining_system, solve_within_ansatz)
from .expr import (DEPENDENT, INDEPENDENT, JET, Chart, SingularValue,
                   UnknownIdentifier, diff, free_symbols, structurally_zero)
from .parse import ParseError, parse, parse_vector_field
from .printer import to_str
from .classif import SECTIONS, builtin_catalog, run_campaign
from .report import FAIL, PASS, WARN
from .vecfield import EquivParams, apply_equivalence, bracket, prolong2


def _read_config(path: str, keys) -> dict:
    """``key = value`` lines; a key outside ``keys`` or given twice is an error."""
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ValueError(f"unknown key {key!r}, expected one of {', '.join(keys)}")
            if key in out:
                raise ValueError(f"key {key!r} given twice")
            out[key] = value
    return out


def _basis_from_config(cfg: dict, ch: Chart) -> AnsatzBasis:
    overrides = {name: tuple(parse(s.strip(), ch)
                             for s in text.split(";") if s.strip())
                 for name, text in cfg.items()}
    return dataclasses.replace(AnsatzBasis.default(ch), **overrides)


def _parse_fg(args, ch: Chart):
    """The equation's (f, g): functions of (x, u_x) alone, f != 0 and
    (f_ux, g_uxux) != 0."""
    allowed = {ch.get("x"), ch.get("u_x")}
    fg = []
    for name, text in (("f", args.f), ("g", args.g)):
        e = parse(text, ch)
        bad = sorted(s.name for s in free_symbols(e)
                     if s.kind in (INDEPENDENT, DEPENDENT, JET) and s not in allowed)
        if bad:
            raise ValueError(f"{name} may depend on x and u_x only, "
                             f"got {text!r} (depends on {', '.join(bad)})")
        fg.append(e)
    if structurally_zero(fg[0]):
        raise ValueError(f"f must be nonzero, got {args.f!r}")
    ux = ch.get("u_x")
    if (structurally_zero(diff(fg[0], ux))
            and structurally_zero(diff(diff(fg[1], ux), ux))):
        raise ValueError(f"f = {args.f!r}, g = {args.g!r} is outside the "
                         "class: f_ux and g_uxux both vanish")
    return fg


def _jobs(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return n


def cmd_bracket(args) -> int:
    if args.chart == "aug":
        ch, coords = augmented_chart(), AUG_COORDS
    else:
        ch, coords = ClassSpec.default().chart, BASE_COORDS
    V = parse_vector_field(args.V, ch, coords)
    W = parse_vector_field(args.W, ch, coords)
    print(repr(bracket(V, W)))
    return 0


def cmd_prolong(args) -> int:
    spec = ClassSpec.default()
    Q = parse_vector_field(args.Q, spec.chart, BASE_COORDS)
    pr = prolong2(Q)
    for name, e in (("eta^t", pr.eta_t), ("eta^x", pr.eta_x),
                    ("eta^tt", pr.eta_tt), ("eta^tx", pr.eta_tx),
                    ("eta^xx", pr.eta_xx)):
        print(f"{name:7s} = {to_str(e)}")
    return 0


def cmd_detsys(args) -> int:
    print(generate_determining_system(ClassSpec.default()).format())
    return 0


def cmd_check(args) -> int:
    spec = ClassSpec.default()
    ch = spec.chart
    f, g = _parse_fg(args, ch)
    Q = parse_vector_field(args.Q, ch, BASE_COORDS)
    res, residual = check_symmetry(spec, f, g, Q)
    print(f"verdict: {res.verdict}")
    if res.verdict != "zero":
        print(f"residual: {to_str(residual)}")
    return {"zero": 0, "nonzero": 1}.get(res.verdict, 3)


def cmd_dim(args) -> int:
    spec = ClassSpec.default()
    ch = spec.chart
    basis = None
    if args.basis:
        basis = _basis_from_config(_read_config(args.basis, ("tau", "xi", "eta")), ch)
    sol = solve_within_ansatz(spec, *_parse_fg(args, ch), basis)
    print(f"dimension within ansatz: {sol.dimension}")
    for F in sol.fields:
        print(f"  {F!r}")
    return 0


# the keys of a --params file; a key left out keeps its identity value
_TRANSFORM_KEYS = ("c0", "c1", "c2", "c3", "c4", "phi", "psi", "phi_inv")


def cmd_transform(args) -> int:
    spec = ClassSpec.default()
    ch = spec.chart
    cfg = _read_config(args.params, _TRANSFORM_KEYS)
    par = EquivParams.moved(ch, **{key: parse(text, ch) for key, text in cfg.items()})
    f_new, g_new = apply_equivalence(par, *_parse_fg(args, ch))
    print(f"f~ = {to_str(f_new)}")
    print(f"g~ = {to_str(g_new)}")
    return 0


def cmd_verify(args) -> int:
    sections = SECTIONS if args.target == "all" else [args.target]
    report = run_campaign(sections, seed=args.seed, jobs=args.jobs)
    if args.target == "all":
        n_catalog = sum(1 for _ in builtin_catalog())
        n_run = len(report.section("table")) + len(report.section("special"))
        print(f"catalog coverage: {n_run}/{n_catalog} entries verified")
        if n_run != n_catalog:
            print("catalog coverage incomplete", file=sys.stderr)
            return 1
    payload = report.to_json()
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(payload + "\n")
    if args.format == "json":
        print(payload)
    else:
        print(report.summary())
    return {PASS: 0, FAIL: 1, WARN: 3}[report.status]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="wavesym",
        description="Exact symbolic verification for the group classification "
                    "of u_tt = f(x,u_x) u_xx + g(x,u_x)")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bracket", help="Lie bracket of two vector fields")
    p.add_argument("V")
    p.add_argument("W")
    p.add_argument("--chart", choices=("base", "aug"), default="base")
    p.set_defaults(fn=cmd_bracket)

    p = sub.add_parser("prolong", help="second prolongation of a base field")
    p.add_argument("Q")
    p.set_defaults(fn=cmd_prolong)

    p = sub.add_parser("detsys", help="print the determining system")
    p.set_defaults(fn=cmd_detsys)

    p = sub.add_parser("check", help="check a candidate symmetry")
    p.add_argument("-f", required=True)
    p.add_argument("-g", required=True)
    p.add_argument("-Q", required=True)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("dim", help="symmetry dimension within the ansatz")
    p.add_argument("-f", required=True)
    p.add_argument("-g", required=True)
    p.add_argument("--basis", help="config file overriding the ansatz basis")
    p.set_defaults(fn=cmd_dim)

    p = sub.add_parser("transform", help="apply an equivalence transformation")
    p.add_argument("--params", required=True, help="key=value file: c0..c4, phi, psi[, phi_inv]")
    p.add_argument("-f", required=True)
    p.add_argument("-g", required=True)
    p.set_defaults(fn=cmd_transform)

    p = sub.add_parser("verify", help="run the verification campaign")
    p.add_argument("target", choices=SECTIONS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=_jobs, default=1)
    p.add_argument("--report", help="write the machine-readable report here")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; send what is left to devnull, so the
        # flush at interpreter exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, UnknownIdentifier, SingularValue, ValueError,
            OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
import sys

from .charts import AUG_COORDS, BASE_COORDS, augmented_chart
from .detsys import (AnsatzBasis, ClassSpec, check_symmetry,
                     generate_determining_system, solve_within_ansatz)
from .expr import Chart, SingularValue, UnknownIdentifier
from .parse import ParseError, parse, parse_vector_field
from .printer import to_str
from .classif import SECTIONS, builtin_catalog, run_campaign
from .report import FAIL, PASS, WARN
from .vecfield import EquivParams, apply_equivalence, bracket, prolong2


def _read_config(path: str) -> dict:
    out: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def _basis_from_config(cfg: dict, ch: Chart) -> AnsatzBasis:
    overrides = {name: tuple(parse(s.strip(), ch)
                             for s in cfg[name].split(";") if s.strip())
                 for name in ("tau", "xi", "eta") if name in cfg}
    return dataclasses.replace(AnsatzBasis.default(ch), **overrides)


def _field_chart(args):
    if getattr(args, "chart", "base") == "aug":
        return augmented_chart(), AUG_COORDS
    return ClassSpec.default().chart, BASE_COORDS


def cmd_bracket(args) -> int:
    ch, coords = _field_chart(args)
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
    f = parse(args.f, ch)
    g = parse(args.g, ch)
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
        basis = _basis_from_config(_read_config(args.basis), ch)
    sol = solve_within_ansatz(spec, parse(args.f, ch), parse(args.g, ch), basis)
    print(f"dimension within ansatz: {sol.dimension}")
    for F in sol.fields:
        print(f"  {F!r}")
    return 0


def cmd_transform(args) -> int:
    spec = ClassSpec.default()
    ch = spec.chart
    cfg = _read_config(args.params)

    def val(key, default):
        return parse(cfg[key], ch) if key in cfg else parse(default, ch)

    par = EquivParams(
        ch, c0=val("c0", "0"), c1=val("c1", "1"), c2=val("c2", "1"),
        c3=val("c3", "0"), c4=val("c4", "0"), phi=val("phi", "x"),
        psi=val("psi", "0"),
        phi_inv=parse(cfg["phi_inv"], ch) if "phi_inv" in cfg else None)
    f_new, g_new = apply_equivalence(par, parse(args.f, ch), parse(args.g, ch))
    print(f"f~ = {to_str(f_new)}")
    print(f"g~ = {to_str(g_new)}")
    return 0


def cmd_verify(args) -> int:
    targets = {"table": ["table"], "algebra": ["algebra"], "group": ["group"],
               "adjoint": ["adjoint"], "reductions": ["reductions"],
               "potential": ["potential"], "subalgebras": ["subalgebras"],
               "special": ["special"], "all": list(SECTIONS)}
    if args.target not in targets:
        print(f"unknown verify target {args.target!r}", file=sys.stderr)
        return 2
    seed = args.seed
    report = run_campaign(targets[args.target], seed=seed, jobs=args.jobs)
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
    p.add_argument("target", choices=("table", "algebra", "group", "adjoint",
                                      "reductions", "potential", "subalgebras",
                                      "special", "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
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
        return args.fn(args)
    except (ParseError, UnknownIdentifier, SingularValue, ValueError,
            FileNotFoundError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

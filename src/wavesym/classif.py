"""Built-in catalog of the classification results and campaign drivers.

The catalog carries one entry per classification case: the arbitrary
elements (f,g) with their parameter constraints, the extension generators on
top of the kernel <d_t, d_u, t d_u>, and the expected total dimension.
Entries of the auxiliary lists that restate a table row are built from it.
Verification checks per case: exact vanishing of the invariance residual
for every generator (parameters symbolic), bracket closure of
kernel+extension, and at generic parameter samples the symmetry dimension
within the default ansatz and that kernel+extension span those symmetries,
read on the null vectors of the ansatz system.
Dimension claims are statements *within the ansatz*.  The drivers that work
on the class take a ``ClassSpec``, which computes its kernel check and
default ansatz once; a serial campaign shares one spec among its sections.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import partial
from typing import Sequence

from ._linalg import EchelonBasis, axpy
from .charts import BASE_COORDS
from .detsys import (ClassSpec, check_symmetry, kernel_fields,
                     solve_within_ansatz)
from .equivalence import (EquivalenceAlgebra, Gen, lift_D, lift_Dt, lift_Du,
                          lift_F2, lift_G)
from .expr import (Chart, Expr, MINUS_ONE, Rat, add_products, app, diff,
                   equal, lnabs, mul, pow_, rat, structurally_zero, substitute,
                   sym, total_derivative)
from .liealg import (LieAlgebraPresentation, NonClosure, Subspace,
                     _Coordinatizer, close_or_fail, center, centralizer,
                     coordinate_subspace, derived_series,
                     flag_automorphism_solve, is_ideal, is_solvable,
                     subspace_intersection)
from .parse import parse, parse_vector_field
from .report import CampaignReport, CaseReport
from .vecfield import (EquivParams, VectorField, bracket, pushforward,
                       transform_equation, transform_equation_old_coords,
                       apply_equivalence)


@dataclass
class ClassificationCase:
    """One row of the classification table (or an auxiliary list)."""
    id: str
    f: str
    g: str
    generators: tuple
    dim: int
    samples: tuple = ()
    notes: str = ""
    crossref: str = ""

    def parsed(self, spec: ClassSpec):
        ch = spec.chart
        f = parse(self.f, ch)
        g = parse(self.g, ch)
        gens = [parse_vector_field(s, ch, BASE_COORDS) for s in self.generators]
        return f, g, gens


_S = lambda **kw: {k: Fraction(v) for k, v in kw.items()}

CATALOG: list = [
    ClassificationCase(
        "1", "F(x - eps*lnabs(u_x))*u_x^(-1)",
        "G(x - eps*lnabs(u_x)) + 2*lnabs(u_x)",
        ("t@t + 2*eps@x + (2*u + 2*t^2)@u",), 4,
        samples=(_S(eps=0), _S(eps=1)),
        notes="arbitrary F, G of the similarity variable"),
    ClassificationCase(
        "2", "F(x - eps*lnabs(u_x))*abs(u_x)^(2*p)",
        "G(x - eps*lnabs(u_x))*abs(u_x)^(2*p)*u_x",
        ("-p*t@t + eps@x + u@u",), 4,
        samples=(_S(p=3, eps=0), _S(p=-3, eps=1), _S(p=Fraction(5, 2), eps=1))),
    ClassificationCase(
        "3", "F(u_x)*exp(2*x)", "G(u_x)*exp(2*x)",
        ("t@t - 1@x",), 4, samples=(_S(),)),
    ClassificationCase(
        "4", "F(x)*exp(2*u_x)", "G(x)*exp(2*u_x)",
        ("t@t - x@u",), 4, samples=(_S(),)),
    ClassificationCase(
        "5", "F(u_x)", "G(u_x) + 2*eps*x",
        ("1@x + eps*t^2@u",), 4, samples=(_S(eps=0), _S(eps=1))),
    ClassificationCase(
        "6", "delta*u_x^(-4)", "mu(x)*u_x^(-3)",
        ("t^2@t + t*u@u", "2*t@t + u@u"), 5,
        samples=(_S(delta=1), _S(delta=-1)), crossref="L8.1:0"),
    ClassificationCase(
        "7", "delta*exp(2*x)*abs(u_x)^(2*p)", "nu*exp(2*x)*abs(u_x)^(2*p)*u_x",
        ("p@x - u@u", "t@t - 1@x"), 5,
        samples=(_S(p=1, nu=1, delta=1), _S(p=3, nu=2, delta=-1),
                 _S(p=-3, nu=2, delta=1)),
        notes="p != 0, -2; nu*(p+1) != delta"),
    ClassificationCase(
        "8", "delta*x^2*exp(2*u_x)", "nu*x*exp(2*u_x)",
        ("x@x + u@u", "t@t - x@u"), 5,
        samples=(_S(nu=2, delta=1), _S(nu=3, delta=-1), _S(nu=-2, delta=1)),
        notes="nu != delta"),
    ClassificationCase(
        "9", "F(u_x)", "0", ("1@x", "t@t + x@x + u@u"), 5, samples=(_S(),)),
    ClassificationCase(
        "10", "delta", "exp(-u_x)",
        ("1@x", "t@t + x@x + (u + x)@u"), 5,
        samples=(_S(delta=1), _S(delta=-1))),
    ClassificationCase(
        "11", "delta*exp(2*u_x)", "2*u_x",
        ("1@x", "t@t + 2*x@x + (2*u + x + t^2)@u"), 5,
        samples=(_S(delta=1), _S(delta=-1))),
    ClassificationCase(
        "12", "delta*exp(2*u_x)", "exp(u_x) + 2*eps2*x",
        ("x@x + (u + x)@u", "1@x + eps2*t^2@u"), 5,
        samples=(_S(eps2=1, delta=1), _S(eps2=-1, delta=1), _S(eps2=1, delta=-1))),
    ClassificationCase(
        "13", "delta*exp(2*u_x)", "exp(q*u_x)",
        ("1@x", "(1-q)*t@t + (2-q)*x@x + ((2-q)*u + x)@u"), 5,
        samples=(_S(q=3, delta=1), _S(q=-2, delta=-1), _S(q=Fraction(5, 2), delta=1)),
        notes="q != 0"),
    ClassificationCase(
        "14", "delta*abs(u_x)^(2*p)", "abs(u_x)^q",
        ("1@x", "(1+p-q)*t@t + (1+2*p-q)*x@x + (2+2*p-q)*u@u"), 5,
        samples=(_S(p=3, q=5, delta=1), _S(p=-3, q=2, delta=-1),
                 _S(p=Fraction(5, 2), q=-3, delta=1)),
        notes="q != 0, (p,q) != (-1,-1), (-2,-3)"),
    ClassificationCase(
        "15", "delta*abs(u_x)^(2*p)", "eps*abs(u_x)^(p + 1/2) + 2*x",
        ("1@x + t^2@u", "t@t + (1+2*p)*x@x + (3+2*p)*u@u"), 5,
        samples=(_S(p=2, eps=1, delta=1), _S(p=-3, eps=0, delta=-1),
                 _S(p=Fraction(3, 2), eps=1, delta=-1)),
        notes="eps = 0 mod equivalence if p = -1/2 (sampling exclusion)"),
    ClassificationCase(
        "16", "delta*abs(u_x)^(2*p)", "2*lnabs(u_x)",
        ("1@x", "(1+p)*t@t + (1+2*p)*x@x + (2*(1+p)*u + t^2)@u"), 5,
        samples=(_S(p=2, delta=1), _S(p=-1, delta=-1),
                 _S(p=Fraction(-5, 2), delta=1)),
        crossref="C9.1:1 at p=-1"),
    ClassificationCase(
        "17", "delta*u_x^(-1)", "2*lnabs(u_x) + 2*x",
        ("1@x + t^2@u", "t@t + (2*u + 2*t^2)@u"), 5,
        samples=(_S(delta=1), _S(delta=-1))),
    ClassificationCase(
        "18", "delta*u_x^(-4)", "u_x^(-3)",
        ("t^2@t + t*u@u", "2*t@t + u@u", "1@x"), 6,
        samples=(_S(delta=1), _S(delta=-1)), crossref="L8.1:1"),
    ClassificationCase(
        "19", "delta*u_x^(-4)", "nu*x^(-1)*u_x^(-3)",
        ("t^2@t + t*u@u", "2*t@t + u@u", "2*x@x + u@u"), 6,
        samples=(_S(nu=2, delta=1), _S(nu=-3, delta=-1), _S(nu=Fraction(1, 2), delta=1)),
        notes="nu != 0", crossref="L8.1:2"),
    ClassificationCase(
        "20", "delta*abs(u_x)^(2*p)", "0",
        ("1@x", "t@t + x@x + u@u", "p*t@t - u@u"), 6,
        samples=(_S(p=3, delta=1), _S(p=-1, delta=-1), _S(p=Fraction(5, 2), delta=1)),
        notes="p != -2, 0", crossref="C9.1:2 at p=-1"),
    ClassificationCase(
        "21", "delta*exp(2*u_x)", "0",
        ("1@x", "t@t + x@x + u@u", "t@t - x@u"), 6,
        samples=(_S(delta=1), _S(delta=-1))),
    ClassificationCase(
        "22", "delta*u_x^(-4)", "0",
        ("t^2@t + t*u@u", "2*t@t + u@u", "1@x", "2*x@x + u@u"), 7,
        samples=(_S(delta=1), _S(delta=-1)), crossref="L8.1:3, L8.3:3",
        notes="maximal dimension in the class"),
]


def _restated(row_id: str, entry_id: str, **own) -> ClassificationCase:
    """An auxiliary-list entry that restates table row ``row_id``: its f, g,
    generators and dim are the row's; ``own`` keeps the fields that differ."""
    row = next(c for c in CATALOG if c.id == row_id)
    return replace(row, id=entry_id, crossref=f"Table case {row_id}", **own)


SPECIAL_CATALOG: list = [
    _restated("6", "L8.1:0"),
    _restated("18", "L8.1:1"),
    _restated("19", "L8.1:2", samples=(_S(nu=2, delta=1), _S(nu=-1, delta=-1))),
    _restated("22", "L8.1:3"),
    ClassificationCase(
        "L8.3:0", "theta(x)*u_x^(-4)", "0",
        ("t^2@t + t*u@u", "2*t@t + u@u"), 5, samples=(_S(),)),
    ClassificationCase(
        "L8.3:1", "delta*exp(2*x)*u_x^(-4)", "0",
        ("t^2@t + t*u@u", "2*t@t + u@u", "2@x + u@u"), 6,
        samples=(_S(delta=1), _S(delta=-1))),
    ClassificationCase(
        "L8.3:2", "delta*abs(x)^(2*p)*u_x^(-4)", "0",
        ("t^2@t + t*u@u", "2*t@t + u@u", "2*x@x + (p + 1)*u@u"), 6,
        samples=(_S(p=2, delta=1), _S(p=-3, delta=-1), _S(p=Fraction(1, 2), delta=1)),
        notes="p != 0"),
    _restated("22", "L8.3:3", samples=(_S(delta=1),)),
    ClassificationCase(
        "C9.1:1", "delta*u_x^(-2)", "2*lnabs(u_x)",
        ("1@x", "x@x - t^2@u"), 5,
        samples=(_S(delta=1), _S(delta=-1)), crossref="Table case 16 at p=-1"),
    ClassificationCase(
        "C9.1:2", "delta*u_x^(-2)", "0",
        ("1@x", "x@x", "t@t + u@u"), 6,
        samples=(_S(delta=1), _S(delta=-1)), crossref="Table case 20 at p=-1"),
]


def builtin_catalog() -> list:
    """The built-in catalog: table rows 1-22 plus the auxiliary lists."""
    return list(CATALOG) + list(SPECIAL_CATALOG)


# ---------------------------------------------------------------------------
# per-case verification

def _instantiate(e: Expr, ch: Chart, sample: dict) -> Expr:
    table = {ch.get(k): rat(v) for k, v in sample.items()}
    return substitute(e, table) if table else e


def _kernel_extension(ch: Chart, gens: Sequence[VectorField],
                      sample: dict) -> list:
    """The kernel and the case's generators at ``sample``."""
    return kernel_fields(ch) + [
        VectorField(ch, BASE_COORDS, {c: _instantiate(v, ch, sample)
                                      for c, v in Q.coeffs.items()}, check=False)
        for Q in gens]


def verify_case(spec: ClassSpec, case: ClassificationCase) -> CaseReport:
    """The case's checks."""
    ch = spec.chart
    rep = CaseReport(case.id)
    f, g, gens = case.parsed(spec)

    for i, Q in enumerate(gens):
        res, residual = check_symmetry(spec, f, g, Q)
        if res.verdict == "zero":
            rep.add(f"generator {i + 1} residual", True)
        elif res.verdict == "undecided-after-sampling":
            rep.warn(f"generator {i + 1} residual", res.detail)
        else:
            rep.add(f"generator {i + 1} residual", False, f"residual {residual!r}")

    samples = case.samples or ({},)
    instantiated = [_kernel_extension(ch, gens, sample) for sample in samples]
    try:
        close_or_fail(instantiated[0])
        rep.add("kernel+extension closes under bracket", True)
    except NonClosure as e:
        rep.add("kernel+extension closes under bracket", False, str(e))

    kernel_ok = spec.kernel_is_symmetry
    # each basis slot decomposed once; a solver field is its null vector's
    # combination of them
    coord = _Coordinatizer()
    slots = [coord.terms(*slot) for slot in spec.default_ansatz.basis.slots]
    for sample, fields in zip(samples, instantiated):
        sol = solve_within_ansatz(spec, _instantiate(f, ch, sample),
                                  _instantiate(g, ch, sample))
        label = ",".join(f"{k}={v}" for k, v in sample.items()) or "generic"
        rep.add(f"dimension within ansatz at {label}",
                sol.dimension == case.dim,
                f"got {sol.dimension}, expected {case.dim}")
        # kernel + generators independent, of rank dim, holding every
        # solver field: they span the symmetries within the ansatz
        basis = EchelonBasis()
        kept = sum(basis.insert(coord.decompose(F)) for F in fields)
        reduced = sum(not basis.reduce(_negated_combination(slots, vec))[0]
                      for vec in sol.null)
        rep.add(f"kernel+generators span the ansatz solutions at {label}",
                kernel_ok and kept == len(fields) == case.dim
                and reduced == sol.dimension,
                f"rank {kept} of {len(fields)} fields, expected {case.dim}; "
                f"{reduced} of {sol.dimension} solver fields reduce to zero")
    return rep


def _negated_combination(slots: list, vec: dict) -> dict:
    """-sum_j vec[j] slots[j] over decomposed slots: the solver field of the
    null vector ``vec``, negated, which reduces to zero when it does."""
    out: dict = {}
    for j, c in vec.items():
        axpy(out, c, slots[j])
    return out


def verify_table(spec: ClassSpec) -> list:
    return [verify_case(spec, case) for case in CATALOG]


def verify_special_lists(spec: ClassSpec) -> list:
    return [verify_case(spec, case) for case in SPECIAL_CATALOG]


# ---------------------------------------------------------------------------
# equivalence algebra: commutator table, megaideals, automorphism flags

def _sample_polys(ea: EquivalenceAlgebra, rng: random.Random) -> list:
    x = sym(ea.chart.get("x"))
    out = []
    for _ in range(2):
        coeffs = [Fraction(rng.randint(-5, 5)) for _ in range(3)] + \
                 [Fraction(rng.randint(1, 5))]
        out.append(add_products(*[(rat(c), pow_(x, k)) for k, c in enumerate(coeffs)]))
    return out


def verify_equivalence_algebra(seed: int = 0) -> CaseReport:
    rep = CaseReport("commutator table")
    ea = EquivalenceAlgebra()
    rng = random.Random(seed ^ 0xA11CE)
    x = sym(ea.chart.get("x"))

    # the printed relations, with formal phi/psi
    phi = ea.formal("phi")
    psi = ea.formal("psi")
    phi1, phi2 = ea.formal("phi1"), ea.formal("phi2")
    listed = [
        (Gen("G", psi), Gen("Du")), (Gen("F1"), Gen("Du")), (Gen("F2"), Gen("Du")),
        (Gen("Dt"), Gen("F1")), (Gen("Dt"), Gen("F2")),
        (Gen("Pt"), Gen("Dt")), (Gen("Pt"), Gen("F1")), (Gen("Pt"), Gen("F2")),
        (Gen("D", phi1), Gen("D", phi2)), (Gen("D", phi), Gen("G", psi)),
    ]
    for a, b in listed:
        got = bracket(ea.field(a), ea.field(b))
        want = ea.expected_bracket(a, b)
        rep.add(f"[{a.label()}, {b.label()}]", got == want)

    # all pairs over an instantiated generator set: listed plus all-zero rest
    fns = [rat(1), x, mul(x, x), parse("exp(x)", ea.chart)] + _sample_polys(ea, rng)
    gens = [Gen("Du"), Gen("Dt"), Gen("Pt"), Gen("F1"), Gen("F2")]
    gens += [Gen("D", fn) for fn in fns]
    gens += [Gen("G", fn) for fn in fns]
    pairs = [(a, ea.field(a)) for a in gens]
    bad = 0
    for i, (a, A) in enumerate(pairs):
        for b, B in pairs[i + 1:]:
            if not (bracket(A, B) == ea.expected_bracket(a, b)):
                bad += 1
                rep.add(f"instantiated [{a.label()}, {b.label()}]", False)
    rep.add(f"all {len(gens) * (len(gens) - 1) // 2} instantiated pairs match "
            "the table (unlisted pairs vanish)", bad == 0)
    return rep


G11_LABELS = ("Du", "Dt", "Pt", "F1", "F2", "D1", "Dx", "G1", "Gx", "Gx2", "Gx3")


def _g11_fields(ea: EquivalenceAlgebra) -> list:
    """The closed 11-dimensional instantiation of the equivalence algebra:
    phi in {1, x}, psi in {1, x, x^2, x^3}, in the order of ``G11_LABELS``."""
    x = sym(ea.chart.get("x"))
    phis = [rat(1), x]
    psis = [rat(1), x, mul(x, x), mul(x, x, x)]
    return ([ea.field(Gen(k)) for k in ("Du", "Dt", "Pt", "F1", "F2")]
            + [ea.field(Gen("D", fn)) for fn in phis]
            + [ea.field(Gen("G", fn)) for fn in psis])


def verify_megaideals() -> CaseReport:
    """The chain m' , m'', Z_m, C_m(m'') of the five-dimensional subalgebra
    m = <G(1), F1, F2, Pt, Dt>, and the flag-constrained automorphism solve."""
    rep = CaseReport("megaideal chain")
    ea = EquivalenceAlgebra()
    fields = [ea.field(Gen("G", rat(1))), ea.field(Gen("F1")),
              ea.field(Gen("F2")), ea.field(Gen("Pt")), ea.field(Gen("Dt"))]
    m = close_or_fail(fields, labels=["G1", "F1", "F2", "Pt", "Dt"])
    ds = derived_series(m)
    rep.add("m' = <G(1),F1,F2,Pt>", ds[1] == coordinate_subspace([0, 1, 2, 3], 5))
    rep.add("m'' = <G(1),F1>", ds[2] == coordinate_subspace([0, 1], 5))
    rep.add("Z_m = <G(1)>", center(m) == coordinate_subspace([0], 5))
    rep.add("C_m(m'') = <G(1),F1,F2>",
            centralizer(m, ds[2]) == coordinate_subspace([0, 1, 2], 5))
    rep.add("m is solvable (radical(m) = m)", is_solvable(m, m.whole()))

    flag = [coordinate_subspace(list(range(k)), 5) for k in (1, 2, 3, 4, 5)]
    fam = flag_automorphism_solve(m, flag)
    names = {s.name: sym(s) for s in fam.symbols.values()}
    rep.add("a55 = 1", equal(fam.entry(4, 4), rat(1)))
    rep.add("a34 = 0", structurally_zero(fam.entry(2, 3)))
    rep.add("a24 = a44*a35",
            equal(fam.entry(1, 3), mul(names["a44"], names["a35"])))
    rep.add("a14 = a44*a25 - a45*a24",
            equal(fam.entry(0, 3), add_products(
                (names["a44"], names["a25"]), (MINUS_ONE, names["a45"], fam.entry(1, 3)))))
    rep.add("no unresolved constraints", not fam.unresolved)
    rep.add("<G(1),F1,Pt> invariant under the whole family",
            (1, 2, 4) in fam.invariant_coordinate_subspaces)
    rep.add("every solved matrix preserves the table at random parameters",
            _automorphism_numeric_check(m, fam, seed=7, trials=20))

    # solvable-ideal candidate for the radical on a closed instantiation
    labels = list(G11_LABELS)
    g11 = close_or_fail(_g11_fields(ea), labels=labels)
    rad_idx = [i for i, lbl in enumerate(labels) if lbl not in ("D1", "Dx")]
    cand = coordinate_subspace(rad_idx, len(labels))
    rep.add("radical candidate <Du,Dt,Pt,G(psi),F1,F2> is an ideal (instantiated)",
            is_ideal(g11, cand))
    rep.add("radical candidate is solvable (instantiated)", is_solvable(g11, cand))

    # the printed derived/centralizer spans, on the closed instantiation
    def span_of(*names):
        return coordinate_subspace([labels.index(n) for n in names], len(labels))

    g1_span = span_of("Pt", "F1", "F2", "D1", "Dx", "G1", "Gx", "Gx2", "Gx3")
    g3_span = span_of("D1", "Dx", "G1", "Gx", "Gx2", "Gx3")
    rep.add("g' candidate <Pt,D(phi),G(psi),F1,F2> is an ideal (instantiated)",
            is_ideal(g11, g1_span))
    # inside a subalgebra h: C_h(S) = C_g(S) ^ h, and Z_h = C_g(h) ^ h
    c_g3 = centralizer(g11, g3_span)
    rep.add("C_g(g''') = <Dt,Pt,G(1),F1,F2> (instantiated)",
            c_g3 == span_of("Dt", "Pt", "G1", "F1", "F2"))
    rep.add("C_g'(g''') = <Pt,G(1),F1,F2> (instantiated)",
            subspace_intersection(c_g3, g1_span) == span_of("Pt", "G1", "F1", "F2"))
    g2_span = span_of("D1", "Dx", "G1", "Gx", "Gx2", "Gx3", "F1")
    c_g2 = centralizer(g11, g2_span)
    rep.add("C_g'(g'') = <G(1),F1,F2> (instantiated)",
            subspace_intersection(c_g2, g1_span) == span_of("G1", "F1", "F2"))
    rep.add("Z_g'' = <G(1),F1> (instantiated)",
            subspace_intersection(c_g2, g2_span) == span_of("G1", "F1"))
    rep.add("Z_g' = <G(1)> (instantiated)",
            subspace_intersection(centralizer(g11, g1_span), g1_span)
            == span_of("G1"))
    return rep


def _automorphism_numeric_check(m: LieAlgebraPresentation, fam, seed: int,
                                trials: int) -> bool:
    rng = random.Random(seed)
    free = [s for s in fam.symbols.values() if s not in fam.solved]
    n = m.n
    for _ in range(trials):
        env = {}
        for s in free:
            v = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            if rng.random() < 0.5 and not s.nonzero:
                v = -v
            env[s] = rat(v)
        # column j of the matrix: the sparse image A e_j
        cols = [{} for _ in range(n)]
        for i in range(n):
            for j in range(n):
                e = substitute(fam.entry(i, j), env)
                if not isinstance(e, Rat):
                    return False
                if e.q:
                    cols[j][i] = e.q
        for i in range(n):
            for j in range(i + 1, n):
                # A [e_i, e_j] against [A e_i, A e_j]
                lhs: dict = {}
                for k, c in m.c(i, j).items():
                    axpy(lhs, -c, cols[k])
                if lhs != m.bracket_coords(cols[i], cols[j]):
                    return False
    return True


# ---------------------------------------------------------------------------
# adjoint actions

def verify_adjoint_actions() -> CaseReport:
    rep = CaseReport("adjoint actions")
    ea = EquivalenceAlgebra()
    ch = ea.chart
    x = sym(ch.get("x"))
    c1, c2, c4 = (sym(ch.get(n)) for n in ("c1", "c2", "c4"))
    phi, psi = ea.formal("phi"), ea.formal("psi")

    def D_of(e):
        return ea.field(Gen("D", e))

    def G_of(e):
        return ea.field(Gen("G", e))

    checks = [
        ("F2*(c4) Dt = Dt + 2 c4 F2", lift_F2(ch, c4), ea.field(Gen("Dt")),
         ea.field(Gen("Dt")) + ea.field(Gen("F2")).scale(mul(rat(2), c4))),
        ("Dt*(c1) F2 = c1^-2 F2", lift_Dt(ch, c1), ea.field(Gen("F2")),
         ea.field(Gen("F2")).scale(pow_(c1, -2))),
        ("G*(psi) Du = Du - G(psi)", lift_G(ch, psi), ea.field(Gen("Du")),
         ea.field(Gen("Du")) - G_of(psi)),
        ("Du*(c2) G(psi) = c2 G(psi)", lift_Du(ch, c2), G_of(psi),
         G_of(psi).scale(c2)),
        ("F2*(c4) Du = Du - c4 F2", lift_F2(ch, c4), ea.field(Gen("Du")),
         ea.field(Gen("Du")) - ea.field(Gen("F2")).scale(c4)),
        ("Du*(c2) F2 = c2 F2", lift_Du(ch, c2), ea.field(Gen("F2")),
         ea.field(Gen("F2")).scale(c2)),
        ("G*(psi) D(phi) = D(phi) + G(phi psi_x)", lift_G(ch, psi), D_of(phi),
         D_of(phi) + G_of(mul(phi, diff(psi, ch.get("x"))))),
    ]
    for name, L, V, want in checks:
        rep.add(name, pushforward(L, V) == want)

    # D_*(theta) actions at invertible closed-form samples
    thetas = [(parse("exp(x)", ch), lnabs(x), "exp(x)"),
              (parse("2*x + 1", ch), parse("(x - 1)/2", ch), "2x+1")]
    for theta, theta_hat, label in thetas:
        L = lift_D(ch, theta, theta_hat)
        got = pushforward(L, G_of(psi))
        want = G_of(app(ch.get("psi"), (0,), (theta_hat,)))
        rep.add(f"D*(theta) G(psi) = G(psi o theta^-1), theta = {label}",
                got == want)
        got = pushforward(L, D_of(phi))
        comp = app(ch.get("phi"), (0,), (theta_hat,))
        want = D_of(mul(comp, pow_(diff(theta_hat, ch.get("x")), -1)))
        rep.add(f"D*(theta) D(phi) = D(phi o theta^-1 / theta^-1_x), theta = {label}",
                got == want)
    return rep


# ---------------------------------------------------------------------------
# equivalence group: elementary rows, consistency, group law

def _elementary_rows(spec: ClassSpec):
    """The seven elementary transformations as (name, EquivParams, expected
    (f~, g~) in old coordinates); each moves one parameter off the identity."""
    ch = spec.chart
    x = sym(ch.get("x"))
    ux = sym(ch.get("u_x"))
    c0, c1, c2, c3, c4 = (sym(ch.get(n)) for n in ("c0", "c1", "c2", "c3", "c4"))
    phi = app(ch.get("phi"), (0,), (x,))
    psi = app(ch.get("psi"), (0,), (x,))
    phi_x = diff(phi, ch.get("x"))
    phi_xx = diff(phi_x, ch.get("x"))
    psi_xx = diff(diff(psi, ch.get("x")), ch.get("x"))
    f, g = spec.f_symbolic(), spec.g_symbolic()
    par = partial(EquivParams.moved, ch)
    return [
        ("P^t(c0)", par(c0=c0), f, g),
        ("D^t(c1)", par(c1=c1), mul(pow_(c1, -2), f), mul(pow_(c1, -2), g)),
        ("D(phi)", par(phi=phi),
         mul(pow_(phi_x, 2), f), add_products((g,), (phi_xx, ux, f, pow_(phi_x, -1)))),
        ("D^u(c2)", par(c2=c2), f, mul(c2, g)),
        ("F^1(c3)", par(c3=c3), f, g),
        ("F^2(c4)", par(c4=c4), f, add_products((g,), (rat(2), c4))),
        ("G(psi)", par(psi=psi), f, add_products((g,), (MINUS_ONE, psi_xx, f))),
    ]


def verify_equivalence_group(spec: ClassSpec, seed: int = 0) -> CaseReport:
    """Each elementary transformation: change of variables equals the printed
    row and equals the closed-form group action; then the composition
    decomposition as a group law at random parameters."""
    ch = spec.chart
    rep = CaseReport("equivalence group")
    f, g = spec.f_symbolic(), spec.g_symbolic()
    x = sym(ch.get("x"))

    for name, par, f_want, g_want in _elementary_rows(spec):
        f_got, g_got = transform_equation_old_coords(par, f, g)
        ok = equal(f_got, f_want) and equal(g_got, g_want)
        rep.add(f"{name}: change of variables equals the printed row", ok)
        image = par.action(f, g)
        rep.add(f"{name}: closed-form action agrees",
                equal(f_got, image["f"]) and equal(g_got, image["g"]))

    # the three independent discrete equivalence transformations
    ux = sym(ch.get("u_x"))
    neg_args = {ch.get("x"): mul(rat(-1), x), ch.get("u_x"): mul(rat(-1), ux)}
    neg_ux = {ch.get("u_x"): mul(rat(-1), ux)}
    moved = partial(EquivParams.moved, ch)
    discrete = [
        ("t -> -t", moved(c1=rat(-1)), f, g),
        ("x -> -x", moved(phi=mul(rat(-1), x)),
         substitute(f, neg_args), substitute(g, neg_args)),
        ("u -> -u", moved(c2=rat(-1)),
         substitute(f, neg_ux), mul(rat(-1), substitute(g, neg_ux))),
    ]
    for name, P, fw, gw in discrete:
        fn, gn = transform_equation(P, f, g)
        rep.add(f"discrete map {name} stays in the class with (f,g) -> "
                "(f, g), (f, g) or (f, -g) as appropriate",
                equal(fn, fw) and equal(gn, gw))

    # group law on the composition decomposition at random parameters
    rng = random.Random(seed ^ 0xC0FFEE)
    for trial in range(2):
        def rnd(nonzero=False):
            v = Fraction(rng.randint(1, 6), rng.randint(1, 4))
            if not nonzero and rng.random() < 0.4:
                v = -v
            return v
        c0v, c3v, c4v = rnd(), rnd(), rnd()
        c1v, c2v = rnd(nonzero=True), rnd(nonzero=True)
        a, b = rnd(nonzero=True), rnd(nonzero=True)
        # phi = a e^{b x}, strictly monotone with closed-form inverse
        phi_c = mul(rat(a), parse(f"exp({b}*x)", ch))
        phi_inv = mul(pow_(rat(b), -1), add_products((lnabs(x),), (MINUS_ONE, lnabs(rat(a)))))
        psi_c = add_products(*[(rat(rnd()), pow_(x, k)) for k in range(3)])
        par = EquivParams(ch, rat(c0v), rat(c1v), rat(c2v), rat(c3v), rat(c4v),
                          phi_c, psi_c, phi_inv=phi_inv)
        whole = transform_equation(par, f, g)
        direct = apply_equivalence(par, f, g)
        rep.add(f"composition decomposition (random draw {trial + 1}): "
                "closed-form group action equals the change of variables",
                equal(direct[0], whole[0]) and equal(direct[1], whole[1]))
        seq_transforms = [  # rightmost acts first
            moved(psi=mul(rat(1 / c2v), psi_c)),            # G(psi/c2)
            moved(c4=rat(c4v / c2v)),                       # F2(c4/c2)
            moved(c3=rat(c3v / c2v)),                       # F1(c3/c2)
            moved(c2=rat(c2v)),                             # Du(c2)
            moved(phi=phi_c, phi_inv=phi_inv),              # D(phi)
            moved(c0=rat(c0v / c1v)),                       # Pt(c0/c1)
            moved(c1=rat(c1v)),                             # Dt(c1)
        ]
        cur = (f, g)
        for P in seq_transforms:
            cur = transform_equation(P, cur[0], cur[1])
        rep.add(f"composition decomposition (random draw {trial + 1}): "
                "stepwise elementary action equals the whole transformation",
                equal(cur[0], whole[0]) and equal(cur[1], whole[1]))
        # and the composed single element has the whole maps and image
        comp = seq_transforms[0]
        for P in seq_transforms[1:]:
            comp = P.compose(comp)
        comp_result = transform_equation(comp, f, g)
        rep.add(f"composition decomposition (random draw {trial + 1}): "
                "composed transform equals the whole transformation",
                equal(comp.T(), par.T()) and equal(comp.phi, par.phi)
                and equal(comp.U(), par.U())
                and equal(comp_result[0], whole[0]) and equal(comp_result[1], whole[1]))
    return rep


# ---------------------------------------------------------------------------
# reductions between cases with singular parameter values

def verify_reductions(spec: ClassSpec) -> list:
    ch = spec.chart
    reports = []
    x = sym(ch.get("x"))
    ux = sym(ch.get("u_x"))
    delta, nu = sym(ch.get("delta")), sym(ch.get("nu"))
    moved = partial(EquivParams.moved, ch)

    rep = CaseReport("case 7 -> 19")
    for p in (1, 2):
        fzn = parse(f"delta*exp(2*x)*u_x^({2 * p})", ch)
        gzn = parse(f"nu*exp(2*x)*u_x^({2 * p})*u_x", ch)
        scale = Fraction(p + 1) ** (-(p + 1))
        P = moved(c1=rat(scale), phi=parse(f"exp(-x/{p + 1})", ch),
                  phi_inv=mul(rat(-(p + 1)), lnabs(x)))
        fn, gn = transform_equation(P, fzn, gzn)
        nu_t = add_products((delta,), (rat(-(p + 1)), nu))
        ok_f = equal(fn, mul(delta, pow_(ux, Fraction(2 * p))))
        ok_g = equal(gn, mul(nu_t, pow_(x, -1), pow_(ux, Fraction(2 * p + 1))))
        rep.add(f"p={p}: image is the case-19 form with nu~ = delta - nu(p+1)",
                ok_f and ok_g)
        for nuv in (1, 2):
            gi = substitute(gn, {ch.get("nu"): rat(nuv)})
            rep.add(f"p={p}, nu={nuv}: instantiation consistent",
                    equal(substitute(gi, {ch.get("delta"): rat(1)}),
                          mul(rat(1 - nuv * (p + 1)), pow_(x, -1),
                              pow_(ux, Fraction(2 * p + 1)))))
    reports.append(rep)

    rep = CaseReport("case 8 -> 21-form")
    psi = add_products((x, lnabs(x)), (MINUS_ONE, x))
    P = moved(psi=psi)
    f8 = parse("delta*x^2*exp(2*u_x)", ch)
    g8 = parse("nu*x*exp(2*u_x)", ch)
    fn, gn = transform_equation(P, f8, g8)
    rep.add("image is exp(2 u_x)(delta u_xx + (nu - delta) x^-1)",
            equal(fn, mul(delta, parse("exp(2*u_x)", ch))) and
            equal(gn, mul(add_products((nu,), (MINUS_ONE, delta)), pow_(x, -1),
                          parse("exp(2*u_x)", ch))))
    gn21 = substitute(gn, {ch.get("nu"): delta})
    rep.add("coincides with case 21 at nu = delta", structurally_zero(gn21))
    reports.append(rep)

    rep = CaseReport("x-free subclass case X -> 20|p=-1")
    PX = moved(phi=parse("exp(x)", ch), phi_inv=lnabs(x))
    fX = parse("delta*u_x^(-2)", ch)
    fn, gn = transform_equation(PX, fX, parse("-delta*u_x^(-1)", ch))
    rep.add("x~ = e^x maps (delta u_x^-2, -delta u_x^-1) to (delta u_x^-2, 0)",
            equal(fn, fX) and structurally_zero(gn))
    # the printed sign combination instead leaves 2 delta x^-1 u_x^-1 (documented)
    fn2, gn2 = transform_equation(PX, fX, parse("delta*u_x^(-1)", ch))
    rep.add("the opposite sign combination leaves g~ = 2 delta x^-1 u_x^-1 "
            "(not a member of the g = 0 family)",
            equal(gn2, parse("2*delta*x^(-1)*u_x^(-1)", ch)))
    solX = solve_within_ansatz(spec, parse("u_x^(-2)", ch), parse("-u_x^(-1)", ch))
    rep.add("case X has symmetry dimension 6 within the ansatz "
            "(kernel + d_x, e^x d_x, t d_t + u d_u)", solX.dimension == 6)
    reports.append(rep)

    rep = CaseReport("list (8.2) <-> (8.3) mapping")
    # mu = 1, top sign: phi_xx + phi_x = 0, phi = -e^-x; image theta = |x|^-2
    P1 = moved(phi=mul(rat(-1), parse("exp(-x)", ch)),
               phi_inv=mul(rat(-1), lnabs(x)))
    fn, gn = transform_equation(P1, parse("u_x^(-4)", ch), parse("u_x^(-3)", ch))
    rep.add("mu=1: image is |x|^-2 u_x^-4 (case (8.3):2 at p=-1)",
            equal(fn, parse("x^(-2)*u_x^(-4)", ch)) and structurally_zero(gn))
    # mu = 2/x, top sign: phi_xx + (2/x) phi_x = 0, phi = -1/x; p = -2
    P2 = moved(phi=mul(rat(-1), pow_(x, -1)),
               phi_inv=mul(rat(-1), pow_(x, -1)))
    fn, gn = transform_equation(P2, parse("u_x^(-4)", ch),
                                parse("2*x^(-1)*u_x^(-3)", ch))
    rep.add("mu=2/x: image is |x|^(2p) u_x^-4 with p = -nu/(nu-1) = -2",
            equal(fn, parse("x^(-4)*u_x^(-4)", ch)) and structurally_zero(gn))
    # cross-check the exponent via the push-forward of the extension generator
    ea = EquivalenceAlgebra()
    ach = ea.chart
    xa = sym(ach.get("x"))
    L = lift_D(ach, mul(rat(-1), pow_(xa, -1)), mul(rat(-1), pow_(xa, -1)))
    gen = ea.field(Gen("D", xa)).scale(2) + ea.field(Gen("Du"))  # 2x dx + u du + ...
    image = pushforward(L, gen)
    p_val = Fraction(-2)
    want = (ea.field(Gen("D", xa)).scale(2) +
            ea.field(Gen("Du")).scale(rat(p_val + 1))).scale(-1)
    rep.add("push-forward of 2 D(x) + D^u lands on -(2 D(x) + (p+1) D^u), p=-2",
            image == want)
    reports.append(rep)

    rep = CaseReport("q = 0 gauges")
    # u~ = u - t^2/2 removes a constant inhomogeneity: case 14 at q = 0 lands
    # on the case-20 form, case 13 at q = 0 on the case-21 form
    Pg = moved(c4=rat(Fraction(-1, 2)))
    fn, gn = transform_equation(Pg, parse("delta*abs(u_x)^(2*p)", ch), rat(1))
    rep.add("case 14 at q=0: gauged to (delta |u_x|^2p, 0)",
            equal(fn, parse("delta*abs(u_x)^(2*p)", ch)) and structurally_zero(gn))
    fn, gn = transform_equation(Pg, parse("delta*exp(2*u_x)", ch), rat(1))
    rep.add("case 13 at q=0: gauged to (delta e^2ux, 0)",
            equal(fn, parse("delta*exp(2*u_x)", ch)) and structurally_zero(gn))
    reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# potential-system link with the nonlinear telegraph equation

def verify_potential_link(spec: ClassSpec) -> CaseReport:
    ch = spec.chart
    rep = CaseReport("potential link")
    x = sym(ch.get("x"))
    v, w1_t, v_x = (ch.get(n) for n in ("v", "w1_t", "v_x"))
    flux = add_products((app(ch.get("f"), (0, 0), (x, sym(v))), sym(v_x)),
                        (app(ch.get("g"), (0, 0), (x, sym(v))),))
    # v = u_x as a jet map: each u jet with an x-derivative goes to the v jet
    # with one x-derivative fewer
    to_v = {sym(s): sym(ch.jet("v", s.index[0], s.index[1] - 1))
            for s in tuple(ch.symbols.values())
            if s.kind == "jet" and s.dep == "u" and s.index[1] > 0}
    to_u = {b: a for a, b in to_v.items()}
    u_tt = total_derivative(sym(ch.get("w1")), "t", ch)  # u_tt at u_t = w1

    # forward: u_x = v, u_t = w1, w1_t = f(x,v) v_x + g(x,v)  =>  class equation
    e = substitute(substitute(u_tt, {w1_t: flux}), to_u)
    expected = spec.rhs(spec.f_symbolic(), spec.g_symbolic())
    rep.add("excluding v and w1 yields u_tt = f(x,u_x) u_xx + g(x,u_x)",
            equal(e, expected))

    # backward: D_x of the class equation with u_x -> v gives the telegraph form
    L = add_products((sym(ch.get("u_tt")),), (MINUS_ONE, expected))
    renamed = substitute(total_derivative(L, "x", ch), to_v)
    telegraph = add_products((sym(ch.get("v_tt")),),
                             (MINUS_ONE, total_derivative(flux, "x", ch)))
    rep.add("total x-differentiation with u_x -> v gives v_tt = (f v_x + g)_x",
            equal(renamed, telegraph))

    # constant-coefficient specialization: the linear wave identity
    e2 = substitute(substitute(u_tt, {w1_t: mul(rat(4), sym(v_x))}), to_u)
    rep.add("constant specialization gives the linear wave identity",
            equal(e2, mul(rat(4), sym(ch.get("u_xx")))))
    return rep


# ---------------------------------------------------------------------------
# subalgebra lists of the classification of appropriate subalgebras

def _subalgebra_list_items(ea: EquivalenceAlgebra) -> list:
    """(name, span + prolonged kernel) for each item of the one-, two- and
    three-dimensional extension lists, and for the kernel alone."""
    ch = ea.chart
    x = sym(ch.get("x"))
    ex = parse("exp(x)", ch)

    def D(e):
        return ea.field(Gen("D", e))

    def G(e):
        return ea.field(Gen("G", e))

    Du, Dt, Pt, F1, F2 = (ea.field(Gen(k)) for k in ("Du", "Dt", "Pt", "F1", "F2"))
    hat_kernel = [Pt, F1, G(rat(1))]

    items = []
    for eps in (0, 1):
        s = Du + Dt.scale(Fraction(1, 2)) + F2
        if eps:
            s = s + D(rat(1))
        items.append((f"(10.1) Du + Dt/2 + D({eps}) + F2", [s]))
    for p in (2, -3):
        for eps in (0, 1):
            s = Du + Dt.scale(-p)
            if eps:
                s = s + D(rat(1))
            items.append((f"(10.1) Du - {p} Dt + D({eps})", [s]))
    items.append(("(10.1) Dt - D(1)", [Dt - D(rat(1))]))
    items.append(("(10.1) Dt - G(x)", [Dt - G(x)]))
    for eps in (0, 1):
        s = D(rat(1))
        if eps:
            s = s + F2
        items.append((f"(10.1) D(1) + {eps} F2", [s]))
    for b in (1, 2):
        items.append((f"(10.2) <Du + D(1), Dt + D({b})>",
                      [Du + D(rat(1)), Dt + D(rat(b))]))
    items.append(("(10.2) <Du + D(1), Dt + G(e^x)>", [Du + D(rat(1)), Dt + G(ex)]))
    for (a1, a2, a3, e0, e1, e2) in ((1, 1, 1, 0, 0, 0), (2, 1, 2, 1, 1, 0),
                                     (1, 0, 1, 1, 0, -1), (3, 1, 0, 1, 0, 0)):
        q1 = Du.scale(a1) + Dt.scale(a2) + D(x).scale(a3) + G(x).scale(e0) + \
            F2.scale(e1)
        q2 = D(rat(1)) + F2.scale(e2)
        items.append((f"(10.2) a=({a1},{a2},{a3}), eps=({e0},{e1},{e2})", [q1, q2]))
    for (p1, p2, eps) in ((2, -1, 0), (1, -2, 1), (3, -2, 0)):
        q1 = Du + D(x).scale(p1)
        q2 = Dt + D(x).scale(p2)
        q3 = D(rat(1)) + F2.scale(eps)
        items.append((f"(10.3) p=({p1},{p2}), eps={eps}", [q1, q2, q3]))
    for d in (0, 2):
        q1 = Du + D(x) + G(x).scale(d)
        q2 = Dt - G(x)
        q3 = D(rat(1))
        items.append((f"(10.3) <Du + D(x) + {d} G(x), Dt - G(x), D(1)>",
                      [q1, q2, q3]))
    items.append(("kernel only (empty extension)", []))
    return [(name, hat_kernel + span) for name, span in items]


def verify_subalgebra_lists() -> list:
    """Closure (with the prolonged kernel) and the membership exclusions for
    the one-, two- and three-dimensional extension lists."""
    ea = EquivalenceAlgebra()
    x = sym(ea.chart.get("x"))
    ex = parse("exp(x)", ea.chart)
    Du, Dt, F2 = (ea.field(Gen(k)) for k in ("Du", "Dt", "F2"))

    # finite families large enough to capture every G/D component occurring
    psis = [rat(1), x, mul(x, x), mul(x, mul(x, x)), ex]
    phis = [rat(1), x, mul(x, x), ex]
    Gs = [ea.field(Gen("G", p)) for p in psis]
    Ds = [ea.field(Gen("D", p)) for p in phis]
    exclusion_DuGF2 = [Du, F2] + Gs
    exclusion_DtF2 = [Dt, F2]
    cap_DGF2 = [F2] + Gs + Ds

    reports = []
    for name, fields in _subalgebra_list_items(ea):
        rep = CaseReport(name)
        try:
            close_or_fail(fields)
            rep.add("span + prolonged kernel closes under bracket", True)
        except NonClosure as e:
            rep.add("span + prolonged kernel closes under bracket", False, str(e))

        # every span in the axes of all of them
        coordz = _Coordinatizer()
        vecs = [list(map(coordz.decompose, span)) for span in
                (fields, exclusion_DuGF2, exclusion_DtF2, cap_DGF2, Gs[:1])]
        S, DuGF2, DtF2, DGF2, G1_span = (Subspace(v, len(coordz.index))
                                         for v in vecs)

        inter1 = subspace_intersection(S, DuGF2)
        rep.add("s meets <Du, G(psi), F2> only in <G(1)>",
                G1_span.contains_subspace(inter1) if inter1.dim else True)
        inter2 = subspace_intersection(S, DtF2)
        rep.add("s meets <Dt, F2> trivially", inter2.dim == 0)
        inter3 = subspace_intersection(S, DGF2)
        rep.add("dim(s ^ <D(phi), G(psi), F2>) <= 2", inter3.dim <= 2)
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# campaign driver

_SECTION_RUNNERS = {
    "table": lambda spec, seed: verify_table(spec),
    "special": lambda spec, seed: verify_special_lists(spec),
    "algebra": lambda spec, seed: [verify_equivalence_algebra(seed),
                                   verify_megaideals()],
    "group": lambda spec, seed: [verify_equivalence_group(spec, seed)],
    "adjoint": lambda spec, seed: [verify_adjoint_actions()],
    "reductions": lambda spec, seed: verify_reductions(spec),
    "potential": lambda spec, seed: [verify_potential_link(spec)],
    "subalgebras": lambda spec, seed: verify_subalgebra_lists(),
}
SECTIONS = tuple(_SECTION_RUNNERS)


def run_section(name: str, seed: int, spec: ClassSpec) -> list:
    return _SECTION_RUNNERS[name](spec, seed)


def run_campaign(sections: Sequence[str], seed: int = 0, jobs: int = 1) -> CampaignReport:
    report = CampaignReport(seed=seed)
    wanted = list(sections)
    # the pool forks all of its workers up front: no more than one a section
    workers = min(jobs, len(wanted))
    if workers > 1:
        import concurrent.futures as cf
        with cf.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_section_worker,
                                    [(name, seed) for name in wanted]))
    else:
        spec = ClassSpec.default()
        results = [run_section(name, seed, spec) for name in wanted]
    for name, cases in zip(wanted, results):
        report.section(name).extend(cases)
    return report


def _run_section_worker(arg):
    """One section in a worker process, on a spec of its own."""
    name, seed = arg
    return run_section(name, seed, ClassSpec.default())


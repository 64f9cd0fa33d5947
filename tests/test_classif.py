"""Catalog completeness, campaign drivers, cross-consistency, negative controls."""
import dataclasses
import re
import time
from fractions import Fraction

from wavesym.charts import BASE_COORDS
from wavesym.classif import (CATALOG, SECTIONS, SPECIAL_CATALOG,
                             ClassificationCase, builtin_catalog, run_campaign,
                             verify_adjoint_actions, verify_case,
                             verify_equivalence_algebra,
                             verify_equivalence_group, verify_megaideals,
                             verify_potential_link, verify_reductions,
                             verify_subalgebra_lists)
from wavesym.detsys import ClassSpec, check_symmetry, solve_within_ansatz
from wavesym.expr import add, diff, iter_terms, mul, rat, structurally_zero
from wavesym.parse import parse, parse_vector_field
from wavesym.report import FAIL, PASS
from wavesym.vecfield import VectorField


def test_catalog_complete():
    ids = {c.id for c in CATALOG}
    assert ids == {str(i) for i in range(1, 23)}
    special = {c.id for c in SPECIAL_CATALOG}
    assert special == {f"L8.1:{i}" for i in range(4)} | \
        {f"L8.3:{i}" for i in range(4)} | {"C9.1:1", "C9.1:2"}
    assert len(builtin_catalog()) == 32


def test_footnote_constraints_respected():
    by_id = {c.id: c for c in CATALOG}
    for s in by_id["14"].samples:
        assert s["q"] != 0
        assert (s["p"], s["q"]) not in ((-1, -1), (-2, -3))
    for s in by_id["7"].samples:
        assert s["p"] not in (0, -2)
        assert s["nu"] * (s["p"] + 1) != s["delta"]
    for s in by_id["8"].samples:
        assert s["nu"] != s["delta"]
    for s in by_id["13"].samples:
        assert s["q"] != 0
    for s in by_id["15"].samples:
        if s["eps"] == 1:
            assert s["p"] != Fraction(-1, 2)
    for s in by_id["19"].samples:
        assert s["nu"] != 0
    for s in by_id["20"].samples:
        assert s["p"] not in (-2, 0)


def test_every_generator_with_quadratic_tau_is_in_the_special_cases(spec, ch):
    """tau quadratic in t occurs exactly in cases 6, 18, 19, 22."""
    quadratic = set()
    t = ch.get("t")
    for case in CATALOG:
        _, _, gens = case.parsed(spec)
        for Q in gens:
            if not structurally_zero(diff(diff(Q.coeff("t"), t), t)):
                quadratic.add(case.id)
    assert quadratic == {"6", "18", "19", "22"}


def test_case22_verifies(spec):
    by_id = {c.id: c for c in CATALOG}
    rep = verify_case(spec, by_id["22"])
    assert rep.status == PASS
    assert any("dimension" in c.name and "7" in c.detail for c in rep.checks)


def test_case2_symbolic_chain_rule(spec, ch):
    """Case 2 with formal F, G of omega = x - eps ln|u_x| has exactly zero
    residual with p, eps symbolic."""
    by_id = {c.id: c for c in CATALOG}
    f, g, gens = by_id["2"].parsed(spec)
    res, residual = check_symmetry(spec, f, g, gens[0])
    assert res.verdict == "zero" and structurally_zero(residual)


def test_corrupted_case_fails(spec, ch):
    """Negative control: a sign flip in a generator gives a nonzero residual."""
    bad = parse_vector_field("t^2@t - t*u@u", ch, BASE_COORDS)
    res, residual = check_symmetry(spec, parse("delta*u_x^(-4)", ch), rat(0), bad)
    assert res.verdict == "nonzero"
    assert not structurally_zero(residual)


def test_cross_consistency_of_reduced_pairs(spec, ch):
    """Cases related by a cataloged reduction have equal ansatz dimensions."""
    # the x-free subclass case X (sign-consistent) vs case 20 at p = -1
    dX = solve_within_ansatz(spec, parse("u_x^(-2)", ch),
                             parse("-u_x^(-1)", ch)).dimension
    d20 = solve_within_ansatz(spec, parse("u_x^(-2)", ch), rat(0)).dimension
    assert dX == d20 == 6
    # case 7 at p = 1 and its image under the case-19-form reduction
    d7 = solve_within_ansatz(spec, parse("exp(2*x)*u_x^2", ch),
                             parse("2*exp(2*x)*u_x^3", ch)).dimension
    dimg = solve_within_ansatz(spec, parse("u_x^2", ch),
                               parse("-3*x^(-1)*u_x^3", ch)).dimension
    assert d7 == dimg == 5
    # (8.2) case 1 and its (8.3) image at p = -1
    d821 = solve_within_ansatz(spec, parse("u_x^(-4)", ch),
                               parse("u_x^(-3)", ch)).dimension
    d831 = solve_within_ansatz(spec, parse("x^(-2)*u_x^(-4)", ch),
                               rat(0)).dimension
    assert d821 == d831 == 6


def test_section_drivers_pass(spec):
    assert verify_equivalence_algebra().status == PASS
    assert verify_megaideals().status == PASS
    assert verify_adjoint_actions().status == PASS
    assert verify_potential_link(spec).status == PASS
    assert verify_equivalence_group(spec).status == PASS
    for rep in verify_reductions(spec):
        assert rep.status == PASS, rep.case_id
    for rep in verify_subalgebra_lists():
        assert rep.status == PASS, rep.case_id


def test_potential_link_checks_bite():
    """A spec whose right-hand side doubles g fails both derivation checks of
    the potential link; the constant specialization does not read the spec
    and still passes."""
    class DoubledG(ClassSpec):
        def rhs(self, f, g):
            return super().rhs(f, mul(rat(2), g))

    rep = verify_potential_link(DoubledG.default())
    assert [c.status for c in rep.checks] == [FAIL, FAIL, PASS]


def test_case_reports_time_themselves(spec):
    """Each case's wall time is positive and within the call that made it."""
    for run in (lambda: [verify_adjoint_actions()],
                lambda: verify_reductions(spec)):
        start = time.monotonic()
        reps = run()
        elapsed = time.monotonic() - start
        for rep in reps:
            assert 0 < rep.wall_time <= elapsed, rep.case_id


def test_campaign_sections_and_determinism():
    r1 = run_campaign(["potential", "adjoint"], seed=5)
    r2 = run_campaign(["potential", "adjoint"], seed=5)
    assert r1.to_json() == r2.to_json()
    assert r1.status == PASS


def test_campaign_parallel_matches_sequential():
    seq = run_campaign(["potential", "adjoint", "reductions"], seed=9, jobs=1)
    par = run_campaign(["potential", "adjoint", "reductions"], seed=9, jobs=2)
    assert seq.to_json() == par.to_json()



def test_jobs_capped_at_section_count(monkeypatch):
    """The pool forks all of its workers up front, so it is never larger
    than the number of sections, and one section runs in this process."""
    import concurrent.futures
    sizes = []

    class RecordingPool:
        """Stands in for ProcessPoolExecutor: records its size, maps serially."""
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, args):
            return map(fn, args)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    serial = run_campaign(["potential", "adjoint"], seed=3)
    assert run_campaign(["potential", "adjoint"], seed=3, jobs=64).to_json() \
        == serial.to_json()
    assert run_campaign(["potential"], seed=3, jobs=2).status == PASS
    assert run_campaign(["adjoint", "potential"], seed=3, jobs=2).status == PASS
    assert sizes == [2, 2]


def _doubled_terms(Q):
    """Q with one term of one coefficient doubled, for each such term."""
    for c, e in Q.coeffs.items():
        for coef, factors in iter_terms(e):
            yield VectorField(Q.chart, BASE_COORDS,
                              {**Q.coeffs, c: add(e, mul(rat(coef), *factors))},
                              check=False)


# entries whose f times (x+2) is still a member with the same generators
# and the same dimension within the ansatz, so that mutant is a true claim
_F_MUTANT_HOLDS = {
    "4": "F(x) is arbitrary, so F(x)*(x+2) is another F",
    "6": "its two generators keep h(x)*u_x^(-4) for any h(x)",
    "L8.1:0": "the same f and g as row 6",
    "L8.3:0": "theta(x) is arbitrary, so theta(x)*(x+2) is another theta",
}


def test_catalog_mutants_fail(spec):
    """Every entry passes, and each of its mutants fails: one generator
    dropped, a redundant 1@t appended, dim +- 1, one term of a multi-term
    generator doubled, g plus x*u_x^3, and f times x+2 (but where that is
    the entry again, in _F_MUTANT_HOLDS).  A mutant is a catalog entry whose
    generators are printed back to text, as ``perfbench --mutate`` builds it."""
    kinds = {}
    for case in builtin_catalog():
        assert verify_case(spec, case).status == PASS, case.id
        gens = list(case.generators)
        mutants = [("drop", case, gens[:i] + gens[i + 1:])
                   for i in range(len(gens))]
        mutants.append(("redundant", case, gens + ["1@t"]))
        mutants.append(("g", dataclasses.replace(case, g=f"({case.g}) + x*u_x^3"),
                        gens))
        f_mutant = dataclasses.replace(case, f=f"({case.f})*(x+2)")
        if case.id in _F_MUTANT_HOLDS:
            assert verify_case(spec, f_mutant).status == PASS, case.id
        else:
            mutants.append(("f", f_mutant, gens))
        mutants += [("dim", dataclasses.replace(case, dim=case.dim + d), gens)
                    for d in (1, -1)]
        for i, Q in enumerate(case.parsed(spec)[2]):
            if sum(1 for e in Q.coeffs.values() for _ in iter_terms(e)) > 1:
                mutants += [("double", case, gens[:i] + [repr(D)] + gens[i + 1:])
                            for D in _doubled_terms(Q)]
        for kind, mutant, mgens in mutants:
            kinds[kind] = kinds.get(kind, 0) + 1
            rep = verify_case(spec, dataclasses.replace(mutant, generators=tuple(mgens)))
            assert rep.status == FAIL, (case.id, kind)
    assert kinds == {"drop": 74, "redundant": 32, "dim": 64, "double": 150,
                     "g": 32, "f": 28}


def test_span_check_bites_beyond_the_ansatz(spec):
    """The image of row 22 under x -> x^3 has a symmetry, x^(-2) d_x, that
    the default ansatz lacks, so the ansatz finds 6 of its 7 dimensions.
    Claiming all 7 fields with dimension 6 fails only on the rank; dropping
    a field the ansatz holds fails only on a solver field left outside."""
    gens = ("t^2@t + t*u@u", "2*t@t + u@u", "x^(-2)@x", "2*x@x + 3*u@u")
    image = ClassificationCase("22 at x^3", "9*x^4*u_x^(-4)",
                               "-18*x^3*u_x^(-3)", gens, 6, samples=({},))
    for mutant, detail in (
            (image, "rank 7 of 7 fields, expected 6; "
                    "6 of 6 solver fields reduce to zero"),
            (dataclasses.replace(image, generators=gens[1:]),
             "rank 6 of 6 fields, expected 6; "
             "5 of 6 solver fields reduce to zero")):
        failed = [c for c in verify_case(spec, mutant).checks
                  if c.status != PASS]
        assert [(c.name, c.detail) for c in failed] == [
            ("kernel+generators span the ansatz solutions at generic", detail)]


def test_span_check_runs_at_every_sample(spec):
    """Row 20 with generator 3 scaled by p + 1 has dependent generators at
    p = -1 only, its second sample: exactly that sample's span check fails,
    and the residuals, the closure (at the first sample) and the other
    samples pass."""
    row20 = next(c for c in CATALOG if c.id == "20")
    gens = row20.generators[:2] + ("(p + 1)*p*t@t - (p + 1)*u@u",)
    checks = verify_case(spec, dataclasses.replace(row20, generators=gens)).checks
    assert len(checks) == 4 + 2 * len(row20.samples)
    assert [(c.name, c.detail) for c in checks if c.status != PASS] == [
        ("kernel+generators span the ansatz solutions at p=-1,delta=-1",
         "rank 5 of 6 fields, expected 6; 4 of 6 solver fields reduce to zero")]


def test_span_check_reads_multi_term_basis_functions():
    """The span check combines decomposed basis functions with each null
    vector's entries.  A default ansatz whose functions are sums spanning
    the default basis's space gives every catalog entry the same checks."""
    from wavesym.detsys import AnsatzBasis, _ParametricAnsatz
    spec = ClassSpec.default()
    ch = spec.chart
    want = [verify_case(spec, case).checks for case in builtin_catalog()]

    def P(*texts):
        return tuple(parse(s, ch) for s in texts)

    basis = AnsatzBasis(
        tau=P("1 + t", "1 - t", "t^2"),
        xi=P("1 + x", "x - exp(x)", "x^2", "exp(x)", "exp(2*x) + exp(-x)", "exp(-x)"),
        eta=P("u + t*u", "t*u", "1 + t + t^2", "t", "t^2", "x + t*x", "t*x",
              "t^2*x", "x^2 - x*lnabs(x)", "exp(x)", "x*lnabs(x)"))
    assert len(basis.slots) == len(AnsatzBasis.default(ch).slots)
    spec.default_ansatz = _ParametricAnsatz.build(ch, basis)
    got = [verify_case(spec, case).checks for case in builtin_catalog()]
    assert [[(c.name, c.status, c.detail) for c in r] for r in got] == \
        [[(c.name, c.status, c.detail) for c in r] for r in want]


def test_catalog_pass_prolongs_and_brackets_each_field_once(monkeypatch):
    """A serial pass over the 32 catalog entries with a fresh spec asks for
    78 second prolongations and 378 closure brackets, and computes 32 and
    107: one per distinct field and per distinct pair, the rest are table
    hits.  Each of the 32 prolongations splits its eta_tt once."""
    from functools import cached_property
    from wavesym import detsys, liealg, vecfield
    counts = dict.fromkeys(("prolong2", "_prolong2", "bracket", "_bracket",
                            "tt_split"), 0)

    def counting(name, real):
        def fn(*args):
            counts[name] += 1
            return real(*args)
        return fn

    for module, name in ((detsys, "prolong2"), (vecfield, "_prolong2"),
                         (liealg, "bracket"), (vecfield, "_bracket")):
        monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    split = cached_property(counting("tt_split", vecfield.ProlongedField.tt_split.func))
    split.__set_name__(vecfield.ProlongedField, "tt_split")
    monkeypatch.setattr(vecfield.ProlongedField, "tt_split", split)
    spec = ClassSpec.default()
    for case in builtin_catalog():
        verify_case(spec, case)
    assert counts == {"prolong2": 78, "_prolong2": 32, "bracket": 378,
                      "_bracket": 107, "tt_split": 32}


def test_campaign_symmetry_checks_counted(monkeypatch):
    """A serial campaign builds one spec for all of its sections, so the
    default ansatz is built once and the kernel checked once: the table and
    the special lists check each generator once, 74 + 3 residuals, where a
    spec per section took 3 more.  They instantiate kernel + generators
    once at each of the 70 samples."""
    from wavesym import classif, detsys
    calls, instantiations, specs, builds = [], [], [], []

    def counting(spec, f, g, Q):
        calls.append(Q)
        return real(spec, f, g, Q)

    def counting_instantiation(ch, gens, sample):
        instantiations.append(sample)
        return real_instantiation(ch, gens, sample)

    def counting_default(cls):
        specs.append(cls)
        return real_default()

    def counting_build(cls, ch, basis):
        builds.append(basis)
        return real_build(ch, basis)

    real = detsys.check_symmetry
    real_instantiation = classif._kernel_extension
    real_default = ClassSpec.default
    real_build = detsys._ParametricAnsatz.build
    monkeypatch.setattr(detsys, "check_symmetry", counting)
    monkeypatch.setattr(classif, "check_symmetry", counting)
    monkeypatch.setattr(classif, "_kernel_extension", counting_instantiation)
    monkeypatch.setattr(ClassSpec, "default", classmethod(counting_default))
    monkeypatch.setattr(detsys._ParametricAnsatz, "build",
                        classmethod(counting_build))
    assert run_campaign(SECTIONS).status == PASS
    assert len(specs) == 1
    assert len(builds) == 1
    assert len(calls) == 74 + 3
    assert len(instantiations) == 70


def test_verify_case_called_once_per_catalog_entry(monkeypatch):
    """The table and special sections reach ``verify_case`` through the
    module global, once per catalog entry: the benchmark times one item per
    such call by rebinding that global."""
    from wavesym import classif
    seen = []

    def counting(spec, case, *args, **kwargs):
        seen.append(case.id)
        return real(spec, case, *args, **kwargs)

    real = classif.verify_case
    monkeypatch.setattr(classif, "verify_case", counting)
    assert run_campaign(["table", "special"]).status == PASS
    assert seen == [c.id for c in builtin_catalog()]
    assert len(seen) == 32


def test_restated_entries_match_their_rows():
    """An auxiliary-list entry that restates a table row has the row's f, g,
    generators and dim, and the row names the entry in its crossref."""
    rows = {c.id: c for c in CATALOG}
    restated = {c.id: c.crossref.split()[-1] for c in SPECIAL_CATALOG
                if re.fullmatch(r"Table case \d+", c.crossref)}
    assert restated == {"L8.1:0": "6", "L8.1:1": "18", "L8.1:2": "19",
                        "L8.1:3": "22", "L8.3:3": "22"}
    for entry in SPECIAL_CATALOG:
        if entry.id in restated:
            row = rows[restated[entry.id]]
            assert (entry.f, entry.g, entry.generators, entry.dim) == \
                (row.f, row.g, row.generators, row.dim)
            assert entry.id in row.crossref.split(", ")


def test_span_check_needs_the_kernel_check():
    """The span argument rests on the kernel fields being symmetries: for a
    spec whose kernel check did not give zero, every span line fails."""
    spec = ClassSpec.default()
    spec.kernel_is_symmetry = False
    row9 = next(c for c in CATALOG if c.id == "9")
    checks = verify_case(spec, row9).checks
    assert [c.name for c in checks if c.status != PASS] == \
        ["kernel+generators span the ansatz solutions at generic"]

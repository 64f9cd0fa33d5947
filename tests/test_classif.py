"""Catalog completeness, campaign drivers, cross-consistency, negative controls."""
from fractions import Fraction

from wavesym.charts import BASE_COORDS
from wavesym.classif import (CATALOG, SPECIAL_CATALOG, builtin_catalog,
                             run_campaign, verify_adjoint_actions,
                             verify_case, verify_equivalence_algebra,
                             verify_equivalence_group, verify_megaideals,
                             verify_potential_link, verify_reductions,
                             verify_subalgebra_lists)
from wavesym.detsys import check_symmetry, solve_within_ansatz
from wavesym.expr import diff, rat, structurally_zero
from wavesym.parse import parse, parse_vector_field
from wavesym.report import PASS


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


def test_section_drivers_pass():
    assert verify_equivalence_algebra().status == PASS
    assert verify_megaideals().status == PASS
    assert verify_adjoint_actions().status == PASS
    assert verify_potential_link().status == PASS
    assert verify_equivalence_group().status == PASS
    for rep in verify_reductions():
        assert rep.status == PASS, rep.case_id
    for rep in verify_subalgebra_lists():
        assert rep.status == PASS, rep.case_id


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

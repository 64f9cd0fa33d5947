"""Acceptance gate: one test per criterion, each printing a pass/fail line
and enforcing its stated tolerance (exact canonical-form identities) and
runtime budget."""
import time

from property_suites import (functoriality_suite, jacobi_suite,
                             prolongation_homomorphism_suite,
                             total_derivative_commutation_suite)

from wavesym.classif import (verify_adjoint_actions, verify_equivalence_algebra,
                             verify_equivalence_group, verify_megaideals,
                             verify_potential_link, verify_reductions,
                             verify_special_lists, verify_table)
from wavesym.detsys import (ClassSpec, check_symmetry,
                            generate_determining_system, kernel_fields)
from wavesym.expr import add, equal, mul, rat, sym
from wavesym.parse import parse
from wavesym.report import PASS, WARN


def _crit(n: int, desc: str, ok: bool, dt: float, budget: float):
    status = "PASS" if (ok and dt <= budget) else "FAIL"
    print(f"ACCEPTANCE {n:2d} [{status}] {desc} ({dt:.2f}s / budget {budget:g}s)")
    assert ok, f"criterion {n} failed: {desc}"
    assert dt <= budget, f"criterion {n} exceeded its runtime budget"


def _clean(report) -> bool:
    return report.status == PASS and \
        not any(c.status == WARN for c in report.checks)


def test_criterion_01_commutator_table():
    t0 = time.monotonic()
    rep = verify_equivalence_algebra(seed=0)
    _crit(1, "commutator table: the listed nonvanishing brackets hold and all "
             "other generator pairs vanish (6 phi/psi instantiations incl. "
             "2 random polynomials)", _clean(rep), time.monotonic() - t0, 5)


def test_criterion_02_megaideal_chain():
    t0 = time.monotonic()
    rep = verify_megaideals()
    _crit(2, "megaideal chain m', m'', Z_m, C_m(m'') and the flag-constrained "
             "automorphism solve (a55=1, a34=0, a24=a44*a35, "
             "a14=a44*a25-a45*a24; <G(1),F1,Pt> invariant)",
          _clean(rep), time.monotonic() - t0, 5)


def test_criterion_03_determining_system():
    t0 = time.monotonic()
    spec = ClassSpec.default()
    ch = spec.chart
    P = lambda s: parse(s, ch)
    ds = generate_determining_system(spec)
    f = spec.f_symbolic()
    ux = sym(ch.get("u_x"))
    ok = True
    # raw splits over u_tx*u_t, u_tx, u_xx*u_t
    ok &= equal(ds.raw[0].expr, mul(rat(-2), P("xi_u")))
    ok &= equal(ds.raw[1].expr, add(mul(rat(-2), P("xi_t")),
                                    mul(rat(2), f, add(P("tau_x"),
                                                       mul(P("tau_u"), ux)))))
    ok &= equal(ds.raw[2].expr, add(mul(rat(-2), f, P("tau_u")),
                                    mul(add(P("tau_x"), mul(P("tau_u"), ux)),
                                        P("f_ux"))))
    # four preliminary conditions
    ok &= equal(ds.preliminary[0].expr, P("xi_u"))
    ok &= equal(ds.preliminary[1].expr, P("tau_u"))
    ok &= equal(ds.preliminary[2].expr, add(P("xi_t"), mul(rat(-1), f, P("tau_x"))))
    ok &= equal(ds.preliminary[3].expr, mul(P("tau_x"), P("f_ux")))
    # the remaining rows
    ok &= equal(ds.rows[0].expr, P("eta_uu"))
    ok &= equal(ds.rows[1].expr, P(
        "2*(tau_t - xi_x)*f(x,u_x) + xi*f_x + (eta_x + (eta_u - xi_x)*u_x)*f_ux"))
    ok &= equal(ds.rows[2].expr, P(
        "2*eta_tu - tau_tt + tau_xx*f(x,u_x) + tau_x*g_ux"))
    ok &= equal(ds.rows[3].expr, P(
        "eta_tt - xi_tt*u_x - (eta_xx + (2*eta_xu - xi_xx)*u_x)*f(x,u_x)"
        " + (eta_u - 2*tau_t)*g(x,u_x) - xi*g_x"
        " - (eta_x + (eta_u - xi_x)*u_x)*g_ux"))
    _crit(3, "determining system: every split row reproduced exactly, plus "
             "the four preliminary conditions", ok, time.monotonic() - t0, 5)


def test_criterion_04_kernel():
    t0 = time.monotonic()
    spec = ClassSpec.default()
    f, g = spec.f_symbolic(), spec.g_symbolic()
    ok = True
    for Q in kernel_fields(spec.chart):
        res, _ = check_symmetry(spec, f, g, Q)
        ok &= res.verdict == "zero"
    _crit(4, "kernel: d_t, d_u, t d_u are symmetries for fully symbolic f, g",
          ok, time.monotonic() - t0, 1)


def test_criterion_05_table(spec):
    t0 = time.monotonic()
    reports = verify_table(spec)
    ok = len(reports) == 22 and all(_clean(r) for r in reports)
    _crit(5, "Table rows 1-22: exact residuals (symbolic parameters), bracket "
             "closure, ansatz dimension = 3 + |extension| at generic samples "
             "(case 22: dimension 7), and kernel + extension independent and "
             "spanning the ansatz solutions at every sample",
          ok, time.monotonic() - t0, 30)


def test_criterion_06_special_lists_and_reductions(spec):
    t0 = time.monotonic()
    reports = verify_special_lists(spec) + verify_reductions(spec)
    ok = all(_clean(r) for r in reports)
    _crit(6, "lists (8.2), (8.3), the corollary cases, the (8.2)<->(8.3) "
             "mapping and the three singular-parameter reductions",
          ok, time.monotonic() - t0, 10)


def test_criterion_07_equivalence_group(spec):
    t0 = time.monotonic()
    rep = verify_equivalence_group(spec, seed=0)
    _crit(7, "equivalence group: all seven elementary rows (change of "
             "variables = printed row = closed-form action) and the "
             "composition decomposition as a group law",
          _clean(rep), time.monotonic() - t0, 30)


def test_criterion_08_adjoint_actions():
    t0 = time.monotonic()
    rep = verify_adjoint_actions()
    _crit(8, "all nine push-forward adjoint actions hold exactly",
          _clean(rep), time.monotonic() - t0, 10)


def test_criterion_09_potential_link(spec):
    t0 = time.monotonic()
    rep = verify_potential_link(spec)
    _crit(9, "potential link: both derivation directions close as "
             "canonical-form identities with symbolic f, g",
          _clean(rep), time.monotonic() - t0, 5)


def test_criterion_10_property_suites():
    t0 = time.monotonic()
    failures = 0
    failures += jacobi_suite(200, seed=10)
    failures += prolongation_homomorphism_suite(100, seed=11)
    failures += functoriality_suite(50, seed=12)
    failures += total_derivative_commutation_suite(200, seed=13)
    _crit(10, "property suites: Jacobi (200 triples), prolongation "
              "homomorphism (100 pairs), push-forward functoriality "
              "(50 composites), D_t D_x commutation (200 expressions); "
              "zero failures, zero undecided",
          failures == 0, time.monotonic() - t0, 30)

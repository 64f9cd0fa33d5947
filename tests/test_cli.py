"""Command-line surface: subcommands, exit codes, report determinism."""
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from wavesym.cli import main


def test_bracket_zero(capsys):
    assert main(["bracket", "1@t", "1@x"]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_bracket_aug_chart(capsys):
    assert main(["bracket", "--chart", "aug", "1@t",
                 "t@t - 2*f@f - 2*g@g"]) == 0
    assert "@t" in capsys.readouterr().out


def test_prolong(capsys):
    assert main(["prolong", "2*t@t + u@u"]) == 0
    out = capsys.readouterr().out
    assert "-3*u_tt" in out and "eta^xx" in out


def test_detsys_prints_rows(capsys):
    assert main(["detsys"]) == 0
    out = capsys.readouterr().out
    assert "eta_uu" in out and "tau_u" in out and "split log" in out


def test_check_exit_codes(capsys):
    assert main(["check", "-f", "u_x^(-4)", "-g", "0",
                 "-Q", "t^2@t + t*u@u"]) == 0
    assert main(["check", "-f", "exp(2*x)*u_x", "-g", "0", "-Q", "1@x"]) == 1


def test_check_undecided_exit_code(capsys):
    # the residual is (ln|2| + ln|3| - ln|6|) * (a nonzero function): an
    # identically-zero constant the canonical form cannot see, so the verdict
    # stays undecided and the exit code distinguishes it from pass/fail
    code = main(["check", "-f", "delta", "-g", "exp(-u_x)",
                 "-Q", "(lnabs(2) + lnabs(3) - lnabs(6))*x@u"])
    out = capsys.readouterr().out
    assert "undecided" in out
    assert code == 3


def test_parse_error_exit_code(capsys):
    assert main(["check", "-f", "u_x^(", "-g", "0", "-Q", "1@x"]) == 2
    assert main(["check", "-f", "bogus", "-g", "0", "-Q", "1@x"]) == 2


def test_dim(tmp_path, capsys):
    assert main(["dim", "-f", "u_x^(-4)", "-g", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dimension within ansatz: 7" and len(out) == 8
    # the ansatz basis is fixed: --basis is an unknown option
    cfg = tmp_path / "b.cfg"
    cfg.write_text("eta = u\n")
    assert main(["dim", "-f", "u_x^(-4)", "-g", "0", "--basis", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --basis" in captured.err


def test_transform(tmp_path, capsys):
    params = tmp_path / "par.cfg"
    params.write_text("c1 = 2\n")
    assert main(["transform", "--params", str(params),
                 "-f", "u_x^(-4)", "-g", "0"]) == 0
    out = capsys.readouterr().out
    assert "f~ = 1/4*u_x^(-4)" in out


def test_verify_json_deterministic(tmp_path, capsys):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert main(["verify", "potential", "--seed", "3", "--report", str(r1),
                 "--format", "json"]) == 0
    capsys.readouterr()
    assert main(["verify", "potential", "--seed", "3", "--report", str(r2),
                 "--format", "json"]) == 0
    capsys.readouterr()
    b1, b2 = r1.read_bytes(), r2.read_bytes()
    assert b1 == b2
    payload = json.loads(b1)
    assert payload["schema"] == "wavesym-report/1"
    assert payload["status"] == "pass"


def test_verify_text_summary(capsys):
    assert main(["verify", "adjoint"]) == 0
    out = capsys.readouterr().out
    assert "adjoint actions" in out and "0 fail" in out


GOLDEN = Path(__file__).parent / "data" / "verify_all_seed0.json"


def test_verify_all_covers_catalog_once(tmp_path, capsys):
    report = tmp_path / "all.json"
    assert main(["verify", "all", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "catalog coverage: 32/32 entries verified" in out
    assert "0 fail, 0 undecided" in out
    # refactors keep the report byte-identical; a change that alters it on
    # purpose regenerates the golden file and says why
    assert report.read_bytes() == GOLDEN.read_bytes()


@pytest.mark.parametrize("seed", [1, 7])
def test_verify_all_json_matches_golden(seed, capsys):
    """Serial in-process ``verify all --format json`` at further seeds
    prints the golden report bytes after the coverage line."""
    assert main(["verify", "all", "--seed", str(seed), "--format", "json"]) == 0
    coverage, payload = capsys.readouterr().out.split("\n", 1)
    assert coverage == "catalog coverage: 32/32 entries verified"
    golden = Path(__file__).parent / "data" / f"verify_all_seed{seed}.json"
    assert payload.encode() == golden.read_bytes()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_verify_all_jobs2_matches_golden(seed, tmp_path, capsys):
    """The whole campaign fanned out over two workers, table and special
    sections included, writes the same bytes as the serial golden report."""
    report = tmp_path / "all.json"
    assert main(["verify", "all", "--seed", str(seed), "--jobs", "2",
                 "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "catalog coverage: 32/32 entries verified" in out
    golden = Path(__file__).parent / "data" / f"verify_all_seed{seed}.json"
    assert report.read_bytes() == golden.read_bytes()


def test_dim_with_chart_parameter_named_like_an_unknown(capsys):
    """k1 is a declared classification parameter; the ansatz unknowns must
    not capture it."""
    assert main(["dim", "-f", "a1*u_x^(-4)", "-g", "0"]) == 0
    want = capsys.readouterr().out.splitlines()[0]
    assert main(["dim", "-f", "k1*u_x^(-4)", "-g", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == want == \
        "dimension within ansatz: 7"


def test_zero_f_rejected(tmp_path, capsys):
    """The class requires f != 0: a canonically zero f is a usage error."""
    cfg = tmp_path / "par.cfg"
    cfg.write_text("c2 = 2\n")
    assert main(["dim", "-f", "0", "-g", "0"]) == 2
    assert main(["check", "-f", "u_x - u_x", "-g", "0", "-Q", "1@x"]) == 2
    assert main(["transform", "--params", str(cfg), "-f", "0", "-g", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("error: f must be nonzero") == 3


@pytest.mark.parametrize("f, g", [("1", "0"), ("1", "u_x"), ("exp(2*x)", "x*u_x + 1")])
def test_f_ux_and_g_uxux_both_zero_rejected(f, g, tmp_path, capsys):
    """The class requires (f_ux, g_uxux) != 0; the linear wave equation and
    its kin fall outside it, in dim, check and transform alike."""
    cfg = tmp_path / "par.cfg"
    cfg.write_text("c2 = 2\n")
    for argv in (["dim"], ["check", "-Q", "1@t"], ["transform", "--params", str(cfg)]):
        _assert_usage_error(main(argv + ["-f", f, "-g", g]), capsys)


def test_closed_stdout_ends_quietly():
    """A reader that has gone away ends the process with exit 1, and neither
    an ``error:`` line nor a message at interpreter exit."""
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "wavesym", "dim", "-f", "u_x^(-4)", "-g", "0"],
            stdout=w, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_deep_nesting_is_a_parse_error(capsys):
    deep = "(" * 400 + "u_x" + ")" * 400
    _assert_usage_error(main(["dim", "-f", deep, "-g", "0"]), capsys)
    moderate = "(" * 40 + "u_x^(-4)" + ")" * 40
    assert main(["dim", "-f", moderate, "-g", "0"]) == 0
    assert "dimension within ansatz: 7" in capsys.readouterr().out


def test_huge_power_of_a_sum_exits_2_quickly(capsys):
    """A power of a sum too large to expand, or a rational power too large
    to take exactly, is a usage error, raised before the work starts."""
    import time
    for f in ("(1+u_x)^(10^6)", "2^(10^12)*u_x^(-4)"):
        t0 = time.monotonic()
        code = main(["dim", "-f", f, "-g", "0"])
        assert time.monotonic() - t0 < 5
        _assert_usage_error(code, capsys)


def test_huge_power_of_a_sample_quick_verdict(capsys):
    """A sample value raised to a power too large to take exactly is
    enclosed as an interval instead, so the check still proves its residual
    nonzero."""
    import time
    t0 = time.monotonic()
    assert main(["check", "-f", "u_x^(10000000)", "-g", "0", "-Q", "t@t"]) == 1
    assert time.monotonic() - t0 < 5
    assert "verdict: nonzero" in capsys.readouterr().out


def test_huge_power_of_a_sample_with_function_atom_quick_verdict(capsys):
    """The interval enclosure of such a sample reads each function atom's
    sampled value, so an arbitrary F(x) does not leave it undecided, nor
    does an atom whose arguments are themselves too large to bind."""
    import time
    for f in ("F(x)*u_x^(10000000)", "F(x^(10000000))*u_x^(10000000)"):
        t0 = time.monotonic()
        assert main(["check", "-f", f, "-g", "0", "-Q", "t@t"]) == 1
        assert time.monotonic() - t0 < 5
        assert "verdict: nonzero" in capsys.readouterr().out


def test_atoms_with_equal_arguments_never_nonzero(capsys):
    """F(x*lnabs(2)+x*lnabs(3)) and F(x*lnabs(6)) are one value: the residual
    is that of u_x^(-4) alone, which (t^2, t*u) leaves invariant, so the
    check may be undecided but never a failure."""
    assert main(["check", "-f", "u_x^(-4)", "-g", "0",
                 "-Q", "t^2@t + t*u@u"]) == 0
    capsys.readouterr()
    assert main(["check", "-f", "u_x^(-4) + F(x*lnabs(2)+x*lnabs(3)) "
                 "- F(x*lnabs(6))", "-g", "0", "-Q", "t^2@t + t*u@u"]) == 3
    assert "verdict: undecided-after-sampling" in capsys.readouterr().out


def test_verify_nonpositive_jobs_rejected(capsys):
    for jobs in ("0", "-1"):
        assert main(["verify", "all", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --jobs" in captured.err


def test_unreadable_config_exits_2(tmp_path, capsys):
    """A config path that cannot be read as a file is a usage error (exit 2),
    not a verification failure (exit 1)."""
    assert main(["transform", "--params", str(tmp_path),
                 "-f", "u_x^(-4)", "-g", "0"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_python_m_wavesym(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["wavesym", "detsys"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("wavesym", run_name="__main__")
    assert exc.value.code == 0
    assert "eta_uu" in capsys.readouterr().out


def _assert_usage_error(code, capsys, reason=""):
    """Exit 2 with one ``error: <reason>...`` line on stderr and no traceback."""
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: " + reason)
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("text", [
    "c1 = 2\nphii = exp(x)\n",   # misspelled key
    "c1 = 2\nc1 = 3\n",          # repeated key
], ids=["transform-unknown", "transform-repeated"])
def test_unknown_or_repeated_config_key_exits_2(text, tmp_path, capsys):
    cfg = tmp_path / "my.cfg"
    cfg.write_text(text)
    _assert_usage_error(main(["transform", "--params", str(cfg),
                              "-f", "u_x^(-4)", "-g", "0"]), capsys)


@pytest.mark.parametrize("argv", [
    ["prolong", "u_x@t"],                              # ChartMismatch
    ["bracket", "1@t", "u_x@x"],                       # ChartMismatch
    ["check", "-f", "u_x^(-4)", "-g", "0", "-Q", "u_x@u"],  # ChartMismatch
    ["check", "-f", "u_xxxxx", "-g", "0", "-Q", "1@x"],  # JetOrderError
    ["bracket", "", "t@t"],                            # empty field
])
def test_bad_field_or_jet_exits_2(argv, capsys):
    _assert_usage_error(main(argv), capsys)


# each bad --params file and the start of the error it gives
_BAD_PARAMS = {
    # ProlongationError: no closed-form inverse of phi
    "phi = exp(x)\n": "no closed-form inverse available for x-component",
    # ChartMismatch, raised when EquivParams is built: c0..c4 are constants,
    # phi and psi depend on x alone
    "psi = u\n": "psi may not depend on u",
    "c1 = x\n": "c1 may not depend on x",
    "phi = x + t\n": "phi may not depend on t",
    "c2 = t\n": "c2 may not depend on t",
    # a c3 depending on t once gave g~ = 1 where the change of variables
    # gives g~ = 3
    "c3 = t\n": "c3 may not depend on t",
    "c4 = x\n": "c4 may not depend on x",
    "psi = t*x\n": "psi may not depend on t",
    # phi_inv(phi(x)) = 2*x, not x
    "phi = 2*x\nphi_inv = x\n": "phi_inv(phi(x)) is not x",
    # SingularValue
    "c1 = 0\n": "0 raised to a negative power",
    # eps takes the value 0 as well: f~ = u_x*eps^(-2) was printed
    "c1 = eps\n": "eps may be 0 and is raised to a negative power",
    "c2 = 0\n": "0 raised to a negative power",
    "phi = 0\n": "0 raised to a negative power",
}


@pytest.mark.parametrize("params", list(_BAD_PARAMS))
def test_bad_transform_params_exit_2(params, tmp_path, capsys):
    cfg = tmp_path / "par.cfg"
    cfg.write_text(params)
    _assert_usage_error(main(["transform", "--params", str(cfg),
                              "-f", "u_x^(-4)", "-g", "1"]), capsys,
                        _BAD_PARAMS[params])


@pytest.mark.parametrize("f, g", [
    ("u_tx", "0"), ("1", "t"), ("u", "0"), ("1", "F(t)"), ("F(x + v)", "0"),
    ("1", "mu(x)*w1"), ("u_xx", "0"),
])
def test_f_g_outside_the_class_rejected(f, g, tmp_path, capsys):
    """f and g are functions of (x, u_x) alone, also inside function
    arguments; dim, check and transform all reject anything else."""
    cfg = tmp_path / "par.cfg"
    cfg.write_text("c2 = 2\n")
    for argv in (["dim"], ["check", "-Q", "1@t"], ["transform", "--params", str(cfg)]):
        _assert_usage_error(main(argv + ["-f", f, "-g", g]), capsys)


def test_parameters_and_arbitrary_functions_allowed(capsys):
    assert main(["dim", "-f", "F(x - eps*lnabs(u_x))*u_x^(-1)",
                 "-g", "G(x - eps*lnabs(u_x)) + 2*lnabs(u_x)"]) == 0
    assert main(["check", "-f", "delta*u_x^(-4)", "-g", "mu(x)*u_x^(-3)",
                 "-Q", "t^2@t + t*u@u"]) == 0
    assert "verdict: zero" in capsys.readouterr().out


def test_transform_positive_image(tmp_path, capsys):
    """x~ = e^x is provably positive, so |x~| folds to x~ in the image."""
    cfg = tmp_path / "par.cfg"
    cfg.write_text("phi = exp(x)\nphi_inv = lnabs(x)\n")
    assert main(["transform", "--params", str(cfg),
                 "-f", "F(x)*abs(u_x)^(2*p)", "-g", "lnabs(x)*u_x"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].endswith(" + u_x*x*lnabs(lnabs(x))")


def test_verify_all_report_independent_of_hash_seed(tmp_path):
    """One cold process under a fixed, non-default PYTHONHASHSEED writes the
    golden bytes: nothing in the report follows set or dict hash order."""
    report = tmp_path / "all.json"
    proc = subprocess.run(
        [sys.executable, "-m", "wavesym", "verify", "all", "--report", str(report)],
        env=dict(os.environ, PYTHONHASHSEED="12345"),
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert report.read_bytes() == GOLDEN.read_bytes()

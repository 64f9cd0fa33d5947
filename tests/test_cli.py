"""Command-line surface: subcommands, exit codes, report determinism."""
import json
from pathlib import Path

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
    assert main(["check", "-f", "exp(2*x)", "-g", "0", "-Q", "1@x"]) == 1


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


def test_dim(capsys):
    assert main(["dim", "-f", "u_x^(-4)", "-g", "0"]) == 0
    assert "dimension within ansatz: 7" in capsys.readouterr().out


def test_dim_with_basis_file(tmp_path, capsys):
    cfg = tmp_path / "basis.cfg"
    cfg.write_text("tau = 1; t\nxi = 1\neta = u; 1; t\n")
    assert main(["dim", "-f", "u_x^(-4)", "-g", "0", "--basis", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "dimension within ansatz: 5" in out  # t^2 d_t and x-scaling excluded


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


def test_verify_all_jobs2_matches_golden(tmp_path, capsys):
    """The whole campaign fanned out over two workers, table and special
    sections included, writes the same bytes as the serial golden report."""
    report = tmp_path / "all.json"
    assert main(["verify", "all", "--jobs", "2", "--report", str(report)]) == 0
    out = capsys.readouterr().out
    assert "catalog coverage: 32/32 entries verified" in out
    assert report.read_bytes() == GOLDEN.read_bytes()

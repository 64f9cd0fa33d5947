"""Negative controls: the benchmark's correctness gate must bite.

    python3 -m pytest perfbench -q

A catalog case with one doubled generator coefficient and a deliberately
false identity must each make the pass count failed items; a report that
differs from the expected bytes must fail the whole pass, and a run whose
passes crash must still print a result, with failed items.  The last test
keeps BENCHMARK.json in step with the metrics run.py prints.
"""
import json
import time

import pytest

import run


@pytest.fixture
def runner(tmp_path):
    return run.Runner(tmp_path, time.monotonic() + 170)


def test_mutated_generator_fails_its_case(runner):
    p = runner.one_pass("campaign", 0, extra=("--mutate", "1"))
    attempted, failed = p.check()
    assert p.rc == 1 and failed == 1 and attempted > 1
    rep = json.loads(p.report)
    bad = [c["case"] for cases in rep["sections"].values() for c in cases
           if c["status"] != "pass"]
    assert bad == ["1"]


def test_false_identity_fails_once(runner):
    p = runner.one_pass("properties", 5, extra=("--false-identity",))
    assert p.rc == 1
    attempted, failed = p.check()
    assert failed == 1 and attempted == len(p.item_seconds())


def test_true_identities_pass_and_report_bytes_are_gated(runner):
    p = runner.one_pass("properties", 5)
    attempted, failed = p.check()
    assert p.rc == 0 and failed == 0 and attempted == len(p.item_seconds())
    assert p.check(expected=p.report + b" ") == (attempted, attempted)



@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_crashed_passes_are_counted_as_failed(workload, monkeypatch, capsys):
    one_pass = run.Runner.one_pass

    def crashing(self, kind, seed, **kw):
        return one_pass(self, kind, seed, **kw, extra=("--crash",))

    monkeypatch.setattr(run.Runner, "one_pass", crashing)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0
    assert result["metrics"]["pass_frac"]["value"] == 0.0

def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(n, run.unit_of(n)) for n in run.per_layer_names()]

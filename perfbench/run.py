"""Benchmark of wavesym: time to an exact verdict, end to end and per layer.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the package is imported from
``src/`` next to this directory.  Workloads (see README.md for why each was
chosen and which layer metric should move which end-to-end metric):

* ``campaign``: ``wavesym verify all --seed N``, serial, one fresh process per
  pass so every cache starts cold.
* ``campaign-jobs2``: the same with ``--jobs 2``; every report must be
  byte-identical to a serial report of the same seed.
* ``properties``: seeded random identities (identities.py), 5 rounds of the
  4:2:1:4 mix per pass, fresh inputs in every pass.

With ``--trace 0`` the run makes cold passes for about ``--seconds`` seconds
(at least three), with two set-up measurements after each, and prints the
end-to-end metrics.
With ``--trace 1`` it runs pairs of an untraced and a traced pass with equal
seeds, requires equal report bytes, and prints the per-layer metrics.  Every
pass is gated; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Exit code 2, with no
result, when the checkout holds no wavesym sources.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = ("campaign", "campaign-jobs2", "properties")
SETUP_CODE = ("import wavesym, wavesym.cli; wavesym.ClassSpec.default(); "
              "print(wavesym.__file__)")
SETUPS_PER_PASS = 2
MIN_PASSES = 3
MIN_PAIRS = 2
DEADLINE_S = 170.0
EXIT_CODES = {"pass": 0, "fail": 1, "warn": 3}

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "item_p50_ms": "ms", "item_p90_ms": "ms",
    "peak_rss_mb": "MiB", "pass_frac": "ratio",
}

SECTIONS = ("table", "special", "algebra", "group", "adjoint", "reductions",
            "potential", "subalgebras")
# traced function -> per-layer metrics besides calls and self_s
LAYERS = {
    "expr.add": (), "expr.mul": (), "expr.pow_": (),
    "expr.normalize": ("changed_ratio",), "expr.diff": ("repeat_ratio",),
    "expr.total_derivative": (), "expr.substitute": (),
    "expr.structurally_zero": (), "expr.is_zero": ("sampled", "undecided"),
    "vecfield.prolong2": ("repeat_ratio",), "vecfield.bracket": (),
    "vecfield.pushforward": (), "vecfield.transform_equation": (),
    "detsys.invariance_residual": (), "detsys.check_symmetry": (),
    "detsys.solve_within_ansatz": ("rows",),
    "_linalg.rref": (), "_linalg.nullspace": (), "_linalg.solve": (),
    "liealg.close_or_fail": (), "liealg.flag_automorphism_solve": (),
    "liealg.centralizer": (), "liealg.radical": (),
    "parse.parse": (), "parse.parse_vector_field": (),
}
UNITS = {"calls": "count", "self_s": "s", "incl_s": "s", "changed_ratio": "ratio",
         "repeat_ratio": "ratio", "sampled": "count", "undecided": "count",
         "rows": "count", "table_share": "ratio", "overhead_s": "s"}


def metric_name(qual: str) -> str:
    # metric names must start with a letter: _linalg reports as linalg
    return qual.lstrip("_")


def per_layer_names() -> list:
    names = []
    for qual, extra in LAYERS.items():
        names += [f"{metric_name(qual)}.{k}" for k in ("calls", "self_s") + extra]
    names += [f"classif.section.{s}.incl_s" for s in SECTIONS]
    return names + ["classif.table_share", "trace.overhead_s"]


def unit_of(name: str) -> str:
    return UNITS[name.rsplit(".", 1)[1]]


class BenchError(Exception):
    """The benchmark cannot measure (as opposed to a wrong program output)."""


class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def time_left(self) -> float:
        return self.deadline - time.monotonic()

    def spawn(self, cmd: list) -> tuple:
        """Run ``cmd`` in its own session; (seconds spawn to exit, exit code,
        stdout).  On timeout the whole process group is killed."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.time_left()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"timed out: {' '.join(cmd)}")
        wall = time.perf_counter() - t0
        if proc.returncode not in (0, 1, 3):
            sys.stderr.write(err.decode(errors="replace"))
        return wall, proc.returncode, out.decode(errors="replace")

    def setup(self) -> float:
        """Cold interpreter: import wavesym and its CLI, build the default
        class spec.  Returns the seconds of one such start."""
        wall, rc, out = self.spawn([sys.executable, "-c", SETUP_CODE])
        if rc != 0:
            raise BenchError("cannot import wavesym from src/")
        where = Path(out.strip()).resolve()
        if ROOT / "src" not in where.parents:
            raise BenchError(f"wavesym imported from {where}, not from src/")
        return wall

    def one_pass(self, kind: str, seed: int, *, jobs: int = 1, trace: bool = False,
                 extra: tuple = ()) -> "Pass":
        self.count += 1
        out = self.workdir / f"pass{self.count}"
        out.mkdir()
        cmd = [sys.executable, str(HERE / "onepass.py"), kind, "--seed", str(seed),
               "--out", str(out), "--jobs", str(jobs)]
        if trace:
            cmd.append("--trace")
        wall, rc, stdout = self.spawn(cmd + list(extra))
        return Pass(kind, out, wall, rc, stdout)

    def gate(self, p: "Pass", expected: bytes = None) -> "Pass":
        """Count the pass's items and those without an exact PASS."""
        attempted, failed = p.check(expected)
        self.attempted += attempted
        self.failed += failed
        return p


class Pass:
    def __init__(self, kind: str, out: Path, wall: float, rc: int, stdout: str):
        self.kind = kind
        self.out = out
        self.wall = wall
        self.rc = rc
        self.stdout = stdout
        path = out / "report.json"
        self.report = path.read_bytes() if path.exists() else None
        self.whole_ok = False

    def check(self, expected: bytes = None) -> tuple:
        """(attempted, failed) for this pass.  An item fails unless it got
        an exact PASS (a fail or an undecided zero test fails it).  A gate
        that concerns the whole pass fails all its items: an exit code that
        disagrees with the verdicts, incomplete catalog coverage, or report
        bytes that differ from ``expected``.  Sets ``whole_ok`` when the
        pass as a whole got through, so that its item timings can be used."""
        self.whole_ok = False
        try:
            rep = json.loads(self.report)
            if self.kind == "campaign":
                items = [c["status"] == "pass" for cases in rep["sections"].values()
                         for c in cases]
                m = re.search(r"catalog coverage: (\d+)/(\d+)", self.stdout)
                whole_ok = (self.rc == EXIT_CODES[rep["status"]] and m is not None
                            and m.group(1) == m.group(2) and int(m.group(2)) > 0)
            else:
                items = [holds is True for _, holds, _ in rep["identities"]]
                whole_ok = self.rc == (0 if all(items) else 1)
        except (TypeError, ValueError, KeyError):  # no report, or a malformed one
            return 1, 1
        whole_ok = whole_ok and (expected is None or expected == self.report)
        if not items:
            return 1, 1
        self.whole_ok = whole_ok
        return len(items), items.count(False) if whole_ok else len(items)

    def item_seconds(self) -> list:
        """Seconds of each item; only for a pass that passed ``check``."""
        assert self.whole_ok
        out = []
        for path in self.out.glob("items-*.txt"):
            out += [float(line) for line in path.read_text().split()]
        if self.kind == "campaign":
            m = re.search(r"catalog coverage: \d+/(\d+)", self.stdout)
            expected = int(m.group(1)) if m else -1
        else:
            expected = len(json.loads(self.report)["identities"])
        if len(out) != expected:
            raise BenchError(f"{len(out)} item timings for {expected} items")
        return out

    def peak_rss_mib(self) -> float:
        """Peak of the first process plus each worker's growth over what it
        inherited at fork, so that memory shared at fork counts once."""
        kib = 0
        for path in self.out.glob("rss-*"):
            peak, inherited = map(int, path.read_text().split())
            kib += peak - inherited
        return kib / 1024

    def layers(self) -> dict:
        """Per-layer metrics of a traced pass, summed over its processes."""
        agg, extra, sections = {}, {}, dict.fromkeys(SECTIONS, 0.0)
        for path in self.out.glob("trace-*.json"):
            data = json.loads(path.read_text())
            for qual, (calls, _incl, self_s) in data["agg"].items():
                row = agg.setdefault(qual, [0, 0.0])
                row[0] += calls
                row[1] += self_s
            for key, n in data["extra"].items():
                extra[key] = extra.get(key, 0) + n
            for _id, _parent, qual, label, start, end in data["spans"]:
                if qual == "classif.run_section" and label in sections:
                    sections[label] += end - start
        out = {}
        for qual, kinds in LAYERS.items():
            calls, self_s = agg.get(qual, (0, 0.0))
            name = metric_name(qual)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            for kind in kinds:
                if kind == "changed_ratio":
                    top = extra.get(f"{qual}.top_calls", 0)
                    value = extra.get(f"{qual}.changed", 0) / top if top else 0.0
                elif kind == "repeat_ratio":
                    value = extra.get(f"{qual}.repeats", 0) / calls if calls else 0.0
                else:
                    value = extra.get(f"{qual}.{kind}", 0)
                out[f"{name}.{kind}"] = value
        for s in SECTIONS:
            out[f"classif.section.{s}.incl_s"] = sections[s]
        total = sum(sections.values())
        out["classif.table_share"] = sections["table"] / total if total else 0.0
        return out


def _loop(run: Runner, end: float, minimum: int, step) -> list:
    """Call ``step`` until the next call would end after ``end`` (on the
    ``time.monotonic`` clock), at least ``minimum`` times; stop early when
    the next step would miss the deadline.  Returns the steps' results."""
    results, walls = [], []
    while True:
        typical = statistics.median(walls) if walls else 0.0
        if len(results) >= minimum and time.monotonic() + typical > end:
            break
        if results and typical * 1.5 > run.time_left():
            break
        t0 = time.monotonic()
        results.append(step(len(results)))
        walls.append(time.monotonic() - t0)
    return results


def _pass_kind(workload: str) -> tuple:
    if workload == "properties":
        return "properties", 1
    return "campaign", 2 if workload == "campaign-jobs2" else 1


def _pass_seed(workload: str, seed: int, i: int) -> int:
    # campaign passes repeat the run's seed (each is cold anyway); property
    # passes draw fresh identities
    return seed * 10_000 + i if workload == "properties" else seed


def measure(run: Runner, workload: str, seed: int, seconds: float) -> tuple:
    # the jobs2 reference pass counts against ``seconds`` too
    end = time.monotonic() + seconds
    kind, jobs = _pass_kind(workload)
    setups = []
    expected = None
    if workload == "campaign-jobs2":
        expected = run.gate(run.one_pass(kind, seed)).report

    def step(i):
        nonlocal expected
        p = run.gate(run.one_pass(kind, _pass_seed(workload, seed, i), jobs=jobs),
                     expected)
        if kind == "campaign" and expected is None:
            # all passes share one seed, so all reports must agree
            expected = p.report
        # set-up samples spread over the run, like the passes, so that
        # both see the same drift in machine speed
        setups.extend(run.setup() for _ in range(SETUPS_PER_PASS))
        return p

    passes = _loop(run, end, MIN_PASSES, step)
    # a pass that failed as a whole (crashed, incomplete, wrong bytes) is
    # counted in ``failed``; its item timings, if any, are not used
    items = sorted(s * 1000 for p in passes if p.whole_ok for s in p.item_seconds())
    if not items:  # no pass got through its gate: the result reads correct=false
        items = [0.0, 0.0]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "item_p50_ms": statistics.median(items),
        "item_p90_ms": statistics.quantiles(items, n=10, method="inclusive")[8],
        "peak_rss_mb": statistics.median(p.peak_rss_mib() for p in passes),
        "pass_frac": (run.attempted - run.failed) / run.attempted,
    }, {"passes": len(passes), "items": len(items), "setups": len(setups)}


def trace(run: Runner, workload: str, seed: int, seconds: float) -> tuple:
    # the jobs2 reference pass counts against ``seconds`` too
    end = time.monotonic() + seconds
    kind, jobs = _pass_kind(workload)
    serial = None
    if workload == "campaign-jobs2":
        serial = run.gate(run.one_pass(kind, seed)).report

    def pair(i):
        s = _pass_seed(workload, seed, i)
        order = (False, True) if i % 2 == 0 else (True, False)
        got = {t: run.one_pass(kind, s, jobs=jobs, trace=t) for t in order}
        base = serial if serial is not None else got[False].report
        for p in got.values():
            run.gate(p, base)
        return got[False], got[True]

    pairs = _loop(run, end, MIN_PAIRS, pair)
    layer_runs = [traced.layers() for _, traced in pairs]
    # counts stay whole numbers
    out = {name: (statistics.median_low if unit_of(name) == "count"
                  else statistics.median)(r[name] for r in layer_runs)
           for name in layer_runs[0]}
    out["trace.overhead_s"] = (statistics.median(t.wall for _, t in pairs)
                               - statistics.median(u.wall for u, _ in pairs))
    return out, {"pairs": len(pairs)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "wavesym" / "__init__.py").is_file():
        print(f"no wavesym sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build))
    try:
        run = Runner(workdir, deadline)
        run.setup()  # first import compiles the bytecode; not measured
        if args.trace:
            values, info = trace(run, args.workload, args.seed, args.seconds)
            units = {name: unit_of(name) for name in per_layer_names()}
        else:
            values, info = measure(run, args.workload, args.seed, args.seconds)
            units = END_TO_END
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    fail_frac = run.failed / run.attempted
    print(f"{args.workload} seed {args.seed}: {info}; {run.attempted} items "
          f"attempted, {run.failed} failed (fail_frac {fail_frac:.4f})")
    for name, unit in units.items():
        print(f"  {name:40s} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

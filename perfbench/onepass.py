"""One cold pass of a benchmark workload, in the process that runs this file.

    python3 perfbench/onepass.py campaign --seed S --jobs N --out DIR [--trace]
                                 [--mutate CASE_ID] [--crash]
    python3 perfbench/onepass.py properties --seed S --out DIR [--trace]
                                 [--false-identity] [--crash]

``campaign`` runs ``wavesym verify all --seed S --jobs N --format json``
through the CLI entry point and writes the report to DIR/report.json.
``properties`` checks PROPERTY_ROUNDS rounds of seeded random identities
(see identities.py) and writes their verdicts to DIR/report.json.  The
exit code is the CLI's, or 1 when an identity fails.

Every process of the pass, worker processes included, writes its peak
resident set and the resident set it inherited at fork (0 for the first
process) to DIR/rss-<pid>.  Untraced passes append the seconds taken by
each catalog case or identity to DIR/items-<pid>.txt; traced passes
(``--trace``) write per-layer aggregates and spans to DIR/trace-<pid>.json.
``--mutate``, ``--false-identity`` and ``--crash`` are the negative
controls: the first doubles one coefficient of one generator of a catalog
case, the second adds an identity that does not hold, and the third makes
an untraced pass die after its first timed item.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing.util
import os
import random
import resource
import sys
import time

import tracer

PROPERTY_ROUNDS = 5


class _Pass:
    """Instrumentation of this process; rebuilt in every worker process."""

    def __init__(self, out: str, trace: bool, crash: bool = False):
        self.out = out
        self.trace = tracer.Tracer() if trace else None
        self.crash = crash
        self.inherited_kib = 0

    def install(self):
        if self.trace is not None:
            self.trace.install()
        else:
            tracer.rebind("classif", "verify_case", self._timed_case)

    def _timed_case(self, fn):
        def verify_case(spec, case, *args, **kwargs):
            t0 = time.perf_counter()
            rep = fn(spec, case, *args, **kwargs)
            self.item(time.perf_counter() - t0)
            return rep
        return verify_case

    def item(self, seconds: float):
        with open(os.path.join(self.out, f"items-{os.getpid()}.txt"), "a") as fh:
            fh.write(f"{seconds!r}\n")
        if self.crash:
            raise RuntimeError("--crash: the pass dies after its first item")

    def finish(self):
        pid = os.getpid()
        if self.trace is not None:
            self.trace.dump(os.path.join(self.out, f"trace-{pid}.json"))
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(os.path.join(self.out, f"rss-{pid}"), "w") as fh:
            fh.write(f"{peak_kib} {self.inherited_kib}\n")

    def in_worker(self):
        """Start of a multiprocessing worker: report only its own work, and
        record it when the worker exits (workers leave through os._exit,
        which skips atexit but runs multiprocessing finalizers).  A forked
        worker's peak starts at the resident set it shares with its parent,
        so that is recorded to be counted once."""
        with open("/proc/self/statm") as fh:
            resident_pages = int(fh.read().split()[1])
        self.inherited_kib = resident_pages * os.sysconf("SC_PAGE_SIZE") // 1024
        if self.trace is not None:
            self.trace.reset()
        multiprocessing.util.Finalize(None, self.finish, exitpriority=100)


def _setup(out: str, trace: bool, crash: bool) -> _Pass:
    state = _Pass(out, trace, crash)
    state.install()
    multiprocessing.util.register_after_fork(state, _Pass.in_worker)
    return state


def _mutate(case_id: str):
    """Double the coefficient of the first term of the first generator of
    ``case_id`` that has more than one term (scaling a one-term generator
    would leave it a symmetry)."""
    from wavesym import classif
    for table in (classif.CATALOG, classif.SPECIAL_CATALOG):
        for i, case in enumerate(table):
            if case.id != case_id:
                continue
            gens = list(case.generators)
            for j, gen in enumerate(gens):
                if gen.count("@") > 1:
                    at = gen.index("@")
                    gens[j] = f"2*({gen[:at]}){gen[at:]}"
                    table[i] = dataclasses.replace(case, generators=tuple(gens))
                    return
            raise SystemExit(f"case {case_id} has no generator with two terms")
    raise SystemExit(f"no catalog case {case_id}")


def run_campaign(args, state: _Pass) -> int:
    from wavesym import cli
    if args.mutate:
        _mutate(args.mutate)
    return cli.main(["verify", "all", "--seed", str(args.seed), "--jobs",
                     str(args.jobs), "--format", "json", "--report",
                     os.path.join(args.out, "report.json")])


def run_properties(args, state: _Pass) -> int:
    import identities
    ctx = identities.Context()
    rng = random.Random(args.seed)
    verdicts = []
    for family in identities.schedule(PROPERTY_ROUNDS, args.false_identity):
        holds, seconds, digest = identities.run_one(ctx, family, rng)
        if state.trace is None:
            state.item(seconds)
        verdicts.append([family, holds, digest])
    with open(os.path.join(args.out, "report.json"), "w") as fh:
        json.dump({"seed": args.seed, "identities": verdicts}, fh, indent=0)
        fh.write("\n")
    return 0 if all(v[1] for v in verdicts) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("kind", choices=("campaign", "properties"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--mutate", default="")
    ap.add_argument("--false-identity", action="store_true")
    ap.add_argument("--crash", action="store_true")
    args = ap.parse_args(argv)
    state = _setup(args.out, args.trace, args.crash)
    try:
        run = run_campaign if args.kind == "campaign" else run_properties
        return run(args, state)
    finally:
        state.finish()


if __name__ == "__main__":
    sys.exit(main())

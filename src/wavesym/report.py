"""Verification reports: machine-readable JSON plus a human summary.

The JSON payload is a pure function of the configuration seed (wall time is
reported only in the human summary), so equal seeds give byte-identical
reports.
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

SCHEMA = "wavesym-report/1"

PASS = "pass"
FAIL = "fail"
WARN = "warn"  # undecided zero test: surfaced, never treated as a pass


def _worst(statuses) -> str:
    """FAIL over WARN over PASS."""
    seen = set(statuses)
    return FAIL if FAIL in seen else WARN if WARN in seen else PASS


@dataclass
class Check:
    name: str
    status: str
    detail: str = ""


@dataclass
class CaseReport:
    """The checks of one case; ``wall_time`` runs from creation to the
    latest check."""
    case_id: str
    checks: list = field(default_factory=list)
    wall_time: float = 0.0
    started: float = field(default_factory=time.monotonic, repr=False, compare=False)

    def add(self, name: str, ok: bool, detail: str = ""):
        self._record(Check(name, PASS if ok else FAIL, detail))

    def warn(self, name: str, detail: str = ""):
        self._record(Check(name, WARN, detail))

    def _record(self, check: Check):
        self.checks.append(check)
        self.wall_time = time.monotonic() - self.started

    @property
    def status(self) -> str:
        return _worst(c.status for c in self.checks)


@dataclass
class CampaignReport:
    seed: int
    sections: dict = field(default_factory=dict)

    def section(self, name: str) -> list:
        return self.sections.setdefault(name, [])

    def all_cases(self):
        for name in sorted(self.sections):
            for case in self.sections[name]:
                yield name, case

    @property
    def status(self) -> str:
        return _worst(c.status for _, c in self.all_cases())

    def counts(self) -> dict:
        out = {PASS: 0, FAIL: 0, WARN: 0}
        for _, c in self.all_cases():
            out[c.status] += 1
        return out

    def to_json(self) -> str:
        payload = {
            "schema": SCHEMA,
            "seed": self.seed,
            "status": self.status,
            "counts": self.counts(),
            "sections": {
                name: [
                    {
                        "case": c.case_id,
                        "status": c.status,
                        "checks": [
                            {"name": ch.name, "status": ch.status,
                             **({"detail": ch.detail} if ch.detail else {})}
                            for ch in c.checks
                        ],
                    }
                    for c in cases
                ]
                for name, cases in sorted(self.sections.items())
            },
        }
        return json.dumps(payload, indent=1, sort_keys=True)

    def summary(self) -> str:
        lines = [f"verification report ({SCHEMA}), seed {self.seed}"]
        for name in sorted(self.sections):
            lines.append(f"-- {name}")
            for c in self.sections[name]:
                marks = {PASS: "ok  ", FAIL: "FAIL", WARN: "WARN"}
                lines.append(f"  [{marks[c.status]}] {c.case_id:14s} "
                             f"({len(c.checks)} checks, {c.wall_time:.2f}s)")
                for ch in c.checks:
                    if ch.status != PASS:
                        lines.append(f"         {ch.status}: {ch.name} {ch.detail}")
        n = self.counts()
        lines.append(f"total: {n[PASS]} pass, {n[FAIL]} fail, {n[WARN]} undecided")
        return "\n".join(lines)

"""Tiny-scale self-test of the benchmark.

    python3 bench/selftest.py

Checks that each workload completes and reports every metric named in
BENCHMARK.json with its unit, plus the report lines for the metrics that
only some workloads have; that a deliberately wrong reference makes the
correctness gate fail ops; that the traced run reports every per-layer
metric; and that untraced runs see the original function objects.  Exits 0
when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seed", "0", "--seconds", "0", "--scale", "0.25", "--min-ops", "1"]
REPORT_LINES = {
    "mc-single": ["error_rate", "mc_trials_per_s", "op_s.tail is p"],
    "mc-comb": ["error_rate", "mc_trials_per_s", "op_s.tail is p"],
    "certify": ["error_rate", "certified_checks_per_s", "checks_skipped_ratio", "op_s.tail is p"],
}
REPORT_UNITS = {"error_rate": "ratio", "mc_trials_per_s": "trials/s",
                "certified_checks_per_s": "checks/s", "checks_skipped_ratio": "ratio"}

problems: list[str] = []


def bench(workload, *extra):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, *TINY, *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    if proc.returncode != 0:
        problems.append(f"{workload} {extra}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None, []
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def saved_run(workload, trace):
    path = ROOT / ".bench_work" / "results" / f"{workload}-seed0-trace{trace}.json"
    return json.loads(path.read_text())["run"]


def expect(cond, message):
    if not cond:
        problems.append(message)


def check_metrics(workload, result, specs):
    for spec in specs:
        got = result["metrics"].get(spec["name"])
        expect(got is not None, f"{workload}: metric {spec['name']} missing")
        if got is not None:
            expect(got["unit"] == spec["unit"], f"{workload}: {spec['name']} unit {got['unit']} != {spec['unit']}")
    extra = set(result["metrics"]) - {s["name"] for s in specs}
    expect(not extra, f"{workload}: undeclared metrics {sorted(extra)}")


def main() -> int:
    per_layer = SPEC["per_layer"]
    for workload in REPORT_LINES:
        result, lines = bench(workload, "--trace", "0")
        if result is None:
            continue
        expect(result["correct"] and result["failed"] == 0, f"{workload}: ops failed on correct references")
        check_metrics(workload, result, SPEC["end_to_end"])
        for name in REPORT_LINES[workload]:
            line = next((ln for ln in lines if ln.startswith(name)), None)
            expect(line is not None, f"{workload}: report line {name!r} missing")
            unit = REPORT_UNITS.get(name)
            if line is not None and unit:
                expect(line.split()[2] == unit, f"{workload}: {name} printed without its unit {unit}")
        expect(saved_run(workload, 0)["wrapped_attributes"] == 0, f"{workload}: untraced run saw wrappers")

        result, _ = bench(workload, "--trace", "0", "--corrupt", "3/2")
        if result is not None:
            expect(result["failed"] > 0 and not result["correct"], f"{workload}: wrong references went unnoticed")

        result, _ = bench(workload, "--trace", "1")
        if result is not None:
            expect(result["correct"], f"{workload}: traced run failed ops")
            check_metrics(workload, result, per_layer)
            expect(saved_run(workload, 1)["wrapped_attributes"] > 0, f"{workload}: traced run installed no wrappers")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

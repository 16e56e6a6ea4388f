"""Benchmark entry point: one workload, one seed, one run.

    python3 bench/run.py --workload mc-single --seed 1 --seconds 20 --trace 0

Generates the workload's instance files from the seed, then runs the
workload in fresh single-threaded Python processes (bench/worker.py) against
the package sources in ``src/`` of the checkout this file sits in.  Ops are
``pandora_hedge.cli.main(argv)`` calls made in process, one after another (a
closed loop with one client), in whole passes over a fixed op list.

--trace 0 reports the end-to-end metrics; setup_s is the median of several
fresh-process set-ups.  --trace 1 reports the per-layer metrics of a run with
span wrappers installed, then repeats the same ops without wrappers to give
trace.overhead.  The last stdout line is the JSON result; the lines above it
are a human-readable report.  Full results, the instance manifest and the
span file go to .bench_work/results/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 170
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

E2E_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s", "work_per_s": "1/s", "peak_rss_mb": "MiB"}
WORK_UNIT = {"mc-single": "trials/s", "mc-comb": "trials/s", "certify": "checks/s"}


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py")] + args
    proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
        "child_env": THREAD_ENV,
        "workers_pinned_to_cpu": min(os.sched_getaffinity(0)),
        "machine_tuning": "none (no governor, isolation or other machine setting changed)",
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # self-test knobs: a prefix of the size plan, fewer ops, wrong references
    p.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    p.add_argument("--min-ops", type=int, default=None, help=argparse.SUPPRESS)
    p.add_argument("--corrupt", default="1", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "pandora_hedge" / "cli.py").is_file():
        sys.stderr.write(f"no package sources at {SRC}; run from a full checkout\n")
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    results = ROOT / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        plan = gen.generate(args.workload, args.seed, work, args.scale)
        (work / "plan.json").write_text(json.dumps(plan))
        common = ["--workload", args.workload, "--src", str(SRC), "--work", str(work), "--corrupt", args.corrupt]
        if args.min_ops is not None:
            common += ["--min-ops", str(args.min_ops)]
        loop = common + ["--seconds", str(args.seconds)]
        out = {"environment": environment(args.seed), "workload": args.workload, "seconds": args.seconds}
        if args.trace:
            traced = _worker(loop + ["--trace", "1"], CHILD_TIMEOUT_S)
            plain = _worker(common + ["--ops", str(traced["ops_attempted"])], CHILD_TIMEOUT_S)
            overhead = traced["op_wall_s"] / plain["op_wall_s"] - 1
            metrics = dict(traced["per_layer"])
            metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
            run, extra = traced, [plain]
            if (work / "spans.tsv.gz").exists():
                shutil.move(str(work / "spans.tsv.gz"), results / f"{tag}.spans.tsv.gz")
        else:
            run = _worker(loop, CHILD_TIMEOUT_S)
            probes = [_worker(common + ["--setup-probe"], 60)["setup_s"] for _ in range(SETUP_PROBES - 1)]
            setups = [run["setup_s"]] + probes
            values = {
                "setup_s": statistics.median(setups),
                "op_s.p50": run["op_s.p50"],
                "op_s.tail": run["op_s.tail"],
                "work_per_s": run.get("mc_trials_per_s", run.get("certified_checks_per_s")),
                "peak_rss_mb": run["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in values.items()}
            out["setup_samples_s"] = setups
            extra = []
        failed = run["ops_failed"] + sum(e["ops_failed"] for e in extra)
        attempted = run["ops_attempted"] + sum(e["ops_attempted"] for e in extra)
        out.update(run=run, extra_runs=extra, metrics=metrics)
        (results / f"{tag}.json").write_text(json.dumps(out, indent=1, default=str))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    _report(out, run, metrics, attempted, failed, traced=bool(args.trace))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def _report(out, run, metrics, attempted, failed, traced):
    env = out["environment"]
    print(f"# {out['workload']} seed {env['seed']}: python {env['python']}, numpy {run['numpy']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']!r}, child env {env['child_env']}, "
          f"workers pinned to cpu {env['workers_pinned_to_cpu']}, machine tuning: {env['machine_tuning']}")
    print(f"# {run['ops_attempted']} ops in {run['passes']:g} passes of {run['ops_per_pass']} "
          f"({run['loop_s']:.1f} s); stdout digest {run['digest'][:16]}")
    m = run["manifest"]["totals"]
    print(f"# items: p=0 {m['p=0']}, 0<p<1 {m['0<p<1']}, p=1 {m['p=1']}")
    exact = [f for f in run["manifest"]["files"] if "branches" in f]
    if exact:
        top = max(v for f in exact for v in f["branches"].values())
        print(f"# exact ops: largest branch count {top}; over the default budget: "
              f"{sum(bool(f['over_default_budget']) for f in exact)} files; argmin check skipped for "
              f"budget: {sum(f.get('argmin_check_skipped', False) for f in exact)} of {len(exact)} files")
    print(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    for f in run["failures"][:5]:
        print(f"#   FAIL {f['op']}: {f['reason']}")
    print(f"op_s.tail is p{run['tail_percentile']} of {run['ops_attempted']} ops "
          f"({run['ops_beyond_tail']} beyond it)")
    for key, unit in (("mc_trials_per_s", "trials/s"), ("certified_checks_per_s", "checks/s"),
                      ("checks_skipped_ratio", "ratio")):
        if key in run and not (traced and unit != "ratio"):  # traced throughput is not end to end
            print(f"{key} {run[key]:.6g} {unit}")
    for name, m in metrics.items():
        note = f"  ({WORK_UNIT[out['workload']]})" if name == "work_per_s" else ""
        print(f"{name} {m['value']:.6g} {m['unit']}{note}")


if __name__ == "__main__":
    sys.exit(main())

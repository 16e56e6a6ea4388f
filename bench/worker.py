"""One workload in one fresh process: set up, check, run the closed loop.

Started by run.py, never imported by it.  It prints human-readable lines and,
as its last line, a JSON object that run.py reads.  Modes:

  --setup-probe   import the CLI and load every file, print the seconds taken
  (default)       full run: setup, references, then the closed loop in
                  whole passes over the op list, stopping at the pass
                  boundary nearest to --seconds once --min-ops ops are done,
                  or after exactly --ops ops when given
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import workloads

TAIL_PERCENTILE = 90  # with at least MIN_OPS ops, at least 10 lie beyond it
MIN_OPS = 100


def _setup(src: Path, files: list[str]):
    """Time the CLI import plus one load_instance of every file."""
    t0 = time.perf_counter()
    import pandora_hedge.cli  # noqa: F401
    from pandora_hedge.instancefile import load_instance

    loaded = {name: load_instance(name) for name in files}
    elapsed = time.perf_counter() - t0
    origin = Path(sys.modules["pandora_hedge"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"imported pandora_hedge from {origin}, not from {src}")
    return elapsed, loaded


def _nearest_rank(sorted_values, pct):
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def _layer_hooks():
    """Hooks that turn call arguments and results into layer counters."""

    def check_budget(tracer, args, kwargs, result, ok):
        required = args[0]
        tracer.counters["budget.branches_required"] += required
        if not ok:
            tracer.counters["budget.exceeded"] += 1
            return
        caller = tracer.caller_module()
        key = {"policies": "policies.exact_branches", "combinatorial": "combinatorial.exact_branches",
               "oracle": "oracle.dp_budget_units"}.get(caller)
        if key:
            tracer.counters[key] += required

    def uniforms(tracer, args, kwargs, result, ok):
        tracer.counters["sampling.draws"] += args[3] if len(args) > 3 else kwargs["n"]

    def evaluate_policy_exact(tracer, args, kwargs, result, ok):
        policy = args[1] if len(args) > 1 else kwargs["policy"]
        if policy == "local-hedging" and tracer.inside(tracer.ids("verify.run_checks")):
            tracer.counters["verify.lh_exact_pending"] += 1

    def run_checks(tracer, args, kwargs, result, ok):
        # the rank-1 reduction check of a matroid file also evaluates the
        # hedged policy; only single-item files count toward the ratio
        pending = tracer.counters.pop("verify.lh_exact_pending", 0)
        if not ok:
            return
        model = args[1] if len(args) > 1 else kwargs.get("model")
        if model is None:
            tracer.counters["verify.single_instances"] += 1
            tracer.counters["verify.lh_exact_calls"] += pending
        tracer.counters["verify.checks"] += len(result)
        tracer.counters["verify.checks_skipped"] += sum(r.detail.startswith("skipped (budget)") for r in result)

    return {
        "budget.check_budget": check_budget,
        "sampling.uniforms": uniforms,
        "policies.evaluate_policy_exact": evaluate_policy_exact,
        "verify.run_checks": run_checks,
    }


def _per_layer(tracer, ops_done, passes):
    """Per-layer metrics, each per pass over the op list (ratios excepted)."""
    t = tracer
    selfs = t.module_self_s()
    c = t.counters
    single_verified = c["verify.single_instances"]
    per_pass = {
        "distkit.solver_calls": t.calls_of("distkit.reservation_price", "distkit.backup_price"),
        "distkit.min_of_independent.calls": t.calls_of("distkit.min_of_independent"),
        "indices.compute_indices.calls": t.calls_of("indices.compute_indices"),
        "indices.surrogate_dist.calls": t.calls_of("indices.surrogate_dist"),
        "instance.hedge_transform.calls": t.calls_of("instance.hedge_transform"),
        "sampling.uniforms.calls": t.calls_of("sampling.uniforms"),
        "sampling.draws": c["sampling.draws"],
        "policies.policy_steps": t.calls_of("policies.weitzman_policy", "policies.local_hedging_policy",
                                            "policies.inspect_all_policy", "policies.never_inspect_policy"),
        "policies.commit_enum_labeling.calls": t.calls_of("policies.commit_enum_labeling"),
        "policies.exact_branches": c["policies.exact_branches"],
        "combinatorial.rule_proposals": t.calls_of("combinatorial.UniformMatroidRule.propose",
                                                   "combinatorial.GraphicMatroidRule.propose"),
        "combinatorial.feasibility_tests": t.calls_of("combinatorial.UniformMatroid.is_feasible",
                                                      "combinatorial.GraphicMatroid.is_feasible",
                                                      "combinatorial.ExplicitFamily.is_feasible"),
        "combinatorial.surrogate_cost.calls": t.calls_of("combinatorial.surrogate_cost"),
        "combinatorial.exact_branches": c["combinatorial.exact_branches"],
        "oracle.calls": t.calls_of("oracle.opt_value_single_noi", "oracle.opt_value_single_oi",
                                   "oracle.opt_value_comb_noi", "oracle.pi_surrogate_bound"),
        "oracle.dp_budget_units": c["oracle.dp_budget_units"],
        "verify.checks": c["verify.checks"],
        "verify.checks_skipped": c["verify.checks_skipped"],
        "budget.branches_required": c["budget.branches_required"],
        "budget.exceeded": c["budget.exceeded"],
    }
    metrics = {k: (v / passes, "count/pass") for k, v in per_pass.items()}
    for module in ("distkit", "indices", "instance", "sampling", "policies", "combinatorial", "oracle",
                   "verify", "instancefile", "report", "cli"):
        metrics[f"{module}.self_s"] = (selfs.get(module, 0.0) / passes, "s/pass")
    exact_ids = t.ids("policies.evaluate_policy_exact")
    metrics["policies.exact_s"] = (sum(t.total_ns[i] for i in exact_ids) / 1e9 / passes, "s/pass")
    per_trial, _ = _compute_indices_per_trial(tracer, ops_done, lambda op: True)
    per_lh_trial, mean_n = _compute_indices_per_trial(tracer, ops_done, lambda op: op.key.endswith(":local-hedging"))
    metrics["indices.compute_indices.per_trial"] = (per_trial, "ratio")
    metrics["indices.compute_indices.per_lh_trial"] = (per_lh_trial, "ratio")
    metrics["indices.compute_indices.lh_mean_n"] = (mean_n, "count")
    metrics["verify.lh_exact_per_instance"] = (
        c["verify.lh_exact_calls"] / single_verified if single_verified else 0.0, "ratio")
    return metrics


def _compute_indices_per_trial(tracer, ops_done, keep):
    """compute_indices calls per policy trial over the MC simulate ops that
    ``keep`` selects, and the trial-weighted mean N of those ops.

    Load-time calls (N per op) and --trace runs are included, so the count
    slightly exceeds N per trial even when every trial rebuilds every item.
    """
    ops = [op for op in ops_done if op.kind == "simulate-mc" and keep(op)]
    if not ops:
        return 0.0, 0.0
    trials = sum(op.trials for op in ops)
    calls = sum(tracer.calls_by_op.get(key, 0) for key in {op.key for op in ops})
    return calls / trials, sum(op.n_items * op.trials for op in ops) / trials


def run(args) -> dict:
    src = Path(args.src)
    work = Path(args.work)
    plan = json.loads((work / "plan.json").read_text())
    files = [rec["file"] for rec in plan]
    os.chdir(work)
    setup_s, loaded = _setup(src, files)
    if args.setup_probe:
        return {"setup_s": setup_s}

    import pandora_hedge
    from pandora_hedge import cli

    info = {"setup_s": setup_s, "manifest": workloads.manifest(args.workload, plan, loaded)}
    ops, refs = workloads.build_ops(args.workload, files, loaded, args.corrupt)
    info["references"] = {k: {kk: str(vv) for kk, vv in v.items()} for k, v in refs.items()}

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(pandora_hedge, _layer_hooks())
        info["wrapped_attributes"] = len(tracer.installed)
    else:
        from tracer import wrapped_attributes

        info["wrapped_attributes"] = len(wrapped_attributes(pandora_hedge))
        if info["wrapped_attributes"]:
            raise RuntimeError("untraced run sees wrapped functions")
    ci_ids = tracer.ids("indices.compute_indices") if tracer else []

    times, done, failures = [], [], []
    digests: dict[str, str] = {}
    check_counts: dict[str, int] = {}
    loop_start = time.perf_counter()
    i = 0
    while True:
        if args.ops is not None:
            if i >= args.ops:
                break
        elif i % len(ops) == 0 and i >= max(args.min_ops, 1):
            # stop at the pass boundary nearest to --seconds
            elapsed = time.perf_counter() - loop_start
            if elapsed + elapsed / (i // len(ops)) / 2 >= args.seconds:
                break
        op = ops[i % len(ops)]
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.op_id = i + 1
            before = sum(tracer.calls[j] for j in ci_ids)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = cli.main(op.argv)
            dt = time.perf_counter() - t0
        if tracer:
            tracer.op_id = 0
            added = sum(tracer.calls[j] for j in ci_ids) - before
            tracer.calls_by_op[op.key] = tracer.calls_by_op.get(op.key, 0) + added
        times.append(dt)
        done.append(op)
        text = out.getvalue()
        digest = hashlib.sha256(text.encode()).hexdigest()
        reason = None
        op.counts = {}
        if code not in op.exits:
            reason = f"exit {code}: {err.getvalue().strip()[-300:]}"
        else:
            try:
                reason = op.check(json.loads(text))
            except (ValueError, KeyError, TypeError) as exc:
                reason = f"unparsable output: {exc!r}"
        if digests.setdefault(op.key, digest) != digest:
            reason = reason or "stdout differs from an earlier run of the same op"
        if reason:
            failures.append({"op": op.key, "reason": reason})
        for key, value in op.counts.items():
            check_counts[key] = check_counts.get(key, 0) + value
        i += 1
    loop_s = time.perf_counter() - loop_start
    passes = len(done) / len(ops)

    st = sorted(times)
    mc_ops = [(op, t) for op, t in zip(done, times) if op.kind in ("simulate-mc", "bounds-mc")]
    result = {
        "workload": args.workload,
        "ops_attempted": len(done),
        "ops_failed": len(failures),
        "ops_per_pass": len(ops),
        "passes": passes,
        "loop_s": loop_s,
        "op_wall_s": sum(times),
        "op_s.p50": statistics.median(times),
        "op_s.tail": _nearest_rank(st, TAIL_PERCENTILE),
        "tail_percentile": TAIL_PERCENTILE,
        "ops_beyond_tail": len(st) - math.ceil(TAIL_PERCENTILE / 100 * len(st)),
        "numpy": sys.modules["numpy"].__version__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": hashlib.sha256(json.dumps(sorted(digests.items())).encode()).hexdigest(),
        "op_digests": digests,
        "op_median_s": {key: statistics.median(t for op, t in zip(done, times) if op.key == key) for key in digests},
        "failures": failures[:50],
    }
    if mc_ops:
        result["mc_trials"] = sum(op.trials for op, _ in mc_ops)
        result["mc_trials_per_s"] = result["mc_trials"] / sum(t for _, t in mc_ops)
    if check_counts:
        result["checks"] = check_counts["checks"]
        result["checks_skipped_budget"] = check_counts["skipped"]
        result["certified_checks"] = check_counts["certified"]
        result["certified_checks_per_s"] = check_counts["certified"] / sum(times)
        result["checks_skipped_ratio"] = check_counts["skipped"] / check_counts["checks"]
    if tracer:
        per_layer = _per_layer(tracer, done, passes)
        result["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        result["spans_kept"] = tracer.write_spans(work / "spans.tsv.gz")
        result["spans_dropped"] = tracer.spans_dropped
    result.update(info)
    return result


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--src", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--min-ops", type=int, default=MIN_OPS)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--corrupt", type=Fraction, default=Fraction(1))
    p.add_argument("--setup-probe", action="store_true")
    args = p.parse_args()
    # one CPU for the whole run: on a 2-vCPU guest whose vCPUs see different
    # host load, migrating between them spreads run-to-run times by tens of %
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, args.src)
    result = run(args)
    print(json.dumps(result, default=str))


if __name__ == "__main__":
    main()

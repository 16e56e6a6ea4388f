"""Command-line interface: analyze, bounds, simulate, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 enumeration budget exceeded.  PANDORA_BUDGET overrides the default budget.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from .budget import DEFAULT_BUDGET, BudgetExceededError
from .combinatorial import (
    COMB_POLICIES,
    combinatorial_lh_policy,
    evaluate_comb_policy_exact,
    evaluate_comb_policy_mc,
    expected_surrogate_cost,
    expected_surrogate_cost_mc,
    frugal_oi_policy,
)
from .distkit import mean, min_of_independent
from .indices import SurrogateKind, surrogate_dist
from .instancefile import InstanceFormatError, LoadedInstance, load_instance
from .oracle import opt_value_comb_noi, opt_value_single_noi, opt_value_single_oi
from .policies import (
    SINGLE_POLICIES,
    evaluate_policy_exact,
    evaluate_policy_mc,
    run_policy,
    sample_coins,
    sample_realizations,
)
from .randgen import random_comb_instance, random_instance
from .report import Report, items_block, ratio_block, _num
from .verify import run_checks

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

RANDOM_HELP = (
    "Random instances use support sizes 2-4 (2-3 combinatorial) with distinct "
    "values on the 0.5 grid in [0,10], integer probability weights 1-9, and "
    "costs on the 0.25 grid in [0, max-value - mean + 1]; two thirds are "
    "single-item selection, one third uniform/graphic matroid models."
)


def _budget(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be a nonnegative integer, got {text!r}")
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"seed must be an integer in [0, 2^64), got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pandora",
        description="Search with nonobligatory inspection: indices, bounds, policies, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        p.add_argument("--budget", type=_budget, default=None, help="enumeration budget (default PANDORA_BUDGET or 10^7)")

    p_analyze = sub.add_parser("analyze", help="per-item indices")
    p_analyze.add_argument("path")
    common(p_analyze)

    p_bounds = sub.add_parser("bounds", help="one-shot surrogate bounds")
    p_bounds.add_argument("path")
    p_bounds.add_argument("--mc", action="store_true", help="Monte Carlo fallback for large instances")
    p_bounds.add_argument("--trials", type=int, default=100_000)
    p_bounds.add_argument("--seed", type=_seed, default=0)
    common(p_bounds)

    p_sim = sub.add_parser("simulate", help="evaluate a policy")
    p_sim.add_argument("path")
    p_sim.add_argument("--policy", required=True)
    p_sim.add_argument("--exact", action="store_true", help="exact expectation by enumeration")
    p_sim.add_argument("--trials", type=int, default=10_000)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--trace", type=int, default=0, metavar="K", help="print K sampled policy traces")
    common(p_sim)

    p_verify = sub.add_parser(
        "verify",
        help="run the invariant suite",
        description=RANDOM_HELP,
    )
    p_verify.add_argument("path", nargs="?", help="a single instance file")
    p_verify.add_argument("--corpus", help="directory of instance files")
    p_verify.add_argument("--random", type=int, default=0, metavar="N", help="N random instances. " + RANDOM_HELP)
    p_verify.add_argument("--seed", type=_seed, default=0)
    common(p_verify)
    return parser


def cmd_analyze(args) -> int:
    loaded = load_instance(args.path)
    report = Report(items=items_block(loaded.instance))
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OK


def _bounds_block(loaded, budget, mc, trials, seed):
    bounds = {}
    if loaded.model is None:
        for kind in SurrogateKind:
            dists = [surrogate_dist(item, kind) for item in loaded.instance.items]
            bounds[f"E[min W^{kind.name}]"] = _num(mean(min_of_independent(dists)))
    else:
        for kind in SurrogateKind:
            key = f"E[Z^{kind.name}]"
            try:
                bounds[key] = _num(expected_surrogate_cost(loaded.model, loaded.instance, kind, budget))
            except BudgetExceededError:
                if not mc:
                    raise
                est, err = expected_surrogate_cost_mc(loaded.model, loaded.instance, kind, trials, seed)
                bounds[key] = est
                bounds[key + " stderr"] = err
    return bounds


def _oracle_block(loaded, budget):
    """Optimal-policy values, included only when the DP budget permits."""
    oracle = {}
    try:
        if loaded.model is None:
            oracle["optimal NOI"] = _num(opt_value_single_noi(loaded.instance, budget))
            oracle["optimal OI"] = _num(opt_value_single_oi(loaded.instance, budget))
        else:
            oracle["optimal NOI"] = _num(opt_value_comb_noi(loaded.model, loaded.instance, budget))
    except BudgetExceededError:
        return None
    return oracle


def cmd_bounds(args, budget) -> int:
    loaded = load_instance(args.path)
    bounds = _bounds_block(loaded, budget, args.mc, args.trials, args.seed)
    lh_key = "E[Z^LH]" if loaded.model is not None else "E[min W^LH]"
    noi_key = "E[Z^NOI]" if loaded.model is not None else "E[min W^NOI]"
    ratio = None
    if lh_key in bounds and noi_key in bounds:
        lh, noi = float(Fraction(bounds[lh_key])), float(Fraction(bounds[noi_key]))
        ratio = ratio_block(lh, noi, float(loaded.instance.max_alpha))
    report = Report(
        items=items_block(loaded.instance),
        bounds=bounds,
        ratio=ratio,
        oracle=_oracle_block(loaded, budget),
    )
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OK if report.ratio_ok() else EXIT_VERIFY_FAIL


def _trace_dicts(loaded, policy, seed, count):
    instance = loaded.instance
    realizations = sample_realizations(instance, seed, 0, count)
    coins = sample_coins(instance, seed, 0, count)
    out = []
    for t in range(count):
        if loaded.model is None:
            trace = run_policy(instance, policy, realizations[t], coins[t])
        elif policy == "frugal-oi":
            trace = frugal_oi_policy(loaded.model, instance, realizations[t])
        else:
            trace = combinatorial_lh_policy(loaded.model, instance, realizations[t], coins[t])
        row = {
            "trial": t,
            "inspection_order": list(trace.inspection_order),
            "selected": sorted(trace.selected),
            "selected_without_inspection": sorted(trace.selected_without_inspection),
            "total_cost": float(trace.total_cost),
        }
        if trace.labels is not None:
            row["labels"] = list(trace.labels)
        out.append(row)
    return out


def cmd_simulate(args, budget) -> int:
    loaded = load_instance(args.path)
    policies = SINGLE_POLICIES if loaded.model is None else COMB_POLICIES
    if args.policy not in policies:
        sys.stderr.write(
            f"unknown policy {args.policy!r} for this instance; expected one of {', '.join(policies)}\n"
        )
        return EXIT_USAGE
    policy_block = {"name": args.policy}
    if args.exact:
        if loaded.model is None:
            value = evaluate_policy_exact(loaded.instance, args.policy, budget)
        else:
            value = evaluate_comb_policy_exact(loaded.model, loaded.instance, args.policy, budget=budget)
        policy_block["exact_value"] = _num(value)
    else:
        if loaded.model is None:
            est, err = evaluate_policy_mc(loaded.instance, args.policy, args.trials, args.seed)
        else:
            est, err = evaluate_comb_policy_mc(loaded.model, loaded.instance, args.policy, args.trials, args.seed)
        policy_block.update({"mean": est, "stderr": err, "trials": args.trials, "seed": args.seed})
    if args.trace > 0:
        policy_block["traces"] = _trace_dicts(loaded, args.policy, args.seed, args.trace)
    report = Report(items=items_block(loaded.instance), policy=policy_block)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OK


def _verify_one(loaded, budget, label, failures, out_checks):
    results = run_checks(loaded.instance, loaded.model, budget)
    for r in results:
        out_checks.append(
            {"instance": label, "name": r.name, "passed": r.passed, "max_violation": r.max_violation, "detail": r.detail}
        )
        if not r.passed:
            failures.append((label, r.name))


def cmd_verify(args, budget) -> int:
    sources = []
    if args.path:
        sources.append((args.path, load_instance(args.path)))
    if args.corpus:
        paths = sorted(Path(args.corpus).glob("*.json"))
        if not paths:
            sys.stderr.write(f"no instance files in {args.corpus}\n")
            return EXIT_USAGE
        for p in paths:
            sources.append((str(p), load_instance(p)))
    if args.random:
        rng = random.Random(args.seed)
        for i in range(args.random):
            if i % 3 == 2:
                model, inst = random_comb_instance(rng, max_items=5)
                sources.append((f"random[{i}]", LoadedInstance(instance=inst, model=model)))
            else:
                sources.append((f"random[{i}]", LoadedInstance(instance=random_instance(rng))))
    if not sources:
        sys.stderr.write("verify needs a path, --corpus, or --random N\n")
        return EXIT_USAGE
    failures: list[tuple[str, str]] = []
    checks: list[dict] = []
    for label, loaded in sources:
        _verify_one(loaded, budget, label, failures, checks)
    report = Report(checks=checks)
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        per_name: dict[str, tuple[int, float]] = {}
        for row in checks:
            count, worst = per_name.get(row["name"], (0, 0.0))
            per_name[row["name"]] = (count + 1, max(worst, row["max_violation"]))
        for name in sorted(per_name):
            count, worst = per_name[name]
            bad = sum(1 for f in failures if f[1] == name)
            status = "pass" if bad == 0 else f"FAIL ({bad})"
            sys.stdout.write(f"{status:>10}  {name:<44} runs {count:>4}  max violation {worst:.3g}\n")
        sys.stdout.write(f"{len(sources)} instance(s), {len(checks)} checks, {len(failures)} failure(s)\n")
    return EXIT_OK if not failures else EXIT_VERIFY_FAIL


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    budget = args.budget
    if budget is None:
        env = os.environ.get("PANDORA_BUDGET")
        try:
            budget = _budget(env) if env else DEFAULT_BUDGET
        except argparse.ArgumentTypeError as exc:
            sys.stderr.write(f"error: PANDORA_BUDGET: {exc}\n")
            return EXIT_USAGE
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "bounds":
            return cmd_bounds(args, budget)
        if args.command == "simulate":
            return cmd_simulate(args, budget)
        if args.command == "verify":
            return cmd_verify(args, budget)
    except (InstanceFormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

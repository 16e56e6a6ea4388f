"""Command-line interface: analyze, bounds, simulate, verify.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 enumeration budget exceeded.  PANDORA_BUDGET overrides the default budget.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from collections import Counter
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .budget import DEFAULT_BUDGET, BudgetExceededError
from .combinatorial import expected_surrogate_cost_mc, prepare_comb_policy
from .indices import SurrogateKind
from .instancefile import InstanceFormatError, LoadedInstance, load_instance
from .policies import evaluate_exact, evaluate_mc, iter_trials, prepare_policy
from .randgen import random_comb_instance, random_instance
from .report import Report, items_block, ratio_block, _num
from .verify import ExactValues, run_checks

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


def _bounded_int(name: str, expected: str = "a nonnegative integer", upper: Optional[int] = None, lower: int = 0):
    """argparse type for an integer in [lower, upper), with an error naming the value."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = lower - 1
        if value < lower or (upper is not None and value >= upper):
            raise argparse.ArgumentTypeError(f"{name} must be {expected}, got {text!r}")
        return value

    return parse


_budget = _bounded_int("budget")
_seed = _bounded_int("seed", "an integer in [0, 2^64)", 2**64)
_trials = _bounded_int("trials", "a positive integer", lower=1)


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
    p_bounds.add_argument("--trials", type=_trials, default=100_000)
    p_bounds.add_argument("--seed", type=_seed, default=0)
    common(p_bounds)

    p_sim = sub.add_parser("simulate", help="evaluate a policy")
    p_sim.add_argument("path")
    p_sim.add_argument("--policy", required=True)
    p_sim.add_argument("--exact", action="store_true", help="exact expectation by enumeration")
    p_sim.add_argument("--trials", type=_trials, default=10_000)
    p_sim.add_argument("--seed", type=_seed, default=0)
    p_sim.add_argument("--trace", type=_bounded_int("trace"), default=0, metavar="K", help="print K sampled policy traces")
    common(p_sim)

    p_verify = sub.add_parser(
        "verify",
        help="run the invariant suite",
        description=RANDOM_HELP,
    )
    p_verify.add_argument("path", nargs="?", help="a single instance file")
    p_verify.add_argument("--corpus", help="directory of instance files")
    p_verify.add_argument("--random", type=_bounded_int("random"), default=0, metavar="N", help="N random instances. " + RANDOM_HELP)
    p_verify.add_argument("--seed", type=_seed, default=0)
    common(p_verify)
    return parser


def cmd_analyze(args) -> int:
    loaded = load_instance(args.path)
    report = Report(items=items_block(loaded.instance))
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OK


def _bounds_block(values: ExactValues, mc, trials, seed):
    bounds = {}
    for kind in SurrogateKind:
        key = values.one_shot_name(kind)
        try:
            bounds[key] = _num(values.one_shot(kind))
        except BudgetExceededError:
            if not mc:
                raise
            est, err = expected_surrogate_cost_mc(values.model, values.instance, kind, trials, seed)
            bounds[key] = est
            bounds[key + " stderr"] = err
    return bounds


def _oracle_block(values: ExactValues):
    """Optimal-policy values, included only when the DP budget permits."""
    try:
        optima = {kind: values.optimum(kind) for kind in (SurrogateKind.NOI, SurrogateKind.OI)}
    except BudgetExceededError:
        return None
    return {f"optimal {kind.name}": _num(v) for kind, v in optima.items() if v is not None}


def cmd_bounds(args, budget) -> int:
    loaded = load_instance(args.path)
    values = ExactValues(loaded.instance, loaded.model, budget)
    bounds = _bounds_block(values, args.mc, args.trials, args.seed)
    lh, noi = (Fraction(bounds[values.one_shot_name(kind)]) for kind in (SurrogateKind.LH, SurrogateKind.NOI))
    report = Report(
        items=items_block(loaded.instance),
        bounds=bounds,
        ratio=ratio_block(lh, noi, loaded.instance.max_alpha),
        oracle=_oracle_block(values),
    )
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OK if report.ratio_ok() else EXIT_VERIFY_FAIL


def _trace_rows(prepared, seed, count):
    out = []
    for t, trace in enumerate(iter_trials(prepared, seed, count)):
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
    instance = loaded.instance
    if loaded.model is None:
        prepared = prepare_policy(instance, args.policy)
    else:
        prepared = prepare_comb_policy(loaded.model, instance, args.policy)
    policy_block = {"name": args.policy}
    if args.exact:
        policy_block["exact_value"] = _num(evaluate_exact(prepared, budget))
    else:
        est, err = evaluate_mc(prepared, args.trials, args.seed)
        policy_block.update({"mean": est, "stderr": err, "trials": args.trials, "seed": args.seed})
    if args.trace > 0:
        policy_block["traces"] = _trace_rows(prepared, args.seed, args.trace)
    report = Report(items=items_block(instance), policy=policy_block)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return EXIT_OK


def _verify_summary(checks, sources) -> str:
    """One line per check name, then the totals.  A check reads pass when a
    run passed, else skip when a run was over budget, else n/a: no run
    applied."""
    lines = []
    for name in sorted({row["name"] for row in checks}):
        rows = [row for row in checks if row["name"] == name]
        count = Counter(row["status"] for row in rows)
        status = f"FAIL ({count['fail']})" if count["fail"] else next(s for s in ("pass", "skip", "n/a") if count[s])
        worst = max(row["max_violation"] for row in rows)
        lines.append(f"{status:>10}  {name:<44} runs {len(rows):>4}  max violation {worst:.3g}")
    total = Counter(row["status"] for row in checks)
    tail = "".join(f", {total[s]} {what}" for s, what in (("skip", "skipped (budget)"), ("n/a", "not applicable")) if total[s])
    lines.append(f"{sources} instance(s), {len(checks)} checks, {total['fail']} failure(s){tail}")
    return "\n".join(lines) + "\n"


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
    checks = [
        {"instance": label, "status": r.status, **asdict(r)}
        for label, loaded in sources
        for r in run_checks(loaded.instance, loaded.model, budget)
    ]
    sys.stdout.write(Report(checks=checks).to_json() if args.json else _verify_summary(checks, len(sources)))
    return EXIT_VERIFY_FAIL if any(row["status"] == "fail" for row in checks) else EXIT_OK


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first ``main`` call; parsing
    leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
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

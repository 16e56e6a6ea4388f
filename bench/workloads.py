"""Workload definitions: the op list of one pass, references and checks.

An op is one ``pandora_hedge.cli.main(argv)`` call.  Every op has a check
that parses its stdout and compares it with a reference computed before
timing starts.  This module imports the package lazily, inside functions, so
that the worker can time the package import itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

ARGMIN_CHECK_LIMIT = 4096  # support product above which verify skips the argmin check
MC_BOUNDS_BUDGET = "10"  # below every mc-comb enumeration size, so bounds fall back to MC
MC_SIGMAS = 5
REF_TRIALS = 1000  # surrogate MC trials behind each mc-comb reference

WORKLOADS = ("mc-single", "mc-comb", "certify")


@dataclass
class Op:
    key: str
    kind: str  # simulate-mc, bounds-mc, verify, simulate-exact, bounds
    argv: list
    n_items: int
    trials: int = 0  # policy MC trials (simulate) or surrogate MC trials (bounds --mc)
    exits: tuple = (0,)
    check: Optional[Callable[[dict], Optional[str]]] = None
    counts: dict = field(default_factory=dict)  # filled by the check: checks, skipped, certified


def _one_shot(instance, kind, labels=None):
    """E[min W] over the instance's surrogate prices of the given kind.  With
    ``labels``, an unlabeled item is a point mass at its mean (the value of a
    committed labeling)."""
    from pandora_hedge.distkit import DiscreteDist, mean, min_of_independent
    from pandora_hedge.indices import surrogate_dist

    dists = []
    for n, item in enumerate(instance.items):
        if labels is not None and not labels[n]:
            dists.append(DiscreteDist.point_mass(instance.indices[n].mu))
        else:
            dists.append(surrogate_dist(item, kind))
    return mean(min_of_independent(dists))


def _within(est, se, ref, ref_se=0.0):
    tol = MC_SIGMAS * math.sqrt(se * se + ref_se * ref_se) + 1e-9 * max(1.0, abs(float(ref)))
    return abs(float(est) - float(ref)) <= tol


def _mc_check(ref, ref_se=0.0):
    def check(doc):
        pol = doc["policy"]
        if not _within(pol["mean"], pol["stderr"], ref, ref_se):
            return f"MC mean {pol['mean']} (se {pol['stderr']}) is not within {MC_SIGMAS} se of {float(ref)}"
        return None

    return check


def _exact_check(ref):
    def check(doc):
        got = Fraction(doc["policy"]["exact_value"])
        return None if got == ref else f"exact value {got} != one-shot {ref}"

    return check


def _mc_trials(n_items: int, work: int) -> int:
    return max(100, round(work / n_items))


# --- mc-single ---------------------------------------------------------------

def _mc_single(files, loaded, refs, corrupt):
    from pandora_hedge.indices import SurrogateKind
    from pandora_hedge.policies import commit_enum_labeling

    ops = []
    for i, name in enumerate(files):
        inst = loaded[name].instance
        n = len(inst)
        lh = _one_shot(inst, SurrogateKind.LH)
        oi = _one_shot(inst, SurrogateKind.OI)
        refs[name] = {"E[min W^LH]": lh, "E[min W^OI]": oi}
        trials = _mc_trials(n, 16_000)
        # Weitzman trials are cheap; 16x as many keep rare costly stops from
        # escaping the sample and shrinking its stderr
        plan = [("local-hedging", lh, trials), ("weitzman", oi, 16 * trials)]
        if n <= 100:  # the labeling costs O(N^2 * support) per op
            ce = _one_shot(inst, SurrogateKind.OI, commit_enum_labeling(inst).labels)
            refs[name]["committed minimum"] = ce
            plan.append(("commit-enum", ce, trials))
        for policy, ref, t in plan:
            argv = ["simulate", name, "--policy", policy, "--trials", str(t), "--seed", str(i), "--json"]
            if (policy == "local-hedging" and i % 4 == 2) or (policy == "commit-enum" and i == 4):
                argv += ["--trace", "3"]
            ops.append(Op(f"{name}:{policy}", "simulate-mc", argv, n, t,
                          check=_mc_check(ref * corrupt)))
    return ops


# --- mc-comb -----------------------------------------------------------------


def _mc_comb(files, loaded, refs, corrupt):
    from pandora_hedge.combinatorial import expected_surrogate_cost_mc
    from pandora_hedge.indices import SurrogateKind

    ops = []
    for i, name in enumerate(files):
        li = loaded[name]
        n = len(li.instance)
        # seed 10**6 + i keeps the reference off every op's seed
        ref = {
            kind: expected_surrogate_cost_mc(li.model, li.instance, kind, REF_TRIALS, 10**6 + i)
            for kind in (SurrogateKind.OI, SurrogateKind.LH)
        }
        refs[name] = {f"E[Z^{k.name}]": list(v) for k, v in ref.items()}
        oi_ref, oi_se = ref[SurrogateKind.OI]
        lh_ref, lh_se = ref[SurrogateKind.LH]
        seed = str(i)
        ops.append(Op(f"{name}:frugal-oi", "simulate-mc",
                      ["simulate", name, "--policy", "frugal-oi", "--trials", "400", "--seed", seed, "--json"],
                      n, 400, check=_mc_check(oi_ref * corrupt, oi_se)))
        ops.append(Op(f"{name}:local-hedging", "simulate-mc",
                      ["simulate", name, "--policy", "local-hedging", "--trials", "200", "--seed", seed, "--json"],
                      n, 200, check=_mc_check(lh_ref * corrupt, lh_se)))

        def bounds_check(doc, oi=(oi_ref * corrupt, oi_se), lh=(lh_ref * corrupt, lh_se)):
            b = doc["bounds"]
            for key, (r, r_se) in (("E[Z^OI]", oi), ("E[Z^LH]", lh)):
                if key + " stderr" not in b:
                    return f"{key} did not fall back to Monte Carlo"
                if not _within(b[key], b[key + " stderr"], r, r_se):
                    return f"{key} = {b[key]} disagrees with the reference {r}"
            if "oracle" in doc:
                return "oracle block present although the budget forbids the DP"
            return None

        # bounds exits 1 when the noisy estimates miss the ratio ceiling; that
        # is a verdict, not a failure
        ops.append(Op(f"{name}:bounds-mc", "bounds-mc",
                      ["bounds", name, "--mc", "--trials", "400", "--seed", seed, "--budget", MC_BOUNDS_BUDGET, "--json"],
                      n, 3 * 400, exits=(0, 1), check=bounds_check))
    return ops


# --- certify -----------------------------------------------------------------

def _verify_check(op):
    def check(doc):
        checks = doc["checks"]
        failed = [c["name"] for c in checks if not c["passed"]]
        skipped = sum(1 for c in checks if c["detail"].startswith("skipped (budget)"))
        op.counts = {
            "checks": len(checks),
            "skipped": skipped,
            "certified": sum(1 for c in checks if c["passed"] and not c["detail"].startswith("skipped")),
        }
        return f"failed checks: {failed}" if failed else None

    return check


def _certify(files, loaded, refs, corrupt):
    from pandora_hedge.combinatorial import expected_surrogate_cost
    from pandora_hedge.indices import SurrogateKind

    ops = []
    for name in files:
        li = loaded[name]
        inst, model = li.instance, li.model
        n = len(inst)
        if model is None:
            ref = {k: _one_shot(inst, k) for k in SurrogateKind}
            prefix, policies = "E[min W^", ("weitzman", "local-hedging")
        else:
            ref = {k: expected_surrogate_cost(model, inst, k) for k in SurrogateKind}
            prefix, policies = "E[Z^", ("frugal-oi", "local-hedging")
        refs[name] = {f"{prefix}{k.name}]": str(v) for k, v in ref.items()}
        op = Op(f"{name}:verify", "verify", ["verify", name, "--json"], n)
        op.check = _verify_check(op)
        ops.append(op)
        for policy in policies:
            target = ref[SurrogateKind.OI if policy != "local-hedging" else SurrogateKind.LH]
            ops.append(Op(f"{name}:{policy}", "simulate-exact",
                          ["simulate", name, "--policy", policy, "--exact", "--json"],
                          n, check=_exact_check(target * corrupt)))

        def bounds_check(doc, ref=ref, prefix=prefix, single=model is None):
            b = doc["bounds"]
            for k, v in ref.items():
                if Fraction(b[f"{prefix}{k.name}]"]) != v * corrupt:
                    return f"bound {k.name} = {b[prefix + k.name + ']']} != {v}"
            oracle = doc.get("oracle")
            if oracle is None:
                return "oracle block missing"
            opt = Fraction(oracle["optimal NOI"])
            if not ref[SurrogateKind.NOI] <= opt <= ref[SurrogateKind.LH]:
                return f"optimal NOI {opt} outside [E[NOI], E[LH]]"
            if single and Fraction(oracle["optimal OI"]) != ref[SurrogateKind.OI]:
                return "optimal OI differs from the reservation-price one-shot value"
            return None

        ops.append(Op(f"{name}:bounds", "bounds", ["bounds", name, "--json"], n, check=bounds_check))
    return ops


BUILDERS = {"mc-single": _mc_single, "mc-comb": _mc_comb, "certify": _certify}


def build_ops(workload, files, loaded, corrupt=1):
    """The op list of one pass, plus the references its checks use.

    ``corrupt`` multiplies every reference; any value but 1 must make checks
    fail (the self-test uses it to prove the gate is live).
    """
    refs: dict = {}
    ops = BUILDERS[workload](files, loaded, refs, corrupt)
    return ops, refs


def manifest(workload, plan, loaded):
    """Hedging regimes, support sizes and exact-op branch counts per file.

    The branch counts follow the budget formulas of the package's exact
    evaluators and DP oracles at the time this benchmark was written.
    """
    from pandora_hedge.budget import DEFAULT_BUDGET

    rows = []
    totals = {"p=0": 0, "0<p<1": 0, "p=1": 0}
    for rec in plan:
        li = loaded[rec["file"]]
        inst = li.instance
        ps = [ix.p_hedge for ix in inst.indices]
        regimes = ["never" if p == 0 else "always" if p == 1 else "hedged" for p in ps]
        if regimes != rec["kinds"]:
            raise RuntimeError(f"{rec['file']}: generated regimes {rec['kinds']} but loaded {regimes}")
        sizes = [len(item.dist) for item in inst.items]
        row = {
            "file": rec["file"],
            "n_items": len(ps),
            "p=0": regimes.count("never"),
            "0<p<1": regimes.count("hedged"),
            "p=1": regimes.count("always"),
            "supports": sizes,
        }
        for k in totals:
            totals[k] += row[k]
        if workload == "certify":
            product = math.prod(sizes)
            lh = math.prod((s + 1) if r == "hedged" else s if r == "always" else 1 for s, r in zip(sizes, regimes))
            n = len(sizes)
            if li.model is None:
                branches = {"weitzman": product, "local-hedging": lh,
                            "oracle": 2**n * (sum(sizes) + 1) * n}
                row["argmin_check_skipped"] = product > ARGMIN_CHECK_LIMIT
            else:
                branches = {"frugal-oi": product, "local-hedging": lh,
                            "oracle": math.prod(s + 2 for s in sizes) * n * (max(sizes) + 2)}
            row["branches"] = branches
            row["over_default_budget"] = [k for k, v in branches.items() if v > DEFAULT_BUDGET]
        rows.append(row)
    return {"totals": totals, "files": rows}

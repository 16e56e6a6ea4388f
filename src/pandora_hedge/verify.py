"""Invariant suite run by the verify command.

Every check is a numerical restatement of an identity or inequality the
package is supposed to guarantee.  Checks report the largest violation they
observed; on exact-rational instances the tolerance drops to zero.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .budget import DEFAULT_BUDGET, BudgetExceededError
from .combinatorial import (
    CombModel,
    GraphicMatroid,
    UniformMatroid,
    ZeroTerminal,
    evaluate_comb_policy_exact,
    expected_surrogate_cost,
    surrogate_cost,
)
from .distkit import (
    expected_excess,
    expected_shortfall,
    mean,
    min_of_independent,
)
from .indices import ALPHA_CEILING, SurrogateKind, alpha_of_p, surrogate_dist
from .instance import Instance, Realization
from .oracle import opt_value_comb_noi, opt_value_single_noi, opt_value_single_oi
from .policies import (
    evaluate_policy_exact,
    iter_price_realizations,
    one_item_value,
    prepare_policy,
)

TOL = 1e-12
BUDGET_SKIP = "skipped (budget)"


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    detail: str = ""


def _tolerance(instance: Instance) -> float:
    exact = all(item.dist.is_exact and not isinstance(item.cost, float) for item in instance.items)
    return 0.0 if exact else TOL


def _with_midpoints(points):
    pts = sorted(set(points))
    out = list(pts)
    for a, b in zip(pts, pts[1:]):
        out.append((a + b) / 2)
    return sorted(set(out))


def _breakpoints(instance: Instance, n: int, scale=None):
    idx = instance.indices[n]
    pts = {0, idx.mu, idx.u_rsv, idx.u_bkp}
    pts.update(instance.items[n].dist.values)
    for kind in SurrogateKind:
        pts.update(surrogate_dist(instance.items[n], kind).values)
    if scale is not None:
        pts.update(scale * v for v in surrogate_dist(instance.items[n], SurrogateKind.NOI).values)
    pts.add(max(pts) + 1)
    return _with_midpoints(pts)


def _capped(dist, r):
    return sum(p * min(v, r) for v, p in dist.atoms)


def check_parity(instance: Instance, tol) -> CheckResult:
    worst = 0.0
    for n, item in enumerate(instance.items):
        for u in _breakpoints(instance, n):
            gap = expected_shortfall(item.dist, u) - expected_excess(item.dist, u) - (u - mean(item.dist))
            worst = max(worst, abs(float(gap)))
    return CheckResult("shortfall-excess parity", worst <= tol, worst)


def check_surrogate_means(instance: Instance, tol) -> CheckResult:
    worst = 0.0
    for n, item in enumerate(instance.items):
        idx = instance.indices[n]
        gaps = (
            mean(surrogate_dist(item, SurrogateKind.OI)) - (idx.mu + item.cost),
            mean(surrogate_dist(item, SurrogateKind.NOI)) - idx.mu,
            mean(surrogate_dist(item, SurrogateKind.LH)) - (idx.mu + idx.p_hedge * item.cost),
        )
        worst = max(worst, max(abs(float(g)) for g in gaps))
    return CheckResult("surrogate means", worst <= tol, worst)


def check_one_item_identities(instance: Instance, tol) -> CheckResult:
    worst = 0.0
    for n, item in enumerate(instance.items):
        oi = surrogate_dist(item, SurrogateKind.OI)
        noi = surrogate_dist(item, SurrogateKind.NOI)
        for r in _breakpoints(instance, n):
            gap_oi = _capped(oi, r) - one_item_value(item, r, SurrogateKind.OI)
            gap_noi = _capped(noi, r) - one_item_value(item, r, SurrogateKind.NOI)
            worst = max(worst, abs(float(gap_oi)), abs(float(gap_noi)))
    return CheckResult("one-item surrogate identities", worst <= tol, worst)


def check_local_approximation(instance: Instance, tol) -> CheckResult:
    worst = 0.0
    for n, item in enumerate(instance.items):
        idx = instance.indices[n]
        lh = surrogate_dist(item, SurrogateKind.LH)
        noi = surrogate_dist(item, SurrogateKind.NOI)
        scaled = [(idx.alpha_local * v, p) for v, p in noi.atoms]
        for r in _breakpoints(instance, n, scale=idx.alpha_local):
            lhs = _capped(lh, r)
            rhs = sum(p * min(v, r) for v, p in scaled)
            worst = max(worst, max(0.0, float(lhs - rhs)))
    return CheckResult("local approximation sweep", worst <= tol, worst)


def check_alpha(instance: Instance, tol) -> CheckResult:
    worst = 0.0
    ok = True
    for n, item in enumerate(instance.items):
        idx = instance.indices[n]
        worst = max(
            worst,
            max(0.0, float(idx.alpha_local - ALPHA_CEILING)),
            max(0.0, float(1 - idx.alpha_local)),
            max(0.0, float(item.cost - idx.u_rsv)),
            max(0.0, float(-idx.p_hedge)),
            max(0.0, float(idx.p_hedge - 1)),
        )
        if idx.never_inspect and (idx.p_hedge != 0 or idx.alpha_local != 1):
            ok = False
        if idx.never_inspect or idx.u_rsv >= idx.u_bkp:
            continue
        exact = tol == 0
        gap = alpha_of_p(item, idx.p_hedge) - idx.alpha_local
        worst = max(worst, abs(float(gap)))
        for k in range(101):
            p = Fraction(k, 100) if exact else k / 100
            if idx.u_rsv == 0 and p != 1:
                continue
            worst = max(worst, max(0.0, float(idx.alpha_local - alpha_of_p(item, p))))
    return CheckResult("hedging ratio bounds and optimality", ok and worst <= tol, worst)


def _min_surrogate_expectation(instance: Instance, kind: SurrogateKind):
    return mean(min_of_independent([surrogate_dist(item, kind) for item in instance.items]))


def check_oi_equalities(instance: Instance, tol, budget) -> CheckResult:
    try:
        policy_value = evaluate_policy_exact(instance, "weitzman", budget)
        oracle_value = opt_value_single_oi(instance, budget)
    except BudgetExceededError:
        return CheckResult("obligatory-inspection equalities", True, 0.0, BUDGET_SKIP)
    one_shot = _min_surrogate_expectation(instance, SurrogateKind.OI)
    worst = max(abs(float(policy_value - one_shot)), abs(float(oracle_value - one_shot)))
    return CheckResult("obligatory-inspection equalities", worst <= tol, worst)


def check_lh_equality_and_bound(instance: Instance, tol, budget) -> CheckResult:
    try:
        policy_value = evaluate_policy_exact(instance, "local-hedging", budget)
    except BudgetExceededError:
        return CheckResult("hedged policy equality and ratio bound", True, 0.0, BUDGET_SKIP)
    one_shot = _min_surrogate_expectation(instance, SurrogateKind.LH)
    noi_bound = _min_surrogate_expectation(instance, SurrogateKind.NOI)
    ceiling = instance.max_alpha * noi_bound
    worst = abs(float(policy_value - one_shot))
    worst = max(worst, max(0.0, float(policy_value - ceiling)))
    worst = max(worst, max(0.0, float(policy_value - Fraction(4, 3) * noi_bound)))
    return CheckResult("hedged policy equality and ratio bound", worst <= tol, worst)


def check_noi_sandwich(instance: Instance, tol, budget) -> CheckResult:
    try:
        opt = opt_value_single_noi(instance, budget)
        lh = evaluate_policy_exact(instance, "local-hedging", budget)
    except BudgetExceededError:
        return CheckResult("nonobligatory sandwich", True, 0.0, BUDGET_SKIP)
    noi_bound = _min_surrogate_expectation(instance, SurrogateKind.NOI)
    worst = max(0.0, float(noi_bound - opt))
    worst = max(worst, max(0.0, float(opt - lh)))
    return CheckResult("nonobligatory sandwich", worst <= tol, worst)


def check_weitzman_trace(instance: Instance, tol, budget) -> CheckResult:
    if instance.support_product() > min(budget, 4096):
        return CheckResult("selection argmin consistency", True, 0.0, BUDGET_SKIP)
    weitzman = prepare_policy(instance, "weitzman")
    worst = 0.0
    for _, prices in iter_price_realizations(instance):
        trace = weitzman.run(Realization(prices))
        inspected = set(trace.inspection_order)
        views = []
        for n in range(len(instance)):
            idx = instance.indices[n]
            views.append(max(prices[n], idx.u_rsv) if n in inspected else idx.u_rsv)
        sel = next(iter(trace.selected))
        worst = max(worst, max(0.0, float(views[sel] - min(views))))
    return CheckResult("selection argmin consistency", worst <= tol, worst)


def _is_matroid_zero(model: CombModel) -> bool:
    return isinstance(model.family, (UniformMatroid, GraphicMatroid)) and isinstance(
        model.terminal, ZeroTerminal
    )


def check_frugal_beta1(model: CombModel, instance: Instance, tol, budget) -> CheckResult:
    name = "frugal matroid equality"
    if not _is_matroid_zero(model):
        return CheckResult(name, True, 0.0, "skipped (needs a matroid with zero terminal)")
    try:
        policy_value = evaluate_comb_policy_exact(model, instance, "frugal-oi", budget=budget)
        z_oi = expected_surrogate_cost(model, instance, SurrogateKind.OI, budget)
    except BudgetExceededError:
        return CheckResult(name, True, 0.0, BUDGET_SKIP)
    worst = abs(float(policy_value - z_oi))
    return CheckResult(name, worst <= tol, worst)


def check_comb_lh_chain(model: CombModel, instance: Instance, tol, budget) -> CheckResult:
    name = "combinatorial hedging chain"
    if not _is_matroid_zero(model):
        return CheckResult(name, True, 0.0, "skipped (needs a matroid with zero terminal)")
    try:
        policy_value = evaluate_comb_policy_exact(model, instance, "local-hedging", budget=budget)
        z_noi = expected_surrogate_cost(model, instance, SurrogateKind.NOI, budget)
        z_lh = expected_surrogate_cost(model, instance, SurrogateKind.LH, budget)
    except BudgetExceededError:
        return CheckResult(name, True, 0.0, BUDGET_SKIP)
    worst = abs(float(policy_value - z_lh))  # mixture identity
    worst = max(worst, max(0.0, float(policy_value - instance.max_alpha * z_noi)))
    worst = max(worst, max(0.0, float(policy_value - Fraction(4, 3) * z_noi)))
    return CheckResult(name, worst <= tol, worst)


def check_comb_noi_lower(model: CombModel, instance: Instance, tol, budget) -> CheckResult:
    name = "combinatorial lower bound"
    try:
        opt = opt_value_comb_noi(model, instance, budget)
        z_noi = expected_surrogate_cost(model, instance, SurrogateKind.NOI, budget)
    except BudgetExceededError:
        return CheckResult(name, True, 0.0, BUDGET_SKIP)
    worst = max(0.0, float(z_noi - opt))
    return CheckResult(name, worst <= tol, worst)


def check_surrogate_cost_shape(model: CombModel, instance: Instance, tol, seed=0) -> CheckResult:
    """Raising one price never lowers the optimum, and the optimum is concave
    along each coordinate."""
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(20):
        prices = [float(rng.randint(0, 20)) / 2 for _ in range(len(instance))]
        n = rng.randrange(len(instance))
        lo, mid, hi = sorted(rng.uniform(0, 12) for _ in range(3))
        mid = (lo + hi) / 2
        vals = []
        for t in (lo, mid, hi):
            prices[n] = t
            vals.append(surrogate_cost(model, prices)[0])
        worst = max(worst, max(0.0, float(vals[0] - vals[1])), max(0.0, float(vals[1] - vals[2])))
        worst = max(worst, max(0.0, float((vals[0] + vals[2]) / 2 - vals[1])))
    return CheckResult("surrogate cost monotone and concave per coordinate", worst <= max(tol, 1e-9), worst)


def check_single_reduction(model: CombModel, instance: Instance, tol, budget) -> CheckResult:
    name = "single-item reduction consistency"
    if not (isinstance(model.family, UniformMatroid) and model.family.k == 1 and isinstance(model.terminal, ZeroTerminal)):
        return CheckResult(name, True, 0.0, "skipped (needs rank-1 selection)")
    try:
        worst = 0.0
        for kind in SurrogateKind:
            gap = expected_surrogate_cost(model, instance, kind, budget) - _min_surrogate_expectation(instance, kind)
            worst = max(worst, abs(float(gap)))
        gap = evaluate_comb_policy_exact(model, instance, "frugal-oi", budget=budget) - evaluate_policy_exact(instance, "weitzman", budget)
        worst = max(worst, abs(float(gap)))
        gap = evaluate_comb_policy_exact(model, instance, "local-hedging", budget=budget) - evaluate_policy_exact(instance, "local-hedging", budget)
        worst = max(worst, abs(float(gap)))
    except BudgetExceededError:
        return CheckResult(name, True, 0.0, BUDGET_SKIP)
    return CheckResult(name, worst <= tol, worst)


def run_checks(
    instance: Instance,
    model: Optional[CombModel] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[CheckResult]:
    tol = _tolerance(instance)
    results = [
        check_parity(instance, tol),
        check_surrogate_means(instance, tol),
        check_one_item_identities(instance, tol),
        check_local_approximation(instance, tol),
        check_alpha(instance, tol),
    ]
    if model is None:
        results += [
            check_oi_equalities(instance, tol, budget),
            check_lh_equality_and_bound(instance, tol, budget),
            check_noi_sandwich(instance, tol, budget),
            check_weitzman_trace(instance, tol, budget),
        ]
    else:
        results += [
            check_frugal_beta1(model, instance, tol, budget),
            check_comb_lh_chain(model, instance, tol, budget),
            check_comb_noi_lower(model, instance, tol, budget),
            check_surrogate_cost_shape(model, instance, tol),
            check_single_reduction(model, instance, tol, budget),
        ]
    return results

"""Invariant suite run by the verify command.

Every check is a numerical restatement of an identity or inequality the
package is supposed to guarantee.  Checks report the largest violation they
observed; on exact-rational instances the tolerance drops to zero.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .budget import DEFAULT_BUDGET, BudgetExceededError, check_budget
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
from .instance import Instance
from .oracle import opt_value_comb_noi, opt_value_single_noi, opt_value_single_oi
from .policies import (
    IntegerGrid,
    evaluate_policy_exact,
    one_item_value,
    prepare_policy,
)

TOL = 1e-12
BUDGET_SKIP = "skipped (budget)"
ARGMIN_CHUNK = 128  # realizations the argmin check traces at once: bounds its memory


@dataclass
class CheckResult:
    name: str
    passed: bool
    max_violation: float
    detail: str = ""  # why the check was skipped; empty when it ran

    @property
    def status(self) -> str:
        """pass, fail, skip (over budget) or n/a (the check does not apply)."""
        if not self.passed:
            return "fail"
        if self.detail == BUDGET_SKIP:
            return "skip"
        return "n/a" if self.detail else "pass"


@dataclass(frozen=True)
class NotApplicable:
    needs: str  # what the model lacks for the check's identity to hold


class ExactValues:
    """Exact values of one (instance, model, budget), each computed at most once.

    Single-item selection (``model`` None): one-shot values E[min W^kind],
    Weitzman's search as the obligatory policy, NOI and OI optima.
    Combinatorial: E[Z^kind], frugal-oi, the NOI optimum.  A value over the
    budget raises BudgetExceededError each time it is asked for.
    """

    def __init__(self, instance: Instance, model: Optional[CombModel] = None, budget: int = DEFAULT_BUDGET):
        self.instance = instance
        self.model = model
        self.budget = budget
        self.oi_policy = "weitzman" if model is None else "frugal-oi"
        # per-table caches of immutable numbers, freed with the table
        self.one_shot = functools.cache(self._one_shot)
        self.policy = functools.cache(self._policy)
        self.optimum = functools.cache(self._optimum)

    def one_shot_name(self, kind: SurrogateKind) -> str:
        return f"E[min W^{kind.name}]" if self.model is None else f"E[Z^{kind.name}]"

    def _one_shot(self, kind: SurrogateKind):
        if self.model is None:
            return mean(min_of_independent([surrogate_dist(item, kind) for item in self.instance.items]))
        return expected_surrogate_cost(self.model, self.instance, kind, self.budget)

    def _policy(self, name: str):
        if self.model is None:
            return evaluate_policy_exact(self.instance, name, self.budget)
        return evaluate_comb_policy_exact(self.model, self.instance, name, budget=self.budget)

    def _optimum(self, kind: SurrogateKind):
        """The optimal policy's value when uninspected items may (NOI) or may
        not (OI) be selected; None where no DP computes it."""
        if kind is SurrogateKind.NOI:
            if self.model is None:
                return opt_value_single_noi(self.instance, self.budget)
            return opt_value_comb_noi(self.model, self.instance, self.budget)
        if kind is SurrogateKind.OI and self.model is None:
            return opt_value_single_oi(self.instance, self.budget)
        return None


def _tolerance(instance: Instance, model: Optional[CombModel]) -> float:
    return 0.0 if IntegerGrid(instance, model).exact else TOL


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


def _capped(atoms, r):
    return sum(p * min(v, r) for v, p in atoms)


def check_parity(values: ExactValues, tol):
    instance = values.instance
    worst = 0.0
    for n, item in enumerate(instance.items):
        for u in _breakpoints(instance, n):
            gap = expected_shortfall(item.dist, u) - expected_excess(item.dist, u) - (u - mean(item.dist))
            worst = max(worst, abs(float(gap)))
    return worst <= tol, worst


def check_surrogate_means(values: ExactValues, tol):
    worst = 0.0
    for item, idx in zip(values.instance.items, values.instance.indices):
        gaps = (
            mean(surrogate_dist(item, SurrogateKind.OI)) - (idx.mu + item.cost),
            mean(surrogate_dist(item, SurrogateKind.NOI)) - idx.mu,
            mean(surrogate_dist(item, SurrogateKind.LH)) - (idx.mu + idx.p_hedge * item.cost),
        )
        worst = max(worst, max(abs(float(g)) for g in gaps))
    return worst <= tol, worst


def check_one_item_identities(values: ExactValues, tol):
    instance = values.instance
    worst = 0.0
    for n, item in enumerate(instance.items):
        oi = surrogate_dist(item, SurrogateKind.OI)
        noi = surrogate_dist(item, SurrogateKind.NOI)
        for r in _breakpoints(instance, n):
            gap_oi = _capped(oi.atoms, r) - one_item_value(item, r, SurrogateKind.OI)
            gap_noi = _capped(noi.atoms, r) - one_item_value(item, r, SurrogateKind.NOI)
            worst = max(worst, abs(float(gap_oi)), abs(float(gap_noi)))
    return worst <= tol, worst


def check_local_approximation(values: ExactValues, tol):
    instance = values.instance
    worst = 0.0
    for n, item in enumerate(instance.items):
        idx = instance.indices[n]
        lh = surrogate_dist(item, SurrogateKind.LH)
        noi = surrogate_dist(item, SurrogateKind.NOI)
        scaled = [(idx.alpha_local * v, p) for v, p in noi.atoms]
        for r in _breakpoints(instance, n, scale=idx.alpha_local):
            worst = max(worst, max(0.0, float(_capped(lh.atoms, r) - _capped(scaled, r))))
    return worst <= tol, worst


def check_alpha(values: ExactValues, tol):
    worst = 0.0
    ok = True
    for item, idx in zip(values.instance.items, values.instance.indices):
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
        gap = alpha_of_p(item, idx.p_hedge) - idx.alpha_local
        worst = max(worst, abs(float(gap)))
        for k in range(101):
            p = Fraction(k, 100) if tol == 0 else k / 100
            if idx.u_rsv == 0 and p != 1:
                continue
            worst = max(worst, max(0.0, float(idx.alpha_local - alpha_of_p(item, p))))
    return ok and worst <= tol, worst


def _attains_one_shot(model: Optional[CombModel]) -> bool:
    """Whether the obligatory and hedged policies attain the one-shot values:
    always for single-item selection (Weitzman), and for the frugal
    composition on a matroid with zero terminal (Singla, SODA 2018)."""
    return model is None or (
        isinstance(model.family, (UniformMatroid, GraphicMatroid)) and isinstance(model.terminal, ZeroTerminal)
    )


NEEDS_MATROID = NotApplicable("a matroid with zero terminal")


def check_oi_equalities(values: ExactValues, tol):
    """The obligatory one-shot value equals the obligatory policy's value and,
    on single-item selection, the OI optimum."""
    if not _attains_one_shot(values.model):
        return NEEDS_MATROID
    attained = (values.policy(values.oi_policy), values.optimum(SurrogateKind.OI))
    one_shot = values.one_shot(SurrogateKind.OI)
    worst = max(abs(float(v - one_shot)) for v in attained if v is not None)
    return worst <= tol, worst


def check_lh_equality_and_bound(values: ExactValues, tol):
    """The hedged policy's value equals the LH one-shot value and lies within
    max alpha and 4/3 of the NOI one-shot value."""
    if not _attains_one_shot(values.model):
        return NEEDS_MATROID
    policy_value = values.policy("local-hedging")
    noi_bound = values.one_shot(SurrogateKind.NOI)
    worst = abs(float(policy_value - values.one_shot(SurrogateKind.LH)))
    worst = max(worst, max(0.0, float(policy_value - values.instance.max_alpha * noi_bound)))
    worst = max(worst, max(0.0, float(policy_value - Fraction(4, 3) * noi_bound)))
    return worst <= tol, worst


def check_noi_sandwich(values: ExactValues, tol):
    """The NOI one-shot value is at most the NOI optimum, which on
    single-item selection is at most the hedged policy's value."""
    opt = values.optimum(SurrogateKind.NOI)
    worst = max(0.0, float(values.one_shot(SurrogateKind.NOI) - opt))
    if values.model is None:
        worst = max(worst, max(0.0, float(opt - values.policy("local-hedging"))))
    return worst <= tol, worst


def check_weitzman_trace(values: ExactValues, tol):
    """Weitzman's search selects the lowest view price, traced on the
    instance's ``IntegerGrid``; a gap leaves the grid as ``gap / L``."""
    grid = IntegerGrid(values.instance)
    instance = grid.instance
    check_budget(instance.support_product(), min(values.budget, 4096), "selection argmin check")
    weitzman = prepare_policy(instance, "weitzman")
    realizations = itertools.product(*(item.dist.values for item in instance.items))
    worst = 0.0
    while rows := list(itertools.islice(realizations, ARGMIN_CHUNK)):
        for prices, trace in zip(rows, weitzman.traces(np.array(rows, dtype=object).T, None)):
            views = list(instance.reservation_prices)
            for n in trace.inspection_order:
                views[n] = max(prices[n], views[n])
            (sel,) = trace.selected
            low = min(views)
            if views[sel] > low:
                worst = max(worst, (views[sel] - low) / grid.L)
    return worst <= tol, worst


def check_surrogate_cost_shape(values: ExactValues, tol):
    """Raising one price never lowers the optimum, and the optimum is concave
    along each coordinate."""
    rng = random.Random(0)
    worst = 0.0
    for _ in range(20):
        prices = [float(rng.randint(0, 20)) / 2 for _ in range(len(values.instance))]
        n = rng.randrange(len(values.instance))
        lo, mid, hi = sorted(rng.uniform(0, 12) for _ in range(3))
        mid = (lo + hi) / 2
        vals = []
        for t in (lo, mid, hi):
            prices[n] = t
            vals.append(surrogate_cost(values.model, prices)[0])
        worst = max(worst, max(0.0, float(vals[0] - vals[1])), max(0.0, float(vals[1] - vals[2])))
        worst = max(worst, max(0.0, float((vals[0] + vals[2]) / 2 - vals[1])))
    return worst <= max(tol, 1e-9), worst


def check_single_reduction(values: ExactValues, tol):
    """Rank-1 selection has the single-item one-shot and policy values."""
    if not (_attains_one_shot(values.model) and isinstance(values.model.family, UniformMatroid) and values.model.family.k == 1):
        return NotApplicable("rank-1 selection")
    single = ExactValues(values.instance, budget=values.budget)
    worst = 0.0
    for kind in SurrogateKind:
        worst = max(worst, abs(float(values.one_shot(kind) - single.one_shot(kind))))
    for comb_policy, single_policy in (("frugal-oi", "weitzman"), ("local-hedging", "local-hedging")):
        worst = max(worst, abs(float(values.policy(comb_policy) - single.policy(single_policy))))
    return worst <= tol, worst


_PER_ITEM_CHECKS = (
    ("shortfall-excess parity", check_parity),
    ("surrogate means", check_surrogate_means),
    ("one-item surrogate identities", check_one_item_identities),
    ("local approximation sweep", check_local_approximation),
    ("hedging ratio bounds and optimality", check_alpha),
)
# Where the two stacks state the same identity, they run the same check body
# under their own names.
SINGLE_CHECKS = _PER_ITEM_CHECKS + (
    ("obligatory-inspection equalities", check_oi_equalities),
    ("hedged policy equality and ratio bound", check_lh_equality_and_bound),
    ("nonobligatory sandwich", check_noi_sandwich),
    ("selection argmin consistency", check_weitzman_trace),
)
COMB_CHECKS = _PER_ITEM_CHECKS + (
    ("frugal matroid equality", check_oi_equalities),
    ("combinatorial hedging chain", check_lh_equality_and_bound),
    ("combinatorial lower bound", check_noi_sandwich),
    ("surrogate cost monotone and concave per coordinate", check_surrogate_cost_shape),
    ("single-item reduction consistency", check_single_reduction),
)


def run_checks(
    instance: Instance,
    model: Optional[CombModel] = None,
    budget: int = DEFAULT_BUDGET,
) -> list[CheckResult]:
    """Run every check of the instance's stack.  A check returns (passed,
    max violation) or NotApplicable; an exact value over the budget turns it
    into a budget skip."""
    values = ExactValues(instance, model, budget)
    tol = _tolerance(instance, model)
    results = []
    for name, check in SINGLE_CHECKS if model is None else COMB_CHECKS:
        try:
            outcome = check(values, tol)
        except BudgetExceededError:
            outcome = (True, 0.0, BUDGET_SKIP)
        if isinstance(outcome, NotApplicable):
            outcome = (True, 0.0, f"skipped (needs {outcome.needs})")
        results.append(CheckResult(name, *outcome))
    return results

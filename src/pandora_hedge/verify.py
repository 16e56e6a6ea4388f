"""Invariant suite run by the verify command.

Every check restates an identity or inequality the package guarantees and
reports its largest violation against the one tolerance ``TOL`` (zero on
exact-rational instances); none samples or keeps a tolerance of its own.
The per-item sweeps are proofs on each item's kink set (``_breakpoints``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .budget import DEFAULT_BUDGET, BudgetExceededError
from .combinatorial import (
    CombModel,
    GraphicMatroid,
    UniformMatroid,
    ZeroTerminal,
    _surrogate_dtypes,
    expected_surrogate_cost,
    prepare_comb_policy,
    surrogate_costs,
)
from .distkit import _div, expected_excess, expected_shortfall, mean, min_of_independent
from .indices import ALPHA_CEILING, SurrogateKind, capped_expectation, hedging_losses
from .instance import Instance
from .oracle import opt_value_comb_noi, opt_value_single_noi, opt_value_single_oi
from .policies import IntegerGrid, _exact_columns, _slots, evaluate_exact, one_item_value, prepare_policy, reservation_batch

TOL = 1e-12
BUDGET_SKIP = "skipped (budget)"


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
            return mean(min_of_independent([item.surrogate(kind) for item in self.instance.items]))
        return expected_surrogate_cost(self.model, self.instance, kind, self.budget)

    def _policy(self, name: str):
        if self.model is None:
            prepared = prepare_policy(self.instance, name)
        else:
            prepared = prepare_comb_policy(self.model, self.instance, name)
        return evaluate_exact(prepared, self.budget)

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


def _tolerance(instance: Instance, model: Optional[CombModel]):
    return 0 if IntegerGrid(instance, model).exact else TOL


def _breakpoints(instance: Instance, n: int, scale=None):
    """Item n's kink set: 0, its support values v and its own mu, u_rsv and
    u_bkp (its surrogates' source), with ``scale`` the NOI atoms times it,
    and one past the largest.

    Evaluating these points alone is a proof.  Each swept difference is
    piecewise linear with its kinks in the set: E[(u - X)+] and E[(X - u)+]
    bend at the v; E[min(W, r)] at the atoms of W, each a v, u_rsv, u_bkp or
    mu; alpha E[min(W, r / alpha)] at alpha times them; a one-item value
    min(c + mu - E[(X - r)+], r[, mu]) at the v and where its branches cross,
    at u_rsv, u_bkp or mu.  Each is constant past the largest point.  So zero
    (or at most 0) at every point holds on all of [min point, infinity),
    which reaches below 0 when u_bkp is negative."""
    item = instance.items[n]
    pts = {0, item.indices.mu, item.indices.u_rsv, item.indices.u_bkp, *item.dist.values}
    if scale is not None:
        pts.update(scale * v for v in item.surrogate(SurrogateKind.NOI).values)
    pts.add(max(pts) + 1)
    return sorted(pts)


def check_parity(values: ExactValues, tol):
    """E[(u - X)+] - E[(X - u)+] = u - mu on the kink set."""
    instance = values.instance
    worst = 0
    for n, item in enumerate(instance.items):
        for u in _breakpoints(instance, n):
            gap = expected_shortfall(item.dist, u) - expected_excess(item.dist, u) - (u - instance.indices[n].mu)
            worst = max(worst, abs(float(gap)))
    return worst <= tol, worst


def check_surrogate_means(values: ExactValues, tol):
    worst = 0
    for item, idx in zip(values.instance.items, values.instance.indices):
        gaps = (
            mean(item.surrogate(SurrogateKind.OI)) - (idx.mu + item.cost),
            mean(item.surrogate(SurrogateKind.NOI)) - idx.mu,
            mean(item.surrogate(SurrogateKind.LH)) - (idx.mu + idx.p_hedge * item.cost),
        )
        worst = max(worst, max(abs(float(g)) for g in gaps))
    return worst <= tol, worst


def check_one_item_identities(values: ExactValues, tol):
    """E[min(W, r)] is the one-item value at r, for OI and NOI, on the kink set."""
    instance = values.instance
    worst = 0
    for n, item in enumerate(instance.items):
        for r in _breakpoints(instance, n):
            gap_oi = capped_expectation(item, SurrogateKind.OI, r) - one_item_value(item, r, SurrogateKind.OI)
            gap_noi = capped_expectation(item, SurrogateKind.NOI, r) - one_item_value(item, r, SurrogateKind.NOI)
            worst = max(worst, abs(float(gap_oi)), abs(float(gap_noi)))
    return worst <= tol, worst


def check_local_approximation(values: ExactValues, tol):
    """E[min(W^LH, r)] <= alpha E[min(W^NOI, r / alpha)] on the kink set."""
    instance = values.instance
    worst = 0
    for n, item in enumerate(instance.items):
        alpha = instance.indices[n].alpha_local
        for r in _breakpoints(instance, n, scale=alpha):
            noi = alpha * capped_expectation(item, SurrogateKind.NOI, _div(r, alpha))
            gap = capped_expectation(item, SurrogateKind.LH, r) - noi
            worst = max(worst, float(gap))
    return worst <= tol, worst


def check_alpha(values: ExactValues, tol):
    """The ratio's bounds, and p_hedge as the argmin of 1 + max(A(p), B(p)).

    A proof, not a sweep: on a hedged item A falls linearly from
    (mu - u_rsv)/u_rsv > 0 to 0 and B rises linearly from 0, so their max is
    smallest exactly where the two are equal.  With u_rsv = 0, A diverges
    below p = 1, so the argmin is 1.  It reads the instance's indices, as the
    policies do: a hedged record needs u_rsv < u_bkp and u_rsv - mu < tol."""
    worst = 0
    ok = True
    for item, idx in zip(values.instance.items, values.instance.indices):
        gaps = [
            max(0, idx.alpha_local - ALPHA_CEILING),
            max(0, 1 - idx.alpha_local),
            max(0, item.cost - idx.u_rsv),
            max(0, -idx.p_hedge),
            max(0, idx.p_hedge - 1),
        ]
        if idx.never_inspect:
            ok = ok and idx.p_hedge == 0 and idx.alpha_local == 1
            gaps += [idx.p_hedge, idx.alpha_local - 1]
        elif idx.u_rsv >= idx.u_bkp or idx.u_rsv - idx.mu >= tol:
            ok = False
        elif idx.u_rsv == 0:
            gaps += [1 - idx.p_hedge, 1 + hedging_losses(idx, item.cost, 1)[1] - idx.alpha_local]
        elif 0 <= idx.p_hedge <= 1:  # else the range gaps fail the check
            gaps += [1 + loss - idx.alpha_local for loss in hedging_losses(idx, item.cost, idx.p_hedge)]
        worst = max(worst, max(abs(float(g)) for g in gaps))
    return ok and worst <= tol, worst


MATROIDS = (UniformMatroid, GraphicMatroid)  # the families with a shipped greedy rule


def _attains_one_shot(model: Optional[CombModel]) -> bool:
    """Whether the obligatory and hedged policies attain the one-shot values:
    always for single-item selection (Weitzman), and for the frugal
    composition on a matroid with zero terminal (Singla, SODA 2018)."""
    return model is None or (isinstance(model.family, MATROIDS) and isinstance(model.terminal, ZeroTerminal))


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
    worst = max(worst, float(policy_value - values.instance.max_alpha * noi_bound))
    worst = max(worst, float(policy_value - ALPHA_CEILING * noi_bound))
    return worst <= tol, worst


def check_noi_sandwich(values: ExactValues, tol):
    """The NOI one-shot value is at most the NOI optimum, which is at most the
    value of each policy the package runs (each one may select uninspected)."""
    opt = values.optimum(SurrogateKind.NOI)
    worst = max(0, float(values.one_shot(SurrogateKind.NOI) - opt))
    if values.model is None or isinstance(values.model.family, MATROIDS):
        for name in (values.oi_policy, "local-hedging"):
            worst = max(worst, float(opt - values.policy(name)))
    return worst <= tol, worst


def check_weitzman_trace(values: ExactValues, tol):
    """Weitzman's search selects the lowest view price on every realization
    (``_exact_columns``): an item is inspected iff its slot's rank is below
    the stop, and its view is then max(price, u_rsv), else u_rsv.  The
    inspected item of lowest price, ties to the lowest id, is selected at the
    search's chosen price.  A gap leaves the grid as ``_div(gap, L)``."""
    n = len(values.instance)
    grid, _, chunks = _exact_columns(values.instance, None, [1] * n, values.budget, "selection argmin check")
    instance, labels = grid.instance, (True,) * n
    search = reservation_batch(instance, labels)
    rank = np.argsort([n for _, n, _ in _slots(instance, labels)])[:, None]
    worst, ok = 0, True
    for _, prices, _ in chunks():
        _, chosen, stops = search(prices, None)
        inspected, cols = rank < stops, np.arange(prices.shape[1])
        rsv = np.array(instance.reservation_prices, dtype=prices.dtype)[:, None]
        views = np.where(inspected, np.maximum(prices, rsv), rsv)
        sel = np.where(inspected, prices, np.inf).argmin(axis=0)
        ok = ok and bool((chosen == prices[sel, cols]).all())
        worst = max(worst, _div(grid.number((views[sel, cols] - views.min(axis=0)).max()), grid.L))
    return ok and worst <= tol, worst


def check_surrogate_cost_shape(values: ExactValues, tol):
    """Raising one price never lowers the optimum, and the optimum is concave
    along each coordinate: with the other items at their means, item n's
    price runs over 0, its support values, its mean and one past the largest
    (one ``surrogate_costs`` call, a column per point), and each inner point
    lies on or above the chord of its neighbours."""
    model, means = values.model, [idx.mu for idx in values.instance.indices]
    sweeps = [sorted({0, mu, *item.dist.values}) for item, mu in zip(values.instance.items, means)]
    sweeps = [ts + [ts[-1] + 1] for ts in sweeps]
    rows = [[t if n == m else mu for n, ts in enumerate(sweeps) for t in ts] for m, mu in enumerate(means)]
    dtype, pool = _surrogate_dtypes(model, rows)
    costs = iter(surrogate_costs(model, pool)(np.array(rows, dtype=dtype)))
    worst = 0
    for ts in sweeps:
        pts = [(t, next(costs)) for t in ts]
        for (t0, f0), (t1, f1), (t2, f2) in zip(pts, pts[1:], pts[2:]):
            worst = max(worst, float(f0 + _div((f2 - f0) * (t1 - t0), t2 - t0) - f1))
        worst = max(worst, *(float(f0 - f1) for (_, f0), (_, f1) in zip(pts, pts[1:])))
    return worst <= tol, worst


def check_single_reduction(values: ExactValues, tol):
    """Rank-1 selection has the single-item one-shot and policy values."""
    if not (_attains_one_shot(values.model) and isinstance(values.model.family, UniformMatroid) and values.model.family.k == 1):
        return NotApplicable("rank-1 selection")
    single = ExactValues(values.instance, budget=values.budget)
    worst = 0
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
            outcome = (True, 0, BUDGET_SKIP)
        if isinstance(outcome, NotApplicable):
            outcome = (True, 0, f"skipped (needs {outcome.needs})")
        results.append(CheckResult(name, outcome[0], float(outcome[1]), *outcome[2:]))
    return results

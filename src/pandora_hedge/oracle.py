"""Exact optimal adaptive policies by dynamic programming, plus the
policy-dependent Monte Carlo lower bound.

The single-item recursions compress the observation history to the best
observed price, which is sufficient because only the cheapest inspected item
is ever worth selecting; the combinatorial recursion keeps the full
observation map, since which items remain selectable depends on the feasible
family.  The best-observed sentinel is an algebraic top element (None), never
a floating-point infinity.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .budget import DEFAULT_BUDGET, check_budget
from .combinatorial import CombModel
from .distkit import Numeric
from .instance import Instance
from .policies import run_policy, sample_coins, sample_realizations
from .sampling import mc_summary


def _tmin(a, b):
    """min with None as the top element."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _single_dp_cost(instance: Instance) -> int:
    n = len(instance)
    total_support = sum(len(item.dist) for item in instance.items)
    return (2**n) * (total_support + 1) * n


def opt_value_single_noi(instance: Instance, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Optimal expected cost when uninspected items may be selected."""
    return _opt_value_single(instance, budget, allow_uninspected=True)


def opt_value_single_oi(instance: Instance, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Optimal expected cost when only inspected items may be selected."""
    return _opt_value_single(instance, budget, allow_uninspected=False)


def _opt_value_single(instance: Instance, budget: int, allow_uninspected: bool) -> Numeric:
    check_budget(_single_dp_cost(instance), budget, "single-item DP")
    items = instance.items
    indices = instance.indices
    n = len(items)

    @lru_cache(maxsize=None)
    def val(mask: int, best: Optional[Numeric]) -> Numeric:
        options = [best] if best is not None else []
        rest = mask
        while rest:
            bit = rest & -rest
            m = bit.bit_length() - 1
            rest ^= bit
            if allow_uninspected:
                options.append(indices[m].mu)
            inspect = items[m].cost
            for v, p in items[m].dist.atoms:
                inspect = inspect + p * val(mask ^ bit, _tmin(best, v))
            options.append(inspect)
        if not options:
            raise AssertionError("no action available: empty mask with no observation")
        return min(options)

    try:
        return val((1 << n) - 1, None)
    finally:
        val.cache_clear()


def _comb_dp_cost(model: CombModel, instance: Instance) -> int:
    states = 1
    for item in instance.items:
        states *= len(item.dist) + 2
    return states * len(instance) * (max(len(item.dist) for item in instance.items) + 2)


def opt_value_comb_noi(
    model: CombModel, instance: Instance, budget: int = DEFAULT_BUDGET
) -> Numeric:
    """Optimal expected cost of combinatorial selection with nonobligatory
    inspection, over full observation states."""
    if model.n_items != len(instance):
        raise ValueError("model and instance disagree on the number of items")
    check_budget(_comb_dp_cost(model, instance), budget, "combinatorial DP")
    items = instance.items
    indices = instance.indices
    n = len(items)
    UNINSPECTED = 0
    SELECTED = -1

    @lru_cache(maxsize=None)
    def val(state: tuple[int, ...]) -> Numeric:
        selected = frozenset(m for m in range(n) if state[m] == SELECTED)
        options = []
        if model.is_feasible(selected):
            options.append(model.terminal_cost(selected))
        for m in range(n):
            code = state[m]
            if code == SELECTED:
                continue
            if code == UNINSPECTED:
                inspect = items[m].cost
                for k, (v, p) in enumerate(items[m].dist.atoms):
                    inspect = inspect + p * val(state[:m] + (k + 1,) + state[m + 1 :])
                options.append(inspect)
                options.append(indices[m].mu + val(state[:m] + (SELECTED,) + state[m + 1 :]))
            else:
                v = items[m].dist.atoms[code - 1][0]
                options.append(v + val(state[:m] + (SELECTED,) + state[m + 1 :]))
        return min(options)

    try:
        return val((UNINSPECTED,) * n)
    finally:
        val.cache_clear()


def pi_surrogate_bound(
    instance: Instance, policy: str, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the policy-dependent one-shot lower bound.

    Per trial, each item contributes its realized price floored at its
    reservation price when the policy inspected it, and its mean otherwise;
    the bound is the expectation of the minimum contribution.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    realizations = sample_realizations(instance, seed, 0, trials)
    coin_rows = sample_coins(instance, seed, 0, trials) if policy == "local-hedging" else None
    indices = instance.indices

    def bound(t):
        coins = coin_rows[t] if coin_rows is not None else None
        trace = run_policy(instance, policy, realizations[t], coins)
        inspected = set(trace.inspection_order)
        w = None
        for m in range(len(instance)):
            if m in inspected:
                v = realizations[t].prices[m]
                contrib = v if v > indices[m].u_rsv else indices[m].u_rsv
            else:
                contrib = indices[m].mu
            w = _tmin(w, contrib)
        return w

    return mc_summary(bound(t) for t in range(trials))

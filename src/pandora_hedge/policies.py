"""Executable single-item selection policies and their evaluators.

All policies are pure functions of (instance, realization, coins); the Monte
Carlo evaluator derives realizations and coins from the counter-based
sampling contract, so estimates do not depend on execution order.
"""

from __future__ import annotations

import itertools
from enum import Enum
from typing import Optional, Sequence

from .budget import DEFAULT_BUDGET, check_budget
from .distkit import (
    DiscreteDist,
    Numeric,
    mean,
    min_of_independent,
    min_with_constant_expectation,
)
from .indices import Item, SurrogateKind, compute_indices, surrogate_dist
from .instance import HedgeCoins, Instance, PolicyTrace, Realization, hedged_view, key_order
from .sampling import COIN_STREAM, PRICE_STREAM, mc_summary, sample_price_indices, uniforms


class Action(Enum):
    TAKE_OUTSIDE = "take_outside"
    INSPECT = "inspect"
    SELECT_UNINSPECTED = "select_uninspected"


def one_item_optimal_action(item: Item, r: Numeric) -> Action:
    """Optimal first action against a deterministic outside option r.

    Boundary ties resolve toward the non-inspect action.
    """
    idx = compute_indices(item)
    if idx.u_rsv >= idx.u_bkp:
        return Action.SELECT_UNINSPECTED
    if r <= idx.u_rsv:
        return Action.TAKE_OUTSIDE
    if r >= idx.u_bkp:
        return Action.SELECT_UNINSPECTED
    return Action.INSPECT


def one_item_value(item: Item, r: Optional[Numeric], regime: SurrogateKind) -> Numeric:
    """Optimal expected cost of the one-item subproblem; r=None means no
    outside option (an infinite sentinel)."""
    if regime is SurrogateKind.LH:
        raise ValueError("one-item value is defined for the OI and NOI regimes")
    mu = mean(item.dist)
    if r is None:
        inspect_branch = item.cost + mu
        candidates = [inspect_branch]
    else:
        inspect_branch = item.cost + min_with_constant_expectation(item.dist, r)
        candidates = [inspect_branch, r]
    if regime is SurrogateKind.NOI:
        candidates.append(mu)
    return min(candidates)


def _run_reservation_order(
    order: Sequence[int], keys: Sequence[Numeric], prices: Sequence[Numeric]
):
    """Core adaptive loop: inspect in ``order`` (ascending key), stop when the
    best observed price is at most the next key, select the cheapest
    observation (ties by id).  Returns (inspected ids, selected id).
    """
    best_v = None
    best_id = None
    inspected = []
    for n in order:
        if best_id is not None and best_v <= keys[n]:
            break
        inspected.append(n)
        v = prices[n]
        if best_id is None or v < best_v or (v == best_v and n < best_id):
            best_v, best_id = v, n
    return inspected, best_id


def weitzman_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    """Obligatory-inspection reservation-price policy."""
    inspected, sel = _run_reservation_order(
        instance.order_by_reservation, instance.reservation_prices, realization.prices
    )
    total = sum(instance.items[n].cost for n in inspected) + realization.prices[sel]
    return PolicyTrace(
        inspection_order=tuple(inspected),
        selected=frozenset({sel}),
        selected_without_inspection=frozenset(),
        total_cost=total,
    )


def local_hedging_policy(
    instance: Instance, realization: Realization, coins: HedgeCoins
) -> PolicyTrace:
    """Randomized committing policy driven by per-item hedge labels.

    Non-inspection items are played as free deterministic items at their mean;
    the trace still charges the realized price of whatever is selected.
    """
    keys, _, prices = hedged_view(instance, coins.labels, realization.prices)
    inspected, sel = _run_reservation_order(key_order(keys), keys, prices)
    true_inspected = tuple(n for n in inspected if coins.labels[n])
    without = frozenset() if coins.labels[sel] else frozenset({sel})
    total = sum(instance.items[n].cost for n in true_inspected) + realization.prices[sel]
    return PolicyTrace(
        inspection_order=true_inspected,
        selected=frozenset({sel}),
        selected_without_inspection=without,
        total_cost=total,
        labels=coins.labels,
    )


def commit_enum_labeling(instance: Instance) -> HedgeCoins:
    """Best committing labeling among all-obligatory and the N single
    non-inspection choices, by exact expected cost; ties prefer all-obligatory
    then the lowest non-inspection id."""
    oi_dists = [surrogate_dist(item, SurrogateKind.OI) for item in instance.items]

    def value(skip: Optional[int]) -> Numeric:
        parts = [
            DiscreteDist.point_mass(instance.indices[n].mu) if n == skip else d
            for n, d in enumerate(oi_dists)
        ]
        return mean(min_of_independent(parts))

    best_skip = None
    best_value = value(None)
    for n in range(len(instance)):
        v = value(n)
        if v < best_value:
            best_value, best_skip = v, n
    labels = tuple(n != best_skip for n in range(len(instance)))
    return HedgeCoins(labels)


def commit_enum_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    return local_hedging_policy(instance, realization, commit_enum_labeling(instance))


def inspect_all_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    """Diagnostic policy: inspect every item, then select the cheapest."""
    prices = realization.prices
    sel = min(range(len(instance)), key=lambda n: (prices[n], n))
    total = sum(item.cost for item in instance.items) + prices[sel]
    return PolicyTrace(
        inspection_order=tuple(range(len(instance))),
        selected=frozenset({sel}),
        selected_without_inspection=frozenset(),
        total_cost=total,
    )


def never_inspect_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    """Diagnostic policy: select the item with the lowest mean, uninspected."""
    sel = min(range(len(instance)), key=lambda n: (instance.indices[n].mu, n))
    return PolicyTrace(
        inspection_order=(),
        selected=frozenset({sel}),
        selected_without_inspection=frozenset({sel}),
        total_cost=realization.prices[sel],
    )


SINGLE_POLICIES = ("weitzman", "local-hedging", "commit-enum", "inspect-all", "never-inspect")


def run_policy(
    instance: Instance,
    policy: str,
    realization: Realization,
    coins: Optional[HedgeCoins] = None,
) -> PolicyTrace:
    if policy == "weitzman":
        return weitzman_policy(instance, realization)
    if policy == "local-hedging":
        if coins is None:
            raise ValueError("local-hedging needs hedge coins")
        return local_hedging_policy(instance, realization, coins)
    if policy == "commit-enum":
        return commit_enum_policy(instance, realization)
    if policy == "inspect-all":
        return inspect_all_policy(instance, realization)
    if policy == "never-inspect":
        return never_inspect_policy(instance, realization)
    raise ValueError(f"unknown policy {policy!r}; expected one of {SINGLE_POLICIES}")


def _price_rows(
    dists: Sequence[DiscreteDist], ids: Sequence[int], base: Sequence[Numeric], weight: Numeric = 1
):
    """Yield (probability, price row) over the product of ``dists[n]`` for n
    in ``ids``; every other entry of the row keeps its ``base`` value."""
    for atoms in itertools.product(*(dists[n].atoms for n in ids)):
        prob = weight
        row = list(base)
        for n, (v, p) in zip(ids, atoms):
            row[n] = v
            prob = prob * p
        yield prob, row


def iter_price_realizations(instance: Instance):
    """Yield (probability, price row) over the product of all supports."""
    dists = [item.dist for item in instance.items]
    for prob, row in _price_rows(dists, range(len(dists)), [None] * len(dists)):
        yield prob, tuple(row)


def iter_hedged_views(instance: Instance, budget: int):
    """Enumerate the hedged policy's label vectors with their weights.

    Items with hedging probability 0 or 1 have a fixed label; the others
    branch both ways.  Yields (keys, costs, rows) per label vector, where
    keys and costs are its ``hedged_view`` and rows yields (probability,
    price row) over the supports of the labelled items, weighted by the
    label vector's probability.  Non-inspection prices are marginalized to
    the mean, which is exactly the expectation of the realized price.
    """
    p_hedge = [ix.p_hedge for ix in instance.indices]
    branches = 1
    for n, item in enumerate(instance.items):
        if p_hedge[n] == 1:
            branches *= len(item.dist)
        elif p_hedge[n] != 0:
            branches *= len(item.dist) + 1
    check_budget(branches, budget, "hedged policy evaluation")
    mus = [ix.mu for ix in instance.indices]
    dists = [item.dist for item in instance.items]
    varying = [n for n, p in enumerate(p_hedge) if 0 < p < 1]
    for combo in itertools.product((True, False), repeat=len(varying)):
        labels = [p == 1 for p in p_hedge]
        weight = 1
        for n, lab in zip(varying, combo):
            labels[n] = lab
            weight = weight * (p_hedge[n] if lab else 1 - p_hedge[n])
        keys, costs, base = hedged_view(instance, labels, mus)
        oi_ids = [n for n in range(len(instance)) if labels[n]]
        yield keys, costs, _price_rows(dists, oi_ids, base, weight)


def evaluate_policy_exact(
    instance: Instance, policy: str, budget: int = DEFAULT_BUDGET
) -> Numeric:
    """Exact expected total cost by enumerating realizations (and, for the
    hedged policy, coin vectors with non-inspection prices marginalized)."""
    if policy == "local-hedging":
        total = 0
        for keys, costs, rows in iter_hedged_views(instance, budget):
            order = key_order(keys)
            for prob, prices in rows:
                inspected, sel = _run_reservation_order(order, keys, prices)
                total = total + prob * (sum(costs[n] for n in inspected) + prices[sel])
        return total
    if policy not in SINGLE_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {SINGLE_POLICIES}")
    check_budget(instance.support_product(), budget, "policy evaluation")
    coins = commit_enum_labeling(instance) if policy == "commit-enum" else None
    total = 0
    for prob, prices in iter_price_realizations(instance):
        realization = Realization(prices)
        if policy == "commit-enum":
            trace = local_hedging_policy(instance, realization, coins)
        else:
            trace = run_policy(instance, policy, realization)
        total = total + prob * trace.total_cost
    return total


def sample_realizations(instance: Instance, seed: int, start: int, count: int):
    """Realizations for trials start..start+count-1 under the seeding contract."""
    per_item = []
    for n, item in enumerate(instance.items):
        us = uniforms(seed, n, PRICE_STREAM, count, start=start)
        idx = sample_price_indices([float(p) for p in item.dist.probs], us)
        values = item.dist.values
        per_item.append([values[i] for i in idx])
    return [Realization(tuple(per_item[n][t] for n in range(len(instance)))) for t in range(count)]


def sample_coins(instance: Instance, seed: int, start: int, count: int):
    """Hedge labels for trials start..start+count-1 under the seeding contract."""
    per_item = []
    for n in range(len(instance)):
        us = uniforms(seed, n, COIN_STREAM, count, start=start)
        per_item.append(us < float(instance.indices[n].p_hedge))
    return [HedgeCoins(tuple(bool(per_item[n][t]) for n in range(len(instance)))) for t in range(count)]


def evaluate_policy_mc(
    instance: Instance, policy: str, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a policy's total cost."""
    if trials < 1:
        raise ValueError("need at least one trial")
    if policy not in SINGLE_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {SINGLE_POLICIES}")
    realizations = sample_realizations(instance, seed, 0, trials)
    needs_coins = policy == "local-hedging"
    coin_rows = sample_coins(instance, seed, 0, trials) if needs_coins else None
    fixed_coins = commit_enum_labeling(instance) if policy == "commit-enum" else None

    def trace(t):
        if policy == "commit-enum":
            return local_hedging_policy(instance, realizations[t], fixed_coins)
        if needs_coins:
            return local_hedging_policy(instance, realizations[t], coin_rows[t])
        return run_policy(instance, policy, realizations[t])

    return mc_summary(trace(t).total_cost for t in range(trials))

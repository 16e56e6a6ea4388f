"""Executable single-item selection policies and the policy layer shared
with combinatorial selection: engines, prepared policies, traces and the
exact and Monte Carlo evaluators.

All policies are pure functions of (instance, realization, coins); the Monte
Carlo evaluator derives realizations and coins from the counter-based
sampling contract, so estimates do not depend on execution order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Sequence

from .budget import DEFAULT_BUDGET, check_budget
from .distkit import (
    DiscreteDist,
    Numeric,
    mean,
    min_of_independent,
    min_with_constant_expectation,
)
from .indices import Item, SurrogateKind, compute_indices, surrogate_dist
from .instance import HedgeCoins, Instance, PolicyTrace, Realization, hedged_view
from .sampling import COIN_STREAM, PRICE_STREAM, mc_summary, sample_rows, uniforms


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


@dataclass(frozen=True)
class PreparedPolicy:
    """A policy with its trial-independent work done once.

    ``run(realization, coins=None)`` returns one trial's trace.  ``engine``
    is set only for local hedging, whose labels are drawn afresh each trial:
    such a policy draws coins, and its exact value marginalizes the labels
    through the engine.
    """

    run: Callable[..., PolicyTrace]
    engine: Optional[Callable] = None

    @property
    def draws_coins(self) -> bool:
        return self.engine is not None


def reservation_engine(keys: Sequence[Numeric], costs: Sequence[Numeric]):
    """Weitzman's search on a key/cost view (see ``hedged_view``).

    Sorts once; the returned ``run(prices)`` inspects in ascending key order
    (ties by id), stops when the best observed price is at most the next key,
    and selects the cheapest observation (ties by id).  It returns (inspected
    ids in order, selected ids, cost under the view, terminal cost 0).
    """
    order = sorted(range(len(keys)), key=lambda n: (keys[n], n))

    def run(prices):
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
        return inspected, (best_id,), sum(costs[n] for n in inspected) + prices[best_id], 0

    return run


def prepare_obligatory(instance: Instance, engine) -> PreparedPolicy:
    """Obligatory inspection on ``engine``: every item keeps its reservation
    price and cost, and each trial is charged the engine's own total."""
    search = engine(instance.reservation_prices, [item.cost for item in instance.items])

    def run(realization, coins=None):
        inspected, selected, total, _ = search(realization.prices)
        return PolicyTrace(
            inspection_order=tuple(inspected),
            selected=frozenset(selected),
            selected_without_inspection=frozenset(),
            total_cost=total,
        )

    return PreparedPolicy(run)


def hedged_trace(instance: Instance, engine, realization: Realization, labels) -> PolicyTrace:
    """One trial of local hedging on any engine.

    The engine searches the ``hedged_view``, where a non-inspection item is a
    free point mass at its mean; the trace charges the true inspection costs,
    the realized price of every selected item and the terminal cost.
    """
    keys, costs, prices = hedged_view(instance, labels, realization.prices)
    inspected, selected, _, terminal = engine(keys, costs)(prices)
    order = tuple(n for n in inspected if labels[n])
    total = (
        sum(instance.items[n].cost for n in order)
        + sum(realization.prices[n] for n in selected)
        + terminal
    )
    return PolicyTrace(
        inspection_order=order,
        selected=frozenset(selected),
        selected_without_inspection=frozenset(n for n in selected if not labels[n]),
        total_cost=total,
        labels=labels,
    )


def prepare_hedged(instance: Instance, engine) -> PreparedPolicy:
    """Local hedging on ``engine``: each trial runs on its own coins."""

    def run(realization, coins=None):
        if coins is None:
            raise ValueError("local-hedging needs hedge coins")
        return hedged_trace(instance, engine, realization, coins.labels)

    return PreparedPolicy(run, engine)


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


SINGLE_POLICIES = ("weitzman", "local-hedging", "commit-enum", "inspect-all", "never-inspect")


def prepare_policy(instance: Instance, policy: str) -> PreparedPolicy:
    """Prepare a single-item policy by name: ``weitzman`` (obligatory
    inspection), ``local-hedging``, ``commit-enum`` (the best committing
    labeling, fixed for every trial), and the diagnostics ``inspect-all``
    (inspect everything, select the cheapest) and ``never-inspect`` (select
    the lowest mean uninspected)."""
    if policy == "weitzman":
        return prepare_obligatory(instance, reservation_engine)
    if policy == "local-hedging":
        return prepare_hedged(instance, reservation_engine)
    if policy == "commit-enum":
        labels = commit_enum_labeling(instance).labels
        keys, costs, _ = hedged_view(instance, labels, instance.reservation_prices)
        fixed = reservation_engine(keys, costs)  # the labels never change: sort once
        return PreparedPolicy(
            lambda realization, coins=None: hedged_trace(instance, lambda *_: fixed, realization, labels)
        )
    ids = tuple(range(len(instance)))
    if policy == "inspect-all":
        inspect_cost = sum(item.cost for item in instance.items)

        def inspect_all(realization, coins=None):
            prices = realization.prices
            sel = min(ids, key=lambda n: (prices[n], n))
            return PolicyTrace(ids, frozenset({sel}), frozenset(), inspect_cost + prices[sel])

        return PreparedPolicy(inspect_all)
    if policy == "never-inspect":
        sel = min(ids, key=lambda n: (instance.indices[n].mu, n))
        return PreparedPolicy(
            lambda realization, coins=None: PolicyTrace(
                (), frozenset({sel}), frozenset({sel}), realization.prices[sel]
            )
        )
    raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(SINGLE_POLICIES)}")


def run_policy(
    instance: Instance,
    policy: str,
    realization: Realization,
    coins: Optional[HedgeCoins] = None,
) -> PolicyTrace:
    return prepare_policy(instance, policy).run(realization, coins)


def weitzman_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    """Obligatory-inspection reservation-price policy."""
    return run_policy(instance, "weitzman", realization)


def local_hedging_policy(
    instance: Instance, realization: Realization, coins: HedgeCoins
) -> PolicyTrace:
    """Randomized committing policy driven by per-item hedge labels."""
    return hedged_trace(instance, reservation_engine, realization, coins.labels)


def commit_enum_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    return run_policy(instance, "commit-enum", realization)


def inspect_all_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    """Diagnostic policy: inspect every item, then select the cheapest."""
    return run_policy(instance, "inspect-all", realization)


def never_inspect_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    """Diagnostic policy: select the item with the lowest mean, uninspected."""
    return run_policy(instance, "never-inspect", realization)


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


def evaluate_exact(instance: Instance, prepared: PreparedPolicy, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Exact expected total cost of a prepared policy.

    Local hedging enumerates label vectors with non-inspection prices
    marginalized to the mean (exactly the expectation of the realized price);
    every other policy enumerates realizations.
    """
    total = 0
    if prepared.engine is not None:
        for keys, costs, rows in iter_hedged_views(instance, budget):
            run = prepared.engine(keys, costs)
            for prob, prices in rows:
                total = total + prob * run(prices)[2]
        return total
    check_budget(instance.support_product(), budget, "policy evaluation")
    for prob, prices in iter_price_realizations(instance):
        total = total + prob * prepared.run(Realization(prices)).total_cost
    return total


def evaluate_policy_exact(
    instance: Instance, policy: str, budget: int = DEFAULT_BUDGET
) -> Numeric:
    """Exact expected total cost of a single-item policy by enumeration."""
    return evaluate_exact(instance, prepare_policy(instance, policy), budget)


def sample_realizations(instance: Instance, seed: int, start: int, count: int):
    """Realizations for trials start..start+count-1 under the seeding contract."""
    dists = [item.dist for item in instance.items]
    return [Realization(row) for row in sample_rows(dists, seed, PRICE_STREAM, start, count)]


def sample_coins(instance: Instance, seed: int, start: int, count: int):
    """Hedge labels for trials start..start+count-1 under the seeding contract."""
    per_item = []
    for n in range(len(instance)):
        us = uniforms(seed, n, COIN_STREAM, count, start=start)
        per_item.append((us < float(instance.indices[n].p_hedge)).tolist())
    return [HedgeCoins(row) for row in zip(*per_item)]


def iter_trials(instance: Instance, prepared: PreparedPolicy, seed: int, count: int):
    """Yield (realization, trace) for trials 0..count-1; coins are drawn
    only for a policy that draws them."""
    if count < 1:
        raise ValueError("need at least one trial")
    realizations = sample_realizations(instance, seed, 0, count)
    coins = sample_coins(instance, seed, 0, count) if prepared.draws_coins else [None] * count
    for realization, c in zip(realizations, coins):
        yield realization, prepared.run(realization, c)


def evaluate_mc(instance: Instance, prepared: PreparedPolicy, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a prepared policy's total cost."""
    return mc_summary(trace.total_cost for _, trace in iter_trials(instance, prepared, seed, trials))


def evaluate_policy_mc(
    instance: Instance, policy: str, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a policy's total cost."""
    return evaluate_mc(instance, prepare_policy(instance, policy), trials, seed)

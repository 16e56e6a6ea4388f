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

import numpy as np

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
from .sampling import COIN_STREAM, PRICE_STREAM, mc_summary, sample_columns, sample_rows, trial_chunks


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

    ``run(realization, coins=None)`` returns one trial's trace.
    ``batch(prices, labels)`` is its array form for Monte Carlo: it maps an
    (items x trials) price array in the instance's ``array_dtype`` (and, for
    a policy that draws coins, a label array of the same shape) to the
    trials' total costs.  ``engine`` is set only for local hedging, whose
    labels are drawn afresh each trial: such a policy draws coins, and its
    exact value marginalizes the labels through the engine.
    """

    run: Callable[..., PolicyTrace]
    batch: Callable[..., np.ndarray]
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


def array_dtype(instance: Instance):
    """float64 when every cost, support value and index of the instance is a
    Python float or a small int, so that array arithmetic and comparisons are
    exactly Python's; otherwise object arrays that run Python's own."""
    numbers = [
        x
        for item, ix in zip(instance.items, instance.indices)
        for x in (item.cost, ix.mu, ix.u_rsv, *item.dist.values)
    ]
    plain = all(type(x) is float or (type(x) is int and abs(x) < 2**32) for x in numbers)
    return np.float64 if plain else object


_FIRST_BLOCK = 4  # slots in the first block; most trials stop after a few inspections


def reservation_batch(instance: Instance, labels: Optional[Sequence[bool]] = None):
    """Array form of ``hedged_trace`` on ``reservation_engine``, with fixed
    ``labels`` or, if None, labels drawn per trial.

    Item n has two slots: labelled (key u_rsv, its cost and realized price)
    and unlabelled (key and view price mu, cost 0).  The slots are sorted
    once by (key, id), so the slots active in a trial come in the order of
    that trial's own stable sort; fixed labels keep only their active slots.
    The search walks the slots in blocks that double in size and keeps only
    the trials still searching.  A trial adds its inspection costs in
    inspection order (a slot it skips adds an exact zero), then the realized
    price of the item with the lowest inspected view price.

    Which of several tied items holds that lowest view price never changes a
    total: an unlabelled item's view price is its key, so it is inspected
    only below every earlier view price, and tied labelled items have equal
    realized prices.
    """
    dtype = array_dtype(instance)
    zero = 0 if dtype is object else 0.0
    slots = [
        (ix.u_rsv if lab else ix.mu, n, lab)
        for n, ix in enumerate(instance.indices)
        for lab in (True, False)
        if labels is None or labels[n] == lab
    ]
    slots.sort(key=lambda s: (s[0], s[1]))
    keys = np.array([s[0] for s in slots], dtype=dtype)[:, None]
    ids = np.array([s[1] for s in slots], dtype=np.intp)[:, None]
    lab = np.array([s[2] for s in slots])[:, None]
    costs = np.array([instance.items[n].cost if b else zero for _, n, b in slots], dtype=dtype)[:, None]
    mus = np.array([instance.indices[n].mu for _, n, _ in slots], dtype=dtype)[:, None]

    def batch(prices, coins):
        trials = prices.shape[1]
        best = np.full(trials, np.inf, dtype=dtype)  # lowest view price inspected
        chosen = np.full(trials, zero, dtype=dtype)  # realized price of its item
        spent = np.full(trials, zero, dtype=dtype)
        rows = np.arange(trials)  # trials still searching
        s0, width = 0, _FIRST_BLOCK
        while rows.size and s0 < len(slots):
            blk = slice(s0, s0 + width)
            realized = prices[ids[blk], rows]
            seen = np.where(lab[blk], realized, mus[blk])
            active = True if coins is None else coins[ids[blk], rows] == lab[blk]
            pending = np.where(active, seen, np.inf)
            # the lowest view price before each slot falls while the keys
            # rise, so a trial stops at its first active slot whose key is at
            # least that price
            before = np.minimum.accumulate(np.vstack([best[rows], pending[:-1]]))
            stop = active & (before <= keys[blk])
            stopped = stop.any(axis=0)
            first = np.where(stopped, stop.argmax(axis=0), len(seen))
            inspected = active & (np.arange(len(seen))[:, None] < first)
            steps = np.vstack([spent[rows], np.where(inspected, costs[blk], zero)])
            spent[rows] = np.cumsum(steps, axis=0)[-1]
            cand = np.where(inspected, seen, np.inf)
            at = (cand.argmin(axis=0), np.arange(len(rows)))
            better = cand[at] < best[rows]
            best[rows[better]] = cand[at][better]
            chosen[rows[better]] = realized[at][better]
            rows = rows[~stopped]
            s0, width = s0 + width, 2 * width
        return spent + chosen

    return batch


def obligatory_run(instance: Instance, engine):
    """One trial of obligatory inspection on ``engine``: every item keeps its
    reservation price and cost, and the trial is charged the engine's own
    total."""
    search = engine(instance.reservation_prices, [item.cost for item in instance.items])

    def run(realization, coins=None):
        inspected, selected, total, _ = search(realization.prices)
        return PolicyTrace(
            inspection_order=tuple(inspected),
            selected=frozenset(selected),
            selected_without_inspection=frozenset(),
            total_cost=total,
        )

    return run


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


def hedged_run(instance: Instance, engine):
    """One trial of local hedging on ``engine``, on that trial's own coins."""

    def run(realization, coins=None):
        if coins is None:
            raise ValueError("local-hedging needs hedge coins")
        return hedged_trace(instance, engine, realization, coins.labels)

    return run


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
        batch = reservation_batch(instance, (True,) * len(instance))
        return PreparedPolicy(obligatory_run(instance, reservation_engine), batch=batch)
    if policy == "local-hedging":
        run = hedged_run(instance, reservation_engine)
        return PreparedPolicy(run, batch=reservation_batch(instance), engine=reservation_engine)
    if policy == "commit-enum":
        labels = commit_enum_labeling(instance).labels
        keys, costs, _ = hedged_view(instance, labels, instance.reservation_prices)
        fixed = reservation_engine(keys, costs)  # the labels never change: sort once
        return PreparedPolicy(
            lambda realization, coins=None: hedged_trace(instance, lambda *_: fixed, realization, labels),
            batch=reservation_batch(instance, labels),
        )
    ids = tuple(range(len(instance)))
    if policy == "inspect-all":
        inspect_cost = sum(item.cost for item in instance.items)

        def inspect_all(realization, coins=None):
            prices = realization.prices
            sel = min(ids, key=lambda n: (prices[n], n))
            return PolicyTrace(ids, frozenset({sel}), frozenset(), inspect_cost + prices[sel])

        return PreparedPolicy(inspect_all, batch=lambda prices, coins: inspect_cost + prices.min(axis=0))
    if policy == "never-inspect":
        sel = min(ids, key=lambda n: (instance.indices[n].mu, n))
        return PreparedPolicy(
            lambda realization, coins=None: PolicyTrace(
                (), frozenset({sel}), frozenset({sel}), realization.prices[sel]
            ),
            batch=lambda prices, coins: prices[sel],
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


def price_columns(instance: Instance, seed: int, start: int, count: int, dtype) -> np.ndarray:
    """Prices of trials start..start+count-1 as an (items x trials) array of
    ``dtype``."""
    lanes = [(item.dist.values, item.dist.probs) for item in instance.items]
    return sample_columns(lanes, seed, PRICE_STREAM, start, count, dtype)


def coin_columns(instance: Instance, seed: int, start: int, count: int) -> np.ndarray:
    """Hedge labels of trials start..start+count-1 as an (items x trials)
    bool array: item n is labelled with probability p_hedge."""
    lanes = [((True, False), (ix.p_hedge, 1 - ix.p_hedge)) for ix in instance.indices]
    return sample_columns(lanes, seed, COIN_STREAM, start, count, bool)


def sample_realizations(instance: Instance, seed: int, start: int, count: int):
    """Realizations for trials start..start+count-1 under the seeding contract."""
    dists = [item.dist for item in instance.items]
    return [Realization(row) for row in sample_rows(dists, seed, PRICE_STREAM, start, count)]


def sample_coins(instance: Instance, seed: int, start: int, count: int):
    """Hedge labels for trials start..start+count-1 under the seeding contract."""
    return [HedgeCoins(row) for row in zip(*coin_columns(instance, seed, start, count).tolist())]


def iter_trials(instance: Instance, prepared: PreparedPolicy, seed: int, count: int):
    """Yield (realization, trace) for trials 0..count-1, drawn one chunk at a
    time; coins are drawn only for a policy that draws them."""
    for start, size in trial_chunks(count):
        realizations = sample_realizations(instance, seed, start, size)
        coins = sample_coins(instance, seed, start, size) if prepared.draws_coins else [None] * size
        for realization, c in zip(realizations, coins):
            yield realization, prepared.run(realization, c)


def evaluate_mc(instance: Instance, prepared: PreparedPolicy, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a prepared policy's total cost,
    run through its array form one chunk of trials at a time."""
    dtype = array_dtype(instance)
    totals = []
    for start, size in trial_chunks(trials):
        prices = price_columns(instance, seed, start, size, dtype)
        coins = coin_columns(instance, seed, start, size) if prepared.draws_coins else None
        totals.append(prepared.batch(prices, coins).astype(np.float64))
    return mc_summary(np.concatenate(totals))


def evaluate_policy_mc(
    instance: Instance, policy: str, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a policy's total cost."""
    return evaluate_mc(instance, prepare_policy(instance, policy), trials, seed)

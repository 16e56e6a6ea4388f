"""Executable single-item selection policies and the policy layer shared
with combinatorial selection: engines, prepared policies, traces and the
exact and Monte Carlo evaluators.

All policies are pure functions of (instance, realization, coins); the Monte
Carlo evaluator derives realizations and coins from the counter-based
sampling contract, so estimates do not depend on execution order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, check_budget
from .distkit import (
    DiscreteDist,
    Numeric,
    _is_exact,
    mean,
    min_of_independent,
    min_with_constant_expectation,
)
from .indices import Item, SurrogateKind, compute_indices, surrogate_dist
from .instance import HedgeCoins, Instance, PolicyTrace, Realization, hedged_view
from .sampling import COIN_STREAM, PRICE_STREAM, mc_summary, sample_columns, trial_chunks


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


class IntegerGrid:
    """An instance with every number that Monte Carlo compares or adds (each
    cost, support value, mean, reservation and backup price, plus ``extra``
    numbers such as a model's facility-location distances) multiplied by L,
    so that exact-mode Monte Carlo runs on Python ints.

    ``exact`` (every such number is an int or ``Fraction``) is the package's
    one test of exact mode.  In exact mode L is the lcm of the numbers'
    denominators: a positive scale keeps every comparison, tie and branch,
    the probabilities (so the draws) are unchanged, and a total t leaves the
    grid as ``t / L`` in int true division, which rounds correctly.
    Otherwise L is 1 and the grid is the instance itself.  The scaled
    ``instance`` is built on first use, so reading ``exact`` scales nothing.
    """

    def __init__(self, instance: Instance, extra: Sequence[Numeric] = ()):
        self._instance = instance
        numbers = [
            x
            for item, ix in zip(instance.items, instance.indices)
            for x in (item.cost, *item.dist.values, ix.mu, ix.u_rsv, ix.u_bkp)
        ] + list(extra)
        self.exact = all(map(_is_exact, numbers))
        self.L = math.lcm(*(x.denominator for x in numbers)) if self.exact else 1

    def scale(self, x: Numeric) -> Numeric:
        return x.numerator * (self.L // x.denominator) if self.exact else x

    @cached_property
    def instance(self) -> Instance:
        if not self.exact:
            return self._instance
        s = self.scale
        items = [
            Item(item.id, s(item.cost), DiscreteDist(tuple((s(v), p) for v, p in item.dist.atoms)))
            for item in self._instance.items
        ]
        indices = [replace(ix, mu=s(ix.mu), u_rsv=s(ix.u_rsv), u_bkp=s(ix.u_bkp)) for ix in self._instance.indices]
        return Instance(items, indices)


@dataclass(frozen=True)
class PreparedPolicy:
    """A policy with its trial-independent work done once.

    ``run(realization, coins=None)`` returns one trial's trace on the
    instance's own numbers.  ``batch(grid)`` builds its array form on the
    instance's ``IntegerGrid`` over ``grid_numbers``: a function that maps an
    (items x trials) array of the grid's prices in
    ``array_dtype(grid.instance)`` (and, for a policy that ``draws_coins``, a
    label array of the same shape) to the trials' totals on the grid.  Monte
    Carlo and exact evaluation both run the array form.  Only local hedging
    draws coins: its labels are drawn afresh each trial.
    """

    run: Callable[..., PolicyTrace]
    batch: Callable[[IntegerGrid], Callable]
    draws_coins: bool = False
    grid_numbers: tuple = ()


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
    Python float or an int below 2^53 / (N + 1), which keeps every float64
    the kernels form (at most N costs and one price) exactly Python's;
    otherwise object arrays that run Python's own."""
    numbers = [
        x
        for item, ix in zip(instance.items, instance.indices)
        for x in (item.cost, ix.mu, ix.u_rsv, *item.dist.values)
    ]
    plain = all(type(x) is float or (type(x) is int and abs(x) < 2**53 // (len(instance) + 1)) for x in numbers)
    return np.float64 if plain else object


_FIRST_BLOCK = 4  # slots in the first block; most trials stop after a few inspections


def reservation_batch(instance: Instance, labels: Optional[Sequence[bool]] = None):
    """Array form of ``hedged_trace`` on ``reservation_engine``, with fixed
    ``labels`` or, if None, per-trial labels; Monte Carlo and exact
    evaluation run it on the instance's ``IntegerGrid``.

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
        run = obligatory_run(instance, reservation_engine)
        return PreparedPolicy(run, lambda grid: reservation_batch(grid.instance, (True,) * len(instance)))
    if policy == "local-hedging":
        run = hedged_run(instance, reservation_engine)
        return PreparedPolicy(run, lambda grid: reservation_batch(grid.instance), draws_coins=True)
    if policy == "commit-enum":
        labels = commit_enum_labeling(instance).labels
        keys, costs, _ = hedged_view(instance, labels, instance.reservation_prices)
        fixed = reservation_engine(keys, costs)  # the labels never change: sort once
        return PreparedPolicy(
            lambda realization, coins=None: hedged_trace(instance, lambda *_: fixed, realization, labels),
            lambda grid: reservation_batch(grid.instance, labels),
        )
    ids = tuple(range(len(instance)))
    if policy == "inspect-all":
        inspect_cost = sum(item.cost for item in instance.items)

        def inspect_all(realization, coins=None):
            prices = realization.prices
            sel = min(ids, key=lambda n: (prices[n], n))
            return PolicyTrace(ids, frozenset({sel}), frozenset(), inspect_cost + prices[sel])

        return PreparedPolicy(
            inspect_all, lambda grid: lambda prices, coins: sum(i.cost for i in grid.instance.items) + prices.min(axis=0)
        )
    if policy == "never-inspect":
        sel = min(ids, key=lambda n: (instance.indices[n].mu, n))
        return PreparedPolicy(
            lambda realization, coins=None: PolicyTrace(
                (), frozenset({sel}), frozenset({sel}), realization.prices[sel]
            ),
            lambda grid: lambda prices, coins: prices[sel],
        )
    raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(SINGLE_POLICIES)}")


def weitzman_policy(instance: Instance, realization: Realization) -> PolicyTrace:
    """Obligatory-inspection reservation-price policy."""
    return prepare_policy(instance, "weitzman").run(realization)


def local_hedging_policy(
    instance: Instance, realization: Realization, coins: HedgeCoins
) -> PolicyTrace:
    """Randomized committing policy driven by per-item hedge labels."""
    return hedged_trace(instance, reservation_engine, realization, coins.labels)


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


EXACT_CHUNK = 512  # weighted columns run at once: bounds exact evaluation's memory


def _weighted_columns(instance: Instance, p_hedge: Sequence[Numeric]):
    """Yield (weight, price row, labels) over the label vectors of
    ``p_hedge``: items with hedging probability 0 or 1 have a fixed label,
    the others branch both ways.  A vector's rows run over the supports of
    its labelled items; every other item is priced at its mean, exactly the
    expectation of a price that no trial inspects."""
    dists = [item.dist for item in instance.items]
    mus = [ix.mu for ix in instance.indices]
    varying = [n for n, p in enumerate(p_hedge) if 0 < p < 1]
    for combo in itertools.product((True, False), repeat=len(varying)):
        labels = [p == 1 for p in p_hedge]
        weight = 1
        for n, lab in zip(varying, combo):
            labels[n] = lab
            weight = weight * (p_hedge[n] if lab else 1 - p_hedge[n])
        for prob, row in _price_rows(dists, [n for n, lab in enumerate(labels) if lab], mus, weight):
            yield prob, row, labels


def evaluate_exact(instance: Instance, prepared: PreparedPolicy, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Exact expected total cost of a prepared policy.

    Local hedging enumerates its label vectors, as constant coin columns;
    every other policy labels every item, so it enumerates realizations.
    The policy's array form runs on the instance's ``IntegerGrid``,
    ``EXACT_CHUNK`` columns at a time, and weight x total is summed in
    enumeration order.  An exact value leaves the grid as
    ``Fraction(total, L)``, or as it is when every cost, support value,
    probability and grid number is an int; a float-mode value is a float.
    """
    p_hedge = [ix.p_hedge if prepared.draws_coins else 1 for ix in instance.indices]
    branches = math.prod(len(item.dist) + (p != 1) for item, p in zip(instance.items, p_hedge) if p != 0)
    check_budget(branches, budget, "hedged policy evaluation" if prepared.draws_coins else "policy evaluation")
    grid = IntegerGrid(instance, prepared.grid_numbers)
    batch = prepared.batch(grid)
    dtype = array_dtype(grid.instance)
    number = int if grid.exact else float  # a grid total as a Python number
    columns = _weighted_columns(grid.instance, p_hedge)
    total = 0
    while chunk := list(itertools.islice(columns, EXACT_CHUNK)):
        weights, rows, labels = zip(*chunk)
        coins = np.array(labels, dtype=bool).T if prepared.draws_coins else None
        for w, t in zip(weights, batch(np.array(rows, dtype=dtype).T, coins)):
            total = total + w * number(t)
    numbers = [*prepared.grid_numbers, *(x for i in instance.items for x in (i.cost, *i.dist.values, *i.dist.probs))]
    return Fraction(total, grid.L) if grid.exact and any(type(x) is not int for x in numbers) else total


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


def _column_trials(prices: np.ndarray, coins: Optional[np.ndarray]):
    """(realization, coins or None) per trial column of (items x trials)
    price and label arrays."""
    labels = [None] * prices.shape[1] if coins is None else [HedgeCoins(tuple(c)) for c in coins.T.tolist()]
    return [(Realization(tuple(r)), c) for r, c in zip(prices.T.tolist(), labels)]


def iter_trials(instance: Instance, prepared: PreparedPolicy, seed: int, count: int):
    """Yield (realization, trace) for trials 0..count-1, drawn one chunk at a
    time; coins are drawn only for a policy that draws them."""
    for start, size in trial_chunks(count):
        prices = price_columns(instance, seed, start, size, object)
        coins = coin_columns(instance, seed, start, size) if prepared.draws_coins else None
        for realization, c in _column_trials(prices, coins):
            yield realization, prepared.run(realization, c)


def evaluate_mc(instance: Instance, prepared: PreparedPolicy, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a prepared policy's total cost.

    The trials run one chunk at a time through the policy's array form on the
    instance's ``IntegerGrid``: prices are drawn from the grid's supports,
    and totals leave the grid as floats."""
    grid = IntegerGrid(instance, prepared.grid_numbers)
    batch = prepared.batch(grid)
    dtype = array_dtype(grid.instance)
    totals = []
    for start, size in trial_chunks(trials):
        prices = price_columns(grid.instance, seed, start, size, dtype)
        coins = coin_columns(instance, seed, start, size) if prepared.draws_coins else None
        t = batch(prices, coins)
        totals.append(np.array([int(x) / grid.L for x in t]) if grid.exact else np.asarray(t, dtype=np.float64))
    return mc_summary(np.concatenate(totals))


def evaluate_policy_mc(
    instance: Instance, policy: str, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a policy's total cost."""
    return evaluate_mc(instance, prepare_policy(instance, policy), trials, seed)

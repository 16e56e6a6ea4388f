"""Executable single-item selection policies and the policy layer shared
with combinatorial selection: prepared policies, traces and the exact and
Monte Carlo evaluators.

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
    capped_min_means,
    mean,
    min_with_constant_expectation,
)
from .indices import Item, SurrogateKind, surrogate_dist
from .instance import HedgeCoins, Instance, PolicyTrace, Realization
from .sampling import COIN_STREAM, PRICE_STREAM, mc_summary, sample_columns, trial_chunks


class Action(Enum):
    TAKE_OUTSIDE = "take_outside"
    INSPECT = "inspect"
    SELECT_UNINSPECTED = "select_uninspected"


def one_item_optimal_action(item: Item, r: Numeric) -> Action:
    """Optimal first action against a deterministic outside option r.

    Boundary ties resolve toward the non-inspect action.
    """
    idx = item.indices
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
    """An instance, and optionally its combinatorial ``model``, with every
    number that the evaluators compare or add (each cost, support value,
    mean, reservation and backup price, and facility-location distance)
    multiplied by L, so that exact mode runs on Python ints.

    ``exact`` (each such number, probability and hedging probability is an
    int or ``Fraction``) is the package's one test of exact mode.  Then L is
    the lcm of the numbers' denominators: a positive scale keeps every
    comparison, tie and branch, and the probabilities (so the draws) are
    unchanged.  A Monte Carlo total t leaves as ``t / L`` in int true
    division, which rounds correctly; exact values run on ints over D = L x
    Q_1 x ... x Q_N (Q_n: the lcm of item n's probability denominators) and
    leave by ``leave``.  In float mode the grid passes the instance's own
    numbers through with L = D = Q_n = 1, and it never calls ``scale``.
    """

    def __init__(self, instance: Instance, model=None):
        self._instance, self._model = instance, model
        self._distances = [d for row in model.terminal.distances for d in row] if model else []
        pairs = list(zip(instance.items, instance.indices))
        numbers = [x for item, ix in pairs for x in (item.cost, *item.dist.values, ix.mu, ix.u_rsv, ix.u_bkp)]
        numbers += self._distances
        probs = [x for item, ix in pairs for x in (*item.dist.probs, ix.p_hedge)]
        self.exact = all(map(_is_exact, numbers + probs))
        self.L = math.lcm(*(x.denominator for x in numbers)) if self.exact else 1
        self.Q = tuple(_prob_lcm(item.dist) if self.exact else 1 for item in instance.items)
        self.D = self.L * math.prod(self.Q)
        self.number = int if self.exact else float  # a grid total as a Python number

    def scale(self, x: Numeric) -> Numeric:
        return x.numerator * (self.L // x.denominator) if self.exact else x

    def atoms(self, dist: DiscreteDist) -> tuple[int, tuple]:
        """``dist`` on the grid: the lcm q of its probability denominators and
        its (scaled value, q x probability) pairs, all ints; in float mode 1
        and its own atoms."""
        if not self.exact:
            return 1, dist.atoms
        q = _prob_lcm(dist)
        return q, tuple((self.scale(v), p.numerator * (q // p.denominator)) for v, p in dist.atoms)

    @cached_property
    def item_atoms(self) -> tuple:
        """Each item's price ``atoms``, over its Q_n."""
        return tuple(self.atoms(item.dist)[1] for item in self._instance.items)

    def label_weights(self, p_hedge: Sequence[Numeric]) -> tuple[list, int]:
        """Each item's (labelled, unlabelled) weight under its hedging
        probability p, and the denominator of a sum of grid totals weighted
        by them and by ``item_atoms``: in exact mode the ints (p h, (1 - p) h
        Q_n), h being p's denominator and Q_n the weight a labelled item's
        atoms add, over L x the Q_n h of every item that p may label; in float
        mode (p, 1 - p) over 1."""
        if not self.exact:
            return [(p, 1 - p) for p in p_hedge], 1
        weights = [(p.numerator, (p.denominator - p.numerator) * q) for p, q in zip(p_hedge, self.Q)]
        return weights, self.L * math.prod(q * p.denominator for p, q in zip(p_hedge, self.Q) if p != 0)

    def leave(self, total: Numeric, denominator: int) -> Numeric:
        """The value of ``total`` over ``denominator``: ``Fraction(total,
        denominator)`` in exact mode, or the int total itself when every cost,
        support value, probability and distance is an int; in float mode the
        total itself."""
        if not self.exact:
            return total
        items = self._instance.items
        given = [*self._distances, *(x for item in items for x in (item.cost, *item.dist.values, *item.dist.probs))]
        return total if all(type(x) is int for x in given) else Fraction(total, denominator)

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

    @cached_property
    def model(self):
        """The model with its facility-location distances on the grid."""
        if not self.exact or not self._distances:
            return self._model
        terminal = self._model.terminal
        distances = tuple(tuple(map(self.scale, row)) for row in terminal.distances)
        return replace(self._model, terminal=replace(terminal, distances=distances))


def _prob_lcm(dist: DiscreteDist) -> int:
    return math.lcm(*(p.denominator for p in dist.probs))


@dataclass(frozen=True)
class PreparedPolicy:
    """A policy with its trial-independent work done once.

    ``traces(prices, coins)`` maps an (items x trials) object array of the
    instance's own prices (and, for a policy that ``draws_coins``, a label
    array of the same shape) to the trials' traces; ``run(realization,
    coins)`` is its one-trial form.  ``batch(grid)`` builds the array form on
    the ``IntegerGrid`` of the instance and ``model`` (the combinatorial
    model of a combinatorial policy, else None): a function that maps
    an (items x trials) array of the grid's prices in
    ``array_dtype(grid.instance)`` (and the labels) to the trials' totals on
    the grid.  Monte Carlo and exact evaluation run the array form; ``--trace``,
    ``pi_surrogate_bound`` and the argmin check run the traces.  Only local
    hedging draws coins: its labels are drawn afresh each trial.
    """

    traces: Callable[[np.ndarray, Optional[np.ndarray]], list]
    batch: Callable[[IntegerGrid], Callable]
    draws_coins: bool = False
    model: object = None

    def run(self, realization: Realization, coins: Optional[HedgeCoins] = None) -> PolicyTrace:
        if self.draws_coins and coins is None:
            raise ValueError("local-hedging needs hedge coins")
        labels = np.array([coins.labels], dtype=bool).T if self.draws_coins else None
        return self.traces(np.array([realization.prices], dtype=object).T, labels)[0]


def _column_traces(trace: Callable[..., PolicyTrace]):
    """Column traces of a one-trial ``trace(prices, labels)``; labels are
    None for a policy that draws no coins."""

    def traces(prices, coins):
        labels = [None] * prices.shape[1] if coins is None else [tuple(c) for c in coins.T.tolist()]
        return [trace(row, lab) for row, lab in zip(prices.T.tolist(), labels)]

    return traces


def array_dtype(instance: Instance):
    """``plain_dtype`` of every cost, support value and index of the
    instance."""
    numbers = [
        x
        for item, ix in zip(instance.items, instance.indices)
        for x in (item.cost, ix.mu, ix.u_rsv, *item.dist.values)
    ]
    return plain_dtype(numbers, len(instance))


def plain_dtype(numbers: Sequence[Numeric], n_items: int):
    """float64 when every number is a Python float or an int below 2^53 /
    (N + 1), which keeps every float64 the kernels form (at most N costs and
    one price) exactly Python's; otherwise object arrays that run Python's
    own."""
    plain = all(type(x) is float or (type(x) is int and abs(x) < 2**53 // (n_items + 1)) for x in numbers)
    return np.float64 if plain else object


_FIRST_BLOCK = 4  # slots in the first block; most trials stop after a few inspections


def _slots(instance: Instance, labels: Optional[Sequence[bool]]):
    """The sorted (key, id, labelled) slots of ``reservation_batch``."""
    slots = [
        (ix.u_rsv if lab else ix.mu, n, lab)
        for n, ix in enumerate(instance.indices)
        for lab in (True, False)
        if labels is None or labels[n] == lab
    ]
    return sorted(slots, key=lambda s: (s[0], s[1]))


def reservation_batch(instance: Instance, labels: Optional[Sequence[bool]] = None):
    """Weitzman's search as an array form, the package's one single-item
    search: Weitzman, commit-enum and local hedging run it with all-true,
    fixed or (if None) per-trial ``labels``.  The returned ``search(prices,
    coins)`` takes (items x trials) price and label arrays and returns each
    trial's inspection costs, the realized price of the item it selects (the
    two add up to its total) and its stop: how many sorted slots it walked.
    Monte Carlo and exact evaluation run it on the instance's
    ``IntegerGrid``, traces on object arrays of the instance's own numbers;
    the slot arrays take the prices' dtype and are built once per dtype.

    Item n has two slots: labelled (key u_rsv, its cost and realized price)
    and unlabelled (key and view price mu, cost 0).  The slots are sorted
    once by (key, id), so the slots active in a trial come in the order of
    that trial's own stable sort.  A trial stops at its first active slot
    whose key is at least the lowest view price inspected so far.  The
    search walks the slots in blocks that double in size and keeps only the
    trials still searching.  A trial adds its inspection costs in inspection
    order (a slot it skips adds an exact zero), then the realized price of
    the item with the lowest inspected view price.

    Which of several tied items holds that lowest view price never changes a
    total: an unlabelled item's view price is its key, so it is inspected
    only below every earlier view price, and tied labelled items have equal
    realized prices.
    """
    slots = _slots(instance, labels)
    ids = np.array([s[1] for s in slots], dtype=np.intp)[:, None]
    lab = np.array([s[2] for s in slots])[:, None]
    typed = {}  # keys, costs, means and zero per price dtype

    def slot_arrays(dtype):
        if dtype not in typed:
            zero = 0 if dtype == object else 0.0
            keys = np.array([s[0] for s in slots], dtype=dtype)[:, None]
            costs = np.array([instance.items[n].cost if b else zero for _, n, b in slots], dtype=dtype)[:, None]
            mus = np.array([instance.indices[n].mu for _, n, _ in slots], dtype=dtype)[:, None]
            typed[dtype] = keys, costs, mus, zero
        return typed[dtype]

    def search(prices, coins):
        keys, costs, mus, zero = slot_arrays(prices.dtype)
        trials = prices.shape[1]
        best = np.full(trials, np.inf, dtype=prices.dtype)  # lowest view price inspected
        chosen = np.full(trials, zero, dtype=prices.dtype)  # realized price of its item
        spent = np.full(trials, zero, dtype=prices.dtype)
        stops = np.full(trials, len(slots))
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
            stops[rows[stopped]] = s0 + first[stopped]
            rows = rows[~stopped]
            s0, width = s0 + width, 2 * width
        return spent, chosen, stops

    return search


def _reservation_policy(instance: Instance, labels: Optional[Sequence[bool]], keep_labels: bool = True):
    """``reservation_batch`` as a prepared policy.  A trace inspects the
    active slots before its trial's stop, charges the labelled ones' costs
    in slot order (the search's sum), and selects the lowest inspected view
    price, ties to the lowest id; its total is those costs plus the selected
    realized price.  ``keep_labels`` records the labels in the trace."""

    def traces(prices, coins):
        slots, mus = _slots(instance, labels), [ix.mu for ix in instance.indices]
        spent, _, stops = reservation_batch(instance, labels)(prices, coins)
        labelings = [labels] * prices.shape[1] if coins is None else [tuple(c) for c in coins.T.tolist()]
        out = []
        for row, labs, cost, stop in zip(prices.T.tolist(), labelings, spent.tolist(), stops.tolist()):
            walked = [(n, lab) for _, n, lab in slots[:stop] if labs[n] == lab]
            order = tuple(n for n, lab in walked if lab)
            sel = min(walked, key=lambda s: (row[s[0]] if s[1] else mus[s[0]], s[0]))[0]
            uninspected = frozenset() if labs[sel] else frozenset({sel})
            out.append(PolicyTrace(order, frozenset({sel}), uninspected, cost + row[sel], labs if keep_labels else None))
        return out

    def batch(grid):
        on_grid = reservation_batch(grid.instance, labels)

        def totals(prices, coins):
            spent, chosen, _ = on_grid(prices, coins)
            return spent + chosen

        return totals

    return PreparedPolicy(traces, batch, draws_coins=labels is None)


def commit_enum_labeling(instance: Instance) -> HedgeCoins:
    """Best committing labeling among all-obligatory and the N single
    non-inspection choices, by exact expected cost; ties prefer all-obligatory
    then the lowest non-inspection id.

    Skipping item n's inspection makes it a point mass at its mean, so the
    N + 1 values are the obligatory surrogates' expected minimum and the same
    minimum with item n capped at its mean.  ``capped_min_means`` computes
    them in one pass: N array ops over an (N+1) x G product matrix (G the
    merged grid), each value bit-identical to the mean of its own
    ``min_of_independent``, so the labeling is too.
    """
    values = capped_min_means(
        [surrogate_dist(item, SurrogateKind.OI) for item in instance.items],
        [idx.mu for idx in instance.indices],
    )
    best = min(range(len(values)), key=values.__getitem__)
    return HedgeCoins(tuple(n + 1 != best for n in range(len(instance))))


SINGLE_POLICIES = ("weitzman", "local-hedging", "commit-enum", "inspect-all", "never-inspect")


def prepare_policy(instance: Instance, policy: str) -> PreparedPolicy:
    """Prepare a single-item policy by name: ``weitzman`` (obligatory
    inspection), ``local-hedging``, ``commit-enum`` (the best committing
    labeling, fixed for every trial), and the diagnostics ``inspect-all``
    (inspect everything, select the cheapest) and ``never-inspect`` (select
    the lowest mean uninspected)."""
    if policy == "weitzman":
        return _reservation_policy(instance, (True,) * len(instance), keep_labels=False)
    if policy == "local-hedging":
        return _reservation_policy(instance, None)
    if policy == "commit-enum":
        return _reservation_policy(instance, commit_enum_labeling(instance).labels)
    ids = tuple(range(len(instance)))
    if policy == "inspect-all":
        inspect_cost = sum(item.cost for item in instance.items)

        def inspect_all(prices, labels):
            sel = min(ids, key=lambda n: (prices[n], n))
            return PolicyTrace(ids, frozenset({sel}), frozenset(), inspect_cost + prices[sel])

        return PreparedPolicy(
            _column_traces(inspect_all),
            lambda grid: lambda prices, coins: sum(i.cost for i in grid.instance.items) + prices.min(axis=0),
        )
    if policy == "never-inspect":
        sel = min(ids, key=lambda n: (instance.indices[n].mu, n))
        return PreparedPolicy(
            _column_traces(lambda prices, labels: PolicyTrace((), frozenset({sel}), frozenset({sel}), prices[sel])),
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
    return prepare_policy(instance, "local-hedging").run(realization, coins)


def _price_rows(
    atoms: Sequence[Sequence[tuple]], ids: Sequence[int], base: Sequence[Numeric], weight: Numeric = 1
):
    """Yield (weight, price row) over the product of ``atoms[n]`` for n in
    ``ids``, multiplying ``weight`` by each atom's weight in turn; every
    other entry of the row keeps its ``base`` value.  The package's one
    weight generator: in exact mode the weights are int numerators
    (``IntegerGrid.atoms``), in float mode the atoms' own probabilities."""
    for combo in itertools.product(*(atoms[n] for n in ids)):
        prob = weight
        row = list(base)
        for n, (v, p) in zip(ids, combo):
            row[n] = v
            prob = prob * p
        yield prob, row


EXACT_CHUNK = 512  # weighted columns run at once: bounds exact evaluation's memory


def _weighted_columns(grid: IntegerGrid, p_hedge: Sequence[Numeric]):
    """Yield (weight, price row, labels) on ``grid`` over the label vectors of
    ``p_hedge``: items with hedging probability 0 or 1 have a fixed label,
    the others branch both ways.  A vector's rows run over the supports of
    its labelled items; every other item is priced at its mean, exactly the
    expectation of a price that no trial inspects.  A weight multiplies the
    branching items' ``IntegerGrid.label_weights`` and the labelled items'
    ``item_atoms`` weights: int numerators over the labels' denominator in
    exact mode, the probabilities themselves in float mode."""
    mus = [ix.mu for ix in grid.instance.indices]
    shares, _ = grid.label_weights(p_hedge)
    varying = [n for n, p in enumerate(p_hedge) if 0 < p < 1]
    for combo in itertools.product((True, False), repeat=len(varying)):
        labels = [p == 1 for p in p_hedge]
        weight = 1
        for n, lab in zip(varying, combo):
            labels[n] = lab
            weight = weight * shares[n][0 if lab else 1]
        for prob, row in _price_rows(grid.item_atoms, [n for n, lab in enumerate(labels) if lab], mus, weight):
            yield prob, row, labels


def evaluate_exact(instance: Instance, prepared: PreparedPolicy, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Exact expected total cost of a prepared policy.

    Local hedging enumerates its label vectors, as constant coin columns;
    every other policy labels every item, so it enumerates realizations.
    The policy's array form runs on the ``IntegerGrid`` of the instance and
    its model, ``EXACT_CHUNK`` columns at a time; weight x total is summed in
    enumeration order (ints in exact mode, the probabilities times floats in
    float mode) and leaves by ``IntegerGrid.leave``.
    """
    p_hedge = [ix.p_hedge if prepared.draws_coins else 1 for ix in instance.indices]
    branches = math.prod(len(item.dist) + (p != 1) for item, p in zip(instance.items, p_hedge) if p != 0)
    check_budget(branches, budget, "hedged policy evaluation" if prepared.draws_coins else "policy evaluation")
    grid = IntegerGrid(instance, prepared.model)
    batch = prepared.batch(grid)
    dtype = array_dtype(grid.instance)
    columns = _weighted_columns(grid, p_hedge)
    total = 0
    while chunk := list(itertools.islice(columns, EXACT_CHUNK)):
        weights, rows, labels = zip(*chunk)
        coins = np.array(labels, dtype=bool).T if prepared.draws_coins else None
        for w, t in zip(weights, batch(np.array(rows, dtype=dtype).T, coins)):
            total = total + w * grid.number(t)
    return grid.leave(total, grid.label_weights(p_hedge)[1])


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


def iter_trials(instance: Instance, prepared: PreparedPolicy, seed: int, count: int):
    """Yield (realization, trace) for trials 0..count-1: the prepared
    policy's traces, one chunk of drawn columns at a time; coins are drawn
    only for a policy that draws them."""
    for start, size in trial_chunks(count):
        prices = price_columns(instance, seed, start, size, object)
        coins = coin_columns(instance, seed, start, size) if prepared.draws_coins else None
        realizations = (Realization(tuple(row)) for row in prices.T.tolist())
        yield from zip(realizations, prepared.traces(prices, coins))


def evaluate_mc(instance: Instance, prepared: PreparedPolicy, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a prepared policy's total cost.

    The trials run one chunk at a time through the policy's array form on the
    instance's ``IntegerGrid``: prices are drawn from the grid's supports,
    and totals leave the grid as floats."""
    grid = IntegerGrid(instance, prepared.model)
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

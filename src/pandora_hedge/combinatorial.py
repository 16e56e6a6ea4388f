"""Combinatorial selection: constraint families, surrogate costs, and the
frugal composition of greedy rules with adaptive inspection.

A combinatorial model is an upward-closed family of feasible item sets plus a
nonnegative terminal cost.  The one-shot surrogate cost minimizes the sum of
surrogate prices plus the terminal cost over feasible sets; the frugal policy
reconstructs that optimization adaptively, inspecting items lazily while
their tentative prices sit at the reservation price.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Sequence, Union

import numpy as np

from .budget import DEFAULT_BUDGET, check_budget
from .distkit import Numeric
from .indices import SurrogateKind, surrogate_dist
from .instance import HedgeCoins, Instance, PolicyTrace, Realization, hedged_view
from .policies import (
    IntegerGrid,
    PreparedPolicy,
    _column_traces,
    _price_rows,
    _slots,
    evaluate_exact,
    evaluate_mc,
    plain_dtype,
)
from .sampling import SURROGATE_STREAM, mc_summary, sample_columns, trial_chunks


class RuleError(RuntimeError):
    """A greedy rule violated its contract (e.g. proposed a selected item)."""


def _spanning_forest(edges, vertices, ids):
    """Union-find over ``vertices``: walk the edge ids in order and keep each
    edge that joins two components.  Returns (kept ids, find)."""
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for n in ids:
        a, b = (find(v) for v in edges[n])
        if a != b:
            parent[a] = b
            kept.append(n)
    return kept, find


@dataclass(frozen=True)
class ExplicitFamily:
    sets: tuple[frozenset[int], ...]

    @cached_property
    def members(self) -> frozenset[frozenset[int]]:
        return frozenset(self.sets)

    def validate(self, n_items: int) -> None:
        if not self.sets:
            raise ValueError("feasible family is empty")
        universe = frozenset(range(n_items))
        members = self.members
        for s in self.sets:
            if not s or not s <= universe:
                raise ValueError(f"feasible set {sorted(s)} is empty or out of range")
            for j in universe - s:
                if s | {j} not in members:
                    raise ValueError(
                        f"family is not upward closed: {sorted(s)} is feasible "
                        f"but {sorted(s | {j})} is not"
                    )

    def is_feasible(self, selected: frozenset[int], n_items: int) -> bool:
        return selected in self.members


@dataclass(frozen=True)
class UniformMatroid:
    k: int

    def validate(self, n_items: int) -> None:
        if not 1 <= self.k <= n_items:
            raise ValueError(f"uniform matroid rank {self.k} out of range for {n_items} items")

    def is_feasible(self, selected: frozenset[int], n_items: int) -> bool:
        return len(selected) >= self.k


@dataclass(frozen=True)
class GraphicMatroid:
    """Items sit on the edges of a graph; feasible sets span all vertices."""

    edges: tuple[tuple[int, int], ...]

    def validate(self, n_items: int) -> None:
        if len(self.edges) != n_items:
            raise ValueError("one edge per item required")
        if len(self.vertices) < 2:
            raise ValueError("graph needs at least two vertices")
        if not self.is_feasible(frozenset(range(n_items)), n_items):
            raise ValueError("graph is not connected; no spanning set exists")

    @cached_property
    def vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.edges for v in e)

    def is_feasible(self, selected: frozenset[int], n_items: int) -> bool:
        kept, _ = _spanning_forest(self.edges, self.vertices, selected)
        return len(kept) == len(self.vertices) - 1


Family = Union[ExplicitFamily, UniformMatroid, GraphicMatroid]


@dataclass(frozen=True)
class ZeroTerminal:
    distances = ()  # no item location pays a connection cost

    def cost(self, selected: frozenset[int]) -> Numeric:
        return 0

    def validate(self, n_items: int) -> None:
        pass


@dataclass(frozen=True)
class FacilityLocationTerminal:
    """Connection costs: each item location pays its distance to the nearest
    selected location."""

    distances: tuple[tuple[Numeric, ...], ...]

    def validate(self, n_items: int) -> None:
        if len(self.distances) != n_items or any(len(row) != n_items for row in self.distances):
            raise ValueError("distance matrix must be square over the item ids")
        if any(d < 0 for row in self.distances for d in row):
            raise ValueError("distances must be nonnegative")

    def cost(self, selected: frozenset[int]) -> Numeric:
        return sum(min(self.distances[n][s] for s in selected) for n in range(len(self.distances)))


Terminal = Union[ZeroTerminal, FacilityLocationTerminal]


@dataclass(frozen=True)
class CombModel:
    family: Family
    terminal: Terminal
    n_items: int

    def __post_init__(self):
        self.family.validate(self.n_items)
        self.terminal.validate(self.n_items)

    def is_feasible(self, selected: frozenset[int]) -> bool:
        return self.family.is_feasible(selected, self.n_items)

    def terminal_cost(self, selected: frozenset[int]) -> Numeric:
        return self.terminal.cost(selected)


def _running_sum(values) -> Numeric:
    """``values`` added left to right from 0, the order in which the array
    kernel adds them in float64 (``sum`` compensates float rounding from
    Python 3.12 on, so it could differ in the last bits)."""
    total = 0
    for v in values:
        total = total + v
    return total


def surrogate_cost(model: CombModel, prices: Sequence[Numeric]) -> tuple[Numeric, frozenset[int]]:
    """One-shot optimum: minimize price sum plus terminal cost over feasible
    sets.  Ties resolve to the lexicographically smallest sorted id tuple.
    """
    if any(p < 0 for p in prices):
        raise ValueError("surrogate prices must be nonnegative")
    family = model.family
    if isinstance(family, UniformMatroid) and isinstance(model.terminal, ZeroTerminal):
        chosen = sorted(range(model.n_items), key=lambda n: (prices[n], n))[: family.k]
        return _running_sum(prices[n] for n in chosen), frozenset(chosen)
    if isinstance(family, GraphicMatroid) and isinstance(model.terminal, ZeroTerminal):
        by_price = sorted(range(model.n_items), key=lambda n: (prices[n], n))
        tree, _ = _spanning_forest(family.edges, family.vertices, by_price)
        return _running_sum(prices[n] for n in tree), frozenset(tree)
    # generic desk-scale path: enumerate subsets
    if model.n_items > 22:
        raise ValueError("explicit subset enumeration is limited to 22 items")
    best = None
    best_key = None
    best_set = None
    for size in range(model.n_items + 1):
        for combo in itertools.combinations(range(model.n_items), size):
            s = frozenset(combo)
            if not model.is_feasible(s):
                continue
            value = sum(prices[n] for n in s) + model.terminal_cost(s)
            key = tuple(sorted(s))
            if best is None or value < best or (value == best and key < best_key):
                best, best_key, best_set = value, key, s
    if best is None:
        raise ValueError("model has no feasible set")
    return best, best_set


def _surrogate_dists(instance: Instance, kind: SurrogateKind):
    return [surrogate_dist(item, kind) for item in instance.items]


def expected_surrogate_cost(
    model: CombModel,
    instance: Instance,
    kind: SurrogateKind,
    budget: int = DEFAULT_BUDGET,
) -> Numeric:
    """E[Z] for the chosen surrogate kind, by product enumeration of the
    surrogate distributions' ``IntegerGrid.atoms`` (in exact mode int weights
    over the lcm of each one's probability denominators) against the grid's
    model; the sum leaves by ``IntegerGrid.leave``."""
    dists = _surrogate_dists(instance, kind)
    size = math.prod(len(d) for d in dists)
    check_budget(size, budget, "surrogate cost enumeration")
    grid = IntegerGrid(instance, model)
    qs, atoms = zip(*map(grid.atoms, dists))
    total = 0
    for prob, prices in _price_rows(atoms, range(len(dists)), [None] * len(dists)):
        total = total + prob * surrogate_cost(grid.model, prices)[0]
    return grid.leave(total, grid.L * math.prod(qs))


def expected_surrogate_cost_mc(
    model: CombModel,
    instance: Instance,
    kind: SurrogateKind,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[Z] with standard error, drawn one chunk of
    trials at a time and run on the instance's ``IntegerGrid``.

    For a uniform or graphic matroid with a zero terminal each chunk runs
    ``_greedy_select`` with every item pooled at its surrogate price: Kruskal
    in (price, id) order, summed in selection order, which is
    ``surrogate_cost`` exactly.  Any other model runs ``surrogate_cost`` once
    per trial."""
    grid = IntegerGrid(instance, model)
    lanes = [(tuple(map(grid.scale, d.values)), d.probs) for d in _surrogate_dists(instance, kind)]
    if type(model.family) not in _KERNEL_FAMILIES.values() or type(model.terminal) is not ZeroTerminal:
        return mc_summary(
            surrogate_cost(grid.model, row)[0] / grid.L
            for start, size in trial_chunks(trials)
            for row in zip(*sample_columns(lanes, seed, SURROGATE_STREAM, start, size).tolist())
        )
    dtype = _kernel_dtype(grid, plain_dtype([v for values, _ in lanes for v in values], len(lanes)))

    def totals(start, size):
        prices = sample_columns(lanes, seed, SURROGATE_STREAM, start, size, dtype)
        spent = np.zeros(size, dtype=dtype)
        pool = prices.copy() if dtype == object else prices.astype(np.float64)

        def take(ns, rows):
            spent[rows] += prices[ns, rows]

        _greedy_select(_Bases(model.family, size), pool, None, take)
        return spent.tolist()

    return mc_summary(t / grid.L for start, size in trial_chunks(trials) for t in totals(start, size))


class GreedyRule:
    """Plugin interface for the frugal composition.

    ``frugal_trace`` asks the rule for each step: given tentative prices, the
    currently selected and inspected sets, and the model, propose the next
    item id or return None to declare completion.  Proposals must keep the
    selected set extensible to a feasible set.

    Traces pass the instance's own prices.  Monte Carlo and exact evaluation
    may pass tentative prices (and a model whose terminal costs are) scaled
    by a positive constant (see ``IntegerGrid``), so a rule may only compare
    and add them; a rule that uses their size otherwise can give Monte Carlo
    results and exact values that differ from its traces.

    Monte Carlo and exact evaluation of the shipped rules (exactly
    ``UniformMatroidRule`` or ``GraphicMatroidRule`` on its own family) run
    the array kernel of ``frugal_batch`` and call no ``propose``; a plugin or
    a subclass runs ``frugal_trace`` one trial at a time.
    """

    def propose(
        self,
        tau: Sequence[Numeric],
        selected: frozenset[int],
        inspected: frozenset[int],
        model: CombModel,
    ) -> Optional[int]:
        raise NotImplementedError


def _proposal_key(tau, inspected, n):
    # ascending tentative price; at ties prefer already-inspected items (their
    # price is final, so selecting them never wastes an inspection), then the
    # lowest id
    return (tau[n], 0 if n in inspected else 1, n)


class UniformMatroidRule(GreedyRule):
    def propose(self, tau, selected, inspected, model):
        k = model.family.k
        if len(selected) >= k:
            return None
        candidates = [n for n in range(model.n_items) if n not in selected]
        return min(candidates, key=lambda n: _proposal_key(tau, inspected, n))


class GraphicMatroidRule(GreedyRule):
    def propose(self, tau, selected, inspected, model):
        family = model.family
        kept, find = _spanning_forest(family.edges, family.vertices, selected)
        if len(kept) == len(family.vertices) - 1:
            return None
        candidates = [
            n
            for n in range(model.n_items)
            if n not in selected and find(family.edges[n][0]) != find(family.edges[n][1])
        ]
        if not candidates:
            raise RuleError("no edge can extend the selected forest")
        return min(candidates, key=lambda n: _proposal_key(tau, inspected, n))


_KERNEL_FAMILIES = {UniformMatroidRule: UniformMatroid, GraphicMatroidRule: GraphicMatroid}


def rule_for_model(model: CombModel) -> GreedyRule:
    if isinstance(model.family, UniformMatroid):
        return UniformMatroidRule()
    if isinstance(model.family, GraphicMatroid):
        return GraphicMatroidRule()
    raise ValueError(
        "no shipped greedy rule for this family; supply a GreedyRule plugin"
    )


def frugal_trace(
    model: CombModel, rule: GreedyRule, instance: Instance, prices: Sequence[Numeric], labels=None
) -> PolicyTrace:
    """One trial of the frugal composition of ``rule``: tentative prices
    start at the keys; a proposed uninspected item is inspected (its
    tentative price becomes its view price, floored at its key), a proposed
    inspected item is selected.  With ``labels`` None (frugal-oi) every item
    keeps its reservation price, cost and realized price, and the trial is
    charged its running total in event order, then the terminal cost.  With
    labels (local hedging) it runs on the ``hedged_view`` and is charged the
    labelled costs in inspection order, the selected realized prices, then
    the terminal cost.  Costs and prices add left to right, as the array
    kernel adds them."""
    if labels is None:
        keys, costs, seen = instance.reservation_prices, [item.cost for item in instance.items], prices
    else:
        keys, costs, seen = hedged_view(instance, labels, prices)
    tau = list(keys)
    inspected: set[int] = set()
    selected: set[int] = set()
    order: list[int] = []
    total = 0
    for _ in range(2 * len(keys) + 1):
        prop = rule.propose(tau, frozenset(selected), frozenset(inspected), model)
        if prop is None:
            break
        if prop in selected:
            raise RuleError(f"rule proposed already-selected item {prop}")
        if prop not in inspected:
            inspected.add(prop)
            order.append(prop)
            total = total + costs[prop]
            v = seen[prop]
            tau[prop] = v if v > keys[prop] else keys[prop]
        else:
            selected.add(prop)
            total = total + seen[prop]
    else:
        raise RuleError("rule failed to terminate")
    if not model.is_feasible(frozenset(selected)):
        raise RuleError("rule declared completion with an infeasible set")
    terminal = model.terminal_cost(frozenset(selected))
    if labels is None:
        return PolicyTrace(tuple(order), frozenset(selected), frozenset(), total + terminal)
    order = tuple(n for n in order if labels[n])
    total = _running_sum(instance.items[n].cost for n in order) + _running_sum(prices[n] for n in selected) + terminal
    return PolicyTrace(order, frozenset(selected), frozenset(n for n in selected if not labels[n]), total, labels)


COMB_POLICIES = ("frugal-oi", "local-hedging")


class _Bases:
    """The greedy state of each trial in a chunk, for a shipped matroid: how
    many items it selected (``count``) and which, in selection order
    (``picked``, rank x trials); for a graphic matroid also each vertex's
    component label (``labels``, trials x vertices)."""

    def __init__(self, family: Union[UniformMatroid, GraphicMatroid], trials: int):
        self.ends = None
        if type(family) is GraphicMatroid:
            index = {v: i for i, v in enumerate(sorted(family.vertices))}
            self.ends = np.array([[index[a] for a, _ in family.edges], [index[b] for _, b in family.edges]])
            self.labels = np.tile(np.arange(len(index)), (trials, 1))
            self.rank = len(index) - 1
        else:
            self.rank = family.k
        self.count = np.zeros(trials, dtype=np.intp)
        self.picked = np.zeros((self.rank, trials), dtype=np.intp)

    def open(self) -> np.ndarray:
        """Trials whose basis is not complete."""
        return self.count < self.rank

    def joins(self, ns, rows) -> np.ndarray:
        """Whether item ``ns[i]`` (or the one item ``ns``) extends trial
        ``rows[i]``'s selection: always for a uniform matroid, when its edge
        joins two components for a graphic one."""
        if self.ends is None:
            return np.ones(len(rows), dtype=bool)
        a, b = self.ends[:, ns]
        return self.labels[rows, a] != self.labels[rows, b]

    def add(self, ns, rows) -> None:
        """Select item ``ns[i]`` in trial ``rows[i]`` (distinct trials)."""
        self.picked[self.count[rows], rows] = ns
        self.count[rows] += 1
        if self.ends is not None:
            a, b = self.ends[:, ns]
            old, new = self.labels[rows, b][:, None], self.labels[rows, a][:, None]
            sub = self.labels[rows]
            self.labels[rows] = np.where(sub == old, new, sub)


def _greedy_select(bases: _Bases, pool: np.ndarray, threshold, take) -> None:
    """The greedy selection step over a chunk of trials: while a trial's
    basis is open, take its pooled entry of lowest (tentative price, id) if
    that price is at most ``threshold`` (None: any).  ``pool`` is an (items x
    trials) array of tentative prices, inf where an item is not pooled; a
    taken entry leaves it, and is selected unless it no longer extends the
    basis (a graphic edge that closes a cycle never will).  ``take(ns,
    rows)`` charges the selections, at most one per trial per round."""
    cols = np.arange(pool.shape[1])
    while True:
        at = pool.argmin(axis=0)
        low = pool[at, cols]
        due = (low < np.inf) & bases.open()
        if threshold is not None:
            due &= low <= threshold
        if not due.any():
            return
        ns, rows = at[due], cols[due]
        pool[ns, rows] = np.inf
        fit = bases.joins(ns, rows)
        ns, rows = ns[fit], rows[fit]
        bases.add(ns, rows)
        take(ns, rows)


def _kernel_dtype(grid: IntegerGrid, dtype):
    """The kernel's price dtype: exact small ints (drawn as float64 by
    ``array_dtype``) run as int64, so that totals leave as Python ints."""
    return np.int64 if grid.exact and dtype != object else dtype


def _frugal_kernel(grid: IntegerGrid):
    """Array form of the frugal composition of a shipped matroid rule on
    ``grid``, bit for bit ``frugal_trace``'s totals.

    The rule proposes the lowest (tentative price, inspected first, id) item
    that extends the selection, and an uninspected item's tentative price is
    its key.  So the kernel walks the sorted (key, id, labelled) slots of
    ``reservation_batch`` (frugal-oi: every slot labelled; local hedging:
    the slots its coins make active).  Before each slot it selects, by
    ``_greedy_select``, every pooled (inspected) item whose tentative price
    is at most the slot's key; then it inspects the slot where it is active
    and still extends the selection, pooling the item at max(view price,
    key).  After the last slot it selects with no threshold.

    Frugal-oi adds its costs and prices in event order; local hedging adds
    its labelled costs in inspection order, then the realized prices of the
    selected set (added in the order of the set that ``frugal_trace`` builds),
    then the terminal cost of the selected set, unless it is a
    ``ZeroTerminal``.  Exact-mode totals are Python ints."""
    instance, model = grid.instance, grid.model
    costs = [item.cost for item in instance.items]

    def batch(prices, coins):
        hedged = coins is not None
        slots = _slots(instance, None if hedged else (True,) * len(instance))
        trials = prices.shape[1]
        cols = np.arange(trials)
        bases = _Bases(model.family, trials)
        pool = np.full(prices.shape, np.inf, dtype=object if prices.dtype == object else np.float64)
        spent = np.zeros(trials, dtype=prices.dtype)

        def take(ns, rows):
            if not hedged:
                spent[rows] += prices[ns, rows]

        for key, n, lab in slots:
            _greedy_select(bases, pool, key, take)
            go = bases.open() & bases.joins(n, cols)
            if hedged:
                go &= coins[n] == lab
            if lab:
                spent[go] += costs[n]
                seen = prices[n, go]
                pool[n, go] = np.where(seen > key, seen, key)
            else:  # view price and key are the mean
                pool[n, go] = key
        _greedy_select(bases, pool, None, take)
        totals = spent.tolist()
        if hedged or type(model.terminal) is not ZeroTerminal:
            rows = prices.T.tolist()
            for t, picked in enumerate(bases.picked.T.tolist()):
                selected = set(picked)
                if hedged:
                    totals[t] = totals[t] + _running_sum(rows[t][n] for n in selected)
                if type(model.terminal) is not ZeroTerminal:
                    totals[t] = totals[t] + model.terminal_cost(frozenset(selected))
        return totals

    return batch


def frugal_batch(rule: GreedyRule, grid: IntegerGrid):
    """Array form of a frugal policy on ``grid``: for a shipped rule on its
    own family (``type(rule)`` exactly ``UniformMatroidRule`` or
    ``GraphicMatroidRule``) the array kernel ``_frugal_kernel``; for a plugin
    or a subclass, ``frugal_trace`` on the grid's model once per trial column,
    with the column's labels if it draws coins."""
    if _KERNEL_FAMILIES.get(type(rule)) is type(grid.model.family):
        run = _frugal_kernel(grid)
    else:
        traces = _column_traces(partial(frugal_trace, grid.model, rule, grid.instance))

        def run(prices, coins):
            return [trace.total_cost for trace in traces(prices, coins)]

    def batch(prices, coins):
        return run(prices.astype(_kernel_dtype(grid, prices.dtype), copy=False), coins)

    return batch


def prepare_comb_policy(
    model: CombModel, instance: Instance, policy: str, rule: Optional[GreedyRule] = None
) -> PreparedPolicy:
    """Prepare a combinatorial policy by name: ``frugal-oi`` (the frugal
    composition with obligatory inspection, charged its own total) or
    ``local-hedging`` (two stages: commit labels, then run the frugal
    composition on the induced obligatory-inspection view).  Monte Carlo and
    exact evaluation run either on the ``IntegerGrid``."""
    if policy not in COMB_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(COMB_POLICIES)}")
    rule = rule_for_model(model) if rule is None else rule
    traces = _column_traces(partial(frugal_trace, model, rule, instance))
    return PreparedPolicy(traces, partial(frugal_batch, rule), policy == "local-hedging", model)


def frugal_oi_policy(
    model: CombModel,
    instance: Instance,
    realization: Realization,
    rule: Optional[GreedyRule] = None,
) -> PolicyTrace:
    """Adaptive obligatory-inspection composition."""
    return prepare_comb_policy(model, instance, "frugal-oi", rule).run(realization)


def combinatorial_lh_policy(
    model: CombModel,
    instance: Instance,
    realization: Realization,
    coins: HedgeCoins,
    rule: Optional[GreedyRule] = None,
) -> PolicyTrace:
    """Two-stage hedged policy on the frugal composition."""
    return prepare_comb_policy(model, instance, "local-hedging", rule).run(realization, coins)


def evaluate_comb_policy_exact(
    model: CombModel,
    instance: Instance,
    policy: str,
    rule: Optional[GreedyRule] = None,
    budget: int = DEFAULT_BUDGET,
) -> Numeric:
    """Exact expected total cost of a combinatorial policy."""
    return evaluate_exact(instance, prepare_comb_policy(model, instance, policy, rule), budget)


def evaluate_comb_policy_mc(
    model: CombModel,
    instance: Instance,
    policy: str,
    trials: int,
    seed: int,
    rule: Optional[GreedyRule] = None,
) -> tuple[float, float]:
    return evaluate_mc(instance, prepare_comb_policy(model, instance, policy, rule), trials, seed)

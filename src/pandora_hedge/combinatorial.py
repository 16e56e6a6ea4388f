"""Combinatorial selection: constraint families, surrogate costs, and the
frugal composition of greedy rules with adaptive inspection.

A combinatorial model is an upward-closed family of feasible item sets plus a
nonnegative terminal cost.  The one-shot surrogate cost minimizes the sum of
surrogate prices plus the terminal cost over feasible sets; the frugal policy
reconstructs that optimization adaptively, inspecting items lazily while
their tentative prices sit at the reservation price.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from typing import Optional, Sequence, Union

import numpy as np

from . import policies
from .budget import DEFAULT_BUDGET
from .distkit import Numeric, running_sum
from .indices import SurrogateKind
from .instance import Instance, PolicyTrace, hedged_view
from .policies import IntegerGrid, PreparedPolicy, _column_traces, _slots, plain_dtype
from .sampling import SURROGATE_STREAM, Columns, Lanes, mc_summary, trial_chunks


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
        return running_sum(min(self.distances[n][s] for s in selected) for n in range(len(self.distances)))


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


def surrogate_cost(model: CombModel, prices: Sequence[Numeric]) -> tuple[Numeric, frozenset[int]]:
    """One-shot optimum: minimize price sum plus terminal cost over feasible
    sets.  Ties resolve to the lexicographically smallest sorted id tuple.
    """
    if any(p < 0 for p in prices):
        raise ValueError("surrogate prices must be nonnegative")
    family = model.family
    if isinstance(family, (UniformMatroid, GraphicMatroid)) and isinstance(model.terminal, ZeroTerminal):
        # Kruskal in (price, id) order: the first k items, or a spanning forest
        by_price = sorted(range(model.n_items), key=lambda n: (prices[n], n))
        if isinstance(family, UniformMatroid):
            chosen = by_price[: family.k]
        else:
            chosen, _ = _spanning_forest(family.edges, family.vertices, by_price)
        return running_sum(prices[n] for n in chosen), frozenset(chosen)
    # generic desk-scale path: enumerate subsets, ties to the first
    best = None
    for s, terminal in _feasible_sets(model):
        value = running_sum(prices[n] for n in s) + terminal
        if best is None or value < best[0]:
            best = value, s
    if best is None:
        raise ValueError("model has no feasible set")
    return best


def _feasible_sets(model: CombModel):
    """An iterator over the feasible sets and their terminal costs in the
    lexicographic order of sorted ids: one ``is_feasible`` call per subset."""
    if model.n_items > 22:
        raise ValueError("explicit subset enumeration is limited to 22 items")

    def extend(head):
        s = frozenset(head)
        if model.is_feasible(s):
            yield s, model.terminal_cost(s)
        for n in range(head[-1] + 1 if head else 0, model.n_items):
            yield from extend(head + (n,))

    return extend(())


def _surrogate_dtypes(model: CombModel, values: Sequence[Sequence[Numeric]]):
    """The dtypes of ``surrogate_costs`` price columns drawn from ``values[n]``
    for item n and of its pool: the pool is ``plain_dtype`` of every price and
    distance, float64 where that orders them exactly.  The columns keep the
    value and type that ``surrogate_cost`` gives: int64 or float64 when every
    number is an int or every one a float within that bound, else object."""
    numbers = [x for row in values for x in row] + [d for row in model.terminal.distances for d in row]
    kinds, pool = set(map(type, numbers)), plain_dtype(numbers, model.n_items)
    columns = object if len(kinds) > 1 or pool is object else np.int64 if kinds == {int} else np.float64
    return columns, pool


def surrogate_costs(model: CombModel, pool):
    """The package's one batch of one-shot optima: ``costs(prices)`` is the
    ``surrogate_cost`` value of each column of an (items x columns) price
    array (in ``_surrogate_dtypes``), summed in its dtype.  A uniform or
    graphic matroid with a zero terminal runs ``_greedy_select`` with every
    item in a ``pool``-dtype copy, which is Kruskal in (price, id) order; any
    other model takes each column's minimum over its ``_feasible_sets``,
    enumerated once per call."""
    if type(model.family) in _KERNEL_FAMILIES.values() and type(model.terminal) is ZeroTerminal:

        def greedy(prices):
            spent = np.zeros(prices.shape[1], dtype=prices.dtype)
            _greedy_select(_Bases(model.family, prices.shape[1]), prices.astype(pool), None, prices, spent)
            return spent.tolist()

        return greedy
    sets = list(_feasible_sets(model))

    def enumerated(prices):
        best = None
        for s, terminal in sets:  # a tie keeps the earlier set, as in surrogate_cost
            value = running_sum(prices[n] for n in s) + terminal
            best = value if best is None else np.where(value < best, value, best)
        return best.tolist()

    return enumerated


def expected_surrogate_cost(
    model: CombModel,
    instance: Instance,
    kind: SurrogateKind,
    budget: int = DEFAULT_BUDGET,
) -> Numeric:
    """E[Z] for the chosen surrogate kind: ``policies._exact_columns`` of the
    surrogates on the grid, every item labelled, through ``surrogate_costs``
    on the grid's model, summed by ``policies._weighted_sum``.  Each cost
    keeps the type ``surrogate_cost`` gives (``_surrogate_dtypes``)."""
    what = "surrogate cost enumeration"
    grid, denominator, chunks = policies._exact_columns(instance, model, [1] * len(instance), budget, what, kind)
    dtype, pool = _surrogate_dtypes(grid.model, [[v for v, _ in atoms] for _, atoms in grid.surrogates(kind)])
    costs = surrogate_costs(grid.model, pool)
    return policies._weighted_sum(grid, denominator, chunks(dtype), lambda prices, _: costs(prices))


def expected_surrogate_cost_mc(
    model: CombModel,
    instance: Instance,
    kind: SurrogateKind,
    trials: int,
    seed: int,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[Z] with standard error: one chunk of trials
    at a time drawn from the surrogates on the instance's ``IntegerGrid``
    (each weight w over q drawn with probability w / q, the correctly
    rounded float of the surrogate's own probability) and run through
    ``surrogate_costs``.  Only a float leaves, so float mode draws in the
    pool's ``plain_dtype`` even where int and float prices mix."""
    grid = IntegerGrid.of(instance, model)
    lanes = [tuple(zip(*((v, w / q) for v, w in atoms))) for q, atoms in grid.surrogates(kind)]
    columns, pool = _surrogate_dtypes(grid.model, [values for values, _ in lanes])
    costs, dtype = surrogate_costs(grid.model, pool), columns if grid.exact else pool
    drawn = Lanes(lanes, seed, SURROGATE_STREAM, dtype)  # every lane is read: each chunk is drawn whole
    chunks = (np.asarray(Columns(drawn, start, size)) for start, size in trial_chunks(trials))
    return mc_summary(np.concatenate([grid.float_totals(costs(prices)) for prices in chunks]))


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
    """One trial of the frugal composition of ``rule`` on the ``hedged_view``
    of ``labels`` (None: frugal-oi, every item labelled): tentative prices
    start at the keys; a proposed uninspected item is inspected (its
    tentative price becomes its view price, floored at its key), a proposed
    inspected item is selected.  The trial is charged in event order (see
    ``PolicyTrace``), as the array kernel charges it."""
    view = (True,) * len(instance) if labels is None else labels
    keys, costs, seen = hedged_view(instance, view, prices)
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
            total = total + prices[prop]
    else:
        raise RuleError("rule failed to terminate")
    if not model.is_feasible(frozenset(selected)):
        raise RuleError("rule declared completion with an infeasible set")
    order, selected = tuple(n for n in order if view[n]), frozenset(selected)
    # every selected item was inspected, on the view at least
    return PolicyTrace(order, selected, selected.difference(order), total + model.terminal_cost(selected), labels)


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


def _greedy_select(bases: _Bases, pool: np.ndarray, threshold, prices: np.ndarray, spent: np.ndarray) -> None:
    """The greedy selection step over a chunk of trials: while a trial's
    basis is open, take its pooled entry of lowest (tentative price, id) if
    that price is at most ``threshold`` (None: any).  ``pool`` is an (items x
    trials) array of tentative prices, inf where an item is not pooled; a
    taken entry leaves it, and is selected unless it no longer extends the
    basis (a graphic edge that closes a cycle never will).  Each selection
    adds its realized price from ``prices`` (items x trials) to its trial's
    ``spent`` as it happens, at most one per trial per round."""
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
        spent[rows] += prices[ns, rows]


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

    Both policies charge in event order (see ``PolicyTrace``): a labelled
    slot's cost when it is inspected, a selection's realized price when it
    is made, then the terminal cost of the selected set, unless it is a
    ``ZeroTerminal``.  Exact-mode totals are Python ints."""
    instance, model = grid.instance, grid.model
    costs = [item.cost for item in instance.items]

    def batch(prices, coins):
        slots = _slots(instance, None if coins is not None else (True,) * len(instance))
        trials = prices.shape[1]
        cols = np.arange(trials)
        bases = _Bases(model.family, trials)
        pool = np.full(prices.shape, np.inf, dtype=object if prices.dtype == object else np.float64)
        spent = np.zeros(trials, dtype=prices.dtype)
        for key, n, lab in slots:
            _greedy_select(bases, pool, key, prices, spent)
            go = bases.open() & bases.joins(n, cols)
            if coins is not None:
                go &= coins[n] == lab
            if lab:
                spent[go] += costs[n]
                seen = prices[n, go]
                pool[n, go] = np.where(seen > key, seen, key)
            else:  # view price and key are the mean
                pool[n, go] = key
        _greedy_select(bases, pool, None, prices, spent)
        if type(model.terminal) is ZeroTerminal:
            return spent.tolist()
        return [s + model.terminal_cost(frozenset(p)) for s, p in zip(spent.tolist(), bases.picked.T.tolist())]

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

    def batch(prices, coins):  # exact small ints (drawn as float64) run as int64: totals leave as Python ints
        prices = np.asarray(prices, dtype=np.int64 if grid.exact and prices.dtype != object else prices.dtype)
        return run(prices, None if coins is None else np.asarray(coins))  # every slot reads its coins

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
    labels = None if policy == "local-hedging" else (True,) * len(instance)
    return PreparedPolicy(instance, traces, partial(frugal_batch, rule), labels, model)


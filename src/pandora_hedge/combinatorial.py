"""Combinatorial selection: constraint families, surrogate costs, and the
frugal composition of a matroid's greedy rule with adaptive inspection.

A combinatorial model is an upward-closed family of feasible item sets plus a
nonnegative terminal cost.  The one-shot surrogate cost minimizes the sum of
surrogate prices plus the terminal cost over feasible sets; the frugal policy
reconstructs that optimization adaptively, inspecting items lazily while
their tentative prices sit at the reservation price.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence, Union

import numpy as np

from . import policies
from .budget import DEFAULT_BUDGET
from .distkit import Numeric, running_sum
from .indices import SurrogateKind
from .instance import Instance
from .policies import IntegerGrid, PreparedPolicy, _slots, plain_dtype
from .sampling import SURROGATE_STREAM, Columns, Lanes, mc_summary, trial_chunks


def _spanning_forest(edges, vertices, ids):
    """Union-find over ``vertices``: walk the edge ids in order and keep each
    edge that joins two components.  Returns the kept ids."""
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
    return kept


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
        return len(_spanning_forest(self.edges, self.vertices, selected)) == len(self.vertices) - 1


Family = Union[ExplicitFamily, UniformMatroid, GraphicMatroid]
MATROIDS = (UniformMatroid, GraphicMatroid)  # the families with a greedy rule


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
    distance, float64 where that orders them exactly.  The columns keep each
    sum's own value and type: int64 or float64 when every number is an int
    or every one a float within that bound, else object."""
    numbers = [x for row in values for x in row] + [d for row in model.terminal.distances for d in row]
    kinds, pool = set(map(type, numbers)), plain_dtype(numbers, model.n_items)
    columns = object if len(kinds) > 1 or pool is object else np.int64 if kinds == {int} else np.float64
    return columns, pool


def surrogate_costs(model: CombModel, pool):
    """The package's one batch of one-shot optima: ``costs(prices)`` is the
    least price sum plus terminal cost over the feasible sets of each column
    of an (items x columns) price array (in ``_surrogate_dtypes``), summed in
    its dtype, a tie to the lexicographically smallest sorted id tuple.  A uniform or
    graphic matroid with a zero terminal runs ``_greedy_select`` with every
    item in a ``pool``-dtype copy, which is Kruskal in (price, id) order; any
    other model takes each column's minimum over its ``_feasible_sets``,
    enumerated once per call."""
    if isinstance(model.family, MATROIDS) and type(model.terminal) is ZeroTerminal:

        def greedy(prices):
            spent = np.zeros(prices.shape[1], dtype=prices.dtype)
            _greedy_select(_Bases(model.family, prices.shape[1]), prices.astype(pool), None, prices, spent)
            return spent.tolist()

        return greedy
    sets = list(_feasible_sets(model))

    def enumerated(prices):
        best = None
        for s, terminal in sets:  # a tie keeps the earlier set
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
    keeps its sum's type (``_surrogate_dtypes``)."""
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


COMB_POLICIES = ("frugal-oi", "local-hedging")


class _Bases:
    """The greedy state of each trial in a chunk, for a uniform or graphic
    matroid: how many items it selected (``count``) and which, in selection order
    (``picked``, rank x trials); for a graphic matroid also each vertex's
    component label (``labels``, trials x vertices)."""

    def __init__(self, family: Union[UniformMatroid, GraphicMatroid], trials: int):
        self.ends = None
        if isinstance(family, GraphicMatroid):
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


def _frugal_kernel(instance: Instance, model: CombModel):
    """Array form of the frugal composition of a matroid's greedy rule, the
    package's one frugal search: Monte Carlo and exact evaluation run it on
    the ``IntegerGrid``, ``PreparedPolicy.traces`` on object arrays of the
    instance's own numbers.

    The greedy rule takes next the lowest (tentative price, inspected
    first, id) item that extends the selection, and an uninspected item's
    tentative price is its key.  So the kernel walks the sorted (key, id,
    labelled) slots of ``reservation_batch`` (frugal-oi: every slot
    labelled; local hedging: the slots its coins make active).  Before each slot it selects, by
    ``_greedy_select``, every pooled (inspected) item whose tentative price
    is at most the slot's key; then it inspects the slot where it is active
    and still extends the selection, pooling the item at max(view price,
    key).  After the last slot it selects with no threshold, which
    completes every trial's basis: each item reaches one active slot.

    Both policies charge in event order (see ``PolicyTrace``): a labelled
    slot's cost when it is inspected, a selection's realized price when it
    is made, then the terminal cost of the selected set, unless it is a
    ``ZeroTerminal``.  ``search(prices, coins)`` returns the policy's record
    (see ``PreparedPolicy``): the trials' totals, the labelled slots' items
    in slot order with the trials that inspected each, and the selected
    items (rank x trials) in selection order."""
    costs = [item.cost for item in instance.items]

    @cache  # sorted on a kernel's first search, once per labelling
    def sorted_slots(hedged: bool):
        slots = _slots(instance, None if hedged else (True,) * len(instance))
        return slots, np.array([n for _, n, lab in slots if lab])

    def search(prices, coins):
        slots, order = sorted_slots(coins is not None)
        trials = prices.shape[1]
        cols = np.arange(trials)
        bases = _Bases(model.family, trials)
        pool = np.full(prices.shape, np.inf, dtype=object if prices.dtype == object else np.float64)
        spent = np.zeros(trials, dtype=prices.dtype)
        inspected = []  # per labelled slot
        for key, n, lab in slots:
            _greedy_select(bases, pool, key, prices, spent)
            go = bases.open() & bases.joins(n, cols)
            if coins is not None:
                go &= coins[n] == lab
            if lab:
                inspected.append(go)
                spent[go] += costs[n]
                seen = prices[n, go]
                pool[n, go] = np.where(seen > key, seen, key)
            else:  # view price and key are the mean
                pool[n, go] = key
        _greedy_select(bases, pool, None, prices, spent)
        totals = spent.tolist()
        if type(model.terminal) is not ZeroTerminal:
            totals = [s + model.terminal_cost(frozenset(p)) for s, p in zip(totals, bases.picked.T.tolist())]
        return totals, order, np.array(inspected), bases.picked

    return search


def frugal_batch(grid: IntegerGrid):
    """``_frugal_kernel``'s totals on ``grid``: exact small ints (drawn as
    float64) run as int64, so exact-mode totals leave as Python ints."""
    search = _frugal_kernel(grid.instance, grid.model)

    def batch(prices, coins):
        prices = np.asarray(prices, dtype=np.int64 if grid.exact and prices.dtype != object else prices.dtype)
        return search(prices, None if coins is None else np.asarray(coins))[0]  # every slot reads its coins

    return batch


def prepare_comb_policy(model: CombModel, instance: Instance, policy: str) -> PreparedPolicy:
    """Prepare a combinatorial policy by name: ``frugal-oi`` (the frugal
    composition with obligatory inspection, charged its own total) or
    ``local-hedging`` (two stages: commit labels, then run the frugal
    composition on the induced obligatory-inspection view), on a uniform or
    graphic matroid.  Traces, Monte Carlo and exact evaluation all run
    ``_frugal_kernel``: a trial inspects its labelled slots in slot order
    and selects its basis; an unlabelled item it selects is selected
    without inspection."""
    if policy not in COMB_POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(COMB_POLICIES)}")
    if not isinstance(model.family, MATROIDS):
        raise ValueError("no greedy rule for this family: the frugal policies need a uniform or graphic matroid")
    labels = None if policy == "local-hedging" else (True,) * len(instance)
    return PreparedPolicy(instance, _frugal_kernel, frugal_batch, labels, model)

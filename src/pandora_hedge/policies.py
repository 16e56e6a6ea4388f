"""Executable single-item selection policies and the policy layer shared
with combinatorial selection: prepared policies, traces and the exact and
Monte Carlo evaluators.

All policies are pure functions of (instance, realization, coins); the Monte
Carlo evaluator derives realizations and coins from the counter-based
sampling contract, so estimates do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, repeat
from operator import mul
from typing import Callable, Optional, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, check_budget
from .distkit import DiscreteDist, Numeric, _div, _is_exact, _merged, capped_min_means, running_sum
from .indices import Item, SurrogateKind, surrogate_size
from .instance import HedgeCoins, Instance, PolicyTrace, Realization
from .sampling import COIN_STREAM, PRICE_STREAM, Columns, Lanes, mc_summary, trial_chunks


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
    leave by ``leave`` or ``distkit._div``.  Each item's distribution
    (``dists``) and surrogates (``surrogates``) are put on the grid once.
    In float mode the grid passes the instance's own numbers through with
    L = D = Q_n = 1, and it never calls ``scale``.

    ``of`` is the package's way to get a grid: one per (instance, model)
    pair of objects, kept on the instance, so that every exact value of one
    loaded instance shares it and nothing outlives the instance.
    """

    def __init__(self, instance: Instance, model=None):
        self._instance, self._model = instance, model
        self._surrogates: dict = {}  # per kind
        self._distances = [d for row in model.terminal.distances for d in row] if model else []
        pairs = list(zip(instance.items, instance.indices))
        numbers = [x for item, ix in pairs for x in (item.cost, *item.dist.values, ix.mu, ix.u_rsv, ix.u_bkp)]
        numbers += self._distances
        probs = [x for item, ix in pairs for x in (*item.dist.probs, ix.p_hedge)]
        self.exact = all(map(_is_exact, numbers + probs))
        self.L = math.lcm(*(x.denominator for x in numbers)) if self.exact else 1
        self.D = self.L * math.prod(_prob_lcm(item.dist) for item in instance.items) if self.exact else 1
        self.number = int if self.exact else float  # a grid total as a Python number

    @classmethod
    def of(cls, instance: Instance, model=None) -> "IntegerGrid":
        """The grid of ``instance`` and ``model``, built once per pair of
        objects and kept in ``instance.grids``.  A model without
        facility-location distances puts no number on the grid, so its grid
        takes the scaled instance, distributions and surrogates of
        ``of(instance)``."""
        memo = instance.grids
        if id(model) not in memo:  # the memo keeps the model alive, so its id stays its own
            grid = cls(instance, model)
            if model is not None and not grid._distances:
                plain = cls.of(instance)
                grid.instance, grid.dists, grid._surrogates = plain.instance, plain.dists, plain._surrogates
            memo[id(model)] = model, grid
        return memo[id(model)][1]

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
    def dists(self) -> list:
        """Each item's distribution on the grid: its ``atoms``."""
        return [self.atoms(item.dist) for item in self._instance.items]

    def surrogates(self, kind: SurrogateKind) -> list:
        """Each item's ``surrogate_dist`` of ``kind`` on the grid as (q,
        atoms), built once per kind: the scaled values with int weights over
        q, equal values merged by ``distkit._merged`` as
        ``DiscreteDist.from_pairs`` merges them.  OI and NOI (a never-inspect
        item's NOI point mass at mu has weight q) have the item's own q; LH
        weighs the OI atoms and the mean by the item's ``label_weights``,
        over q h, h being p_hedge's denominator.  In float mode, 1 and the
        surrogate's own atoms."""
        if kind not in self._surrogates:
            if self.exact:
                self._surrogates[kind] = [self._surrogate(n, kind) for n in range(len(self._instance))]
            else:
                self._surrogates[kind] = [(1, item.surrogate(kind).atoms) for item in self._instance.items]
        return self._surrogates[kind]

    def _surrogate(self, n: int, kind: SurrogateKind) -> tuple[int, tuple]:
        ix, (q, atoms) = self.instance.indices[n], self.dists[n]
        if kind is SurrogateKind.LH:
            ((labelled, unlabelled),), _ = self.label_weights([ix.p_hedge], [q])
            pairs = [(v, w * labelled) for v, w in self.surrogates(SurrogateKind.OI)[n][1]]
            return labelled * q + unlabelled, _merged(pairs + [(ix.mu, unlabelled)])
        if kind is SurrogateKind.OI:
            return q, _merged((max(v, ix.u_rsv), w) for v, w in atoms)
        if ix.u_rsv >= ix.u_bkp:
            return q, ((ix.mu, q),)
        return q, _merged((min(max(v, ix.u_rsv), ix.u_bkp), w) for v, w in atoms)

    def ratio(self, alpha: Numeric) -> tuple:
        """A ratio alpha as (a, b, f): in exact mode its numerator, its
        denominator and their product, the refinement of the grid on which
        alpha and 1 / alpha map grid numbers to grid numbers (alpha f x = a
        (a x) and f x / alpha = b (b x)); in float mode (alpha, 1, 1)."""
        if not self.exact:
            return alpha, 1, 1
        return alpha.numerator, alpha.denominator, alpha.numerator * alpha.denominator

    def quotient(self, x: Numeric, y: Numeric) -> Numeric:
        """x / y where it lies on the grid: ``//`` on exact mode's ints,
        ``distkit._div`` in float mode."""
        return x // y if self.exact else _div(x, y)

    def label_weights(self, p_label: Sequence[Numeric], qs: Sequence[int]) -> tuple[list, int]:
        """Each item's (labelled, unlabelled) weight under its labelling
        probability p, and the denominator of a sum of grid totals weighted by
        them and by its enumerated distribution's ``atoms``, whose probability
        lcm is q: in exact mode the ints (p h, (1 - p) h q), h being p's
        denominator, over L x the q h of every item that p may label; in
        float mode (p, 1 - p) over 1."""
        if not self.exact:
            return [(p, 1 - p) for p in p_label], 1
        weights = [(p.numerator, (p.denominator - p.numerator) * q) for p, q in zip(p_label, qs)]
        return weights, self.L * math.prod(q * p.denominator for p, q in zip(p_label, qs) if p != 0)

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

    def float_totals(self, totals) -> np.ndarray:
        """Monte Carlo totals on the grid as a float64 array of their values:
        each ``t / L`` in int true division in exact mode, the totals
        themselves in float mode."""
        if self.exact:
            return np.array([int(t) / self.L for t in totals])
        return np.asarray(totals, dtype=np.float64)

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
    """A policy prepared on its ``instance``, with its trial-independent work
    done once: the package's one way to run, trace or evaluate a policy.
    ``evaluate_exact``, ``evaluate_mc`` and ``iter_trials`` take it alone.

    ``labels`` are the items it may inspect, fixed for every trial, or None
    for local hedging, which ``draws_coins``: its labels are drawn afresh
    each trial.  ``kernel(instance, model)`` builds the policy's record on
    that instance (its own or a grid's): ``record(prices, coins)`` maps an
    (items x trials) price array (and the labels) to the trials' totals as
    a list, the ids it inspected in inspection order, a bool array of the
    trials that inspected each, and the items each trial selected
    (selections x trials).  ``batch(grid)`` builds the array form on the
    ``IntegerGrid`` of the instance and ``model`` (the combinatorial model
    of a combinatorial policy, else None): it maps the grid's prices in
    ``array_dtype(grid.instance)`` (and the labels) to the trials' totals
    on the grid, with no record.  Monte Carlo hands it ``sampling.Columns``,
    which draw a row when it is indexed: a form that reads every row takes
    ``np.asarray`` of them.  Monte Carlo and exact evaluation run the array
    form, ``--trace`` the traces and ``pi_surrogate_bound`` the kernel.
    """

    instance: Instance
    kernel: Callable[[Instance, object], Callable]
    batch: Callable[[IntegerGrid], Callable]
    labels: Optional[tuple[bool, ...]]
    model: object = None
    keep_labels: bool = False  # traces record the fixed labels

    def __post_init__(self):
        object.__setattr__(self, "_record", self.kernel(self.instance, self.model))

    @property
    def draws_coins(self) -> bool:
        return self.labels is None

    @property
    def label_probs(self) -> list:
        """Each item's labelling probability: p_hedge if it draws coins, else its fixed label as 1 or 0."""
        return [ix.p_hedge for ix in self.instance.indices] if self.labels is None else [int(b) for b in self.labels]

    def traces(self, prices: np.ndarray, coins: Optional[np.ndarray]) -> list:
        """The trials' traces, read off the record of the instance's own kernel
        on an object array of its prices (and coins, if it draws them)."""
        totals, order, inspected, selected = self._record(prices, coins if self.draws_coins else None)
        orders = [tuple(order[trial].tolist()) for trial in inspected.T]
        labelings = map(tuple, coins.T.tolist()) if self.draws_coins else repeat(self.labels if self.keep_labels else None)
        return [
            PolicyTrace(o, chosen, chosen.difference(o), total, labs)
            for o, chosen, total, labs in zip(orders, map(frozenset, selected.T.tolist()), totals, labelings)
        ]

    def run(self, realization: Realization, coins: Optional[HedgeCoins] = None) -> PolicyTrace:
        if self.draws_coins and coins is None:
            raise ValueError("local-hedging needs hedge coins")
        labels = np.array([coins.labels], dtype=bool).T if self.draws_coins else None
        return self.traces(np.array([realization.prices], dtype=object).T, labels)[0]


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
    search: Weitzman, never-inspect, commit-enum and local hedging run it
    with all-true, all-false, fixed or (if None) per-trial ``labels``.  The
    returned ``search(prices, coins)`` takes (items x trials) price and
    label arrays (coins read only if ``labels`` is None) and returns each
    trial's inspection costs, the realized price of the item it selects (the
    two add up to its total) and its stop: how many sorted slots it walked.
    Monte Carlo, exact evaluation and ``pi_surrogate_bound`` run it on the
    instance's ``IntegerGrid``, traces on object arrays of the instance's own
    numbers; the slot arrays take the prices' dtype, built once per dtype.

    Item n has two slots: labelled (key u_rsv, its cost and realized price)
    and unlabelled (key and view price mu, cost 0).  The slots are sorted
    once by (key, id), so the slots active in a trial come in the order of
    that trial's own stable sort.  A trial stops at its first active slot
    whose key is at least the lowest view price inspected so far.  The
    search walks the slots in blocks that double in size and keeps only the
    trials still searching.  A trial is charged in event order (see
    ``PolicyTrace``): its inspection costs in inspection order (a slot it
    skips adds an exact zero), then the realized price of the item with the
    lowest inspected view price, which it selects when it stops.

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
            active = True if labels is not None else coins[ids[blk], rows] == lab[blk]
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


def _reservation_policy(instance: Instance, labels: Optional[Sequence[bool]], keep_labels: bool = False):
    """``reservation_batch`` as a prepared policy.  Its record: a trial
    inspects each active labelled slot before its stop, in slot order, and
    selects the lowest view price among the active slots it walked, ties to
    the lowest id, charged the search's costs plus that item's price."""

    def kernel(instance, model):
        slots, search = _slots(instance, labels), reservation_batch(instance, labels)

        @cache  # built on the first record, so that preparing a policy does not pay for them
        def positions():
            at = np.full((len(instance), 2), len(slots))  # each item's (unlabelled, labelled) slot; none: past the end
            at[[n for _, n, _ in slots], [int(lab) for *_, lab in slots]] = np.arange(len(slots))
            return at, np.array([n for _, n, lab in slots if lab], dtype=np.intp)

        def record(prices, coins):
            spent, _, stops = search(prices, coins)
            lab, (at, order) = coins if labels is None else np.array(labels)[:, None], positions()
            walked = np.where(lab, at[:, 1:], at[:, :1]) < stops
            view = np.where(lab, prices, np.array([[ix.mu] for ix in instance.indices], dtype=prices.dtype))
            selected = np.where(walked, view, np.inf).argmin(axis=0)
            totals = spent + prices[selected, np.arange(prices.shape[1])]
            return totals.tolist(), order, (walked & lab)[order], selected[None, :]

        return record

    def batch(grid):
        on_grid = reservation_batch(grid.instance, labels)

        def totals(prices, coins):
            spent, chosen, _ = on_grid(prices, coins)
            return spent + chosen

        return totals

    return PreparedPolicy(instance, kernel, batch, labels, None, keep_labels)


def _inspect_all_kernel(instance: Instance, model=None):
    """inspect-all's record: every item inspected in id order, the lowest price selected, ties to the lowest id."""
    inspect_cost = running_sum(item.cost for item in instance.items)

    def record(prices, coins):
        selected, cols = prices.argmin(axis=0), np.arange(prices.shape[1])
        inspected = np.ones(prices.shape, dtype=bool)
        return (inspect_cost + prices[selected, cols]).tolist(), np.arange(len(instance)), inspected, selected[None, :]

    return record


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
        [item.surrogate(SurrogateKind.OI) for item in instance.items],
        [idx.mu for idx in instance.indices],
    )
    best = min(range(len(values)), key=values.__getitem__)
    return HedgeCoins(tuple(n + 1 != best for n in range(len(instance))))


SINGLE_POLICIES = ("weitzman", "local-hedging", "commit-enum", "inspect-all", "never-inspect")


def prepare_policy(instance: Instance, policy: str) -> PreparedPolicy:
    """Prepare a single-item policy by name: ``weitzman`` (obligatory
    inspection), ``local-hedging``, ``commit-enum`` (the best committing
    labeling, fixed for every trial), and the diagnostics ``inspect-all``
    (inspect everything, select the cheapest) and ``never-inspect`` (the
    all-unlabelled labeling: select the lowest mean uninspected)."""
    if policy == "weitzman":
        return _reservation_policy(instance, (True,) * len(instance))
    if policy == "never-inspect":
        return _reservation_policy(instance, (False,) * len(instance))
    if policy == "local-hedging":
        return _reservation_policy(instance, None)
    if policy == "commit-enum":
        return _reservation_policy(instance, commit_enum_labeling(instance).labels, keep_labels=True)
    if policy == "inspect-all":
        return PreparedPolicy(
            instance,
            _inspect_all_kernel,
            lambda grid: lambda prices, coins: running_sum(i.cost for i in grid.instance.items) + np.asarray(prices).min(axis=0),
            (True,) * len(instance),
        )
    raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(SINGLE_POLICIES)}")


EXACT_CHUNK = 512  # weighted columns run at once: bounds exact evaluation's memory


def _digits(index, sizes: Sequence) -> list:
    """The package's one mixed-radix digit rule: the digits of ``index`` (an
    int or an int array) over ``sizes`` (ints or arrays), the last fastest."""
    digits = []
    for size in reversed(sizes):
        index, digit = divmod(index, size)
        digits.append(digit)
    return digits[::-1]


def _exact_columns(instance: Instance, model, p_label: Sequence, budget: int, what: str, kind=None):
    """The package's one exact enumeration: item n's price follows its own
    distribution, or its surrogate of ``kind`` (``IntegerGrid.surrogates``),
    labelled with probability ``p_label[n]``: 1 enumerates its atoms, 0
    prices it at its mean, anything else branches on both labels.  The
    product over p != 0 of (|dist| + [p != 1]) is charged against ``budget``
    (at most 2^63 - 1) before anything is built, the surrogates' sizes
    counted by ``surrogate_size``.  Returns ``IntegerGrid.of`` the instance
    and ``model``, the denominator that a weighted sum of grid totals leaves
    by, and ``chunks(dtype)``: ``EXACT_CHUNK`` columns at a time as
    (weights, prices, labels), the prices an (items x columns) array in
    ``dtype`` (by default ``array_dtype``).  Column j's label vector (``itertools.product((True,
    False))`` order over the branching items) is the last to start at or
    before j, its atoms are the ``_digits`` of j minus that start over the
    labelled items' sizes, and its weight is its vector's ``label_weights``
    shares times its atoms'."""
    sizes = [len(item.dist) if kind is None else surrogate_size(item, kind) for item in instance.items]
    branches = math.prod([size + (p != 1) for size, p in zip(sizes, p_label) if p != 0])
    check_budget(branches, min(budget, 2**63 - 1), what)  # a column's index is an int64
    grid = IntegerGrid.of(instance, model)
    qs, atoms = zip(*(grid.dists if kind is None else grid.surrogates(kind)))
    shares, denominator = grid.label_weights(p_label, qs)
    means = [ix.mu for ix in grid.instance.indices] if any(p != 1 for p in p_label) else [None] * len(sizes)
    counts, weights = np.ones(1, dtype=np.int64), np.ones(1, dtype=object)  # per label vector
    for a, p, share in zip(atoms, p_label, shares):  # its labels' column counts, first item slowest
        counts = np.outer(counts, [len(a)] * (p != 0) + [1] * (p != 1)).ravel()
        if 0 < p < 1:
            weights = np.outer(weights, np.array(share, dtype=object)).ravel()
    starts, total = np.cumsum(counts) - counts, int(counts.sum())
    # atom weight products run in int64 where they fit: exact ints, in any order
    narrow = grid.exact and math.prod(max(p for _, p in a) for a in atoms) < 2**63
    probs = [np.array([p for _, p in a] + [1], dtype=np.int64 if narrow else object) for a in atoms]  # 1: unlabelled

    def chunks(dtype=None):
        dtype = array_dtype(grid.instance) if dtype is None else dtype
        values = [np.array([v for v, _ in a] + [mu] * (p != 1), dtype=dtype) for a, mu, p in zip(atoms, means, p_label)]
        for start in range(0, total, EXACT_CHUNK):
            j = np.arange(start, min(start + EXACT_CHUNK, total))
            v = np.searchsorted(starts, j, side="right") - 1
            bits = _digits(v, [2 if 0 < p < 1 else 1 for p in p_label])  # 0: labelled, where p != 0
            labels = np.array([(b == 0) & (p != 0) for b, p in zip(bits, p_label)])
            digits = _digits(j - starts[v], [np.where(lab, len(a), 1) for lab, a in zip(labels, atoms)])
            at = [np.where(lab, d, len(a)) for lab, d, a in zip(labels, digits, atoms)]  # len(a): the mean
            w = np.ones(len(j), dtype=np.int64) if narrow else weights[v]
            for prob, i in zip(probs, at):
                w = w * prob[i]
            if narrow:
                w = weights[v] * w
            yield w.tolist(), np.array([vals[i] for vals, i in zip(values, at)], dtype=dtype), labels

    return grid, denominator, chunks


def _weighted_sum(grid: IntegerGrid, denominator: int, chunks, values: Callable) -> Numeric:
    """The package's one weighted sum: weight x ``values(prices, labels)``
    over ``_exact_columns``' chunks, added in enumeration order by
    ``running_sum``, leaving by ``IntegerGrid.leave``."""
    terms = (map(mul, weights, values(prices, labels)) for weights, prices, labels in chunks)
    return grid.leave(running_sum(chain.from_iterable(terms)), denominator)


def evaluate_exact(prepared: PreparedPolicy, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Exact expected total cost of a prepared policy on its instance: its
    array form on ``_exact_columns`` of its ``label_probs``, each total a
    Python number (ints in exact mode), summed by ``_weighted_sum``."""
    hedged = prepared.draws_coins
    what = "hedged policy evaluation" if hedged else "policy evaluation"
    grid, denominator, chunks = _exact_columns(prepared.instance, prepared.model, prepared.label_probs, budget, what)
    batch = prepared.batch(grid)
    return _weighted_sum(grid, denominator, chunks(), lambda p, lab: map(grid.number, batch(p, lab if hedged else None)))


def _trial_columns(instance: Instance, draws_coins: bool, seed: int, count: int, dtype):
    """The package's one trial loop: per ``trial_chunks`` chunk of trials
    0..count-1, the (prices, labels) ``Columns`` of ``instance`` (a policy's
    own or its grid's): prices in ``dtype`` on ``PRICE_STREAM``, and hedge
    labels (labelled with probability p_hedge, which the grid keeps) on
    ``COIN_STREAM`` if the policy ``draws_coins``, else None."""
    prices = Lanes([(item.dist.values, item.dist.probs) for item in instance.items], seed, PRICE_STREAM, dtype)
    coins = None
    if draws_coins:
        coins = Lanes([((True, False), (ix.p_hedge, 1 - ix.p_hedge)) for ix in instance.indices], seed, COIN_STREAM, bool)
    for start, size in trial_chunks(count):
        yield Columns(prices, start, size), Columns(coins, start, size) if coins is not None else None


def iter_trials(prepared: PreparedPolicy, seed: int, count: int):
    """Yield the traces of trials 0..count-1 on the prepared policy's
    instance, one chunk of drawn columns at a time, the instance's own
    prices drawn as ``evaluate_mc`` draws the grid's."""
    for prices, coins in _trial_columns(prepared.instance, prepared.draws_coins, seed, count, object):
        yield from prepared.traces(np.asarray(prices), None if coins is None else np.asarray(coins))


def evaluate_mc(prepared: PreparedPolicy, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a prepared policy's total cost.

    The trials run one chunk at a time through the policy's array form on the
    ``IntegerGrid`` of its instance: prices are drawn from the grid's
    supports as ``Columns``, so a lane is drawn only if the array form reads
    it, and totals leave the grid as floats."""
    grid = IntegerGrid.of(prepared.instance, prepared.model)
    batch = prepared.batch(grid)
    columns = _trial_columns(grid.instance, prepared.draws_coins, seed, trials, array_dtype(grid.instance))
    return mc_summary(np.concatenate([grid.float_totals(batch(prices, coins)) for prices, coins in columns]))

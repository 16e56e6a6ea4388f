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
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .budget import DEFAULT_BUDGET, check_budget
from .distkit import DiscreteDist, Numeric, _is_exact, capped_min_means, expected_excess, running_sum
from .indices import Item, SurrogateKind
from .instance import HedgeCoins, Instance, PolicyTrace, Realization
from .sampling import COIN_STREAM, PRICE_STREAM, Columns, Lanes, mc_summary, sample_columns, trial_chunks


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
    mu = item.indices.mu
    if r is None:
        inspect_branch = item.cost + mu
        candidates = [inspect_branch]
    else:
        inspect_branch = item.cost + (mu - expected_excess(item.dist, r))
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
        self.D = self.L * math.prod(_prob_lcm(item.dist) for item in instance.items) if self.exact else 1
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
    each trial.  ``traces(prices, coins)`` maps an (items x trials) object
    array of the instance's own prices (and, for a policy that draws coins,
    a label array of the same shape) to the trials' traces;
    ``run(realization, coins)`` is its one-trial form.  ``batch(grid)``
    builds the array form on the ``IntegerGrid`` of the instance and
    ``model`` (the combinatorial model of a combinatorial policy, else
    None): a function that maps an (items x trials) array of the grid's
    prices in ``array_dtype(grid.instance)`` (and the labels) to the
    trials' totals on the grid.  Monte Carlo hands it ``sampling.Columns``,
    which draw a row when it is indexed: a form that reads every row takes
    ``np.asarray`` of them.  Monte Carlo and exact evaluation run the array
    form; ``--trace`` and ``pi_surrogate_bound`` (on exact
    evaluation's columns) run the traces.
    """

    instance: Instance
    traces: Callable[[np.ndarray, Optional[np.ndarray]], list]
    batch: Callable[[IntegerGrid], Callable]
    labels: Optional[tuple[bool, ...]]
    model: object = None

    @property
    def draws_coins(self) -> bool:
        return self.labels is None

    @property
    def label_probs(self) -> list:
        """Each item's labelling probability: p_hedge if it draws coins, else its fixed label as 1 or 0."""
        return [ix.p_hedge for ix in self.instance.indices] if self.labels is None else [int(b) for b in self.labels]

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
    search: Weitzman, never-inspect, commit-enum and local hedging run it
    with all-true, all-false, fixed or (if None) per-trial ``labels``.  The
    returned ``search(prices, coins)`` takes (items x trials) price and
    label arrays (coins read only if ``labels`` is None) and returns each
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


def _reservation_policy(instance: Instance, labels: Optional[Sequence[bool]], keep_labels: bool = True):
    """``reservation_batch`` as a prepared policy.  A trace inspects the
    active slots before its trial's stop, charges the labelled ones' costs
    in slot order (the search's sum), and selects the lowest inspected view
    price, ties to the lowest id; its total is those costs plus the selected
    realized price.  Fixed ``labels`` ignore the coins; ``keep_labels``
    records the labels in the trace."""
    slots, mus = _slots(instance, labels), [ix.mu for ix in instance.indices]
    search = reservation_batch(instance, labels)

    def traces(prices, coins):
        spent, _, stops = search(prices, coins)
        labelings = [labels] * prices.shape[1] if labels is not None else [tuple(c) for c in coins.T.tolist()]
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

    return PreparedPolicy(instance, traces, batch, labels)


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
        return _reservation_policy(instance, (True,) * len(instance), keep_labels=False)
    if policy == "never-inspect":
        return _reservation_policy(instance, (False,) * len(instance), keep_labels=False)
    if policy == "local-hedging":
        return _reservation_policy(instance, None)
    if policy == "commit-enum":
        return _reservation_policy(instance, commit_enum_labeling(instance).labels)
    if policy == "inspect-all":
        ids = tuple(range(len(instance)))
        inspect_cost = running_sum(item.cost for item in instance.items)

        def inspect_all(prices, labels):
            sel = min(ids, key=lambda n: (prices[n], n))
            return PolicyTrace(ids, frozenset({sel}), frozenset(), inspect_cost + prices[sel])

        return PreparedPolicy(
            instance,
            _column_traces(inspect_all),
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


def _exact_columns(instance: Instance, model, p_label: Sequence, budget: int, what: str, dists=None):
    """The package's one exact enumeration: item n's price follows
    ``dists[n]`` (by default its own distribution), labelled with
    probability ``p_label[n]``: 1 enumerates its atoms, 0 prices it at its
    mean, anything else branches on both labels.  The product over p != 0 of
    (|dist| + [p != 1]) is charged against ``budget`` (at most 2^63 - 1)
    before anything is built.  Returns the ``IntegerGrid``, the denominator
    that a weighted sum of grid totals leaves by, and ``chunks(dtype)``:
    ``EXACT_CHUNK`` columns at a time as (weights, prices, labels), the
    prices an (items x columns) array in ``dtype`` (by default
    ``array_dtype``).  Column j's label vector (``itertools.product((True,
    False))`` order over the branching items) is the last to start at or
    before j, its atoms are the ``_digits`` of j minus that start over the
    labelled items' sizes, and its weight is its vector's ``label_weights``
    shares times its atoms'."""
    dists = [item.dist for item in instance.items] if dists is None else dists
    branches = math.prod([len(d) + (p != 1) for d, p in zip(dists, p_label) if p != 0])
    check_budget(branches, min(budget, 2**63 - 1), what)  # a column's index is an int64
    grid = IntegerGrid(instance, model)
    qs, atoms = zip(*map(grid.atoms, dists))
    shares, denominator = grid.label_weights(p_label, qs)
    means = [ix.mu for ix in grid.instance.indices] if any(p != 1 for p in p_label) else [None] * len(dists)
    counts, weights = np.ones(1, dtype=np.int64), np.ones(1, dtype=object)  # per label vector
    for a, p, share in zip(atoms, p_label, shares):  # its labels' column counts, first item slowest
        counts = np.outer(counts, [len(a)] * (p != 0) + [1] * (p != 1)).ravel()
        if 0 < p < 1:
            weights = np.outer(weights, np.array(share, dtype=object)).ravel()
    starts, total = np.cumsum(counts) - counts, int(counts.sum())
    probs = [np.array([p for _, p in a] + [1], dtype=object) for a in atoms]  # 1 for an unlabelled column

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
            w = weights[v]
            for prob, i in zip(probs, at):
                w = w * prob[i]
            yield w.tolist(), np.array([vals[i] for vals, i in zip(values, at)], dtype=dtype), labels

    return grid, denominator, chunks


def _weighted_sum(grid: IntegerGrid, denominator: int, chunks, values: Callable) -> Numeric:
    """The package's one weighted sum: weight x ``values(prices, labels)``
    over ``_exact_columns``' chunks in enumeration order, leaving by
    ``IntegerGrid.leave``."""
    total = 0
    for weights, prices, labels in chunks:
        for w, v in zip(weights, values(prices, labels)):
            total = total + w * v
    return grid.leave(total, denominator)


def evaluate_exact(prepared: PreparedPolicy, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Exact expected total cost of a prepared policy on its instance: its
    array form on ``_exact_columns`` of its ``label_probs``, each total a
    Python number (ints in exact mode), summed by ``_weighted_sum``."""
    hedged = prepared.draws_coins
    what = "hedged policy evaluation" if hedged else "policy evaluation"
    grid, denominator, chunks = _exact_columns(prepared.instance, prepared.model, prepared.label_probs, budget, what)
    batch = prepared.batch(grid)
    return _weighted_sum(grid, denominator, chunks(), lambda p, lab: map(grid.number, batch(p, lab if hedged else None)))


def _price_lanes(instance: Instance) -> list:
    return [(item.dist.values, item.dist.probs) for item in instance.items]


def _coin_lanes(instance: Instance) -> list:
    """Item n's labels: labelled with probability p_hedge."""
    return [((True, False), (ix.p_hedge, 1 - ix.p_hedge)) for ix in instance.indices]


def price_columns(instance: Instance, seed: int, start: int, count: int, dtype) -> np.ndarray:
    """Prices of trials start..start+count-1 as an (items x trials) array of
    ``dtype``."""
    return sample_columns(_price_lanes(instance), seed, PRICE_STREAM, start, count, dtype)


def coin_columns(instance: Instance, seed: int, start: int, count: int) -> np.ndarray:
    """Hedge labels of trials start..start+count-1 as an (items x trials)
    bool array: item n is labelled with probability p_hedge."""
    return sample_columns(_coin_lanes(instance), seed, COIN_STREAM, start, count, bool)


def iter_trials(prepared: PreparedPolicy, seed: int, count: int):
    """Yield (realization, trace) for trials 0..count-1 on the prepared
    policy's instance: its traces, one chunk of drawn columns at a time;
    coins are drawn only for a policy that draws them."""
    for start, size in trial_chunks(count):
        prices = price_columns(prepared.instance, seed, start, size, object)
        coins = coin_columns(prepared.instance, seed, start, size) if prepared.draws_coins else None
        realizations = (Realization(tuple(row)) for row in prices.T.tolist())
        yield from zip(realizations, prepared.traces(prices, coins))


def evaluate_mc(prepared: PreparedPolicy, trials: int, seed: int) -> tuple[float, float]:
    """Monte Carlo mean and standard error of a prepared policy's total cost.

    The trials run one chunk at a time through the policy's array form on the
    ``IntegerGrid`` of its instance: prices are drawn from the grid's
    supports as ``Columns``, so a lane is drawn only if the array form reads
    it, and totals leave the grid as floats."""
    instance = prepared.instance
    grid = IntegerGrid(instance, prepared.model)
    batch = prepared.batch(grid)
    prices = Lanes(_price_lanes(grid.instance), seed, PRICE_STREAM, array_dtype(grid.instance))
    coins = Lanes(_coin_lanes(instance), seed, COIN_STREAM, bool) if prepared.draws_coins else None
    totals = []
    for start, size in trial_chunks(trials):
        labels = Columns(coins, start, size) if coins is not None else None
        totals.append(grid.float_totals(batch(Columns(prices, start, size), labels)))
    return mc_summary(np.concatenate(totals))

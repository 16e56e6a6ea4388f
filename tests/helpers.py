"""Independent brute-force oracles and shared fixtures for the test suite.

Everything here recomputes quantities from first principles (product
enumeration, direct definition sums) so the library paths under test are
checked against a second route, not against themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache

import numpy as np

from pandora_hedge import DiscreteDist, HedgeCoins, Instance, Item, PolicyTrace, Realization, hedged_view
from pandora_hedge.combinatorial import RuleError, rule_for_model, surrogate_cost
from pandora_hedge.distkit import mean, min_of_independent
from pandora_hedge.indices import SurrogateKind, compute_indices, surrogate_dist
from pandora_hedge.oracle import _dp_items
from pandora_hedge.policies import IntegerGrid, array_dtype, coin_columns, commit_enum_labeling, price_columns


def brute_min_atoms(dists):
    """Distribution of min of independent draws by full product enumeration."""
    atoms: dict = {}
    for combo in itertools.product(*(d.atoms for d in dists)):
        p = 1
        for _, q in combo:
            p = p * q
        v = min(v for v, _ in combo)
        atoms[v] = atoms.get(v, 0) + p
    return {v: p for v, p in atoms.items() if p != 0}


def reference_commit_enum(instance: Instance):
    """Commit-enum by one full ``min_of_independent`` convolution per
    candidate: the N + 1 values (all-obligatory first, then item n as a point
    mass at its mean) and the labels, with ties to all-obligatory, then to
    the lowest id."""
    oi_dists = [surrogate_dist(item, SurrogateKind.OI) for item in instance.items]

    def value(skip):
        parts = [
            DiscreteDist.point_mass(instance.indices[n].mu) if n == skip else d
            for n, d in enumerate(oi_dists)
        ]
        return mean(min_of_independent(parts))

    best_skip = None
    best_value = value(None)
    values = [best_value]
    for n in range(len(instance)):
        v = value(n)
        values.append(v)
        if v < best_value:
            best_value, best_skip = v, n
    labels = tuple(n != best_skip for n in range(len(instance)))
    return values, labels


def direct_capped_sum(dist: DiscreteDist, r):
    return added(p * min(v, r) for v, p in dist.atoms)


def price_realizations(instance: Instance):
    """Every price row of the product of the supports."""
    return itertools.product(*(item.dist.values for item in instance.items))


def reservation_engine(keys, costs):
    """Weitzman's search on a key/cost view (see ``hedged_view``), one trial
    at a time: the reference for the library's array form.

    Sorts once; the returned ``run(prices, paid=prices)`` inspects in
    ascending key order (ties by id), stops when the best observed price is
    at most the next key, and selects the cheapest observation (ties by id),
    charged its ``paid`` price.  It returns (inspected ids in order, selected
    ids, total, terminal cost 0).
    """
    order = sorted(range(len(keys)), key=lambda n: (keys[n], n))

    def run(prices, paid=None):
        paid = prices if paid is None else paid
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
        return inspected, (best_id,), added(costs[n] for n in inspected) + paid[best_id], 0

    return run


def frugal_engine(model, rule):
    """The frugal composition of ``rule`` as an engine on a key/cost view,
    one trial at a time.

    ``engine(keys, costs)`` returns ``run(prices, paid=prices)``: tentative
    prices start at the keys; a proposed uninspected item is inspected (its
    tentative price becomes the view price, floored at its key), a proposed
    inspected item is selected.  Each event is charged as it happens: an
    inspection its cost, a selection its ``paid`` price.  ``run`` returns
    (inspected ids in order, selected ids, total including the terminal cost,
    terminal cost).
    """

    def engine(keys, costs):
        def run(prices, paid=None):
            paid = prices if paid is None else paid
            tau = list(keys)
            inspected: set[int] = set()
            selected: set[int] = set()
            order: list[int] = []
            total = 0
            for _ in range(2 * len(keys) + 1):
                prop = rule.propose(tau, frozenset(selected), frozenset(inspected), model)
                if prop is None:
                    if not model.is_feasible(frozenset(selected)):
                        raise RuleError("rule declared completion with an infeasible set")
                    terminal = model.terminal_cost(frozenset(selected))
                    return order, selected, total + terminal, terminal
                if prop in selected:
                    raise RuleError(f"rule proposed already-selected item {prop}")
                if prop not in inspected:
                    inspected.add(prop)
                    order.append(prop)
                    total = total + costs[prop]
                    v = prices[prop]
                    tau[prop] = v if v > keys[prop] else keys[prop]
                else:
                    selected.add(prop)
                    total = total + paid[prop]
            raise RuleError("rule failed to terminate")

        return run

    return engine


def obligatory_run(instance: Instance, engine):
    """One trial of obligatory inspection on ``engine``: every item keeps its
    reservation price and cost, and the trial is charged the engine's own
    total."""
    search = engine(instance.reservation_prices, [item.cost for item in instance.items])

    def run(realization, coins=None):
        inspected, selected, total, _ = search(realization.prices)
        return PolicyTrace(tuple(inspected), frozenset(selected), frozenset(), total)

    return run


def added(values):
    """``values`` added left to right from 0, as ``distkit.running_sum``
    adds them: the tests' own copy, so that a broken ``running_sum`` shows."""
    total = 0
    for v in values:
        total = total + v
    return total


def hedged_trace(instance: Instance, engine, realization: Realization, labels) -> PolicyTrace:
    """One trial of local hedging on any engine: the engine searches the
    ``hedged_view`` and charges each event as it happens: a labelled item's
    cost at its inspection, an unlabelled one's 0, every selected item's
    realized price at its selection, then the terminal cost."""
    keys, costs, seen = hedged_view(instance, labels, realization.prices)
    inspected, selected, total, _ = engine(keys, costs)(seen, realization.prices)
    order = tuple(n for n in inspected if labels[n])
    return PolicyTrace(
        inspection_order=order,
        selected=frozenset(selected),
        selected_without_inspection=frozenset(n for n in selected if not labels[n]),
        total_cost=total,
        labels=labels,
    )


def reference_policy(instance: Instance, policy: str):
    """One-trial ``run(realization, coins=None)`` of a single-item policy,
    built on the reference engines (and, for the diagnostics, on their
    definitions)."""
    if policy == "weitzman":
        return obligatory_run(instance, reservation_engine)
    if policy == "local-hedging":
        return lambda realization, coins: hedged_trace(instance, reservation_engine, realization, coins.labels)
    if policy == "commit-enum":
        labels = commit_enum_labeling(instance).labels
        return lambda realization, coins=None: hedged_trace(instance, reservation_engine, realization, labels)
    ids = tuple(range(len(instance)))
    if policy == "inspect-all":

        def inspect_all(realization, coins=None):
            prices = realization.prices
            sel = min(ids, key=lambda n: (prices[n], n))
            return PolicyTrace(ids, frozenset({sel}), frozenset(), added(i.cost for i in instance.items) + prices[sel])

        return inspect_all
    assert policy == "never-inspect"
    sel = min(ids, key=lambda n: (instance.indices[n].mu, n))
    return lambda realization, coins=None: PolicyTrace((), frozenset({sel}), frozenset({sel}), realization.prices[sel])


def reference_comb_policy(model, instance: Instance, policy: str, rule=None):
    """One-trial ``run(realization, coins=None)`` of a combinatorial policy
    on the reference frugal engine."""
    engine = frugal_engine(model, rule_for_model(model) if rule is None else rule)
    if policy == "frugal-oi":
        return obligatory_run(instance, engine)
    assert policy == "local-hedging"
    return lambda realization, coins: hedged_trace(instance, engine, realization, coins.labels)


def enumerate_lh_cost(instance: Instance):
    """Expected hedged-policy cost by enumerating coins and full price
    products, charging realized prices through the reference trace path."""
    n = len(instance)
    total = 0
    for labels in itertools.product((True, False), repeat=n):
        weight = 1
        for m, lab in enumerate(labels):
            p = instance.indices[m].p_hedge
            weight = weight * (p if lab else 1 - p)
        if weight == 0:
            continue
        coins = HedgeCoins(labels)
        for combo in itertools.product(*(item.dist.atoms for item in instance.items)):
            prob = weight
            for _, q in combo:
                prob = prob * q
            trace = hedged_trace(instance, reservation_engine, Realization(tuple(v for v, _ in combo)), coins.labels)
            total = total + prob * trace.total_cost
    return total


def seeded_trials(instance: Instance, seed: int, start: int, count: int):
    """Realizations and hedge coins of trials start..start+count-1: the
    columns of ``price_columns`` and ``coin_columns``, one row per trial."""
    prices = price_columns(instance, seed, start, count, object).T.tolist()
    coins = coin_columns(instance, seed, start, count).T.tolist()
    return [Realization(tuple(r)) for r in prices], [HedgeCoins(tuple(c)) for c in coins]


def two_point_item(exact=True, item_id=0) -> Item:
    if exact:
        return Item(item_id, F(2), DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2)))))
    return Item(item_id, 2.0, DiscreteDist(((0.0, 0.5), (10.0, 0.5))))


def golden_pair(exact=True) -> Instance:
    """Point mass 5 at cost 0 next to the two-point item at cost 2."""
    if exact:
        a = Item(0, F(0), DiscreteDist.point_mass(F(5)))
    else:
        a = Item(0, 0.0, DiscreteDist.point_mass(5.0))
    return Instance([a, two_point_item(exact, item_id=1)])


def _two_point(lo, hi):
    return DiscreteDist(((lo, F(1, 2)), (hi, F(1, 2))))


def big_grid() -> Instance:
    """Denominators are distinct primes near 10^5, so L exceeds 10^20 and
    L times the largest value is far above 2^53."""
    primes = (100003, 100019, 100043, 100049)
    return Instance([Item(n, F(1, p), _two_point(F(p + n, p), F(3 * p + 1, p))) for n, p in enumerate(primes)])


def wide_grid() -> Instance:
    """Every scaled number is below 2^32 but L = 8 * 100000007 * 100000037
    has 57 bits, so a float64 L is inexact: four two-point items {0, v},
    v = (1 + n) / d with d alternating between the two primes, at cost v / 8."""
    items = []
    for n in range(4):
        v = F(1 + n, (100000007, 100000037)[n % 2])
        items.append(Item(n, v / 8, _two_point(F(0), v)))
    return Instance(items)


def all_int() -> Instance:
    """Int costs, values and indices (given, as ints): an exact instance
    whose price arrays are float64."""
    pairs = [(1, (0, 4)), (0, (1, 3)), (1, (0, 8)), (2, (5, 7))]
    items = [Item(n, c, _two_point(lo, hi)) for n, (c, (lo, hi)) in enumerate(pairs)]
    indices = []
    for item in items:
        ix = compute_indices(item)
        indices.append(replace(ix, mu=int(ix.mu), u_rsv=int(ix.u_rsv), u_bkp=int(ix.u_bkp)))
        assert (ix.mu, ix.u_rsv, ix.u_bkp) == (indices[-1].mu, indices[-1].u_rsv, indices[-1].u_bkp)
    return Instance(items, indices)


def _tmin(a, b):
    """min with None as the top element."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def reference_opt_value_single(instance: Instance, allow_uninspected: bool):
    """The single-item DP on the instance's own numbers (``Fraction`` in
    exact mode): the reference for the library's integer recursion."""
    items = instance.items
    indices = instance.indices
    n = len(items)

    @lru_cache(maxsize=None)
    def val(mask, best):
        options = [best] if best is not None else []
        rest = mask
        while rest:
            bit = rest & -rest
            m = bit.bit_length() - 1
            rest ^= bit
            if allow_uninspected:
                options.append(indices[m].mu)
            inspect = items[m].cost
            for v, p in items[m].dist.atoms:
                inspect = inspect + p * val(mask ^ bit, _tmin(best, v))
            options.append(inspect)
        return min(options)

    return val((1 << n) - 1, None)


def recursive_opt_value_comb_noi(model, instance: Instance):
    """The combinatorial NOI DP as a recursion over full observation states,
    where a selection is an action of its own: each item uninspected,
    observed at its k-th support value or selected, with the bitmask of the
    selected set.  It runs on the ``IntegerGrid`` as ``opt_value_comb_noi``
    does, with feasibility and the terminal cost computed once per selected
    set: the reference for deferring every selection to the stop."""
    grid = IntegerGrid(instance, model)
    items = _dp_items(grid, instance)
    n = len(items)
    UNINSPECTED = 0
    SELECTED = -1
    unit = grid.D // grid.L
    finish = {}  # selected bitmask -> terminal option, None if infeasible

    def terminal(chosen):
        if chosen not in finish:
            selected = frozenset(m for m in range(n) if chosen >> m & 1)
            finish[chosen] = unit * grid.model.terminal_cost(selected) if model.is_feasible(selected) else None
        return finish[chosen]

    @lru_cache(maxsize=None)
    def val(state, chosen):
        done = terminal(chosen)
        options = [] if done is None else [done]
        for m in range(n):
            code = state[m]
            if code == SELECTED:
                continue
            inspect, atoms, q, mu = items[m]
            select = state[:m] + (SELECTED,) + state[m + 1 :]
            if code == UNINSPECTED:
                for k, (v, p) in enumerate(atoms):
                    inspect = inspect + p * val(state[:m] + (k + 1,) + state[m + 1 :], chosen)
                options.append(inspect if q == 1 else inspect // q)
                options.append(mu + val(select, chosen | 1 << m))
            else:
                options.append(atoms[code - 1][0] + val(select, chosen | 1 << m))
        return min(options)

    return grid.leave(val((UNINSPECTED,) * n, 0), grid.D)


def reference_opt_value_comb_noi(model, instance: Instance):
    """The combinatorial NOI DP with every selection deferred to the stop,
    on the instance's own numbers: a state holds each item's observed price,
    or None while it is uninspected, and its stop value is ``surrogate_cost``
    with every uninspected item at its mean.  The reference for the
    library's integer sweep."""
    items = instance.items
    mus = [ix.mu for ix in instance.indices]
    n = len(items)

    @lru_cache(maxsize=None)
    def val(seen):
        options = [surrogate_cost(model, [mu if v is None else v for v, mu in zip(seen, mus)])[0]]
        for m in range(n):
            if seen[m] is None:
                inspect = items[m].cost
                for v, p in items[m].dist.atoms:
                    inspect = inspect + p * val(seen[:m] + (v,) + seen[m + 1 :])
                options.append(inspect)
        return min(options)

    return val((None,) * n)


def reference_price_rows(dists, ids, base, weight=1):
    """(probability, price row) over the product of ``dists[n]`` for n in
    ``ids``, the probability a chain of products of the atoms' own
    probabilities; every other entry keeps its ``base`` value."""
    for atoms in itertools.product(*(dists[n].atoms for n in ids)):
        prob = weight
        row = list(base)
        for n, (v, p) in zip(ids, atoms):
            row[n] = v
            prob = prob * p
        yield prob, row


def reference_weighted_columns(instance: Instance, p_hedge):
    """(weight, price row, labels) over the label vectors of ``p_hedge``,
    weights as products of the probabilities themselves: the reference for
    the library's int weight numerators."""
    dists = [item.dist for item in instance.items]
    mus = [ix.mu for ix in instance.indices]
    varying = [n for n, p in enumerate(p_hedge) if 0 < p < 1]
    for combo in itertools.product((True, False), repeat=len(varying)):
        labels = [p == 1 for p in p_hedge]
        weight = 1
        for n, lab in zip(varying, combo):
            labels[n] = lab
            weight = weight * (p_hedge[n] if lab else 1 - p_hedge[n])
        for prob, row in reference_price_rows(dists, [n for n, lab in enumerate(labels) if lab], mus, weight):
            yield prob, row, labels


def reference_evaluate_exact(prepared):
    """Exact value of a prepared policy on its instance: its array form on
    the grid, summed with the reference weights, leaving as ``Fraction(total, L)`` (or as it
    is when every cost, support value, probability and grid number is an
    int).  Local hedging enumerates its label vectors.  In exact mode every
    other policy enumerates every realization; in float mode it labels the
    items of its own fixed labels and prices the others at their mean."""
    instance = prepared.instance
    grid = IntegerGrid(instance, prepared.model)
    if prepared.draws_coins:
        p_hedge = [ix.p_hedge for ix in instance.indices]
    else:
        p_hedge = [1 if grid.exact or lab else 0 for lab in prepared.labels]
    batch = prepared.batch(grid)
    number = int if grid.exact else float
    total = 0
    for w, row, labels in reference_weighted_columns(grid.instance, p_hedge):
        coins = np.array([labels], dtype=bool).T if prepared.draws_coins else None
        (t,) = batch(np.array([row], dtype=array_dtype(grid.instance)).T, coins)
        total = total + w * number(t)
    distances = [d for row in prepared.model.terminal.distances for d in row] if prepared.model else []
    numbers = [*distances, *(x for i in instance.items for x in (i.cost, *i.dist.values, *i.dist.probs))]
    return F(total, grid.L) if grid.exact and any(type(x) is not int for x in numbers) else total


def reference_expected_surrogate_cost(model, instance: Instance, kind):
    """E[Z] by product enumeration on the instance's own numbers."""
    dists = [surrogate_dist(item, kind) for item in instance.items]
    total = 0
    for prob, prices in reference_price_rows(dists, range(len(dists)), [None] * len(dists)):
        total = total + prob * surrogate_cost(model, prices)[0]
    return total

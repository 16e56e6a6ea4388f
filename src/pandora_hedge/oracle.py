"""Exact optimal adaptive policies by dynamic programming, plus the exact
one-shot lower bound E[min W^pi] of a policy's inspections (``pi_surrogate_bound``).

Every optimum is one DP, ``_opt_value``: single-item selection is the rank-1
uniform matroid.  Selecting reveals nothing and costs the same whenever it
happens, so every selection is deferred to the stop (Doval, JET 2018).  The
DP runs on the instance's ``IntegerGrid``: in exact mode on Python ints over
one common denominator D = L x Q_1 x ... x Q_N (Q_n: the lcm of item n's
probability denominators).  The value of a state whose uninspected items are
U is a multiple of 1/(L x prod of Q_n over U), so an inspect branch of item
m, (Q_m cost_D + sum_k Q_m p_k x val_D(child_k)) // Q_m, divides exactly:
item m is no longer uninspected in any child.  In float mode the grid passes
the instance's own numbers through with D = Q_m = 1, so the same DP runs in
the same order of operations.  The optimum leaves by ``IntegerGrid.leave``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np

from .budget import DEFAULT_BUDGET, check_budget
from .combinatorial import CombModel, UniformMatroid, ZeroTerminal, _surrogate_dtypes, surrogate_costs
from .distkit import Numeric, expected_shortfall, running_sum
from .instance import Instance
from .policies import IntegerGrid, _digits, _exact_columns, _weighted_sum, array_dtype, prepare_policy
from .sampling import trial_chunks


def _single_dp_cost(instance: Instance) -> int:
    n = len(instance)
    total_support = running_sum(len(item.dist) for item in instance.items)
    return (2**n) * (total_support + 1) * n


def opt_value_single_noi(instance: Instance, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Optimal expected cost when uninspected items may be selected."""
    check_budget(_single_dp_cost(instance), budget, "single-item DP")
    return _opt_value(CombModel(UniformMatroid(1), ZeroTerminal(), len(instance)), instance, True)


def opt_value_single_oi(instance: Instance, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Optimal expected cost when only inspected items may be selected."""
    check_budget(_single_dp_cost(instance), budget, "single-item DP")
    return _opt_value(CombModel(UniformMatroid(1), ZeroTerminal(), len(instance)), instance, False)


def _dp_items(grid: IntegerGrid, instance: Instance) -> list[tuple]:
    """Per item, the DP's (inspect start, atoms, Q_m, mean) in units of 1/D:
    the start is Q_m x cost and the atoms are (value, Q_m x probability)
    pairs, ints in exact mode and the instance's own numbers in float mode."""
    unit, scaled = grid.D // grid.L, grid.instance
    return [
        (q * unit * item.cost, tuple((v * unit, p) for v, p in atoms), q, unit * ix.mu)
        for item, ix, (q, atoms) in zip(scaled.items, scaled.indices, grid.dists)
    ]


def _comb_dp_cost(model: CombModel, instance: Instance) -> int:
    """The deferred DP's work: prod (s_m + 1) observation states, each with at
    most sum s_m inspect-branch terms."""
    sizes = [len(item.dist) for item in instance.items]
    return math.prod(s + 1 for s in sizes) * running_sum(sizes)


def _stop_values(grid: IntegerGrid, rows: list[tuple]) -> list:
    """The stop value of each observation state in units of 1/D:
    ``surrogate_costs`` on the states as columns, one ``trial_chunks`` chunk
    at a time, item m's price (in units of 1/L) being ``rows[m]`` at the
    state's m-th ``_digits``, times D/L (exact on ints, 1 in float mode)."""
    dtype, pool = _surrogate_dtypes(grid.model, rows)
    lookup, sizes = [np.array(row, dtype=dtype) for row in rows], [len(row) for row in rows]
    costs, unit = surrogate_costs(grid.model, pool), grid.D // grid.L
    stops = []
    for start, count in trial_chunks(math.prod(sizes)):
        digits = _digits(np.arange(start, start + count), sizes)
        stops += [unit * c for c in costs(np.array([row[d] for row, d in zip(lookup, digits)], dtype=dtype))]
    return stops


def opt_value_comb_noi(
    model: CombModel, instance: Instance, budget: int = DEFAULT_BUDGET
) -> Numeric:
    """Optimal expected cost of combinatorial selection with nonobligatory
    inspection (``_opt_value``)."""
    if model.n_items != len(instance):
        raise ValueError("model and instance disagree on the number of items")
    check_budget(_comb_dp_cost(model, instance), budget, "combinatorial DP")
    return _opt_value(model, instance, True)


def _opt_value(model: CombModel, instance: Instance, allow_uninspected: bool) -> Numeric:
    """The optimal expected cost of selecting a feasible set of ``model``, an
    uninspected item being selectable at its mean (NOI) or not at all (OI):
    a memoized recursion over (uninspected mask, observed prices), whose stop
    is the one-shot optimum over the state's prices and whose inspect branch
    of item m pays c_m and averages over X_m.

    - A uniform matroid of rank k with a zero terminal keeps the k lowest
      observed values, sorted: an observed item above them is never
      selected.  The stop adds the k lowest of those values and, under NOI,
      the uninspected means; under OI it waits for k observed items.  At
      k = 1 the state is (mask, best observed).
    - Any other model (NOI only) keeps each item's code as a ``_stop_values``
      index: observing item m at its j-th value adds j x stride_m, and the
      stop reads the batched table.

    Under NOI an item with c_n >= E[(mu_n - X_n)^+] (``expected_shortfall``
    on the instance's own numbers) never enters the mask, its mean joins
    every stop and its table row is that mean alone.  Some optimal policy
    never inspects it: given any policy pi, let pi' draw an independent copy
    X'_n for free where pi would inspect n, and select n uninspected where pi
    selects it.  Both select the same sets; pi' saves c_n P(pi inspects n)
    and pays at most E[(mu_n - X'_n)^+ 1{pi inspects n}] = P(pi inspects n)
    E[(mu_n - X_n)^+] more, since pi decides to inspect before X'_n shows.
    The argument selects uninspected items, so OI never prunes."""
    grid = IntegerGrid.of(instance, model)
    items = _dp_items(grid, instance)
    pairs = zip(instance.items, instance.indices)
    kept = [not allow_uninspected or item.cost < expected_shortfall(item.dist, ix.mu) for item, ix in pairs]
    if type(model.family) is UniformMatroid and type(model.terminal) is ZeroTerminal:
        k, start = model.family.k, ()
        fixed = sorted(mu for (*_, mu), keep in zip(items, kept) if not keep)[:k]
        by_mean = sorted((mu, m) for m, ((*_, mu), keep) in enumerate(zip(items, kept)) if keep and allow_uninspected)

        def stop(mask, lows):
            means = [mu for mu, m in by_mean if mask >> m & 1][:k]
            prices = sorted((*lows, *fixed, *means))[:k]
            return [running_sum(prices)] if len(prices) == k else []

        def child(lows, m, v):
            if len(lows) == k and v >= lows[-1]:
                return lows
            at = bisect_right(lows, v)
            return lows[:at] + (v,) + lows[at : k - 1]

    else:
        scaled = zip(grid.instance.items, grid.instance.indices, kept)
        rows = [(ix.mu, *item.dist.values) if keep else (ix.mu,) for item, ix, keep in scaled]
        strides, start = [math.prod(len(row) for row in rows[m + 1 :]) for m in range(len(rows))], 0
        table = _stop_values(grid, rows)
        stop = lambda mask, index: [table[index]]
        offsets = [{v: j * s for j, (v, _) in enumerate(atoms, 1)} for (_, atoms, *_), s in zip(items, strides)]
        child = lambda index, m, v: index + offsets[m][v]

    @lru_cache(maxsize=None)
    def val(mask: int, key) -> Numeric:
        options = stop(mask, key)  # none under OI before k items are observed
        rest = mask
        while rest:
            bit = rest & -rest
            m = bit.bit_length() - 1
            rest ^= bit
            inspect, atoms, q, _ = items[m]
            for v, p in atoms:
                inspect = inspect + p * val(mask ^ bit, child(key, m, v))
            options.append(inspect if q == 1 else inspect // q)
        return min(options)

    try:
        opt = val(running_sum(1 << m for m, keep in enumerate(kept) if keep), start)
    finally:
        val.cache_clear()
    return grid.leave(opt, grid.D)


def pi_surrogate_bound(instance: Instance, policy: str, budget: int = DEFAULT_BUDGET) -> Numeric:
    """The exact policy-dependent one-shot lower bound E[min W^pi]: W^pi_n is
    max(X_n, u_rsv) if the policy's kernel, run on ``evaluate_exact``'s grid
    columns, inspected item n, else mu_n; summed by ``_weighted_sum``."""
    prepared = prepare_policy(instance, policy)  # labelled once, on the instance's own numbers
    grid, denominator, chunks = _exact_columns(instance, None, prepared.label_probs, budget, "pi-surrogate bound")
    record, dtype = prepared.kernel(grid.instance, None), array_dtype(grid.instance)
    u_rsv = np.array(grid.instance.reservation_prices, dtype=dtype)[:, None]
    mu = np.array([ix.mu for ix in grid.instance.indices], dtype=dtype)[:, None]

    def w_pi(prices, labels):
        _, order, inspected, _ = record(prices, labels if prepared.draws_coins else None)
        mask = np.zeros(prices.shape, dtype=bool)
        mask[order] = inspected
        return map(grid.number, np.where(mask, np.maximum(prices, u_rsv), mu).min(axis=0).tolist())

    return _weighted_sum(grid, denominator, chunks(dtype), w_pi)

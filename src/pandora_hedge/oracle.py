"""Exact optimal adaptive policies by dynamic programming, plus the exact
policy-dependent one-shot lower bound E[min W^pi] (``pi_surrogate_bound``).

The single-item recursions compress the observation history to the best
observed price, which is sufficient because only the cheapest inspected item
is ever worth selecting.  The best-observed sentinel is an algebraic top
element (None), never a floating-point infinity.  The combinatorial DP
defers every selection to the stop: selecting reveals nothing and costs the
same whenever it happens, so a state is only each item's observation
(uninspected, or observed at one support value), prod (s_m + 1) states, and
its stop value is the one-shot optimum over its prices, which
``combinatorial.surrogate_costs`` gives for a batch of states at once.

The DPs run on the instance's ``IntegerGrid``.  In exact mode they
run on Python ints over one common denominator D = L x Q_1 x ... x Q_N
(Q_n: the lcm of item n's probability denominators).  Every DP value is a
multiple of 1/D, and the value of a state whose uninspected items are U is
even a multiple of 1/(L x prod of Q_n over U), so an inspect branch of item
m is

    cost_D + (sum_k Q_m p_k x val_D(child_k)) // Q_m,

computed as (Q_m cost_D + sum_k ...) // Q_m, and the division is exact:
item m is no longer uninspected in any child.  In float mode the grid passes
the instance's own numbers through with D = Q_m = 1, so the same DP runs
in the same order of operations.  The optimum leaves by
``IntegerGrid.leave``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .budget import DEFAULT_BUDGET, check_budget
from .combinatorial import CombModel, _surrogate_dtypes, surrogate_costs
from .distkit import Numeric, running_sum
from .instance import Instance
from .policies import IntegerGrid, _digits, _exact_columns, _weighted_sum, prepare_policy
from .sampling import trial_chunks


def _tmin(a, b):
    """min with None as the top element."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _single_dp_cost(instance: Instance) -> int:
    n = len(instance)
    total_support = running_sum(len(item.dist) for item in instance.items)
    return (2**n) * (total_support + 1) * n


def opt_value_single_noi(instance: Instance, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Optimal expected cost when uninspected items may be selected."""
    return _opt_value_single(instance, budget, allow_uninspected=True)


def opt_value_single_oi(instance: Instance, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Optimal expected cost when only inspected items may be selected."""
    return _opt_value_single(instance, budget, allow_uninspected=False)


def _dp_items(grid: IntegerGrid, instance: Instance) -> list[tuple]:
    """Per item, the DP's (inspect start, atoms, Q_m, mean) in units of 1/D:
    the start is Q_m x cost and the atoms are (value, Q_m x probability)
    pairs, ints in exact mode and the instance's own numbers in float mode."""
    unit, scaled = grid.D // grid.L, grid.instance
    pairs = (grid.atoms(item.dist) for item in instance.items)
    return [
        (q * unit * item.cost, tuple((v * unit, p) for v, p in atoms), q, unit * ix.mu)
        for item, ix, (q, atoms) in zip(scaled.items, scaled.indices, pairs)
    ]


def _opt_value_single(instance: Instance, budget: int, allow_uninspected: bool) -> Numeric:
    check_budget(_single_dp_cost(instance), budget, "single-item DP")
    grid = IntegerGrid(instance)
    items = _dp_items(grid, instance)
    n = len(items)

    @lru_cache(maxsize=None)
    def val(mask: int, best: Optional[Numeric]) -> Numeric:
        options = [best] if best is not None else []
        rest = mask
        while rest:
            bit = rest & -rest
            m = bit.bit_length() - 1
            rest ^= bit
            inspect, atoms, q, mu = items[m]
            if allow_uninspected:
                options.append(mu)
            for v, p in atoms:
                inspect = inspect + p * val(mask ^ bit, _tmin(best, v))
            options.append(inspect if q == 1 else inspect // q)
        if not options:
            raise AssertionError("no action available: empty mask with no observation")
        return min(options)

    try:
        opt = val((1 << n) - 1, None)
    finally:
        val.cache_clear()
    return grid.leave(opt, grid.D)


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
    inspection.  Selecting reveals nothing and costs the same whenever it
    happens, so every selection is deferred to the stop: a state is each
    item's code (uninspected, or observed at its k-th support value), and
    its stop value is the one-shot optimum over its prices, an item's price
    being its observed value, or its mean while uninspected
    (``_stop_values``).  The codes are a state's ``_digits``, the last item
    fastest, so an inspect branch of item m leads to state + k x stride_m,
    a larger index, and one backward sweep over the indices solves the DP."""
    if model.n_items != len(instance):
        raise ValueError("model and instance disagree on the number of items")
    check_budget(_comb_dp_cost(model, instance), budget, "combinatorial DP")
    grid = IntegerGrid(instance, model)
    items = _dp_items(grid, instance)
    rows = [(ix.mu, *item.dist.values) for item, ix in zip(grid.instance.items, grid.instance.indices)]
    sizes = [len(row) for row in rows]
    strides = [math.prod(sizes[m + 1 :]) for m in range(len(rows))]
    val = _stop_values(grid, rows)
    for state in reversed(range(len(val))):
        best = val[state]
        for (inspect, atoms, q, _), digit, stride in zip(items, _digits(state, sizes), strides):
            if digit:
                continue  # observed
            for k, (_, p) in enumerate(atoms, 1):
                inspect = inspect + p * val[state + k * stride]
            inspect = inspect if q == 1 else inspect // q
            if inspect < best:
                best = inspect
        val[state] = best
    return grid.leave(val[0], grid.D)


def pi_surrogate_bound(instance: Instance, policy: str, budget: int = DEFAULT_BUDGET) -> Numeric:
    """The exact policy-dependent one-shot lower bound E[min W^pi]: W^pi_n is
    max(X_n, u_rsv) if the policy's trace inspected item n, else mu_n, on
    object arrays of ``evaluate_exact``'s columns, by ``_weighted_sum``."""
    prepared = prepare_policy(instance, policy)  # labelled once; its traces run on the instance's own numbers
    grid, denominator, chunks = _exact_columns(instance, None, prepared.label_probs, budget, "pi-surrogate bound")

    def w_pi(prices, labels):
        traces = prepared.traces(prices * Fraction(1, grid.L), labels if prepared.draws_coins else None)
        for row, trace in zip(prices.T.tolist(), traces):
            inspected = set(trace.inspection_order)
            pairs = enumerate(zip(row, grid.instance.indices))
            yield grid.number(min(max(x, ix.u_rsv) if n in inspected else ix.mu for n, (x, ix) in pairs))

    return _weighted_sum(grid, denominator, chunks(object), w_pi)

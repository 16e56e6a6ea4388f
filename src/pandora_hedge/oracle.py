"""Exact optimal adaptive policies by dynamic programming, plus the
policy-dependent Monte Carlo lower bound.

The single-item recursions compress the observation history to the best
observed price, which is sufficient because only the cheapest inspected item
is ever worth selecting; the combinatorial recursion keeps the full
observation map, since which items remain selectable depends on the feasible
family.  The best-observed sentinel is an algebraic top element (None), never
a floating-point infinity.

The recursions run on the instance's ``IntegerGrid``.  In exact mode they
run on Python ints over one common denominator D = L x Q_1 x ... x Q_N
(Q_n: the lcm of item n's probability denominators).  Every DP value is a
multiple of 1/D, and the value of a state whose uninspected items are U is
even a multiple of 1/(L x prod of Q_n over U), so an inspect branch of item
m is

    cost_D + (sum_k Q_m p_k x val_D(child_k)) // Q_m,

computed as (Q_m cost_D + sum_k ...) // Q_m, and the division is exact:
item m is no longer uninspected in any child.  In float mode the grid passes
the instance's own numbers through with D = Q_m = 1, so the same recursion
runs in the same order of operations.  The optimum leaves by
``IntegerGrid.leave``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .budget import DEFAULT_BUDGET, check_budget
from .combinatorial import CombModel
from .distkit import Numeric
from .instance import Instance
from .policies import IntegerGrid, iter_trials, prepare_policy
from .sampling import mc_summary


def _tmin(a, b):
    """min with None as the top element."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _single_dp_cost(instance: Instance) -> int:
    n = len(instance)
    total_support = sum(len(item.dist) for item in instance.items)
    return (2**n) * (total_support + 1) * n


def opt_value_single_noi(instance: Instance, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Optimal expected cost when uninspected items may be selected."""
    return _opt_value_single(instance, budget, allow_uninspected=True)


def opt_value_single_oi(instance: Instance, budget: int = DEFAULT_BUDGET) -> Numeric:
    """Optimal expected cost when only inspected items may be selected."""
    return _opt_value_single(instance, budget, allow_uninspected=False)


def _dp_items(grid: IntegerGrid) -> list[tuple]:
    """Per item, the DP's (inspect start, atoms, Q_m, mean) in units of 1/D:
    the start is Q_m x cost and the atoms are (value, Q_m x probability)
    pairs, ints in exact mode and the instance's own numbers in float mode."""
    unit = grid.D // grid.L
    return [
        (q * unit * item.cost, tuple((v * unit, p) for v, p in atoms), q, unit * ix.mu)
        for item, ix, q, atoms in zip(grid.instance.items, grid.instance.indices, grid.Q, grid.item_atoms)
    ]


def _opt_value_single(instance: Instance, budget: int, allow_uninspected: bool) -> Numeric:
    check_budget(_single_dp_cost(instance), budget, "single-item DP")
    grid = IntegerGrid(instance)
    items = _dp_items(grid)
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
    states = 1
    for item in instance.items:
        states *= len(item.dist) + 2
    return states * len(instance) * (max(len(item.dist) for item in instance.items) + 2)


def opt_value_comb_noi(
    model: CombModel, instance: Instance, budget: int = DEFAULT_BUDGET
) -> Numeric:
    """Optimal expected cost of combinatorial selection with nonobligatory
    inspection, over full observation states.  Feasibility and the terminal
    cost are computed once per selected set."""
    if model.n_items != len(instance):
        raise ValueError("model and instance disagree on the number of items")
    check_budget(_comb_dp_cost(model, instance), budget, "combinatorial DP")
    grid = IntegerGrid(instance, model)
    items = _dp_items(grid)
    n = len(items)
    UNINSPECTED = 0
    SELECTED = -1
    unit = grid.D // grid.L
    finish: dict[int, Optional[Numeric]] = {}  # selected bitmask -> terminal option, None if infeasible

    def terminal(chosen: int) -> Optional[Numeric]:
        if chosen not in finish:
            selected = frozenset(m for m in range(n) if chosen >> m & 1)
            finish[chosen] = unit * grid.model.terminal_cost(selected) if model.is_feasible(selected) else None
        return finish[chosen]

    @lru_cache(maxsize=None)
    def val(state: tuple[int, ...], chosen: int) -> Numeric:
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

    try:
        opt = val((UNINSPECTED,) * n, 0)
    finally:
        val.cache_clear()
    return grid.leave(opt, grid.D)


def pi_surrogate_bound(
    instance: Instance, policy: str, trials: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo estimate of the policy-dependent one-shot lower bound.

    Per trial, each item contributes its realized price floored at its
    reservation price when the policy inspected it, and its mean otherwise;
    the bound is the expectation of the minimum contribution.
    """
    indices = instance.indices

    def bound(realization, trace):
        inspected = set(trace.inspection_order)
        w = None
        for m in range(len(instance)):
            if m in inspected:
                v = realization.prices[m]
                contrib = v if v > indices[m].u_rsv else indices[m].u_rsv
            else:
                contrib = indices[m].mu
            w = _tmin(w, contrib)
        return w

    trials_run = iter_trials(instance, prepare_policy(instance, policy), seed, trials)
    return mc_summary(bound(realization, trace) for realization, trace in trials_run)

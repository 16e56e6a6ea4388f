"""Exact evaluation runs each policy's array form on the integer grid: its
value equals a weighted enumeration through the per-trial ``run`` on the
instance's own numbers, in value and type, and bit for bit in float mode."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from pandora_hedge import (
    DiscreteDist,
    HedgeCoins,
    Instance,
    Item,
    Realization,
    evaluate_comb_policy_exact,
    evaluate_policy_exact,
    prepare_comb_policy,
)
from pandora_hedge import policies
from pandora_hedge.combinatorial import COMB_POLICIES, frugal_engine, rule_for_model
from pandora_hedge.instance import hedged_view
from pandora_hedge.policies import (
    SINGLE_POLICIES,
    IntegerGrid,
    array_dtype,
    coin_columns,
    evaluate_exact,
    prepare_policy,
    price_columns,
)
from pandora_hedge.randgen import random_comb_instance, random_instance

from helpers import all_int, big_grid, enumerate_lh_cost, seeded_trials, wide_grid
from test_batch_mc import single_item
from test_batch_mc import tie_heavy as single_tie_heavy
from test_grid_mc import _exact_cases as comb_exact_cases
from test_grid_mc import _random_models as comb_random_models
from test_grid_mc import tie_heavy, uniform

RANDOM_CASES = 100


def _labelled_rows(instance, draws_coins):
    """(weight, labels, price row) in ``evaluate_exact``'s order, on the
    instance's own numbers."""
    p_hedge = [ix.p_hedge for ix in instance.indices]
    varying = [n for n, p in enumerate(p_hedge) if 0 < p < 1] if draws_coins else []
    for combo in itertools.product((True, False), repeat=len(varying)):
        labels = [p == 1 for p in p_hedge] if draws_coins else [True] * len(instance)
        weight = 1
        for n, lab in zip(varying, combo):
            labels[n] = lab
            weight = weight * (p_hedge[n] if lab else 1 - p_hedge[n])
        ids = [n for n, lab in enumerate(labels) if lab]
        for atoms in itertools.product(*(instance.items[n].dist.atoms for n in ids)):
            prob = weight
            row = [ix.mu for ix in instance.indices]
            for n, (v, p) in zip(ids, atoms):
                row[n] = v
                prob = prob * p
            yield prob, tuple(labels), tuple(row)


def reference_value(instance, prepared):
    """Weighted enumeration through ``prepared.run``: label vectors with
    unlabelled items at their mean for a policy that draws coins,
    realizations otherwise."""
    total = 0
    for prob, labels, row in _labelled_rows(instance, prepared.draws_coins):
        coins = HedgeCoins(labels) if prepared.draws_coins else None
        total = total + prob * prepared.run(Realization(row), coins).total_cost
    return total


def _assert_same(got, expected):
    assert type(got) is type(expected) and got == expected


def _single_cases(exact):
    rng = random.Random(71 if exact else 70)
    for _ in range(RANDOM_CASES):
        yield random_instance(rng, max_items=4, exact=exact)
    for kind in ("exact",) if exact else ("float", "int"):
        yield from (single_tie_heavy(kind), single_item(kind))
    if exact:
        yield from (big_grid(), wide_grid(), all_int())


def _comb_cases(exact):
    rng = random.Random(73 if exact else 72)
    for _ in range(RANDOM_CASES):
        yield random_comb_instance(rng, max_items=4, exact=exact)
    yield from comb_exact_cases() if exact else comb_random_models(False)
    if exact:
        for inst in (wide_grid(), all_int()):
            yield uniform(2, len(inst)), inst


@pytest.mark.parametrize("exact", [True, False])
class TestExactEqualsReference:
    def test_single_item(self, exact):
        for inst in _single_cases(exact):
            for policy in SINGLE_POLICIES:
                expected = reference_value(inst, prepare_policy(inst, policy))
                assert type(expected) is (F if exact else float)
                _assert_same(evaluate_policy_exact(inst, policy), expected)

    def test_combinatorial(self, exact):
        for model, inst in _comb_cases(exact):
            for policy in COMB_POLICIES:
                expected = reference_value(inst, prepare_comb_policy(model, inst, policy))
                assert type(expected) is (F if exact else float)
                _assert_same(evaluate_comb_policy_exact(model, inst, policy), expected)

    def test_chunking_changes_no_value(self, exact, monkeypatch):
        cases = [(None, inst) for inst in itertools.islice(_single_cases(exact), 20)]
        cases += list(itertools.islice(_comb_cases(exact), 20))
        whole = [_values(model, inst) for model, inst in cases]
        monkeypatch.setattr(policies, "EXACT_CHUNK", 7)
        assert [_values(model, inst) for model, inst in cases] == whole


def _values(model, inst):
    if model is None:
        return [evaluate_policy_exact(inst, policy) for policy in SINGLE_POLICIES]
    return [evaluate_comb_policy_exact(model, inst, policy) for policy in COMB_POLICIES]


def test_hedged_value_equals_the_full_coin_enumeration():
    rng = random.Random(75)
    for _ in range(20):
        inst = random_instance(rng, max_items=4, max_support=3, exact=True)
        _assert_same(evaluate_policy_exact(inst, "local-hedging"), enumerate_lh_cost(inst))


def _costly(values, cost):
    """Two-point items {lo, hi} (probability 1/2 each) at one cost."""
    return Instance([Item(n, cost, DiscreteDist(((lo, F(1, 2)), (hi, F(1, 2))))) for n, (lo, hi) in enumerate(values)])


def test_all_never_inspect_weights_are_ints():
    """Every item is too costly to inspect: one label vector, weight the int
    1, yet the value is a Fraction, not an int quotient."""
    inst = _costly([(F(1), F(2)), (F(0), F(5, 3)), (F(1, 7), F(3))], F(9))
    assert all(ix.p_hedge == 0 for ix in inst.indices)
    rows = list(policies._weighted_columns(IntegerGrid(inst).instance, [ix.p_hedge for ix in inst.indices]))
    assert len(rows) == 1 and type(rows[0][0]) is int
    for policy in SINGLE_POLICIES:
        expected = reference_value(inst, prepare_policy(inst, policy))
        _assert_same(evaluate_policy_exact(inst, policy), expected)
    model = uniform(2, len(inst))
    for policy in COMB_POLICIES:
        expected = reference_value(inst, prepare_comb_policy(model, inst, policy))
        _assert_same(evaluate_comb_policy_exact(model, inst, policy), expected)


def test_hedged_enumeration_includes_the_all_unlabelled_vector():
    items = [tie_heavy().items[k] for k in (0, 4, 5)]
    inst = Instance([Item(n, item.cost, item.dist) for n, item in enumerate(items)])
    assert all(ix.p_hedge != 1 for ix in inst.indices) and any(0 < ix.p_hedge < 1 for ix in inst.indices)
    labels = [lab for _, _, lab in policies._weighted_columns(inst, [ix.p_hedge for ix in inst.indices])]
    assert labels[-1] == [False] * len(inst)
    _assert_same(evaluate_policy_exact(inst, "local-hedging"), reference_value(inst, prepare_policy(inst, "local-hedging")))
    model = uniform(1, len(inst))
    prepared = prepare_comb_policy(model, inst, "local-hedging")
    _assert_same(evaluate_comb_policy_exact(model, inst, "local-hedging"), reference_value(inst, prepared))


@pytest.mark.parametrize("exact", [True, False])
def test_support_product_beyond_one_chunk(exact):
    rng = random.Random(77)
    inst = random_instance(rng, n_items=5, max_support=4, exact=exact)
    while inst.support_product() <= policies.EXACT_CHUNK:
        inst = random_instance(rng, n_items=5, max_support=4, exact=exact)
    for policy in SINGLE_POLICIES:
        _assert_same(evaluate_policy_exact(inst, policy), reference_value(inst, prepare_policy(inst, policy)))
    model = uniform(2, len(inst))
    for policy in COMB_POLICIES:
        expected = reference_value(inst, prepare_comb_policy(model, inst, policy))
        _assert_same(evaluate_comb_policy_exact(model, inst, policy), expected)


def _view_order_value(model, inst):
    """Combinatorial local hedging summed in the frugal engine's own order
    (inspection costs and selected prices interleaved, then the terminal
    cost): how exact evaluation summed each trial before it ran on the grid."""
    engine = frugal_engine(model, rule_for_model(model))
    total = 0
    for prob, labels, row in _labelled_rows(inst, True):
        keys, costs, prices = hedged_view(inst, labels, row)
        total = total + prob * engine(keys, costs)(prices)[2]
    return total


def test_float_comb_hedging_moves_by_a_few_ulps_at_most():
    """A float trial's charges are now summed in its trace's order (Monte
    Carlo's), not the engine's, which may move the sum by a few ulps."""
    rng = random.Random(202)
    moved = 0
    for _ in range(160):
        model, inst = random_comb_instance(rng, max_items=5)
        got = evaluate_comb_policy_exact(model, inst, "local-hedging")
        before = _view_order_value(model, inst)
        assert type(got) is float and abs(got - before) <= 4 * math.ulp(before)
        moved += got != before
    assert moved > 0


@pytest.mark.parametrize("kind", ["int", "float-cost"])
def test_point_masses_with_int_probabilities(kind):
    """Every probability is the int 1.  With int costs and values too, the
    value is the int total; a float cost makes it a float, even where every
    charge is an int."""
    cost = {"int": 2, "float-cost": 2.5}[kind]
    inst = Instance([Item(0, cost, DiscreteDist(((7, 1),))), Item(1, 0, DiscreteDist(((9, 1),)))])
    for policy in ("never-inspect", "local-hedging"):
        got = evaluate_policy_exact(inst, policy)
        _assert_same(got, 7 if kind == "int" else 7.0)


class TestArrayDtypeBound:
    def test_random_exact_grids_run_float64(self):
        rng = random.Random(0)
        for _ in range(200):
            assert array_dtype(IntegerGrid(random_instance(rng, exact=True)).instance) is np.float64

    def _tall(self):
        """Exact items whose grid numbers lie between 2^32 and 2^53 / (N + 1)."""
        values = [(F(2**40 + 3 * n), F(2**42 + 5 * n, 3)) for n in range(4)]
        return _costly(values, F(1, 7))

    def test_numbers_between_2_32_and_the_bound_run_float64(self):
        inst = self._tall()
        grid = IntegerGrid(inst)
        scaled = grid.instance
        numbers = [x for item, ix in zip(scaled.items, scaled.indices) for x in (item.cost, ix.mu, ix.u_rsv, *item.dist.values)]
        assert 2**32 < max(numbers) < 2**53 // (len(inst) + 1)
        assert array_dtype(scaled) is np.float64
        for policy in SINGLE_POLICIES:
            prepared = prepare_policy(inst, policy)
            realizations, coins = seeded_trials(inst, 3, 0, 200)
            expected = [prepared.run(r, c).total_cost for r, c in zip(realizations, coins)]
            prices = price_columns(scaled, 3, 0, 200, np.float64)
            got = prepared.batch(grid)(prices, coin_columns(inst, 3, 0, 200))
            assert got.dtype == np.float64 and [int(t) for t in got] == [t * grid.L for t in expected]
            _assert_same(evaluate_policy_exact(inst, policy), reference_value(inst, prepared))

    def test_a_number_at_the_bound_goes_to_object(self):
        scaled = IntegerGrid(self._tall()).instance
        bound = 2**53 // (len(scaled) + 1)

        def with_cost(cost):
            items = [Item(0, cost, scaled.items[0].dist), *scaled.items[1:]]
            return Instance(items, scaled.indices)

        assert array_dtype(with_cost(bound - 1)) is np.float64
        assert array_dtype(with_cost(bound)) is object


def test_exact_evaluation_runs_the_array_form(monkeypatch):
    """Every exact value comes from ``prepared.batch(grid)``."""
    calls = []
    inst = tie_heavy()
    for policy in SINGLE_POLICIES:
        prepared = prepare_policy(inst, policy)

        def batch(grid, real=prepared.batch):
            calls.append(grid.L)
            return real(grid)

        value = evaluate_exact(inst, policies.PreparedPolicy(prepared.run, batch, prepared.draws_coins))
        assert value == evaluate_policy_exact(inst, policy)
    assert calls == [IntegerGrid(inst).L] * len(SINGLE_POLICIES)

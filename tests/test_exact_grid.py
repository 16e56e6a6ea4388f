"""Exact evaluation runs each policy's array form on the integer grid: its
value equals a weighted enumeration through the reference per-trial engines
on the instance's own numbers, in value and type, and bit for bit in float
mode."""

import dataclasses
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
    prepare_comb_policy,
)
from pandora_hedge import policies
from pandora_hedge.budget import BudgetExceededError
from pandora_hedge.combinatorial import COMB_POLICIES, rule_for_model
from pandora_hedge.instance import hedged_view
from pandora_hedge.policies import (
    SINGLE_POLICIES,
    IntegerGrid,
    array_dtype,
    coin_columns,
    commit_enum_labeling,
    evaluate_exact,
    prepare_policy,
    price_columns,
)
from pandora_hedge.randgen import random_comb_instance, random_instance

from helpers import (
    all_int,
    big_grid,
    enumerate_lh_cost,
    frugal_engine,
    reference_comb_policy,
    reference_policy,
    reference_weighted_columns,
    seeded_trials,
    wide_grid,
)
from test_batch_mc import single_item
from test_batch_mc import tie_heavy as single_tie_heavy
from test_grid_mc import _exact_cases as comb_exact_cases
from test_grid_mc import _random_models as comb_random_models
from test_grid_mc import tie_heavy, uniform

RANDOM_CASES = 100


def _label_probs(instance, policy):
    """The labelling probabilities of the reference enumeration: local
    hedging's hedging probabilities, and every item labelled (every
    realization) for the other policies, except that in float mode
    never-inspect and commit-enum label only the items they may inspect, as
    ``evaluate_exact`` does; an item no trial inspects contributes its mean
    by linearity, which the exact-mode cases check at zero tolerance."""
    if policy == "local-hedging":
        return [ix.p_hedge for ix in instance.indices]
    if policy == "never-inspect" and not IntegerGrid(instance).exact:
        return [0] * len(instance)
    if policy == "commit-enum" and not IntegerGrid(instance).exact:
        return [int(lab) for lab in commit_enum_labeling(instance).labels]
    return [1] * len(instance)


def reference_value(instance, policy, model=None):
    """Weighted enumeration through the reference per-trial policy over
    ``reference_weighted_columns`` of ``_label_probs``."""
    run = reference_policy(instance, policy) if model is None else reference_comb_policy(model, instance, policy)
    draws_coins = policy == "local-hedging"
    total = 0
    for prob, row, labels in reference_weighted_columns(instance, _label_probs(instance, policy)):
        coins = HedgeCoins(tuple(labels)) if draws_coins else None
        total = total + prob * run(Realization(tuple(row)), coins).total_cost
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
                expected = reference_value(inst, policy)
                assert type(expected) is (F if exact else float)
                _assert_same(evaluate_exact(prepare_policy(inst, policy)), expected)

    def test_combinatorial(self, exact):
        for model, inst in _comb_cases(exact):
            for policy in COMB_POLICIES:
                expected = reference_value(inst, policy, model)
                assert type(expected) is (F if exact else float)
                _assert_same(evaluate_exact(prepare_comb_policy(model, inst, policy)), expected)

    def test_chunking_changes_no_value(self, exact, monkeypatch):
        cases = [(None, inst) for inst in itertools.islice(_single_cases(exact), 20)]
        cases += list(itertools.islice(_comb_cases(exact), 20))
        whole = [_values(model, inst) for model, inst in cases]
        monkeypatch.setattr(policies, "EXACT_CHUNK", 7)
        assert [_values(model, inst) for model, inst in cases] == whole


def _values(model, inst):
    if model is None:
        return [evaluate_exact(prepare_policy(inst, policy)) for policy in SINGLE_POLICIES]
    return [evaluate_exact(prepare_comb_policy(model, inst, policy)) for policy in COMB_POLICIES]


def test_hedged_value_equals_the_full_coin_enumeration():
    rng = random.Random(75)
    for _ in range(20):
        inst = random_instance(rng, max_items=4, max_support=3, exact=True)
        _assert_same(evaluate_exact(prepare_policy(inst, "local-hedging")), enumerate_lh_cost(inst))


def _costly(values, cost):
    """Two-point items {lo, hi} (probability 1/2 each) at one cost."""
    return Instance([Item(n, cost, DiscreteDist(((lo, F(1, 2)), (hi, F(1, 2))))) for n, (lo, hi) in enumerate(values)])


def test_all_never_inspect_weights_are_ints():
    """Every item is too costly to inspect: one label vector, weight the int
    1, yet the value is a Fraction, not an int quotient."""
    inst = _costly([(F(1), F(2)), (F(0), F(5, 3)), (F(1, 7), F(3))], F(9))
    assert all(ix.p_hedge == 0 for ix in inst.indices)
    p_hedge = [ix.p_hedge for ix in inst.indices]
    _, _, chunks = policies._exact_columns(inst, None, p_hedge, 1, "hedged policy evaluation")
    ((weights, _, _),) = chunks(object)
    assert weights == [1] and type(weights[0]) is int
    for policy in SINGLE_POLICIES:
        expected = reference_value(inst, policy)
        _assert_same(evaluate_exact(prepare_policy(inst, policy)), expected)
    model = uniform(2, len(inst))
    for policy in COMB_POLICIES:
        expected = reference_value(inst, policy, model)
        _assert_same(evaluate_exact(prepare_comb_policy(model, inst, policy)), expected)


def test_hedged_enumeration_includes_the_all_unlabelled_vector():
    items = [tie_heavy().items[k] for k in (0, 4, 5)]
    inst = Instance([Item(n, item.cost, item.dist) for n, item in enumerate(items)])
    assert all(ix.p_hedge != 1 for ix in inst.indices) and any(0 < ix.p_hedge < 1 for ix in inst.indices)
    p_hedge = [ix.p_hedge for ix in inst.indices]
    _, _, chunks = policies._exact_columns(inst, None, p_hedge, 10**6, "hedged policy evaluation")
    *_, (_, _, labels) = chunks(object)
    assert labels[:, -1].tolist() == [False] * len(inst)
    _assert_same(evaluate_exact(prepare_policy(inst, "local-hedging")), reference_value(inst, "local-hedging"))
    model = uniform(1, len(inst))
    _assert_same(evaluate_exact(prepare_comb_policy(model, inst, "local-hedging")), reference_value(inst, "local-hedging", model))


def test_columns_follow_the_reference_order(monkeypatch):
    """Float local hedging over an item of p = 1, one of p = 0 and three
    branching items, in chunks of 7 that straddle the label vectors: the
    chunks concatenate to the reference enumeration column by column, each
    weight the reference's own float product (the shares, then the labelled
    atoms, in item order) bit for bit.  Float sums rest on this order."""
    supports = [
        (0.0, ((1.0, 0.5), (3.0, 0.5))),
        (0.3, ((0.5, 0.25), (2.0, 0.25), (4.5, 0.5))),
        (9.0, ((1.0, 0.5), (2.5, 0.5))),
        (0.2, ((0.7, 0.3), (1.9, 0.7))),
        (0.1, ((1.2, 0.6), (2.2, 0.4))),
    ]
    inst = Instance([Item(n, cost, DiscreteDist(atoms)) for n, (cost, atoms) in enumerate(supports)])
    p_hedge = [ix.p_hedge for ix in inst.indices]
    assert p_hedge[0] == 1 and p_hedge[2] == 0 and sum(0 < p < 1 for p in p_hedge) == 3
    monkeypatch.setattr(policies, "EXACT_CHUNK", 7)
    _, _, chunks = policies._exact_columns(inst, None, p_hedge, 10**6, "hedged policy evaluation")
    got = [
        column
        for weights, prices, labels in chunks()
        for column in zip(weights, prices.T.tolist(), labels.T.tolist())
    ]
    expected = list(reference_weighted_columns(inst, p_hedge))
    assert len(got) == len(expected) == 2 * 4 * 3 * 3
    for (w, row, labels), (ref_w, ref_row, ref_labels) in zip(got, expected):
        assert type(w) is float and w == ref_w and row == ref_row and labels == ref_labels


@pytest.mark.parametrize("exact", [True, False])
def test_support_product_beyond_one_chunk(exact):
    rng = random.Random(77)
    inst = random_instance(rng, n_items=5, max_support=4, exact=exact)
    while math.prod(len(item.dist) for item in inst.items) <= policies.EXACT_CHUNK:
        inst = random_instance(rng, n_items=5, max_support=4, exact=exact)
    for policy in SINGLE_POLICIES:
        _assert_same(evaluate_exact(prepare_policy(inst, policy)), reference_value(inst, policy))
    model = uniform(2, len(inst))
    for policy in COMB_POLICIES:
        expected = reference_value(inst, policy, model)
        _assert_same(evaluate_exact(prepare_comb_policy(model, inst, policy)), expected)


def _view_order_value(model, inst):
    """Combinatorial local hedging summed in the frugal engine's own order
    (inspection costs and selected prices interleaved, then the terminal
    cost) on the view's prices, weighted by the reference weights."""
    engine = frugal_engine(model, rule_for_model(model))
    total = 0
    for prob, row, labels in reference_weighted_columns(inst, _label_probs(inst, "local-hedging")):
        keys, costs, prices = hedged_view(inst, labels, row)
        total = total + prob * engine(keys, costs)(prices)[2]
    return total


def test_float_comb_hedging_is_charged_in_event_order():
    """A float trial is charged in event order, as the engine charges its
    view (an unlabelled item's realized price is its mean on every column),
    so exact evaluation equals the engine's value bit for bit."""
    rng = random.Random(202)
    for _ in range(160):
        model, inst = random_comb_instance(rng, max_items=5)
        got = evaluate_exact(prepare_comb_policy(model, inst, "local-hedging"))
        assert type(got) is float and got == _view_order_value(model, inst)


@pytest.mark.parametrize("kind", ["int", "float-cost"])
def test_point_masses_with_int_probabilities(kind):
    """Every probability is the int 1.  With int costs and values too, the
    value is the int total; a float cost makes it a float, even where every
    charge is an int."""
    cost = {"int": 2, "float-cost": 2.5}[kind]
    inst = Instance([Item(0, cost, DiscreteDist(((7, 1),))), Item(1, 0, DiscreteDist(((9, 1),)))])
    for policy in ("never-inspect", "local-hedging"):
        got = evaluate_exact(prepare_policy(inst, policy))
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
            expected = [reference_policy(inst, policy)(r, c).total_cost for r, c in zip(realizations, coins)]
            prices = price_columns(scaled, 3, 0, 200, np.float64)
            got = prepared.batch(grid)(prices, coin_columns(inst, 3, 0, 200))
            assert got.dtype == np.float64 and [int(t) for t in got] == [t * grid.L for t in expected]
            _assert_same(evaluate_exact(prepare_policy(inst, policy)), reference_value(inst, policy))

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

        value = evaluate_exact(dataclasses.replace(prepared, batch=batch))
        assert value == evaluate_exact(prepare_policy(inst, policy))
    assert calls == [IntegerGrid(inst).L] * len(SINGLE_POLICIES)


def _fourteen_items():
    """14 exact items of three atoms each: 3^14 = 4,782,969 realizations."""
    items = []
    for n in range(14):
        dist = DiscreteDist(((F(n, 3), F(1, 4)), (F(n + 2), F(1, 2)), (F(2 * n + 7, 2), F(1, 4))))
        items.append(Item(n, F(1 + n % 5, 2), dist))
    return Instance(items)


def test_never_inspect_is_one_column():
    """Never-inspect inspects nothing, so its exact value is the lowest mean,
    one column charged one branch."""
    inst = _fourteen_items()
    expected = min(ix.mu for ix in inst.indices)
    _assert_same(evaluate_exact(prepare_policy(inst, "never-inspect"), budget=1), F(expected))


def test_columns_beyond_int64_are_refused():
    """Column indices are int64: 2^64 realizations are refused under any
    budget, not enumerated with wrapped indices."""
    inst = Instance([Item(n, F(1, 10), DiscreteDist(((F(0), F(1, 2)), (F(n + 1), F(1, 2))))) for n in range(64)])
    with pytest.raises(BudgetExceededError) as info:
        evaluate_exact(prepare_policy(inst, "weitzman"), budget=10**30)
    assert info.value.required == 2**64 and info.value.budget == 2**63 - 1


def test_enumeration_is_charged_the_policy_labels_only(monkeypatch):
    """Commit-enum enumerates only the items it may inspect; the item it
    skips is priced at its mean, with the same exact value as enumerating
    every realization."""
    skipped = Item(0, F(4), DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2)))))
    three = Item(1, F(1, 10), DiscreteDist(((F(3), F(1, 3)), (F(6), F(1, 3)), (F(9), F(1, 3)))))
    two = Item(2, F(1, 5), DiscreteDist(((F(4), F(1, 2)), (F(8), F(1, 2)))))
    inst = Instance([skipped, three, two])
    prepared = prepare_policy(inst, "commit-enum")
    assert prepared.labels == (False, True, True)
    charged = []

    def spy(required, budget, what):
        charged.append((required, what))

    monkeypatch.setattr(policies, "check_budget", spy)
    got = evaluate_exact(prepared)
    assert charged == [(3 * 2, "policy evaluation")]
    _assert_same(got, reference_value(inst, "commit-enum"))

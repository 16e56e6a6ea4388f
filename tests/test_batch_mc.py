"""Single-item Monte Carlo runs as arrays over trial chunks: its totals equal
the per-trial policies' bit for bit, chunking changes no estimate, and memory
stays bounded by the chunk."""

import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction as F

import pytest

from pandora_hedge import (
    DiscreteDist,
    Instance,
    Item,
    evaluate_mc,
    expected_surrogate_cost_mc,
    prepare_comb_policy,
)
from pandora_hedge import sampling
from pandora_hedge.indices import SurrogateKind
from pandora_hedge.policies import (
    SINGLE_POLICIES,
    IntegerGrid,
    array_dtype,
    coin_columns,
    prepare_policy,
    price_columns,
)
from pandora_hedge.combinatorial import COMB_POLICIES
from pandora_hedge.randgen import random_comb_instance, random_instance
from pandora_hedge.sampling import COIN_STREAM, mc_summary, uniforms

from helpers import all_int, big_grid, reference_policy, seeded_trials, wide_grid

SEED = 7


def _dist(pairs):
    return DiscreteDist(tuple(pairs))


def tie_heavy(kind):
    """Seven items whose keys and prices tie in many ways: a mean equal to
    another item's support value, two identical items (equal reservation
    prices), a free item (p_hedge 1), a point mass and a too-costly item
    (p_hedge 0).  ``kind`` is "float", "int" (int values and costs in float
    mode) or "exact"."""
    num = {"float": float, "int": int, "exact": F}[kind]
    prob = F if kind == "exact" else float
    half, quarter = prob(1) / 2, prob(1) / 4
    cost = F if kind == "exact" else float

    def two_point(lo, hi):
        return _dist(((num(lo), half), (num(hi), half)))

    items = [
        (cost(F(1, 4)), two_point(1, 3)),  # mean 2, a support value of items 1-4
        (cost(F(1, 4)), two_point(2, 4)),  # mean 3, a support value of item 0
        (cost(F(1, 4)), two_point(2, 4)),  # same reservation price as item 1
        (num(0), two_point(2, 3)),  # free: p_hedge 1
        (num(0), _dist(((num(2), prob(1)),))),  # point mass at 2: p_hedge 0
        (num(5), two_point(1, 3)),  # too costly: p_hedge 0
        (cost(F(1, 10)), _dist(((num(1), quarter), (num(2), half), (num(3), quarter)))),
    ]
    return Instance([Item(n, c, d) for n, (c, d) in enumerate(items)])


def single_item(kind):
    inst = tie_heavy(kind)
    return Instance([Item(0, inst.items[6].cost, inst.items[6].dist)])


def _instances(exact):
    kinds = ("exact",) if exact else ("float", "int")
    yield from (tie_heavy(k) for k in kinds)
    yield from (single_item(k) for k in kinds)
    rng = random.Random(51 if exact else 50)
    for _ in range(4):
        yield random_instance(rng, max_items=9, exact=exact)


def _reference_totals(instance, policy, count, seed=SEED):
    """Totals of the reference per-trial policy (``reservation_engine``) on the seeded draws."""
    run = reference_policy(instance, policy)
    realizations, coins = seeded_trials(instance, seed, 0, count)
    return [run(r, c).total_cost for r, c in zip(realizations, coins)]


def _batch_totals(instance, policy, count, seed=SEED):
    """Totals of the array form on the instance's grid, and the grid's L."""
    prepared = prepare_policy(instance, policy)
    grid = IntegerGrid(instance)
    prices = price_columns(grid.instance, seed, 0, count, array_dtype(grid.instance))
    coins = coin_columns(instance, seed, 0, count) if prepared.draws_coins else None
    return prepared.batch(grid)(prices, coins).tolist(), grid.L


@pytest.mark.parametrize("p_hedge", [0, F(1, 3), 0.7, 1])
def test_coin_columns_follow_the_threshold_rule(p_hedge):
    inst = single_item("float")
    inst = Instance(inst.items, [replace(inst.indices[0], p_hedge=p_hedge)])
    labels = coin_columns(inst, SEED, 5, 300)[0]
    assert labels.tolist() == (uniforms(SEED, 0, COIN_STREAM, 300, start=5) < float(p_hedge)).tolist()


def test_tie_heavy_cases_hit_both_label_extremes():
    p_hedge = [ix.p_hedge for ix in tie_heavy("float").indices]
    assert p_hedge[3] == 1 and p_hedge[4] == 0 and p_hedge[5] == 0 and 0 < p_hedge[0] < 1
    inst = tie_heavy("int")
    assert type(inst.items[1].dist.values[0]) is int and type(inst.items[3].cost) is int
    assert array_dtype(inst) is not object and array_dtype(tie_heavy("exact")) is object
    assert array_dtype(IntegerGrid(tie_heavy("exact")).instance) is not object  # exact MC runs on float64


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("policy", SINGLE_POLICIES)
class TestBatchEqualsLoop:
    @pytest.mark.parametrize("count", [1, 2, 13, 60])
    def test_totals_equal_per_trial(self, exact, policy, count):
        for inst in _instances(exact):
            expected = _reference_totals(inst, policy, count)
            got, L = _batch_totals(inst, policy, count)
            if exact:
                assert all(isinstance(t, F) for t in expected)
                assert got == [t * L for t in expected]  # ints on the grid
                assert [int(t) / L for t in got] == [float(t) for t in expected]
            else:
                assert L == 1 and got == [float(t) for t in expected]

    def test_mc_equals_per_trial_summary(self, exact, policy):
        for inst in _instances(exact):
            for count in (1, 60):
                expected = mc_summary(_reference_totals(inst, policy, count))
                assert evaluate_mc(prepare_policy(inst, policy), count, SEED) == expected

    def test_straddles_a_chunk_boundary(self, exact, policy, monkeypatch):
        monkeypatch.setattr(sampling, "MC_CHUNK", 7)
        for inst in _instances(exact):
            for count in (6, 7, 8, 22):
                expected = mc_summary(_reference_totals(inst, policy, count))
                assert evaluate_mc(prepare_policy(inst, policy), count, SEED) == expected


@pytest.mark.parametrize("policy", SINGLE_POLICIES)
@pytest.mark.parametrize(
    "case", [lambda: tie_heavy("exact"), big_grid, all_int, wide_grid], ids=["tie_heavy", "big_grid", "all_int", "wide_grid"]
)
def test_grid_totals_leave_as_float_of_fraction_totals(policy, case):
    inst = case()
    expected = _reference_totals(inst, policy, 200)
    got, L = _batch_totals(inst, policy, 200)
    assert all(isinstance(t, (F, int)) for t in expected)
    assert [int(t) / L for t in got] == [float(t) for t in expected]
    assert evaluate_mc(prepare_policy(inst, policy), 200, SEED) == mc_summary(expected)


def test_wide_grid_needs_exact_division():
    """Scaled numbers fit float64 but L does not: t / L must be the exact
    int division, which a float64 quotient misses on many trials."""
    inst = wide_grid()
    grid = IntegerGrid(inst)
    assert 2**56 < grid.L < 2**57 and array_dtype(grid.instance) is not object
    expected = _reference_totals(inst, "weitzman", 4000, seed=5)
    got, L = _batch_totals(inst, "weitzman", 4000, seed=5)
    assert [int(t) / L for t in got] == [float(t) for t in expected]
    assert sum(t / float(L) != float(e) for t, e in zip(got, expected)) > 1000
    assert evaluate_mc(prepare_policy(inst, "weitzman"), 4000, 5) == mc_summary(expected)


def test_default_chunk_boundary():
    inst = tie_heavy("float")
    count = sampling.MC_CHUNK + 1
    for policy in SINGLE_POLICIES:
        expected = mc_summary(_reference_totals(inst, policy, count))
        assert evaluate_mc(prepare_policy(inst, policy), count, SEED) == expected


def _every_mc_estimate(exact):
    out = []
    for inst in (tie_heavy("exact" if exact else "float"), *_instances(exact)):
        out += [evaluate_mc(prepare_policy(inst, policy), 60, SEED) for policy in SINGLE_POLICIES]
    rng = random.Random(53 if exact else 52)
    for _ in range(3):
        model, inst = random_comb_instance(rng, max_items=5, exact=exact)
        out += [evaluate_mc(prepare_comb_policy(model, inst, policy), 60, SEED) for policy in COMB_POLICIES]
        out += [expected_surrogate_cost_mc(model, inst, kind, 60, SEED) for kind in SurrogateKind]
    return out


@pytest.mark.parametrize("exact", [False, True])
def test_chunk_size_changes_no_estimate(exact, monkeypatch):
    whole = _every_mc_estimate(exact)
    monkeypatch.setattr(sampling, "MC_CHUNK", 7)
    assert _every_mc_estimate(exact) == whole


def test_mc_memory_is_bounded_by_the_chunk():
    rng = random.Random(5)
    items = []
    for n in range(32):
        values = sorted(rng.sample(range(40), 4))
        dist = DiscreteDist(tuple((v / 4, 0.25) for v in values))
        items.append(Item(n, rng.choice([0.05, 0.1, 0.2, 0.3]), dist))
    inst = Instance(items)
    tracemalloc.start()
    try:
        evaluate_mc(prepare_policy(inst, "weitzman"), 100_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20

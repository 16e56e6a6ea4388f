"""Monte Carlo columns draw a lane the first time a kernel reads it: every
read, in any order, equals the eager draw bit for bit, ``evaluate_mc``
equals its eager reference, and a search that stops early draws fewer
lanes than the instance has items."""

import random
from bisect import bisect_right
from fractions import Fraction as F
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pandora_hedge import CombModel, UniformMatroid, ZeroTerminal, evaluate_mc, prepare_comb_policy, sampling
from pandora_hedge.policies import (
    SINGLE_POLICIES,
    IntegerGrid,
    _FIRST_BLOCK,
    array_dtype,
    prepare_policy,
)
from pandora_hedge.randgen import random_instance
from pandora_hedge.sampling import (
    COIN_STREAM,
    MC_CHUNK,
    PRICE_STREAM,
    Columns,
    Lanes,
    mc_summary,
    trial_chunks,
    uniforms,
)

from helpers import draw_columns

SEED = 19
DTYPES = {
    np.float64: st.floats(-1e6, 1e6, allow_nan=False),
    object: st.one_of(st.integers(-(2**70), 2**70), st.fractions(max_denominator=50), st.floats(-1e6, 1e6)),
    bool: st.booleans(),
}


@st.composite
def lane_sets(draw):
    """A dtype and 1-6 lanes of (values, probs) of that dtype; probs are
    Fractions or floats."""
    dtype = draw(st.sampled_from(list(DTYPES)))
    lanes = []
    for _ in range(draw(st.integers(1, 6))):
        values = draw(st.lists(DTYPES[dtype], min_size=1, max_size=5))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(values), max_size=len(values)))
        exact = draw(st.booleans())
        probs = [F(w, sum(weights)) if exact else w / sum(weights) for w in weights]
        lanes.append((tuple(values), tuple(probs)))
    return dtype, lanes


def _same(got, expected):
    """Bit for bit: equal dtype, shape, values and (for object) value types."""
    got = np.asarray(got)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    if got.dtype == object:
        assert [(type(x), x) for x in got.ravel().tolist()] == [(type(x), x) for x in expected.ravel().tolist()]
    elif got.dtype == np.float64:
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    else:
        assert np.array_equal(got, expected)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    lane_sets(),
    st.sampled_from([PRICE_STREAM, COIN_STREAM]),
    st.one_of(st.integers(0, 50), st.integers(MC_CHUNK - 40, MC_CHUNK + 40)),
    st.integers(1, 90),
    st.data(),
)
def test_lazy_reads_equal_the_eager_draw(lanes_of, stream, start, count, data):
    dtype, lanes = lanes_of
    eager = draw_columns(lanes, SEED, start, count, dtype, stream=stream)
    for n, (values, probs) in enumerate(lanes):  # trial by trial: its own uniform through the float cdf
        cdf = list(accumulate(float(p) for p in probs))
        cdf[-1] = 1.0
        us = [float(uniforms(SEED, n, stream, 1, start=start + t)[0]) for t in range(count)]
        _same(eager[n], np.array([values[bisect_right(cdf, u)] for u in us], dtype=dtype))
    cols = Columns(Lanes(lanes, SEED, stream, dtype), start, count)
    assert cols.shape == eager.shape and cols.dtype == eager.dtype
    n_lanes = len(lanes)
    for _ in range(data.draw(st.integers(0, 5))):  # rows in any order, one or several at a time
        ids = data.draw(st.lists(st.integers(0, n_lanes - 1), min_size=1, max_size=4))
        trials = np.array(data.draw(st.lists(st.integers(0, count - 1), min_size=1, max_size=5)))
        key = data.draw(st.sampled_from([ids[0], (np.array(ids)[:, None], trials), np.array(ids)]))
        _same(cols[key], eager[key])
    part = np.array(data.draw(st.lists(st.integers(0, n_lanes - 1), min_size=1, max_size=n_lanes, unique=True)))
    _same(cols[part], eager[part])  # part of the array, then all of it
    _same(cols, eager)
    _same(np.asarray(cols, dtype=object), eager.astype(object))


@pytest.mark.parametrize("dtype", [np.float64, object])
def test_columns_of_consecutive_chunks_join_at_the_boundary(dtype):
    lanes = [((1.5, 2, F(7, 2)), (F(1, 4), F(1, 2), F(1, 4))), ((0.0, 9.0), (0.3, 0.7))]
    table = Lanes(lanes, SEED, PRICE_STREAM, dtype)
    head = Columns(table, MC_CHUNK - 3, 3)
    tail = Columns(table, MC_CHUNK, 5)
    joined = np.concatenate([head[1:2], np.asarray(tail)[1:2]], axis=1)
    _same(joined, draw_columns(lanes, SEED, MC_CHUNK - 3, 8, dtype, stream=PRICE_STREAM)[1:2])


def _big(exact):
    return random_instance(random.Random(1801 + exact), n_items=72, exact=exact)


def _eager_mc(prepared, trials, seed):
    """``evaluate_mc`` with every column drawn in full before its batch runs."""
    grid = IntegerGrid(prepared.instance, prepared.model)
    batch, dtype = prepared.batch(grid), array_dtype(grid.instance)
    totals = []
    for start, size in trial_chunks(trials):
        prices = draw_columns(grid.instance, seed, start, size, dtype)
        coins = draw_columns(prepared.instance, seed, start, size, stream=COIN_STREAM) if prepared.draws_coins else None
        totals.append(grid.float_totals(batch(prices, coins)))
    return mc_summary(np.concatenate(totals))


def _prepared_cases(exact):
    inst = _big(exact)
    for policy in SINGLE_POLICIES:
        yield policy, prepare_policy(inst, policy)
    model = CombModel(UniformMatroid(3), ZeroTerminal(), len(inst))
    for policy in ("frugal-oi", "local-hedging"):
        yield f"matroid {policy}", prepare_comb_policy(model, inst, policy)


@pytest.mark.parametrize("exact", [False, True])
def test_evaluate_mc_equals_its_eager_reference(monkeypatch, exact):
    monkeypatch.setattr(sampling, "MC_CHUNK", 160)
    trials = 400  # chunks of 160, 160 and 80
    assert len(trial_chunks(trials)) == 3
    for name, prepared in _prepared_cases(exact):
        got, expected = evaluate_mc(prepared, trials, SEED), _eager_mc(prepared, trials, SEED)
        assert [x.hex() for x in got] == [x.hex() for x in expected], name


def _price_lanes_drawn(monkeypatch, prepared, trials):
    drawn = []
    real = sampling.uniforms

    def counted(seed, item, stream, n, start=0):
        if stream == PRICE_STREAM:
            drawn.append(item)
        return real(seed, item, stream, n, start)

    monkeypatch.setattr(sampling, "uniforms", counted)
    evaluate_mc(prepared, trials, SEED)
    monkeypatch.setattr(sampling, "uniforms", real)
    return drawn


def test_a_search_that_stops_early_draws_fewer_price_lanes_than_items(monkeypatch):
    inst = random_instance(random.Random(28), n_items=128)
    for policy in ("weitzman", "local-hedging"):
        drawn = _price_lanes_drawn(monkeypatch, prepare_policy(inst, policy), 3000)
        assert len(drawn) == len(set(drawn)) < len(inst), policy  # one chunk: each lane at most once
    drawn = _price_lanes_drawn(monkeypatch, prepare_policy(inst, "never-inspect"), 3000)
    assert len(drawn) <= _FIRST_BLOCK

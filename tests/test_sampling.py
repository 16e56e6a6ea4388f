import threading

import numpy as np
import pytest
from numpy.random import Philox

from pandora_hedge import (
    CombModel,
    SurrogateKind,
    UniformMatroid,
    ZeroTerminal,
    evaluate_mc,
    expected_surrogate_cost_mc,
    prepare_comb_policy,
    prepare_policy,
)
from pandora_hedge.policies import coin_columns, price_columns
from pandora_hedge.sampling import (
    COIN_STREAM,
    PRICE_STREAM,
    sample_price_indices,
    uniforms,
)

from helpers import golden_pair


class TestCounterContract:
    def test_reproducible(self):
        a = uniforms(42, 3, PRICE_STREAM, 100)
        b = uniforms(42, 3, PRICE_STREAM, 100)
        assert np.array_equal(a, b)

    def test_streams_and_items_independent_lanes(self):
        a = uniforms(42, 0, PRICE_STREAM, 50)
        b = uniforms(42, 1, PRICE_STREAM, 50)
        c = uniforms(42, 0, COIN_STREAM, 50)
        assert not np.array_equal(a, b) and not np.array_equal(a, c)

    def test_seed_changes_everything(self):
        assert not np.array_equal(uniforms(1, 0, 0, 50), uniforms(2, 0, 0, 50))

    def test_chunked_equals_monolithic(self):
        whole = uniforms(7, 2, COIN_STREAM, 100)
        parts = np.concatenate(
            [uniforms(7, 2, COIN_STREAM, 30, start=0),
             uniforms(7, 2, COIN_STREAM, 50, start=30),
             uniforms(7, 2, COIN_STREAM, 20, start=80)]
        )
        assert np.array_equal(whole, parts)

    def test_uniform_at_is_random_access(self):
        whole = uniforms(9, 1, PRICE_STREAM, 40)
        for t in (0, 1, 17, 39):
            assert uniforms(9, 1, PRICE_STREAM, 1, start=t)[0] == whole[t]

    @pytest.mark.parametrize("start", [0, 5, 4096, 2**40])
    def test_reused_generator_equals_a_fresh_philox(self, start):
        def fresh(seed, item, stream, n):
            bg = Philox(key=np.array([seed, item * 4 + stream], dtype=np.uint64))
            bg.advance(start)
            return (bg.random_raw(4 * n)[::4] >> np.uint64(11)).astype(np.float64) * 2.0**-53

        # interleave lanes and lengths so that state left by one call would show in the next
        for seed, item, stream, n in ((3, 0, PRICE_STREAM, 7), (3, 1, COIN_STREAM, 1), (2**64 - 1, 5, 2, 13)):
            assert np.array_equal(uniforms(seed, item, stream, n, start=start), fresh(seed, item, stream, n))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_is_rejected(self, seed):
        """Such a seed would alias seed mod 2^64; every draw refuses it."""
        inst = golden_pair()
        model = CombModel(UniformMatroid(1), ZeroTerminal(), len(inst))
        calls = (
            lambda: uniforms(seed, 0, PRICE_STREAM, 4),
            lambda: evaluate_mc(prepare_policy(inst, "local-hedging"), 10, seed),
            lambda: evaluate_mc(prepare_comb_policy(model, inst, "local-hedging"), 10, seed),
            lambda: expected_surrogate_cost_mc(model, inst, SurrogateKind.LH, 10, seed),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"seed {seed} is outside"):
                call()

    def test_each_thread_draws_the_same(self):
        main = uniforms(4, 2, PRICE_STREAM, 64, start=9)
        seen = []
        worker = threading.Thread(target=lambda: seen.append(uniforms(4, 2, PRICE_STREAM, 64, start=9)))
        worker.start()
        worker.join()
        assert np.array_equal(seen[0], main)

    def test_unit_interval(self):
        u = uniforms(5, 0, 0, 10_000)
        assert (u >= 0).all() and (u < 1).all()
        assert 0.4 < u.mean() < 0.6


class TestPriceSampling:
    def test_index_boundaries(self):
        idx = sample_price_indices([0.5, 0.5], np.array([0.0, 0.4999, 0.5, 0.9999]))
        assert list(idx) == [0, 0, 1, 1]

    def test_final_bin_guard(self):
        # cumulative sums can fall short of 1.0 in float; the last bin absorbs
        probs = [0.1] * 10
        idx = sample_price_indices(probs, np.array([0.9999999999999999]))
        assert idx[0] == 9

    def test_realizations_in_support(self):
        inst = golden_pair(exact=False)
        rows = price_columns(inst, 3, 0, 500, object).T.tolist()
        for row in rows:
            assert row[0] == 5.0 and row[1] in (0.0, 10.0)

    def test_coin_rates_track_p(self):
        inst = golden_pair(exact=False)
        rows = coin_columns(inst, 3, 0, 20_000).T.tolist()
        rate_a = sum(r[0] for r in rows) / len(rows)
        rate_b = sum(r[1] for r in rows) / len(rows)
        assert rate_a == 0.0  # p_hedge = 0 for the never-inspect item
        assert abs(rate_b - 5 / 13) < 0.02

    def test_trial_slices_are_schedule_invariant(self):
        inst = golden_pair(exact=False)
        whole = price_columns(inst, 11, 0, 60, object).T.tolist()
        tail = price_columns(inst, 11, 25, 35, object).T.tolist()
        assert whole[25:] == tail

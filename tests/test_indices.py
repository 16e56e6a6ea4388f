from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from pandora_hedge import (
    DiscreteDist,
    Item,
    SurrogateKind,
    alpha_of_p,
    compute_indices,
    hedging_losses,
    make_worst_case_item,
    surrogate_dist,
    surrogate_value,
)
from pandora_hedge.distkit import expected_shortfall, mean

from helpers import added, capped_expectation, direct_capped_sum, grid_capped, two_point_item
from test_distkit import dists, rationals


def random_items(max_atoms=4):
    return st.tuples(dists(max_atoms), rationals(lo=0, hi=12)).map(
        lambda t: Item(0, t[1], t[0])
    )


def hedged_items(max_atoms=4):
    """Items whose cost is a share in [0, 1) of their price's shortfall below
    the mean: the regime where inspection is worthwhile unless the price is
    a point mass."""

    def build(t):
        dist, share = t
        return Item(0, share * expected_shortfall(dist, mean(dist)), dist)

    return st.tuples(dists(max_atoms), rationals(lo=0, hi=1).filter(lambda share: share < 1)).map(build)


class TestComputeIndices:
    def test_two_point_golden(self):
        ix = compute_indices(two_point_item())
        assert (ix.mu, ix.u_rsv, ix.u_bkp) == (5, 4, 6)
        assert ix.p_hedge == F(5, 13)
        assert ix.alpha_local == F(15, 13)
        assert not ix.never_inspect

    def test_free_point_mass_never_inspects(self):
        ix = compute_indices(Item(0, F(0), DiscreteDist.point_mass(F(5))))
        assert ix.u_rsv == 5 and ix.mu == 5
        assert ix.never_inspect and ix.p_hedge == 0 and ix.alpha_local == 1

    def test_worst_case_family_alpha(self):
        delta = F(1, 100)
        item = make_worst_case_item(F(1), F(2), 1 - delta)
        ix = compute_indices(item)
        assert ix.alpha_local == (2 - delta) / (F(3, 2) - delta / 2)  # 1.99/1.495

    def test_mean_zero_degenerate(self):
        ix = compute_indices(Item(0, F(3), DiscreteDist.point_mass(F(0))))
        assert ix.mu == 0 and ix.p_hedge == 0 and ix.alpha_local == 1
        assert ix.never_inspect

    def test_free_inspection_high_mean(self):
        # c = 0 with spread prices: inspect always, lose nothing
        ix = compute_indices(Item(0, F(0), DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2))))))
        assert ix.u_rsv == 0 and ix.p_hedge == 1 and ix.alpha_local == 1

    @given(random_items())
    def test_invariants(self, item):
        ix = compute_indices(item)
        assert 0 <= ix.p_hedge <= 1
        assert 1 <= ix.alpha_local <= F(4, 3)
        assert item.cost <= ix.u_rsv
        if ix.never_inspect:
            assert ix.p_hedge == 0 and ix.alpha_local == 1
            assert ix.u_rsv >= ix.mu
        else:
            assert ix.u_rsv < ix.u_bkp


class TestAlphaOfP:
    def test_equalized_at_optimum(self):
        item = two_point_item()
        ix = compute_indices(item)
        assert alpha_of_p(item, ix.p_hedge) == ix.alpha_local == F(15, 13)

    def test_p_one(self):
        item = two_point_item()
        assert alpha_of_p(item, 1) == 1 + F(2, 5)  # 1 + c/mu

    def test_p_zero(self):
        item = two_point_item()
        assert alpha_of_p(item, 0) == F(5, 4)  # mu/u_rsv

    def test_never_inspect_rejected(self):
        with pytest.raises(ValueError, match="backup"):
            alpha_of_p(Item(0, F(0), DiscreteDist.point_mass(F(5))), F(1, 2))

    def test_zero_reservation_guard(self):
        item = Item(0, F(0), DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2)))))
        with pytest.raises(ValueError, match="diverges"):
            alpha_of_p(item, F(1, 2))
        assert alpha_of_p(item, 1) == 1

    @given(random_items(), st.integers(min_value=0, max_value=100))
    def test_optimal_p_minimizes(self, item, k):
        ix = compute_indices(item)
        if ix.never_inspect or (ix.u_rsv == 0 and k != 100):
            return
        assert alpha_of_p(item, F(k, 100)) >= ix.alpha_local


class TestHedgingLosses:
    def test_branches_of_two_point_item(self):
        # A(p) = (1 - p)/4 and B(p) = 2p/5
        assert hedging_losses(compute_indices(two_point_item()), 2, F(1, 2)) == (F(1, 8), F(1, 5))

    @given(hedged_items())
    def test_branches_cross_at_optimal_p(self, item):
        ix = compute_indices(item)
        if ix.never_inspect:
            return
        if ix.u_rsv == 0:
            assert ix.p_hedge == 1
            used = hedging_losses(ix, item.cost, 1)[1:]
        else:
            used = hedging_losses(ix, item.cost, ix.p_hedge)
            assert used[0] == used[1]
        assert all(1 + loss == ix.alpha_local for loss in used)


class TestSurrogates:
    def test_oi_values(self):
        item = two_point_item()
        assert surrogate_value(item, SurrogateKind.OI, F(0)) == 4
        assert surrogate_value(item, SurrogateKind.OI, F(10)) == 10

    def test_noi_values_capped(self):
        item = two_point_item()
        assert surrogate_value(item, SurrogateKind.NOI, F(0)) == 4
        assert surrogate_value(item, SurrogateKind.NOI, F(10)) == 6

    def test_lh_values_by_coin(self):
        item = two_point_item()
        assert surrogate_value(item, SurrogateKind.LH, F(10), coin=False) == 5
        assert surrogate_value(item, SurrogateKind.LH, F(10), coin=True) == 10
        with pytest.raises(ValueError, match="coin"):
            surrogate_value(item, SurrogateKind.LH, F(10))

    def test_noi_never_branch_returns_mean(self):
        item = Item(0, F(3), DiscreteDist(((F(4), F(1, 2)), (F(6), F(1, 2)))))
        assert compute_indices(item).never_inspect
        assert surrogate_value(item, SurrogateKind.NOI, F(6)) == 5

    def test_dists_golden(self):
        item = two_point_item()
        assert surrogate_dist(item, SurrogateKind.OI).atoms == ((F(4), F(1, 2)), (F(10), F(1, 2)))
        assert surrogate_dist(item, SurrogateKind.NOI).atoms == ((F(4), F(1, 2)), (F(6), F(1, 2)))
        assert surrogate_dist(item, SurrogateKind.LH).atoms == (
            (F(4), F(5, 26)),
            (F(5), F(8, 13)),
            (F(10), F(5, 26)),
        )

    def test_item_builds_each_dist_once(self):
        item = two_point_item()
        for kind in SurrogateKind:
            assert item.surrogate(kind) is item.surrogate(kind)
            assert item.surrogate(kind) == surrogate_dist(item, kind)
        assert two_point_item().surrogate(SurrogateKind.OI) is not item.surrogate(SurrogateKind.OI)

    @pytest.mark.parametrize("exact_first", [True, False])
    def test_equal_float_and_exact_items_never_share_dists(self, exact_first):
        exact, floats = two_point_item(True), two_point_item(False)
        assert exact == floats and hash(exact) == hash(floats)
        order = (exact, floats) if exact_first else (floats, exact)
        for kind in SurrogateKind:
            for item in order:
                item.surrogate(kind)
            assert all(type(p) is F for p in exact.surrogate(kind).probs), kind
            assert all(type(p) is float for p in floats.surrogate(kind).probs), kind

    @given(random_items())
    def test_surrogate_means(self, item):
        ix = compute_indices(item)
        assert mean(surrogate_dist(item, SurrogateKind.OI)) == ix.mu + item.cost
        assert mean(surrogate_dist(item, SurrogateKind.NOI)) == ix.mu
        assert mean(surrogate_dist(item, SurrogateKind.LH)) == ix.mu + ix.p_hedge * item.cost

    @given(random_items())
    def test_pushforward_matches_pointwise_map(self, item):
        # dist route vs value route: same pushforward mass at every atom
        for kind in (SurrogateKind.OI, SurrogateKind.NOI):
            expected: dict = {}
            for v, p in item.dist.atoms:
                w = surrogate_value(item, kind, v)
                expected[w] = expected.get(w, 0) + p
            assert dict(surrogate_dist(item, kind).atoms) == expected


class TestCappedExpectation:
    def test_oi_golden(self):
        assert capped_expectation(two_point_item(), SurrogateKind.OI, F(5)) == F(9, 2)
        assert grid_capped(two_point_item(), SurrogateKind.OI, F(5)) == F(9, 2)

    def test_noi_golden(self):
        assert capped_expectation(two_point_item(), SurrogateKind.NOI, F(5)) == F(9, 2)
        assert grid_capped(two_point_item(), SurrogateKind.NOI, F(5)) == F(9, 2)

    def test_nonpositive_r_passthrough(self):
        item = two_point_item()
        for kind in SurrogateKind:
            for route in (capped_expectation, grid_capped):
                assert route(item, kind, F(-3)) == -3
                assert route(item, kind, F(0)) == 0

    @given(random_items(), rationals())
    def test_closed_forms_from_raw_distribution(self, item, r):
        # independent route: direct sums over the raw price distribution
        inspect_branch = item.cost + direct_capped_sum(item.dist, r)
        assert capped_expectation(item, SurrogateKind.OI, r) == min(inspect_branch, r)
        assert capped_expectation(item, SurrogateKind.NOI, r) == min(
            inspect_branch, r, mean(item.dist)
        )
        for kind in SurrogateKind:  # the gridded atoms that verify sweeps
            assert grid_capped(item, kind, r) == capped_expectation(item, kind, r)


class TestLocalApproximation:
    @given(random_items(), rationals())
    def test_hedged_dominates_scaled_noi(self, item, r):
        ix = compute_indices(item)
        lhs = capped_expectation(item, SurrogateKind.LH, r)
        noi = surrogate_dist(item, SurrogateKind.NOI)
        rhs = added(p * min(ix.alpha_local * v, r) for v, p in noi.atoms)
        assert lhs <= rhs


class TestWorstCaseBuilder:
    def test_golden_construction(self):
        item = make_worst_case_item(F(4), F(5), F(2))
        assert item.dist.atoms == ((0, F(1, 2)), (F(10), F(1, 2))) and item.cost == 2

    def test_steep_construction(self):
        item = make_worst_case_item(F(1), F(2), F(99, 100))
        assert item.dist.atoms == ((0, F(99, 100)), (F(200), F(1, 100)))

    def test_round_trip(self):
        ix = compute_indices(make_worst_case_item(F(4), F(5), F(2)))
        assert ix.u_rsv == 4 and ix.mu == 5

    @given(
        st.fractions(min_value=F(1, 4), max_value=8, max_denominator=8),
        st.fractions(min_value=1, max_value=4, max_denominator=8),
        st.fractions(min_value=F(1, 100), max_value=F(99, 100), max_denominator=128),
    )
    def test_round_trip_random(self, u, mu_scale, c_scale):
        mu = u * mu_scale
        c = u * c_scale
        ix = compute_indices(make_worst_case_item(u, mu, c))
        assert ix.u_rsv == u and ix.mu == mu

    def test_cost_bounds_enforced(self):
        with pytest.raises(ValueError):
            make_worst_case_item(F(1), F(2), F(1))  # c == u_rsv
        with pytest.raises(ValueError):
            make_worst_case_item(F(1), F(2), F(0))
        with pytest.raises(ValueError):
            make_worst_case_item(F(2), F(1), F(1, 2))  # mu < u_rsv

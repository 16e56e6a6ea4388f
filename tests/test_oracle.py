import random
from fractions import Fraction as F

import pytest

from pandora_hedge import (
    CombModel,
    DiscreteDist,
    ExplicitFamily,
    FacilityLocationTerminal,
    Instance,
    Item,
    SurrogateKind,
    UniformMatroid,
    ZeroTerminal,
    evaluate_exact,
    expected_surrogate_cost,
    opt_value_comb_noi,
    opt_value_single_noi,
    opt_value_single_oi,
    pi_surrogate_bound,
    prepare_policy,
)
from pandora_hedge import oracle, policies
from pandora_hedge.budget import BudgetExceededError
from pandora_hedge.distkit import mean, min_of_independent
from pandora_hedge.indices import surrogate_dist
from pandora_hedge.randgen import random_comb_instance, random_instance

from helpers import golden_pair, two_point_item


class TestSingleItemOracles:
    def test_single_item_noi_never_inspects(self):
        inst = Instance([two_point_item()])
        assert opt_value_single_noi(inst) == 5  # min(mu, c + mu)

    def test_single_item_oi_forced_inspection(self):
        inst = Instance([two_point_item()])
        assert opt_value_single_oi(inst) == 7

    def test_golden_pair_values(self):
        inst = golden_pair()
        assert opt_value_single_noi(inst) == F(9, 2)
        assert opt_value_single_oi(inst) == F(9, 2)

    def test_point_masses_take_min_mean(self):
        inst = Instance(
            [Item(n, F(1), DiscreteDist.point_mass(F(v))) for n, v in enumerate((4, 2, 9))]
        )
        assert opt_value_single_noi(inst) == 2

    def test_noi_at_most_oi(self):
        rng = random.Random(2)
        for _ in range(30):
            inst = random_instance(rng, max_items=5)
            assert opt_value_single_noi(inst) <= opt_value_single_oi(inst) + 1e-12

    def test_oi_matches_one_shot_surrogate(self):
        rng = random.Random(6)
        for _ in range(30):
            inst = random_instance(rng, max_items=5)
            one_shot = mean(min_of_independent([surrogate_dist(it, SurrogateKind.OI) for it in inst.items]))
            assert abs(float(opt_value_single_oi(inst) - one_shot)) <= 1e-12

    def test_budget_guard(self):
        rng = random.Random(1)
        inst = random_instance(rng, n_items=6)
        with pytest.raises(BudgetExceededError):
            opt_value_single_noi(inst, budget=100)


class TestCombinatorialOracle:
    def test_reduction_to_single_item_dp(self):
        # full-observation recursion vs compressed best-observed recursion
        rng = random.Random(8)
        for _ in range(12):
            inst = random_instance(rng, max_items=3, max_support=3)
            n = len(inst)
            singletons = CombModel(UniformMatroid(1), ZeroTerminal(), n)
            assert abs(float(opt_value_comb_noi(singletons, inst) - opt_value_single_noi(inst))) <= 1e-12

    def test_select_all_never_inspects(self):
        inst = golden_pair()
        model = CombModel(UniformMatroid(2), ZeroTerminal(), 2)
        assert opt_value_comb_noi(model, inst) == 10  # sum of means

    def test_golden_pair_rank1(self):
        model = CombModel(UniformMatroid(1), ZeroTerminal(), 2)
        assert opt_value_comb_noi(model, golden_pair()) == F(9, 2)

    def test_lower_bound_sandwich_random(self):
        rng = random.Random(9)
        for _ in range(20):
            model, inst = random_comb_instance(rng, max_items=4)
            z_noi = expected_surrogate_cost(model, inst, SurrogateKind.NOI)
            opt = opt_value_comb_noi(model, inst)
            assert float(z_noi) <= float(opt) + 1e-12

    def test_facility_location_bound(self):
        d = ((F(0), F(2)), (F(2), F(0)))
        family = ExplicitFamily((frozenset({0}), frozenset({1}), frozenset({0, 1})))
        model = CombModel(family, FacilityLocationTerminal(d), 2)
        inst = golden_pair()
        z_noi = expected_surrogate_cost(model, inst, SurrogateKind.NOI)
        opt = opt_value_comb_noi(model, inst)
        assert z_noi <= opt

    def test_budget_guard(self):
        rng = random.Random(3)
        model, inst = random_comb_instance(rng, max_items=5)
        with pytest.raises(BudgetExceededError):
            opt_value_comb_noi(model, inst, budget=10)

    def test_model_size_mismatch(self):
        with pytest.raises(ValueError, match="number of items"):
            opt_value_comb_noi(CombModel(UniformMatroid(1), ZeroTerminal(), 3), golden_pair())


class TestPiSurrogateBound:
    """E[min W^NOI] <= E[min W^pi] <= E[cost pi], each exactly."""

    def test_inspect_everything_estimates_oi_bound(self):
        rng = random.Random(12)
        for inst in (golden_pair(), *(random_instance(rng, max_items=4, exact=True) for _ in range(4))):
            oi = mean(min_of_independent([surrogate_dist(it, SurrogateKind.OI) for it in inst.items]))
            assert pi_surrogate_bound(inst, "inspect-all") == oi

    def test_inspect_nothing_is_min_mean_exactly(self):
        for inst in (golden_pair(), golden_pair(exact=False)):
            bound = pi_surrogate_bound(inst, "never-inspect")
            assert bound == 5 and type(bound) is type(inst.indices[1].mu)

    def test_hedged_policy_bound_brackets(self):
        inst = golden_pair()
        bound = pi_surrogate_bound(inst, "local-hedging")
        noi = mean(min_of_independent([surrogate_dist(it, SurrogateKind.NOI) for it in inst.items]))
        assert noi == F(9, 2) and type(bound) is F
        assert noi <= bound <= evaluate_exact(prepare_policy(inst, "local-hedging"))

    def test_budget_is_charged_before_the_grid_is_built(self, monkeypatch):
        """A refused bound builds no grid: the charge comes first."""

        def no_grid(*args):
            raise AssertionError("a grid was built before the budget charge")

        monkeypatch.setattr(oracle, "IntegerGrid", no_grid)
        monkeypatch.setattr(policies, "IntegerGrid", no_grid)
        inst = Instance([two_point_item(item_id=0), two_point_item(item_id=1)])
        with pytest.raises(BudgetExceededError):
            pi_surrogate_bound(inst, "weitzman", budget=1)

    def test_bound_below_policy_cost_random(self):
        rng = random.Random(13)
        for _ in range(8):
            inst = random_instance(rng, max_items=4, exact=True)
            noi = mean(min_of_independent([surrogate_dist(it, SurrogateKind.NOI) for it in inst.items]))
            for policy in ("local-hedging", "weitzman"):
                assert noi <= pi_surrogate_bound(inst, policy) <= evaluate_exact(prepare_policy(inst, policy))

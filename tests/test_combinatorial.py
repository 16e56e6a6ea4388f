import random
from fractions import Fraction as F

import numpy as np
import pytest

from pandora_hedge import (
    CombModel,
    DiscreteDist,
    ExplicitFamily,
    FacilityLocationTerminal,
    GraphicMatroid,
    HedgeCoins,
    Instance,
    Item,
    Realization,
    SurrogateKind,
    UniformMatroid,
    ZeroTerminal,
    combinatorial,
    evaluate_exact,
    evaluate_mc,
    expected_surrogate_cost,
    expected_surrogate_cost_mc,
    prepare_comb_policy,
    prepare_policy,
    surrogate_cost,
)
from pandora_hedge import policies
from pandora_hedge.budget import BudgetExceededError
from pandora_hedge.combinatorial import RuleError, rule_for_model
from pandora_hedge.distkit import mean, min_of_independent
from pandora_hedge.indices import surrogate_dist
from pandora_hedge.randgen import random_comb_instance, random_instance

from helpers import added, golden_pair, price_realizations, two_point_item


def rank_model(k, n):
    return CombModel(UniformMatroid(k), ZeroTerminal(), n)


def triangle_model():
    return CombModel(GraphicMatroid(((0, 1), (1, 2), (0, 2))), ZeroTerminal(), 3)


def three_deterministic_items():
    return Instance(
        [Item(n, F(0), DiscreteDist.point_mass(F(v))) for n, v in enumerate((1, 2, 3))]
    )


class TestFamilies:
    def test_explicit_rejects_non_upward_closed(self):
        with pytest.raises(ValueError, match="upward closed"):
            CombModel(ExplicitFamily((frozenset({0}),)), ZeroTerminal(), 2)

    def test_explicit_rejects_empty_family(self):
        with pytest.raises(ValueError, match="empty"):
            CombModel(ExplicitFamily(()), ZeroTerminal(), 2)

    def test_explicit_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            CombModel(ExplicitFamily((frozenset({0, 5}),)), ZeroTerminal(), 2)

    def test_uniform_rank_bounds(self):
        with pytest.raises(ValueError):
            rank_model(0, 3)
        with pytest.raises(ValueError):
            rank_model(4, 3)

    def test_graphic_requires_connected(self):
        with pytest.raises(ValueError, match="connected"):
            CombModel(GraphicMatroid(((0, 1), (2, 3))), ZeroTerminal(), 2)

    def test_graphic_feasibility(self):
        model = triangle_model()
        assert model.is_feasible(frozenset({0, 1}))
        assert model.is_feasible(frozenset({0, 1, 2}))
        assert not model.is_feasible(frozenset({0}))

    def test_graphic_vertex_set_built_once(self):
        family = triangle_model().family
        assert family.vertices == frozenset({0, 1, 2})
        assert family.vertices is family.vertices

    def test_facility_location_validation(self):
        with pytest.raises(ValueError, match="square"):
            FacilityLocationTerminal(((F(0),),)).validate(2)
        with pytest.raises(ValueError, match="nonnegative"):
            FacilityLocationTerminal(((F(0), F(-1)), (F(1), F(0)))).validate(2)


class TestSurrogateCost:
    def test_uniform_k2_takes_two_smallest(self):
        value, chosen = surrogate_cost(rank_model(2, 3), [3, 1, 2])
        assert value == 3 and chosen == frozenset({1, 2})

    def test_singleton_reduction(self):
        model = CombModel(ExplicitFamily((frozenset({0}), frozenset({1}), frozenset({0, 1}))), ZeroTerminal(), 2)
        value, chosen = surrogate_cost(model, [4, 6])
        assert value == 4 and chosen == frozenset({0})

    def test_triangle_mst(self):
        value, chosen = surrogate_cost(triangle_model(), [1, 2, 3])
        assert value == 3 and chosen == frozenset({0, 1})

    def test_tie_prefers_lexicographic_id_set(self):
        value, chosen = surrogate_cost(rank_model(1, 3), [2, 2, 2])
        assert value == 2 and chosen == frozenset({0})

    def test_matroid_fast_paths_match_enumeration(self):
        rng = random.Random(4)
        for _ in range(30):
            n = rng.randint(2, 5)
            prices = [F(rng.randint(0, 12), 2) for _ in range(n)]
            if rng.random() < 0.5:
                model = rank_model(rng.randint(1, n), n)
            else:
                tri = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
                model = CombModel(GraphicMatroid(tuple(tri[:n])), ZeroTerminal(), n)
            fast_value, fast_set = surrogate_cost(model, prices)
            generic = CombModel(
                ExplicitFamily(
                    tuple(
                        frozenset(s)
                        for s in _powerset(n)
                        if s and model.is_feasible(frozenset(s))
                    )
                ),
                ZeroTerminal(),
                n,
            )
            slow_value, slow_set = surrogate_cost(generic, prices)
            assert fast_value == slow_value
            assert added(prices[i] for i in fast_set) == fast_value

    def test_negative_prices_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            surrogate_cost(rank_model(1, 2), [-1, 2])

    def test_facility_location_cost(self):
        # opening item 1 only: items 0 and 2 connect at distance 1 each
        d = (
            (F(0), F(1), F(5)),
            (F(1), F(0), F(1)),
            (F(5), F(1), F(0)),
        )
        family = ExplicitFamily(tuple(frozenset(s) for s in _powerset(3) if s))
        model = CombModel(family, FacilityLocationTerminal(d), 3)
        value, chosen = surrogate_cost(model, [10, 3, 10])
        assert chosen == frozenset({1}) and value == 3 + 2

    def test_batch_keeps_the_type_of_the_tied_set(self):
        """An int-priced and a float-priced set tie: the batch returns the
        value of the lexicographically first, as ``surrogate_cost`` does."""
        model = CombModel(ExplicitFamily(tuple(frozenset(s) for s in _powerset(2) if s)), ZeroTerminal(), 2)
        columns = [[2, 2.0], [2.0, 2], [1, 1.5]]
        expected = [surrogate_cost(model, column)[0] for column in columns]
        assert surrogate_cost(model, columns[0]) == (2, frozenset({0}))
        got = combinatorial.surrogate_costs(model, np.float64)(np.array(columns, dtype=object).T)
        assert got == expected and list(map(type, got)) == [int, float, int]


def _powerset(n):
    import itertools

    out = []
    for r in range(n + 1):
        out.extend(itertools.combinations(range(n), r))
    return out


class TestExpectedSurrogateCost:
    def test_rank1_matches_min_surrogate(self):
        inst = golden_pair()
        model = rank_model(1, 2)
        for kind in SurrogateKind:
            expected = mean(min_of_independent([surrogate_dist(it, kind) for it in inst.items]))
            assert expected_surrogate_cost(model, inst, kind) == expected

    def test_rank_n_is_sum_of_means(self):
        inst = golden_pair()
        model = rank_model(2, 2)
        assert expected_surrogate_cost(model, inst, SurrogateKind.OI) == 5 + 7
        assert expected_surrogate_cost(model, inst, SurrogateKind.NOI) == 10

    def test_rank1_two_iid_oi(self):
        inst = Instance([two_point_item(item_id=0), two_point_item(item_id=1)])
        assert expected_surrogate_cost(rank_model(1, 2), inst, SurrogateKind.OI) == F(11, 2)

    def test_budget_error(self):
        rng = random.Random(0)
        _, inst = random_comb_instance(rng, max_items=6)
        model = rank_model(1, len(inst))
        with pytest.raises(BudgetExceededError):
            expected_surrogate_cost(model, inst, SurrogateKind.LH, budget=2)

    def test_budget_is_charged_before_the_grid_is_built(self, monkeypatch):
        """A refused E[Z] builds no grid: the charge comes first."""

        def no_grid(*args):
            raise AssertionError("a grid was built before the budget charge")

        monkeypatch.setattr(combinatorial, "IntegerGrid", no_grid)
        monkeypatch.setattr(policies, "IntegerGrid", no_grid)
        inst = Instance([two_point_item(item_id=0), two_point_item(item_id=1)])
        for kind in SurrogateKind:
            with pytest.raises(BudgetExceededError):
                expected_surrogate_cost(rank_model(1, 2), inst, kind, budget=0)

    def test_mc_within_band(self):
        inst = Instance([two_point_item(exact=False, item_id=0), two_point_item(exact=False, item_id=1)])
        est, err = expected_surrogate_cost_mc(rank_model(1, 2), inst, SurrogateKind.OI, 50_000, seed=3)
        assert abs(est - 5.5) <= 3 * err


class TestFrugalPolicy:
    def test_rank1_reproduces_weitzman_traces(self):
        rng = random.Random(23)
        for _ in range(60):
            inst = random_instance(rng, max_items=5)
            model = rank_model(1, len(inst))
            weitzman = prepare_policy(inst, "weitzman")
            frugal = prepare_comb_policy(model, inst, "frugal-oi")
            for prices in price_realizations(inst):
                r = Realization(prices)
                tw = weitzman.run(r)
                tf = frugal.run(r)
                assert tw.inspection_order == tf.inspection_order
                assert tw.selected == tf.selected
                assert tw.total_cost == tf.total_cost

    def test_deterministic_rank2(self):
        inst = three_deterministic_items()
        trace = prepare_comb_policy(rank_model(2, 3), inst, "frugal-oi").run(Realization((F(1), F(2), F(3))))
        assert trace.selected == frozenset({0, 1})
        assert trace.total_cost == 3

    def test_rank1_two_iid_expected_cost(self):
        inst = Instance([two_point_item(item_id=0), two_point_item(item_id=1)])
        value = evaluate_exact(prepare_comb_policy(rank_model(1, 2), inst, "frugal-oi"))
        assert value == F(11, 2)

    def test_beta_one_equality_random(self):
        rng = random.Random(31)
        for _ in range(40):
            model, inst = random_comb_instance(rng, max_items=5)
            frugal = evaluate_exact(prepare_comb_policy(model, inst, "frugal-oi"))
            z_oi = expected_surrogate_cost(model, inst, SurrogateKind.OI)
            assert abs(float(frugal - z_oi)) <= 1e-12

    def test_spanning_tree_trace(self):
        inst = three_deterministic_items()
        trace = prepare_comb_policy(triangle_model(), inst, "frugal-oi").run(Realization((F(1), F(2), F(3))))
        assert trace.selected == frozenset({0, 1})

    def test_rule_error_on_bad_plugin(self):
        class BadRule:
            def propose(self, tau, selected, inspected, model):
                return 0  # proposes forever, including selected items

        inst = three_deterministic_items()
        with pytest.raises(RuleError, match="already-selected"):
            prepare_comb_policy(rank_model(1, 3), inst, "frugal-oi", rule=BadRule()).run(Realization((F(1), F(2), F(3))))

    def test_no_rule_for_explicit_family(self):
        model = CombModel(ExplicitFamily((frozenset({0}), frozenset({0, 1}), frozenset({1}))), ZeroTerminal(), 2)
        with pytest.raises(ValueError, match="plugin"):
            rule_for_model(model)


class TestCombinatorialHedging:
    def test_all_obligatory_matches_frugal(self):
        inst = golden_pair()
        model = rank_model(1, 2)
        coins = HedgeCoins((True, True))
        frugal = prepare_comb_policy(model, inst, "frugal-oi")
        hedged = prepare_comb_policy(model, inst, "local-hedging")
        for prices in price_realizations(inst):
            r = Realization(prices)
            a = frugal.run(r)
            b = hedged.run(r, coins)
            assert (a.inspection_order, a.selected, a.total_cost) == (
                b.inspection_order,
                b.selected,
                b.total_cost,
            )

    def test_all_non_inspection_selects_cheapest_means(self):
        inst = Instance([two_point_item(item_id=0), two_point_item(item_id=1)])
        coins = HedgeCoins((False, False))
        trace = prepare_comb_policy(rank_model(1, 2), inst, "local-hedging").run(Realization((F(10), F(0))), coins)
        assert trace.selected == frozenset({0})  # means tie at 5, id 0 wins
        assert trace.selected_without_inspection == frozenset({0})
        assert trace.total_cost == 10  # realized price of the selected item

    def test_rank1_reduction_matches_single_item_lh(self):
        rng = random.Random(41)
        for _ in range(15):
            inst = random_instance(rng, max_items=4)
            model = rank_model(1, len(inst))
            a = evaluate_exact(prepare_comb_policy(model, inst, "local-hedging"))
            b = evaluate_exact(prepare_policy(inst, "local-hedging"))
            assert abs(float(a - b)) <= 1e-12

    def test_mixture_identity_random(self):
        rng = random.Random(43)
        for _ in range(25):
            model, inst = random_comb_instance(rng, max_items=4)
            lh = evaluate_exact(prepare_comb_policy(model, inst, "local-hedging"))
            z_lh = expected_surrogate_cost(model, inst, SurrogateKind.LH)
            assert abs(float(lh - z_lh)) <= 1e-12

    def test_mc_matches_exact_within_band(self):
        inst = Instance([two_point_item(exact=False, item_id=0), two_point_item(exact=False, item_id=1)])
        model = rank_model(1, 2)
        exact = float(evaluate_exact(prepare_comb_policy(model, inst, "local-hedging")))
        est, err = evaluate_mc(prepare_comb_policy(model, inst, "local-hedging"), 50_000, seed=5)
        assert abs(est - exact) <= 3 * err + 1e-9

    def test_exact_rational_end_to_end(self):
        items = [
            Item(0, F(1), DiscreteDist(((F(1), F(1, 3)), (F(4), F(2, 3))))),
            Item(1, F(1, 2), DiscreteDist(((F(0), F(1, 4)), (F(3), F(3, 4))))),
            Item(2, F(0), DiscreteDist(((F(2), F(1, 2)), (F(5), F(1, 2))))),
        ]
        inst = Instance(items)
        model = rank_model(2, 3)
        assert evaluate_exact(prepare_comb_policy(model, inst, "frugal-oi")) == expected_surrogate_cost(
            model, inst, SurrogateKind.OI
        )
        assert evaluate_exact(prepare_comb_policy(model, inst, "local-hedging")) == expected_surrogate_cost(
            model, inst, SurrogateKind.LH
        )

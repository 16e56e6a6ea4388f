import dataclasses
import importlib
import pkgutil
import random
from fractions import Fraction as F

import numpy as np
import pytest

import pandora_hedge
from pandora_hedge import (
    Action,
    CombModel,
    DiscreteDist,
    HedgeCoins,
    Instance,
    Item,
    Realization,
    SurrogateKind,
    UniformMatroid,
    ZeroTerminal,
    evaluate_exact,
    evaluate_mc,
    one_item_optimal_action,
    one_item_value,
    prepare_comb_policy,
)
from pandora_hedge.budget import BudgetExceededError
from pandora_hedge.distkit import mean, min_of_independent
from pandora_hedge.indices import compute_indices, surrogate_dist
from pandora_hedge.policies import IntegerGrid, array_dtype, commit_enum_labeling, prepare_policy, price_columns
from pandora_hedge.randgen import random_instance

from helpers import enumerate_lh_cost, golden_pair, price_realizations, two_point_item


class TestOneItemSubproblem:
    def test_actions_partition_by_outside_option(self):
        item = two_point_item()
        assert one_item_optimal_action(item, 5) is Action.INSPECT
        assert one_item_optimal_action(item, 3) is Action.TAKE_OUTSIDE
        assert one_item_optimal_action(item, 100) is Action.SELECT_UNINSPECTED

    def test_boundaries_prefer_non_inspect(self):
        item = two_point_item()  # u_rsv 4, u_bkp 6
        assert one_item_optimal_action(item, 4) is Action.TAKE_OUTSIDE
        assert one_item_optimal_action(item, 6) is Action.SELECT_UNINSPECTED

    def test_never_inspect_item(self):
        item = Item(0, F(0), DiscreteDist.point_mass(F(5)))
        assert one_item_optimal_action(item, 1) is Action.SELECT_UNINSPECTED

    def test_value_noi(self):
        item = two_point_item()
        assert one_item_value(item, 5, SurrogateKind.NOI) == F(9, 2)
        assert one_item_value(item, 3, SurrogateKind.NOI) == 3

    def test_value_sentinel(self):
        item = two_point_item()
        assert one_item_value(item, None, SurrogateKind.NOI) == 5
        assert one_item_value(item, None, SurrogateKind.OI) == 7

    def test_value_rejects_lh_regime(self):
        with pytest.raises(ValueError):
            one_item_value(two_point_item(), 5, SurrogateKind.LH)


class TestWeitzmanTraces:
    def test_hand_trace_two_items(self):
        a = Item(0, F(0), DiscreteDist.point_mass(F(3)))
        inst = Instance([a, two_point_item(item_id=1)])
        weitzman = prepare_policy(inst, "weitzman")
        for v_b in (F(0), F(10)):
            trace = weitzman.run(Realization((F(3), v_b)))
            assert trace.inspection_order == (0,)
            assert trace.selected == frozenset({0})
            assert trace.total_cost == 3

    def test_single_item_forced(self):
        inst = Instance([two_point_item()])
        trace = prepare_policy(inst, "weitzman").run(Realization((F(10),)))
        assert trace.inspection_order == (0,) and trace.total_cost == 12

    def test_selection_tie_breaks_by_id(self):
        d = DiscreteDist.point_mass(F(7))
        inst = Instance([Item(0, F(1), d), Item(1, F(1), d)])
        trace = prepare_policy(inst, "weitzman").run(Realization((F(7), F(7))))
        assert trace.selected == frozenset({0})

    def test_expected_cost_single_item(self):
        inst = Instance([two_point_item()])
        assert evaluate_exact(prepare_policy(inst, "weitzman")) == 7  # c + mu


class TestLocalHedgingTraces:
    def test_hand_trace_b_obligatory(self):
        inst = golden_pair()
        coins = HedgeCoins((False, True))
        t0 = prepare_policy(inst, "local-hedging").run(Realization((F(5), F(0))), coins)
        assert t0.inspection_order == (1,)
        assert t0.selected == frozenset({1}) and t0.total_cost == 2
        t1 = prepare_policy(inst, "local-hedging").run(Realization((F(5), F(10))), coins)
        assert t1.selected == frozenset({0})
        assert t1.selected_without_inspection == frozenset({0})
        assert t1.total_cost == 7  # c_B + realized price of A

    def test_hand_trace_b_non_inspection(self):
        inst = golden_pair()
        coins = HedgeCoins((False, False))
        trace = prepare_policy(inst, "local-hedging").run(Realization((F(5), F(10))), coins)
        assert trace.inspection_order == ()
        assert trace.selected == frozenset({0})  # tie at 5 broken by id
        assert trace.total_cost == 5

    def test_tie_between_pseudo_observations_prefers_low_id(self):
        inst = golden_pair()
        coins = HedgeCoins((True, False))
        # both play as deterministic 5; A (id 0) is probed first and wins
        trace = prepare_policy(inst, "local-hedging").run(Realization((F(5), F(10))), coins)
        assert trace.selected == frozenset({0})
        assert trace.total_cost == 5 and trace.labels == (True, False)

    def test_non_inspection_charges_realized_price(self):
        a = Item(0, F(0), DiscreteDist.point_mass(F(6)))
        inst = Instance([a, two_point_item(item_id=1)])
        coins = HedgeCoins((True, False))
        # B plays as its mean 5 < 6, gets selected, and pays its real price
        trace = prepare_policy(inst, "local-hedging").run(Realization((F(6), F(10))), coins)
        assert trace.selected == frozenset({1})
        assert trace.selected_without_inspection == frozenset({1})
        assert trace.inspection_order == ()
        assert trace.total_cost == 10


    @pytest.mark.parametrize("exact", [False, True])
    def test_fixed_labels_reproduce_weitzman_and_never_inspect(self, exact):
        rng = random.Random(29)
        for _ in range(30):
            inst = random_instance(rng, max_items=5, exact=exact)
            hedged = prepare_policy(inst, "local-hedging")
            cases = (
                (HedgeCoins.all_obligatory(inst), prepare_policy(inst, "weitzman")),
                (HedgeCoins((False,) * len(inst)), prepare_policy(inst, "never-inspect")),
            )
            for prices in price_realizations(inst):
                r = Realization(prices)
                for coins, reference in cases:
                    trace = hedged.run(r, coins)
                    assert trace.labels == coins.labels
                    assert dataclasses.replace(trace, labels=None) == reference.run(r)

    @pytest.mark.parametrize("exact", [False, True])
    def test_fixed_labels_ignore_coins(self, exact):
        """Only local hedging draws coins: random coins passed to a policy
        with fixed labels change none of its traces and none of its totals."""
        rng = random.Random(31)
        draw = np.random.default_rng(31)
        for _ in range(20):
            inst = random_instance(rng, max_items=5, exact=exact)
            grid = IntegerGrid(inst)
            prices = np.array(list(price_realizations(inst)), dtype=object).T
            on_grid = price_columns(grid.instance, 5, 0, 64, array_dtype(grid.instance))
            for policy in ("weitzman", "commit-enum", "never-inspect"):
                prepared = prepare_policy(inst, policy)
                coins = draw.random(prices.shape) < 0.5
                assert prepared.traces(prices, coins) == prepared.traces(prices, None)
                batch = prepared.batch(grid)
                coins = draw.random(on_grid.shape) < 0.5
                assert batch(on_grid, coins).tolist() == batch(on_grid, None).tolist()


def _count_index_rebuilds(monkeypatch) -> dict:
    """Count Instance constructions and compute_indices calls through every
    module binding from here on."""
    counts = {"Instance": 0, "compute_indices": 0}
    init = Instance.__init__

    def counting_init(self, *args, **kwargs):
        counts["Instance"] += 1
        init(self, *args, **kwargs)

    def counting_indices(item):
        counts["compute_indices"] += 1
        return compute_indices(item)

    monkeypatch.setattr(Instance, "__init__", counting_init)
    modules = [pandora_hedge] + [
        importlib.import_module(f"pandora_hedge.{m.name}") for m in pkgutil.iter_modules(pandora_hedge.__path__)
    ]
    for mod in modules:
        if getattr(mod, "compute_indices", None) is compute_indices:
            monkeypatch.setattr(mod, "compute_indices", counting_indices)
    return counts


class TestHedgedView:
    def test_single_item_mc_rebuilds_nothing(self, monkeypatch):
        inst = golden_pair(exact=False)
        counts = _count_index_rebuilds(monkeypatch)
        evaluate_mc(prepare_policy(inst, "local-hedging"), 300, seed=4)
        assert counts == {"Instance": 0, "compute_indices": 0}

    def test_combinatorial_mc_rebuilds_nothing(self, monkeypatch):
        inst = golden_pair(exact=False)
        model = CombModel(UniformMatroid(1), ZeroTerminal(), 2)
        counts = _count_index_rebuilds(monkeypatch)
        evaluate_mc(prepare_comb_policy(model, inst, "local-hedging"), 300, seed=4)
        assert counts == {"Instance": 0, "compute_indices": 0}

    def test_counter_sees_rebuilds(self, monkeypatch):
        counts = _count_index_rebuilds(monkeypatch)
        golden_pair()
        surrogate_dist(two_point_item(), SurrogateKind.OI)
        assert counts == {"Instance": 1, "compute_indices": 3}


class TestExactEvaluation:
    def test_lh_golden_value(self):
        assert evaluate_exact(prepare_policy(golden_pair(), "local-hedging")) == F(125, 26)

    def test_lh_equals_trace_enumeration(self):
        # marginalized evaluator vs brute-force coins x full price product
        rng = random.Random(3)
        for _ in range(10):
            inst = random_instance(rng, max_items=3, exact=False)
            a = evaluate_exact(prepare_policy(inst, "local-hedging"))
            b = enumerate_lh_cost(inst)
            assert abs(a - b) < 1e-12

    def test_lh_equals_one_shot_surrogate_minimum(self):
        inst = golden_pair()
        one_shot = mean(min_of_independent([surrogate_dist(it, SurrogateKind.LH) for it in inst.items]))
        assert evaluate_exact(prepare_policy(inst, "local-hedging")) == one_shot

    def test_weitzman_point_mass(self):
        inst = Instance([Item(0, F(1), DiscreteDist.point_mass(F(5)))])
        assert evaluate_exact(prepare_policy(inst, "weitzman")) == 6

    def test_budget_error_instructs_mc(self):
        rng = random.Random(0)
        inst = random_instance(rng, n_items=6)
        with pytest.raises(BudgetExceededError, match="Monte Carlo"):
            evaluate_exact(prepare_policy(inst, "weitzman"), budget=10)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown policy"):
            evaluate_exact(prepare_policy(golden_pair(), "gradient-descent"))


class TestCommitEnum:
    def test_labeling_tie_prefers_all_obligatory(self):
        # golden pair: skipping A ties the all-obligatory value 4.5
        coins = commit_enum_labeling(golden_pair())
        assert coins.labels == (True, True)

    def test_labeling_takes_strict_improvement(self):
        # never-inspect item alone: all-obligatory wastes the inspection cost
        inst = Instance([Item(0, F(4), DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2)))))])
        assert commit_enum_labeling(inst).labels == (False,)

    def test_beats_or_matches_weitzman(self):
        rng = random.Random(5)
        for _ in range(20):
            inst = random_instance(rng, max_items=4)
            ce = evaluate_exact(prepare_policy(inst, "commit-enum"))
            w = evaluate_exact(prepare_policy(inst, "weitzman"))
            lh = evaluate_exact(prepare_policy(inst, "local-hedging"))
            assert ce <= w + 1e-12  # all-obligatory is a candidate labeling
            assert ce <= lh + 1e-12  # best committing beats the mixture

    def test_trace_records_labels(self):
        trace = prepare_policy(golden_pair(), "commit-enum").run(Realization((F(5), F(10))))
        assert trace.labels == (True, True)


class TestDiagnosticPolicies:
    def test_inspect_all(self):
        trace = prepare_policy(golden_pair(), "inspect-all").run(Realization((F(5), F(0))))
        assert trace.inspection_order == (0, 1) and trace.total_cost == 2

    def test_never_inspect(self):
        trace = prepare_policy(golden_pair(), "never-inspect").run(Realization((F(5), F(10))))
        assert trace.selected == frozenset({0}) and trace.total_cost == 5

    def test_run_policy_dispatch(self):
        r = Realization((F(5), F(0)))
        assert prepare_policy(golden_pair(), "inspect-all").run(r).total_cost == 2
        with pytest.raises(ValueError):
            prepare_policy(golden_pair(), "local-hedging").run(r)  # coins required


class TestMonteCarloEvaluation:
    def test_deterministic_instance_zero_stderr(self):
        inst = Instance([Item(0, F(1), DiscreteDist.point_mass(F(5)))])
        mean_v, stderr = evaluate_mc(prepare_policy(inst, "weitzman"), 50, seed=9)
        assert mean_v == 6.0 and stderr == 0.0

    def test_clt_band_two_point(self):
        inst = Instance([two_point_item(exact=False)])
        mean_v, stderr = evaluate_mc(prepare_policy(inst, "weitzman"), 100_000, seed=1)
        assert abs(mean_v - 7.0) <= 3 * stderr

    def test_lh_mc_matches_exact_within_band(self):
        inst = golden_pair(exact=False)
        mean_v, stderr = evaluate_mc(prepare_policy(inst, "local-hedging"), 100_000, seed=2)
        assert abs(mean_v - 125 / 26) <= 3 * stderr + 1e-9

    def test_same_seed_bitwise_identical(self):
        inst = golden_pair(exact=False)
        a = evaluate_mc(prepare_policy(inst, "local-hedging"), 2000, seed=7)
        b = evaluate_mc(prepare_policy(inst, "local-hedging"), 2000, seed=7)
        assert a == b

    def test_trials_validated(self):
        with pytest.raises(ValueError):
            evaluate_mc(prepare_policy(golden_pair(), "weitzman"), 0, seed=1)


class TestTraceArgminConsistency:
    def test_selected_attains_surrogate_view_minimum(self):
        rng = random.Random(17)
        for _ in range(40):
            inst = random_instance(rng, max_items=5)
            weitzman = prepare_policy(inst, "weitzman")
            for prices in price_realizations(inst):
                trace = weitzman.run(Realization(prices))
                inspected = set(trace.inspection_order)
                views = [
                    max(prices[n], inst.indices[n].u_rsv) if n in inspected else inst.indices[n].u_rsv
                    for n in range(len(inst))
                ]
                sel = next(iter(trace.selected))
                assert views[sel] <= min(views) + 1e-12

"""Exact-mode combinatorial Monte Carlo runs on an integer grid: every
estimate equals the summary of the per-trial ``Fraction`` results, bit for
bit, float-mode instances keep their own numbers, and every path that
computes an expected cost or an optimum scales onto the grid, while traces
do not."""

import functools
import itertools
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from pandora_hedge import (
    CombModel,
    DiscreteDist,
    ExplicitFamily,
    FacilityLocationTerminal,
    GraphicMatroid,
    Instance,
    Item,
    SurrogateKind,
    UniformMatroid,
    ZeroTerminal,
    evaluate_comb_policy_mc,
    expected_surrogate_cost_mc,
    opt_value_comb_noi,
    opt_value_single_noi,
    opt_value_single_oi,
    pi_surrogate_bound,
    prepare_comb_policy,
    surrogate_cost,
)
from pandora_hedge import sampling
from pandora_hedge.cli import main
from pandora_hedge.combinatorial import (
    COMB_POLICIES,
    GraphicMatroidRule,
    RuleError,
    UniformMatroidRule,
)
from pandora_hedge.indices import surrogate_dist
from pandora_hedge.instancefile import load_instance
from pandora_hedge.policies import (
    IntegerGrid,
    array_dtype,
    coin_columns,
    iter_trials,
    prepare_policy,
    price_columns,
)
from pandora_hedge.randgen import random_comb_instance, random_instance
from pandora_hedge.sampling import SURROGATE_STREAM, mc_summary, sample_columns

from helpers import all_int, big_grid, reference_comb_policy, seeded_trials

SEED = 5
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _dist(pairs):
    return DiscreteDist(tuple(pairs))


def tie_heavy():
    """Six exact items with thirds and sevenths: two identical items (equal
    keys), a mean equal to another item's support value, a free item
    (p_hedge 1, key at its lowest value), a point mass and a too-costly item
    (p_hedge 0, key at its mean)."""
    third = F(1, 3)
    items = [
        (F(1, 7), _dist(((F(1), F(1, 2)), (F(3), F(1, 2))))),  # mean 2
        (F(1, 7), _dist(((F(1), F(1, 2)), (F(3), F(1, 2))))),  # same keys as item 0
        (F(0), _dist(((F(2), third), (F(8, 3), 2 * third)))),  # free; 2 is item 0's mean
        (F(0), _dist(((F(2), F(1)),))),  # point mass at 2
        (F(5), _dist(((F(4, 3), F(1, 2)), (F(8, 3), F(1, 2))))),  # too costly: key 2
        (F(1, 21), _dist(((F(1), F(1, 4)), (F(2), F(1, 2)), (F(3), F(1, 4))))),
    ]
    return Instance([Item(n, c, d) for n, (c, d) in enumerate(items)])


def uniform(k, n):
    return CombModel(UniformMatroid(k), ZeroTerminal(), n)


def square_with_diagonals(n):
    edges = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3))[:n]
    return CombModel(GraphicMatroid(edges), ZeroTerminal(), n)


def facility(n, family=None):
    rng = random.Random(n)
    rows = [[F(rng.randint(0, 12), rng.choice((1, 3, 5))) for _ in range(n)] for _ in range(n)]
    for a in range(n):
        rows[a][a] = F(0)
    distances = tuple(tuple(row) for row in rows)
    return CombModel(family or UniformMatroid(1), FacilityLocationTerminal(distances), n)


def all_nonempty(n):
    return ExplicitFamily(
        tuple(frozenset(s) for size in range(1, n + 1) for s in itertools.combinations(range(n), size))
    )


def _random_models(exact):
    rng = random.Random(61 if exact else 60)
    for k, graphic in ((1, False), (2, False), (3, True), (5, True)):
        inst = random_instance(rng, n_items=k + 1 if not graphic else k, max_support=3, exact=exact)
        yield (square_with_diagonals(len(inst)) if graphic else uniform(k, len(inst))), inst
    for _ in range(3):
        yield random_comb_instance(rng, max_items=6, exact=exact)


def _exact_cases():
    inst = tie_heavy()
    yield uniform(2, len(inst)), inst
    yield uniform(1, len(inst)), inst
    yield square_with_diagonals(len(inst)), inst
    yield facility(len(inst)), inst
    big = big_grid()
    yield uniform(2, len(big)), big
    yield square_with_diagonals(len(big)), big
    ints = all_int()
    yield uniform(2, len(ints)), ints
    yield square_with_diagonals(len(ints)), ints
    yield from _random_models(True)


def _grid(model, instance):
    """The instance's grid over the model's distances, as Monte Carlo builds it."""
    return IntegerGrid(instance, model)


def _reference_totals(model, instance, policy, count, rule=None):
    """Per-trial totals of the reference frugal engine on the seeded draws."""
    run = reference_comb_policy(model, instance, policy, rule)
    realizations, coins = seeded_trials(instance, SEED, 0, count)
    return [run(r, c).total_cost for r, c in zip(realizations, coins)]


def _reference_surrogate(model, instance, kind, count):
    lanes = [(d.values, d.probs) for d in (surrogate_dist(item, kind) for item in instance.items)]
    rows = zip(*sample_columns(lanes, SEED, SURROGATE_STREAM, 0, count).tolist())
    return [surrogate_cost(model, row)[0] for row in rows]


def test_cases_cover_ties_and_a_grid_beyond_float():
    inst = tie_heavy()
    keys = [ix.u_rsv for ix in inst.indices]
    assert keys[0] == keys[1] and inst.indices[0].mu == 2 and inst.indices[4].mu == 2
    assert inst.indices[2].p_hedge == 1 and inst.indices[4].p_hedge == 0 and 0 < inst.indices[0].p_hedge < 1
    big = big_grid()
    grid = IntegerGrid(big)
    assert grid.L * max(item.dist.max_support for item in big.items) > 2**53
    ints = all_int()
    assert array_dtype(ints) is not object and IntegerGrid(ints).L == 1
    assert 0 < ints.indices[2].p_hedge < 1


def test_grid_numbers_are_ints_and_scale_exactly():
    model, inst = facility(len(tie_heavy())), tie_heavy()
    grid = _grid(model, inst)
    assert grid.exact and grid.L % 21 == 0
    scaled = grid.instance
    for item, on_grid, ix, ix_grid in zip(inst.items, scaled.items, inst.indices, scaled.indices):
        for x, g in zip((item.cost, *item.dist.values, ix.mu, ix.u_rsv, ix.u_bkp),
                        (on_grid.cost, *on_grid.dist.values, ix_grid.mu, ix_grid.u_rsv, ix_grid.u_bkp)):
            assert type(g) is int and g == x * grid.L
        assert on_grid.dist.probs == item.dist.probs and ix_grid.p_hedge == ix.p_hedge
    for row, row_grid in zip(model.terminal.distances, grid.model.terminal.distances):
        assert [d * grid.L for d in row] == list(row_grid)


@pytest.mark.parametrize("policy", COMB_POLICIES)
class TestPoliciesOnTheGrid:
    @pytest.mark.parametrize("count", [1, 2, 37])
    def test_batch_totals_equal_fraction_totals(self, policy, count):
        for model, inst in _exact_cases():
            expected = _reference_totals(model, inst, policy, count)
            assert all(isinstance(t, (F, int)) for t in expected)
            prepared = prepare_comb_policy(model, inst, policy)
            grid = IntegerGrid(inst, prepared.model)
            prices = price_columns(grid.instance, SEED, 0, count, array_dtype(grid.instance))
            coins = coin_columns(inst, SEED, 0, count) if prepared.draws_coins else None
            totals = prepared.batch(grid)(prices, coins)
            assert all(type(t) is int for t in totals) and totals == [t * grid.L for t in expected]
            assert [t / grid.L for t in totals] == [float(t) for t in expected]

    def test_mc_equals_per_trial_summary(self, policy):
        for model, inst in _exact_cases():
            expected = mc_summary(_reference_totals(model, inst, policy, 60))
            assert evaluate_comb_policy_mc(model, inst, policy, 60, SEED) == expected

    def test_straddles_a_chunk_boundary(self, policy, monkeypatch):
        monkeypatch.setattr(sampling, "MC_CHUNK", 7)
        for model, inst in _exact_cases():
            for count in (6, 7, 8, 22):
                expected = mc_summary(_reference_totals(model, inst, policy, count))
                assert evaluate_comb_policy_mc(model, inst, policy, count, SEED) == expected

    def test_float_mode_keeps_its_numbers(self, policy):
        for model, inst in _random_models(False):
            grid = _grid(model, inst)
            assert not grid.exact and grid.L == 1 and grid.instance is inst and grid.model is model
            expected = mc_summary(_reference_totals(model, inst, policy, 60))
            assert evaluate_comb_policy_mc(model, inst, policy, 60, SEED) == expected

    def test_rules_see_ints_in_exact_mode(self, policy):
        seen = set()

        class Recording(UniformMatroidRule):
            def propose(self, tau, selected, inspected, model):
                seen.update(type(t) for t in tau)
                return super().propose(tau, selected, inspected, model)

        inst = tie_heavy()
        evaluate_comb_policy_mc(uniform(2, len(inst)), inst, policy, 20, SEED, rule=Recording())
        assert seen == {int}

    def test_misbehaving_rule_raises_from_mc(self, policy):
        class Repeats(GraphicMatroidRule):
            def propose(self, tau, selected, inspected, model):
                return next(iter(selected)) if selected else super().propose(tau, selected, inspected, model)

        class QuitsEarly(UniformMatroidRule):
            def propose(self, tau, selected, inspected, model):
                return None

        inst = tie_heavy()
        with pytest.raises(RuleError, match="already-selected"):
            evaluate_comb_policy_mc(square_with_diagonals(len(inst)), inst, policy, 20, SEED, rule=Repeats())
        with pytest.raises(RuleError, match="infeasible"):
            evaluate_comb_policy_mc(uniform(2, len(inst)), inst, policy, 20, SEED, rule=QuitsEarly())


def _surrogate_cases(exact):
    if exact:
        inst = tie_heavy()
        yield CombModel(all_nonempty(len(inst)), ZeroTerminal(), len(inst)), inst
        small = Instance(inst.items[:4])
        yield facility(len(small), all_nonempty(len(small))), small
        yield from _exact_cases()
    else:
        yield from _random_models(False)


@pytest.mark.parametrize("kind", list(SurrogateKind))
class TestSurrogateMcOnTheGrid:
    @pytest.mark.parametrize("exact", [True, False])
    def test_equals_per_row_summary(self, kind, exact):
        for model, inst in _surrogate_cases(exact):
            assert _grid(model, inst).exact == exact
            expected = _reference_surrogate(model, inst, kind, 60)
            assert expected_surrogate_cost_mc(model, inst, kind, 60, SEED) == mc_summary(expected)

    def test_straddles_a_chunk_boundary(self, kind, monkeypatch):
        monkeypatch.setattr(sampling, "MC_CHUNK", 7)
        for model, inst in _surrogate_cases(True):
            for count in (6, 8, 22):
                expected = mc_summary(_reference_surrogate(model, inst, kind, count))
                assert expected_surrogate_cost_mc(model, inst, kind, count, SEED) == expected


def test_which_paths_scale_onto_the_grid(monkeypatch, capsys):
    """--trace and pi_surrogate_bound run on the instance's own numbers;
    bounds, the DP oracles, simulate --exact, verify and Monte Carlo run on
    the grid; a float instance's grid is the instance itself."""

    def no_scaling(self, x):
        raise AssertionError("a number was scaled onto the grid")

    monkeypatch.setattr(IntegerGrid, "scale", no_scaling)
    monkeypatch.delenv("PANDORA_BUDGET", raising=False)
    for name in ("golden_two_item.json", "matroid_rank2.json"):
        path = str(CORPUS / name)
        loaded = load_instance(path)
        if loaded.model is None:
            prepared = prepare_policy(loaded.instance, "local-hedging")
            pi_surrogate_bound(loaded.instance, "local-hedging", 10, SEED)
            oracles = (opt_value_single_noi, opt_value_single_oi)
        else:
            prepared = prepare_comb_policy(loaded.model, loaded.instance, "local-hedging")
            oracles = (functools.partial(opt_value_comb_noi, loaded.model),)
        assert len(list(iter_trials(loaded.instance, prepared, SEED, 3))) == 3
        for oracle in oracles:
            with pytest.raises(AssertionError, match="scaled onto the grid"):
                oracle(loaded.instance)
        for argv in (["bounds"], ["verify"], ["simulate", "--policy", "local-hedging", "--exact"],
                     ["simulate", "--policy", "local-hedging", "--trials", "10"]):
            with pytest.raises(AssertionError, match="scaled onto the grid"):
                main([argv[0], path, *argv[1:]])
    with pytest.raises(AssertionError, match="scaled onto the grid"):
        main(["bounds", str(CORPUS / "matroid_rank2.json"), "--mc", "--budget", "2", "--trials", "10"])
    path = str(CORPUS / "float_mode_pair.json")
    inst = load_instance(path).instance
    assert IntegerGrid(inst).instance is inst
    assert main(["bounds", path]) == 0
    assert main(["verify", path]) == 0
    assert main(["simulate", path, "--policy", "local-hedging", "--exact", "--trace", "3"]) == 0
    assert main(["simulate", path, "--policy", "local-hedging", "--trials", "10"]) == 0
    capsys.readouterr()

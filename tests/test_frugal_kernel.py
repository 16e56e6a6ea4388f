"""The array kernel behind the shipped matroid rules: ``frugal_batch`` with
``UniformMatroidRule`` or ``GraphicMatroidRule`` gives every total of the
per-trial reference engine (``helpers.frugal_engine``), equal in value and
type, on tie-heavy uniform and graphic models, exact, float and object price
arrays, a facility-location terminal and across a chunk boundary; and Monte
Carlo with a shipped rule calls no ``propose``, and no E[Z] on a shipped
matroid calls ``surrogate_cost``."""

import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pandora_hedge import (
    CombModel,
    DiscreteDist,
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
    sampling,
)
from pandora_hedge.cli import main
from pandora_hedge.combinatorial import (
    COMB_POLICIES,
    GraphicMatroidRule,
    UniformMatroidRule,
    frugal_batch,
    rule_for_model,
)
from pandora_hedge.policies import IntegerGrid, array_dtype, coin_columns, price_columns
from pandora_hedge.sampling import mc_summary

from helpers import all_int, big_grid, reference_comb_policy, seeded_trials
from test_batch_mc import tie_heavy
from test_grid_mc import tie_heavy as tie_heavy_exact

SEED = 23
CORPUS = Path(__file__).resolve().parent.parent / "corpus"
# seven edges with parallel pairs on four vertices: many tied keys per cut
MULTIGRAPH = ((0, 1), (0, 1), (1, 2), (1, 2), (0, 2), (2, 3), (2, 3))
# K4 plus a pendant edge
K4_PENDANT = ((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3), (3, 4))


def _families(n):
    yield from (UniformMatroid(k) for k in range(1, min(n, 4) + 1))
    for edges in (MULTIGRAPH, K4_PENDANT):
        if len(edges) >= n:
            yield GraphicMatroid(edges[:n])


def _facility(n, family):
    rows = [[F((3 * a + 5 * b) % 7, 2) for b in range(n)] for a in range(n)]
    return CombModel(family, FacilityLocationTerminal(tuple(map(tuple, rows))), n)


def _wide_float():
    """Twelve float items with off-grid values, several selected per trial:
    a selected price charged out of event order (by id, or in the order of a
    Python set, which differs from id order once ids pass 7) rounds
    differently."""
    rng = random.Random(12)
    items = []
    for n in range(12):
        values = sorted(rng.sample(range(1, 400), rng.randint(1, 4)))
        weights = [rng.random() + 0.05 for _ in values]
        dist = DiscreteDist(tuple((v / 30, w / sum(weights)) for v, w in zip(values, weights)))
        items.append(Item(n, rng.random(), dist))
    return Instance(items)


def _cases():
    """(model, instance): every family over the tie-heavy instances, and a
    facility-location terminal on a uniform and a graphic family."""
    instances = [tie_heavy(kind) for kind in ("float", "int", "exact")] + [tie_heavy_exact(), big_grid(), all_int()]
    for inst in instances:
        n = len(inst)
        for family in _families(n):
            yield CombModel(family, ZeroTerminal(), n), inst
    wide = _wide_float()
    for k in (3, 4):
        yield CombModel(UniformMatroid(k), ZeroTerminal(), len(wide)), wide
    inst = tie_heavy_exact()
    yield _facility(len(inst), UniformMatroid(2)), inst
    yield _facility(len(inst), GraphicMatroid(K4_PENDANT[: len(inst)])), inst


def _typed(totals):
    return [(type(t), t) for t in totals]


def assert_kernel_matches_engine(model, inst, policy, count, dtype=None):
    """The kernel's totals on ``count`` seeded columns of the grid's prices
    (in ``dtype``, by default the one Monte Carlo draws) against the
    reference engine run on the same numbers, one trial at a time."""
    grid = IntegerGrid(inst, model)
    prices = price_columns(grid.instance, SEED, 0, count, dtype or array_dtype(grid.instance))
    coins = coin_columns(inst, SEED, 0, count)
    got = frugal_batch(rule_for_model(model), grid)(prices, coins if policy == "local-hedging" else None)
    run = reference_comb_policy(grid.model, grid.instance, policy)
    rows = prices.T.tolist()
    if grid.exact:  # the grid's ints, drawn as float64 when small
        rows = [[int(x) for x in row] for row in rows]
    want = [run(Realization(tuple(r)), HedgeCoins(tuple(c))).total_cost for r, c in zip(rows, coins.T.tolist())]
    assert _typed(got) == _typed(want)
    if grid.exact:
        assert all(type(t) is int for t in got)


@pytest.mark.parametrize("policy", COMB_POLICIES)
class TestKernelEqualsEngine:
    def test_drawn_dtype(self, policy):
        for model, inst in _cases():
            assert_kernel_matches_engine(model, inst, policy, 300)

    def test_object_arrays(self, policy):
        for model, inst in _cases():
            assert_kernel_matches_engine(model, inst, policy, 120, object)

    def test_straddles_a_chunk_boundary(self, policy, monkeypatch):
        monkeypatch.setattr(sampling, "MC_CHUNK", 7)
        for model, inst in _cases():
            run = reference_comb_policy(model, inst, policy)
            for count in (6, 7, 8, 22):
                realizations, coins = seeded_trials(inst, SEED, 0, count)
                expected = mc_summary(run(r, c).total_cost for r, c in zip(realizations, coins))
                assert evaluate_mc(prepare_comb_policy(model, inst, policy), count, SEED) == expected


def test_float_sums_add_left_to_right():
    """The kernel, a hedged trace and the one-shot surrogate add float costs
    and prices left to right; a compensated sum (``sum`` from Python 3.12 on)
    would give 0.6 and part them in the last bit."""
    three = 0.1 + 0.2 + 0.3
    assert three != 0.6
    inst = Instance([Item(n, c, DiscreteDist.point_mass(0.0)) for n, c in enumerate((0.1, 0.2, 0.3))])
    model = CombModel(UniformMatroid(3), ZeroTerminal(), 3)
    labels = HedgeCoins((True,) * 3)
    trace = prepare_comb_policy(model, inst, "local-hedging").run(Realization((0.0,) * 3), labels)
    assert trace.inspection_order == (0, 1, 2) and trace.total_cost == three
    batch = frugal_batch(UniformMatroidRule(), IntegerGrid(inst, model))
    assert batch(np.zeros((3, 1)), np.ones((3, 1), dtype=bool)) == [three]
    assert combinatorial.surrogate_cost(model, [0.3, 0.1, 0.2])[0] == three
    # U(2) over point masses 0.2 (cost 0.1) and 0.7 (cost 0.3): item 0 is
    # inspected and selected before item 1's key is reached, so local hedging
    # adds 0.1, 0.2, 0.3, 0.7 in that event order (the costs first, then the
    # prices would give another float) in the trace, kernel and reference
    (c0, v0), (c1, v1) = (0.1, 0.2), (0.3, 0.7)
    events = c0 + v0 + c1 + v1
    assert events != (c0 + c1) + (v0 + v1)
    inst = Instance([Item(0, c0, DiscreteDist.point_mass(v0)), Item(1, c1, DiscreteDist.point_mass(v1))])
    model = CombModel(UniformMatroid(2), ZeroTerminal(), 2)
    realization, labels = Realization((v0, v1)), HedgeCoins((True, True))
    trace = prepare_comb_policy(model, inst, "local-hedging").run(realization, labels)
    assert trace.inspection_order == (0, 1) and trace.total_cost == events
    batch = frugal_batch(UniformMatroidRule(), IntegerGrid(inst, model))
    assert batch(np.array([[v0], [v1]]), np.ones((2, 1), dtype=bool)) == [events]
    assert reference_comb_policy(model, inst, "local-hedging")(realization, labels).total_cost == events


def test_cases_reach_the_inspected_first_tie(monkeypatch):
    """On the grid's ints, a kernel that gives a pooled item tied with the
    next slot's key to the slot instead changes some totals, so the cases
    test the tie rule."""
    real = combinatorial._greedy_select

    def slot_first(bases, pool, threshold, prices, spent):
        real(bases, pool, None if threshold is None else threshold - 1, prices, spent)

    monkeypatch.setattr(combinatorial, "_greedy_select", slot_first)
    changed = 0
    for model, inst in _cases():
        if IntegerGrid(inst, model).exact:
            for policy in COMB_POLICIES:
                try:
                    assert_kernel_matches_engine(model, inst, policy, 300)
                except AssertionError:
                    changed += 1
    assert changed > 0


@st.composite
def kernel_cases(draw):
    """A small instance (exact or float, values on a coarse grid so that keys
    and prices tie) under a uniform or a connected graphic family, sometimes
    with a facility-location terminal."""
    exact = draw(st.booleans())
    num = F if exact else float
    n = draw(st.integers(1, 6))
    items = []
    for i in range(n):
        values = sorted(set(draw(st.lists(st.integers(0, 6), min_size=1, max_size=3))))
        weights = draw(st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)))
        probs = [F(w, sum(weights)) if exact else w / sum(weights) for w in weights]
        cost = num(draw(st.integers(0, 6))) / 4
        items.append(Item(i, cost, DiscreteDist(tuple((num(v), p) for v, p in zip(values, probs)))))
    if draw(st.booleans()):
        family = UniformMatroid(draw(st.integers(1, n)))
    else:
        n_vertices = draw(st.integers(2, n + 1))
        edges = [(v, draw(st.integers(0, v - 1))) for v in range(1, n_vertices)]
        for _ in range(n - len(edges)):
            a = draw(st.integers(0, n_vertices - 1))
            b = draw(st.integers(0, n_vertices - 1).filter(lambda b: b != a))
            edges.append((a, b))
        family = GraphicMatroid(tuple(draw(st.permutations(edges))))
    if draw(st.booleans()):
        rows = draw(st.lists(st.lists(st.integers(0, 4), min_size=n, max_size=n), min_size=n, max_size=n))
        terminal = FacilityLocationTerminal(tuple(tuple(num(d) / 2 for d in row) for row in rows))
    else:
        terminal = ZeroTerminal()
    return CombModel(family, terminal, n), Instance(items)


@settings(max_examples=150, deadline=None)
@given(kernel_cases(), st.sampled_from(COMB_POLICIES))
def test_kernel_equals_engine_property(case, policy):
    model, inst = case
    assert_kernel_matches_engine(model, inst, policy, 40)
    assert_kernel_matches_engine(model, inst, policy, 40, object)


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``propose`` on the shipped rules and of ``surrogate_cost``."""
    seen = Counter()

    def counting(name, real):
        def counted(*args, **kwargs):
            seen[name] += 1
            return real(*args, **kwargs)

        return counted

    for rule in (UniformMatroidRule, GraphicMatroidRule):
        monkeypatch.setattr(rule, "propose", counting("propose", rule.propose))
    monkeypatch.setattr(combinatorial, "surrogate_cost", counting("surrogate_cost", combinatorial.surrogate_cost))
    return seen


def test_shipped_rules_call_no_propose(calls, capsys):
    inst = tie_heavy_exact()
    n = len(inst)
    for family in (UniformMatroid(2), GraphicMatroid(K4_PENDANT[:n])):
        model = CombModel(family, ZeroTerminal(), n)
        for policy in COMB_POLICIES:
            evaluate_mc(prepare_comb_policy(model, inst, policy), 50, SEED)
            evaluate_exact(prepare_comb_policy(model, inst, policy))
        for kind in SurrogateKind:
            expected_surrogate_cost_mc(model, inst, kind, 50, SEED)
            expected_surrogate_cost(model, inst, kind)
    for name in ("matroid_rank2.json", "graphic_triangle.json"):
        path = str(CORPUS / name)
        assert main(["simulate", path, "--policy", "local-hedging", "--trials", "50"]) == 0
        assert main(["bounds", path, "--mc", "--budget", "2", "--trials", "50"]) in (0, 1)
    capsys.readouterr()
    assert not calls


def test_subclass_of_a_shipped_rule_runs_per_trial(calls):
    class Subclass(UniformMatroidRule):
        pass

    inst = tie_heavy_exact()
    model = CombModel(UniformMatroid(2), ZeroTerminal(), len(inst))
    plain = evaluate_mc(prepare_comb_policy(model, inst, "local-hedging"), 20, SEED)
    assert not calls
    assert evaluate_mc(prepare_comb_policy(model, inst, "local-hedging", rule=Subclass()), 20, SEED) == plain
    assert calls["propose"] > 0

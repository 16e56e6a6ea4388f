"""The combinatorial NOI DP over observation states only
(``opt_value_comb_noi``): deferring every selection to the stop gives the
value and type of the recursion that selects as it goes
(``helpers.recursive_opt_value_comb_noi``) exactly on exact instances, and
within ``verify.TOL`` relative in float mode, where it equals the deferred
reference on the instance's own numbers bit for bit.  Cases: tie-heavy,
big-grid, wide-grid, all-int, near-tie and facility-location instances,
explicit families, the corpus models, the benchmark's certify matroid files
and a property over small uniform and graphic models."""

import importlib.util
import itertools
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings

from pandora_hedge import (
    CombModel,
    DiscreteDist,
    ExplicitFamily,
    GraphicMatroid,
    Instance,
    Item,
    ZeroTerminal,
    oracle,
    opt_value_comb_noi,
)
from pandora_hedge.budget import BudgetExceededError
from pandora_hedge.cli import main
from pandora_hedge.distkit import expected_shortfall
from pandora_hedge.instancefile import load_instance
from pandora_hedge.policies import IntegerGrid
from pandora_hedge.verify import TOL

from helpers import all_int, big_grid, recursive_opt_value_comb_noi, reference_opt_value_comb_noi, wide_grid
from test_batch_mc import tie_heavy as float_tie_heavy
from test_frugal_kernel import K4_PENDANT, kernel_cases
from test_grid_mc import all_nonempty, facility, square_with_diagonals, tie_heavy, uniform
from test_int_oracles import _assert_same, _exit_type

ROOT = Path(__file__).resolve().parent.parent


def near_tie() -> Instance:
    """Two items whose prices differ by 1/10^20: on the grid they are ints
    above 2^53 that one float64 cannot tell apart, and the costlier one has
    the lower id."""
    eps = F(1, 10**20)
    dists = (((1 + eps, F(1, 2)), (3, F(1, 2))), ((1, F(1, 2)), (3 + eps, F(1, 2))), ((F(5, 2), F(1)),))
    return Instance([Item(n, F(0), DiscreteDist(atoms)) for n, atoms in enumerate(dists)])


def upward_closure(n, minimal):
    """The explicit family of every item set that contains a ``minimal`` set."""
    sets = (frozenset(c) for size in range(1, n + 1) for c in itertools.combinations(range(n), size))
    return ExplicitFamily(tuple(s for s in sets if any(m <= s for m in minimal)))


def _cases():
    inst = tie_heavy()
    n = len(inst)
    for k in (1, 2, 3):
        yield uniform(k, n), inst
    yield square_with_diagonals(n), inst
    yield facility(n), inst
    yield facility(n, GraphicMatroid(((0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)))), inst
    small = Instance(inst.items[:4])
    yield facility(4, all_nonempty(4)), small
    yield CombModel(upward_closure(4, [frozenset({0, 1}), frozenset({2})]), ZeroTerminal(), 4), small
    for make in (big_grid, wide_grid, all_int, near_tie):
        other = make()
        m = len(other)
        yield uniform(1, m), other
        yield uniform(2, m), other
        yield square_with_diagonals(m), other
        yield facility(m), other
    for kind in ("float", "int"):
        floats = float_tie_heavy(kind)
        yield uniform(3, len(floats)), floats
        yield CombModel(GraphicMatroid(K4_PENDANT), ZeroTerminal(), len(floats)), floats


def assert_equals_recursion(model, inst):
    got = opt_value_comb_noi(model, inst)
    _assert_same(got, _exit_type(reference_opt_value_comb_noi(model, inst), inst, model))
    expected = recursive_opt_value_comb_noi(model, inst)
    if IntegerGrid(inst, model).exact:
        _assert_same(got, expected)
    else:
        assert type(got) is type(expected) and abs(got - expected) <= TOL * abs(expected)


@pytest.mark.parametrize("case", list(_cases()), ids=lambda c: f"{type(c[0].family).__name__}-{len(c[1])}")
def test_deferral_equals_the_recursion(case):
    assert_equals_recursion(*case)


def test_near_tie_orders_the_exact_prices():
    """The stop selects the cheaper of two prices that float64 rounds to one
    number, though the costlier has the lower id."""
    inst = Instance([Item(n, 0, DiscreteDist.point_mass(v)) for n, v in enumerate((1 + F(1, 10**20), F(1)))])
    grid = IntegerGrid(inst, uniform(1, 2))
    a, b = (grid.D // grid.L * grid.scale(item.dist.values[0]) for item in inst.items)
    assert a == b + grid.D // 10**20 and float(a) == float(b)
    assert opt_value_comb_noi(uniform(1, 2), inst) == 1


def test_stop_adds_prices_in_selection_order():
    """Three free point masses under a rank-3 uniform matroid: the stop adds
    0.1 + 0.2 first, as ``surrogate_cost`` does; the recursion adds 0.3 to
    the terminal first."""
    inst = Instance([Item(n, 0.0, DiscreteDist.point_mass(v)) for n, v in enumerate((0.3, 0.1, 0.2))])
    model = uniform(3, 3)
    assert opt_value_comb_noi(model, inst) == 0.1 + 0.2 + 0.3 != recursive_opt_value_comb_noi(model, inst)


@pytest.mark.parametrize(
    "path", [p for p in sorted(ROOT.glob("corpus/*.json")) if load_instance(p).model], ids=lambda p: p.name
)
def test_corpus_models(path):
    loaded = load_instance(path)
    assert_equals_recursion(loaded.model, loaded.instance)


def _bench_gen():
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_certify_matroid_files(seed, tmp_path, monkeypatch):
    """The benchmark's certify matroid files: the same optimum as the
    recursion over the prod (s_m + 2) states that track selections.  The
    uniform files build no stop table, since their states keep the k lowest
    observed values; a graphic file's table has prod (s_m + 1) entries over
    the hedged items only, a never-inspect item's row being its mean."""
    sizes = []
    real = oracle._stop_values

    def spy(grid, rows):
        sizes.append(math.prod(len(row) for row in rows))
        return real(grid, rows)

    monkeypatch.setattr(oracle, "_stop_values", spy)
    _bench_gen().generate("certify", seed, tmp_path)
    models = [loaded for loaded in map(load_instance, sorted(tmp_path.glob("*.json"))) if loaded.model]
    assert sorted(type(loaded.model.family).__name__ for loaded in models) == ["GraphicMatroid"] * 2 + ["UniformMatroid"] * 2
    tables = []
    for loaded in models:
        assert_equals_recursion(loaded.model, loaded.instance)
        if isinstance(loaded.model.family, GraphicMatroid):
            pairs = zip(loaded.instance.items, loaded.instance.indices)
            hedged = [len(item.dist) + 1 for item, ix in pairs if item.cost < expected_shortfall(item.dist, ix.mu)]
            assert sizes == [math.prod(hedged)]
            tables += sizes
        else:
            assert sizes == []
        sizes.clear()
    assert min(tables) < max(tables) == 1728  # one graphic file has a never-inspect item (432 or 576), one none


@settings(max_examples=60, deadline=None)
@given(kernel_cases())
def test_deferral_equals_the_recursion_property(case):
    assert_equals_recursion(*case)


def test_over_budget_builds_no_stop_value(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("stop values built over budget")

    monkeypatch.setattr(oracle, "_stop_values", refuse)
    inst = tie_heavy()
    model = uniform(2, len(inst))
    required = oracle._comb_dp_cost(model, inst)
    with pytest.raises(BudgetExceededError) as info:
        opt_value_comb_noi(model, inst, budget=required - 1)
    assert info.value.required == required
    path = str(ROOT / "corpus" / "matroid_rank2.json")
    assert main(["bounds", path, "--mc", "--budget", "10", "--trials", "50", "--json"]) in (0, 1)
    assert '"oracle"' not in capsys.readouterr().out

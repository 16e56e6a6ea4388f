"""The one optimum DP (``oracle._opt_value``): single-item selection runs as
the rank-1 uniform matroid, a uniform matroid keeps only its k lowest
observed values, and under NOI an item with c_n >= E[(mu_n - X_n)^+] never
enters the state.  Each value equals the unpruned references of
``tests/helpers.py`` at zero tolerance, items at the pruning tie included,
and the visited states show that both reductions are live."""

import functools
import math
from fractions import Fraction as F

import pytest

from pandora_hedge import (
    CombModel,
    DiscreteDist,
    Instance,
    Item,
    ZeroTerminal,
    oracle,
    opt_value_comb_noi,
    opt_value_single_noi,
    opt_value_single_oi,
)
from pandora_hedge.distkit import expected_shortfall, mean
from pandora_hedge.instancefile import load_instance

from helpers import recursive_opt_value_comb_noi, reference_opt_value_comb_noi, reference_opt_value_single
from test_comb_dp import _bench_gen, upward_closure
from test_grid_mc import facility, square_with_diagonals, uniform
from test_int_oracles import _assert_same, _exit_type

STEP = F(1, 64)
SUPPORTS = (
    ((F(0), F(1, 2)), (F(10), F(1, 2))),  # mean 5, shortfall 5/2
    ((F(1), F(1, 4)), (F(7), F(3, 4))),  # mean 11/2, shortfall 9/8
    ((F(2), F(1, 2)), (F(8), F(1, 2))),  # mean 5, shortfall 3/2
    ((F(0), F(1, 3)), (F(6), F(2, 3))),  # mean 4, shortfall 4/3
    ((F(3), F(1, 2)), (F(5), F(1, 2))),  # mean 4, shortfall 1/2
    ((F(4), F(1, 2)), (F(6), F(1, 2))),  # mean 5, shortfall 1/2
)


def at_the_tie(pruned) -> Instance:
    """Six exact items with tied means: item n costs exactly its shortfall
    E[(mu_n - X_n)^+] if ``pruned[n]``, else one STEP less (hedged)."""
    items = []
    for n, (atoms, prune) in enumerate(zip(SUPPORTS, pruned)):
        dist = DiscreteDist(atoms)
        items.append(Item(n, expected_shortfall(dist, mean(dist)) - (0 if prune else STEP), dist))
    return Instance(items)


TIES = {
    "all-pruned": (True,) * 6,
    "mixed": (True, False, True, False, True, False),
    "none-pruned": (False,) * 6,
}


def _comb_models(n):
    for k in (1, 2, 3):
        yield uniform(k, n)
    yield square_with_diagonals(n)
    yield CombModel(upward_closure(n, [frozenset({0, 1}), frozenset({2, 3}), frozenset({4})]), ZeroTerminal(), n)
    yield facility(n)


def visited_states(monkeypatch) -> list:
    """Every state that ``_opt_value`` evaluates, in order, recorded
    through its memo."""
    states = []

    def recording(maxsize):
        def wrap(val):
            def record(*state):
                states.append(state)
                return val(*state)

            return functools.lru_cache(maxsize)(record)

        return wrap

    monkeypatch.setattr(oracle, "lru_cache", recording)
    return states


def _pruned_bits(inst) -> int:
    """The mask of the items whose cost is at least their shortfall."""
    pairs = enumerate(zip(inst.items, inst.indices))
    return sum(1 << n for n, (item, ix) in pairs if item.cost >= expected_shortfall(item.dist, ix.mu))


@pytest.mark.parametrize("pruned", TIES.values(), ids=TIES)
def test_single_item_dps_at_the_tie(pruned):
    inst = at_the_tie(pruned)
    _assert_same(opt_value_single_noi(inst), _exit_type(reference_opt_value_single(inst, True), inst))
    _assert_same(opt_value_single_oi(inst), _exit_type(reference_opt_value_single(inst, False), inst))


@pytest.mark.parametrize("pruned", TIES.values(), ids=TIES)
def test_comb_dp_at_the_tie(pruned):
    inst = at_the_tie(pruned)
    for model in _comb_models(len(inst)):
        got = opt_value_comb_noi(model, inst)
        _assert_same(got, _exit_type(reference_opt_value_comb_noi(model, inst), inst, model))
        _assert_same(got, recursive_opt_value_comb_noi(model, inst))


@pytest.mark.parametrize("pruned", TIES.values(), ids=TIES)
def test_pruned_items_never_enter_a_noi_state(pruned, monkeypatch):
    """Every NOI state leaves the tied items out of its mask, for every
    family; the OI DP, which never prunes, starts from every item."""
    inst = at_the_tie(pruned)
    bits = _pruned_bits(inst)
    assert bits == sum(1 << n for n, prune in enumerate(pruned) if prune)
    states = visited_states(monkeypatch)
    for model in _comb_models(len(inst)):
        opt_value_comb_noi(model, inst)
    opt_value_single_noi(inst)
    assert states and all(mask & bits == 0 for mask, _ in states)
    states.clear()
    opt_value_single_oi(inst)
    assert states[0][0] == (1 << len(inst)) - 1


def test_pruning_is_live_on_a_certify_file(tmp_path, monkeypatch):
    """On each benchmark certify single-item file with a never-inspect item,
    the NOI DP visits fewer states than the OI DP, whose (mask, best
    observed) states are those of the unpruned NOI DP."""
    _bench_gen().generate("certify", 1, tmp_path)
    states = visited_states(monkeypatch)
    files = [load_instance(path) for path in sorted(tmp_path.glob("*.json"))]
    with_pruned = [loaded.instance for loaded in files if not loaded.model and _pruned_bits(loaded.instance)]
    assert with_pruned
    for inst in with_pruned:
        states.clear()
        opt_value_single_noi(inst)
        noi = len(states)
        states.clear()
        opt_value_single_oi(inst)
        assert noi < len(states)


def test_uniform_states_keep_the_k_lowest_observed(monkeypatch):
    """An 8-item exact, all-hedged U(2) instance with 2-point supports: the
    value of the reference over every observation, and at most
    2^N C(G + k, k) states (G: the merged support size) against the
    prod (s_m + 1) of the unreduced DP."""
    rows = [(F(n % 3), F(3 + n % 4)) for n in range(8)]
    items = []
    for n, (lo, hi) in enumerate(rows):
        dist = DiscreteDist(((lo, F(1, 2)), (hi, F(1, 2))))
        items.append(Item(n, expected_shortfall(dist, mean(dist)) / 2, dist))
    inst = Instance(items)
    assert _pruned_bits(inst) == 0
    model = uniform(2, len(inst))
    states = visited_states(monkeypatch)
    _assert_same(opt_value_comb_noi(model, inst), _exit_type(reference_opt_value_comb_noi(model, inst), inst, model))
    merged = len({v for item in items for v in item.dist.values})
    assert len(states) == len(set(states)) <= 2 ** len(inst) * math.comb(merged + 2, 2)
    assert len(states) < math.prod(len(item.dist) + 1 for item in items)
    assert all(len(lows) <= 2 and list(lows) == sorted(lows) for _, lows in states)

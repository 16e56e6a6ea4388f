"""The DP oracles, exact evaluation and the exact one-shot values run on Python
ints over one common denominator: each equals its reference on the
instance's own numbers (``tests/helpers.py``) in value and type, and bit for
bit in float mode; the budget formulas in front of them are unchanged."""

import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pandora_hedge import (
    CombModel,
    DiscreteDist,
    ExplicitFamily,
    Instance,
    Item,
    UniformMatroid,
    ZeroTerminal,
    evaluate_policy_exact,
    expected_surrogate_cost,
    opt_value_comb_noi,
    opt_value_single_noi,
    opt_value_single_oi,
)
from pandora_hedge.budget import BudgetExceededError
from pandora_hedge.combinatorial import COMB_POLICIES, prepare_comb_policy
from pandora_hedge.indices import SurrogateKind
from pandora_hedge.instancefile import load_instance, parse_document
from pandora_hedge.policies import SINGLE_POLICIES, IntegerGrid, evaluate_exact, prepare_policy
from pandora_hedge.randgen import random_comb_instance, random_instance

from helpers import (
    all_int,
    big_grid,
    golden_pair,
    reference_evaluate_exact,
    reference_expected_surrogate_cost,
    reference_opt_value_comb_noi,
    reference_opt_value_single,
    wide_grid,
)
from test_batch_mc import tie_heavy as single_tie_heavy
from test_grid_mc import all_nonempty, facility, square_with_diagonals, uniform
from test_grid_mc import tie_heavy as comb_tie_heavy

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
RANDOM_CASES = 100


def _assert_same(got, expected):
    assert type(got) is type(expected)
    if isinstance(got, float):
        assert got.hex() == expected.hex()
    else:
        assert got == expected


def _exit_type(reference, inst, model=None):
    """A reference value typed by the one exit rule of the rational grid: an
    int when every cost, support value, probability and model distance is an
    int, else a Fraction.  Off that grid the reference is returned as it is.
    The Fraction references can return an int where they select an int-typed
    number, and the one-shot reference a Fraction where a reservation price
    is one; either way the value must be the same."""
    extra = [d for row in model.terminal.distances for d in row] if model else []
    if not IntegerGrid(inst, model).exact:
        return reference
    numbers = [*extra, *(x for item in inst.items for x in (item.cost, *item.dist.values, *item.dist.probs))]
    typed = int(reference) if all(type(x) is int for x in numbers) else F(reference)
    assert typed == reference
    return typed


def int_point_masses() -> Instance:
    """Every cost, support value and probability is an int: the values
    leave the grid as ints."""
    return Instance([Item(n, c, DiscreteDist.point_mass(v)) for n, (c, v) in enumerate(((1, 4), (0, 6), (2, 3)))])


def float_probabilities() -> Instance:
    """Exact costs and support values with float probabilities: a float
    value, on the instance's own numbers."""
    pairs = [(F(1, 4), ((F(1), 0.5), (F(3), 0.5))), (F(1, 3), ((F(0), 0.25), (F(2), 0.75))), (F(0), ((F(5, 2), 1.0),))]
    return Instance([Item(n, c, DiscreteDist(atoms)) for n, (c, atoms) in enumerate(pairs)])


def mixed_types() -> Instance:
    """An int-typed point mass next to a Fraction item: every path returns a
    Fraction, though the Fraction DP recursions select the int-typed mean."""
    point = Item(0, 0, DiscreteDist.point_mass(4))
    return Instance([point, Item(1, F(2), DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2)))))])


def _single_cases():
    yield from (single_tie_heavy("exact"), single_tie_heavy("float"), single_tie_heavy("int"))
    yield from (big_grid(), wide_grid(), all_int(), int_point_masses(), mixed_types(), float_probabilities())
    yield golden_pair(False)
    rng = random.Random(121)
    for _ in range(RANDOM_CASES):
        yield random_instance(rng, max_items=5, max_support=3, exact=True)
    for _ in range(10):
        yield random_instance(rng, max_items=5, max_support=3, exact=False)


def _comb_cases():
    inst = comb_tie_heavy()
    yield uniform(2, len(inst)), inst
    yield square_with_diagonals(len(inst)), inst
    yield facility(len(inst)), inst
    small = Instance(inst.items[:4])
    yield facility(len(small), all_nonempty(len(small))), small
    yield CombModel(all_nonempty(3), ZeroTerminal(), 3), Instance(inst.items[:3])
    for make in (big_grid, wide_grid, all_int, int_point_masses, mixed_types, float_probabilities):
        other = make()
        yield uniform(2, len(other)), other
        yield square_with_diagonals(len(other)), other
    floats = single_tie_heavy("float")
    yield uniform(3, len(floats)), floats
    rng = random.Random(122)
    for _ in range(RANDOM_CASES):
        yield random_comb_instance(rng, max_items=4, exact=True)
    for _ in range(10):
        yield random_comb_instance(rng, max_items=5, exact=False)


def test_int_point_masses_leave_as_ints():
    inst = int_point_masses()
    assert IntegerGrid(inst).exact
    assert type(opt_value_single_noi(inst)) is int and type(evaluate_policy_exact(inst, "weitzman")) is int


def test_mixed_types_leave_as_fractions():
    inst = mixed_types()
    model = uniform(1, len(inst))
    values = [opt_value_single_noi(inst), opt_value_comb_noi(model, inst), evaluate_policy_exact(inst, "weitzman")]
    values += [expected_surrogate_cost(model, inst, kind) for kind in SurrogateKind]
    assert all(type(v) is F and v == 4 for v in values)


def test_float_probabilities_stay_off_the_rational_grid():
    grid = IntegerGrid(float_probabilities())
    assert not grid.exact and grid.D == grid.L == 1


def test_single_item_dps_equal_the_reference():
    for inst in _single_cases():
        _assert_same(opt_value_single_noi(inst), _exit_type(reference_opt_value_single(inst, True), inst))
        _assert_same(opt_value_single_oi(inst), _exit_type(reference_opt_value_single(inst, False), inst))


def test_single_item_exact_values_equal_the_reference():
    for inst in _single_cases():
        for policy in SINGLE_POLICIES:
            prepared = prepare_policy(inst, policy)
            _assert_same(evaluate_exact(inst, prepared), reference_evaluate_exact(inst, prepared))


def test_comb_dp_equals_the_reference():
    for model, inst in _comb_cases():
        _assert_same(opt_value_comb_noi(model, inst), _exit_type(reference_opt_value_comb_noi(model, inst), inst, model))


def test_comb_exact_values_equal_the_reference():
    for model, inst in _comb_cases():
        for policy in COMB_POLICIES:
            if isinstance(model.family, ExplicitFamily):
                continue  # no shipped greedy rule
            prepared = prepare_comb_policy(model, inst, policy)
            _assert_same(evaluate_exact(inst, prepared), reference_evaluate_exact(inst, prepared))


def test_surrogate_costs_equal_the_reference():
    for model, inst in _comb_cases():
        for kind in SurrogateKind:
            expected = _exit_type(reference_expected_surrogate_cost(model, inst, kind), inst, model)
            _assert_same(expected_surrogate_cost(model, inst, kind), expected)


def test_comb_dp_tests_feasibility_once_per_selected_set(monkeypatch):
    seen = []
    real = CombModel.is_feasible

    def spy(self, selected):
        seen.append(selected)
        return real(self, selected)

    monkeypatch.setattr(CombModel, "is_feasible", spy)
    for model, inst in (next(_comb_cases()), (square_with_diagonals(4), big_grid())):
        seen.clear()
        opt_value_comb_noi(model, inst)
        assert seen and len(seen) == len(set(seen)) <= 2 ** len(inst)


_values = st.lists(st.integers(0, 12), min_size=1, max_size=3, unique=True)


@st.composite
def _items(draw, n):
    items = []
    for m in range(n):
        values = sorted(draw(_values))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(values), max_size=len(values)))
        dist = DiscreteDist(tuple((F(v, 2), F(w, sum(weights))) for v, w in zip(values, weights)))
        items.append(Item(m, F(draw(st.integers(0, 12)), draw(st.sampled_from((2, 3, 4)))), dist))
    return Instance(items)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(_items), st.integers(1, 4))
def test_int_oracles_equal_the_reference_on_small_instances(inst, k):
    _assert_same(opt_value_single_noi(inst), _exit_type(reference_opt_value_single(inst, True), inst))
    _assert_same(opt_value_single_oi(inst), _exit_type(reference_opt_value_single(inst, False), inst))
    model = CombModel(UniformMatroid(min(k, len(inst))), ZeroTerminal(), len(inst))
    _assert_same(opt_value_comb_noi(model, inst), _exit_type(reference_opt_value_comb_noi(model, inst), inst, model))
    for prepared in (prepare_policy(inst, "local-hedging"), prepare_comb_policy(model, inst, "local-hedging")):
        _assert_same(evaluate_exact(inst, prepared), reference_evaluate_exact(inst, prepared))
    expected = _exit_type(reference_expected_surrogate_cost(model, inst, SurrogateKind.LH), inst, model)
    _assert_same(expected_surrogate_cost(model, inst, SurrogateKind.LH), expected)


def _write(kind, whole, part):
    """The number whole + part as a document holds it: an int (the whole part
    alone), a rational string or a float."""
    return whole if kind == "int" else str(whole + part) if kind == "rational" else float(whole + part)


_parts = st.sampled_from((F(0), F(1, 4), F(1, 3), F(1, 2)))


@st.composite
def _mixed_documents(draw):
    """A document with a facility-location model whose costs, values,
    probabilities and distances are each an int, a rational string or a
    float (half the documents hold no float).  A value or cost is an int w or
    w plus a part below 1, so the values stay strictly increasing; a
    probability is an int only as the whole mass of a point mass."""
    allowed = draw(st.sampled_from((("int", "rational"), ("int", "rational", "float"))))
    kinds = st.sampled_from(allowed)
    n = draw(st.integers(1, 3))
    items = []
    for _ in range(n):
        wholes = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=3)))
        weights = draw(st.lists(st.integers(1, 5), min_size=len(wholes), max_size=len(wholes)))
        dist = []
        for w, weight in zip(wholes, weights):
            prob = F(weight, sum(weights))
            prob_kind = draw(kinds if prob == 1 else st.sampled_from(allowed[1:]))
            value = _write(draw(kinds), w, draw(_parts))
            dist.append({"value": value, "prob": _write(prob_kind, int(prob), prob - int(prob))})
        items.append({"cost": _write(draw(kinds), draw(st.integers(0, 4)), draw(_parts)), "dist": dist})
    distances = [[_write(draw(kinds), draw(st.integers(0, 6)), draw(_parts)) for _ in range(n)] for _ in range(n)]
    model = {
        "family": {"kind": "uniform_matroid", "k": draw(st.integers(1, n))},
        "terminal": {"kind": "facility_location", "distances": distances},
    }
    return {"version": "1", "items": items, "model": model}


def _document_numbers(doc):
    yield from (d for row in doc["model"]["terminal"]["distances"] for d in row)
    for item in doc["items"]:
        yield item["cost"]
        yield from (x for atom in item["dist"] for x in (atom["value"], atom["prob"]))


# A free item whose first probability is exact and second a float: its
# reservation and backup prices are exact, its mean and hedging probability
# floats.
_EXACT_PRICES_FLOAT_MEAN = {
    "version": "1",
    "items": [{"cost": "0", "dist": [{"value": "0", "prob": "1/2"}, {"value": "2", "prob": 0.5}]}],
    "model": {
        "family": {"kind": "uniform_matroid", "k": 1},
        "terminal": {"kind": "facility_location", "distances": [["1/3"]]},
    },
}


@settings(max_examples=40, deadline=None)
@given(_mixed_documents())
@example(_EXACT_PRICES_FLOAT_MEAN)
def test_exact_mode_holds_exactly_when_every_input_number_is_exact(doc):
    loaded = parse_document(doc)
    inst, model = loaded.instance, loaded.model
    exact = all(not isinstance(x, float) for x in _document_numbers(doc))
    assert IntegerGrid(inst, model).exact == exact
    if exact:
        values = (
            opt_value_single_noi(inst),
            evaluate_policy_exact(inst, "local-hedging"),
            expected_surrogate_cost(model, inst, SurrogateKind.LH),
        )
        assert all(type(v) in (int, F) for v in values)


# Branch counts of each corpus file at budget 1, from the Fraction-based
# implementation: the --budget goldens and the Monte Carlo fallbacks depend on them.
BUDGET_REQUIRED = {
    "facility_location_pair.json": {"noi": 40, "oi": 40, "weitzman": 4, "local-hedging": 9, "comb": 128, "OI": 4, "NOI": 4, "LH": 9},
    "float_mode_pair.json": {"noi": 48, "oi": 48, "weitzman": 6, "local-hedging": 12},
    "golden_two_item.json": {"noi": 32, "oi": 32, "weitzman": 2, "local-hedging": 3},
    "graphic_triangle.json": {"noi": 168, "oi": 168, "weitzman": 8, "local-hedging": 9, "comb": 768, "OI": 4, "NOI": 4, "LH": 9},
    "matroid_rank2.json": {"noi": 168, "oi": 168, "weitzman": 8, "local-hedging": 6, "comb": 768, "OI": 4, "NOI": 4, "LH": 6},
    "near_worst_case.json": {"noi": 6, "oi": 6, "weitzman": 2, "local-hedging": 3},
    "single_two_point.json": {"noi": 6, "oi": 6, "weitzman": 2, "local-hedging": 3},
}
BUDGET_WHAT = {
    "noi": "single-item DP",
    "oi": "single-item DP",
    "weitzman": "policy evaluation",
    "local-hedging": "hedged policy evaluation",
    "comb": "combinatorial DP",
    "OI": "surrogate cost enumeration",
    "NOI": "surrogate cost enumeration",
    "LH": "surrogate cost enumeration",
}


@pytest.mark.parametrize("name", sorted(BUDGET_REQUIRED))
def test_budget_formulas_are_pinned(name):
    loaded = load_instance(CORPUS / name)
    inst, model = loaded.instance, loaded.model
    runs = {
        "noi": lambda: opt_value_single_noi(inst, budget=1),
        "oi": lambda: opt_value_single_oi(inst, budget=1),
        "weitzman": lambda: evaluate_policy_exact(inst, "weitzman", budget=1),
        "local-hedging": lambda: evaluate_policy_exact(inst, "local-hedging", budget=1),
    }
    if model is not None:
        runs["comb"] = lambda: opt_value_comb_noi(model, inst, budget=1)
        for kind in SurrogateKind:
            runs[kind.name] = lambda kind=kind: expected_surrogate_cost(model, inst, kind, budget=1)
    assert sorted(runs) == sorted(BUDGET_REQUIRED[name])
    for key, run in runs.items():
        with pytest.raises(BudgetExceededError) as info:
            run()
        required = BUDGET_REQUIRED[name][key]
        assert info.value.required == required
        assert str(info.value).startswith(f"{BUDGET_WHAT[key]} needs {required} branches but the budget is 1;")
    assert sorted(p.name for p in CORPUS.glob("*.json")) == sorted(BUDGET_REQUIRED)

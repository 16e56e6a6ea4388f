"""The verify suite computes each exact value of an instance at most once.

Counters wrap the module-level evaluators that ``verify`` calls, so a check
that recomputes a value it shares with another check shows up as a second
call.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest

from pandora_hedge import (
    CombModel,
    DiscreteDist,
    FacilityLocationTerminal,
    Instance,
    Item,
    SurrogateKind,
    UniformMatroid,
    ZeroTerminal,
    verify,
)
from pandora_hedge.cli import main
from pandora_hedge.instancefile import LoadedInstance, load_instance, write_instance
from pandora_hedge.randgen import random_instance

from helpers import golden_pair

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture
def calls(monkeypatch):
    counts = Counter()

    def counted(name, key):
        inner = getattr(verify, name)

        def wrapper(*args, **kwargs):
            counts[key(*args, **kwargs)] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(verify, name, wrapper)

    def policy_key(prepared, *a, **k):
        """(stack, name) of the prepared policy: verify evaluates only the
        obligatory policy of its stack and local hedging, which draws coins."""
        stack, obligatory = ("single", "weitzman") if prepared.model is None else ("comb", "frugal-oi")
        return stack, "local-hedging" if prepared.draws_coins else obligatory

    counted("evaluate_exact", policy_key)
    counted("expected_surrogate_cost", lambda model, instance, kind, *a, **k: ("E[Z]", kind))
    return counts


def test_single_item_file_evaluates_local_hedging_once(calls):
    results = verify.run_checks(load_instance(CORPUS / "golden_two_item.json").instance)
    assert all(r.passed for r in results)
    assert calls[("single", "local-hedging")] == 1
    assert calls[("single", "weitzman")] == 1


def test_rank1_matroid_evaluates_each_value_once(calls):
    instance = golden_pair()
    results = verify.run_checks(instance, CombModel(UniformMatroid(1), ZeroTerminal(), len(instance)))
    assert [r.status for r in results].count("pass") == len(results)
    for kind in SurrogateKind:
        assert calls[("E[Z]", kind)] == 1
    assert calls[("comb", "frugal-oi")] == 1
    assert calls[("comb", "local-hedging")] == 1
    # the rank-1 reduction compares against the single-item policies
    assert calls[("single", "weitzman")] == 1
    assert calls[("single", "local-hedging")] == 1


def test_budget_skips_and_inapplicable_checks_have_their_status():
    loaded = load_instance(CORPUS / "facility_location_pair.json")
    by_name = {r.name: r for r in verify.run_checks(loaded.instance, loaded.model, budget=0)}
    assert by_name["combinatorial lower bound"].status == "skip"
    assert by_name["combinatorial lower bound"].detail == verify.BUDGET_SKIP
    for name in ("frugal matroid equality", "combinatorial hedging chain", "single-item reduction consistency"):
        assert by_name[name].status == "n/a"
        assert by_name[name].passed and by_name[name].detail.startswith("skipped (needs ")
    assert by_name["surrogate means"].status == "pass"


def _float_distance_cases(count):
    """Exact items under a uniform matroid whose facility-location distances
    are JSON numbers: their values come from float arithmetic."""
    rng = random.Random(0)
    for _ in range(count):
        inst = random_instance(rng, max_items=4, max_support=3, exact=True)
        n = len(inst)
        rows = tuple(tuple(0 if i == j else rng.choice((0.1, 0.2, 0.3, 0.7, 1.1)) for j in range(n)) for i in range(n))
        yield CombModel(UniformMatroid(rng.randint(1, n)), FacilityLocationTerminal(rows), n), inst


def test_float_distances_are_checked_at_float_tolerance(tmp_path, capsys):
    cases = list(_float_distance_cases(40))
    for model, inst in cases:
        assert verify._tolerance(inst, model) == verify.TOL
        assert all(r.passed for r in verify.run_checks(inst, model))
    model, inst = cases[11]  # checked at zero tolerance, it failed the lower bound by 3.55e-15
    path = tmp_path / "float_distances.json"
    write_instance(LoadedInstance(instance=inst, model=model), path)
    assert main(["verify", str(path)]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_string_distances_keep_zero_tolerance():
    for model, inst in _float_distance_cases(10):
        rows = tuple(tuple(F(d).limit_denominator(10) for d in row) for row in model.terminal.distances)
        exact = CombModel(model.family, FacilityLocationTerminal(rows), model.n_items)
        assert verify._tolerance(inst, exact) == 0.0
    assert verify._tolerance(load_instance(CORPUS / "facility_location_pair.json").instance, None) == 0.0


def test_shape_chord_of_large_ints_stays_exact():
    """Support values above 2^53: the chord of the concavity check is an
    exact quotient, so a correct kernel passes at zero tolerance."""
    d0 = DiscreteDist(
        (
            (0, F(97, 100)),
            (2456465800505386285, F(1, 100)),
            (4305351531206262316, F(1, 100)),
            (5668458531419580254, F(1, 100)),
        )
    )
    d1 = DiscreteDist(((2**63, F(1, 2)), (2**63 + 2, F(1, 2))))
    inst = Instance([Item(0, F(1, 4), d0), Item(1, F(1, 4), d1)])
    results = verify.run_checks(inst, CombModel(UniformMatroid(1), ZeroTerminal(), 2))
    assert [(r.name, r.max_violation) for r in results if r.status != "pass"] == []

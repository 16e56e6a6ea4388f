"""The verify suite computes each exact value of an instance at most once.

Counters wrap the module-level evaluators that ``verify`` calls, so a check
that recomputes a value it shares with another check shows up as a second
call.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from pandora_hedge import CombModel, SurrogateKind, UniformMatroid, ZeroTerminal, verify
from pandora_hedge.instancefile import load_instance

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

    counted("evaluate_policy_exact", lambda instance, policy, *a, **k: ("single", policy))
    counted("evaluate_comb_policy_exact", lambda model, instance, policy, *a, **k: ("comb", policy))
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

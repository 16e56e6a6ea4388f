"""The shared policy layer: prepared policies, the trial loop and the --trace
rows agree with the public per-trial functions, and trial-independent work
runs once per prepared policy."""

import json
import random
from pathlib import Path

import pytest

from pandora_hedge import (
    combinatorial_lh_policy,
    evaluate_comb_policy_mc,
    evaluate_policy_mc,
    frugal_oi_policy,
    pi_surrogate_bound,
)
from pandora_hedge import policies
from pandora_hedge.cli import main
from pandora_hedge.instancefile import LoadedInstance, write_instance
from pandora_hedge.policies import SINGLE_POLICIES, prepare_policy
from pandora_hedge.randgen import random_comb_instance, random_instance
from pandora_hedge.sampling import mc_summary

from helpers import golden_pair, seeded_trials

GOLDEN = str(Path(__file__).resolve().parent.parent / "corpus" / "golden_two_item.json")
TRIALS = 60
SEED = 13


def _reference_traces(instance, per_trial, count, seed=SEED):
    """Traces from the public per-trial function on the seeded draws."""
    realizations, coins = seeded_trials(instance, seed, 0, count)
    return [per_trial(realizations[t], coins[t]) for t in range(count)]


def _single_cases(exact):
    rng = random.Random(41 if exact else 40)
    for _ in range(6):
        inst = random_instance(rng, max_items=5, exact=exact)
        for policy in SINGLE_POLICIES:
            yield inst, None, policy, lambda r, c, i=inst, p=policy: prepare_policy(i, p).run(r, c)


def _comb_cases(exact):
    rng = random.Random(43 if exact else 42)
    for _ in range(4):
        model, inst = random_comb_instance(rng, max_items=5, exact=exact)
        yield inst, model, "frugal-oi", lambda r, c, m=model, i=inst: frugal_oi_policy(m, i, r)
        yield inst, model, "local-hedging", lambda r, c, m=model, i=inst: combinatorial_lh_policy(m, i, r, c)


def _trace_row(t, trace):
    row = {
        "trial": t,
        "inspection_order": list(trace.inspection_order),
        "selected": sorted(trace.selected),
        "selected_without_inspection": sorted(trace.selected_without_inspection),
        "total_cost": float(trace.total_cost),
    }
    if trace.labels is not None:
        row["labels"] = list(trace.labels)
    return row


@pytest.mark.parametrize("exact", [False, True])
class TestTrialLoop:
    def test_single_item_mc_equals_per_trial_summary(self, exact):
        for inst, _, policy, per_trial in _single_cases(exact):
            expected = mc_summary(tr.total_cost for tr in _reference_traces(inst, per_trial, TRIALS))
            assert evaluate_policy_mc(inst, policy, TRIALS, SEED) == expected

    def test_combinatorial_mc_equals_per_trial_summary(self, exact):
        for inst, model, policy, per_trial in _comb_cases(exact):
            expected = mc_summary(tr.total_cost for tr in _reference_traces(inst, per_trial, TRIALS))
            assert evaluate_comb_policy_mc(model, inst, policy, TRIALS, SEED) == expected

    def test_cli_trace_rows_equal_first_traces(self, exact, tmp_path, capsys):
        cases = list(_single_cases(exact))[:10] + list(_comb_cases(exact))
        for k, (inst, model, policy, per_trial) in enumerate(cases):
            path = tmp_path / f"case{k}.json"
            write_instance(LoadedInstance(instance=inst, model=model), path)
            argv = ["simulate", str(path), "--policy", policy, "--trials", "20", "--seed", str(SEED)]
            assert main(argv + ["--trace", "4", "--json"]) == 0
            rows = json.loads(capsys.readouterr().out)["policy"]["traces"]
            expected = [_trace_row(t, tr) for t, tr in enumerate(_reference_traces(inst, per_trial, 4))]
            assert rows == expected


def _count_labelings(monkeypatch) -> list:
    calls = []
    real = policies.commit_enum_labeling

    def counting(instance):
        calls.append(1)
        return real(instance)

    monkeypatch.setattr(policies, "commit_enum_labeling", counting)
    return calls


class TestPreparedOnce:
    def test_pi_bound_labels_once(self, monkeypatch):
        calls = _count_labelings(monkeypatch)
        pi_surrogate_bound(golden_pair(exact=False), "commit-enum", 50, seed=2)
        assert len(calls) == 1

    def test_simulate_with_traces_labels_once(self, monkeypatch, capsys):
        calls = _count_labelings(monkeypatch)
        code = main(["simulate", GOLDEN, "--policy", "commit-enum", "--trials", "40", "--trace", "3"])
        assert code == 0 and "trace[2]" in capsys.readouterr().out
        assert len(calls) == 1

"""The shared policy layer: prepared policies, the trial loop, the --trace
rows and the public per-trial functions agree with the reference per-trial
engines, and trial-independent work runs once per prepared policy."""

import json
import random
from pathlib import Path

import pytest

from pandora_hedge import (
    evaluate_mc,
    pi_surrogate_bound,
    prepare_comb_policy,
)
from pandora_hedge import policies, sampling
from pandora_hedge.cli import main
from pandora_hedge.combinatorial import COMB_POLICIES
from pandora_hedge.instancefile import LoadedInstance, write_instance
from pandora_hedge.policies import SINGLE_POLICIES, prepare_policy
from pandora_hedge.randgen import random_comb_instance, random_instance
from pandora_hedge.sampling import mc_summary

from helpers import golden_pair, reference_comb_policy, reference_policy, seeded_trials

GOLDEN = str(Path(__file__).resolve().parent.parent / "corpus" / "golden_two_item.json")
TRIALS = 60
SEED = 13


def _reference_traces(instance, per_trial, count, seed=SEED):
    """Traces from the reference per-trial function on the seeded draws."""
    realizations, coins = seeded_trials(instance, seed, 0, count)
    return [per_trial(realizations[t], coins[t]) for t in range(count)]


def _single_cases(exact):
    rng = random.Random(41 if exact else 40)
    for _ in range(6):
        inst = random_instance(rng, max_items=5, exact=exact)
        for policy in SINGLE_POLICIES:
            yield inst, None, policy, reference_policy(inst, policy)


def _comb_cases(exact):
    rng = random.Random(43 if exact else 42)
    for _ in range(4):
        model, inst = random_comb_instance(rng, max_items=5, exact=exact)
        for policy in COMB_POLICIES:
            yield inst, model, policy, reference_comb_policy(model, inst, policy)


def _public(inst, model, policy):
    """The public per-trial function of a policy, as ``run(realization, coins)``."""
    if model is not None:
        return prepare_comb_policy(model, inst, policy).run
    return prepare_policy(inst, policy).run


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
            assert evaluate_mc(prepare_policy(inst, policy), TRIALS, SEED) == expected

    def test_combinatorial_mc_equals_per_trial_summary(self, exact):
        for inst, model, policy, per_trial in _comb_cases(exact):
            expected = mc_summary(tr.total_cost for tr in _reference_traces(inst, per_trial, TRIALS))
            assert evaluate_mc(prepare_comb_policy(model, inst, policy), TRIALS, SEED) == expected

    def test_public_per_trial_functions_equal_the_reference(self, exact):
        for inst, model, policy, per_trial in [*_single_cases(exact), *_comb_cases(exact)]:
            realizations, coins = seeded_trials(inst, SEED, 0, 20)
            public = _public(inst, model, policy)
            for r, c, expected in zip(realizations, coins, _reference_traces(inst, per_trial, 20)):
                got = public(r, c)
                assert got == expected and type(got.total_cost) is type(expected.total_cost)

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
        pi_surrogate_bound(golden_pair(exact=False), "commit-enum")
        assert len(calls) == 1

    def test_simulate_with_traces_labels_once(self, monkeypatch, capsys):
        calls = _count_labelings(monkeypatch)
        code = main(["simulate", GOLDEN, "--policy", "commit-enum", "--trials", "40", "--trace", "3"])
        assert code == 0 and "trace[2]" in capsys.readouterr().out
        assert len(calls) == 1

    def test_traces_sort_the_slots_once(self, monkeypatch):
        """A reservation policy's traces reuse one slot list and one
        ``reservation_batch`` search in every chunk of trials."""
        built = []

        def counting(real):
            def counted(*args):
                built.append(real.__name__)
                return real(*args)

            return counted

        for name in ("_slots", "reservation_batch"):
            monkeypatch.setattr(policies, name, counting(getattr(policies, name)))
        monkeypatch.setattr(sampling, "MC_CHUNK", 7)
        inst = golden_pair(exact=False)
        for policy in ("weitzman", "local-hedging", "commit-enum"):
            prepared = prepare_policy(inst, policy)
            built.clear()
            assert len(list(policies.iter_trials(prepared, SEED, 22))) == 22
            assert not built

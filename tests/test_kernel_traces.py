"""Traces come from the array form: ``PreparedPolicy.traces`` reads each
trial's stop from ``reservation_batch`` on object arrays of the instance's
own numbers, and equals the reference per-trial engine field by field."""

import random

import numpy as np
import pytest

from pandora_hedge import HedgeCoins, Realization, pi_surrogate_bound, policies
from pandora_hedge.cli import main
from pandora_hedge.instancefile import LoadedInstance, write_instance
from pandora_hedge.policies import coin_columns, prepare_policy, price_columns
from pandora_hedge.randgen import random_instance
from pandora_hedge.verify import ExactValues, check_weitzman_trace

from helpers import all_int, big_grid, reference_policy, wide_grid
from test_batch_mc import single_item, tie_heavy

SEED = 19
KERNEL_POLICIES = ("weitzman", "commit-enum", "local-hedging")
RANDOM_CASES = 100


def _cases():
    for kind in ("float", "int", "exact"):
        yield tie_heavy(kind), 400
        yield single_item(kind), 20
    for inst in (big_grid(), wide_grid(), all_int()):
        yield inst, 100
    for exact in (True, False):
        rng = random.Random(91 if exact else 90)
        for _ in range(RANDOM_CASES):
            yield random_instance(rng, max_items=6, exact=exact), 30


def _assert_same_traces(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
        assert type(g.total_cost) is type(e.total_cost)
        assert g.labels == e.labels and type(g.labels) is type(e.labels)


@pytest.mark.parametrize("policy", KERNEL_POLICIES)
def test_traces_equal_the_reference_engine(policy):
    for inst, count in _cases():
        prepared = prepare_policy(inst, policy)
        prices = price_columns(inst, SEED, 0, count, object)
        coins = coin_columns(inst, SEED, 0, count)
        got = prepared.traces(prices, coins if prepared.draws_coins else None)
        reference = reference_policy(inst, policy)
        expected = [
            reference(Realization(tuple(row)), HedgeCoins(tuple(labels)))
            for row, labels in zip(prices.T.tolist(), coins.T.tolist())
        ]
        _assert_same_traces(got, expected)


def test_cases_reach_ties_where_the_first_slot_is_not_the_lowest_id():
    """Weitzman traces on the random cases tie at the lowest inspected price,
    some with the tied item inspected first above the lowest tied id: there
    the trace's lowest-id rule and the kernel's first-slot rule part."""
    parted = 0
    for inst, count in _cases():
        prices = price_columns(inst, SEED, 0, count, object)
        for row, trace in zip(prices.T.tolist(), prepare_policy(inst, "weitzman").traces(prices, None)):
            low = min(row[n] for n in trace.inspection_order)
            tied = [n for n in trace.inspection_order if row[n] == low]
            assert trace.selected == {min(tied)}
            parted += tied[0] != min(tied)
    assert parted > 0


def test_weitzman_keeps_no_labels_and_commit_enum_keeps_all_true_labels():
    inst = tie_heavy("exact")
    labels = policies.commit_enum_labeling(inst).labels
    assert all(labels)  # commit-enum labels every item here
    prices = price_columns(inst, SEED, 0, 5, object)
    assert all(t.labels is None for t in prepare_policy(inst, "weitzman").traces(prices, None))
    assert all(t.labels == labels for t in prepare_policy(inst, "commit-enum").traces(prices, None))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Price dtypes and shapes of every ``reservation_batch`` search run."""
    calls = []
    real = policies.reservation_batch

    def spying(instance, labels=None):
        search = real(instance, labels)

        def spied(prices, coins):
            calls.append((prices.dtype, prices.shape))
            return search(prices, coins)

        return spied

    monkeypatch.setattr(policies, "reservation_batch", spying)
    return calls


def test_trace_paths_run_the_kernel(kernel_calls, tmp_path, capsys):
    """``--trace``, ``pi_surrogate_bound`` and the argmin check all run the
    search on object arrays of the instance's own numbers."""
    inst = tie_heavy("exact")
    path = tmp_path / "tie_heavy.json"
    write_instance(LoadedInstance(instance=inst), path)
    for policy in KERNEL_POLICIES:
        kernel_calls.clear()
        assert main(["simulate", str(path), "--policy", policy, "--trials", "10", "--trace", "3"]) == 0
        assert "trace[2]" in capsys.readouterr().out
        assert (np.dtype(object), (len(inst), 3)) in kernel_calls

        kernel_calls.clear()
        pi_surrogate_bound(inst, policy, 25, SEED)
        assert kernel_calls == [(np.dtype(object), (len(inst), 25))]

    kernel_calls.clear()
    passed, _ = check_weitzman_trace(ExactValues(inst), 0.0)
    assert passed and {dtype for dtype, _ in kernel_calls} == {np.dtype(object)}
    assert sum(shape[1] for _, shape in kernel_calls) == inst.support_product()

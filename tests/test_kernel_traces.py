"""Traces come from the array form: ``PreparedPolicy.traces`` reads each
policy's kernel record (for a reservation policy, each trial's stop from
``reservation_batch``) on object arrays of the instance's own numbers, and
equals the reference per-trial engine field by field.  The
selection-argmin check of ``verify`` reads the stop and chosen price of the
same search on every realization."""

import json
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from pandora_hedge import DiscreteDist, HedgeCoins, Instance, Item, Realization, policies, verify
from pandora_hedge.cli import main
from pandora_hedge.instancefile import LoadedInstance, write_instance
from pandora_hedge.policies import prepare_policy
from pandora_hedge.sampling import COIN_STREAM
from pandora_hedge.randgen import random_instance

from helpers import all_int, big_grid, draw_columns, reference_policy, wide_grid
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


@pytest.mark.parametrize("policy", policies.SINGLE_POLICIES)
def test_traces_equal_the_reference_engine(policy):
    for inst, count in _cases():
        prepared = prepare_policy(inst, policy)
        prices = draw_columns(inst, SEED, 0, count, object)
        coins = draw_columns(inst, SEED, 0, count, stream=COIN_STREAM)
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
        prices = draw_columns(inst, SEED, 0, count, object)
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
    prices = draw_columns(inst, SEED, 0, 5, object)
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
    """``--trace`` runs the search on object arrays of the instance's own
    numbers."""
    inst = tie_heavy("exact")
    path = tmp_path / "tie_heavy.json"
    write_instance(LoadedInstance(instance=inst), path)
    for policy in KERNEL_POLICIES:
        kernel_calls.clear()
        assert main(["simulate", str(path), "--policy", policy, "--trials", "10", "--trace", "3"]) == 0
        assert "trace[2]" in capsys.readouterr().out
        assert (np.dtype(object), (len(inst), 3)) in kernel_calls


def _argmin_row(instance, budget=verify.DEFAULT_BUDGET):
    (row,) = [r for r in verify.run_checks(instance, budget=budget) if r.name == "selection argmin consistency"]
    return row


def _six_point_items(count):
    """``count`` exact items of six support values each."""
    return Instance([
        Item(n, F(n + 1, 4), DiscreteDist(tuple((F(v + n % 2), F(1, 6)) for v in (0, 2, 3, 5, 8, 9))))
        for n in range(count)
    ])


def test_argmin_check_runs_at_every_budget_that_covers_the_support_product():
    """The check is charged the support product against the budget, as
    Weitzman's exact value is, with no cap of its own."""
    inst = _six_point_items(5)
    assert math.prod(len(item.dist) for item in inst.items) == 7776 > 4096
    row = _argmin_row(inst)
    assert row.status == "pass" and row.max_violation == 0
    assert _argmin_row(inst, budget=7776).status == "pass"
    assert _argmin_row(inst, budget=7775).status == "skip"


def test_verify_budget_below_the_support_product_skips_the_argmin_check(tmp_path, capsys):
    inst = tie_heavy("exact")
    path = tmp_path / "tie_heavy.json"
    write_instance(LoadedInstance(instance=inst), path)
    realizations = math.prod(len(item.dist) for item in inst.items)
    for budget, status in ((realizations - 1, "skip"), (realizations, "pass")):
        assert main(["verify", str(path), "--budget", str(budget), "--json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {c["name"]: c["status"] for c in checks}["selection argmin consistency"] == status


@pytest.mark.parametrize("kind", ["float", "exact"])
def test_argmin_check_passes_tie_heavy(kind):
    inst = tie_heavy(kind)
    passed, worst = verify.check_weitzman_trace(verify.ExactValues(inst), verify._tolerance(inst, None))
    assert passed and worst == 0


def test_argmin_check_runs_on_object_arrays_past_float64():
    inst = big_grid()
    assert policies.array_dtype(policies.IntegerGrid(inst).instance) is object
    assert verify.check_weitzman_trace(verify.ExactValues(inst), 0) == (True, 0)


@pytest.mark.parametrize("fault", ["stop - 1", "stop + 1", "chosen"])
def test_argmin_check_fails_a_search_off_by_one_slot(fault, monkeypatch):
    """A search that stops one slot early or late, or whose chosen price is
    read from the slot at its stop, fails the check at zero tolerance."""
    real = verify.reservation_batch

    def faulty(instance, labels=None):
        search = real(instance, labels)
        order = np.array([n for _, n, _ in policies._slots(instance, labels)])

        def spied(prices, coins):
            spent, chosen, stops = search(prices, coins)
            if fault == "chosen":
                chosen = prices[order[np.minimum(stops, len(order) - 1)], np.arange(prices.shape[1])]
            else:
                stops = np.clip(stops + (1 if fault == "stop + 1" else -1), 0, len(order))
            return spent, chosen, stops

        return spied

    inst = tie_heavy("exact")
    assert verify.check_weitzman_trace(verify.ExactValues(inst), 0) == (True, 0)
    monkeypatch.setattr(verify, "reservation_batch", faulty)
    passed, _ = verify.check_weitzman_trace(verify.ExactValues(inst), 0)
    assert not passed

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances are pinned here and nowhere else: exact identities and
inequality slack at 1e-12, Monte Carlo at three standard errors.
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from pandora_hedge import (
    SurrogateKind,
    compute_indices,
    evaluate_policy_exact,
    expected_surrogate_cost,
    make_worst_case_item,
    opt_value_comb_noi,
    opt_value_single_noi,
    opt_value_single_oi,
    surrogate_dist,
)
from pandora_hedge.cli import main
from pandora_hedge.combinatorial import evaluate_comb_policy_exact
from pandora_hedge.distkit import mean, min_of_independent
from pandora_hedge.indices import ALPHA_CEILING
from pandora_hedge.policies import price_columns
from pandora_hedge.randgen import random_comb_instance, random_instance, random_item

from helpers import golden_pair

TOL = 1e-12


def _report(num, ok, text):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num}: {text}"


def _min_w(instance, kind):
    return mean(min_of_independent([surrogate_dist(it, kind) for it in instance.items]))


@pytest.fixture(scope="module")
def corpus_200():
    rng = random.Random(20_601)
    return [random_instance(rng, max_items=6, max_support=4) for _ in range(200)]


@pytest.fixture(scope="module")
def corpus_oracle():
    rng = random.Random(20_603)
    return [random_instance(rng, max_items=8, max_support=4) for _ in range(100)]


@pytest.fixture(scope="module")
def items_500():
    rng = random.Random(20_604)
    return [random_item(rng, 0, max_support=4) for _ in range(500)]


@pytest.fixture(scope="module")
def matroid_corpus():
    rng = random.Random(20_607)
    return [random_comb_instance(rng, max_items=6, max_rank=3, max_support=3) for _ in range(100)]


def _breakpoints(item, scale=None):
    ix = compute_indices(item)
    pts = {0, ix.mu, ix.u_rsv, ix.u_bkp}
    pts.update(item.dist.values)
    for kind in SurrogateKind:
        pts.update(surrogate_dist(item, kind).values)
    if scale is not None:
        pts.update(scale * v for v in surrogate_dist(item, SurrogateKind.NOI).values)
    pts.add(max(pts) + 1)
    pts = sorted(pts)
    return pts + [(a + b) / 2 for a, b in zip(pts, pts[1:])]


def test_01_reservation_policy_equals_one_shot_optimum(corpus_200):
    t0 = time.time()
    worst = 0.0
    for inst in corpus_200:
        one_shot = _min_w(inst, SurrogateKind.OI)
        worst = max(worst, abs(float(evaluate_policy_exact(inst, "weitzman") - one_shot)))
        worst = max(worst, abs(float(opt_value_single_oi(inst) - one_shot)))
    elapsed = time.time() - t0
    _report(
        1,
        worst <= TOL and elapsed < 60,
        f"obligatory policy = one-shot surrogate minimum = DP optimum on 200 instances "
        f"(max dev {worst:.2e}, {elapsed:.1f}s)",
    )


def test_02_hedged_policy_equality_and_ratio_bound(corpus_200):
    worst_eq = worst_ineq = 0.0
    for inst in corpus_200:
        lh = evaluate_policy_exact(inst, "local-hedging")
        worst_eq = max(worst_eq, abs(float(lh - _min_w(inst, SurrogateKind.LH))))
        noi = _min_w(inst, SurrogateKind.NOI)
        worst_ineq = max(worst_ineq, float(lh - inst.max_alpha * noi))
        worst_ineq = max(worst_ineq, float(lh - F(4, 3) * noi))
    _report(
        2,
        worst_eq <= TOL and worst_ineq <= TOL,
        f"hedged policy equality (max dev {worst_eq:.2e}) and ratio ceiling "
        f"(max excess {worst_ineq:.2e}) on 200 instances",
    )


def test_03_lower_bound_sandwich(corpus_oracle):
    t0 = time.time()
    worst = 0.0
    for inst in corpus_oracle:
        noi_bound = _min_w(inst, SurrogateKind.NOI)
        opt = opt_value_single_noi(inst)
        lh = evaluate_policy_exact(inst, "local-hedging")
        worst = max(worst, float(noi_bound - opt), float(opt - lh))
    elapsed = time.time() - t0
    _report(
        3,
        worst <= TOL and elapsed < 300,
        f"one-shot bound <= optimal <= hedged policy on 100 instances up to 8 items "
        f"(max violation {worst:.2e}, {elapsed:.1f}s)",
    )


def test_04_one_item_closed_forms(items_500):
    worst = 0.0
    for item in items_500:
        mu = mean(item.dist)
        oi = surrogate_dist(item, SurrogateKind.OI)
        noi = surrogate_dist(item, SurrogateKind.NOI)
        for r in _breakpoints(item):
            inspect_branch = item.cost + mean(item.dist) - sum(
                p * max(v - r, 0) for v, p in item.dist.atoms
            )
            got_oi = sum(p * min(v, r) for v, p in oi.atoms)
            got_noi = sum(p * min(v, r) for v, p in noi.atoms)
            worst = max(worst, abs(float(got_oi - min(inspect_branch, r))))
            worst = max(worst, abs(float(got_noi - min(inspect_branch, r, mu))))
    _report(4, worst <= TOL, f"one-item closed forms on 500 items at all breakpoints (max dev {worst:.2e})")


def test_05_ratio_ceiling_and_worst_case_family():
    rng = random.Random(20_605)
    worst_alpha = 0.0
    for _ in range(10_000):
        ix = compute_indices(random_item(rng, 0, max_support=4))
        worst_alpha = max(worst_alpha, float(ix.alpha_local))
    family_ok = True
    previous = 0
    dev = 0.0
    for delta in (F(1, 10), F(1, 100), F(1, 1000)):
        ix = compute_indices(make_worst_case_item(F(1), F(2), 1 - delta))
        expected = (2 - delta) / (F(3, 2) - delta / 2)
        dev = max(dev, abs(float(ix.alpha_local - expected)))
        family_ok = family_ok and ix.alpha_local > previous and ix.alpha_local < F(4, 3)
        previous = ix.alpha_local
    _report(
        5,
        worst_alpha <= ALPHA_CEILING + TOL and dev <= TOL and family_ok,
        f"ratio ceiling 4/3 over 10^4 items (max {worst_alpha:.12f}) and steep two-point family "
        f"matches its closed form (max dev {dev:.2e}), increasing toward 4/3",
    )


def test_06_local_approximation_sweep(items_500):
    worst = 0.0
    for item in items_500:
        ix = compute_indices(item)
        lh = surrogate_dist(item, SurrogateKind.LH)
        noi = surrogate_dist(item, SurrogateKind.NOI)
        for r in _breakpoints(item, scale=ix.alpha_local):
            lhs = sum(p * min(v, r) for v, p in lh.atoms)
            rhs = sum(p * min(ix.alpha_local * v, r) for v, p in noi.atoms)
            worst = max(worst, float(lhs - rhs))
    _report(6, worst <= TOL, f"hedged surrogate dominated by scaled surrogate on 500 items (max excess {worst:.2e})")


def test_07_frugal_matroid_equality(matroid_corpus):
    worst = 0.0
    for model, inst in matroid_corpus:
        frugal = evaluate_comb_policy_exact(model, inst, "frugal-oi")
        z_oi = expected_surrogate_cost(model, inst, SurrogateKind.OI)
        worst = max(worst, abs(float(frugal - z_oi)))
    _report(7, worst <= TOL, f"frugal composition equals one-shot surrogate cost on 100 matroids (max dev {worst:.2e})")


def test_08_combinatorial_hedging_chain(matroid_corpus):
    worst_chain = 0.0
    worst_lb = 0.0
    n_dp = 0
    for model, inst in matroid_corpus:
        clh = evaluate_comb_policy_exact(model, inst, "local-hedging")
        z_noi = expected_surrogate_cost(model, inst, SurrogateKind.NOI)
        worst_chain = max(worst_chain, float(clh - inst.max_alpha * z_noi))
        worst_chain = max(worst_chain, float(clh - F(4, 3) * z_noi))
        if len(inst) <= 5:
            n_dp += 1
            worst_lb = max(worst_lb, float(z_noi - opt_value_comb_noi(model, inst)))
    _report(
        8,
        worst_chain <= TOL and worst_lb <= TOL and n_dp > 0,
        f"hedged combinatorial policy within its ceiling (max excess {worst_chain:.2e}) and "
        f"surrogate cost below the DP optimum on {n_dp} small instances (max excess {worst_lb:.2e})",
    )


def test_09_golden_instance():
    inst = golden_pair()
    opt = opt_value_single_noi(inst)
    bound = _min_w(inst, SurrogateKind.NOI)
    lh = evaluate_policy_exact(inst, "local-hedging")
    ratio = lh / bound
    ok = (
        opt == F(9, 2)
        and bound == F(9, 2)
        and lh == F(125, 26)
        and abs(float(ratio) - 1.0684) < 1e-3
        and ratio <= F(15, 13)
    )
    _report(
        9,
        ok,
        f"golden two-item instance: optimum {opt}, bound {bound}, hedged cost {lh} "
        f"(= 62.5/13), realized ratio {float(ratio):.4f} <= 15/13",
    )


def test_10_determinism(tmp_path, capsys):
    src = golden_pair(exact=False)
    doc = {
        "version": "1",
        "items": [
            {"cost": 0.0, "dist": [{"value": 5.0, "prob": 1}]},
            {"cost": 2.0, "dist": [{"value": 0.0, "prob": 0.5}, {"value": 10.0, "prob": 0.5}]},
        ],
    }
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    args = ["simulate", str(path), "--policy", "local-hedging", "--trials", "3000", "--seed", "5", "--trace", "3", "--json"]
    assert main(args) == 0
    out1 = capsys.readouterr().out
    assert main(args) == 0
    out2 = capsys.readouterr().out
    # worker-count invariance: trials drawn in two chunks match the monolithic draw
    whole = price_columns(src, 5, 0, 100, object).T.tolist()
    chunked = price_columns(src, 5, 0, 60, object).T.tolist() + price_columns(src, 5, 60, 40, object).T.tolist()
    ok = out1 == out2 and whole == chunked
    _report(10, ok, "fixed-seed simulation output is byte-identical and chunk-invariant")

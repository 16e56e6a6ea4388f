"""The premises of the verify checks that are proofs, and the faults only
those proofs catch.

The per-item sweeps evaluate each compared difference on the kink set alone
(``verify._breakpoints``); that is a proof only if every term of the
difference is affine between consecutive points, and the difference is
constant past the last one.  The midpoint sweep that the suite no longer
runs is the reference here.
"""

from __future__ import annotations

from fractions import Fraction as F

from hypothesis import example, given, strategies as st

from pandora_hedge import CombModel, DiscreteDist, Instance, Item, SurrogateKind, UniformMatroid, ZeroTerminal, verify
from pandora_hedge.distkit import expected_excess, expected_shortfall, mean
from pandora_hedge.indices import capped_expectation
from pandora_hedge.oracle import opt_value_comb_noi
from pandora_hedge.policies import IntegerGrid, one_item_value

from helpers import golden_pair
from test_distkit import TWO_POINT, dists, rationals
from test_indices import hedged_items

OI, NOI, LH = SurrogateKind.OI, SurrogateKind.NOI, SurrogateKind.LH


def never_inspect_items():
    """Costs at or above the shortfall below the mean; a cost above the mean
    puts the backup price below 0."""

    def build(t):
        dist, extra = t
        return Item(0, expected_shortfall(dist, mean(dist)) + extra, dist)

    return st.tuples(dists(), rationals(lo=0, hi=12)).map(build)


def free_items():
    return dists().map(lambda dist: Item(0, F(0), dist))


def swept_terms(item):
    """(points, terms) of each per-item sweep of ``verify``: the swept
    difference is the first term minus the others.  Each term maps to an
    exact ``Fraction``, and the points are ``verify._breakpoints`` on the
    item's grid, taken off it."""
    grid = IntegerGrid.of(Instance([item]))
    idx = item.indices
    alpha = idx.alpha_local
    plain = [F(x, grid.L) for x in verify._breakpoints(grid, 0)]
    refined = [F(x, grid.ratio(alpha)[2] * grid.L) for x in verify._breakpoints(grid, 0, alpha)]
    sweeps = [
        (
            plain,
            lambda u: expected_shortfall(item.dist, u),
            lambda u: expected_excess(item.dist, u),
            lambda u: u - idx.mu,
        ),
        (plain, lambda r: capped_expectation(item, OI, r), lambda r: one_item_value(item, r, OI)),
        (plain, lambda r: capped_expectation(item, NOI, r), lambda r: one_item_value(item, r, NOI)),
        (
            refined,
            lambda r: capped_expectation(item, LH, r),
            lambda r: alpha * capped_expectation(item, NOI, r / alpha),
        ),
    ]
    return [(points, [lambda x, t=t: F(t(x)) for t in terms]) for points, *terms in sweeps]


@given(st.one_of(hedged_items(), never_inspect_items(), free_items()))
@example(Item(0, F(6), TWO_POINT))  # backup price -1
@example(Item(0, F(0), TWO_POINT))  # c = 0 and u_rsv = 0
def test_swept_terms_are_affine_between_kinks(item):
    """Every term is affine on each interval between consecutive points and
    past the last one, and each difference is constant there."""
    for points, terms in swept_terms(item):
        assert points == sorted(set(points))
        last = points[-1]
        for term in terms:
            for a, b in zip(points, points[1:] + [last + 2]):
                assert term((a + b) / 2) == (term(a) + term(b)) / 2
        first, *rest = terms
        at_last, further = (first(x) - sum(term(x) for term in rest) for x in (last, last + 2))
        assert at_last == further


def test_negative_backup_price_extends_the_swept_range():
    item = Item(0, F(6), TWO_POINT)
    assert item.indices.u_bkp == -1
    grid = IntegerGrid.of(Instance([item]))
    assert verify._breakpoints(grid, 0)[0] == -grid.L


def _rank2_instance():
    """Three items under U(2); item 0's mean, 7/3, is no multiple of 1/2."""
    items = [
        Item(0, F(1), DiscreteDist(((F(1), F(1, 3)), (F(3), F(2, 3))))),
        Item(1, F(1, 2), DiscreteDist(((F(1), F(1, 4)), (F(5), F(3, 4))))),
        Item(2, F(0), DiscreteDist(((F(2), F(1, 2)), (F(5), F(1, 2))))),
    ]
    instance = Instance(items)
    return instance, CombModel(UniformMatroid(2), ZeroTerminal(), len(instance))


def _result(instance, model, name):
    (result,) = [r for r in verify.run_checks(instance, model) if r.name == name]
    return result


SHAPE = "surrogate cost monotone and concave per coordinate"
SANDWICH = "combinatorial lower bound"


def test_shape_check_fails_a_kernel_wrong_only_at_an_items_mean(monkeypatch):
    instance, model = _rank2_instance()
    assert _result(instance, model, SHAPE).status == "pass"
    mu = instance.indices[0].mu
    assert mu == F(7, 3)
    kernel = verify.surrogate_costs

    def corrupted(model, pool):
        costs = kernel(model, pool)
        return lambda prices: [c - 1 if prices[0, k] == mu else c for k, c in enumerate(costs(prices))]

    monkeypatch.setattr(verify, "surrogate_costs", corrupted)
    result = _result(instance, model, SHAPE)
    assert not result.passed and result.max_violation > 0


def test_combinatorial_sandwich_reads_both_policies(monkeypatch):
    instance, model = _rank2_instance()
    assert _result(instance, model, SANDWICH).status == "pass"
    opt = opt_value_comb_noi(model, instance)
    policy = verify.ExactValues._policy
    for name in ("frugal-oi", "local-hedging"):
        below = {name: opt - F(1, 10**6)}
        monkeypatch.setattr(verify.ExactValues, "_policy", lambda self, n, below=below: below[n] if n in below else policy(self, n))
        result = _result(instance, model, SANDWICH)
        assert not result.passed and result.max_violation == 1e-6


def test_exact_local_approximation_sweep_passes_no_float_cap(monkeypatch):
    """A never-inspect item's alpha_local is the int 1, so r / alpha at the
    kink r = 0 must not become the float 0.0 in exact mode: every cap and
    atom of the int sweep is an int."""
    caps = []

    def recording(atoms, r):
        caps.append((r, atoms))
        return capped(atoms, r)

    capped = verify._capped
    monkeypatch.setattr(verify, "_capped", recording)
    instance = golden_pair()
    assert instance.indices[0].alpha_local == 1 and type(instance.indices[0].alpha_local) is int
    assert all(r.passed for r in verify.run_checks(instance))
    assert caps and all(type(x) is int for r, atoms in caps for x in (r, *(x for atom in atoms for x in atom)))

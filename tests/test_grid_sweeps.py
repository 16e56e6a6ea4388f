"""The per-item sweeps of ``verify``, the single-item one-shot values and the
gridded surrogates against their references on the instance's own numbers
(``helpers.REFERENCE_SWEEPS``, ``helpers.reference_one_shot`` and
``surrogate_dist``), at zero tolerance: equal values on exact instances, and
bit for bit (``float.hex``) on float instances, whose order of float
operations is the references'."""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, example, given, strategies as st

from pandora_hedge import CombModel, DiscreteDist, Instance, Item, SurrogateKind, UniformMatroid, ZeroTerminal, verify
from pandora_hedge.indices import surrogate_dist, surrogate_size
from pandora_hedge.instancefile import load_instance
from pandora_hedge.policies import IntegerGrid
from pandora_hedge.randgen import random_comb_instance, random_instance

from helpers import REFERENCE_SWEEPS, golden_pair, reference_one_shot
from test_distkit import TWO_POINT, rationals
from test_indices import hedged_items
from test_verify_proofs import free_items, never_inspect_items

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
THREE = DiscreteDist(((0, F(1, 3)), (F(5), F(1, 3)), (10, F(1, 3))))  # an int and a Fraction(k, 1) value


def tie_heavy_items(exact=True):
    """Items at the ties of the indices: c = E[(mu - X)+] (u_rsv = u_bkp =
    mu, p_hedge 0), c = 0 (u_rsv = 0, p_hedge 1), a mean on an OI atom (the
    LH mean merges into it), a free int point mass (u_rsv = mu) and a costly
    one (u_rsv above u_bkp), with int and ``Fraction(k, 1)`` values; float
    copies of them with ``exact=False``."""
    items = [
        Item(0, F(5, 2), TWO_POINT),
        Item(1, F(0), TWO_POINT),
        Item(2, 1, THREE),
        Item(3, 0, DiscreteDist.point_mass(5)),
        Item(4, 1, DiscreteDist.point_mass(3)),
    ]
    if not exact:
        items = [Item(it.id, float(it.cost), DiscreteDist(tuple((float(v), float(p)) for v, p in it.dist.atoms))) for it in items]
    return items


def _renumbered(items):
    return Instance([Item(n, it.cost, it.dist) for n, it in enumerate(items)])


def tie_heavy_instances():
    """Each tie-heavy item alone, all of them in both orders, and the int
    and ``Fraction(5)`` point masses tied in both orders."""
    out = []
    for exact in (True, False):
        items = tie_heavy_items(exact)
        out += [_renumbered([it]) for it in items]
        out += [_renumbered(items), _renumbered(items[::-1])]
    tied = [Item(0, 0, DiscreteDist.point_mass(5)), Item(0, 0, DiscreteDist.point_mass(F(5)))]
    out += [_renumbered(tied), _renumbered(tied[::-1])]
    return out


def instances():
    """Tie-heavy, random exact and float single-item and combinatorial
    instances (the sweeps of the latter on their models' grids) and the
    corpus, as (instance, model) pairs."""
    rng = random.Random(31)
    pairs = [(inst, None) for inst in tie_heavy_instances()]
    pairs += [(golden_pair(exact), None) for exact in (True, False)]
    pairs += [(random_instance(rng, exact=exact), None) for exact in (True, False) for _ in range(12)]
    for _ in range(12):
        model, inst = random_comb_instance(rng, max_items=5)
        pairs.append((inst, model))
    for path in sorted(CORPUS.glob("*.json")):
        loaded = load_instance(path)
        pairs.append((loaded.instance, loaded.model))
    return pairs


INSTANCES = instances()


def _same(got, want):
    """Equal in value and type, and bit for bit as floats."""
    assert got == want and type(got) is type(want)
    if isinstance(want, float):
        assert got.hex() == want.hex()


def _assert_sweeps_match(instance, model=None):
    values = verify.ExactValues(instance, model)
    tol = verify._tolerance(instance, model)
    checks = dict(verify.COMB_CHECKS if model is not None else verify.SINGLE_CHECKS)
    for name, reference in REFERENCE_SWEEPS.items():
        (passed, worst), (want_passed, want_worst) = checks[name](values, tol), reference(instance, tol)
        assert passed is want_passed, name
        _same(worst, want_worst)


@pytest.mark.parametrize("case", range(len(INSTANCES)))
def test_sweeps_equal_their_references(case):
    _assert_sweeps_match(*INSTANCES[case])


@given(st.one_of(hedged_items(), never_inspect_items(), free_items()))
@example(Item(0, F(6), TWO_POINT))  # backup price -1
@example(Item(0, F(0), TWO_POINT))  # c = 0 and u_rsv = 0
def test_sweeps_equal_their_references_on_one_item(item):
    _assert_sweeps_match(Instance([item]))


def _with_indices(item, mu, u_rsv, u_bkp, p_hedge, alpha):
    """``item`` with its own indices moved: mu, u_rsv and u_bkp by the given
    shifts, p_hedge and alpha_local replaced."""
    ix = item.indices
    moved = replace(ix, mu=ix.mu + mu, u_rsv=ix.u_rsv + u_rsv, u_bkp=ix.u_bkp + u_bkp, p_hedge=p_hedge, alpha_local=alpha)
    item = Item(item.id, item.cost, item.dist)
    item.__dict__["indices"] = moved
    return item


@given(
    st.one_of(hedged_items(), never_inspect_items()),
    *[rationals(lo=-2, hi=2)] * 3,
    st.fractions(min_value=0, max_value=1, max_denominator=16),
    st.fractions(min_value=1, max_value=2, max_denominator=16),
)
@example(Item(0, F(2), TWO_POINT), F(1, 3), 0, 0, F(5, 13), F(15, 13))
def test_violated_sweeps_read_their_references_violations(item, mu, u_rsv, u_bkp, p_hedge, alpha):
    """Indices that break the identities: every sweep reads the largest
    violation its reference reads, bit for bit."""
    item = _with_indices(item, mu, u_rsv, u_bkp, p_hedge, alpha)
    try:
        [item.surrogate(kind) for kind in SurrogateKind]
    except ValueError:  # a negative surrogate price
        assume(False)
    _assert_sweeps_match(Instance([item]))


@pytest.mark.parametrize("case", range(len(INSTANCES)))
def test_gridded_surrogates_are_the_surrogate_dists(case):
    """Each gridded surrogate, its values over L and its int weights over q,
    is ``surrogate_dist``; in float mode it is its atoms, q being 1."""
    instance, model = INSTANCES[case]
    grid = IntegerGrid.of(instance, model)
    for kind in SurrogateKind:
        for item, (q, atoms) in zip(instance.items, grid.surrogates(kind)):
            want = item.surrogate(kind).atoms
            if grid.exact:
                assert all(type(x) is int for atom in atoms for x in atom)
                assert tuple((F(v, grid.L), F(w, q)) for v, w in atoms) == want
            else:
                assert (q, atoms) == (1, want)


@pytest.mark.parametrize("case", range(len(INSTANCES)))
def test_one_shot_is_the_mean_of_the_minimum(case):
    """E[min W^kind] has the value and type of the mean of
    ``min_of_independent`` of the surrogates, bit for bit in float mode."""
    instance, _ = INSTANCES[case]
    for kind in SurrogateKind:
        _same(verify.ExactValues(instance).one_shot(kind), reference_one_shot(instance, kind))


def test_one_shot_of_int_point_masses_keeps_their_type():
    """OI prices the costly point mass at 3 at u_rsv = Fraction(4); NOI and
    LH at its int mean 3.  A tie between an int and a Fraction point mass
    keeps the first item's value."""
    instance = _renumbered([Item(0, 1, DiscreteDist.point_mass(3)), Item(0, 0, DiscreteDist.point_mass(5))])
    got = {kind: verify.expected_min(instance, kind) for kind in SurrogateKind}
    assert [(type(v), v) for v in got.values()] == [(F, 4), (int, 3), (int, 3)]
    for first, second in ((5, F(5)), (F(5), 5)):
        tied = _renumbered([Item(0, 0, DiscreteDist.point_mass(first)), Item(0, 0, DiscreteDist.point_mass(second))])
        assert all(type(verify.expected_min(tied, kind)) is type(first) for kind in SurrogateKind)


@given(st.one_of(hedged_items(), never_inspect_items(), free_items()))
def test_surrogate_size_counts_the_surrogate_atoms(item):
    """The enumeration charges its budget by ``surrogate_size`` before any
    surrogate is built: the number of atoms ``surrogate_dist`` has."""
    for kind in SurrogateKind:
        assert surrogate_size(item, kind) == len(surrogate_dist(item, kind))


def test_surrogate_size_counts_merged_ties():
    for item in tie_heavy_items() + tie_heavy_items(exact=False):
        for kind in SurrogateKind:
            assert surrogate_size(item, kind) == len(surrogate_dist(item, kind))


def test_one_grid_per_instance_and_model():
    """``IntegerGrid.of`` builds one grid per (instance, model) pair of
    objects, kept on the instance: a reloaded instance gets its own.  A model
    without distances takes the scaled numbers of the instance's own grid;
    facility-location distances put numbers on a grid of their own."""
    path = CORPUS / "golden_two_item.json"
    instance = load_instance(path).instance
    plain = IntegerGrid.of(instance)
    assert IntegerGrid.of(instance) is plain
    assert IntegerGrid.of(load_instance(path).instance) is not plain
    rank1 = CombModel(UniformMatroid(1), ZeroTerminal(), len(instance))
    grid = IntegerGrid.of(instance, rank1)
    assert grid is not plain and IntegerGrid.of(instance, rank1) is grid and grid.model is rank1
    assert grid.instance is plain.instance and grid.dists is plain.dists
    assert grid.surrogates(SurrogateKind.LH) is plain.surrogates(SurrogateKind.LH)
    loaded = load_instance(CORPUS / "facility_location_pair.json")
    own = IntegerGrid.of(loaded.instance, loaded.model)
    assert own.instance is not IntegerGrid.of(loaded.instance).instance
    assert own.model.terminal.distances == tuple(tuple(map(own.scale, row)) for row in loaded.model.terminal.distances)

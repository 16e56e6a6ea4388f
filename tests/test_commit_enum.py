"""The one-pass commit-enum labeling against one convolution per candidate.

``capped_min_means`` must give every candidate value bit for bit (``float.hex``
for floats; ``==`` and the same type otherwise), so the labeling cannot flip
on a tie that rounds differently.
"""

from __future__ import annotations

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pandora_hedge import distkit, policies
from pandora_hedge.distkit import DiscreteDist, capped_min_means, mean, min_of_independent
from pandora_hedge.indices import Item, SurrogateKind, surrogate_dist
from pandora_hedge.instance import Instance
from pandora_hedge.policies import commit_enum_labeling
from pandora_hedge.randgen import random_instance

from helpers import golden_pair, reference_commit_enum, two_point_item
from test_distkit import dists


def assert_identical(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, float):
        assert got.hex() == want.hex()
    else:
        assert got == want


def assert_matches_reference(instance: Instance):
    want_values, want_labels = reference_commit_enum(instance)
    got = capped_min_means(
        [surrogate_dist(item, SurrogateKind.OI) for item in instance.items],
        [idx.mu for idx in instance.indices],
    )
    assert len(got) == len(want_values)
    for g, w in zip(got, want_values):
        assert_identical(g, w)
    assert commit_enum_labeling(instance).labels == want_labels


def instance_of(*items: Item) -> Instance:
    """The items in the given order, renumbered 0..N-1."""
    return Instance([Item(n, item.cost, item.dist) for n, item in enumerate(items)])


def _float_item(rng: random.Random, item_id: int) -> Item:
    """Off-grid float values, probabilities and cost."""
    size = rng.randint(1, 6)
    values = sorted(rng.sample(range(1, 400), size))
    weights = [rng.random() + 0.05 for _ in values]
    total = sum(weights)
    dist = DiscreteDist(tuple((v / 40, w / total) for v, w in zip(values, weights)))
    return Item(item_id, rng.random() * 2, dist)


class TestRandomInstances:
    @pytest.mark.parametrize("n_items", [1, 2, 3, 7, 16, 40, 100])
    def test_randgen_float(self, n_items):
        rng = random.Random(n_items)
        for _ in range(3 if n_items < 40 else 1):
            assert_matches_reference(random_instance(rng, n_items=n_items, max_support=5))

    @pytest.mark.parametrize("n_items", [2, 12, 60])
    def test_off_grid_float(self, n_items):
        rng = random.Random(100 + n_items)
        for _ in range(3):
            assert_matches_reference(Instance([_float_item(rng, n) for n in range(n_items)]))

    @pytest.mark.parametrize("seed", range(6))
    def test_randgen_exact(self, seed):
        rng = random.Random(seed)
        for _ in range(4):
            assert_matches_reference(random_instance(rng, max_items=10, max_support=4, exact=True))


class TestTieHeavy:
    @pytest.mark.parametrize("exact", [True, False])
    def test_identical_items(self, exact):
        assert_matches_reference(instance_of(*[two_point_item(exact)] * 5))

    @pytest.mark.parametrize("exact", [True, False])
    def test_golden_pair(self, exact):
        assert_matches_reference(golden_pair(exact))

    def test_cap_equals_support_value_of_another_type(self):
        # item 0's mean is Fraction(3); item 1 is a free point mass at int 3
        a = Item(0, F(1, 4), DiscreteDist(((2, F(1, 2)), (4, F(1, 2)))))
        b = Item(1, 0, DiscreteDist.point_mass(3))
        assert a.indices.mu == 3 and type(a.indices.mu) is F
        assert_matches_reference(instance_of(a, b))
        assert_matches_reference(instance_of(b, a))

    def test_support_value_held_as_two_types(self):
        # skipping item 0 leaves item 1's int 3 where item 0 held Fraction(3)
        a = Item(0, F(0), DiscreteDist(((F(3), F(1, 2)), (F(5), F(1, 2)))))
        b = Item(1, 0, DiscreteDist.point_mass(3))
        assert_matches_reference(instance_of(a, b))
        assert type(capped_min_means([a.dist, b.dist], [a.indices.mu, b.indices.mu])[1]) is int

    def test_cap_equals_support_value_float(self):
        a = Item(0, 0.25, DiscreteDist(((2.0, 0.5), (4.0, 0.5))))
        b = Item(1, 0.5, DiscreteDist(((1.0, 0.25), (3.0, 0.75))))
        assert a.indices.mu == 3.0
        assert_matches_reference(instance_of(a, b))
        assert_matches_reference(instance_of(b, a))

    @pytest.mark.parametrize("exact", [True, False])
    def test_single_item(self, exact):
        assert_matches_reference(Instance([two_point_item(exact)]))
        never = Item(0, F(4) if exact else 4.0, two_point_item(exact).dist)
        assert_matches_reference(Instance([never]))

    def test_point_masses(self):
        # int-probability point masses, alone and next to float items
        ints = [Item(n, 0, DiscreteDist.point_mass(v)) for n, v in enumerate([3, 1, 3])]
        assert_matches_reference(Instance(ints))
        floats = [Item(n, 0.5, DiscreteDist(((float(v), 1.0),))) for n, v in enumerate([2, 2, 5])]
        assert_matches_reference(Instance(floats))
        assert_matches_reference(instance_of(ints[0], two_point_item(False)))
        assert_matches_reference(instance_of(two_point_item(False), ints[0]))

    @pytest.mark.parametrize("exact", [True, False])
    def test_zero_cost_items(self, exact):
        zero = F(0) if exact else 0.0
        free = Item(0, zero, two_point_item(exact).dist)
        assert_matches_reference(instance_of(free, free, free, two_point_item(exact)))

    @pytest.mark.parametrize("exact", [True, False])
    def test_skipping_an_item_above_every_other_maximum_ties(self, exact):
        # two free three-point items make inspecting both strictly better
        # than skipping either; the item above them ties when skipped
        num = F if exact else float
        third = num(F(1, 3))
        low = Item(0, num(0), DiscreteDist(((num(0), third), (num(1), third), (num(2), third))))
        high = Item(0, num(F(1, 4)), DiscreteDist(((num(5), num(F(1, 2))), (num(6), num(F(1, 2))))))
        inst = instance_of(low, low, high)
        values, labels = reference_commit_enum(inst)
        assert values[0] < min(values[1:3]) and values[3] == values[0]
        assert labels == (True, True, True)
        assert_matches_reference(inst)

    def test_int_values_float_probabilities(self):
        items = [
            Item(0, 0.5, DiscreteDist(((0, 0.25), (4, 0.75)))),
            Item(1, 1.0, DiscreteDist(((1, 0.5), (3, 0.5)))),
            Item(2, 0.0, DiscreteDist(((2, 0.125), (4, 0.875)))),
        ]
        assert_matches_reference(Instance(items))
        assert_matches_reference(instance_of(items[1]))


def reference_capped_min_means(ds, caps):
    def value(skip):
        return mean(min_of_independent([DiscreteDist.point_mass(caps[n]) if n == skip else d for n, d in enumerate(ds)]))

    return [value(None)] + [value(n) for n in range(len(ds))]


def float_dists(max_atoms=4):
    """Float dists on the half-integer grid [0, 10], random float weights."""

    def build(args):
        picks, weights = args
        values = sorted({k / 2 for k in picks})
        total = sum(weights[: len(values)])
        return DiscreteDist(tuple((v, w / total) for v, w in zip(values, weights)))

    return st.tuples(
        st.lists(st.integers(0, 20), min_size=1, max_size=max_atoms),
        st.lists(st.floats(0.01, 1.0), min_size=max_atoms, max_size=max_atoms),
    ).map(build)


@st.composite
def dists_and_caps(draw):
    exact = draw(st.booleans())
    ds = draw(st.lists(dists() if exact else float_dists(), min_size=1, max_size=6))
    if exact:
        cap = st.integers(0, 20).map(lambda k: F(k, 2))
    else:  # int caps beside float probabilities keep the products off float64
        cap = st.one_of(st.integers(0, 10), st.integers(0, 20).map(lambda k: k / 2))
    return ds, draw(st.lists(cap, min_size=len(ds), max_size=len(ds)))


@settings(max_examples=150, deadline=None)
@given(dists_and_caps())
def test_capped_min_means_matches_convolutions(case):
    ds, caps = case
    got = capped_min_means(ds, caps)
    want = reference_capped_min_means(ds, caps)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert_identical(g, w)


def test_exact_cap_beside_float_probabilities():
    ds = [DiscreteDist(((1.0, 0.25), (3.0, 0.75)))]
    for caps in ([2], [F(5, 2)], [2.0]):
        for got, want in zip(capped_min_means(ds, caps), reference_capped_min_means(ds, caps)):
            assert_identical(got, want)


def test_capped_min_means_rejects_bad_input():
    with pytest.raises(ValueError):
        capped_min_means([], [])
    with pytest.raises(ValueError):
        capped_min_means([DiscreteDist.point_mass(1)], [])


def test_labeling_runs_no_convolution(monkeypatch):
    def forbidden(dists):
        raise AssertionError("commit_enum_labeling called min_of_independent")

    for module in (distkit, policies):
        if hasattr(module, "min_of_independent"):
            monkeypatch.setattr(module, "min_of_independent", forbidden)
    rng = random.Random(1)
    for exact in (False, True):
        commit_enum_labeling(random_instance(rng, n_items=8, exact=exact))

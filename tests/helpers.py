"""Independent brute-force oracles and shared fixtures for the test suite.

Everything here recomputes quantities from first principles (product
enumeration, direct definition sums) so the library paths under test are
checked against a second route, not against themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction as F

from pandora_hedge import DiscreteDist, HedgeCoins, Instance, Item, Realization
from pandora_hedge.indices import compute_indices
from pandora_hedge.policies import coin_columns, local_hedging_policy, price_columns


def brute_min_atoms(dists):
    """Distribution of min of independent draws by full product enumeration."""
    atoms: dict = {}
    for combo in itertools.product(*(d.atoms for d in dists)):
        p = 1
        for _, q in combo:
            p = p * q
        v = min(v for v, _ in combo)
        atoms[v] = atoms.get(v, 0) + p
    return {v: p for v, p in atoms.items() if p != 0}


def direct_capped_sum(dist: DiscreteDist, r):
    return sum(p * min(v, r) for v, p in dist.atoms)


def enumerate_lh_cost(instance: Instance):
    """Expected hedged-policy cost by enumerating coins and full price
    products, charging realized prices through the actual trace path."""
    n = len(instance)
    total = 0
    for labels in itertools.product((True, False), repeat=n):
        weight = 1
        for m, lab in enumerate(labels):
            p = instance.indices[m].p_hedge
            weight = weight * (p if lab else 1 - p)
        if weight == 0:
            continue
        coins = HedgeCoins(labels)
        for combo in itertools.product(*(item.dist.atoms for item in instance.items)):
            prob = weight
            for _, q in combo:
                prob = prob * q
            trace = local_hedging_policy(instance, Realization(tuple(v for v, _ in combo)), coins)
            total = total + prob * trace.total_cost
    return total


def seeded_trials(instance: Instance, seed: int, start: int, count: int):
    """Realizations and hedge coins of trials start..start+count-1: the
    columns of ``price_columns`` and ``coin_columns``, one row per trial."""
    prices = price_columns(instance, seed, start, count, object).T.tolist()
    coins = coin_columns(instance, seed, start, count).T.tolist()
    return [Realization(tuple(r)) for r in prices], [HedgeCoins(tuple(c)) for c in coins]


def two_point_item(exact=True, item_id=0) -> Item:
    if exact:
        return Item(item_id, F(2), DiscreteDist(((F(0), F(1, 2)), (F(10), F(1, 2)))))
    return Item(item_id, 2.0, DiscreteDist(((0.0, 0.5), (10.0, 0.5))))


def golden_pair(exact=True) -> Instance:
    """Point mass 5 at cost 0 next to the two-point item at cost 2."""
    if exact:
        a = Item(0, F(0), DiscreteDist.point_mass(F(5)))
    else:
        a = Item(0, 0.0, DiscreteDist.point_mass(5.0))
    return Instance([a, two_point_item(exact, item_id=1)])


def _two_point(lo, hi):
    return DiscreteDist(((lo, F(1, 2)), (hi, F(1, 2))))


def big_grid() -> Instance:
    """Denominators are distinct primes near 10^5, so L exceeds 10^20 and
    L times the largest value is far above 2^53."""
    primes = (100003, 100019, 100043, 100049)
    return Instance([Item(n, F(1, p), _two_point(F(p + n, p), F(3 * p + 1, p))) for n, p in enumerate(primes)])


def wide_grid() -> Instance:
    """Every scaled number is below 2^32 but L = 8 * 100000007 * 100000037
    has 57 bits, so a float64 L is inexact: four two-point items {0, v},
    v = (1 + n) / d with d alternating between the two primes, at cost v / 8."""
    items = []
    for n in range(4):
        v = F(1 + n, (100000007, 100000037)[n % 2])
        items.append(Item(n, v / 8, _two_point(F(0), v)))
    return Instance(items)


def all_int() -> Instance:
    """Int costs, values and indices (given, as ints): an exact instance
    whose price arrays are float64."""
    pairs = [(1, (0, 4)), (0, (1, 3)), (1, (0, 8)), (2, (5, 7))]
    items = [Item(n, c, _two_point(lo, hi)) for n, (c, (lo, hi)) in enumerate(pairs)]
    indices = []
    for item in items:
        ix = compute_indices(item)
        indices.append(replace(ix, mu=int(ix.mu), u_rsv=int(ix.u_rsv), u_bkp=int(ix.u_bkp)))
        assert (ix.mu, ix.u_rsv, ix.u_bkp) == (indices[-1].mu, indices[-1].u_rsv, indices[-1].u_bkp)
    return Instance(items, indices)

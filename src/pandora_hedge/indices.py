"""Per-item indices and surrogate price constructions.

Each item carries an inspection cost and a price distribution.  From those we
derive the mean, the reservation and backup prices, the hedging probability
and the local approximation ratio, plus the three surrogate price pushforwards
(obligatory-inspection, nonobligatory-inspection, and the hedged mixture).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .distkit import DiscreteDist, Numeric, backup_price, mean, reservation_price, running_sum

#: Hard ceiling on the local approximation ratio (exact, so exact-mode checks
#: stay exact) and the float headroom over it.
ALPHA_CEILING = Fraction(4, 3)
ALPHA_TOL = 1e-12


class SurrogateKind(Enum):
    """Which surrogate price transform to apply.

    OI inflates the price up to the reservation price (inspection is
    internalized); NOI additionally caps it at the backup price; LH mixes the
    OI surrogate (with the item's hedging probability) and the mean.
    """

    OI = "oi"
    NOI = "noi"
    LH = "lh"


@dataclass(frozen=True)
class Item:
    id: int
    cost: Numeric
    dist: DiscreteDist

    def __post_init__(self):
        if self.cost < 0:
            raise ValueError(f"item {self.id}: inspection cost must be nonnegative")

    # cached in the item's own __dict__, so per object and never by value
    @cached_property
    def indices(self) -> ItemIndices:
        return compute_indices(self)

    def surrogate(self, kind: SurrogateKind) -> DiscreteDist:
        """``surrogate_dist(self, kind)``, built once per item object and kind.

        Per object like ``indices``; for callers that ask repeatedly, since
        the cache lives as long as the item."""
        cache = self._surrogates
        if kind not in cache:
            cache[kind] = surrogate_dist(self, kind)
        return cache[kind]

    @cached_property
    def _surrogates(self) -> dict:
        return {}


@dataclass(frozen=True)
class ItemIndices:
    mu: Numeric
    u_rsv: Numeric
    u_bkp: Numeric
    p_hedge: Numeric
    alpha_local: Numeric
    never_inspect: bool


def compute_indices(item: Item) -> ItemIndices:
    """Derive all per-item indices.

    Not cached by value: a float item and an exact-rational item can compare
    equal, so value-keyed caching would leak float results into exact paths.
    Each item caches its own indices instead (``Item.indices``).

    When the reservation price is at least the backup price (equivalently,
    at least the mean), inspection is never worthwhile: hedging probability 0
    and ratio 1.  This also covers, without dividing by zero, the mean-zero
    degenerate item and an item mixing exact and float numbers whose mean
    minus reservation price rounds to zero.  Otherwise the hedging
    probability equalizes the two loss branches of the ratio and the ratio
    lands in [1, 4/3].
    """
    mu = mean(item.dist)
    u_rsv = reservation_price(item.dist, item.cost)
    u_bkp = backup_price(item.dist, item.cost)
    never = u_rsv >= u_bkp
    gap = mu - u_rsv
    if never or gap <= 0:
        return ItemIndices(mu, u_rsv, u_bkp, 0, 1, never)
    denom = gap + item.cost * u_rsv / mu
    p = max(gap / denom, 0)
    alpha = max((gap + item.cost) / denom, 1)
    if alpha > ALPHA_CEILING + ALPHA_TOL:
        raise AssertionError(f"local ratio {alpha} exceeds 4/3")
    return ItemIndices(mu, u_rsv, u_bkp, p, alpha, False)


def hedging_losses(idx: ItemIndices, cost: Numeric, p: Numeric) -> tuple[Numeric, Numeric]:
    """The ratio's loss branches at hedging probability p, for indices ``idx``
    and cost c: A(p) = (1 - p)(mu - u_rsv)/u_rsv from committing without
    inspection, B(p) = p*c/mu from inspecting.  Only defined when inspection
    is potentially worthwhile (reservation price strictly below backup price).
    """
    if not 0 <= p <= 1:
        raise ValueError("hedging probability must lie in [0, 1]")
    if idx.u_rsv >= idx.u_bkp:
        raise ValueError("ratio curve undefined: reservation price >= backup price")
    if idx.u_rsv == 0 and p < 1:
        raise ValueError("ratio diverges: zero reservation price with p < 1")
    lose_inspection = 0 if p == 1 else (1 - p) * (idx.mu - idx.u_rsv) / idx.u_rsv
    return lose_inspection, p * cost / idx.mu


def alpha_of_p(item: Item, p: Numeric) -> Numeric:
    """Local approximation ratio 1 + max(A(p), B(p)) achieved by an arbitrary
    hedging probability (``hedging_losses``)."""
    return 1 + max(hedging_losses(item.indices, item.cost, p))


def surrogate_value(
    item: Item,
    kind: SurrogateKind,
    v: Numeric,
    coin: Optional[bool] = None,
) -> Numeric:
    """Realized surrogate price for one draw.

    ``coin`` is the hedge label (True = obligatory-inspection) and is required
    exactly for the LH kind.
    """
    idx = item.indices
    if kind is SurrogateKind.OI:
        return max(v, idx.u_rsv)
    if kind is SurrogateKind.NOI:
        if idx.u_rsv >= idx.u_bkp:
            return idx.mu
        return min(max(v, idx.u_rsv), idx.u_bkp)
    if coin is None:
        raise ValueError("LH surrogate needs the hedge coin")
    return max(v, idx.u_rsv) if coin else idx.mu


def surrogate_dist(item: Item, kind: SurrogateKind) -> DiscreteDist:
    """Exact pushforward distribution of the surrogate price (``Item.surrogate``
    caches it)."""
    idx = item.indices
    if kind is SurrogateKind.NOI and idx.u_rsv >= idx.u_bkp:
        return DiscreteDist.point_mass(idx.mu)  # probability 1, not the atoms' probabilities added up
    if kind is not SurrogateKind.LH:
        return DiscreteDist.from_pairs((surrogate_value(item, kind, v), p) for v, p in item.dist.atoms)
    p_hedge = idx.p_hedge
    if p_hedge == 0:
        return DiscreteDist.point_mass(idx.mu)
    oi = surrogate_dist(item, SurrogateKind.OI)
    if p_hedge == 1:
        return oi
    pairs = [(v, p * p_hedge) for v, p in oi.atoms]
    pairs.append((idx.mu, 1 - p_hedge))
    return DiscreteDist.from_pairs(pairs)


def surrogate_size(item: Item, kind: SurrogateKind) -> int:
    """``len(surrogate_dist(item, kind))``, counted on the item's own numbers
    without building it: its distinct surrogate values."""
    idx = item.indices
    if (kind is SurrogateKind.LH and idx.p_hedge == 0) or (kind is SurrogateKind.NOI and idx.u_rsv >= idx.u_bkp):
        return 1
    values = {surrogate_value(item, kind, v, True) for v in item.dist.values}
    return len(values) + (kind is SurrogateKind.LH and idx.p_hedge != 1 and idx.mu not in values)


def capped_expectation(item: Item, kind: SurrogateKind, r: Numeric) -> Numeric:
    """E[min{W, r}] for the item's surrogate price W.  ``verify`` sweeps it
    on the grid's ints; this form remains as the tests' reference."""
    d = item.surrogate(kind)
    return running_sum(p * min(v, r) for v, p in d.atoms)


def make_worst_case_item(
    u_rsv: Numeric, mu: Numeric, c: Numeric, item_id: int = 0
) -> Item:
    """Two-point item realizing a requested (reservation price, mean, cost).

    The price is 0 with probability c/u_rsv and u_rsv*mu/(u_rsv - c) with the
    remaining probability; as c approaches u_rsv the local ratio approaches
    its 4/3 ceiling.
    """
    if u_rsv <= 0:
        raise ValueError("reservation price must be positive")
    if mu < u_rsv:
        raise ValueError("mean must be at least the reservation price")
    if not 0 < c < u_rsv:
        raise ValueError("cost must lie strictly between 0 and the reservation price")
    p_low = c / u_rsv
    high = u_rsv * mu / (u_rsv - c)
    dist = DiscreteDist(((0, p_low), (high, 1 - p_low)))
    return Item(id=item_id, cost=c, dist=dist)

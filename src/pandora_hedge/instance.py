"""Instance containers and policy execution records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .distkit import Numeric
from .indices import Item, ItemIndices


class Instance:
    """A list of items with eagerly cached per-item indices.

    Item ids must be exactly 0..N-1 in order.  All fields are immutable after
    construction, so instances are safe to share across threads.
    """

    def __init__(self, items: Sequence[Item], indices: Optional[Sequence[ItemIndices]] = None):
        items = tuple(items)
        if not items:
            raise ValueError("instance needs at least one item")
        for pos, item in enumerate(items):
            if item.id != pos:
                raise ValueError(f"item ids must be 0..N-1 in order; got {item.id} at {pos}")
        self.items = items
        if indices is None:
            indices = tuple(item.indices for item in items)
        else:
            indices = tuple(indices)
            if len(indices) != len(items):
                raise ValueError("one indices record per item required")
        self.indices = indices
        self.reservation_prices = tuple(ix.u_rsv for ix in indices)

    def __len__(self) -> int:
        return len(self.items)

    @property
    def max_alpha(self) -> Numeric:
        return max(ix.alpha_local for ix in self.indices)


@dataclass(frozen=True)
class Realization:
    """One complete draw of hidden prices, keyed by item id."""

    prices: tuple[Numeric, ...]


@dataclass(frozen=True)
class HedgeCoins:
    """Hedge labels per item id; True marks an obligatory-inspection item."""

    labels: tuple[bool, ...]

    @classmethod
    def all_obligatory(cls, instance: Instance) -> "HedgeCoins":
        return cls((True,) * len(instance))


@dataclass(frozen=True)
class PolicyTrace:
    """Record of one policy execution.

    total_cost follows the package's one charging order: each charge is added
    (left to right, ``running_sum``) when its event happens.  An inspection
    adds its item's cost (none for an unlabelled item's view inspection), a
    selection its item's realized price (even without inspection), and a
    combinatorial model's terminal cost comes last.
    """

    inspection_order: tuple[int, ...]
    selected: frozenset[int]
    selected_without_inspection: frozenset[int]
    total_cost: Numeric
    labels: Optional[tuple[bool, ...]] = None

    def __post_init__(self):
        if not self.selected_without_inspection <= self.selected:
            raise ValueError("selected_without_inspection must be a subset of selected")


def hedged_view(
    instance: Instance, labels: Sequence[bool], prices: Sequence[Numeric]
) -> tuple[list[Numeric], list[Numeric], list[Numeric]]:
    """Sort keys, inspection costs and prices an engine sees under hedge labels.

    A labelled (obligatory-inspection) item keeps its reservation price, its
    cost and its realized price.  Any other item acts as a free point mass at
    its mean: key and price are the mean (the reservation price of a point
    mass at zero cost) and its cost is 0.
    """
    keys, costs, seen = [], [], []
    for n, item in enumerate(instance.items):
        if labels[n]:
            keys.append(instance.indices[n].u_rsv)
            costs.append(item.cost)
            seen.append(prices[n])
        else:
            mu = instance.indices[n].mu
            keys.append(mu)
            costs.append(0)
            seen.append(mu)
    return keys, costs, seen

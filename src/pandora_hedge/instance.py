"""Instance containers and policy execution records."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .distkit import Numeric
from .indices import Item, ItemIndices


class Instance:
    """A list of items with eagerly cached per-item indices.

    Item ids must be exactly 0..N-1 in order.  All fields but ``grids`` are
    immutable after construction.  ``grids`` is the memo of
    ``policies.IntegerGrid.of``: each grid of the instance, built once per
    model object and freed with the instance.  Two threads may each build a
    grid that the other already built; the results are equal, so instances
    are safe to share across threads.
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
        self.grids: dict = {}

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


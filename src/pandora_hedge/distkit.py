"""Finite discrete distribution arithmetic.

Every quantity in this package reduces to sums over the atoms of a finite
nonnegative price distribution, so expectations here are exact: in float mode
exact up to roundoff, and when atoms are ``fractions.Fraction`` (or int) the
arithmetic is exact-rational end to end.  The two index solvers walk the
breakpoints of the relevant piecewise-linear function instead of iterating,
so they carry no solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence, Union

Numeric = Union[int, float, Fraction]

#: Tolerance on the probability normalization check in float mode.  Exact
#: (int/Fraction) distributions must sum to 1 exactly.
PROB_TOL = 1e-12


def _is_exact(x: Numeric) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _div(a: Numeric, b: Numeric) -> Numeric:
    # int/int would degrade to float; keep all-exact operands exact
    if isinstance(a, int) and isinstance(b, int):
        return Fraction(a, b)
    return a / b


@dataclass(frozen=True)
class DiscreteDist:
    """Finite-support distribution over nonnegative prices.

    ``atoms`` is a tuple of ``(value, prob)`` pairs with strictly increasing
    nonnegative values and positive probabilities summing to one.
    """

    atoms: tuple[tuple[Numeric, Numeric], ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("distribution needs at least one atom")
        prev = None
        total = 0
        exact = True
        for value, prob in self.atoms:
            if value < 0:
                raise ValueError(f"negative support value {value}")
            if prev is not None and value <= prev:
                raise ValueError("support values must be strictly increasing")
            if prob <= 0:
                raise ValueError(f"probability {prob} is not positive")
            exact = exact and _is_exact(value) and _is_exact(prob)
            total = total + prob
            prev = value
        if exact:
            if total != 1:
                raise ValueError(f"probabilities sum to {total}, expected exactly 1")
        elif abs(total - 1) > PROB_TOL:
            raise ValueError(f"probabilities sum to {float(total)!r}, expected 1 within {PROB_TOL}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Numeric, Numeric]]) -> "DiscreteDist":
        """Build a distribution from unsorted pairs, merging equal values."""
        merged: dict[Numeric, Numeric] = {}
        for value, prob in pairs:
            if prob == 0:
                continue
            merged[value] = merged.get(value, 0) + prob
        return cls(tuple(sorted(merged.items())))

    @classmethod
    def point_mass(cls, value: Numeric) -> "DiscreteDist":
        return cls(((value, 1),))

    # cached in the instance __dict__, which a frozen dataclass still has
    @cached_property
    def values(self) -> tuple[Numeric, ...]:
        return tuple(v for v, _ in self.atoms)

    @cached_property
    def probs(self) -> tuple[Numeric, ...]:
        return tuple(p for _, p in self.atoms)

    @property
    def min_support(self) -> Numeric:
        return self.atoms[0][0]

    @property
    def max_support(self) -> Numeric:
        return self.atoms[-1][0]

    def __len__(self) -> int:
        return len(self.atoms)


def mean(d: DiscreteDist) -> Numeric:
    return sum(v * p for v, p in d.atoms)


def expected_shortfall(d: DiscreteDist, u: Numeric) -> Numeric:
    """E[(u - V)+]: the price shortfall below an outside option u."""
    total = 0
    for v, p in d.atoms:
        if v >= u:
            break
        total = total + p * (u - v)
    return total


def expected_excess(d: DiscreteDist, u: Numeric) -> Numeric:
    """E[(V - u)+]: the price excess above an outside option u."""
    total = 0
    for v, p in reversed(d.atoms):
        if v <= u:
            break
        total = total + p * (v - u)
    return total


def reservation_price(d: DiscreteDist, c: Numeric) -> Numeric:
    """Largest u whose expected shortfall does not exceed the inspection cost.

    The shortfall is piecewise linear with breakpoints at the support values,
    zero at the minimum support and of slope one beyond the maximum, so the
    walk below is exact.  Flat segments (c = 0) resolve to their supremum,
    which is the minimum support value.
    """
    if c < 0:
        raise ValueError("inspection cost must be nonnegative")
    values = d.values
    probs = d.probs
    shortfall = 0  # shortfall at values[k]
    cum = 0  # probability mass at or below values[k]
    for k, v in enumerate(values):
        if k > 0:
            shortfall = shortfall + cum * (v - values[k - 1])
        cum = cum + probs[k]
        if k + 1 < len(values):
            at_next = shortfall + cum * (values[k + 1] - v)
            if at_next < c:
                continue
        return v + _div(c - shortfall, cum)
    raise AssertionError("unreachable: shortfall grows without bound")


def backup_price(d: DiscreteDist, c: Numeric) -> Numeric:
    """Smallest u whose expected excess does not exceed the inspection cost.

    May be negative (the excess equals mean - u below the support); negative
    values are legal and only ever compared against the reservation price.
    """
    if c < 0:
        raise ValueError("inspection cost must be nonnegative")
    if c == 0:
        return d.max_support
    values = d.values
    probs = d.probs
    n = len(values)
    excess_up = 0  # excess at the upper end of the current segment
    above = probs[n - 1]  # probability mass strictly above the lower end
    for k in range(n - 2, -1, -1):
        at_lower = excess_up + above * (values[k + 1] - values[k])
        if at_lower >= c:
            return values[k + 1] - _div(c - excess_up, above)
        excess_up = at_lower
        above = above + probs[k]
    # below the support the excess is mean - u with slope -1
    return values[0] - _div(c - excess_up, above)


def min_with_constant_expectation(d: DiscreteDist, r: Numeric) -> Numeric:
    """E[min{V, r}] for a deterministic cap r (r may be negative)."""
    return mean(d) - expected_excess(d, r)


def min_of_independent(dists: Sequence[DiscreteDist]) -> DiscreteDist:
    """Exact distribution of the minimum of independent draws.

    Computed as the survival-function product over the merged support grid.
    """
    if not dists:
        raise ValueError("need at least one distribution")
    grid = sorted({v for d in dists for v in d.values})
    # tail[i][j] = P(V_i >= grid[j])
    tails = []
    for d in dists:
        tail = []
        acc = 0
        atoms = list(d.atoms)
        j = len(atoms) - 1
        for g in reversed(grid):
            while j >= 0 and atoms[j][0] >= g:
                acc = acc + atoms[j][1]
                j -= 1
            tail.append(acc)
        tail.reverse()
        tails.append(tail)
    pairs = []
    prev = None
    for j in range(len(grid)):
        ge = 1
        for tail in tails:
            ge = ge * tail[j]
        if prev is not None:
            pairs.append((grid[j - 1], prev - ge))
        prev = ge
    pairs.append((grid[-1], prev))
    return DiscreteDist.from_pairs(pairs)

"""Seeded instance generator owned by the benchmark.

It does not use ``pandora_hedge.randgen``: that generator puts most items at
never-inspect, and it may change.  Here each item's inspection cost is drawn
relative to S = E[(mu - V)+], the expected shortfall of the price below its
mean.  A cost strictly inside (0, S) puts the reservation price below the
mean and the backup price above it, so the hedging probability lies strictly
between 0 and 1.  A cost of 0 gives p = 1, and a cost of at least S gives
p = 0; each instance gets a fixed count of those two kinds, so branch counts
of the exact evaluators depend only on the size plan, never on the seed.

Exact-mode files hold string rationals; float-mode files hold JSON numbers.
The generator imports nothing from the package.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

HEDGED, NEVER, ALWAYS = "hedged", "never", "always"
COST_GRID = 16  # costs land on multiples of 1/16 where one fits the band
PROB_TOTAL = 24
BASE_QUARTERS, WINDOW_QUARTERS = 30, 10


def _support(rng: random.Random, size: int):
    """Distinct values on the 1/4 grid inside a window of width 2.5 whose base
    lies in [0, 7.5]; probabilities split a fixed total of 24 at random cuts.

    The narrow window bounds each price's excess over its mean, so policy
    costs are not heavy-tailed and a few hundred MC trials give a trustworthy
    stderr.  Every denominator divides 24, so exact arithmetic costs about
    the same for every seed."""
    base = rng.randint(0, BASE_QUARTERS)
    values = sorted(Fraction(base + k, 4) for k in rng.sample(range(WINDOW_QUARTERS + 1), size))
    cuts = [0] + sorted(rng.sample(range(1, PROB_TOTAL), size - 1)) + [PROB_TOTAL]
    return values, [Fraction(b - a, PROB_TOTAL) for a, b in zip(cuts, cuts[1:])]


def _shortfall_at_mean(values, probs) -> Fraction:
    mu = sum(v * p for v, p in zip(values, probs))
    return sum(p * (mu - v) for v, p in zip(values, probs) if v < mu)


def _cost(rng: random.Random, kind: str, s: Fraction) -> Fraction:
    if kind == ALWAYS:
        return Fraction(0)
    if kind == NEVER:
        return Fraction(math.ceil(s * Fraction(rng.randint(110, 150), 100) * COST_GRID), COST_GRID)
    lo, hi = s * Fraction(1, 5), s * Fraction(4, 5)
    c = Fraction(math.floor(s * Fraction(rng.randint(20, 80), 100) * COST_GRID), COST_GRID)
    return c if lo <= c <= hi and 0 < c < s else s * Fraction(rng.randint(20, 80), 100)


def _kinds(rng: random.Random, n: int, n_never: int, n_always: int) -> list[str]:
    kinds = [NEVER] * n_never + [ALWAYS] * n_always
    kinds += [HEDGED] * (n - len(kinds))
    rng.shuffle(kinds)
    return kinds


def _cycled_sizes(rng: random.Random, n: int, cycle) -> list[int]:
    """Support sizes cycling through ``cycle``, shuffled: the multiset, and so
    the work per trial, is the same for every seed."""
    sizes = [cycle[k % len(cycle)] for k in range(n)]
    rng.shuffle(sizes)
    return sizes


def _num(x: Fraction, exact: bool):
    return str(x) if exact else float(x)


def _make_items(rng, sizes, kinds, exact):
    """Item documents, one per support size, with the given cost kinds."""
    items = []
    for size, kind in zip(sizes, kinds):
        values, probs = _support(rng, size)
        cost = _cost(rng, kind, _shortfall_at_mean(values, probs))
        items.append(
            {
                "cost": _num(cost, exact),
                "dist": [{"value": _num(v, exact), "prob": _num(p, exact)} for v, p in zip(values, probs)],
            }
        )
    return items


def _graphic_edges(rng: random.Random, n_vertices: int, n_edges: int) -> list[list[int]]:
    """A random spanning tree plus extra (possibly parallel) edges, shuffled."""
    edges = [[rng.randrange(v), v] for v in range(1, n_vertices)]
    while len(edges) < n_edges:
        a, b = rng.sample(range(n_vertices), 2)
        edges.append([min(a, b), max(a, b)])
    rng.shuffle(edges)
    return edges


# Size plans.  Each entry is one instance file; the plan is the same for every
# seed, only the drawn values, probabilities and costs change.

def _mc_single_plan():
    # N from 16 to 256 on a geometric ladder; float mode; supports 2-8
    return [round(16 * 2 ** (4 * i / 11)) for i in range(12)]


def _mc_comb_plan():
    # (n_items, family); exact mode; supports 2-3; zero terminal
    return [
        (6, ("uniform", 2)),
        (8, ("graphic", 4)),
        (9, ("uniform", 3)),
        (10, ("graphic", 5)),
        (12, ("uniform", 4)),
        (12, ("graphic", 6)),
        (14, ("uniform", 3)),
        (16, ("graphic", 6)),
    ]


def _certify_plan():
    # single-item: (n_items, support sizes, n_never, n_always); exact mode.
    # Only the 5184-branch file has a support product above 4096, so verify
    # skips its selection-argmin check for budget: 1 file in 10.  Sizes sit
    # at the top of desk scale so that the median op takes about 0.1 s.
    single = [
        (6, [4, 3, 3, 4, 3, 3], 1, 0),
        (6, [4, 4, 4, 3, 3, 3], 1, 1),
        (6, [4, 4, 3, 3, 4, 3], 0, 1),
        (6, [4, 4, 4, 4, 3, 3], 1, 0),
        (7, [4, 4, 3, 3, 3, 3, 3], 2, 1),
        (7, [4, 4, 4, 3, 3, 3, 3], 2, 1),
    ]
    # matroid: (n_items, family, n_never, n_always); supports alternate 3, 2
    comb = [
        (6, ("uniform", 1), 1, 0),
        (6, ("graphic", 4), 0, 1),
        (6, ("uniform", 3), 1, 1),
        (6, ("graphic", 5), 1, 0),
    ]
    return single, comb


def _family_doc(rng, family, n_items):
    kind, size = family
    if kind == "uniform":
        return {"kind": "uniform_matroid", "k": size}
    return {"kind": "graphic", "edges": _graphic_edges(rng, size, n_items)}


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


def generate(workload: str, seed: int, out_dir: Path, scale: float = 1.0) -> list[dict]:
    """Write the workload's instance files and return one plan record per file.

    A record holds the file name and the intended cost kind of every item.
    ``scale`` below 1 keeps a prefix of the plan (for the self-test).
    """
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    specs = []  # (support sizes, cost kinds, exact, family)
    if workload == "mc-single":
        for n in _mc_single_plan():
            sizes = _cycled_sizes(rng, n, (2, 3, 4, 5, 6, 7, 8))
            # no cost-0 items: with hundreds of items, a few free inspections
            # would end almost every trial at zero cost
            specs.append((sizes, _kinds(rng, n, n // 10, 0), False, None))
    elif workload == "mc-comb":
        for n, family in _mc_comb_plan():
            sizes = _cycled_sizes(rng, n, (2, 3))
            specs.append((sizes, _kinds(rng, n, n // 8, n // 8), True, family))
    elif workload == "certify":
        single, comb = _certify_plan()
        for n, sizes, n_never, n_always in single:
            specs.append((list(sizes), _kinds(rng, n, n_never, n_always), True, None))
        for n, family, n_never, n_always in comb:
            sizes = [3 if i % 2 == 0 else 2 for i in range(n)]
            specs.append((sizes, _kinds(rng, n, n_never, n_always), True, family))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if scale < 1:
        specs = specs[: max(2, round(len(specs) * scale))]
    records = []
    for i, (sizes, kinds, exact, family) in enumerate(specs):
        doc = {"version": "1", "items": _make_items(rng, sizes, kinds, exact)}
        if family is not None:
            doc["model"] = {"family": _family_doc(rng, family, len(sizes)), "terminal": {"kind": "zero"}}
        name = f"{workload}-{i:02d}.json"
        _write(out_dir / name, doc)
        records.append({"file": name, "kinds": kinds})
    return records

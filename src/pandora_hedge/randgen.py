"""Reproducible random instances for verification runs.

Generator parameters (documented in the CLI help): support sizes are drawn
from 2..max_support with distinct values on the 0.5 grid in [0, 10];
probabilities are integer weights 1..9 normalized; inspection costs come from
the 0.25 grid on [0, max_value - mean + 1], which exercises both the hedged
and the never-inspect regimes.  The grids deliberately produce knife-edge
ties.  Everything is driven by a caller-supplied random.Random.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .combinatorial import CombModel, GraphicMatroid, UniformMatroid, ZeroTerminal
from .distkit import DiscreteDist, mean, running_sum
from .indices import Item
from .instance import Instance

VALUE_GRID = [Fraction(n, 2) for n in range(21)]  # 0, 0.5, ..., 10


def random_item(rng: random.Random, item_id: int, max_support: int = 4, exact: bool = False) -> Item:
    size = rng.randint(2, max_support)
    values = sorted(rng.sample(VALUE_GRID, size))
    weights = [rng.randint(1, 9) for _ in range(size)]
    total = running_sum(weights)
    if exact:
        atoms = tuple((v, Fraction(w, total)) for v, w in zip(values, weights))
    else:
        atoms = tuple((float(v), w / total) for v, w in zip(values, weights))
    dist = DiscreteDist(atoms)
    spread = dist.max_support - mean(dist)
    steps = int(spread * 4) + 4
    cost = Fraction(rng.randint(0, steps), 4)
    return Item(id=item_id, cost=cost if exact else float(cost), dist=dist)


def random_instance(
    rng: random.Random,
    n_items: int | None = None,
    max_items: int = 6,
    max_support: int = 4,
    exact: bool = False,
) -> Instance:
    if n_items is None:
        n_items = rng.randint(2, max_items)
    return Instance([random_item(rng, n, max_support, exact) for n in range(n_items)])


def random_comb_model(rng: random.Random, n_items: int, max_rank: int = 3) -> CombModel:
    if rng.random() < 0.5 or n_items < 2:
        k = rng.randint(1, min(max_rank, n_items))
        return CombModel(UniformMatroid(k), ZeroTerminal(), n_items)
    # random connected multigraph: a spanning tree plus extra edges
    n_vertices = rng.randint(2, min(4, n_items + 1))
    edges = []
    for v in range(1, n_vertices):
        edges.append((rng.randrange(v), v))
    while len(edges) < n_items:
        a, b = rng.randrange(n_vertices), rng.randrange(n_vertices)
        if a == b:
            b = (b + 1) % n_vertices
        edges.append((min(a, b), max(a, b)))
    rng.shuffle(edges)
    return CombModel(GraphicMatroid(tuple(edges)), ZeroTerminal(), n_items)


def random_comb_instance(
    rng: random.Random,
    max_items: int = 6,
    max_rank: int = 3,
    max_support: int = 3,
    exact: bool = False,
) -> tuple[CombModel, Instance]:
    n_items = rng.randint(2, max_items)
    instance = random_instance(rng, n_items=n_items, max_support=max_support, exact=exact)
    return random_comb_model(rng, n_items, max_rank), instance

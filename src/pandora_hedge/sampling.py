"""Counter-based deterministic sampling for Monte Carlo evaluation.

Every uniform draw is a pure function of (seed, item id, stream, trial index):
the Philox counter-based generator is keyed by (seed, item*NSTREAMS + stream)
and the trial indexes a 256-bit counter block.  Workers may therefore compute
any subset of trials in any order and still reproduce bit-identical results.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
from numpy.random import Philox

PRICE_STREAM = 0
COIN_STREAM = 1
SURROGATE_STREAM = 2
_NSTREAMS = 4

_U64 = (1 << 64) - 1
_INV53 = float(2.0**-53)


def _generator(seed: int, item: int, stream: int) -> Philox:
    key = np.array([seed & _U64, item * _NSTREAMS + stream], dtype=np.uint64)
    return Philox(key=key)


def _to_unit(raw: np.ndarray) -> np.ndarray:
    # top 53 bits of each uint64, mapped to [0, 1)
    return (raw >> np.uint64(11)).astype(np.float64) * _INV53


def uniforms(seed: int, item: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """Uniform draws for trials start..start+n-1 of one (item, stream) lane."""
    bg = _generator(seed, item, stream)
    if start:
        bg.advance(start)
    raw = bg.random_raw(4 * n)[::4]  # first word of each counter block
    return _to_unit(raw)

def uniform_at(seed: int, item: int, stream: int, trial: int) -> float:
    return float(uniforms(seed, item, stream, 1, start=trial)[0])


def sample_price_indices(cum_probs, us: np.ndarray) -> np.ndarray:
    """Map uniforms to support indices via the cumulative distribution."""
    cum = np.cumsum(np.asarray(cum_probs, dtype=np.float64))
    cum[-1] = 1.0  # guard against float shortfall in the last bin
    return np.searchsorted(cum, us, side="right")


def sample_rows(dists, seed: int, stream: int, start: int, count: int) -> list[tuple]:
    """One value row per trial start..start+count-1: entry n is a draw from
    ``dists[n]`` on lane (seed, n, stream)."""
    per_item = []
    for n, d in enumerate(dists):
        idx = sample_price_indices([float(p) for p in d.probs], uniforms(seed, n, stream, count, start=start))
        values = d.values
        per_item.append([values[i] for i in idx])
    return list(zip(*per_item))


def mc_summary(values: Iterable) -> tuple[float, float]:
    """Mean and standard error of per-trial Monte Carlo values (as floats)."""
    vals = np.fromiter((float(v) for v in values), dtype=np.float64)
    mean_v = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    return mean_v, stderr

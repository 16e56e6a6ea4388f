"""Counter-based deterministic sampling for Monte Carlo evaluation.

Every uniform draw is a pure function of (seed, item id, stream, trial index):
the Philox counter-based generator is keyed by (seed, item*NSTREAMS + stream)
and the trial indexes a 256-bit counter block.  Workers may therefore compute
any subset of trials in any order and still reproduce bit-identical results.
"""

from __future__ import annotations

import math
import threading
from typing import Iterable

import numpy as np
from numpy.random import Philox

PRICE_STREAM = 0
COIN_STREAM = 1
SURROGATE_STREAM = 2
_NSTREAMS = 4
MC_CHUNK = 4096  # trials drawn and run at once: bounds Monte Carlo memory

_U64 = (1 << 64) - 1
_INV53 = float(2.0**-53)


_local = threading.local()  # one generator per thread, re-keyed per call


def _generator(seed: int, item: int, stream: int, start: int) -> Philox:
    """The lane's Philox with its counter at trial ``start`` and an empty
    buffer: the state of ``Philox(key=...)`` advanced by ``start``.  Every
    draw passes through here, so no seed outside [0, 2^64) aliases another."""
    if not 0 <= seed <= _U64:
        raise ValueError(f"seed {seed} is outside [0, 2^64)")
    bg = getattr(_local, "philox", None)
    if bg is None:
        bg = _local.philox = Philox(0)
    bg.state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.array([start, 0, 0, 0], dtype=np.uint64),
            "key": np.array([seed, item * _NSTREAMS + stream], dtype=np.uint64),
        },
        "buffer": np.zeros(4, dtype=np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return bg


def _to_unit(raw: np.ndarray) -> np.ndarray:
    # top 53 bits of each uint64, mapped to [0, 1)
    return (raw >> np.uint64(11)).astype(np.float64) * _INV53


def uniforms(seed: int, item: int, stream: int, n: int, start: int = 0) -> np.ndarray:
    """Uniform draws for trials start..start+n-1 of one (item, stream) lane."""
    raw = _generator(seed, item, stream, start).random_raw(4 * n)[::4]  # first word of each counter block
    return _to_unit(raw)


def sample_price_indices(cum_probs, us: np.ndarray) -> np.ndarray:
    """Map uniforms to support indices via the cumulative distribution."""
    cum = np.cumsum(np.asarray(cum_probs, dtype=np.float64))
    cum[-1] = 1.0  # guard against float shortfall in the last bin
    return np.searchsorted(cum, us, side="right")


def trial_chunks(count: int) -> list[tuple[int, int]]:
    """(start, size) of the ``MC_CHUNK``-trial chunks covering trials
    0..count-1; every Monte Carlo path draws and runs one chunk at a time."""
    if count < 1:
        raise ValueError("need at least one trial")
    return [(start, min(MC_CHUNK, count - start)) for start in range(0, count, MC_CHUNK)]


def sample_columns(lanes, seed: int, stream: int, start: int, count: int, dtype=object) -> np.ndarray:
    """(lanes x trials) array for trials start..start+count-1: row n holds
    draws of ``lanes[n] = (values, probs)`` on lane (seed, n, stream).

    With ``dtype=object`` the entries are the values themselves."""
    out = np.empty((len(lanes), count), dtype=dtype)
    for n, (values, probs) in enumerate(lanes):
        us = uniforms(seed, n, stream, count, start=start)
        out[n] = np.asarray(values, dtype=dtype)[sample_price_indices([float(p) for p in probs], us)]
    return out


def mc_summary(values: Iterable) -> tuple[float, float]:
    """Mean and standard error of per-trial Monte Carlo values (as floats);
    ``values`` is an iterable of numbers or an array of them.  A result that
    overflows on finite values x is m x its value on x / m, m = max |x|."""
    vals = np.asarray(values, dtype=np.float64) if isinstance(values, np.ndarray) else np.fromiter(values, np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        mean_v = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(len(vals))) if len(vals) > 1 else 0.0
    if math.isfinite(mean_v + stderr) or not np.isfinite(vals).all():
        return mean_v, stderr
    m = float(np.abs(vals).max())
    return tuple(r if math.isfinite(r) else m * s for r, s in zip((mean_v, stderr), mc_summary(vals / m)))

"""Counter-based deterministic sampling for Monte Carlo evaluation.

Every uniform draw is a pure function of (seed, item id, stream, trial index):
the Philox counter-based generator is keyed by (seed, item*NSTREAMS + stream)
and the trial indexes a 256-bit counter block.  Workers may therefore compute
any subset of trials in any order and still reproduce bit-identical results.

A lane is one (item, stream) pair's draws over a chunk of trials.  Monte
Carlo evaluation hands a policy ``Columns``, which draw a lane the first
time a kernel reads it: a search that stops after a few items draws only
those items' lanes, with the same values an eager draw gives.
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


def _cumulative(probs) -> np.ndarray:
    cum = np.cumsum(np.asarray([float(p) for p in probs], dtype=np.float64))
    cum[-1] = 1.0  # guard against float shortfall in the last bin
    return cum


def sample_price_indices(cum_probs, us: np.ndarray) -> np.ndarray:
    """Map uniforms to support indices via the cumulative distribution."""
    return np.searchsorted(_cumulative(cum_probs), us, side="right")


def trial_chunks(count: int) -> list[tuple[int, int]]:
    """(start, size) of the ``MC_CHUNK``-trial chunks covering trials
    0..count-1; every Monte Carlo path draws and runs one chunk at a time."""
    if count < 1:
        raise ValueError("need at least one trial")
    return [(start, min(MC_CHUNK, count - start)) for start in range(0, count, MC_CHUNK)]


class Lanes:
    """The lanes (seed, n, stream) of ``lanes[n] = (values, probs)``: each
    lane's values in ``dtype`` and its cumulative table are built the first
    time it is drawn, once per ``Lanes``."""

    def __init__(self, lanes, seed: int, stream: int, dtype=object):
        self.lanes, self.seed, self.stream, self.dtype = lanes, seed, stream, np.dtype(dtype)
        self._tables: dict = {}

    def draw(self, n: int, start: int, count: int) -> np.ndarray:
        """Lane n's values for trials start..start+count-1: the package's one lane draw."""
        if n not in self._tables:
            values, probs = self.lanes[n]
            self._tables[n] = np.asarray(values, dtype=self.dtype), _cumulative(probs)
        values, cum = self._tables[n]
        return values[np.searchsorted(cum, uniforms(self.seed, n, self.stream, count, start=start), side="right")]


class Columns:
    """The (lanes x trials) array of ``Lanes`` for trials
    start..start+count-1, each row drawn the first time a read's first index
    selects it; ``np.asarray`` draws every row."""

    def __init__(self, lanes: Lanes, start: int, count: int):
        self._lanes, self._start = lanes, start
        self._rows = np.empty((len(lanes.lanes), count), dtype=lanes.dtype)
        self._ids, self._drawn = np.arange(len(lanes.lanes)), set()
        self.shape, self.dtype = self._rows.shape, self._rows.dtype

    def _draw(self, rows) -> None:
        for n in set(np.ravel(self._ids[rows]).tolist()) - self._drawn:
            self._rows[n] = self._lanes.draw(n, self._start, self.shape[1])
            self._drawn.add(n)

    def __getitem__(self, key):
        self._draw(key[0] if isinstance(key, tuple) else key)
        return self._rows[key]

    def __array__(self, dtype=None, copy=None):
        self._draw(slice(None))
        return self._rows.astype(self.dtype if dtype is None else dtype, copy=bool(copy))


def sample_columns(lanes, seed: int, stream: int, start: int, count: int, dtype=object) -> np.ndarray:
    """(lanes x trials) array for trials start..start+count-1: row n holds
    draws of ``lanes[n] = (values, probs)`` on lane (seed, n, stream).

    With ``dtype=object`` the entries are the values themselves."""
    return np.asarray(Columns(Lanes(lanes, seed, stream, dtype), start, count))


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

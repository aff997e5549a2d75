"""Machine-speed reference, sampled while the benchmark runs.

The measuring VM shares its host, and other tenants change its speed by
up to 1.9x in phases of seconds to minutes, with no steal time to show
for it.  A wall time alone therefore measures the host as much as the
code.  The benchmark runs a fixed reference chunk (numpy small-matrix
linear algebra and interpreter work of the same kinds beqpt does, but
none of beqpt's code) at regular times during a run, and reports every
time scaled to a machine on which one chunk takes ``NOMINAL_CHUNK_S``:

    scaled = measured * NOMINAL_CHUNK_S / (chunk time around the measurement)

where the chunk time is a mean over the chunks sampled around it, without
their lowest and highest tenth.

A change to beqpt moves the measured time and not the chunk, so it moves
the scaled time in full; a host slowdown moves both and cancels.  The
raw times are printed beside the scaled ones.
"""

from __future__ import annotations

import bisect
import json
import random
import signal
import time

import numpy as np

# Scaled times are those of a machine on which a chunk sampled between
# beqpt's calls takes 1 ms; on the 2-vCPU VM the bounds were set on, one
# takes 0.7 ms to 1.5 ms.
NOMINAL_CHUNK_S = 0.001
# Gaps between samples are drawn from this range, so that sampling does
# not lock onto any periodic activity of the host.
SAMPLE_GAP_S = (0.015, 0.045)
# A short call is scaled by the chunks sampled up to this long before
# and after it: the speed changes on that time scale, and the window
# holds about 16 samples.
WINDOW_PAD_S = 0.25

_rng = np.random.default_rng(20240607)


def _state(n: int) -> np.ndarray:
    g = _rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))
    m = g @ g.conj().T
    return m / m.trace().real


_STATES = [(3, _state(9)), (4, _state(16))]
_REALIGNED = _state(36).reshape(6, 6, 6, 6).transpose(0, 2, 1, 3).reshape(36, 36)
_DOC = {"results": {f"k{i}": [0.5 * i, str(i), {"v": [i, i + 1]}] for i in range(8)}}


def _partial_transpose(x: np.ndarray, d: int) -> np.ndarray:
    return x.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)


def _simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    k = np.nonzero(u - (css - 1.0) / np.arange(1, v.size + 1) > 0)[0][-1] + 1
    return np.maximum(v - (css[k - 1] - 1.0) / k, 0.0)


def reference_chunk() -> None:
    """A fixed amount of work shaped like beqpt's, in plain numpy: one
    Dykstra-style PPT/density projection at d=3 and d=4, a realignment
    SVD at d=6 and a small report round trip through json."""
    for d, x in _STATES:
        y = _partial_transpose((x + x.conj().T) / 2, d)
        w, v = np.linalg.eigh(y)
        y = _partial_transpose((v * np.clip(w, 0.0, None)) @ v.conj().T, d)
        w, v = np.linalg.eigh((y + y.conj().T) / 2)
        out = (v * _simplex(w)) @ v.conj().T
        np.linalg.norm(out - y)
    np.linalg.svd(_REALIGNED, compute_uv=False).sum()
    json.loads(json.dumps(_DOC, sort_keys=True))


def scale(chunk_s: list[float]) -> float:
    """NOMINAL_CHUNK_S over the mean of the chunk times, without their
    lowest and highest tenth: the factor that takes a time measured while
    they were sampled to nominal speed."""
    xs = sorted(chunk_s)
    cut = len(xs) // 10
    kept = xs[cut:len(xs) - cut]
    return NOMINAL_CHUNK_S * len(kept) / sum(kept)


class Sampler:
    """Runs a reference chunk from a SIGALRM handler at random gaps of
    ``SAMPLE_GAP_S``, so the machine's speed is sampled during long calls
    as well as between short ones.  The handler takes 2-5% of the time.

    For sample i, ``at[i]`` is when the handler started, ``chunk_s[i]``
    the chunk's time and ``took[i]`` the handler's whole time.
    """

    def __init__(self, seed: int):
        self.at: list[float] = []
        self.chunk_s: list[float] = []
        self.took: list[float] = []
        self._gaps = random.Random(seed)
        self._on = False

    def _arm(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._gaps.uniform(*SAMPLE_GAP_S))

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_chunk()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.chunk_s.append(t1 - t0)
        if self._on:
            self._arm()
        self.took.append(time.perf_counter() - t0)

    def start(self) -> None:
        self._on = True
        signal.signal(signal.SIGALRM, self._handler)
        self._arm()

    def stop(self) -> None:
        """Stops sampling; a run too short for 10 samples is topped up
        with chunks run now."""
        self._on = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.chunk_s) < 10:
            self._handler(signal.SIGALRM, None)

    def taken(self, t0: float, t1: float) -> float:
        """Time the handler took from code that ran from t0 to t1: a
        handler that started in the interval also ended in it."""
        lo = bisect.bisect_left(self.at, t0)
        hi = bisect.bisect_right(self.at, t1)
        return sum(self.took[lo:hi])

    def scale(self, t0: float, t1: float) -> float:
        """Factor that takes a time measured in [t0, t1] to nominal speed,
        from the chunks sampled within ``WINDOW_PAD_S`` of that interval
        (from every chunk, if fewer than 10 were)."""
        lo = bisect.bisect_left(self.at, t0 - WINDOW_PAD_S)
        hi = bisect.bisect_right(self.at, t1 + WINDOW_PAD_S)
        inside = self.chunk_s[lo:hi]
        return scale(inside if len(inside) >= 10 else self.chunk_s)

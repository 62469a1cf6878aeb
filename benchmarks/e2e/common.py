"""Helpers shared by the workload child and the TCP server subprocess:
order statistics, answer checks, resource usage and load schedules."""

from __future__ import annotations

import math
import resource
import time

import numpy as np

from spec import ETA_LIMIT

#: η reported for an answer with non-finite entries (JSON has no inf).
_NOT_FINITE = 1e300


def percentile(values, q: float) -> float:
    """``q``-th percentile (linear interpolation); 0 for no samples."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def beyond(count: int, q: float) -> int:
    """Samples ranked above the ``q``-th percentile of ``count``."""
    return count - math.ceil(count * q / 100.0)


def sleep_until(t: float) -> None:
    while True:
        left = t - time.perf_counter()
        if left <= 0:
            return
        time.sleep(left)


def poisson_offsets(rng: np.random.Generator, rate: float,
                    duration: float) -> np.ndarray:
    """Arrival offsets (seconds from phase start) of a Poisson process."""
    n = int(rate * duration * 1.5) + 16
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return offsets[offsets < duration]


def zipf_weights(count: int, s: float) -> np.ndarray:
    w = 1.0 / np.arange(1, count + 1) ** s
    return w / w.sum()


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb(*, children: bool = False) -> float:
    """Peak resident set (``ru_maxrss`` is KiB on Linux) in MiB."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def inf_norm(op) -> float:
    """``‖T‖∞`` of a symmetric block Toeplitz operator from its first
    block row, without assembling it.

    Block row ``I`` holds ``T̂_d`` for ``d = 0 … p−1−I`` to the right of
    the diagonal and ``T̂_dᵀ`` for ``d = 1 … I`` to its left, so its row
    sums are prefix sums of the blocks' row and column sums.
    """
    top = np.abs(np.asarray(op.top_blocks))
    rows = np.cumsum(top.sum(axis=2), axis=0)
    cols = np.cumsum(top.sum(axis=1), axis=0) - top[0].sum(axis=0)
    return float((rows[::-1] + cols).max())


class AnswerCheck:
    """Normwise backward error ``η = ‖b − Tx‖∞ / (‖T‖∞‖x‖∞ + ‖b‖∞)`` of
    every answer, through the operator's own fast ``matvec``."""

    def __init__(self):
        self.eta_max = 0.0
        self.checked = 0
        self.wrong = 0
        self._norms: dict[int, float] = {}

    def etas(self, op, bs, xs, chunk: int = 256) -> np.ndarray:
        """Backward errors of the columns ``xs`` against ``bs`` (lists of
        vectors for one operator); records the maximum and wrong count."""
        key = id(op)
        if key not in self._norms:
            self._norms[key] = inf_norm(op)
        tnorm = self._norms[key]
        out = []
        for i in range(0, len(bs), chunk):
            b = np.stack(bs[i:i + chunk], axis=1)
            x = np.stack(xs[i:i + chunk], axis=1)
            if not np.all(np.isfinite(x)):
                out.append(np.full(x.shape[1], _NOT_FINITE))
                continue
            r = b - op.matvec(x)
            out.append(np.abs(r).max(axis=0)
                       / (tnorm * np.abs(x).max(axis=0)
                          + np.abs(b).max(axis=0)))
        eta = np.concatenate(out) if out else np.zeros(0)
        eta = np.nan_to_num(eta, nan=_NOT_FINITE, posinf=_NOT_FINITE)
        self.checked += eta.size
        if eta.size:
            self.eta_max = max(self.eta_max, float(eta.max()))
            self.wrong += int(np.count_nonzero(~(eta <= ETA_LIMIT)))
        return eta

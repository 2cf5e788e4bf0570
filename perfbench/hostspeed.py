"""Host-speed reference: time the benchmark's work at a fixed host speed.

The shared VM this benchmark was written on runs the same Python code at
speeds up to 1.7x apart, and switches between them every few seconds
(README, "Host-speed normalization"). A whole 20 s run can sit in the slow
state, so no statistic inside a run removes it, and ten-seed spreads of
wall-clock throughput reached 0.46.

``HostSpeed`` measures the host's speed while the workload runs: every
``PERIOD_S`` a SIGALRM handler, which runs in the main thread between two
bytecodes of the workload, times a fixed reference loop that touches no
c2sim code: dict inserts, small numpy calls and array copies, the costs
that dominate c2sim's hot paths. ``times`` then turns each interval the
workload timed into

- its raw duration, minus the handler time inside it, and
- its normalized duration: the raw duration scaled by ``REF_S`` over the
  loop's time at that moment. This is the time the interval would have
  taken on a host where the loop takes ``REF_S``.

A change to c2sim moves the normalized times as it moves the raw ones,
since the loop does not run c2sim code; a change of host speed moves the
loop as well and cancels out. On that VM, timed side by side in 2 s
bins for 150 s, the bins' log times of a tiny eval path, a prune, 30
enterprise steps and a short PPO training run varied by 0.14, 0.14, 0.12
and 0.11 (standard deviation); divided by the loop's time they varied by
0.07, 0.07, 0.07 and 0.06, and their log times moved 0.87 to 1.12 times as
much as the loop's. A loop of only interpreter work did as well or worse;
loops of only small numpy calls or only cache misses did worse.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.05
# Loop time that defines a normalized second; the loop takes about this
# long on the host named above.
REF_S = 200e-6
# Samples in the running median that smooths single-sample noise; 5 span
# 0.25 s, well below the seconds between speed switches.
SMOOTH = 5


_W = np.random.default_rng(0).random((128, 64))
_X = np.random.default_rng(1).random(128)
_BLOCK = np.random.default_rng(2).random(32768)  # 256 KiB


def _reference_loop() -> None:
    table = {}
    for i in range(300):
        table[i] = i * 2
    for _ in range(30):
        (_X @ _W).argmax()
    for _ in range(4):
        _BLOCK.copy()


class HostSpeed:
    """Sample the reference loop every ``PERIOD_S`` inside a ``with`` block."""

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._durations: list[float] = []
        self._previous = None

    def _sample(self, *_) -> None:
        t0 = time.perf_counter()
        _reference_loop()
        self._starts.append(t0)
        self._durations.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    @property
    def samples(self) -> int:
        return len(self._durations)

    def reference_us(self) -> float:
        """Median loop time over the block, in microseconds."""
        return float(np.median(self._durations)) * 1e6

    def times(self, intervals) -> tuple[np.ndarray, np.ndarray]:
        """Raw and normalized durations of ``(start, end)`` intervals taken
        with ``time.perf_counter`` inside the block."""
        iv = np.asarray(intervals, dtype=float).reshape(-1, 2)
        starts = np.asarray(self._starts)
        durations = np.asarray(self._durations)
        spent = np.concatenate([[0.0], np.cumsum(durations)])
        padded = np.pad(durations, SMOOTH // 2, mode="edge")
        smooth = np.median(
            np.lib.stride_tricks.sliding_window_view(padded, SMOOTH), axis=1)
        scale = np.concatenate([[0.0], np.cumsum(REF_S / smooth)])

        lo = np.searchsorted(starts, iv[:, 0])
        hi = np.searchsorted(starts, iv[:, 1])
        raw = iv[:, 1] - iv[:, 0] - (spent[hi] - spent[lo])
        inside = hi > lo
        # samples inside an interval: their mean scale; none: the nearest
        mid = iv[:, 0] + (iv[:, 1] - iv[:, 0]) / 2
        j = np.clip(np.searchsorted(starts, mid), 1, len(starts) - 1)
        nearest = np.where(mid - starts[j - 1] < starts[j] - mid, j - 1, j)
        factor = np.where(
            inside,
            (scale[hi] - scale[lo]) / np.maximum(hi - lo, 1),
            REF_S / smooth[nearest])
        return raw, raw * factor

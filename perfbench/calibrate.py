"""How fast the machine runs right now, and timings scaled to one fixed speed.

A shared host runs the same code at one speed for stretches of seconds to
minutes and up to ~1.8x slower in others, as neighbours come and go. The
benchmark times a fixed reference workload (`sample`) before and after
every timed step; `at_reference_speed` scales each timing by how much the
reference work around it was slowed, so a timing reads what it would on the
host at REFERENCE_NS speed. The reference work uses no textforge code, only
the kinds of work textforge does: Python string and dict handling and small
float32 numpy ops. A change to textforge moves the scaled timings in full.
"""

import time

import numpy as np

_rng = np.random.default_rng(12345)
_WORDS = ["".join(chr(97 + int(c)) for c in _rng.integers(0, 26, size=int(n)))
          for n in _rng.integers(2, 10, size=600)]
_X = _rng.standard_normal((1, 12, 64)).astype(np.float32)
_W = (_rng.standard_normal((64, 64)) * 0.1).astype(np.float32)
CALLS_PER_SAMPLE = 3
# sample() on an uncontended 2-vCPU Intel Xeon VM; scaled timings read as there
REFERENCE_NS = 550_000
MARKS_AROUND = 2  # marks on each side of a sample's own two that its speed averages


def reference_work():
    counts = {}
    for word in _WORDS:
        for ch in word.upper().lower():
            counts[ch] = counts.get(ch, 0) + 1
    x = _X
    for _ in range(80):
        x = np.tanh(x @ _W + np.float32(0.5))
    return counts, x


def sample() -> int:
    """Median ns of a few calls of reference_work."""
    times = []
    for _ in range(CALLS_PER_SAMPLE):
        t0 = time.perf_counter_ns()
        reference_work()
        times.append(time.perf_counter_ns() - t0)
    return sorted(times)[len(times) // 2]


def at_reference_speed(starts, durations, mark_t, mark_ns) -> np.ndarray:
    """Durations scaled to REFERENCE_NS host speed, as a float array of ns.

    A sample that started at starts[i] and took durations[i] is scaled by
    REFERENCE_NS / the median of the marks (sample() times taken at mark_t,
    ascending) from the last one before it starts to the first one after
    it ends, widened by MARKS_AROUND marks on each side so that one mark
    caught by a momentary stall moves no sample.
    """
    starts = np.asarray(starts, dtype=np.int64)
    durations = np.asarray(durations, dtype=np.float64)
    mark_t = np.asarray(mark_t, dtype=np.int64)
    mark_ns = np.asarray(mark_ns, dtype=np.float64)
    last = len(mark_t) - 1
    lo = np.clip(np.searchsorted(mark_t, starts, side="right") - 1 - MARKS_AROUND, 0, last)
    hi = np.clip(np.searchsorted(mark_t, starts + durations.astype(np.int64), side="left")
                 + MARKS_AROUND, lo, last)
    # many samples share a window of marks; take each window's median once
    windows, which = np.unique(np.stack([lo, hi], axis=1), axis=0, return_inverse=True)
    around = np.array([np.median(mark_ns[a:b + 1]) for a, b in windows])
    return durations * (REFERENCE_NS / around[which.reshape(-1)])

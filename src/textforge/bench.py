"""Single-example latency comparison between eager and exported inference.

Implementations under comparison are timed in one loop that alternates
which runs first, so host speed drift cannot favour one of them.
"""

import math
import platform
import time
from dataclasses import dataclass

from .errors import EmptySampleSet

def percentile(samples, p: float) -> float:
    """Nearest-rank percentile: smallest sample covering fraction p."""
    if not samples:
        raise EmptySampleSet("percentile of an empty sample list")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1], got %r" % p)
    ordered = sorted(samples)
    rank = max(math.ceil(p * len(ordered)), 1)
    return ordered[rank - 1]


@dataclass
class LatencyReport:
    implementation: str
    n_requests: int
    p50_ms: float
    p90_ms: float
    p99_ms: float
    note: str = ""

    def payload(self) -> dict:
        return {
            "implementation": self.implementation,
            "n_requests": self.n_requests,
            "p50_ms": self.p50_ms,
            "p90_ms": self.p90_ms,
            "p99_ms": self.p99_ms,
            "note": self.note,
        }


def measure_alternating(fns, inputs, warmup: int = 0) -> list:
    """Per-request wall time in ms of every fn, all timed in one loop.

    Each input runs through every fn, starting one fn later on each request,
    so a drift in host speed lands on all of them alike. Warmup inputs run
    through every fn first and are dropped. Returns one sample list per fn.
    """
    if not inputs:
        raise EmptySampleSet("no requests to measure")
    for x in inputs[:warmup]:
        for fn in fns:
            fn(x)
    samples = [[] for _ in fns]
    for i, x in enumerate(inputs):
        for j in range(len(fns)):
            k = (i + j) % len(fns)
            t0 = time.perf_counter_ns()
            fns[k](x)
            samples[k].append((time.perf_counter_ns() - t0) / 1e6)
    return samples


def latency_reports(fns: dict, inputs, warmup: int = 0) -> list:
    """One LatencyReport per named fn, timed together by measure_alternating."""
    runs = measure_alternating(list(fns.values()), inputs, warmup)
    return [LatencyReport(
        implementation=name,
        n_requests=len(samples),
        p50_ms=percentile(samples, 0.50),
        p90_ms=percentile(samples, 0.90),
        p99_ms=percentile(samples, 0.99),
        note=platform.platform(),
    ) for name, samples in zip(fns, runs)]


def format_reports(reports) -> str:
    lines = []
    for r in reports:
        lines.append("%-10s n=%d  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms"
                     % (r.implementation, r.n_requests, r.p50_ms, r.p90_ms, r.p99_ms))
    if reports:
        lines.append("machine: %s" % reports[0].note)
    return "\n".join(lines)

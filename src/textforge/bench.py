"""Single-example latency comparison between eager and exported inference."""

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


def measure(fn, inputs, warmup: int = 0) -> list:
    """Per-request wall time in ms; warmup calls run first and are dropped."""
    if not inputs:
        raise EmptySampleSet("no requests to measure")
    for x in inputs[:warmup]:
        fn(x)
    samples = []
    for x in inputs:
        t0 = time.perf_counter_ns()
        fn(x)
        samples.append((time.perf_counter_ns() - t0) / 1e6)
    return samples


def latency_report(implementation: str, fn, inputs, warmup: int = 0) -> LatencyReport:
    samples = measure(fn, inputs, warmup)
    return LatencyReport(
        implementation=implementation,
        n_requests=len(samples),
        p50_ms=percentile(samples, 0.50),
        p90_ms=percentile(samples, 0.90),
        p99_ms=percentile(samples, 0.99),
        note=platform.platform(),
    )


def format_reports(reports) -> str:
    lines = []
    for r in reports:
        lines.append("%-10s n=%d  p50 %.3f ms  p90 %.3f ms  p99 %.3f ms"
                     % (r.implementation, r.n_requests, r.p50_ms, r.p90_ms, r.p99_ms))
    if reports:
        lines.append("machine: %s" % reports[0].note)
    return "\n".join(lines)

"""Small measurement helpers: percentiles, digests, host speed, memory."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import statistics
import time
from typing import Iterable, Optional

#: a percentile is reported only with this many samples above it
MIN_BEYOND = 10


def percentile(values: list[float], q: float) -> Optional[float]:
    """The ``q`` quantile (0 < q < 1), or None when it is not supported.

    Linear interpolation between closest ranks.  The tail is withheld
    when fewer than :data:`MIN_BEYOND` samples lie beyond it: a p90 of
    30 samples is the third-slowest op, which says more about luck than
    about the program.
    """
    if not values:
        return None
    ordered = sorted(values)
    if q > 0.5 and round(len(ordered) * (1.0 - q), 9) < MIN_BEYOND:
        return None
    position = (len(ordered) - 1) * q
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spread(values: list[float]) -> dict[str, float]:
    """Median, quartiles, extremes and IQR/median of repeated runs."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_share": (q3 - q1) / median if median else float("nan"),
    }


def digest(payload: object) -> str:
    """Short stable digest of a JSON-serialisable output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


#: iterations of the host-speed reference loop (about 2 ms)
REFERENCE_ITERATIONS = 50_000
#: the reference loop's time on the host the bounds were set on, when
#: that host ran at its usual speed; time metrics are reported as if
#: the reference loop had taken exactly this long
REFERENCE_MS = 2.0


def reference_ms() -> float:
    """One timing of a fixed pure-Python loop: the host's current speed.

    The same code takes up to twice as long when other tenants load the
    machine, for minutes at a time, and the loop slows with it.
    """
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i & 7
    return (time.perf_counter() - started) * 1e3


def reference_samples(count: int = 5) -> list[float]:
    return [reference_ms() for _ in range(count)]


def host_factor(samples: list[float]) -> float:
    """Scale that puts a time measured beside ``samples`` at reference speed."""
    return REFERENCE_MS / statistics.median(samples)


def own_peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of another live process, in MiB (0 if it is gone)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> list[int]:
    """Direct children of ``pid``, found through ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0

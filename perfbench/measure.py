"""Pure measurement rules of the benchmark: percentiles, failure
accounting, artifact normalization and span self time.

Nothing here touches the program under test, so ``test_measure.py``
checks every rule on synthetic inputs.
"""

import hashlib
import math
import re

# A tail percentile is reported only when at least this many samples lie
# beyond it; p90 therefore needs 100 samples.
MIN_BEYOND = 10
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

FAILED = math.inf  # the latency a failed operation contributes


def rank(n, p):
    """1-based nearest rank of the ``p``-th percentile among ``n`` samples
    (rounded first, so 99.9% of 10000 is rank 9990, not 9991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples, p):
    """Nearest-rank ``p``-th percentile of ``samples`` (0 < p <= 100)."""
    if not samples:
        raise ValueError("no samples")
    return sorted(samples)[rank(len(samples), p) - 1]


def median(samples):
    """Middle value (mean of the two middle values for an even count)."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def beyond(n, p):
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return n - rank(n, p)


def tail_allowed(n, p):
    return beyond(n, p) >= MIN_BEYOND


def tail(samples, p):
    """The ``p``-th percentile, refused (``ValueError``) when fewer than
    ``MIN_BEYOND`` samples lie beyond it."""
    if not tail_allowed(len(samples), p):
        raise ValueError(
            f"p{p:g} needs {MIN_BEYOND} samples beyond it; have {len(samples)} samples"
        )
    return percentile(samples, p)


def highest_tail(n):
    """The highest reportable tail percentile for ``n`` samples, or None."""
    for p in TAIL_PERCENTILES:
        if tail_allowed(n, p):
            return p
    return None


def tail_or_lower(samples, p):
    """``(q, value)``: the ``p``-th percentile when the rule allows it,
    else the highest tail it allows, else the median (``q`` = 50), so a
    metric that must always be reported says which percentile it holds."""
    if tail_allowed(len(samples), p):
        return p, percentile(samples, p)
    q = highest_tail(len(samples))
    if q is None:
        return 50.0, median(samples)
    return q, percentile(samples, q)


class Tally:
    """Operations attempted and failed, with one latency per attempt.

    A failed operation records ``FAILED`` (infinitely late), so it counts
    as missing every latency percentile, and its reason is kept so the
    report can name what diverged.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.latencies = {}
        self.reasons = []

    def ok(self, kind, seconds):
        self.attempted += 1
        self.latencies.setdefault(kind, []).append(seconds)

    def fail(self, kind, reason):
        self.attempted += 1
        self.failed += 1
        self.latencies.setdefault(kind, []).append(FAILED)
        self.reasons.append(reason)

    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0

    def samples(self, kind):
        return self.latencies.get(kind, [])

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        for kind, values in other.latencies.items():
            self.latencies.setdefault(kind, []).extend(values)
        self.reasons.extend(other.reasons)


_WALL_MS = re.compile(rb'"wall_ms":[0-9]+')


def normalize(name, data):
    """Artifact bytes with host-time fields removed: ``wall_ms`` in
    ``check.json`` is the only field that differs between identical runs."""
    if name == "check.json":
        return _WALL_MS.sub(b'"wall_ms":0', data)
    return data


def digest(name, data):
    return hashlib.sha256(normalize(name, data)).hexdigest()[:32]


def self_times(spans):
    """Self time per span name: each span's duration minus the part of
    its interval that its children cover (overlapping children count
    once). ``spans`` are dicts with ``id``, ``parent``, ``name``,
    ``start`` and ``end``; returns ``{name: seconds}``."""
    children = {}
    for s in spans:
        if s.get("parent") is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        reach = lo
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            start, end = max(c["start"], reach, lo), min(c["end"], hi)
            if end > start:
                covered += end - start
                reach = end
        out[s["name"]] = out.get(s["name"], 0.0) + (hi - lo) - covered
    return out


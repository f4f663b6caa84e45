"""The benchmark's own arithmetic: percentiles, tallies, spreads, anchors.

Kept free of any ``repro`` import so it can be unit-tested on its own
(``python -m pytest perfbench``).
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence, Tuple

#: A percentile is reported only when at least this many samples lie
#: beyond it; with fewer, the value would be set by a handful of outliers.
MIN_BEYOND = 10


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of quantile ``q`` (0 < q <= 1) among ``n``."""
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {q}")
    # The epsilon keeps e.g. 0.99 * 1000 from rounding up to 991.
    return max(1, math.ceil(q * n - 1e-9))


def tail_percentile(values: Sequence[float], q: float = 0.99) -> Optional[float]:
    """The ``q`` quantile (nearest rank), or None when it is unsupported.

    Supported means at least :data:`MIN_BEYOND` samples lie strictly
    beyond its rank: p99 needs 1000 samples, p50 needs 20.
    """
    n = len(values)
    if n == 0:
        return None
    rank = nearest_rank(n, q)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the run-to-run spread the bounds are judged by."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else math.inf


@dataclass
class Tally:
    """Outcome accounting for one load phase.

    A response counts as ok only with status 200; every other status
    (408 deadline shed, 503 overload, 4xx/5xx) and every connection error
    counts as failed, so ``ok + failed == attempted`` always.
    """

    statuses: Counter = field(default_factory=Counter)
    connection_errors: int = 0

    def record(self, status: Optional[int]) -> None:
        """One attempted request; ``None`` means the connection failed."""
        if status is None:
            self.connection_errors += 1
        else:
            self.statuses[status] += 1

    @property
    def ok(self) -> int:
        return self.statuses.get(200, 0)

    @property
    def attempted(self) -> int:
        return sum(self.statuses.values()) + self.connection_errors

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def merged(self, other: "Tally") -> "Tally":
        return Tally(
            self.statuses + other.statuses,
            self.connection_errors + other.connection_errors,
        )

    def describe(self) -> str:
        detail = ", ".join(
            f"{status}: {count}" for status, count in sorted(self.statuses.items())
        )
        return (
            f"attempted {self.attempted}, ok {self.ok}, failed {self.failed} "
            f"(statuses {{{detail}}}, connection errors {self.connection_errors})"
        )


#: One paper anchor: (experiment, quantity, paper value, measured value).
Anchor = Tuple[str, str, float, float]


def anchor_mdape_pct(rows: Sequence[Anchor]) -> float:
    """Median |measured - paper| / |paper| over the anchors, in percent."""
    if not rows:
        raise ValueError("no anchors")
    return 100.0 * statistics.median(
        abs(measured - paper) / abs(paper) for _, _, paper, measured in rows
    )

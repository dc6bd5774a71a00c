"""Independent closed forms the benchmark checks uqsd's outputs against.

Nothing here imports uqsd or numpy, so a fault in the program cannot leak
into the reference it is judged by.

For two pure states with overlap C = |<P|Q>| and priors (r, s), the least
failure probability of any conclusive measurement (Jaeger & Shimony, Phys.
Lett. A 197, 83 (1995)) is, with big = max(r, s) and small = min(r, s):

    2 sqrt(r s) C        if sqrt(small / big) >= C
    big C^2 + small      otherwise (the less likely state is never named).

The paper's claim, local equals global, makes the sequential protocol reach
the next party after the first k parties with exactly the global failure
probability of their product overlap.  The measurement count N therefore has
P(N > k) = fail(c_1 ... c_k), which gives its mean and second moment.
"""

from __future__ import annotations

import math
from collections.abc import Sequence


def p_fail(c: float, r: float, s: float) -> float:
    """Least failure probability for overlap c under priors (r, s)."""
    if c == 0.0:
        return 0.0
    big, small = max(r, s), min(r, s)
    if math.sqrt(small / big) >= c:
        return 2.0 * math.sqrt(r * s) * c
    return big * c * c + small


def global_optimum(c: float, r: float, s: float) -> float:
    """Best success probability of any joint measurement: 1 - p_fail."""
    return 1.0 - p_fail(c, r, s)


def _tail(overlaps: Sequence[float], r: float, s: float) -> list[float]:
    # [P(N >= 1), P(N > 1), ..., P(N > m-1)] over the m parties that measure
    # at all; a party with overlap 1 is skipped and changes nothing.
    active = [c for c in overlaps if c != 1.0]
    if not active:
        return []
    tail = [1.0]
    prefix = 1.0
    for c in active[:-1]:
        prefix *= c
        tail.append(p_fail(prefix, r, s))
    return tail


def expected_count(overlaps: Sequence[float], r: float, s: float) -> float:
    """Mean number of local measurements for parties visited in this order."""
    return sum(_tail(overlaps, r, s))


def count_variance(overlaps: Sequence[float], r: float, s: float) -> float:
    """Variance of the number of local measurements, from the same tail."""
    tail = _tail(overlaps, r, s)
    # E[N^2] = sum over k >= 1 of (2k - 1) P(N >= k)
    second = sum((2 * k + 1) * f for k, f in enumerate(tail))
    return max(0.0, second - sum(tail) ** 2)

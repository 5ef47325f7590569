"""Closed-form counters in exact integer arithmetic, plus the asymptotic estimate.

Every function here has a brute-force counterpart in
:mod:`ddpaths.enumeration`; the verification harness and the test suite
cross-check the two routes.  All integer results are exact at any length;
the only floating point lives in the asymptotic estimator, which works in
the log domain because ``2**n`` leaves double range near n = 1024.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .enumeration import CountRow

__all__ = [
    "central_binomial",
    "catalan",
    "dyck_count",
    "r_closed",
    "u_closed",
    "a_closed",
    "r_convolution",
    "totals_closed",
    "AsymptoticEstimate",
    "a_asymptotic",
    "asymptotic_ratio",
]


def central_binomial(n: int) -> int:
    """C(n, floor(n/2)): the number of dispersed Dyck paths of length ``n``."""
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    return math.comb(n, n // 2)


def catalan(k: int) -> int:
    """The k-th Catalan number: the number of Dyck paths of length ``2k``."""
    if k < 0:
        raise ValueError(f"index must be non-negative, got {k}")
    return math.comb(2 * k, k) // (k + 1)


def dyck_count(n: int) -> int:
    """Number of Dyck paths of length ``n``; zero for odd ``n``."""
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    return 0 if n % 2 else catalan(n // 2)


def r_closed(n: int) -> int:
    """Total right steps over all DDPs of length ``n``: ``2**n - C(n, floor(n/2))``."""
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    return (1 << n) - central_binomial(n)


def u_closed(n: int) -> int:
    """Total up steps over all DDPs of length ``n``: ``((n+1)*C(n, floor(n/2)) - 2**n) / 2``.

    The division is exact for every ``n``; a remainder would mean the
    formula itself is wrong, so it is checked rather than assumed.
    """
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    numerator = (n + 1) * central_binomial(n) - (1 << n)
    half, rem = divmod(numerator, 2)
    if rem:
        raise ArithmeticError(f"u_closed({n}): numerator {numerator} is odd")
    return half


def a_closed(m: int) -> int:
    """Total 1-ascents over all DDPs of length ``m``.

    For ``m >= 2`` this is ``2**(m-3) + ((m-1)/2) * C(m-2, floor((m-2)/2))``,
    computed as one halved even integer so the arithmetic stays exact.
    Lengths 0 and 1 admit no 1-ascent at all.
    """
    if m < 0:
        raise ValueError(f"length must be non-negative, got {m}")
    if m < 2:
        return 0
    n = m - 2
    numerator = (1 << n) + (n + 1) * central_binomial(n)
    half, rem = divmod(numerator, 2)
    if rem:
        raise ArithmeticError(f"a_closed({m}): numerator {numerator} is odd")
    return half


def r_convolution(n: int) -> int:
    """Right-step total of length ``n`` as a self-convolution of path counts.

    ``sum(C(k, floor(k/2)) * C(n-k-1, floor((n-k-1)/2)) for k in range(n))``;
    agrees with :func:`r_closed` for every ``n`` (the empty sum covers n = 0).
    """
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    return sum(central_binomial(k) * central_binomial(n - k - 1) for k in range(n))


def totals_closed(n: int) -> CountRow:
    """Every total of length ``n`` from its closed form; the counterpart of ``totals_brute``."""
    ups = u_closed(n)  # every up step is matched by a down step
    return CountRow(
        n=n,
        ddp=central_binomial(n),
        dyck=dyck_count(n),
        ups=ups,
        downs=ups,
        rights=r_closed(n),
        one_ascents=a_closed(n),
    )


class AsymptoticEstimate(NamedTuple):
    """Asymptotic 1-ascent total: its base-2 log, and the value when it fits a float."""

    log2: float
    value: float


def a_asymptotic(m: int) -> AsymptoticEstimate:
    """Asymptotic estimate ``sqrt(m/pi) * (1 + sqrt(pi/(2m))) * 2**(m - 5/2)``.

    Evaluated in the log domain; ``value`` is ``inf`` once the estimate
    exceeds double range.
    """
    if m < 1:
        raise ValueError(f"estimate needs m >= 1, got {m}")
    log2 = (
        0.5 * (math.log2(m) - math.log2(math.pi))
        + math.log2(1.0 + math.sqrt(math.pi / (2.0 * m)))
        + (m - 2.5)
    )
    try:
        value = 2.0 ** log2
    except OverflowError:
        value = math.inf
    return AsymptoticEstimate(log2=log2, value=value)


def asymptotic_ratio(m: int) -> float:
    """Exact 1-ascent total divided by its asymptotic estimate, in the log domain."""
    if m < 2:
        raise ValueError(f"ratio needs m >= 2 (no 1-ascents below length 2), got {m}")
    exact_log2 = math.log2(a_closed(m))
    return 2.0 ** (exact_log2 - a_asymptotic(m).log2)

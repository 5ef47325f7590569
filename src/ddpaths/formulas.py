"""Closed-form counters in exact integer arithmetic, plus the asymptotic estimate.

Each point-wise closed-form count here has a brute-force counterpart in
:mod:`ddpaths.enumeration`, and the verification harness and the test suite
cross-check the two routes.  Two kinds of function have none: the stream
``central_binomials``, which is checked against ``central_binomial``, and
the asymptotic estimators, which are checked against the exact closed form.
All integer results are exact at any length; the only floating point lives
in the asymptotic estimator, which works in the log domain because ``2**n``
leaves double range near n = 1024.  The private streams run in the number
type they start from: ``int`` for the library, or a ``Decimal`` under a
context that traps every rounding, whose str() the CLI prints in linear time.
"""

from __future__ import annotations

import math
import sys
from itertools import accumulate, compress, count, islice, repeat
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .enumeration import CountRow

__all__ = [
    "central_binomial",
    "central_binomials",
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


# From this length on, central_binomial multiplies out the prime factorisation; below it
# math.comb is faster.  Median call time in ms over five rounds of 300 calls, math.comb /
# factored (CPython 3.11.7, 2 vCPUs): n = 1000 0.046 / 0.073, 1500 0.106 / 0.106,
# 1600 0.119 / 0.106, 2000 0.182 / 0.132, 10**4 3.27 / 0.58.  Keep it at or below
# L4-closed's limit of 2000, so that verify compares factored values with the stream.
_FACTOR_FROM = 1600

# _factored_central_binomial multiplies the primes above sqrt(n) in runs of this many as
# the sieve yields them, so it never lists them all: one call at n = 99998 traces a peak
# of 198 KiB, against 581 KiB with all of them listed first, at the same speed from
# n = 10**4 to 10**6 (CPython 3.11.7, 2 vCPUs).
_PRIME_CHUNK = 256

# the number type a stream runs in: int, or a Decimal under a context that traps rounding
_N = TypeVar("_N")


def _require_length(n: int) -> None:
    """Refuse a length the closed forms cannot take, naming it as the caller passed it."""
    if n < 0:
        raise ValueError(f"length must be non-negative, got {n}")
    if n >= sys.maxsize:  # the sieve of _factored_central_binomial indexes n + 1 bytes
        raise ValueError(f"C(n, floor(n/2)) needs n below sys.maxsize = {sys.maxsize}, got {n}")


def central_binomial(n: int) -> int:
    """C(n, floor(n/2)): the number of dispersed Dyck paths of length ``n``."""
    _require_length(n)
    if n < _FACTOR_FROM:
        return math.comb(n, n // 2)
    return _factored_central_binomial(n)


def _factored_central_binomial(n: int) -> int:
    """C(n, k) with k = floor(n/2), as the product of p**e over the primes p <= n.

    Legendre's formula gives each exponent: e is the sum over i >= 1 of
    n // p**i - k // p**i - (n - k) // p**i.  The primes come from a sieve.
    """
    k = n // 2
    root = math.isqrt(n)
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, root + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    factors = []
    for p in compress(range(root + 1), sieve):
        e = 0
        q = p
        while q <= n:
            e += n // q - k // q - (n - k) // q
            q *= p
        if e:
            factors.append(p**e)
    # above sqrt(n) the sum has its i = 1 term only, so each exponent is 0 or 1
    large = compress(range(root + 1, n + 1), memoryview(sieve)[root + 1 :])
    kept = (p for p in large if n // p - k // p - (n - k) // p)
    while chunk := list(islice(kept, _PRIME_CHUNK)):
        factors.append(_product_tree(chunk))
    return _product_tree(factors)


def _product_tree(xs: list[int]) -> int:
    """The product of ``xs``, multiplied in pairs, then pairs of pairs, and so on.

    Each product then joins operands of similar length, where CPython's Karatsuba
    multiplication pays off; at n = 10**5 a left-to-right ``math.prod`` of the
    prime powers is about three times slower.
    """
    while len(xs) > 1:
        odd = xs[-1:] if len(xs) % 2 else []
        xs = [*map(mul, xs[::2], xs[1::2]), *odd]
    return xs[0] if xs else 1


def central_binomials() -> Iterator[int]:
    """B(0), B(1), B(2), ...: every ``central_binomial(n)`` in order, from one running pass."""
    return _central_binomials(1)


def _central_binomials(b: _N) -> Iterator[_N]:
    """B(0), B(1), B(2), ... from ``b = B(0) = 1``, in the number type of ``b``.

    Each value comes from the one before it: C(2k+1, k) = C(2k, k) * (2k+1) / (k+1)
    (an exact division) and C(2k+2, k+1) = 2 * C(2k+1, k).  The first N values
    cost O(N) big-integer products instead of N separate ``math.comb`` calls.
    """
    k = 0
    while True:
        yield b  # C(2k, k)
        b = b * (2 * k + 1) // (k + 1)
        yield b  # C(2k+1, k)
        b *= 2
        k += 1


def _powers_of_two(one: _N) -> Iterator[_N]:
    """2**0, 2**1, 2**2, ... from ``one = 2**0``, in the number type of ``one``."""
    return accumulate(repeat(2), mul, initial=one)


# Each closed form is stated once, in a private helper that reads what it needs of
# the length n, its power of two 2**n and its central binomial B.  The point-wise
# functions pass ``1 << n`` and ``central_binomial(n)``; the streams below pass running
# values of both, in the number type they start from.  Every operand is non-negative,
# so ``//`` and ``divmod`` agree on int and on a Decimal under an exact context.


def _dyck(n: int, b: _N) -> _N:
    """Dyck paths of length ``n`` from ``b = B(n)``: C(2k, k) / (k+1) for n = 2k, else 0."""
    return 0 if n % 2 else b // (n // 2 + 1)


def _rights(two: _N, b: _N) -> _N:
    """R(n) from ``two = 2**n`` and ``b = B(n)``."""
    return two - b


def _ups(n: int, two: _N, b: _N) -> _N:
    """U(n) from ``two = 2**n`` and ``b = B(n)``; the numerator is checked to be even."""
    numerator = (n + 1) * b - two
    half, rem = divmod(numerator, 2)
    if rem:
        raise ArithmeticError(f"u_closed({n}): numerator {numerator} is odd")
    return half


def _one_ascents(m: int, two: _N, b: _N) -> _N:
    """A(m) for ``m >= 2`` from ``two = 2**(m - 2)`` and ``b = B(m - 2)``; the numerator is
    checked to be even."""
    numerator = two + (m - 1) * b
    half, rem = divmod(numerator, 2)
    if rem:
        raise ArithmeticError(f"a_closed({m}): numerator {numerator} is odd")
    return half


def _convolution(n: int, bs: Sequence[_N]) -> _N:
    """The self-convolution sum of B(k) * B(n-k-1) over k < n, from ``bs = B(0..n-1)``.

    The terms at k and n-k-1 are equal, so the sum is folded: twice the products
    over k < n // 2, plus the middle square B((n-1)/2)**2 when ``n`` is odd.
    """
    h = n // 2
    folded = 2 * sum(map(mul, bs[:h], reversed(bs[n - h : n])))
    return folded + bs[h] ** 2 if n % 2 else folded


def _row(n: int, two: _N, b: _N, one_ascents: _N) -> CountRow:
    """Every total of length ``n`` from ``two = 2**n``, ``b = B(n)`` and the 1-ascent total."""
    ups = _ups(n, two, b)  # every up step is matched by a down step
    return CountRow(
        n=n,
        ddp=b,
        dyck=_dyck(n, b),
        ups=ups,
        downs=ups,
        rights=_rights(two, b),
        one_ascents=one_ascents,
    )


def _one_ascent_terms(one: _N) -> Iterator[_N]:
    """A(0), A(1), A(2), ... in the number type of ``one``: A(m) reads 2**(m-2) and B(m-2)."""
    yield 0  # lengths 0 and 1 admit no 1-ascent
    yield 0
    yield from map(_one_ascents, count(2), _powers_of_two(one), _central_binomials(one))


def _right_terms(one: _N) -> Iterator[_N]:
    """R(0), R(1), R(2), ... in the number type of ``one``."""
    return map(_rights, _powers_of_two(one), _central_binomials(one))


def _convolution_terms(bs: Iterable[_N]) -> Iterator[_N]:
    """The self-convolutions of B(0), B(1), ... in ``bs``, at n = 0, 1, 2, ...

    Term n reads B(0..n-1) only, so the terms stream along with ``bs``.
    """
    seen: list[_N] = []
    for n, b in enumerate(bs):
        yield _convolution(n, seen)
        seen.append(b)


def _closed_rows(one: _N) -> Iterator[CountRow]:
    """totals_closed(0), totals_closed(1), ... in the number type of ``one``, from running
    values of 2**n and B(n)."""
    twos, bs = _powers_of_two(one), _central_binomials(one)
    return map(_row, count(), twos, bs, _one_ascent_terms(one))


def catalan(k: int) -> int:
    """The k-th Catalan number: the number of Dyck paths of length ``2k``."""
    if k < 0:
        raise ValueError(f"index must be non-negative, got {k}")
    if 2 * k >= sys.maxsize:  # refused here, where k is known, not as the 2k passed on
        limit = f"C(n, floor(n/2)) needs n below sys.maxsize = {sys.maxsize}"
        raise ValueError(f"{limit}, got n = 2k for k = {k}")
    return dyck_count(2 * k)


def dyck_count(n: int) -> int:
    """Number of Dyck paths of length ``n``; zero for odd ``n``."""
    return _dyck(n, central_binomial(n))


def r_closed(n: int) -> int:
    """Total right steps over all DDPs of length ``n``: ``2**n - C(n, floor(n/2))``."""
    b = central_binomial(n)  # refuses a bad n before 1 << n is built
    return _rights(1 << n, b)


def u_closed(n: int) -> int:
    """Total up steps over all DDPs of length ``n``: ``((n+1)*C(n, floor(n/2)) - 2**n) / 2``.

    The division is exact for every ``n``; a remainder would mean the
    formula itself is wrong, so it is checked rather than assumed.
    """
    b = central_binomial(n)  # refuses a bad n before 1 << n is built
    return _ups(n, 1 << n, b)


def a_closed(m: int) -> int:
    """Total 1-ascents over all DDPs of length ``m``.

    For ``m >= 2`` this is ``2**(m-3) + ((m-1)/2) * C(m-2, floor((m-2)/2))``,
    computed as one halved even integer so the arithmetic stays exact.
    Lengths 0 and 1 admit no 1-ascent at all.
    """
    _require_length(m)
    if m < 2:
        return 0
    return _one_ascents(m, 1 << (m - 2), central_binomial(m - 2))


def r_convolution(n: int) -> int:
    """Right-step total of length ``n`` as a self-convolution of path counts.

    ``sum(C(k, floor(k/2)) * C(n-k-1, floor((n-k-1)/2)) for k in range(n))``;
    agrees with :func:`r_closed` for every ``n`` (the empty sum covers n = 0).
    """
    _require_length(n)
    return _convolution(n, list(islice(central_binomials(), n)))


def totals_closed(n: int) -> CountRow:
    """Every total of length ``n`` from its closed form; the counterpart of ``totals_brute``."""
    b = central_binomial(n)  # refuses a bad n before 1 << n is built
    return _row(n, 1 << n, b, a_closed(n))


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


def _log2_comparison(m: int) -> tuple[float, float, float]:
    """(log2 of the exact 1-ascent total, log2 of its estimate, their ratio) for ``m >= 2``."""
    if m < 2:
        raise ValueError(f"ratio needs m >= 2 (no 1-ascents below length 2), got {m}")
    exact_log2 = math.log2(a_closed(m))
    estimate_log2 = a_asymptotic(m).log2
    return exact_log2, estimate_log2, 2.0 ** (exact_log2 - estimate_log2)


def asymptotic_ratio(m: int) -> float:
    """Exact 1-ascent total divided by its asymptotic estimate, in the log domain."""
    return _log2_comparison(m)[2]

"""Closed-form counters: spot values, identities at scale, and oracle equivalence."""

import math
import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ddpaths import (
    a_asymptotic,
    a_closed,
    asymptotic_ratio,
    catalan,
    central_binomial,
    central_binomials,
    dyck_count,
    enumerate_dyck,
    r_closed,
    r_convolution,
    totals_brute,
    totals_closed,
    u_closed,
)
from ddpaths import formulas
from ddpaths.formulas import _FACTOR_FROM, _PRIME_CHUNK, _convolution, _factored_central_binomial


class TestSpotValues:
    @pytest.mark.parametrize("n,expected", [(0, 1), (4, 6), (5, 10), (1, 1), (2, 2)])
    def test_central_binomial(self, n, expected):
        assert central_binomial(n) == expected

    @pytest.mark.parametrize("k,expected", [(0, 1), (1, 1), (2, 2), (3, 5), (4, 14)])
    def test_catalan(self, k, expected):
        assert catalan(k) == expected

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (3, 5), (4, 10), (5, 22)])
    def test_r_closed(self, n, expected):
        assert r_closed(n) == expected

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 0), (2, 1), (4, 7), (5, 14)])
    def test_u_closed(self, n, expected):
        assert u_closed(n) == expected

    @pytest.mark.parametrize(
        "m,expected", [(0, 0), (1, 0), (2, 1), (3, 2), (4, 5), (5, 10), (6, 23)]
    )
    def test_a_closed(self, m, expected):
        assert a_closed(m) == expected

    @pytest.mark.parametrize("n,expected", [(0, 0), (1, 1), (4, 10)])
    def test_r_convolution(self, n, expected):
        assert r_convolution(n) == expected

    def test_central_binomials_stream(self):
        # both recurrence steps, C(2k+1, k) from C(2k, k) and C(2k+2, k+1) from C(2k+1, k)
        assert list(islice(central_binomials(), 501)) == [math.comb(n, n // 2) for n in range(501)]

    def test_dyck_count_odd_is_zero(self):
        assert dyck_count(7) == 0
        assert dyck_count(6) == 5

    def test_negative_arguments_rejected(self):
        for fn in (central_binomial, dyck_count, r_closed, u_closed, a_closed, r_convolution):
            with pytest.raises(ValueError, match=r"^length must be non-negative, got -1$"):
                fn(-1)
        with pytest.raises(ValueError, match=r"^index must be non-negative, got -1$"):
            catalan(-1)

    def test_lengths_past_sys_maxsize_rejected(self):
        # the sieve could not index n + 1 bytes; refused before anything is allocated
        closed = (central_binomial, dyck_count, r_closed, u_closed, a_closed, totals_closed)
        for fn in (*closed, catalan, asymptotic_ratio):
            with pytest.raises(ValueError, match=r"^C\(n, floor\(n/2\)\) needs n below sys"):
                fn(10**20)
        for fn in (central_binomial, a_closed, asymptotic_ratio):  # the length as passed
            with pytest.raises(ValueError, match=rf"got {10**20}$"):
                fn(10**20)
        # the index as passed, not the length 2k that catalan passes on
        with pytest.raises(ValueError, match=rf", got n = 2k for k = {10**20}$"):
            catalan(10**20)
        with pytest.raises(ValueError, match=rf"for k = {sys.maxsize // 2 + 1}$"):
            catalan(sys.maxsize // 2 + 1)

    def test_r_convolution_refuses_before_listing(self, monkeypatch):
        # it would list B(0..n-1) until memory ran out
        def unreachable():
            raise AssertionError("central_binomials() was called")

        monkeypatch.setattr(formulas, "central_binomials", unreachable)
        with pytest.raises(ValueError, match=rf"needs n below sys\.maxsize = \d+, got {10**20}$"):
            r_convolution(10**20)


class TestFactoredCentralBinomial:
    """Above the cutover B(n) is multiplied out from primes; math.comb stays the oracle."""

    @pytest.mark.parametrize("n", [*range(_FACTOR_FROM - 3, _FACTOR_FROM + 4), 99999, 100000])
    def test_across_the_cutover_and_at_scale(self, n):
        assert central_binomial(n) == math.comb(n, n // 2)

    @given(st.integers(min_value=0, max_value=30000))
    def test_matches_math_comb(self, n):
        assert central_binomial(n) == math.comb(n, n // 2)

    @pytest.mark.parametrize("multiple", [1, 2, 3])
    def test_where_the_large_primes_fill_a_chunk(self, multiple):
        # bisect to a length whose count of large primes reaches the multiple of the chunk
        # size that the one below it misses: there the last chunk is full or nearly empty
        target = multiple * _PRIME_CHUNK
        lo, hi = _FACTOR_FROM, 20000
        assert _large_prime_count(lo) < target <= _large_prime_count(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if _large_prime_count(mid) < target:
                lo = mid
            else:
                hi = mid
        for n in (hi - 1, hi, hi + 1):
            assert central_binomial(n) == math.comb(n, n // 2), n

    @pytest.mark.parametrize("chunk", [1, 2, 3, 7])
    def test_every_chunk_size_keeps_the_product(self, monkeypatch, chunk):
        monkeypatch.setattr(formulas, "_PRIME_CHUNK", chunk)
        for n in range(_FACTOR_FROM, _FACTOR_FROM + 16):
            assert central_binomial(n) == math.comb(n, n // 2), n

    def test_large_primes_memory(self):
        # the primes above sqrt(n) are multiplied in chunks as the sieve yields them;
        # listing all of them first traced 581 KiB here
        tracemalloc.start()
        try:
            _factored_central_binomial(99998)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 300 * 2**10

    @pytest.mark.parametrize("n", [2.0, 3000.0])
    def test_non_int_rejected_on_both_sides(self, n):
        with pytest.raises(TypeError):
            central_binomial(n)


def _large_prime_count(n):
    """How many primes above sqrt(n) divide C(n, floor(n/2)); each divides it once."""
    k = n // 2
    return sum(
        1
        for p in range(math.isqrt(n) + 1, n + 1)
        if all(p % d for d in range(2, math.isqrt(p) + 1)) and n // p - k // p - (n - k) // p
    )


class TestConvolutionFold:
    """The folded self-convolution equals the sum over every k, written out unfolded."""

    def test_matches_the_unfolded_sum(self):
        bs = list(islice(central_binomials(), 600))
        for n in range(601):
            assert _convolution(n, bs) == sum(bs[k] * bs[n - k - 1] for k in range(n)), n


class TestOracleEquivalence:
    """Every closed form equals the brute-force total at every tested length."""

    @pytest.mark.parametrize("n", range(12))
    def test_all_counters(self, n):
        row = totals_brute(n)
        assert central_binomial(n) == row.ddp
        assert dyck_count(n) == row.dyck
        assert u_closed(n) == row.ups == row.downs
        assert r_closed(n) == row.rights
        assert a_closed(n) == row.one_ascents
        assert totals_closed(n) == row

    @pytest.mark.parametrize("k", range(6))
    def test_catalan_counts_dyck_paths(self, k):
        assert catalan(k) == sum(1 for _ in enumerate_dyck(2 * k))


class TestIdentitiesAtScale:
    def test_half_even_binomial(self):
        for ell in range(2, 401, 2):
            assert math.comb(ell, ell // 2) == 2 * math.comb(ell - 1, ell // 2 - 1)

    def test_binomial_shift_identity(self):
        for k in range(1, 201):
            assert (k + 1) * math.comb(2 * k + 1, k) == (2 * k + 1) * math.comb(2 * k, k)

    def test_closed_form_recursions(self):
        for k in range(1, 201):
            assert r_closed(2 * k) == 2 * r_closed(2 * k - 1)
            assert u_closed(2 * k + 1) == 2 * u_closed(2 * k)

    def test_step_total_identity(self):
        for n in range(401):
            assert n * central_binomial(n) == r_closed(n) + 2 * u_closed(n)

    def test_ascent_total_consistency(self):
        for n in range(401):
            assert a_closed(n + 2) == central_binomial(n) + u_closed(n) + r_closed(n)

    def test_convolution_identity(self):
        for n in range(301):
            assert r_convolution(n) == r_closed(n)

    def test_exactness_at_large_n(self):
        # unbounded integers end to end: no rounding at hundreds of bits
        n = 1000
        assert r_closed(n) + central_binomial(n) == 1 << n
        assert a_closed(n + 2) * 2 == (1 << n) + (n + 1) * central_binomial(n)


class TestAsymptotics:
    def test_defined_at_m1(self):
        est = a_asymptotic(1)
        assert est.value > 0
        assert math.isfinite(est.log2)

    def test_value_matches_log2_when_representable(self):
        est = a_asymptotic(50)
        assert est.value == pytest.approx(2.0 ** est.log2)

    def test_value_overflows_to_inf(self):
        assert a_asymptotic(2000).value == math.inf
        assert math.isfinite(a_asymptotic(2000).log2)

    def test_ratio_within_one_percent_at_1000(self):
        assert abs(asymptotic_ratio(1000) - 1.0) <= 0.01

    def test_ratio_converges(self):
        deviations = [abs(asymptotic_ratio(m) - 1.0) for m in (100, 1000, 10000)]
        assert deviations == sorted(deviations, reverse=True)

    def test_ratio_rejects_tiny_m(self):
        with pytest.raises(ValueError, match="m >= 2"):
            asymptotic_ratio(1)
        with pytest.raises(ValueError, match="m >= 1"):
            a_asymptotic(0)

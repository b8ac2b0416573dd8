"""Tests for the F-tail machinery.

Reference values come from three independent oracles, all reproducible
from this file: adaptive quadrature of the beta density, a
high-precision mixture series evaluated with mpmath, and closed forms
that exist for special parameter values (binomial tails for integer
shapes, the arcsine law for half-integer shapes).  The frozen constants
below were computed with those oracles and are asserted against the
package's own continued-fraction, expansion and recurrence implementations.
"""

import logging
import math
import numbers
import re
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

import f_oracle
from f_oracle import regularized_incomplete_beta
from wedgepower import distributions
from wedgepower.distributions import (
    central_f_cdf,
    central_f_quantile,
    noncentral_f_cdf,
    power_from_f,
)

REL = 1e-12
ROUND_TRIP_TOL = 1e-9
REDUCTION_TOL = 1e-10


def ibeta_quadrature(a: float, b: float, x: float) -> float:
    """Oracle: integrate the beta density directly."""
    ln_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - ln_norm)

    value, _ = quad(density, 0.0, x, epsabs=1e-14, epsrel=1e-13)
    return value


def ncf_cdf_series(x: float, ndf: int, ddf: int, lam: float) -> float:
    """Oracle: mixture series from j=0 at 40 working digits."""
    with mp.workdps(40):
        a = mp.mpf(ndf) / 2
        b = mp.mpf(ddf) / 2
        u = mp.mpf(ndf) * x / (mp.mpf(ndf) * x + ddf)
        half = mp.mpf(lam) / 2
        total = mp.mpf(0)
        for j in range(400):
            weight = mp.e ** (-half) * half**j / mp.factorial(j)
            total += weight * mp.betainc(a + j, b, 0, u, regularized=True)
        return float(total)


def ncf_cdf_mode_mixture(x: float, ndf: int, ddf: int, lam: float) -> float:
    """Oracle: mixture over 20 Poisson SDs around the mode at 30 working digits.

    The same two-term recurrence as the package, I_(j+1) = I_j - t_j,
    from one mpmath incomplete beta at the mode.  The Poisson weight
    beyond 20 SDs is below 1e-80 for the noncentralities used here.
    """
    with mp.workdps(30):
        a = mp.mpf(ndf) / 2
        b = mp.mpf(ddf) / 2
        u = mp.mpf(ndf) * x / (mp.mpf(ndf) * x + ddf)
        half = mp.mpf(lam) / 2
        mode = int(half)
        reach = int(20 * math.sqrt(lam / 2)) + 1
        weight0 = mp.exp(mode * mp.log(half) - half - mp.loggamma(mode + 1))
        beta0 = mp.betainc(a + mode, b, 0, u, regularized=True)
        # t_j = u^(a+j) (1-u)^b / ((a+j) B(a+j, b))
        step0 = mp.exp(
            (a + mode) * mp.log(u) + b * mp.log1p(-u)
            - mp.log(a + mode) - mp.log(mp.beta(a + mode, b))
        )
        total = weight0 * beta0
        weight, beta, step = weight0, beta0, step0
        for j in range(mode, mode + reach):
            beta -= step
            step *= u * (a + j + b) / (a + j + 1)
            weight *= half / (j + 1)
            total += weight * beta
        weight, beta, step = weight0, beta0, step0
        for j in range(mode, max(mode - reach, 0), -1):
            step *= (a + j) / (u * (a + j - 1 + b))
            beta += step
            weight *= j / half
            total += weight * beta
        return float(total)


def f_quantile_bisection(p: float, ndf: int, ddf: int) -> float:
    """Oracle: pure bisection on the cdf, independent of the Newton path."""
    lo, hi = 0.0, 1.0
    while central_f_cdf(hi, ndf, ddf) < p:
        lo, hi = hi, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if central_f_cdf(mid, ndf, ddf) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def work_of(call):
    """Python and builtin calls made while call() runs, a count of its
    work, and what it returned or the ValueError it raised."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        count += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        outcome = call()
    except ValueError as exc:
        outcome = exc
    finally:
        sys.setprofile(None)
    return count, outcome


class TestRegularizedIncompleteBeta:
    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_uniform_case(self):
        # a = b = 1 is the uniform cdf
        for x in (0.1, 0.25, 0.7, 0.99):
            assert regularized_incomplete_beta(1.0, 1.0, x) == pytest.approx(x, rel=REL)

    def test_symmetry_at_half(self):
        for a in (0.5, 1.0, 2.5, 7.0, 31.0):
            assert regularized_incomplete_beta(a, a, 0.5) == pytest.approx(0.5, rel=REL)

    def test_integer_shapes_binomial_closed_form(self):
        # I_x(3, 5) = P(Bin(7, x) >= 3); at x = 0.4 that is exactly 0.580096
        assert regularized_incomplete_beta(3.0, 5.0, 0.4) == pytest.approx(
            0.580096, rel=REL
        )

    def test_arcsine_closed_form(self):
        # a = b = 1/2: I_x = (2/pi) asin(sqrt(x))
        for x in (0.1, 0.3, 0.62, 0.9):
            expected = (2.0 / math.pi) * math.asin(math.sqrt(x))
            assert regularized_incomplete_beta(0.5, 0.5, x) == pytest.approx(
                expected, rel=REL
            )

    def test_frozen_quadrature_values(self):
        # computed with ibeta_quadrature above
        cases = [
            (3.0, 5.0, 0.4, 0.580096),
            (2.5, 7.0, 0.15, 0.22449093026249464),
            (0.5, 0.5, 0.3, 0.3690101195655454),
            (16.0, 0.5, 0.97, 0.327281509279153),
        ]
        for a, b, x, frozen in cases:
            got = regularized_incomplete_beta(a, b, x)
            assert got == pytest.approx(frozen, rel=1e-11)
            assert got == pytest.approx(ibeta_quadrature(a, b, x), rel=1e-10)

    def test_against_high_precision_grid(self):
        for a in (0.5, 1.5, 4.0, 22.0):
            for b in (0.5, 2.0, 9.5, 40.0):
                for x in (0.03, 0.3, 0.5, 0.82, 0.99):
                    with mp.workdps(30):
                        want = float(mp.betainc(a, b, 0, x, regularized=True))
                    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                        want, rel=1e-10, abs=1e-14
                    )

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            regularized_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            regularized_incomplete_beta(1.0, 1.0, 1.5)

    @given(
        a=st.floats(0.5, 50.0),
        b=st.floats(0.5, 50.0),
        x=st.floats(0.01, 0.99),
        bump=st.floats(0.001, 0.2),
    )
    def test_monotone_in_x(self, a, b, x, bump):
        hi = min(x + bump, 1.0)
        assert regularized_incomplete_beta(a, b, x) <= regularized_incomplete_beta(
            a, b, hi
        ) + 1e-12


def mp_ibeta(a: float, b: float, x: float):
    """Oracle: I_x(a, b) at 50 working digits."""
    with mp.workdps(50):
        return mp.betainc(a, b, 0, x, regularized=True)


def bgrat_point(a: float, z: float) -> tuple[float, float]:
    """x and 1 - x, an exact pair, with -(a - 1/4) log x about z."""
    x = 1.0 + math.expm1(-z / (a - 0.25))
    return x, 1.0 - x


def bgrat_reach(a: float) -> float:
    """The largest z of the BGRAT region at a: 200, or where 1 - x = 0.3."""
    return min(200.0, -(a - 0.25) * math.log(0.7))


def bgrat_inside(a: float, z: float) -> tuple[float, float]:
    """bgrat_point(a, z), with x moved up by ulps until _ibeta's region test holds.

    _ibeta tests the rounded 1 - x, whose relative error reaches 2.4e-9
    at a = 4.4e9, so a z a relative 1e-9 inside the region can round to
    a point outside it.
    """
    x, omx = bgrat_point(a, z)
    while not (omx < 0.3 and (0.25 - a) * math.log1p(-omx) <= 200.0):
        x = math.nextafter(x, 2.0)
        omx = 1.0 - x
    return x, omx


def assert_routed_to_bgrat(a: float, x: float, omx: float) -> float:
    got = distributions._ibeta(a, 0.5, x, omx)
    assert got == distributions._bgrat(a, math.log1p(-omx))
    return got


class TestBgrat:
    """TOMS 708's BGRAT, which _ibeta takes for I_x(a, 1/2) at a >= 15,
    1 - x < 0.3 and z = -(a - 1/4) log x <= 200, against 50 digits."""

    @settings(max_examples=300, deadline=None)
    @given(log_a=st.floats(math.log10(15.0), math.log10(5e9)), log_share=st.floats(-12, 0))
    # bgrat_point rounds this one to z = 200.0000000036, outside the region
    @example(log_a=9.643734048000262, log_share=0.0)
    def test_matches_high_precision_over_its_region(self, log_a, log_share):
        a = 10**log_a
        x, omx = bgrat_inside(a, bgrat_reach(a) * (1.0 - 1e-9) * 10**log_share)
        assume(omx > 0.0)
        got = assert_routed_to_bgrat(a, x, omx)
        want = mp_ibeta(a, 0.5, x)
        # the relative error of I_x follows that of z, about z ulps
        tol = 1e-14 if want >= 1e-6 else 1e-13
        assert abs(got - want) <= tol * want

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(15.0, 500.0), log_share=st.floats(-12, 0))
    def test_agrees_with_the_continued_fraction_where_that_is_exact(self, a, log_share):
        x, omx = bgrat_inside(a, bgrat_reach(a) * (1.0 - 1e-9) * 10**log_share)
        got = assert_routed_to_bgrat(a, x, omx)
        want = f_oracle.continued_fraction_ibeta(a, 0.5, x, omx)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "a,omx",
        [
            (15.0, 0.3),
            (15.0, 2.0**-53),
            (200.0 / -math.log(0.7) + 0.25, 0.3),
            (5e9, bgrat_point(5e9, 200.0)[1]),
            (5e9, 2.0**-53),
        ],
    )
    def test_corners_converge_within_seven_terms(self, monkeypatch, a, omx):
        x = 1.0 - math.nextafter(omx, 0.0)  # 1 - x = 0.3 lies outside
        omx = 1.0 - x
        monkeypatch.setattr(distributions, "_BGRAT_D", distributions._BGRAT_D[:7])
        got = assert_routed_to_bgrat(a, x, omx)
        assert got == pytest.approx(float(mp_ibeta(a, 0.5, x)), rel=1e-13, abs=0.0)

    def test_region_edges_take_the_continued_fraction(self, monkeypatch):
        monkeypatch.setattr(distributions, "_bgrat", None)
        for a, x in ((14.5, 0.9), (15.0, 0.7), (1e4, bgrat_point(1e4, 200.5)[0])):
            assert distributions._ibeta(a, 0.5, x, 1.0 - x) > 0.0
        assert distributions._ibeta(20.0, 0.6, 0.9, 0.1) > 0.0

    def test_refuses_a_sum_that_does_not_converge(self, monkeypatch):
        monkeypatch.setattr(distributions, "_BGRAT_D", distributions._BGRAT_D[:1])
        with pytest.raises(ValueError, match="expansion failed to converge"):
            distributions._bgrat(15.0, math.log(0.75))

    def test_large_first_shape_near_the_fraction_switch_point(self):
        # near the continued fraction's switch point, where its 1 + aa d
        # cancels: it is 2.8e-13 off here
        x = 1.0 - 2.6e-4
        omx = 1.0 - x
        got = distributions._ibeta(9640.0, 0.5, x, omx)
        assert got == pytest.approx(float(mp_ibeta(9640.0, 0.5, x)), rel=1e-14)

    def test_no_sawtooth_about_the_root_at_ddf_1e6(self):
        # the continued fraction's stopping term moves with x, so its error
        # jumps by up to 9e-11 as 1 - x moves by 2e-12 about this root
        a = 5e5
        _, root = distributions._beta_inverse(a, 0.5, 0.05)
        for k in range(-100, 100):
            omx = root * (1.0 + k * 1e-12)
            x = 1.0 - omx
            got = distributions._ibeta(a, 0.5, x, 1.0 - x)
            assert got == pytest.approx(float(mp_ibeta(a, 0.5, x)), rel=1e-14)

    def test_power_takes_at_most_one_continued_fraction(self, monkeypatch):
        # from ddf 30 at alpha 0.05 and 0.01 the critical value's one
        # incomplete beta is BGRAT, so only the mixture's mode tail may
        # run the continued fraction
        calls = []
        real = distributions._betacf

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(distributions, "_betacf", counting)
        counts = {}
        for ddf in (30, 38, 100, 1000, 10**4, 77981, 10**5, 10**6, 10**7, 10**8, 10**9):
            for alpha in (0.05, 0.01):
                for fvalue in (0.0, 1.0, 8.0, 30.0, 200.0):
                    calls.clear()
                    power_from_f(fvalue, 1, ddf, alpha)
                    counts[ddf, alpha, fvalue] = len(calls)
        assert max(counts.values()) == 1
        assert {key for key, count in counts.items() if count} == {
            key for key in counts if key[2] >= 2.0
        }


class TestCentralFCdf:
    def test_zero_and_negative(self):
        assert central_f_cdf(0.0, 3, 7) == 0.0
        assert central_f_cdf(-2.0, 3, 7) == 0.0

    def test_median_of_symmetric_case(self):
        # equal degrees of freedom put the median exactly at 1
        for d in (1, 2, 7, 32, 200):
            assert central_f_cdf(1.0, d, d) == pytest.approx(0.5, rel=REL)

    def test_one_one_closed_form(self):
        # F(1,1) cdf is (2/pi) atan(sqrt(x))
        for x in (0.2, 1.0, 5.0, 100.0):
            expected = (2.0 / math.pi) * math.atan(math.sqrt(x))
            assert central_f_cdf(x, 1, 1) == pytest.approx(expected, rel=REL)

    def test_frozen_values(self):
        # computed from the beta-density quadrature oracle via the
        # x -> ndf*x/(ndf*x + ddf) change of variable
        cases = [
            (4.149, 1, 32, 0.9499974667249982),
            (2.0, 3, 17, 0.8477595186888573),
            (0.5, 5, 5, 0.23251131913037862),
            (10.0, 2, 2, 0.9090909090909091),
        ]
        for x, ndf, ddf, frozen in cases:
            assert central_f_cdf(x, ndf, ddf) == pytest.approx(frozen, rel=1e-12)
            u = ndf * x / (ndf * x + ddf)
            assert central_f_cdf(x, ndf, ddf) == pytest.approx(
                ibeta_quadrature(ndf / 2.0, ddf / 2.0, u), rel=1e-10
            )

    def test_df_validation(self):
        with pytest.raises(ValueError):
            central_f_cdf(1.0, 0, 5)
        with pytest.raises(ValueError):
            central_f_cdf(1.0, 2, -1)
        with pytest.raises(ValueError):
            central_f_cdf(1.0, 2.5, 5)
        with pytest.raises(ValueError, match="ndf must be a positive integer"):
            central_f_cdf(2.0, "1", 10)


class TestCentralFQuantile:
    def test_p_zero(self):
        assert central_f_quantile(0.0, 3, 9) == 0.0

    def test_median_symmetric(self):
        for d in (1, 4, 25):
            assert central_f_quantile(0.5, d, d) == pytest.approx(1.0, rel=1e-10)

    def test_frozen_critical_values(self):
        # computed with f_quantile_bisection above
        cases = [
            (0.95, 1, 32, 4.149097445699548),
            (0.95, 1, 7, 5.591447851220738),
            (0.99, 3, 17, 5.18499991729522),
            (0.95, 1, 45, 4.056612461101311),
        ]
        for p, ndf, ddf, frozen in cases:
            got = central_f_quantile(p, ndf, ddf)
            assert got == pytest.approx(frozen, rel=1e-10)
            assert got == pytest.approx(f_quantile_bisection(p, ndf, ddf), rel=1e-10)

    def test_round_trip_grid(self):
        for p in (0.001, 0.05, 0.3, 0.5, 0.9, 0.975, 0.999):
            for ndf, ddf in ((1, 1), (1, 7), (3, 17), (10, 123), (2, 2), (1, 100000)):
                x = central_f_quantile(p, ndf, ddf)
                assert central_f_cdf(x, ndf, ddf) == pytest.approx(
                    p, abs=ROUND_TRIP_TOL
                )

    @settings(max_examples=150)
    @given(
        p=st.floats(0.001, 0.999),
        ndf=st.integers(1, 200),
        ddf=st.integers(1, 500),
    )
    def test_round_trip_property(self, p, ndf, ddf):
        x = central_f_quantile(p, ndf, ddf)
        assert abs(central_f_cdf(x, ndf, ddf) - p) <= ROUND_TRIP_TOL

    def test_domain(self):
        with pytest.raises(ValueError):
            central_f_quantile(1.0, 2, 3)
        with pytest.raises(ValueError):
            central_f_quantile(-0.1, 2, 3)


class TestNoncentralFCdf:
    def test_zero_x(self):
        assert noncentral_f_cdf(0.0, 2, 9, 4.0) == 0.0
        assert noncentral_f_cdf(-1.0, 2, 9, 4.0) == 0.0

    def test_reduces_to_central_at_zero(self):
        for x in (0.2, 1.0, 3.7):
            for ndf, ddf in ((1, 5), (4, 40), (2, 10)):
                assert abs(
                    noncentral_f_cdf(x, ndf, ddf, 0.0) - central_f_cdf(x, ndf, ddf)
                ) <= REDUCTION_TOL

    def test_frozen_series_values(self):
        # computed with ncf_cdf_series above
        cases = [
            (2.0, 3, 17, 5.0, 0.4018862641544303),
            (5.5, 1, 7, 12.0, 0.15323747288931855),
            (0.7, 4, 9, 2.5, 0.1973281687414727),
            (3.2, 6, 40, 25.0, 0.1459838286918226),
            (4.149097445699548, 1, 32, 8.5, 0.1929632848527802),
        ]
        for x, ndf, ddf, lam, frozen in cases:
            got = noncentral_f_cdf(x, ndf, ddf, lam)
            assert got == pytest.approx(frozen, rel=1e-11)
            assert got == pytest.approx(ncf_cdf_series(x, ndf, ddf, lam), rel=1e-11)

    @pytest.mark.parametrize(
        "call,lam",
        [
            (lambda: power_from_f(1e9, 1, 1, 1e-6), 1e9),
            (lambda: power_from_f(1e10, 1, 1, 1e-6), 1e10),
            (lambda: noncentral_f_cdf(1.2e10, 1, 32, 1e10), 1e10),
            (lambda: noncentral_f_cdf(1.2e11, 1, 32, 1e11), 1e11),
        ],
    )
    def test_out_of_terms_refused_not_truncated(self, call, lam):
        # a partial sum was 3e-7 to 0.48 off mpmath's values here; the
        # power stays exact when the terms left out are negligible
        # (test_mc's power of 1 at a noncentrality of about 3e11)
        with pytest.raises(ValueError, match=rf"noncentrality {lam!r} is too large"):
            call()

    @pytest.mark.parametrize(
        "call,lam",
        [
            (lambda: power_from_f(1e9, 1, 1, 1e-6), 1e9),
            (lambda: power_from_f(1e10, 1, 1, 1e-6), 1e10),
            (lambda: noncentral_f_cdf(1.2e10, 1, 32, 1e10), 1e10),
        ],
    )
    def test_refuses_before_sweeping(self, call, lam):
        # the bound at the end of the term budget is known before a sweep
        # starts; a sweep of the whole budget makes 200,000 calls
        calls, error = work_of(call)
        assert isinstance(error, ValueError)
        assert re.match(rf"noncentrality {lam!r} is too large", str(error))
        assert calls < 5_000

    @pytest.mark.parametrize("lam", [2e7, 1e8])
    @pytest.mark.parametrize("ddf", [32, 1000])
    def test_sweeps_past_the_budget_that_matter_run(self, monkeypatch, lam, ddf):
        # 40 Poisson SDs outrun the term budget, but the budget's end leaves
        # out less than the tolerance: both sweeps are bounded, then run
        decisions = []

        def spy(*args, **kwargs):
            decisions.append(sweep_matters(*args, **kwargs))
            return decisions[-1]

        sweep_matters = distributions._sweep_matters
        monkeypatch.setattr(distributions, "_sweep_matters", spy)
        mean, var = stats.ncf.stats(1, ddf, lam, moments="mv")
        for x in (float(mean - 2 * math.sqrt(var)), float(mean + 2 * math.sqrt(var))):
            got = noncentral_f_cdf(x, 1, ddf, lam)
            assert got == pytest.approx(stats.ncf.cdf(x, 1, ddf, lam), rel=0, abs=2e-12)
        assert decisions == [True] * 4

    @pytest.mark.parametrize("lam", [2.0**53 * (1 + 2**-52), 1e35, 1e300])
    def test_noncentrality_past_exact_poisson_counts_is_refused(self, lam):
        # the sweeps' bounds divided by zero from about 5e20, and the mode's
        # Stirling term overflowed near 1e300
        with pytest.raises(ValueError, match=r"at most 2\*\*53, got"):
            power_from_f(lam, 1, 32, 0.05)
        with pytest.raises(ValueError, match=r"at most 2\*\*53, got"):
            noncentral_f_cdf(lam, 1, 32, lam)
        assert power_from_f(2.0**53, 1, 32, 0.05).power == 1.0

    def test_power_one_skips_sweeps_that_add_nothing(self):
        # example1 with means 1e6 apart: every tail a sweep could meet is
        # below the tolerance, so neither sweep runs; the complemented sum
        # keeps that absolute rule where a power's own sum is relative
        for lam, ddf in ((3.4e11, 32), (1e12, 109)):
            calls, result = work_of(lambda: power_from_f(lam, 1, ddf, 0.05))
            assert result.power == 1.0
            assert calls < 5_000

    def test_tiny_powers_past_the_term_budget_follow_their_growth_law(self):
        # at alpha 1e-100 and ddf 5 the power grows as lambda^2.5; a skip
        # rule of 1e-13 absolute dropped the sweeps from 1.26e7 on and
        # read about 3,150 times too low there
        lams = (1.2e7, 1.25e7, 1.26e7, 2e7, 1e8)
        powers = [power_from_f(lam, 1, 5, 1e-100).power for lam in lams]
        assert powers == sorted(powers)
        for lam, power in zip(lams, powers):
            law = powers[0] * (lam / lams[0]) ** 2.5
            assert power == pytest.approx(law, rel=1e-4, abs=0.0)

    @pytest.mark.parametrize("lam", [1e2, 1e4, 1e6])
    def test_tiny_powers_keep_their_relative_precision(self, lam):
        # the downward sweep of an upper-tail sum stopped on 1e-13
        # absolute, after one term where every tail is far below it, and
        # read 30-50% low; a 60-digit mpmath mixture agrees with scipy here
        result = power_from_f(lam, 1, 5, 1e-100)
        want = stats.ncf.sf(result.fcrit, 1, 5, lam)
        assert result.power == pytest.approx(want, rel=1e-11, abs=0.0)

    def test_large_noncentrality_stays_stable(self):
        # the mode-centered expansion must not underflow to garbage
        value = noncentral_f_cdf(120.0, 2, 30, 3000.0)
        assert 0.0 <= value <= 1e-40

    @pytest.mark.parametrize(
        "lam,ddf,sds,tol",
        [
            *[
                (lam, ddf, sds, 3e-13)
                for lam in (1e4, 1e5)
                for ddf in (32, 1000)
                for sds in (-2.0, 2.0)
            ],
            # within one SD of the mean about 2e-13 more remains at a
            # tighter truncation (ROADMAP item 6)
            (1e5, 32, -1.0, 4e-13),
            (1e5, 1000, 0.0, 4e-13),
        ],
    )
    def test_large_noncentrality_matches_high_precision_mixture(self, lam, ddf, sds, tol):
        # each sweep may leave out 1e-13 of Poisson mass: 2e-13 in all
        mean = ddf * (1 + lam) / (ddf - 2)
        var = 2 * ddf**2 * ((1 + lam) ** 2 + (1 + 2 * lam) * (ddf - 2))
        x = mean + sds * math.sqrt(var / ((ddf - 2) ** 2 * (ddf - 4)))
        want = ncf_cdf_mode_mixture(x, 1, ddf, lam)
        # the oracle itself: scipy's Boost ncf agrees with it to about 1.5e-14
        assert stats.ncf.cdf(x, 1, ddf, lam) == pytest.approx(want, rel=0.0, abs=5e-14)
        assert noncentral_f_cdf(x, 1, ddf, lam) == pytest.approx(want, rel=0.0, abs=tol)

    def test_default_truncation_matches_series(self):
        for lam in (3.0, 18.0, 80.0):
            got = noncentral_f_cdf(3.0, 2, 20, lam)
            assert got == pytest.approx(ncf_cdf_series(3.0, 2, 20, lam), rel=1e-11)

    def test_domain(self):
        with pytest.raises(ValueError):
            noncentral_f_cdf(1.0, 2, 9, -0.5)
        with pytest.raises(ValueError):
            noncentral_f_cdf(1.0, 2, 9, float("nan"))

    @settings(max_examples=150)
    @given(
        x=st.floats(0.05, 20.0),
        ndf=st.integers(1, 40),
        ddf=st.integers(1, 200),
        lam=st.floats(0.0, 60.0),
        extra=st.floats(0.1, 30.0),
    )
    def test_decreasing_in_noncentrality(self, x, ndf, ddf, lam, extra):
        smaller = noncentral_f_cdf(x, ndf, ddf, lam + extra)
        larger = noncentral_f_cdf(x, ndf, ddf, lam)
        assert smaller <= larger + 1e-12


class TestPoissonWeight:
    @staticmethod
    def mp_pmf(j: int, mean: float) -> float:
        with mp.workdps(40):
            return float(mp.exp(j * mp.log(mean) - mean - mp.loggamma(j + 1)))

    @pytest.mark.parametrize("mean", [1e3, 1e4, 1e5, 1e6])
    def test_mode_weight_matches_mpmath(self, mean):
        # the direct log form was 1e-13 to 7e-10 off here
        for j in (int(mean), int(mean + 3 * math.sqrt(mean))):
            got = distributions._poisson_pmf(j, mean)
            assert got == pytest.approx(self.mp_pmf(j, mean), rel=1e-13, abs=0.0)

    def test_sums_near_one_keep_the_mode_weight_exact(self):
        # the direct log form's error in the mode weight scales every term:
        # both sums below were 7.4e-11 short
        fcrit = power_from_f(1e5, 1, 32, 0.05).fcrit
        u, omu = distributions._f_to_beta(fcrit, 1, 32)
        upper = distributions._mixture(0.5, 16.0, u, omu, 5e4, upper=True)
        assert upper == pytest.approx(1.0, rel=0.0, abs=1e-12)
        # mpmath's mixture over 12 Poisson standard deviations, 30 digits
        cdf = noncentral_f_cdf(1e6, 1, 32, 1e5)
        assert cdf == pytest.approx(0.9999999999802824, rel=0.0, abs=1e-12)


class TestPowerFromF:
    @pytest.mark.parametrize("ddf", [1, 2, 3, 5, 10, 30, 100, 10**3, 10**4, 10**5, 10**6])
    @pytest.mark.parametrize("alpha", [0.05, 0.01, 1e-6])
    def test_comparison_guards_match_the_builtin_calls(self, ddf, alpha):
        # the Lentz guards, the shape order and the mixture clamps compare
        # where abs, min and max were called: every figure is unchanged
        noncentralities = (0.0, 1e-3, 0.3, 1.0, 3.0, 8.5, 30.0, 100.0, 1e3, 1e4)
        got = [power_from_f(lam, 1, ddf, alpha) for lam in noncentralities]
        with f_oracle.builtin_guards():
            want = [power_from_f(lam, 1, ddf, alpha) for lam in noncentralities]
        assert got == want

    @pytest.mark.parametrize("ndf, ddf", [(1, 32), (3, 10**6), (5, 10**4)])
    def test_cdf_clamps_match_the_builtin_calls(self, ndf, ddf):
        # at x = 100 and noncentrality 300 the last two shapes' sweeps
        # round a tail past 1, so the clamp binds there
        points = [(x, lam) for x in (1.0, 3.0, 100.0) for lam in (3.0, 300.0)]
        got = [noncentral_f_cdf(x, ndf, ddf, lam) for x, lam in points]
        with f_oracle.builtin_guards():
            want = [noncentral_f_cdf(x, ndf, ddf, lam) for x, lam in points]
        assert got == want

    def test_null_fvalue_recovers_alpha(self):
        for alpha in (0.01, 0.05, 0.2):
            for ndf, ddf in ((1, 7), (1, 45), (3, 100)):
                result = power_from_f(0.0, ndf, ddf, alpha)
                assert abs(result.power - alpha) <= 1e-9

    def test_frozen_power_value(self):
        # noncentrality 8.5 with 1 and 32 degrees of freedom; frozen from
        # the series oracle in this file
        result = power_from_f(8.5, 1, 32, 0.05)
        assert result.power == pytest.approx(0.8070367151472021, rel=1e-10)
        assert result.noncentrality == pytest.approx(8.5, rel=1e-15)
        assert result.fcrit == pytest.approx(4.149097445699548, rel=1e-10)
        assert result.ndf == 1 and result.ddf == 32

    def test_large_ddf_matches_normal_approximation(self):
        # as ddf grows the two-sided test tends to the normal limit
        # Phi(sqrt(lambda) - z_{0.975})
        result = power_from_f(8.5, 1, 10**6, 0.05)
        z = 1.959963984540054
        limit = 0.5 * (1.0 + math.erf((math.sqrt(8.5) - z) / math.sqrt(2.0)))
        assert result.power == pytest.approx(limit, abs=1e-3)

    def test_monotone_in_fvalue(self):
        powers = [power_from_f(f, 1, 20, 0.05).power for f in (0.0, 1.0, 4.0, 9.0, 16.0)]
        assert powers == sorted(powers)
        assert powers[0] == pytest.approx(0.05, abs=1e-9)

    def test_monotone_in_ddf(self):
        # more denominator information can only help at fixed noncentrality
        powers = [power_from_f(8.5, 1, d, 0.05).power for d in (5, 10, 30, 100, 1000)]
        assert powers == sorted(powers)

    def test_policy_label_passthrough(self):
        result = power_from_f(2.0, 1, 9, 0.05, ddf_policy="containment")
        assert result.ddf_policy == "containment"
        assert power_from_f(2.0, 1, 9, 0.05).ddf_policy is None

    def test_domain(self):
        with pytest.raises(ValueError):
            power_from_f(-1.0, 1, 9, 0.05)
        with pytest.raises(ValueError):
            power_from_f(1.0, 1, 9, 0.0)
        with pytest.raises(ValueError):
            power_from_f(1.0, 1, 9, 1.0)

    @settings(max_examples=100)
    @given(
        fvalue=st.floats(0.0, 40.0),
        ndf=st.integers(1, 10),
        ddf=st.integers(2, 300),
        alpha=st.floats(0.005, 0.2),
    )
    def test_power_bounded_and_above_alpha(self, fvalue, ndf, ddf, alpha):
        result = power_from_f(fvalue, ndf, ddf, alpha)
        assert 0.0 <= result.power <= 1.0
        # a noncentral F is stochastically larger than the central one
        assert result.power >= alpha - 1e-9


# the grid of the quantile differential test and of the evaluation count
GRID_NDF = range(1, 11)
GRID_DDF = (1, 2, 3, 5, 10, 30, 100, 1000, 10**4, 10**5)
GRID_ALPHA = (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.25, 0.5)


def oracle_rounding(x: float, ndf: int, ddf: int) -> float:
    """Relative shift of the oracle's quantile from a few ulps of error in
    its cdf, which it solves near 1 at p = 1 - alpha."""
    density = math.exp(f_oracle._central_f_logpdf(x, ndf / 2, ddf / 2, ndf, ddf))
    return 4 * sys.float_info.epsilon / (x * density)


def mp_upper_quantile(alpha: float, ndf: int, ddf: int, guess: float) -> float:
    """Oracle: x with P(F > x) = alpha, solved at 50 working digits."""
    with mp.workdps(50):
        a, b = mp.mpf(ndf) / 2, mp.mpf(ddf) / 2

        def excess(x):
            return mp.betainc(b, a, 0, ddf / (ndf * x + ddf), regularized=True) - alpha

        return float(mp.findroot(excess, mp.mpf(guess)))


class TestUpperTailSolve:
    @settings(max_examples=300, deadline=None)
    @given(
        ndf=st.integers(1, 10),
        log_ddf=st.floats(0.0, 5.0),
        log_alpha=st.floats(-6.0, math.log10(0.5)),
    )
    def test_fcrit_matches_oracle_quantile(self, ndf, log_ddf, log_alpha):
        ddf = round(10**log_ddf)
        alpha = 10**log_alpha
        fcrit = power_from_f(0.0, ndf, ddf, alpha).fcrit
        oracle = f_oracle.central_f_quantile(1.0 - alpha, ndf, ddf)
        slack = oracle_rounding(oracle, ndf, ddf)
        assert fcrit == pytest.approx(oracle, rel=1e-10 + slack)

    @pytest.mark.parametrize(
        "ndf,ddf,alpha",
        [
            (1, 1, 1e-6),
            (6, 1, 1.2021214274662129e-06),
            (1, 2, 1e-6),
            (3, 17, 0.01),
            (1, 32, 0.05),
            (10, 100000, 1e-6),
            (2, 1000, 1e-6),
            (1, 9, 1e-20),
            (3, 5, 1e-100),
            (10, 100000, 1e-100),
        ],
    )
    def test_fcrit_matches_high_precision_quantile(self, ndf, ddf, alpha):
        # the oracle above is off by up to 1.3e-10 at ddf = 1, alpha = 1e-6
        fcrit = power_from_f(0.0, ndf, ddf, alpha).fcrit
        assert fcrit == pytest.approx(mp_upper_quantile(alpha, ndf, ddf, fcrit), rel=1e-13)

    @pytest.mark.parametrize(
        "alpha", [1e-100, 1e-50, 1e-20, 1e-14, 1e-10, 1e-6, 0.01, 0.05, 0.3, 0.5]
    )
    @pytest.mark.parametrize(
        "ndf,ddf",
        [(1, 1), (1, 9), (2, 2), (3, 17), (10, 1), (5, 40), (1, 10**5), (10, 10**5)],
    )
    def test_null_power_is_alpha(self, ndf, ddf, alpha):
        power = power_from_f(0.0, ndf, ddf, alpha).power
        assert power == pytest.approx(alpha, rel=1e-10, abs=0.0)

    def test_alpha_with_no_representable_critical_value(self):
        # F(1, 1) exceeds 4e399 with probability 1e-200
        with pytest.raises(ValueError, match="alpha=1e-200 is too small"):
            power_from_f(0.0, 1, 1, 1e-200)

    def test_few_incomplete_beta_evaluations_per_quantile(self, monkeypatch):
        calls = []
        real = distributions._ibeta

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(distributions, "_ibeta", counting)
        counts = []
        for ndf in GRID_NDF:
            for ddf in GRID_DDF:
                for alpha in GRID_ALPHA:
                    # the upper tail that power_from_f solves, and the lower
                    # tail that central_f_quantile solves below 1/2
                    for solve in (
                        lambda: distributions._f_upper_quantile(alpha, ndf, ddf),
                        lambda: central_f_quantile(alpha, ndf, ddf),
                    ):
                        calls.clear()
                        solve()
                        counts.append(len(calls))
        assert max(counts) <= 6

    def test_t_start_takes_one_or_two_evaluations(self, monkeypatch):
        # the F(1, ddf) solve starts at Hill's t quantile: one incomplete
        # beta settles it at the ddf and alphas that trials use
        calls = []
        real = distributions._ibeta

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(distributions, "_ibeta", counting)
        counts = {}
        for ddf in GRID_DDF:
            for alpha in GRID_ALPHA:
                calls.clear()
                distributions._f_upper_quantile(alpha, 1, ddf)
                counts[ddf, alpha] = len(calls)
        assert max(counts.values()) <= 2
        assert {
            key: count
            for key, count in counts.items()
            if key[0] >= 30 and key[1] in (0.05, 0.01) and count != 1
        } == {}

    def test_bisection_fallback_is_logged_and_agrees(self, monkeypatch, caplog):
        halley = [central_f_quantile(p, 3, 17) for p in (0.01, 0.95)]
        monkeypatch.setattr(distributions, "_INV_MAX_HALLEY", 1)
        with caplog.at_level(logging.DEBUG, logger="wedgepower"):
            bisected = [central_f_quantile(p, 3, 17) for p in (0.01, 0.95)]
        assert bisected == pytest.approx(halley, rel=1e-14)
        assert sum("bisecting" in r.getMessage() for r in caplog.records) == 2

    def test_power_tail_matches_series_at_small_alpha(self):
        # upper-tail mixture at the solved critical value against 40 digits
        for fvalue, ndf, ddf, alpha in ((8.5, 1, 32, 1e-8), (3.0, 3, 100, 1e-8)):
            result = power_from_f(fvalue, ndf, ddf, alpha)
            lower = ncf_cdf_series(result.fcrit, ndf, ddf, result.noncentrality)
            assert result.power == pytest.approx(1.0 - lower, abs=1e-13)

    def test_non_real_inputs_name_the_argument(self):
        with pytest.raises(ValueError, match="alpha must be a real number"):
            power_from_f(1.0, 1, 9, "0.05")
        with pytest.raises(ValueError, match="alpha must be a real number"):
            power_from_f(1.0, 1, 9, True)
        with pytest.raises(ValueError, match="fvalue must be finite"):
            power_from_f(None, 1, 9, 0.05)
        with pytest.raises(ValueError, match="p must lie"):
            central_f_quantile("0.5", 1, 9)
        with pytest.raises(ValueError, match="x must be a finite real number"):
            central_f_cdf("2", 1, 9)
        with pytest.raises(ValueError, match="noncentrality must be finite"):
            noncentral_f_cdf(2.0, 1, 9, "1")


# the grid on which the t start is checked against the start it replaced
ORACLE_ALPHA = (1e-100, 1e-50, 1e-20, 1e-10, 1e-6, 1e-3, 0.01, 0.025, 0.05, 0.1, 0.3, 0.5)
ORACLE_DDF = (*range(1, 11), 12, 15, 20, 30, 50, 100, 228, 1000, 10**4, 10**5, 10**6)


class TestDdfLimit:
    # the critical value keeps 1e-15 at any ddf; the noncentral mixture's
    # power error grows with ddf and sets the limit (8.3e-11 absolute at
    # 10**10, 8.1e-9 at 10**12, 4.5e-5 at 10**16), most of it from the
    # continued fraction of the upper mode tail
    @pytest.mark.parametrize("ddf", [10**9, 10**10])
    @pytest.mark.parametrize("alpha", [0.05, 1e-6])
    def test_mixture_takes_log_one_minus_u_from_u(self, ddf, alpha):
        # ddf / 2 multiplies the rounding of log(1 - u) taken from 1 - u
        # alone, which put the power 3.2e-8 off at 10**10 and alpha 0.05,
        # and 3.2e-9 at alpha 1e-6
        for fvalue in (8.0, 22.2):
            result = power_from_f(fvalue, 1, ddf, alpha)
            expected = stats.ncf.sf(result.fcrit, 1, ddf, fvalue)
            assert result.power == pytest.approx(expected, rel=0, abs=5e-10)

    @pytest.mark.parametrize("alpha", [0.05, 1e-6])
    def test_figures_hold_1e_6_at_the_limit(self, alpha):
        ddf = 10**10
        fcrit = stats.f.isf(alpha, 1, ddf)
        for fvalue in (0.0, 8.0, 22.2):
            result = power_from_f(fvalue, 1, ddf, alpha)
            assert result.fcrit == pytest.approx(fcrit, rel=1e-6)
            expected = stats.ncf.sf(fcrit, 1, ddf, fvalue) if fvalue else alpha
            assert result.power == pytest.approx(expected, rel=0, abs=1e-6)

    @pytest.mark.parametrize(
        "call",
        [
            lambda ddf: power_from_f(8.0, 1, ddf, 0.05).power,
            lambda ddf: central_f_cdf(3.84, 1, ddf),
            lambda ddf: central_f_quantile(0.95, 1, ddf),
            lambda ddf: noncentral_f_cdf(3.84, 1, ddf, 8.0),
        ],
    )
    def test_every_f_function_refuses_beyond_it(self, call):
        assert 0.0 < call(10**10) < 4.0
        message = rf"ddf must be at most 10\*\*10 for 1e-6 accuracy, got {10**10 + 1}"
        with pytest.raises(ValueError, match=message):
            call(10**10 + 1)


class TestTStart:
    @pytest.mark.parametrize("ddf", ORACLE_DDF)
    def test_matches_the_nr_start(self, ddf, monkeypatch):
        def figures():
            return [
                power_from_f(fvalue, 1, ddf, alpha)
                for alpha in ORACLE_ALPHA
                for fvalue in (0.0, 2.0, 8.0, 20.0)
            ]

        t_start = figures()
        monkeypatch.setattr(distributions, "_beta_start", f_oracle.nr_beta_start)
        nr_start = figures()
        for new, old in zip(t_start, nr_start):
            assert new.fcrit == pytest.approx(old.fcrit, rel=1e-11)
            assert new.power == pytest.approx(old.power, rel=0.0, abs=1e-11)

    @pytest.mark.parametrize("alpha", [0.05, 0.01, 1e-6])
    @pytest.mark.parametrize(
        "ddf", [30, 38, 1000, 77981, *(10**k for k in range(4, 11))]
    )
    def test_large_ddf_matches_high_precision_quantile(self, ddf, alpha):
        # where the root lies in BGRAT's region, from ddf 30 at alpha 0.05
        # and 0.01, the critical value keeps a few ulps out to ddf 10^10
        fcrit = power_from_f(0.0, 1, ddf, alpha).fcrit
        assert fcrit == pytest.approx(mp_upper_quantile(alpha, 1, ddf, fcrit), rel=2e-15)

    @pytest.mark.parametrize("ddf", [2, 3, 32, 45, 109])
    def test_critical_value_decreases_down_to_subnormal_alpha(self, ddf):
        # F(1, 2)'s critical value, about 1/alpha, overflows at subnormal alpha
        alphas = (5e-324, 1e-320, 1e-300, 1e-100, 0.05)[2 if ddf == 2 else 0 :]
        fcrits = [power_from_f(0.0, 1, ddf, alpha).fcrit for alpha in alphas]
        assert all(math.isfinite(fcrit) for fcrit in fcrits)
        assert all(high > low for high, low in zip(fcrits, fcrits[1:]))

    @pytest.mark.parametrize(
        "ddf,alpha",
        [(1, 1e-199), (1, 1e-200), (1, 1e-300), (1, 5e-324), (2, 1e-320), (2, 5e-324)],
    )
    def test_overflowing_critical_value_is_refused(self, ddf, alpha):
        with pytest.raises(ValueError, match=f"alpha={alpha!r} is too small"):
            power_from_f(0.0, 1, ddf, alpha)


def abc_is_whole(value):
    """is_whole without its exact-type fast paths: the ABC checks alone."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def abc_is_real(value):
    """is_real without its exact-type fast paths: the ABC checks alone."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


NUMBER_CASES = [
    0,
    -7,
    10**400,
    -(10**400),
    True,
    False,
    0.0,
    -0.0,
    1e308,
    -1e308,
    3.0,
    2.5,
    5e-324,
    math.inf,
    -math.inf,
    math.nan,
    np.int64(3),
    np.float64(2.0),
    np.float64(2.5),
    np.float64(math.inf),
    np.float64(math.nan),
    np.bool_(True),
    Fraction(6, 2),
    Fraction(1, 3),
    Decimal("2"),
    Decimal("2.5"),
    Decimal("Infinity"),
    complex(1.0, 0.0),
    "3",
    None,
]


@pytest.mark.parametrize("value", NUMBER_CASES, ids=lambda value: type(value).__name__)
def test_number_checks_match_abc_path(value):
    assert distributions.is_whole(value) is abc_is_whole(value)
    assert distributions.is_real(value) is abc_is_real(value)


@given(st.one_of(st.integers(), st.floats(), st.booleans()))
def test_number_checks_match_abc_path_on_ints_and_floats(value):
    assert distributions.is_whole(value) is abc_is_whole(value)
    assert distributions.is_real(value) is abc_is_real(value)

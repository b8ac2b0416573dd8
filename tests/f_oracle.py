"""Reference F-tail computations that the package's faster paths replaced.

The package solves the F critical value in the upper tail by Halley steps
on the inverse incomplete beta and sums upper-tail mixture terms for the
power.  This module keeps the slower forms they replaced, as oracles for
the differential tests:

* ``central_f_quantile`` brackets the root of ``central_f_cdf(x) - p`` by
  doubling, then refines it with Newton steps that fall back to bisection
  whenever a step leaves the bracket.  It solves at p = 1 - alpha.
* ``power_from_f`` takes that quantile at 1 - alpha and the power as
  ``1 - noncentral_f_cdf`` there.
* ``nr_beta_start`` is Numerical Recipes' ``invbetai`` starting guess,
  which the inverse incomplete beta used for every shape before the
  F(1, ddf) solve started at Hill's t quantile.
* ``regularized_incomplete_beta`` is the validated wrapper over the
  package's private ``_ibeta`` that tests call.
* ``continued_fraction_ibeta`` is ``_ibeta`` with its continued fraction
  at every shape, as it was before TOMS 708's BGRAT expansion took over
  I_x(a, 1/2) at large a and x near 1.
* ``builtin_guards`` runs the F tails with the continued fraction, the
  log beta and the mixture sweeps as they were before their
  guards and clamps became comparisons: ``abs()`` in each Lentz guard,
  ``min``/``max`` to order the shapes and clamp every tail.  The
  arithmetic is the same, so the results must be equal.
"""

from __future__ import annotations

import contextlib
import math
from unittest import mock

from wedgepower import distributions
from wedgepower.distributions import _ibeta, central_f_cdf, noncentral_f_cdf

# the floor of the start's smaller coordinate
FPMIN = 1e-300


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b) for a, b > 0, x in [0, 1]."""
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    return _ibeta(a, b, x, 1.0 - x)


def continued_fraction_ibeta(a: float, b: float, x: float, one_minus_x: float) -> float:
    """_ibeta(a, b, x, 1 - x) by the continued fraction alone."""
    with mock.patch.object(distributions, "_BGRAT_MIN_A", math.inf):
        return _ibeta(a, b, x, one_minus_x)


def nr_beta_start(a: float, b: float, p: float) -> tuple[float, float]:
    """Numerical Recipes' invbetai starting guess for I_x(a, b) = p, as x
    and 1 - x, each computed without cancellation."""
    if a >= 1.0 and b >= 1.0:
        # normal approximation; x = 1 / (1 + exp(r))
        t = math.sqrt(-2.0 * math.log(min(p, 1.0 - p)))
        z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
        if p >= 0.5:
            z = -z
        al = (z * z - 3.0) / 6.0
        inv_a, inv_b = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
        h = 2.0 / (inv_a + inv_b)
        w = z * math.sqrt(al + h) / h
        w -= (inv_b - inv_a) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
        r = math.log(b / a) + 2.0 * w
        e = math.exp(-abs(r))
        small = max(e / (1.0 + e), FPMIN)
        big = 1.0 / (1.0 + e)
        return (small, big) if r > 0.0 else (big, small)
    # power laws in x near 0 and in 1 - x near 1
    t = math.exp(a * math.log(a / (a + b))) / a
    u = math.exp(b * math.log(b / (a + b))) / b
    w = t + u
    if p < t / w:
        log_x = math.log(a * w * p) / a
        return math.exp(log_x), -math.expm1(log_x)
    log_omx = math.log(b * w * (1.0 - p)) / b
    return -math.expm1(log_omx), math.exp(log_omx)


def _central_f_logpdf(x: float, a: float, b: float, ndf: int, ddf: int) -> float:
    nx = ndf * x
    u = nx / (nx + ddf)
    omu = ddf / (nx + ddf)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return (
        (a - 1.0) * math.log(u)
        + (b - 1.0) * math.log(omu)
        - log_beta
        + math.log(ndf)
        + math.log(ddf)
        - 2.0 * math.log(nx + ddf)
    )


def central_f_quantile(p: float, ndf: int, ddf: int) -> float:
    """Quantile of the central F by bracketed Newton on the cdf."""
    if not (0.0 <= p < 1.0):
        raise ValueError(f"p must lie in [0, 1), got {p!r}")
    if p == 0.0:
        return 0.0

    a = 0.5 * ndf
    b = 0.5 * ddf

    lo, hi = 0.0, 1.0
    for _ in range(1200):
        if central_f_cdf(hi, ndf, ddf) >= p:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ValueError(f"failed to bracket quantile for p={p}, ndf={ndf}, ddf={ddf}")

    x = 0.5 * (lo + hi)
    for _ in range(200):
        err = central_f_cdf(x, ndf, ddf) - p
        if err == 0.0:
            return x
        if err > 0.0:
            hi = x
        else:
            lo = x
        step_ok = False
        if x > 0.0:
            logpdf = _central_f_logpdf(x, a, b, ndf, ddf)
            if logpdf > -700.0:
                x_new = x - err / math.exp(logpdf)
                if lo < x_new < hi:
                    step_ok = True
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= 1e-13 * max(1.0, x):
            return x_new
        x = x_new
    return x


def power_from_f(fvalue: float, ndf: int, ddf: int, alpha: float) -> tuple[float, float]:
    """Critical value and power at level alpha, both through the lower tail."""
    fcrit = central_f_quantile(1.0 - alpha, ndf, ddf)
    return fcrit, 1.0 - noncentral_f_cdf(fcrit, ndf, ddf, ndf * fvalue)


def lentz_betacf(a: float, b: float, x: float) -> float:
    """``_betacf`` with an ``abs()`` call in each guard."""
    fpmin, eps = distributions._CF_FPMIN, distributions._CF_EPS
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, distributions._CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ValueError(
        f"incomplete beta continued fraction failed to converge for a={a}, b={b}, x={x}"
    )


def minmax_log_beta(a: float, b: float) -> float:
    """``_log_beta`` with its shapes ordered by ``min`` and ``max``."""
    stirling = distributions._stirling_tail
    p, q = min(a, b), max(a, b)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    corr = stirling(q) - stirling(p + q)
    share = p / (p + q)
    if p < 10.0:
        corr += math.lgamma(p) + p - p * math.log(p + q)
        return corr + (q - 0.5) * math.log1p(-share)
    corr += stirling(p)
    return (
        distributions._LOG_SQRT_2PI
        - 0.5 * math.log(q)
        + corr
        + (p - 0.5) * math.log(share)
        + q * math.log1p(-share)
    )


def clamped_mixture(
    a: float, b: float, u: float, omu: float, half_lam: float, *, upper: bool
) -> float:
    """``_mixture`` with each tail clamped to [0, 1] by ``min(max(...))``."""
    tol, budget = distributions._MIXTURE_TOL, distributions._MIXTURE_MAX_TERMS
    ibeta, pmf = distributions._ibeta, distributions._poisson_pmf
    mode = int(half_lam)
    pois_mode = pmf(mode, half_lam)
    if upper:
        tail_mode = ibeta(b, a + mode, omu, u)
    else:
        tail_mode = ibeta(a + mode, b, u, omu)
    log_omu = math.log(omu) if omu <= 0.5 else math.log1p(-u)
    log_t = (
        (a + mode) * math.log(u)
        + b * log_omu
        - math.log(a + mode)
        - distributions._log_beta(a + mode, b)
    )
    t_mode = math.exp(log_t)
    sign = 1.0 if upper else -1.0
    total = pois_mode * tail_mode
    sweep_up = sweep_down = True
    if distributions._FAR_SD * math.sqrt(half_lam) > budget:
        args = (a, b, u, omu, half_lam, tail_mode, pois_mode)
        sweep_up = distributions._sweep_matters(*args, upper=upper, step=1)
        sweep_down = distributions._sweep_matters(*args, upper=upper, step=-1)

    pois, tail, t_term, j = pois_mode, tail_mode, t_mode, mode
    for _ in range(budget if sweep_up else 0):
        tail = min(max(tail + sign * t_term, 0.0), 1.0)
        t_term *= u * (a + j + b) / (a + j + 1.0)
        pois *= half_lam / (j + 1.0)
        j += 1
        total += pois * tail
        rest = pois * half_lam / (j + 1.0) / (1.0 - half_lam / (j + 2.0))
        if rest * (1.0 if upper else tail) <= tol:
            break

    pois, tail, t_term, j = pois_mode, tail_mode, t_mode, mode
    for _ in range(min(mode, budget) if sweep_down else 0):
        t_term *= (a + j) / (u * (a + j - 1.0 + b))
        tail = min(max(tail - sign * t_term, 0.0), 1.0)
        pois *= j / half_lam
        j -= 1
        total += pois * tail
        rest = pois * j / half_lam / (1.0 - (j - 1.0) / half_lam)
        if rest * (tail if upper else 1.0) <= tol * (total if upper else 1.0):
            break

    return min(max(total, 0.0), 1.0)


@contextlib.contextmanager
def builtin_guards():
    """Run the F tails through ``lentz_betacf``, ``minmax_log_beta`` and
    ``clamped_mixture``."""
    with (
        mock.patch.object(distributions, "_betacf", lentz_betacf),
        mock.patch.object(distributions, "_log_beta", minmax_log_beta),
        mock.patch.object(distributions, "_mixture", clamped_mixture),
    ):
        yield

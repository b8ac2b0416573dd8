"""F-distribution tail machinery for power evaluation.

Implements the regularized incomplete beta function, central F cdf and
quantile, the noncentral F cdf, and the power of a Wald-type F test with
a given noncentrality.  Everything is evaluated with double-precision
series and continued fractions; no external statistics library is used
at runtime.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "PowerResult",
    "regularized_incomplete_beta",
    "central_f_cdf",
    "central_f_quantile",
    "noncentral_f_cdf",
    "power_from_f",
]

# continued fraction controls
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500


def is_whole(value) -> bool:
    """A whole number: a real that is not a bool and has no fraction part."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def _validate_df(ndf: int, ddf: int) -> tuple[int, int]:
    for name, value in (("ndf", ndf), ("ddf", ddf)):
        if not is_whole(value) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(ndf), int(ddf)


@dataclass(frozen=True)
class PowerResult:
    """Outcome of a power evaluation for a single-contrast F test.

    Attributes:
        power: rejection probability of the alternative at level alpha.
        fvalue: noncentrality divided by the numerator degrees of freedom.
        noncentrality: noncentrality parameter of the F statistic.
        fcrit: critical value, the (1 - alpha) quantile of the central F.
        ndf: numerator degrees of freedom.
        ddf: denominator degrees of freedom.
        alpha: two-sided type I error rate of the test.
        ddf_policy: name of the rule that produced ddf, when one was applied.
    """

    power: float
    fvalue: float
    noncentrality: float
    fcrit: float
    ndf: int
    ddf: int
    alpha: float
    ddf_policy: str | None = None


def _betacf(a: float, b: float, x: float) -> float:
    # Lentz continued fraction for the incomplete beta tail.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise ValueError(
        f"incomplete beta continued fraction failed to converge for a={a}, b={b}, x={x}"
    )


def _ibeta(a: float, b: float, x: float, one_minus_x: float) -> float:
    # x and its complement are passed separately so callers can supply an
    # exact complement and avoid cancellation when x is close to 1.
    if x <= 0.0:
        return 0.0
    if one_minus_x <= 0.0:
        return 1.0
    log_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(one_minus_x)
    )
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, one_minus_x) / b


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b).

    Args:
        a: first shape parameter, > 0.
        b: second shape parameter, > 0.
        x: integration limit in [0, 1].

    Returns:
        The probability that a Beta(a, b) variate is <= x.
    """
    if not (a > 0 and b > 0):
        raise ValueError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x!r}")
    return _ibeta(a, b, x, 1.0 - x)


def _f_to_beta(x: float, ndf: int, ddf: int) -> tuple[float, float]:
    # map the F statistic to the beta integration limit and its complement
    nx = ndf * x
    return nx / (nx + ddf), ddf / (nx + ddf)


def central_f_cdf(x: float, ndf: int, ddf: int) -> float:
    """Cdf of the central F distribution with ndf and ddf degrees of freedom."""
    ndf, ddf = _validate_df(ndf, ddf)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x <= 0.0:
        return 0.0
    u, omu = _f_to_beta(x, ndf, ddf)
    return _ibeta(0.5 * ndf, 0.5 * ddf, u, omu)


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
    """Quantile of the central F distribution.

    Solves central_f_cdf(x) = p with a bracketed Newton iteration; falls
    back to bisection whenever a Newton step leaves the bracket.

    Args:
        p: probability in [0, 1).
        ndf: numerator degrees of freedom.
        ddf: denominator degrees of freedom.

    Returns:
        The smallest x with cdf(x) >= p; 0.0 for p = 0.
    """
    ndf, ddf = _validate_df(ndf, ddf)
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


def noncentral_f_cdf(
    x: float,
    ndf: int,
    ddf: int,
    noncentrality: float,
    *,
    tol: float = 1e-13,
    max_terms: int = 100_000,
) -> float:
    """Cdf of the noncentral F distribution.

    Evaluates the Poisson mixture of incomplete beta terms, expanding
    outward from the Poisson mode so that large noncentralities never
    underflow.  Successive beta terms are obtained by a two-term
    recurrence rather than independent continued fractions.

    Args:
        x: evaluation point.
        ndf: numerator degrees of freedom.
        ddf: denominator degrees of freedom.
        noncentrality: noncentrality parameter, >= 0.
        tol: truncation bound on the neglected mixture mass; pass 0.0 to
            spend the full term budget.
        max_terms: hard cap on mixture terms in each direction.

    Returns:
        The probability that the noncentral F variate is <= x.
    """
    ndf, ddf = _validate_df(ndf, ddf)
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if not math.isfinite(noncentrality) or noncentrality < 0.0:
        raise ValueError(
            f"noncentrality must be finite and >= 0, got {noncentrality!r}"
        )
    if tol < 0.0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")
    if x <= 0.0:
        return 0.0
    if noncentrality == 0.0:
        return central_f_cdf(x, ndf, ddf)

    a = 0.5 * ndf
    b = 0.5 * ddf
    u, omu = _f_to_beta(x, ndf, ddf)
    half_lam = 0.5 * noncentrality
    # subnormal noncentrality can halve to exactly zero
    if half_lam == 0.0:
        return central_f_cdf(x, ndf, ddf)

    # Poisson weight and beta term at the mode
    mode = int(half_lam)
    log_pois = mode * math.log(half_lam) - half_lam - math.lgamma(mode + 1.0)
    pois_mode = math.exp(log_pois)
    ibeta_mode = _ibeta(a + mode, b, u, omu)
    # increment t_j with I(a+j+1) = I(a+j) - t_j
    log_t = (
        (a + mode) * math.log(u)
        + b * math.log(omu)
        - math.log(a + mode)
        - (
            math.lgamma(a + mode)
            + math.lgamma(b)
            - math.lgamma(a + mode + b)
        )
    )
    t_mode = math.exp(log_t)

    total = pois_mode * ibeta_mode
    mass_used = pois_mode

    # upward sweep: j = mode+1, mode+2, ...
    pois = pois_mode
    ibeta_term = ibeta_mode
    t_term = t_mode
    j = mode
    for _ in range(max_terms):
        ibeta_term -= t_term
        if ibeta_term < 0.0:
            ibeta_term = 0.0
        t_term *= u * (a + j + b) / (a + j + 1.0)
        pois *= half_lam / (j + 1.0)
        j += 1
        total += pois * ibeta_term
        mass_used += pois
        remaining = 1.0 - mass_used
        if remaining * ibeta_term <= tol:
            break

    # downward sweep: j = mode-1, ..., 0; beta terms grow toward 1 so the
    # remaining Poisson mass itself bounds the neglected contribution
    pois = pois_mode
    ibeta_term = ibeta_mode
    t_term = t_mode
    j = mode
    for _ in range(min(mode, max_terms)):
        t_term *= (a + j) / (u * (a + j - 1.0 + b))
        ibeta_term += t_term
        if ibeta_term > 1.0:
            ibeta_term = 1.0
        pois *= j / half_lam
        j -= 1
        total += pois * ibeta_term
        mass_used += pois
        # 1 - mass_used bounds the remaining downward mass, and each
        # remaining beta factor is <= 1
        if 1.0 - mass_used <= tol:
            break

    return min(max(total, 0.0), 1.0)


def power_from_f(
    fvalue: float,
    ndf: int,
    ddf: int,
    alpha: float,
    *,
    ddf_policy: str | None = None,
) -> PowerResult:
    """Power of an F test given its observed-scale statistic under the alternative.

    The noncentrality is ndf * fvalue.  The critical value is the
    (1 - alpha) quantile of the central F with the same degrees of
    freedom, and the power is the upper tail of the noncentral F there.

    Args:
        fvalue: expected F statistic under the alternative, >= 0.
        ndf: numerator degrees of freedom.
        ddf: denominator degrees of freedom.
        alpha: type I error rate in (0, 1).
        ddf_policy: optional label recording how ddf was chosen.

    Returns:
        PowerResult with the rejection probability and its ingredients.
    """
    ndf, ddf = _validate_df(ndf, ddf)
    if not math.isfinite(fvalue) or fvalue < 0.0:
        raise ValueError(f"fvalue must be finite and >= 0, got {fvalue!r}")
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    noncentrality = ndf * fvalue
    fcrit = central_f_quantile(1.0 - alpha, ndf, ddf)
    power = 1.0 - noncentral_f_cdf(fcrit, ndf, ddf, noncentrality)
    return PowerResult(
        power=power,
        fvalue=fvalue,
        noncentrality=noncentrality,
        fcrit=fcrit,
        ndf=ndf,
        ddf=ddf,
        alpha=alpha,
        ddf_policy=ddf_policy,
    )

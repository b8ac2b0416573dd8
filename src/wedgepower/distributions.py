"""F-distribution tail machinery for power evaluation.

Implements the central F cdf and quantile, the noncentral F cdf, and the
power of a Wald-type F test with a given noncentrality, on top of the
regularized incomplete beta function I_x(a, b).  Everything is evaluated
with double-precision series and continued fractions; no external
statistics library is used at runtime.  The one exception to the
continued fraction is I_x(a, 1/2) at large a and x near 1, the upper
tail of F(1, ddf) that every critical value solves: there TOMS 708's
asymptotic expansion BGRAT takes 1-7 terms where the fraction takes
20-42 steps, and it keeps 1e-13 relative out to ddf 10**10, where the
fraction's stopping rule loses 3e-11 at ddf 10**6 and more beyond.

The power of a level-alpha test is computed in the upper tail throughout:
the critical value solves P(F > x) = alpha by inverting the incomplete
beta at alpha itself, and the power sums upper-tail mixture terms, so
neither ever forms 1 - alpha or 1 - cdf and tiny alphas keep their
relative precision.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
    "PowerResult",
    "central_f_cdf",
    "central_f_quantile",
    "noncentral_f_cdf",
    "power_from_f",
]

# continued fraction controls
_CF_EPS = 1e-15
_CF_FPMIN = 1e-300
_CF_MAX_ITER = 500
# where BGRAT takes I_x(a, 1/2) from the continued fraction: a >= 15,
# 1 - x < 0.3 and z = -(a - 1/4) log x <= 200; its term cap, and the
# term it stops at, relative to the sum
_BGRAT_MIN_A = 15.0
_BGRAT_MAX_OMX = 0.3
_BGRAT_MAX_Z = 200.0
_BGRAT_TERMS = 30
_BGRAT_EPS = 1e-15
# incomplete beta inverse: Halley steps until a step moves the smaller of
# x and 1 - x by less than _INV_STEP_TOL of itself, then bisection
_INV_STEP_TOL = 1e-9
_INV_MAX_HALLEY = 10
_INV_MAX_BISECT = 2200
# Newton steps that polish the normal quantile of the t start
_NORMAL_NEWTON = 3
# Poisson mass the noncentral mixture may leave out
_MIXTURE_TOL = 1e-13
_MIXTURE_MAX_TERMS = 100_000
# Poisson standard deviations to the far end of the mass a sweep may leave out
_FAR_SD = 40.0
# counts from which a Poisson weight takes the saddle-point form, where the
# Stirling series serves as Loader's stirlerr
_SADDLE_MIN = 10
# the largest power of ten of ddf where the power keeps 1e-6 (README): the
# noncentral mixture limits it, not the critical value
_MAX_DDF = 10**10


def is_whole(value) -> bool:
    """A whole number: a real that is not a bool and has no fraction part."""
    # exact int and float skip the ABC checks, which cost most of a call
    if type(value) is int:
        return True
    if type(value) is float:
        return value.is_integer()
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return isinstance(value, numbers.Integral) or float(value).is_integer()


def is_real(value) -> bool:
    """A real number that is not a bool and is finite as a float."""
    exact = type(value) in (int, float)
    if not exact and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _validate_df(ndf: int, ddf: int) -> tuple[int, int]:
    for name, value in (("ndf", ndf), ("ddf", ddf)):
        if not is_whole(value) or value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if ddf > _MAX_DDF:
        raise ValueError(f"ddf must be at most 10**10 for 1e-6 accuracy, got {ddf!r}")
    return int(ndf), int(ddf)


# Stirling series of log Gamma(x) - ((x - 0.5) log x - x + log sqrt(2 pi)):
# B_2k / (2k (2k - 1)) for k = 1..8, enough for 1e-17 at x >= 10
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_SQRT_PI = 0.5 * math.log(math.pi)


def _stirling_tail(x: float) -> float:
    inv_sq = 1.0 / (x * x)
    total = 0.0
    for coefficient in reversed(_STIRLING):
        total = total * inv_sq + coefficient
    return total / x


def _log_beta(a: float, b: float) -> float:
    """log B(a, b).

    When a shape reaches 10 the leading Stirling terms are differenced in
    closed form, as in R's lbeta, because lgamma's large values cancel:
    lgamma(a + b) - lgamma(a) loses 1e-11 absolute at a = 5e4.
    """
    p, q = (a, b) if a <= b else (b, a)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    corr = _stirling_tail(q) - _stirling_tail(p + q)
    share = p / (p + q)
    if p < 10.0:
        corr += math.lgamma(p) + p - p * math.log(p + q)
        return corr + (q - 0.5) * math.log1p(-share)
    corr += _stirling_tail(p)
    return (
        _LOG_SQRT_2PI
        - 0.5 * math.log(q)
        + corr
        + (p - 0.5) * math.log(share)
        + q * math.log1p(-share)
    )


@dataclass(frozen=True)
class PowerResult:
    """Outcome of a power evaluation for a single-contrast F test.

    Attributes:
        power: rejection probability of the alternative at level alpha.
        fvalue: noncentrality divided by the numerator degrees of freedom.
        noncentrality: noncentrality parameter of the F statistic.
        fcrit: critical value, exceeded with probability alpha by the
            central F.
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
    if -_CF_FPMIN < d < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if -_CF_FPMIN < d < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if -_CF_FPMIN < c < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if -_CF_FPMIN < d < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if -_CF_FPMIN < c < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if -_CF_EPS < delta - 1.0 < _CF_EPS:
            return h
    raise ValueError(
        f"incomplete beta continued fraction failed to converge for a={a}, b={b}, x={x}"
    )


def _bgrat_coefficients(b: float, terms: int) -> tuple[float, ...]:
    # TOMS 708's d_1..d_terms of BGRAT at second shape b: with
    # c_n = 1 / (2n + 1)!, d_n = (b - 1) c_n + sum_{i<n} (i b - n) c_i d_{n-i} / n
    c: list[float] = []
    d: list[float] = []
    for n in range(1, terms + 1):
        c.append((c[-1] if c else 1.0) / (2.0 * n * (2.0 * n + 1.0)))
        s = sum((i * b - n) * c[i - 1] * d[n - 1 - i] for i in range(1, n))
        d.append((b - 1.0) * c[-1] + s / n)
    return tuple(d)


# they depend on b alone, so at b = 1/2 they are constants
_BGRAT_D = _bgrat_coefficients(0.5, _BGRAT_TERMS)


def _bgrat(a: float, log_x: float) -> float:
    """I_x(a, 1/2) by TOMS 708's BGRAT (Didonato and Morris 1992, section 9).

    With nu = a - 1/4 and z = -nu log x, the expansion in powers of
    1 / nu is I_x(a, b) = Gamma(a + b) / (Gamma(a) nu^b) * sum_n d_n J_n,
    where J_0 = Q(b, z), the upper regularized gamma, is erfc(sqrt z) at
    b = 1/2, and J_n = ((b + 2n - 2)(b + 2n - 1) J_(n-1)
    + (z + b + 2n - 1) r (log x)^(2n - 2) / 4^(n - 1)) / (4 nu^2) with
    r = exp(-z) z^b / Gamma(b).  TOMS carries J_n / r, so its J_0 holds
    exp(z) and its prefactor exp(-z); r is kept in the J_n here, so no
    exponential of z is formed only to cancel.  The prefactor is
    1 + O(1 / a^2), and its logarithm is taken from Stirling's series as
    that small number: log B(a, 1/2) and log nu cancel to it from about
    11 at a = 1e9, losing 2e-15.  Stops at the first term within
    _BGRAT_EPS of the sum.

    Raises:
        ValueError: if _BGRAT_TERMS terms do not converge.
    """
    nu = a - 0.25
    z = -nu * log_x
    # log Gamma(a + 1/2) - log Gamma(a) - log(nu) / 2
    log_front = a * math.log1p(0.5 / a) - 0.5 - 0.5 * math.log1p(-0.25 / a)
    front = math.exp(log_front + _stirling_tail(a + 0.5) - _stirling_tail(a))
    j = math.erfc(math.sqrt(z))
    r_term = math.exp(-z - _LOG_SQRT_PI) * math.sqrt(z)
    v = 0.25 / (nu * nu)
    t2 = 0.25 * log_x * log_x
    total = j
    shape = 0.5  # b + 2n - 2
    for d in _BGRAT_D:
        j = (shape * (shape + 1.0) * j + (z + shape + 1.0) * r_term) * v
        r_term *= t2
        shape += 2.0
        total += d * j
        if abs(d * j) <= _BGRAT_EPS * total:
            return front * total
    raise ValueError(f"incomplete beta expansion failed to converge for a={a}, b=0.5")


def _ibeta(a: float, b: float, x: float, one_minus_x: float) -> float:
    # x and its complement are passed separately so callers can supply an
    # exact complement and avoid cancellation when x is close to 1; each
    # logarithm is taken of whichever of the two is exact.  I_x(a, 1/2) in
    # BGRAT's region is its expansion, everything else the continued fraction.
    if x <= 0.0:
        return 0.0
    if one_minus_x <= 0.0:
        return 1.0
    log_x = math.log(x) if x <= 0.5 else math.log1p(-one_minus_x)
    if (
        b == 0.5
        and a >= _BGRAT_MIN_A
        and one_minus_x < _BGRAT_MAX_OMX
        and (0.25 - a) * log_x <= _BGRAT_MAX_Z
    ):
        return _bgrat(a, log_x)
    log_omx = math.log(one_minus_x) if one_minus_x <= 0.5 else math.log1p(-x)
    log_front = a * log_x + b * log_omx - _log_beta(a, b)
    front = math.exp(log_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, one_minus_x) / b


def _f_to_beta(x: float, ndf: int, ddf: int) -> tuple[float, float]:
    # map the F statistic to the beta integration limit and its complement
    nx = ndf * x
    return nx / (nx + ddf), ddf / (nx + ddf)


def central_f_cdf(x: float, ndf: int, ddf: int) -> float:
    """Cdf of the central F distribution with ndf and ddf degrees of freedom."""
    ndf, ddf = _validate_df(ndf, ddf)
    if not is_real(x):
        raise ValueError(f"x must be a finite real number, got {x!r}")
    if x <= 0.0:
        return 0.0
    u, omu = _f_to_beta(x, ndf, ddf)
    return _ibeta(0.5 * ndf, 0.5 * ddf, u, omu)


def _normal_deviate(log_p: float) -> float:
    # Abramowitz and Stegun 26.2.22: the z with P(Z > z) = p for p <= 1/2,
    # from log p, to within 3e-3
    t = math.sqrt(-2.0 * log_p)
    return t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))


def _two_sided_normal_quantile(p: float) -> float:
    # the z >= 0 with P(|Z| > z) = erfc(z / sqrt(2)) = p, polished by Newton
    # steps on log(erfc(z / sqrt(2)) / p); where erfc or the density
    # underflows, at subnormal p, the polish stops
    z = _normal_deviate(math.log(p) - math.log(2.0))
    for _ in range(_NORMAL_NEWTON):
        tail = math.erfc(z / math.sqrt(2.0))
        density = math.exp(-0.5 * z * z) * math.sqrt(2.0 / math.pi)
        if tail == 0.0 or density == 0.0:
            break
        z += math.log(tail / p) * tail / density
    return z


def _t_start(n: float, p: float) -> tuple[float, float]:
    # Hill's (1970, CACM Algorithm 396) approximation of the t quantile q
    # with P(|T_n| > q) = p, as x = n / (n + q^2) and 1 - x, the root of
    # I_x(n/2, 1/2) = p; n = 1 and n = 2 have closed forms
    if n == 1.0:
        angle = 0.5 * math.pi * p
        return math.sin(angle) ** 2, math.cos(angle) ** 2
    if n == 2.0:
        return p * (2.0 - p), (1.0 - p) ** 2
    a = 1.0 / (n - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(0.5 * math.pi * a) * n
    y = (d * p) ** (2.0 / n)
    if y > 0.05 + a:
        # asymptotic inverse expansion about the normal quantile of p / 2
        x = -_two_sided_normal_quantile(p)
        y = x * x
        if n < 5.0:
            c += 0.3 * (n - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        e = 3.0 * (n + 2.0) * ((n + 6.0) / (n * y) - 0.089 * d - 0.822)
        y = ((1.0 / e + 0.5 / (n + 4.0)) * y - 1.0) * (n + 1.0) / (n + 2.0) + 1.0 / y
    # y = q^2 / n
    return 1.0 / (1.0 + y), y / (1.0 + y)


def _beta_start(a: float, b: float, p: float) -> tuple[float, float]:
    # starting guess for I_x(a, b) = p, as x and 1 - x, each computed
    # without cancellation.  For b = 1/2, the upper-tail solve of F(1, 2a),
    # the root is x = n / (n + q^2) at Hill's t quantile q for n = 2a;
    # elsewhere, or where x or 1 - x of that start is not a positive
    # double, Numerical Recipes' invbetai guess.
    if b == 0.5:
        x, omx = _t_start(2.0 * a, p)
        if 0.0 < x <= 1.0 and 0.0 < omx <= 1.0:
            return x, omx
    if a >= 1.0 and b >= 1.0:
        # normal approximation; x = 1 / (1 + exp(r))
        z = _normal_deviate(math.log(min(p, 1.0 - p)))
        if p >= 0.5:
            z = -z
        al = (z * z - 3.0) / 6.0
        inv_a, inv_b = 1.0 / (2.0 * a - 1.0), 1.0 / (2.0 * b - 1.0)
        h = 2.0 / (inv_a + inv_b)
        w = z * math.sqrt(al + h) / h
        w -= (inv_b - inv_a) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h))
        r = math.log(b / a) + 2.0 * w
        e = math.exp(-abs(r))
        small = max(e / (1.0 + e), _CF_FPMIN)
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


def _beta_inverse(a: float, b: float, p: float) -> tuple[float, float]:
    """Solve I_x(a, b) = p for 0 < p < 1; return x and 1 - x.

    Takes Halley steps on g = log(I_x(a, b) / p), whose derivative is the
    beta density over I_x.  Each step moves the smaller of x and 1 - x,
    so that one keeps full relative precision: x on a log scale, where
    the lower tail is a power law, and 1 - x on a linear scale, where
    log I_x falls about linearly as x leaves 1.  The residual signs
    bracket the root; a step that would leave the bracket, which starts
    as (0, 1), or that starts where I_x underflows, goes halfway to the
    bracket's edge instead.  Bisection of the bracket takes over if the
    steps do not converge.
    """
    log_beta = _log_beta(a, b)
    lo, hi = (0.0, 1.0), (1.0, 0.0)
    x, omx = _beta_start(a, b, p)
    for _ in range(_INV_MAX_HALLEY):
        value = _ibeta(a, b, x, omx)
        if value == p:
            return x, omx
        if value > p:
            hi = (x, omx)
            edge = lo
        else:
            lo = (x, omx)
            edge = hi
        halfway = (0.5 * (x + edge[0]), 0.5 * (omx + edge[1]))
        if value == 0.0:
            x, omx = halfway
            continue
        g = math.log(value / p)
        # log of g' = density / I_x, and d(log density)/dx
        log_g1 = (a - 1.0) * math.log(x) + (b - 1.0) * math.log(omx) - log_beta
        log_g1 -= math.log(value)
        curvature = (a - 1.0) / x - (b - 1.0) / omx - math.exp(min(log_g1, 700.0))
        if x <= omx:
            # in t = log x: g_t = x g', g_tt / g_t = 1 + x g'' / g'
            step = g * math.exp(min(-log_g1 - math.log(x), 700.0))
            step /= 1.0 - 0.5 * min(1.0, step * (1.0 + x * curvature))
            new_x = x * math.exp(min(-step, 700.0))
            new = (new_x, 1.0 - new_x)
            moved = abs(new_x - x)
            inside = lo[0] < new_x < hi[0]
        else:
            step = g * math.exp(min(-log_g1, 700.0))
            step /= 1.0 - 0.5 * min(1.0, step * curvature)
            new = (1.0 - (omx + step), omx + step)
            moved = abs(step)
            inside = hi[1] < new[1] < lo[1]
        if moved <= _INV_STEP_TOL * min(x, omx):
            return new
        x, omx = new if inside else halfway
    import logging  # here, its one use, so a process that never bisects skips it

    logging.getLogger(__name__).debug(
        "incomplete beta inverse: Halley steps did not converge for a=%r, b=%r, "
        "p=%r; bisecting",
        a,
        b,
        p,
    )
    for _ in range(_INV_MAX_BISECT):
        mid = (0.5 * (lo[0] + hi[0]), 0.5 * (lo[1] + hi[1]))
        if mid == lo or mid == hi:
            break
        if _ibeta(a, b, *mid) > p:
            hi = mid
        else:
            lo = mid
    return hi


def _f_upper_quantile(q: float, ndf: int, ddf: int) -> float:
    # P(F > x) = I_y(ddf/2, ndf/2) with y = ddf / (ndf * x + ddf)
    y, omy = _beta_inverse(0.5 * ddf, 0.5 * ndf, q)
    return ddf * omy / (ndf * y)


def central_f_quantile(p: float, ndf: int, ddf: int) -> float:
    """Quantile of the central F distribution.

    Inverts the regularized incomplete beta in the smaller tail: the
    lower tail I_u(ndf/2, ddf/2) = p with u = ndf x / (ndf x + ddf) for
    p < 0.5, else the upper tail at q = 1 - p, which is exact there.

    Args:
        p: probability in [0, 1).
        ndf: numerator degrees of freedom.
        ddf: denominator degrees of freedom.

    Returns:
        The x with cdf(x) = p; 0.0 for p = 0.
    """
    ndf, ddf = _validate_df(ndf, ddf)
    if not (is_real(p) and 0.0 <= p < 1.0):
        raise ValueError(f"p must lie in [0, 1), got {p!r}")
    if p == 0.0:
        return 0.0
    if p >= 0.5:
        return _f_upper_quantile(1.0 - p, ndf, ddf)
    u, omu = _beta_inverse(0.5 * ndf, 0.5 * ddf, p)
    return ddf * u / (ndf * omu)


def _bd0(x: float, mean: float) -> float:
    """x log(x / mean) + mean - x, summed as a series near mean (Loader 2000)."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    total = (x - mean) * v
    term = 2.0 * x * v
    for k in range(3, 1000, 2):
        term *= v * v
        grown = total + term / k
        if grown == total:
            break
        total = grown
    return total


def _poisson_pmf(j: int, half_lam: float) -> float:
    """Poisson(half_lam) probability of j.

    From j = _SADDLE_MIN on, Loader's saddle-point form
    exp(-stirlerr(j) - bd0(j, half_lam)) / sqrt(2 pi j): the direct log
    form's terms of size j log j cancel, losing 1e-10 relative at 1e5.
    """
    if j < _SADDLE_MIN:
        return math.exp(j * math.log(half_lam) - half_lam - math.lgamma(j + 1.0))
    return math.exp(-_stirling_tail(j) - _bd0(j, half_lam)) / math.sqrt(
        2.0 * math.pi * j
    )


def _sweep_matters(
    a: float,
    b: float,
    u: float,
    omu: float,
    half_lam: float,
    tail_mode: float,
    pois_mode: float,
    *,
    upper: bool,
    step: int,
) -> bool:
    """Whether a sweep from the Poisson mode (step 1 up, -1 down) can add
    more than _MIXTURE_TOL, for a window longer than the term budget.

    The tails are monotone in j.  Where they shrink along the sweep none
    exceeds the mode's; where they grow none up to the far end of the
    Poisson mass, _FAR_SD standard deviations from the mode, exceeds the
    one there, and Bernstein's inequality bounds the mass beyond.  A sweep
    whose largest tail plus that mass is at most _MIXTURE_TOL, times the
    mode's term where the sum is the power itself, is skipped.
    Otherwise the Poisson mass past the budget's end, bounded by a
    geometric series, times the largest tail past it, plus the mass
    beyond, bounds what the budget leaves out.

    Raises:
        ValueError: if that bound exceeds _MIXTURE_TOL.
    """
    spread = _FAR_SD * math.sqrt(half_lam)
    end = int(half_lam) + step * _MIXTURE_MAX_TERMS
    if step > 0:
        far = int(half_lam + spread) + 1
        beyond = math.exp(-spread * spread / (2.0 * (half_lam + spread / 3.0)))
        # Poisson ratios beyond end are at most half_lam / (end + 2) < 1
        ratio = half_lam / (end + 1.0) / (1.0 - half_lam / (end + 2.0))
    else:
        far = max(int(half_lam - spread), 0)
        beyond = math.exp(-spread * spread / (2.0 * half_lam))
        # Poisson ratios below end are at most (end - 1) / half_lam < 1
        ratio = end / half_lam / (1.0 - (end - 1.0) / half_lam)

    def tail(j: int) -> float:
        return _ibeta(b, a + j, omu, u) if upper else _ibeta(a + j, b, u, omu)

    grows = (step > 0) == upper
    largest = tail(far) if grows else tail_mode
    if largest + beyond <= _MIXTURE_TOL * (pois_mode * tail_mode if upper else 1.0):
        return False
    rest = _poisson_pmf(end, half_lam) * ratio
    left_out = min(rest, 1.0) * (largest if grows else tail(end)) + beyond
    if left_out > _MIXTURE_TOL:
        raise ValueError(
            f"noncentrality {2.0 * half_lam!r} is too large: "
            f"{_MIXTURE_MAX_TERMS} noncentral F mixture terms leave out up to "
            f"{left_out:.3g} of the probability"
        )
    return True


def _mixture(
    a: float, b: float, u: float, omu: float, half_lam: float, *, upper: bool
) -> float:
    """Poisson(half_lam) mixture of Beta(a + j, b) tails at u.

    Sums the lower tails I_u(a + j, b), or with upper the upper tails
    I_{1-u}(b, a + j), outward from the Poisson mode so that large
    noncentralities never underflow.  Neighbouring tails differ by
    t_j = I_u(a + j, b) - I_u(a + j + 1, b), which a two-term recurrence
    updates, so only the mode's tail costs a continued fraction.  Each
    sweep stops once the Poisson mass it has left, bounded by a geometric
    series, times the largest tail it would meet is at most _MIXTURE_TOL,
    of the sum so far where tails shrink along an upper sum's sweep.
    While _FAR_SD Poisson standard deviations fit in the term budget
    (half_lam up to 6.25e6) that happens within the budget, because the
    Poisson weights underflow there.  Beyond, _sweep_matters decides
    before the sweeps start: it skips a sweep that cannot matter and
    refuses one whose budget would leave out too much.

    Raises:
        ValueError: if the terms a sweep would leave out may exceed
            _MIXTURE_TOL.
    """
    # Poisson weight and tail at the mode
    mode = int(half_lam)
    pois_mode = _poisson_pmf(mode, half_lam)
    if upper:
        tail_mode = _ibeta(b, a + mode, omu, u)
    else:
        tail_mode = _ibeta(a + mode, b, u, omu)
    # log(1 - u) from u, as _ibeta takes it: b may be ddf / 2, which
    # multiplies the rounding of omu taken on its own
    log_omu = math.log(omu) if omu <= 0.5 else math.log1p(-u)
    log_t = (
        (a + mode) * math.log(u)
        + b * log_omu
        - math.log(a + mode)
        - _log_beta(a + mode, b)
    )
    t_mode = math.exp(log_t)
    # tail(j + 1) = tail(j) + sign * t_j
    sign = 1.0 if upper else -1.0
    total = pois_mode * tail_mode
    sweep_up = sweep_down = True
    if _FAR_SD * math.sqrt(half_lam) > _MIXTURE_MAX_TERMS:
        args = (a, b, u, omu, half_lam, tail_mode, pois_mode)
        sweep_up = _sweep_matters(*args, upper=upper, step=1)
        sweep_down = _sweep_matters(*args, upper=upper, step=-1)

    # upward sweep: j = mode+1, mode+2, ...; lower tails shrink, upper
    # tails grow toward 1
    pois, tail, t_term, j = pois_mode, tail_mode, t_mode, mode
    for _ in range(_MIXTURE_MAX_TERMS if sweep_up else 0):
        tail += sign * t_term
        tail = 0.0 if tail < 0.0 else 1.0 if tail > 1.0 else tail
        t_term *= u * (a + j + b) / (a + j + 1.0)
        pois *= half_lam / (j + 1.0)
        j += 1
        total += pois * tail
        # Poisson ratios beyond j are at most half_lam / (j + 2) < 1
        rest = pois * half_lam / (j + 1.0) / (1.0 - half_lam / (j + 2.0))
        if rest * (1.0 if upper else tail) <= _MIXTURE_TOL:
            break

    # downward sweep: j = mode-1, ..., 0; lower tails grow toward 1, upper
    # tails shrink
    pois, tail, t_term, j = pois_mode, tail_mode, t_mode, mode
    for _ in range(min(mode, _MIXTURE_MAX_TERMS) if sweep_down else 0):
        t_term *= (a + j) / (u * (a + j - 1.0 + b))
        tail -= sign * t_term
        tail = 0.0 if tail < 0.0 else 1.0 if tail > 1.0 else tail
        pois *= j / half_lam
        j -= 1
        total += pois * tail
        # Poisson ratios below j are at most (j - 1) / half_lam < 1
        rest = pois * j / half_lam / (1.0 - (j - 1.0) / half_lam)
        if rest * (tail if upper else 1.0) <= _MIXTURE_TOL * (total if upper else 1.0):
            break

    return min(max(total, 0.0), 1.0)


def _check_noncentrality(noncentrality: float) -> None:
    # the mixture counts its Poisson terms in floats, exactly only up to 2**53
    if not (is_real(noncentrality) and 0.0 <= noncentrality <= 2**53):
        raise ValueError(
            f"noncentrality must be finite, >= 0 and at most 2**53, got {noncentrality!r}"
        )


def noncentral_f_cdf(
    x: float,
    ndf: int,
    ddf: int,
    noncentrality: float,
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

    Returns:
        The probability that the noncentral F variate is <= x.

    Raises:
        ValueError: if the noncentrality is so large that the mixture's
            term budget may leave out more than 1e-13.
    """
    ndf, ddf = _validate_df(ndf, ddf)
    if not is_real(x):
        raise ValueError(f"x must be a finite real number, got {x!r}")
    _check_noncentrality(noncentrality)
    if x <= 0.0:
        return 0.0
    u, omu = _f_to_beta(x, ndf, ddf)
    half_lam = 0.5 * noncentrality
    # subnormal noncentrality can halve to exactly zero
    if half_lam == 0.0:
        return _ibeta(0.5 * ndf, 0.5 * ddf, u, omu)
    return _mixture(0.5 * ndf, 0.5 * ddf, u, omu, half_lam, upper=False)


def power_from_f(
    fvalue: float,
    ndf: int,
    ddf: int,
    alpha: float,
    *,
    ddf_policy: str | None = None,
) -> PowerResult:
    """Power of an F test given its observed-scale statistic under the alternative.

    The noncentrality is ndf * fvalue.  The critical value solves
    P(F > fcrit) = alpha for the central F with the same degrees of
    freedom, and the power is the upper tail of the noncentral F there.
    Both are computed in the upper tail, so a null fvalue gives power
    alpha to near machine precision for alpha down to 1e-100.

    Args:
        fvalue: expected F statistic under the alternative, >= 0.
        ndf: numerator degrees of freedom.
        ddf: denominator degrees of freedom.
        alpha: type I error rate in (0, 1).
        ddf_policy: optional label recording how ddf was chosen.

    Returns:
        PowerResult with the rejection probability and its ingredients.

    Raises:
        ValueError: on invalid inputs, an alpha whose critical value
            overflows, or a noncentrality so large that the mixture's
            term budget may leave out more than 1e-13.
    """
    ndf, ddf = _validate_df(ndf, ddf)
    if not (is_real(fvalue) and fvalue >= 0.0):
        raise ValueError(f"fvalue must be finite and >= 0, got {fvalue!r}")
    if not (is_real(alpha) and 0.0 < alpha < 1.0):
        raise ValueError(f"alpha must be a real number in (0, 1), got {alpha!r}")
    noncentrality = ndf * fvalue
    _check_noncentrality(noncentrality)
    fcrit = _f_upper_quantile(alpha, ndf, ddf)
    if not math.isfinite(fcrit):
        raise ValueError(
            f"alpha={alpha!r} is too small: the F({ndf}, {ddf}) critical value "
            "overflows"
        )
    a = 0.5 * ndf
    b = 0.5 * ddf
    u, omu = _f_to_beta(fcrit, ndf, ddf)
    half_lam = 0.5 * noncentrality
    if half_lam == 0.0:
        power = _ibeta(b, a, omu, u)
    else:
        # Sum the tails that are small at the Poisson mode, where u lies
        # above the mean of Beta(a + mode, b) or below it, and complement
        # the sum only when it is the lower one, so that powers near alpha
        # keep their relative precision and powers near 1 need no sweep
        # over all of the Poisson mass.
        mode = int(half_lam)
        upper = u >= (a + mode + 1.0) / (a + mode + b + 2.0)
        tail = _mixture(a, b, u, omu, half_lam, upper=upper)
        power = tail if upper else 1.0 - tail
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

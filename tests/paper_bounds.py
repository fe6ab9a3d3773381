"""The paper's auxiliary bounds in closed form, for the tests to check its identities.

The Bessel-form theorem is stated with the Bessel-moment remainder eta_alpha,
the integrated perturbation bound g_{alpha,q} (through the incomplete
elliptic integral K(x, sqrt(q))), the constants c_alpha, kappa_alpha and
M_cap, Olver's weight and modulus functions E_alpha and M_alpha, the
weighted norm of the approximant's main term and the Bessel moment of the
Hilbert-Schmidt limit.  No library path reads any of them (the Bessel
envelope reads only the ratio M/E, in closed form); the tests compare these
forms with quadrature and mpmath oracles and with each other.  As
references they check no arguments, except weight_modulus, whose refusals
the tests pin.
"""

import math

import numpy as np
from scipy import special as sp

from gpswf.specfun import s_map


def eta(alpha: float, x):
    """Oscillatory remainder of the Bessel moment int_0^x t J_alpha^2 dt - x/pi.

    x^2/2 [J_a^2 + J_{a+1}^2] - alpha x J_a J_{a+1} - x/pi, which is 0 at x = 0.
    """
    ja, jb = sp.jv(alpha, x), sp.jv(alpha + 1.0, x)
    return 0.5 * x * x * (ja * ja + jb * jb) - alpha * x * ja * jb - x / math.pi


def incomplete_K(x, q: float):
    """K(x, sqrt(q)) = int_x^1 dt / sqrt((1-t^2)(1-q t^2)), by t = sin(theta)."""
    return sp.ellipk(q) - sp.ellipkinc(np.arcsin(x), q)


def g_bound(alpha: float, q: float, x):
    """Integrated bound g_{alpha,q}(x) on the Liouville-transform perturbation.

    (3 + 2q + 12 a^2)/(4(1-q)) (q x sqrt(1-x^2)/sqrt(1-q x^2) + S(x))
    + a(a+1) K(x, sqrt(q)), which vanishes at x = 1.
    """
    front = (3.0 + 2.0 * q + 12.0 * alpha * alpha) / (4.0 * (1.0 - q))
    return front * (q * x * np.sqrt(1.0 - x * x) / np.sqrt(1.0 - q * x * x) + s_map(x, q)) \
        + alpha * (alpha + 1.0) * incomplete_K(x, q)


def c_alpha(alpha: float) -> float:
    """Olenko-style bound c_alpha on sup_x sqrt(x) |J_alpha(x)|."""
    if abs(alpha) <= 0.5:
        return math.sqrt(2.0 / math.pi)
    a3 = alpha ** (1.0 / 3.0)
    return 0.675 * math.sqrt(a3 + 1.9 / a3 + 1.1 / alpha)


def kappa_alpha(alpha: float) -> float:
    """kappa_alpha, from mu_a = |a^2 - 1/4|, mu_(a+1) and c_alpha c_(alpha+1)."""
    mu_a, mu_a1 = abs(alpha * alpha - 0.25), abs((alpha + 1.0) ** 2 - 0.25)
    return (0.8 * math.sqrt(2.0 / math.pi) * (mu_a + mu_a1)
            + 0.32 * (mu_a * mu_a + mu_a1 * mu_a1)
            + abs(alpha) * c_alpha(alpha) * c_alpha(alpha + 1.0))


def m_cap(alpha: float) -> float:
    """M_cap = max(1/pi, c_alpha^2 - 1/pi, kappa_alpha), the bound on |eta_alpha|."""
    c_a = c_alpha(alpha)
    return max(1.0 / math.pi, c_a * c_a - 1.0 / math.pi, kappa_alpha(alpha))


def weight_modulus(constants, x):
    """Olver's weight and modulus (E_alpha(x), M_alpha(x)) as 1-D arrays.

    Piecewise about X_alpha = constants.x_alpha, the first zero of
    J_alpha + Y_alpha: below it E = sqrt(-Y/J) and M = sqrt(2 |Y| J), from
    scipy's jv and yv; above it E = 1 and M = sqrt(J^2 + Y^2) = |H1_alpha|,
    from hankel1 (the modulus of jv and yv is up to 6e-14 relative off
    40-digit mpmath at x ~ 18, alpha = 1.4, and |H1| within 3e-16).  Below
    X_alpha, E and M are formed from sqrt(|Y|) and sqrt(J), so that they stay
    finite wherever they are doubles (E = 7.0e278 at alpha = 60, x = 1e-3,
    where Y/J overflows).  ValueError unless x > 0, and, naming alpha and x,
    where J or Y below X_alpha is 0 or not finite (J_60(1e-5) = 1e-400
    underflows) or E passes the double range.
    """
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xs > 0):
        raise ValueError("the Olver envelope requires x > 0")
    alpha = constants.alpha
    j, y = sp.jv(alpha, xs), sp.yv(alpha, xs)
    small = xs <= constants.x_alpha
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        root_j, root_y = np.sqrt(j), np.sqrt(-y)
        e = np.where(small, root_y / root_j, 1.0)
        m = np.where(small, math.sqrt(2.0) * root_y * root_j, np.abs(sp.hankel1(alpha, xs)))
    bad = np.flatnonzero(small & ~(np.isfinite(e) & np.isfinite(m) & (m > 0)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"Olver envelope: J_alpha = {float(j[i])!r} and Y_alpha = {float(y[i])!r} "
            f"at alpha = {alpha}, x = {float(xs[i])!r} give no finite E and M")
    return e, m


def main_norm_sq(frame) -> float:
    """Weighted L2([0,1]) norm squared of the Bessel form's main term (the approximant over A).

    x = sin(theta) removes the (1-x)^(-1/2) endpoint singularity, and a
    Gauss-Legendre rule in theta does the rest.
    """
    chi, q, alpha = frame.chi, frame.q, frame.alpha
    t, w = np.polynomial.legendre.leggauss(max(256, int(3.0 * math.sqrt(chi)) + 64))
    xs = np.sin(0.25 * math.pi * (t + 1.0))
    s = s_map(xs, q)
    integrand = math.sqrt(chi) * s * sp.jv(alpha, math.sqrt(chi) * s) ** 2 \
        / np.sqrt(1.0 - q * xs * xs)
    return float(np.dot(0.25 * math.pi * w, integrand))


def bessel_moment(alpha: float) -> float:
    """int_R J_(a+1/2)(t)^2 / t^(2a+1) dt = sqrt(pi) Gamma(2a+1) / (2^(2a) Gamma(2a+3/2) Gamma(a+1)^2).

    In log form: Gamma(2a + 3/2) overflows past alpha ~ 85 and 2^(4a) past 255.
    """
    lg = sp.gammaln
    return math.exp(0.5 * math.log(math.pi) - 2 * alpha * math.log(2.0) + lg(2 * alpha + 1.0)
                    - lg(2 * alpha + 1.5) - 2.0 * lg(alpha + 1.0))

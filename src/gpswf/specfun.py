"""Special functions and quadrature for the GPSWF solver stack.

Everything here is double precision, pure and deterministic: the total
mass of the weight (1-y^2)^alpha, the complete Legendre elliptic integral
of the first kind, the elliptic arc-length map S used by the Liouville
transform, Clenshaw evaluation of orthonormal symmetric-Jacobi series,
Gauss-Jacobi quadrature for that weight, and the envelope constants
(m_alpha and X_alpha) that control the Bessel-form error bounds.  Gamma, Beta and Bessel J are
scipy.special's, called directly, except the total mass past alpha = 80
(_gamma_half_ratio's asymptotic series).  The Bessel form reads J_alpha and
Olver's ratio M_alpha / E_alpha on an array from _bessel_j_olver_ratio, which
takes J and Y from one Hankel function H1 = J + iY above max(X_alpha, 1):
scipy's yv forms Y from both Hankel functions (AMOS zbesy, ACM TOMS
Alg. 644), so jv and yv cost three to four H1 evaluations.

Elliptic integrals follow the modulus convention: K(r) with 0 <= r < 1,
i.e. ``K(r) = int_0^1 dt / sqrt((1-t^2)(1-r^2 t^2))``.  SciPy's
ellipk/ellipe take the parameter m = r^2, so calls below square the
modulus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp
from scipy.linalg import LinAlgError, lapack


def _count(value, name: str, least: int = 0) -> int:
    """value as an int; ValueError naming it unless a single integer >= least, not a bool."""
    v = np.asarray(value)
    if v.ndim or v.dtype == bool or not np.issubdtype(v.dtype, np.integer) or v < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(v)


def _lapack(name: str, *args, **kwargs) -> list:
    """The outputs of scipy.linalg.lapack's routine ``name`` on args, less its info.

    Every hot solve calls LAPACK here: the Sturm blocks and the Gauss-Jacobi
    blocks (dstevd, dstebz and dstein, dpteqr), the Nystrom blocks (dsyevr)
    and the connection solves (dgbsv).  scipy.linalg's eigh_tridiagonal, eigh
    and solve_banded cost more than LAPACK itself on blocks of tens of rows
    (batching, argument checks, routine choice, workspace query), so callers
    pass the routine and arguments those functions pass under scipy 1.17, and
    the results are bit-identical to theirs.  Their guarantees are kept here:
    ValueError on an array argument holding an inf or NaN, LinAlgError on a
    nonzero info, and dstevd's quick exit on one row, whose empty offdiagonal
    the binding rejects: values d, vector [[1.0]].
    """
    for a in args:
        if isinstance(a, np.ndarray) and not np.isfinite(a).all():
            raise ValueError("array must not contain infs or NaNs")
    if name == "dstevd" and len(args[0]) == 1:
        return [args[0].copy(), np.ones((1, 1))]
    *out, info = getattr(lapack, name)(*args, **kwargs)
    if info:
        raise LinAlgError(f"LAPACK {name} failed (info {info})")
    return out


def _gamma_half_ratio(x: float) -> float:
    """Gamma(x + 1/2) / Gamma(x) = (x)_(1/2) for x > 81 (total_mass past alpha = 80).

    The asymptotic series log(x) / 2 - 1/(8 x) + 1/(192 x^3) - 1/(640 x^5) +
    17/(14336 x^7) of its logarithm, whose first omitted term,
    -31/(18432 x^9), is below 3e-20 there: within 1.5e-16 relative of
    50-digit mpmath for x >= 40.  scipy's poch and beta form the ratio from
    a difference of two gammaln past x ~ 85 (poch up to 1e4), which loses
    eps x log x, 6.6e-12 at x = 5,000.
    """
    u = 1.0 / (x * x)
    series = -1.0 / 8 + u * (1.0 / 192 + u * (-1.0 / 640 + u * 17.0 / 14336))
    return math.sqrt(x) * math.exp(series / x)


def total_mass(alpha: float) -> float:
    """Total mass of the weight: int_{-1}^{1} (1-y^2)^alpha dy = h_0.

    2^(2 alpha + 1) B(alpha + 1, alpha + 1) up to alpha = 80, and past it the
    equal Gamma ratio sqrt(pi) / (alpha + 1)_(1/2) (_gamma_half_ratio), which
    keeps every digit where scipy's beta takes gammaln differences (from
    alpha ~ 85), B nears the subnormal range and 2^(2 alpha + 1) overflows.
    """
    if alpha <= -1:
        raise ValueError(f"weight exponent must exceed -1, got {alpha}")
    if alpha > 80:
        return math.sqrt(math.pi) / _gamma_half_ratio(alpha + 1.0)
    return 2.0 ** (2 * alpha + 1) * float(_sp.beta(alpha + 1.0, alpha + 1.0))


# ---------------------------------------------------------------------------
# Elliptic integrals and the arc-length map S
# ---------------------------------------------------------------------------

def elliptic_K(r: float) -> float:
    """Complete elliptic integral of the first kind, modulus r in [0, 1)."""
    if not 0.0 <= r < 1.0:
        raise ValueError(f"elliptic_K requires 0 <= r < 1, got {r}")
    return float(_sp.ellipk(r * r))


def s_map(x, q: float):
    """Arc-length map S(x) = int_x^1 sqrt((1-q t^2)/(1-t^2)) dt.

    Decreasing on [0, 1] with S(1) = 0 and S(0) = E(sqrt(q)).  Evaluated
    through the incomplete elliptic integral of the second kind after the
    substitution t = sin(theta), which removes the endpoint singularity.
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"s_map requires 0 <= q < 1, got q={q}")
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("s_map requires x in [0, 1]")
    out = _sp.ellipe(q) - _sp.ellipeinc(np.arcsin(arr), q)
    return out if np.ndim(x) else float(out)


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------

def sym_offdiag(alpha: float, kmax: int) -> np.ndarray:
    """Off-diagonal entries b_k of the orthonormal symmetric-Jacobi recurrence.

    x Ptilde_k = b_{k+1} Ptilde_{k+1} + b_k Ptilde_{k-1} for the weight
    (1-x^2)^alpha.  Entry [k] holds b_k; b_0 = 0 by convention.  The k = 1
    entry is written in its cancelled form 1/(3+2a) so alpha = -1/2 stays
    finite.
    """
    b2 = np.zeros(kmax + 1)
    if kmax >= 1:
        b2[1] = 1.0 / (3.0 + 2.0 * alpha)
    k = np.arange(2, kmax + 1, dtype=float)
    u = 2 * k + 2 * alpha
    np.divide(k * (k + 2 * alpha), (u + 1) * (u - 1), out=b2[2:])
    return np.sqrt(b2, out=b2)


def _ptilde_at_one(alpha: float, size: int) -> np.ndarray:
    """Ptilde_k^(alpha, alpha)(1) for k < size: inf, with numpy's warning, past the double range.

    Ptilde_k(1)^2 = (2k + 2a + 1) Gamma(k + 2a + 1) / (2^(2a+1) Gamma(a+1)^2 k!) is 1 /
    total_mass(alpha) times the ratios (2k + 2a + 1)(k + 2a) / ((2k + 2a - 1) k), the k = 1
    one cancelled to 2a + 3 (as sym_offdiag's b_1) so that alpha = -1/2 stays finite.
    """
    k = np.arange(2.0, size)
    ratio = (2 * k + 2 * alpha + 1) * (k + 2 * alpha) / ((2 * k + 2 * alpha - 1) * k)
    squares = np.concatenate(([1.0 / total_mass(alpha), 2 * alpha + 3.0], ratio))[:size]
    return np.cumprod(np.sqrt(squares))


def jacobi_series_eval(coeffs: np.ndarray, alpha: float, x, parity: int):
    """Clenshaw evaluation of sum_j coeffs[j] * Ptilde_(2j+parity)^(alpha, alpha)(x).

    The one Jacobi evaluator, for one series in the packed layout of
    ChiSpectrum.coeffs; parity (0 or 1) is part of that layout, so it has no
    default.  coeffs is 1-D, and the values have the shape of x (a float for
    a scalar x); a 2-D array, which read as one series gives a wrong answer,
    is refused with ValueError.  It is Clenshaw on the recurrence in t = x^2
    that squaring x Ptilde_k = b_(k+1) Ptilde_(k+1) + b_k Ptilde_(k-1) gives,

        t Ptilde_k = b_(k+1) b_(k+2) Ptilde_(k+2) + (b_k^2 + b_(k+1)^2) Ptilde_k
                     + b_k b_(k-1) Ptilde_(k-2),

    started from Ptilde_0 for parity 0 and from Ptilde_1 / x = Ptilde_0 / b_1
    for parity 1, which then takes a final factor x: N/2 steps for N degrees.

    With j the step and k = 2j + parity the degree, Clenshaw reads
    u_j = c_j + (t - d_j) s_j u_(j+1) + r_j u_(j+2), with d_j = b_k^2 +
    b_(k+1)^2, s_j = 1 / (b_(k+1) b_(k+2)) and r_j = -b_(k+1) b_(k+2) /
    (b_(k+3) b_(k+4)).  It runs rescaled, on v_j = u_j / g_j with g_0 = g_1 = 1
    and g_(j+2) = g_j / r_j (one cumulative product for each of the even-j and
    odd-j chains), so that the u_(j+2) factor is 1:

        v_j = c_j / g_j + (t - d_j) (s_j g_(j+1) / g_j) v_(j+1) + v_(j+2),

    and u_0 = v_0.  A step over the points is then five array passes,
    subtract, scale, multiply, add, add, over three rotating buffers.  The
    r_j tend to -1, and along a chain their product half-telescopes: |g_j| is
    within a factor 4 of sqrt(b_(k+1) b_(k+2) / (b_(p+1) b_(p+2))), p the
    parity; the b_k b_(k+1) tend to 1/4, and at large alpha the least of
    them, b_1 b_2, is about 0.7 / alpha.  So |g| stays within [0.7, 18] for
    alpha in [-0.999, 500] over 4,000 terms (48 at alpha = 5,000), and the
    rescaling neither overflows nor costs digits.

    The pass runs only up to the last nonzero coefficient, and not at all if
    there is none; the zero coefficients it skips would leave the recurrence
    at exactly 0, so the values are bit-identical to the full pass.

    Accuracy: the map t = x^2 makes x = 0 an end of the t-interval, so the
    rounding error near x = 0 grows with the number of steps, as it does at
    x = +-1 in either form.  Against a 40-digit sum of the same coefficients,
    at ten points with |x| <= 0.1, psi_4 at alpha = 0.5, c = 2000 (557 terms)
    is within 1.7e-13 max|psi_4|, and psi_830 at alpha = 1.4, c = 400 (989
    terms) within 7.9e-12, where it is O(1); the x-recurrence was within
    3.5e-16 max|psi_4| and 2.7e-15.  At x = +-1, where psi_830 is 98,941, both
    forms are off by 4.7e-12 of it; make_frame reads _ptilde_at_one instead.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.abs(arr) <= 1.0 + 1e-14):
        raise ValueError("Jacobi polynomials are evaluated on [-1, 1]")
    c = np.asarray(coeffs, dtype=float)
    if c.ndim != 1:
        raise ValueError(f"one series of coefficients expected, got shape {c.shape}")
    if parity not in (0, 1):
        raise ValueError(f"parity must be 0 or 1, got {parity!r}")
    pts = arr.reshape(-1)
    out = np.zeros(pts.size)
    nonzero = np.flatnonzero(c)
    if nonzero.size:
        m = nonzero[-1] + 1
        # b_k to degree 2 m + parity; bb[j] = b_(k+1) b_(k+2), k = 2 j + parity
        b = sym_offdiag(alpha, 2 * m + parity)
        bb = (b[:-1] * b[1:])[parity + 1::2]
        d = (b[parity:-1:2] ** 2 + b[parity + 1::2] ** 2).tolist()
        r = -bb[:-1] / bb[1:]
        g = np.ones(m + 1)
        for k in (0, 1):   # the even-j and odd-j chains
            g[k + 2::2] = np.cumprod(1.0 / r[k::2])
        a = (1.0 / bb * (g[1:] / g[:-1])).tolist()
        e = (c[:m] / g[:-1]).tolist()
        t = pts * pts
        v1, v2, w = np.zeros(pts.size), np.zeros(pts.size), np.empty_like(t)
        for j in range(m - 1, -1, -1):
            np.subtract(t, d[j], out=w)
            w *= a[j]
            w *= v1
            w += v2
            w += e[j]
            v1, v2, w = w, v1, v2
        p0 = 1.0 / math.sqrt(total_mass(alpha))
        out += v1 * (pts * (p0 / b[1]) if parity else p0)
    out = out.reshape(arr.shape)
    return out if out.ndim else float(out)


def jacobi_series_deriv_coeffs(coeffs: np.ndarray, alpha: float, parity: int) -> np.ndarray:
    """d/dx of a packed one-parity series, as the packed series of the other parity.

    coeffs[..., j] multiplies Ptilde_(2j+parity)^(a,a) (jacobi_series_eval's
    layout), and entry j of the result multiplies Ptilde_(2j+1-parity) in the
    alpha + 1 basis, by d/dx Ptilde_k^(a,a) = sqrt(k (k + 2a + 1))
    Ptilde_{k-1}^(a+1,a+1).  It works on the last axis, so a (..., N) stack
    maps to (..., N - 1) for parity 0, whose constant term drops, and to
    (..., N) for parity 1.
    """
    c = np.asarray(coeffs, dtype=float)[..., 1 - parity:]
    k = np.arange(2 - parity, 2 * c.shape[-1] + 2 - parity, 2, dtype=float)
    return c * np.sqrt(k * (k + 2 * alpha + 1))


# ---------------------------------------------------------------------------
# Gauss-Jacobi quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights exact to degree 2N-1 against (1-y^2)^alpha."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_jacobi(n_nodes: int, alpha: float) -> QuadratureRule:
    """N-node Gauss-Jacobi rule for the symmetric weight (1-y^2)^alpha.

    Golub-Welsch (1969) on half-size blocks, with no N x N eigensolve.  The
    Jacobi matrix J of the orthonormal recurrence has a zero diagonal, so J^2
    splits into a tridiagonal block on the even indices (ceil(N/2) rows) and
    one on the odd indices (floor(N/2) rows), and both hold the squared nodes.
    The odd block is positive definite: LAPACK ``dpteqr`` gives its
    eigenvalues x_i^2 to high relative accuracy (Demmel-Kahan 1990), and the
    nodes are +-x_i.  The weights follow the first-component rule on the even
    block: with u_i its unit eigenvectors, x_i > 0 gets mass u_i(0)^2 / 2 (the
    even half of J's eigenvector carries half its norm) and, for odd N, the
    node 0 gets mass u_0(0)^2.  The x < 0 half mirrors the x > 0 half, so the
    rule is exactly symmetric.

    Against a 40-digit oracle for N <= 241 and alpha in [-0.99, 1.4] the nodes
    are within 4e-16 and the weights within 2e-12 relative.  Weights far below
    1e-15 mass (the end nodes at large alpha and N) are accurate only in
    absolute terms, to about 1e-24 mass at alpha = 10, N = 1440, where this
    and the full-size method differ by up to 1e5 times on the smallest ones.
    Some are exactly 0 (2 of 1,264 at alpha = 100), which is kept; a
    negative or non-finite weight raises RuntimeError.  n_nodes is an
    integer >= 1, not a bool or a float, and alpha a finite number > -1
    (ValueError naming either otherwise).
    """
    n_nodes = _count(n_nodes, "n_nodes", 1)
    if not (alpha > -1 and math.isfinite(alpha)):
        raise ValueError(f"gauss_jacobi requires a finite alpha > -1, got alpha = {alpha}")
    b = np.concatenate([sym_offdiag(alpha, n_nodes - 1), [0.0, 0.0]])
    b2 = b * b
    n_even, n_pos = (n_nodes + 1) // 2, n_nodes // 2
    # (J^2)_kk = b_k^2 + b_(k+1)^2 and (J^2)_(k,k+2) = b_(k+1) b_(k+2), b_N = 0
    d_odd = (b2[1:-1:2] + b2[2::2])[:n_pos]
    e_odd = (b[2:-1:2] * b[3::2])[:n_pos - 1]
    d_even = (b2[:-2:2] + b2[1:-1:2])[:n_even]
    e_even = (b[1:-1:2] * b[2::2])[:n_even - 1]
    try:
        # the routine eigh_tridiagonal(d_even, e_even) calls: divide and conquer
        _, vecs = _lapack("dstevd", d_even, e_even)
        if n_pos > 1:
            x2 = _lapack("dpteqr", d_odd, e_odd, np.zeros((1, 1)), compute_z=0)[0]
        else:   # the binding rejects one row with an empty offdiagonal
            x2 = d_odd
    except LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise RuntimeError(
            f"Gauss-Jacobi eigen-iteration failed for N={n_nodes}, alpha={alpha}: {exc}"
        ) from exc
    pos = np.sqrt(np.sort(x2))
    odd = n_even - n_pos
    w = total_mass(alpha) * vecs[0] ** 2
    w[odd:] *= 0.5
    nodes = np.concatenate([-pos[::-1], np.zeros(odd), pos])
    weights = np.concatenate([w[odd:][::-1], w])
    if not (np.all(np.diff(nodes) > 0) and np.all((weights >= 0) & np.isfinite(weights))):
        raise RuntimeError(
            f"Gauss-Jacobi rule invalid for N={n_nodes}, alpha={alpha}: "
            "nodes not increasing or weights negative or not finite"
        )
    return QuadratureRule(nodes=nodes, weights=weights)


# ---------------------------------------------------------------------------
# Envelope machinery for the Bessel-form error bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BesselEnvelopeConstants:
    """Order-dependent constants entering the Bessel-form error envelope."""

    alpha: float
    m_alpha: float
    x_alpha: float


def _first_zero_j_plus_y(alpha: float) -> float:
    """First positive root of J_alpha + Y_alpha, by scan + bisection to adjacent doubles.

    A 65-point scan of [lo, alpha + 6] brackets the first sign change (the
    roots are about pi apart, the scan step about 0.1), and float bisection
    halves the bracket until its midpoint equals an end.  The root lies near
    alpha + 0.29 alpha^(1/3) for large alpha, past alpha + 6 from alpha ~ 8000
    on; where the first scan finds no sign change, a second 65-point scan
    over [alpha + 6, alpha + 6 + alpha^(1/3)] does (step alpha^(1/3) / 64
    there, root spacing about 1.95 alpha^(1/3)).  The result is the last
    double where J + Y <= 0, next to the first where it is > 0: about 50
    scalar Bessel pairs.  Returns 0.0 at small alpha, where J + Y > 0 already
    at the scan's start.  Y is Im H1_alpha, half the cost of scipy's yv and,
    for alpha >= 0, equal to it bit for bit wherever yv is finite.
    """
    start = max(1e-3, alpha if alpha >= 0.5 else 1e-3)
    end = alpha + 6.0 if alpha > 0 else 6.0
    for lo, hi in ((start, end), (end, end + max(alpha, 0.0) ** (1.0 / 3.0))):
        xs = np.linspace(lo, hi, 65)
        f = _sp.jv(alpha, xs) + _sp.hankel1(alpha, xs).imag
        if f[0] > 0:
            # degenerate small-alpha case: the ratio -Y/J never reaches 1
            return 0.0
        idx = np.nonzero(f > 0)[0]
        if idx.size:
            break
    else:
        raise RuntimeError(f"failed to bracket the first zero of J+Y for alpha={alpha}")
    a, b = float(xs[idx[0] - 1]), float(xs[idx[0]])
    mid = 0.5 * (a + b)
    while a < mid < b:
        if _sp.jv(alpha, mid) + _sp.hankel1(alpha, mid).imag > 0:
            b = mid
        else:
            a = mid
        mid = 0.5 * (a + b)
    return a


def envelope_constants(alpha: float) -> BesselEnvelopeConstants:
    """All order-dependent envelope constants for a given finite alpha >= -1/2."""
    if not (alpha >= -0.5 and math.isfinite(alpha)):
        raise ValueError(f"envelope constants require a finite alpha >= -1/2, "
                         f"got alpha = {alpha}")
    if abs(alpha) <= 0.5:
        m_a = 2.0 / math.pi
    else:
        ja = float(_sp.jv(alpha, alpha))
        ya = float(_sp.yv(alpha, alpha))
        m_a = max(-2.0 * alpha * ja * ya + 4.0 * alpha / math.pi,
                  alpha * (ja * ja + ya * ya))
    x_a = _first_zero_j_plus_y(alpha)
    return BesselEnvelopeConstants(alpha=alpha, m_alpha=m_a, x_alpha=x_a)


def _bessel_j_olver_ratio(constants: BesselEnvelopeConstants,
                          z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """J_alpha(z) and Olver's ratio M_alpha(z) / E_alpha(z) on a 1-D z >= 0, alpha read from constants.

    The Bessel form's envelope reads Olver's weight E and modulus M only
    through M/E.  Below X_alpha, the first zero of J_alpha + Y_alpha,
    E = sqrt(-Y/J) and M = sqrt(2 |Y| J), so M/E = sqrt(2) J; above it E = 1
    and M/E = sqrt(J^2 + Y^2), the Hankel modulus.  Neither form divides: the
    ratio stays finite where Y/J overflows, and is 0 where J underflows.

    Above max(X_alpha, 1), one hankel1 call gives J = Re H1 and Y = Im H1; at
    or below it, jv and yv.  There |Y| >> |J|, so Re H1 loses J's relative
    accuracy (3.5e-8 at alpha = 1.4 for 1e-3 <= z <= 1, no digit at
    alpha = 5), and where yv overflows to -inf, H1 is nan + nan i.  Against
    40-digit mpmath for alpha in {-1/2, 0, 0.3, 0.77, 1.4, 5, 30}, on 900
    points from z = 1e-4 to 1,200: above the threshold Re H1 and Im H1 are
    within 2.0e-15 |H1| of J and Y for alpha <= 5 and 7.8e-15 at alpha = 30,
    where jv alone was up to 7.1e-14 (alpha = 0.77) and 1.9e-13 off; at or
    below it jv's J is within 8.1e-15 relative for alpha <= 5 and 5.2e-14 at
    alpha = 30.
    """
    alpha = constants.alpha
    far = z > max(constants.x_alpha, 1.0)
    j, y = np.empty_like(z), np.empty_like(z)
    h = _sp.hankel1(alpha, z[far])
    j[far], y[far] = h.real, h.imag
    near = ~far
    j[near], y[near] = _sp.jv(alpha, z[near]), _sp.yv(alpha, z[near])
    return j, np.where(z <= constants.x_alpha, math.sqrt(2.0) * j, np.hypot(j, y))

"""Uniform asymptotic approximations of the eigenfunctions.

Two regimes:

* Bessel form (WKB / Liouville transform): on [0, 1] the eigenfunction is
  approximated by

      psi_n(x) ~ A * chi^(1/4) sqrt(S(x)) J_alpha(sqrt(chi) S(x))
                 / ((1-x^2)^(1/4+alpha/2) (1-q x^2)^(1/4)),

  with q = c^2/chi_n, S the elliptic arc-length map and, in the fully
  explicit variant, A replaced by Ahat = sqrt(pi / (2 K(sqrt(q)))).  The
  accompanying envelope is rigorous on admissible frames: it combines the
  eps_n-scaled Olver bound, which reads Olver's modulus M_alpha and weight
  E_alpha only through their ratio M/E, with the exactly computed
  difference |A - Ahat| times the main term.

* Jacobi form: for 0 < alpha < 3/2 and q bounded away from 1, psi_n is
  approximated by A_n Ptilde_n^(alpha, alpha) where A_n is the orthogonal
  projection coefficient (the n-th Jacobi coefficient of psi_n).  The error
  constant in front of c^2/(n + 2 alpha + 1) is empirical: it is reported
  and its stability is asserted across sweeps, never assumed a priori.

Admissibility for the Bessel form means q < 1 together with
(1 - q) sqrt(chi) >= pi (7/4 + 3 alpha^2) m_alpha.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .specfun import (
    BesselEnvelopeConstants,
    _bessel_j_olver_ratio,
    _ptilde_at_one,
    elliptic_K,
    envelope_constants,
    jacobi_series_eval,
    s_map,
)
from .sturm import ChiSpectrum

_X_ENDPOINT = 1e-10   # below this distance to x=1 the 0/0 forms switch to limits


@dataclass(frozen=True)
class WkbFrame:
    """Scalars of the Bessel-form approximation for one mode.

    a_exact = A = 2^alpha Gamma(1+alpha) psi_n(1) / ((1-q)^(alpha/2)
    chi^(1/4+alpha/2)), positive under the psi_n(1) > 0 sign convention (make_frame
    sums psi_n(1)), and a_hat = Ahat = sqrt(pi / (2 K(sqrt(q)))); both NaN unless q < 1, chi > 0.
    """

    alpha: float
    n: int
    chi: float
    q: float
    eps: float
    a_exact: float
    a_hat: float
    constants: BesselEnvelopeConstants
    admissible: bool
    failure: str | None


def _log_a_over_psi1(alpha: float, chi: float, q: float) -> float:
    """log(A / psi_n(1)) = log(2^alpha Gamma(1+alpha) / ((1-q)^(alpha/2) chi^(1/4+alpha/2))).

    In log space, so that neither Gamma(1+alpha) (inf past alpha ~ 170.6) nor
    chi^(1/4+alpha/2) overflows at large alpha; needs q < 1 and chi > 0.
    """
    return (alpha * math.log(2.0) + float(_sp.gammaln(1.0 + alpha))
            - 0.5 * alpha * math.log1p(-q) - (0.25 + 0.5 * alpha) * math.log(chi))


def make_frame(spectrum: ChiSpectrum, n: int) -> WkbFrame:
    """The frame of mode n: eps, admissibility, envelope constants, A and Ahat.

    eps = pi (e-1) (7/4 + 3 alpha^2) m_alpha / ((1-q) sqrt(chi)); admissible
    means q < 1 and (1-q) sqrt(chi) >= pi (7/4 + 3 alpha^2) m_alpha, and
    failure names the hypothesis that fails.  Where q < 1 and chi is a
    normal double, A = 2^alpha Gamma(1+alpha) psi_n(1) / ((1-q)^(alpha/2)
    chi^(1/4+alpha/2)), taken in log space so that it stays finite at large
    alpha, and Ahat = sqrt(pi / (2 K(sqrt(q)))); elsewhere both are NaN.  (A
    subnormal chi_0 is the c = 0 value to rounding, as in ChiSpectrum.q.)  psi_n(1) is
    coeffs[n] dotted with specfun._ptilde_at_one, not Clenshaw: 2.8e-15 off a 40-digit
    sum at (alpha, c, n) = (1.4, 400, 830), where Clenshaw is 5.0e-12 off.
    """
    alpha = spectrum.params.alpha
    chi = spectrum.chi(n)
    q = spectrum.q(n)
    cst = envelope_constants(alpha)
    threshold = math.pi * (1.75 + 3.0 * alpha * alpha) * cst.m_alpha
    failure = None
    a_exact = a_hat = math.nan
    if q >= 1.0:
        failure = f"q = c^2/chi_n = {q:.6g} >= 1 (oscillatory regime required)"
        eps = math.inf
    else:
        margin = (1.0 - q) * math.sqrt(chi)
        if margin < threshold:
            failure = (f"(1-q) sqrt(chi) = {margin:.6g} < "
                       f"pi (7/4 + 3 alpha^2) m_alpha = {threshold:.6g}")
        eps = math.pi * (math.e - 1.0) * (1.75 + 3.0 * alpha * alpha) * cst.m_alpha \
            / margin if margin else math.inf
        if chi >= sys.float_info.min:
            row = np.trim_zeros(spectrum.coeffs[n], "b")   # no trailing 0 meets an inf
            with np.errstate(over="ignore"):   # Ptilde_k(1) and |A| past the double range are inf
                psi1 = float(row @ _ptilde_at_one(alpha, 2 * row.size)[n % 2::2])
                log_a = _log_a_over_psi1(alpha, chi, q) + math.log(abs(psi1))
                a_exact = float(np.copysign(np.exp(log_a), psi1))
            a_hat = math.sqrt(math.pi / (2.0 * elliptic_K(math.sqrt(q))))
    return WkbFrame(alpha=alpha, n=n, chi=chi, q=q, eps=eps, a_exact=a_exact,
                    a_hat=a_hat, constants=cst, admissible=failure is None,
                    failure=failure)


def _bessel_terms(frame: WkbFrame, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Main term and Olver-modulus envelope factor of the Bessel form at x.

    main = chi^(1/4) sqrt(S) J_alpha(sqrt(chi) S) / ((1-x^2)^(1/4+a/2)
    (1-q x^2)^(1/4)) and factor = (1-x^2)^(1/4-a/2) chi^(1/4) sqrt(S)
    M_alpha(sqrt(chi) S) / ((1-q x^2)^(3/4) E_alpha(sqrt(chi) S)).  Near
    x = 1 the 0/0 form of main is replaced by its limit
    chi^(1/4+a/2) (1-q)^(a/2) / (2^a Gamma(1+a)) = psi_n(1) / A, taken in log
    space, and factor by its limit 0.

    J_alpha and M_alpha / E_alpha come from specfun._bessel_j_olver_ratio,
    which takes J and Y from one Hankel function H1 = J + iY where
    sqrt(chi) S > max(X_alpha, 1), which is all but the few points nearest
    x = 1, and from the separate J and Y routines there.  Re H1 is within
    2.0e-15 |H1| of J for alpha <= 1.4, where jv alone was up to 7.1e-14
    off, so main moves in its last digits toward the exact value.  M/E is
    sqrt(2) J below X_alpha and the Hankel modulus above it, so factor is
    formed with no division by J.
    """
    alpha, chi, q = frame.alpha, frame.chi, frame.q
    main = np.empty_like(x)
    factor = np.zeros_like(x)
    near = 1.0 - x < _X_ENDPOINT
    if np.any(near):
        main[near] = math.exp(-_log_a_over_psi1(alpha, chi, q))
    reg = ~near
    if np.any(reg):
        xr = x[reg]
        s = s_map(xr, q)
        z = math.sqrt(chi) * s
        one_mx2, one_mqx2 = 1.0 - xr * xr, 1.0 - q * xr * xr
        # J_alpha for the main term and M_alpha / E_alpha for the envelope
        j, m_over_e = _bessel_j_olver_ratio(frame.constants, z)
        main[reg] = chi ** 0.25 * np.sqrt(s) * j \
            / (one_mx2 ** (0.25 + alpha / 2.0) * one_mqx2 ** 0.25)
        factor[reg] = (one_mx2 ** 0.25 / one_mqx2 ** 0.75) \
            * chi ** 0.25 * np.sqrt(s) * m_over_e / one_mx2 ** (alpha / 2.0)
    return main, factor


def bessel_uniform(spectrum: ChiSpectrum, n: int, x):
    """Explicit Bessel-form approximation and its rigorous error envelope.

    Returns (value, envelope): value uses the leading constant Ahat, and the
    envelope is eps_n A Env(x) + |A - Ahat| |main term|, where A is the exact
    normalization constant computed from psi_n(1).  Raises on inadmissible
    frames, naming the violated hypothesis.
    """
    frame = make_frame(spectrum, n)
    if not frame.admissible:
        raise ValueError(f"Bessel-form frame inadmissible for n={n}: {frame.failure}")
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ValueError("bessel_uniform is defined on [0, 1]")
    main, factor = _bessel_terms(frame, arr)
    value = frame.a_hat * main
    envelope = frame.eps * frame.a_exact * factor \
        + abs(frame.a_exact - frame.a_hat) * np.abs(main)
    if np.ndim(x) == 0:
        return float(value[0]), float(envelope[0])
    return value, envelope


def jacobi_uniform(spectrum: ChiSpectrum, n: int, x, q0: float = 0.9):
    """Jacobi-polynomial approximation A_n Ptilde_n(x) of psi_n.

    A_n is the orthogonal projection of psi_n onto Ptilde_n, i.e. the n-th
    coefficient of its Jacobi expansion.  Requires 0 < alpha < 3/2 and
    q = c^2/chi_n <= q0, with q0 in [0, 1): the form needs q bounded away
    from 1.  Returns (value, a_n).
    """
    alpha = spectrum.params.alpha
    if not 0.0 < alpha < 1.5:
        raise ValueError("alpha must lie in (0,3/2) for the Jacobi-form approximation")
    if not 0.0 <= q0 < 1.0:
        raise ValueError(f"q0 must lie in [0, 1) for the Jacobi-form approximation, got {q0}")
    q = spectrum.q(n)
    if q > q0:
        raise ValueError(f"q = c^2/chi_n = {q:.6g} exceeds q0 = {q0}; increase n")
    a_n = float(spectrum.coeffs[n, n // 2])   # degree n in psi_n's packed row
    base = np.zeros(n // 2 + 1)
    base[-1] = 1.0
    return a_n * jacobi_series_eval(base, alpha, x, n % 2), a_n   # a float for a scalar x


def default_grid(m: int = 2001) -> np.ndarray:
    """Chebyshev-distributed points on [0, 1], clustered toward x = 1."""
    return np.sin(np.linspace(0.0, 0.5 * math.pi, m))


def symmetric_grid(m: int = 2001) -> np.ndarray:
    """Chebyshev points on [-1, 1], ascending."""
    return np.cos(np.linspace(math.pi, 0.0, m))


@dataclass(frozen=True)
class ApproxReport:
    """Grid comparison of an approximation against the reference psi_n."""

    kind: str
    alpha: float
    c: float
    n: int
    chi: float
    grid: np.ndarray
    approx: np.ndarray
    reference: np.ndarray
    envelope: np.ndarray
    sup_error: float
    sup_envelope: float
    envelope_violated: bool
    a_n: float | None = None
    scaled_error: float | None = None
    a_n_scaled: float | None = None


def bessel_report(spectrum: ChiSpectrum, n: int, grid=None) -> ApproxReport:
    """Theorem-style report for the Bessel form on [0, 1]."""
    xs = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if xs.size == 0:
        raise ValueError("bessel_report needs a grid of at least one point")
    approx, env = bessel_uniform(spectrum, n, xs)
    ref = spectrum.eigenfunction(n).value(xs)
    err = float(np.max(np.abs(approx - ref)))
    sup_env = float(np.max(env))
    return ApproxReport(
        kind="bessel", alpha=spectrum.params.alpha, c=spectrum.params.c, n=n,
        chi=spectrum.chi(n), grid=xs, approx=approx, reference=ref, envelope=env,
        sup_error=err, sup_envelope=sup_env, envelope_violated=bool(err > sup_env),
    )


def jacobi_report(spectrum: ChiSpectrum, n: int, grid=None, q0: float = 0.9) -> ApproxReport:
    """Report for the Jacobi form on [-1, 1], with the empirical constants.

    scaled_error = sup_error (n + 2 alpha + 1) / c^2 and
    a_n_scaled = |1 - A_n| (2n + 2 alpha + 1) / c^2 are the quantities whose
    boundedness across sweeps reflects the O(c^2/n) error law.
    """
    xs = symmetric_grid() if grid is None else np.asarray(grid, dtype=float)
    if xs.size == 0:
        raise ValueError("jacobi_report needs a grid of at least one point")
    approx, a_n = jacobi_uniform(spectrum, n, xs, q0=q0)
    ref = spectrum.eigenfunction(n).value(xs)
    err = float(np.max(np.abs(approx - ref)))
    alpha, c = spectrum.params.alpha, spectrum.params.c
    if c ** 2 > 0:   # c * c underflows to 0 below about 1e-162
        scaled = err * (n + 2 * alpha + 1) / c ** 2
        a_scaled = abs(1.0 - a_n) * (2 * n + 2 * alpha + 1) / c ** 2
    else:
        scaled = 0.0
        a_scaled = 0.0
    bound = np.full_like(xs, err)
    return ApproxReport(
        kind="jacobi", alpha=alpha, c=c, n=n, chi=spectrum.chi(n), grid=xs,
        approx=approx, reference=ref, envelope=bound, sup_error=err,
        sup_envelope=float(err), envelope_violated=False,
        a_n=a_n, scaled_error=scaled, a_n_scaled=a_scaled,
    )

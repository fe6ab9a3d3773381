"""Spectra of the weighted finite Fourier transform and its composition.

Three computational routes, cross-checked against each other:

* Nystrom: F_c itself is discretized on a Gauss-Jacobi rule as
  sqrt(w_i w_j) e^{i c x_i x_j} and split by parity into a real cos block
  (even modes) and sin block (odd modes); their eigenvalues are the mu_n up
  to the phase i^n, and lambda_n = (c/2pi) mu_n^2.  The default rule has
  ceil(c) + n_keep + 60 nodes (default_nystrom_size); OperatorSpectrum keeps
  all its discrete lambda, so a counting report needs no second eigensolve.
  Rounding in mu is about 1e-16 |mu_0|, so lambda_n keeps a relative error
  near 1e-16 sqrt(lambda_0/lambda_n) (1e-10 at lambda ~ 1e-14) and is noise
  below lambda ~ 1e-28; an eigenvalue is flagged stable only where it
  agrees with the eigen-relation below.

* Eigen-relation: mu_n is obtained by applying the transform to psi_n from
  the Sturm-Liouville solver at a point where |psi_n| is large.

* Explicit product formula: mu_n = i^n sqrt(pi) * Gamma-ratio * c^n
  exp(Phi_n) with Phi_n = int_0^c (F_n(tau) - n)/tau dtau, evaluated in log
  space; F_n at each tau node comes from the Jacobi coefficients of psi_n by
  one banded solve, with no quadrature rule in x.  This is the only
  trustworthy route once lambda_n drops under the double-precision floor,
  and it is what the decay diagnostics use.

Trace and Hilbert-Schmidt closed forms plus the counting bounds for
#{lambda_n >= delta} complete the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp
from scipy.linalg import eigh, solve_banded

from .specfun import (
    gauss_jacobi,
    jacobi_h,
    jacobi_series_deriv_coeffs,
    jacobi_series_eval,
    sym_offdiag,
    total_mass,
)
from .sturm import ChiSpectrum, ProblemParams, chi_spectrum


# i^k = _I_POWERS[k % 4] exactly; 1j ** k is inexact from k = 100
_I_POWERS = np.array([1, 1j, -1, -1j])


def default_nystrom_size(c: float, n_keep: int = 12) -> int:
    """Gauss-Jacobi nodes for a rule that resolves the top n_keep lambda at c.

    ceil(c) + n_keep + 60, raised to the 2 n_keep + 20 that nystrom_spectrum
    demands.  The rule only integrates the analytic kernel e^{i c x y}
    against psi_n, where Gauss-Nystrom converges exponentially once the rule
    has about c + n_keep nodes (Bornemann, Math. Comp. 79 (2010)); 60 is
    the measured margin.  Against a rule of twice the size, over alpha in
    {-0.9, -0.3, 0, 0.5, 1.4, 3}, c in {1, 10, 30, 150, 400} and n_keep in
    {12, 24, 48}, the kept lambda >= 1e-10 lambda_0 agree within 8e-12
    relative (the rounding floor), and #{lambda >= delta} is unchanged for
    delta in {0.01, 0.1, 0.5, 0.9}.  A margin of 40 gives 2.1e-11; a margin
    of 20 fails, 1.7e-9 off at (alpha, c, n_keep) = (-0.9, 400, 12).
    """
    return max(math.ceil(c) + n_keep + 60, 2 * n_keep + 20)


def _nystrom_lambdas(params: ProblemParams, n_quad: int) -> np.ndarray:
    """Every eigenvalue of the discretized composition operator, descending.

    On the symmetric Gauss-Jacobi rule, sqrt(w_i w_j) e^{i c x_i x_j} splits
    by parity into two real symmetric blocks on the nodes x >= 0, where each
    x > 0 node also carries the weight of its mirror node: the eigenvalues of
    sqrt(w_i w_j) cos(c x_i x_j) are the even-mode mu, and i times those of
    sqrt(w_i w_j) sin(c x_i x_j) the odd-mode mu.  The node at 0 (odd n_quad)
    keeps its single weight and enters only the cos block, since its sin row
    is identically zero.  lambda = (c/2pi) mu^2.
    """
    rule = gauss_jacobi(n_quad, params.alpha)
    half = n_quad // 2
    odd = n_quad % 2
    x = rule.nodes[half:]
    w = 2.0 * rule.weights[half:]
    if odd:
        w[0] = rule.weights[half]
    sw = np.sqrt(w)
    arg = params.c * x[:, None] * x[None, :]
    mu_even = eigh(sw[:, None] * np.cos(arg) * sw, eigvals_only=True)
    s = sw[odd:]
    mu_odd = eigh(s[:, None] * np.sin(arg[odd:, odd:]) * s, eigvals_only=True)
    lambdas = (params.c / (2.0 * math.pi)) * np.concatenate([mu_even, mu_odd]) ** 2
    return np.sort(lambdas)[::-1]


@dataclass(frozen=True)
class OperatorSpectrum:
    """Leading lambda_n with the matching mu_n and their cross residuals."""

    params: ProblemParams
    n_quad: int
    lambdas: np.ndarray            # descending, length n_keep
    mus: np.ndarray                # complex, from the eigen-relation
    cross_residuals: np.ndarray    # |lambda_n - (c/2pi) |mu_n|^2|
    stable: np.ndarray             # cross_residuals <= 1e-10 lambda
    discrete: np.ndarray           # all n_quad discrete lambda = (c/2pi) mu^2, descending

    @property
    def trace_discrete(self) -> float:
        """Sum of the discrete lambda."""
        return float(self.discrete.sum())

    @property
    def hs_discrete(self) -> float:
        """Sum of the squares of the discrete lambda."""
        return float((self.discrete ** 2).sum())


def nystrom_spectrum(params: ProblemParams, n_quad: int | None = None,
                     n_keep: int = 12) -> OperatorSpectrum:
    """Discretize the composition operator and keep the top n_keep eigenvalues.

    The n-th eigenvalue in descending order is paired with mu_n from the
    eigen-relation, and it is flagged stable when the two independent routes
    to lambda_n = (c/2pi) |mu_n|^2 agree to 1e-10 relative, so a stable value
    is within ~2e-10 of the exact one.  A mode that sorted order pairs with
    the wrong psi_n (seen at alpha < 0) disagrees and is flagged; from
    lambda ~ 1e-10 down the eigen-relation's own rounding can exceed 1e-10,
    so accurate edge modes may be flagged unstable too.
    """
    if params.c <= 0:
        raise ValueError("the composition operator is trivial at c = 0")
    nq = default_nystrom_size(params.c, n_keep) if n_quad is None else n_quad
    if nq < 2 * n_keep + 20:
        raise ValueError(f"n_quad={nq} too small for n_keep={n_keep}")
    vals = _nystrom_lambdas(params, nq)
    lambdas = vals[:n_keep].copy()
    spec = chi_spectrum(params, n_keep - 1)
    mus = mu_eigenrelation(params, np.arange(n_keep), spec)
    cross = np.abs(lambdas - (params.c / (2.0 * math.pi)) * np.abs(mus) ** 2)
    return OperatorSpectrum(
        params=params, n_quad=nq, lambdas=lambdas, mus=mus,
        cross_residuals=cross, stable=cross <= 1e-10 * lambdas, discrete=vals,
    )


def fourier_jacobi_moments(alpha: float, u, n_modes: int) -> np.ndarray:
    """Transforms m_k(u) = int e^{iuy} Ptilde_k^(a,a)(y) (1-y^2)^a dy, k < n_modes.

    Closed form via the Gegenbauer-Bessel pair:
    m_k(u) = coef_k i^k J_{k+a+1/2}(u) / u^(a+1/2) with a Gamma-ratio
    coefficient; relative accuracy is that of the Bessel evaluation, with no
    cancellation, which is what makes the eigen-relation stable for deeply
    decayed modes.  u is a point or an array of them; an array of shape S
    gives shape S + (n_modes,), one Bessel call for all points, and each row
    bit-identical to the call with that point alone.
    """
    a = alpha
    lam = a + 0.5
    k = np.arange(n_modes, dtype=float)
    log_h = np.log(jacobi_h(k, a, a))
    # Gamma(2a+1) / (Gamma(a+1/2) Gamma(a+1)) = 2^(2a) / sqrt(pi) (Legendre
    # duplication); the Gamma form is inf/inf at a = -1/2
    log_coef = (math.log(math.pi) + (0.5 - a) * math.log(2.0)
                + 2 * a * math.log(2.0) - 0.5 * math.log(math.pi)
                + _sp.gammaln(k + a + 1.0) - _sp.gammaln(k + 1.0) - 0.5 * log_h)
    phase = _I_POWERS[np.arange(n_modes) % 4]
    us = np.asarray(u, dtype=float)
    au = np.abs(us.reshape(-1))
    signs = np.where(us.reshape(-1, 1) >= 0, 1.0, (-1.0) ** np.arange(n_modes))
    small = au < 1e-8
    out = np.empty((au.size, n_modes), dtype=complex)
    # u^lam and log(u/2) in Python floats, point by point: numpy's SIMD power
    # and log can differ from them in the last bit
    if small.any():
        # leading term of J_{k+lam}(u)/u^lam; only k = 0 survives at u = 0
        log_bessel = np.array([np.where(k == 0, 0.0, -np.inf) if x == 0.0
                               else k * math.log(x / 2.0) for x in au[small].tolist()])
        vals = np.exp(log_coef + log_bessel - lam * math.log(2.0)
                      - _sp.gammaln(k + lam + 1.0))
        out[small] = phase * vals * signs[small]
    if not small.all():
        big = au[~small]
        with np.errstate(under="ignore"):
            bessel = (_sp.jv(k + lam, big[:, None])
                      / np.array([x ** lam for x in big.tolist()])[:, None])
        out[~small] = phase * np.exp(log_coef) * bessel * signs[~small]
    return out.reshape(us.shape + (n_modes,))


def _spectrum_for(params: ProblemParams, ns: np.ndarray,
                  spectrum: ChiSpectrum | None) -> ChiSpectrum:
    """The spectrum holding modes ns at params: the one given, else a fresh solve.

    A spectrum solved at other parameters is refused, as is a mode it lacks.
    """
    spec = spectrum if spectrum is not None else chi_spectrum(params, int(ns.max()))
    if spec.params != params:
        raise ValueError(f"spectrum solved at {spec.params}, not at {params}")
    if np.any(ns < 0) or np.any(ns > spec.n_max):
        raise ValueError(f"mode index {ns} outside computed range 0..{spec.n_max}")
    return spec


def mu_eigenrelation(params: ProblemParams, n, spectrum: ChiSpectrum | None = None):
    """mu_n from applying the transform to psi_n at a well-conditioned point.

    mu_n = (1/psi_n(x0)) int e^{i c x0 y} psi_n(y) (1-y^2)^alpha dy with x0
    the coarse-grid argmax of |psi_n|, the integral expanded over the
    closed-form Fourier-Jacobi moments.  n is a mode index or an array of
    them (an array gives a complex array of its shape): every mode shares one
    Clenshaw pass on the coarse grid, which also gives psi_n(x0), and one
    moment call, and each value is bit-identical to the call for that mode
    alone.  Its relative error still grows as mu_n decays.  Measured at
    alpha = 0.5 against log_mu_magnitude, with psi_n from
    chi_spectrum(params, 40), it is 2e-9 at n = 20, 9e-6 at n = 28 and 0.85
    at n = 32 for c = 2, and 6e-8 at n = 24, 2e-3 at n = 28 for c = 10; with
    the default spectrum (n_max = max n) it is already 2e-2 at n = 24 for
    c = 2.  Use log_mu_magnitude (or mu_explicit) for deeper modes.
    """
    ns = np.asarray(n)
    spec = _spectrum_for(params, ns, spectrum)
    modes = ns.reshape(-1)
    coeffs = spec.coeffs[modes]
    coarse = np.linspace(-1.0, 1.0, 501)
    psi = jacobi_series_eval(coeffs, params.alpha, coarse)
    # not argmax, which picks another x0 among ties
    idx = np.argsort(np.abs(psi), axis=-1)[:, -1]
    psi_x0 = psi[np.arange(modes.size), idx]
    weak = modes[~(np.abs(psi_x0) >= 1e-8)]
    if weak.size:
        raise RuntimeError(f"no evaluation point with |psi_{weak[0]}| >= 1e-8 found")
    moments = fourier_jacobi_moments(params.alpha, params.c * coarse[idx], spec.n_trunc)
    mus = np.array([complex(np.dot(row, mom)) / float(value)
                    for row, mom, value in zip(coeffs, moments, psi_x0)])
    return mus.reshape(ns.shape) if ns.ndim else complex(mus[0])


def f_n_moment(params: ProblemParams, n, spectrum: ChiSpectrum | None = None):
    """Moment F_n(c, alpha) = int x psi_n psi_n' (1-x^2)^alpha dx.

    Equals n at c = 0.  n is a mode index or an array of them (an array
    gives an array).  Computed from the Jacobi coefficients alone: x psi_n'
    has coefficients e in the Ptilde^(alpha+1) basis, and the two-term
    connection Ptilde^alpha_k = p_k Ptilde^(alpha+1)_k
    + q_k Ptilde^(alpha+1)_(k-2) (DLMF 18.9.7, normalised) turns them into
    alpha-basis coefficients g by one upper-banded solve B g = e, shared by
    every mode; then F_n = c_n . g.  p_k is the ratio of the two leading
    coefficients and q_k = -b_k b_(k-1) / p_(k-2), with b the alpha
    offdiagonals, so both stay finite at alpha = -1/2.
    """
    ns = np.asarray(n)
    spec = _spectrum_for(params, ns, spectrum)
    a = params.alpha
    coeffs = spec.coeffs[ns]
    size = spec.n_trunc
    b = sym_offdiag(a, size - 1)
    b_up = sym_offdiag(a + 1.0, size - 1)
    # x psi' in the alpha+1 basis: x Ptilde_j = b_(j+1) Ptilde_(j+1) + b_j Ptilde_(j-1)
    d = jacobi_series_deriv_coeffs(coeffs, a)
    e = np.zeros(coeffs.shape)
    e[..., 1:] = b_up[1:] * d
    e[..., :-2] += b_up[1:-1] * d[..., 1:]
    p = math.sqrt(total_mass(a + 1.0) / total_mass(a)) \
        * np.concatenate(([1.0], np.cumprod(b_up[1:] / b[1:])))
    banded = np.zeros((3, size))
    banded[0, 2:] = -b[2:] * b[1:-1] / p[:-2]
    banded[2] = p
    g = solve_banded((0, 2), banded, e.reshape(-1, size).T).T.reshape(e.shape)
    out = np.sum(coeffs * g, axis=-1)
    return out if out.ndim else float(out)


def phi_n(params: ProblemParams, n, tau_nodes: int = 64):
    """Phi_n(c) = int_0^c (F_n(tau) - n)/tau dtau by Gauss-Legendre.

    The integrand extends by 0 at tau = 0 (it is O(tau)); interior
    Gauss-Legendre nodes never sample the endpoint.  Each node costs one
    Sturm-Liouville solve up to the largest n and one banded F_n solve,
    shared by every mode when n is an array.
    """
    ns = np.asarray(n)
    if params.c == 0:
        return np.zeros(ns.shape) if ns.ndim else 0.0
    nm = int(ns.max())
    t, w = np.polynomial.legendre.leggauss(tau_nodes)
    taus = 0.5 * params.c * (t + 1.0)
    wts = 0.5 * params.c * w
    vals = []
    for tau in taus:
        p_tau = ProblemParams(alpha=params.alpha, c=float(tau))
        vals.append((f_n_moment(p_tau, ns, chi_spectrum(p_tau, nm)) - ns) / tau)
    out = np.dot(wts, np.array(vals))
    return out if out.ndim else float(out)


def log_mu_magnitude(params: ProblemParams, n, tau_nodes: int = 64):
    """log |mu_n| from the explicit product formula, safe for any decay depth.

    n is a mode index or an array of them (one tau-grid serves them all).
    A non-finite value is refused, not returned.
    """
    a, c = params.alpha, params.c
    if c <= 0:
        raise ValueError("the explicit formula requires c > 0")
    k = np.asarray(n, dtype=float)
    # Gamma(k + 2a + 1) / Gamma(2k + 2a + 1) is 1 at k = 0, so both terms
    # drop out there; their logs are inf - inf at a = -1/2
    at_zero = k == 0
    log_pref = (0.5 * math.log(math.pi)
                + _sp.gammaln(k + a + 1.0)
                + np.where(at_zero, 0.0, _sp.gammaln(k + 2 * a + 1.0))
                - _sp.gammaln(k + a + 1.5)
                - np.where(at_zero, 0.0, _sp.gammaln(2 * k + 2 * a + 1.0)))
    out = log_pref + k * math.log(c) + phi_n(params, n, tau_nodes)
    if not np.all(np.isfinite(out)):
        raise RuntimeError(f"log |mu_n| is not finite at {params}, n = {n}")
    return out if out.ndim else float(out)


def mu_explicit(params: ProblemParams, n: int, tau_nodes: int = 64) -> complex:
    """mu_n = i^n sqrt(pi) Gamma-ratio c^n exp(Phi_n); may underflow to 0.

    Raises, through log_mu_magnitude, where log |mu_n| is not finite.
    """
    log_abs = log_mu_magnitude(params, n, tau_nodes)
    mag = math.exp(log_abs) if log_abs > -700.0 else 0.0
    return complex(_I_POWERS[n % 4]) * mag


def log_lambda_explicit(params: ProblemParams, n, tau_nodes: int = 64):
    """log lambda_n via lambda = (c/2pi) |mu_n|^2 in log space; n may be an array."""
    return math.log(params.c / (2.0 * math.pi)) \
        + 2.0 * log_mu_magnitude(params, n, tau_nodes)


@dataclass(frozen=True)
class DecayReport:
    """Super-exponential decay diagnostics over an index window."""

    params: ProblemParams
    ns: np.ndarray
    log_lambdas: np.ndarray
    rate_terms: np.ndarray      # (2n+1) log((4n + 4 alpha + 2)/(e c))
    slope: float                # fit of -log lambda_n against the rate term
    residuals: np.ndarray       # log lambda_n + rate term, bounded if decay holds
    bound_ok: bool              # residuals stay within 2x of the calibrated constant


def decay_check(params: ProblemParams, n_range) -> DecayReport:
    """Fit -log lambda_n against the super-exponential rate term.

    lambda values come from the log-space explicit formula (the Nystrom
    floor makes direct eigenvalues meaningless in this regime).  The bound
    constant is calibrated at the smallest admissible n, held fixed with a
    factor-2 safety: the residual log lambda_n + rate term creeps toward its
    asymptote from below, so exact equality at the calibration point cannot
    hold for larger n, but any loss of super-exponential decay would blow
    through the factor 2 immediately.
    """
    if not 0.0 < params.alpha < 1.5:
        raise ValueError("decay_check requires 0 < alpha < 3/2")
    ns = np.asarray(sorted(n_range), dtype=int)
    spec = chi_spectrum(params, int(ns.max()))
    keep = [n for n in ns if params.c ** 2 < spec.chi(int(n))]
    ns = np.asarray(keep, dtype=int)
    if ns.size < 3:
        raise ValueError("decay_check needs at least three admissible indices")
    loglam = log_lambda_explicit(params, ns)
    t = (2.0 * ns + 1.0) * np.log((4.0 * ns + 4.0 * params.alpha + 2.0)
                                  / (math.e * params.c))
    slope = float(np.polyfit(t, -loglam, 1)[0])
    resid = loglam + t
    bound_ok = bool(np.all(resid <= resid[0] + math.log(2.0)))
    return DecayReport(params=params, ns=ns, log_lambdas=loglam, rate_terms=t,
                       slope=slope, residuals=resid, bound_ok=bound_ok)


@dataclass(frozen=True)
class TraceAndNorm:
    """Closed-form trace and Hilbert-Schmidt data of the composition operator."""

    trace: float
    hs_norm_limit: float
    gamma_alpha: float
    bessel_moment: float


def trace_and_norm(params: ProblemParams) -> TraceAndNorm:
    """Trace (c/2pi)(2^(2a+1) B(a+1,a+1))^2 and the c -> infinity HS limit.

    gamma_alpha uses the squared Beta-ratio form that the Hilbert-Schmidt
    computation produces (consistent with gamma_0 = 1).  The two equivalent
    trace expressions (Beta form and Gamma-ratio form) are asserted equal as
    a self-check, which a non-finite value fails; they match through the
    Legendre duplication identity.  The Gamma and Beta ratios are taken in
    log form, so every field stays finite for large alpha.
    gamma_alpha diverges as alpha -> -1/2+, so alpha <= -1/2 is refused.
    """
    a, c = params.alpha, params.c
    if a <= -0.5:
        raise ValueError(f"the Hilbert-Schmidt limit needs alpha > -1/2, got alpha = {a}")
    trace_beta = (c / (2.0 * math.pi)) * total_mass(a) ** 2
    # log forms: Gamma(2a + 1.5) overflows past alpha ~ 85 and 2^(4a) past 255
    lg = _sp.gammaln
    trace_gamma = 0.5 * c * math.exp(2.0 * (lg(a + 1.0) - lg(a + 1.5)))
    if c > 0 and not abs(trace_beta - trace_gamma) <= 1e-12 * abs(trace_beta):
        raise RuntimeError("trace self-check failed: Beta and Gamma forms disagree")
    gamma_alpha = math.exp(4 * a * math.log(2.0) + 2.0 * (
        _sp.betaln(2 * a + 1.0, 2 * a + 1.0) - _sp.betaln(a + 1.0, a + 1.0)))
    moment = math.exp(0.5 * math.log(math.pi) - 2 * a * math.log(2.0) + lg(2 * a + 1.0)
                      - lg(2 * a + 1.5) - 2.0 * lg(a + 1.0))
    return TraceAndNorm(trace=trace_beta, hs_norm_limit=gamma_alpha * trace_beta,
                        gamma_alpha=gamma_alpha, bessel_moment=moment)


@dataclass(frozen=True)
class CountingReport:
    """Sandwich bounds for M_c(delta) = #{lambda_n >= delta}."""

    params: ProblemParams
    delta: float
    n_quad: int
    m_empirical: int
    lower_bound: float
    upper_bound: float
    gamma_alpha: float
    trace_value: float
    hs_norm_value: float       # empirical sum of lambda^2 from the matrix
    slack: float               # max(0, lower_bound - m_empirical), the o(c) gap
    upper_ok: bool


def counting(params: ProblemParams, delta: float, n_quad: int | None = None) -> CountingReport:
    """Count eigenvalues >= delta and compare with the trace/HS bounds.

    Upper bound trace/delta is exact; the lower bound carries an o(c) term,
    so only its gap relative to c is meaningful, not the pointwise
    inequality.
    """
    nq = default_nystrom_size(params.c) if n_quad is None else n_quad
    return _counting_report(params, delta, _nystrom_lambdas(params, nq))


def _counting_report(params: ProblemParams, delta: float,
                     vals: np.ndarray) -> CountingReport:
    """The counting report from all discrete lambda of one n_quad rule."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    # alpha = 0 is the classical Landau case (gamma_0 = 1); negative alpha is out
    if params.alpha < 0:
        raise ValueError("counting bounds require alpha >= 0")
    m_emp = int(np.count_nonzero(vals >= delta))
    tn = trace_and_norm(params)
    lower = (tn.gamma_alpha - delta) / (1.0 - delta) * tn.trace
    upper = tn.trace / delta
    return CountingReport(
        params=params, delta=delta, n_quad=vals.size, m_empirical=m_emp,
        lower_bound=lower, upper_bound=upper, gamma_alpha=tn.gamma_alpha,
        trace_value=tn.trace, hs_norm_value=float((vals ** 2).sum()),
        slack=max(0.0, lower - m_emp), upper_ok=bool(m_emp <= upper),
    )

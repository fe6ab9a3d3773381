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
  agrees with the ratio route below.

* Ratio route: mu_(n+1) / mu_n = i c A_n / B_n with A_n = int x psi_(n+1)
  psi_n w and B_n = int psi_(n+1)' psi_n w, bilinear forms in the Jacobi
  coefficients of one Sturm-Liouville solve, anchored at mu_0 from the
  eigen-relation at x = 0; log_mu_ratio gives every log |mu_n| of a solved
  spectrum at once, at any decay depth; OperatorSpectrum.mus and
  decay_check come from it.

* Eigen-relation: F_c psi_n = mu_n psi_n at x = 0 gives mu_n from psi_n's
  degree-0 or degree-1 coefficient over psi_n(0) or psi_n'(0); a
  cross-check, whose error grows as mu_n decays.

The paper's explicit product formula, mu_n = i^n sqrt(pi) Gamma-ratio c^n
exp(Phi_n) with Phi_n = int_0^c (F_n(tau) - n)/tau dtau, is the reference
the ratio route is tested against, and lives with the tests
(tests/explicit_route.py); it integrates over tau in (0, c], independent of
the ratio route's one solve at c, and needs F_n - n from _f_n_rows.

Trace and Hilbert-Schmidt closed forms plus the counting bounds for
#{lambda_n >= delta} complete the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .specfun import (_count, _lapack, gauss_jacobi, jacobi_series_deriv_coeffs, sym_offdiag,
                      total_mass)
from .sturm import ChiSpectrum, ProblemParams, _mode_indices, _sign_reference, chi_spectrum


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
    is identically zero.  lambda = (c/2pi) mu^2.  Each block is solved as
    eigh(block, eigvals_only=True) solves it, so bit-identically: LAPACK's
    dsyevr on the lower triangle, with the workspace its own query gives.
    """
    def eigvals(block):
        lwork, liwork = _lapack("dsyevr_lwork", len(block), lower=1)
        return _lapack("dsyevr", block, compute_v=0, lower=1,
                       lwork=int(lwork), liwork=int(liwork))[0]

    rule = gauss_jacobi(n_quad, params.alpha)
    half = n_quad // 2
    odd = n_quad % 2
    x = rule.nodes[half:]
    w = 2.0 * rule.weights[half:]
    if odd:
        w[0] = rule.weights[half]
    sw = np.sqrt(w)
    arg = params.c * x[:, None] * x[None, :]
    mu_even = eigvals(sw[:, None] * np.cos(arg) * sw)
    s = sw[odd:]
    mu_odd = eigvals(s[:, None] * np.sin(arg[odd:, odd:]) * s)
    lambdas = (params.c / (2.0 * math.pi)) * np.concatenate([mu_even, mu_odd]) ** 2
    return np.sort(lambdas)[::-1]


@dataclass(frozen=True)
class OperatorSpectrum:
    """Leading lambda_n with the matching mu_n and their cross residuals."""

    params: ProblemParams
    n_quad: int
    lambdas: np.ndarray            # descending, length n_keep
    mus: np.ndarray                # complex, i^n exp(log_mu_ratio), the ratio route
    cross_residuals: np.ndarray    # |lambda_n - (c/2pi) |mu_n|^2|
    stable: np.ndarray             # cross_residuals <= 1e-10 lambda
    discrete: np.ndarray           # all n_quad discrete lambda = (c/2pi) mu^2, descending

    @property
    def trace_discrete(self) -> float:
        """Sum of the discrete lambda."""
        return float(self.discrete.sum())

    def counting(self, delta: float) -> "CountingReport":
        """The counting report for delta from the discrete lambda, with no second solve."""
        return _counting_report(self.params, delta, self.discrete)


def nystrom_spectrum(params: ProblemParams, n_quad: int | None = None,
                     n_keep: int = 12) -> OperatorSpectrum:
    """Discretize the composition operator and keep the top n_keep eigenvalues.

    The n-th eigenvalue in descending order is paired with
    mu_n = i^n exp(log_mu_ratio) from one chi_spectrum solve of modes
    0..n_keep-1 (coefficient forms only, no Clenshaw pass), and it is flagged
    stable when the two independent routes to lambda_n = (c/2pi) |mu_n|^2
    agree to 1e-10 relative, so a stable value is within ~2e-10 of the
    exact one.  The ratio route's error in log |mu_n| is a few
    1e-13 max(1, |log |mu_n||) against the explicit product formula (the
    tests' reference), far inside that bound on every mode a Nystrom rule
    resolves, so a cleared flag points at the Nystrom value: a mode that
    sorted order pairs with the wrong psi_n (seen at alpha < 0), or one near
    the Nystrom rounding floor (lambda ~ 1e-10 lambda_0 and below).  n_keep
    is an integer >= 1 and n_quad one >= 2 n_keep + 20, neither a bool nor a
    float (ValueError naming it otherwise).
    """
    n_keep = _count(n_keep, "n_keep", 1)
    if params.c <= 0:
        raise ValueError("the composition operator is trivial at c = 0")
    nq = (default_nystrom_size(params.c, n_keep) if n_quad is None
          else _count(n_quad, "n_quad", 2 * n_keep + 20))
    vals = _nystrom_lambdas(params, nq)
    lambdas = vals[:n_keep].copy()
    log_mu = log_mu_ratio(chi_spectrum(params, n_keep - 1))
    mus = _I_POWERS[np.arange(n_keep) % 4] * np.exp(log_mu)
    cross = np.abs(lambdas - (params.c / (2.0 * math.pi)) * np.abs(mus) ** 2)
    return OperatorSpectrum(
        params=params, n_quad=nq, lambdas=lambdas, mus=mus,
        cross_residuals=cross, stable=cross <= 1e-10 * lambdas, discrete=vals,
    )


def mu_eigenrelation(spectrum: ChiSpectrum, n):
    """mu_n from the eigen-relation F_c psi_n = mu_n psi_n at x = 0.

    At 0 the transform of psi_n is c_0 sqrt(h_0), h_0 = total_mass(alpha),
    and its x-derivative i c c_1 b_1 sqrt(h_0), so mu_n is that over psi_n(0)
    (even n) or psi_n'(0) (odd n): one dot product of the mode's own
    coefficients with sturm's sign reference, no Bessel function and no
    Clenshaw pass.  n is a mode index or an array of them (an array gives a
    complex array of its shape, each value bit-identical to the one-mode
    call); mode 0 is log_mu_ratio's anchor.  At c = 0, F_c has rank one and
    mu_n = 0 exactly for n >= 1, which is returned.  Otherwise a zero or
    non-finite psi_n(0), psi_n'(0) or mu_n is refused with RuntimeError
    naming the mode (a zero mu_n is an underflow deep in the decay).  The
    relative error grows as mu_n decays, to 1.1e-5 at mode 89 of
    (alpha, c) = (0, 100) against i^n exp(log_mu_ratio), which is the
    library's route.
    """
    ns = _mode_indices(n, spectrum.n_max)
    params, a = spectrum.params, spectrum.params.alpha
    modes = ns.reshape(-1)
    b = sym_offdiag(a, 2 * spectrum.coeffs[0, 0::2].size)
    refs = {parity: _sign_reference(a, b, parity, spectrum.coeffs[0, parity::2].size)
            for parity in set((modes % 2).tolist())}
    # the references carry sqrt(total_mass) of alpha (even) and alpha + 1 (odd)
    h_0 = total_mass(a)
    scale = (h_0, params.c * b[1] * math.sqrt(h_0 * total_mass(a + 1.0)))
    mus = np.empty(modes.size, dtype=complex)
    for i, m in enumerate(modes.tolist()):
        if m and params.c == 0:
            mus[i] = 0.0
            continue
        row = spectrum.coeffs[m, m % 2::2]
        at_zero = np.dot(row, refs[m % 2])
        mu = row[0] * scale[m % 2] / at_zero if at_zero != 0 else at_zero
        if not (mu != 0 and math.isfinite(mu)):
            what = (f"mu_{m}" if at_zero != 0 and math.isfinite(at_zero)
                    else f"psi_{m}'(0)" if m % 2 else f"psi_{m}(0)")
            raise RuntimeError(f"eigen-relation failed for mode n = {m} at {params}: "
                               f"{what} is zero or not finite")
        mus[i] = complex(0.0, mu) if m % 2 else complex(mu, 0.0)
    return mus.reshape(ns.shape) if ns.ndim else complex(mus[0])


def _connection_tables(alpha: float, top: int) -> tuple[np.ndarray, ...]:
    """_connect's tables for degrees up to top: b, b_up, p and q, indexed by degree.

    b and b_up are the alpha and alpha + 1 offdiagonals (sym_offdiag).  The
    two-term connection Ptilde^alpha_k = p_k Ptilde^(alpha+1)_k
    + q_k Ptilde^(alpha+1)_(k-2) (DLMF 18.9.7, normalised) has
    p_k = b_up_k sqrt(k (k + 2 alpha + 1)) / k for k >= 1, the ratio of the
    leading coefficients of Ptilde^alpha_k and Ptilde^(alpha+1)_k, with p_0
    the ratio of the two degree-0 constants, and q_k = -b_k b_(k-1) / p_(k-2)
    for k >= 2 (q_0 = q_1 = 0), so both stay finite at alpha = -1/2.  No
    entry depends on top, so one build serves every parity and size up to it.
    """
    b, b_up = sym_offdiag(alpha, top), sym_offdiag(alpha + 1.0, top)
    k = np.arange(1, top + 1, dtype=float)
    p = np.concatenate(([math.sqrt(total_mass(alpha + 1.0) / total_mass(alpha))],
                        b_up[1:] * np.sqrt(k * (k + 2 * alpha + 1)) / k))
    q = np.zeros(top + 1)
    q[2:] = -b[2:] * b[1:-1] / p[:-2]
    return b, b_up, p, q


def _connect(p: np.ndarray, q: np.ndarray, parity: int, e: np.ndarray) -> np.ndarray:
    """Solve B g = e for every row of e: Ptilde^(alpha+1) series taken into the alpha basis.

    The columns of e, of shape (..., size), are one parity's degrees
    m = parity, parity + 2, ..., in both bases.  The connection
    Ptilde^alpha_k = p_k Ptilde^(alpha+1)_k + q_k Ptilde^(alpha+1)_(k-2)
    makes B upper bidiagonal on these columns, with p_m on the diagonal and
    q_m above it, so one banded solve serves every row.  p and q come from
    _connection_tables, built to degree m[-1] or beyond.  The solve is
    LAPACK's dgbsv, which solve_banded((0, 1), ...) calls, so bit-identical
    to it.
    """
    size = e.shape[-1]
    m = np.arange(parity, parity + 2 * size, 2)
    banded = np.zeros((2, size))
    banded[0, 1:] = q[m[1:]]
    banded[1] = p[m]
    g = _lapack("dgbsv", 0, 1, banded, e.reshape(-1, size).T, overwrite_ab=1, overwrite_b=1)[2]
    return g.T.reshape(e.shape)


def _f_n_rows(alpha: float, parity: int, rows: np.ndarray, n) -> np.ndarray:
    """F_n - n, F_n = int x psi_n psi_n' (1-x^2)^alpha dx, for a stack of psi_n of one parity.

    rows[..., i] is the coefficient of Ptilde_(2i + parity), so every row is
    in that parity's own columns, and n (broadcast against rows[..., 0]) is
    each row's mode.  x psi_n' has coefficients e in the Ptilde^(alpha+1)
    basis, which _connect turns into alpha-basis coefficients g; then
    F_n = psi_n . g.  The degree-k part of e is k p_k psi_k, so
    g = k psi + B^-1 r with r the rest of e - B (k psi), and
    F_n - n |psi_n|^2 = sum (k - n) psi_k^2 + psi_n . B^-1 r.  That form has
    no cancellation: at c = 0 it is exactly 0, and it stays O(c^2) with no
    rounding offset as c -> 0, which the explicit formula's (F_n - n)/tau
    (the tests' reference) needs.
    """
    m = np.arange(parity, parity + 2 * rows.shape[-1], 2)
    _, b_up, p, q = _connection_tables(alpha, int(m[-1]))
    # psi' has coefficient psi_k sqrt(k (k + 2 alpha + 1)) on
    # Ptilde^(alpha+1)_(k-1), and x Ptilde_j = b_(j+1) Ptilde_(j+1) + b_j Ptilde_(j-1):
    # beyond its degree-k part, x psi' puts b_(k-1) times that on degree k - 2
    r = np.zeros_like(rows)
    r[..., :-1] = (b_up[m[1:] - 1] * np.sqrt(m[1:] * (m[1:] + 2 * alpha + 1))
                   - q[m[1:]] * m[1:]) * rows[..., 1:]
    h = _connect(p, q, parity, r)
    return (np.sum((m - np.asarray(n, dtype=float)[..., None]) * rows ** 2, axis=-1)
            + np.sum(rows * h, axis=-1))


def f_n_moment(spectrum: ChiSpectrum, n):
    """Moment F_n(c, alpha) = int x psi_n psi_n' (1-x^2)^alpha dx of the solved psi_n.

    Equals n at c = 0.  n is a mode index or an array of them (an array
    gives an array).  Computed from the Jacobi coefficients alone, by one
    banded connection solve per parity (_f_n_rows).
    """
    ns = _mode_indices(n, spectrum.n_max)
    modes = ns.reshape(-1)
    out = np.empty(modes.size)
    for parity in (0, 1):
        own = modes % 2 == parity
        if own.any():
            out[own] = modes[own] + _f_n_rows(spectrum.params.alpha, parity,
                                              spectrum.coeffs[modes[own], parity::2],
                                              modes[own])
    return out.reshape(ns.shape) if ns.ndim else float(out[0])


def log_mu_ratio(spectrum: ChiSpectrum) -> np.ndarray:
    """log |mu_n| for n = 0..n_max from the solved spectrum alone (the ratio route).

    Differentiating F_c psi_n = mu_n psi_n in x and integrating against
    psi_m (1-x^2)^alpha gives, the kernel being symmetric,
    mu_n int psi_n' psi_m w = i c mu_m int x psi_n psi_m w, so
    mu_(n+1) / mu_n = i c A_n / B_n with A_n = int x psi_(n+1) psi_n w and
    B_n = int psi_(n+1)' psi_n w (Xiao, Rokhlin & Yarvin, Inverse Problems
    17 (2001), for alpha = 0).  Both are bilinear forms in the Jacobi
    coefficients: A_n by the x-recurrence, B_n with psi_(n+1)' taken into the
    alpha basis by _connect, one banded solve per parity for every pair.
    The anchor is mu_0 from mu_eigenrelation, the eigen-relation at x = 0,
    positive as psi_0 has no zeros.  Nothing cancels: A_n is O(1) and B_n
    O(n), and log |mu_n| is log mu_0 plus the cumulative sum of
    log(c A_n / B_n).  Against the explicit product formula, the tests'
    reference (tests/explicit_route.py), it is within
    4e-13 max(1, |log |mu_n||) over the sweep in the tests, down to
    log |mu_n| = -410.  A_n / B_n > 0 on every pair, so mu_n = i^n |mu_n|; a
    non-positive or non-finite mu_0 or ratio is refused with RuntimeError.
    """
    c = spectrum.params.c
    if c <= 0:
        raise ValueError("the ratio route requires c > 0")
    mu_0 = mu_eigenrelation(spectrum, 0).real
    num, den = _ratio_forms(spectrum)
    ratio = c * num / den
    bad = np.flatnonzero(~(ratio > 0) | ~np.isfinite(ratio))
    if not mu_0 > 0 or bad.size:
        where = "mu_0" if bad.size == 0 else f"mu_{bad[0] + 1} / mu_{bad[0]}"
        raise RuntimeError(f"ratio route failed at {spectrum.params}: {where} is not "
                           f"positive and finite")
    return math.log(mu_0) + np.concatenate(([0.0], np.cumsum(np.log(ratio))))


def _ratio_forms(spectrum: ChiSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """A_n = int x psi_(n+1) psi_n w and B_n = int psi_(n+1)' psi_n w for n < n_max."""
    a = spectrum.params.alpha
    u, v = spectrum.coeffs[:-1], spectrum.coeffs[1:]
    # one build of the tables for both parities' connection solves
    b, _, p, q = _connection_tables(a, u.shape[1] - 1)
    # x Ptilde_k = b_(k+1) Ptilde_(k+1) + b_k Ptilde_(k-1)
    num = np.sum(b[1:] * (u[:, 1:] * v[:, :-1] + u[:, :-1] * v[:, 1:]), axis=1)
    # psi_(n+1)' in the Ptilde^(alpha+1) basis, padded to the width of u
    dv = np.zeros_like(v)
    dv[:, :-1] = jacobi_series_deriv_coeffs(v, a)
    den = np.empty(u.shape[0])
    for parity in (0, 1):
        if den[parity::2].size:
            g = _connect(p, q, parity, dv[parity::2, parity::2])
            den[parity::2] = np.sum(u[parity::2, parity::2] * g, axis=1)
    return num, den


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

    One chi_spectrum solve of modes 0..max n gives both the admissible
    indices, those with c^2 < chi_n, and log lambda_n = log(c/2pi) +
    2 log |mu_n| from the ratio route (log_mu_ratio), in log space (the
    Nystrom floor makes direct eigenvalues meaningless in this regime).
    The indices must be integers: a float one is refused, not truncated.  A
    repeated index counts once, and at least three distinct indices must be
    admissible.
    On the CLI's window (16 modes from max(8, floor(e c/2) + 2)) at alpha in
    {0.05, 0.5, 1.4} and c in {1, 5, 10, 20, 100, 400}, log_lambdas is
    within 2e-13 max(1, |log |mu_n||) of the explicit product formula, the
    tests' reference (tests/explicit_route.py).  The bound
    constant is calibrated at the smallest admissible n, held fixed with a
    factor-2 safety: the residual log lambda_n + rate term creeps toward its
    asymptote from below, so exact equality at the calibration point cannot
    hold for larger n, but any loss of super-exponential decay would blow
    through the factor 2 immediately.
    """
    if not 0.0 < params.alpha < 1.5:
        raise ValueError("decay_check requires 0 < alpha < 3/2")
    ns = np.unique(_mode_indices(list(n_range)))
    spec = chi_spectrum(params, int(ns.max()))
    ns = ns[params.c ** 2 < spec.chis[ns]]
    if ns.size < 3:
        raise ValueError("decay_check needs at least three admissible indices, "
                         "a repeated one counted once")
    loglam = math.log(params.c / (2.0 * math.pi)) + 2.0 * log_mu_ratio(spec)[ns]
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
    hs_norm_value: float       # empirical sum of lambda^2 from the matrix
    slack: float               # max(0, lower_bound - m_empirical), the o(c) gap
    upper_ok: bool


def counting(params: ProblemParams, delta: float) -> CountingReport:
    """Count eigenvalues >= delta and compare with the trace/HS bounds.

    The discrete lambda come from the default_nystrom_size rule; for another
    rule, take nystrom_spectrum(params, n_quad).counting(delta).  Upper bound
    trace/delta is exact; the lower bound carries an o(c) term, so only its
    gap relative to c is meaningful, not the pointwise inequality.
    """
    return _counting_report(params, delta,
                            _nystrom_lambdas(params, default_nystrom_size(params.c)))


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
        lower_bound=lower, upper_bound=upper, hs_norm_value=float((vals ** 2).sum()),
        slack=max(0.0, lower - m_emp), upper_ok=bool(m_emp <= upper),
    )

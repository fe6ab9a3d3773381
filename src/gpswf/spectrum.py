"""Spectra of the weighted finite Fourier transform and its composition.

Two computational routes to mu_n, cross-checked against each other:

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

The tests' oracle (tests/explicit_route.py) holds the cross-checks: the
paper's explicit product formula, mu_n = i^n sqrt(pi) Gamma-ratio c^n
exp(Phi_n) with Phi_n = int_0^c (F_n(tau) - n)/tau dtau, integrated over
tau in (0, c], independent of the ratio route's one solve at c; the moment
F_n it integrates; and the eigen-relation F_c psi_n = mu_n psi_n at x = 0
for every mode, whose error grows as mu_n decays.

Trace and Hilbert-Schmidt closed forms plus the counting bounds for
#{lambda_n >= delta} complete the module.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .specfun import _count, _lapack, gauss_jacobi, sym_offdiag, total_mass
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
    stable: np.ndarray             # cross_residuals <= 1e-10 lambda, lambda a normal double
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
    agree to 1e-10 relative and lambda_n is a normal double, so a stable
    value is within ~2e-10 of the exact one (an underflowed lambda_n = 0
    would agree with an underflowed |mu_n|^2 vacuously).  The ratio route's
    error in log |mu_n| is a few 1e-13 max(1, |log |mu_n||) against the
    explicit product formula (the tests' reference), far inside that bound
    on every mode a Nystrom rule resolves, so a cleared flag points at the
    Nystrom value: a mode that sorted order pairs with the wrong psi_n (seen
    at alpha < 0), or one near the Nystrom rounding floor
    (lambda ~ 1e-10 lambda_0 and below).  n_keep is an integer >= 1 and
    n_quad one >= 2 n_keep + 20, neither a bool nor a float (ValueError
    naming it otherwise).
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
        cross_residuals=cross, discrete=vals,
        stable=(cross <= 1e-10 * lambdas) & (lambdas >= sys.float_info.min),
    )


def _connection_tables(alpha: float, top: int) -> tuple:
    """The ratio route's tables for degrees up to top: b, h_0, p and q.

    b and b_up are the alpha and alpha + 1 offdiagonals (sym_offdiag), and
    h_0 = total_mass(alpha); b_up only builds p.  The two-term connection
    Ptilde^alpha_k = p_k Ptilde^(alpha+1)_k + q_k Ptilde^(alpha+1)_(k-2)
    (DLMF 18.9.7, normalised) has p_k = b_up_k sqrt(k (k + 2 alpha + 1)) / k
    for k >= 1, the ratio of the leading coefficients of Ptilde^alpha_k and
    Ptilde^(alpha+1)_k, with p_0 the ratio of the two degree-0 constants,
    and q_k = -b_k b_(k-1) / p_(k-2) for k >= 2 (q_0 = q_1 = 0), so both
    stay finite at alpha = -1/2.  No entry depends on top, so one build
    serves every parity and size up to it.
    """
    b, b_up = sym_offdiag(alpha, top), sym_offdiag(alpha + 1.0, top)
    h_0 = total_mass(alpha)
    k = np.arange(1, top + 1, dtype=float)
    p = np.concatenate(([math.sqrt(total_mass(alpha + 1.0) / h_0)],
                        b_up[1:] * np.sqrt(k * (k + 2 * alpha + 1)) / k))
    q = np.zeros(top + 1)
    q[2:] = -b[2:] * b[1:-1] / p[:-2]
    return b, h_0, p, q


def _connect(p: np.ndarray, q: np.ndarray, parity: int, e: np.ndarray) -> np.ndarray:
    """Solve B g = e for every row of e: Ptilde^(alpha+1) series taken into the alpha basis.

    The columns of e, of shape (..., size), are one parity's degrees
    m = parity, parity + 2, ..., in both bases.  The connection
    Ptilde^alpha_k = p_k Ptilde^(alpha+1)_k + q_k Ptilde^(alpha+1)_(k-2)
    makes B upper bidiagonal on these columns, with p_m on the diagonal and
    q_m above it, so one banded solve serves every row.  p and q come from
    _connection_tables, built to degree m[-1] or beyond, and the band rows
    are strided slices of them.  The solve is LAPACK's dgbsv, which
    solve_banded((0, 1), ...) calls, so bit-identical to it.
    """
    size = e.shape[-1]
    top = parity + 2 * size
    banded = np.zeros((2, size))
    banded[0, 1:] = q[parity + 2:top:2]
    banded[1] = p[parity:top:2]
    g = _lapack("dgbsv", 0, 1, banded, e.reshape(-1, size).T, overwrite_ab=1, overwrite_b=1)[2]
    return g.T.reshape(e.shape)


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
    The anchor is mu_0 from the eigen-relation F_c psi_0 = mu_0 psi_0 at
    x = 0, where the transform of psi_0 is c_0 sqrt(h_0): mu_0 is c_0 h_0
    over one dot product of psi_0's even coefficients with sturm's sign
    reference, psi_0(0) sqrt(h_0), so bit-identical to mode 0 of the tests'
    eigen-relation, and positive as psi_0 has no zeros.  One call
    builds its tables once (_connection_tables, to degree n_trunc - 1): the
    offdiagonals and total mass serve the anchor, A_n and both parities'
    connection solves.  Nothing cancels: A_n is O(1) and B_n
    O(n), and log |mu_n| is log mu_0 plus the cumulative sum of
    log(c A_n / B_n).  Against the explicit product formula, the tests'
    reference (tests/explicit_route.py), it is within
    4e-13 max(1, |log |mu_n||) over the sweep in the tests, down to
    log |mu_n| = -410.  A_n / B_n > 0 on every pair, so mu_n = i^n |mu_n|; a
    zero or non-finite psi_0(0), or a non-positive or non-finite mu_0 or
    ratio, is refused with RuntimeError.
    """
    c, a = spectrum.params.c, spectrum.params.alpha
    if c <= 0:
        raise ValueError("the ratio route requires c > 0")
    b, h_0, p, q = _connection_tables(a, spectrum.n_trunc - 1)
    # psi_0's packed row as a stride-2 view, the even-degree slice of its
    # full-degree row that the tests' eigen-relation reads: BLAS sums a
    # strided dot in another order than a contiguous one, and so mode 0 of
    # the two is the same double.  The sign reference reads b up to degree
    # 2 ceil(N/2) - 2 <= N - 1.
    row = np.repeat(spectrum.coeffs[0], 2)[::2]
    at_zero = float(np.dot(row, _sign_reference(a, b, 0, row.size)))
    mu_0 = float(row[0]) * h_0 / at_zero if at_zero != 0 else at_zero
    num, den = _ratio_forms(spectrum, b, p, q)
    ratio = c * num / den
    bad = np.flatnonzero(~(ratio > 0) | ~np.isfinite(ratio))
    anchored = mu_0 > 0 and math.isfinite(mu_0)
    if not anchored or bad.size:
        where = f"mu_{bad[0] + 1} / mu_{bad[0]}" if anchored else "mu_0"
        raise RuntimeError(f"ratio route failed at {spectrum.params}: {where} is not "
                           f"positive and finite")
    return math.log(mu_0) + np.concatenate(([0.0], np.cumsum(np.log(ratio))))


# pairs per block of _ratio_forms: 2^18 / n_trunc, so a block's arrays are ~2 MB each
_BLOCK_ELEMENTS = 1 << 18


def _ratio_forms(spectrum: ChiSpectrum, b: np.ndarray, p: np.ndarray,
                 q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A_n = int x psi_(n+1) psi_n w and B_n = int psi_(n+1)' psi_n w for n < n_max.

    b, p and q are _connection_tables' at the spectrum's alpha, to degree
    n_trunc - 1.  The pairs (psi_n, psi_(n+1)) are read from the packed rows
    (ChiSpectrum), by the parity of n and a block of pairs at a time, so no
    (n_max, n_trunc) array is formed.  A_n sums the full-degree vector
    b_(k+1) (u_(k+1) v_k + u_k v_(k+1)), k < n_trunc - 1, with u and v the
    coefficients of psi_n and psi_(n+1): at each k one product pairs two
    degrees of the wrong parity and is 0, and the other is formed from the
    packed rows.  np.sum adds that vector in its pairwise order, and B_n's
    connection solve works column by column, so both are bit-identical to
    the forms of the full-degree rows (GpswfFunction.coeffs) in one block.
    """
    a, size, n_max = spectrum.params.alpha, spectrum.n_trunc, spectrum.n_max
    k = np.arange(1, size, dtype=float)
    # d/dx Ptilde_k = grow_(k-1) Ptilde^(alpha+1)_(k-1), as jacobi_series_deriv_coeffs
    grow = np.sqrt(k * (k + 2 * a + 1))
    n_even, n_odd = size // 2, (size - 1) // 2   # even and odd k below size - 1
    num, den = np.empty(n_max), np.empty(n_max)
    step = max(1, _BLOCK_ELEMENTS // size)
    for parity in (0, 1):
        us, vs = spectrum.coeffs[parity:n_max:2], spectrum.coeffs[parity + 1::2]
        nums, dens = num[parity::2], den[parity::2]
        width = (size - parity + 1) // 2   # psi_n's degrees below size
        own = (n_even, n_odd)[parity]      # of them, those psi_(n+1)' reaches
        for lo in range(0, us.shape[0], step):
            u, v = us[lo:lo + step], vs[lo:lo + step]
            # x Ptilde_k = b_(k+1) Ptilde_(k+1) + b_k Ptilde_(k-1)
            terms = np.empty((u.shape[0], size - 1))
            terms[:, 0::2] = b[1::2][:n_even] * (u[:, :n_even] * v[:, :n_even])
            terms[:, 1::2] = b[2::2][:n_odd] * (u[:, 1 - parity:n_odd + 1 - parity]
                                                * v[:, parity:n_odd + parity])
            nums[lo:lo + step] = np.sum(terms, axis=1)
            # psi_(n+1)' in the Ptilde^(alpha+1) basis, on psi_n's degrees
            dv = np.zeros((u.shape[0], width))
            dv[:, :own] = v[:, parity:parity + own] * grow[parity::2][:own]
            dens[lo:lo + step] = np.sum(u[:, :width] * _connect(p, q, parity, dv), axis=1)
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
    admissible.  The slope is the least-squares one in closed form,
    sum (t - mean t)(mean y - y) / sum (t - mean t)^2 with t the rate term
    and y = log lambda_n, within 1e-13 relative of an SVD least-squares
    solver's on the CLI window below.
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
    # least-squares slope of -loglam against t, in closed form
    dt = t - t.mean()
    slope = float(np.dot(dt, loglam.mean() - loglam) / np.dot(dt, dt))
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


def trace_and_norm(params: ProblemParams) -> TraceAndNorm:
    """Trace (c/2pi)(2^(2a+1) B(a+1,a+1))^2 and the c -> infinity HS limit.

    gamma_alpha uses the squared Beta-ratio form that the Hilbert-Schmidt
    computation produces (consistent with gamma_0 = 1), which is
    (total_mass(2a) / total_mass(a))^2 exactly.  The two equivalent trace
    expressions (Beta form and Gamma-ratio form) are asserted equal as a
    self-check, which a non-finite value fails; they match through the
    Legendre duplication identity.  Past alpha = 80 total_mass is itself the
    Gamma-ratio form (specfun._gamma_half_ratio), so no independent form is
    left to compare with, and only finiteness is checked there.  gamma_alpha
    diverges as alpha -> -1/2+, so alpha <= -1/2 is refused.
    """
    a, c = params.alpha, params.c
    if a <= -0.5:
        raise ValueError(f"the Hilbert-Schmidt limit needs alpha > -1/2, got alpha = {a}")
    trace_beta = (c / (2.0 * math.pi)) * total_mass(a) ** 2
    if a <= 80:
        # Gamma(a + 1) / Gamma(a + 1.5) = 1 / (a + 1)_(1/2), scipy's poch
        trace_gamma = 0.5 * c / float(_sp.poch(a + 1.0, 0.5)) ** 2
        agree = abs(trace_beta - trace_gamma) <= 1e-12 * abs(trace_beta)
    else:
        agree = math.isfinite(trace_beta)
    if c > 0 and not agree:
        raise RuntimeError("trace self-check failed: Beta and Gamma forms disagree")
    # 2^(2a) B(2a + 1, 2a + 1) / B(a + 1, a + 1), squared
    gamma_alpha = (total_mass(2.0 * a) / total_mass(a)) ** 2
    return TraceAndNorm(trace=trace_beta, hs_norm_limit=gamma_alpha * trace_beta,
                        gamma_alpha=gamma_alpha)


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

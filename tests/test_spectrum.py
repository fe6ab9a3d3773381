"""Integral-operator spectrum tests: Q_c oracle, Nystrom, mu routes, bounds."""

import dataclasses
import functools
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import special as sp
from scipy.linalg import eigh, solve_banded

import explicit_route
import gpswf as g
from explicit_route import (f_n_moment, jacobi_h, log_lambda_explicit, log_mu_magnitude,
                            mu_eigenrelation)
from gpswf import spectrum
from gpswf.specfun import gauss_jacobi, jacobi_series_deriv_coeffs, sym_offdiag, total_mass
from gpswf.spectrum import _nystrom_lambdas, default_nystrom_size
from paper_bounds import bessel_moment


def kernel_eval(alpha, u):
    """Kernel of Q_c, even in u with a removable 0.

    K_alpha(u) = sqrt(pi) 2^(a+1/2) Gamma(a+1) J_{a+1/2}(|u|) / |u|^(a+1/2).

    The u -> 0 limit is sqrt(pi) Gamma(a+1) / Gamma(a+3/2).  A two-term
    series takes over for |u| < 1e-6 where the quotient form loses nothing
    but would divide by a tiny power.
    """
    a = alpha
    arr = np.atleast_1d(np.asarray(u, dtype=float))
    au = np.abs(arr)
    limit = math.sqrt(math.pi) * sp.gamma(a + 1.0) / sp.gamma(a + 1.5)
    out = np.empty_like(au)
    small = au < 1e-6
    out[small] = limit * (1.0 - au[small] ** 2 / (4.0 * a + 6.0))
    big = ~small
    if np.any(big):
        ub = au[big]
        out[big] = (math.sqrt(math.pi) * 2.0 ** (a + 0.5) * sp.gamma(a + 1.0)
                    * sp.jv(a + 0.5, ub) / ub ** (a + 0.5))
    return float(out[0]) if np.ndim(u) == 0 else out


def qc_oracle_matrix(params, n_quad):
    """Q_c oracle: the symmetric Nystrom matrix (c/2pi) K_alpha(c(x_i - x_j)) sqrt(w_i w_j)."""
    rule = g.gauss_jacobi(n_quad, params.alpha)
    u = params.c * (rule.nodes[:, None] - rule.nodes[None, :])
    sw = np.sqrt(rule.weights)
    return (params.c / (2.0 * math.pi)) * kernel_eval(params.alpha, u) * sw[:, None] * sw[None, :]


def mu_quadrature(params, n, spec):
    """mu_n by the direct Gauss-Jacobi sum, at the coarse-grid argmax x0 of |psi_n|.

    Oracle for the eigen-relation at x = 0: mu_n does not depend on the
    point, and this one shares neither the point nor the closed-form
    moments.  Fine down to |mu| ~ 1e-8, where cancellation noise takes over.
    """
    f = spec.eigenfunction(n)
    coarse = np.linspace(-1.0, 1.0, 501)
    x0 = float(coarse[np.argsort(np.abs(f.value(coarse)))[::-1][0]])
    rule = g.gauss_jacobi(spec.n_trunc + int(2.0 * params.c) + 32, params.alpha)
    phases = np.exp(1j * params.c * x0 * rule.nodes)
    return complex(np.dot(rule.weights, phases * f.value(rule.nodes)) / f.value(x0))


def f_n_weighted_identity(params, n, spec):
    """alpha int psi_n^2 (1-x^2)^(alpha-1) dx for alpha > 0, by Gauss-Jacobi.

    Oracle for F_n through the alpha -> alpha-1 identity: it equals
    F_n + alpha + 1/2, so n + alpha + 1/2 at c = 0.
    """
    rule = g.gauss_jacobi(spec.n_trunc + 8, params.alpha - 1.0)
    return float(params.alpha * np.dot(rule.weights, spec.eigenfunction(n).value(rule.nodes) ** 2))


def mp_psi(alpha, coeffs):
    """psi and psi' of one coefficient vector, summed at the current mpmath precision.

    psi and psi' are summed by the three-term recurrence of the orthonormal
    alpha and alpha+1 bases; call inside mp.workdps.
    """
    from mpmath import mp

    a = mp.mpf(alpha)
    cs = [mp.mpf(float(v)) for v in np.trim_zeros(coeffs, "b")]
    dcs = [cs[k] * mp.sqrt(k * (k + 2 * a + 1)) for k in range(1, len(cs))]

    def recurrence(al):
        b = [mp.mpf(0), 1 / mp.sqrt(3 + 2 * al)] + [
            mp.sqrt(k * (k + 2 * al) / ((2 * k + 2 * al + 1) * (2 * k + 2 * al - 1)))
            for k in range(2, len(cs) + 1)]
        return b, 1 / mp.sqrt(2 ** (2 * al + 1) * mp.beta(al + 1, al + 1))

    def series(coef, rec, x):
        b, cur = rec
        prev, total = mp.mpf(0), coef[0] * cur
        for k in range(1, len(coef)):
            prev, cur = cur, (x * cur - b[k - 1] * prev) / b[k]
            total += coef[k] * cur
        return total

    rec, rec_up = recurrence(a), recurrence(a + 1)
    return (lambda x: series(cs, rec, x)), (lambda x: series(dcs, rec_up, x))


def f_n_mpmath(alpha, coeffs):
    """F_n = int x psi psi' (1-x^2)^alpha dx at 30 digits, from the same coefficients.

    tanh-sinh quadrature takes the endpoint factor.
    """
    from mpmath import mp

    with mp.workdps(30):
        psi, dpsi = mp_psi(alpha, coeffs)
        a = mp.mpf(alpha)
        # the integrand is even
        value, err = mp.quad(lambda x: x * psi(x) * dpsi(x) * (1 - x * x) ** a,
                             [0, 1], error=True)
        assert err <= mp.mpf(10) ** -20
        return 2 * value


def sinc_nystrom_oracle(c, n_quad, n_keep):
    """Independent alpha = 0 discretization: numpy Legendre rule, 2 sin(u)/u."""
    x, w = np.polynomial.legendre.leggauss(n_quad)
    u = c * (x[:, None] - x[None, :])
    safe = np.where(u == 0.0, 1.0, u)
    kern = np.where(np.abs(u) < 1e-12, 2.0, 2.0 * np.sin(safe) / safe)
    mat = (c / (2 * math.pi)) * kern * np.sqrt(w[:, None] * w[None, :])
    return np.linalg.eigvalsh(mat)[::-1][:n_keep]


# ---------------------------------------------------------------------------
# Q_c oracle kernel
# ---------------------------------------------------------------------------

def test_kernel_limit_at_zero():
    for alpha in (0.0, 0.5, 1.3):
        expect = math.sqrt(math.pi) * sp.gamma(alpha + 1) / sp.gamma(alpha + 1.5)
        assert_allclose(kernel_eval(alpha, 0.0), expect, rtol=1e-14)
        # even and continuous through the removable singularity
        assert_allclose(kernel_eval(alpha, 1e-7), kernel_eval(alpha, -1e-7), rtol=1e-15)
        assert abs(kernel_eval(alpha, 1e-7) - expect) <= 1e-13


def test_kernel_alpha_zero_closed_form():
    for u in (0.3, 1.0, 2.345, 11.0):
        assert_allclose(kernel_eval(0.0, u), 2 * math.sin(u) / u, rtol=1e-13)


def test_kernel_alpha_one_against_specfun():
    expect = math.sqrt(math.pi) * 2 ** 1.5 * sp.gamma(2.0) \
        * sp.jv(1.5, 2.5) / 2.5 ** 1.5
    assert_allclose(kernel_eval(1.0, 2.5), expect, rtol=1e-14)


# ---------------------------------------------------------------------------
# Nystrom spectrum
# ---------------------------------------------------------------------------

def test_spectrum_ordering_and_range():
    op = g.nystrom_spectrum(g.ProblemParams(alpha=0.5, c=5.0), n_keep=12)
    assert op.lambdas[0] < 1.0
    assert np.all(np.diff(op.lambdas) < 0)
    assert np.all(op.lambdas > 0)


def test_no_spurious_negative_eigenvalues():
    mat = qc_oracle_matrix(g.ProblemParams(alpha=0.5, c=5.0), 240)
    vals = eigh(mat, eigvals_only=True)
    assert vals.min() >= -1e-12


def test_trace_identity():
    p = g.ProblemParams(alpha=0.5, c=5.0)
    op = g.nystrom_spectrum(p, n_quad=300, n_keep=8)
    tn = g.trace_and_norm(p)
    assert abs(op.trace_discrete - tn.trace) / tn.trace <= 1e-8


@pytest.mark.parametrize("alpha", [85.0, 171.5, 300.0, 1e3, 9999.0, 1e4, 1e6])
def test_trace_and_norm_at_large_alpha_matches_mpmath(alpha):
    # the Gamma form of the trace self-check was a difference of two gammaln,
    # ~alpha log alpha each, and refused correct traces from alpha ~ 1e4 on
    from mpmath import mp

    tn = g.trace_and_norm(g.ProblemParams(alpha=alpha, c=1.0))
    with mp.workdps(40):
        a = mp.mpf(alpha)
        # h_0 = sqrt(pi) Gamma(a + 1) / Gamma(a + 3/2), trace = h_0^2 / (2 pi) at c = 1
        ratio = mp.gamma(a + 1) / mp.gamma(a + 1.5)
        trace = ratio ** 2 / 2
        gamma_alpha = (mp.gamma(2 * a + 1) / mp.gamma(2 * a + 1.5) / ratio) ** 2
    # total_mass past alpha = 80 is the asymptotic series of (alpha + 1)_(1/2),
    # and gamma_alpha the square of a ratio of two total_mass: a few ulps each
    assert abs(tn.trace - float(trace)) <= 2e-15 * float(trace)
    assert abs(tn.gamma_alpha - float(gamma_alpha)) <= 2e-15 * float(gamma_alpha)


@pytest.mark.parametrize("lo, hi", [(200.0, 300.0), (300.0, 400.0), (400.0, 500.0)])
def test_trace_self_check_accepts_large_alpha(lo, hi):
    # with total_mass from scipy's beta, 24, 55 and 66 of these 200 alpha per
    # band were refused by the 1e-12 self-check
    for a in np.random.default_rng(int(lo)).uniform(lo, hi, 200):
        g.trace_and_norm(g.ProblemParams(alpha=float(a), c=50.0))


def test_alpha_zero_sinc_oracle():
    p = g.ProblemParams(alpha=0.0, c=1.0)
    op = g.nystrom_spectrum(p, n_quad=300, n_keep=8)
    oracle = sinc_nystrom_oracle(1.0, 300, 8)
    # spectrum-scale agreement on all kept modes, strict relative where
    # double precision can represent the eigenvalue relative to lambda_0
    assert np.max(np.abs(op.lambdas - oracle)) <= 1e-8 * oracle[0]
    trusted = oracle >= 1e-6 * oracle[0]
    assert np.max(np.abs(op.lambdas[trusted] - oracle[trusted]) / oracle[trusted]) <= 1e-8


def test_stability_flags():
    op = g.nystrom_spectrum(g.ProblemParams(alpha=0.5, c=5.0), n_keep=16)
    # the early, well-resolved modes must be stable; at mode 15 (lambda ~ 1e-21)
    # the Nystrom value and the ratio route disagree by ~5e-7 relative
    assert np.all(op.stable[:8])
    assert not op.stable[-1]


def test_underflowed_lambda_is_not_stable():
    # at c = 1e-300 lambda_1.. are ~1e-900 and below, 0 in doubles on both
    # routes; 0 <= 1e-10 * 0 flagged them stable
    op = g.nystrom_spectrum(g.ProblemParams(alpha=0.5, c=1e-300), n_keep=12)
    assert np.all(op.lambdas[1:] == 0.0)
    assert op.stable[0]
    assert not np.any(op.stable[1:])


def test_deep_modes_match_explicit_formula():
    # lambda_13..16 lie at 2e-9..4e-14, where the ~1e-18 absolute rounding of
    # a Q_c discretization leaves only a few digits
    p = g.ProblemParams(alpha=0.5, c=10.0)
    op = g.nystrom_spectrum(p, n_quad=240, n_keep=17)
    ns = np.arange(13, 17)
    lam_x = np.exp(log_lambda_explicit(p, ns))
    assert np.all(np.abs(op.lambdas[ns] - lam_x) <= 1e-9 * lam_x)
    # on 240 nodes lambda_16 is ~1.5e-10 relative off, and the two routes
    # disagree by ~1.1e-10, so it must not be flagged stable at the 1e-10 bound
    assert np.all(op.stable[13:16])
    assert not op.stable[16]
    # the default rule (87 nodes) rounds less; whatever it flags stable is right
    op = g.nystrom_spectrum(p, n_keep=17)
    lam_x = np.exp(log_lambda_explicit(p, np.arange(17)))
    assert np.all(op.stable[:16])
    assert np.all(np.abs(op.lambdas - lam_x)[op.stable] <= 2e-10 * lam_x[op.stable])


SWEEP_ALPHAS = (-0.9, -0.3, 0.0, 0.5, 1.4, 3.0)


def test_default_size_matches_twice_the_rule():
    # a 20-node margin instead of 60 is 1.7e-9 off at (-0.9, 400, 12)
    for alpha in SWEEP_ALPHAS:
        for c in (1.0, 10.0, 30.0, 150.0, 400.0):
            p = g.ProblemParams(alpha=alpha, c=c)
            for n_keep in (12, 24, 48):
                nq = default_nystrom_size(c, n_keep)
                vals = _nystrom_lambdas(p, nq)
                ref = _nystrom_lambdas(p, 2 * nq)
                top = ref[:n_keep]
                resolved = top >= 1e-10 * ref[0]
                assert_allclose(vals[:n_keep][resolved], top[resolved], rtol=5e-11, atol=0,
                                err_msg=f"alpha={alpha}, c={c}, n_keep={n_keep}")
                for delta in (0.01, 0.1, 0.5, 0.9):
                    assert np.count_nonzero(vals >= delta) == np.count_nonzero(ref >= delta)


@pytest.mark.parametrize("alpha", SWEEP_ALPHAS)
def test_stable_modes_at_default_size_match_explicit(alpha):
    # the flag's 1e-10 agreement bound plus up to 1e-10 in either route
    for c in (1.0, 10.0, 30.0):
        p = g.ProblemParams(alpha=alpha, c=c)
        op = g.nystrom_spectrum(p, n_keep=48)
        assert op.n_quad == default_nystrom_size(c, 48)
        lam_x = np.exp(log_lambda_explicit(p, np.arange(48)))
        err = np.abs(op.lambdas - lam_x) / lam_x
        assert np.all(err[op.stable] <= 2e-10)


def test_default_size_never_trips_the_guard():
    for c in (0.01, 1.0, 7.5, 400.0):
        for n_keep in (1, 12, 48, 200):
            assert default_nystrom_size(c, n_keep) >= 2 * n_keep + 20
    assert default_nystrom_size(1.0, 48) == 116
    assert default_nystrom_size(400.0) == 472


def test_spectrum_keeps_every_discrete_value():
    p = g.ProblemParams(alpha=0.5, c=10.0)
    op = g.nystrom_spectrum(p, n_keep=12)
    assert op.discrete.shape == (op.n_quad,)
    assert np.array_equal(op.discrete, _nystrom_lambdas(p, op.n_quad))
    assert np.array_equal(op.lambdas, op.discrete[:12])
    cnt = g.counting(p, 0.5)
    assert cnt.n_quad == op.n_quad
    assert cnt.hs_norm_value == float((op.discrete ** 2).sum())
    assert op.counting(0.5) == cnt


@pytest.mark.parametrize("alpha, c", [(0.5, 5.0), (1.3, 20.0), (0.0, 10.0)])
def test_odd_n_quad_matches_even(alpha, c):
    # an odd rule has a node at 0 that is its own mirror
    p = g.ProblemParams(alpha=alpha, c=c)
    odd = g.nystrom_spectrum(p, n_quad=241, n_keep=10)
    even = g.nystrom_spectrum(p, n_quad=240, n_keep=10)
    assert_allclose(odd.lambdas, even.lambdas, rtol=1e-12, atol=0)
    assert odd.counting(0.5).m_empirical == even.counting(0.5).m_empirical


def test_parity_split_matches_qc_oracle():
    p = g.ProblemParams(alpha=0.5, c=5.0)
    op = g.nystrom_spectrum(p, n_quad=240, n_keep=30)
    oracle = eigh(qc_oracle_matrix(p, 240), eigvals_only=True)[::-1][:30]
    resolved = oracle >= 1e-6 * oracle[0]
    assert_allclose(op.lambdas[resolved], oracle[resolved], rtol=1e-11, atol=0)


# ---------------------------------------------------------------------------
# mu routes
# ---------------------------------------------------------------------------

def test_mu_phase_alternation():
    # mu_n = i^n |mu_n| exactly: even modes real, odd modes imaginary
    for c, n_max in ((5.0, 8), (400.0, 40)):
        spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=c), n_max)
        mus = mu_eigenrelation(spec, np.arange(n_max + 1))
        assert np.all(mus[0::2].imag == 0.0)
        assert np.all(mus[1::2].real == 0.0)
        assert np.all((mus * np.array([1, -1j, -1, 1j])[np.arange(n_max + 1) % 4]).real > 0)


def test_mu_moment_and_quadrature_routes_agree():
    p = g.ProblemParams(alpha=0.5, c=3.0)
    spec = g.chi_spectrum(p, 6)
    for n in range(7):
        mm = mu_eigenrelation(spec, n)
        mq = mu_quadrature(p, n, spec)
        assert abs(mm - mq) / abs(mm) <= 1e-10


def test_lambda_mu_identity_nystrom():
    # hybrid check: Nystrom lambda above the double-precision trust floor,
    # the log-space explicit route below it
    p = g.ProblemParams(alpha=0.5, c=5.0)
    op = g.nystrom_spectrum(p, n_keep=11)
    for n in range(11):
        lam_mu = (p.c / (2 * math.pi)) * abs(op.mus[n]) ** 2
        if op.lambdas[n] >= 1e-10:
            assert abs(op.lambdas[n] - lam_mu) / lam_mu <= 1e-8
        else:
            lam_x = math.exp(log_lambda_explicit(p, n))
            assert abs(lam_x - lam_mu) / lam_mu <= 1e-8


def test_mu_small_c_limit():
    # mu_0(c -> 0) tends to the weight mass 2^(2a+1) B(a+1,a+1), which equals
    # the c^0 prefactor sqrt(pi) Gamma(a+1)/Gamma(a+3/2) of the product formula
    p = g.ProblemParams(alpha=0.5, c=0.001)
    mu0 = mu_eigenrelation(g.chi_spectrum(p, 0), 0)
    mass = jacobi_h(0, 0.5)
    assert_allclose(mass, math.sqrt(math.pi) * sp.gamma(1.5) / sp.gamma(2.0),
                    rtol=1e-14)
    assert abs(mu0 - mass) <= 1e-4


def test_mu_eigenrelation_at_c_zero():
    # F_0 has rank one: mu_0 is the weight mass and every other mu_n is exactly 0
    mus = mu_eigenrelation(g.chi_spectrum(g.ProblemParams(alpha=0.5, c=0.0), 4), np.arange(5))
    assert abs(mus[0] - total_mass(0.5)) <= 1e-15 * total_mass(0.5)
    assert np.all(mus[1:] == 0)


def mu_explicit(p, n):
    """mu_n = i^n |mu_n| from the explicit route's log |mu_n|."""
    return (1j) ** n * math.exp(log_mu_magnitude(p, n))


def test_mu_explicit_small_c_prefactor():
    from scipy.special import gammaln

    n, a = 4, 0.5
    pref = math.exp(0.5 * math.log(math.pi) + gammaln(n + a + 1) + gammaln(n + 2 * a + 1)
                    - gammaln(n + a + 1.5) - gammaln(2 * n + 2 * a + 1))
    p = g.ProblemParams(alpha=a, c=1e-3)
    mu = mu_explicit(p, n)
    assert abs(abs(mu) / 1e-3 ** n - pref) / pref <= 1e-6
    # phase i^n
    assert_allclose(mu / abs(mu), (1j) ** n, rtol=1e-12)


@pytest.mark.parametrize("c", [1.0, 10.0])
def test_mu_explicit_at_alpha_minus_half(c):
    # Gamma(k + 2a + 1) / Gamma(2k + 2a + 1) is inf/inf at k = 0, a = -1/2
    p = g.ProblemParams(alpha=-0.5, c=c)
    spec = g.chi_spectrum(p, 2)
    for n in range(3):
        mu_e = mu_eigenrelation(spec, n)
        assert abs(mu_explicit(p, n) - mu_e) <= 1e-12 * abs(mu_e)


def test_explicit_route_refuses_a_non_finite_log(monkeypatch):
    monkeypatch.setattr(explicit_route, "_f_n_rows", lambda *args: math.nan)
    p = g.ProblemParams(alpha=0.5, c=2.0)
    for route in (log_lambda_explicit, log_mu_magnitude):
        with pytest.raises(RuntimeError, match="not finite"):
            route(p, 1)


def test_mu_explicit_cross_agreement():
    p = g.ProblemParams(alpha=0.5, c=3.0)
    mu_x = mu_explicit(p, 12)
    mu_e = mu_eigenrelation(g.chi_spectrum(p, 12), 12)
    assert abs(mu_x - mu_e) / abs(mu_e) <= 1e-6


def test_phi_n_bounded_by_c_squared():
    # Phi_40 = log |mu_40| - log(sqrt(pi) Gamma-ratio) - 40 log c
    n, a = 40, 0.5
    log_pref = (0.5 * math.log(math.pi) + sp.gammaln(n + a + 1) + sp.gammaln(n + 2 * a + 1)
                - sp.gammaln(n + a + 1.5) - sp.gammaln(2 * n + 2 * a + 1))
    for c in (1.0, 2.0, 4.0):
        p = g.ProblemParams(alpha=a, c=c)
        phi = log_mu_magnitude(p, n) - log_pref - n * math.log(c)
        assert abs(phi) <= 0.01 * c * c


def test_mu_routes_agree_at_alpha_minus_half():
    # Gamma(a + 1/2) has its pole at a = -1/2; the eigen-relation at x = 0
    # needs only total_mass and b_1, both finite there
    p = g.ProblemParams(alpha=-0.5, c=3.0)
    spec = g.chi_spectrum(p, 2)
    for n in range(3):
        mm = mu_eigenrelation(spec, n)
        mq = mu_quadrature(p, n, spec)
        assert abs(mm - mq) <= 1e-12 * abs(mq)


@pytest.mark.parametrize("alpha, c", [(0.5, 10.0), (-0.3, 6.0), (1.4, 60.0)])
def test_batched_eigenrelation_bit_identical(alpha, c):
    p = g.ProblemParams(alpha=alpha, c=c)
    op = g.nystrom_spectrum(p, n_keep=12)
    spec = g.chi_spectrum(p, 11)
    mus = mu_eigenrelation(spec, np.arange(12))
    for n in range(12):
        mu = mu_eigenrelation(spec, n)
        assert isinstance(mu, complex)
        assert mu == mus[n]
    # the operator's mu come from the ratio route, which the eigen-relation
    # matches on these shallow modes
    assert np.array_equal(op.mus, np.array([1, 1j, -1, -1j])[np.arange(12) % 4]
                          * np.exp(g.log_mu_ratio(spec)))
    assert np.all(np.abs(op.mus - mus) <= 1e-10 * np.abs(mus))
    assert np.array_equal(mu_eigenrelation(spec, np.array([[3, 0], [7, 11]])),
                          mus[[[3, 0], [7, 11]]])


# ---------------------------------------------------------------------------
# ratio route
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha, c, n_max, n_close", [
    (0.5, 10.0, 23, 24), (0.5, 2.0, 19, 20), (1.4, 30.0, 39, 40), (0.0, 100.0, 89, 78),
    (60.0, 300.0, 11, 12), (150.0, 200.0, 11, 12), (-0.9, 5.0, 11, 12), (0.5, 400.0, 40, 41)])
def test_eigenrelation_matches_ratio_route(alpha, c, n_max, n_close):
    # counts of modes within 1e-10 relative, as measured
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n_max)
    ns = np.arange(n_max + 1)
    want = np.array([1, 1j, -1, -1j])[ns % 4] * np.exp(g.log_mu_ratio(spec))
    rel = np.abs(mu_eigenrelation(spec, ns) - want) / np.abs(want)
    assert np.count_nonzero(rel <= 1e-10) >= n_close
    # the error grows as mu_n decays: the close modes are the leading ones
    assert np.all(rel[:n_close] <= 1e-10)


@pytest.mark.parametrize("n, point", [(0, "psi_0(0)"), (3, "psi_3'(0)")])
def test_eigenrelation_refuses_zero_psi_at_zero(monkeypatch, n, point):
    # the oracle's eigen-relation names the mode and the point
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=10.0), 5)
    monkeypatch.setattr(explicit_route, "_sign_reference",
                        lambda alpha, b, parity, rows: np.zeros(rows))
    with pytest.raises(RuntimeError, match=rf"mode n = {n} .*{re.escape(point)} is zero"):
        mu_eigenrelation(spec, [n, 1])


@pytest.mark.parametrize("route", [
    lambda p: g.log_mu_ratio(g.chi_spectrum(p, 5)),
    lambda p: g.nystrom_spectrum(p),
    lambda p: g.decay_check(p, range(15, 31)),
], ids=["log_mu_ratio", "nystrom_spectrum", "decay_check"])
@pytest.mark.parametrize("psi_0_at_zero", [0.0, 1e-320], ids=["zero", "overflow"])
def test_ratio_route_refuses_its_anchor(monkeypatch, route, psi_0_at_zero):
    # a zero psi_0(0) gives no mu_0, and c_0 h_0 / 1e-320 overflows to inf
    def reference(alpha, b, parity, rows):
        ref = np.zeros(rows)
        ref[0] = psi_0_at_zero
        return ref

    monkeypatch.setattr(spectrum, "_sign_reference", reference)
    with pytest.raises(RuntimeError, match="mu_0 is not positive and finite"):
        route(g.ProblemParams(alpha=0.5, c=10.0))


@pytest.mark.parametrize("alpha, c, n_max", [
    (0.5, 10.0, 60), (0.5, 100.0, 200), (-0.9, 150.0, 101), (1.4, 30.0, 80),
    (3.0, 150.0, 250), (-0.9, 5.0, 40), (0.5, 400.0, 560)])
def test_ratio_route_matches_explicit_route(alpha, c, n_max):
    p = g.ProblemParams(alpha=alpha, c=c)
    spec = g.chi_spectrum(p, n_max)
    got = g.log_mu_ratio(spec)
    assert got.shape == (n_max + 1,)
    b, _, p_conn, q_conn = spectrum._connection_tables(alpha, spec.n_trunc - 1)
    num, den = spectrum._ratio_forms(spec, b, p_conn, q_conn)
    assert np.all(num / den > 0)
    # every ceil(N/12)-th mode and the last keep the explicit route cheap
    ns = np.unique(np.append(np.arange(0, n_max + 1, math.ceil(n_max / 12)), n_max))
    want = log_mu_magnitude(p, ns)
    assert np.all(np.abs(got[ns] - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_ratio_route_anchor_matches_explicit_mu_0():
    # mu_0 is the eigen-relation's at x = 0, bit for bit
    for alpha in (-0.99, -0.5, 0.0, 1.4, 10.0):
        for c in (0.1, 10.0, 300.0):
            p = g.ProblemParams(alpha=alpha, c=c)
            spec = g.chi_spectrum(p, 0)
            got = g.log_mu_ratio(spec)
            assert got.shape == (1,)
            assert got[0] == math.log(mu_eigenrelation(spec, 0).real)
            assert abs(got[0] - log_mu_magnitude(p, 0)) <= 1e-14
    # log_mu_ratio reads the sign reference from tables built to n_trunc - 1,
    # mu_eigenrelation from its own, 2 ceil(n_trunc / 2) long: the same double
    # at odd and even n_trunc
    for alpha, c in ((-0.9, 5.0), (0.5, 10.0), (60.0, 300.0)):
        n_trunc = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 11).n_trunc
        for size in (n_trunc, n_trunc + 1):
            spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 11, n_trunc=size)
            assert g.log_mu_ratio(spec)[0] == math.log(mu_eigenrelation(spec, 0).real)


@pytest.mark.parametrize("alpha, c", [(0.5, 10.0), (-0.9, 5.0)])
def test_ratio_forms_match_mpmath(alpha, c):
    from mpmath import mp

    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 12)
    b, _, p, q = spectrum._connection_tables(alpha, spec.n_trunc - 1)
    num, den = spectrum._ratio_forms(spec, b, p, q)
    with mp.workdps(40):
        a = mp.mpf(alpha)
        s = 1 / (a + 1)

        def weighted(f):
            # 2 int_0^1 f (1-x^2)^alpha dx for an even f; x = 1 - t^s takes
            # (1-x)^alpha, which tanh-sinh alone misses at alpha = -0.9
            return 2 * s * mp.quad(lambda t: f(1 - t ** s) * (2 - t ** s) ** a, [0, 1])

        # both parities, shallow to deep; every pair would take ~20 s
        for n in (0, 1, 5, 6, 10, 11):
            u, _ = mp_psi(alpha, spec.eigenfunction(n).coeffs)
            v, dv = mp_psi(alpha, spec.eigenfunction(n + 1).coeffs)
            a_n = weighted(lambda x: x * v(x) * u(x))
            b_n = weighted(lambda x: dv(x) * u(x))
            assert abs(num[n] - a_n) <= 1e-13 * abs(a_n)
            assert abs(den[n] - b_n) <= 1e-13 * abs(b_n)


def test_ratio_route_memory():
    # log_mu_ratio at the CLI decay window's depth for c = 1000 forms its
    # A_n and B_n a block of pairs at a time from the packed rows; on the
    # dense layout its temporaries peaked at 57.2 MB, above 28.5 MB of
    # coefficients (85.7 MB together), and here at 5.4 MB, pinned with 20 %
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=1000.0), 1376)
    tracemalloc.start()
    try:
        g.log_mu_ratio(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5e6


def test_ratio_route_refuses_c_zero():
    with pytest.raises(ValueError, match="requires c > 0"):
        g.log_mu_ratio(g.chi_spectrum(g.ProblemParams(alpha=0.5, c=0.0), 3))


@pytest.mark.parametrize("alpha, c", [(60.0, 300.0), (150.0, 200.0)])
def test_operator_spectrum_at_large_alpha(alpha, c):
    # the eigen-relation gave mu_n ~ 1e-53 at (60, 300), from x0 = -1 where
    # psi_n is rounding only, and overflowed in its moments at (150, 200)
    p = g.ProblemParams(alpha=alpha, c=c)
    op = g.nystrom_spectrum(p, n_keep=12)
    assert np.all(op.stable)
    spec = g.chi_spectrum(p, 11)
    got = g.log_mu_ratio(spec)
    assert np.all(np.abs(got - log_mu_magnitude(p, np.arange(12))) <= 1e-12)
    mus = mu_eigenrelation(spec, np.arange(12))
    assert np.all(np.abs(mus - op.mus) <= 1e-10 * np.abs(op.mus))


@pytest.mark.parametrize("alpha, c, n_keep, n_stable", [
    (0.5, 10.0, 24, 17), (0.5, 2.0, 20, 8), (1.4, 30.0, 40, 30), (0.5, 5.0, 16, 11),
    (0.5, 10.0, 17, 17), (0.0, 100.0, 90, 77), (60.0, 300.0, 12, 12)])
def test_stable_flags_with_the_ratio_route(alpha, c, n_keep, n_stable):
    # counts as measured; the eigen-relation gave 75 at (0, 100, 90) and 0 at (60, 300)
    p = g.ProblemParams(alpha=alpha, c=c)
    op = g.nystrom_spectrum(p, n_keep=n_keep)
    assert np.count_nonzero(op.stable) == n_stable
    lam_x = np.exp(log_lambda_explicit(p, np.arange(n_keep)))
    assert np.all((np.abs(op.lambdas - lam_x) / lam_x)[op.stable] <= 2e-10)


@pytest.mark.parametrize("alpha, c", [(100.0, 1200.0), (150.0, 1500.0)])
def test_nystrom_rule_with_zero_end_weights(alpha, c):
    # the default rules (1,272 and 1,572 nodes) hold end weights that are
    # exactly 0, which gauss_jacobi refused; the kept lambda match the ratio route
    op = g.nystrom_spectrum(g.ProblemParams(alpha=alpha, c=c))
    assert np.count_nonzero(gauss_jacobi(op.n_quad, alpha).weights == 0) > 0
    assert op.stable.sum() == 12
    assert np.all(op.cross_residuals <= 1e-12 * op.lambdas)


def test_n_keep_checked_by_name():
    # n_keep = 0 was refused as "n_max must be nonnegative", naming a
    # parameter the caller did not pass
    for n_keep in (0, -2, True, 12.0):
        with pytest.raises(ValueError, match="^n_keep must be an integer >= 1"):
            g.nystrom_spectrum(g.ProblemParams(alpha=0.5, c=10.0), n_keep=n_keep)


_P_SMALL = g.ProblemParams(alpha=0.5, c=0.5)


@pytest.mark.parametrize("name, call, least", [
    ("n_trunc", lambda v: g.chi_spectrum(_P_SMALL, 5, n_trunc=v), 8),
    ("n_quad", lambda v: g.nystrom_spectrum(_P_SMALL, n_quad=v), 44),
    ("n_nodes", lambda v: g.gauss_jacobi(v, 0.5), 1),
], ids=["n_trunc", "n_quad", "n_nodes"])
def test_size_arguments_checked_by_name(name, call, least):
    # a float gave numpy's TypeError about a size the caller did not pass,
    # True read as "too small" for n_trunc and n_quad, and gauss_jacobi(True,
    # 0.5) returned a 1-node rule
    for value in (float(least + 40), True, least - 1):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {least}, got "):
            call(value)


@pytest.mark.parametrize("route", ["decay_check"])
def test_empty_mode_list_refused(route):
    with pytest.raises(ValueError, match="no mode index given"):
        getattr(g, route)(g.ProblemParams(alpha=0.5, c=10.0), [])


_P10 = g.ProblemParams(alpha=0.5, c=10.0)


@pytest.mark.parametrize("call, index", [
    (lambda spec: g.decay_check(_P10, [20.5, 21, 22, 23]), r"\[20\.5"),
    (lambda spec: spec.chi(2.5), "2.5"),
    (lambda spec: spec.eigenfunction(True), "True"),
    (lambda spec: g.decay_check(_P10, [3, -1]), r"\[ 3 -1\] is negative"),
], ids=["decay_check", "chi", "eigenfunction_bool", "log_mu_negative"])
def test_invalid_mode_index_refused(call, index):
    # each was a silent wrong answer or a raw IndexError/TypeError:
    # decay_check truncated 20.5 to 20; a negative index is refused where no
    # n_max bounds it (decay_check's log |mu_n|)
    with pytest.raises(ValueError, match=f"mode index {index}"):
        call(g.chi_spectrum(_P10, 5))


# ---------------------------------------------------------------------------
# F_n moment
# ---------------------------------------------------------------------------

def test_f_n_at_c_zero():
    for alpha in (-0.9, -0.5, 0.0, 0.5, 1.4, 4.0):
        p = g.ProblemParams(alpha=alpha, c=0.0)
        spec = g.chi_spectrum(p, 200)
        ns = np.arange(201)
        assert np.max(np.abs(f_n_moment(spec, ns) - ns)) <= 1e-12
        assert abs(f_n_moment(spec, 12) - 12) <= 1e-12


@pytest.mark.parametrize("alpha, c, n", [(-0.5, 20.0, 5), (0.0, 20.0, 5), (0.5, 100.0, 10)])
def test_f_n_matches_mpmath(alpha, c, n):
    p = g.ProblemParams(alpha=alpha, c=c)
    spec = g.chi_spectrum(p, n)
    exact = f_n_mpmath(alpha, spec.eigenfunction(n).coeffs)
    assert abs(f_n_moment(spec, n) - float(exact)) <= 1e-13


def f_n_full_width(spectrum, ns):
    """F_n by one (0, 2)-banded connection solve over full-width coefficient rows.

    The form f_n_moment had before it split the rows by parity: reference for
    the parity-split kernel, which must agree with it to rounding.
    """
    a, size = spectrum.params.alpha, spectrum.n_trunc
    coeffs = np.array([spectrum.eigenfunction(n).coeffs for n in ns])
    b = sym_offdiag(a, size - 1)
    b_up = sym_offdiag(a + 1.0, size - 1)
    d = jacobi_series_deriv_coeffs(coeffs, a)
    e = np.zeros(coeffs.shape)
    e[..., 1:] = b_up[1:] * d
    e[..., :-2] += b_up[1:-1] * d[..., 1:]
    p = math.sqrt(total_mass(a + 1.0) / total_mass(a)) \
        * np.concatenate(([1.0], np.cumprod(b_up[1:] / b[1:])))
    banded = np.zeros((3, size))
    banded[0, 2:] = -b[2:] * b[1:-1] / p[:-2]
    banded[2] = p
    g_ = solve_banded((0, 2), banded, e.reshape(-1, size).T).T.reshape(e.shape)
    return np.sum(coeffs * g_, axis=-1)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.4, 3.0])
def test_f_n_matches_full_width_solve(alpha):
    for c in (0.0, 1.0, 30.0, 150.0):
        spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 60)
        ns = np.arange(61)
        gap = np.abs(f_n_moment(spec, ns) - f_n_full_width(spec, ns))
        assert np.all(gap <= 1e-13 * np.maximum(1, ns))
        assert f_n_moment(spec, 7) == f_n_moment(spec, ns)[7]


def inverse_iteration_step(spec, ns):
    """spec with the vectors of modes ns replaced by one step of inverse iteration.

    Each solves (T - chi_n) y = psi_n in its parity block of the Sturm matrix
    and normalises y.  The full (divide and conquer) solve behind a many-mode
    chi_spectrum leaves small coefficients ~1e-14 off, which moves F_n by up
    to ~1e-13 relative (2.3e-12 at (alpha, c, n) = (-0.9, 9.96, 5) in the
    basis of n_max = 101, against 40-digit vectors); the step restores them to
    rounding.
    """
    a, c, size = spec.params.alpha, spec.params.c, spec.n_trunc
    b = sym_offdiag(a, size + 1)
    coeffs = spec.coeffs.copy()
    for n in np.unique(ns).tolist():
        k = np.arange(n % 2, size, 2)
        band = np.zeros((3, k.size))
        band[0, 1:] = band[2, :-1] = c * c * b[k[:-1] + 1] * b[k[:-1] + 2]
        band[1] = k * (k + 2 * a + 1) + c * c * (b[k] ** 2 + b[k + 1] ** 2) - spec.chis[n]
        y = solve_banded((1, 1), band, spec.coeffs[n, :k.size])
        coeffs[n, :k.size] = y / np.linalg.norm(y)
    return dataclasses.replace(spec, coeffs=coeffs)


def f_n_per_node(params, ns, taus):
    """F_n at each tau (rows) from a full Sturm solve and f_n_moment.

    Oracle for the explicit route's integrand, which solves only the runs of
    requested modes at each node and shares one F_n solve among all nodes:
    here each tau solves chi_spectrum(p_tau, max n), every mode from 0 up,
    with signs fixed, refines the vectors of ns (inverse_iteration_step) and
    calls f_n_moment on it.
    """
    return np.array([f_n_moment(inverse_iteration_step(
        g.chi_spectrum(g.ProblemParams(params.alpha, float(tau)), int(ns.max())), ns), ns)
        for tau in taus])


def log_prefactor(params, ns):
    """log(sqrt(pi) Gamma-ratio) + n log c: log |mu_n| less Phi_n."""
    a, c = params.alpha, params.c
    k = ns.astype(float)
    at_zero = k == 0
    return (0.5 * math.log(math.pi) + sp.gammaln(k + a + 1.0)
            + np.where(at_zero, 0.0, sp.gammaln(k + 2 * a + 1.0))
            - sp.gammaln(k + a + 1.5)
            - np.where(at_zero, 0.0, sp.gammaln(2 * k + 2 * a + 1.0))) + k * math.log(c)


@functools.cache
def gauss_legendre(n):
    """n-point Gauss-Legendre nodes and weights on [-1, 1], by Newton's method on
    the Legendre recurrence.

    numpy's leggauss(1024) is off by 1.6e-14 in int x^2 (2e-13 at 2048
    points), which moves Phi_n by up to ~1e-13 max(1, |log |mu_n||) at
    c = 150; these are good to ~1e-16.
    """
    def legendre(x):
        p0, p1 = np.ones_like(x), x.copy()
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, n * (x * p1 - p0) / (x * x - 1.0)

    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(10):
        p, dp = legendre(x)
        x = x - p / dp
    _, dp = legendre(x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


ORACLE_MODE_LISTS = (np.arange(20), np.array([0, 1, 5, 101]), np.array([12]), np.arange(40, 56))


def assert_integrand_matches_per_node(params, ns):
    # at the 15 Gauss-Kronrod nodes of [0, c], the nodes of a one-panel call:
    # node by node as F_n = n + tau (F_n - n)/tau, the value f_n_moment
    # returns, to 1e-13 max(1, |F_n|), and as Phi_n on that one panel, to
    # 1e-13 max(1, |log |mu_n||)
    taus = 0.5 * params.c * (1.0 + explicit_route._GK_NODES)
    got = explicit_route._phi_integrand(params, ns, taus)
    f_n = f_n_per_node(params, ns, taus)
    assert got.shape == f_n.shape == (taus.size, ns.size)
    assert np.all(np.abs(ns + taus[:, None] * got - f_n) <= 1e-13 * np.maximum(1.0, np.abs(f_n)))
    gap = np.abs(np.dot(0.5 * params.c * explicit_route._GK_WEIGHTS,
                        got - (f_n - ns) / taus[:, None]))
    assert np.all(gap <= 1e-13 * np.maximum(1.0, np.abs(log_mu_magnitude(params, ns))))


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.4, 3.0])
@pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 30.0, 150.0])
def test_log_mu_matches_per_node_oracle(alpha, c):
    p = g.ProblemParams(alpha=alpha, c=c)
    for ns in ORACLE_MODE_LISTS:
        assert_integrand_matches_per_node(p, ns)


def test_log_mu_matches_per_node_oracle_on_fine_rule_and_cli_window():
    # log |mu_n| within its estimate of Phi_n from f_n_per_node on a 256-node rule
    p, ns = g.ProblemParams(alpha=0.5, c=10.0), np.arange(5, 20)
    got, est = explicit_route._log_mu_with_error(p, ns)
    x, w = gauss_legendre(256)
    taus = 0.5 * p.c * (x + 1.0)
    want = log_prefactor(p, ns) + np.dot(0.5 * p.c * w, (f_n_per_node(p, ns, taus) - ns)
                                         / taus[:, None])
    assert np.all(np.abs(got - want) <= est + 1e-13 * np.maximum(1.0, np.abs(want)))
    # the window gpswf spectrum uses at c = 400
    lo = int(math.e * 400.0 / 2) + 2
    assert_integrand_matches_per_node(g.ProblemParams(alpha=0.5, c=400.0), np.arange(lo, lo + 16))


def tridiagonal_vector_mpmath(alpha, c, n, n_trunc, chi):
    """psi_n's coefficients at 40 digits by inverse iteration from the double chi_n.

    The parity block of the Sturm matrix (as sturm._solve builds it) in the n_trunc basis,
    four Thomas solves of (T - chi) y = x, each followed by a Rayleigh
    quotient update of chi.
    """
    from mpmath import mp

    with mp.workdps(40):
        a, cc = mp.mpf(alpha), mp.mpf(c) ** 2
        b = [mp.mpf(0), 1 / mp.sqrt(3 + 2 * a)] + [
            mp.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
            for k in range(2, n_trunc + 2)]
        idx = range(n % 2, n_trunc, 2)
        d = [k * (k + 2 * a + 1) + cc * (b[k] ** 2 + b[k + 1] ** 2) for k in idx]
        e = [cc * b[k + 1] * b[k + 2] for k in idx][:-1] + [mp.mpf(0)]
        size, lam, x = len(d), mp.mpf(chi), [mp.mpf(1)] * len(d)
        for _ in range(4):
            sub, rhs, y = [mp.mpf(0)] * size, [mp.mpf(0)] * size, [mp.mpf(0)] * size
            for i in range(size):
                den = d[i] - lam - (e[i - 1] * sub[i - 1] if i else 0)
                sub[i] = e[i] / den
                rhs[i] = (x[i] - (e[i - 1] * rhs[i - 1] if i else 0)) / den
            for i in reversed(range(size)):
                y[i] = rhs[i] - (sub[i] * y[i + 1] if i + 1 < size else 0)
            norm = mp.sqrt(sum(v * v for v in y))
            x = [v / norm for v in y]
            lam = sum(x[i] * (d[i] * x[i] + (e[i] * x[i + 1] if i + 1 < size else 0)
                              + (e[i - 1] * x[i - 1] if i else 0)) for i in range(size))
        return np.array([float(v) for v in x])


@pytest.mark.parametrize("alpha, c, tau_node, n_max, picked", [
    (0.5, 400.0, 9, 560, (545, 550, 556)),   # the c = 400 CLI window, at tau ~ 281
    (-0.9, 10.0, 14, 101, (5,)),             # mode 5 in the basis of modes 0..101
])
def test_integrand_and_oracle_match_mpmath_vectors(alpha, c, tau_node, n_max, picked):
    # F_n - n from the window solve and from the refined per-node oracle are
    # within 2e-15 max(1, n) of F_n - n on 40-digit eigenvectors; chi_spectrum's
    # own vectors are 1e-11..2.4e-11 off at the first point and 2.3e-12 at the
    # second (tau ~ 9.96)
    p = g.ProblemParams(alpha=alpha, c=c)
    ns = np.array(picked)
    tau = float(0.5 * c * (1.0 + explicit_route._GK_NODES[tau_node]))
    got = tau * explicit_route._phi_integrand(p, ns, np.array([tau]), n_max)[0]
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=tau), n_max)
    oracle = f_n_moment(inverse_iteration_step(spec, ns), ns) - ns
    for n, x, y in zip(picked, got, oracle):
        vec = tridiagonal_vector_mpmath(alpha, tau, n, spec.n_trunc, spec.chis[n])
        want = explicit_route._f_n_rows(alpha, n % 2, vec, n)
        assert abs(x - want) <= 2e-15 * max(1, n)
        assert abs(y - want) <= 2e-15 * max(1, n)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.5, 1.4, 3.0])
@pytest.mark.parametrize("c", [0.1, 1.0, 10.0, 30.0, 150.0])
def test_log_mu_within_its_estimate_of_a_fine_rule(alpha, c):
    # Phi_n from the same integrand, in each list's basis, on a 1,024-node
    # Gauss-Legendre rule; the integrand itself is held to f_n_per_node by
    # test_log_mu_matches_per_node_oracle, which at 1,024 nodes would take
    # 1,024 full solves per mode list
    p = g.ProblemParams(alpha=alpha, c=c)
    x, w = gauss_legendre(1024)
    taus = 0.5 * c * (x + 1.0)
    for ns in ORACLE_MODE_LISTS:
        got, est = explicit_route._log_mu_with_error(p, ns)
        assert np.array_equal(log_mu_magnitude(p, ns), got)
        want = log_prefactor(p, ns) + np.dot(0.5 * c * w,
                                             explicit_route._phi_integrand(p, ns, taus))
        assert np.all(np.abs(got - want) <= est + 1e-13 * np.maximum(1.0, np.abs(want)))


def count_calls(monkeypatch, names=("gauss_jacobi", "jacobi_series_eval"), first_arg=False):
    """Record calls to the named functions through every gpswf and explicit_route binding.

    Each call is recorded as its name, or as (name, first argument) with first_arg.
    """
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append((name, args[0]) if first_arg else name)
            return fn(*args, **kwargs)
        return wrapper

    for mod_name, mod in list(sys.modules.items()):
        if mod_name in ("gpswf", "explicit_route") or mod_name.startswith("gpswf."):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
    return calls


def recorded_lapack(monkeypatch, name):
    """Inputs (copied before the call) and outputs of spectrum's LAPACK calls to name."""
    seen, lapack = [], spectrum._lapack

    def recording(routine, *args, **kwargs):
        inputs = [np.copy(a) if isinstance(a, np.ndarray) else a for a in args]
        out = lapack(routine, *args, **kwargs)
        if routine == name:
            seen.append((inputs, out))
        return out

    monkeypatch.setattr(spectrum, "_lapack", recording)
    return seen


def test_decay_check_builds_no_rule_and_runs_no_clenshaw(monkeypatch):
    calls = count_calls(monkeypatch)
    g.decay_check(g.ProblemParams(alpha=0.5, c=10.0), range(15, 31))
    assert calls == []
    # the counters see calls through the module bindings
    g.chi_spectrum(g.ProblemParams(alpha=0.5, c=10.0), 0).eigenfunction(0).value(0.0)
    assert calls == ["jacobi_series_eval"]


def test_nystrom_spectrum_builds_one_rule_and_runs_no_clenshaw(monkeypatch):
    calls = count_calls(monkeypatch)
    p = g.ProblemParams(alpha=0.5, c=10.0)
    g.nystrom_spectrum(p, n_keep=12)
    assert calls == ["gauss_jacobi"]
    # nor does the eigen-relation at x = 0
    spec = g.chi_spectrum(p, 11)
    calls.clear()
    mu_eigenrelation(spec, np.arange(12))
    assert calls == []


def test_explicit_route_solves_no_spectrum_and_one_f_n_system_per_parity(monkeypatch):
    calls = count_calls(monkeypatch, ("chi_spectrum", "window_vectors"))
    solves = recorded_lapack(monkeypatch, "dgbsv")
    log_mu_magnitude(g.ProblemParams(alpha=0.5, c=10.0), np.arange(15, 31))
    assert calls.count("chi_spectrum") == 0
    # one panel on the decay window: one batch of windows, and one banded
    # connection solve per parity
    assert calls.count("window_vectors") == 1
    assert len(solves) == 2
    calls.clear()
    # decay_check reads chi and the ratio route from one solve at c
    g.decay_check(g.ProblemParams(alpha=0.5, c=10.0), range(15, 31))
    assert calls.count("chi_spectrum") == 1
    assert calls.count("window_vectors") == 0


def test_log_mu_ratio_builds_each_table_once(monkeypatch):
    # the anchor, A_n and both parities' connection solves share one build
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=10.0), 30)
    calls = count_calls(monkeypatch, ("sym_offdiag", "total_mass"), first_arg=True)
    g.log_mu_ratio(spec)
    assert sorted(calls) == [("sym_offdiag", 0.5), ("sym_offdiag", 1.5),
                             ("total_mass", 0.5), ("total_mass", 1.5)]


def test_decay_check_is_one_sturm_solve_and_one_ratio_pass(monkeypatch):
    calls = count_calls(monkeypatch, ("chi_spectrum", "_lapack"), first_arg=True)
    solves = recorded_lapack(monkeypatch, "dgbsv")
    g.decay_check(g.ProblemParams(alpha=0.5, c=10.0), range(15, 31))
    # 31-row blocks keeping 16 and 15 modes: two full solves, one per parity,
    # and one banded connection solve per parity
    assert [name for name, _ in calls].count("chi_spectrum") == 1
    assert sorted(arg for name, arg in calls if name == "_lapack") == ["dgbsv", "dgbsv",
                                                                       "dstevd", "dstevd"]
    assert len(solves) == 2


@pytest.mark.parametrize("alpha, c, n_quad", [(0.5, 10.0, 82), (1.4, 60.0, 133)])
def test_nystrom_blocks_bit_identical_to_eigh(monkeypatch, alpha, c, n_quad):
    seen = recorded_lapack(monkeypatch, "dsyevr")
    _nystrom_lambdas(g.ProblemParams(alpha=alpha, c=c), n_quad)
    assert [inputs[0].shape[0] for inputs, _ in seen] == [(n_quad + 1) // 2, n_quad // 2]
    for (block,), out in seen:
        assert np.array_equal(out[0], eigh(block, eigvals_only=True))


@pytest.mark.parametrize("alpha, c", [(0.5, 10.0), (-0.5, 150.0)])
def test_connection_solves_bit_identical_to_solve_banded(monkeypatch, alpha, c):
    seen = recorded_lapack(monkeypatch, "dgbsv")
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 30)
    spectrum.log_mu_ratio(spec)
    f_n_moment(spec, np.arange(31))
    # one- and two-column systems, the first of which solve_banded divides out
    _, _, p, q = spectrum._connection_tables(alpha, 3)
    rhs = np.array([[0.3, -1.2], [2.0, 0.7], [1e-300, 5.0]])
    for size in (1, 2):
        spectrum._connect(p, q, 1, rhs[:, :size])
    assert len(seen) == 6
    for (lower, upper, banded, e), out in seen:
        assert (lower, upper) == (0, 1)
        assert np.array_equal(out[2], solve_banded((0, 1), banded, e))


def test_f_n_weighted_identity():
    # alpha int Ptilde_n^2 w_{alpha-1} = n + alpha + 1/2
    p = g.ProblemParams(alpha=0.8, c=0.0)
    spec = g.chi_spectrum(p, 6)
    assert abs(f_n_weighted_identity(p, 6, spec) - (6 + 0.8 + 0.5)) <= 1e-10
    for alpha in (0.3, 1.2):
        pp = g.ProblemParams(alpha=alpha, c=0.0)
        ss = g.chi_spectrum(pp, 12)
        for n in range(13):
            assert abs(f_n_weighted_identity(pp, n, ss) - (n + alpha + 0.5)) <= 1e-9


def test_f_n_quadratic_in_bandwidth():
    taus = np.array([0.25, 0.5, 1.0, 2.0])
    gaps = []
    for tau in taus:
        p = g.ProblemParams(alpha=0.5, c=float(tau))
        gaps.append(abs(f_n_moment(g.chi_spectrum(p, 40), 40) - 40))
    slope = np.polyfit(np.log(taus), np.log(gaps), 1)[0]
    assert abs(slope - 2.0) <= 0.1


# ---------------------------------------------------------------------------
# decay
# ---------------------------------------------------------------------------

def test_decay_slope():
    rep = g.decay_check(g.ProblemParams(alpha=0.5, c=2.0), range(20, 61))
    assert 0.9 <= rep.slope <= 1.1
    assert rep.bound_ok


def test_decay_check_keeps_modes_with_chi_above_c_squared():
    p = g.ProblemParams(alpha=0.5, c=10.0)
    chis = g.chi_spectrum(p, 29).chis
    assert chis[5] <= 100.0 < chis[6]
    rep = g.decay_check(p, range(0, 30))
    assert np.array_equal(rep.ns, np.arange(6, 30))
    with pytest.raises(ValueError, match="at least three admissible indices"):
        g.decay_check(p, range(0, 6))


@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.4])
def test_decay_slope_matches_a_least_squares_solver(alpha):
    # the CLI's window; the closed form and polyfit's SVD differ in rounding only
    for c in (1.0, 5.0, 10.0, 20.0, 100.0, 400.0):
        lo = max(8, int(math.e * c / 2) + 2)
        rep = g.decay_check(g.ProblemParams(alpha=alpha, c=c), range(lo, lo + 16))
        want = np.polyfit(rep.rate_terms, -rep.log_lambdas, 1)[0]
        assert abs(rep.slope - want) <= 1e-13 * abs(want)


def test_decay_check_counts_a_repeated_index_once():
    # a repeated index is one point; fitted as three, [10, 10, 10] gave slope
    # 0.509 with bound_ok set
    p = g.ProblemParams(alpha=0.5, c=5.0)
    with pytest.raises(ValueError, match="at least three admissible indices"):
        g.decay_check(p, [10, 10, 10])
    with pytest.raises(ValueError, match="at least three admissible indices"):
        g.decay_check(p, [11, 10, 11, 10])
    rep, want = g.decay_check(p, [12, 10, 12, 11, 10]), g.decay_check(p, range(10, 13))
    assert np.array_equal(rep.ns, [10, 11, 12])
    assert rep.slope == want.slope
    assert np.array_equal(rep.log_lambdas, want.log_lambdas)


def assert_matches_explicit_route(p, rep):
    """rep.log_lambdas within 2e-13 max(1, |log |mu_n||) of log_lambda_explicit."""
    want = log_lambda_explicit(p, rep.ns)
    log_mu = 0.5 * (want - math.log(p.c / (2.0 * math.pi)))
    assert np.all(np.abs(rep.log_lambdas - want) <= 2e-13 * np.maximum(1.0, np.abs(log_mu)))


def test_decay_check_on_a_sparse_range_is_the_explicit_route():
    p = g.ProblemParams(alpha=0.5, c=30)
    rep = g.decay_check(p, range(10, 80, 3))
    assert rep.ns[0] > 10 and np.all(np.diff(rep.ns) == 3)
    assert_matches_explicit_route(p, rep)


@pytest.mark.parametrize("c", [100.0, 400.0])
def test_low_modes_match_stable_nystrom_at_large_c(c):
    # Phi_n of modes 0..11 has a knee where c^2 / chi_n crosses 1; the fixed
    # 64-node tau rule this replaces left lambda 3.2e-7 (c = 100) and 3.4e-3
    # (c = 400) off, with no flag
    p = g.ProblemParams(alpha=0.5, c=c)
    op = g.nystrom_spectrum(p, n_keep=12)
    assert np.all(op.stable)
    lam_x = np.exp(log_lambda_explicit(p, np.arange(12)))
    assert np.all(np.abs(lam_x - op.lambdas) <= 1e-11 * op.lambdas)


def test_explicit_route_refuses_a_mode_the_panel_cap_leaves_open(monkeypatch):
    monkeypatch.setattr(explicit_route, "_MAX_PANELS", 4)
    p = g.ProblemParams(alpha=0.5, c=100.0)
    with pytest.raises(RuntimeError, match=r"for mode n = \d+ .* error estimate \S+ above"):
        log_lambda_explicit(p, np.arange(12))
    # the decay window needs one panel
    log_lambda_explicit(p, np.arange(140, 156))


def test_decay_report_errors_meet_the_tolerance():
    # the ratio route's log lambda_n against the explicit route's on the CLI window
    for alpha in (0.05, 0.5, 1.4):
        for c in (1.0, 5.0, 10.0, 20.0, 100.0, 400.0):
            p = g.ProblemParams(alpha=alpha, c=c)
            lo = max(8, int(math.e * c / 2) + 2)
            assert_matches_explicit_route(p, g.decay_check(p, range(lo, lo + 16)))


def test_log_lambda_explicit_batched_matches_per_mode():
    p = g.ProblemParams(alpha=0.7, c=3.0)
    ns = np.arange(10, 17)
    batched = log_lambda_explicit(p, ns)
    assert batched.shape == ns.shape
    per_mode = [log_lambda_explicit(p, int(n)) for n in ns]
    assert_allclose(batched, per_mode, rtol=1e-12)
    assert isinstance(per_mode[0], float)


def test_decay_alpha_monotonicity():
    op_lo = g.nystrom_spectrum(g.ProblemParams(alpha=0.5, c=4.0), n_keep=11)
    op_hi = g.nystrom_spectrum(g.ProblemParams(alpha=1.0, c=4.0), n_keep=11)
    assert np.all(op_hi.lambdas <= op_lo.lambdas)


def test_decay_alpha_zero_reference_rate():
    # faster than e^{-2n log(a n / c)} with a = 1.2 < 4/e, at c = 2
    p = g.ProblemParams(alpha=0.0, c=2.0)
    margins = []
    for n in range(20, 41, 5):
        margins.append(log_lambda_explicit(p, n) + 2 * n * math.log(1.2 * n / 2.0))
    assert all(m < 0 for m in margins)
    assert all(margins[i + 1] < margins[i] for i in range(len(margins) - 1))


def test_decay_requires_alpha_window():
    with pytest.raises(ValueError):
        g.decay_check(g.ProblemParams(alpha=1.8, c=2.0), range(20, 30))


# ---------------------------------------------------------------------------
# trace, HS norm, counting
# ---------------------------------------------------------------------------

def test_trace_closed_forms():
    p = g.ProblemParams(alpha=0.0, c=7.0)
    tn = g.trace_and_norm(p)
    assert_allclose(tn.trace, 2 * 7.0 / math.pi, rtol=1e-14)
    assert_allclose(tn.gamma_alpha, 1.0, rtol=1e-14)
    assert_allclose(tn.hs_norm_limit, tn.trace, rtol=1e-14)


def test_trace_and_norm_names_alpha_hypothesis():
    with pytest.raises(ValueError, match=r"alpha > -1/2"):
        g.trace_and_norm(g.ProblemParams(alpha=-0.9, c=5.0))


def test_trace_and_norm_finite_at_large_alpha():
    from mpmath import mp

    for alpha in (85.5, 200.0, 260.0):
        tn = g.trace_and_norm(g.ProblemParams(alpha=alpha, c=5.0))
        fields = (tn.trace, tn.hs_norm_limit, tn.gamma_alpha, bessel_moment(alpha))
        assert all(math.isfinite(v) for v in fields)
        with mp.workdps(30):
            a = mp.mpf(alpha)
            gamma_alpha = 2 ** (4 * a) * (mp.beta(2 * a + 1, 2 * a + 1)
                                          / mp.beta(a + 1, a + 1)) ** 2
            moment = (2 ** (-2 * a) * mp.sqrt(mp.pi) * mp.gamma(2 * a + 1)
                      / (mp.gamma(2 * a + 1.5) * mp.gamma(a + 1) ** 2))
        assert abs(tn.gamma_alpha - float(gamma_alpha)) <= 1e-11 * float(gamma_alpha)
        if alpha == 85.5:
            # a subnormal double: about 12 significant digits are left
            assert abs(bessel_moment(alpha) - float(moment)) <= 1e-9 * float(moment)


def test_bessel_moment_value():
    # int_R J_{a+1/2}^2(t)/t^{2a+1} dt against direct quadrature
    from scipy.integrate import quad

    a = 0.5
    direct = 2 * quad(lambda t: sp.jv(a + 0.5, t) ** 2 / t ** (2 * a + 1),
                      1e-12, 2000.0, limit=8000, epsabs=1e-12)[0]
    assert_allclose(bessel_moment(a), direct, rtol=1e-6)


def test_hs_norm_trend():
    gaps = []
    for c in (10.0, 20.0, 40.0):
        p = g.ProblemParams(alpha=0.5, c=c)
        tn = g.trace_and_norm(p)
        cnt = g.counting(p, 0.5)
        gaps.append(abs(cnt.hs_norm_value - tn.hs_norm_limit) / c)
    assert gaps[1] < gaps[0] and gaps[2] < gaps[1]


def test_counting_upper_bound_and_landau():
    for c in (10.0, 20.0, 40.0):
        cnt = g.counting(g.ProblemParams(alpha=0.0, c=c), 0.5)
        assert cnt.m_empirical / c <= 4 / math.pi
        assert cnt.upper_ok
    for c in (10.0, 20.0, 40.0):
        cnt = g.counting(g.ProblemParams(alpha=0.5, c=c), 0.5)
        assert cnt.m_empirical <= cnt.upper_bound


def test_counting_plateau_stable_under_refinement():
    p = g.ProblemParams(alpha=0.5, c=20.0)
    cnt = g.counting(p, 0.5)
    cnt2 = g.nystrom_spectrum(p, n_quad=2 * cnt.n_quad).counting(0.5)
    assert abs(cnt.m_empirical - cnt2.m_empirical) <= 2


def test_counting_delta_validation():
    with pytest.raises(ValueError):
        g.counting(g.ProblemParams(alpha=0.5, c=5.0), 1.5)
    with pytest.raises(ValueError):
        g.counting(g.ProblemParams(alpha=-0.5, c=5.0), 0.5)


def test_nystrom_eigenvector_matches_sturm_modes():
    # by-index matching validated by eigenvector correlation on the top modes
    p = g.ProblemParams(alpha=0.5, c=5.0)
    n_quad = 240
    mat = qc_oracle_matrix(p, n_quad)
    vals, vecs = eigh(mat)
    order = np.argsort(vals)[::-1]
    rule = g.gauss_jacobi(n_quad, 0.5)
    spec = g.chi_spectrum(p, 9)
    for n in range(10):
        v = vecs[:, order[n]]
        u = np.sqrt(rule.weights) * spec.eigenfunction(n).value(rule.nodes)
        corr = abs(np.dot(v, u)) / (np.linalg.norm(v) * np.linalg.norm(u))
        assert corr >= 0.99

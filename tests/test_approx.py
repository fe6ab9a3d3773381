"""Uniform-approximation tests: envelopes, normalization constants, rates."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import ellipe, gamma, jv

import gpswf as g
from gpswf.approx import _bessel_terms, default_grid, make_frame, symmetric_grid
from paper_bounds import g_bound, m_cap, main_norm_sq, weight_modulus
from test_specfun import jacobi_series_mpmath


def g_bound_quad_oracle(alpha, q, x):
    """Integrate the perturbation bound along the arc length, u = original variable."""
    def integrand(u):
        h = (3 + 2 * q + 12 * alpha * alpha) / (4 * (1 - q * u * u) ** 2) \
            + alpha * (alpha + 1) / (1 - q * u * u)
        return h * math.sqrt((1 - q * u * u) / (1 - u * u))
    return quad(integrand, x, 1.0, limit=400, epsabs=1e-12)[0]


# ---------------------------------------------------------------------------
# g bound
# ---------------------------------------------------------------------------

def test_g_bound_at_zero():
    alpha, q = 0.5, 0.3
    expect = (3 + 2 * q + 12 * alpha ** 2) / (4 * (1 - q)) * ellipe(q) \
        + alpha * (alpha + 1) * g.elliptic_K(math.sqrt(q))
    assert_allclose(g_bound(alpha, q, 0.0), expect, rtol=1e-14)


def test_g_bound_small_q_limit():
    assert_allclose(g_bound(0.0, 1e-14, 0.0), 0.75 * math.pi / 2, rtol=1e-10)


def test_g_bound_endpoint():
    assert g_bound(0.5, 0.3, 1.0) == 0.0


def test_g_bound_quad_oracle():
    assert_allclose(g_bound(0.5, 0.3, 0.6), g_bound_quad_oracle(0.5, 0.3, 0.6),
                    atol=1e-11)


# ---------------------------------------------------------------------------
# Bessel-form approximation (frame, value, envelope)
# ---------------------------------------------------------------------------

def test_frame_admissibility():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 40)
    fr = make_frame(spec, 40)
    assert fr.admissible and fr.q < 1
    expect_eps = math.pi * (math.e - 1) * (1.75 + 3 * 0.25) \
        * g.envelope_constants(0.5).m_alpha / ((1 - fr.q) * math.sqrt(fr.chi))
    assert_allclose(fr.eps, expect_eps, rtol=1e-14)


def test_inadmissible_frame_refused_with_reason():
    # low mode at large bandwidth: q >= 1
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 2)
    with pytest.raises(ValueError, match="q ="):
        g.bessel_uniform(spec, 2, 0.5)


@pytest.mark.parametrize("n", [-1, 4])
@pytest.mark.parametrize("route", [
    lambda spec, n: spec.chi(n),
    lambda spec, n: spec.q(n),
    make_frame,
    lambda spec, n: g.bessel_uniform(spec, n, 0.5),
    lambda spec, n: g.jacobi_uniform(spec, n, 0.5),
], ids=["chi", "q", "make_frame", "bessel_uniform", "jacobi_uniform"])
def test_mode_outside_the_spectrum_refused(route, n):
    # numpy would read n = -1 as mode n_max, and n_max + 1 as an IndexError
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=60.0), 3)
    with pytest.raises(ValueError, match=r"mode index .* outside computed range 0\.\.3"):
        route(spec, n)


@pytest.mark.parametrize("x", [math.nan, [0.5, math.nan]], ids=["scalar", "array"])
@pytest.mark.parametrize("route, message", [
    (lambda spec, x: spec.eigenfunction(40).value(x), r"evaluated on \[-1, 1\]"),
    (lambda spec, x: spec.eigenfunction(40).derivative(x), r"evaluated on \[-1, 1\]"),
    (lambda spec, x: g.ode_residual(spec.eigenfunction(40), x), r"evaluated on \[-1, 1\]"),
    (lambda spec, x: g.jacobi_uniform(spec, 40, x), r"evaluated on \[-1, 1\]"),
    (lambda spec, x: g.bessel_uniform(spec, 40, x), r"defined on \[0, 1\]"),
    (lambda spec, x: g.s_map(x, 0.3), r"requires x in \[0, 1\]"),
    (lambda spec, x: weight_modulus(g.envelope_constants(0.5), x), r"requires x > 0"),
], ids=["value", "derivative", "ode_residual", "jacobi_uniform", "bessel_uniform",
        "s_map", "weight_modulus"])
def test_nan_point_refused(route, message, x):
    # a NaN fails every "outside" comparison; each check asks "all inside"
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 40)
    with pytest.raises(ValueError, match=message):
        route(spec, x)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("route, domain", [
    (g.envelope_constants, ">= -1/2"),
    (lambda alpha: g.gauss_jacobi(5, alpha), "> -1"),
], ids=["envelope_constants", "gauss_jacobi"])
def test_non_finite_alpha_refused(route, domain, alpha):
    # a NaN alpha passed each "outside" check: envelope_constants failed to
    # bracket its first zero, and gauss_jacobi failed on an unnamed LAPACK
    # check, as it did at inf
    with pytest.raises(ValueError, match=f"a finite alpha {domain}, got alpha = {alpha}$"):
        route(alpha)


@pytest.mark.parametrize("report", [g.bessel_report, g.jacobi_report], ids=["bessel", "jacobi"])
def test_empty_grid_refused(report):
    # numpy's "zero-size array to reduction operation maximum" named no argument
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 40)
    with pytest.raises(ValueError, match="needs a grid of at least one point"):
        report(spec, 40, grid=[])


def test_eps_halves_when_sqrt_chi_doubles_at_fixed_q():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 40)
    fr = make_frame(spec, 40)
    # pick c' so that q is identical at quadrupled chi
    chi2 = 4.0 * fr.chi
    c2 = math.sqrt(fr.q * chi2)
    eps2 = math.pi * (math.e - 1) * (1.75 + 3 * 0.25) \
        * g.envelope_constants(0.5).m_alpha / ((1 - fr.q) * math.sqrt(chi2))
    assert abs(eps2 / fr.eps - 0.5) <= 0.05 * 0.5
    assert c2 > spec.params.c


def test_bessel_value_at_endpoint():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 40)
    fr = make_frame(spec, 40)
    val, _ = g.bessel_uniform(spec, 40, 1.0)
    a_hat = math.sqrt(math.pi / (2 * g.elliptic_K(math.sqrt(fr.q))))
    expect = a_hat * fr.chi ** (0.25 + 0.25) * (1 - fr.q) ** 0.25 \
        / (2 ** 0.5 * gamma(1.5))
    assert_allclose(val, expect, rtol=1e-12)


def test_envelope_dominates_sup_error():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 40)
    rep = g.bessel_report(spec, 40)
    assert not rep.envelope_violated
    assert rep.sup_error <= rep.sup_envelope


@pytest.mark.parametrize("alpha, c, n", [(0.5, 5.0, 40), (1.4, 4.0, 90), (0.0, 20.0, 100),
                                         (-0.25, 3.0, 40)])
def test_envelope_factor_is_olver_ratio(alpha, c, n):
    # the envelope factor with Olver's E and M in closed form, away from the
    # x = 1 limit: (1-x^2)^(1/4-a/2) chi^(1/4) sqrt(S) (M/E) / (1-q x^2)^(3/4)
    frame = make_frame(g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n), n)
    assert frame.admissible
    xs = default_grid()[:-1]
    chi, q = frame.chi, frame.q
    s = g.s_map(xs, q)
    e, m = weight_modulus(frame.constants, math.sqrt(chi) * s)
    expect = (1 - xs * xs) ** (0.25 - alpha / 2) * chi ** 0.25 * np.sqrt(s) * (m / e) \
        / (1 - q * xs * xs) ** 0.75
    assert_allclose(_bessel_terms(frame, xs)[1], expect, rtol=1e-14, atol=0)


def test_a_alpha_exact_inside_prop2_bracket():
    # bracket with the empirically calibrated constant, stable under n-doubling
    params = g.ProblemParams(alpha=0.5, c=5.0)
    cs = []
    for n in (40, 80, 160):
        spec = g.chi_spectrum(params, n)
        fr = make_frame(spec, n)
        a = fr.a_exact
        a_hat = math.sqrt(math.pi / (2 * g.elliptic_K(math.sqrt(fr.q))))
        cs.append(abs(a - a_hat) / (a_hat * fr.eps))
    # non-growth across doublings (the fitted constant actually decays)
    assert cs[1] <= 1.25 * cs[0] and cs[2] <= 1.25 * cs[1]
    c_cal = 2.0 * max(cs)
    for n in (40, 80, 160):
        spec = g.chi_spectrum(params, n)
        fr = make_frame(spec, n)
        a = fr.a_exact
        a_hat = math.sqrt(math.pi / (2 * g.elliptic_K(math.sqrt(fr.q))))
        assert a_hat / (1 + fr.eps * c_cal) <= a <= a_hat / (1 - fr.eps * c_cal)


def test_a_alpha_small_c_matches_bracket_midpoint():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=0.01), 40)
    fr = make_frame(spec, 40)
    a = fr.a_exact
    midpoint = math.sqrt(math.pi / (2 * g.elliptic_K(math.sqrt(fr.q))))
    assert abs(a - midpoint) <= 1e-3


def test_a_alpha_positive():
    spec = g.chi_spectrum(g.ProblemParams(alpha=1.2, c=3.0), 25)
    assert make_frame(spec, 25).a_exact > 0


@pytest.mark.parametrize("alpha, n", [(150.0, 2), (200.0, 2), (600.0, 50)])
def test_a_exact_finite_at_large_alpha(alpha, n):
    # 2^alpha Gamma(1+alpha) and chi^(1/4+alpha/2) overflow here, A does not
    from mpmath import mp, mpf

    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=1.0), n)
    fr = make_frame(spec, n)
    psi1 = spec.eigenfunction(n).value(1.0)
    with mp.workdps(40):
        a = mpf(alpha)
        expect = 2 ** a * mp.gamma(1 + a) * mpf(psi1) \
            / ((1 - mpf(fr.q)) ** (a / 2) * mpf(fr.chi) ** (mpf(0.25) + a / 2))
        assert math.isfinite(fr.a_exact)
        assert abs(fr.a_exact - expect) <= 1e-12 * abs(expect)
    if alpha <= 200:
        assert math.isfinite(approximant_norm_sq(spec, n))


@pytest.mark.parametrize("alpha, c, n", [
    (0.5, 5.0, 40), (1.2, 3.0, 25), (0.5, 100.0, 300), (1.4, 400.0, 830), (600.0, 1.0, 50)])
def test_frame_psi_at_one_matches_mpmath(monkeypatch, alpha, c, n):
    # make_frame's psi_n(1) is A's sign argument; against a 40-digit sum of the
    # same coefficients it is within 2.8e-15, where Clenshaw at x = 1 is 5.0e-12
    # off at (1.4, 400, 830); A itself carries more rounding from its log form
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n)
    signs = []
    copysign = np.copysign

    def spy(x, sign):
        signs.append(sign)
        return copysign(x, sign)

    monkeypatch.setattr(np, "copysign", spy)
    fr = make_frame(spec, n)
    monkeypatch.undo()
    exact = jacobi_series_mpmath(spec.eigenfunction(n).coeffs, alpha, [1.0])[0]
    assert len(signs) == 1 and math.isfinite(fr.a_exact)
    assert abs(signs[0] - exact) <= 1e-14 * abs(exact)


def test_make_frame_makes_no_clenshaw_pass(monkeypatch):
    # psi_n(1) is a dot product with the closed-form endpoint table
    from gpswf import approx, specfun, sturm

    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 40)
    calls = []
    for module in (approx, specfun, sturm):
        evaluate = module.jacobi_series_eval
        monkeypatch.setattr(module, "jacobi_series_eval",
                            lambda *args, f=evaluate: calls.append(1) or f(*args))
    assert make_frame(spec, 40).admissible
    assert calls == []


# ---------------------------------------------------------------------------
# approximant norm
# ---------------------------------------------------------------------------

def approximant_norm_sq(spec, n):
    """||A main||^2, with A applied one factor at a time: A^2 overflows past |A| = 1e154."""
    fr = make_frame(spec, n)
    return fr.a_exact * (fr.a_exact * main_norm_sq(fr))


def approximant_norm_check(spec, n):
    """|  ||approximant||^2 pi / (A^2 K(sqrt(q))) - 1  |, with no A factor to overflow."""
    fr = make_frame(spec, n)
    return abs(main_norm_sq(fr) * math.pi / g.elliptic_K(math.sqrt(fr.q)) - 1.0)


def test_norm_check_bound():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.8, c=4.0), 50)
    fr = make_frame(spec, 50)
    # | ||approximant||^2 - A^2 K/pi | <= A^2 M_cap / ((1-q) sqrt(chi)), divided by A^2 K/pi
    dev = approximant_norm_check(spec, 50)
    kappa = g.elliptic_K(math.sqrt(fr.q))
    bound = m_cap(0.8) * math.pi / (kappa * (1 - fr.q) * math.sqrt(fr.chi))
    assert dev <= bound


def test_norm_small_q_limit():
    # K(0) = pi/2, so the squared norm tends to A^2/2
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=0.2), 60)
    a = make_frame(spec, 60).a_exact
    norm2 = approximant_norm_sq(spec, 60)
    assert abs(norm2 - a * a / 2) / norm2 <= 1e-3


def test_norm_adaptive_integration_oracle():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.8, c=4.0), 50)
    fr = make_frame(spec, 50)
    a = fr.a_exact
    alpha, q, chi = 0.8, fr.q, fr.chi

    def integrand_theta(t):
        x = math.sin(t)
        s = g.s_map(x, q)
        j = jv(alpha, math.sqrt(chi) * s)
        return a * a * math.sqrt(chi) * s * j * j / math.sqrt(1 - q * x * x)

    oracle = quad(integrand_theta, 0.0, math.pi / 2, limit=500,
                  epsabs=1e-13, epsrel=1e-13)[0]
    assert abs(approximant_norm_sq(spec, 50) - oracle) <= 1e-10


def test_norm_finite_where_a_squared_overflows():
    # A = 4.6e204 and ||main||^2 = 2.2e-306 at (260, 1, 2): A^2 alone
    # overflows, the norm (about 4.6e103) does not
    spec = g.chi_spectrum(g.ProblemParams(alpha=260.0, c=1.0), 2)
    fr = make_frame(spec, 2)
    norm2 = approximant_norm_sq(spec, 2)
    assert math.isfinite(norm2)
    in_logs = math.exp(2.0 * math.log(fr.a_exact) + math.log(main_norm_sq(fr)))
    assert abs(norm2 - in_logs) <= 1e-12 * in_logs
    # the relative check needs no A: ||main||^2 pi / K is ~4e-306, so it reads 1
    check = approximant_norm_check(spec, 2)
    assert math.isfinite(check) and abs(check - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# boundedness / limit invariants of the envelope machinery
# ---------------------------------------------------------------------------

def test_remark_boundedness_stable_under_grid_refinement():
    from gpswf.approx import _bessel_terms

    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=5.0), 40)
    fr = make_frame(spec, 40)
    coarse = np.max(_bessel_terms(fr, default_grid(2001))[1])
    fine = np.max(_bessel_terms(fr, default_grid(8001))[1])
    assert np.isfinite(coarse) and np.isfinite(fine)
    assert abs(fine - coarse) / coarse <= 0.01


def test_s_map_endpoint_ratio():
    # S(x)/sqrt((1-x^2)(1-q x^2)) -> 1 as x -> 1
    q = 0.3
    x = 1.0 - 1e-8
    ratio = g.s_map(x, q) / math.sqrt((1 - x * x) * (1 - q * x * x))
    assert abs(ratio - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# Jacobi-form approximation
# ---------------------------------------------------------------------------

def test_jacobi_c_zero_exact():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=0.0), 12)
    rep = g.jacobi_report(spec, 12)
    assert rep.a_n == 1.0
    assert rep.sup_error == 0.0


def test_jacobi_error_decays_like_inverse_n():
    sups = []
    for n in (50, 100, 200):
        spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), n)
        sups.append(g.jacobi_report(spec, n).sup_error)
    assert 0.4 <= sups[1] / sups[0] <= 0.6
    assert 0.4 <= sups[2] / sups[1] <= 0.6


def test_jacobi_a_n_scaling_bounded():
    scaled = []
    for n in (50, 100, 200):
        spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), n)
        scaled.append(g.jacobi_report(spec, n).a_n_scaled)
    assert scaled[1] <= 1.2 * scaled[0] and scaled[2] <= 1.2 * scaled[1]


def test_jacobi_refuses_alpha_out_of_range():
    spec = g.chi_spectrum(g.ProblemParams(alpha=2.0, c=2.0), 10)
    with pytest.raises(ValueError, match=r"alpha must lie in \(0,3/2\)"):
        g.jacobi_uniform(spec, 10, 0.1)


def test_jacobi_refuses_large_q():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=8.0), 4)
    with pytest.raises(ValueError, match="q ="):
        g.jacobi_uniform(spec, 4, 0.1, q0=0.5)


def test_jacobi_refuses_q0_outside_unit_interval():
    # q0 = nan, 5 or inf gave a Jacobi-form report at q = 1.61, where the form
    # needs q bounded away from 1
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=10.0), 3)
    for q0 in (math.nan, 5.0, math.inf, 1.0, -0.1):
        with pytest.raises(ValueError, match=r"^q0 must lie in \[0, 1\)"):
            g.jacobi_uniform(spec, 3, 0.1, q0=q0)
        with pytest.raises(ValueError, match=r"^q0 must lie in \[0, 1\)"):
            g.jacobi_report(spec, 3, q0=q0)


def test_jacobi_two_parameter_rate_sweep():
    # log-log slopes: ~ -1 in n at fixed c, ~ +2 in c at fixed n
    ns = np.array([40, 80, 160])
    errs_n = []
    for n in ns:
        spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), int(n))
        errs_n.append(g.jacobi_report(spec, int(n)).sup_error)
    slope_n = np.polyfit(np.log(ns), np.log(errs_n), 1)[0]
    assert abs(slope_n + 1.0) <= 0.15

    cs = np.array([0.5, 1.0, 2.0])
    errs_c = []
    for c in cs:
        spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=float(c)), 100)
        errs_c.append(g.jacobi_report(spec, 100).sup_error)
    slope_c = np.polyfit(np.log(cs), np.log(errs_c), 1)[0]
    assert abs(slope_c - 2.0) <= 0.15


def test_reports_on_custom_grid():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=3.0), 30)
    rep = g.bessel_report(spec, 30, grid=default_grid(301))
    assert rep.grid.shape == rep.approx.shape == rep.reference.shape
    rep2 = g.jacobi_report(spec, 30, grid=symmetric_grid(301))
    assert rep2.grid.shape == (301,)

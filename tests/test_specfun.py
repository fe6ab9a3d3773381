"""Special-function tests: closed forms, independent oracles, inequalities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import beta, ellipe, gamma, jv, yv

import gpswf as g
from explicit_route import jacobi_h
from gpswf.specfun import (
    _bessel_jy,
    _ptilde_at_one,
    _weight_modulus_from,
    jacobi_series_deriv_coeffs,
    jacobi_series_eval,
    sym_offdiag,
    total_mass,
)
from paper_bounds import c_alpha, eta, incomplete_K, m_cap


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def bessel_j_series_oracle(nu, x, terms=30):
    """Ascending power series at 40-digit working precision."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        x_mp = mpf(x)
        acc = mp.mpf(0)
        for k in range(terms):
            term = (-1) ** k * (x_mp / 2) ** (2 * k + nu) / (mp.factorial(k) * mp.gamma(nu + k + 1))
            acc += term
        return float(acc)


def bessel_y_integral_oracle(nu, x):
    """Standard integral representation, adaptive quadrature."""
    first = quad(lambda t: math.sin(x * math.sin(t) - nu * t), 0.0, math.pi,
                 limit=200, epsabs=1e-13)[0]
    second = quad(lambda t: (math.exp(nu * t) + math.exp(-nu * t) * math.cos(nu * math.pi))
                  * math.exp(-x * math.sinh(t)), 0.0, 30.0, limit=200, epsabs=1e-13)[0]
    return (first - second) / math.pi


def golub_welsch_oracle(n_nodes, alpha):
    """Full-size Golub-Welsch: eigenvalues and squared first components of J."""
    from scipy.linalg import eigh_tridiagonal

    b = sym_offdiag(alpha, n_nodes - 1)
    vals, vecs = eigh_tridiagonal(np.zeros(n_nodes), b[1:])
    return vals, total_mass(alpha) * vecs[0, :] ** 2


def gauss_jacobi_mpmath_oracle(n_nodes, alpha, x_start):
    """Nodes x >= 0 and their weights at 40 digits, from double-precision starts.

    Newton on the orthonormal three-term recurrence, carried with its
    derivative; the Christoffel weight 1 / sum_(k<N) Ptilde_k(x)^2 is summed
    on the last sweep, whose point is already accurate far beyond double.
    """
    from mpmath import mp, mpf

    with mp.workdps(40):
        a = mpf(alpha)
        b = [mpf(0), mp.sqrt(1 / (3 + 2 * a))]
        b += [mp.sqrt(k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)))
              for k in range(2, n_nodes + 1)]
        p0 = 1 / mp.sqrt(2 ** (2 * a + 1) * mp.beta(a + 1, a + 1))
        nodes, weights = [], []
        for x in x_start:
            x = mpf(float(x))
            for _ in range(2):
                p_prev, p, d_prev, d, total = mpf(0), p0, mpf(0), mpf(0), mpf(0)
                for k in range(n_nodes):
                    total += p * p
                    p_prev, p, d_prev, d = (p, (x * p - b[k] * p_prev) / b[k + 1],
                                            d, (p + x * d - b[k] * d_prev) / b[k + 1])
                x -= p / d
            nodes.append(float(x))
            weights.append(float(1 / total))
        return np.array(nodes), np.array(weights)


def clenshaw_x(coeffs, alpha, x):
    """Clenshaw on the recurrence in x over every degree, both parities at once.

    The evaluator's form before it split the series by parity; (..., N)
    coefficients give (..., *x.shape) values.
    """
    arr = np.asarray(x, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    u1 = np.zeros(c.shape[:-1] + arr.shape)
    u2 = np.zeros_like(u1)
    c = np.moveaxis(c, -1, 0)[(Ellipsis,) + (None,) * arr.ndim]
    n = len(c) - 1
    b = sym_offdiag(alpha, n + 2)
    for k in range(n, -1, -1):
        u1, u2 = c[k] + arr * u1 / b[k + 1] - (b[k + 1] / b[k + 2]) * u2, u1
    return u1 / math.sqrt(jacobi_h(0, alpha))


def jacobi_series_mpmath(coeffs, alpha, xs):
    """sum_k c_k Ptilde_k(x) at 40 digits, by the forward recurrence in x."""
    from mpmath import mp, mpf

    with mp.workdps(40):
        a = mpf(alpha)
        cs = [mpf(float(v)) for v in np.trim_zeros(np.asarray(coeffs), "b")]
        inv_b = [mpf(0), mp.sqrt(3 + 2 * a)] + [
            mp.sqrt((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1) / (k * (k + 2 * a)))
            for k in range(2, len(cs))]
        b = [0] + [1 / v for v in inv_b[1:]]
        p0 = 1 / mp.sqrt(2 ** (2 * a + 1) * mp.beta(a + 1, a + 1))
        out = []
        for x in xs:
            x = mpf(float(x))
            prev, cur, total = mpf(0), p0, cs[0] * p0
            for k in range(1, len(cs)):
                prev, cur = cur, (x * cur - b[k - 1] * prev) * inv_b[k]
                total += cs[k] * cur
            out.append(float(total))
        return np.array(out)


def agm_K_oracle(r):
    """Complete elliptic integral of the first kind by AGM iteration."""
    a, b = 1.0, math.sqrt(1.0 - r * r)
    while abs(a - b) > 1e-16 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def s_map_quad_oracle(x, q):
    return quad(lambda theta: math.sqrt(1.0 - q * math.sin(theta) ** 2),
                math.asin(x), math.pi / 2, limit=200, epsabs=1e-14)[0]


def incomplete_K_quad_oracle(x, q):
    return quad(lambda theta: 1.0 / math.sqrt(1.0 - q * math.sin(theta) ** 2),
                math.asin(x), math.pi / 2, limit=200, epsabs=1e-14)[0]


# ---------------------------------------------------------------------------
# Gamma / Beta
# ---------------------------------------------------------------------------

def test_gamma_closed_forms():
    assert gamma(1.0) == 1.0
    assert_allclose(gamma(0.5), math.sqrt(math.pi), rtol=1e-15)
    assert gamma(5.0) == 24.0


def test_gamma_batir_bracket():
    # sqrt(2e)((x+1/2)/e)^(x+1/2) <= Gamma(x+1) <= sqrt(2pi)(...)^(x+1/2), x > 0
    for x in np.linspace(0.02, 50.0, 400):
        core = ((x + 0.5) / math.e) ** (x + 0.5)
        gx = gamma(x + 1.0)
        assert math.sqrt(2 * math.e) * core <= gx <= math.sqrt(2 * math.pi) * core


def test_beta_closed_forms():
    assert_allclose(beta(1.0, 1.0), 1.0, rtol=1e-15)
    assert_allclose(beta(0.5, 0.5), math.pi, rtol=1e-14)
    assert_allclose(beta(2.0, 2.0), 1.0 / 6.0, rtol=1e-14)


# ---------------------------------------------------------------------------
# Bessel functions
# ---------------------------------------------------------------------------

def test_bessel_half_integer_closed_forms():
    for x in (0.5, 1.0, 2.0):
        assert_allclose(jv(0.5, x), math.sqrt(2 / (math.pi * x)) * math.sin(x),
                        rtol=1e-13)
        assert_allclose(yv(0.5, x), -math.sqrt(2 / (math.pi * x)) * math.cos(x),
                        rtol=1e-13)


def test_bessel_j_series_oracle():
    assert jv(0.0, 0.0) == 1.0
    # frozen from the 30-term series oracle at 40 digits
    assert_allclose(jv(1.0, 1.0), 0.4400505857449335, rtol=1e-14)
    for nu, x in ((0.3, 2.0), (1.7, 5.5), (4.0, 9.0)):
        assert_allclose(jv(nu, x), bessel_j_series_oracle(nu, x), rtol=1e-12)


def test_bessel_y_integral_oracle():
    assert_allclose(yv(0.3, 5.0), bessel_y_integral_oracle(0.3, 5.0), atol=1e-10)


def test_wronskian_identity():
    # J Y' - J' Y = 2/(pi x), with derivatives via the recurrence shift
    for nu in (0.0, 0.3, 0.5, 1.0, 2.7):
        for x in np.linspace(0.1, 50.0, 120):
            jn, yn = jv(nu, x), yv(nu, x)
            jp = nu / x * jn - jv(nu + 1, x)
            yp = nu / x * yn - yv(nu + 1, x)
            assert abs(jn * yp - jp * yn - 2.0 / (math.pi * x)) <= 1e-10


def test_bessel_sup_bound():
    # sqrt(x) |J_a(x)| <= c_alpha on a wide grid
    xs = np.linspace(1e-3, 200.0, 4000)
    for alpha in (0.0, 0.3, 0.5, 1.0, 2.2):
        c_a = c_alpha(alpha)
        assert np.max(np.sqrt(xs) * np.abs(jv(alpha, xs))) <= c_a + 1e-12


# ---------------------------------------------------------------------------
# Elliptic integrals and the S map
# ---------------------------------------------------------------------------

def test_elliptic_special_values():
    assert_allclose(g.elliptic_K(0.0), math.pi / 2, rtol=1e-15)
    assert_allclose(ellipe(0.0), math.pi / 2, rtol=1e-15)
    assert_allclose(ellipe(1.0), 1.0, rtol=1e-15)
    with pytest.raises(ValueError):
        g.elliptic_K(1.0)


def test_elliptic_K_agm_oracle():
    assert_allclose(g.elliptic_K(0.5), agm_K_oracle(0.5), rtol=1e-13)
    for r in (0.1, 0.3, 0.7, 0.9, 0.99):
        assert_allclose(g.elliptic_K(r), agm_K_oracle(r), rtol=1e-13)


def test_elliptic_monotonicity():
    rs = np.linspace(0.0, 0.999, 200)
    ks = np.array([g.elliptic_K(r) for r in rs])
    es = ellipe(rs * rs)
    assert np.all(ks >= math.pi / 2 - 1e-15)
    assert np.all(np.diff(ks) > 0)
    assert np.all(np.diff(es) < 0)


def test_s_map_endpoints_and_oracle():
    q = 0.3
    assert g.s_map(1.0, q) == 0.0
    assert_allclose(g.s_map(0.0, q), ellipe(q), rtol=1e-14)
    assert_allclose(g.s_map(0.5, 0.25), s_map_quad_oracle(0.5, 0.25), atol=1e-12)


def test_s_map_bracket():
    # (1 - q/2) sqrt((1-x^2)(1-q x^2)) <= S(x) <= (5-q)/3 sqrt(...)
    for q in (0.1, 0.4, 0.7, 0.95):
        for x in np.linspace(0.0, 1.0, 101):
            root = math.sqrt((1 - x * x) * (1 - q * x * x))
            s = g.s_map(x, q)
            assert (1 - q / 2) * root - 1e-12 <= s <= (5 - q) / 3 * root + 1e-12


def test_incomplete_K():
    q = 0.4
    assert_allclose(incomplete_K(0.0, q), g.elliptic_K(math.sqrt(q)), rtol=1e-14)
    assert incomplete_K(1.0, q) == 0.0
    assert_allclose(incomplete_K(0.3, 0.4), incomplete_K_quad_oracle(0.3, 0.4), atol=1e-12)


# ---------------------------------------------------------------------------
# Jacobi polynomials and Gauss-Jacobi quadrature
# ---------------------------------------------------------------------------

def ptilde_scipy(n, a, x):
    """Orthonormal Ptilde_n^(a,a) from SciPy's Jacobi polynomial."""
    from scipy.special import eval_jacobi

    return eval_jacobi(n, a, a, x) / math.sqrt(jacobi_h(n, a))


def unit(n):
    """Ptilde_n as a packed row of parity n % 2 (degrees n % 2, n % 2 + 2, ..., n)."""
    e = np.zeros(n // 2 + 1)
    e[-1] = 1.0
    return e


def eval_halves(a, x, *halves):
    """jacobi_series_eval summed over packed (row, parity) halves: a series of both parities."""
    return sum(jacobi_series_eval(row, a, x, parity) for row, parity in halves)


def split(full):
    """A full-degree series as its two packed (row, parity) halves."""
    return (full[0::2], 0), (full[1::2], 1)


def test_jacobi_seeds():
    a = 0.7
    assert jacobi_series_eval(unit(0), a, 0.4, 0) == ptilde_scipy(0, a, 0.4)
    assert_allclose(jacobi_series_eval(unit(1), a, 0.4, 1),
                    (a + 1) * 0.4 / math.sqrt(jacobi_h(1, a)), rtol=1e-15)


def test_jacobi_h0():
    a = 0.7
    assert_allclose(jacobi_h(0, a), 2 ** (2 * a + 1) * beta(a + 1, a + 1),
                    rtol=1e-14)
    # past alpha = 511.5 the factor 2^(2 alpha + 1) overflows a double
    from mpmath import mp, mpf

    for a in (600.0, 1e4):
        assert jacobi_h(0, a) == total_mass(a)
        with mp.workdps(40):
            exact = mp.sqrt(mp.pi) * mp.gamma(mpf(a) + 1) / mp.gamma(mpf(a) + 1.5)
            assert abs(total_mass(a) - exact) <= 1e-12 * exact


@pytest.mark.parametrize("alpha", [60.0, 80.0, 85.0, 120.0, 171.5, 300.0, 450.0, 600.0,
                                   1e3, 9999.0, 1e6])
def test_total_mass_at_large_alpha_matches_mpmath(alpha):
    # scipy's beta and poch take Gamma ratios from gammaln differences past
    # alpha ~ 85 (poch up to 1e4): 6.8e-13 off at 300; the asymptotic series
    # of (alpha + 1)_(1/2) keeps total_mass to a few ulps
    from mpmath import mp, mpf

    with mp.workdps(40):
        exact = mp.sqrt(mp.pi) * mp.gamma(mpf(alpha) + 1) / mp.gamma(mpf(alpha) + 1.5)
        assert abs(total_mass(alpha) - exact) <= 4e-16 * exact


def test_total_mass_below_80_is_the_beta_form():
    for a in (-0.99, -0.5, 0.0, 0.7, 60.0, 80.0):
        assert total_mass(a) == 2.0 ** (2 * a + 1) * float(beta(a + 1.0, a + 1.0))


def test_jacobi_h_array_matches_scalar():
    # degree 0 keeps the Beta form, finite at alpha = -1/2 where the
    # general form is 0/0
    for a in (-0.5, 0.7):
        ks = np.arange(30)
        h = jacobi_h(ks, a)
        assert np.all(np.isfinite(h))
        assert_allclose(h, [jacobi_h(int(k), a) for k in ks], rtol=0, atol=0)
    assert_allclose(jacobi_h(0, -0.5), math.pi, rtol=1e-15)


def test_jacobi_against_scipy():
    xs = np.linspace(-1, 1, 17)
    for (a, n) in ((0.5, 7), (1.2, 12)):
        assert_allclose(jacobi_series_eval(unit(n), a, xs, n % 2), ptilde_scipy(n, a, xs),
                        rtol=1e-12, atol=1e-12)


def test_jacobi_orthogonality_under_quadrature():
    a = 0.7
    rule = g.gauss_jacobi(64, a)
    p3 = jacobi_series_eval(unit(3), a, rule.nodes, 1)
    p5 = jacobi_series_eval(unit(5), a, rule.nodes, 1)
    assert abs(np.dot(rule.weights, p3 * p5)) <= 1e-13
    table = np.array([eval_halves(a, rule.nodes, *split(row)) for row in np.eye(13)])
    gram = (table * rule.weights) @ table.T
    assert np.max(np.abs(gram - np.eye(13))) <= 1e-12


def test_jacobi_deriv_identity():
    # derivative series in the shifted basis, cross-checked by central
    # differences of the series itself
    a, n = 0.6, 9
    d1 = jacobi_series_deriv_coeffs(unit(n), a, 1)
    for x in (-0.8, -0.2, 0.35, 0.9):
        h = 1e-6
        fd = (jacobi_series_eval(unit(n), a, x + h, 1)
              - jacobi_series_eval(unit(n), a, x - h, 1)) / (2 * h)
        assert_allclose(jacobi_series_eval(d1, a + 1.0, x, 0), fd, rtol=1e-8)


def test_clenshaw_matches_direct():
    a = 1.1
    coeffs = np.array([0.3, -0.2, 0.0, 1.7, 0.05, -0.6])
    xs = np.linspace(-1, 1, 11)
    direct = sum(c * ptilde_scipy(k, a, xs) for k, c in enumerate(coeffs))
    assert_allclose(eval_halves(a, xs, *split(coeffs)), direct, rtol=1e-13, atol=1e-13)


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(alpha=st.floats(min_value=-1.0, max_value=5.0, exclude_min=True, exclude_max=True),
       n_terms=st.integers(min_value=1, max_value=400),
       rows=st.integers(min_value=1, max_value=4),
       parity=st.sampled_from(["even", "odd", "mixed"]),
       decay=st.floats(min_value=2.0, max_value=16.0),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_clenshaw_matches_x_recurrence(alpha, n_terms, rows, parity, decay, seed):
    # coefficients fall by 10^-decay over the series, as a smooth function's
    # do; with O(1) coefficients throughout, both forms are off a 40-digit sum
    # by 2e-12 to 3e-12 max|value| at x = -1 (alpha = -0.25, 330 odd terms)
    envelope = 10.0 ** (-decay * np.arange(n_terms) / n_terms)
    coeffs = np.random.default_rng(seed).standard_normal((rows, n_terms)) * envelope
    if parity != "mixed":
        coeffs[:, 1 if parity == "even" else 0::2] = 0.0
    xs = np.concatenate([np.linspace(-1.0, 1.0, 101), [1e-3, -1e-2]])
    # a one-parity series is its packed row, a mixed one the sum of both halves
    keep = {"even": [0], "odd": [1], "mixed": [0, 1]}[parity]
    new = np.array([eval_halves(alpha, xs, *[split(row)[p] for p in keep]) for row in coeffs])
    old = clenshaw_x(coeffs, alpha, xs)
    assert np.max(np.abs(new - old)) <= 1e-12 * np.max(np.abs(old))


@pytest.mark.parametrize("alpha, c, n", [(0.5, 2000.0, 4), (0.5, 2000.0, 5),
                                         (1.4, 400.0, 830), (-0.5, 60.0, 121),
                                         (-0.9, 5.0, 12), (-0.99, 30.0, 40),
                                         (60.0, 300.0, 10), (100.0, 50.0, 7),
                                         (1.45, 3000.0, 5)])
def test_clenshaw_psi_n_matches_mpmath(alpha, c, n):
    # psi_n rows of up to 989 terms.  x = 0 ends the t-interval, where the
    # rounding of the parity-split recurrence grows with the number of steps,
    # so points crowd there.  The alpha extremes are where the rescaling g of
    # the recurrence is largest; (1.45, 3000, 5) is the sturm workload's
    # longest few-mode series.  At x = +-1 psi_830 (alpha = 1.4) is 98,941 and
    # the x-recurrence too is off by 4.6e-12 of it, so the ends have 1e-11.
    # At alpha = 60 near x = +-1 terms of ~1e24 cancel to a value set by the
    # coefficients' rounding, so whether Clenshaw's error meets the bound
    # there depends on the basis the coefficients come from; that case keeps
    # the 380-term basis it has always been checked on.
    n_trunc = 380 if alpha == 60.0 else None
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n, n_trunc=n_trunc)
    coeffs = spec.eigenfunction(n).coeffs
    inner = np.array([0.0, 2.3e-4, 1e-3, 5.5e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.45, 0.6,
                      0.75, 0.9, 0.97, 0.999, -0.37, -0.999])
    xs = np.concatenate([inner, [1.0, -1.0]])
    exact = jacobi_series_mpmath(coeffs, alpha, xs)
    err = np.abs(jacobi_series_eval(spec.coeffs[n], alpha, xs, n % 2) - exact)
    assert np.max(err[:inner.size]) <= 1e-12 * np.max(np.abs(exact[:inner.size]))
    assert np.max(err[inner.size:]) <= 1e-11 * np.max(np.abs(exact))


def test_clenshaw_batched_rows_bit_identical():
    # the derivative coefficients of a stack are those of each row; the ratio
    # route takes psi_(n+1)' of every pair from one call
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal((2, 3, 40))
    for a in (-0.5, 0.6):
        for parity in (0, 1):
            deriv = jacobi_series_deriv_coeffs(coeffs, a, parity)
            for i in range(2):
                for j in range(3):
                    assert np.array_equal(deriv[i, j],
                                          jacobi_series_deriv_coeffs(coeffs[i, j], a, parity))


def test_packed_derivative_map_matches_full_degree_map():
    # the packed map forms each coefficient as the full-degree map
    # c[..., 1:] * sqrt(k (k + 2 alpha + 1)), k = 1..N-1, does on its parity
    rng = np.random.default_rng(5)
    for a in (-0.5, 0.6):
        for shape in ((17,), (3, 17), (2, 3, 16)):
            rows = rng.standard_normal(shape)
            for parity in (0, 1):
                full = np.zeros(shape[:-1] + (2 * shape[-1],))
                full[..., parity::2] = rows
                k = np.arange(1.0, full.shape[-1])
                want = (full[..., 1:] * np.sqrt(k * (k + 2 * a + 1)))[..., 1 - parity::2]
                got = jacobi_series_deriv_coeffs(rows, a, parity)
                assert got.shape == want.shape and np.array_equal(got, want)


def test_clenshaw_refuses_a_stack():
    # read as one series, a stack would be flattened into a wrong answer
    for coeffs in (np.ones((2, 5)), np.ones((1, 5)), np.float64(1.0)):
        for x in (0.3, np.linspace(-1, 1, 5)):
            with pytest.raises(ValueError, match="one series"):
                jacobi_series_eval(coeffs, 0.5, x, 0)


def test_clenshaw_refuses_a_parity_other_than_0_or_1():
    for parity in (-1, 2, 0.5):
        with pytest.raises(ValueError, match="parity"):
            jacobi_series_eval(np.ones(5), 0.5, 0.3, parity)


@pytest.mark.parametrize("alpha", [-0.9, -0.5, 0.0, 0.7, 1.4])
def test_clenshaw_one_point_bit_identical(alpha):
    # a scalar x runs the one buffer pass on one point, so it gives the same
    # double as in a longer array; a separate one-point loop must not come back.
    # A series is a list of packed (row, parity) halves, two for a mix of
    # psi_n of both parities
    def deriv(halves):
        return [(jacobi_series_deriv_coeffs(row, alpha, p), 1 - p) for row, p in halves]

    series = []
    for c in (0.0, 5.0, 300.0, 3000.0):
        co = g.chi_spectrum(g.ProblemParams(alpha, c), 9).coeffs
        for mix in ([(co[8], 0)], [(co[9], 1)], [(co[8], 0), (co[9], 1)],
                    [(co[0], 0), (-0.5 * co[1], 1)]):
            series += [(mix, alpha), (deriv(mix), alpha + 1.0)]
    for halves, a in series:
        for x in (-1.0, -0.77, 0.0, 1e-7, 0.3, 1.0):
            one = eval_halves(a, x, *halves)
            assert type(one) is float
            assert one == eval_halves(a, np.array([x, 0.5]), *halves)[0]


@pytest.mark.parametrize("alpha", [-0.99, -0.5, 0.0, 0.5, 1.4, 150.0, 600.0])
def test_ptilde_at_one_matches_mpmath(alpha):
    # the closed form Ptilde_k(1)^2 = (2k + 2a + 1) Gamma(k + 2a + 1)
    # / (2^(2a+1) Gamma(a+1)^2 k!) at 40 digits, for every k < 1,000 whose
    # value is a double (k < 884 at alpha = 600); past that the table is inf
    from mpmath import mp, mpf

    with np.errstate(over="ignore"):
        table = _ptilde_at_one(alpha, 1000)
    assert table.shape == (1000,)
    with mp.workdps(40):
        a = mpf(alpha)
        den = 2 ** (2 * a + 1) * mp.gamma(a + 1) ** 2
        for k in range(1000):
            num = mp.gamma(2 * a + 2) if k == 0 else (2 * k + 2 * a + 1) * mp.gamma(k + 2 * a + 1)
            ref = mp.sqrt(num / (den * mp.factorial(k)))
            if ref > mpf(1.7976931348623157e308):
                assert np.all(np.isinf(table[k:]))
                break
            assert abs(table[k] - ref) <= 2e-14 * ref, k
    assert _ptilde_at_one(alpha, 1)[0] == table[0] and _ptilde_at_one(alpha, 0).size == 0


def test_clenshaw_zero_tail_bit_identical():
    rng = np.random.default_rng(11)
    xs = np.linspace(-1, 1, 41)
    for a in (-0.5, 0.6):
        # one series, with an interior zero column kept, read as either parity
        short = rng.standard_normal(25)
        short[10] = 0.0
        padded = np.concatenate([short, np.zeros(30)])
        for p in (0, 1):
            assert np.array_equal(jacobi_series_eval(padded, a, xs, p),
                                  jacobi_series_eval(short, a, xs, p))
            assert jacobi_series_eval(padded, a, 0.3, p) == jacobi_series_eval(short, a, 0.3, p)
            # an all-zero series
            assert np.array_equal(jacobi_series_eval(np.zeros(30), a, xs, p), np.zeros_like(xs))
            assert jacobi_series_eval(np.zeros(30), a, 0.5, p) == 0.0


def test_gauss_jacobi_one_node():
    rule = g.gauss_jacobi(1, 0.0)
    assert_allclose(rule.nodes, [0.0], atol=1e-15)
    assert_allclose(rule.weights, [2.0], rtol=1e-15)


def test_gauss_jacobi_total_mass():
    rule = g.gauss_jacobi(20, 1.2)
    assert_allclose(rule.weights.sum(), 2 ** 3.4 * beta(2.2, 2.2), rtol=1e-14)


@pytest.mark.parametrize("n_nodes, alpha, zeros", [(1264, 100.0, 2), (1572, 150.0, 12)])
def test_gauss_jacobi_keeps_zero_end_weights(n_nodes, alpha, zeros):
    # end weights far below the smallest nonzero one (7.8e-61 at alpha = 150)
    # come out exactly 0; such rules were refused, and with them the default
    # Nystrom rule of gpswf spectrum at (100, 1200)
    rule = g.gauss_jacobi(n_nodes, alpha)
    assert np.count_nonzero(rule.weights == 0) == zeros
    assert np.all(np.diff(rule.nodes) > 0) and np.all(rule.weights >= 0)
    assert abs(rule.weights.sum() - total_mass(alpha)) <= 1e-14 * total_mass(alpha)


def test_gauss_jacobi_monomial_exactness():
    # int x^{2j} (1-x^2)^a dx = B(j+1/2, a+1); odd moments vanish
    for n_nodes, alpha in ((2, 0.3), (3, 0.0), (4, -0.7), (8, 0.5), (12, 1.4)):
        rule = g.gauss_jacobi(n_nodes, alpha)
        for deg in range(2 * n_nodes):
            got = np.dot(rule.weights, rule.nodes ** deg)
            if deg % 2 == 1:
                assert abs(got) <= 1e-13
            else:
                expect = beta(deg / 2 + 0.5, alpha + 1.0)
                assert_allclose(got, expect, rtol=1e-12)


def test_gauss_jacobi_x4_example():
    rule = g.gauss_jacobi(3, 0.0)
    assert_allclose(np.dot(rule.weights, rule.nodes ** 4), 0.4, rtol=1e-13)


def test_gauss_jacobi_against_scipy():
    from scipy.special import roots_jacobi

    nodes, weights = roots_jacobi(24, 0.8, 0.8)
    rule = g.gauss_jacobi(24, 0.8)
    assert_allclose(rule.nodes, nodes, atol=1e-13)
    assert_allclose(rule.weights, weights, rtol=1e-11)


@pytest.mark.parametrize("n_nodes", [65, 161])
def test_gauss_jacobi_matches_mpmath(n_nodes):
    for alpha in (-0.99, 0.5, 1.4):
        rule = g.gauss_jacobi(n_nodes, alpha)
        half = n_nodes // 2
        nodes, weights = gauss_jacobi_mpmath_oracle(n_nodes, alpha, rule.nodes[half:])
        assert np.max(np.abs(rule.nodes[half:] - nodes)) <= 1e-15
        assert np.max(np.abs(rule.weights[half:] - weights) / weights) <= 5e-12


def test_gauss_jacobi_matches_golub_welsch():
    # the gap in the weights is the full-size Golub-Welsch end-weight error
    for n_nodes in (480, 481, 720):
        for alpha in (-0.99, 0.5, 1.4):
            rule = g.gauss_jacobi(n_nodes, alpha)
            nodes, weights = golub_welsch_oracle(n_nodes, alpha)
            assert np.max(np.abs(rule.nodes - nodes)) <= 3e-15
            sel = weights >= 1e-10 * weights.sum()
            assert np.max(np.abs(rule.weights[sel] - weights[sel]) / weights[sel]) <= 3e-10


def test_gauss_jacobi_mirror_symmetric_with_exact_mass():
    for n_nodes in (1, 2, 3, 4, 5, 64, 65, 480, 481):
        for alpha in (-0.99, -0.5, 0.0, 1.4, 10.0):
            rule = g.gauss_jacobi(n_nodes, alpha)
            assert np.array_equal(rule.nodes, -rule.nodes[::-1])
            assert np.array_equal(rule.weights, rule.weights[::-1])
            mass = total_mass(alpha)
            assert abs(rule.weights.sum() - mass) <= 1e-14 * mass


@pytest.mark.parametrize("n_nodes", [1, 2, 3])
def test_gauss_jacobi_with_one_row_blocks(n_nodes):
    # N = 1 and 2 have a one-row even block (dstevd's quick exit), N = 2 and 3
    # a one-row odd block (its value read directly)
    for alpha in (-0.99, -0.5, 0.0, 0.5, 1.4, 10.0):
        rule = g.gauss_jacobi(n_nodes, alpha)
        mass = total_mass(alpha)
        if n_nodes == 1:
            assert rule.nodes.tolist() == [0.0] and rule.weights.tolist() == [mass]
        if n_nodes == 2:
            assert_allclose(rule.nodes, [-1, 1] / np.sqrt(3.0 + 2.0 * alpha), rtol=1e-15)
            assert_allclose(rule.weights, [mass / 2, mass / 2], rtol=1e-15)
        for deg in range(0, 2 * n_nodes, 2):
            got = np.dot(rule.weights, rule.nodes ** deg)
            assert_allclose(got, beta(deg / 2 + 0.5, alpha + 1.0), rtol=1e-13)


def test_lapack_refuses_non_finite_input_and_reports_failure():
    from scipy.linalg import LinAlgError

    from gpswf import specfun

    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        specfun._lapack("dstevd", np.array([1.0, np.nan]), np.array([0.5]))
    # an upper-bidiagonal system with a zero pivot: dgbsv's info is 2
    with pytest.raises(LinAlgError, match="dgbsv"):
        specfun._lapack("dgbsv", 0, 1, np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 1)))


def test_gauss_jacobi_solves_half_size_blocks(monkeypatch):
    from gpswf import specfun

    calls, lapack = [], specfun._lapack

    def recorded(name, d, *args, **kwargs):
        calls.append((name, len(d)))
        return lapack(name, d, *args, **kwargs)

    monkeypatch.setattr(specfun, "_lapack", recorded)
    for n_nodes in (720, 721):
        calls.clear()
        specfun.gauss_jacobi(n_nodes, 0.5)
        # the even block's vectors, the odd block's values
        assert [name for name, _ in calls] == ["dstevd", "dpteqr"]
        assert max(rows for _, rows in calls) == (n_nodes + 1) // 2


# ---------------------------------------------------------------------------
# eta, envelope constants, weight/modulus functions
# ---------------------------------------------------------------------------

def weight_modulus(cst, x):
    """(E_alpha(x), M_alpha(x)) as 1-D arrays, from the Bessel form's own J and Y."""
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    return _weight_modulus_from(cst, xs, *_bessel_jy(cst, xs))


def test_eta_zero():
    assert eta(0.8, 0.0) == 0.0


def test_eta_moment_identity():
    # closed form equals int_0^x t J_a(t)^2 dt - x/pi
    for alpha in (0.2, 0.8, 1.4):
        for x in (0.7, 1.9, 3.0, 6.5):
            moment = quad(lambda t: t * jv(alpha, t) ** 2, 0.0, x,
                          limit=200, epsabs=1e-13)[0]
            assert abs(eta(alpha, x) - (moment - x / math.pi)) <= 1e-10


def test_eta_sup_bound():
    xs = np.linspace(0.0, 120.0, 6000)
    for alpha in (0.0, 0.8, 1.6):
        cap = m_cap(alpha)
        assert np.max(np.abs(eta(alpha, xs))) <= cap


def test_envelope_constants_values():
    assert_allclose(g.envelope_constants(0.0).m_alpha, 2 / math.pi, rtol=1e-15)
    assert_allclose(c_alpha(0.25), math.sqrt(2 / math.pi), rtol=1e-15)
    cst = g.envelope_constants(1.0)
    j1, y1 = jv(1.0, 1.0), yv(1.0, 1.0)
    expect = max(-2 * j1 * y1 + 4 / math.pi, j1 * j1 + y1 * y1)
    assert_allclose(cst.m_alpha, expect, rtol=1e-13)
    assert cst.x_alpha > 1.0  # X_alpha > alpha for alpha >= 1/2
    # J + Y > 0 from the scan's start on: no branch switch
    assert g.envelope_constants(-0.5).x_alpha == g.envelope_constants(-0.25).x_alpha == 0.0


@pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5, 1.0, 1.4, 3.0, 10.0, 9000.0, 12000.0])
def test_x_alpha_matches_mpmath_root(alpha):
    from mpmath import mp

    def j_plus_y(t):
        if alpha < 1000:
            return mp.besselj(alpha, t) + mp.bessely(alpha, t)
        # mpmath's series does not converge at such orders; the forward
        # recurrence from orders 0 and 1 neither grows nor damps errors for
        # orders below t, and 60 digits leave 40
        with mp.workdps(60):
            j0, j1, y0, y1 = mp.besselj(0, t), mp.besselj(1, t), mp.bessely(0, t), mp.bessely(1, t)
            for k in range(1, int(alpha)):
                j0, j1 = j1, 2 * k / t * j1 - j0
                y0, y1 = y1, 2 * k / t * y1 - y0
            return +(j1 + y1)

    x_a = g.envelope_constants(alpha).x_alpha
    with mp.workdps(40):
        root = mp.findroot(j_plus_y, mp.mpf(x_a))
        assert abs(x_a - root) <= 1e-14 * root
    # the first root: J + Y < 0 from the scan's start up to it
    xs = np.linspace(max(1e-3, alpha if alpha >= 0.5 else 1e-3), x_a, 2001)[:-1]
    assert np.all(jv(alpha, xs) + yv(alpha, xs) < 0)


def test_kernel_sup_bound_scan():
    # sup_x x M_a(x)^2 <= m_alpha, checked on a fine grid
    xs = np.linspace(1e-3, 60.0, 8000)
    for alpha in (0.0, 0.3, 1.0):
        cst = g.envelope_constants(alpha)
        _, m = weight_modulus(cst, xs)
        assert np.max(xs * m * m) <= cst.m_alpha + 1e-10


def test_weight_modulus_branches():
    alpha = 0.3
    cst = g.envelope_constants(alpha)
    e_big, m_big = weight_modulus(cst, cst.x_alpha + 2.0)
    assert e_big == 1.0
    x = cst.x_alpha + 2.0
    assert_allclose(m_big, math.hypot(jv(alpha, x), yv(alpha, x)),
                    rtol=1e-14)
    # continuity at X_alpha: Y = -J there, so both M branches agree
    m_lo = weight_modulus(cst, cst.x_alpha * (1 - 1e-10))[1]
    m_hi = weight_modulus(cst, cst.x_alpha * (1 + 1e-10))[1]
    assert abs(m_lo - m_hi) <= 1e-8
    # below X_alpha, M/E = sqrt(2) J and x M^2 <= 2/pi
    x_small = cst.x_alpha / 2
    e_s, m_s = weight_modulus(cst, x_small)
    assert_allclose(m_s / e_s, math.sqrt(2) * jv(alpha, x_small), rtol=1e-12)
    assert x_small * m_s ** 2 <= 2 / math.pi


def test_weight_modulus_domain():
    with pytest.raises(ValueError):
        weight_modulus(g.envelope_constants(0.3), 0.0)


def test_weight_modulus_where_y_over_j_overflows():
    # E = 7.0e278 is a double although Y / J = -4.9e557 is not
    from mpmath import mp, besselj, bessely

    with mp.workdps(40):
        j, y = besselj(60, mp.mpf("1e-3")), bessely(60, mp.mpf("1e-3"))
        e_ref, m_ref = float(mp.sqrt(-y / j)), float(mp.sqrt(-2 * y * j))
    e, m = weight_modulus(g.envelope_constants(60.0), 1e-3)
    assert_allclose(e, e_ref, rtol=1e-13)
    assert_allclose(m, m_ref, rtol=1e-13)


@pytest.mark.parametrize("alpha, x", [(60.0, 1e-5), (200.0, 1.0), (5.0, 1e-80)])
def test_weight_modulus_refuses_underflowed_j(alpha, x):
    # J_60(1e-5) = 1e-400 underflows to 0 and Y to -inf: no finite E or M
    with pytest.raises(ValueError, match=rf"alpha = {alpha}, x = {x!r}"):
        weight_modulus(g.envelope_constants(alpha), x)


# _bessel_jy's reference grid: z from 1e-4 to 1,200, dense near the threshold
_JY_GRID = np.unique(np.concatenate([np.geomspace(1e-4, 1200.0, 60), np.linspace(0.5, 40.0, 40)]))


@pytest.mark.parametrize("alpha", [-0.5, 0.0, 0.3, 0.77, 1.4, 5.0, 30.0])
def test_bessel_jy_matches_mpmath(alpha):
    from mpmath import mp, besselj, bessely

    cst = g.envelope_constants(alpha)
    j, y = _bessel_jy(cst, _JY_GRID)
    with mp.workdps(40):
        ref_j = np.array([float(besselj(alpha, mp.mpf(z))) for z in _JY_GRID])
        ref_y = np.array([float(bessely(alpha, mp.mpf(z))) for z in _JY_GRID])
    # above max(X_alpha, 1), J and Y are Re and Im of one Hankel function:
    # absolute error against the modulus M = |H1|
    far = _JY_GRID > max(cst.x_alpha, 1.0)
    modulus = np.hypot(ref_j, ref_y)[far]
    far_tol = 2e-14 if alpha >= 30 else 4e-15
    assert np.max(np.abs(j[far] - ref_j[far]) / modulus) <= far_tol
    assert np.max(np.abs(y[far] - ref_y[far]) / modulus) <= far_tol
    # at or below it |Y| >> |J|, and J keeps its relative accuracy (jv)
    near = ~far
    assert near.sum() >= 30
    assert_allclose(j[near], ref_j[near], rtol=1e-13 if alpha >= 30 else 2e-14, atol=0)
    assert_allclose(y[near], ref_y[near], rtol=1e-13 if alpha >= 30 else 2e-14, atol=0)


@pytest.mark.parametrize("alpha", [-0.5, 0.5])
def test_bessel_jy_half_order_closed_forms(alpha):
    # J_(1/2) = r sin z, Y_(1/2) = -r cos z, J_(-1/2) = r cos z, Y_(-1/2) = r sin z
    z = _JY_GRID
    r = np.sqrt(2.0 / (math.pi * z))
    j, y = _bessel_jy(g.envelope_constants(alpha), z)
    if alpha > 0:
        ref_j, ref_y = r * np.sin(z), -r * np.cos(z)
    else:
        ref_j, ref_y = r * np.cos(z), r * np.sin(z)
    # r is the modulus, sqrt(J^2 + Y^2)
    assert np.max(np.abs(j - ref_j) / r) <= 4e-15
    assert np.max(np.abs(y - ref_y) / r) <= 4e-15


@pytest.mark.parametrize("alpha, x_alpha", [
    (0.5, 0.7853981633974478), (1.0, 1.32889614871749), (1.4, 1.757279201934485),
    (5.0, 5.514427949450816), (30.0, 30.911370617883165), (200.0, 201.70343769228003),
    (9000.0, 9006.044510683876)])
def test_x_alpha_pinned(alpha, x_alpha):
    # the root search reads Y as Im H1, which equals yv bit for bit at
    # alpha >= 0 wherever yv is finite: the doubles of the jv + yv search
    assert g.envelope_constants(alpha).x_alpha == x_alpha

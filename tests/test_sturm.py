"""Sturm-Liouville solver tests: brackets, parity, residuals, oracles."""

import math
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.linalg import eigh_tridiagonal
from scipy.special import eval_jacobi

import explicit_route
import gpswf as g
from explicit_route import jacobi_h
from gpswf import sturm
from gpswf.specfun import jacobi_series_deriv_coeffs, jacobi_series_eval, sym_offdiag, total_mass
from gpswf.sturm import TruncationError, ode_residual


def dense_oracle_chis(alpha, c, n_trunc, n_max):
    """Independent dense pentadiagonal eigensolver (no parity split)."""
    b = sym_offdiag(alpha, n_trunc + 1)
    k = np.arange(n_trunc, dtype=float)
    mat = np.diag(k * (k + 2 * alpha + 1) + c * c * (b[:n_trunc] ** 2 + b[1:n_trunc + 1] ** 2))
    for i in range(n_trunc - 2):
        mat[i, i + 2] = mat[i + 2, i] = c * c * b[i + 1] * b[i + 2]
    return np.linalg.eigvalsh(mat)[: n_max + 1]


def test_c_zero_diagonal():
    alpha = 0.7
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=0.0), 8)
    ns = np.arange(9)
    assert_allclose(spec.chis, ns * (ns + 2 * alpha + 1), rtol=0, atol=0)
    xs = np.linspace(-1, 1, 13)
    for n in range(9):
        psi = spec.eigenfunction(n).value(xs)
        ptilde = eval_jacobi(n, alpha, alpha, xs) / math.sqrt(jacobi_h(n, alpha))
        assert_allclose(psi, ptilde, atol=1e-14)
        # coefficient vector is the coordinate vector
        e_n = np.zeros(spec.n_trunc)
        e_n[n] = 1.0
        assert_allclose(spec.coeffs[n], e_n, atol=0)


def test_chi_bracket():
    for alpha in (0.0, 0.5, 1.4):
        for c in (1.0, 5.0):
            spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 30)
            ns = np.arange(31)
            lo = ns * (ns + 2 * alpha + 1)
            assert np.all(spec.chis >= lo)
            assert np.all(spec.chis <= lo + c * c)


def test_chi_specific_bracket_example():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), 4)
    lo = 4 * (4 + 2 * 0.5 + 1)
    assert lo <= spec.chi(4) <= lo + 4.0


def test_strict_ordering():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.3, c=4.0), 40)
    assert np.all(np.diff(spec.chis) > 0)


def test_dense_oracle_at_doubled_truncation():
    alpha, c = 0.0, 1.0
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 0)
    oracle = dense_oracle_chis(alpha, c, 2 * spec.n_trunc, 0)
    assert abs(spec.chi(0) - oracle[0]) <= 1e-9
    # and a broader sweep for good measure
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.8, c=3.0), 10)
    oracle = dense_oracle_chis(0.8, 3.0, 2 * spec.n_trunc, 10)
    assert_allclose(spec.chis, oracle, rtol=1e-12, atol=1e-10)


def test_normalization_and_orthogonality():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), 6)
    # coefficient vectors are unit vectors by construction
    assert_allclose(np.sum(spec.coeffs ** 2, axis=1), np.ones(7), rtol=1e-13)
    # quadrature cross-check of the weighted L2 normalization
    rule = g.gauss_jacobi(2 * spec.n_trunc, 0.5)
    table = np.array([spec.eigenfunction(n).value(rule.nodes) for n in range(7)])
    gram = (table * rule.weights) @ table.T
    assert np.max(np.abs(gram - np.eye(7))) <= 1e-10


def test_normalization_past_the_power_of_two_overflow():
    # alpha = 600: 2^(2 alpha + 1) in the weight's total mass is past the
    # largest double, so the mass takes its Gamma-ratio form
    spec = g.chi_spectrum(g.ProblemParams(alpha=600.0, c=1.0), 4)
    rule = g.gauss_jacobi(60, 600.0)
    for n in range(5):
        psi = spec.eigenfunction(n).value(rule.nodes)
        assert abs(np.dot(rule.weights, psi * psi) - 1.0) <= 1e-13


def test_parity():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), 7)
    xs = np.linspace(0.0, 1.0, 21)
    for n in range(8):
        f = spec.eigenfunction(n)
        assert_allclose(f.value(-xs), (-1) ** n * f.value(xs), atol=1e-14)
        # opposite-parity coefficients vanish identically
        opposite = spec.coeffs[n, (1 - n % 2)::2]
        assert np.all(opposite == 0.0)


def test_sign_convention():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.9, c=6.0), 12)
    for n in range(13):
        assert spec.eigenfunction(n).value(1.0) > 0


def test_sign_rule_where_endpoint_value_is_rounding():
    # at c = 50, psi_n(1) is ~1e-15 for the first modes, so the sign is fixed
    # at 0: (-1)^(n//2) psi_n(0) > 0 (even n), (-1)^(n//2) psi_n'(0) > 0 (odd n)
    params = g.ProblemParams(alpha=0.5, c=50.0)
    for n_max in (3, 5):
        spec = g.chi_spectrum(params, n_max)
        assert spec.eigenfunction(0).value(0.0) > 0
        for n in range(n_max + 1):
            f = spec.eigenfunction(n)
            at_zero = f.value(0.0) if n % 2 == 0 else f.derivative(0.0)
            assert (-1) ** (n // 2) * at_zero > 0, (n_max, n, at_zero)


@pytest.mark.parametrize("alpha", [-0.9, 0.0, 1.4, 60.0])
def test_sign_reference_factor(alpha):
    # sqrt(h_0) Ptilde_2m(0) and sqrt(h_0') Ptilde_2m+1'(0), h_0' the alpha + 1 mass
    rows = 20
    basis = np.eye(2 * rows)
    even = np.array([jacobi_series_eval(row, alpha, 0.0) for row in basis[0::2]])
    odd = np.array([jacobi_series_eval(jacobi_series_deriv_coeffs(row, alpha), alpha + 1.0, 0.0)
                    for row in basis[1::2]])
    b = sym_offdiag(alpha, 2 * rows)
    assert_allclose(sturm._sign_reference(alpha, b, 0, rows),
                    math.sqrt(total_mass(alpha)) * even, rtol=1e-13, atol=0)
    assert_allclose(sturm._sign_reference(alpha, b, 1, rows),
                    math.sqrt(total_mass(alpha + 1.0)) * odd, rtol=1e-13, atol=0)


@pytest.mark.parametrize("alpha, c", [(0.5, 3000.0), (1.3, 800.0), (-0.5, 600.0)])
def test_few_mode_solve_matches_many_mode_solve(monkeypatch, alpha, c):
    # a selected solve starts with bisection (dstebz), a full one is dstevd
    calls, lapack, kind = [], sturm._lapack, {"dstebz": "i", "dstevd": "a"}

    def recording(name, *args, **kwargs):
        if name in kind:
            calls.append(kind[name])
        return lapack(name, *args, **kwargs)

    monkeypatch.setattr(sturm, "_lapack", recording)
    params = g.ProblemParams(alpha=alpha, c=c)
    few = g.chi_spectrum(params, 5)
    assert calls == ["i", "i"]          # both parity blocks solve 3 modes only
    many = g.chi_spectrum(params, int(0.2 * c))
    assert calls[2:] == ["a", "a"]
    assert_allclose(few.chis, many.chis[:6], rtol=1e-11, atol=0)
    xs = np.linspace(-1, 1, 801)
    psi_few = np.array([jacobi_series_eval(row, alpha, xs) for row in few.coeffs])
    psi_many = np.array([jacobi_series_eval(row, alpha, xs) for row in many.coeffs[:6]])
    sup = np.max(np.abs(psi_many), axis=1, keepdims=True)
    assert np.all(np.abs(psi_few - psi_many) <= 1e-11 * sup)


@pytest.mark.parametrize("alpha, c, lo", [(0.5, 10.0, 9), (1.3, 400.0, 20), (-0.5, 0.5, 0)])
def test_window_vectors_match_chi_spectrum_up_to_sign(alpha, c, lo):
    # the explicit route's window_vectors solves each 4-mode window alone, by
    # bisection and inverse iteration; chi_spectrum does so only at c = 400,
    # where the window is small against its ~250-row block
    params = g.ProblemParams(alpha=alpha, c=c)
    hi = lo + 3
    n_max = 2 * hi + 1
    spec = g.chi_spectrum(params, n_max)
    vecs = explicit_route.window_vectors(alpha, [c], np.arange(2 * lo, n_max + 1))
    for parity in (0, 1):
        v = vecs[parity][0].T
        assert v.shape == (len(range(parity, spec.n_trunc, 2)), 4)
        modes = 2 * np.arange(lo, hi + 1) + parity
        want = spec.coeffs[modes, parity::2].T
        signs = np.sign(np.sum(v * want, axis=0))
        assert np.max(np.abs(v * signs - want)) <= 1e-12


def sturm_blocks(alpha, c, n_trunc):
    """The even and odd Sturm blocks (d, e) of an n_trunc-term basis."""
    b = sym_offdiag(alpha, n_trunc + 1)
    for parity in (0, 1):
        idx = np.arange(parity, n_trunc, 2)
        d = idx * (idx + 2 * alpha + 1) + c * c * (b[idx] ** 2 + b[idx + 1] ** 2)
        e = c * c * b[idx[:-1] + 1] * b[idx[:-1] + 2]
        yield d, e


STURM_BLOCK_CASES = [(0.5, 10.0, 60), (-0.9, 400.0, 1100), (3.0, 1e-3, 40)]


@pytest.mark.parametrize("alpha, c, n_trunc", STURM_BLOCK_CASES)
def test_selected_solve_bit_identical_to_eigh_tridiagonal(alpha, c, n_trunc):
    for d, e in sturm_blocks(alpha, c, n_trunc):
        for hi in (0, 5, d.size // 2 + 3, d.size - 1):
            want = eigh_tridiagonal(d, e, select="i", select_range=(0, hi))
            got = sturm._selected(d, e, hi)
            assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("alpha, c, n_trunc", STURM_BLOCK_CASES)
def test_full_solve_bit_identical_to_eigh_tridiagonal(alpha, c, n_trunc):
    for d, e in sturm_blocks(alpha, c, n_trunc):
        vals, vecs = eigh_tridiagonal(d, e)
        for hi in (d.size - 1, 5, 0):
            got = sturm._full(d, e, hi)
            assert np.array_equal(got[0], vals[:hi + 1])
            assert np.array_equal(got[1], vecs[:, :hi + 1])
    # one row: eigh_tridiagonal's quick exit, which the LAPACK binding lacks
    got = sturm._full(np.array([2.5]), np.empty(0), 0)
    want = eigh_tridiagonal(np.array([2.5]), np.empty(0))
    assert all(np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("solve", [sturm._full, sturm._selected])
def test_non_finite_block_refused(solve):
    d, e = next(sturm_blocks(0.5, 10.0, 60))
    for block, bad in ((d, np.nan), (e, np.inf)):
        kept, block[3] = block[3], bad
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            solve(d, e, 3)
        block[3] = kept


@pytest.mark.parametrize("modes", [[2, 3, 9, 40], [2, 4]])
def test_window_vectors_keep_the_order_given(modes):
    # an ascending mode list with gaps comes back in its order at every
    # bandwidth, each vector zero-padded to the widest basis
    alpha, cs = 0.5, [3.0, 30.0]
    vecs = explicit_route.window_vectors(alpha, cs, modes)
    modes = np.array(modes)
    n_trunc = sturm.default_truncation(modes.max(), max(cs))
    for parity in (0, 1):
        count = np.count_nonzero(modes % 2 == parity)
        width = len(range(parity, n_trunc, 2)) if count else 0
        assert vecs[parity].shape == (2, count, width)
    for i, c in enumerate(cs):
        spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), int(modes.max()))
        for parity in np.unique(modes % 2):
            own = modes[modes % 2 == parity]
            want = spec.coeffs[own, parity::2]
            v = vecs[parity][i]
            assert not np.any(v[:, want.shape[1]:])
            signs = np.sign(np.sum(v[:, :want.shape[1]] * want, axis=1, keepdims=True))
            assert np.max(np.abs(v[:, :want.shape[1]] * signs - want)) <= 1e-12


def test_q_where_chi_0_is_not_a_normal_double():
    # c counts as 0, and q is 0, wherever chi_0 ~ c^2/(2 alpha + 3) is not a
    # normal double; elsewhere q_0 is its c -> 0 limit 2 alpha + 3
    for alpha in (-0.5, 0.5, 3.0):
        seen = set()
        for c in np.logspace(-163, -150, 40):
            spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=float(c)), 1)
            normal = spec.chis[0] >= sys.float_info.min
            seen.add(normal)
            if normal:
                assert abs(spec.q(0) - (2 * alpha + 3)) <= 1e-12 * (2 * alpha + 3)
            else:
                assert spec.q(0) == 0.0 and spec.q(1) == 0.0
        assert seen == {True, False}


def test_large_c_few_modes():
    alpha, c = 0.5, 1e4
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 5)
    ns = np.arange(6)
    lo = ns * (ns + 2 * alpha + 1)
    assert np.all(spec.chis >= lo) and np.all(spec.chis <= lo + c * c)
    xs = np.linspace(-1, 1, 2001)
    for n in range(6):
        f = spec.eigenfunction(n)
        val, d1, d2 = f.value(xs), f.derivative(xs), f.second_derivative(xs)
        scale = np.max(np.abs((1 - xs * xs) * d2) + np.abs(2 * (alpha + 1) * xs * d1)
                       + np.abs((f.chi - c * c * xs * xs) * val))
        assert np.max(np.abs(ode_residual(f, xs))) <= 1e-8 * scale


def test_truncation_refusal_few_modes():
    # 2 kept modes per 100-row block take the selected solve; it must still refuse
    with pytest.raises(TruncationError):
        g.chi_spectrum(g.ProblemParams(alpha=0.5, c=3000.0), 2, n_trunc=200)


def test_ode_residual_c_zero():
    # chi_n = n (n + 2 alpha + 1) and psi_n = Ptilde_n exactly, so r = 0
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.7, c=0.0), 8)
    xs = np.linspace(-0.95, 0.95, 17)
    for n in range(9):
        res = ode_residual(spec.eigenfunction(n), xs)
        assert np.all(res == 0.0)


def pointwise_ode(f, xs, chi):
    """The ODE's left-hand side from psi, psi' and psi'' at xs, and its largest term."""
    a, c = f.params.alpha, f.params.c
    val, d1, d2 = f.value(xs), f.derivative(xs), f.second_derivative(xs)
    terms = ((1 - xs * xs) * d2, -2 * (a + 1) * xs * d1, (chi - c * c * xs * xs) * val)
    return sum(terms), np.max(sum(np.abs(t) for t in terms))


@pytest.mark.parametrize("alpha, c, n", [
    (1.4587, 2959.8, 0), (1.49, 3000.0, 5), (0.5, 1e4, 5), (1.4, 400.0, 830),
    (-0.9, 50.0, 100), (3.0, 200.0, 300), (0.7, 0.0, 8)])
def test_ode_residual_matches_pointwise_form(alpha, c, n):
    # ode_residual works in coefficient space; this keeps value, derivative
    # and second_derivative checked against the equation they must satisfy
    f = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n).eigenfunction(n)
    xs = np.linspace(-1, 1, 2001)
    want, scale = pointwise_ode(f, xs, f.chi)
    assert np.max(np.abs(ode_residual(f, xs) - want)) <= 1e-9 * scale
    chi = f.chi * (1 + 1e-6)
    want, scale = pointwise_ode(f, xs, chi)
    assert np.max(np.abs(ode_residual(f, xs, chi=chi))) > 1e-8 * scale
    assert np.max(np.abs(ode_residual(f, xs, chi=chi) - want)) <= 1e-9 * scale


def test_ode_residual_is_one_clenshaw_pass(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return jacobi_series_eval(*args)

    monkeypatch.setattr(sturm, "jacobi_series_eval", counting)
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=30.0), 7)
    for n in (6, 7):
        calls.clear()
        ode_residual(spec.eigenfunction(n), np.linspace(-1, 1, 101))
        assert len(calls) == 1


def test_ode_residual_detects_perturbed_chi():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), 3)
    f = spec.eigenfunction(3)
    good = abs(ode_residual(f, 0.37))
    bad = abs(ode_residual(f, 0.37, chi=spec.chi(3) + 1e-3))
    assert good <= 1e-8 * spec.chi(3)
    assert bad > 100 * max(good, 1e-15)


def test_ode_residual_grid():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), 5)
    f = spec.eigenfunction(5)
    xs = np.linspace(-1, 1, 101)
    assert np.max(np.abs(ode_residual(f, xs))) <= 1e-8 * spec.chi(5)


def test_truncation_convergence():
    params = g.ProblemParams(alpha=0.5, c=3.0)
    spec = g.chi_spectrum(params, 10)
    spec2 = g.chi_spectrum(params, 10, n_trunc=2 * spec.n_trunc)
    assert np.max(np.abs((spec2.chis - spec.chis) / spec.chis)) <= 1e-11


def test_truncation_refusal():
    # basis far too short for a large bandwidth: must refuse, not mislead
    with pytest.raises((TruncationError, ValueError)):
        g.chi_spectrum(g.ProblemParams(alpha=0.5, c=60.0), 10, n_trunc=14)


def test_default_truncation_retried_once(monkeypatch):
    # a defaulted basis that is too short (12 terms at c = 10) is retried at
    # the 24 terms the error asks for; an explicit one still raises
    p = g.ProblemParams(alpha=0.5, c=10.0)
    monkeypatch.setattr(sturm, "default_truncation", lambda n_max, c: 12)
    with pytest.raises(TruncationError) as exc:
        g.chi_spectrum(p, 4, n_trunc=12)
    assert exc.value.required == 24
    spec = g.chi_spectrum(p, 4)
    assert spec.n_trunc == 24
    assert np.array_equal(spec.chis, g.chi_spectrum(p, 4, n_trunc=24).chis)
    assert_allclose(spec.chis, g.chi_spectrum(p, 4, n_trunc=200).chis, rtol=1e-13)
    # one retry only: 10 terms, then 20, both too short
    monkeypatch.setattr(sturm, "default_truncation", lambda n_max, c: 10)
    with pytest.raises(TruncationError):
        g.chi_spectrum(p, 4)


def test_large_c_bracket_still_holds():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=25.0), 5)
    ns = np.arange(6)
    lo = ns * (ns + 2 * 0.5 + 1)
    assert np.all(spec.chis >= lo)
    assert np.all(spec.chis <= lo + 625.0)


def test_eigenfunction_out_of_range():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=1.0), 3)
    with pytest.raises(ValueError):
        spec.eigenfunction(4)


def test_params_validation():
    with pytest.raises(ValueError):
        g.ProblemParams(alpha=-1.0, c=1.0)
    with pytest.raises(ValueError):
        g.ProblemParams(alpha=0.5, c=-0.1)
    # c = inf overflowed an int conversion in the basis size, and alpha = inf
    # reached LAPACK's argument check after two numpy warnings
    for alpha, c, name in ((math.inf, 1.0, "alpha"), (-math.inf, 1.0, "alpha"),
                           (math.nan, 1.0, "alpha"), (0.5, math.inf, "bandwidth c"),
                           (0.5, math.nan, "bandwidth c")):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            g.ProblemParams(alpha=alpha, c=c)


def test_n_max_checked_by_name():
    # a bool n_max gave a spectrum with n_max=True, and 3.0 a TypeError
    p = g.ProblemParams(alpha=0.5, c=2.0)
    for n_max in (True, 3.0, -1, np.array([3]), "3"):
        with pytest.raises(ValueError, match="^n_max must be an integer >= 0"):
            g.chi_spectrum(p, n_max)
    spec = g.chi_spectrum(p, np.int32(3))
    assert type(spec.n_max) is int and spec.n_max == 3

"""Sturm-Liouville solver tests: brackets, parity, residuals, oracles."""

import functools
import math
import sys
import tracemalloc

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
        assert_allclose(spec.eigenfunction(n).coeffs, e_n, atol=0)


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


@pytest.mark.parametrize("n_trunc", [40, 41])
def test_packed_coefficient_layout(n_trunc):
    # row n holds the degrees n % 2, n % 2 + 2, ... below n_trunc; with an odd
    # n_trunc the odd rows end in one 0, degree n_trunc being past the basis
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), 7, n_trunc=n_trunc)
    width = (n_trunc + 1) // 2
    assert spec.coeffs.shape == (8, width)
    for n in range(8):
        full = spec.eigenfunction(n).coeffs
        assert full.shape == (n_trunc,)
        own = full[n % 2::2]
        assert own.size == width - (n_trunc % 2) * (n % 2)
        assert np.array_equal(spec.coeffs[n, :own.size], own)
        assert np.all(spec.coeffs[n, own.size:] == 0.0)
        assert np.all(full[1 - n % 2::2] == 0.0)


def test_many_mode_solve_memory():
    # the sturm workload's largest many-mode op: the packed coefficients are
    # 3.9 MB, and the even block's dstevd vectors (3.1 MB) are freed before
    # the odd block solves; the dense layout held 7.7 MB of coefficients and
    # both blocks' vectors, a 17.1 MB peak (10.1 MB packed)
    params = g.ProblemParams(alpha=0.6, c=382.1)
    tracemalloc.start()
    try:
        spec = g.chi_spectrum(params, 774)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.coeffs.nbytes == 775 * math.ceil(spec.n_trunc / 2) * 8
    assert peak <= 11e6


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
    basis = np.eye(rows)   # packed rows: Ptilde_2m (parity 0) or Ptilde_2m+1 (parity 1)
    even = np.array([jacobi_series_eval(row, alpha, 0.0, 0) for row in basis])
    odd = np.array([jacobi_series_eval(jacobi_series_deriv_coeffs(row, alpha, 1), alpha + 1.0,
                                       0.0, 0) for row in basis])
    # each block reads the offdiagonals of its own weight, alpha or alpha + 1
    assert_allclose(sturm._sign_reference(alpha, sym_offdiag(alpha, 2 * rows), 0, rows),
                    math.sqrt(total_mass(alpha)) * even, rtol=1e-13, atol=0)
    assert_allclose(sturm._sign_reference(alpha, sym_offdiag(alpha + 1.0, 2 * rows), 1, rows),
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
    psi_few = np.array([few.eigenfunction(n).value(xs) for n in range(6)])
    psi_many = np.array([many.eigenfunction(n).value(xs) for n in range(6)])
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
        want = spec.coeffs[modes, :v.shape[0]].T
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
    n_trunc = max(g.chi_spectrum(g.ProblemParams(alpha, c), int(modes.max())).n_trunc for c in cs)
    for parity in (0, 1):
        count = np.count_nonzero(modes % 2 == parity)
        width = len(range(parity, n_trunc, 2)) if count else 0
        assert vecs[parity].shape == (2, count, width)
    for i, c in enumerate(cs):
        spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), int(modes.max()))
        for parity in np.unique(modes % 2):
            own = modes[modes % 2 == parity]
            want = spec.coeffs[own, :len(range(parity, spec.n_trunc, 2))]
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


def test_evaluations_read_the_packed_row(monkeypatch):
    # value, both derivatives, ode_residual and jacobi_uniform each give the
    # evaluator one parity's packed row, never a full-degree series
    from gpswf import approx

    calls = []

    def recording(coeffs, alpha, x, parity):
        calls.append((len(coeffs), parity))
        return jacobi_series_eval(coeffs, alpha, x, parity)

    for module in (sturm, approx):
        monkeypatch.setattr(module, "jacobi_series_eval", recording)
    xs = np.linspace(-1, 1, 11)
    for alpha, c, n_max in ((0.5, 5.0, 20), (1.2, 30.0, 41)):
        spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n_max)
        for n in (n_max - 1, n_max):
            f, p = spec.eigenfunction(n), n % 2
            calls.clear()
            f.value(xs), f.derivative(xs), f.second_derivative(0.3), ode_residual(f, xs)
            g.jacobi_uniform(spec, n, xs)
            assert [parity for _, parity in calls] == [p, 1 - p, p, p, p]
            assert max(size for size, _ in calls) <= math.ceil(spec.n_trunc / 2) + 1


def test_ode_residual_and_the_solve_build_each_table_once(monkeypatch):
    # the solve builds the alpha + 1 offdiagonals once, and ode_residual reads
    # the Sturm operator from the spectrum (ChiSpectrum.operator); its one
    # Clenshaw pass (specfun.jacobi_series_eval) builds the evaluator's own
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, args[0]))
            return fn(*args)
        return wrapper

    for name in ("sym_offdiag", "_sturm_diagonals"):
        monkeypatch.setattr(sturm, name, counted(name, getattr(sturm, name)))
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=30.0), 7)
    assert calls.count(("sym_offdiag", 1.5)) == 1
    calls.clear()
    for n in (6, 7):
        ode_residual(spec.eigenfunction(n), np.linspace(-1, 1, 11))
        ode_residual(spec.eigenfunction(n), 0.3, chi=spec.chi(n) + 1.0)
    assert calls == []


def test_ode_residual_detects_perturbed_chi():
    spec = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), 3)
    f = spec.eigenfunction(3)
    good = abs(ode_residual(f, 0.37))
    bad = abs(ode_residual(f, 0.37, chi=spec.chi(3) + 1e-3))
    assert good <= 1e-8 * spec.chi(3)
    assert bad > 100 * max(good, 1e-15)


@pytest.mark.parametrize("chi", [math.nan, math.inf], ids=["nan", "inf"])
def test_ode_residual_refuses_a_non_finite_chi(chi):
    # a NaN chi returned NaN at every point, with no error
    f = g.chi_spectrum(g.ProblemParams(alpha=0.5, c=2.0), 3).eigenfunction(3)
    with pytest.raises(ValueError, match=f"requires a finite chi, got chi = {chi}"):
        ode_residual(f, np.linspace(-1.0, 1.0, 5), chi=chi)


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
    monkeypatch.setattr(sturm, "_sized_diagonals", lambda alpha, c, n_max: (
        12, sturm._sturm_diagonals(alpha, c, 12), math.inf))
    with pytest.raises(TruncationError) as exc:
        g.chi_spectrum(p, 4, n_trunc=12)
    assert exc.value.required == 24
    spec = g.chi_spectrum(p, 4)
    assert spec.n_trunc == 24
    assert np.array_equal(spec.chis, g.chi_spectrum(p, 4, n_trunc=24).chis)
    assert_allclose(spec.chis, g.chi_spectrum(p, 4, n_trunc=200).chis, rtol=1e-13)
    # one retry only: 10 terms, then 20, both too short
    monkeypatch.setattr(sturm, "_sized_diagonals", lambda alpha, c, n_max: (
        10, sturm._sturm_diagonals(alpha, c, 10), math.inf))
    with pytest.raises(TruncationError):
        g.chi_spectrum(p, 4)


def test_default_basis_resized_when_chi_exceeds_its_estimate(monkeypatch):
    # a chi_n_max estimate that the solve shows too low sizes the basis again
    # from the solved chi_n_max, and solves again
    p = g.ProblemParams(alpha=0.5, c=30.0)
    low = 0.5 * g.chi_spectrum(p, 5).chis[-1]
    sized, real = [], sturm._sized_diagonals

    def recording(alpha, c, n_max, chi_hi=None):
        out = real(alpha, c, n_max, chi_hi)
        sized.append(out[2])
        return out

    monkeypatch.setattr(sturm, "_chi_bound", lambda alpha, c, n_max, d, e: low)
    monkeypatch.setattr(sturm, "_sized_diagonals", recording)
    spec = g.chi_spectrum(p, 5)
    assert sized[0] == low and len(sized) == 2
    short = g.chi_spectrum(p, 5, n_trunc=real(0.5, 30.0, 5, low)[0])
    assert sized[1] == short.chis[-1] > low
    assert spec.n_trunc == real(0.5, 30.0, 5, sized[1])[0] > short.n_trunc
    assert np.array_equal(spec.chis, g.chi_spectrum(p, 5, n_trunc=spec.n_trunc).chis)


# (alpha, c, n_max): points whose old fixed-margin basis (n_max + max(32,
# 1.2 c + 10) terms) dropped coefficients of 5.5e-18 to 2.0e-13, plateau
# edges (n_max ~ 2c/pi), a few-mode block at large c and a large alpha
BASIS_CONTRACT = [(0.5, 10.0, 0), (0.5, 30.0, 0), (0.5, 30.0, 5), (-0.9, 30.0, 5),
                  (1.4, 30.0, 5), (0.5, 300.0, 190), (0.5, 1000.0, 636),
                  (0.5, 3000.0, 5), (60.0, 300.0, 10)]


@functools.lru_cache(maxsize=None)
def _contract_reference(alpha, c, n_max):
    """The default spectrum, and per parity block (modes, rows of the default
    basis, chis, vectors) of a basis twice as long, solved for the kept
    modes alone by bisection and inverse iteration (componentwise accurate
    far below the full solver's rounding)."""
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n_max)
    _, d_all, e_all = sturm._sturm_diagonals(alpha, c, 2 * spec.n_trunc)
    blocks = []
    for parity in (0, 1):
        modes = np.arange(parity, n_max + 1, 2)
        if modes.size:
            vals, vecs = sturm._selected(d_all[parity::2], e_all[parity::2], modes.size - 1)
            blocks.append((parity, modes, len(range(parity, spec.n_trunc, 2)), vals, vecs))
    return spec, blocks


def _unmet(**reasons):
    """BASIS_CONTRACT with the points named in reasons ("alpha_c_n": why) marked
    as strict expected failures: the contract's bound is not met there."""
    def mark(pt):
        why = reasons.get("_".join(f"{v:g}" for v in pt))
        return pytest.param(*pt, marks=pytest.mark.xfail(reason=why, strict=True)) if why else pt
    return [mark(pt) for pt in BASIS_CONTRACT]


@pytest.mark.parametrize("alpha, c, n_max", BASIS_CONTRACT)
def test_default_basis_drops_only_coefficients_below_1e_20(alpha, c, n_max):
    # fails at the parent's fixed margin at the first five points (5.5e-18
    # to 2.0e-13)
    spec, blocks = _contract_reference(alpha, c, n_max)
    for parity, modes, rows, vals, vecs in blocks:
        assert np.max(np.abs(vecs[rows:])) <= 1e-20


@pytest.mark.parametrize("alpha, c, n_max", _unmet(**{
    "0.5_1000_636": "chi_0 is 4.5e-13 off relative (2.2e-13 with the fixed margin's "
                    "1,846 terms): eigenvalue rounding is ~eps ||T|| ~ 5e-10 absolute "
                    "in these blocks, whatever the basis size"}))
def test_default_basis_keeps_chi(alpha, c, n_max):
    # fails at the parent's fixed margin at (0.5, 300, 190), (0.5, 1000, 636)
    # and (0.5, 3000, 5): 2.0e-13, 2.2e-13 and 1.3e-12 relative
    spec, blocks = _contract_reference(alpha, c, n_max)
    for parity, modes, rows, vals, vecs in blocks:
        assert np.max(np.abs(vals - spec.chis[modes]) / spec.chis[modes]) <= 1e-13


@pytest.mark.parametrize("alpha, c, n_max", _unmet(**{
    "0.5_1000_636": "solver rounding, not truncation: psi_635 differs by 3.1e-13 of "
                    "max|psi| (3.5e-13 with the fixed margin's 1,846 terms)",
    "60_300_10": "psi_n evaluates to 1e13..1e21 near x = +-1 at every basis of 161 to "
                 "500 terms, where its middle is ~10 (GpswfFunction.value at large alpha)"}))
def test_default_basis_keeps_psi(alpha, c, n_max):
    # up to 21 modes per block, each block's first and last among them;
    # fails at the parent's fixed margin at (0.5, 30, 5) and (1.4, 30, 5):
    # 7.9e-13 and 3.1e-12 of max|psi|
    spec, blocks = _contract_reference(alpha, c, n_max)
    xs = np.linspace(-1.0, 1.0, 2001)
    for parity, modes, rows, vals, vecs in blocks:
        for j in np.unique(np.linspace(0, modes.size - 1, 21).astype(int)):
            ref = vecs[:, j] * np.sign(vecs[:rows, j] @ spec.coeffs[modes[j], :rows])
            want = jacobi_series_eval(ref, alpha, xs, parity)
            got = spec.eigenfunction(int(modes[j])).value(xs)
            assert np.max(np.abs(got - want)) <= 2.5e-13 * np.max(np.abs(want))


def test_default_basis_size():
    # the fixed margin gave 3,615 and 2,586 terms; the kept modes need ~580
    # and ~1,660 to reach 1e-20
    assert g.chi_spectrum(g.ProblemParams(0.5, 3000.0), 5).n_trunc <= 800
    assert sturm._sized_diagonals(0.5, 1000.0, 1376)[0] <= 2100


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

"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is pinned here; nothing is calibrated at
run time except constants the criteria themselves define as empirical.
"""

import math
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import jv

import gpswf as g
from explicit_route import f_n_moment, log_lambda_explicit
from gpswf.approx import make_frame
from test_spectrum import f_n_weighted_identity


def _report(num: int, name: str, ok: bool, t0: float, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} [{name}]: {status} ({time.perf_counter() - t0:.1f}s) {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_chi_bracket():
    t0 = time.perf_counter()
    ok, worst = True, 0.0
    for alpha in (0.0, 0.5, 1.0, 1.4):
        for c in (0.0, 1.0, 5.0, 10.0):
            spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 60)
            ns = np.arange(61)
            lo = ns * (ns + 2 * alpha + 1)
            ok &= bool(np.all(spec.chis >= lo) and np.all(spec.chis <= lo + c * c))
            if c == 0.0:
                ok &= spec.chis[0] == 0.0
                rel = np.max(np.abs(spec.chis[1:] - lo[1:]) / lo[1:])
                worst = max(worst, rel)
                ok &= rel <= 1e-12
    _report(1, "chi bracket", ok, t0, f"worst c=0 relative deviation {worst:.2e}")


def test_criterion_02_bessel_moment_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.2, 0.8, 1.4, 2.0, 3.0):
        for x in np.linspace(0.25, 5.0, 20):
            lhs = quad(lambda t: t * jv(alpha, t) ** 2, 0.0, x,
                       limit=200, epsabs=1e-13)[0]
            rhs = x / math.pi + g.eta_fn(alpha, x)
            worst = max(worst, abs(lhs - rhs))
    _report(2, "Bessel moment identity", worst <= 1e-10, t0,
            f"worst absolute deviation {worst:.2e} over 100 grid points")


def test_criterion_03_bessel_envelope():
    # Rates: the weighted error (1-x^2)^(alpha/2) |approx - psi| decays like
    # 1/sqrt(chi); the unweighted sup error like chi^-min(1/2, 3/4 - alpha/2).
    # Near x = 1 the certified envelope's Olver term (turning region
    # 1 - x ~ 1/chi) and its amplitude term |A - Ahat| main(1) scale as
    # chi^(alpha/2 - 3/4): chi^(-1/2) at alpha = 1/2, only chi^(-1/4) at
    # alpha = 1.  Each scaled error must keep its doubling ratio
    # (n = 30 -> 60) within [0.75, 1.25].
    t0 = time.perf_counter()
    envelope_ok = True
    details = []
    ratios_ok = True
    for alpha in (0.5, 1.0):
        for c in (3.0, 5.0):
            unweighted_rate = min(0.5, 0.75 - alpha / 2)
            unweighted, weighted = {}, {}
            for n in (30, 60):
                spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n)
                frame = make_frame(spec, n)
                assert frame.admissible, f"combo ({alpha},{c},{n}) inadmissible"
                rep = g.bessel_report(spec, n)
                envelope_ok &= rep.sup_error <= rep.sup_envelope
                unweighted[n] = rep.sup_error * rep.chi ** unweighted_rate
                err = np.abs(rep.approx - rep.reference)
                weighted_sup = float(np.max((1.0 - rep.grid ** 2) ** (alpha / 2) * err))
                weighted[n] = weighted_sup * math.sqrt(rep.chi)
            ratio_u = unweighted[60] / unweighted[30]
            ratio_w = weighted[60] / weighted[30]
            ratios_ok &= 0.75 <= ratio_u <= 1.25 and 0.75 <= ratio_w <= 1.25
            details.append(f"a={alpha},c={c}: sup_err*chi^{unweighted_rate:g} "
                           f"doubling ratio {ratio_u:.3f}, weighted sup_err*sqrt(chi) "
                           f"doubling ratio {ratio_w:.3f}")
    detail = "; ".join(details)
    _report(3, "Bessel-form envelope", envelope_ok and ratios_ok, t0,
            f"envelope dominance {'holds' if envelope_ok else 'VIOLATED'}; {detail}. "
            "Note: at alpha=1 the unweighted sup error sits at x=1, where it is "
            "the amplitude term |A-Ahat|*main(1), scaling as chi^(alpha/2-3/4).")


def test_criterion_04_jacobi_rates():
    t0 = time.perf_counter()
    alpha = 0.5
    scaled_n, sup_n, a_scaled = [], [], []
    for n in (50, 100, 200):
        spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=2.0), n)
        rep = g.jacobi_report(spec, n)
        scaled_n.append(rep.scaled_error)
        sup_n.append(rep.sup_error)
        a_scaled.append(rep.a_n_scaled)
    n_var = max(scaled_n) / min(scaled_n)
    ok = n_var <= 1.2

    sup_c = []
    for c in (0.5, 1.0, 2.0):
        spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), 100)
        sup_c.append(g.jacobi_report(spec, 100).sup_error / c ** 2)
    c_var = max(sup_c) / min(sup_c)
    ok &= c_var <= 1.2

    a_growth = max(a_scaled[1] / a_scaled[0], a_scaled[2] / a_scaled[1])
    ok &= a_growth <= 1.2
    _report(4, "Jacobi-form rates", ok, t0,
            f"n-sweep spread {n_var:.3f}, c-sweep spread {c_var:.3f}, "
            f"|1-A_n| scaled growth {a_growth:.3f} (all <= 1.2)")


def test_criterion_05_lambda_mu_identity():
    t0 = time.perf_counter()
    ok = True
    details = []
    for alpha in (0.5, 1.0):
        for c in (2.0, 5.0):
            params = g.ProblemParams(alpha=alpha, c=c)
            op = g.nystrom_spectrum(params, n_keep=11)
            worst, n_explicit = 0.0, 0
            for n in range(11):
                lam_mu = (c / (2 * math.pi)) * abs(op.mus[n]) ** 2
                if op.lambdas[n] >= 1e-10:
                    rel = abs(op.lambdas[n] - lam_mu) / lam_mu
                else:
                    # below the double-precision Nystrom floor the operator
                    # eigenvalue comes from the log-space explicit formula
                    lam_x = math.exp(log_lambda_explicit(params, n))
                    rel = abs(lam_x - lam_mu) / lam_mu
                    n_explicit += 1
                worst = max(worst, rel)
                phase = op.mus[n] * (1j) ** (-n)
                ok &= abs(phase.imag) <= 1e-8 * abs(op.mus[n]) and phase.real > 0
            ok &= worst <= 1e-6
            details.append(f"a={alpha},c={c}: worst rel {worst:.1e} "
                           f"({n_explicit} modes via explicit formula)")
    _report(5, "lambda-mu identity", ok, t0, "; ".join(details))


def test_criterion_06_trace_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 1.0):
        for c in (5.0, 10.0, 20.0):
            params = g.ProblemParams(alpha=alpha, c=c)
            op = g.nystrom_spectrum(params, n_quad=300, n_keep=8)
            tn = g.trace_and_norm(params)
            worst = max(worst, abs(op.trace_discrete - tn.trace) / tn.trace)
    _report(6, "trace identity", worst <= 1e-6, t0, f"worst relative error {worst:.2e}")


def test_criterion_07_hs_norm_trend():
    t0 = time.perf_counter()
    gaps = []
    for c in (10.0, 20.0, 40.0):
        params = g.ProblemParams(alpha=0.5, c=c)
        tn = g.trace_and_norm(params)
        cnt = g.counting(params, 0.5)
        gaps.append(abs(cnt.hs_norm_value - tn.hs_norm_limit) / c)
    ok = gaps[1] < gaps[0] and gaps[2] < gaps[1]
    _report(7, "Hilbert-Schmidt trend", ok, t0,
            "|sum lambda^2 - gamma*trace|/c = " + ", ".join(f"{v:.5f}" for v in gaps))


def test_criterion_08_counting_sandwich():
    t0 = time.perf_counter()
    ok = True
    gaps = []
    for c in (10.0, 20.0, 40.0):
        cnt = g.counting(g.ProblemParams(alpha=0.0, c=c), 0.5)
        m_over_c = cnt.m_empirical / c
        ok &= m_over_c < 4 / math.pi
        gaps.append(abs(m_over_c - 2 / math.pi))
    ok &= gaps[1] <= gaps[0] and gaps[2] <= gaps[1]
    for c in (10.0, 20.0, 40.0):
        cnt = g.counting(g.ProblemParams(alpha=0.5, c=c), 0.5)
        ok &= cnt.upper_ok
    _report(8, "counting sandwich", ok, t0,
            "alpha=0 |M/c - 2/pi| = " + ", ".join(f"{v:.4f}" for v in gaps))


def test_criterion_09_decay():
    t0 = time.perf_counter()
    rep = g.decay_check(g.ProblemParams(alpha=0.5, c=2.0), range(20, 61))
    ok = 0.9 <= rep.slope <= 1.1
    worst = 0.0
    for alpha in (0.3, 0.8, 1.2):
        params = g.ProblemParams(alpha=alpha, c=0.0)
        spec = g.chi_spectrum(params, 12)
        for n in range(13):
            worst = max(worst, abs(f_n_moment(spec, n) - n))
            worst = max(worst, abs(f_n_weighted_identity(params, n, spec)
                                   - (n + alpha + 0.5)))
    ok &= worst <= 1e-9
    _report(9, "super-exponential decay", ok, t0,
            f"slope {rep.slope:.4f}, worst moment-identity deviation {worst:.1e}")


def test_criterion_10_sinc_oracle():
    t0 = time.perf_counter()
    ok = True
    details = []
    for c in (1.0, 5.0):
        op = g.nystrom_spectrum(g.ProblemParams(alpha=0.0, c=c), n_quad=300,
                                n_keep=8)
        x, w = np.polynomial.legendre.leggauss(300)
        u = c * (x[:, None] - x[None, :])
        safe = np.where(u == 0.0, 1.0, u)
        kern = np.where(np.abs(u) < 1e-12, 2.0, 2.0 * np.sin(safe) / safe)
        mat = (c / (2 * math.pi)) * kern * np.sqrt(w[:, None] * w[None, :])
        oracle = np.linalg.eigvalsh(mat)[::-1][:8]
        # spectrum-scale agreement for all eight; strict per-eigenvalue
        # agreement wherever double precision can resolve lambda relative to
        # lambda_0 (everything at c=5; the tail at c=1 sits under the floor)
        scale_ok = np.max(np.abs(op.lambdas - oracle)) <= 1e-8 * oracle[0]
        trusted = oracle >= 1e-6 * oracle[0]
        rel = np.max(np.abs(op.lambdas[trusted] - oracle[trusted]) / oracle[trusted])
        ok &= scale_ok and rel <= 1e-8
        details.append(f"c={c}: {int(trusted.sum())}/8 modes strict, worst rel {rel:.1e}")
    _report(10, "alpha=0 sinc oracle", ok, t0, "; ".join(details))

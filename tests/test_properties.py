"""Property tests over the declared domain alpha > -1, c >= 0.

Draws are derandomized, so every run tests the same examples and tier-1
stays deterministic.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gpswf as g
from explicit_route import log_lambda_explicit

ALPHA = st.floats(min_value=-1.0, max_value=5.0, exclude_min=True, exclude_max=True)
C = st.floats(min_value=0.0, max_value=200.0)
N_MAX = st.integers(min_value=0, max_value=30)
PROPERTY = settings(derandomize=True, deadline=None, max_examples=150, database=None)


@PROPERTY
@given(alpha=ALPHA, c=C, n_max=N_MAX)
def test_chi_in_bracket_and_sign_rule_at_zero(alpha, c, n_max):
    spec = g.chi_spectrum(g.ProblemParams(alpha=alpha, c=c), n_max)
    ns = np.arange(n_max + 1)
    lo = ns * (ns + 2 * alpha + 1)
    assert np.all(spec.chis >= lo) and np.all(spec.chis <= lo + c * c)
    # (-1)^(n//2) psi_n(0) > 0 for even n, (-1)^(n//2) psi_n'(0) > 0 for odd n;
    # psi_n(1) > 0 is not asserted: at large c and alpha it is at the
    # rounding level (psi_4(1) = -2.2e-8 at alpha ~ 4.8, c ~ 185)
    for n in ns:
        f = spec.eigenfunction(int(n))
        at_zero = f.derivative(0.0) if n % 2 else f.value(0.0)
        assert (-1) ** (n // 2) * at_zero > 0


@PROPERTY
@given(alpha=ALPHA, n_max=N_MAX)
def test_f_n_equals_n_at_c_zero(alpha, n_max):
    p = g.ProblemParams(alpha=alpha, c=0.0)
    ns = np.arange(n_max + 1)
    assert np.max(np.abs(g.f_n_moment(g.chi_spectrum(p, n_max), ns) - ns)) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(alpha=st.floats(min_value=-1.0, max_value=3.0, exclude_min=True, exclude_max=True),
       c=st.floats(min_value=0.5, max_value=50.0))
@example(alpha=-0.3, c=6.0)   # sorted order pairs modes 0-3 with the wrong psi_n
@example(alpha=-0.9, c=5.0)
@example(alpha=-0.25, c=18.0)
@example(alpha=-0.99, c=50.0)
def test_stable_nystrom_values_match_explicit(alpha, c):
    # the flag's 1e-10 agreement bound plus up to 1e-10 in either route
    p = g.ProblemParams(alpha=alpha, c=c)
    op = g.nystrom_spectrum(p, n_keep=12)
    lam_x = np.exp(log_lambda_explicit(p, np.arange(12)))
    err = np.abs(op.lambdas - lam_x) / lam_x
    assert np.all(err[op.stable] <= 2e-10)

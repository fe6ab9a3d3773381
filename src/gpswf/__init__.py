"""Generalized prolate spheroidal wave functions.

Spectra of the weighted finite Fourier transform operator and its
self-adjoint composition, the commuting Sturm-Liouville eigenproblem,
uniform Bessel- and Jacobi-form approximations of the eigenfunctions with
certified error envelopes, super-exponential eigenvalue decay diagnostics,
and trace-based eigenvalue counting bounds.

GPSWF_THREADS caps BLAS worker threads.  It is applied here, on import and
before any submodule loads numpy, because BLAS reads its thread count only
once, when numpy first loads it; so it takes effect only if numpy has not
been imported before ``gpswf``.
"""

import os as _os


def _apply_thread_cap() -> str | None:
    """Copy GPSWF_THREADS onto the BLAS thread variables that are not yet set.

    Returns an error message for a non-integer value instead of raising, so
    that a bad value never breaks ``import gpswf``; the CLI reports it as a
    usage error.
    """
    cap = _os.environ.get("GPSWF_THREADS")
    if not cap:
        return None
    try:
        value = str(int(cap))
    except ValueError:
        return f"GPSWF_THREADS must be an integer, got {cap!r}"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(var, value)
    return None


_apply_thread_cap()

from .approx import (
    ApproxReport,
    WkbFrame,
    approximant_norm_check,
    approximant_norm_sq,
    bessel_report,
    bessel_uniform,
    g_bound,
    jacobi_report,
    jacobi_uniform,
    make_frame,
)
from .specfun import (
    BesselEnvelopeConstants,
    QuadratureRule,
    elliptic_K,
    envelope_constants,
    eta_fn,
    gauss_jacobi,
    incomplete_K,
    s_map,
    weight_modulus,
)
from .spectrum import (
    CountingReport,
    DecayReport,
    OperatorSpectrum,
    TraceAndNorm,
    counting,
    decay_check,
    f_n_moment,
    log_mu_ratio,
    mu_eigenrelation,
    nystrom_spectrum,
    trace_and_norm,
)
from .sturm import (
    ChiSpectrum,
    GpswfFunction,
    ProblemParams,
    TruncationError,
    chi_spectrum,
    ode_residual,
)

__all__ = [
    "ApproxReport", "BesselEnvelopeConstants", "ChiSpectrum", "CountingReport",
    "DecayReport", "GpswfFunction", "OperatorSpectrum", "ProblemParams",
    "QuadratureRule", "TraceAndNorm", "TruncationError", "WkbFrame",
    "approximant_norm_check", "approximant_norm_sq",
    "bessel_report", "bessel_uniform", "chi_spectrum",
    "counting", "decay_check", "elliptic_K", "envelope_constants",
    "eta_fn", "f_n_moment", "g_bound", "gauss_jacobi", "incomplete_K",
    "jacobi_report", "jacobi_uniform", "log_mu_ratio", "make_frame",
    "mu_eigenrelation", "nystrom_spectrum", "ode_residual", "s_map",
    "trace_and_norm", "weight_modulus",
]

__version__ = "0.1.0"

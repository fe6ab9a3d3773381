"""Generalized prolate spheroidal wave functions.

Spectra of the weighted finite Fourier transform operator and its
self-adjoint composition, the commuting Sturm-Liouville eigenproblem,
uniform Bessel- and Jacobi-form approximations of the eigenfunctions with
certified error envelopes, super-exponential eigenvalue decay diagnostics,
and trace-based eigenvalue counting bounds.
"""

from .approx import (
    ApproxReport,
    WkbFrame,
    bessel_report,
    bessel_uniform,
    jacobi_report,
    jacobi_uniform,
    make_frame,
)
from .specfun import (
    BesselEnvelopeConstants,
    QuadratureRule,
    elliptic_K,
    envelope_constants,
    gauss_jacobi,
    s_map,
)
from .spectrum import (
    CountingReport,
    DecayReport,
    OperatorSpectrum,
    TraceAndNorm,
    counting,
    decay_check,
    log_mu_ratio,
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
    "bessel_report", "bessel_uniform", "chi_spectrum",
    "counting", "decay_check", "elliptic_K", "envelope_constants",
    "gauss_jacobi", "jacobi_report", "jacobi_uniform", "log_mu_ratio", "make_frame",
    "nystrom_spectrum", "ode_residual", "s_map", "trace_and_norm",
]

__version__ = "0.1.0"

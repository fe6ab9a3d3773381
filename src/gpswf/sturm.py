"""Sturm-Liouville eigenproblem for the generalized prolate functions.

The differential operator commuting with the weighted finite Fourier
transform is discretized in the orthonormal symmetric-Jacobi basis
Ptilde_k^(alpha, alpha).  There the curvature part is diagonal with entries
k (k + 2 alpha + 1) and the c^2 x^2 potential couples k-2, k, k+2 through
the squared multiplication-by-x recurrence, so the operator splits into two
symmetric tridiagonal blocks (even and odd degrees).  Eigenvalues chi_n and
Jacobi coefficient vectors of the eigenfunctions psi_n come out of a
symmetric tridiagonal eigensolve per parity block, of modes 0 up to n_max
(a block with no kept mode is not solved).  Unless n_trunc is given, the
basis is sized to the kept modes (chi_spectrum, _sized_diagonals): each
block ends where their coefficients, estimated from the block's own
recurrence past its turning row for chi up to an upper estimate of
chi_n_max that the solve then checks, fall below 1e-20, well under the
~1e-17 rounding of the solved vectors.  psi_n lives on the degrees of
n's parity alone, so each mode stores only those coefficients
(ChiSpectrum.coeffs), half as many as degrees, and every evaluation reads
that packed row with its parity.  A block of R rows keeping k modes is
solved in one of two ways: for 32 k <= R (c large, few modes) by
bisection and inverse iteration on the kept eigenpairs alone (LAPACK dstebz
and dstein), otherwise by the full divide-and-conquer solve (dstevd),
sliced.  Both call LAPACK directly (specfun._lapack), with the routines and
arguments scipy.linalg.eigh_tridiagonal would use, so the results are
bit-identical to it.

Normalization: int psi_n^2 (1-x^2)^alpha dx = 1 (automatic, the basis is
orthonormal) and psi_n(1) > 0.  For c beyond ~50 the first modes have
psi_n(1) at the rounding level, so the sign is fixed at x = 0 instead:
(-1)^(n//2) psi_n(0) > 0 for even n and (-1)^(n//2) psi_n'(0) > 0 for odd
n.  psi_n has exactly n simple zeros in (-1, 1), so the two rules agree
wherever psi_n(1) is resolved.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .specfun import (
    _count,
    _lapack,
    jacobi_series_deriv_coeffs,
    jacobi_series_eval,
    sym_offdiag,
)


@dataclass(frozen=True)
class ProblemParams:
    """Weight exponent alpha > -1 and bandwidth c >= 0 of the operator family, both finite."""

    alpha: float
    c: float

    def __post_init__(self):
        if not (self.alpha > -1 and math.isfinite(self.alpha)):
            raise ValueError(f"alpha must be finite and exceed -1, got {self.alpha}")
        if not (self.c >= 0 and math.isfinite(self.c)):
            raise ValueError(f"bandwidth c must be finite and nonnegative, got {self.c}")


class TruncationError(RuntimeError):
    """Raised when the Jacobi basis is too short for the requested modes."""

    def __init__(self, msg: str, required: int):
        super().__init__(msg)
        self.required = required


# A defaulted basis ends where the kept modes' coefficients are estimated to
# fall below _BASIS_TOL, well under the ~1e-17 absolute rounding of the
# solvers' vectors.
_BASIS_TOL = 1e-20
_LOG_TOL = -math.log(_BASIS_TOL)


def _chi_bound(alpha: float, c: float, n_max: int, d: np.ndarray, e: np.ndarray) -> float:
    """An upper estimate of chi_0..chi_n_max, from the Sturm diagonals d, e (_sturm_diagonals).

    With lo = n_max (n_max + 2 alpha + 1), the bracket lo + c^2 where
    c^2 <= 16 n_max: its slack, at most c^2, moves the turning rows by at
    most ~c^2 / (2 n_max) <= 8 degrees.  With few modes against c, lo +
    (2 n_max + 1) c + 1 where that is below c^2: it follows the
    harmonic-oscillator asymptotics chi_n ~ (2 n + 1) c (chi_0 ~ c - alpha
    - 3/4), is tight there, and exceeded chi_n_max by at least 0.17 at
    every alpha in (-1, 1000], every c of 110 in [1.6, 3000] and every
    n_max <= 120 tried where it applies; it is not proven, so chi_spectrum
    checks it against the solved chi_n_max.  In between (4 sqrt(n_max) < c
    <~ 2 n_max + 1: many modes, c large) eigenvalue n_max // 2 of n_max's
    parity block as built, by bisection (LAPACK dstebz) to 1e-8 of the
    bracket, which by Cauchy interlacing bounds the eigenvalues of every
    longer block.
    """
    lo, cc = n_max * (n_max + 2 * alpha + 1), c * c
    if cc <= 16 * n_max:
        return lo + cc
    if (2 * n_max + 1) * c + 1.0 < cc:
        return lo + (2 * n_max + 1) * c + 1.0
    p, top, tol = n_max % 2, n_max // 2, 1e-8 * (lo + cc)
    _, w, *_ = _lapack("dstebz", d[p::2], e[p::2], 2, 0.0, 1.0, top + 1, top + 1, tol, "B")
    return min(lo + cc, w[0] + tol)


def _sized_diagonals(alpha: float, c: float, n_max: int,
                     chi_hi: float | None = None) -> tuple[int, tuple, float]:
    """The default basis size for modes 0..n_max with chi <= chi_hi (by
    default _chi_bound's), the _sturm_diagonals it was read from (at least
    two degrees longer) and chi_hi.

    Past a parity block's turning row, the last row j with d_j - 2 e_j <=
    chi_hi, the vector of an eigenvalue chi <= chi_hi decays like the
    recurrence's decaying root, by exp(-acosh((d_j - chi) / (2 e_j))) per
    row, and faster the smaller chi is, so chi_hi covers every kept mode.
    Each rate is replaced by the least at or past its row, which is 0
    through the last turning row and, where the rates grow, the rate itself;
    their running sum estimates the coefficients, and each block keeps the
    rows estimated at or above 1e-20.  The blocks are built to n_max + 12
    ceil(sqrt(c)) + 28 degrees, and to twice as many while the estimate does
    not reach 1e-20 within them.  At least n_max + 5, so each block ends in
    two rows past its last mode.  The solved vectors' own tails are not
    read: below ~1e-17 they are solver rounding.
    """
    size = n_max + 12 * math.ceil(math.sqrt(c)) + 28 + n_max % 2   # even
    while True:
        diagonals = _sturm_diagonals(alpha, c, size)
        _, d, e = diagonals
        # a longer build tightens a bisected bound
        hi = _chi_bound(alpha, c, n_max, d, e) if chi_hi is None else chi_hi
        # row j holds degrees 2 j and 2 j + 1, so column p is parity block p.
        # Floors: 2 e_j at 1e-290 keeps the quotient finite as c -> 0, and the
        # quotient at 1 gives the turning rows rate 0
        ratio = (d[:-2] - hi) / np.maximum(e + e, 1e-290)
        rate = np.arccosh(np.maximum(ratio, 1.0, out=ratio), out=ratio).reshape(-1, 2)
        decay = np.minimum.accumulate(rate[::-1])[::-1].cumsum(axis=0)
        # row j + 1 is each block's first row below 1e-20; rows 0..j are kept
        j0 = int(decay[:, 0].searchsorted(_LOG_TOL))
        j1 = int(decay[:, 1].searchsorted(_LOG_TOL))
        if max(j0, j1) < decay.shape[0]:
            return max(n_max + 5, 2 * j0 + 1, 2 * j1 + 2), diagonals, hi
        size *= 2


def _mode_indices(n, n_max: int | None = None) -> np.ndarray:
    """n as an array of mode indices; ValueError, naming the index, unless n is
    non-empty, of integer dtype (not bool, not float) and in 0..n_max (>= 0
    with no n_max)."""
    ns = np.asarray(n)
    if ns.size == 0:
        raise ValueError("no mode index given")
    if ns.dtype == bool or not np.issubdtype(ns.dtype, np.integer):
        raise ValueError(f"mode index {ns} is not an integer")
    if np.any(ns < 0) or n_max is not None and np.any(ns > n_max):
        where = "is negative" if n_max is None else f"outside computed range 0..{n_max}"
        raise ValueError(f"mode index {ns} {where}")
    return ns


@dataclass(frozen=True)
class ChiSpectrum:
    """Eigenvalues chi_n and Jacobi coefficient vectors of psi_0..psi_n_max.

    coeffs has shape (n_max + 1, ceil(n_trunc / 2)): row n holds psi_n's
    coefficients on Ptilde_p, Ptilde_(p+2), ..., p = n % 2, the only degrees
    it has.  When n_trunc is odd, the odd rows end in one 0 (degree n_trunc
    is past the basis).  The evaluator and the derivative map take this row
    with its parity; GpswfFunction.coeffs is a full-degree view for callers.

    operator holds the tables the solve read, so that log_mu_ratio and
    ode_residual do not build them again: b and b_up, the offdiagonals for
    alpha and alpha + 1 (sym_offdiag) to b_(n_trunc + 2), and d and e, the
    Sturm diagonals (_sturm_diagonals) on the degrees below n_trunc + 2, two
    past the basis.
    Every entry depends on its degree alone, so each is the same double as
    in a build of any other length.  It is left out of repr and equality.
    """

    params: ProblemParams
    n_max: int
    n_trunc: int
    chis: np.ndarray     # shape (n_max+1,)
    coeffs: np.ndarray   # shape (n_max+1, ceil(n_trunc/2)), own-parity degrees only
    operator: tuple = field(repr=False, compare=False)   # (b, b_up, d, e)

    def chi(self, n: int) -> float:
        return float(self.chis[int(_mode_indices(n, self.n_max))])

    def q(self, n: int) -> float:
        """Spectral ratio c^2 / chi_n (the oscillatory regime has q < 1).

        c is taken as 0, and q is 0, wherever chi_0 (about c^2 / (2 alpha + 3))
        is not a normal double, c below about 1.5e-154 sqrt(2 alpha + 3): there
        c * c and chi_0 keep too few digits to divide (or underflow to 0), and
        the solved spectrum is the c = 0 one to rounding.
        """
        chi = self.chi(n)
        if not self.chis[0] >= sys.float_info.min:
            return 0.0
        c = self.params.c
        return c * c / chi

    def eigenfunction(self, n: int) -> "GpswfFunction":
        return GpswfFunction(spectrum=self, n=int(_mode_indices(n, self.n_max)))


@dataclass(frozen=True)
class GpswfFunction:
    """Evaluable eigenfunction psi_n with value and derivatives on [-1, 1]."""

    spectrum: ChiSpectrum
    n: int

    @property
    def params(self) -> ProblemParams:
        return self.spectrum.params

    @property
    def chi(self) -> float:
        return self.spectrum.chi(self.n)

    @property
    def coeffs(self) -> np.ndarray:
        """psi_n's coefficients on every degree 0..n_trunc - 1, the other parity's 0; for callers."""
        spec, parity = self.spectrum, self.n % 2
        full = np.zeros(spec.n_trunc)
        full[parity::2] = spec.coeffs[self.n, :(spec.n_trunc - parity + 1) // 2]
        return full

    def value(self, x):
        return jacobi_series_eval(self.spectrum.coeffs[self.n], self.params.alpha, x, self.n % 2)

    def derivative(self, x):
        a, p = self.params.alpha, self.n % 2
        d1 = jacobi_series_deriv_coeffs(self.spectrum.coeffs[self.n], a, p)
        return jacobi_series_eval(d1, a + 1.0, x, 1 - p)

    def second_derivative(self, x):
        a, p = self.params.alpha, self.n % 2
        d1 = jacobi_series_deriv_coeffs(self.spectrum.coeffs[self.n], a, p)
        return jacobi_series_eval(jacobi_series_deriv_coeffs(d1, a + 1.0, 1 - p), a + 2.0, x, p)


def ode_residual(f: GpswfFunction, x, chi: float | None = None):
    """Left-hand side of (1-x^2) psi'' - 2(alpha+1) x psi' + (chi - c^2 x^2) psi.

    Vanishes (to solver accuracy) at the computed chi; a perturbed chi makes
    it grow, which is the diagnostic use.  The left-hand side is the packed
    series r = chi v - T v of psi's parity, v psi's packed row padded to the
    two degrees past the basis and T the parity block of the Sturm operator
    that _solve diagonalised, read from ChiSpectrum.operator to those
    degrees, so it costs one Clenshaw pass and builds no table.  The padding
    keeps the spill of c^2 x^2 psi past the basis, the truncation error, in
    the residual.  It does not evaluate psi' or psi'', so it no longer checks
    GpswfFunction.derivative and .second_derivative; the tests compare it
    with the pointwise form built from them.  A chi that is not finite is
    refused with ValueError.
    """
    if chi is not None and not math.isfinite(chi):
        raise ValueError(f"ode_residual requires a finite chi, got chi = {chi}")
    parity = f.n % 2
    _, _, d, e = f.spectrum.operator
    d, e = d[parity::2], e[parity::2]
    v = np.zeros(d.size)
    v[:-1] = f.spectrum.coeffs[f.n, :d.size - 1]
    r = ((f.chi if chi is None else chi) - d) * v
    r[:-1] -= e * v[1:]
    r[1:] -= e * v[:-1]
    return jacobi_series_eval(r, f.params.alpha, x, parity)


_TAIL_TOL = 1e-12
# A block of R rows keeping k modes solves the k eigenpairs alone, by
# bisection and inverse iteration (_selected), when 32 k <= R: that beats the
# full solve (_full) there and loses to it somewhere between k = 0.03 R and
# k = 0.1 R.
_SELECT_RATIO = 32
# Inverse-iteration vectors (unit norm) carry ~1e-45 rounding where the full
# solver returns exact zeros; zeroing it lets the Clenshaw pass skip the tail.
_CHOP = 1e-30


def _sign_reference(alpha: float, b: np.ndarray, parity: int, rows: int) -> np.ndarray:
    """Ptilde_{2m}(0) (even block) or Ptilde_{2m+1}'(0) (odd block), m < rows, times sqrt(H).

    H = total_mass(alpha) on the even block and total_mass(alpha + 1) on the
    odd one, so the m = 0 entry is 1 or sqrt(2 alpha + 2); the eigen-relation
    at x = 0 (spectrum.log_mu_ratio's anchor, and every mode in the tests'
    oracle) divides these factors out.  At x = 0 the recurrence gives
    Ptilde_{k+1}(0) = -b_k / b_{k+1} Ptilde_{k-1}(0), and
    Ptilde_k' = sqrt(k (k + 2 alpha + 1)) Ptilde_{k-1}^(alpha+1); ``b`` holds
    the offdiagonals of the block's weight, to b_(2 rows - 2) or beyond: for
    ``alpha`` on the even block and for alpha + 1 on the odd one
    (ChiSpectrum.operator's b and b_up).
    """
    ref = np.concatenate(([1.0], np.cumprod(-b[1:2 * rows - 1:2] / b[2:2 * rows - 1:2])))
    k = np.arange(1, 2 * rows, 2, dtype=float)   # the odd block's degrees
    return np.sqrt(k * (k + 2 * alpha + 1)) * ref if parity else ref


def _selected(d: np.ndarray, e: np.ndarray, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs 0..hi, ascending, of the symmetric tridiagonal (d, e).

    LAPACK's bisection (dstebz) and inverse iteration (dstein), called as
    eigh_tridiagonal(d, e, select="i", select_range=(0, hi)) calls them, so
    the result is bit-identical to it, through specfun._lapack, without the
    wrapper's own cost (about half the time of a 30-row solve).
    """
    m, w, iblock, isplit = _lapack("dstebz", d, e, 2, 0.0, 1.0, 1, hi + 1, 0.0, "B")
    [vecs] = _lapack("dstein", d, e, w[:m], iblock, isplit)
    order = np.argsort(w[:m])
    return w[:m][order], vecs[:, order]


def _full(d: np.ndarray, e: np.ndarray, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs 0..hi, ascending, sliced from the full solve.

    LAPACK's divide and conquer (dstevd), the routine eigh_tridiagonal(d, e)
    calls, so the result is bit-identical to it, through specfun._lapack.
    """
    vals, vecs = _lapack("dstevd", d, e)
    return vals[:hi + 1], vecs[:, :hi + 1]


def _sturm_diagonals(alpha: float, c: float,
                     size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Sturm operator on degrees k < size, both parity blocks at once: b, d and e.

    b holds the offdiagonals for alpha to b_size (sym_offdiag), d_k =
    k (k + 2 alpha + 1) + c^2 (b_k^2 + b_(k+1)^2) the diagonal, and e_k =
    c^2 b_(k+1) b_(k+2), k < size - 2, the coupling of degree k to k + 2,
    from the squared recurrence for x^2 Ptilde_k.  Parity block p, on the
    degrees p, p + 2, ... below size, is d[p::2] and e[p::2]; every entry
    depends on its degree alone, so a longer size gives the same leading
    entries.
    """
    b = sym_offdiag(alpha, size)
    k = np.arange(size, dtype=float)
    d = k * (k + 2 * alpha + 1) + c * c * (b[:-1] ** 2 + b[1:] ** 2)
    e = c * c * b[1:-2] * b[2:-1]
    return b, d, e


def _solve(alpha: float, c: float, n_max: int, n_trunc: int, diagonals: tuple) -> ChiSpectrum:
    """chi_0..chi_n_max and their signed vectors in the n_trunc-term basis.

    diagonals are _sturm_diagonals' to n_trunc + 2 or beyond (a longer build
    has the same leading entries); they and the alpha + 1 offdiagonals, built
    here once for the odd block's sign reference, are kept to n_trunc + 2 as
    ChiSpectrum.operator for the spectrum's consumers (log_mu_ratio,
    ode_residual).  Each parity block has rows for the degrees
    parity, parity + 2, ... below n_trunc, and keeps its modes n = 2 j +
    parity, j = 0..hi: alone (_selected, entries below 1e-30 then set to 0)
    when 32 (hi + 1) <= rows, and otherwise sliced from the full solve
    (_full).  Mode n's vector fills the first ``rows`` entries of row n of
    the packed coeffs (ChiSpectrum), and the block's LAPACK output is freed
    before the next block solves, so the two blocks' vectors are never held
    at once.  Raises TruncationError, naming the first mode whose last two
    coefficients carry mass above 1e-12.
    """
    b, d_all, e_all = diagonals
    b_up = sym_offdiag(alpha + 1.0, n_trunc + 2)
    chis = np.empty(n_max + 1)
    coeffs = np.zeros((n_max + 1, (n_trunc + 1) // 2))
    for parity in (0, 1):
        n_here = np.arange(parity, n_max + 1, 2)
        if n_here.size == 0:
            continue
        d, e = d_all[parity:n_trunc:2], e_all[parity:n_trunc - 2:2]
        if _SELECT_RATIO * n_here.size <= d.size:
            vals, vecs = _selected(d, e, n_here.size - 1)
            vecs[np.abs(vecs) < _CHOP] = 0.0
        else:
            vals, vecs = _full(d, e, n_here.size - 1)
        tail = vecs[-2] ** 2 + vecs[-1] ** 2
        if tail.max() > _TAIL_TOL:
            bad = np.flatnonzero(tail > _TAIL_TOL)[0]
            raise TruncationError(
                f"truncation N={n_trunc} too small for mode n={n_here[bad]} at "
                f"(alpha={alpha}, c={c}): trailing coefficient mass {tail[bad]:.3e}; "
                f"retry with n_trunc={2 * n_trunc}",
                required=2 * n_trunc,
            )
        # (-1)^(n//2) psi_n(0) > 0 for even n, (-1)^(n//2) psi_n'(0) > 0 for odd n;
        # a product with +-1 is exact
        at_zero = _sign_reference(alpha, (b, b_up)[parity], parity, vecs.shape[0]) @ vecs
        vecs *= np.where((at_zero < 0) != (n_here % 4 >= 2), -1.0, 1.0)
        chis[parity::2] = vals
        coeffs[parity::2, :vecs.shape[0]] = vecs.T
        del vals, vecs
    return ChiSpectrum(params=ProblemParams(alpha=alpha, c=c), n_max=n_max,
                       n_trunc=n_trunc, chis=chis, coeffs=coeffs,
                       operator=(b[:n_trunc + 3], b_up, d_all[:n_trunc + 2], e_all[:n_trunc]))


def chi_spectrum(params: ProblemParams, n_max: int, n_trunc: int | None = None) -> ChiSpectrum:
    """Solve for chi_0..chi_n_max and the eigenfunction coefficient vectors.

    Every call solves afresh; callers that need several modes at one
    (alpha, c) solve once for the largest and share the result.  A
    defaulted n_trunc is the basis past which every kept mode's coefficients
    are estimated below 1e-20 (_sized_diagonals), for chi up to _chi_bound.
    A solved chi_n_max above that estimate, which its tried range has not
    shown, sizes the basis again from chi_n_max itself, an upper bound on
    the exact one by Cauchy interlacing, and solves again.  Only the kept
    eigenpairs are computed when they are few against the basis size (see
    the module docstring): chi_spectrum(ProblemParams(0.5, 1e4), 5) finds 3
    eigenpairs in each of its two 544-row blocks (1,088 terms), and stores
    coefficients below 1e-30 in those vectors as 0.  Signs follow
    psi_n(1) > 0, fixed at x = 0 (module docstring).  Raises
    TruncationError, naming the first mode that fails, when a kept vector
    has trailing coefficient mass above 1e-12.  A defaulted n_trunc is
    retried once, at the basis size the error asks for, before it raises.
    n_max is an integer >= 0 and n_trunc one >= n_max + 3, neither a bool
    nor a float (ValueError naming it otherwise).
    """
    n_max = _count(n_max, "n_max")
    alpha, c = params.alpha, params.c
    if n_trunc is not None:
        n_trunc = _count(n_trunc, "n_trunc", n_max + 3)
        return _solve(alpha, c, n_max, n_trunc, _sturm_diagonals(alpha, c, n_trunc + 2))
    try:
        n_trunc, diagonals, chi_hi = _sized_diagonals(alpha, c, n_max)
        spec = _solve(alpha, c, n_max, n_trunc, diagonals)
        if spec.chis[-1] > chi_hi:
            n_trunc, diagonals, _ = _sized_diagonals(alpha, c, n_max, spec.chis[-1])
            spec = _solve(alpha, c, n_max, n_trunc, diagonals)
        return spec
    except TruncationError as exc:
        return _solve(alpha, c, n_max, exc.required, _sturm_diagonals(alpha, c, exc.required + 2))

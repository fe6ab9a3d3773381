"""Sturm-Liouville eigenproblem for the generalized prolate functions.

The differential operator commuting with the weighted finite Fourier
transform is discretized in the orthonormal symmetric-Jacobi basis
Ptilde_k^(alpha, alpha).  There the curvature part is diagonal with entries
k (k + 2 alpha + 1) and the c^2 x^2 potential couples k-2, k, k+2 through
the squared multiplication-by-x recurrence, so the operator splits into two
symmetric tridiagonal blocks (even and odd degrees).  Eigenvalues chi_n and
Jacobi coefficient vectors of the eigenfunctions psi_n come out of a
symmetric tridiagonal eigensolve per parity block.  One kernel builds a
block and solves windows of consecutive modes in it, each in one of two
ways: by bisection and inverse iteration on the window's eigenpairs alone
(LAPACK dstebz and dstein), or by the full divide-and-conquer solve
(dstevd), sliced.  Both call LAPACK directly (specfun._lapack), with the
routines and arguments scipy.linalg.eigh_tridiagonal would use, so the
results are bit-identical to it.  window_vectors always takes the first;
chi_spectrum takes it for a window of k modes in a block of R rows with
32 k <= R (c large, the window short) and the full solve otherwise.
chi_spectrum solves the window from mode 0 up to n_max in each block (a
block with no kept mode is not solved).  window_vectors solves the windows
of any list of modes at a batch of bandwidths, for callers such as the
explicit formula's tau integral that need only a few modes and no signs.

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
from dataclasses import dataclass

import numpy as np

from .specfun import (
    _lapack,
    jacobi_series_deriv_coeffs,
    jacobi_series_eval,
    sym_offdiag,
)


@dataclass(frozen=True)
class ProblemParams:
    """Weight exponent alpha and bandwidth c of the operator family."""

    alpha: float
    c: float

    def __post_init__(self):
        if not self.alpha > -1:
            raise ValueError(f"alpha must exceed -1, got {self.alpha}")
        if not self.c >= 0:
            raise ValueError(f"bandwidth c must be nonnegative, got {self.c}")


class TruncationError(RuntimeError):
    """Raised when the Jacobi basis is too short for the requested modes."""

    def __init__(self, msg: str, required: int):
        super().__init__(msg)
        self.required = required


def default_truncation(n_max: int, c: float) -> int:
    # coefficient decay is super-exponential past the turning region,
    # so a fixed margin beyond n_max + O(c) is ample
    return n_max + max(32, math.ceil(1.2 * c) + 10)


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
    """Eigenvalues chi_n and Jacobi coefficient vectors of psi_0..psi_n_max."""

    params: ProblemParams
    n_max: int
    n_trunc: int
    chis: np.ndarray     # shape (n_max+1,)
    coeffs: np.ndarray   # shape (n_max+1, n_trunc); opposite-parity rows are 0

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
        return self.spectrum.coeffs[self.n]

    def value(self, x):
        return jacobi_series_eval(self.coeffs, self.params.alpha, x)

    def derivative(self, x):
        a = self.params.alpha
        return jacobi_series_eval(jacobi_series_deriv_coeffs(self.coeffs, a), a + 1.0, x)

    def second_derivative(self, x):
        a = self.params.alpha
        d2 = jacobi_series_deriv_coeffs(jacobi_series_deriv_coeffs(self.coeffs, a), a + 1.0)
        return jacobi_series_eval(d2, a + 2.0, x)


def ode_residual(f: GpswfFunction, x, chi: float | None = None):
    """Left-hand side of (1-x^2) psi'' - 2(alpha+1) x psi' + (chi - c^2 x^2) psi.

    Vanishes (to solver accuracy) at the computed chi; a perturbed chi makes
    it grow, which is the diagnostic use.
    """
    p = f.params
    chi_val = f.chi if chi is None else chi
    arr = np.asarray(x, dtype=float)
    val = f.value(arr)
    d1 = f.derivative(arr)
    d2 = f.second_derivative(arr)
    out = (1.0 - arr * arr) * d2 - 2.0 * (p.alpha + 1.0) * arr * d1 \
        + (chi_val - p.c ** 2 * arr * arr) * val
    return out if np.ndim(x) else float(out)


_TAIL_TOL = 1e-12
# Which solve chi_spectrum's window of k modes in a block of R rows takes.
# When 32 k <= R, the k eigenpairs alone, by bisection and inverse iteration
# (_selected): that beats the full solve (_full) there and loses to it
# somewhere between k = 0.03 R and k = 0.1 R.  window_vectors takes _selected
# for every window.
_SELECT_RATIO = 32
# Inverse-iteration vectors (unit norm) carry ~1e-45 rounding where the full
# solver returns exact zeros; zeroing it lets the Clenshaw pass skip the tail.
_CHOP = 1e-30


def _sign_reference(alpha: float, b: np.ndarray, parity: int, rows: int) -> np.ndarray:
    """Ptilde_{2m}(0) (even block) or Ptilde_{2m+1}'(0) (odd block), m < rows, times sqrt(H).

    H = total_mass(alpha) on the even block and total_mass(alpha + 1) on the
    odd one, so the m = 0 entry is 1 or sqrt(2 alpha + 2); mu_eigenrelation
    divides these factors out.  At x = 0 the recurrence gives
    Ptilde_{k+1}(0) = -b_k / b_{k+1} Ptilde_{k-1}(0), and
    Ptilde_k' = sqrt(k (k + 2 alpha + 1)) Ptilde_{k-1}^(alpha+1); ``b`` holds
    the offdiagonals for ``alpha``.
    """
    if parity:
        k = np.arange(1, 2 * rows, 2, dtype=float)
        return np.sqrt(k * (k + 2 * alpha + 1)) * _sign_reference(
            alpha + 1.0, sym_offdiag(alpha + 1.0, 2 * rows), 0, rows)
    return np.concatenate(([1.0], np.cumprod(-b[1:2 * rows - 1:2] / b[2:2 * rows - 1:2])))


def _selected(d: np.ndarray, e: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs lo..hi, ascending, of the symmetric tridiagonal (d, e).

    LAPACK's bisection (dstebz) and inverse iteration (dstein), called as
    eigh_tridiagonal(d, e, select="i", select_range=(lo, hi)) calls them, so
    the result is bit-identical to it, through specfun._lapack, without the
    wrapper's own cost (about half the time of a 30-row solve).
    """
    m, w, iblock, isplit = _lapack("dstebz", d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "B")
    [vecs] = _lapack("dstein", d, e, w[:m], iblock, isplit)
    order = np.argsort(w[:m])
    return w[:m][order], vecs[:, order]


def _full(d: np.ndarray, e: np.ndarray, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs lo..hi, ascending, sliced from the full solve.

    LAPACK's divide and conquer (dstevd), the routine eigh_tridiagonal(d, e)
    calls, so the result is bit-identical to it, through specfun._lapack.
    """
    vals, vecs = _lapack("dstevd", d, e)
    return vals[lo:hi + 1], vecs[:, lo:hi + 1]


def _block(alpha: float, c: float, b: np.ndarray, parity: int, runs, n_trunc: int,
           wide) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenpairs j = lo..hi of one parity block, modes n = 2 j + parity, per (lo, hi) in runs.

    The block, built once, has rows for the degrees parity, parity + 2, ...
    below n_trunc; ``b`` holds sym_offdiag(alpha, m) for some m >= n_trunc
    (its entries do not depend on m).  Returns each window's chi and its
    vectors as columns over the block's own degrees, signs as the solver
    gives them.  A window is solved alone (_selected) when
    32 (hi - lo + 1) <= rows, and otherwise by ``wide`` (_full in
    chi_spectrum, _selected in window_vectors); inverse-iteration vectors
    have entries below 1e-30 set to 0.  Raises TruncationError, naming the
    first mode whose last two coefficients carry mass above 1e-12.
    """
    # b_k and b_(k+1) for the block's degrees k, as strided views of b
    k = np.arange(parity, n_trunc, 2, dtype=float)
    b_k, b_k1 = b[parity:n_trunc:2], b[parity + 1:n_trunc + 1:2]
    d = k * (k + 2 * alpha + 1) + c * c * (b_k ** 2 + b_k1 ** 2)
    e = c * c * b_k1[:-1] * b_k[1:]
    pairs = []
    for lo, hi in runs:
        solve = _selected if _SELECT_RATIO * (hi - lo + 1) <= d.size else wide
        vals, vecs = solve(d, e, lo, hi)
        if solve is not _full:
            vecs[np.abs(vecs) < _CHOP] = 0.0
        tail = vecs[-2] ** 2 + vecs[-1] ** 2
        bad = np.flatnonzero(tail > _TAIL_TOL)
        if bad.size:
            n, mass = 2 * (lo + bad[0]) + parity, tail[bad[0]]
            raise TruncationError(
                f"truncation N={n_trunc} too small for mode n={n} at "
                f"(alpha={alpha}, c={c}): trailing coefficient mass {mass:.3e}; "
                f"retry with n_trunc={2 * n_trunc}",
                required=2 * n_trunc,
            )
        pairs.append((vals, vecs))
    return pairs


def _solve(alpha: float, c: float, n_max: int, n_trunc: int) -> ChiSpectrum:
    b = sym_offdiag(alpha, n_trunc + 1)
    chis = np.empty(n_max + 1)
    coeffs = np.zeros((n_max + 1, n_trunc))
    for parity in (0, 1):
        n_here = np.arange(parity, n_max + 1, 2)
        if n_here.size == 0:
            continue
        [(vals, vecs)] = _block(alpha, c, b, parity, [(0, n_here.size - 1)], n_trunc, _full)
        # (-1)^(n//2) psi_n(0) > 0 for even n, (-1)^(n//2) psi_n'(0) > 0 for odd n
        at_zero = _sign_reference(alpha, b, parity, vecs.shape[0]) @ vecs
        vecs[:, (at_zero < 0) != (n_here % 4 >= 2)] *= -1.0
        chis[n_here] = vals
        coeffs[n_here, parity::2] = vecs.T
    return ChiSpectrum(params=ProblemParams(alpha=alpha, c=c), n_max=n_max,
                       n_trunc=n_trunc, chis=chis, coeffs=coeffs)


def _at_default_basis(solve, n_max: int, c: float):
    """solve(n_trunc) at default_truncation(n_max, c), retried once at the
    basis size a TruncationError asks for."""
    try:
        return solve(default_truncation(n_max, c))
    except TruncationError as exc:
        return solve(exc.required)


def window_vectors(alpha: float, cs, modes, n_max: int | None = None) -> list[np.ndarray]:
    """Unsigned eigenvectors of the given modes at each bandwidth in cs.

    The modes, in any order and with repeats, are cut once into windows, one
    per run of consecutive modes 2 j + parity in a parity block.  At each c
    every window is solved alone (_block), by bisection and inverse
    iteration, in the basis of chi_spectrum(ProblemParams(alpha, c), n_max),
    retried once as there; n_max is the largest mode unless given (a caller
    that solves fewer modes as it goes keeps one basis by passing it).
    Returns vecs: vecs[parity][i, k] is the vector, over the block's own
    degrees parity, parity + 2, ..., of the k-th mode of that parity in
    modes at cs[i], zero-padded to the widest basis.  These are the
    eigenvectors that chi_spectrum computes, without its sign fixing.
    Solved alone, the vectors keep their small coefficients to rounding,
    where the full solve's (divide and conquer) can be ~1e-14 off, which
    moves F_n by up to ~1e-13 relative (2.3e-12 at (alpha, c, n) =
    (-0.9, 9.96, 5) in the basis of n_max = 101, against 40-digit vectors).
    Raises TruncationError as chi_spectrum does, on the requested modes only.
    """
    modes = np.asarray(modes)
    if n_max is None:
        n_max = int(modes.max())
    # per parity present: its runs (lo, hi) of consecutive j, and its modes'
    # columns in the runs laid side by side
    parts = []
    for parity in (0, 1):
        j = modes[modes % 2 == parity] // 2
        if j.size:
            js = np.unique(j)
            runs = np.split(js, np.flatnonzero(np.diff(js) > 1) + 1)
            parts.append((parity, [(int(r[0]), int(r[-1])) for r in runs], np.searchsorted(js, j)))
    # long enough for the widest basis retried (default_truncation grows with c)
    b = sym_offdiag(alpha, 2 * default_truncation(n_max, np.max(cs)) + 1)

    def solve(c, n_trunc):
        # per part, its modes' vectors at c as rows, in the order given
        out = []
        for parity, runs, cols in parts:
            pairs = _block(alpha, c, b, parity, runs, n_trunc, _selected)
            out.append(np.concatenate([v for _, v in pairs], axis=1)[:, cols].T)
        return out

    solved = [_at_default_basis(lambda n_trunc: solve(c, n_trunc), n_max, c) for c in cs]
    vecs = [np.zeros((len(cs), 0, 0)) for _ in (0, 1)]
    for p, (parity, _, cols) in enumerate(parts):
        rows = [at_c[p] for at_c in solved]
        vecs[parity] = np.zeros((len(cs), cols.size, max(r.shape[1] for r in rows)))
        for i, r in enumerate(rows):
            vecs[parity][i, :, :r.shape[1]] = r
    return vecs


def chi_spectrum(params: ProblemParams, n_max: int, n_trunc: int | None = None) -> ChiSpectrum:
    """Solve for chi_0..chi_n_max and the eigenfunction coefficient vectors.

    Every call solves afresh; callers that need several modes at one
    (alpha, c) solve once for the largest and share the result.  Only the
    kept eigenpairs are computed when they are few against the basis size
    (see the module docstring): chi_spectrum(ProblemParams(0.5, 1e4), 5)
    finds 3 eigenpairs in each of its two ~6,000-row blocks, and stores
    coefficients below 1e-30 in those vectors as 0.  Signs follow
    psi_n(1) > 0, fixed at x = 0 (module docstring).  Raises
    TruncationError, naming the first mode that fails, when a kept vector
    has trailing coefficient mass above 1e-12.  A defaulted n_trunc is
    retried once, at the basis size the error asks for, before it raises.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_trunc is None:
        return _at_default_basis(lambda n: _solve(params.alpha, params.c, n_max, n),
                                 n_max, params.c)
    if n_trunc < n_max + 3:
        raise ValueError(f"n_trunc={n_trunc} too small for n_max={n_max}")
    return _solve(params.alpha, params.c, n_max, n_trunc)

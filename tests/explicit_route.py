"""The explicit product formula for mu_n: the reference the ratio route is tested against.

mu_n = i^n sqrt(pi) Gamma-ratio c^n exp(Phi_n), Phi_n = int_0^c (F_n(tau) - n)/tau dtau,
in log space (log_mu_magnitude), over tau in (0, c]: independent of the ratio
route's one solve at c.  No library path calls it.  Also jacobi_h, the norm
that turns scipy's eval_jacobi into the orthonormal Ptilde_n.
"""

import math

import numpy as np
from scipy import special as sp
from scipy.linalg import eigh_tridiagonal

from gpswf import spectrum
from gpswf.specfun import sym_offdiag, total_mass
from gpswf.sturm import ProblemParams, default_truncation


def jacobi_h(n, alpha: float):
    """Squared weighted L2 norm h_n of P_n^(alpha, alpha); n an int or an array.

    Computed in log space so it stays finite for degrees far beyond the
    overflow point of the Gamma function.  Degree 0 is total_mass(alpha),
    which stays finite where the general form is 0/0 (alpha = -1/2).
    """
    a = float(alpha)
    k = np.asarray(n, dtype=float)
    g = sp.gammaln(k + a + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_h = ((a + a + 1) * math.log(2.0) + g + g + np.log(k + a + a + 1) - sp.gammaln(k + 1)
                 - np.log(2 * k + a + a + 1) - sp.gammaln(k + a + a + 2))
    h = np.where(k == 0, total_mass(a), np.exp(log_h))
    return float(h) if np.ndim(n) == 0 else h


def window_vectors(alpha: float, taus, modes, n_max: int | None = None) -> list[np.ndarray]:
    """Unsigned eigenvectors of the given ascending, distinct modes at each tau.

    At each tau the basis is chi_spectrum's default for n_max (by default the
    largest mode), and each run of consecutive modes 2 j + parity of a parity
    block is one window, solved alone by eigh_tridiagonal(select="i");
    entries below 1e-30 are set to 0, as chi_spectrum does for such a solve.
    Returns vecs: vecs[parity][i, k] is the vector, over the block's own
    degrees parity, parity + 2, ..., of the k-th mode of that parity at
    taus[i], zero-padded to the widest basis.  A vector whose last two
    coefficients carry mass above 1e-12 raises RuntimeError.
    """
    modes = np.asarray(modes)
    if not np.all(np.diff(modes) > 0):
        raise ValueError(f"modes must be ascending and distinct, got {modes}")
    n_max = int(modes.max()) if n_max is None else n_max
    widest = default_truncation(n_max, np.max(taus))
    b = sym_offdiag(alpha, widest + 1)
    out = [np.zeros((len(taus), 0, 0)) for _ in (0, 1)]
    # per parity present: its runs of consecutive j, one window each
    runs = {}
    for parity in (0, 1):
        j = modes[modes % 2 == parity] // 2
        if j.size:
            runs[parity] = np.split(j, np.flatnonzero(np.diff(j) > 1) + 1)
            out[parity] = np.zeros((len(taus), j.size, len(range(parity, widest, 2))))
    for i, tau in enumerate(taus):
        n_trunc = default_truncation(n_max, tau)
        for parity, windows in runs.items():
            k = np.arange(parity, n_trunc, 2, dtype=float)
            b_k, b_k1 = b[parity:n_trunc:2], b[parity + 1:n_trunc + 1:2]
            d = k * (k + 2 * alpha + 1) + tau * tau * (b_k ** 2 + b_k1 ** 2)
            e = tau * tau * b_k1[:-1] * b_k[1:]
            vecs = np.concatenate([eigh_tridiagonal(d, e, select="i", select_range=(w[0], w[-1]),
                                                    check_finite=False)[1]
                                   for w in windows], axis=1)
            vecs[np.abs(vecs) < 1e-30] = 0.0
            if not np.all(vecs[-2] ** 2 + vecs[-1] ** 2 <= 1e-12):
                raise RuntimeError(f"basis of {n_trunc} terms too short at {alpha=}, {tau=}")
            out[parity][i, :, :k.size] = vecs.T
    return out


# QUADPACK's qk15 rule on [-1, 1] (Piessens et al., 1983): the 15 Kronrod
# nodes, ascending, with their weights; the 7 Gauss nodes are every second one
_GK_NODES = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144838258730, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329])
_GK_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970])
_G_WEIGHTS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082])
# a mode's Phi_n is accepted once its summed estimate above the rounding floor
# is at most _PHI_TOL max(1, |log |mu_n||); a mode needing more than
# _MAX_PANELS panels is refused
_PHI_TOL = 1e-13
_MAX_PANELS = 256


def _phi_integrand(params: ProblemParams, modes: np.ndarray, taus: np.ndarray,
                   n_max: int | None = None) -> np.ndarray:
    """(F_n(tau) - n) / tau, rows over taus > 0 and columns over the ascending modes.

    At each tau only the requested modes' vectors are solved (window_vectors,
    in the basis chi_spectrum would use for n_max, by default the largest
    n); no chi is read.  F_n is quadratic in psi_n, so the vectors need no
    sign fixing, and the zero padding to the widest basis leaves it
    unchanged.  The rows of every tau then share one banded F_n solve per
    parity.
    """
    vecs = window_vectors(params.alpha, taus, modes, n_max)
    shifted = np.empty((taus.size, modes.size))
    for parity in (0, 1):
        own = modes % 2 == parity
        if own.any():
            shifted[:, own] = spectrum._f_n_rows(params.alpha, parity, vecs[parity], modes[own])
    return shifted / taus[:, None]


def _gk15(f: np.ndarray, half: np.ndarray):
    """QUADPACK qk15 value, error estimate and rounding floor per panel and mode.

    f[p, i, m] is the integrand of mode m at Kronrod node i of panel p, whose
    half-width is half[p].  The estimate is |K15 - G7| scaled as QUADPACK
    does, resasc min(1, (200 |K15 - G7| / resasc)^1.5), which discounts a
    difference at the rounding level of smooth values, and it is never below
    the rounding floor 50 eps resabs, resabs the rule applied to |f|.
    """
    h = half[:, None]
    kron = np.einsum("i,pim->pm", _GK_WEIGHTS, f)
    gauss = np.einsum("i,pim->pm", _G_WEIGHTS, f[:, 1::2])
    resabs = h * np.einsum("i,pim->pm", _GK_WEIGHTS, np.abs(f))
    resasc = h * np.einsum("i,pim->pm", _GK_WEIGHTS, np.abs(f - 0.5 * kron[:, None]))
    err = h * np.abs(kron - gauss)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0) & (err != 0), scaled, err)
    floor = 50.0 * np.finfo(float).eps * resabs
    return h * kron, np.maximum(err, floor), floor


def _log_mu_with_error(params: ProblemParams, n):
    """log |mu_n| and the estimate of its error, both shaped as n (one or ascending indices).

    Phi_n is integrated on adaptive Gauss-Kronrod panels (QUADPACK's G7/K15
    pair) of [0, c], starting from one.  A mode is accepted once the sum of
    its panel estimates, less the sum of their rounding floors
    50 eps int |integrand|, is at most 1e-13 max(1, |log |mu_n||); until then
    it bisects each of its own panels whose estimate above the floor exceeds
    that panel's width's share of the tolerance.  Each round evaluates the 15
    nodes of every new panel for every open mode as one batch.  One panel is
    enough on the decay window (n >= e c/2); a low mode at large c has a knee
    where tau^2 = chi_n(tau) and takes more.  More than 256 panels, or a
    non-finite value, raises RuntimeError naming the mode.
    """
    a, c = params.alpha, params.c
    if c <= 0:
        raise ValueError("the explicit formula requires c > 0")
    ns = np.asarray(n)
    modes = ns.reshape(-1)
    k = modes.astype(float)
    # Gamma(k + 2a + 1) / Gamma(2k + 2a + 1) is 1 at k = 0, so both terms
    # drop out there; their logs are inf - inf at a = -1/2
    at_zero = k == 0
    base = (0.5 * math.log(math.pi)
            + sp.gammaln(k + a + 1.0)
            + np.where(at_zero, 0.0, sp.gammaln(k + 2 * a + 1.0))
            - sp.gammaln(k + a + 1.5)
            - np.where(at_zero, 0.0, sp.gammaln(2 * k + 2 * a + 1.0))
            + k * math.log(c))
    out, est = np.empty(modes.size), np.empty(modes.size)
    open_ = np.ones(modes.size, dtype=bool)
    # every panel evaluated so far, and leaf[p, m]: panel p is one of mode m's
    # panels; a mode's panels partition [0, c], and it splits only its own
    lo, hi = np.empty(0), np.empty(0)
    value, error, floor = (np.empty((0, modes.size)) for _ in range(3))
    leaf = np.empty((0, modes.size), dtype=bool)
    new_lo, new_hi = np.array([0.0]), np.array([c])
    new_leaf = np.ones((1, modes.size), dtype=bool)
    while True:
        half, mid = 0.5 * (new_hi - new_lo), 0.5 * (new_hi + new_lo)
        taus = (mid[:, None] + half[:, None] * _GK_NODES).reshape(-1)
        f = np.zeros((taus.size, modes.size))
        # in the basis of the largest requested mode throughout, so that a
        # mode's integrand does not change as other modes are accepted
        f[:, open_] = _phi_integrand(params, modes[open_], taus, int(modes.max()))
        if not np.all(np.isfinite(f)):
            raise RuntimeError(f"log |mu_n| is not finite at {params}, n = {n}")
        v, e, r = _gk15(f.reshape(new_lo.size, _GK_NODES.size, modes.size), half)
        lo, hi = np.concatenate([lo, new_lo]), np.concatenate([hi, new_hi])
        value, error, floor, leaf = (np.concatenate(pair) for pair in
                                     ((value, v), (error, e), (floor, r), (leaf, new_leaf)))
        log_mu = base + np.sum(value, axis=0, where=leaf)
        total = np.sum(error, axis=0, where=leaf)
        # bisection cannot take an estimate below its rounding floor, so
        # only the part above the floor is held to the tolerance
        above = error - floor
        tol = _PHI_TOL * np.maximum(1.0, np.abs(log_mu))
        done = open_ & (np.sum(above, axis=0, where=leaf) <= tol)
        out[done], est[done] = log_mu[done], total[done]
        open_ &= ~done
        if not open_.any():
            break
        # each open mode splits its panels whose estimate above the floor
        # exceeds their width's share of the tolerance; at least one does,
        # as the shares sum to the tolerance
        split = leaf & open_ & (above > tol * ((hi - lo) / c)[:, None])
        count = np.count_nonzero(leaf, axis=0) + np.count_nonzero(split, axis=0)
        if np.any(count > _MAX_PANELS):
            worst = np.flatnonzero(count > _MAX_PANELS)[0]
            raise RuntimeError(
                f"Phi_n integral for mode n = {modes[worst]} at {params} did not "
                f"converge on {_MAX_PANELS} panels: error estimate {total[worst]:.3e} "
                f"above the tolerance {tol[worst]:.3e}")
        parents = np.flatnonzero(split.any(axis=1))
        centre = 0.5 * (lo[parents] + hi[parents])
        new_lo = np.concatenate([lo[parents], centre])
        new_hi = np.concatenate([centre, hi[parents]])
        new_leaf = np.concatenate([split[parents], split[parents]])
        leaf &= ~split
    if not np.all(np.isfinite(out)):
        raise RuntimeError(f"log |mu_n| is not finite at {params}, n = {n}")
    if ns.ndim:
        return out.reshape(ns.shape), est.reshape(ns.shape)
    return float(out[0]), float(est[0])


def log_mu_magnitude(params: ProblemParams, n):
    """log |mu_n| from the explicit product formula (_log_mu_with_error's value)."""
    return _log_mu_with_error(params, n)[0]


def log_lambda_explicit(params: ProblemParams, n):
    """log lambda_n via lambda = (c/2pi) |mu_n|^2 in log space; n may be an array.

    log |mu_n|'s Gauss-Kronrod estimate less its rounding floor is at most
    1e-13 max(1, |log |mu_n||), so log lambda_n's is at most twice that.
    """
    return math.log(params.c / (2.0 * math.pi)) + 2.0 * log_mu_magnitude(params, n)

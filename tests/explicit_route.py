"""The tests' oracle: the explicit product formula, F_n and the eigen-relation for mu_n.

mu_n = i^n sqrt(pi) Gamma-ratio c^n exp(Phi_n), Phi_n = int_0^c (F_n(tau) - n)/tau dtau,
in log space (log_mu_magnitude), over tau in (0, c]: the reference the ratio
route is tested against, independent of its one solve at c.  The moment
F_n = int x psi_n psi_n' (1-x^2)^alpha dx (f_n_moment, _f_n_rows) is the
integrand's source, and the eigen-relation F_c psi_n = mu_n psi_n at x = 0
(mu_eigenrelation) a second cross-check for every mode.  No library path
calls any of them, and, as references, they do not validate mode indices.
Also jacobi_h, the norm that turns scipy's eval_jacobi into the orthonormal
Ptilde_n.
"""

import math

import numpy as np
from scipy import special as sp

from gpswf.specfun import _lapack, sym_offdiag, total_mass
from gpswf.spectrum import _connect, _connection_tables
from gpswf.sturm import ChiSpectrum, ProblemParams, _sign_reference, _sized_diagonals


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


def _window(d: np.ndarray, e: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Eigenvectors lo..hi, ascending, of the symmetric tridiagonal (d, e).

    LAPACK's bisection (dstebz) and inverse iteration (dstein) on il..iu =
    lo + 1..hi + 1, the calls eigh_tridiagonal(d, e, select="i",
    select_range=(lo, hi)) makes, so the vectors are bit-identical to its,
    through specfun._lapack as sturm._selected calls them.  Bisection is most
    of the cost (240 of 323 us for modes 0..9 of a 75-row block); the
    wrapper's own checks were 1.4-3.6 % of an oracle call.
    """
    m, w, iblock, isplit = _lapack("dstebz", d, e, 2, 0.0, 1.0, lo + 1, hi + 1, 0.0, "B")
    [vecs] = _lapack("dstein", d, e, w[:m], iblock, isplit)
    return vecs[:, np.argsort(w[:m])]


def window_vectors(alpha: float, taus, modes, n_max: int | None = None) -> list[np.ndarray]:
    """Unsigned eigenvectors of the given ascending, distinct modes at each tau.

    At each tau the basis is chi_spectrum's default for n_max (by default the
    largest mode), as sized before its solve (sturm._sized_diagonals), and
    each run of consecutive modes 2 j + parity of a parity block is one
    window, solved alone by bisection and inverse iteration;
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
    sizes = [_sized_diagonals(alpha, tau, n_max)[0] for tau in taus]
    widest = max(sizes)
    b = sym_offdiag(alpha, widest + 1)
    out = [np.zeros((len(taus), 0, 0)) for _ in (0, 1)]
    # per parity present: its runs of consecutive j, one window each
    runs = {}
    for parity in (0, 1):
        j = modes[modes % 2 == parity] // 2
        if j.size:
            runs[parity] = np.split(j, np.flatnonzero(np.diff(j) > 1) + 1)
            out[parity] = np.zeros((len(taus), j.size, len(range(parity, widest, 2))))
    for i, (tau, n_trunc) in enumerate(zip(taus, sizes)):
        for parity, windows in runs.items():
            k = np.arange(parity, n_trunc, 2, dtype=float)
            b_k, b_k1 = b[parity:n_trunc:2], b[parity + 1:n_trunc + 1:2]
            d = k * (k + 2 * alpha + 1) + tau * tau * (b_k ** 2 + b_k1 ** 2)
            e = tau * tau * b_k1[:-1] * b_k[1:]
            vecs = np.concatenate([_window(d, e, w[0], w[-1]) for w in windows], axis=1)
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


def _f_n_rows(alpha: float, parity: int, rows: np.ndarray, n) -> np.ndarray:
    """F_n - n, F_n = int x psi_n psi_n' (1-x^2)^alpha dx, for a stack of psi_n of one parity.

    rows[..., i] is the coefficient of Ptilde_(2i + parity), so every row is
    in that parity's own columns, and n (broadcast against rows[..., 0]) is
    each row's mode.  x psi_n' has coefficients e in the Ptilde^(alpha+1)
    basis, which the library's _connect turns into alpha-basis coefficients
    g; then F_n = psi_n . g.  The degree-k part of e is k p_k psi_k, so
    g = k psi + B^-1 r with r the rest of e - B (k psi), and
    F_n - n |psi_n|^2 = sum (k - n) psi_k^2 + psi_n . B^-1 r.  That form has
    no cancellation: at c = 0 it is exactly 0, and it stays O(c^2) with no
    rounding offset as c -> 0, which the explicit formula's (F_n - n)/tau
    needs.
    """
    m = np.arange(parity, parity + 2 * rows.shape[-1], 2)
    top = int(m[-1])
    _, _, p, q = _connection_tables(alpha, top)
    b_up = sym_offdiag(alpha + 1.0, top)
    # psi' has coefficient psi_k sqrt(k (k + 2 alpha + 1)) on
    # Ptilde^(alpha+1)_(k-1), and x Ptilde_j = b_(j+1) Ptilde_(j+1) + b_j Ptilde_(j-1):
    # beyond its degree-k part, x psi' puts b_(k-1) times that on degree k - 2
    r = np.zeros_like(rows)
    r[..., :-1] = (b_up[m[1:] - 1] * np.sqrt(m[1:] * (m[1:] + 2 * alpha + 1))
                   - q[m[1:]] * m[1:]) * rows[..., 1:]
    h = _connect(p, q, parity, r)
    return (np.sum((m - np.asarray(n, dtype=float)[..., None]) * rows ** 2, axis=-1)
            + np.sum(rows * h, axis=-1))


def f_n_moment(spectrum: ChiSpectrum, n):
    """Moment F_n(c, alpha) = int x psi_n psi_n' (1-x^2)^alpha dx of the solved psi_n.

    Equals n at c = 0.  n is a mode index or an array of them (an array
    gives an array).  Computed from the Jacobi coefficients alone, by one
    banded connection solve per parity (_f_n_rows).
    """
    ns = np.asarray(n)
    modes = ns.reshape(-1)
    out = np.empty(modes.size)
    for parity in (0, 1):
        own = modes % 2 == parity
        if own.any():
            # psi_n's packed rows, on its degrees below n_trunc
            width = (spectrum.n_trunc - parity + 1) // 2
            out[own] = modes[own] + _f_n_rows(spectrum.params.alpha, parity,
                                              spectrum.coeffs[modes[own], :width], modes[own])
    return out.reshape(ns.shape) if ns.ndim else float(out[0])


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
            shifted[:, own] = _f_n_rows(params.alpha, parity, vecs[parity], modes[own])
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


def mu_eigenrelation(spectrum: ChiSpectrum, n):
    """mu_n from the eigen-relation F_c psi_n = mu_n psi_n at x = 0.

    At 0 the transform of psi_n is c_0 sqrt(h_0), h_0 = total_mass(alpha),
    and its x-derivative i c c_1 b_1 sqrt(h_0), so mu_n is that over psi_n(0)
    (even n) or psi_n'(0) (odd n): one dot product of the mode's own
    coefficients with sturm's sign reference, no Bessel function and no
    Clenshaw pass.  n is a mode index or an array of them (an array gives a
    complex array of its shape, each value bit-identical to the one-mode
    call); mode 0 is the library's log_mu_ratio anchor, the same double.  At
    c = 0, F_c has rank one and mu_n = 0 exactly for n >= 1, which is
    returned.  Otherwise a zero or non-finite psi_n(0), psi_n'(0) or mu_n is
    refused with RuntimeError naming the mode (a zero mu_n is an underflow
    deep in the decay).  The relative error grows as mu_n decays, to 1.1e-5
    at mode 89 of (alpha, c) = (0, 100) against i^n exp(log_mu_ratio).
    """
    ns = np.asarray(n)
    params, a = spectrum.params, spectrum.params.alpha
    modes = ns.reshape(-1)
    size = spectrum.n_trunc
    b = sym_offdiag(a, 2 * ((size + 1) // 2))
    refs = {parity: _sign_reference(a, b, parity, (size - parity + 1) // 2)
            for parity in set((modes % 2).tolist())}
    # the references carry sqrt(total_mass) of alpha (even) and alpha + 1 (odd)
    h_0 = total_mass(a)
    scale = (h_0, params.c * b[1] * math.sqrt(h_0 * total_mass(a + 1.0)))
    mus = np.empty(modes.size, dtype=complex)
    for i, m in enumerate(modes.tolist()):
        if m and params.c == 0:
            mus[i] = 0.0
            continue
        # a stride-2 slice of the full-degree row, as the library's anchor reads psi_0
        row = spectrum.eigenfunction(m).coeffs[m % 2::2]
        at_zero = np.dot(row, refs[m % 2])
        mu = row[0] * scale[m % 2] / at_zero if at_zero != 0 else at_zero
        if not (mu != 0 and math.isfinite(mu)):
            what = (f"mu_{m}" if at_zero != 0 and math.isfinite(at_zero)
                    else f"psi_{m}'(0)" if m % 2 else f"psi_{m}(0)")
            raise RuntimeError(f"eigen-relation failed for mode n = {m} at {params}: "
                               f"{what} is zero or not finite")
        mus[i] = complex(0.0, mu) if m % 2 else complex(mu, 0.0)
    return mus.reshape(ns.shape) if ns.ndim else complex(mus[0])

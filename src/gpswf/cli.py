"""Command-line front end: deterministic tables as CSV (RFC 4180) or JSON.

Subcommands
    chi            eigenvalues chi_n with their bracket bounds
    eigenfunction  psi_n, psi_n' and the ODE residual on a grid
    approx         Bessel- or Jacobi-form approximation report
    spectrum       lambda/mu table, trace check, counting sandwich, decay slope

Exit codes: 0 success, 1 property violation (bracket/envelope/instability),
2 usage error.  Identical invocations produce byte-identical output files;
floats are emitted with 17 significant digits so they round-trip exactly.
GPSWF_THREADS caps BLAS worker threads.  The cap is applied when the
``gpswf`` package is imported, which for the CLI is always before numpy is
loaded; ``main`` only turns a non-integer value into a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

from . import _apply_thread_cap

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(SystemExit):
    def __init__(self, msg: str):
        print(f"error: {msg}", file=sys.stderr)
        super().__init__(EXIT_USAGE)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return ""
    return f"{value:.17g}"


def _check_finite(rows, summary):
    for row in rows:
        for v in row:
            if isinstance(v, float) and not math.isfinite(v):
                return False
    for v in summary.values():
        if isinstance(v, float) and not math.isfinite(v):
            return False
    return True


def _emit(columns, rows, summary, config, fmt: str, out: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\r\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
        text = buf.getvalue()
    else:
        payload = {
            "config": config,
            "columns": list(columns),
            "rows": [[(float(v) if isinstance(v, float) else v) for v in row]
                     for row in rows],
            "summary": summary,
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _common_config(args) -> dict:
    cfg = {}
    for key in ("alpha", "c", "n", "n_max", "grid", "quad", "q0", "delta",
                "kind", "format"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _cmd_chi(args) -> int:
    from .sturm import ProblemParams, chi_spectrum

    params = ProblemParams(alpha=args.alpha, c=args.c)
    spec = chi_spectrum(params, args.n_max)
    columns = ["n [index]", "chi [dimensionless]",
               "lower_bound [dimensionless]", "upper_bound [dimensionless]"]
    rows, violated = [], False
    for n in range(args.n_max + 1):
        lo = n * (n + 2 * args.alpha + 1)
        hi = lo + args.c ** 2
        chi = spec.chi(n)
        ok = lo <= chi <= hi
        violated |= not ok
        rows.append([n, chi, lo, hi])
    summary = {"bracket_violated": violated, "n_trunc": spec.n_trunc}
    if not _check_finite(rows, summary):
        return EXIT_VIOLATION
    _emit(columns, rows, summary, _common_config(args), args.format, args.out)
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_eigenfunction(args) -> int:
    import numpy as np

    from .sturm import ProblemParams, chi_spectrum, ode_residual

    if args.n is None:
        raise UsageError("eigenfunction requires --n")
    params = ProblemParams(alpha=args.alpha, c=args.c)
    spec = chi_spectrum(params, args.n)
    f = spec.eigenfunction(args.n)
    xs = np.linspace(-1.0, 1.0, args.grid)
    vals = f.value(xs)
    ders = f.derivative(xs)
    res = ode_residual(f, xs)
    columns = ["x [dimensionless]", "psi [dimensionless]",
               "dpsi_dx [dimensionless]", "ode_residual [dimensionless]"]
    rows = [[float(x), float(v), float(d), float(r)]
            for x, v, d, r in zip(xs, vals, ders, res)]
    summary = {"chi": spec.chi(args.n), "max_abs_residual": float(np.max(np.abs(res)))}
    if not _check_finite(rows, summary):
        return EXIT_VIOLATION
    _emit(columns, rows, summary, _common_config(args), args.format, args.out)
    return EXIT_OK


def _cmd_approx(args) -> int:
    import numpy as np

    from .approx import bessel_report, jacobi_report
    from .sturm import ProblemParams, chi_spectrum

    if args.n is None:
        raise UsageError("approx requires --n")
    if args.kind == "jacobi" and not 0.0 < args.alpha < 1.5:
        raise UsageError("alpha must lie in (0,3/2) for --kind jacobi")
    params = ProblemParams(alpha=args.alpha, c=args.c)
    spec = chi_spectrum(params, args.n)
    try:
        if args.kind == "bessel":
            from .approx import default_grid
            rep = bessel_report(spec, args.n, grid=default_grid(args.grid))
        else:
            from .approx import symmetric_grid
            rep = jacobi_report(spec, args.n, grid=symmetric_grid(args.grid), q0=args.q0)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    columns = ["x [dimensionless]", "approximation [dimensionless]",
               "reference [dimensionless]", "envelope [dimensionless]",
               "abs_error [dimensionless]"]
    rows = [[float(x), float(a), float(r), float(e), float(abs(a - r))]
            for x, a, r, e in zip(rep.grid, rep.approx, rep.reference, rep.envelope)]
    summary = {
        "chi": rep.chi,
        "q": params.c ** 2 / rep.chi,
        "sup_error": rep.sup_error,
        "sup_envelope": rep.sup_envelope,
        "envelope_violated": rep.envelope_violated,
        "a_n": rep.a_n,
        "scaled_error": rep.scaled_error,
        "a_n_scaled": rep.a_n_scaled,
    }
    if not _check_finite(rows, summary):
        return EXIT_VIOLATION
    _emit(columns, rows, summary, _common_config(args), args.format, args.out)
    if args.kind == "bessel" and rep.envelope_violated:
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    import numpy as np

    from .spectrum import counting, decay_check, nystrom_spectrum, trace_and_norm
    from .sturm import ProblemParams

    params = ProblemParams(alpha=args.alpha, c=args.c)
    if params.c <= 0:
        raise UsageError("spectrum requires c > 0")
    if params.alpha < 0:
        raise UsageError("spectrum requires alpha >= 0 (the counting bounds need it)")
    n_keep = args.n_max + 1 if args.n_max is not None else 12
    op = nystrom_spectrum(params, n_quad=args.quad, n_keep=n_keep)
    tn = trace_and_norm(params)
    cnt = counting(params, args.delta, n_quad=args.quad)

    decay_slope = None
    if 0.0 < args.alpha < 1.5:
        try:
            lo = max(8, int(math.e * args.c / 2) + 2)
            rep = decay_check(params, range(lo, lo + 16))
            decay_slope = rep.slope
        except ValueError:
            decay_slope = None

    columns = ["n [index]", "lambda [dimensionless]", "mu_real [dimensionless]",
               "mu_imag [dimensionless]", "cross_residual [dimensionless]",
               "stable [flag]"]
    rows = []
    for n in range(n_keep):
        rows.append([n, float(op.lambdas[n]), float(op.mus[n].real),
                     float(op.mus[n].imag), float(op.cross_residuals[n]),
                     bool(op.stable[n])])
    trace_rel_err = abs(op.trace_discrete - tn.trace) / tn.trace
    summary = {
        "n_quad": op.n_quad,
        "trace_formula": tn.trace,
        "trace_nystrom": op.trace_discrete,
        "trace_rel_error": trace_rel_err,
        "hs_sum_sq": op.hs_discrete,
        "hs_limit": tn.hs_norm_limit,
        "gamma_alpha": tn.gamma_alpha,
        "delta": args.delta,
        "m_empirical": cnt.m_empirical,
        "counting_lower": cnt.lower_bound,
        "counting_upper": cnt.upper_bound,
        "counting_slack": cnt.slack,
        "decay_slope": decay_slope,
    }
    if not _check_finite(rows, summary):
        return EXIT_VIOLATION
    _emit(columns, rows, summary, _common_config(args), args.format, args.out)
    if not cnt.upper_ok or not bool(np.all(op.stable[: min(4, n_keep)])):
        return EXIT_VIOLATION
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpswf",
        description="Generalized prolate spheroidal wave function computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "chi": "eigenvalues chi_n with bracket bounds",
        "eigenfunction": "psi_n, derivative and ODE residual on a grid",
        "approx": "Bessel- or Jacobi-form approximation report",
        "spectrum": "lambda/mu table, trace check, counting sandwich, decay slope",
    }
    for name, fn in (("chi", _cmd_chi), ("eigenfunction", _cmd_eigenfunction),
                     ("approx", _cmd_approx), ("spectrum", _cmd_spectrum)):
        p = sub.add_parser(name, help=descriptions[name])
        p.add_argument("--alpha", type=float, required=True,
                       help="weight exponent (> -1)")
        p.add_argument("--c", type=float, required=True, help="bandwidth (>= 0)")
        p.add_argument("--n", type=int, default=None, help="mode index")
        p.add_argument("--n-max", dest="n_max", type=int,
                       default=10 if name == "chi" else None, help="largest mode index")
        p.add_argument("--grid", type=int, default=2001, help="evaluation grid size")
        p.add_argument("--quad", type=int, default=None,
                       help="quadrature size override")
        p.add_argument("--q0", type=float, default=0.9,
                       help="admissibility ceiling for c^2/chi_n")
        p.add_argument("--delta", type=float, default=0.5,
                       help="counting threshold in (0,1)")
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", type=str, default=None,
                       help="output path (stdout if omitted)")
        if name == "approx":
            p.add_argument("--kind", choices=("bessel", "jacobi"), required=True)
        p.set_defaults(handler=fn)
    return parser


def main(argv=None) -> int:
    cap_error = _apply_thread_cap()
    if cap_error:
        raise UsageError(cap_error)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, value in (("--n", args.n), ("--n-max", args.n_max)):
            if value is not None and value < 0:
                raise UsageError(f"{flag} must be nonnegative, got {value}")
        if args.grid < 1:
            raise UsageError(f"--grid must be at least 1, got {args.grid}")
        return args.handler(args)
    except UsageError as exc:
        return exc.code
    except ValueError as exc:
        # precondition failures on validated inputs are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

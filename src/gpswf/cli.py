"""Command-line front end: deterministic tables as CSV (RFC 4180) or JSON.

Subcommands
    chi            eigenvalues chi_n with their bracket bounds
    eigenfunction  psi_n, psi_n' and the ODE residual on a grid
    approx         Bessel- or Jacobi-form approximation report
    spectrum       lambda/mu table, trace check, counting sandwich, decay slope

Exit codes: 0 success, 1 property violation (bracket/envelope/instability)
or a numerical failure (reported as one ``error:`` line), 2 usage error.
Identical invocations produce byte-identical output files; floats are
emitted with 17 significant digits so they round-trip exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from .approx import bessel_report, default_grid, jacobi_report, symmetric_grid
from .spectrum import decay_check, nystrom_spectrum, trace_and_norm
from .sturm import ProblemParams, chi_spectrum, ode_residual

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if value is None:
        return ""
    return f"{value:.17g}"


def _check_finite(columns, rows, summary) -> str | None:
    """The column or summary key of the first float that is inf or NaN, else None."""
    for row in rows:
        for name, v in zip(columns, row):
            if isinstance(v, float) and not math.isfinite(v):
                return name
    for name, v in summary.items():
        if isinstance(v, float) and not math.isfinite(v):
            return name
    return None


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
            "rows": rows,
            "summary": summary,
        }
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# Each handler returns (columns, rows, summary, violated); main checks the
# numbers are finite, emits the table and turns violated into exit code 1.
def _cmd_chi(args):
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
    return columns, rows, summary, violated


def _cmd_eigenfunction(args):
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
    return columns, rows, summary, False


def _cmd_approx(args):
    if args.kind == "jacobi" and not 0.0 < args.alpha < 1.5:
        raise ValueError("alpha must lie in (0,3/2) for --kind jacobi")
    # before the solve: the report's refusals below are property violations
    if args.kind == "bessel" and not args.alpha >= -0.5:
        raise ValueError("alpha must be >= -1/2 for --kind bessel")
    # checked for both kinds: the JSON config block echoes --q0 either way
    if not 0.0 <= args.q0 < 1.0:
        raise ValueError(f"--q0 must lie in [0, 1), got {args.q0}")
    params = ProblemParams(alpha=args.alpha, c=args.c)
    spec = chi_spectrum(params, args.n)
    try:
        if args.kind == "bessel":
            rep = bessel_report(spec, args.n, grid=default_grid(args.grid))
        else:
            rep = jacobi_report(spec, args.n, grid=symmetric_grid(args.grid), q0=args.q0)
    except ValueError as exc:
        # an inadmissible frame is a property violation: no table
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VIOLATION) from None
    columns = ["x [dimensionless]", "approximation [dimensionless]",
               "reference [dimensionless]", "envelope [dimensionless]",
               "abs_error [dimensionless]"]
    rows = [[float(x), float(a), float(r), float(e), float(abs(a - r))]
            for x, a, r, e in zip(rep.grid, rep.approx, rep.reference, rep.envelope)]
    summary = {
        "chi": rep.chi,
        "q": spec.q(args.n),
        "sup_error": rep.sup_error,
        "sup_envelope": rep.sup_envelope,
        "envelope_violated": rep.envelope_violated,
        "a_n": rep.a_n,
        "scaled_error": rep.scaled_error,
        "a_n_scaled": rep.a_n_scaled,
    }
    return columns, rows, summary, args.kind == "bessel" and rep.envelope_violated


def _cmd_spectrum(args):
    params = ProblemParams(alpha=args.alpha, c=args.c)
    if params.c <= 0:
        raise ValueError("spectrum requires c > 0")
    if params.alpha < 0:
        raise ValueError("spectrum requires alpha >= 0 (the counting bounds need it)")
    n_keep = args.n_max + 1 if args.n_max is not None else 12
    op = nystrom_spectrum(params, n_quad=args.quad, n_keep=n_keep)
    tn = trace_and_norm(params)
    cnt = op.counting(args.delta)

    # decay_check refuses an alpha outside (0, 3/2) before any solve, and a
    # window with fewer than three admissible indices after one
    try:
        lo = max(8, int(math.e * args.c / 2) + 2)
        decay_slope = decay_check(params, range(lo, lo + 16)).slope
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
        "hs_sum_sq": cnt.hs_norm_value,
        "hs_limit": tn.hs_norm_limit,
        "gamma_alpha": tn.gamma_alpha,
        "delta": args.delta,
        "m_empirical": cnt.m_empirical,
        "counting_lower": cnt.lower_bound,
        "counting_upper": cnt.upper_bound,
        "counting_slack": cnt.slack,
        "decay_slope": decay_slope,
    }
    violated = not cnt.upper_ok or not bool(np.all(op.stable[: min(4, n_keep)]))
    return columns, rows, summary, violated


# the flags each subcommand reads besides --alpha, --c, --format and --out
_FLAGS = {
    "--n": dict(type=int, required=True, help="mode index"),
    "--n-max": dict(dest="n_max", type=int, help="largest mode index"),
    "--grid": dict(type=int, default=2001, help="evaluation grid size"),
    "--quad": dict(type=int, help="quadrature size override"),
    "--q0": dict(type=float, default=0.9,
                 help="admissibility ceiling for c^2/chi_n (--kind jacobi only)"),
    "--delta": dict(type=float, default=0.5, help="counting threshold in (0,1)"),
}
_COMMANDS = {
    "chi": (_cmd_chi, "eigenvalues chi_n with bracket bounds", ("--n-max",)),
    "eigenfunction": (_cmd_eigenfunction, "psi_n, derivative and ODE residual on a grid",
                      ("--n", "--grid")),
    "approx": (_cmd_approx, "Bessel- or Jacobi-form approximation report",
               ("--n", "--grid", "--q0")),
    "spectrum": (_cmd_spectrum, "lambda/mu table, trace check, counting sandwich, decay slope",
                 ("--n-max", "--quad", "--delta")),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="gpswf",
        description="Generalized prolate spheroidal wave function computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, description, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=description)
        p.add_argument("--alpha", type=float, required=True,
                       help="weight exponent (> -1)")
        p.add_argument("--c", type=float, required=True, help="bandwidth (>= 0)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        if name == "approx":
            p.add_argument("--kind", choices=("bessel", "jacobi"), required=True)
        p.add_argument("--format", choices=("csv", "json"), default="json")
        p.add_argument("--out", type=str, default=None,
                       help="output path (stdout if omitted)")
        p.set_defaults(handler=fn)
    sub.choices["chi"].set_defaults(n_max=10)
    return parser, sub.choices


def main(argv=None) -> int:
    parser, subcommands = _build_parser()
    try:
        args, unknown = parser.parse_known_args(argv)
        if unknown:
            # the subcommand's usage line, where parse_args would print gpswf's
            subcommands[args.command].error(f"unrecognized arguments: {' '.join(unknown)}")
        for flag, dest in (("--n", "n"), ("--n-max", "n_max")):
            value = getattr(args, dest, None)
            if value is not None and value < 0:
                raise ValueError(f"{flag} must be nonnegative, got {value}")
        if getattr(args, "grid", 1) < 1:
            raise ValueError(f"--grid must be at least 1, got {args.grid}")
        columns, rows, summary, violated = args.handler(args)
        bad = _check_finite(columns, rows, summary)
        if bad is not None:
            print(f"error: non-finite value in {bad}", file=sys.stderr)
            return EXIT_VIOLATION
        # the parsed flags in declaration order, as the JSON config block
        config = {k: v for k, v in vars(args).items()
                  if k not in ("command", "handler", "out")}
        _emit(columns, rows, summary, config, args.format, args.out)
        return EXIT_VIOLATION if violated else EXIT_OK
    except SystemExit as exc:
        # an argparse usage error, --help, or a refusal the handler reported
        # itself
        return exc.code
    except (ValueError, OSError) as exc:
        # precondition failures on validated inputs, and an --out path that
        # cannot be opened, are usage errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (RuntimeError, ArithmeticError, MemoryError) as exc:
        # a library failure on valid inputs (no convergence, overflow, memory):
        # one line instead of a traceback, with the exit code a traceback gives
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_VIOLATION


if __name__ == "__main__":
    sys.exit(main())

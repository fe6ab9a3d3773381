"""Worker process: imports gpswf from ``src/`` and runs one workload's ops.

Started by ``run.py`` with BLAS threads already pinned in its environment.
Usage: ``python3 perfbench/worker.py '<json config>'``.  Prints one JSON line:
``{"ready": <monotonic time the first op was ready>, "kernel": [...]}`` for a
probe, or that plus the per-op samples for a run.  ``kernel`` holds the
reference kernel's time at interpreter start and once the worker is ready
(see ``speed.py``).  The ops run in a closed loop, one at a time, each after
the generator writes a line to stdin; each op's correctness check runs after
its timed region, and the reference kernel is timed after each op.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import resource
import signal
import subprocess
import sys
import time

from speed import reference_s

# timed before numpy loads, so set-up can be rescaled to the reference speed
KERNEL_AT_START = reference_s()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gpswf as g  # noqa: E402
import gpswf.cli  # noqa: E402
from workloads import make_inputs  # noqa: E402

ROOT = os.getcwd()
DEADLINE = math.inf   # monotonic time by which the loop must end; set by main()


# --- ops and their checks ---------------------------------------------------
# A check returns None when the op's output is correct, else a one-line reason.
# Tolerances follow tests/test_acceptance.py where a criterion covers the case.

def op_operator(op):
    p = g.ProblemParams(alpha=op["alpha"], c=op["c"])
    return g.nystrom_spectrum(p, n_keep=12), g.trace_and_norm(p), g.counting(p, op["delta"])


def check_operator(op, out):
    spec, tn, cnt = out
    lam_mu = op["c"] / (2.0 * math.pi) * np.abs(spec.mus) ** 2
    # criterion 05: relative 1e-6 where the Nystrom value resolves lambda
    sel = spec.stable & (spec.lambdas >= 1e-10)
    rel = np.abs(spec.lambdas[sel] - lam_mu[sel]) / lam_mu[sel]
    if rel.size and not rel.max() <= 1e-6:
        return f"lambda-mu identity: worst relative residual {rel.max():.3e} on stable modes"
    trace_rel = abs(spec.trace_discrete - tn.trace) / tn.trace
    if not trace_rel <= 1e-6:                                   # criterion 06
        return f"trace identity: relative error {trace_rel:.3e}"
    if not cnt.upper_ok:                                        # criterion 08
        return f"counting: M={cnt.m_empirical} above trace/delta={cnt.upper_bound:.6g}"
    return None


def op_decay(op):
    p = g.ProblemParams(alpha=op["alpha"], c=op["c"])
    lo = max(8, int(math.e * op["c"] / 2) + 2)   # the window `gpswf spectrum` uses
    return g.decay_check(p, range(lo, lo + 16))


def check_decay(op, rep):
    if not rep.bound_ok:
        return "decay: residuals exceed the calibrated bound"
    if not 0.9 <= rep.slope <= 1.1:                             # criterion 09
        return f"decay: slope {rep.slope:.4f} outside [0.9, 1.1]"
    return None


_GRID = np.linspace(-1.0, 1.0, 2001)


def op_sturm(op):
    p = g.ProblemParams(alpha=op["alpha"], c=op["c"])
    n = op["n_max"]
    spec = g.chi_spectrum(p, n)
    f = spec.eigenfunction(n)
    values = (f.value(_GRID), f.derivative(_GRID), g.ode_residual(f, _GRID))
    reports = None
    if n >= 128:   # many-mode op: mode n_max is admissible for both forms
        reports = g.bessel_report(spec, n), g.jacobi_report(spec, n)
    return spec, values, reports


def check_sturm(op, out):
    spec, (val, der, res), reports = out
    a, c, n = op["alpha"], op["c"], op["n_max"]
    ns = np.arange(n + 1)
    lo = ns * (ns + 2 * a + 1)
    if not (np.all(spec.chis >= lo) and np.all(spec.chis <= lo + c * c)):   # criterion 01
        return "chi bracket violated"
    if not (np.all(np.isfinite(val)) and np.all(np.isfinite(der))):
        return "psi_n or psi_n' not finite"
    # tests/test_sturm.py allows 1e-8 chi_n for psi_n of size 1 at small c.
    # Here the bound is relative to the largest term of the ODE on the grid:
    # at c near 3000 the c^2 x^2 psi_n term exceeds chi_n max|psi_n|, and
    # rounding in psi_n' at x = +-1 sets the residual's floor there.
    worst = float(np.max(np.abs(res)))
    x, d2 = _GRID, spec.eigenfunction(n).second_derivative(_GRID)
    scale = float(np.max(np.abs((1.0 - x * x) * d2) + np.abs(2.0 * (a + 1.0) * x * der)
                         + np.abs((spec.chi(n) - c * c * x * x) * val)))
    if not worst <= 1e-8 * scale:
        return f"ODE residual {worst:.3e} above 1e-8 x largest ODE term {scale:.3e}"
    norm = float(np.dot(spec.coeffs[n], spec.coeffs[n]))
    if not abs(norm - 1.0) <= 1e-12:
        return f"psi_n not unit norm: sum of squared coefficients {norm!r}"
    if reports is not None:
        bessel, jacobi = reports
        if bessel.envelope_violated:                            # criterion 03 dominance
            return (f"Bessel envelope violated: sup error {bessel.sup_error:.3e} > "
                    f"envelope {bessel.sup_envelope:.3e}")
        # A_n is a coefficient of a unit vector
        if not (abs(jacobi.a_n) <= 1.0 and math.isfinite(jacobi.sup_error)):
            return f"Jacobi report: A_n={jacobi.a_n!r}, sup error {jacobi.sup_error!r}"
    return None


def op_cli_subprocess(op):
    # run() kills the child on any exception, the loop's SIGALRM included
    proc = subprocess.run([sys.executable, "-m", "gpswf.cli", *op["argv"]],
                          capture_output=True, text=True,
                          timeout=max(1.0, min(150.0, DEADLINE - time.monotonic())))
    return proc.returncode, proc.stdout


def op_cli_inprocess(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = gpswf.cli.main(list(op["argv"]))
    return code, buf.getvalue()


def _finite(v):
    return not isinstance(v, float) or math.isfinite(v)


def check_cli(op, out):
    code, text = out
    if code != 0:
        return f"exit code {code}"
    try:
        if op["format"] == "json":
            payload = json.loads(text)
            cells = [v for row in payload["rows"] for v in row]
            cells += list(payload["summary"].values())
        else:
            rows = list(csv.reader(io.StringIO(text)))
            cells = [float(v) for row in rows[1:] for v in row
                     if v not in ("true", "false", "")]
    except (ValueError, KeyError, IndexError) as exc:
        return f"output does not parse: {exc}"
    if len(cells) == 0 or not all(_finite(v) for v in cells):
        return "output empty or not finite"
    return None


OPS = {"operator": (op_operator, check_operator), "decay": (op_decay, check_decay),
       "sturm": (op_sturm, check_sturm), "cli": (op_cli_subprocess, check_cli)}


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("the run's time budget ran out during the op")


def run_loop(inputs, op_fn, check_fn, kernel, tracer=None, extra=None):
    """Closed loop, one client: each op starts when the previous one ends.

    The worker waits for a line on stdin before each op and prints ``done``
    after it, so the generator can pace it, alternate two workers op by op,
    or launch a set-up probe between two ops.  An op still running at
    ``DEADLINE`` is interrupted, and ops after it are not run; both count as
    failed, so a slow run still ends with a result.
    """
    signal.signal(signal.SIGALRM, _alarm)
    samples = []
    for i, op in enumerate(inputs):
        sys.stdin.readline()
        remaining = DEADLINE - time.monotonic()
        if remaining <= 0:
            samples.append({"s": None, "loop_s": None, "kernel": None,
                            "error": "not run: the run's time budget was spent"})
            print("done", flush=True)
            continue
        signal.setitimer(signal.ITIMER_REAL, remaining)
        t0 = time.perf_counter()
        try:
            out = op_fn(op) if tracer is None else tracer.run_op(i, op_fn, op)
            dt = time.perf_counter() - t0
            err = check_fn(op, out)
        except Exception as exc:   # an op that raises is a failed op, not a crash
            dt = time.perf_counter() - t0
            err = f"{type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        loop_s = time.perf_counter() - t0
        sample = {"s": dt, "loop_s": loop_s, "error": err}
        if extra is not None:
            sample.update(extra(op))
        after = reference_s()
        sample["kernel"] = [kernel, after]
        kernel = after
        samples.append(sample)
        print("done", flush=True)
    return samples


def _subprocess_time(op):
    t0 = time.perf_counter()
    code, _ = op_cli_subprocess(op)
    return {"subprocess_s": time.perf_counter() - t0, "subprocess_exit": code}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    src = os.path.join(ROOT, "src", "gpswf")
    if os.path.dirname(os.path.abspath(g.__file__)) != src:
        print(f"error: imported gpswf from {g.__file__}, expected {src}", file=sys.stderr)
        return 2
    global DEADLINE
    workload, mode = cfg["workload"], cfg["mode"]
    inputs = make_inputs(workload, cfg["seed"], cfg["n_ops"])
    op_fn, check_fn = OPS[workload]
    if workload == "cli" and mode != "run":
        op_fn = op_cli_inprocess
    tracer = None
    if mode == "traced":
        from spans import Tracer, instrument, summarize
        tracer = Tracer()
        instrument(tracer)
    result = {"ready": time.monotonic()}
    result["kernel"] = [KERNEL_AT_START, reference_s()]
    if mode != "probe":
        DEADLINE = cfg["deadline"]
        extra = _subprocess_time if (workload == "cli" and mode == "reference") else None
        samples = run_loop(inputs, op_fn, check_fn, result["kernel"][1], tracer, extra)
        usage = resource.RUSAGE_CHILDREN if mode == "run" and workload == "cli" \
            else resource.RUSAGE_SELF
        result.update(samples=samples,
                      peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
                      versions={"python": sys.version.split()[0],
                                "numpy": np.__version__,
                                "scipy": scipy.__version__})
        if tracer is not None:
            ran = sum(1 for sample in samples if sample["s"] is not None)
            result["layers"] = summarize(tracer.spans, max(1, ran))
            tracer.write(cfg["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

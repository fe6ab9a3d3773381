"""CLI contract tests: schemas, round-trips, determinism, exit codes."""

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import gpswf
from gpswf.cli import main


# directory holding the imported package, so a child interpreter finds the
# same gpswf whether or not it is installed
PACKAGE_PARENT = str(Path(gpswf.__file__).resolve().parents[1])


def run_cli(args, tmp_path=None, env=None):
    """Run ``python -m gpswf.cli`` with the current environment plus ``env``."""
    proc = subprocess.run([sys.executable, "-m", "gpswf.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PACKAGE_PARENT, **(env or {})})
    return proc


def test_public_names_resolve():
    missing = [name for name in gpswf.__all__ if not hasattr(gpswf, name)]
    assert missing == []


def test_chi_c_zero_values(tmp_path):
    out = tmp_path / "chi.json"
    code = main(["chi", "--alpha", "0.5", "--c", "0", "--n-max", "5",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    for row in data["rows"]:
        n, chi, lo, hi = row
        assert chi == n * (n + 2 * 0.5 + 1)
        assert lo == chi == hi
    assert data["summary"]["bracket_violated"] is False


def test_chi_bracket_at_positive_c(tmp_path):
    out = tmp_path / "chi.json"
    code = main(["chi", "--alpha", "0.5", "--c", "3", "--n-max", "8",
                 "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    for n, chi, lo, hi in data["rows"]:
        assert lo <= chi <= hi


def test_chi_reports_the_default_basis(tmp_path):
    # at c = 3000 with 6 modes the default basis is sized to the modes
    # (597 terms), not to c (3,615)
    out = tmp_path / "chi.json"
    code = main(["chi", "--alpha", "0.5", "--c", "3000", "--n-max", "5", "--out", str(out)])
    assert code == 0
    n_trunc = json.loads(out.read_text())["summary"]["n_trunc"]
    assert n_trunc == gpswf.chi_spectrum(gpswf.ProblemParams(0.5, 3000.0), 5).n_trunc <= 800


def test_csv_json_round_trip_identical_values(tmp_path):
    out_csv = tmp_path / "chi.csv"
    out_json = tmp_path / "chi.json"
    assert main(["chi", "--alpha", "0.7", "--c", "2.5", "--n-max", "6",
                 "--format", "csv", "--out", str(out_csv)]) == 0
    assert main(["chi", "--alpha", "0.7", "--c", "2.5", "--n-max", "6",
                 "--format", "json", "--out", str(out_json)]) == 0
    with open(out_csv, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        csv_rows = [[float(v) for v in row] for row in reader]
    data = json.loads(out_json.read_text())
    assert header == data["columns"]
    json_rows = [[float(v) for v in row] for row in data["rows"]]
    assert csv_rows == json_rows  # 17-digit emission round-trips exactly


def test_byte_identical_reruns(tmp_path):
    a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
    args = ["spectrum", "--alpha", "0.5", "--c", "4", "--n-max", "5",
            "--quad", "200", "--delta", "0.5"]
    assert main(args + ["--out", str(a_path)]) == 0
    assert main(args + ["--out", str(b_path)]) == 0
    assert a_path.read_bytes() == b_path.read_bytes()


def test_eigenfunction_table(tmp_path):
    out = tmp_path / "eig.csv"
    code = main(["eigenfunction", "--alpha", "0.5", "--c", "2", "--n", "3",
                 "--grid", "41", "--format", "csv", "--out", str(out)])
    assert code == 0
    with open(out, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [[float(v) for v in row] for row in reader]
    assert len(rows) == 41
    for x, psi, dpsi, res in rows:
        assert math.isfinite(psi) and math.isfinite(dpsi)
        assert abs(res) <= 1e-8


def test_approx_bessel_summary(tmp_path):
    out = tmp_path / "approx.json"
    code = main(["approx", "--kind", "bessel", "--alpha", "0.5", "--c", "5",
                 "--n", "40", "--grid", "201", "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["envelope_violated"] is False
    assert summary["sup_error"] <= summary["sup_envelope"]


def test_approx_jacobi_c_zero(tmp_path):
    out = tmp_path / "approx.json"
    code = main(["approx", "--kind", "jacobi", "--alpha", "0.5", "--c", "0",
                 "--n", "12", "--grid", "201", "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())["summary"]
    assert summary["sup_error"] == 0.0
    assert summary["a_n"] == 1.0


def test_approx_mode_zero_at_c_zero(tmp_path):
    # chi_0 = 0 at c = 0: q is 0 there, and the Bessel frame's margin is 0;
    # at c = 1e-300 c * c underflows, so the solved spectrum is the c = 0 one
    out = tmp_path / "approx.json"
    for c in ("0", "1e-300"):
        assert main(["approx", "--kind", "jacobi", "--alpha", "0.5", "--c", c,
                     "--n", "0", "--grid", "201", "--out", str(out)]) == 0
        summary = json.loads(out.read_text())["summary"]
        assert summary["q"] == 0.0 and summary["a_n"] == 1.0 and summary["sup_error"] == 0.0
        proc = run_cli(["approx", "--kind", "bessel", "--alpha", "0.5", "--c", c, "--n", "0"])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and "(1-q) sqrt(chi) = 0 <" in proc.stderr
        assert proc.stderr.count("\n") == 1


def test_approx_never_fails_where_chi_0_is_subnormal(capsys):
    # c in [1e-163, 1e-150]: c * c or chi_0 underflows; each run either
    # succeeds or refuses in one line
    for alpha in ("-0.5", "0.5", "3"):
        for c in np.logspace(-163, -150, 40):
            for kind in ("jacobi", "bessel"):
                code = main(["approx", "--kind", kind, "--alpha", alpha, "--c", repr(float(c)),
                             "--n", "0", "--grid", "21"])
                err = capsys.readouterr().err
                assert code == 0 and err == "" or (
                    code in (1, 2) and err.startswith("error: ") and err.count("\n") == 1)


def test_approx_jacobi_refuses_alpha_out_of_range():
    proc = run_cli(["approx", "--kind", "jacobi", "--alpha", "2.0", "--c", "2",
                    "--n", "10"])
    assert proc.returncode == 2
    assert "alpha must lie in (0,3/2)" in proc.stderr


def test_approx_bessel_refuses_alpha_below_minus_half(capsys):
    # the envelope constants' domain refusal exited 1, as a property violation
    code = main(["approx", "--kind", "bessel", "--alpha", "-0.7", "--c", "5", "--n", "40"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: alpha must be >= -1/2 for --kind bessel\n"


def test_approx_jacobi_refuses_q0_out_of_range(capsys):
    # --q0 nan, 5 and inf exited 0 with a Jacobi-form report at q = 1.61;
    # --kind bessel ignores the flag, but --q0 nan exited 0 in csv and 2 in
    # json, whose config block could not hold the NaN
    for kind, n in (("jacobi", "3"), ("bessel", "30")):
        for fmt in ("csv", "json"):
            for q0 in ("nan", "5", "inf", "1", "-0.5"):
                code = main(["approx", "--kind", kind, "--alpha", "0.5", "--c", "10",
                             "--n", n, "--q0", q0, "--format", fmt])
                captured = capsys.readouterr()
                assert code == 2 and captured.out == ""
                assert captured.err == f"error: --q0 must lie in [0, 1), got {float(q0)}\n"


def test_approx_bessel_inadmissible_frame_exit():
    # low mode at large bandwidth: q >= 1, refusal names the hypothesis
    proc = run_cli(["approx", "--kind", "bessel", "--alpha", "0.5", "--c", "5",
                    "--n", "2"])
    assert proc.returncode == 1
    assert "q =" in proc.stderr


def test_approx_bessel_inadmissible_at_large_alpha(capsys):
    # A is taken in log space, so the frame reaches its admissibility check
    code = main(["approx", "--kind", "bessel", "--alpha", "300", "--c", "1", "--n", "2"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: ") and "inadmissible" in err and err.count("\n") == 1


def test_usage_errors(capsys):
    proc = run_cli(["chi", "--alpha", "0.5"])  # missing --c
    assert proc.returncode == 2
    proc = run_cli(["chi", "--alpha", "-2.0", "--c", "1", "--n-max", "3"])
    assert proc.returncode == 2
    proc = run_cli(["approx", "--alpha", "0.5", "--c", "1", "--n", "5"])  # no kind
    assert proc.returncode == 2
    # a negative mode flag is refused by main itself, naming that flag
    for argv, flag in ((["chi", "--n-max", "-1"], "--n-max"),
                       (["spectrum", "--n-max", "-1"], "--n-max"),
                       (["eigenfunction", "--n", "-1"], "--n"),
                       (["approx", "--kind", "bessel", "--n", "-1"], "--n"),
                       (["approx", "--kind", "jacobi", "--n", "-2"], "--n")):
        assert main([*argv, "--alpha", "0.5", "--c", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{flag} must be nonnegative" in err
        assert "n_max" not in err
    # each subcommand refuses a flag it does not read, printing its own
    # usage line; --n is required
    for argv in (["chi", "--quad", "7"], ["eigenfunction", "--n", "3", "--delta", "0.5"],
                 ["approx", "--kind", "bessel", "--n", "40", "--n-max", "40"],
                 ["spectrum", "--grid", "5"], ["eigenfunction"],
                 ["approx", "--kind", "jacobi"]):
        assert main([*argv, "--alpha", "0.5", "--c", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: gpswf {argv[0]} ")


# the JSON config block holds exactly the flags each subcommand reads
CONFIG_KEYS = {
    "chi": ["alpha", "c", "n_max", "format"],
    "eigenfunction": ["alpha", "c", "n", "grid", "format"],
    "approx": ["alpha", "c", "n", "grid", "q0", "kind", "format"],
    "spectrum": ["alpha", "c", "n_max", "quad", "delta", "format"],
}


def test_readme_invocations(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    invocations = [line.split()[1:] for line in block.splitlines()
                   if line.startswith("gpswf ")]
    assert sorted({argv[0] for argv in invocations}) == sorted(CONFIG_KEYS)
    for i, argv in enumerate(invocations):
        out = tmp_path / f"{i}.json"
        argv[argv.index("--out") + 1] = str(out)
        assert main([*argv, "--format", "json"]) == 0, argv
        assert list(json.loads(out.read_text())["config"]) == CONFIG_KEYS[argv[0]]


def test_readme_library_sketch():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})


def test_eigenfunction_past_the_power_of_two_overflow(tmp_path):
    # alpha = 600 puts 2^(2 alpha + 1) past the largest double
    out = tmp_path / "psi.json"
    assert main(["eigenfunction", "--alpha", "600", "--c", "1", "--n", "2",
                 "--grid", "21", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["rows"]) == 21


def test_library_failure_is_one_error_line(monkeypatch, capsys):
    # a MemoryError, as numpy raises for the Nystrom block at c = 1e6, was a
    # traceback
    for exc in (RuntimeError("eigen-iteration failed"),
                MemoryError("Unable to allocate 1.82 TiB")):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr("gpswf.cli.nystrom_spectrum", fail)
        assert main(["spectrum", "--alpha", "0.5", "--c", "10"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {type(exc).__name__}: {exc}\n"


def test_non_finite_value_is_one_error_line(monkeypatch, capsys):
    # a non-finite value exited 1 with no table and nothing on stderr
    monkeypatch.setattr("gpswf.cli.trace_and_norm", lambda params: dataclasses.replace(
        gpswf.trace_and_norm(params), hs_norm_limit=math.inf))
    assert main(["spectrum", "--alpha", "0.5", "--c", "10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: non-finite value in hs_limit\n"


def test_spectrum_at_large_alpha(tmp_path):
    # all exited 1: mu_n ~ 1e-53 flagged every mode unstable at (60, 300),
    # the eigen-relation's moments overflowed at (150, 200), and the
    # Nystrom rule's exactly-0 end weights were refused at (100, 1200)
    for alpha, c in (("60", "300"), ("150", "200"), ("100", "1200")):
        out = tmp_path / f"spec{alpha}.json"
        assert main(["spectrum", "--alpha", alpha, "--c", c, "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 12 and all(row[-1] is True for row in rows)


def test_non_finite_params_are_one_error_line():
    # c = inf exited 1 on an int conversion; alpha = inf printed two numpy
    # warnings before LAPACK refused it
    for argv, name in ((["chi", "--alpha", "0.5", "--c", "inf"], "bandwidth c"),
                       (["chi", "--alpha", "inf", "--c", "1"], "alpha")):
        proc = run_cli(argv)
        lines = proc.stderr.splitlines()
        assert proc.returncode == 2 and proc.stdout == "" and len(lines) == 1
        assert lines[0].startswith(f"error: {name} must be finite")


def test_spectrum_refuses_negative_alpha(capsys):
    for alpha in ("-0.3", "-0.9"):
        assert main(["spectrum", "--alpha", alpha, "--c", "5"]) == 2
        assert "alpha >= 0" in capsys.readouterr().err


def test_spectrum_decay_slope_null_outside_decay_check_alpha(tmp_path):
    # decay_check holds the 0 < alpha < 3/2 domain; the CLI reports a null slope
    for alpha in ("0", "2"):
        out = tmp_path / f"spec{alpha}.json"
        assert main(["spectrum", "--alpha", alpha, "--c", "10", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["summary"]["decay_slope"] is None
        assert '"decay_slope": null' in out.read_text()


def test_empty_grid_is_a_usage_error(capsys):
    for argv in (["eigenfunction", "--n", "3"],
                 ["approx", "--kind", "bessel", "--n", "40"],
                 ["approx", "--kind", "jacobi", "--n", "100"]):
        assert main([*argv, "--alpha", "0.5", "--c", "2", "--grid", "0"]) == 2
        assert "--grid" in capsys.readouterr().err


def test_spectrum_landau_window(tmp_path):
    out = tmp_path / "spec.json"
    code = main(["spectrum", "--alpha", "0", "--c", "10", "--delta", "0.5",
                 "--n-max", "7", "--out", str(out)])
    assert code == 0
    summary = json.loads(out.read_text())["summary"]
    m_over_c = summary["m_empirical"] / 10.0
    assert m_over_c <= 4 / math.pi
    assert m_over_c >= 2 / math.pi - 0.1
    assert summary["trace_rel_error"] <= 1e-6


def test_all_emitted_numbers_finite(tmp_path):
    out = tmp_path / "spec.json"
    assert main(["spectrum", "--alpha", "0.5", "--c", "5", "--n-max", "9",
                 "--out", str(out)]) == 0
    data = json.loads(out.read_text())   # allow_nan=False on emission
    for row in data["rows"]:
        for v in row:
            if isinstance(v, float):
                assert math.isfinite(v)


def test_import_writes_no_environment():
    # BLAS threads are capped by the standard variables alone; the package
    # reads no variable of its own and sets none of theirs
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "NUMEXPR_NUM_THREADS")
    probe = f"""
import contextlib, io, os
before = dict(os.environ)
import gpswf, gpswf.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = gpswf.cli.main(["chi", "--alpha", "0.5", "--c", "1"])
print(code, dict(os.environ) == before, [v for v in {blas!r} if v in os.environ])
"""
    env = {k: v for k, v in os.environ.items() if k not in blas}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**env, "GPSWF_THREADS": "1", "PYTHONPATH": PACKAGE_PARENT})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 True []"


def test_unopenable_out_path_is_a_usage_error(tmp_path, capsys):
    # both ended in a traceback and exit 1 after the whole computation
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert main(["chi", "--alpha", "0.5", "--c", "1", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert str(out) in captured.err


def test_import_leaves_out_scipy_optimize():
    # nothing in the package needs scipy.optimize or scipy.integrate, not
    # even a Bessel report, whose X_alpha is found by bisection
    probe = """
import contextlib, io, sys
import gpswf, gpswf.cli
gpswf.bessel_report(gpswf.chi_spectrum(gpswf.ProblemParams(0.5, 5.0), 40), 40)
with contextlib.redirect_stdout(io.StringIO()):
    code = gpswf.cli.main(["approx", "--kind", "bessel", "--alpha", "0.5", "--c", "5", "--n", "40"])
print(code, "scipy.optimize" in sys.modules or "scipy.integrate" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PACKAGE_PARENT})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 False"

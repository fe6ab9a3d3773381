"""gpswf benchmark: one workload, one seed, one run.

Usage (from the repository root):

    python3 perfbench/run.py --workload {operator,decay,sturm,cli} --seed N \
        --seconds S --trace {0,1}

Workloads and metrics are described in ``perfbench/DESIGN.md``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A results file
holding the environment record and every sample is written under
``.perfbench_cache/results/``.

Every op runs in a worker process started from a fresh interpreter, with BLAS
threads pinned to 1 in its environment before numpy loads.  All processes of a
run are pinned to one CPU, and every time is also rescaled to the host's
reference speed (``speed.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

from speed import pin_to_one_cpu, rescale
from workloads import WORKLOADS, make_inputs, op_count, repeat_share

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
CACHE = os.path.join(ROOT, ".perfbench_cache")
RESULTS = os.path.join(CACHE, "results")
SETUP_PROBES = 8          # launched between ops; with the worker's own, a median of 9
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
LOOP_BUDGET_S = 150.0     # ops not finished by then count as failed
DEADLINE_S = 170.0        # a worker that has not answered by then is a broken run


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def start(cfg: dict, env: dict, paced: bool = False) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), json.dumps(cfg)],
                            stdin=subprocess.PIPE if paced else None, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)


def finish(proc: subprocess.Popen, cfg: dict, deadline: float) -> dict:
    try:
        if proc.stdin is None:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        else:
            # a paced worker's result may already sit in the reader's buffer,
            # which communicate() would skip
            proc.stdin.close()
            out = proc.stdout.read()
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"worker ({cfg['mode']}) exceeded the time limit")
    if proc.returncode != 0:
        raise BenchError(f"worker ({cfg['mode']}) exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker ({cfg['mode']}) printed no result")
    return json.loads(lines[-1])


def setup_times(result: dict, launched: float) -> tuple[float, float]:
    """Launch to first op ready: (seconds, seconds at the reference speed)."""
    raw = result["ready"] - launched
    return raw, rescale(raw, *result["kernel"])


def probe(cfg: dict, env: dict, deadline: float) -> tuple[float, float]:
    launched = time.monotonic()
    return setup_times(finish(start({**cfg, "mode": "probe"}, env), cfg, deadline), launched)


def drive(cfgs: list[dict], env: dict, deadline: float, n_ops: int, between=None):
    """Run paced workers that take turns op by op, so each op of one meets the
    same machine state as the same op of the other.  ``between(i)`` runs after
    op i, while every worker waits.  Returns the results and the launch time."""
    launched = time.monotonic()
    procs = [start(cfg, env, paced=True) for cfg in cfgs]
    try:
        for i in range(n_ops):
            for proc, cfg in zip(procs, cfgs):
                proc.stdin.write("go\n")
                proc.stdin.flush()
                wait = max(0.0, deadline - time.monotonic())
                if not select.select([proc.stdout], [], [], wait)[0] \
                        or proc.stdout.readline() != "done\n":
                    raise BenchError(f"worker ({cfg['mode']}) stopped or exceeded the time limit")
            if between is not None:
                between(i)
        return [finish(proc, cfg, deadline) for proc, cfg in zip(procs, cfgs)], launched
    except OSError as exc:
        raise BenchError(f"lost contact with a worker: {exc}")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def tail(durations: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ranked = sorted(durations)
    k = max(0, len(ranked) - 11)
    return ranked[k], 100.0 * (k + 1) / len(ranked)


def git_commit() -> str | None:
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_sha256() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "gpswf")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def env_record(args, n_ops: int, inputs: list[dict], versions: dict, cpu: int | None) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "op_count": n_ops,
        "inputs_sha256": hashlib.sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest(),
        "repeat_share": repeat_share(args.workload, inputs),
        "nproc": os.cpu_count(), "pinned_cpu": cpu,
        "blas_threads": {var: "1" for var in BLAS_VARS},
        **versions,
        "git_commit": git_commit(), "source_sha256": source_sha256(),
        "closed_loop_clients": 1,
    }


def failures(samples: list[dict], inputs: list[dict]) -> list[dict]:
    return [{"input": op, "error": s["error"]} for s, op in zip(samples, inputs) if s["error"]]


def timings(samples: list[dict]) -> dict:
    """Loop and op times of the ops that ran, as measured and rescaled."""
    ran = [x for x in samples if x["s"] is not None]
    return {"ok": sum(1 for x in ran if x["error"] is None),
            "loop_s": sum(x["loop_s"] for x in ran),
            "loop_ref_s": sum(rescale(x["loop_s"], *x["kernel"]) for x in ran),
            "op_s": [x["s"] for x in ran],
            "op_ref_s": [rescale(x["s"], *x["kernel"]) for x in ran]}


def run_untraced(args, env, deadline, loop_deadline):
    n = op_count(args.workload, args.seconds)
    cfg = {"workload": args.workload, "seed": args.seed, "n_ops": n, "deadline": loop_deadline}
    # probes go between ops, spread over the loop, so set-up time samples the
    # host's speed over the whole run rather than one stretch of it
    probe_after = {round((j + 1) * n / (SETUP_PROBES + 1)) - 1 for j in range(SETUP_PROBES)}
    setups = []

    def between(i):
        if i in probe_after and time.monotonic() < loop_deadline:
            setups.append(probe(cfg, env, deadline))

    (res,), launched = drive([{**cfg, "mode": "run"}], env, deadline, n, between)
    setups.append(setup_times(res, launched))
    samples = res["samples"]
    t = timings(samples)
    if not t["op_s"]:
        raise BenchError("no op ran within the time budget")
    metrics = {
        "ops_per_s": (t["ok"] / t["loop_ref_s"], "1/s"),
        "op_p50_s": (statistics.median(t["op_ref_s"]), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
    }
    tail_s, tail_pct = tail(t["op_ref_s"])
    measured = {"ops_per_s": t["ok"] / t["loop_s"], "op_p50_s": statistics.median(t["op_s"]),
                "op_tail_s": tail(t["op_s"])[0],
                "setup_s": statistics.median(raw for raw, _ in setups)}
    detail = {"op_tail_s": tail_s, "op_tail_percentile": tail_pct,
              "failed_frac": (len(samples) - t["ok"]) / len(samples),
              "as_measured": measured, "setup_samples_s": setups, "samples": samples}
    print(f"{args.workload}: {len(samples)} ops, op_tail_s (p{tail_pct:.1f}) {tail_s:.4g}, "
          f"failed_frac {detail['failed_frac']:.4f}; as measured: "
          + ", ".join(f"{k} {v:.4g}" for k, v in measured.items()))
    return n, samples, res, metrics, detail


def run_traced(args, env, deadline, loop_deadline):
    n = max(6, op_count(args.workload, args.seconds) // 2)
    cfg = {"workload": args.workload, "seed": args.seed, "n_ops": n, "deadline": loop_deadline}
    spans_path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-spans.jsonl")
    (traced, ref), _ = drive([{**cfg, "mode": "traced", "spans_path": spans_path},
                              {**cfg, "mode": "reference"}], env, deadline, n)
    layers = traced["layers"]
    pairs = [(x, y) for x, y in zip(traced["samples"], ref["samples"])
             if x["s"] is not None and y["s"] is not None]
    if not pairs:
        raise BenchError("no op ran within the time budget")
    # median over ops of the paired ratio, robust to a machine slowdown that
    # hits one side of a pair
    layers["trace.overhead_frac"] = statistics.median(
        rescale(x["s"], *x["kernel"]) / rescale(y["s"], *y["kernel"]) for x, y in pairs) - 1.0
    inproc, importing = 0.0, 0.0
    if args.workload == "cli":
        ran = [y for _, y in pairs]
        inproc = statistics.median(y["s"] for y in ran)
        importing = statistics.median(y["subprocess_s"] - y["s"] for y in ran)
    layers["cli.main.inprocess_s"] = inproc
    layers["cli.import_s"] = importing
    units = {k: ("count" if k.endswith((".calls", ".rows", ".nodes", ".elements", ".points"))
                 else "ratio" if k.endswith(("_frac", "_ratio")) else "s") for k in layers}
    metrics = {k: (v, units[k]) for k, v in sorted(layers.items())}
    samples = traced["samples"]
    detail = {"reference_samples": ref["samples"], "samples": samples,
              "spans_file": os.path.relpath(spans_path, ROOT),
              "failed_frac": sum(1 for x in samples if x["error"]) / len(samples)}
    print(f"{args.workload}: {n} traced ops, tracing overhead "
          f"{layers['trace.overhead_frac']:+.3f}, unattributed "
          f"{layers['trace.unattributed_frac']:.3f}")
    return n, samples, traced, metrics, detail


def counts_repeat(path: str, record: dict, metrics: dict) -> tuple[bool, str]:
    """Work counts must repeat exactly for the same seed, inputs and source.

    The first traced run for a key writes the reference counts; later runs
    compare against them and never overwrite them.  A single run therefore
    checks nothing; the check needs a second run in the same checkout.
    """
    key = {k: record[k] for k in ("source_sha256", "inputs_sha256", "op_count")}
    counts = {k: v for k, (v, unit) in metrics.items() if unit == "count"}
    if os.path.exists(path):
        with open(path) as fh:
            ref = json.load(fh)
        if ref["key"] == key:
            if ref["work_counts"] != counts:
                print(f"error: work counts differ from {os.path.relpath(path, ROOT)}",
                      file=sys.stderr)
                return False, "differ"
            return True, "repeated"
    with open(path, "w") as fh:
        json.dump({"key": key, "work_counts": counts}, fh, indent=1)
    return True, "first run for these inputs and source: stored as the reference"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "gpswf", "__init__.py")):
        print("error: run from the repository root; src/gpswf not found", file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    began = time.monotonic()
    cpu = pin_to_one_cpu()
    env = worker_env()
    try:
        run = run_traced if args.trace else run_untraced
        n, samples, res, metrics, detail = run(args, env, began + DEADLINE_S,
                                               began + LOOP_BUDGET_S)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    inputs = make_inputs(args.workload, args.seed, n)
    record = env_record(args, n, inputs, res["versions"], cpu)
    stem = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}")
    repeat_ok, repeat_note = True, "not a traced run"
    if args.trace:
        repeat_ok, repeat_note = counts_repeat(f"{stem}-counts.json", record, metrics)
    failed = failures(samples, inputs)
    for f in failed:
        print(f"failed op: {json.dumps(f)}", file=sys.stderr)
    summary = {"correct": not failed and repeat_ok, "attempted": len(samples),
               "failed": len(failed),
               "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({"environment": record, "summary": summary, "failures": failed,
                   "work_counts_check": repeat_note, **detail}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

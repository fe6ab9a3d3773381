"""Workload inputs: seeded, stratified parameter sets, one per op.

Inputs are plain dicts made from ``random.Random("<workload>/<seed>")``, so the
same seed gives the same inputs on any machine.  The parameters that drive an
op's cost (c and alpha, and for the CLI the invocation kind) are stratified
as a Latin hypercube: a run of n ops takes one jittered value from each of n
equal strata of each range.  The pairing of strata and the op order depend
only on n, and the seed sets the jitter inside each stratum.  Every run
therefore sees the same sequence of op sizes over the whole range, which
keeps the median, the tail and peak memory steady across seeds, while each op
still gets fresh parameters that no earlier op's ``lru_cache`` entry can
serve.

The ops that consume these inputs, and their checks, live in ``worker.py``;
this module imports neither numpy nor gpswf, so ``run.py`` stays light.
"""

from __future__ import annotations

import math
import random

# Nominal seconds per op when the benchmark was defined, on a 2-vCPU x86-64 Linux VM with
# one BLAS thread.  A run executes round(seconds / nominal) ops, so percentile
# ranks and work counts do not depend on how fast the machine happens to be.
NOMINAL_OP_S = {"operator": 1.1, "decay": 1.7, "sturm": 0.18, "cli": 1.45}
MIN_OPS = 12          # the tail percentile needs at least ten samples beyond it

CLI_KINDS = ("chi", "eigenfunction", "bessel", "jacobi", "spectrum")


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS, round(seconds / NOMINAL_OP_S[workload]))


def _fixed_order(items: list) -> list:
    random.Random(len(items)).shuffle(items)
    return items


def _hypercube(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    """n points of a Latin hypercube in (0, 1)^dims.

    Each point sits in the middle fifth of its stratum in every dimension.
    Which strata are paired across dimensions, and the order of the points,
    depend on n alone: two seeds differ only by the jitter inside each
    stratum, not by which c meets which alpha or which op runs first.
    """
    pairing = random.Random(n)
    cols = []
    for d in range(dims):
        strata = list(range(n))
        if d:
            pairing.shuffle(strata)
        cols.append([(k + 0.4 + 0.2 * rng.random()) / n for k in strata])
    return _fixed_order(list(zip(*cols)))


# alpha is 1.5 * u with u in (0, 1): the range (0, 3/2) is where decay_check,
# counting and jacobi_report all apply

def _operator_inputs(rng, n):
    return [{"alpha": 1.5 * ua, "c": 10.0 * 10.0 ** uc, "delta": rng.uniform(0.2, 0.8)}
            for uc, ua in _hypercube(rng, n, 2)]


def _decay_inputs(rng, n):
    return [{"alpha": 1.5 * ua, "c": 1.0 + 19.0 * uc} for uc, ua in _hypercube(rng, n, 2)]


def _sturm_inputs(rng, n):
    # many-mode: n_max >= 2c (and >= 128 so mode n_max is Bessel-admissible for
    # every alpha in range); few-mode: c >= 500 with n_max <= 5
    n_many = n // 2
    ops = []
    for uc, ua, un in _hypercube(rng, n_many, 3):
        c = 5.0 * 80.0 ** uc
        ops.append({"alpha": 1.5 * ua, "c": c,
                    "n_max": max(math.ceil(2.0 * c), 128) + int(33 * un)})
    for uc, ua in _hypercube(rng, n - n_many, 2):
        ops.append({"alpha": 1.5 * ua, "c": 500.0 * 6.0 ** uc, "n_max": rng.randint(0, 5)})
    return _fixed_order(ops)


def _cli_argv(rng, kind: str, alpha: float, t: float, fmt: str) -> list[str]:
    """One README invocation with jittered parameters; t in (0, 1) sets c."""
    if kind == "chi":
        args = ["chi", "--c", 2.0 + 2.0 * t, "--n-max", rng.randint(8, 12)]
    elif kind == "eigenfunction":
        args = ["eigenfunction", "--c", 1.5 + t, "--n", rng.randint(2, 4),
                "--grid", rng.randint(701, 901)]
    elif kind == "bessel":
        # the README's n = 40 is inadmissible for alpha near 3/2; 80 is not
        args = ["approx", "--kind", "bessel", "--c", 4.0 + 2.0 * t,
                "--n", rng.randint(80, 100)]
    elif kind == "jacobi":
        args = ["approx", "--kind", "jacobi", "--c", 1.5 + t,
                "--n", rng.randint(90, 110), "--q0", 0.9]
    else:
        args = ["spectrum", "--c", 8.0 + 4.0 * t, "--delta",
                rng.uniform(0.4, 0.6), "--n-max", rng.randint(8, 10)]
    args[1:1] = ["--alpha", alpha]
    return [repr(v) if isinstance(v, float) else str(v) for v in args] + ["--format", fmt]


def _cli_inputs(rng, n):
    # op i runs invocation i mod 5, in csv or json by (i // 5) mod 2
    ops = []
    for k, kind in enumerate(CLI_KINDS):
        idx = range(k, n, 5)
        for i, (t, ua) in zip(idx, _hypercube(rng, len(idx), 2)):
            fmt = ("csv", "json")[(i // 5) % 2]
            ops.append({"kind": kind, "format": fmt,
                        "argv": _cli_argv(rng, kind, 1.5 * ua, t, fmt)})
    return _fixed_order(ops)


_GENERATORS = {"operator": _operator_inputs, "decay": _decay_inputs,
               "sturm": _sturm_inputs, "cli": _cli_inputs}
WORKLOADS = tuple(_GENERATORS)


def make_inputs(workload: str, seed: int, n: int) -> list[dict]:
    return _GENERATORS[workload](random.Random(f"{workload}/{seed}"), n)


def solve_key(workload: str, op: dict) -> tuple:
    """The parameters an lru_cache entry is keyed on."""
    if workload == "cli":
        return tuple(op["argv"])
    return (op["alpha"], op["c"], op.get("n_max"))


def repeat_share(workload: str, inputs: list[dict]) -> float:
    """Share of ops whose solve key repeats an earlier op's (0 by construction)."""
    seen, repeats = set(), 0
    for op in inputs:
        key = solve_key(workload, op)
        repeats += key in seen
        seen.add(key)
    return repeats / len(inputs)

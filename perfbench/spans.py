"""Span recorder that instruments gpswf from outside, in the worker process only.

``instrument`` rebinds every public function of the five layer modules, and
the SciPy eigensolvers as bound in each module, to a recorder, in every gpswf
module namespace that holds them.  Calls between functions go through module
globals, so internal calls are recorded too; private helpers are not.  Spans
are recorded only while an op is running, kept in memory as
``[name, start, end, parent, op, counts]`` and written when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter

import numpy as np

LAYERS = ("specfun", "sturm", "approx", "spectrum", "cli")
EIGENSOLVERS = ("eigh", "eigh_tridiagonal")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# work counted at each boundary, from the call's arguments or result
COUNTS = {
    "spectrum.kernel_eval": lambda a, k, out: {"elements": int(np.size(_arg(a, k, 1, "u")))},
    "spectrum.eigh": lambda a, k, out: {"rows": int(np.shape(_arg(a, k, 0, "a"))[0])},
    "sturm.eigh_tridiagonal": lambda a, k, out: {"rows": len(_arg(a, k, 0, "d"))},
    "specfun.gauss_jacobi": lambda a, k, out: {"nodes": int(_arg(a, k, 0, "n_nodes"))},
    "specfun.jacobi_series_eval": lambda a, k, out: {
        "points": len(_arg(a, k, 0, "coeffs")) * int(np.size(_arg(a, k, 2, "x")))},
    "sturm.chi_spectrum": lambda a, k, out: {"used": out.n_max + 1, "trunc": out.n_trunc},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None

    def _call(self, name, fn, args, kwargs, count):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else None, self._op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[2] = perf_counter()
            self._stack.pop()
        if count is not None:
            rec[5] = count(args, kwargs, out)
        return out

    def run_op(self, op_id: int, fn, *args):
        """Run one op under a root span named ``op``."""
        self._op = op_id
        try:
            return self._call("op", fn, args, {}, None)
        finally:
            self._op = None

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            return self._call(name, fn, args, kwargs, count)
        return traced

    def write(self, path: str) -> None:
        base = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, t0, t1, parent, op, _ in self.spans:
                fh.write(json.dumps([name, t0 - base, t1 - base, parent, op]) + "\n")


def instrument(tracer: Tracer) -> None:
    import gpswf

    modules = [gpswf] + [importlib.import_module(f"gpswf.{m}") for m in LAYERS]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            origin = getattr(obj, "__module__", None) or ""
            if name in EIGENSOLVERS and origin.startswith("scipy."):
                # one recorder per binding, so sturm's solves and specfun's
                # Gauss-Jacobi solves are counted apart
                setattr(mod, name, tracer.wrap(f"{short}.{name}", obj))
            elif origin.startswith("gpswf."):
                if id(obj) not in wrapped:
                    span = f"{origin.rpartition('.')[2]}.{obj.__name__}"
                    wrapped[id(obj)] = tracer.wrap(span, obj)
                setattr(mod, name, wrapped[id(obj)])


SELF_TIMES = ("spectrum.kernel_eval", "spectrum.eigh", "spectrum.nystrom_spectrum",
              "spectrum.counting", "sturm.chi_spectrum", "sturm.eigh_tridiagonal",
              "spectrum.f_n_moment", "spectrum.decay_check", "specfun.gauss_jacobi",
              "specfun.jacobi_series_eval", "spectrum.mu_eigenrelation",
              "approx.bessel_report", "approx.jacobi_report", "cli.main")
CALLS = ("spectrum.eigh", "sturm.chi_spectrum", "sturm.eigh_tridiagonal",
         "spectrum.f_n_moment", "specfun.gauss_jacobi", "specfun.jacobi_series_eval")
WORK = (("spectrum.kernel_eval", "elements"), ("spectrum.eigh", "rows"),
        ("sturm.eigh_tridiagonal", "rows"), ("specfun.gauss_jacobi", "nodes"),
        ("specfun.jacobi_series_eval", "points"))


def summarize(spans: list[list], n_ops: int) -> dict:
    """Per-layer metrics: self seconds per op, and work counts over all ops.

    Self time is a span's duration minus the durations of its direct children
    (one thread, so children never overlap).
    """
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    self_s, calls, work = {}, {}, {}
    solved = set()
    for i, (name, t0, t1, parent, _, counts) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (t1 - t0) - child[i]
        calls[name] = calls.get(name, 0) + 1
        for key, v in (counts or {}).items():
            work[(name, key)] = work.get((name, key), 0) + v
        if name == "sturm.eigh_tridiagonal":
            up = parent
            while up is not None and spans[up][0] != "sturm.chi_spectrum":
                up = spans[up][3]
            if up is not None:
                solved.add(up)
    used = sum(spans[i][5]["used"] for i in solved)
    trunc = sum(spans[i][5]["trunc"] for i in solved)
    op_total = sum(t1 - t0 for name, t0, t1, *_ in spans if name == "op")

    out = {f"{name}.self_s": self_s.get(name, 0.0) / n_ops for name in SELF_TIMES}
    out.update({f"{name}.calls": calls.get(name, 0) for name in CALLS})
    out.update({f"{name}.{key}": work.get((name, key), 0) for name, key in WORK})
    out["sturm.eigpairs_used_ratio"] = used / trunc if trunc else 0.0
    out["trace.unattributed_frac"] = self_s.get("op", 0.0) / op_total if op_total else 0.0
    return out

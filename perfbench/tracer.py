"""Per-layer tracing for the radsym benchmark, installed from outside the
package.

Each traced function is replaced by a wrapper wherever a ``radsym.*`` module
or class holds a reference to it, so calls between radsym modules are
caught too.  A span wrapper records (name, start, end, parent span, op id)
in memory; a count wrapper only counts.  Self time is a span's duration
minus the part covered by its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (module, attribute): spans with calls, self time and errors
SPANS = (
    ("modgroup", "coset_table"),
    ("modgroup", "cusps"),
    ("modgroup", "cusp_equivalent"),
    ("modgroup", "cusp_width"),
    ("modgroup", "schreier_generators"),
    ("modgroup", "cosets"),
    ("dedekind", "dedekind_sum"),
    ("dedekind", "psi_classical"),
    ("dedekind", "phi_classical"),
    ("symbols", "takada_phi"),
    ("symbols", "reduce_in_gamma"),
    ("symbols", "lift_coset_sum"),
    ("symbols", "psi_gamma"),
    ("symbols", "psi_general"),
    ("symbols", "takada_C_row_exact"),
    ("symbols", "gamma0_cusp_basis"),
    ("symbols", "psi_gamma0_divisor"),
    ("periods", "torsion_certificate"),
    ("periods", "divisor_periods"),
    ("periods", "divisor_period"),
    ("periods", "period_numeric"),
    ("cli", "run"),
)
# metric name -> (module, attribute or Class.method): calls only
COUNTS = {
    "modgroup.member": ("modgroup", "member"),
    "modgroup.element_mul": ("modgroup", "GroupElement.__mul__"),
}
# lru caches read through cache_info(), by metric prefix
CACHES = {
    "symbols.takada_C_row_exact": ("symbols", "takada_C_row_exact"),
    "symbols.psi_gamma": ("symbols", "_psi_gamma_inf_cached"),
    "symbols.gamma0_cusp_basis": ("symbols", "gamma0_cusp_basis"),
}


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, f in SPANS]


def _radsym_namespaces():
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "radsym" or name.startswith("radsym.")):
            continue
        yield mod
        for value in list(vars(mod).values()):
            if isinstance(value, type) and value.__module__.startswith("radsym"):
                yield value


def _rebind(original, wrapper):
    """Replace every reference to `original` held by a radsym module or
    class."""
    for ns in _radsym_namespaces():
        for key, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, key, wrapper)


def _resolve(module: str, attr: str):
    obj = sys.modules.get(f"radsym.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


class Tracer:
    """Collects spans and counts while `op` names the current operation."""

    def __init__(self):
        self.names = span_names()
        self.calls = [0] * len(self.names)
        self.errors = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = {k: 0 for k in COUNTS}
        self.none_rows = set()
        self.missing = []
        self.op = -1
        # spans, one entry per finished call; ids count calls in entry order
        self.sp_id = array("i")
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        # open spans: [span id, time covered by children]
        self._stack = []
        self._next_id = 0
        self._caches = {}
        self._cache_before = {}

    # -- installation ---------------------------------------------------------

    def install(self):
        # the lru objects themselves, before any wrapper hides them
        self._caches = {metric: _resolve(module, attr)
                        for metric, (module, attr) in CACHES.items()}
        for i, (module, attr) in enumerate(SPANS):
            fn = _resolve(module, attr)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrapper = self._span_wrapper(i, fn)
            if attr == "takada_C_row_exact":
                wrapper = self._none_row_wrapper(wrapper)
            _rebind(fn, wrapper)
        for metric, (module, attr) in COUNTS.items():
            fn = _resolve(module, attr)
            if fn is None:
                self.missing.append(metric)
                continue
            _rebind(fn, self._count_wrapper(metric, fn))
        self._cache_before = self._cache_infos()

    def _span_wrapper(self, idx: int, fn):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[idx] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self.calls[idx] += 1
                self.self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                self.sp_id.append(span_id)
                self.sp_name.append(idx)
                self.sp_parent.append(parent)
                self.sp_op.append(self.op)
                self.sp_start.append(t0)
                self.sp_end.append(t1)

        return wrapper

    def exclude(self, seconds: float):
        """Count time spent inside the open span on something else (the
        benchmark's speed probe) as covered, so it is nobody's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _none_row_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = fn(*args, **kwargs)
            if row is None:
                self.none_rows.add(args)
            return row

        return wrapper

    def _count_wrapper(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- cache counters -------------------------------------------------------

    def _cache_infos(self) -> dict:
        out = {}
        for metric, fn in self._caches.items():
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            out[metric] = (info.hits, info.misses) if info else (0, 0)
        return out

    def cache_deltas(self) -> dict:
        after = self._cache_infos()
        return {k: (after[k][0] - self._cache_before[k][0],
                    after[k][1] - self._cache_before[k][1]) for k in after}

    # -- output ---------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "names": self.names,
            "calls": self.calls,
            "errors": self.errors,
            "self_s": self.self_s,
            "counts": self.counts,
            "none_rows": len(self.none_rows),
            "caches": self.cache_deltas(),
            "spans": len(self.sp_name),
            "missing": self.missing,
        }

    def write_spans(self, path):
        """Spans as tab-separated rows: id, name, start, end, parent id, op.
        Times are seconds from the first recorded span; parent -1 is none."""
        t0 = min(self.sp_start) if len(self.sp_start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.sp_name)):
                fh.write(f"{self.sp_id[i]}\t{self.names[self.sp_name[i]]}\t"
                         f"{self.sp_start[i] - t0:.9f}\t{self.sp_end[i] - t0:.9f}\t"
                         f"{self.sp_parent[i]}\t{self.sp_op[i]}\n")

"""The radsym benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a radsym checkout; radsym is imported from ./src.
Load is a closed loop: one caller in one process, one operation at a time.
Every timed process is a fresh interpreter, so the module-level caches
start empty.  With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it runs the same work once untraced and once traced and reports
the per-layer metrics.  Every output is checked (see checks.py).  A
readable report comes first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Spans and
failure records go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import tracer  # noqa: E402

WORKLOADS = ("gamma0_certs", "peel_lift_certs", "symbol_batch",
             "eisenstein_periods")
COLD = ("gamma0_certs", "peel_lift_certs")
# fresh interpreters whose set-up time is measured in each untraced run;
# setup_s is their median
SETUP_SAMPLES = 5
# every run ends within this many seconds
RUN_LIMIT_S = 170
# op_p90_ms is reported only when at least 10 samples lie beyond it
P90_MIN_OPS = 100
PERIOD_CYCLES = 60


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# jobs and worker processes


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int):
        self.root = root
        self.src = root / "src"
        self.out = root / ".perfbench_out"
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.ref = inputs.load_reference()
        self._jobs = 0
        self.out.mkdir(exist_ok=True)

    def _spawn(self, job: dict) -> dict:
        """Run one job in a fresh interpreter and return its result."""
        self._jobs += 1
        path = self.out / f"job-{os.getpid()}-{self._jobs}.json"
        job = {"workload": self.workload, "src": str(self.src), "trace": False,
               **job}
        path.write_text(json.dumps(job))
        env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s")
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(path), repr(spawn)],
                cwd=self.root, env=env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"run exceeded {RUN_LIMIT_S} s") from None
        finally:
            path.unlink(missing_ok=True)
        if proc.returncode != 0:
            raise BenchError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    # -- workload units -------------------------------------------------------

    def pass_jobs(self) -> list[dict]:
        """Cold workloads: the jobs of one full pass, one process each."""
        if self.workload == "gamma0_certs":
            return [{"units": [inputs.gamma0_cert_inputs(self.seed)]}]
        return [{"units": [family]}
                for family in inputs.peel_lift_inputs(self.seed)]

    def warm_job(self) -> dict:
        """Warm workloads: all units (in order) plus the warm-up."""
        if self.workload == "symbol_batch":
            chunks = inputs.symbol_batch_chunks(self.seed, self.ref)
            folder = self.out / f"inputs-{self.seed}"
            units = [self._write_files(folder, f"chunk{j:03d}", files)
                     for j, files in enumerate(chunks)]
            warmup = self._write_files(folder, "warmup",
                                       inputs.symbol_batch_warmup(self.ref))
            return {"units": units, "warmup": warmup}
        return {"units": [inputs.period_cycle(self.seed, k)
                          for k in range(PERIOD_CYCLES)],
                "warmup": inputs.PERIOD_WARMUP}

    def _write_files(self, folder: Path, prefix: str, files: list[dict]):
        folder.mkdir(exist_ok=True)
        out = []
        for spec in files:
            suffix = "-deep" if spec["deep"] else ""
            path = folder / f"{prefix}-{spec['group']}{suffix}.txt"
            path.write_text("".join(row + "\n" for row in spec["rows"]))
            out.append({**spec, "path": str(path)})
        return out

    # -- runs -----------------------------------------------------------------

    def untraced(self) -> dict:
        """Timed work for about `seconds`, plus set-up samples."""
        results = []
        if self.workload in COLD:
            # whole passes, as many as bring the probe-scaled busy time
            # closest to `seconds`: a pass count that does not flip with the
            # machine's momentary speed
            busy = 0.0
            while True:
                new = [self._spawn({"mode": "timed", **job})
                       for job in self.pass_jobs()]
                results += new
                last = sum(op["scaled_s"] for r in new for op in r["ops"])
                busy += last
                if busy + last / 2 >= self.seconds:
                    break
            setup_job = {"mode": "setup"}
        else:
            job = self.warm_job()
            results.append(self._spawn({"mode": "timed", "budget_s": self.seconds,
                                        **job}))
            setup_job = {"mode": "setup", "warmup": job["warmup"]}
        setups = [(r["setup_scaled_s"], r["setup_s"]) for r in results]
        while len(setups) < SETUP_SAMPLES:
            r = self._spawn(setup_job)
            setups.append((r["setup_scaled_s"], r["setup_s"]))
        return {"setups": setups, "results": results}

    def traced(self) -> dict:
        """The same work untraced and traced, in fresh interpreters."""
        if self.workload in COLD:
            jobs = self.pass_jobs()
            plain = [self._spawn({"mode": "timed", **j}) for j in jobs]
            traced = [self._spawn({"mode": "timed", "trace": True,
                                   "spans_path": self._spans_path(i), **j})
                      for i, j in enumerate(jobs)]
        else:
            job = self.warm_job()
            plain = [self._spawn({"mode": "timed",
                                  "budget_s": self.seconds / 2, **job})]
            job["units"] = job["units"][:plain[0]["units"]]
            traced = [self._spawn({"mode": "timed", "trace": True,
                                   "spans_path": self._spans_path(0), **job})]
        return {"plain": plain, "traced": traced}

    def _spans_path(self, i: int) -> str:
        return str(self.out / f"spans-{self.workload}-seed{self.seed}-{i}.tsv")


# ---------------------------------------------------------------------------
# checks and metrics


def check_ops(workload: str, ops: list[dict], checker) -> list[dict]:
    if workload == "symbol_batch":
        return checker.rows(ops)
    if workload == "eisenstein_periods":
        return [checker.period(op) for op in ops]
    return [checker.cert(workload, op) for op in ops]


def _rank(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    v = sorted(values)
    return v[max(0, math.ceil(q * len(v)) - 1)]


def end_to_end(ops, outcomes, setups, results) -> tuple[dict, dict]:
    """Times are probe-scaled (see worker.py); the raw wall-clock values are
    printed beside them."""
    attempted = len(ops)
    busy = sum(op["scaled_s"] for op in ops)
    wall = sum(r["wall_s"] for r in results)
    # a failed op misses every latency target: it ranks above all others
    lat = [op["scaled_s"] * 1e3 if out["status"] == "ok" else math.inf
           for op, out in zip(ops, outcomes)]
    p50 = _rank(lat, 0.5)
    if math.isinf(p50):
        raise BenchError("more than half of the ops failed; no median latency")
    failed = sum(out["status"] != "ok" for out in outcomes)
    probe = statistics.median(r["probe_median_s"] for r in results)
    metrics = {
        "setup_s": (statistics.median(s for s, _raw in setups), "s",
                    f"median of {len(setups)} interpreters; raw "
                    f"{statistics.median(raw for _s, raw in setups):.4g} s"),
        "ops_per_s": (attempted / busy, "op/s",
                      f"{attempted} ops in {busy:.2f} s; raw {wall:.2f} s wall, "
                      f"{attempted / wall:.4g} op/s"),
        "op_p50_ms": (p50, "ms", f"{attempted} ops"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in results), "MB",
                        f"largest of {len(results)} processes"),
    }
    extra = {"failed_share": (failed / attempted, "ratio",
                              f"{failed} of {attempted} ops"),
             "probe_ms": (probe * 1e3, "ms", "median probe kernel time; "
                          "times above are scaled to 2.5 ms")}
    if attempted >= P90_MIN_OPS:
        extra["op_p90_ms"] = (_rank(lat, 0.9), "ms", f"{attempted} ops, "
                              f"{attempted - math.ceil(0.9 * attempted)} beyond")
    else:
        extra["op_p90_ms"] = (None, "ms", f"not defined: {attempted} < "
                              f"{P90_MIN_OPS} ops")
    return metrics, extra


def per_layer(workload, traced, plain, ops, outcomes) -> dict:
    names = tracer.span_names()
    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    calls = [0] * len(names)
    errors = [0] * len(names)
    self_s = [0.0] * len(names)
    counts = {k: 0 for k in tracer.COUNTS}
    caches = {k: [0, 0] for k in tracer.CACHES}
    none_rows = spans = 0
    for r in traced:
        t = r["trace"]
        for i in range(len(names)):
            calls[i] += t["calls"][i]
            errors[i] += t["errors"][i]
            self_s[i] += t["self_s"][i]
        for k in counts:
            counts[k] += t["counts"][k]
        for k in caches:
            caches[k][0] += t["caches"][k][0]
            caches[k][1] += t["caches"][k][1]
        none_rows += t["none_rows"]
        spans += t["spans"]
    for i, name in enumerate(names):
        put(f"{name}.calls", calls[i], "count")
        put(f"{name}.self_s", self_s[i], "s")
        put(f"{name}.errors", errors[i], "count")
    for k, v in counts.items():
        put(f"{k}.calls", v, "count")
    put("symbols.takada_C_row_exact.misses",
        caches["symbols.takada_C_row_exact"][1], "count")
    put("symbols.takada_C_row_exact.none_rows", none_rows, "count")
    for key, metric in (("symbols.psi_gamma", "cache_hit_ratio"),
                        ("symbols.gamma0_cusp_basis", "hit_ratio")):
        hits, misses = caches[key]
        put(f"{key}.{metric}", hits / (hits + misses) if hits + misses else 0.0,
            "ratio")
        put(f"{key}.cache_lookups", hits + misses, "count")

    kinds = {"exact": 0, "reconstructed": 0, "approx": 0}
    status = {"exact": 0, "reconstructed-verified": 0, "non-rational-flag": 0}
    traced_ops = ops[-sum(len(r["ops"]) for r in traced):]
    traced_out = outcomes[-len(traced_ops):]
    for op, out in zip(traced_ops, traced_out):
        res = op["result"] or {}
        if workload == "symbol_batch":
            if "kind" in out:
                kinds[out["kind"]] = kinds.get(out["kind"], 0) + 1
        else:
            for k in res.get("kinds", []):
                kinds[k] = kinds.get(k, 0) + 1
            if res.get("status"):
                status[res["status"]] = status.get(res["status"], 0) + 1
    for k in ("exact", "reconstructed", "approx"):
        put(f"symbols.value_kind.{k}", kinds[k], "count")
    for k in ("exact", "reconstructed-verified", "non-rational-flag"):
        put(f"periods.cert_status.{k}", status[k], "count")

    exits = {0: 0, 1: 0, 2: 0}
    rows = 0
    if workload == "symbol_batch":
        batches = {}
        for op in traced_ops:
            batches.setdefault(op["input"]["batch"], op["result"])
            if op["result"] and op["result"]["row"] is not None:
                rows += 1
        for res in batches.values():
            if res is not None and res["exit"] in exits:
                exits[res["exit"]] += 1
    for code, n in exits.items():
        put(f"cli.exit_code.{code}", n, "count")
    put("cli.rows_emitted", rows, "count")

    def busy(results):
        return sum(op["scaled_s"] for r in results for op in r["ops"])

    put("trace.overhead_ratio", busy(traced) / busy(plain), "ratio")
    # wall time of the traced ops, probe time taken out
    put("trace.wall_s", sum(op["latency_s"] for r in traced for op in r["ops"]),
        "s")
    put("trace.self_sum_s", sum(self_s), "s")
    put("trace.spans", spans, "count")
    return m


# ---------------------------------------------------------------------------
# report


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def report(args, attempted, outcomes, ops, rows, note):
    print(f"radsym benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}; closed loop, one caller, "
          f"one process at a time")
    print(note)
    for name, (value, unit, *how) in rows.items():
        print(f"  {name:<44} {_fmt(value):>14} {unit:<6} {how[0] if how else ''}")
    failed = [(op, out) for op, out in zip(ops, outcomes) if out["status"] != "ok"]
    known = sum(out.get("known", False) for _, out in failed)
    print(f"failed ops: {len(failed)} of {attempted} "
          f"({known} on inputs that fail at the seed commit)")
    causes = {}
    for op, out in failed:
        key = (out["status"], out["cause"].split(":")[0][:60], out.get("known"))
        causes[key] = causes.get(key, 0) + 1
    for (status, cause, kn), n in sorted(causes.items()):
        print(f"  {n:>6} x {status}: {cause}{' [known]' if kn else ''}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "radsym" / "__init__.py").is_file():
        print("error: run from the root of a radsym checkout (no src/radsym)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import radsym
    if not Path(radsym.__file__).resolve().is_relative_to(root.resolve()):
        print(f"error: imported radsym from {radsym.__file__}", file=sys.stderr)
        return 2
    from checks import Checker

    try:
        runner = Runner(root, args.workload, args.seed, args.seconds)
        checker = Checker(radsym, runner.ref, args.seed)
        if args.trace:
            res = runner.traced()
            results = res["plain"] + res["traced"]
        else:
            res = runner.untraced()
            results = res["results"]
        ops = [op for r in results for op in r["ops"]]
        outcomes = check_ops(args.workload, ops, checker)
        if args.trace:
            layer = per_layer(args.workload, res["traced"], res["plain"],
                              ops, outcomes)
            rows = layer
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        else:
            e2e, extra = end_to_end(ops, outcomes, res["setups"], results)
            rows = {**e2e, **extra}
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in e2e.items()}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed_out = [{"workload": args.workload, "seed": args.seed,
                   "input": op["input"], "status": out["status"],
                   "cause": out["cause"], "known": out.get("known", False)}
                  for op, out in zip(ops, outcomes) if out["status"] != "ok"]
    (runner.out / f"failures-{args.workload}-seed{args.seed}.json").write_text(
        json.dumps(failed_out, indent=1))
    unexpected = [f for f in failed_out if not f["known"]]
    wrong = [f for f in failed_out if f["status"] == "wrong"]
    note = (f"{len(results)} timed processes; {checker.unchecked} outputs "
            f"had neither a reference nor an oracle")
    report(args, len(ops), outcomes, ops, rows, note)
    print(json.dumps({
        "correct": not wrong and not unexpected,
        "attempted": len(ops),
        "failed": len(failed_out),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark job in a fresh interpreter.

    python3 perfbench/worker.py JOB.json SPAWN_MONOTONIC

The job names a workload and its inputs.  The worker imports radsym, runs
the workload's warm-up, reports the time since SPAWN_MONOTONIC (taken by
the parent just before it started this process) as set-up time, then runs
the operations one at a time and prints one JSON result line.  Radsym is
called only through its public functions and ``radsym.cli.run``.

Speed probe: the CPU speed of a shared virtual machine drifts by 10-20%
over seconds as other guests load the host.  While operations run, an
interval timer interrupts every PROBE_INTERVAL_S to time a fixed
pure-Python kernel (the signal handler runs between bytecodes, in this one
thread).  Probe time is taken out of each operation's wall time, and each
operation is also reported rescaled by REFERENCE_PROBE_S over the mean
probe time around it: the time it would take where the kernel runs in
REFERENCE_PROBE_S.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time

from inputs import PERIOD_TOL

PROBE_INTERVAL_S = 0.1
REFERENCE_PROBE_S = 0.0025
# probes this far before and after an operation count towards its speed
PROBE_WINDOW_S = 0.5


def _probe_kernel() -> int:
    x = 1
    for _ in range(15000):
        x = (x * 1103515245 + 12345) % 2147483648
    return x


class Probe:
    """Timings of the probe kernel, by start time."""

    def __init__(self):
        self.starts = []
        self.durations = []
        self.total = 0.0
        # called with each probe's duration (the tracer excludes it)
        self.on_sample = None

    def sample(self, *_signal_args):
        t = time.perf_counter()
        _probe_kernel()
        d = time.perf_counter() - t
        self.starts.append(t)
        self.durations.append(d)
        self.total += d
        if self.on_sample is not None:
            self.on_sample(d)

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Factor for the interval [t0, t1], from the probes within
        PROBE_WINDOW_S of it (at least the nearest one on each side)."""
        i = bisect.bisect_left(self.starts, t0 - PROBE_WINDOW_S)
        i = min(i, max(bisect.bisect_right(self.starts, t0) - 1, 0))
        j = bisect.bisect_right(self.starts, t1 + PROBE_WINDOW_S)
        j = max(j, bisect.bisect_left(self.starts, t1) + 1)
        return REFERENCE_PROBE_S / statistics.fmean(self.durations[i:j])


def _cert_op(radsym, op: dict) -> dict:
    fam = {"gamma0": radsym.GroupId.gamma0,
           "gamma1": radsym.GroupId.gamma1}[op["family"]]
    G = fam(op["level"])
    D = radsym.Divisor.from_dict(G, {op["cusp"]: 1, "inf": -1})
    cert = radsym.torsion_certificate(G, D)
    return {
        "order": cert.order,
        "status": cert.status,
        "kinds": [p.value.kind for p in cert.periods],
        "generators": [str(g) for g in cert.generators],
    }


def _period_op(radsym, op: dict) -> dict:
    g = radsym.parse_matrix(op["matrix"])
    v = radsym.period_numeric(g, PERIOD_TOL)
    return {"approx": v.approx, "error": v.error, "kinds": [v.kind]}


def _cli_file(cli, path: str, spec: dict) -> dict:
    argv = ["symbol", "--group", spec["family"], "--level", str(spec["level"]),
            "--input", path, "--csv"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    rows = out.getvalue().splitlines()[1:]
    return {"exit": code, "rows": rows, "stderr": err.getvalue().strip()}


class Runner:
    def __init__(self, job: dict, radsym, tracer, probe):
        self.job = job
        self.radsym = radsym
        self.tracer = tracer
        self.probe = probe
        self.ops = []

    def _timed(self, fn, *args):
        if self.tracer is not None:
            self.tracer.op = len(self.ops)
        probed = self.probe.total
        t0 = time.perf_counter()
        try:
            result, error = fn(*args), None
        except Exception as exc:  # an op that raises is recorded as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        return result, error, (t0, t1), t1 - t0 - (self.probe.total - probed)

    def run_ops(self, ops):
        op_fn = _period_op if self.job["workload"] == "eisenstein_periods" \
            else _cert_op
        for op in ops:
            result, error, span, dt = self._timed(op_fn, self.radsym, op)
            self.ops.append({"input": op, "result": result, "error": error,
                             "span": span, "latency_s": dt})

    def run_files(self, files):
        """One CLI batch per file; each row is one op, timed as its batch's
        wall time divided by the batch's row count."""
        import radsym.cli as cli
        for spec in files:
            result, error, span, dt = self._timed(_cli_file, cli, spec["path"], spec)
            for i, row in enumerate(spec["rows"]):
                self.ops.append({
                    "input": {"group": spec["group"], "matrix": row,
                              "deep": spec["deep"], "batch": spec["path"]},
                    "result": None if result is None else {
                        "exit": result["exit"],
                        "row": result["rows"][i] if i < len(result["rows"]) else None,
                        "stderr": result["stderr"]},
                    "error": error,
                    "span": span,
                    "latency_s": dt / len(spec["rows"]),
                })


def _warm_up(job: dict, radsym):
    if job["workload"] == "symbol_batch":
        import radsym.cli as cli
        for spec in job["warmup"]:
            _cli_file(cli, spec["path"], spec)
    elif job["workload"] == "eisenstein_periods":
        radsym.period_numeric(radsym.parse_matrix(job["warmup"]), PERIOD_TOL)


def main(argv) -> int:
    with open(argv[1]) as fh:
        job = json.load(fh)
    spawn = float(argv[2])
    sys.path.insert(0, job["src"])
    import radsym

    _warm_up(job, radsym)
    setup_s = time.monotonic() - spawn
    probe = Probe()
    for _ in range(3):
        probe.sample()
    result = {"setup_s": setup_s, "setup_scaled_s": setup_s * REFERENCE_PROBE_S
              / statistics.median(probe.durations)}
    if job["mode"] == "setup":
        print(json.dumps(result))
        return 0

    tracer = None
    if job["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
        probe.on_sample = tracer.exclude
    runner = Runner(job, radsym, tracer, probe)
    # units: lists of ops, or lists of files for symbol_batch; a wall-clock
    # budget stops after the unit that brings the run closest to it
    budget = job.get("budget_s")
    units_done = 0
    t_start = time.perf_counter()
    probe.start()
    for unit in job["units"]:
        if job["workload"] == "symbol_batch":
            runner.run_files(unit)
        else:
            runner.run_ops(unit)
        units_done += 1
        elapsed = time.perf_counter() - t_start
        if budget is not None and elapsed + elapsed / units_done / 2 >= budget:
            break
    probe.stop()
    wall = time.perf_counter() - t_start
    for op in runner.ops:
        op["scaled_s"] = op["latency_s"] * probe.scale(*op.pop("span"))

    result.update({
        "wall_s": wall,
        "units": units_done,
        "probe_median_s": statistics.median(probe.durations),
        "ops": runner.ops,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    })
    if tracer is not None:
        result["trace"] = tracer.summary()
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))

"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q        (from the root of the checkout)
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())

# functions each workload must reach, from the metric -> layer -> workload map
REACHED = {
    "gamma0_certs": [
        "modgroup.coset_table", "modgroup.cusps", "modgroup.cusp_equivalent",
        "modgroup.cusp_width", "modgroup.schreier_generators",
        "modgroup.member", "modgroup.element_mul",
        "dedekind.dedekind_sum", "dedekind.psi_classical",
        "dedekind.phi_classical", "symbols.gamma0_cusp_basis",
        "symbols.psi_gamma0_divisor", "periods.torsion_certificate",
        "periods.divisor_periods", "periods.divisor_period",
    ],
    "peel_lift_certs": [
        "modgroup.cosets", "symbols.takada_phi", "symbols.reduce_in_gamma",
        "symbols.lift_coset_sum", "symbols.psi_gamma", "symbols.psi_general",
        "symbols.takada_C_row_exact", "periods.torsion_certificate",
        "periods.divisor_periods", "periods.divisor_period",
    ],
    "symbol_batch": [
        "modgroup.cosets", "symbols.takada_phi", "symbols.reduce_in_gamma",
        "symbols.lift_coset_sum", "symbols.psi_gamma", "symbols.psi_general",
        "symbols.takada_C_row_exact", "cli.run",
    ],
    "eisenstein_periods": ["periods.period_numeric"],
}


def _tiny_units(workload: str, runner) -> tuple[list, object]:
    if workload == "gamma0_certs":
        ops = [op for op in inputs.gamma0_cert_inputs(1) if op["level"] in (11, 14)]
        return [ops], None
    if workload == "peel_lift_certs":
        return [[{"family": "gamma1", "level": 11, "cusp": "0"},
                 {"family": "gamma0", "level": 18, "cusp": "0"}]], None
    job = runner.warm_job()
    return job["units"][:1], job["warmup"]


@pytest.fixture(scope="module")
def tiny_traces():
    out = {}
    for workload in run.WORKLOADS:
        runner = run.Runner(ROOT, workload, 1, 1)
        units, warmup = _tiny_units(workload, runner)
        if workload == "eisenstein_periods":
            units = [units[0][:1]]
        job = {"mode": "timed", "units": units}
        if warmup is not None:
            job["warmup"] = warmup
        plain = runner._spawn(job)
        traced = runner._spawn({**job, "trace": True})
        out[workload] = (plain, traced)
    return out


def _calls(traced: dict) -> dict:
    t = traced["trace"]
    calls = dict(zip(t["names"], t["calls"]))
    calls.update(t["counts"])
    return calls


def test_same_seed_same_inputs(tmp_path):
    ref = inputs.load_reference()

    def dump(seed: int) -> bytes:
        data = {
            "gamma0": inputs.gamma0_cert_inputs(seed),
            "peel": inputs.peel_lift_inputs(seed),
            "batch": inputs.symbol_batch_chunks(seed, ref),
            "periods": [inputs.period_cycle(seed, k) for k in range(5)],
        }
        return json.dumps(data, sort_keys=True).encode()

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)
    # the batch files written for a run are byte-identical too
    runner_a = run.Runner(ROOT, "symbol_batch", 7, 1)
    runner_a.out = tmp_path / "a"
    runner_a.out.mkdir()
    runner_b = run.Runner(ROOT, "symbol_batch", 7, 1)
    runner_b.out = tmp_path / "b"
    runner_b.out.mkdir()
    runner_a.warm_job()
    runner_b.warm_job()
    files_a = sorted(p.relative_to(runner_a.out) for p in runner_a.out.rglob("*.txt"))
    files_b = sorted(p.relative_to(runner_b.out) for p in runner_b.out.rglob("*.txt"))
    assert files_a == files_b and files_a
    for rel in files_a:
        assert (runner_a.out / rel).read_bytes() == (runner_b.out / rel).read_bytes()


def test_symbol_batch_pools_are_disjoint():
    ref = inputs.load_reference()
    for name, g in ref["symbol_batch"]["groups"].items():
        timed = [e[0] for kind in ("slots", "deep") for s in g[kind] for e in s]
        assert len(timed) == len(set(timed)), name
        assert not set(g["warmup"]) & set(timed), name


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_instance_reaches_its_layers(tiny_traces, workload):
    plain, traced = tiny_traces[workload]
    calls = _calls(traced)
    for name in REACHED[workload]:
        assert calls[name] >= 1, name
    if workload == "gamma0_certs":
        assert calls["symbols.takada_phi"] == 0
    # tracing changes no output
    strip = [{k: op[k] for k in ("input", "result", "error")} for op in plain["ops"]]
    assert strip == [{k: op[k] for k in ("input", "result", "error")}
                     for op in traced["ops"]]


def test_self_times_cover_traced_wall(tiny_traces):
    _plain, traced = tiny_traces["peel_lift_certs"]
    t = traced["trace"]
    assert sum(t["self_s"]) <= traced["wall_s"]
    assert sum(t["self_s"]) >= 0.9 * traced["wall_s"]


def test_peel_lift_known_failure_is_counted(tiny_traces):
    plain, _traced = tiny_traces["peel_lift_certs"]
    import radsym
    from checks import Checker
    checker = Checker(radsym, inputs.load_reference(), 1)
    outcomes = [checker.cert("peel_lift_certs", op) for op in plain["ops"]]
    by_level = {op["input"]["level"]: out for op, out in zip(plain["ops"], outcomes)}
    assert by_level[11]["status"] == "ok"
    assert by_level[18]["status"] == "error" and by_level[18]["known"]
    assert by_level[18]["cause"].startswith("ValueError")


def test_per_layer_names_match_benchmark_json(tiny_traces):
    plain, traced = tiny_traces["eisenstein_periods"]
    ops = plain["ops"] + traced["ops"]
    outcomes = [{"status": "ok"} for _ in ops]
    layer = run.per_layer("eisenstein_periods", [traced], [plain], ops, outcomes)
    assert list(layer) == [m["name"] for m in BENCH["per_layer"]]
    assert [u for _v, u in layer.values()] == [m["unit"] for m in BENCH["per_layer"]]


def test_printed_metrics_match_benchmark_json(monkeypatch):
    """A full untraced run: the last line carries exactly the end-to-end
    metrics of BENCHMARK.json, with their units."""
    monkeypatch.chdir(ROOT)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "eisenstein_periods", "--seed", "3",
                         "--seconds", "1", "--trace", "0"])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]


def test_span_names_cover_the_mapped_functions():
    names = set(tracer.span_names()) | set(tracer.COUNTS)
    for workload, fns in REACHED.items():
        assert set(fns) <= names, workload

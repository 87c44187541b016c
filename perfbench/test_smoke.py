"""Smoke test of the benchmark on lite-size inputs (about a minute).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted, that two
invocations and a traced one give the same fingerprint, that spans nest and
self time excludes children, that each command's rate is scaled by its own
calibration, and that the benchmark refuses to run without
the lobexec sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = REPO):
    return subprocess.run(
        [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--lite"],
        capture_output=True, text=True, timeout=600, cwd=cwd)


def run_ok(workload: str, trace: int) -> tuple[dict, str]:
    done = bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads(
        (REPO / ".bench_out" / f"result_{workload}_trace{trace}.json").read_text())
    assert record["errors"] == [] and record["problems"] == []
    return result, record["fingerprint"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_and_fingerprint_repeats(workload):
    first, fp_first = run_ok(workload, 0)
    second, fp_second = run_ok(workload, 0)
    traced, fp_traced = run_ok(workload, 1)
    for result in (first, second, traced):
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == units
    assert all(v["value"] > 0 for v in first["metrics"].values())
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == layer_units
    assert fp_first == fp_second == fp_traced


def test_spans_nest_and_self_time_excludes_children():
    sys.path.insert(0, str(HERE))
    from tracing import Tracer, span_seconds

    tracer = Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(1000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    with tracer.command():
        outer()
    name, parent, start, end = tracer.arrays()
    names = [tracer.names[i] for i in name]
    assert names == ["bench.command", "outer", "inner", "inner", "inner"]
    assert list(parent) == [-1, 0, 1, 1, 1]
    assert all(s <= e for s, e in zip(start, end))
    assert start[1] <= start[2] and end[4] <= end[1]
    dur, self_t = span_seconds(tracer)
    assert self_t[1] == pytest.approx(dur[1] - dur[2:].sum())
    assert self_t[0] == pytest.approx(dur[0] - dur[1])
    assert list(self_t[2:]) == list(dur[2:])


def test_rates_scale_each_command_by_its_calibration():
    sys.path.insert(0, str(HERE))
    import run

    cal = run.CALIBRATION_S
    records = [{"units": 100, "wall_s": 1.0, "ref_s": cal, "error": None},
               {"units": 100, "wall_s": 2.0, "ref_s": 2 * cal, "error": None},
               {"units": 100, "wall_s": 0.5, "ref_s": cal / 2, "error": None},
               {"units": 0, "wall_s": 9.0, "ref_s": cal, "error": "boom"}]
    assert run.Run.rates(None, records) == (pytest.approx(100.0), 100.0)
    chunk, spent = run.calibrate(0.01)
    assert 0 < chunk <= spent


def test_install_restores_every_patched_name():
    sys.path[:0] = [str(HERE), str(REPO / "src")]
    import lobexec.cli  # noqa: F401  (imports every traced module)
    from tracing import Tracer, install

    def snapshot():
        spaces = [m for n, m in sys.modules.items() if n.startswith("lobexec")]
        spaces += [cls for m in list(spaces) for cls in vars(m).values()
                   if isinstance(cls, type)]
        spaces.append(Path)
        return {(id(ns), k): v for ns in spaces for k, v in list(vars(ns).items())}

    before = snapshot()
    with install(Tracer()):
        assert lobexec.cli.train is not before[(id(lobexec.cli), "train")]
    after = snapshot()
    assert all(after[key] is value for key, value in before.items())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("sim_full", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

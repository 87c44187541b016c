#!/usr/bin/env python3
"""lobexec benchmark: closed-loop workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload all --seed 0 --seconds 22 --trace 0

runs the four workloads one after another, one process each, and prints
every end-to-end metric by name and unit, the failure counts and the
behaviour fingerprint of each. ``--trace 1`` gives the per-layer metrics
instead. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check and fingerprint comparison passed.

See perfbench/README.md for the workloads, the metrics and the layer table.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT = REPO / ".bench_out"
EXPECTED = HERE / "expected_fingerprints.json"
SETUP_REPEATS = 7
# Seconds one calibration chunk takes at the reference host speed: about its
# median on a 2-vCPU Intel Xeon VM (Python 3.11.7). Timed figures are scaled
# to that speed; see "Host-speed correction" in perfbench/README.md.
CALIBRATION_S = 0.045
# Calibration time after each timed step, as a share of the step's time.
CALIBRATION_SHARE = 0.15

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402  (stdlib-only import)

def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=22.0,
                   help="time to measure per run: commands and their calibration")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--lite", action="store_true",
                   help="small inputs, for the smoke test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def machine_record() -> dict:
    import importlib.util

    import numpy as np
    from lobexec import _kernels

    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "lobexec_kernels_USE_NUMBA": bool(_kernels.USE_NUMBA),
        "kernel_path": "numba" if _kernels.USE_NUMBA else "numpy",
    }


_CALIBRATION_DATA: tuple | None = None


def calibrate(seconds: float = 0.0) -> tuple[float, float]:
    """Mean seconds per chunk of a fixed loop that calls no lobexec code,
    over chunks run until ``seconds`` have passed (at least one), and the
    time spent.

    The host's speed drifts by tens of percent over seconds to minutes. The
    loop is timed next to each measured step, and the step's time is scaled
    by ``CALIBRATION_S`` over the chunk time, so the drift cancels and a
    change to lobexec still shows in full. Like lobexec, a chunk mixes
    interpreted code that reaches into memory (a pointer chase over a 3 MB
    random cycle) with small numpy matmuls of the DQN's shapes.
    """
    global _CALIBRATION_DATA
    import numpy as np
    if _CALIBRATION_DATA is None:
        order = np.random.default_rng(0).permutation(400_000)
        cycle = np.empty_like(order)
        cycle[order] = np.roll(order, -1)
        rng = np.random.default_rng(1)
        _CALIBRATION_DATA = (memoryview(cycle), rng.random((32, 64)),
                             rng.random((64, 64)) / 64)
    cycle, x0, w = _CALIBRATION_DATA
    start = time.perf_counter()
    chunks = 0
    while not chunks or time.perf_counter() - start < seconds:
        j = total = 0
        for _ in range(135_000):
            j = cycle[j]
            total += j & 7
        x = x0
        for _ in range(1_650):
            x = np.maximum(x @ w, 0.0) + x0
        chunks += 1
    spent = time.perf_counter() - start
    return spent / chunks, spent


def pin_mmap_threshold() -> bool:
    """Fix glibc's mmap threshold at its 128 KiB default in this process.

    glibc raises the threshold each time a large block is freed, so later
    large arrays, such as a training run's replay memory, come from the heap
    and may have every page touched at once. Where that happens varies from
    process to process and moved ``peak_rss_mb`` by up to 8% within one
    command and by 24 MB over several. Setting the threshold turns the
    adjustment off, so the peak tracks what lobexec allocates.
    """
    try:
        return ctypes.CDLL("libc.so.6").mallopt(-3, 128 * 1024) == 1  # M_MMAP_THRESHOLD
    except (OSError, AttributeError):  # not glibc
        return False


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def setup_probe(args) -> None:
    """Child process: time imports, config and checkpoint generation."""
    work = fresh_dir(OUT / "work" / f"probe-{os.getpid()}")
    try:
        start = time.perf_counter()
        WORKLOADS[args.workload](work, args.seed, args.lite).setup()
        print(time.perf_counter() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_seconds(args) -> tuple[float, float]:
    """Median set-up time over fresh interpreter processes, scaled to the
    reference host speed and as measured."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.lite:
        cmd.append("--lite")
    raw, scaled = [], []
    ref, _ = calibrate()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              check=True)
        after, _ = calibrate(CALIBRATION_SHARE * (time.perf_counter() - start))
        raw.append(float(done.stdout.strip().splitlines()[-1]))
        scaled.append(raw[-1] * CALIBRATION_S / ((ref + after) / 2))
        ref = after
    return statistics.median(scaled), statistics.median(raw)


class Run:
    """One workload measured for a fixed amount of time."""

    def __init__(self, args, work: Path):
        self.args = args
        self.workload = WORKLOADS[args.workload](work, args.seed, args.lite)
        self.work = work
        self.commands: list[dict] = []
        self.output_bytes = 0

    def command(self, i: int, tracer=None) -> dict:
        out = fresh_dir(self.work / f"cmd{i}")
        self.workload.events = 0
        start = time.perf_counter()
        if tracer is None:
            outcome = self.workload.run(i, out)
        else:
            with tracer.command():
                outcome = self.workload.run(i, out)
            tracer.count("kernel.events", self.workload.events)
        wall = time.perf_counter() - start
        record = {"index": i, "seed": self.workload.command_seed(i), "wall_s": wall,
                  "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                  "units": outcome.units, "operations": outcome.operations,
                  "error": outcome.error, "problems": []}
        if outcome.error is None:
            record["problems"] = self.workload.check(i, out)
        if i == 0:
            from checks import fingerprint, tree_bytes
            record["fingerprint"] = fingerprint(out)
            self.output_bytes = tree_bytes(out)
        shutil.rmtree(out)
        self.commands.append(record)
        return record

    def measure(self, tracer=None, elapsed: float = 0.0) -> list[dict]:
        """Commands until ``--seconds`` have passed. Untraced, each command
        records ``ref_s``, the mean of the calibrations before and after it."""
        records = []
        ref = None if tracer else calibrate()[0]
        while not records or elapsed < self.args.seconds:
            records.append(self.command(len(records), tracer))
            elapsed += records[-1]["wall_s"]
            if ref is not None:
                after, spent = calibrate(CALIBRATION_SHARE * records[-1]["wall_s"])
                records[-1]["ref_s"] = (ref + after) / 2
                elapsed += spent
                ref = after
        return records

    def rates(self, records) -> tuple[float, float]:
        """Median work units per second, scaled to the reference host speed
        and as measured."""
        ok = [r for r in records if r["error"] is None and r["units"] > 0]
        if not ok:
            return 0.0, 0.0
        raw = [r["units"] / r["wall_s"] for r in ok]
        scaled = [x * r["ref_s"] / CALIBRATION_S for x, r in zip(raw, ok)]
        return statistics.median(scaled), statistics.median(raw)


def expected_fingerprint(args) -> str | None:
    if args.lite or args.seed != 0 or not EXPECTED.is_file():
        return None
    return json.loads(EXPECTED.read_text()).get(args.workload)


def run_workload(args) -> int:
    pinned = pin_mmap_threshold()
    work = fresh_dir(OUT / "work" / f"{args.workload}-{os.getpid()}")
    try:
        return _run_workload(args, work, pinned)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run_workload(args, work: Path, pinned: bool) -> int:
    setup_s, setup_raw = (None, None) if args.trace else setup_seconds(args)
    run = Run(args, work)
    run.workload.setup()
    notes, layers, unscaled = [], {}, {}

    if args.trace:
        from tracing import Tracer, install, layer_shares, per_layer
        plain = run.command(0)
        tracer = Tracer()
        with install(tracer):
            traced = run.measure(tracer, elapsed=plain["wall_s"])
        fp = traced[0]["fingerprint"]
        if fp != plain["fingerprint"]:
            notes.append(f"traced fingerprint {fp} != untraced {plain['fingerprint']}")
        overhead = traced[0]["wall_s"] / plain["wall_s"] - 1.0
        metrics = per_layer(tracer, overhead, run.output_bytes)
        layers = layer_shares(tracer)
        tracer.dump(OUT / f"spans_{args.workload}.npz")
    else:
        records = run.measure()
        fp = records[0]["fingerprint"]
        rate, rate_raw = run.rates(records)
        unscaled = {"units_per_s": rate_raw, "setup_s": setup_raw}
        metrics = {
            "units_per_s": (rate, "1/s"),
            "setup_s": (setup_s, "s"),
            # Over set-up and command 0, as for one CLI call, so that it does
            # not depend on how many commands fit in the run.
            "peak_rss_mb": (records[0]["maxrss_mb"], "MB"),
        }

    expected = expected_fingerprint(args)
    if expected is not None and fp != expected:
        notes.append(f"fingerprint {fp} != expected {expected} for seed 0")
    problems = [f"command {r['index']} (seed {r['seed']}): {p}"
                for r in run.commands for p in r["problems"]]
    errors = [f"command {r['index']} (seed {r['seed']}): {r['error']}"
              for r in run.commands if r["error"]]
    attempted = sum(r["operations"] for r in run.commands)
    failed = sum(r["operations"] for r in run.commands if r["error"] or r["problems"])
    correct = not notes and not problems
    if notes:  # a behaviour change fails every operation of the run
        failed = attempted

    machine = {**machine_record(), "mmap_threshold_pinned": pinned}
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "lite": args.lite, "fingerprint": fp,
              "expected_fingerprint": expected, "notes": notes, "errors": errors,
              "problems": problems, "machine": machine, "commands": run.commands,
              "layer_self_share": layers, "calibration_s": CALIBRATION_S,
              "unscaled": unscaled,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result_{args.workload}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))

    w = run.workload
    print(f"== {w.name}  seed {args.seed}  trace {args.trace}  "
          f"{len(run.commands)} commands  kernel path: {machine['kernel_path']}")
    for key, (value, unit) in metrics.items():
        label = f"  ({w.alias}: {w.unit} per second)" if key == "units_per_s" else ""
        if key in unscaled:
            label += f"  [unscaled {unscaled[key]:.6g}]"
        print(f"  {key:40s} {value:14.6g} {unit}{label}")
    print(f"  {'error_rate':40s} {failed / attempted:14.6g}   "
          f"({failed} failed of {attempted} operations)")
    if layers:
        print("  self-time share by layer: " + ", ".join(
            f"{k} {v:.1%}" for k, v in layers.items()))
    for line in errors + problems + notes:
        print(f"  ! {line}")
    verdict = "match" if expected == fp else ("MISMATCH" if expected else "not recorded")
    print(f"  fingerprint {fp}  (expected for seed 0: {verdict})")
    print(f"  machine {json.dumps(machine)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": report["metrics"]}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.lite:
            cmd.append("--lite")
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"== {name} failed (exit {done.returncode}):\n{done.stderr}")
            totals["correct"] = False
            status = 1
            continue
        status = status or done.returncode
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            totals["metrics"][f"{name}.{key}"] = value
    print(json.dumps(totals))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lobexec" / "__init__.py").is_file():
        print(f"error: lobexec sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        setup_probe(args)
        return 0
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

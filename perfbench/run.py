"""flowtrack benchmark: one workload, timed end to end, checked, optionally traced.

    python3 perfbench/run.py --workload stream-nn --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The inputs are generated from ``--seed``
into ``perfbench/_work`` (removed at exit).  Each round runs the program once
in a fresh interpreter (``perfbench/child.py``); rounds repeat until
``--seconds`` have passed, and at least two are made.  The outputs of every
round are checked against computations made apart from the program.

With ``--trace 0`` the end-to-end metrics are reported: medians over the
rounds, and per-frame latency percentiles over every frame of every round.
With ``--trace 1`` untraced and traced rounds alternate, and the per-layer
metrics of the traced rounds are reported with the tracing overhead.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts operations:
a round is one ``track`` or ``eval`` call, and a ``stream-nn`` round adds a
second one, the ground probe: an untimed ``track`` call on the stream-nn
scenario at a fixed seed, which fails when a fitted ground plane is not the
scenario's plane.  ``correct`` speaks of the operations that did not fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MIN_ROUNDS = 2
# No round starts later than LAST_START_S after launch and none runs past
# DEADLINE_S, so that a run whose rounds fail or hang still ends within
# three minutes.
LAST_START_S = 140.0
DEADLINE_S = 170.0
WORKLOADS = ("stream-nn", "crowd-cv", "eval-sweep")
# A round runs on one thread: on a host of two or so cores, a BLAS thread
# pool per round made setup_s slower and noisier (its threads start while
# numpy is imported) for no work the program hands to BLAS.
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
# The tracker's default min_det: the frames in which every live tracklet is
# reported, confirmed or not.
WARMUP_FRAMES = 3
# 2.5 times the scenario's ground noise (sigma 2 cm).  A plane fitted to the
# ground points sits within a few millimetres of the true one.
GROUND_TOLERANCE_M = 0.05

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "frame_ms_p50": "ms",
    "frame_ms_p95": "ms",
    "peak_rss_mb": "MB",
    "mota": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_round(spec: dict, work: Path, index: int, timeout: float) -> dict | None:
    """One program run in a fresh interpreter; None when it failed."""
    spec_path = work / f"spec{index}.json"
    record_path = work / f"record{index}.json"
    spec_path.write_text(json.dumps(spec))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path), str(record_path)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            timeout=timeout, env={**os.environ, **ONE_THREAD},
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"round {index} killed after {timeout:.0f} s\n")
        return None
    if proc.returncode != 0 or not record_path.exists():
        sys.stderr.write(f"round {index} failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}\n")
        return None
    return json.loads(record_path.read_text())


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tracking_spec(workload: str, inputs, out: Path) -> dict:
    files = {
        "detections": str(inputs.directory / "detections.txt"),
        "calib": str(inputs.directory / "calib.txt"),
        "out": str(out),
        "predictor": "flow" if workload == "stream-nn" else "cv",
    }
    if inputs.has_clouds:
        files["clouds"] = str(inputs.directory / "velodyne")
    return files


class Checker:
    """Checks each round's outputs; the expensive checks run on the first
    round, later rounds must reproduce its outputs byte for byte."""

    def __init__(self, workload: str, inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.failures: list[str] = []
        self.reference: tuple | None = None
        self.mota: float | None = None

    def check(self, record: dict, out: Path, captures: Path) -> None:
        import checks

        if self.workload == "eval-sweep":
            report_files = [out / "report_iou0.25.json", out / "report_iou0.25.txt"]
            missing = [p.name for p in report_files if not p.exists()]
            if missing:
                self.failures.append(f"reports not written: {missing}")
            fingerprint = (json.dumps(record["report"]),)
            if self.reference is None:
                rows, samota, mota = checks.expected_sweep(
                    self.inputs.gt_dir, self.inputs.results_dir, self.inputs.sequences
                )
                self.failures += checks.check_sweep(record["report"], rows, samota)
                self.mota = record["report"]["mota"]
                if abs(self.mota - mota) > 1e-9:
                    self.failures.append(f"report MOTA {self.mota!r}, expected {mota!r}")
        else:
            results = out / "results.txt"
            fingerprint = (digest(results), digest(captures))
            if self.reference is None:
                self.failures += checks.check_track_file(results, WARMUP_FRAMES)
                self.mota = checks.clear_mota(self.inputs.directory / "gt.txt", results)
                self._check_captures(record, captures)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            self.failures.append("a later round's outputs differ from the first round's")

    def _check_captures(self, record: dict, captures: Path) -> None:
        import numpy as np

        import checks

        data = np.load(captures)
        if self.workload == "stream-nn":
            samples = sorted({k.split("_")[0] for k in data.files})
            if not samples:
                self.failures.append("no nn flow was captured")
            for s in samples:
                self.failures += checks.check_nearest_neighbour(
                    data[f"{s}_p"], data[f"{s}_c"], float(data[f"{s}_d"]), data[f"{s}_v"]
                )
        else:
            pairs, matches = record["assignment_pairs"], record["matches"]
            if not pairs or len(pairs) != len(matches):
                self.failures.append("assignments and matches were not captured alike")
            for i, (chosen, (iou_min, kept)) in enumerate(zip(pairs, matches)):
                self.failures += checks.check_assignment(data[f"sim{i}"], chosen, iou_min, kept)


def ground_probe(planes: list, ground_z: float) -> list[str]:
    """Failures of the ground probe: one message per plane that is not the
    scenario's ground."""
    import checks

    if not planes:
        return ["no ground fit was captured"]
    return [
        message
        for found, plane in planes
        for message in checks.check_ground_plane(plane if found else None, ground_z, GROUND_TOLERANCE_M)
    ]


def make_inputs(workload: str, seed: int, work: Path):
    import workloads

    if workload == "stream-nn":
        return workloads.make_stream_nn(work / "inputs", seed)
    if workload == "crowd-cv":
        return workloads.make_crowd_cv(work / "inputs", seed)
    return workloads.make_eval_sweep(work / "inputs", seed)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    launched = time.perf_counter()
    # Turn a termination request into an exception, so that the running
    # round is killed and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "flowtrack" / "__init__.py").is_file():
        sys.stderr.write(f"no flowtrack sources under {SRC}; run from a full checkout\n")
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]

    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, work, launched)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, launched: float) -> int:
    generated = time.perf_counter()
    inputs = make_inputs(args.workload, args.seed, work)
    probe = None
    if args.workload == "stream-nn":
        import workloads

        probe = workloads.make_stream_nn(
            work / "probe", workloads.PROBE_SEED, workloads.PROBE_FRAMES
        )
    generated = time.perf_counter() - generated
    checker = Checker(args.workload, inputs)

    records: list[dict] = []
    traced: list[dict] = []
    rounds = attempted = failed = 0
    operations = 1 if probe is None else 2
    probe_failures: list[str] = []
    started = time.perf_counter()
    while time.perf_counter() - launched < LAST_START_S and (
        time.perf_counter() - started < args.seconds
        or len(records) < MIN_ROUNDS
        or (args.trace and not traced)
    ):
        # With tracing, untraced and traced rounds alternate.
        trace_round = bool(args.trace) and rounds % 2 == 1
        rounds += 1
        out = work / f"out{rounds}"
        captures = work / f"captures{rounds}.npz"
        spec = {
            "src": str(SRC), "bench": str(BENCH), "workload": args.workload,
            "trace": trace_round, "captures": str(captures),
        }
        if args.workload == "eval-sweep":
            spec["inputs"] = {
                "gt": str(inputs.gt_dir), "results": str(inputs.results_dir), "out": str(out),
            }
        else:
            spec["inputs"] = tracking_spec(args.workload, inputs, out)
        if probe is not None:
            spec["probe"] = tracking_spec(args.workload, probe, work / f"probe_out{rounds}")
        attempted += operations
        record = run_round(
            spec, work, rounds, DEADLINE_S - (time.perf_counter() - launched)
        )
        if record is None:
            failed += operations
            continue
        checker.check(record, out, captures)
        if probe is not None:
            shutil.rmtree(spec["probe"]["out"], ignore_errors=True)
            probe_failures = ground_probe(record["probe_planes"], probe.ground_z)
            failed += bool(probe_failures)
        shutil.rmtree(out, ignore_errors=True)
        captures.unlink(missing_ok=True)
        (traced if trace_round else records).append(record)

    if not records or (args.trace and not traced):
        sys.stderr.write("no round completed\n")
        return 1

    frames = [t * 1000.0 for r in records for t in r["frame_s"]]
    twentieths = statistics.quantiles(frames, n=20, method="inclusive")
    end_to_end = {
        "setup_s": statistics.median(r["setup_s"] for r in records),
        "wall_s": statistics.median(r["wall_s"] for r in records),
        "frame_ms_p50": twentieths[9],
        "frame_ms_p95": twentieths[18],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in records),
        "mota": checker.mota,
    }

    print(f"workload {args.workload}  seed {args.seed}  inputs made in {generated:.2f} s")
    print(f"rounds: {len(records)} untraced, {len(traced)} traced; {failed} of {attempted} "
          f"operations failed; {len(frames)} frame samples")
    for failure in checker.failures:
        print(f"CHECK FAILED: {failure}")
    if probe_failures:
        print(f"GROUND PROBE FAILED on {len(probe_failures)} planes, first: {probe_failures[0]}")
    for name, value in end_to_end.items():
        print(f"  {name:<34} {value:>14.6g} {END_TO_END[name]}")

    if args.trace:
        metrics = per_layer(traced, end_to_end["wall_s"])
    else:
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in end_to_end.items()}
    result = {
        "correct": not checker.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def per_layer(traced: list[dict], untraced_wall_s: float) -> dict:
    """Medians over the traced rounds; an absent name reads 0 and is listed."""
    import tracer

    metrics = {}
    print("per-layer (traced rounds, self time where calls nest):")
    for name in tracer.LAYER_METRICS:
        values = [r["layers"][name] for r in traced]
        absent = any(v is None for v in values)
        value = 0.0 if absent else statistics.median(values)
        unit = layer_unit(name)
        print(f"  {name:<34} {'absent' if absent else f'{value:>14.6g}'} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    overhead = statistics.median(r["wall_s"] for r in traced) / untraced_wall_s
    print(f"  {'trace.overhead_ratio':<34} {overhead:>14.6g} ratio")
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    return metrics


if __name__ == "__main__":
    sys.exit(main())

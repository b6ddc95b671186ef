"""Reference tracking quality on the stream-nn scenario: nn flow against
constant velocity, at the full frame rate and at every third frame.

    python3 perfbench/reference.py

The figures back the paper's frame-rate claim in the README; they are for
reference only and no run of the benchmark gates on them.  Frames are
dropped with the program's own ``decimate`` (``cli.run_decimation``), which
writes no flow files, so only the ``nn`` flow source can run on the
decimated scenario.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = (1, 2, 3)
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import workloads  # noqa: E402
from flowtrack import cli  # noqa: E402


def main() -> int:
    work = BENCH / "_work" / "reference"
    print(f"{'seed':>4} {'stride':>6} {'nn MOTA':>8} {'cv MOTA':>8}")
    try:
        for seed in SEEDS:
            shutil.rmtree(work, ignore_errors=True)
            full = workloads.make_stream_nn(work / "stride1", seed).directory
            cli.run_decimation(full, work / "stride3", stride=3, offset=0)
            for stride in (1, 3):
                scenario = work / f"stride{stride}"
                mota = {}
                for predictor in ("flow", "cv"):
                    result = cli.run_tracking_files(
                        scenario / "detections.txt", scenario / "velodyne",
                        scenario / "calib.txt", scenario / predictor,
                        flow_source="nn", predictor=predictor,
                    )
                    mota[predictor] = checks.clear_mota(scenario / "gt.txt", result)
                print(f"{seed:>4} {stride:>6} {mota['flow']:>8.4f} {mota['cv']:>8.4f}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

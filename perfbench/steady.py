"""Steadiness of the benchmark: two sets of runs of the same code.

    python3 perfbench/steady.py

Each set runs every workload of ``BENCHMARK.json`` ten times with
``run_seconds``, each run with another seed (the second set uses other seeds
than the first), interleaving the workloads so that a drift of the host
touches all of them alike.  Every run's result is printed as it ends.  For
every end-to-end metric it then prints the spread of each set, taken as the
distance between the first and third quartile over the median, and how far
the second set's median moved from the first's, worse direction positive.
The bounds in ``BENCHMARK.json`` are chosen from these figures, and the exit
status is 1 when a spread or a move exceeds its bound there, when a run
failed or was not correct, or when the share of failed operations differs
between runs.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETS = 2
RUNS = 10
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        return {"exit": proc.returncode}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = {w: [[] for _ in range(SETS)] for w in names}
    for s in range(SETS):
        for i in range(RUNS):
            for w in names:
                seed = FIRST_SEED + 1000 * s + i
                result = one_run(w, seed, spec["run_seconds"])
                runs[w][s].append(result)
                print(f"set {s + 1} run {i + 1} {w} seed {seed}: {json.dumps(result)}", flush=True)

    ok = True
    for w, sets in runs.items():
        print(f"\n{w}")
        results = [r for results in sets for r in results]
        bad = [r for r in results if r.get("exit") or not r.get("correct")]
        shares = {r["failed"] / r["attempted"] for r in results if "attempted" in r}
        print(f"  {len(results)} runs, {len(bad)} failed or incorrect, "
              f"failed shares {sorted(shares)}")
        ok &= not bad and len(shares) == 1
        print(f"  {'metric':<14} {'median 1':>10} {'spread 1':>9} {'median 2':>10} "
              f"{'spread 2':>9} {'moved':>7} {'bound':>6}")
        for info in spec["end_to_end"]:
            name = info["name"]
            per_set = [[r["metrics"][name]["value"] for r in results if "metrics" in r]
                       for results in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            sign = 1.0 if info["better"] == "lower" else -1.0
            moved = sign * (medians[1] / medians[0] - 1.0)
            steady = moved <= info["bound"] and max(spreads) <= info["bound"]
            ok &= steady
            print(f"  {name:<14} {medians[0]:>10.5g} {spreads[0]:>9.3f} {medians[1]:>10.5g} "
                  f"{spreads[1]:>9.3f} {moved:>+7.3f} {info['bound']:>6.2f}"
                  f"{'' if steady else '  OUT OF BOUND'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the benchmark: one untraced run per seed, one after another.

    python3 bench/spread.py --workloads planar-suite,dense-pairs --seeds 101-110 --seconds 20

For each workload and end-to-end metric it prints the median, the quartiles
and (q3 - q1) / median over the runs, as ``statistics.quantiles(n=4)``
gives them, and each run's wall time.  ``--out FILE`` also writes them as
JSON, with every run's value in seed order.  Run it from the root of a
source checkout, like ``run.py``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", required=True, help="comma-separated workload names")
    p.add_argument("--seeds", required=True, help="first-last, as 101-110")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", help="also write the summary to this JSON file")
    args = p.parse_args()

    result = {}
    for workload in args.workloads.split(","):
        values, walls, not_correct = {}, [], []
        for seed in seed_range(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                                   "--seconds", str(args.seconds), "--trace", "0"],
                                  capture_output=True, text=True)
            walls.append(time.perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            if proc.returncode != 0 or last is None or not last["correct"]:
                not_correct.append(seed)
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
            if last is None:
                continue
            for name, metric in last["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        entry = {name: summary(v) for name, v in values.items() if len(v) >= 2}
        entry["runs_not_correct"] = not_correct
        entry["wall_s"] = walls
        result[workload] = entry
        for name, s in entry.items():
            if isinstance(s, dict):
                print(f"{workload:14s} {name:14s} median {s['median']:.6g}  spread {s['spread']:.4f}")
        print(f"{workload:14s} wall per run {statistics.fmean(walls):.1f} s, "
              f"not correct: {not_correct}", flush=True)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/steadiness.py --seeds 1-10 [--workloads noise_sweep,...] [--record]

Runs bench/run_bench.py once per (workload, seed), one process at a time,
with the command and run_seconds from BENCHMARK.json, and prints for each
end-to-end metric the median, the quartiles from
statistics.quantiles(n=4) and the spread (q3 - q1) / median next to the
metric's bound. --record appends the table as a new set to
bench/STEADINESS.json and prints how far each median moved from the
previous set, against the same bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(manifest: dict, workload: str, seed: int) -> dict:
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {"wall_s": wall, **{k: v["value"] for k, v in result["metrics"].items()}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=None, help="comma list (default: all)")
    parser.add_argument("--record", action="store_true", help="append a set to bench/STEADINESS.json")
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json") as fh:
        manifest = json.load(fh)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in manifest["workloads"]]
    seeds = _seeds(args.seeds)
    record = {}
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(manifest, name, seed))
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()),
                  flush=True)
        record[name] = {}
        for metric in manifest["end_to_end"]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            record[name][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": metric["bound"], "better": metric["better"], "runs": len(values),
            }
            flag = "" if spread < metric["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"  {metric['name']:14s} median {median:.6g} q1 {q1:.6g} q3 {q3:.6g} "
                  f"spread {spread:.4f} bound {metric['bound']}{flag}")
        print(f"  wall per run: max {max(r['wall_s'] for r in runs):.1f} s", flush=True)
    if args.record:
        path = BENCH / "STEADINESS.json"
        sets = json.loads(path.read_text())["sets"] if path.exists() else []
        if sets:
            _compare(sets[-1]["workloads"], record)
        sets.append({"seeds": seeds, "run_seconds": manifest["run_seconds"],
                     "python": platform.python_version(), "workloads": record})
        path.write_text(json.dumps({"sets": sets}, indent=1) + "\n")
    return 0


def _compare(before: dict, after: dict) -> None:
    """Worsening of each median from the previous set, as a share of it."""
    for name, metrics in after.items():
        for metric, now in metrics.items():
            if metric not in before.get(name, {}):
                continue
            then = before[name][metric]["median"]
            worse = (now["median"] - then) / then
            if now["better"] == "higher":
                worse = -worse
            verdict = "within" if worse <= now["bound"] else "OUTSIDE"
            print(f"{name} {metric}: median {then:.6g} -> {now['median']:.6g}, "
                  f"worse by {worse:+.4f}, {verdict} bound {now['bound']}")


if __name__ == "__main__":
    sys.exit(main())

"""Write BENCH_<pr>.json: medians of the perfbench end-to-end metrics over a
fixed seed list, one traced run per workload, and the tier-1 wall time.

    python3 scripts/bench.py --pr 6

It runs `perfbench/run.py` for BENCHMARK.json's `run_seconds` once per
workload and seed (1, 2, 3) with `--trace 0`, and once per workload with
`--trace 1` on seed 1, about nine minutes in all.  Before and after those
runs it times a fixed pure-Python loop (best of 5) and stores both times.
Then it prints each metric's ratio to the newest earlier BENCH_*.json, the
calibration loop's ratio first: a ratio across files measures the machine
too, and a workload ratio near the calibration ratio is machine drift, not a
change in the code.  Measure the files to compare on the same machine.  When
that file is not BENCH_<pr-1>.json, it first names the PRs the ratios span,
for example "ratios to BENCH_19.json span PRs 20–21".
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SEEDS = (1, 2, 3)  # the same on every BENCH file, so that files compare
SECONDS = SPEC["run_seconds"]


def calibrate() -> float:
    """Best of 5 wall times, in seconds, of a fixed pure-Python loop that
    calls nothing from the repository."""
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def perfbench(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {key: result[key] for key in ("correct", "attempted", "failed")} | values


def run_workload(workload: str) -> dict:
    runs = [perfbench(workload, seed, 0) for seed in SEEDS]
    medians = {m["name"]: statistics.median(r[m["name"]] for r in runs) for m in SPEC["end_to_end"]}
    traced = perfbench(workload, SEEDS[0], 1)
    return {
        "end_to_end": medians,
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "correct": all(r["correct"] for r in runs + [traced]),
        "runs": dict(zip(map(str, SEEDS), runs)),
        "per_layer": {m["name"]: traced[m["name"]] for m in SPEC["per_layer"]},
    }


def tier1() -> dict:
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    summary = proc.stdout.strip().splitlines()[-1]
    return {"wall_s": wall, "exit": proc.returncode, "summary": summary}


def previous(pr: int) -> Path | None:
    found = [(int(m.group(1)), p) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name)) and int(m.group(1)) < pr]
    return max(found)[1] if found else None


def print_ratios(bench: dict, base: dict) -> None:
    for when, now in bench["calibration"].items():  # older files have no calibration
        was = base.get("calibration", {}).get(when)
        ratio = f"{now / was:8.3f}  ({was:.4g} -> {now:.4g})" if was else f"     n/a  (-> {now:.4g})"
        print(f"calibration {when:<32} {ratio}")
    for name, new in bench["workloads"].items():
        old = base["workloads"].get(name, {})
        for kind in ("end_to_end", "per_layer"):
            for metric, value in new[kind].items():
                was = old.get(kind, {}).get(metric)
                if was:
                    print(f"{name:<11} {metric:<32} {value / was:8.3f}  ({was:.4g} -> {value:.4g})")
    print(f"tier-1 wall_s {bench['tier1']['wall_s'] / base['tier1']['wall_s']:8.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    args = parser.parse_args()
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    # Uncommitted edits under src/ mean the numbers are not those of the commit.
    status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                            capture_output=True, text=True)
    before = calibrate()
    bench = {
        "commit": git.stdout.strip() or "unknown",
        "src_dirty": bool(status.stdout.strip()),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seeds": SEEDS,
        "seconds": SECONDS,
        "workloads": {w["name"]: run_workload(w["name"]) for w in SPEC["workloads"]},
        "tier1": tier1(),
    }
    bench["calibration"] = {"before_s": before, "after_s": calibrate()}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}")
    base_path = previous(args.pr)
    if base_path is not None:
        base_pr = int(base_path.stem.split("_")[1])
        if base_pr != args.pr - 1:
            # Every change since base_pr lands in these ratios, not only this one.
            print(f"ratios to {base_path.name} span PRs {base_pr + 1}\u2013{args.pr}")
        print(f"ratios to {base_path.name} (new / old)")
        print_ratios(bench, json.loads(base_path.read_text()))
    return 0


if __name__ == "__main__":
    sys.exit(main())

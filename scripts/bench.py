"""Write BENCH_<pr>.json: alternating parent/change pairs of every perfbench
workload, both sides measured the same way.

    python3 scripts/bench.py --pr N --parent HEAD~1 [--workload W] [--pairs K]

The parent REV and the change (`git stash create` if the working tree has
uncommitted edits, else HEAD) are exported with `git archive REV | tar -x`
into sibling directories of one temporary directory; nothing is written into
the working tree.  Per workload, K (default 10) pairs of `perfbench/run.py
--trace 0` run for BENCHMARK.json's `run_seconds`, alternating which side goes
first; pair k runs seed S + k on both sides, S taken from the change commit's
hash.  One `--trace 1` run per side on seed S gives the per-layer trace.  A
fixed pure-Python loop is timed before and after, and tier-1 on the change.

Per workload and side the file holds every run, each end-to-end metric's
quartiles and the failed/attempted operations; per metric, the change/parent
ratio of the medians, the pairs each side won (ties count for neither) and
whether the median gap exceeds the parent's interquartile range.  A run that
exits nonzero or answers wrongly stays with its pair, is left out of the
comparison, and makes the script exit 1.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """Write the files of commit `rev` into dest: `git archive REV | tar -x`."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait():
        raise SystemExit(f"git archive {rev} failed")


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


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One `perfbench/run.py` run in tree.  A run that exits nonzero carries
    an "error" key in place of its results."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        return {"seed": seed, "error": proc.stderr[-2000:] or f"exit {proc.returncode}"}
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return {"seed": seed, "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "values": values}


def ok(result: dict) -> bool:
    return "error" not in result and result["correct"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3 if values else (float("nan"),) * 3
    return tuple(statistics.quantiles(values, n=4))


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """The comparison of run pairs, each {"parent": run, "change": run}, over
    the end-to-end `metrics` (BENCHMARK.json entries with "name" and "better")."""
    both = [(p["parent"], p["change"]) for p in pairs if ok(p["parent"]) and ok(p["change"])]
    summary = {}
    for side in SIDES:
        runs = [pair[side] for pair in pairs]
        good = [r for r in runs if ok(r)]
        summary[side] = {
            "runs": runs,
            "bad_runs": len(runs) - len(good),
            "failed": sum(r["failed"] for r in good),
            "attempted": sum(r["attempted"] for r in good),
            "quartiles": {m["name"]: quartiles([r["values"][m["name"]] for r in good])
                          for m in metrics},
        }
    summary["compare"] = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        gaps = [sign * (c["values"][name] - p["values"][name]) for p, c in both]
        p, c = (summary[side]["quartiles"][name] for side in SIDES)
        summary["compare"][name] = {
            "ratio": c[1] / p[1] if p[1] else float("nan"),
            "won": sum(gap < 0 for gap in gaps),
            "lost": sum(gap > 0 for gap in gaps),
            "pairs": len(gaps),
            "gap_exceeds_iqr": abs(c[1] - p[1]) > p[2] - p[0],
        }
    return summary


def print_summary(workload: str, summary: dict) -> None:
    print(f"{workload}: {len(summary['parent']['runs'])} pairs")
    print(f"  {'metric':<13} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'ratio':>7} {'won':>6}  gap>IQR")
    for name, cmp in summary["compare"].items():
        p, c = ("/".join(f"{v:.4g}" for v in summary[side]["quartiles"][name]) for side in SIDES)
        print(f"  {name:<13} {p:>30} {c:>30} {cmp['ratio']:7.3f} {cmp['won']:>3}/{cmp['pairs']:<2}"
              f"  {'yes' if cmp['gap_exceeds_iqr'] else 'no'}")
    for side in SIDES:
        s = summary[side]
        print(f"  failed {side:<6} {s['failed']} of {s['attempted']}, bad runs {s['bad_runs']}")


def tier1(tree: Path) -> dict:
    path = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=tree, env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    wall, lines = time.perf_counter() - start, proc.stdout.strip().splitlines()
    return {"wall_s": wall, "exit": proc.returncode, "summary": lines[-1] if lines else ""}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True, help="number in the output file name")
    parser.add_argument("--parent", required=True, help="commit to compare the change with")
    parser.add_argument("--workload", choices=names, help="run only this workload")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", git("stash", "create") or "HEAD")}
    seed, seconds = int(revs["change"][:6], 16), spec["run_seconds"]
    before = calibrate()
    bench = {"commits": revs, "python": platform.python_version(), "nproc": os.cpu_count(),
             "seconds": seconds, "seeds": list(range(seed, seed + args.pairs)), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            export(revs[side], tree)
        for workload in [args.workload] if args.workload else names:
            pairs = []
            for k in range(args.pairs):
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pairs.append({side: run(trees[side], workload, seed + k, seconds, 0)
                              for side in order})
                print(f"{workload}: pair {k + 1}/{args.pairs} done", file=sys.stderr)
            summary = summarize(pairs, spec["end_to_end"])
            for side in SIDES:
                summary[side]["trace"] = run(trees[side], workload, seed, seconds, 1)
            bench["workloads"][workload] = summary
            print_summary(workload, summary)
        bench["tier1"] = tier1(trees["change"])
    bench["calibration"] = {"before_s": before, "after_s": calibrate()}
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")
    print(f"wrote {out.name}")
    runs = [r for w in bench["workloads"].values() for side in SIDES
            for r in w[side]["runs"] + [w[side]["trace"]]]
    return 0 if all(map(ok, runs)) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark pairs: an earlier commit against the working tree.

    python3 scripts/pairs.py --parent HEAD~1 --workload ball-cert --pairs 10 \
        --seconds 30 --seed-base 2001

It exports the parent with `git archive REV | tar -x` into a temporary
directory (no worktree, nothing written to .git), then runs
`perfbench/run.py --trace 0` once on each side per pair, on seed
seed-base + k for pair k, alternating which side runs first.  For each of
BENCHMARK.json's end-to-end metrics it prints q1/median/q3 on each side, the
ratio of the medians (change / parent), how many pairs the change won, and
whether the gap between the medians exceeds the parent's interquartile range;
then each side's failed operations.  It exits 1 if any run exits nonzero or
reports a wrong answer.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def export(rev: str, dest: Path) -> None:
    """Write the files of commit `rev` into dest: `git archive REV | tar -x`."""
    git = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(dest)], stdin=git.stdout, check=True)
    git.stdout.close()
    if git.wait():
        raise SystemExit(f"git archive {rev} failed")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One `perfbench/run.py --trace 0` run in tree; None if it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode or not proc.stdout.strip():
        print(f"run failed in {tree} (seed {seed}):\n{proc.stderr}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        print(f"wrong answers in {tree} (seed {seed})", file=sys.stderr)
        return None
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report(runs: dict[str, list[dict]]) -> None:
    parent, change = runs["parent"], runs["change"]
    print(f"{'metric':<13} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} "
          f"{'ratio':>7} {'won':>6}  gap>IQR")
    for metric in SPEC["end_to_end"]:
        name, lower = metric["name"], metric["better"] == "lower"
        was = [r["metrics"][name]["value"] for r in parent]
        now = [r["metrics"][name]["value"] for r in change]
        p, c = quartiles(was), quartiles(now)
        won = sum((b < a) if lower else (b > a) for a, b in zip(was, now))
        ratio = c[1] / p[1] if p[1] else float("nan")
        gap = abs(c[1] - p[1]) > p[2] - p[0]
        print(f"{name:<13} {'/'.join(f'{v:.4g}' for v in p):>30} "
              f"{'/'.join(f'{v:.4g}' for v in c):>30} {ratio:7.3f} {won:>3}/{len(was):<2}  "
              f"{'yes' if gap else 'no'}")
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"failed {side:<6} {failed} of {attempted}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="commit to compare the working tree with")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--seed-base", type=int, required=True,
                        help="pair k runs seed seed-base + k on both sides")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        export(args.parent, Path(tmp))
        trees = {"parent": Path(tmp), "change": ROOT}
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        ok = True
        for k in range(args.pairs):
            seed = args.seed_base + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {side: run(trees[side], args.workload, seed, args.seconds) for side in order}
            if None in pair.values():
                ok = False
                continue
            for side, result in pair.items():
                runs[side].append(result)
            print(f"pair {k + 1}/{args.pairs} seed {seed}: wall_s "
                  f"{pair['parent']['metrics']['wall_s']['value']:.4g} -> "
                  f"{pair['change']['metrics']['wall_s']['value']:.4g}", file=sys.stderr)
    if runs["parent"]:
        print(f"{args.workload}: {len(runs['parent'])} pairs, parent {args.parent} vs working tree, "
              f"seeds {args.seed_base}..{args.seed_base + args.pairs - 1}, {args.seconds} s each")
        report(runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

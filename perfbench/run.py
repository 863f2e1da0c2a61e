"""Benchmark for surfgroups: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload ball-cert --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run imports surfgroups from `src/`, sets
up (import, seeded inputs, temp files) several times and reports the median,
then repeats rounds of the workload -- a fresh seeded input set, an untimed
screening pass (snf-ladder only), a timed phase, and an untimed correctness
check -- until `--seconds` is used up.  snf-ladder runs a fixed number of
rounds for `--seconds` instead, so that its failure count does not depend on
the machine's speed.

--trace 0 prints the end-to-end metrics (medians over rounds).  --trace 1
runs the same untraced rounds, then one more round with every public
function of each layer wrapped in a span (see tracer.py), and prints the
per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Run details (environment,
per-round figures, per-matrix SNF outcomes) go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

import workloads  # noqa: E402  (sibling module; sys.path[0] is this directory)
from tracer import ALIASES, LAYERS, Tracer  # noqa: E402

# Set-up runs this many times before the rounds, then once more after a round
# whenever SETUP_EVERY_S has passed since the last one, so that the median
# samples the whole run rather than its first second.
SETUP_REPEATS = 3
SETUP_EVERY_S = 2.0

END_TO_END = {  # name -> unit; failed_frac is reported beside them, see below
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"trace.overhead_s": "s", "trace.wall_s": "s", "trace.bench_self_s": "s"}
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    for alias in ALIASES:
        units[f"{alias}.calls"] = "count"
        units[f"{alias}.self_s"] = "s"
    units.update({
        "words.mul.in_syllables": "count",
        "words.mul.cancel_ratio": "ratio",
        "words.oracle.letters_in": "count",
        "torusbraid.conj.letters_in": "count",
        "torusbraid.nf_syllables_max": "count",
        "abelian.snf.timeouts": "count",
        "abelian.snf.max_coeff_bits": "bits",
        "abelian.snf.small.p50_ms": "ms",
        "abelian.snf.medium.p50_ms": "ms",
        "abelian.snf.large.p50_ms": "ms",
    })
    return units


PER_LAYER = per_layer_units()


# -- environment ---------------------------------------------------------------


def source_commit() -> str:
    """The checked-out commit, read from .git without running git; the
    benchmark may run in a plain copy, where this is "unknown"."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
    }


# -- statistics ------------------------------------------------------------------


def tail_rank(n: int) -> tuple[int, int]:
    """(percentile, index) of the highest whole percentile of n sorted
    samples with at least ten samples beyond it (nearest rank)."""
    if n <= 10:
        return 0, 0
    pct = (100 * (n - 10)) // n
    return pct, max(0, -(-pct * n // 100) - 1)


def percentile_ms(values: list[float], which: str) -> float:
    s = sorted(values)
    if which == "p50":
        return statistics.median(s) * 1e3
    return s[tail_rank(len(s))[1]] * 1e3


# -- import ------------------------------------------------------------------------


def fresh_import():
    """Import surfgroups from src/, dropping any copy imported before."""
    for name in [m for m in sys.modules if m == "surfgroups" or m.startswith("surfgroups.")]:
        del sys.modules[name]
    import surfgroups  # noqa: PLC0415
    from surfgroups import cli  # noqa: F401, PLC0415  (cli is not imported by __init__)

    if not Path(surfgroups.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"surfgroups imported from {surfgroups.__file__}, not from {ROOT / 'src'}")
    return surfgroups


def setup(cls, seed: int, workdir: Path):
    """Import, build the workload (its temp files) and draw round 0's inputs."""
    gc.collect()
    t0 = time.perf_counter()
    sg = fresh_import()
    workload = cls(sg, seed, workdir)
    first = workload.inputs(0)
    return time.perf_counter() - t0, workload, first


# -- one run -----------------------------------------------------------------------


class Rounds:
    """Untraced rounds: timed phase, then the correctness check."""

    def __init__(self, workload, first_inputs):
        self.workload = workload
        self.next_inputs = first_inputs
        self.index = 0
        self.records: list[dict] = []
        self.problems: list[str] = []

    def draw(self):
        """The next round's inputs, after the workload's untimed screening."""
        inputs = self.next_inputs if self.index == 0 else self.workload.inputs(self.index)
        self.index += 1
        return self.workload.screen(inputs)

    def settle(self, inputs, rnd, wall: float, traced: bool) -> dict:
        ok, problems = self.workload.check(inputs, rnd)
        attempted = self.workload.ops_per_round(inputs)
        rec = {
            "round": self.index - 1,
            "traced": traced,
            "wall_s": wall,
            "attempted": attempted,
            "verified": ok,
            "unfinished": rnd.unfinished,
            "wrong": attempted - ok - rnd.unfinished,
            "calls": len(rnd.call_s),
            "call_p50_ms": percentile_ms(rnd.call_s, "p50"),
            "call_tail_ms": percentile_ms(rnd.call_s, "tail"),
            "ops_per_s": ok / wall,
        }
        if isinstance(self.workload, workloads.SnfLadder):
            rec["snf"] = [
                {"op": workloads.describe(op), "status": out["status"], "seconds": out["seconds"],
                 "snf_s": out.get("snf_s"), "coeff_bits": out.get("coeff_bits"),
                 "size_class": workloads.size_class(len(op[1]), len(op[1][0])) if op[0] == "matrix" else None}
                for op, out in zip(inputs, rnd.outputs)
            ]
        self.problems += problems
        self.records.append(rec)
        return rec

    def run_for(self, seconds: float, set_up) -> None:
        """Rounds until `seconds` is used up, or the workload's fixed number
        of rounds, calling `set_up` (a measured set-up whose result is
        discarded) every SETUP_EVERY_S."""
        fixed = self.workload.rounds(seconds)
        start = last_setup = time.perf_counter()
        longest = 0.0
        while True:
            r0 = time.perf_counter()
            inputs = self.draw()
            gc.collect()  # leave the previous round's garbage out of the timed phase
            t0 = time.perf_counter()
            rnd = self.workload.run(inputs)
            wall = time.perf_counter() - t0
            self.settle(inputs, rnd, wall, traced=False)
            if time.perf_counter() - last_setup >= SETUP_EVERY_S:
                set_up()
                last_setup = time.perf_counter()
            longest = max(longest, time.perf_counter() - r0)
            if fixed is not None:
                if self.index >= fixed:
                    return
            elif time.perf_counter() - start + longest > seconds:
                return

    def run_traced(self, tracer: Tracer) -> dict:
        inputs = self.draw()
        gc.collect()
        tracer.install()
        try:
            root = tracer.open("bench.round")
            t0 = time.perf_counter()
            rnd = self.workload.run(inputs, trace=tracer)
            wall = time.perf_counter() - t0
            tracer.close(root)
        finally:
            tracer.uninstall()
        return self.settle(inputs, rnd, wall, traced=True)


def end_to_end(records: list[dict], setup_times: list[float]) -> dict:
    med = lambda key: statistics.median(r[key] for r in records)  # noqa: E731
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": med("wall_s"),
        "ops_per_s": med("ops_per_s"),
        "call_p50_ms": med("call_p50_ms"),
        "call_tail_ms": med("call_tail_ms"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(tracer: Tracer, traced: dict, untraced: list[dict], snf_records: list[dict]) -> dict:
    summary = tracer.summary()
    root = summary.pop("bench.round")
    m = {
        "trace.wall_s": root["total_s"],
        "trace.overhead_s": root["total_s"] - statistics.median(r["wall_s"] for r in untraced),
        "trace.bench_self_s": root["self_s"],
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v["self_s"] for k, v in summary.items() if k.startswith(layer + "."))
    for alias, spans in ALIASES.items():
        m[f"{alias}.calls"] = sum(summary.get(s, {}).get("calls", 0) for s in spans)
        m[f"{alias}.self_s"] = sum(summary.get(s, {}).get("self_s", 0.0) for s in spans)
    c = tracer.counts
    m["words.mul.in_syllables"] = c["words.mul.in_syllables"]
    m["words.mul.cancel_ratio"] = (
        (c["words.mul.in_syllables"] - c["words.mul.out_syllables"]) / c["words.mul.in_syllables"]
        if c["words.mul.in_syllables"] else 0.0
    )
    for key in ("words.oracle.letters_in", "torusbraid.conj.letters_in", "torusbraid.nf_syllables_max"):
        m[key] = c[key]
    # SNF figures come from the benchmark's per-matrix records (all rounds of this run).
    solved = [r for r in snf_records if r["size_class"] and r["status"] == "solved"]
    m["abelian.snf.timeouts"] = sum(1 for r in traced.get("snf", []) if r["status"] != "solved")
    m["abelian.snf.max_coeff_bits"] = max((r["coeff_bits"] or 0 for r in snf_records), default=0)
    for cls in ("small", "medium", "large"):
        times = [r["snf_s"] for r in solved if r["size_class"] == cls]
        m[f"abelian.snf.{cls}.p50_ms"] = statistics.median(times) * 1e3 if times else 0.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    cls = workloads.WORKLOADS[args.workload]
    workdir = OUT_DIR / f"work-{os.getpid()}"
    setup_times: list[float] = []

    def set_up():
        elapsed, workload, first = setup(cls, args.seed, workdir)
        setup_times.append(elapsed)
        return workload, first

    try:
        for _ in range(SETUP_REPEATS):
            workload, first = set_up()
        workload.prepare()
        rounds = Rounds(workload, first)
        rounds.run_for(args.seconds, set_up)
        untraced = list(rounds.records)
        if args.trace:
            tracer = Tracer(workload.sg)
            traced = rounds.run_traced(tracer)
            trace_path = OUT_DIR / f"trace-{args.workload}"
            tracer.dump(trace_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = rounds.records
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["attempted"] - r["verified"] for r in records)
    snf_records = [s for r in records for s in r.get("snf", [])]
    if args.trace:
        metrics = per_layer(tracer, traced, untraced, snf_records)
        units = PER_LAYER
    else:
        metrics = end_to_end(records, setup_times)
        units = END_TO_END

    env = environment(args.seed)
    e2e_extra = {
        # failed_frac is 0 on a healthy run, so it cannot carry a relative
        # bound in BENCHMARK.json; it is reported here and as failed/attempted.
        "failed_frac": failed / attempted,
        "tail_percentile": tail_rank(untraced[0]["calls"])[0],
        "calls_per_round": untraced[0]["calls"],
        "ops_per_round": untraced[0]["attempted"],
        "rounds": len(untraced),
    }
    report = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds, **env,
        **e2e_extra, "setup_times_s": setup_times, "rounds_detail": records,
        "problems": rounds.problems[:50],
    }
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print(f"# {args.workload} seed={args.seed} commit={env['commit'][:12]} src={env['src_sha256']} "
          f"python={env['python']} nproc={env['nproc']} rounds={len(untraced)}")
    print(f"# ops/round={e2e_extra['ops_per_round']} calls/round={e2e_extra['calls_per_round']} "
          f"tail=p{e2e_extra['tail_percentile']} failed_frac={e2e_extra['failed_frac']:.6f} "
          f"({failed} of {attempted})")
    for rec in records:
        for s in rec.get("snf", []):
            if s["status"] != "solved":
                print(f"# snf {s['status']}: round {rec['round']} {s['op']} after {s['seconds']:.3f} s, "
                      f"{s['coeff_bits']} bits")
    for problem in rounds.problems[:50]:
        print(f"# WRONG: {problem}")
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    print(f"failed_frac {e2e_extra['failed_frac']} ratio")
    print(json.dumps({
        "correct": not rounds.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

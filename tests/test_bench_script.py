"""The benchmark runner's summary (`scripts/bench.py`), fed synthetic runs.
No subprocess is started."""
import importlib.util
import math
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
_spec = importlib.util.spec_from_file_location("bench_script", SCRIPT)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "ops_per_s", "better": "higher"}]


def result(wall_s: float, ops_per_s: float = 1.0, correct: bool = True, failed: int = 0) -> dict:
    return {"seed": 1, "correct": correct, "attempted": 10, "failed": failed,
            "values": {"wall_s": wall_s, "ops_per_s": ops_per_s}}


def pairs(parent: list[dict], change: list[dict]) -> list[dict]:
    return [{"parent": p, "change": c} for p, c in zip(parent, change)]


def test_quartiles_of_a_single_run():
    assert bench.quartiles([2.5]) == (2.5, 2.5, 2.5)
    summary = bench.summarize(pairs([result(2.0)], [result(3.0)]), METRICS)
    assert summary["parent"]["quartiles"]["wall_s"] == (2.0, 2.0, 2.0)
    assert summary["compare"]["wall_s"]["ratio"] == 1.5


def test_ties_count_for_neither_side():
    summary = bench.summarize(
        pairs([result(1.0), result(2.0), result(3.0)], [result(1.0), result(1.5), result(3.5)]),
        METRICS,
    )
    cmp = summary["compare"]["wall_s"]
    assert (cmp["won"], cmp["lost"], cmp["pairs"]) == (1, 1, 3)
    assert summary["compare"]["ops_per_s"]["won"] == summary["compare"]["ops_per_s"]["lost"] == 0


def test_higher_is_better_metric():
    parent = [result(1.0, ops) for ops in (100, 110, 120)]
    change = [result(1.0, ops) for ops in (130, 105, 150)]
    cmp = bench.summarize(pairs(parent, change), METRICS)["compare"]["ops_per_s"]
    assert (cmp["won"], cmp["lost"]) == (2, 1)
    assert cmp["ratio"] == pytest.approx(130 / 110)


def test_zero_parent_median_gives_nan():
    summary = bench.summarize(pairs([result(0.0)] * 3, [result(1.0)] * 3), METRICS)
    assert math.isnan(summary["compare"]["wall_s"]["ratio"])


def test_gap_against_the_parents_interquartile_range():
    parent = [result(w) for w in (1.0, 2.0, 3.0, 4.0, 5.0)]  # q1 1.5, median 3, q3 4.5
    close = bench.summarize(pairs(parent, [result(5.9)] * 5), METRICS)
    far = bench.summarize(pairs(parent, [result(6.1)] * 5), METRICS)
    assert not close["compare"]["wall_s"]["gap_exceeds_iqr"]
    assert far["compare"]["wall_s"]["gap_exceeds_iqr"]


def test_a_failed_or_wrong_run_stays_with_its_pair_and_out_of_the_comparison(capsys):
    parent = [result(1.0), {"seed": 2, "error": "Traceback ..."}, result(1.0)]
    change = [result(2.0), result(0.5), result(0.5, correct=False, failed=3)]
    summary = bench.summarize(pairs(parent, change), METRICS)
    assert summary["parent"]["runs"][1]["error"] == "Traceback ..."
    assert (summary["parent"]["bad_runs"], summary["change"]["bad_runs"]) == (1, 1)
    assert summary["compare"]["wall_s"]["pairs"] == 1
    assert summary["change"]["quartiles"]["wall_s"][1] == 1.25
    assert (summary["change"]["failed"], summary["change"]["attempted"]) == (0, 20)
    assert all(math.isnan(q) for q in bench.summarize(
        pairs(parent[1:2], change[2:]), METRICS)["parent"]["quartiles"]["wall_s"])
    bench.print_summary("w", summary)
    assert "wall_s" in capsys.readouterr().out

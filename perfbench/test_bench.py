"""Self-tests for the benchmark.  Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import oracles  # noqa: E402
import run  # noqa: E402
import surfgroups as sg  # noqa: E402
import surfgroups.cli  # noqa: E402,F401
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def workdir(request):
    """Work directory inside the benchmark's own (ignored) output directory."""
    path = BENCH / "out" / f"test-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)

M3 = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]


# -- each oracle flags a planted wrong answer -------------------------------------


def test_snf_oracle_accepts_the_true_answer():
    res = sg.smith_normal_form(M3, transforms=True)
    assert oracles.check_snf(M3, res.diagonal, res.U, res.V) == []


def test_snf_oracle_flags_a_corrupted_diagonal():
    res = sg.smith_normal_form(M3, transforms=True)
    bad = list(res.diagonal)
    bad[-1] += 1
    problems = oracles.check_snf(M3, bad, res.U, res.V)
    assert "U*M*V != D" in problems
    assert any("minor-gcd" in p for p in problems)
    assert any("det M" in p for p in problems)


def test_snf_oracle_flags_a_transform_that_is_not_unimodular():
    res = sg.smith_normal_form(M3, transforms=True)
    U = [list(r) for r in res.U]
    U[0] = [2 * x for x in U[0]]
    assert "U is not unimodular" in oracles.check_snf(M3, res.diagonal, U, res.V)


def test_snf_oracle_flags_a_broken_divisibility_chain():
    M = [[2, 0], [0, 3]]
    problems = oracles.check_snf(M, [2, 3], [[1, 0], [0, 1]], [[1, 0], [0, 1]])
    assert any("divisibility" in p for p in problems)


def test_det_rank_and_minor_gcd():
    assert oracles.det(M3) == 2 * (6 * -16 - 12 * -4) - 4 * (-6 * -16 - 12 * 10) + 4 * (-6 * -4 - 6 * 10)
    assert oracles.det([[0, 1], [1, 0]]) == -1
    assert oracles.rank([[1, 2], [2, 4]]) == 1
    assert oracles.minor_gcd([[2, 4], [6, 8]], 1) == 2


def test_cokernel_and_nab_oracles_flag_wrong_groups():
    M = [[2, 0], [0, 0]]
    assert oracles.check_cokernel(M, [2, 0], sg.AbelianGroup(1, (2,))) == []
    assert oracles.check_cokernel(M, [2, 0], sg.AbelianGroup(2, (2,)))
    assert oracles.check_nab("nonorientable", 3, 2, sg.nab_quotient_nonorientable(3, 2)) == []
    assert oracles.check_nab("nonorientable", 3, 2, sg.AbelianGroup(3, ()))


def test_ball_oracle_flags_a_wrong_count(workdir):
    w = workloads.BallCert(sg, 1, workdir)
    w.RADIUS = 2
    w.prepare()
    inputs = w.inputs(0)[:5]
    rnd = w.run(inputs)
    assert w.check(inputs, rnd)[1] == []
    report = rnd.outputs[0]
    rnd.outputs[0] = type(report)(report.radius, report.count - 1, report.collisions)
    assert any("ball" in p for p in w.check(inputs, rnd)[1])
    rnd.outputs[0] = report
    rnd.outputs[1][3] = sg.B2TElement(sg.Alphabet.of("x", "y").identity(), 0, 0, 0)
    assert any("closed form" in p for p in w.check(inputs, rnd)[1])


def test_long_words_oracle_flags_wrong_results(workdir):
    w = workloads.LongWords(sg, 1, workdir)
    inputs = [op for op in w.inputs(0) if op[0] != "from_word" or abs(op[3]) < 5000][:40]
    rnd = w.run(inputs)
    ok, problems = w.check(inputs, rnd)
    assert problems == [] and ok == len(inputs)
    wrong = sg.B2TElement(sg.Alphabet.of("x", "y").gen("x"), 0, 0, 1)
    for i, op in enumerate(inputs):
        if op[0] != "rewrite":
            rnd.outputs[i] = wrong
    assert len(w.check(inputs, rnd)[1]) == sum(op[0] != "rewrite" for op in inputs)


def test_rewrite_oracle_check_flags_a_wrong_word(workdir):
    w = workloads.LongWords(sg, 1, workdir)
    inputs = [op for op in w.inputs(0) if op[0] == "rewrite"][:2]
    rnd = w.run(inputs)
    assert w.check(inputs, rnd)[1] == []
    rnd.outputs[0] = rnd.outputs[0] * rnd.outputs[0].alphabet.gen("al")
    assert w.check(inputs, rnd)[1]


def test_cli_oracle_flags_wrong_exit_codes_and_bad_envelopes(workdir):
    w = workloads.CliMix(sg, 1, workdir)
    inputs = w.inputs(0)
    rnd = w.run(inputs)
    ok, problems = w.check(inputs, rnd)
    assert problems == [] and ok == len(inputs)
    i = next(i for i, op in enumerate(inputs) if op[1] == 1)
    rnd.outputs[i] = (0, rnd.outputs[i][1])
    j = next(j for j, op in enumerate(inputs) if op[0] and "--json" in op[0] and op[1] == 0)
    code, text = rnd.outputs[j]
    env = json.loads(text)
    env["status"] = "fine"
    rnd.outputs[j] = (code, json.dumps(env))
    problems = w.check(inputs, rnd)[1]
    assert any("exit 0, expected 1" in p for p in problems)
    assert any("fine" in p for p in problems)


def test_cli_semantic_oracle_flags_a_wrong_klein_element(workdir):
    w = workloads.CliMix(sg, 1, workdir)
    inputs = [op for op in w.inputs(0) if op[2] and op[2][0] == "klein" and "--json" in op[0]][:1]
    rnd = w.run(inputs)
    assert w.check(inputs, rnd)[1] == []
    code, text = rnd.outputs[0]
    env = json.loads(text)
    env["data"]["element"]["r"] += 1
    rnd.outputs[0] = (code, json.dumps(env))
    assert w.check(inputs, rnd)[1]


# -- the deadline path ----------------------------------------------------------


def test_deadline_interrupts_a_running_call():
    with pytest.raises(workloads.DeadlineExceeded):
        with workloads.deadline(0.05):
            while True:
                pass


def _blow_up_matrix():
    import random

    rng = random.Random(0)
    return [[rng.randint(-50, 50) for _ in range(20)] for _ in range(20)]


def test_snf_work_budget_is_deterministic_and_recorded(workdir):
    w = workloads.SnfLadder(sg, 1, workdir)
    inputs = [("matrix", _blow_up_matrix(), 50), ("nab", "orientable", 2, 3)]
    screened = w.screen(inputs)
    assert w.screen(inputs) == screened
    verdict = screened[0][-1]
    assert verdict["status"] == "budget"
    assert workloads.SNF_BUDGET_BITS < verdict["coeff_bits"] <= 2 * workloads.SNF_BUDGET_BITS + 1
    assert screened[1][-1]["status"] == "solved"
    rnd = w.run(screened)
    assert [o["status"] for o in rnd.outputs] == ["budget", "solved"]
    assert rnd.outputs[0]["coeff_bits"] == verdict["coeff_bits"]
    assert rnd.outputs[0]["seconds"] <= workloads.SNF_DEADLINE_S["large"] + 0.05
    assert rnd.unfinished == 1
    assert w.check(screened, rnd) == (1, [])


def test_snf_backstop_marks_a_hang_unfinished(workdir, monkeypatch):
    w = workloads.SnfLadder(sg, 1, workdir)
    monkeypatch.setattr(workloads, "SNF_BACKSTOP_S", 0.05)
    op = ("matrix", _blow_up_matrix(), 50, {"status": "solved", "coeff_bits": None})
    rnd = w.run([op])
    assert rnd.outputs[0]["status"] == "deadline"
    assert rnd.outputs[0]["coeff_bits"] > 50
    assert rnd.unfinished == 1
    assert w.check([op], rnd) == (0, [])


def test_snf_ladder_runs_a_fixed_number_of_rounds(workdir):
    w = workloads.SnfLadder(sg, 1, workdir)
    assert w.rounds(25) == w.rounds(25) >= 1
    assert workloads.LongWords(sg, 1, workdir).rounds(25) is None


# -- seeds ---------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_changes_inputs_but_not_operation_counts(name, workdir):
    cls = workloads.WORKLOADS[name]
    a, b, a2 = cls(sg, 1, workdir / "a"), cls(sg, 2, workdir / "b"), cls(sg, 1, workdir / "c")
    ia, ib = a.inputs(0), b.inputs(0)
    assert a.ops_per_round(ia) == b.ops_per_round(ib)
    assert repr(ia) != repr(ib)
    assert repr(a2.inputs(0)).replace("/c/", "/a/") == repr(ia)


# -- tracing -------------------------------------------------------------------


def test_tracer_restores_every_attribute_and_self_times_add_up():
    modules = [sg] + [getattr(sg, layer) for layer in run.LAYERS]
    before = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    before_cls = {id(sg.FreeWord): dict(vars(sg.FreeWord)), id(sg.Alphabet): dict(vars(sg.Alphabet))}
    tracer = Tracer(sg)
    tracer.install()
    try:
        assert sg.FreeWord.__mul__ is not before_cls[id(sg.FreeWord)]["__mul__"]
        assert sg.phi1 is sg.embeddings.phi1 is not before[(id(sg), "phi1")]
        root = tracer.open("bench.round")
        sg.cli.main(["nf", "--group", "b2t", "--word", "s*x^3"])
        sg.certify_injectivity_ball(2)
        tracer.close(root)
    finally:
        tracer.uninstall()
    after = {(id(m), k): v for m in modules for k, v in vars(m).items()}
    assert all(after[key] is value for key, value in before.items())
    assert dict(vars(sg.FreeWord)) == before_cls[id(sg.FreeWord)]
    assert dict(vars(sg.Alphabet)) == before_cls[id(sg.Alphabet)]
    summary = tracer.summary()
    total = summary.pop("bench.round")
    layers = sum(v["self_s"] for v in summary.values())
    assert layers + total["self_s"] == pytest.approx(total["total_s"], rel=1e-9)
    assert summary["cli.main"]["calls"] == 1
    assert summary["embeddings.phi1"]["calls"] == 25


# -- names and units match BENCHMARK.json -------------------------------------------


def test_tail_rank():
    assert run.tail_rank(1000) == (99, 989)
    assert run.tail_rank(192) == (94, 180)


def test_declared_names_match_benchmark_json():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_names_match_benchmark_json(trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-mix", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}

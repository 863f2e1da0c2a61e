"""The four benchmark workloads.

Each workload draws a fresh, seeded input set for every round (so a cache
between rounds cannot hit), runs it through the public API of surfgroups in
the timed phase, and checks every output in `check`, outside the timed phase.
Input *sizes* come from fixed ladders; the seed chooses contents, signs and
small jitter, so every seed gives the same operation counts and nearly the
same amount of work.
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import signal
import sys
import time
from fractions import Fraction
from itertools import chain
from math import prod
from pathlib import Path
from types import SimpleNamespace

import oracles

# -- deadlines -------------------------------------------------------------------


class DeadlineExceeded(Exception):
    """Raised inside the interrupted call when its wall-clock deadline passes."""

    def __init__(self, seconds: float, coeff_bits: int | None):
        super().__init__(f"deadline of {seconds:.3f} s exceeded")
        self.coeff_bits = coeff_bits


def _snf_bits_in_stack(frame) -> int | None:
    """Largest entry, in bits, of the working matrices A, U and V of the
    innermost running smith_normal_form call at or above `frame`."""
    while frame is not None:
        if frame.f_code.co_name == "smith_normal_form":
            loc = frame.f_locals
            mats = [loc[k] for k in ("A", "U", "V") if isinstance(loc.get(k), list)]
            return max(map(int.bit_length, chain.from_iterable(chain.from_iterable(mats))), default=0)
        frame = frame.f_back
    return None


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the enclosed block after `seconds` of wall time (SIGALRM)."""

    def fire(signum, frame):
        raise DeadlineExceeded(seconds, _snf_bits_in_stack(frame))

    previous = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- work budget -----------------------------------------------------------------


class BudgetExceeded(Exception):
    """Raised inside smith_normal_form when a call uses up its work budget."""

    def __init__(self, coeff_bits: int, calls: int):
        super().__init__(f"work budget exceeded: {coeff_bits} bits after {calls} calls")
        self.coeff_bits = coeff_bits
        self.calls = calls


@contextlib.contextmanager
def work_budget(max_bits: int, max_calls: int):
    """Stop the enclosed block once a working entry of smith_normal_form has
    more than `max_bits` bits, or the block has made `max_calls` Python calls.

    A global trace hook sees every Python call the block makes.  On each one
    it reads the working matrices of the running smith_normal_form; when, as
    in the seed, each row or column operation is a call, no entry gets past
    twice the limit.  Both counts depend only on the inputs and the code,
    never on the machine's speed, so the same matrix passes or fails on every
    run.  The hook slows the block down; it is only used outside the timed
    phase.
    """
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += 1
        bits = _snf_bits_in_stack(frame)
        if calls > max_calls or (bits or 0) > max_bits:
            raise BudgetExceeded(bits or 0, calls)
        # Returning None leaves the new frame's lines untraced.

    previous = sys.gettrace()
    sys.settrace(hook)
    try:
        yield
    finally:
        sys.settrace(previous)


class Round:
    """What one timed phase produced: per-op outcomes and per-call latencies."""

    def __init__(self):
        self.outputs: list = []
        self.call_s: list[float] = []
        self.unfinished = 0  # deadline misses, and ops over their work budget


class Workload:
    name = ""

    def __init__(self, sg, seed: int, workdir: Path):
        self.sg = sg
        self.seed = seed
        self.workdir = workdir

    def rng(self, round_index: int) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{round_index}")

    def inputs(self, round_index: int):
        raise NotImplementedError

    def prepare(self) -> None:
        """Build any reference answers the check needs, before the rounds."""

    def rounds(self, seconds: float) -> int | None:
        """A fixed number of rounds for a run of `seconds`, or None to run
        rounds until the time is used up."""
        return None

    def screen(self, inputs):
        """Untimed pass over a round's inputs before its timed phase; returns
        the inputs the timed phase runs."""
        return inputs

    def ops_per_round(self, inputs) -> int:
        return len(inputs)

    def run(self, inputs, trace=None) -> Round:
        raise NotImplementedError

    def check(self, inputs, rnd: Round) -> tuple[int, list[str]]:
        """(verified operations, problems).  Unfinished operations are not
        problems here; the harness counts them as failures separately."""
        raise NotImplementedError


def _guarded(trace):
    """Depth to restore on the tracer after a deadline interrupts a call."""
    return len(trace.stack) if trace is not None else 0


def _recover(trace, depth):
    if trace is not None:
        trace.close_open(depth)


# -- ball-cert --------------------------------------------------------------------


class BallCert(Workload):
    """Certify phi1 on the radius-64 ball, check the closed form on the same
    ball, and time seeded multiplicativity samples phi1(u.v) = phi1(u).phi1(v)."""

    name = "ball-cert"
    RADIUS = 64
    SAMPLES = 2000

    def inputs(self, round_index):
        rng, K = self.rng(round_index), self.sg.KleinElement
        R = self.RADIUS
        return [
            (K(rng.randint(-R, R), rng.randint(-R, R)), K(rng.randint(-R, R), rng.randint(-R, R)))
            for _ in range(self.SAMPLES)
        ]

    def ops_per_round(self, inputs):
        return 2 * (2 * self.RADIUS + 1) ** 2 + len(inputs)

    def run(self, inputs, trace=None):
        sg, rnd, R = self.sg, Round(), self.RADIUS
        phi1, closed_form, clock = sg.phi1, sg.phi1_closed_form, time.perf_counter
        depth = _guarded(trace)
        try:
            with deadline(60.0):
                report = sg.certify_injectivity_ball(R)
        except DeadlineExceeded:
            _recover(trace, depth)
            report = None
            rnd.unfinished += (2 * R + 1) ** 2
        try:
            with deadline(20.0):
                closed = [closed_form(r, s) for r in range(-R, R + 1) for s in range(-R, R + 1)]
        except DeadlineExceeded:
            _recover(trace, depth)
            closed = None
            rnd.unfinished += (2 * R + 1) ** 2
        samples = []
        for u, v in inputs:
            try:
                with deadline(1.0):
                    t0 = clock()
                    pair = (phi1(u * v), phi1(u) * phi1(v))
                    rnd.call_s.append(clock() - t0)
            except DeadlineExceeded:
                _recover(trace, depth)
                pair = None
                rnd.unfinished += 1
                rnd.call_s.append(1.0)
            samples.append(pair)
        rnd.outputs = [report, closed, samples]
        return rnd

    def prepare(self):
        """phi1 over the ball, computed once per run as the closed form's oracle."""
        K, R = self.sg.KleinElement, self.RADIUS
        self.reference = [self.sg.phi1(K(r, s)) for r in range(-R, R + 1) for s in range(-R, R + 1)]

    def check(self, inputs, rnd):
        report, closed, samples = rnd.outputs
        n = (2 * self.RADIUS + 1) ** 2
        ok, problems = 0, []
        if report is not None:
            if report.count == n and not report.collisions:
                ok += n
            else:
                problems.append(f"ball: count {report.count} (expected {n}), {len(report.collisions)} collisions")
        if closed is not None:
            good = sum(a == b for a, b in zip(closed, self.reference))
            ok += good
            if good != n or len(closed) != n:
                problems.append(f"closed form disagrees with phi1 on {n - good} of {n} elements")
        for (u, v), pair in zip(inputs, samples):
            if pair is None:
                continue
            if pair[0] == pair[1]:
                ok += 1
            else:
                problems.append(f"phi1 not multiplicative at u={u}, v={v}")
        return ok, problems


# -- long-words -------------------------------------------------------------------


def _free_syllables(rng, n):
    """A freely reduced syllable list of length n over {x, y}."""
    first = rng.choice("xy")
    return [("xy"[("xy".index(first) + i) % 2], rng.choice((-3, -2, -1, 1, 2, 3))) for i in range(n)]


def _ladder(lo: int, hi: int, count: int) -> list[int]:
    """count sizes spaced geometrically from lo to hi."""
    return [round(lo * (hi / lo) ** (i / (count - 1))) for i in range(count)]


class LongWords(Workload):
    """Few calls on long inputs: B2T products, inverses and powers of elements
    whose free parts have hundreds to ~2,000 syllables, from_word on s*g^k
    with k up to ~1e5, and the Klein rewrite oracle with |r|, |s| up to 40."""

    name = "long-words"
    # Sizes are geometric ladders, so the per-call latency distribution has
    # no gaps for a percentile to jump across.
    # (free-part syllables, eps of u, eps of v) per product
    PRODUCTS = [(n, 0, 0) for n in _ladder(250, 2000, 50)] + [
        (n, 1, i % 2) for i, n in enumerate(_ladder(100, 400, 16))
    ]
    # (syllables, eps) per inverse
    INVERSES = [(n, 0) for n in _ladder(500, 2000, 8)] + [(n, 1) for n in _ladder(100, 400, 4)]
    # (syllables, eps, exponent) per power
    POWERS = [(n, 0, (2, 3, 5, 8)[i % 4]) for i, n in enumerate(_ladder(250, 1000, 16))] + [
        (n, 1, (2, 3)[i % 2]) for i, n in enumerate(_ladder(60, 120, 4))
    ]
    FROM_WORD = [round(10 ** (1 + h / 2)) for h in range(9)]  # 10 .. 1e5, half decades
    REWRITE = (5, 15, 25, 35, 40)  # |r|, |s| of u and v
    DEADLINE = 10.0

    def _b2t(self, rng, n, eps):
        sg = self.sg
        w = sg.Alphabet.of("x", "y").word(_free_syllables(rng, n))
        return sg.B2TElement(w, rng.randint(-50, 50), rng.randint(-50, 50), eps)

    def inputs(self, round_index):
        rng, sg = self.rng(round_index), self.sg
        ops = []
        ops += [("mul", self._b2t(rng, n, eu), self._b2t(rng, n, ev)) for n, eu, ev in self.PRODUCTS]
        ops += [("inv", self._b2t(rng, n, e)) for n, e in self.INVERSES]
        ops += [("pow", self._b2t(rng, n, e), k) for n, e, k in self.POWERS]
        for k in self.FROM_WORD:
            k = rng.choice((-1, 1)) * max(1, round(k * rng.uniform(0.98, 1.02)))
            gen = rng.choice("xy")
            ops.append(("from_word", sg.torusbraid.B2T_ALPHABET.word([("s", 1), (gen, k)]), gen, k))
        rules = sg.klein.klein_rewrite_rules()
        for mag in self.REWRITE:
            u, v = (sg.KleinElement(rng.choice((-1, 1)) * mag, rng.choice((-1, 1)) * mag) for _ in range(2))
            ops.append(("rewrite", rules, u.to_word() * v.to_word(), u, v))
        rng.shuffle(ops)
        return ops

    def run(self, inputs, trace=None):
        sg, rnd, clock = self.sg, Round(), time.perf_counter
        from_word, oracle = sg.torusbraid.from_word, sg.oracle_normal_form
        depth = _guarded(trace)
        for op in inputs:
            kind = op[0]
            try:
                with deadline(self.DEADLINE):
                    t0 = clock()
                    if kind == "mul":
                        out = op[1] * op[2]
                    elif kind == "inv":
                        out = op[1].inverse()
                    elif kind == "pow":
                        out = op[1] ** op[2]
                    elif kind == "from_word":
                        out = from_word(op[1])
                    else:
                        out = oracle(op[1], op[2])
                    rnd.call_s.append(clock() - t0)
            except DeadlineExceeded:
                _recover(trace, depth)
                out = None
                rnd.unfinished += 1
                rnd.call_s.append(self.DEADLINE)
            rnd.outputs.append(out)
        return rnd

    def check(self, inputs, rnd):
        sg = self.sg
        XY = sg.Alphabet.of("x", "y")
        B = XY.word([("x", 1), ("y", -1), ("x", -1), ("y", 1)])  # [x, y^-1]
        ok, problems = 0, []
        for op, out in zip(inputs, rnd.outputs):
            if out is None:
                continue
            kind = op[0]
            if kind == "mul":
                good = (out * op[2].inverse()) == op[1]
            elif kind == "inv":
                good = (op[1] * out).is_identity()
            elif kind == "pow":
                acc = op[1]
                for _ in range(op[2] - 1):
                    acc = acc * op[1]
                good = out == acc
            elif kind == "from_word":
                _, _, gen, k = op
                w = (B * XY.gen(gen, -1)) ** k  # s g^k = (B g^-1)^k c^k s
                good = out == sg.B2TElement(w, k if gen == "x" else 0, k if gen == "y" else 0, 1)
            else:
                good = out == (op[3] * op[4]).to_word()
            if good:
                ok += 1
            else:
                problems.append(f"long-words {kind}: wrong result")
        return ok, problems


# -- snf-ladder -------------------------------------------------------------------


def size_class(rows: int, cols: int) -> str:
    n = max(rows, cols)
    return "small" if n <= 4 else "medium" if n <= 8 else "large"


# The work budget of one op (SNF with transforms plus cokernel, or a fiber
# quotient), applied in the untimed screening pass.  A polynomial-time SNF of a
# 20x20 matrix with entries up to +-50 keeps its entries to a few thousand
# bits; the seed's Euclidean clearing passes 2^16 bits within a few hundred
# calls when it blows up.  The call limit, several times the ~32,000 calls of
# the longest solved op seen, only stops a loop whose entries never grow.
SNF_BUDGET_BITS = 1 << 16
SNF_BUDGET_CALLS = 200_000
# The timed phase still runs an op that failed screening, under a wall-clock
# deadline by size class, so its cost shows as a caller with that timeout
# would see it.  One value per class keeps that cost the same on every seed.
SNF_DEADLINE_S = {"small": 0.05, "medium": 0.1, "large": 0.25}
# Wall-clock backstop for screening and for the ops that passed it; an op
# within its budget finishes far sooner, so a miss here means a hang.
SNF_BACKSTOP_S = 5.0


class SnfLadder(Workload):
    """SNF with transforms plus cokernel on a seeded ladder of square and
    non-square matrices, and the abelianised fiber quotients."""

    name = "snf-ladder"
    SHAPES = [(n, n) for n in (2, 3, 4, 5, 6, 8, 10, 12, 16, 20)] + [
        (3, 5), (5, 3), (4, 8), (8, 4), (6, 10), (10, 6), (12, 16), (16, 12), (2, 20), (20, 2),
    ]
    BOUNDS = (1, 5, 50)
    NAB = (1, 2, 5, 10, 20, 40)
    # A round's length on the seed (screening, timed phase, check), which sets
    # the fixed number of rounds in a run.
    ROUND_S = 7.5

    def rounds(self, seconds):
        """A fixed count, so that a run's failures are the same on every
        machine: they depend on each round's inputs, not on how many fit."""
        return max(1, round(seconds / self.ROUND_S))

    def inputs(self, round_index):
        rng = self.rng(round_index)
        ops = []
        for rows, cols in self.SHAPES:
            for bound in self.BOUNDS:
                M = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
                ops.append(("matrix", M, bound))
        for kind in ("orientable", "nonorientable"):
            ops += [("nab", kind, g, k) for g in self.NAB for k in self.NAB]
        return ops

    def _solve(self, op) -> dict:
        sg, clock = self.sg, time.perf_counter
        if op[0] == "matrix":
            M = op[1]
            t0 = clock()
            res = sg.smith_normal_form(M, transforms=True)
            snf_s = clock() - t0
            return {"status": "solved", "snf": res, "group": sg.cokernel(M), "snf_s": snf_s}
        nab = sg.nab_quotient_orientable if op[1] == "orientable" else sg.nab_quotient_nonorientable
        return {"status": "solved", "group": nab(op[2], op[3])}

    def screen(self, inputs):
        """Run every op once under the work budget and append its verdict,
        {"status": "solved" | "budget" | "deadline", "coeff_bits": ...}.
        The verdict, not the timed phase, decides whether an op counts as
        unfinished, so the failure count does not depend on the machine."""
        screened = []
        for op in inputs:
            try:
                with deadline(SNF_BACKSTOP_S), work_budget(SNF_BUDGET_BITS, SNF_BUDGET_CALLS):
                    self._solve(op)
                verdict = {"status": "solved", "coeff_bits": None}
            except BudgetExceeded as exc:
                verdict = {"status": "budget", "coeff_bits": exc.coeff_bits}
            except DeadlineExceeded as exc:
                verdict = {"status": "deadline", "coeff_bits": exc.coeff_bits}
            screened.append(op + (verdict,))
        return screened

    def run(self, inputs, trace=None):
        """Times screened inputs: each op ends with its verdict."""
        rnd, clock = Round(), time.perf_counter
        depth = _guarded(trace)
        for op in inputs:
            verdict = op[-1]
            passed = verdict["status"] == "solved"
            if passed:
                limit = SNF_BACKSTOP_S
            elif op[0] == "matrix":
                limit = SNF_DEADLINE_S[size_class(len(op[1]), len(op[1][0]))]
            else:
                limit = SNF_DEADLINE_S["large"]
            t0 = clock()
            try:
                with deadline(limit):
                    out = self._solve(op)
                    out["seconds"] = clock() - t0
            except DeadlineExceeded as exc:
                _recover(trace, depth)
                out = {"status": "deadline", "seconds": clock() - t0, "coeff_bits": exc.coeff_bits}
            if not passed:
                out = {"status": verdict["status"], "seconds": out["seconds"], "coeff_bits": verdict["coeff_bits"]}
            if out["status"] != "solved":
                rnd.unfinished += 1
            rnd.call_s.append(out["seconds"])
            rnd.outputs.append(out)
        return rnd

    def check(self, inputs, rnd):
        ok, problems = 0, []
        for op, out in zip(inputs, rnd.outputs):
            if out["status"] != "solved":
                continue
            if op[0] == "matrix":
                M, res = op[1], out["snf"]
                found = oracles.check_snf(M, res.diagonal, res.U, res.V)
                found += oracles.check_cokernel(M, res.diagonal, out["group"])
                out["coeff_bits"] = oracles.max_bits(res.U, res.V, [res.diagonal])
            else:
                found = oracles.check_nab(op[1], op[2], op[3], out["group"])
            if found:
                problems += [f"{describe(op)}: {p}" for p in found]
            else:
                ok += 1
        return ok, problems


def describe(op) -> str:
    if op[0] == "matrix":
        M = op[1]
        return f"{len(M)}x{len(M[0])} +-{op[2]}"
    return f"nab {op[1]} g={op[2]} k={op[3]}"


# -- cli-mix ----------------------------------------------------------------------

KLEIN_GENS = ("al", "be")
P2T_GENS = ("x", "y", "a", "b", "B")
B2T_GENS = ("x", "y", "a", "b", "s", "B")


def _word(rng, gens, n):
    syl, last = [], None
    for _ in range(n):
        g = rng.choice([h for h in gens if h != last])
        syl.append((g, rng.choice((-3, -2, -1, 1, 2, 3))))
        last = g
    return syl


def _fmt(syl):
    return "*".join(n if e == 1 else f"{n}^{e}" for n, e in syl) or "1"


class CliMix(Workload):
    """Every subcommand of the CLI, in-process, with small seeded inputs, with
    and without --json, plus inputs that must exit 1 (domain errors) and 2
    (parse errors).  hom-check and snf read files written during set-up."""

    name = "cli-mix"
    DEADLINE = 5.0
    SNF_FILES = 8

    def __init__(self, sg, seed, workdir):
        super().__init__(sg, seed, workdir)
        self.files = self._write_files()

    def _write_files(self):
        """The set-up's temp files: small SNF matrices and hom-check specs."""
        rng = random.Random(f"{self.name}:{self.seed}:files")
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = {"snf": [], "hom_ok": [], "hom_bad": []}
        for i in range(self.SNF_FILES):
            rows, cols = rng.randint(1, 3), rng.randint(1, 3)
            M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            path = self.workdir / f"snf{i}.json"
            path.write_text(json.dumps(M))
            files["snf"].append((str(path), M))
        klein_hom = {"alphabet": ["al", "be"], "relators": ["al*be*al*be^-1"], "target": "klein"}
        for i, (a, b) in enumerate([("al", "be"), ("al", "al*be"), ("al", "be^-1"), ("al", "al*be^-1")]):
            path = self.workdir / f"hom{i}.json"
            path.write_text(json.dumps(dict(klein_hom, images={"al": a, "be": b})))
            files["hom_ok"].append(str(path))
        b2t = {"alphabet": ["al", "be"], "relators": ["al*be*al*be^-1"], "target": "b2t",
               "images": {"al": "a^-1*x^2", "be": "y*B^-1*s"}}
        path = self.workdir / "hom_phi1.json"
        path.write_text(json.dumps(b2t))
        files["hom_ok"].append(str(path))
        path = self.workdir / "hom_bad_target.json"
        path.write_text(json.dumps(dict(klein_hom, target="nowhere", images={"al": "al", "be": "be"})))
        files["hom_bad"].append(str(path))
        return files

    def inputs(self, round_index):
        rng = self.rng(round_index)
        ops = []  # (argv, expected exit code, semantic check or None)

        def add(argv, code=0, check=None, json_flag=None):
            if json_flag is None:
                json_flag = rng.random() < 0.5
            ops.append((argv + (["--json"] if json_flag else []), code, check))

        for group, gens in (("klein", KLEIN_GENS), ("p2t", P2T_GENS), ("b2t", B2T_GENS)):
            for _ in range(10):
                syl = _word(rng, gens, rng.randint(1, 4))
                add(["nf", "--group", group, "--word", _fmt(syl)],
                    check=("klein", oracles.klein_fold(syl)) if group == "klein" else None)
            for _ in range(8):
                words = [_word(rng, gens, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))]
                expected = None
                if group == "klein":
                    acc = (0, 0)
                    for syl in words:
                        acc = oracles.klein_mul(acc, oracles.klein_fold(syl))
                    expected = ("klein", acc)
                add(["mul", "--group", group] + [_fmt(s) for s in words], check=expected)
            for _ in range(5):
                syl = _word(rng, gens, rng.randint(1, 4))
                add(["inv", "--group", group, "--word", _fmt(syl)],
                    check=("klein", oracles.klein_inv(oracles.klein_fold(syl))) if group == "klein" else None)
        for _ in range(12):
            argv = ["phi1", "--word", _fmt(_word(rng, KLEIN_GENS, rng.randint(1, 4)))]
            add(argv + (["--closed-form"] if rng.random() < 0.5 else []))
        for radius in (0, 1, 2, 3, 4, 5):
            add(["ball", "--radius", str(radius)], check=("ball", radius))
        for _ in range(6):
            add(["mcgk"] + (["--table"] if rng.random() < 0.5 else []))
        for _ in range(12):
            pts = {(Fraction(rng.randint(0, 9), 20), Fraction(rng.randint(0, 19), 20)) for _ in range(rng.randint(1, 4))}
            add(["lift", "--points", ";".join(f"{u},{v}" for u, v in sorted(pts))], check=("lift", 2 * len(pts)))
        for _ in range(12):
            path, M = rng.choice(self.files["snf"])
            add(["snf", "--matrix", path] + (["--transforms"] if rng.random() < 0.5 else []), check=("snf", M))
        for _ in range(12):
            kind, g, k = rng.choice(("orientable", "nonorientable")), rng.randint(1, 8), rng.randint(1, 8)
            add(["nab", "--surface", kind, "-g", str(g), "-k", str(k)], check=("nab", kind, g, k))
        for _ in range(20):
            surface = rng.choice(("orientable", "nonorientable", "sphere", "torus", "projective-plane", "klein-bottle"))
            argv = ["dims", "--surface", surface, "-k", str(rng.randint(0, 6)),
                    "--group", rng.choice(("braid", "pure-braid", "mcg", "pmcg")),
                    "--quantity", rng.choice(("cd", "vcd"))]
            if surface in ("orientable", "nonorientable"):
                argv += ["-g", str(rng.randint(1, 5))]
            add(argv)
        for _ in range(8):
            add(["hom-check", "--file", rng.choice(self.files["hom_ok"])], check=("hom",))
        for _ in range(4):
            add(["verify-presentations", "--fuzz", str(rng.randint(0, 10)), "--seed", str(rng.randint(0, 99))])
        # Domain errors: exit 1.
        add(["ball", "--radius", str(rng.randint(65, 80))], 1)
        add(["ball", "--radius", str(-rng.randint(1, 5))], 1)
        add(["lift", "--points", f"{rng.randint(10, 19)}/20,0"], 1)
        add(["lift", "--points", "1/4,1/3;1/4,1/3"], 1)
        add(["dims", "--surface", "orientable", "--group", "braid", "--quantity", "cd"], 1)
        add(["nab", "--surface", rng.choice(("orientable", "nonorientable")), "-g", "0", "-k", "2"], 1)
        add(["snf", "--matrix", str(self.workdir / "missing.json")], 1)
        add(["hom-check", "--file", self.files["hom_bad"][0]], 1)
        for _ in range(7):
            add(["ball", "--radius", str(rng.randint(65, 10**6))], 1)
        # Parse errors: exit 2.
        for bad in ("x**y", "x^", "q", "x*", "*y", "x^^2", "s y"):
            add(["nf", "--group", rng.choice(("p2t", "b2t")), "--word", bad], 2)
        add(["nf", "--group", "nowhere", "--word", "x"], 2, json_flag=False)
        add(["mul", "--group", "klein"], 2, json_flag=False)
        add(["lift", "--points", "1/4;0"], 2)
        add(["phi1", "--word", "al^x"], 2)
        add(["inv", "--group", "klein", "--word", "al*zz"], 2)
        add(["ball"], 2, json_flag=False)
        add(["nab", "--surface", "orientable", "-g", "one", "-k", "2"], 2, json_flag=False)
        add(["dims", "--surface", "mars", "--group", "mcg", "--quantity", "cd"], 2, json_flag=False)
        ops.append((None, 0, ("sweep", rng.randint(3, 5))))  # dims.consistency_sweep, a library call
        return ops

    def run(self, inputs, trace=None):
        sg, rnd, clock = self.sg, Round(), time.perf_counter
        main, sweep = sg.cli.main, sg.consistency_sweep
        depth = _guarded(trace)
        for argv, _, check in inputs:
            out, err = io.StringIO(), io.StringIO()
            try:
                with deadline(self.DEADLINE), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    t0 = clock()
                    if argv is None:
                        code = 0 if sweep(check[1], check[1]).passed else 1
                    else:
                        try:
                            code = main(argv)
                        except SystemExit as exc:  # argparse usage errors
                            code = exc.code
                    rnd.call_s.append(clock() - t0)
            except DeadlineExceeded:
                _recover(trace, depth)
                code = None
                rnd.unfinished += 1
                rnd.call_s.append(self.DEADLINE)
            rnd.outputs.append((code, out.getvalue()))
        return rnd

    _envelopes = None

    def check(self, inputs, rnd):
        if CliMix._envelopes is None:
            CliMix._envelopes = oracles.EnvelopeChecker()
        ok, problems = 0, []
        for (argv, expected, check), (code, text) in zip(inputs, rnd.outputs):
            if code is None:
                continue
            found = []
            if code != expected:
                found.append(f"exit {code}, expected {expected}")
            elif argv is not None and "--json" in argv and text:
                schema_problems, env = self._envelopes.check(argv[0], text)
                found += schema_problems
                if not schema_problems and code == 0:
                    found += semantic_problems(env["data"], check)
            elif argv is not None and code == 0 and not text:
                found.append("no output")
            if found:
                problems += [f"{' '.join(argv or ['sweep'])}: {p}" for p in found]
            else:
                ok += 1
        return ok, problems


def semantic_problems(data: dict, check) -> list[str]:
    """Content checks for --json results, from the benchmark's own oracles."""
    if check is None:
        return []
    kind = check[0]
    if kind == "klein":
        got = (data["element"]["r"], data["element"]["s"])
        return [] if got == check[1] else [f"klein element {got} != {check[1]}"]
    if kind == "ball":
        n = (2 * check[1] + 1) ** 2
        return [] if data["passed"] and data["count"] == n else ["ball certificate wrong"]
    if kind == "lift":
        return [] if data["count"] == check[1] else [f"lift count {data['count']} != {check[1]}"]
    if kind == "nab":
        group = SimpleNamespace(**data["quotient"])
        return oracles.check_nab(check[1], check[2], check[3], group)
    if kind == "snf":
        M = check[1]
        if "U" in data:
            return oracles.check_snf(M, data["diagonal"], data["U"], data["V"])
        n = min(len(M), len(M[0]))
        expected = [0] * n
        for k in range(1, n + 1):
            g = oracles.minor_gcd(M, k)
            prev = prod(expected[: k - 1])
            expected[k - 1] = g // prev if prev else 0
        return [] if data["diagonal"] == expected else [f"diagonal {data['diagonal']} != {expected}"]
    if kind == "hom":
        return [] if data["report"]["passed"] else ["homomorphism check failed"]
    return []


WORKLOADS = {w.name: w for w in (BallCert, LongWords, SnfLadder, CliMix)}

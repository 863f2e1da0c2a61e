"""Independent correctness oracles.  None of them calls the code path it
checks: integer linear algebra is done here from scratch, Klein-bottle
products use the twisted product law directly, and CLI envelopes are
validated with jsonschema against the shipped schemas.

Each check returns a list of problems; an empty list means the answer passed.
"""
from __future__ import annotations

import json
from functools import reduce
from itertools import combinations
from math import gcd, prod
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# -- integer linear algebra ---------------------------------------------------

def mat_mul(A, B):
    cols = list(zip(*B))
    return [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in A]


def det(M) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    A = [list(row) for row in M]
    n = len(A)
    if n == 0:
        return 1
    sign, prev = 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def rank(M) -> int:
    """Rank over Q by fraction-free elimination."""
    A = [list(row) for row in M]
    r = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[r], A[pivot] = A[pivot], A[r]
        for i in range(r + 1, len(A)):
            if A[i][c]:
                f, p = A[i][c], A[r][c]
                A[i] = [x * p - y * f for x, y in zip(A[i], A[r])]
        r += 1
    return r


def minor_gcd(M, k: int) -> int:
    """gcd of all k x k minors (0 when they all vanish)."""
    rows, cols = len(M), len(M[0])
    return reduce(
        gcd,
        (
            abs(det([[M[i][j] for j in cs] for i in rs]))
            for rs in combinations(range(rows), k)
            for cs in combinations(range(cols), k)
        ),
        0,
    )


def max_bits(*matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


def check_snf(M, diagonal, U, V) -> list[str]:
    """U*M*V = D, det U and det V = +-1, a nonnegative divisibility chain,
    prod(D) = |det M| for nonsingular square M, and the minor-gcd
    characterisation for matrices of 3x3 or smaller."""
    problems = []
    rows, cols = len(M), len(M[0])
    diagonal = list(diagonal)
    if len(diagonal) != min(rows, cols):
        return [f"diagonal has {len(diagonal)} entries, expected {min(rows, cols)}"]
    D = [[diagonal[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
    if len(U) != rows or len(V) != cols:
        return ["transform shapes do not match the matrix"]
    if mat_mul(mat_mul(U, M), V) != D:
        problems.append("U*M*V != D")
    if abs(det(U)) != 1:
        problems.append("U is not unimodular")
    if abs(det(V)) != 1:
        problems.append("V is not unimodular")
    if any(d < 0 for d in diagonal):
        problems.append("negative diagonal entry")
    for a, b in zip(diagonal, diagonal[1:]):
        if (a == 0 and b != 0) or (a != 0 and b % a):
            problems.append(f"divisibility chain broken at {a}, {b}")
            break
    if rows == cols:
        d = det(M)
        if d and prod(diagonal) != abs(d):
            problems.append(f"prod(diagonal) = {prod(diagonal)} but |det M| = {abs(d)}")
    if max(rows, cols) <= 3:
        for k in range(1, min(rows, cols) + 1):
            if prod(diagonal[:k]) != minor_gcd(M, k):
                problems.append(f"minor-gcd oracle disagrees at k={k}")
                break
    return problems


def check_cokernel(M, diagonal, group) -> list[str]:
    """Free rank from an independent rank computation; torsion from the
    (separately verified) SNF diagonal."""
    cols = len(M[0])
    problems = []
    if group.free_rank != cols - rank(M):
        problems.append(f"free rank {group.free_rank} != cols - rank = {cols - rank(M)}")
    if tuple(group.torsion) != tuple(d for d in diagonal if d > 1):
        problems.append(f"torsion {group.torsion} does not match the diagonal")
    return problems


def check_nab(kind: str, g: int, k: int, group) -> list[str]:
    """Orientable: Z^(2g).  Non-orientable: Z^(g-1) + Z/2."""
    expected = (2 * g, ()) if kind == "orientable" else (g - 1, (2,))
    got = (group.free_rank, tuple(group.torsion))
    return [] if got == expected else [f"nab {kind} g={g} k={k}: {got} != {expected}"]


# -- Klein bottle group -------------------------------------------------------

def klein_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """(r, s) . (p, q) = (r + (-1)^s p, s + q)."""
    (r, s), (p, q) = a, b
    return (r + (-p if s % 2 else p), s + q)


def klein_fold(syllables) -> tuple[int, int]:
    acc = (0, 0)
    for name, exp in syllables:
        for _ in range(abs(exp)):
            step = (1, 0) if name == "al" else (0, 1)
            if exp < 0:
                step = klein_inv(step)
            acc = klein_mul(acc, step)
    return acc


def klein_inv(a: tuple[int, int]) -> tuple[int, int]:
    r, s = a
    return (r if s % 2 else -r, -s)


# -- CLI envelopes --------------------------------------------------------------

# Data schema of each subcommand in schemas/commands.schema.json.
COMMAND_DEFS = {
    "nf": "nf", "mul": "nf", "inv": "nf", "phi1": "phi1", "ball": "ball",
    "lift": "lift", "snf": "snf", "nab": "nab", "dims": "dims", "mcgk": "mcgk",
    "verify-presentations": "verifyPresentations",
}


class EnvelopeChecker:
    def __init__(self, schema_dir: Path = ROOT / "schemas"):
        from jsonschema import Draft202012Validator

        envelope = json.loads((schema_dir / "envelope.schema.json").read_text())
        commands = json.loads((schema_dir / "commands.schema.json").read_text())
        self.envelope = Draft202012Validator(envelope)
        self.data = {}
        for name, schema in commands["$defs"].items():
            self.data[name] = Draft202012Validator(dict(schema, **{"$defs": commands["$defs"]}))

    def check(self, command: str, text: str) -> tuple[list[str], dict | None]:
        try:
            env = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"output is not JSON: {exc}"], None
        problems = [e.message for e in self.envelope.iter_errors(env)]
        if problems or env["status"] != "ok":
            return problems, env
        if command == "hom-check":
            validator, data = self.data["homReport"], env["data"].get("report")
        else:
            validator, data = self.data[COMMAND_DEFS[command]], env["data"]
        problems += [e.message for e in validator.iter_errors(data)]
        return problems, env

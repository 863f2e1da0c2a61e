"""Smith normal form over the integers and the abelianised-fiber quotients
used for the braid-group cohomological dimension computations.

Matrices are plain lists of rows of Python ints (arbitrary precision), so the
classical pivot blow-up is harmless.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

Matrix = list[list[int]]


@dataclass(frozen=True)
class AbelianGroup:
    """Invariant-factor form: Z^free_rank + Z/d1 + ... with d1 | d2 | ..."""

    free_rank: int
    torsion: tuple[int, ...]

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("free rank must be nonnegative")
        for prev, cur in zip(self.torsion, self.torsion[1:]):
            if cur % prev:
                raise ValueError(f"torsion {self.torsion} violates divisibility")
        if any(d < 2 for d in self.torsion):
            raise ValueError("torsion coefficients must be >= 2")

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    @classmethod
    def from_diagonal(cls, diagonal: Sequence[int], cols: int) -> "AbelianGroup":
        """Z^cols modulo the row lattice of a matrix with this Smith diagonal."""
        nonzero = [d for d in diagonal if d]
        return cls(cols - len(nonzero), tuple(d for d in nonzero if d > 1))


@dataclass(frozen=True)
class SNFResult:
    diagonal: tuple[int, ...]
    U: tuple[tuple[int, ...], ...] | None = None
    V: tuple[tuple[int, ...], ...] | None = None


def _identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _validate(mat: Sequence[Sequence[int]]) -> Matrix:
    """A working copy of a list of equal-length rows of ints (not bools)."""
    if not isinstance(mat, (list, tuple)):
        raise ValueError(f"matrix must be a list of rows, got {type(mat).__name__}")
    A = []
    for i, row in enumerate(mat):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"row {i} must be a list of integers, got {row!r}")
        if A and len(row) != len(A[0]):
            raise ValueError(f"ragged matrix: row {i} has length {len(row)}, row 0 has {len(A[0])}")
        if not set(map(type, row)) <= {int}:  # bools and floats fail here
            j, x = next((j, x) for j, x in enumerate(row) if type(x) is not int)
            raise ValueError(f"entry at row {i}, column {j} must be an integer, got {x!r}")
        A.append(list(row))
    return A


def smith_normal_form(mat: Sequence[Sequence[int]], transforms: bool = False) -> SNFResult:
    """Diagonalise by unimodular row/column operations.  The diagonal entries
    are nonnegative and form a divisibility chain; when requested, U and V
    satisfy U * M * V = D with det U, det V in {+1, -1}.
    """
    A = _validate(mat)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        for j in range(cols):
            A[dst][j] += q * A[src][j]
        for j in range(rows):
            U[dst][j] += q * U[src][j]

    def add_col(src, dst, q):
        for row in A:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(rows, cols):
        # Pick the nonzero entry of smallest magnitude as pivot.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            swap_rows(t, pivot[0])
        if pivot[1] != t:
            swap_cols(t, pivot[1])
        # Clear the pivot row and column by Euclidean steps.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t]:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j]:
                        swap_cols(t, j)
                        dirty = True
        # Enforce divisibility of the remaining block by the pivot.
        offender = None
        d = A[t][t]
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % d:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        if d < 0:
            negate_row(t)
        t += 1

    diagonal = tuple(A[i][i] for i in range(min(rows, cols)))
    if transforms:
        return SNFResult(diagonal, tuple(map(tuple, U)), tuple(map(tuple, V)))
    return SNFResult(diagonal)


def cokernel(mat: Sequence[Sequence[int]]) -> AbelianGroup:
    """Z^cols modulo the row lattice of the matrix, in invariant-factor form."""
    diagonal = smith_normal_form(mat).diagonal  # validates mat
    return AbelianGroup.from_diagonal(diagonal, len(mat[0]) if mat else 0)


NONORIENTABLE_RANK_NOTE = (
    "source rank formula g+k disagrees with the explicit basis of size g+k-1; "
    "the quotient is computed from the explicit basis/relation data"
)


def _check_gk(g: int, k: int) -> None:
    if g < 1 or k < 1:
        raise ValueError(f"requires g >= 1 and k >= 1, got g={g}, k={k}")


def _kill_basis_vectors(rank: int, first: int) -> Matrix:
    """One relation row per basis vector first, first + 1, ..., rank - 1."""
    return [[0] * i + [1] + [0] * (rank - i - 1) for i in range(first, rank)]


def nab_quotient_orientable(g: int, k: int) -> AbelianGroup:
    """Abelianised fiber modulo coinvariants for a genus-g orientable surface
    with k strands: basis {rho_r, tau_r (r <= g), C_m (m <= k-1)} of rank
    2g + k - 1, with the k-1 basis vectors C_m killed.  Result: Z^(2g).
    """
    _check_gk(g, k)
    rank = 2 * g + k - 1
    return cokernel(_kill_basis_vectors(rank, 2 * g) or [[0] * rank])


def nab_quotient_nonorientable(g: int, k: int) -> AbelianGroup:
    """Non-orientable analogue: basis {rho_r (r <= g), B_m (m <= k-1)}, with
    the B_m killed together with 2*(rho_1 + ... + rho_g).
    Result: Z^(g-1) + Z/2.
    """
    _check_gk(g, k)
    rank = g + (k - 1)
    return cokernel(_kill_basis_vectors(rank, g) + [[2] * g + [0] * (k - 1)])

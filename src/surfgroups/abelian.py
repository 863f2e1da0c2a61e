"""Smith normal form over the integers and the abelianised-fiber quotients
used for the braid-group cohomological dimension computations.

Matrices are plain lists of rows of Python ints (arbitrary precision).  That
does not make entry growth harmless: the elimination takes no step to keep
entries small, so the transforms U and V can reach tens of thousands of bits
on a 20 x 20 matrix with entries in +-50, and every step pays for them.

When transforms are requested, U and V live in the one working matrix: each
row of the input carries the matching row of the identity to its right (U),
and the identity sits below the input (V).  A row step then updates U and a
column step updates V, with no second bookkeeping.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .words import DomainError

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
        raise DomainError(f"matrix must be a list of rows, got {type(mat).__name__}")
    A = []
    for i, row in enumerate(mat):
        if not isinstance(row, (list, tuple)):
            raise DomainError(f"row {i} must be a list of integers, got {row!r}")
        if A and len(row) != len(A[0]):
            raise DomainError(f"ragged matrix: row {i} has length {len(row)}, row 0 has {len(A[0])}")
        if not set(map(type, row)) <= {int}:  # bools and floats fail here
            j, x = next((j, x) for j, x in enumerate(row) if type(x) is not int)
            raise DomainError(f"entry at row {i}, column {j} must be an integer, got {x!r}")
        A.append(list(row))
    return A


def _unimodular(a: int, b: int) -> tuple[int, int, int, int]:
    """(x, y, p, q) with x*q - y*p = 1, x*a + y*b = g = +-gcd(a, b) and
    p*a + q*b = 0.  When a divides b it is (1, 0, -b//a, 1), which leaves a in
    place: a step against an entry the pivot divides never moves the pivot."""
    if a and b % a == 0:
        return 1, 0, -b // a, 1
    g, r, x, s, y, u = a, b, 1, 0, 0, 1
    while r:
        k = g // r
        g, r, x, s, y, u = r, g - k * r, s, x - k * s, u, y - k * u
    return x, y, -b // g, a // g


def _mix_rows(M: Matrix, s: int, d: int, x: int, y: int, p: int, q: int) -> None:
    """Replace rows s and d of M by x*row_s + y*row_d and p*row_s + q*row_d."""
    rs, rd = M[s], M[d]
    M[s] = [x * u + y * v for u, v in zip(rs, rd)]
    M[d] = [p * u + q * v for u, v in zip(rs, rd)]


def smith_normal_form(mat: Sequence[Sequence[int]], transforms: bool = False) -> SNFResult:
    """Diagonalise by unimodular row/column operations.  The diagonal entries
    are nonnegative and form a divisibility chain; when requested, U and V
    satisfy U * M * V = D with det U, det V in {+1, -1}.
    """
    A = _validate(mat)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if transforms:  # U rides to the right of A's rows and V below them
        A = [row + e for row, e in zip(A, _identity(rows))] + _identity(cols)

    for t in range(min(rows, cols)):
        while True:
            for i in range(t + 1, rows):  # row steps clear column t
                if A[i][t]:
                    _mix_rows(A, t, i, *_unimodular(A[t][t], A[i][t]))
            for j in range(t + 1, cols):  # column steps clear row t
                if A[t][j]:
                    x, y, p, q = _unimodular(A[t][t], A[t][j])
                    for row in A:
                        row[t], row[j] = x * row[t] + y * row[j], p * row[t] + q * row[j]
            if any([A[i][t] for i in range(t + 1, rows)]):
                continue  # a column step lowered the pivot and refilled column t
            # Add to row t a row with an entry the pivot does not divide (0
            # divides only 0); the column steps then lower the pivot again.
            d = A[t][t]
            bad = [i for i in range(t + 1, rows) for x in A[i][t + 1 : cols] if (x % d if d else x)]
            if not bad:
                break
            A[t] = [u + v for u, v in zip(A[t], A[bad[0]])]
        if A[t][t] < 0:
            A[t] = [-u for u in A[t]]

    diagonal = tuple(A[i][i] for i in range(min(rows, cols)))
    if transforms:
        U = tuple(tuple(row[cols:]) for row in A[:rows])
        V = tuple(map(tuple, A[rows:]))
        return SNFResult(diagonal, U, V)
    return SNFResult(diagonal)


def cokernel(mat: Sequence[Sequence[int]]) -> AbelianGroup:
    """Z^cols modulo the row lattice of the matrix, in invariant-factor form."""
    diagonal = smith_normal_form(mat).diagonal  # validates mat
    return AbelianGroup.from_diagonal(diagonal, len(mat[0]) if mat else 0)


NONORIENTABLE_RANK_NOTE = (
    "source rank formula g+k disagrees with the explicit basis of size g+k-1; "
    "the quotient is computed from the explicit basis/relation data"
)


# The fiber quotients are Smith normal forms of (g + k)-column matrices; this
# bound keeps one call well under a second.
MAX_NAB_GK = 100


def _check_gk(g: int, k: int) -> None:
    if g < 1 or k < 1:
        raise DomainError(f"requires g >= 1 and k >= 1, got g={g}, k={k}")
    if g > MAX_NAB_GK or k > MAX_NAB_GK:
        raise DomainError(f"requires g <= {MAX_NAB_GK} and k <= {MAX_NAB_GK}, got g={g}, k={k}")


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

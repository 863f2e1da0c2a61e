"""Smith normal form over the integers and the abelianised-fiber quotients
used for the braid-group cohomological dimension computations.

The fiber quotients are answered from their closed forms, proved in their
docstrings, for every g, k >= 1; no matrix is built.  The tests check them
against the cokernel of their relation matrices.

Matrices are plain lists of rows of Python ints (arbitrary precision).  The
elimination pivots on the entry of least absolute value and leaves remainders
of at most half the pivot, which keeps entries small in practice: U and V stay
within about a thousand bits on a 20 x 20 matrix with entries in +-50, and
about 3,000 bits at 40 x 40.  Entry size has no proven polynomial bound,
though, and no budget or refusal caps it yet (ROADMAP item 1 comes first).

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


def _sub_row(A: Matrix, i: int, t: int, q: int) -> None:
    """Subtract q times row t from row i."""
    A[i] = [u - q * v for u, v in zip(A[i], A[t])]


def _sub_col(A: Matrix, j: int, t: int, q: int) -> None:
    """Subtract q times column t from column j, in every row (V's too)."""
    for row in A:
        row[j] -= q * row[t]


def _indivisible_row(A: Matrix, t: int, rows: int, cols: int) -> int | None:
    """The first row below t with an entry right of column t that A[t][t]
    does not divide (0 divides only 0), or None."""
    d = A[t][t]
    for i in range(t + 1, rows):
        for x in A[i][t + 1 : cols]:
            if x % d if d else x:
                return i
    return None


def smith_normal_form(mat: Sequence[Sequence[int]], transforms: bool = False) -> SNFResult:
    """Diagonalise by unimodular row/column operations.  The diagonal entries
    are nonnegative and form a divisibility chain; when requested, U and V
    satisfy U * M * V = D with det U, det V in {+1, -1}.

    Pivoting (Havas-Majewski-Matthews, Exp. Math. 1998): while column t has
    a nonzero entry below row t, swap the nonzero entry of least absolute
    value in column t into A[t][t] and reduce every other entry a of the
    column by its nearest quotient q = (2a + p) // (2p), so that the
    remainder a - q*p has absolute value at most |p|/2; then the same for
    row t with column steps.  Once both are clear, and |A[t][t]| != 1, the
    first later row with an entry A[t][t] does not divide is added to row t.

    Termination: once A[t][t] is nonzero it stays nonzero (a zero one takes
    the row addition at most once), and |A[t][t]| never rises, since each
    pivot is the least entry of a line through A[t][t].  A pass that keeps
    |A[t][t]| swaps nothing (ties go to A[t][t]), so its nonzero remainders
    stay in its own line and the next pass pivots on one of them; a row
    addition brings in an entry A[t][t] does not divide, whose remainder is
    nonzero.  So |A[t][t]| strictly falls within every two passes or the
    lines are clear, and a positive integer falls finitely often.
    Unimodularity: the only steps are row and column swaps, sign flips and
    elementary steps that subtract q times one row (column) from another,
    each of determinant +-1.  When t is done, A[t][t] divides every later
    entry, and later steps keep that, so the diagonal is a divisibility
    chain; it is the Smith form, which is unique.
    """
    A = _validate(mat)
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if transforms:  # U rides to the right of A's rows and V below them
        A = [row + e for row, e in zip(A, _identity(rows))] + _identity(cols)

    for t in range(min(rows, cols)):
        while True:
            col = [(abs(A[i][t]), i) for i in range(t, rows) if A[i][t]]
            if col and col[-1][1] > t:  # row steps clear column t
                p = min(col)[1]
                A[t], A[p] = A[p], A[t]
                d = A[t][t]
                for i in range(t + 1, rows):
                    if A[i][t]:
                        _sub_row(A, i, t, (2 * A[i][t] + d) // (2 * d))
                continue
            row = [(abs(A[t][j]), j) for j in range(t, cols) if A[t][j]]
            if row and row[-1][1] > t:  # column steps clear row t
                p = min(row)[1]
                if p != t:
                    for line in A:
                        line[t], line[p] = line[p], line[t]
                d = A[t][t]
                for j in range(t + 1, cols):
                    if A[t][j]:
                        _sub_col(A, j, t, (2 * A[t][j] + d) // (2 * d))
                continue
            i = None if A[t][t] in (1, -1) else _indivisible_row(A, t, rows, cols)
            if i is None:
                break
            _sub_row(A, t, i, -1)
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


def _check_gk(g: int, k: int) -> None:
    if g < 1 or k < 1:
        raise DomainError(f"requires g >= 1 and k >= 1, got g={g}, k={k}")


def nab_quotient_orientable(g: int, k: int) -> AbelianGroup:
    """Abelianised fiber modulo coinvariants for a genus-g orientable surface
    with k strands: basis {rho_r, tau_r (r <= g), C_m (m <= k-1)} of rank
    2g + k - 1, with the k-1 basis vectors C_m killed.  Result: Z^(2g).

    Proof: the relations kill exactly the C_m, so the quotient is free on
    the 2g vectors rho_r, tau_r.
    """
    _check_gk(g, k)
    return AbelianGroup(2 * g, ())


def nab_quotient_nonorientable(g: int, k: int) -> AbelianGroup:
    """Non-orientable analogue: basis {rho_r (r <= g), B_m (m <= k-1)}, with
    the B_m killed together with 2*(rho_1 + ... + rho_g).
    Result: Z^(g-1) + Z/2.

    Proof: killing the B_m leaves Z^g / <2*(1, ..., 1)>.  The vector
    (1, ..., 1) is primitive, so it extends to a basis of Z^g.
    """
    _check_gk(g, k)
    return AbelianGroup(g - 1, (2,))

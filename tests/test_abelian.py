import random
import sys
from itertools import combinations
from math import gcd, prod

import pytest

from surfgroups import abelian
from surfgroups.abelian import (
    AbelianGroup,
    SNFResult,
    cokernel,
    nab_quotient_nonorientable,
    nab_quotient_orientable,
    smith_normal_form,
)
from surfgroups.words import DomainError

from conftest import deadline


def minor_gcd_invariants(mat):
    """Independent oracle: the k-th determinantal divisor d_k is the gcd of
    all k x k minors; the invariant factors are the ratios d_k / d_(k-1).
    Computed by exhaustive minor enumeration (feasible for tiny matrices).
    """
    rows, cols = len(mat), len(mat[0]) if mat else 0
    divisors = []
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, _cofactor_det([[mat[i][j] for j in ci] for i in ri]))
        divisors.append(g)
    factors = []
    prev = 1
    for d in divisors:
        if d == 0:
            factors.append(0)
        else:
            factors.append(d // prev)
            prev = d
    return tuple(factors)


class TestSmithNormalForm:
    def test_diagonal_example(self):
        assert smith_normal_form([[2, 0], [0, 3]]).diagonal == (1, 6)

    def test_zero_matrix(self):
        result = smith_normal_form([[0, 0, 0], [0, 0, 0]])
        assert result.diagonal == (0, 0)
        assert cokernel([[0, 0, 0], [0, 0, 0]]) == AbelianGroup(3, ())

    def test_unit_matrix(self):
        assert smith_normal_form([[1]]).diagonal == (1,)
        assert cokernel([[1]]) == AbelianGroup(0, ())

    def test_divisibility_chain(self, rng):
        for _ in range(100):
            mat = [
                [rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
                for _ in range(rng.randint(1, 4))
            ]
            mat = [row[: len(mat[0])] + [0] * (len(mat[0]) - len(row)) for row in mat]
            with deadline(2):
                diag = smith_normal_form(mat).diagonal
                assert smith_normal_form(mat, transforms=True).diagonal == diag
            assert all(d >= 0 for d in diag)
            nonzero = [d for d in diag if d]
            for a, b in zip(nonzero, nonzero[1:]):
                assert b % a == 0
            # Zeros only at the tail.
            assert list(diag) == nonzero + [0] * (len(diag) - len(nonzero))

    def test_transforms_are_unimodular_and_exact(self, rng):
        with deadline(2):  # an elimination that never ends fails here
            for _ in range(50):
                r, c = rng.randint(1, 4), rng.randint(1, 4)
                mat = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
                result = smith_normal_form(mat, transforms=True)
                assert result.diagonal == smith_normal_form(mat).diagonal
                _check_transforms(mat, result)

    @pytest.mark.parametrize(
        "mat, diagonal",
        [
            ([[]], ()),
            ([[], []], ()),
            ([[0, 4, -6, 10, 0]], (2,)),
            ([[0], [4], [-6], [10], [0]], (2,)),
        ],
        ids=["1x0", "2x0", "1x5", "5x1"],
    )
    def test_transforms_of_thin_matrices(self, mat, diagonal):
        rows, cols = len(mat), len(mat[0])
        with deadline(2):
            result = smith_normal_form(mat, transforms=True)
        assert result.diagonal == diagonal
        assert len(result.U) == rows and all(len(row) == rows for row in result.U)
        assert len(result.V) == cols and all(len(row) == cols for row in result.V)
        if cols:
            _check_transforms(mat, result)
        else:  # nothing to eliminate: U is the identity and V is empty
            assert result.U == tuple(tuple(int(i == j) for j in range(rows)) for i in range(rows))
            assert result.V == ()

    @pytest.mark.parametrize(
        "mat, diagonal",
        [
            ([[0, 0], [0, 1]], (1, 0)),
            ([[0, 1], [0, 0]], (1, 0)),
            ([[0, 0, 0], [0, 0, 5], [0, 3, 0]], (1, 15, 0)),
            # Loops forever if a step against an entry the pivot already
            # divides uses the extended gcd instead of plain elimination.
            ([[-1, 0, -1], [0, 0, 1], [-1, 1, 0]], (1, 1, 1)),
        ],
    )
    def test_edge_cases(self, mat, diagonal):
        with deadline(2):
            assert smith_normal_form(mat).diagonal == diagonal
            result = smith_normal_form(mat, transforms=True)
        assert result.diagonal == diagonal
        _check_transforms(mat, result)

    @pytest.mark.parametrize("n, bound", [(12, 50), (20, 5), (32, 50), (40, 50)])
    @pytest.mark.parametrize("seed", range(5))
    def test_large_random_matrices_finish_in_time(self, n, bound, seed):
        rng = random.Random(1000 * n + seed)
        mat = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        _check_large(mat)

    def test_seed_1_40x40_finishes_in_time(self):
        # Gcd-step elimination without pivoting ran for over a minute here.
        rng = random.Random(1)
        _check_large([[rng.randint(-50, 50) for _ in range(40)] for _ in range(40)])

    def test_agrees_with_gcd_step_oracle(self, rng):
        """Diagonals match the reference elimination on small matrices of
        every kind, and the transforms of both are exact and unimodular."""
        for mat in _small_matrices(rng, 300):
            with deadline(2):
                expected = gcd_step_snf(mat, transforms=True)
                result = smith_normal_form(mat, transforms=True)
                assert smith_normal_form(mat).diagonal == expected.diagonal
            assert result.diagonal == expected.diagonal
            assert gcd_step_snf(mat).diagonal == expected.diagonal
            if mat[0]:
                _check_transforms(mat, expected)
                _check_transforms(mat, result)

    def test_row_and_column_steps_are_calls_on_the_working_matrix(self):
        """perfbench's work budget reads the local A of smith_normal_form on
        every Python call, so each elimination step must be a call on A."""
        rng = random.Random(12)
        mat = [[rng.randint(-50, 50) for _ in range(12)] for _ in range(12)]
        steps = []

        def hook(frame, event, arg):
            caller = frame.f_back
            name = frame.f_code.co_name
            if caller.f_code.co_name == "smith_normal_form" and name in ("_sub_row", "_sub_col"):
                steps.append((name, frame.f_locals["A"] is caller.f_locals["A"]))

        previous = sys.gettrace()
        sys.settrace(hook)
        try:
            with deadline(2):
                smith_normal_form(mat, transforms=True)
        finally:
            sys.settrace(previous)
        # Clearing column 0 and row 0 of a dense 12 x 12 takes 11 steps each.
        names = [name for name, _ in steps]
        assert names.count("_sub_row") >= 11 and names.count("_sub_col") >= 11
        assert all(same for _, same in steps)

    @pytest.mark.parametrize("transforms", [False, True])
    @pytest.mark.parametrize("n", [3, 5, 8, 12])
    def test_each_step_leaves_at_most_half_the_pivot(self, monkeypatch, n, transforms):
        """Every row or column step reduces by the nearest quotient, so the
        entry it clears keeps at most half of |A[t][t]|.  The row addition,
        whose target is row t itself, is exempt."""
        sub_row, sub_col = abelian._sub_row, abelian._sub_col
        checked = 0

        def checked_row(A, i, t, q):
            nonlocal checked
            sub_row(A, i, t, q)
            if i > t:
                assert 2 * abs(A[i][t]) <= abs(A[t][t]), (i, t, q)
                checked += 1

        def checked_col(A, j, t, q):
            nonlocal checked
            sub_col(A, j, t, q)
            assert 2 * abs(A[t][j]) <= abs(A[t][t]), (j, t, q)
            checked += 1

        monkeypatch.setattr(abelian, "_sub_row", checked_row)
        monkeypatch.setattr(abelian, "_sub_col", checked_col)
        rng = random.Random(n)  # the same matrices with and without transforms
        for _ in range(5):
            mat = [[rng.randint(-50, 50) for _ in range(n)] for _ in range(n)]
            with deadline(2):
                smith_normal_form(mat, transforms=transforms)
        assert checked >= 5 * 2 * (n - 1)  # clearing column 0 and row 0 alone

    def test_invariant_under_unimodular_scrambling(self, rng):
        for _ in range(20):
            n = 3
            mat = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            base = smith_normal_form(mat).diagonal
            for _ in range(20):
                P = _random_signed_permutation(rng, n)
                Q = _random_signed_permutation(rng, n)
                scrambled = _mul(_mul(P, mat), Q)
                assert smith_normal_form(scrambled).diagonal == base

    def test_against_minor_gcd_oracle(self, rng):
        for _ in range(200):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            mat = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            assert smith_normal_form(mat).diagonal == minor_gcd_invariants(mat)

    def test_cokernel_torsion_against_oracle(self, rng):
        for _ in range(200):
            r, c = rng.randint(1, 3), rng.randint(1, 3)
            mat = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)]
            factors = minor_gcd_invariants(mat)
            expected_torsion = tuple(d for d in factors if d > 1)
            expected_rank = c - sum(1 for d in factors if d != 0)
            group = cokernel(mat)
            assert group.torsion == expected_torsion
            assert group.free_rank == expected_rank


class TestValidation:
    @pytest.mark.parametrize(
        "mat, where",
        [
            ([[1.5, 2], [3, 4]], "row 0, column 0"),
            ([[1, "a"], [2, 3]], "row 0, column 1"),
            ([[1, 2], [3, True]], "row 1, column 1"),
            ([[1, 2], [3]], "row 1 has length 1"),
            ([1, 2], "row 0"),
            ({"a": 1}, "list of rows"),
        ],
    )
    def test_rejects_non_integer_matrices(self, mat, where):
        with pytest.raises(DomainError, match=where):
            smith_normal_form(mat)
        with pytest.raises(DomainError, match=where):
            cokernel(mat)

    def test_accepts_empty_and_tuple_matrices(self):
        assert smith_normal_form([]).diagonal == ()
        assert cokernel([]) == AbelianGroup(0, ())
        assert cokernel([[]]) == AbelianGroup(0, ())
        assert smith_normal_form(((2, 0), (0, 3))).diagonal == (1, 6)


class TestAbelianGroup:
    def test_display(self):
        assert str(AbelianGroup(2, ())) == "Z^2"
        assert str(AbelianGroup(1, (2,))) == "Z + Z/2"
        assert str(AbelianGroup(0, ())) == "0"

    def test_from_diagonal(self):
        assert AbelianGroup.from_diagonal((1, 2, 0), 4) == AbelianGroup(2, (2,))
        assert AbelianGroup.from_diagonal((), 0) == AbelianGroup(0, ())

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError) as raised:
            AbelianGroup(0, (4, 6))
        assert not isinstance(raised.value, DomainError)  # an invariant, not a refusal


def _kill_basis_vectors(rank, first):
    """One relation row per basis vector first, first + 1, ..., rank - 1."""
    return [[0] * i + [1] + [0] * (rank - i - 1) for i in range(first, rank)]


def orientable_relations(g, k):
    """Relation matrix of the orientable fiber quotient: basis rho_r, tau_r
    (r <= g), C_m (m <= k-1) of rank 2g + k - 1, one row killing each C_m."""
    rank = 2 * g + k - 1
    return _kill_basis_vectors(rank, 2 * g) or [[0] * rank]


def nonorientable_relations(g, k):
    """Relation matrix of the non-orientable fiber quotient: basis rho_r
    (r <= g), B_m (m <= k-1), killing each B_m and 2*(rho_1 + ... + rho_g)."""
    rank = g + k - 1
    return _kill_basis_vectors(rank, g) + [[2] * g + [0] * (k - 1)]


class TestFiberQuotients:
    def test_orientable_examples(self):
        assert nab_quotient_orientable(1, 1) == AbelianGroup(2, ())
        assert nab_quotient_orientable(2, 3) == AbelianGroup(4, ())
        assert nab_quotient_orientable(3, 1) == AbelianGroup(6, ())

    def test_nonorientable_examples(self):
        assert nab_quotient_nonorientable(2, 3) == AbelianGroup(1, (2,))
        assert nab_quotient_nonorientable(1, 1) == AbelianGroup(0, (2,))
        assert nab_quotient_nonorientable(3, 2) == AbelianGroup(2, (2,))

    def test_full_grid(self):
        """The closed forms against SNF of the relation matrices, 1,800 pairs."""
        for g in range(1, 31):
            for k in range(1, 31):
                assert nab_quotient_orientable(g, k) == cokernel(orientable_relations(g, k))
                assert nab_quotient_nonorientable(g, k) == cokernel(nonorientable_relations(g, k))

    def test_domain_errors(self):
        with pytest.raises(DomainError, match="g >= 1 and k >= 1"):
            nab_quotient_orientable(0, 1)
        with pytest.raises(DomainError, match="g >= 1 and k >= 1"):
            nab_quotient_nonorientable(1, 0)

    def test_size_bound(self):
        """No upper bound: the closed forms answer any g, k >= 1 at once."""
        assert nab_quotient_orientable(100, 100) == AbelianGroup(200, ())
        assert nab_quotient_nonorientable(100, 100) == AbelianGroup(99, (2,))
        assert nab_quotient_orientable(101, 1) == AbelianGroup(202, ())
        assert nab_quotient_nonorientable(1, 101) == AbelianGroup(0, (2,))
        with deadline(2.0):
            assert nab_quotient_orientable(10**100, 10**100) == AbelianGroup(2 * 10**100, ())
            assert nab_quotient_nonorientable(10**100, 10**100) == AbelianGroup(10**100 - 1, (2,))


def test_bareiss_det_matches_cofactor_expansion(rng):
    for _ in range(200):
        n = rng.randint(1, 5)
        mat = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(n)] for _ in range(n)]
        assert _det(mat) == _cofactor_det(mat)


def _unimodular(a, b):
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


def _mix_rows(M, s, d, x, y, p, q):
    """Replace rows s and d of M by x*row_s + y*row_d and p*row_s + q*row_d."""
    rs, rd = M[s], M[d]
    M[s] = [x * u + y * v for u, v in zip(rs, rd)]
    M[d] = [p * u + q * v for u, v in zip(rs, rd)]


def gcd_step_snf(mat, transforms=False):
    """Slow oracle: Smith normal form by extended-gcd steps in place of
    least-remainder pivoting.  Each step replaces the pivot by the gcd of it
    and one entry, with no step to keep entries small, so entries can grow
    exponentially; use it on small matrices only."""
    A = [list(row) for row in mat]
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
            if any(A[i][t] for i in range(t + 1, rows)):
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
    if not transforms:
        return SNFResult(diagonal)
    return SNFResult(diagonal, tuple(tuple(row[cols:]) for row in A[:rows]), tuple(map(tuple, A[rows:])))


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _small_matrices(rng, count):
    """Random matrices up to 6 x 6, of every kind in turn: dense, sparse,
    of lower rank, one row, one column, zero, and with no columns."""
    for k in range(count):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        kind = k % 7
        if kind == 0:
            yield [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        elif kind == 1:
            yield [[rng.choice([0, 0, 0, rng.randint(-9, 9)]) for _ in range(c)] for _ in range(r)]
        elif kind == 2:  # a product through a smaller inner dimension
            inner = rng.randint(1, max(1, min(r, c) - 1))
            left = [[rng.randint(-3, 3) for _ in range(inner)] for _ in range(r)]
            right = [[rng.randint(-3, 3) for _ in range(c)] for _ in range(inner)]
            yield _mul(left, right)
        elif kind == 3:
            yield [[rng.randint(-9, 9) for _ in range(c)]]
        elif kind == 4:
            yield [[rng.randint(-9, 9)] for _ in range(r)]
        elif kind == 5:
            yield [[0] * c for _ in range(r)]
        else:
            yield [[] for _ in range(r)]


def _check_large(mat):
    """Both calls finish within the deadline, the transforms are exact and
    unimodular, and no entry of U or V reaches 2^16 bits."""
    with deadline(2):
        result = smith_normal_form(mat, transforms=True)
        assert smith_normal_form(mat).diagonal == result.diagonal
    assert max(abs(x).bit_length() for m in (result.U, result.V) for row in m for x in row) < 1 << 16
    _check_transforms(mat, result)
    det = _det(mat)
    if det:
        assert prod(result.diagonal) == abs(det)


def _check_transforms(mat, result):
    """U * mat * V is the diagonal matrix of result, and U, V are unimodular."""
    U, V = [list(row) for row in result.U], [list(row) for row in result.V]
    assert abs(_det(U)) == 1
    assert abs(_det(V)) == 1
    product = _mul(_mul(U, mat), V)
    for i, row in enumerate(product):
        for j, entry in enumerate(row):
            assert entry == (result.diagonal[i] if i == j else 0)


def _cofactor_det(mat):
    """Determinant by cofactor expansion along the first row: O(n!) time."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        sign = -1 if j % 2 else 1
        minor = [row[:j] + row[j + 1 :] for row in mat[1:]]
        total += sign * mat[0][j] * _cofactor_det(minor)
    return total


def _det(mat):
    """Determinant by fraction-free (Bareiss) elimination: O(n^3) exact
    divisions, each intermediate entry being a minor of mat."""
    M = [list(row) for row in mat]
    n, sign, prev = len(M), 1, 1
    for k in range(n - 1):
        if not M[k][k]:
            below = [i for i in range(k + 1, n) if M[i][k]]
            if not below:
                return 0
            M[k], M[below[0]] = M[below[0]], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[-1][-1] if n else 1


def _mul(A, B):
    return [
        [sum(A[i][k] * B[k][j] for k in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def _random_signed_permutation(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[0] * n for _ in range(n)]
    for i, j in enumerate(perm):
        mat[i][j] = rng.choice([-1, 1])
    return mat

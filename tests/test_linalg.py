import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from ppalg import catalog, linalg, pimod
from ppalg.linalg import GF, QQ, FpElement, Mat


def mat(rows):
    return Mat.from_rows(QQ, rows)


def random_mat(rng, rows, cols, bound=5, field=QQ):
    return Mat.from_rows(field, [[rng.randint(-bound, bound) for _ in range(cols)]
                                 for _ in range(rows)])


class TestRankNullspace:
    def test_identity(self):
        A = Mat.identity(QQ, 2)
        assert linalg.rank(A) == 2 and linalg.nullspace(A).cols == 0

    def test_zero(self):
        A = Mat.zeros(QQ, 2, 2)
        assert linalg.rank(A) == 0 and linalg.nullspace(A).cols == 2

    def test_rank_one(self):
        # hand row-reduction: x1 = -2 x2
        A = mat([[1, 2], [2, 4]])
        assert linalg.rank(A) == 1
        assert linalg.nullspace(A) == mat([[-2], [1]])

    def test_rank_of_transpose(self):
        rng = random.Random(5)
        for _ in range(30):
            A = random_mat(rng, rng.randint(0, 5), rng.randint(0, 5))
            At = Mat(QQ, A.cols, A.rows, [[A.data[i][j] for i in range(A.rows)]
                                          for j in range(A.cols)])
            assert linalg.rank(A) == linalg.rank(At)

    def test_nullspace_annihilates(self):
        rng = random.Random(6)
        for _ in range(20):
            A = random_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
            ns = linalg.nullspace(A)
            assert (A * ns).is_zero()
            assert linalg.rank(ns) == ns.cols
            assert linalg.rank(A) + ns.cols == A.cols


def col(entries):
    return Mat.column(QQ, entries)


class TestSolve:
    def test_identity(self):
        assert linalg.solve_matrix(Mat.identity(QQ, 3), col([1, 2, 3])) == col([1, 2, 3])

    def test_inconsistent(self):
        assert linalg.solve_matrix(Mat.zeros(QQ, 2, 2), col([1, 0])) is None

    def test_back_substitution(self):
        assert linalg.solve_matrix(mat([[1, 1], [0, 1]]), col([3, 1])) == col([2, 1])

    def test_exactness_on_consistent_systems(self):
        rng = random.Random(7)
        for _ in range(25):
            A = random_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
            x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(A.cols)]
            b = A * col(x)
            got = linalg.solve_matrix(A, b)
            assert got is not None
            assert A * got == b

    def test_inverse(self):
        A = mat([[2, 1], [1, 1]])
        assert A * linalg.inverse(A) == Mat.identity(QQ, 2)
        with pytest.raises(ValueError):
            linalg.inverse(mat([[1, 2], [2, 4]]))


def split_blocks(f):
    """The blocks pimod._split_spaces cuts along the coprime factors of the
    characteristic polynomial of f.  f acts on the semisimple A2 module
    S_1^n, of which every n x n matrix is an endomorphism."""
    M = pimod.ModuleRep(catalog.a2_datum(), {1: f.rows})
    blocks = pimod._split_spaces(M, {1: f, 2: Mat.zeros(QQ, 0, 0)})
    return [Mat.identity(QQ, f.rows)] if blocks is None else [b[1] for b in blocks]


class TestCoprimeSplit:
    def test_identity_single_block(self):
        blocks = split_blocks(Mat.identity(QQ, 3))
        assert len(blocks) == 1 and blocks[0].cols == 3

    def test_two_eigenvalues(self):
        blocks = split_blocks(mat([[1, 0], [0, 2]]))
        assert sorted(b.cols for b in blocks) == [1, 1]

    def test_nilpotent_single_block(self):
        blocks = split_blocks(mat([[0, 1], [0, 0]]))
        assert len(blocks) == 1 and blocks[0].cols == 2

    def test_blocks_invariant_and_exhaustive(self):
        rng = random.Random(8)
        for _ in range(10):
            n = rng.randint(1, 5)
            f = random_mat(rng, n, n, bound=2)
            blocks = split_blocks(f)
            assert sum(b.cols for b in blocks) == n
            for B in blocks:
                # f maps col(B) into col(B): [B | f B] has no more rank than B
                assert linalg.rank(linalg.hstack([B, f * B])) == B.cols


class TestSubspaces:
    def test_complete_basis(self):
        B = mat([[1], [1]])
        extra, L, P = linalg.complete_basis(B)
        C = completion(QQ, 2, extra)
        assert C == mat([[1], [0]]) and L == mat([[0, 1]]) and P == mat([[1, -1]])
        assert_split_inverse(B, C, L, P)

    def test_complete_basis_rejects_dependent_columns(self):
        # two equal columns: the RREF of [B | I] has a pivot in the I part
        # before B's second column, so no L with L B = I exists
        with pytest.raises(ValueError):
            linalg.complete_basis(mat([[1, 1], [0, 0], [0, 0]]))


class TestSerialization:
    def test_string_format(self):
        A = mat([["3/2", "-1"], ["0", "7"]])
        assert linalg.mat_to_json(A) == [["3/2", "-1"], ["0", "7"]]

    def test_round_trip_exact(self):
        rng = random.Random(9)
        A = Mat.from_rows(QQ, [[Fraction(rng.randint(-50, 50), rng.randint(1, 50))
                                for _ in range(4)] for _ in range(3)])
        doc = linalg.mat_to_json(A)
        back = linalg.mat_from_json(QQ, 3, 4, doc)
        assert back == A

    def test_shape_mismatch(self):
        for data in ([["1"]], [1, 2]):
            with pytest.raises(ValueError):
                linalg.mat_from_json(QQ, 2, 2, data)

    def test_zero_denominator_entry(self):
        for field in (QQ, GF(7)):
            with pytest.raises(ValueError):
                linalg.mat_from_json(field, 1, 1, [["1/0"]])

    def test_float_entry(self):
        for field in (QQ, GF(7)):
            with pytest.raises(ValueError):
                linalg.mat_from_json(field, 1, 2, [[1, 1.5]])


class TestPrimeField:
    def test_arithmetic(self):
        F = GF(32003)
        a = F.coerce(Fraction(3, 2))
        assert a * 2 == 3
        assert (F.one / F.coerce(7)) * 7 == 1
        assert -F.coerce(1) == 32002

    def test_rank_matches_rationals_for_small_entries(self):
        rng = random.Random(10)
        F = GF(32003)
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            assert linalg.rank(Mat.from_rows(QQ, rows)) == linalg.rank(Mat.from_rows(F, rows))

    def test_not_prime(self):
        for p in (32004, 1022117):  # 1022117 = 1009 * 1013
            with pytest.raises(ValueError):
                GF(p)


# -- the elimination kernel against sympy's DomainMatrix.rref ------------------

P = 32003
BIG = 2 ** 70
SYMPY_FIELD = {QQ: sympy.QQ, GF(P): sympy.GF(P, symmetric=False)}


@st.composite
def sparse_mat(draw, field, rows=None, cols=None):
    """A sparse matrix over `field`, of a drawn shape where none is given:
    entries with numerators and denominators above 2^64, duplicated and
    rescaled rows, and the 0 x n, n x 0 and all-zero cases."""
    rows = draw(st.sampled_from(range(9))) if rows is None else rows
    cols = draw(st.sampled_from(range(9))) if cols is None else cols
    density = draw(st.sampled_from([0.0, 0.2, 0.4, 0.7, 1.0]))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        num = rng.choice([rng.randint(-3, 3), rng.randint(-BIG, BIG)])
        if field is not QQ:
            return num
        return Fraction(num, rng.choice([1, rng.randint(1, 3), rng.randint(1, BIG)]))

    out = []
    for _ in range(rows):
        if out and rng.random() < 0.25:
            out.append([rng.randint(1, 3) * x for x in rng.choice(out)])
        else:
            out.append([entry() if rng.random() < density else 0 for _ in range(cols)])
    return Mat(field, rows, cols, [[field.coerce(x) for x in row] for row in out])


def to_exact(field, x):
    return x if field is QQ else x.v


def sympy_rref(field, data, cols):
    """sympy's reduced row echelon form of dense rows and its pivots."""
    dom = SYMPY_FIELD[field]
    conv = ((lambda x: dom(x.numerator, x.denominator)) if field is QQ
            else (lambda x: dom(x.v)))
    R, pivots = DomainMatrix([[conv(x) for x in row] for row in data],
                             (len(data), cols), dom).rref()
    back = ((lambda e: Fraction(int(e.numerator), int(e.denominator))) if field is QQ
            else (lambda e: int(e) % P))
    return [[back(e) for e in row] for row in R.to_list()], list(pivots)


def kernel_rref(A, pivot_limit=None):
    data = [row[:] for row in A.data]
    pivots = linalg._rref(data, A.rows, A.cols, pivot_limit)
    for row in data:  # the tracer reads the rows back as field elements
        assert len(row) == A.cols
        assert all(isinstance(x, Fraction if A.field is QQ else FpElement) for x in row)
    return [[to_exact(A.field, x) for x in row] for row in data], pivots


FIELDS = pytest.mark.parametrize("field", [QQ, GF(P)], ids=["QQ", "GF"])
KERNEL_EXAMPLES = settings(derandomize=True, max_examples=50, deadline=None)


@FIELDS
@KERNEL_EXAMPLES
@given(data=st.data())
def test_rref_matches_sympy(field, data):
    A = data.draw(sparse_mat(field))
    got, pivots = kernel_rref(A)
    assert (got, pivots) == sympy_rref(field, A.data, A.cols)
    # rank and is_invertible run the forward elimination only, on A itself
    before = [row[:] for row in A.data]
    assert linalg.rank(A) == len(pivots)
    assert linalg.is_invertible(A) == (A.rows == A.cols == len(pivots))
    assert A.data == before


@FIELDS
@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0), (3, 4)])
def test_rref_edge_shapes(field, shape):
    A = Mat.zeros(field, *shape)
    assert kernel_rref(A) == sympy_rref(field, A.data, A.cols) == (
        [[0] * shape[1]] * shape[0], [])
    assert kernel_rref(A, pivot_limit=shape[1] // 2)[1] == []


@FIELDS
@KERNEL_EXAMPLES
@given(data=st.data())
def test_augmented_rref_matches_sympy(field, data):
    """[A | B] with pivots limited to A's columns: the A part is the RREF of
    A, and B's part is unique, and matches sympy, when A X = B is solvable."""
    A = data.draw(sparse_mat(field))
    if data.draw(st.booleans()):  # a consistent system B = A X
        B = A * data.draw(sparse_mat(field, rows=A.cols))
    else:
        B = data.draw(sparse_mat(field, rows=A.rows))
    AB = linalg.hstack([A, B])
    got, pivots = kernel_rref(AB, pivot_limit=A.cols)
    ref_a, pivots_a = sympy_rref(field, A.data, A.cols)
    assert pivots == pivots_a
    assert [row[:A.cols] for row in got] == ref_a
    ref_ab, pivots_ab = sympy_rref(field, AB.data, AB.cols)
    consistent = pivots_ab == pivots_a
    assert consistent == all(not x for row in got[len(pivots):] for x in row)
    if consistent:
        assert got == ref_ab
    # elimination keeps the row space of [A | B]
    as_field = [[field.coerce(x) for x in row] for row in got]
    assert sympy_rref(field, as_field, AB.cols) == (ref_ab, pivots_ab)


# -- complete_basis: both blocks of [B | C]^-1 from one elimination -----------

def completion(field, n, extra):
    """The n x len(extra) matrix of the standard basis vectors e_j, j in extra."""
    C = Mat.zeros(field, n, len(extra))
    for col, j in enumerate(extra):
        C.data[j][col] = field.one
    return C


def assert_split_inverse(B, C, L, P):
    """L and P are the blocks of [B | C]^-1, checked against `linalg.inverse`."""
    field, n, k = B.field, B.rows, B.cols
    assert (L.rows, L.cols, P.rows, P.cols) == (k, n, n - k, n)
    assert L * B == Mat.identity(field, k) and (L * C).is_zero()
    assert (P * B).is_zero() and P * C == Mat.identity(field, n - k)
    assert linalg.vstack([L, P], field=field, cols=n) == linalg.inverse(linalg.hstack([B, C]))

def independent_columns(field, n, k, rng):
    """An n x k matrix whose rows at k distinct positions form a lower
    triangular block with a nonzero diagonal, so its columns are independent."""
    def entry():
        num = rng.choice([0, 0, rng.randint(-3, 3), rng.randint(-BIG, BIG)])
        return Fraction(num, rng.choice([1, rng.randint(1, BIG)])) if field is QQ else num

    B = Mat(field, n, k, [[field.coerce(entry()) for _ in range(k)] for _ in range(n)])
    for j, r in enumerate(rng.sample(range(n), k)):
        B.data[r][j + 1:] = [field.zero] * (k - j - 1)
        if not B.data[r][j]:
            B.data[r][j] = field.one
    return B


@FIELDS
@KERNEL_EXAMPLES
@given(n=st.integers(0, 6), k=st.integers(0, 6), rng=st.randoms(use_true_random=False))
@example(n=0, k=0, rng=random.Random(0))
@example(n=5, k=0, rng=random.Random(1))
@example(n=5, k=5, rng=random.Random(2))
def test_complete_basis_projection(field, n, k, rng):
    """[L; P] = [B | C]^-1: L B = I, L C = 0, P B = 0 and P C = I."""
    k = min(k, n)
    B = independent_columns(field, n, k, rng)
    extra, L, P = linalg.complete_basis(B)
    assert len(extra) == len(set(extra)) == n - k and set(extra) <= set(range(n))
    assert_split_inverse(B, completion(field, n, extra), L, P)

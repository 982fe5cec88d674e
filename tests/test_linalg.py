import os
import random
import subprocess
import sys
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

    def test_rank_matches_rationals_for_small_entries(self):
        rng = random.Random(10)
        F = GF(32003)
        for _ in range(10):
            rows = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(4)]
            assert linalg.rank(Mat.from_rows(QQ, rows)) == linalg.rank(Mat.from_rows(F, rows))

    def test_not_prime(self):
        for p in (32004, 1022117, 0, 1, -7, 561):  # 1022117 = 1009 * 1013
            with pytest.raises(ValueError, match="modulus %d is not prime" % p):
                GF(p)


# -- the deterministic Miller-Rabin test behind GF(p) --------------------------

MR_BOUND = 3317044064679887385961981  # a strong pseudoprime to bases 2 ... 41


class TestIsPrime:
    def test_matches_sympy_below_20000(self):
        assert [n for n in range(-3, 20000) if linalg._is_prime(n)] == \
            [n for n in range(-3, 20000) if sympy.isprime(n)]

    def test_pseudoprimes_are_composite(self):
        # Carmichael numbers, then the least strong pseudoprimes to the bases
        # 2, 3, 5, 7 and to the first 11 primes
        for n in (561, 1105, 1729, 41041, 3215031751, 3825123056546413051):
            assert not linalg._is_prime(n), n

    def test_mersenne_primes(self):
        assert linalg._is_prime(2 ** 61 - 1) and linalg._is_prime(2 ** 89 - 1)
        assert not linalg._is_prime(2 ** 67 - 1)  # 193707721 * 761838257287

    def test_sympy_only_at_or_above_the_bound(self, monkeypatch):
        """Below the bound the bases decide; from it on sympy does, which
        rejects the bound itself though all 13 bases pass it."""
        asked = []

        class Stub:
            @staticmethod
            def isprime(n):
                asked.append(n)
                return sympy.isprime(n)

        monkeypatch.setitem(sys.modules, "sympy", Stub)
        assert linalg._is_prime(2 ** 61 - 1) and not linalg._is_prime(MR_BOUND - 2)
        assert asked == []
        assert linalg._is_prime(2 ** 89 - 1) and not linalg._is_prime(MR_BOUND)
        assert asked == [2 ** 89 - 1, MR_BOUND]


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


def to_domain(field, data, cols):
    """Dense rows of field elements as a sympy DomainMatrix."""
    dom = SYMPY_FIELD[field]
    conv = ((lambda x: dom(x.numerator, x.denominator)) if field is QQ
            else (lambda x: dom(x.v)))
    return DomainMatrix([[conv(x) for x in row] for row in data], (len(data), cols), dom)


def from_domain(field, e):
    return Fraction(int(e.numerator), int(e.denominator)) if field is QQ else int(e) % P


def sympy_rref(field, data, cols):
    """sympy's reduced row echelon form of dense rows and its pivots."""
    R, pivots = to_domain(field, data, cols).rref()
    return [[from_domain(field, e) for e in row] for row in R.to_list()], list(pivots)


def sympy_nullspace(A):
    """sympy's nullspace basis of A as the columns of a matrix.  Scaled so
    that each vector's last nonzero entry is 1, it is the RREF basis: 1 at
    one free column, zero at the others."""
    basis = to_domain(A.field, A.data, A.cols).nullspace(divide_last=True).to_list()
    return Mat(A.field, A.cols, len(basis),
               [[A.field.coerce(from_domain(A.field, v[r])) for v in basis]
                for r in range(A.cols)])


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
    # rank, is_invertible, nullspace and column_space leave A as it is
    before = [row[:] for row in A.data]
    assert linalg.rank(A) == len(pivots)
    assert linalg.is_invertible(A) == (A.rows == A.cols == len(pivots))
    assert linalg.nullspace(A) == sympy_nullspace(A)
    assert linalg.column_space(A) == linalg.hstack([A.col(j) for j in pivots],
                                                   field=field, rows=A.rows)
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


# -- characteristic polynomials against sympy's Matrix.charpoly --------------

X = sympy.Symbol("x")


def to_sympy(A):
    return sympy.Matrix(A.rows, A.cols, lambda i, j: sympy.Rational(
        A.data[i][j].numerator, A.data[i][j].denominator))


def sympy_charpoly(A):
    """sympy's characteristic polynomial of A: monic, highest degree first."""
    if not A.rows:
        return [Fraction(1)]
    return [Fraction(int(c.p), int(c.q)) for c in to_sympy(A).charpoly(X).all_coeffs()]


@st.composite
def square_mat(draw):
    """(A, kind, coeffs): a square matrix of size 0-8 with small fractional
    entries, dense, nilpotent (strictly upper triangular), one Jordan block,
    or the companion matrix of x^n + c_1 x^(n-1) + ... + c_n, coeffs = [c_i]."""
    n = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(["dense", "nilpotent", "jordan", "companion"]))
    rng = draw(st.randoms(use_true_random=False))

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 6))

    coeffs = [entry() for _ in range(n)]
    lam = entry()
    if kind == "dense":
        data = [[entry() for _ in range(n)] for _ in range(n)]
    elif kind == "nilpotent":
        data = [[entry() if j > i else 0 for j in range(n)] for i in range(n)]
    elif kind == "jordan":
        data = [[lam if j == i else 1 if j == i + 1 else 0 for j in range(n)]
                for i in range(n)]
    else:
        data = [[1 if i == j + 1 else 0 for j in range(n - 1)] + [-coeffs[n - 1 - i]]
                for i in range(n)]
    return Mat(QQ, n, n, [[Fraction(x) for x in row] for row in data]), kind, coeffs


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=square_mat())
@example(case=(Mat(QQ, 0, 0, []), "dense", []))
def test_charpoly_matches_sympy(case):
    A, kind, coeffs = case
    got = linalg.charpoly(A)
    assert got == sympy_charpoly(A)
    assert all(type(c) is Fraction for c in got) and got[0] == 1
    if kind == "nilpotent":
        assert got == [1] + [0] * A.rows
    elif kind == "companion":
        assert got == [1] + coeffs


def test_charpoly_requires_rationals():
    for n in (0, 2):
        with pytest.raises(ValueError, match="rational field"):
            linalg.charpoly(Mat.identity(GF(7), n))


def sympy_factors(mats):
    """The reference for `coprime_factors(charpoly_product(mats))`, all in
    sympy: Matrix.charpoly per block, their Poly product, factor_list."""
    poly = sympy.Poly(1, X, domain="QQ")
    for A in mats:
        if A.rows:
            poly = poly * sympy.Poly(to_sympy(A).charpoly(X).as_expr(), X, domain="QQ")
    out = []
    for p, m in sympy.factor_list(poly)[1]:
        p = sympy.Poly(p, X, domain="QQ")
        lead = p.LC()
        coeffs = [Fraction(sympy.Rational(c / lead).p, sympy.Rational(c / lead).q)
                  for c in p.all_coeffs()]
        if len(coeffs) > 1:
            out.append((coeffs, int(m)))
    return out


def test_coprime_factors_match_sympy_route_on_decompose_draws(monkeypatch):
    """On the endomorphism blocks `decompose` draws for the B2 catalog
    entries and for sums of two of them, the factors and their order are
    the sympy-Poly route's, so the summand order is too.  (An entry with a
    local End(M) is certified indecomposable before any draw.)"""
    drawn = []
    real = linalg.charpoly_product

    def record(mats):
        mats = list(mats)
        drawn.append(mats)
        return real(mats)

    suite = catalog.b2_suite()
    modules = [e.module for e in suite.entries + suite.extras]
    monkeypatch.setattr(linalg, "charpoly_product", record)
    for M in modules + [pimod.direct_sum(M, N) for M, N in zip(modules, modules[1:])]:
        pimod.decompose(M)
    monkeypatch.undo()
    assert any(len(sympy_factors(mats)) > 1 for mats in drawn)
    for mats in drawn:
        assert linalg.coprime_factors(linalg.charpoly_product(mats)) == sympy_factors(mats)


@pytest.mark.parametrize("coeffs", [[Fraction(c) for c in (2, 3, 4)], [Fraction(1, 3)], []])
def test_eval_poly_matches_power_sum(coeffs):
    """Horner on the diagonal equals sum c_k A^(d-k), entry for entry."""
    A = mat([[Fraction(1, 2), 3, 0], [-1, 0, Fraction(2, 7)], [0, 5, -2]])
    want = Mat.zeros(QQ, 3, 3)
    for k, c in enumerate(coeffs):
        want = want + A.power(len(coeffs) - 1 - k).scale(c)
    assert linalg.eval_poly(coeffs, A) == want


# -- sympy stays off the import path -----------------------------------------

SYMPY_ON_DEMAND = """
import random, sys
import ppalg, ppalg.cli
from ppalg import catalog, linalg, pimod
from ppalg.selftest import random_tower
b2 = catalog.b2_datum()
M = random_tower(b2, 3, random.Random(0))
pimod.ext1_dim(M, M), pimod.hom_dim(M, M), pimod.is_crystal(M)
pimod.canonical_pieces(M, 1)
Mp = random_tower(b2, 3, random.Random(0), field=linalg.GF(32003))
pimod.ext1_dim(Mp, Mp), pimod.hom_dim(Mp, Mp)
assert "sympy" not in sys.modules, "loaded without a factoring"
pimod.decompose(pimod.direct_sum(M, pimod.generalized_simple(b2, 2)))
assert "sympy" in sys.modules, "decompose factored without sympy"
"""


def test_sympy_loaded_only_to_factor():
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", SYMPY_ON_DEMAND], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr

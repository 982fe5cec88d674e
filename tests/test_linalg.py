import os
import random
import subprocess
import sys
from collections import defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import gcd, lcm

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from ppalg import catalog, linalg, pimod
from ppalg.linalg import GF, QQ, Mat


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
        assert a == 16003 and 2 * a % 32003 == 3

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

    def test_bpsw_at_or_above_the_bound(self, monkeypatch):
        """From the bound on, BPSW decides, with no sympy: it rejects the
        bound itself though all 13 bases pass it."""
        monkeypatch.setitem(sys.modules, "sympy", None)   # importing it fails
        assert linalg._is_prime(2 ** 89 - 1) and linalg._is_prime(MR_BOUND + 142)
        assert not linalg._is_prime(MR_BOUND) and not linalg._is_prime(MR_BOUND - 2)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(n=st.integers(MR_BOUND, 2 ** 200))
    @example(n=MR_BOUND)
    def test_matches_sympy_at_or_above_the_bound(self, n):
        assert linalg._is_prime(n) == sympy.isprime(n)

    @pytest.mark.parametrize("n", [
        # primes, from the first one above the bound
        MR_BOUND + 142, MR_BOUND + 196, 2 ** 89 - 1, 2 ** 127 - 1,
        9671406556917033397649483, 2 ** 107 - 1,
        # products of two large primes
        10000000000037 * 10000001000029, (2 ** 61 - 1) * (2 ** 89 - 1),
        18446744073709551629 * 9671406556917033397649483,
        # strong pseudoprimes to base 2: the bound, and Carmichael numbers
        # (6k + 1)(12k + 1)(18k + 1) above it
        MR_BOUND, 3332857419635169667705129, 3336405480513679791339289,
        3342894859371087037873369, 3342997236717657354620809])
    def test_matches_sympy_on_hard_cases(self, n):
        assert n >= MR_BOUND
        assert linalg._is_prime(n) == sympy.isprime(n)


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


def to_domain(field, data, cols):
    """Dense rows of field elements as a sympy DomainMatrix."""
    dom = SYMPY_FIELD[field]
    conv = ((lambda x: dom(x.numerator, x.denominator)) if field is QQ
            else dom)
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
    pivots = linalg._rref(data, A.rows, A.cols, pivot_limit, A.field)
    for row in data:  # the tracer reads the rows back as field elements
        assert len(row) == A.cols
        assert all(isinstance(x, Fraction if A.field is QQ else int) for x in row)
    return [list(row) for row in data], pivots


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
    return Mat(field, n, len(extra), [[int(j == r) for j in extra] for r in range(n)])


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

    data = [[field.coerce(entry()) for _ in range(k)] for _ in range(n)]
    for j, r in enumerate(rng.sample(range(n), k)):
        data[r][j + 1:] = [field.zero] * (k - j - 1)
        if not data[r][j]:
            data[r][j] = field.one
    return Mat(field, n, k, data)


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


def bi_elimination_complete_basis(B):
    """`complete_basis` as one elimination of the n rows of [B | I_n], the
    (extra, L, P) read off its RREF: the reference, verbatim but for its
    name and the `linalg.` prefixes."""
    n, k, p = B.rows, B.cols, B.field.char
    rows = [linalg.kernel_row({**r, k + i: B.den}, p) for i, r in enumerate(B.nz)]
    pivots, pivot_rows = linalg._reduce(rows, p, k + n)
    if pivots[:k] != list(range(k)):
        raise ValueError("the columns are linearly dependent")

    def block(ks):
        pivot = [rows[pivot_rows[t]][pivots[t]] for t in ks]   # 1 over GF(p)
        den = lcm(*pivot)
        return Mat.from_form(B.field, len(ks), n, den,
                             [{c - k: v * (den // d) for c, v in rows[pivot_rows[t]].items()
                               if c >= k} for t, d in zip(ks, pivot)])

    return [c - k for c in pivots[k:]], block(range(k)), block(range(k, n))


def complete_basis_or_refusal(complete, B):
    try:
        return complete(B)
    except ValueError as exc:
        return str(exc)


@FIELDS
@KERNEL_EXAMPLES
@given(kind=st.sampled_from(["any", "independent", "kernel", "k = 0", "k = n", "dependent"]),
       n=st.integers(0, 8), data=st.data())
@example(kind="kernel", n=6, data=None)
@example(kind="k = 0", n=5, data=None)
@example(kind="k = n", n=5, data=None)
@example(kind="dependent", n=3, data=None)
def test_complete_basis_matches_bi_elimination_reference(field, kind, n, data):
    """(extra, L, P) from the k rows of [B^T | I_k] equal the reference's
    from the n rows of [B | I_n]: on any sparse B, on independent columns,
    on kernel bases from `nullspace` (already reduced right to left), and
    at k = 0 and k = n.  Dependent columns, among them a B beside itself,
    are refused by both, with one message."""
    rng = random.Random(n) if data is None else data.draw(st.randoms(use_true_random=False))
    if kind == "any":
        B = data.draw(sparse_mat(field, rows=n))
    elif kind == "kernel":
        A = random_mat(rng, rng.randint(0, n), n, field=field) if data is None \
            else data.draw(sparse_mat(field, cols=n))
        B = linalg.nullspace(A)
    elif kind == "dependent":
        X = independent_columns(field, n + 1, rng.randint(1, n + 1), rng)
        B = linalg.hstack([X, X])
    else:
        k = {"k = 0": 0, "k = n": n}.get(kind, rng.randint(0, n))
        B = independent_columns(field, n, k, rng)
    got = complete_basis_or_refusal(linalg.complete_basis, B)
    assert got == complete_basis_or_refusal(bi_elimination_complete_basis, B)
    if kind == "dependent" or isinstance(got, str):
        assert got == "the columns are linearly dependent"


# -- the elimination loop against the one before its pivot tie-break ----------
#
# `previous_eliminate`, `previous_forward` and `previous_reduce` are the loop
# as it was before ties among the shortest rows went to the smallest |pivot|,
# pivot rows were made positive at the pivot over Q and the pivot row's
# items were built once per pivot: verbatim, but for their names.  Both
# loops must give the same pivots, ranks, kernels and completions, since
# those are read off the unique RREF.

def previous_eliminate(r, c, P, p, col_rows=None, i=None, limit=0):
    pc, rc = P[c], r[c]
    g = gcd(pc, rc)
    a, b = pc // g, rc // g
    if a != 1:
        for k in r:
            r[k] *= a
    for k, v in P.items():
        w = r.get(k)
        if w is None:
            r[k] = -b * v % p if p else -b * v
            if col_rows is not None and k < limit:
                col_rows[k].add(i)
        else:
            w = (w - b * v) % p if p else w - b * v
            if w:
                r[k] = w
            else:
                del r[k]
    if not p and r:
        g = gcd(*r.values())
        if g > 1:
            for k in r:
                r[k] //= g


def previous_forward(sparse, p, limit):
    col_rows = defaultdict(set)  # column < limit -> rows that may be nonzero there
    for i, r in enumerate(sparse):
        for c in r:
            if c < limit:
                col_rows[c].add(i)
    done = [False] * len(sparse)
    pivots, pivot_rows = [], []
    for c in range(limit):
        if not col_rows:
            break
        cand = [i for i in col_rows.pop(c, ()) if not done[i] and c in sparse[i]]
        if not cand:
            continue
        piv = min(cand, key=lambda i: len(sparse[i]))
        done[piv] = True
        P = sparse[piv]
        if p and P[c] != 1:
            inv = pow(P[c], -1, p)
            for k in P:
                P[k] = P[k] * inv % p
        for i in cand:
            if i != piv:
                previous_eliminate(sparse[i], c, P, p, col_rows, i, limit)
        pivots.append(c)
        pivot_rows.append(piv)
        if len(pivots) == len(sparse):
            break
    return pivots, pivot_rows


def previous_reduce(sparse, p, limit):
    pivots, pivot_rows = previous_forward(sparse, p, limit)
    for k in range(len(pivots) - 1, 0, -1):
        c, P = pivots[k], sparse[pivot_rows[k]]
        for j in pivot_rows[:k]:
            if c in sparse[j]:
                previous_eliminate(sparse[j], c, P, p)
    return pivots, pivot_rows


@contextmanager
def previous_loop():
    """`linalg` with the previous loop in place of `_forward` and `_reduce`,
    which every rank, kernel, pivot and completion goes through."""
    saved = linalg._forward, linalg._reduce
    linalg._forward, linalg._reduce = previous_forward, previous_reduce
    try:
        yield
    finally:
        linalg._forward, linalg._reduce = saved


LOOP_COLS = 7
loop_row = st.dictionaries(st.integers(0, LOOP_COLS - 1),
                           st.one_of(st.integers(-4, 4), st.integers(-BIG, BIG)).filter(bool),
                           max_size=4)
# (kind, i, j, coeff): a copy of base row i, coeff times it, or row i plus
# coeff times row j (indices taken mod the number of base rows)
loop_derived = st.lists(st.tuples(st.sampled_from(["duplicate", "scaled", "combined"]),
                                  st.integers(0, 7), st.integers(0, 7),
                                  st.integers(-3, 3).filter(bool)), max_size=6)


def loop_system(field, base, derived):
    rows = [dict(r) for r in base]
    for kind, i, j, coeff in derived if base else ():
        r, q = base[i % len(base)], base[j % len(base)]
        if kind == "duplicate":
            rows.append(dict(r))
        elif kind == "scaled":
            rows.append({c: coeff * x for c, x in r.items()})
        else:
            rows.append({c: r.get(c, 0) + coeff * q.get(c, 0) for c in set(r) | set(q)})
    return Mat(field, len(rows), LOOP_COLS,
               [[r.get(c, 0) for c in range(LOOP_COLS)] for r in rows])


def loop_outputs(A):
    p = A.field.char
    return (linalg._forward([linalg.kernel_row(r, p) for r in A.nz], p, A.cols)[0],
            linalg.rank(A), linalg.pivot_columns(A), linalg.nullspace(A),
            linalg.rows_nullspace(A.field, [linalg.kernel_row(r, p) for r in A.nz], A.cols),
            linalg.complete_basis(linalg.column_space(A)),
            linalg.complete_basis(linalg.column_space(A.transpose())))


@FIELDS
@KERNEL_EXAMPLES
@given(base=st.lists(loop_row, max_size=7), derived=loop_derived)
@example(base=[{0: 2, 1: 1}, {0: 1, 2: 3}, {0: -3, 3: 5}, {1: 4, 2: 1}, {1: -1, 3: 2}],
         derived=[])                                                        # ties in length
@example(base=[{0: 2, 3: 1}, {1: 1, 3: -1}, {0: 5, 1: BIG}],
         derived=[("duplicate", 0, 0, 1), ("duplicate", 2, 0, 1)])         # duplicate rows
@example(base=[{0: 1, 1: 2, 4: 1}, {0: 3, 2: 1}, {1: 1, 5: 7}],
         derived=[("combined", 0, 1, 2), ("scaled", 1, 0, -3),
                  ("combined", 2, 0, -1)])                                  # dependent rows
def test_forward_tie_break_matches_previous_loop(field, base, derived):
    """Integer systems with ties in row length at a pivot column, duplicate
    and dependent rows: `_forward`'s pivots, `rank`, `pivot_columns`,
    `nullspace`, `rows_nullspace` and `complete_basis` are the same as with
    the previous loop, over Q and GF(p), and the input is left as it was."""
    A = loop_system(field, base, derived)
    before = [dict(r) for r in A.nz]
    got = loop_outputs(A)
    with previous_loop():
        want = loop_outputs(A)
    assert got == want
    assert A.nz == before


# -- the sparse arithmetic against the dense loops it replaced -----------------
#
# The references below are the dense `Mat` loops of the earlier format, run
# on exact entries (Fractions over Q, integers reduced mod p at the end over
# GF(p)), so they share no code with the sparse operations they check.

def exact(A):
    """A's dense rows as exact numbers: Fractions over Q, residues over GF(p)."""
    return [list(row) for row in A.data]


def dense_mul(a, b, cols):
    out = [[0] * cols for _ in a]
    for i, arow in enumerate(a):
        orow = out[i]
        for k, x in enumerate(arow):
            if not x:
                continue
            for j, y in enumerate(b[k]):
                if y:
                    orow[j] = orow[j] + x * y
    return out


def dense_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(a, c):
    return [[c * x for x in row] for row in a]


def dense_hstack(mats):
    out = [[] for _ in range(mats[0].rows)]
    for m in mats:
        for row, part in zip(out, exact(m)):
            row.extend(part)
    return out


def dense_vstack(mats):
    return [row for m in mats for row in exact(m)]


def dense_block_diag(mats):
    cols = sum(m.cols for m in mats)
    out, c = [], 0
    for m in mats:
        out.extend([0] * c + row + [0] * (cols - c - m.cols) for row in exact(m))
        c += m.cols
    return out


def assert_matches(got, want):
    """`got` has the dense entries `want`, and is `==` to the matrix built
    from them (so its form is canonical: lowest terms, residues mod p)."""
    field = got.field
    want = [[x if field is QQ else x % P for x in row] for row in want]
    assert exact(got) == want
    assert got == Mat(field, got.rows, got.cols, want)


def dense_kernel_rows(A):
    """A's rows as kernel rows, from its dense entries."""
    out = []
    for row in exact(A):
        if A.field is QQ:
            den = lcm(*(x.denominator for x in row))
            row = [int(x * den) for x in row]
            g = gcd(*row)
            row = [x // g for x in row] if g else row
        out.append({c: x for c, x in enumerate(row) if x})
    return out


@FIELDS
@KERNEL_EXAMPLES
@given(data=st.data())
def test_sparse_arithmetic_matches_dense_reference(field, data):
    """Every sparse operation, `rows_nullspace` and `complete_basis` give
    the dense reference's entries in canonical form, and (AB)^T = B^T A^T;
    a product and `from_rows` of its entries are `==` and give one memo
    key, a changed entry changes the key, and `data` cannot be written."""
    A = data.draw(sparse_mat(field))
    B = data.draw(sparse_mat(field, rows=A.cols))
    C = data.draw(sparse_mat(field, rows=A.rows, cols=A.cols))
    S = data.draw(sparse_mat(field, rows=A.rows, cols=A.rows))
    c = data.draw(st.sampled_from([0, 1, -3, BIG]))
    c = Fraction(c, data.draw(st.sampled_from([1, 2, BIG + 1]))) if field is QQ else c
    AB = A * B
    assert_matches(AB, dense_mul(exact(A), exact(B), B.cols))
    assert_matches(A + C, dense_add(exact(A), exact(C)))
    assert_matches(A.scale(c), dense_scale(exact(A), c))
    assert_matches(linalg.hstack([A, C, A]), dense_hstack([A, C, A]))
    assert_matches(linalg.vstack([A, C]), dense_vstack([A, C]))
    assert_matches(linalg.block_diag([A, B, S], field), dense_block_diag([A, B, S]))
    js = data.draw(st.lists(st.sampled_from(range(A.cols)), max_size=4)) if A.cols else []
    assert_matches(A.columns(js), [[row[j] for j in js] for row in exact(A)])
    assert A.is_zero() == all(not x for row in exact(A) for x in row)
    want = [[int(r == j) for j in range(S.rows)] for r in range(S.rows)]
    for k in range(5):   # the identity at k = 0, then repeated products
        assert_matches(S.power(k), want)
        want = dense_mul(want, exact(S), S.cols)
    assert_matches(A.transpose(), [[row[c] for row in exact(A)] for c in range(A.cols)])
    assert A.transpose().transpose() == A and (A * B).transpose() == B.transpose() * A.transpose()
    assert_matches(linalg.rows_nullspace(field, dense_kernel_rows(A), A.cols),
                   exact(sympy_nullspace(A)))

    # [L; P] = the I part of the RREF of [B | I], with B independent columns
    n, k = A.rows, min(A.rows, A.cols)
    Bi = independent_columns(field, n, k, data.draw(st.randoms(use_true_random=False)))
    ref, pivots = sympy_rref(field, [list(row) + [field.coerce(int(r == j)) for j in range(n)]
                                     for r, row in enumerate(Bi.data)], k + n)
    extra, L, proj = linalg.complete_basis(Bi)
    assert extra == [j - k for j in pivots[k:]]
    assert_matches(L, [row[k:] for row in ref[:k]])
    assert_matches(proj, [row[k:] for row in ref[k:n]])

    a2 = catalog.a2_datum()
    key = a2.arrow_keys()[0]

    def content(X):
        dims = {key[1]: X.rows, key[2]: X.cols}
        return pimod._content_key(pimod.ModuleRep(a2, dims, {}, {key: X}, field))

    respelled = Mat.from_rows(field, [list(row) for row in AB.data]) if AB.rows else AB
    assert respelled == AB and content(respelled) == content(AB)
    if AB.rows and AB.cols:
        r, col = data.draw(st.tuples(st.integers(0, AB.rows - 1), st.integers(0, AB.cols - 1)))
        bent = exact(AB)
        bent[r][col] += 1
        bent = Mat(field, AB.rows, AB.cols, bent)
        assert bent != AB and content(bent) != content(AB)
        with pytest.raises(TypeError):
            AB.data[r][col] = field.zero


@FIELDS
def test_one_block_stacks_return_the_block(field):
    """A `Mat` is never written into, so a stack of one block is that block,
    from a list or from an iterator; two blocks still make a new matrix."""
    for A in (Mat(field, 2, 3, [[1, 0, Fraction(1, 2)], [0, 0, 0]]), Mat.zeros(field, 2, 0),
              Mat.zeros(field, 0, 3)):
        assert linalg.hstack([A]) is A and linalg.vstack([A]) is A
        assert linalg.hstack(iter([A])) is A and linalg.vstack(iter([A])) is A
        assert_matches(linalg.hstack([A, A]), dense_hstack([A, A]))
        assert_matches(linalg.vstack([A, A]), dense_vstack([A, A]))


def test_canonical_form():
    """Products, sums and scalings in lowest terms, and residues mod p."""
    half = mat([[Fraction(1, 2), Fraction(3, 2)]])
    two = mat([[2], [0]])
    assert (half * two).den == 1 and half * two == mat([[1]])
    assert (half + half).den == 1 and half + half == mat([[1, 3]])
    assert half.scale(2) == half + half and half.scale(0) == Mat.zeros(QQ, 1, 2)
    F = GF(7)
    A = Mat.from_rows(F, [[3, 5]])
    assert (A + A.scale(6)).nz == [{}] and (A + A).nz == [{0: 6, 1: 3}]


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


def sympy_factor_list(poly):
    """sympy's `factor_list` of a Poly over QQ, in its order, each factor as
    a monic coefficient list of Fractions."""
    out = []
    for p, m in sympy.factor_list(poly)[1]:
        p = sympy.Poly(p, X, domain="QQ")
        lead = p.LC()
        coeffs = [Fraction(sympy.Rational(c / lead).p, sympy.Rational(c / lead).q)
                  for c in p.all_coeffs()]
        if len(coeffs) > 1:
            out.append((coeffs, int(m)))
    return out


def sympy_factors(mats):
    """The reference for `coprime_factors(charpoly_product(mats))`, all in
    sympy: Matrix.charpoly per block, their Poly product, factor_list."""
    poly = sympy.Poly(1, X, domain="QQ")
    for A in mats:
        if A.rows:
            poly = poly * sympy.Poly(to_sympy(A).charpoly(X).as_expr(), X, domain="QQ")
    return sympy_factor_list(poly)


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


def poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def as_sympy(coeffs):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], X,
                      domain="QQ")


# `coprime_factors` tries the primes from 101 up and skips one that divides
# the leading coefficient or at which two roots coincide.  The roots 1/101
# and 3/202 put 101 in the leading coefficient, and 0 and 101 coincide mod
# 101; with 103 as well, 103 is skipped too.  P31 = 2^31 - 1 plays the same
# parts for a large prime, which is never skipped for it.  Roots above 2^64
# need several Newton lifts.
P31 = 2 ** 31 - 1
ROOTS = st.one_of(
    st.fractions(min_value=-12, max_value=12, max_denominator=6),
    st.integers(2 ** 64, 2 ** 90).map(Fraction) | st.integers(-2 ** 90, -2 ** 64).map(Fraction),
    st.builds(Fraction, st.integers(-2 ** 70, 2 ** 70), st.integers(2 ** 64, 2 ** 70)),
    st.sampled_from([Fraction(0), Fraction(1, P31), Fraction(P31), Fraction(P31 + 1),
                     Fraction(3, 2 * P31), Fraction(1), Fraction(1, 101), Fraction(3, 202),
                     Fraction(101), Fraction(103)]))
IRREDUCIBLE = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                       min_size=2, max_size=3).map(lambda cs: [Fraction(1)] + cs).filter(
    lambda f: as_sympy(f).is_irreducible)


@st.composite
def factored_poly(draw):
    """A monic product of (x - u/v)^m and of irreducible quadratics and
    cubics with pairwise distinct multiplicities, so that each square-free
    part holds at most one factor that is not linear."""
    poly = [Fraction(1)]
    for root in draw(st.lists(ROOTS, max_size=3)):
        for _ in range(draw(st.integers(1, 2))):
            poly = poly_mul(poly, [Fraction(1), -root])
    nonlinear = draw(st.lists(IRREDUCIBLE, max_size=2, unique_by=tuple))
    for f, m in zip(nonlinear, draw(st.permutations([1, 2]))):
        for _ in range(m):
            poly = poly_mul(poly, f)
    return poly


def linear(*roots):
    """The monic product of x - r over the roots r."""
    poly = [Fraction(1)]
    for r in roots:
        poly = poly_mul(poly, [Fraction(1), -Fraction(r)])
    return poly


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(factored_poly())
@example(linear(Fraction(1, 101)))
@example(poly_mul(linear(Fraction(1, 101), Fraction(3, 202)),
                  [Fraction(1), Fraction(0), Fraction(-2)]))
@example(linear(0, 101))
@example(poly_mul(linear(0, 101, 103), [Fraction(1), Fraction(1), Fraction(1)]))
@example([Fraction(1), Fraction(-1, P31)])
@example(poly_mul([Fraction(1), Fraction(0)], [Fraction(1), Fraction(-P31)]))
@example(poly_mul(poly_mul([Fraction(1), Fraction(-1)], [Fraction(1), Fraction(-P31 - 1)]),
                  [Fraction(1), Fraction(0), Fraction(-2)]))
@example(poly_mul([Fraction(1), Fraction(-2 ** 70, 3)], [Fraction(1), Fraction(0), Fraction(1)]))
@example([Fraction(1)])
def test_coprime_factors_match_factor_list(poly):
    """Rational roots (0, denominators, above 2^64, tied to the primes
    tried) times at most one irreducible quadratic or cubic per
    multiplicity: the factors and their order are sympy's `factor_list`'s."""
    assert linalg.coprime_factors(poly) == sympy_factor_list(as_sympy(poly))


def test_coprime_factors_keep_a_reducible_quartic_whole():
    """(x^2 - 2)(x^2 - 3) has no rational root, so it comes back whole: not
    sympy's factors, but still pairwise coprime factors whose product is the
    input, with sympy's linear factors."""
    quartic = poly_mul([1, 0, -2], [1, 0, -3])
    poly = poly_mul(quartic, poly_mul([Fraction(1), Fraction(-1, 2)], [Fraction(1), Fraction(3)]))
    poly = poly_mul(poly, [Fraction(1), Fraction(3)])
    got = linalg.coprime_factors(poly)
    assert got == [([1, Fraction(-1, 2)], 1), ([1, 3], 2), (quartic, 1)]
    product = sympy.Poly(1, X, domain="QQ")
    for f, m in got:
        product *= as_sympy(f) ** m
    assert product == as_sympy(poly)
    for i, (f, _) in enumerate(got):
        for g, _ in got[:i]:
            assert sympy.gcd(as_sympy(f), as_sympy(g)).degree() == 0
    assert ([f for f in got if len(f[0]) == 2]
            == [f for f in sympy_factor_list(as_sympy(poly)) if len(f[0]) == 2])


@pytest.mark.parametrize("coeffs", [[Fraction(c) for c in (2, 3, 4)], [Fraction(1, 3)], [],
                                    [Fraction(c) for c in (1, 0, -2, 0, 5)]])
def test_eval_poly_matches_power_sum(coeffs, monkeypatch):
    """Horner on the diagonal equals sum c_k A^(d-k), entry for entry, on
    a generic and a nilpotent A (A^3 = 0), and takes max(d - 1, 0)
    products at degree d, monic or not."""
    products = []
    mul = Mat.__mul__
    for A in (mat([[Fraction(1, 2), 3, 0], [-1, 0, Fraction(2, 7)], [0, 5, -2]]),
              mat([[0, 1, 0], [0, 0, Fraction(3, 2)], [0, 0, 0]])):
        want = Mat.zeros(QQ, 3, 3)
        for k, c in enumerate(coeffs):
            want = want + A.power(len(coeffs) - 1 - k).scale(c)
        with monkeypatch.context() as m:
            m.setattr(Mat, "__mul__", lambda X, Y: products.append(1) or mul(X, Y))
            got = linalg.eval_poly(coeffs, A)
        assert got == want and len(products) == max(len(coeffs) - 2, 0)
        products.clear()


# -- sympy stays out of the runtime -------------------------------------------

NO_SYMPY = """
import json, os, sys, tempfile
from click.testing import CliRunner
from ppalg import catalog, pimod
from ppalg.cli import main
suite = catalog.b2_suite()
modules = [e.module for e in suite.entries + suite.extras]
for M, N in zip(modules, modules[1:]):
    pimod.decompose(pimod.direct_sum(M, N))
assert "sympy" not in sys.modules, "decompose"
tmp = tempfile.mkdtemp()
alg, a, b, s, lifted = (os.path.join(tmp, name + ".json")
                        for name in ("alg", "a", "b", "s", "lifted"))
for path, doc in ((alg, catalog.b2_datum().to_json()),
                  (a, pimod.module_to_json(modules[1])),
                  (b, pimod.module_to_json(pimod.direct_sum(modules[0], modules[2]))),
                  (s, pimod.module_to_json(pimod.generalized_simple(catalog.a2_datum(), 1)))):
    with open(path, "w") as fh:
        json.dump(doc, fh)
runner = CliRunner()
commands = [["table", "b2"], ["star", a, a], ["iso", a, b], ["pieces", b, "1"],
            ["decompose", b], ["selftest", "--seed", "0"]]
commands += [[cmd, a, b, "--field", field] for cmd in ("hom", "ext")
             for field in ("q", "fp:32003", "fp:3317044064679887385962123")]
commands += [["validate", alg], ["forms", alg, "1,1", "1,0"], ["check", a], ["rank", a],
             ["efiltered", b], ["crystal", b], ["rigid", b], ["divide-right", b, a],
             ["divide-left", a, a], ["lift", s, "--n", "2", "--out", lifted], ["reduce", lifted],
             ["check-symmetrizer", s, s, "--n", "2"], ["catalog", "list"],
             ["catalog", "export", "b2:2"]]
for args in commands:
    result = runner.invoke(main, args)
    assert result.exception is None or isinstance(result.exception, SystemExit), (args, result.output)
    assert "sympy" not in sys.modules, args
assert "sympy" not in sys.modules
"""


def test_no_command_loads_sympy():
    """`decompose` on the B2 sums and each of the 22 commands, in one
    process, never import sympy, also over a prime field whose modulus is
    above the Miller-Rabin bound: sympy is only the tests' reference."""
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-c", NO_SYMPY], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr

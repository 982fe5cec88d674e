"""Exact linear algebra over Q or a prime field, with no floating point.

One `Field` class covers both grounds: its scalars are `fractions.Fraction`
values over Q (`QQ`) and int residues 0 <= v < p over GF(p) (`GF(p)`, a
cross-check), so the routines that need the field take it, as `_rref` does,
and never inspect a scalar's type.  A matrix (`Mat`) has one format,
integer rows of its nonzeros over one denominator, so products, sums,
stacks and every elimination touch nonzeros only: the systems solved are
mostly sparse (the Hom and Der systems are under 1% nonzero).  Every rank,
kernel, solve and column space goes through one elimination kernel on
kernel rows {col: int}: primitive integer rows over Q, residues over GF(p).
`rows_rank` and `rows_nullspace` take such rows from the system builder of
`pimod`; the `Mat` entry points make them from a matrix's rows with
`kernel_row`.
"""

from __future__ import annotations

import re
from collections import defaultdict
from fractions import Fraction
from itertools import accumulate, count
from math import gcd, isqrt, lcm

_NUMBER = re.compile(r"-?[0-9]+(/[0-9]+)?")   # README's spelling of a number


class Field:
    """Q (characteristic 0) or the prime field GF(p).

    Elements are `Fraction`s over Q and int residues 0 <= v < p over GF(p);
    both have `numerator` and `denominator`.  Use `QQ` and `GF(p)`.
    """

    def __init__(self, p=0):
        self.char = p
        self.name = "F%d" % p if p else "Q"
        self.zero, self.one = (0, 1) if p else (Fraction(0), Fraction(1))

    def coerce(self, x):
        """x (a Fraction, an int, no bool, or a `_NUMBER` string) in the field: the
        one reader of numbers in input.  ValueError on anything else."""
        p = self.char
        if isinstance(x, Fraction) and not p:
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return x % p if p else Fraction(x)
        if isinstance(x, str) and _NUMBER.fullmatch(x):
            x = Fraction(x)
        elif not isinstance(x, Fraction):
            raise ValueError("cannot coerce %r into %s" % (x, self.name))
        if not p:
            return x
        if not x.denominator % p:
            raise ZeroDivisionError("%s has a denominator divisible by %d" % (x, p))
        return x.numerator * pow(x.denominator, -1, p) % p

    def __repr__(self):
        return "GF(%d)" % self.char if self.char else "QQ"


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); the bound itself is a strong
# pseudoprime to all 13 bases.  At or above it `_is_prime` runs BPSW, the
# test sympy's `isprime` runs there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _jacobi(a, n):
    """The Jacobi symbol (a / n) for odd n > 0."""
    a, out = a % n, 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                out = -out
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas(n):
    """Whether the odd n, free of small prime factors, passes the strong
    Lucas probable-prime test with Selfridge's parameters: D the first of
    5, -7, 9, -11, ... with (D / n) = -1, P = 1 and Q = (1 - D) / 4
    (Baillie and Wagstaff, Math. Comp. 1980)."""
    if isqrt(n) ** 2 == n:   # no D would have (D / n) = -1
        return False
    D = 5
    while _jacobi(D, n) != -1:
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1

    def half(x):
        return (x + n if x & 1 else x) // 2 % n

    # U_k, V_k and Q^k mod n, k running over the binary prefixes of d
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n):
    """Whether the integer n is prime: a deterministic Miller-Rabin test
    below `_MR_BOUND`; at or above it, BPSW, a strong base-2 Miller-Rabin
    test and then a strong Lucas test, to which no composite is known."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES if n < _MR_BOUND else (2,):
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas(n)


QQ = Field()

_fp_cache = {}


def GF(p):
    """The prime field GF(p), one object per p; raises ValueError unless p is prime."""
    if p not in _fp_cache:
        if not _is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        _fp_cache[p] = Field(p)
    return _fp_cache[p]


def read_int(x):
    """The integer that `QQ.coerce` reads x as ("6/3" reads as 2), else None."""
    try:
        v = QQ.coerce(x)
    except (ValueError, ZeroDivisionError):
        return None
    return v.numerator if v.denominator == 1 else None


class Mat:
    """A rows x cols matrix with exact entries, kept as A = nz / den: `nz[r]`
    is {col: int} over the nonzeros of row r.  Over Q, den > 0 and
    gcd(den, every entry) = 1, so `==` compares the forms; over GF(p), nz
    holds residues and den = 1.  Matrices are immutable: every operation
    works on the nonzeros and returns a new matrix.

    `Mat(field, rows, cols, data)` takes dense rows of anything
    `field.coerce` reads; `data` gives them back as tuples of field
    elements (Fractions over Q, int residues over GF(p)), a read-only view
    for I/O and tests.
    """

    __slots__ = ("field", "rows", "cols", "den", "nz")

    def __init__(self, field, rows, cols, data):
        nz = [{c: x for c, x in enumerate(map(field.coerce, row)) if x} for row in data]
        self.field, self.rows, self.cols = field, rows, cols
        # over the lcm of the denominators (1 over GF(p)) the form is canonical
        den = self.den = lcm(*[x.denominator for row in nz for x in row.values()])
        self.nz = [{c: x.numerator * (den // x.denominator) for c, x in row.items()}
                   for row in nz]

    @classmethod
    def from_form(cls, field, rows, cols, den, nz):
        """The matrix nz / den, nz holding nonzero integers (residues over
        GF(p)); over Q one gcd pass makes the form canonical, and nz is
        copied only when that gcd is above 1."""
        g = den
        for row in nz:
            if g == 1:
                break
            g = gcd(g, *row.values())
        if g > 1:
            den //= g
            nz = [{c: x // g for c, x in row.items()} for row in nz]
        A = object.__new__(cls)
        A.field, A.rows, A.cols, A.den, A.nz = field, rows, cols, den, nz
        return A

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls.from_form(field, rows, cols, 1, [{} for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        return cls.from_form(field, n, n, 1, [{r: 1} for r in range(n)])

    @classmethod
    def from_rows(cls, field, rows):
        cols = len(rows[0]) if rows else 0
        if any(len(row) != cols for row in rows):
            raise ValueError("ragged rows")
        return cls(field, len(rows), cols, rows)

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, [[x] for x in entries])

    @property
    def data(self):
        """The dense rows, each a tuple of field elements, made afresh."""
        f, den = self.field, self.den
        return [tuple(f.coerce(Fraction(row[c], den)) if c in row else f.zero
                      for c in range(self.cols)) for row in self.nz]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return ((self.field.char, self.rows, self.cols, self.den, self.nz)
                == (other.field.char, other.rows, other.cols, other.den, other.nz))

    def is_zero(self):
        return not any(self.nz)

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        p = self.field.char
        den = lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        out = []
        for ra, rb in zip(self.nz, other.nz):
            acc = {c: x * sa for c, x in ra.items()}
            for c, y in rb.items():
                acc[c] = acc.get(c, 0) + y * sb
            out.append({c: x % p for c, x in acc.items() if x % p} if p
                       else {c: x for c, x in acc.items() if x})
        return Mat.from_form(self.field, self.rows, self.cols, den, out)

    def scale(self, c):
        c = self.field.coerce(c)
        p, n, d = self.field.char, c.numerator, c.denominator
        if not n:
            return Mat.zeros(self.field, self.rows, self.cols)
        return Mat.from_form(self.field, self.rows, self.cols, self.den * d,
                             [{k: x * n % p if p else x * n for k, x in row.items()}
                              for row in self.nz])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        assert self.cols == other.rows, "shape mismatch %dx%d * %dx%d" % (
            self.rows, self.cols, other.rows, other.cols)
        p = self.field.char
        brows = other.nz
        out = []
        for arow in self.nz:
            acc = {}
            for k, a in arow.items():
                for c, b in brows[k].items():
                    acc[c] = acc.get(c, 0) + a * b
            out.append({c: x % p for c, x in acc.items() if x % p} if p
                       else {c: x for c, x in acc.items() if x})
        return Mat.from_form(self.field, self.rows, other.cols, self.den * other.den, out)

    def power(self, k):
        """self^k by k - 1 products from self (the identity at k = 0); a
        product by a zero power is cheap, so none is skipped."""
        assert self.rows == self.cols and k >= 0
        out = self if k else Mat.identity(self.field, self.rows)
        for _ in range(k - 1):
            out = out * self
        return out

    def transpose(self):
        nz = [{} for _ in range(self.cols)]
        for r, row in enumerate(self.nz):
            for c, x in row.items():
                nz[c][r] = x
        return Mat.from_form(self.field, self.cols, self.rows, self.den, nz)

    def columns(self, js):
        """The matrix of the columns js of self, in that order."""
        return Mat.from_form(self.field, self.rows, len(js), self.den,
                             [{k: row[j] for k, j in enumerate(js) if j in row}
                              for row in self.nz])

    def col(self, j):
        return self.columns([j])

    def __repr__(self):
        return "Mat(%dx%d, %r)" % (self.rows, self.cols, self.data)


def _stack(mats, field, rows, cols, place):
    """The rows x cols matrix holding each of `mats` at its (row, col)
    offset from `place`, over the lcm of their denominators."""
    den = lcm(*[m.den for m in mats])
    nz = [{} for _ in range(rows)]
    for m, (r0, c0) in zip(mats, place):
        s = den // m.den
        for r, row in enumerate(m.nz, r0):
            nz[r].update((c0 + c, x * s) for c, x in row.items())
    return Mat.from_form(field, rows, cols, den, nz)


def hstack(mats, field=None, rows=None):
    """Concatenate matrices left to right (all with the same row count);
    one matrix comes back as itself, since a `Mat` is never written into."""
    mats = list(mats)
    if not mats:
        assert field is not None and rows is not None
        return Mat.zeros(field, rows, 0)
    if len(mats) == 1:
        return mats[0]
    rows = mats[0].rows
    assert all(m.rows == rows for m in mats)
    offsets = [0, *accumulate(m.cols for m in mats)]
    return _stack(mats, mats[0].field, rows, offsets[-1], [(0, c) for c in offsets])


def vstack(mats, field=None, cols=None):
    """Concatenate matrices top to bottom; one comes back as itself."""
    mats = list(mats)
    if not mats:
        assert field is not None and cols is not None
        return Mat.zeros(field, 0, cols)
    if len(mats) == 1:
        return mats[0]
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    offsets = [0, *accumulate(m.rows for m in mats)]
    return _stack(mats, mats[0].field, offsets[-1], cols, [(r, 0) for r in offsets])


def block_diag(mats, field):
    place, r, c = [], 0, 0
    for m in mats:
        place.append((r, c))
        r, c = r + m.rows, c + m.cols
    return _stack(mats, field, r, c, place)


def kernel_row(row, p):
    """The integer row `row` ({col: int}) as a kernel row: zero entries
    dropped, then reduced mod p, or over Q (p = 0) made primitive."""
    if p:
        return {c: x % p for c, x in row.items() if x % p}
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items() if x}


def _eliminate(P, c, targets, p, col_rows=None, limit=0):
    """Clear column c of each row r of `targets`, (index, row) pairs, with
    the pivot row P: r := a*r - b*P, then r is made primitive (p = 0, over
    Q) or reduced mod p.  Columns below `limit` that r gains are recorded
    in col_rows under its index.  P's other entries are listed once."""
    pc = P[c]
    rest = [(k, v) for k, v in P.items() if k != c]
    for i, r in targets:
        rc = r.pop(c)
        g = gcd(pc, rc)
        a, b = pc // g, rc // g
        if a != 1:
            for k in r:
                r[k] *= a
        for k, v in rest:
            w = r.get(k)
            if w is None:
                r[k] = -b * v % p if p else -b * v
                if k < limit:
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


def _forward(sparse, p, limit):
    """Forward elimination of the kernel rows `sparse` (mod p; p = 0 over Q),
    in place.

    Returns (pivots, pivot_rows): the pivot columns, all below `limit`, with
    the index of each one's row.  Each column is cleared with the shortest
    row nonzero there (ties: the smallest |entry|), made 1 over GF(p) and
    positive over Q at its pivot, by r := a*r - b*pivot on the rows nonzero
    in that column only; a pivot row keeps its entries in later pivot
    columns.  That choice changes no output: the pivot columns and reduced
    pivot rows are the unique RREF's, up to a factor every reader divides
    out.
    """
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
        piv = min(cand, key=lambda i: (len(sparse[i]), abs(sparse[i][c])))
        done[piv] = True
        P = sparse[piv]
        if p and P[c] != 1:
            inv = pow(P[c], -1, p)
            for k in P:
                P[k] = P[k] * inv % p
        elif P[c] < 0:
            for k in P:
                P[k] = -P[k]
        if len(cand) > 1:
            _eliminate(P, c, [(i, sparse[i]) for i in cand if i != piv], p, col_rows, limit)
        pivots.append(c)
        pivot_rows.append(piv)
    return pivots, pivot_rows


def _reduce(sparse, p, limit):
    """`_forward`, then back-substitution from the last pivot upwards, which
    leaves the pivot rows of the RREF; returns (pivots, pivot_rows)."""
    pivots, pivot_rows = _forward(sparse, p, limit)
    for k in range(len(pivots) - 1, 0, -1):
        c, P = pivots[k], sparse[pivot_rows[k]]
        above = [(j, sparse[j]) for j in pivot_rows[:k] if c in sparse[j]]
        if above:
            _eliminate(P, c, above, p)
    return pivots, pivot_rows


def rows_rank(field, rows, cols):
    """The rank of kernel rows in `cols` unknowns (forward elimination only)."""
    return len(_forward(rows, field.char, cols)[0])


def rows_nullspace(field, rows, cols):
    """Basis of the solutions of the kernel rows `rows` in `cols` unknowns
    over `field`, as the columns of a matrix; the rows are reduced in place.
    Free column f gives the vector with 1 at f and -r[f] / r[c] at the pivot
    c of each pivot row r of the sparse RREF."""
    p = field.char
    pivots, pivot_rows = _reduce(rows, p, cols)
    free = {f: k for k, f in enumerate(sorted(set(range(cols)).difference(pivots)))}
    den = lcm(*[rows[i][c] for c, i in zip(pivots, pivot_rows)])   # 1 over GF(p)
    nz = [{free[f]: den} if f in free else None for f in range(cols)]
    for c, i in zip(pivots, pivot_rows):
        s = den // rows[i][c]
        nz[c] = {free[f]: -v * s % p if p else -v * s for f, v in rows[i].items() if f != c}
    return Mat.from_form(field, cols, len(free), den, nz)


def _rref(data, rows, cols, pivot_limit=None, field=QQ):
    """In-place reduced row echelon form over `field`; returns the pivot
    column list.

    Pivots are only chosen among the first `pivot_limit` columns, which lets
    the same routine solve augmented systems.  On return `data[:rows]` holds
    dense rows of field elements, the pivot rows first and in pivot order:
    the rows are reduced as kernel rows (`_reduce`) and written back dense.
    """
    p = field.char
    sparse = [kernel_row(r, p) for r in Mat(field, rows, cols, data[:rows]).nz]
    pivots, pivot_rows = _reduce(sparse, p, cols if pivot_limit is None else pivot_limit)
    if not pivots:
        return []

    is_pivot_row = set(pivot_rows)
    for k, i in enumerate(pivot_rows + [i for i in range(rows) if i not in is_pivot_row]):
        dense = [field.zero] * cols
        d = sparse[i][pivots[k]] if k < len(pivots) else 1   # 1 over GF(p)
        for c, v in sparse[i].items():
            dense[c] = field.coerce(Fraction(v, d))
        data[k] = dense
    return pivots


def rank(A):
    """The rank of A: forward elimination only, with no back-substitution."""
    return rows_rank(A.field, [kernel_row(r, A.field.char) for r in A.nz], A.cols)


def nullspace(A):
    """Basis of {x : A x = 0}, returned as the columns of a matrix."""
    return rows_nullspace(A.field, [kernel_row(r, A.field.char) for r in A.nz], A.cols)


def solve_matrix(A, B):
    """Some X with A X = B (column by column), or None if inconsistent."""
    assert A.rows == B.rows
    data = [ra + rb for ra, rb in zip(A.data, B.data)]
    pivots = _rref(data, A.rows, A.cols + B.cols, pivot_limit=A.cols, field=A.field)
    nr = len(pivots)
    for r in range(nr, A.rows):
        if any(data[r][A.cols + j] for j in range(B.cols)):
            return None
    X = [[A.field.zero] * B.cols for _ in range(A.cols)]
    for r, pc in enumerate(pivots):
        X[pc] = data[r][A.cols:]
    return Mat(A.field, A.cols, B.cols, X)


def inverse(A):
    """A^-1; a square A X = I is solvable only when A is invertible."""
    assert A.rows == A.cols
    X = solve_matrix(A, Mat.identity(A.field, A.rows))
    if X is None:
        raise ValueError("matrix is singular")
    return X


def is_invertible(A):
    return A.rows == A.cols and rank(A) == A.rows


def pivot_columns(A):
    """The pivot columns of A, from forward elimination only: the first
    columns, left to right, that are independent of the ones before them."""
    p = A.field.char
    return _forward([kernel_row(r, p) for r in A.nz], p, A.cols)[0]


def column_space(A):
    """An independent subset of A's columns spanning its column space: the
    pivot columns."""
    return A.columns(pivot_columns(A))


def complete_basis(B):
    """(extra, L, P) for an n x k matrix B with independent columns.

    The standard basis vectors e_j, j in `extra`, complete B's columns to a
    basis: each e_j, j = 0, 1, ..., is taken when it is independent of B's
    columns and the e's taken before, as the RREF of [B | I] takes them.
    With C = [e_j for j in extra], [L; P] = [B | C]^-1: L B = I and L C = 0
    (coordinates in col(B)), P B = 0 and P C = I (the projection onto C's
    coordinates along col(B)).

    All three come from one elimination of the k rows of [B^T | I_k], with
    B^T's columns read right to left.  Its pivots are the last k rows Q of
    B with B_Q invertible, so `extra` is the complement of Q, and its pivot
    rows, divided by their pivots, are [R | W] with W = (B_Q^T)^-1 and
    R = W B^T.  So L is W^T on the columns Q and zero on `extra`, and P is
    I on `extra` and -R[:, extra]^T on Q.  A basis from `rows_nullspace`,
    each column ending in 1 at its free row, is already reduced that way.
    Raises ValueError when B's columns are dependent.
    """
    n, k, p = B.rows, B.cols, B.field.char
    rows = [{n + t: B.den} for t in range(k)]   # row t of [B^T | I_k], times B.den
    for j, r in enumerate(B.nz):
        for t, x in r.items():
            rows[t][n - 1 - j] = x
    rows = [kernel_row(r, p) for r in rows]
    pivots, pivot_rows = _reduce(rows, p, n)
    if len(pivots) < k:
        raise ValueError("the columns are linearly dependent")
    extra = sorted(set(range(n)).difference(n - 1 - c for c in pivots))
    at = {n - 1 - e: t for t, e in enumerate(extra)}   # reversed column -> row of P
    den = lcm(*[rows[i][c] for c, i in zip(pivots, pivot_rows)])   # 1 over GF(p)
    L, P = [{} for _ in range(k)], [{e: den} for e in extra]
    for c, i in zip(pivots, pivot_rows):
        q, s = n - 1 - c, den // rows[i][c]
        for col, v in rows[i].items():
            if col >= n:
                L[col - n][q] = v * s
            elif col != c:
                P[at[col]][q] = -v * s % p if p else -v * s
    return extra, Mat.from_form(B.field, k, n, den, L), Mat.from_form(B.field, n - k, n, den, P)


# -- characteristic polynomials and coprime factor splitting ----------------
#
# Polynomials are coefficient lists, highest degree first.  Characteristic
# polynomials are computed exactly, and `coprime_factors` splits them over Q
# with integer polynomials only: Yun's square-free decomposition (SYMSAC
# 1976), then the rational roots of each part, found by trying every residue
# mod a prime from 101 up, Newton-lifted, rebuilt by rational reconstruction
# and checked exactly (von zur Gathen and Gerhard, Modern Computer Algebra,
# ch. 5 and 15).  The `_`-helpers below work over Z; only `_horner` reduces
# mod N.

def charpoly(A):
    """The characteristic polynomial det(xI - A) of a square matrix over Q,
    as its monic coefficient list of Fractions, highest degree first.

    Berkowitz's division-free recurrence on the integer matrix D*A, where D
    is the common denominator of A's entries: coefficient k of det(xI - DA)
    is D^k times coefficient k of det(xI - A).
    """
    if A.field is not QQ:
        raise ValueError("polynomial factorization requires the rational field")
    assert A.rows == A.cols
    n, D = A.rows, A.den
    B = [[row.get(c, 0) for c in range(n)] for row in A.nz]
    # Berkowitz: with B[k:, k:] = [[a, R], [C, B1]], the polynomial of
    # B[k:, k:] is the lower triangular Toeplitz matrix with first column
    # t = [1, -a, -RC, -R B1 C, -R B1^2 C, ...] times that of B1.
    poly = [1]
    for k in range(n - 1, -1, -1):
        R, C = B[k][k + 1:], [row[k] for row in B[k + 1:]]
        sub = [row[k + 1:] for row in B[k + 1:]]
        t = [1, -B[k][k]]
        for _ in range(n - k - 1):
            t.append(-sum(r * c for r, c in zip(R, C)))
            C = [sum(s * c for s, c in zip(row, C)) for row in sub]
        poly = [sum(t[i - j] * poly[j] for j in range(min(i + 1, len(poly))))
                for i in range(len(t))]
    return [Fraction(c, D ** k) for k, c in enumerate(poly)]


def charpoly_product(mats):
    """The product of the characteristic polynomials of several matrices,
    as a coefficient list (the convolution of their coefficient lists)."""
    out = [Fraction(1)]
    for A in mats:
        p = charpoly(A)
        prod = [Fraction(0)] * (len(out) + len(p) - 1)
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(p):
                    prod[i + j] += a * b
        out = prod
    return out


def _deriv(a):
    return [c * (len(a) - 1 - i) for i, c in enumerate(a[:-1])]


def _sub(a, b):
    """a - b, with leading zeros stripped."""
    n = max(len(a), len(b))
    out = [x - y for x, y in zip([0] * (n - len(a)) + a, [0] * (n - len(b)) + b)]
    while out and not out[0]:
        out.pop(0)
    return out


def _divmod(a, b):
    """Quotient and remainder of a by b, when b's leading coefficient divides
    every quotient coefficient (as for an exact division by a primitive
    divisor, or a pseudo-division)."""
    a, q = list(a), []
    for i in range(len(a) - len(b) + 1):
        c = a[i] // b[0]
        q.append(c)
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return q, _sub(a[len(q):], [])


def _gcd(a, b):
    """The gcd of a and b, deg b < deg a, primitive with a positive leading
    coefficient (by pseudo-remainders made primitive)."""
    while b:
        r = _divmod([b[0] ** (len(a) - len(b) + 1) * c for c in a], b)[1]
        g = gcd(*r)
        a, b = b, [c // g for c in r]
    g = gcd(*a) if a[0] > 0 else -gcd(*a)
    return [c // g for c in a]


def _horner(a, x, N):
    """a(x) mod N."""
    out = 0
    for c in a:
        out = (out * x + c) % N
    return out


def _rational_roots(q):
    """The rational roots u/v of a square-free primitive integer polynomial q.

    The roots mod the first prime p >= 101 that does not divide the leading
    coefficient and at which every root of q is simple are found by trying
    every residue.  Each is Newton-lifted to a modulus N > 2 (U + 1) V and
    rebuilt by rational reconstruction: a root u/v in lowest terms has
    |u| <= U, q's lowest nonzero coefficient, and v <= V = lc(q), so p does
    not divide v and u/v reduces to one of the roots mod p, whose Hensel
    lift is unique.  Each candidate is kept only if q(u/v) = 0 exactly.
    Only the finitely many primes dividing lc(q) disc(q) are skipped."""
    dq = _deriv(q)
    for p in count(101, 2):
        if _is_prime(p) and q[0] % p:
            residues = [r for r in range(p) if not _horner(q, r, p)]
            if all(_horner(dq, r, p) for r in residues):
                break
    U, V = abs(next(c for c in reversed(q) if c)), q[0]
    roots = []
    for r in residues:
        N = p
        while N <= 2 * (U + 1) * V:
            N *= N
            r = (r - _horner(q, r, N) * pow(_horner(dq, r, N), -1, N)) % N
        # rational reconstruction (Thm 5.26): the first remainder r1 <= U
        r0, t0, r1, t1 = N, 0, r, 1
        while r1 > U:
            k = r0 // r1
            r0, t0, r1, t1 = r1, t1, r0 - k * r1, t0 - k * t1
        root = Fraction(r1, t1)
        if not sum(c * root.numerator ** (len(q) - 1 - i) * root.denominator ** i
                   for i, c in enumerate(q)):
            roots.append(root)
    return roots


def coprime_factors(coeffs):
    """[(coeffs, multiplicity)] over pairwise coprime factors over Q of the
    polynomial with coefficient list `coeffs` (monic, highest degree first,
    as Fractions), whose product is that polynomial.

    Each square-free part q^m of Yun's decomposition gives (x - u/v, m) for
    each rational root u/v of q (`_rational_roots`, which draws nothing at
    random), and (r, m) for what is left, r monic.  The order is that of
    sympy's `factor_list`: degree, then multiplicity, then
    the primitive integer coefficients.  An r of degree at most 3 has no
    rational root, so it is irreducible and the factors equal
    `factor_list`'s; an r of degree 4 or more comes back whole, which is
    still a coprime split, so `decompose` stays Las Vegas.
    """
    L = lcm(*(c.denominator for c in coeffs))
    f = [c.numerator * (L // c.denominator) for c in coeffs]
    g = gcd(*f)
    f = [c // g for c in f]
    # Yun over Z: the divisions are exact, every divisor being primitive
    a = _gcd(f, _deriv(f))
    b, c = _divmod(f, a)[0], _divmod(_deriv(f), a)[0]
    keyed, m = [], 1
    while len(b) > 1:
        d = _sub(c, _deriv(b))
        q = _gcd(b, d)
        b, c = _divmod(b, q)[0], _divmod(d, q)[0]
        if len(q) > 1:
            for root in _rational_roots(q):
                u, v = root.numerator, root.denominator
                q = _divmod(q, [v, -u])[0]
                keyed.append(((2, m, [v, -u]), [Fraction(1), -root]))
            if len(q) > 1:
                keyed.append(((len(q), m, q), [Fraction(x, q[0]) for x in q]))
        m += 1
    return [(poly, key[1]) for key, poly in sorted(keyed)]


def eval_poly(coeffs, A):
    """Evaluate a polynomial (highest degree first) at a square matrix, by
    Horner's rule from the leading coefficient: c_0 A, then each further
    coefficient added on the diagonal, and a product by A after all but the
    last.  Degree d takes d - 1 products, none by zero or the identity."""
    I = Mat.identity(A.field, A.rows)
    if len(coeffs) < 2:
        return I.scale(coeffs[0] if coeffs else 0)
    out = A.scale(coeffs[0])
    for c in coeffs[1:-1]:
        out = (out + I.scale(c) if c else out) * A
    return out + I.scale(coeffs[-1]) if coeffs[-1] else out


# -- serialization -----------------------------------------------------------

def mat_to_json(A):
    return [[str(x) for x in row] for row in A.data]   # "3/2", "-1"; residues as ints


def mat_from_json(field, rows, cols, data):
    """A rows x cols matrix from its JSON form; raises ValueError on a wrong
    shape or an entry `field.coerce` refuses (a float, a bool, "0.5", "1/0")."""
    if data in (None, []):
        return Mat.zeros(field, rows, cols)
    if (not isinstance(data, list) or len(data) != rows
            or any(not isinstance(row, list) or len(row) != cols for row in data)):
        raise ValueError("matrix shape mismatch: expected %dx%d" % (rows, cols))
    parsed = {}   # a matrix repeats few strings, "0" above all: parse each once

    def entry(x):
        if x.__class__ is not str:   # strings only: true == 1 would find a cached 1
            return field.coerce(x)
        if x not in parsed:
            parsed[x] = field.coerce(x)
        return parsed[x]

    try:
        return Mat(field, rows, cols, [[entry(x) for x in row] for row in data])
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError("bad matrix entry: %s" % exc) from None

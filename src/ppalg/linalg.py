"""Exact linear algebra over Q or a prime field, with no floating point.

The default scalars are `fractions.Fraction` values, optionally replaced by
GF(p) elements for fast cross-checks.  Matrices are stored dense, but the
systems solved are mostly sparse (the Hom and Der systems are under 1%
nonzero), so every rank, kernel, solve and column space goes through one
elimination kernel on kernel rows {col: int}: primitive integer rows over
Q, residues over GF(p).  `rows_rank` and `rows_nullspace` take such rows
from the system builder of `pimod`; the `Mat` entry points convert first.
The builder's factors are int forms (den, rows, cols), a matrix as integer
rows over one denominator; `int_product` multiplies them on their nonzeros.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from math import gcd, lcm


class FieldQ:
    """The field of rational numbers (arbitrary precision)."""

    name = "Q"
    char = 0

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x)  # accepts "p/q", "-3", "0"
        raise TypeError("cannot coerce %r into Q" % (x,))

    def to_str(self, x):
        return str(x)  # Fraction prints "3/2", "-1"; integers omit "/1"

    def __repr__(self):
        return "QQ"


class FpElement:
    """An element of GF(p), normalized to 0 <= v < p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise ValueError("mixed prime fields")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.v + w, self.p)

    __radd__ = __add__

    def __mul__(self, other):
        w = self._lift(other)
        if w is NotImplemented:
            return NotImplemented
        return FpElement(self.v * w, self.p)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FpElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return "%d" % self.v


class FieldFp:
    """The prime field GF(p); used only for speed cross-checks.

    Eliminations over GF(p) share the sparse integer kernel with Q: kernel
    rows hold the residues `FpElement.v`."""

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("modulus %d is not prime" % p)
        self.p = p
        self.char = p
        self.name = "F%d" % p
        self.zero = FpElement(0, p)
        self.one = FpElement(1, p)

    def coerce(self, x):
        if isinstance(x, FpElement):
            if x.p != self.p:
                raise ValueError("mixed prime fields")
            return x
        if isinstance(x, int):
            return FpElement(x, self.p)
        if isinstance(x, Fraction):
            return FpElement(x.numerator * pow(x.denominator, -1, self.p), self.p)
        if isinstance(x, str):
            return self.coerce(Fraction(x))
        raise TypeError("cannot coerce %r into %s" % (x, self.name))

    def to_str(self, x):
        return str(x.v)

    def __repr__(self):
        return "GF(%d)" % self.p


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017); the bound itself is a strong
# pseudoprime to all 13 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Whether the integer n is prime: a deterministic Miller-Rabin test
    below `_MR_BOUND`, sympy's `isprime` at or above it."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        import sympy
        return bool(sympy.isprime(n))
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


QQ = FieldQ()

_fp_cache = {}


def GF(p):
    if p not in _fp_cache:
        _fp_cache[p] = FieldFp(p)
    return _fp_cache[p]


class Mat:
    """A dense rows x cols matrix with exact entries.

    `data` is a list of row lists and is owned by the matrix; callers must
    not alias it.  Entries (Fraction or FpElement) support +, * and bool;
    matrices support +, * and `scale`.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field, rows, cols, data):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def zeros(cls, field, rows, cols):
        z = field.zero
        return cls(field, rows, cols, [[z] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero, field.one
        return cls(field, n, n, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def from_rows(cls, field, rows):
        data = [[field.coerce(x) for x in row] for row in rows]
        cols = len(data[0]) if data else 0
        for row in data:
            if len(row) != cols:
                raise ValueError("ragged rows")
        return cls(field, len(data), cols, data)

    @classmethod
    def column(cls, field, entries):
        return cls(field, len(entries), 1, [[field.coerce(x)] for x in entries])

    def copy(self):
        return Mat(self.field, self.rows, self.cols, [row[:] for row in self.data])

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.data == other.data

    def is_zero(self):
        return all(not x for row in self.data for x in row)

    def __add__(self, other):
        assert (self.rows, self.cols) == (other.rows, other.cols)
        return Mat(self.field, self.rows, self.cols,
                   [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.data, other.data)])

    def scale(self, c):
        c = self.field.coerce(c)
        return Mat(self.field, self.rows, self.cols, [[c * a for a in row] for row in self.data])

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        assert self.cols == other.rows, "shape mismatch %dx%d * %dx%d" % (
            self.rows, self.cols, other.rows, other.cols)
        z = self.field.zero
        out = [[z] * other.cols for _ in range(self.rows)]
        bd = other.data
        for i, arow in enumerate(self.data):
            orow = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = bd[k]
                for j, b in enumerate(brow):
                    if b:
                        orow[j] = orow[j] + a * b
        return Mat(self.field, self.rows, other.cols, out)

    def power(self, k):
        assert self.rows == self.cols and k >= 0
        out = Mat.identity(self.field, self.rows)
        for _ in range(k):
            out = out * self
        return out

    def col(self, j):
        return Mat(self.field, self.rows, 1, [[row[j]] for row in self.data])

    def __repr__(self):
        return "Mat(%dx%d, %r)" % (self.rows, self.cols, self.data)


def hstack(mats, field=None, rows=None):
    """Concatenate matrices left to right (all with the same row count)."""
    mats = list(mats)
    if not mats:
        assert field is not None and rows is not None
        return Mat.zeros(field, rows, 0)
    field = mats[0].field
    rows = mats[0].rows
    assert all(m.rows == rows for m in mats)
    data = [[] for _ in range(rows)]
    for m in mats:
        for i in range(rows):
            data[i].extend(m.data[i])
    return Mat(field, rows, sum(m.cols for m in mats), data)


def vstack(mats, field=None, cols=None):
    mats = list(mats)
    if not mats:
        assert field is not None and cols is not None
        return Mat.zeros(field, 0, cols)
    field = mats[0].field
    cols = mats[0].cols
    assert all(m.cols == cols for m in mats)
    data = []
    for m in mats:
        data.extend(row[:] for row in m.data)
    return Mat(field, len(data), cols, data)


def block_diag(mats, field):
    rows = sum(m.rows for m in mats)
    cols = sum(m.cols for m in mats)
    out = Mat.zeros(field, rows, cols)
    r = c = 0
    for m in mats:
        for i in range(m.rows):
            out.data[r + i][c:c + m.cols] = m.data[i][:]
        r += m.rows
        c += m.cols
    return out


def kernel_row(row, p):
    """The integer row `row` ({col: int}) as a kernel row: zero entries
    dropped, then reduced mod p, or over Q (p = 0) made primitive."""
    if p:
        return {c: x % p for c, x in row.items() if x % p}
    g = gcd(*row.values())
    return {c: x // g for c, x in row.items() if x}


def int_form(A):
    """(den, rows, cols) with A = rows / den, each row {col: int} of A's
    nonzeros: over Q den is the lcm of A's denominators, over GF(p) the
    rows hold residues and den = 1."""
    if A.field.char:
        return 1, [{c: x.v for c, x in enumerate(row) if x.v} for row in A.data], A.cols
    den = lcm(*[x.denominator for row in A.data for x in row if x])
    return den, [{c: x.numerator * (den // x.denominator) for c, x in enumerate(row) if x}
                 for row in A.data], A.cols


def int_product(A, B, p):
    """The int form of the product of two int forms, from their nonzeros
    only; over GF(p) (p > 0) the entries are reduced mod p."""
    da, arows, _ = A
    db, brows, cols = B
    out = []
    for arow in arows:
        acc = {}
        for k, a in arow.items():
            for c, b in brows[k].items():
                acc[c] = acc.get(c, 0) + a * b
        out.append({c: x % p for c, x in acc.items() if x % p} if p
                   else {c: x for c, x in acc.items() if x})
    return da * db, out, cols


def _sparse_rows(data, rows, p):
    """The dense rows `data[:rows]` of field elements as kernel rows mod p
    (over Q, p = 0, each row is first scaled by the lcm of its denominators)."""
    if p:
        return [{c: x.v for c, x in enumerate(row) if x.v} for row in data[:rows]]
    out = []
    for row in data[:rows]:
        r = {c: x.as_integer_ratio() for c, x in enumerate(row) if x}
        den = lcm(*[d for _, d in r.values()])
        out.append(kernel_row({c: n * (den // d) for c, (n, d) in r.items()}, 0))
    return out


def _eliminate(r, c, P, p, col_rows=None, i=None, limit=0):
    """r := a*r - b*P, which clears r[c]; then r is made primitive (p = 0,
    over Q) or reduced mod p.  Columns below `limit` that r gains are
    recorded in col_rows under row index i."""
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


def _forward(sparse, p, limit):
    """Forward elimination of the kernel rows `sparse` (mod p; p = 0 over Q),
    in place.

    Returns (pivots, pivot_rows): the pivot columns, all below `limit`, with
    the index of each one's row.  Each column is cleared with the shortest
    row that is nonzero there, by r := a*r - b*pivot on the rows nonzero in
    that column only; a pivot row keeps its entries in later pivot columns,
    and over GF(p) it is scaled to 1 at its pivot.
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
        piv = min(cand, key=lambda i: len(sparse[i]))
        done[piv] = True
        P = sparse[piv]
        if p and P[c] != 1:
            inv = pow(P[c], -1, p)
            for k in P:
                P[k] = P[k] * inv % p
        for i in cand:
            if i != piv:
                _eliminate(sparse[i], c, P, p, col_rows, i, limit)
        pivots.append(c)
        pivot_rows.append(piv)
        if len(pivots) == len(sparse):
            break
    return pivots, pivot_rows


def _reduce(sparse, p, limit):
    """`_forward`, then back-substitution from the last pivot upwards, which
    leaves the pivot rows of the RREF; returns (pivots, pivot_rows)."""
    pivots, pivot_rows = _forward(sparse, p, limit)
    for k in range(len(pivots) - 1, 0, -1):
        c, P = pivots[k], sparse[pivot_rows[k]]
        for j in pivot_rows[:k]:
            if c in sparse[j]:
                _eliminate(sparse[j], c, P, p)
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
    basis = Mat.zeros(field, cols, len(free))
    for f, k in free.items():
        basis.data[f][k] = field.one
    for c, i in zip(pivots, pivot_rows):
        d = rows[i][c]
        for f, v in rows[i].items():
            if f != c:
                basis.data[c][free[f]] = FpElement(-v, p) if p else Fraction(-v, d)
    return basis


def _rref(data, rows, cols, pivot_limit=None):
    """In-place reduced row echelon form; returns the pivot column list.

    Pivots are only chosen among the first `pivot_limit` columns, which lets
    the same routine solve augmented systems.  On return `data[:rows]` holds
    dense rows of field elements, the pivot rows first and in pivot order:
    the rows are reduced as kernel rows (`_reduce`) and written back dense.
    """
    p = data[0][0].p if rows and cols and isinstance(data[0][0], FpElement) else 0
    sparse = _sparse_rows(data, rows, p)
    pivots, pivot_rows = _reduce(sparse, p, cols if pivot_limit is None else pivot_limit)
    if not pivots:
        return []

    zero = FpElement(0, p) if p else QQ.zero
    is_pivot_row = set(pivot_rows)
    for k, i in enumerate(pivot_rows + [i for i in range(rows) if i not in is_pivot_row]):
        dense = [zero] * cols
        d = sparse[i][pivots[k]] if k < len(pivots) and not p else 1
        for c, v in sparse[i].items():
            dense[c] = FpElement(v, p) if p else Fraction(v) if d == 1 else Fraction(v, d)
        data[k] = dense
    return pivots


def rank(A):
    """The rank of A: forward elimination only, with no back-substitution."""
    return rows_rank(A.field, _sparse_rows(A.data, A.rows, A.field.char), A.cols)


def nullspace(A):
    """Basis of {x : A x = 0}, returned as the columns of a matrix."""
    return rows_nullspace(A.field, _sparse_rows(A.data, A.rows, A.field.char), A.cols)


def solve_matrix(A, B):
    """Some X with A X = B (column by column), or None if inconsistent."""
    assert A.rows == B.rows
    data = [ra[:] + rb[:] for ra, rb in zip(A.data, B.data)] if A.rows else []
    pivots = _rref(data, A.rows, A.cols + B.cols, pivot_limit=A.cols)
    nr = len(pivots)
    for r in range(nr, A.rows):
        if any(data[r][A.cols + j] for j in range(B.cols)):
            return None
    X = Mat.zeros(A.field, A.cols, B.cols)
    for r, pc in enumerate(pivots):
        X.data[pc] = data[r][A.cols:]
    return X


def inverse(A):
    """A^-1; a square A X = I is solvable only when A is invertible."""
    assert A.rows == A.cols
    X = solve_matrix(A, Mat.identity(A.field, A.rows))
    if X is None:
        raise ValueError("matrix is singular")
    return X


def is_invertible(A):
    return A.rows == A.cols and rank(A) == A.rows


def column_space(A):
    """An independent subset of A's columns spanning its column space: the
    pivot columns, from forward elimination only."""
    p = A.field.char
    pivots = _forward(_sparse_rows(A.data, A.rows, p), p, A.cols)[0]
    return hstack([A.col(j) for j in pivots], field=A.field, rows=A.rows)


def complete_basis(B):
    """(extra, L, P) for an n x k matrix B with independent columns.

    The standard basis vectors e_j, j in `extra`, complete B's columns to a
    basis; with C = [e_j for j in extra], [L; P] = [B | C]^-1 is the I part
    of the RREF of [B | I]: L B = I and L C = 0 (coordinates in col(B)),
    P B = 0 and P C = I (the projection onto C's coordinates along col(B)).
    Raises ValueError when B's columns are dependent.
    """
    n, k = B.rows, B.cols
    data = [row[:] for row in hstack([B, Mat.identity(B.field, n)]).data]
    pivots = _rref(data, n, k + n)
    if pivots[:k] != list(range(k)):
        raise ValueError("the columns are linearly dependent")
    return ([c - k for c in pivots[k:]], Mat(B.field, k, n, [row[k:] for row in data[:k]]),
            Mat(B.field, n - k, n, [row[k:] for row in data[k:n]]))


# -- characteristic polynomials and coprime factor splitting ----------------
#
# Polynomials are coefficient lists, highest degree first.  Characteristic
# polynomials are computed exactly here; only the factoring over Q needs
# sympy, which is imported on the first call of `coprime_factors`.

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
    n = A.rows
    D = lcm(*[x.denominator for row in A.data for x in row]) if n else 1
    B = [[x.numerator * (D // x.denominator) for x in row] for row in A.data]
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


def coprime_factors(coeffs):
    """[(coeffs, multiplicity)] over the distinct irreducible factors over Q
    of the polynomial with coefficient list `coeffs`.

    Coefficient lists are monic, highest degree first, as Fractions.  The
    factors come in the order of sympy's `factor_list`.
    """
    import sympy  # the only sympy use of the program: factoring over Q
    x = sympy.Symbol("x")
    poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in coeffs], x,
                      domain="QQ")
    _, factors = sympy.factor_list(poly)
    out = []
    for p, m in factors:
        p = sympy.Poly(p, x, domain="QQ").monic()
        out.append(([Fraction(int(c.p), int(c.q)) for c in p.all_coeffs()], int(m)))
    return out


def eval_poly(coeffs, A):
    """Evaluate a polynomial (highest degree first) at a square matrix, by
    Horner's rule: each coefficient is added on the diagonal."""
    out = Mat.zeros(A.field, A.rows, A.rows)
    for c in coeffs:
        out = out * A
        if c:
            c = A.field.coerce(c)
            for i, row in enumerate(out.data):
                row[i] = row[i] + c
    return out


# -- serialization -----------------------------------------------------------

def mat_to_json(A):
    return [[A.field.to_str(x) for x in row] for row in A.data]


def mat_from_json(field, rows, cols, data):
    """A rows x cols matrix from its JSON form; raises ValueError on a wrong
    shape or an entry that is not an exact number (a float, "1/0")."""
    if data in (None, []):
        return Mat.zeros(field, rows, cols)
    if (not isinstance(data, list) or len(data) != rows
            or any(not isinstance(row, list) or len(row) != cols for row in data)):
        raise ValueError("matrix shape mismatch: expected %dx%d" % (rows, cols))
    try:
        return Mat.from_rows(field, data)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError("bad matrix entry: %s" % exc) from None

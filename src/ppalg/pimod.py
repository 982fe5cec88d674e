"""Modules over the preprojective algebra and their invariants.

A module is given by one exact matrix per generator of the double quiver,
the loops and arrows of `CartanDatum.generators()`.  `ModuleRep` checks
them in one walk over that list, and `ModuleRep.from_generators` builds a
module from a map generator -> matrix, as `direct_sum`, `_split` and
`starop.extension_module` do.  `check_pair` refuses two modules over
different data or fields.  On top of that this file implements:
relation checking, local freeness and rank vectors, duals, Hom and
derivation spaces, Ext^1 from two Hom dimensions (checked through Der),
the canonical pieces sub_i / fac_i / K_i / Q_i, the
E-filtered and crystal tests, rigidity, randomized isomorphism testing and
direct-sum decomposition.

Every matrix is a `linalg.Mat`, integer rows of nonzeros over one
denominator, so every product, word (`_word`) and relation check works on
nonzeros only.  Every linear system (Hom, Hom_T, Der) is written by one
builder, `_linear_system`, as `linalg` kernel rows {col: int}, never as a
matrix; dimensions come from `rows_rank`, and only hom_basis and
derivation_basis solve it by `rows_nullspace`.  A factor that acts by zero
is skipped only where the skip saves calls (the Hom, Der and relation
terms, `_split`, `sub_space` and `k_space`, each saying what it saves);
elsewhere, as in `_word` and `Mat.power`, a product by a zero sparse
matrix is cheap and is taken.  One builder,
`_hom_system`, writes every Hom and Hom_T system.  Given the target's rank
vector, as `hom_dim` into a locally free module does, it writes the arrow
equations alone, over free generators of the target; hom_basis and
hom_t_dim get the full loop-and-arrow systems.

Every basis is a `KernelBasis` (hom_basis, derivation_basis and the
Ann(e_k) of `decompose`), which `random_combination` draws from without
unflattening the whole basis.

`submodule`, `quotient` and `canonical_pieces` share one block-triangular
split per vertex, `_split`, and return modules only, with no inclusion or
projection maps.  `_split` refuses (ValueError) spaces with dependent
columns or not closed under the action, and it completes a basis only where
the space is neither empty nor the identity.  It builds only the sides its
caller asks for: `submodule` makes no quotient matrices and `quotient` no
submodule matrices, and only `canonical_pieces` asks for both.

One rule decides freeness over H_i = K[x]/(x^c_i) from a rank:
`_free_rank(M, i, B, K)`, the H_i-rank of col(B) / col(K) when that is
free.  `is_locally_free`, `peel` and `is_crystal` call it.  It and
`sub_space` pass block rows to `rows_rank` / `rows_nullspace` and build no
stacked matrix; `k_space` keeps its stack, whose columns its basis selects.

One function peels socles: `peel` takes off each free sub_i whole, along
the vertices 1...n, 1...n, ..., until nothing is left or it gets stuck.
`is_E_filtered` certifies True by it, and runs the backtracking search
`_efiltered_search` only where it gets stuck, which it does on no crystal
module; the search sends each quotient it tries back to `is_E_filtered`,
so every node is peeled before it is searched.  Over a minimal
symmetrizer the peel is the socle series, and it decides E-filtered
there, which `is_crystal` reads.
`is_crystal` runs no E-filtered search: it certifies E-filtered by peeling
off a nonzero sub_i (see `is_crystal`), so its False verdicts are exact.
It builds no sub_i or fac_i: their local freeness is one `_free_rank`
each, and only the Q_i and K_i it recurses into are built.  A locally free
module whose arrows all act by zero is a sum of the E_i
(Geiss-Leclerc-Schroer, Invent. Math. 2017), hence crystal; so where the
arrows away from i vanish, a Q_i or K_i that is M away from i is crystal
and is not built (`_arrows_vanish`).

`decompose` has one split step: split M into the generalized eigenspaces
of a random endomorphism, drawn from End(M) and then from the annihilator
ideals Ann(e_k), read off End(M)'s kernel matrix with no system built, and
recurse (see `decompose`).  End(M) is unflattened only by a draw.

The per-run memo `_memoized` shares all of a run's work: ext1_dim, hom_dim,
is_locally_free, is_E_filtered, is_crystal, iso_fingerprint and
`catalog.b2_suite`.  It keys the arguments as they are spelled: a positional
module by its full content (datum, field, dims and every nonzero entry,
compared exactly), any other argument and every keyword by value.  Results
are immutable (a rank vector or a witness is a tuple, a suite's table a
read-only mapping) and handed out uncopied.  A run is a
`memo_run()` block: each `selftest.run_criteria` pass and each CLI command
is one, and a memoized function called outside any run opens one for its
outermost call.  Every run starts empty, so results never depend on an
earlier run.  A module object keeps only its content key in its `_cache`,
made on first use.  No result is kept on it: a loop over the same modules
outside a run (match_label over a pool, repeated iso_test) recomputes each
answer unless it is wrapped in `memo_run()`.

All randomized verdicts are reproducible from their seed, and "don't know"
is a first-class outcome (IsoInconclusive, DecomposeUndecided) -- never a
silent wrong answer.
"""

from __future__ import annotations

import functools
import random
from contextlib import contextmanager
from dataclasses import dataclass
from math import lcm

from . import linalg
from .linalg import QQ, Mat
from .cartan import alpha_form, arrow_key, arrow_name, eps_key, gen_source, gen_target, \
    symmetrized_form


class NotLocallyFree(ValueError):
    pass


class RationalFieldOnly(ValueError):
    """The operation is defined over the rational field only."""


class IsoInconclusive(RuntimeError):
    """Randomized isomorphism search exhausted its trials without a verdict."""


class DecomposeUndecided(RuntimeError):
    """No draw from End(M) or from an annihilator ideal Ann(e_k) split a
    module whose End is not local."""


class ConsistencyError(AssertionError):
    """An internal certainty was violated (e.g. odd self-extension dim)."""


class ModuleRep:
    """A finite-dimensional representation of the preprojective algebra.

    `dims` maps each vertex to the dimension of its vector space, `eps`
    maps a vertex to the loop action (a dims[i] x dims[i] matrix) and
    `arrows` maps ("arr", i, j, g) to the dims[i] x dims[j] matrix of the
    arrow with source j and target i.  Missing matrices default to zero;
    a given one of the wrong shape, or over another field than `field`,
    raises ValueError naming its generator.  Instances are treated as
    immutable.
    """

    def __init__(self, datum, dims, eps=None, arrows=None, field=QQ):
        self.datum = datum
        self.field = field
        self.dims = {i: int(dims.get(i, 0)) for i in datum.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ValueError("negative dimension")
        eps, arrows = eps or {}, arrows or {}
        self.eps, self.arrows = {}, {}
        for g in datum.generators():
            i, j = gen_target(g), gen_source(g)
            loop = g[0] == "eps"
            A = eps.get(i) if loop else arrows.get(g)
            if A is None:
                A = Mat.zeros(field, self.dims[i], self.dims[j])
            if (A.rows, A.cols, A.field.char) != (self.dims[i], self.dims[j], field.char):
                name = "loop at %r" % (i,) if loop else "arrow %r" % (g,)
                if (A.rows, A.cols) != (self.dims[i], self.dims[j]):
                    raise ValueError("%s must be %dx%d" % (name, self.dims[i], self.dims[j]))
                raise ValueError("%s is over %r, the module over %r" % (name, A.field, field))
            if loop:
                self.eps[i] = A
            else:
                self.arrows[g] = A
        unknown = set(arrows) - set(self.arrows)
        if unknown:
            raise ValueError("unknown arrow keys: %r" % (sorted(unknown),))
        self._cache = {}

    @classmethod
    def from_generators(cls, datum, mats, field=QQ):
        """The module with matrix mats[g] for every generator g of
        `datum.generators()`; the loops give the dimensions."""
        loops = {i: mats[eps_key(i)] for i in datum.vertices}
        return cls(datum, {i: E.rows for i, E in loops.items()}, loops,
                   {k: mats[k] for k in datum.arrow_keys()}, field)

    def gen_mat(self, gen):
        if gen[0] == "eps":
            return self.eps[gen[1]]
        return self.arrows[gen]

    def dim_total(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims[i] for i in self.datum.vertices)

    def __repr__(self):
        return "ModuleRep(dims=%r)" % (self.dims,)


# -- the per-run memo (see the module docstring) --------------------------------

_memo = None   # the open run's {(function, content keys...): result}, if any


@contextmanager
def memo_run():
    """Open a fresh memo for one run; the previous one is restored on exit."""
    global _memo
    saved, _memo = _memo, {}
    try:
        yield
    finally:
        _memo = saved


class _Content:
    """A module's full content, compared exactly, with its hash computed once."""

    __slots__ = ("content", "hash")

    def __init__(self, content):
        self.content = content
        self.hash = hash(content)

    def __eq__(self, other):
        return self.hash == other.hash and self.content == other.content

    def __hash__(self):
        return self.hash


def _content_key(M):
    """The memo key of an argument: a module's datum, field, dims and the
    matrix of every generator as the flat int tuple (den, r, c, x, ...) of
    its nonzeros, columns in order; anything else is its own key."""
    if not isinstance(M, ModuleRep):
        return M
    key = M._cache.get("content")
    if key is None:
        def flat(A):
            return (A.den, *[v for r, row in enumerate(A.nz)
                             for c in sorted(row) for v in (r, c, row[c])])

        key = M._cache["content"] = _Content((
            M.datum, M.field, M.dim_vector(),
            tuple(flat(M.gen_mat(g)) for g in M.datum.generators())))
    return key


def _memoized(fn):
    """Memoize fn for the open run; with no run open, the outermost call
    opens one, so its recursion shares it.  fn must return immutable values:
    they are handed out as stored.  See the module docstring for the key."""
    name = fn.__name__

    @functools.wraps(fn)
    def memo(*args, **kwargs):
        if _memo is None:
            with memo_run():
                return memo(*args, **kwargs)
        key = (name, tuple(sorted(kwargs.items())), *map(_content_key, args))
        if key not in _memo:
            _memo[key] = fn(*args, **kwargs)
        return _memo[key]
    return memo


def _acts(A):
    """Whether A, a matrix or None (the identity), acts by something nonzero."""
    return A is None or not A.is_zero()


def _nonzero_terms(terms):
    """The terms (coeff, k, L, R) of an equation with no zero factor."""
    return [term for term in terms if _acts(term[2]) and _acts(term[3])]


def _zero_gens(M):
    """The generators of M that act by zero: a word through one of them is
    zero, so the relation check and the Der system skip it unbuilt."""
    return {g for g in M.datum.generators() if M.gen_mat(g).is_zero()}


def _word(M, word):
    """The matrix of a nonempty path word, leftmost factor applied last.
    Every product is taken: its callers skip the words through a zero
    generator (`_zero_gens`), and a product by a zero partial product is
    cheap."""
    out = M.gen_mat(word[0])
    for gen in word[1:]:
        out = out * M.gen_mat(gen)
    return out


def check_relations(M):
    """Labels of all violated defining relations (empty list when ok).

    Each relation's words are summed over the lcm of their denominators
    and the integer sum is tested for zero exactly (mod p over GF(p)).  A
    word with a factor that acts by zero (`_zero_gens`) is skipped unbuilt,
    and a relation with no word left holds; a zero word is summed.
    The `_zero_gens` skip stays: without it `criteria` makes 4.7% more
    calls (cProfile, two `run_criteria` passes)."""
    p, zero = M.field.char, _zero_gens(M)
    bad = []
    for rel in M.datum.relations():
        words = [(coeff, _word(M, word))
                 for coeff, word in rel.terms if zero.isdisjoint(word)]
        if not words:
            continue
        den = lcm(*[W.den for _, W in words])
        total = [{} for _ in range(M.dims[rel.target])]
        for coeff, W in words:
            s = coeff * (den // W.den)
            for acc, row in zip(total, W.nz):
                for c, x in row.items():
                    acc[c] = acc.get(c, 0) + s * x
        if any(x % p if p else x for acc in total for x in acc.values()):
            bad.append(rel.label)
    return bad


@_memoized
def is_locally_free(M):
    """(True, rank vector) iff each vertex space is free over K[x]/(x^c_i),
    else (False, None); the rank vector is a tuple in vertex order.

    M_i is a module over K[x]/(x^c_i) iff eps_i^c_i = 0, and then it is
    free iff `_free_rank` says so.
    """
    ranks = []
    for i in M.datum.vertices:
        r = _free_rank(M, i) if M.eps[i].power(M.datum.ci(i)).is_zero() else None
        if r is None:
            return False, None
        ranks.append(r)
    return True, tuple(ranks)


def _free_rank(M, i, B=None, K=None):
    """The rank over H = K[x]/(x^c), c = c_i, of V = col(B) / col(K) when V
    is free over H, else None.  B (all of M_i when None) and K (zero when
    None) have independent columns, col(K) is inside col(B), and both are
    invariant under eps = eps_i with eps^c = 0 on col(B).

    V is free iff dim V = r c and eps^(c-1) has rank r on V: V is a sum of
    Jordan blocks of sizes at most c, and eps^(c-1) has rank one on each
    block of size c and zero on the others.  That rank is the dimension of
    eps^(c-1) col(B) mod col(K), rank [K | eps^(c-1) B] - rank K.  At c = 1
    every space is free, and so is the zero space.  `is_crystal` reads the
    freeness of sub_i (B = `sub_space(M, i)`) and of fac_i
    (K = `k_space(M, i)`) here, without building either piece.  The rows
    of [K | eps^(c-1) B] keep each block's denominator: column scaling
    keeps the rank.  A square B is invertible, so it is not multiplied in;
    that skip stays: without it `module_ops` makes 0.67% more calls
    (cProfile).
    """
    c, k = M.datum.ci(i), 0 if K is None else K.cols
    f = (M.dims[i] if B is None else B.cols) - k
    if c == 1 or f == 0:
        return f
    if f % c:
        return None
    top = M.eps[i].power(c - 1)
    if B is not None and B.cols < M.dims[i]:   # a square B is invertible: same rank
        top = top * B
    rows = top.nz if not k else [{**a, **{k + j: x for j, x in b.items()}}
                                 for a, b in zip(K.nz, top.nz)]
    p = M.field.char
    rank = linalg.rows_rank(M.field, [linalg.kernel_row(r, p) for r in rows], k + top.cols)
    return f // c if rank - k == f // c else None


def rank_vector(M):
    ok, ranks = is_locally_free(M)
    if not ok:
        raise NotLocallyFree("module is not locally free")
    return ranks


def check_pair(M, N):
    """Raise ValueError unless M and N share one datum and one field."""
    if M.datum != N.datum:
        raise ValueError("modules over different data")
    if M.field.char != N.field.char:
        raise ValueError("modules over different fields: %r and %r" % (M.field, N.field))


def direct_sum(M, N):
    check_pair(M, N)
    return ModuleRep.from_generators(
        M.datum, {g: linalg.block_diag([M.gen_mat(g), N.gen_mat(g)], M.field)
                  for g in M.datum.generators()}, M.field)


def dual(M):
    """M^v: M^v_i = Hom_K(M_i, K), the loop at i acting by eps_i^T and the
    arrow (i, j, g) by M's arrow (j, i, g) transposed, with no sign.  It
    turns 0 -> Y -> Z -> X -> 0 into 0 -> X^v -> Z^v -> Y^v -> 0."""
    return ModuleRep.from_generators(
        M.datum, {g: M.gen_mat(g if g[0] == "eps" else arrow_key(g[2], g[1], g[3])).transpose()
                  for g in M.datum.generators()}, M.field)


def zero_module(datum, field=QQ):
    return ModuleRep(datum, {}, field=field)


def generalized_simple(datum, i, field=QQ):
    """E_i: the free rank-one module over K[x]/(x^c_i), all arrows zero."""
    if i not in datum.index:
        raise KeyError("unknown vertex %r" % (i,))
    c = datum.ci(i)
    # one full nilpotent Jordan block: row r has its one at column r - 1
    E = Mat.from_form(field, c, c, 1, [{r - 1: 1} if r else {} for r in range(c)])
    return ModuleRep(datum, {i: c}, {i: E}, {}, field)


# -- Hom and derivation spaces ------------------------------------------------

def _var_layout(shapes):
    """Offsets for a block vector of vec'd matrices; returns (offsets, total)."""
    offsets = {}
    total = 0
    for key, (r, c) in shapes.items():
        offsets[key] = total
        total += r * c
    return offsets, total


def _den(A):
    return 1 if A is None else A.den


def _linear_system(field, shapes, equations):
    """(rows, nvars): the kernel rows (see `linalg`) of `equations` in the
    unknown blocks X_k of `shapes`.

    Each equation is a list of terms (coeff, k, L, R), with L and R
    matrices or None, the identity on that side of X_k, and stands for
    sum coeff * L X_k R = 0.  The callers pass no term with a factor that
    acts by zero: such a term adds nothing, so they drop it, and an
    equation left with no terms adds no rows.  An equation contributes
    rows(L) x cols(R) rows (from shapes[k] where a factor is None),
    row-major and zero rows dropped, so all its terms must share that
    shape.  The unknowns are the blocks X_k, vec'd row by row in the layout
    of `_var_layout(shapes)`.  Each term is scaled by m / (L.den * R.den),
    m the lcm of L.den * R.den over the equation's terms (the identity has
    den 1), which scales the equation by m.
    """
    offsets, nvars = _var_layout(shapes)
    p = field.char
    rows = []
    for terms in equations:
        if not terms:
            continue
        m = lcm(*[_den(L) * _den(R) for _, _, L, R in terms])
        _, k0, L0, R0 = terms[0]
        rcols = shapes[k0][1] if R0 is None else R0.cols
        block = [{} for _ in range((shapes[k0][0] if L0 is None else L0.rows) * rcols)]
        for coeff, k, L, R in terms:
            # (L X R)[u][v] = sum over r, c of L[u][r] X[r][c] R[c][v]: walk
            # the nonzeros of L's rows and R's columns only
            s = coeff * (m // (_den(L) * _den(R)))
            base, (height, width) = offsets[k], shapes[k]
            if R is None:
                rnz = [(v, ((v, 1),)) for v in range(width)]
            else:
                rnz = [[] for _ in range(rcols)]
                for c, row in enumerate(R.nz):
                    for v, y in row.items():
                        rnz[v].append((c, y))
                rnz = [(v, rv) for v, rv in enumerate(rnz) if rv]
            if L is None:
                lus = ([(base + u * width, s)] for u in range(height))
            else:
                lus = ([(base + r * width, s * x) for r, x in lrow.items()] for lrow in L.nz)
            for u, lu in enumerate(lus):
                if not lu:
                    continue
                for v, rv in rnz:
                    out = block[u * rcols + v]
                    for off, x in lu:
                        for c, y in rv:
                            out[off + c] = out.get(off + c, 0) + x * y
        rows += filter(None, (linalg.kernel_row(r, p) for r in block))
    return rows, nvars


def _unflatten(field, shapes, den, rows, n):
    """The n vectors with coordinates rows / den (row v of the unknowns,
    {vector: int}), as block dicts laid out by `shapes`: the inverse of the
    `_var_layout(shapes)` flattening."""
    cells = [(key, u, v) for key, (r, c) in shapes.items() for u in range(r) for v in range(c)]
    blocks = [{key: [{} for _ in range(r)] for key, (r, _) in shapes.items()} for _ in range(n)]
    for (key, u, v), row in zip(cells, rows):
        for k, x in row.items():
            blocks[k][key][u][v] = x
    return [{key: Mat.from_form(field, r, c, den, nz[key]) for key, (r, c) in shapes.items()}
            for nz in blocks]


class KernelBasis:
    """The solutions of a linear system, block dicts laid out by `shapes`,
    held as the system's `rows_nullspace` matrix, one column per solution.
    `combination` builds sum_b c_b x_b as one combination of the matrix's
    rows, unflattening that one element only (every `Mat` has one
    canonical form)."""

    __slots__ = ("field", "kernel", "shapes")

    def __init__(self, field, kernel, shapes):
        self.field, self.kernel, self.shapes = field, kernel, shapes

    def __len__(self):
        return self.kernel.cols

    def combination(self, coeffs):
        field, K = self.field, self.kernel
        if len(coeffs) != K.cols:
            raise ValueError("%d coefficients for a basis of %d elements" % (len(coeffs), K.cols))
        if not K.cols:
            return {}
        p = field.char
        cs = [field.coerce(c) for c in coeffs]   # Fractions over Q, residues over GF(p)
        d = lcm(*[c.denominator for c in cs])
        ns = [c.numerator * (d // c.denominator) for c in cs]
        rows = []
        for row in K.nz:
            x = sum(ns[k] * v for k, v in row.items())
            if p:
                x %= p
            rows.append({0: x} if x else {})
        return _unflatten(field, self.shapes, K.den * d, rows, 1)[0]


def _kernel_basis(field, system, shapes):
    """The solutions of system = (rows, nvars), as a `KernelBasis` of block
    dicts laid out by `shapes`."""
    return KernelBasis(field, linalg.rows_nullspace(field, *system), shapes)


def _nullity(field, system):
    return system[1] - linalg.rows_rank(field, *system)


def _hom_system(M, N, arrows, ranks=None):
    """(system, shapes) of the maps f: M -> N commuting with the loops and
    `arrows`, in one unknown block X_i per vertex, f_i = sum L X_i R over
    the pairs (L, R) of vertex i.

    Without `ranks`, X_i = f_i, of shape N_i x M_i (L = R = None, the
    identity), with the loop equation f_i eps_M = eps_N f_i.  With `ranks`,
    the rank vector of a locally free N, X_i = Z_i, of shape s_i x M_i, and
    f_i = sum over k < c_i of eps_N^k G_i Z_i eps_M^(c_i - 1 - k) (see
    `hom_dim`), with the equation Z_i eps_M^c_i = 0 where that power is
    nonzero; G_i is the column selection of the pivot columns of
    eps_N^(c_i - 1), so N_g G_i is read as N_g's columns, not multiplied.
    Then each arrow g: s -> t in `arrows` gives f_t M_g - N_g f_s = 0.

    Only nonzero terms are written, and no product is taken by a zero or
    an identity factor: a pair (L, R) with a zero factor is dropped, so is
    the side of an arrow equation whose arrow acts by zero, and an equation
    left with no terms adds nothing (`_linear_system`).  These term guards
    stay: without them `criteria` makes 3.4% more calls and `ext_ladder`
    1.4% (cProfile), 6.0% and 7.2% with the Z_i eps_M^c_i guard dropped too.
    The powers of a loop skip no product: one by a zero power is cheap."""
    check_pair(M, N)
    datum, field = M.datum, M.field

    def powers(E, n):   # E^0 = None, ..., E^(n - 1)
        out = [None, E][:n]
        while len(out) < n:
            out.append(out[-1] * E)
        return out

    # maps[i]: the triples (L, G, R) of vertex i, G the column list G_i where
    # L is the bare selection G_i (k = 0, c_i > 1), and None elsewhere
    shapes, maps, equations = {}, {}, []
    for a, i in enumerate(datum.vertices):
        if ranks is None:
            shapes[i], maps[i] = (N.dims[i], M.dims[i]), [(None, None, None)]
            equations.append(_nonzero_terms([(1, i, None, M.eps[i]), (-1, i, N.eps[i], None)]))
            continue
        c, n = datum.ci(i), N.dims[i]
        shapes[i] = (ranks[a], M.dims[i])
        left, right = powers(N.eps[i], c), powers(M.eps[i], c + 1)
        lefts = [(None, None)]
        if c > 1:
            G = linalg.pivot_columns(left[-1])
            rows = [{} for _ in range(n)]
            for k, r in enumerate(G):
                rows[r] = {k: 1}
            lefts = [(Mat.from_form(field, n, len(G), 1, rows), G)]
            lefts += [(E.columns(G), None) for E in left[1:]]
        maps[i] = [(L, G, right[c - 1 - k]) for k, (L, G) in enumerate(lefts)
                   if _acts(L) and _acts(right[c - 1 - k])]
        if not right[c].is_zero():
            equations.append([(1, i, None, right[c])])
    for g in arrows:
        t, s = gen_target(g), gen_source(g)
        Mg, Ng = M.arrows[g], N.arrows[g]
        terms = []
        if not Mg.is_zero():
            terms += [(1, t, L, Mg if R is None else R * Mg) for L, _, R in maps[t]]
        if not Ng.is_zero():
            terms += [(-1, s, Ng if L is None else Ng * L if G is None else Ng.columns(G), R)
                      for L, G, R in maps[s]]
        equations.append(_nonzero_terms(terms))
    return _linear_system(field, shapes, equations), shapes


def _der_system(M, N):
    """(system, shapes) of Der(M, N): one block N_{t(a)} x M_{s(a)} per
    arrow a, and per relation its word derivative,
    sum coeff * N(prefix) delta_a M(suffix) = 0 over the arrow positions.
    An empty prefix or suffix is None (the identity), and a position whose
    prefix or suffix has a factor that acts by zero (`_zero_gens`), or is
    zero, adds no term, and a relation whose target is zero in N or whose
    source is zero in M adds no equation.  Each of these skips stays:
    without it `criteria` makes more calls (cProfile), 1.2% for the
    `_zero_gens` skip, 0.6% for the `_nonzero_terms` filter and 1.84% for
    the zero-dimension skip."""
    check_pair(M, N)
    datum, zero_n, zero_m = M.datum, _zero_gens(N), _zero_gens(M)
    shapes = {k: (N.dims[k[1]], M.dims[gen_source(k)]) for k in datum.arrow_keys()}
    equations = []
    for rel in datum.relations():
        if not (N.dims[rel.target] and M.dims[rel.source]):
            continue
        terms = []
        for coeff, word in rel.terms:
            for p, gen in enumerate(word):
                prefix, suffix = word[:p], word[p + 1:]
                if gen[0] == "arr" and zero_n.isdisjoint(prefix) and zero_m.isdisjoint(suffix):
                    terms.append((coeff, gen, _word(N, prefix) if prefix else None,
                                  _word(M, suffix) if suffix else None))
        equations.append(_nonzero_terms(terms))
    return _linear_system(M.field, shapes, equations), shapes


def hom_basis(M, N):
    """Basis of the intertwiner space Hom(M, N), as a `KernelBasis`.

    Elements are dicts {vertex: matrix N_i x M_i} commuting with every loop
    and arrow action.
    """
    return _kernel_basis(M.field, *_hom_system(M, N, M.datum.arrow_keys()))


@_memoized
def hom_dim(M, N):
    """dim Hom(M, N).

    When N is locally free, N_i = H^s_i with H = K[x]/x^c_i, and the
    standard basis vectors G_i at the pivot columns of eps_N^(c_i - 1) are
    free generators: the eps_N^k G_i, k < c_i, are a basis of N_i.  Writing
    f_i = sum_k eps_N^k G_i Y_k in it, f_i eps_M = eps_N f_i says exactly
    Y_(k-1) = Y_k eps_M and Y_0 eps_M = 0, so f_i commutes with the loops iff
    Y_k = Z_i eps_M^(c_i - 1 - k) with Z_i = Y_(c_i - 1) and Z_i eps_M^c_i = 0
    (Frobenius duality, Hom_H(M_i, H) = Hom_K(M_i, K); Geiss, Leclerc and
    Schroer, Invent. Math. 2017).  So only the arrow equations are solved,
    in the s_i x M_i blocks Z_i: no loop rows, and c_i times fewer unknowns
    at each vertex.  Otherwise the loop and arrow equations in the blocks
    f_i are solved.  `_hom_system` writes both.
    """
    return _nullity(M.field, _hom_system(M, N, M.datum.arrow_keys(), is_locally_free(N)[1])[0])


def hom_t_dim(M, N):
    """dim Hom_T(M, N): the maps commuting with the loops only."""
    return _nullity(M.field, _hom_system(M, N, [])[0])


def derivation_basis(M, N):
    """Basis of the derivation space Der(M, N), as a `KernelBasis`.

    Elements assign a matrix N_{t(a)} x M_{s(a)} to every arrow (loops get
    nothing); the defining condition is that the block-triangular module on
    N (+) M with arrow action [[N_a, delta_a], [0, M_a]] and diagonal loop
    action satisfies all relations.  The constraints are assembled from the
    word derivative of each relation.
    """
    return _kernel_basis(M.field, *_der_system(M, N))


@_memoized
def ext1_dim(M, N):
    """dim Ext^1(M, N) for locally free M, N, from two Hom dimensions:
    hom(M, N) + hom(N, M) - (rank M, rank N)_H (Crawley-Boevey, Amer. J.
    Math. 122, 2000, Lemma 1; Geiss, Leclerc and Schroer, Invent. Math.
    2017, part I).  No Der system is built; `ext1_dim_der` is the check."""
    dM = rank_vector(M)
    dN = rank_vector(N)
    ext = hom_dim(M, N) + hom_dim(N, M) - symmetrized_form(M.datum, dM, dN)
    if ext < 0:
        raise ConsistencyError("negative Ext^1 dimension: %d" % ext)
    return ext


def ext1_dim_der(M, N):
    """dim Ext^1(M, N) through 0 -> Hom -> Hom_T -> Der -> Ext^1 -> 0, with
    dim Hom_T = alpha(rank M, rank N): nullity(Der) - alpha + hom(M, N)."""
    dM = rank_vector(M)
    dN = rank_vector(N)
    return _nullity(M.field, _der_system(M, N)[0]) - alpha_form(M.datum, dM, dN) + hom_dim(M, N)


class ExtTheoremError(AssertionError):
    def __init__(self, report):
        super().__init__("Ext theorem check failed: %r" % (report,))
        self.report = report


def verify_ext_theorems(M, N):
    """Check the Ext-formula and Ext-duality on a pair of locally free
    modules on the Der route `ext1_dim_der` (`ext1_dim` meets both by
    construction), and `ext1_dim` against `ext1_dim_der` both ways.

    Returns the computed dimensions; raises ExtTheoremError (carrying them)
    if a check fails.
    """
    hom_mn = hom_dim(M, N)
    hom_nm = hom_dim(N, M)
    ext_mn = ext1_dim(M, N)
    ext_nm = ext1_dim(N, M)
    der_mn = ext1_dim_der(M, N)
    der_nm = ext1_dim_der(N, M)
    pairing = symmetrized_form(M.datum, rank_vector(M), rank_vector(N))
    report = {
        "hom_mn": hom_mn, "hom_nm": hom_nm,
        "ext_mn": ext_mn, "ext_nm": ext_nm,
        "der_mn": der_mn, "der_nm": der_nm,
        "euler": pairing,
        "formula_ok": hom_mn - der_mn + hom_nm == pairing,
        "duality_ok": der_mn == der_nm,
        "der_ok": (ext_mn, ext_nm) == (der_mn, der_nm),
    }
    if not (report["formula_ok"] and report["duality_ok"] and report["der_ok"]):
        raise ExtTheoremError(report)
    return report


# -- submodules, quotients, canonical pieces ---------------------------------

def _split(M, spaces, sub=True, quot=True):
    """(sub, quot) for the submodule spanned by `spaces`; a side not asked
    for (`sub=False` or `quot=False`) is not built and is None.

    `complete_basis` completes each B_i = spaces[i] by standard basis
    vectors C_i, with [B_i | C_i]^-1 = [L_i; P_i].  In these bases every
    loop and arrow A: j -> i is block upper triangular: L_i A B_j is the
    submodule's matrix (the X with B_i X = A B_j), P_i A C_j the quotient's,
    and P_i A B_j = 0 is the closure check (else ValueError), which runs
    whichever side is built.

    Where B_i is empty (or missing) the vertex goes whole to the quotient
    (C_i = P_i = I, L_i empty), and where B_i is the identity it goes whole
    to the submodule (L_i = I, C_i and P_i empty).  These are the RREFs of
    [0 | I] and [I | I], so there the completion and the products by B_i,
    C_i, L_i and P_i are skipped: the matrices are A itself, a column
    selection of A or empty.  B_i = I is recognized on its nonzeros, with
    no identity built; that detection stays: without it `module_ops` makes
    10.7% more calls (cProfile).  A B_i that spans M_i but is not the
    identity is completed like any other, with an empty P_i.  A generator
    that acts by zero, or whose block A B_j or A C_j is zero, gives zero
    blocks with no product by them.  The zero-generator branch stays:
    without it `criteria` makes 0.4% more calls and `module_ops` 0.7%
    (cProfile).
    """
    field, vertices = M.field, M.datum.vertices
    basis, extra, coords, proj = {}, {}, {}, {}
    for i in vertices:
        B = spaces.get(i)
        if B is None or B.cols == 0:     # whole to the quotient
            continue
        basis[i] = B
        if B.cols == M.dims[i] and B.den == 1 and all(row == {r: 1} for r, row in enumerate(B.nz)):
            extra[i] = []                # whole to the submodule
        else:
            extra[i], coords[i], proj[i] = linalg.complete_basis(B)

    def sub_dim(i):
        return basis[i].cols if i in basis else 0

    def quot_dim(i):
        return len(extra[i]) if i in extra else M.dims[i]

    sub_mats, quot_mats = {}, {}
    for g in M.datum.generators():
        i, j = gen_target(g), gen_source(g)
        A = M.gen_mat(g)
        if A.is_zero():                  # zero blocks, closed, no product
            if sub:
                sub_mats[g] = Mat.zeros(field, sub_dim(i), sub_dim(j))
            if quot:
                quot_mats[g] = Mat.zeros(field, quot_dim(i), quot_dim(j))
            continue
        if j in basis:
            AB = A * basis[j] if j in coords else A
            closed = AB.is_zero() or ((proj[i] * AB).is_zero() if i in proj else i in basis)
            if not closed:
                raise ValueError("spaces are not closed under %r" % (g,))
        if sub:
            if i in basis and j in basis and not AB.is_zero():
                sub_mats[g] = coords[i] * AB if i in coords else AB
            else:
                sub_mats[g] = Mat.zeros(field, sub_dim(i), sub_dim(j))
        if quot:
            AC = A.columns(extra[j]) if j in extra else A
            if i not in basis:
                quot_mats[g] = AC
            elif i in proj and not AC.is_zero():
                quot_mats[g] = proj[i] * AC
            else:
                quot_mats[g] = Mat.zeros(field, quot_dim(i), quot_dim(j))
    return (ModuleRep.from_generators(M.datum, sub_mats, field) if sub else None,
            ModuleRep.from_generators(M.datum, quot_mats, field) if quot else None)


def submodule(M, spaces):
    """The submodule spanned by the given per-vertex column bases.

    `spaces[i]` must have independent columns and the spans must be closed
    under all loop and arrow actions (both checked); a vertex missing from
    `spaces` contributes nothing.  No quotient matrix is built.
    """
    return _split(M, spaces, quot=False)[0]


def quotient(M, spaces):
    """The quotient of M by the submodule spanned by the given bases.

    The quotient is read in the coordinates of a completed basis, so the
    section is the chosen complement; different completions give isomorphic
    quotients.  No submodule matrix is built.
    """
    return _split(M, spaces, sub=False)[1]


def _loop_powers(first, d, step):
    """[first, step(first), step(step(first)), ...] up to the first zero
    block or d blocks; by Cayley-Hamilton, a d x d loop's d-th power adds
    nothing to the span of the lower ones.  A caller whose loop acts by
    zero passes d = 1, so that no product by it is taken; that d = 1 of
    `sub_space` and `k_space` stays: without it `module_ops` makes 4.5%
    more calls (cProfile)."""
    blocks = [first]
    while len(blocks) < d and not blocks[-1].is_zero():
        blocks.append(step(blocks[-1]))
    return blocks


def sub_space(M, i):
    """Basis of sub_i(M): the largest loop-invariant subspace of the common
    kernel of the arrows out of i.  With A the stacked outgoing arrows, that
    is the kernel of [A; A eps_i; A eps_i^2; ...], from one `rows_nullspace`
    on the blocks' rows, each a kernel row (row scale leaves the kernel)."""
    E, p = M.eps[i], M.field.char
    A = linalg.vstack([M.arrows[k] for k in M.datum.arrow_keys() if gen_source(k) == i],
                      field=M.field, cols=M.dims[i])
    blocks = _loop_powers(A, 1 if E.is_zero() else M.dims[i], lambda X: X * E)
    rows = [linalg.kernel_row(r, p) for X in blocks for r in X.nz]
    return linalg.rows_nullspace(M.field, rows, M.dims[i])


def k_space(M, i):
    """Basis at vertex i of K_i(M): the smallest loop-invariant subspace
    containing the images of the arrows into i.  With S the incoming arrows
    side by side, that is the column space of [S | eps_i S | eps_i^2 S | ...],
    from one `column_space`; its basis is a subset of those columns."""
    E = M.eps[i]
    S = linalg.hstack([M.arrows[k] for k in M.datum.arrow_keys() if gen_target(k) == i],
                      field=M.field, rows=M.dims[i])
    blocks = _loop_powers(S, 1 if E.is_zero() else M.dims[i], lambda X: E * X)
    return linalg.column_space(linalg.hstack(blocks))


@dataclass
class CanonicalPieces:
    sub: ModuleRep          # largest submodule supported at i
    quot: ModuleRep         # Q_i = M / sub_i
    ker: ModuleRep          # K_i: smallest submodule with fac_i = M / K_i
    fac: ModuleRep          # largest factor module supported at i


def canonical_pieces(M, i):
    """sub_i, fac_i, K_i, Q_i.

    The two short exact sequences 0 -> K_i -> M -> fac_i -> 0 and
    0 -> sub_i -> M -> Q_i -> 0 are exact by construction.
    """
    return CanonicalPieces(*_split(M, {i: sub_space(M, i)}),
                           *_split(M, _ker_spaces(M, i, k_space(M, i))))


def _ker_spaces(M, i, K):
    """The spaces of K_i(M): col(K) at i, all of M_j at every other j."""
    spaces = {j: Mat.identity(M.field, M.dims[j]) for j in M.datum.vertices}
    spaces[i] = K
    return spaces


# -- E-filtered and crystal tests ---------------------------------------------

def _rank_one_candidates(M, i):
    """Generators of free rank-one loop-submodules inside sub_i(M).

    Yields, lazily, column vectors v with eps_i^{c_i - 1} v != 0; v then
    spans, with its loop images, a submodule isomorphic to E_i.  They are
    the first and last viable columns of sub_space(M, i) and their sum over
    all viable columns, unless eps_i^{c_i - 1} kills the sum.
    """
    U = sub_space(M, i)
    top = M.eps[i].power(M.datum.ci(i) - 1) * U
    viable = sorted(set().union(*top.nz))   # the columns k with top e_k != 0
    if not viable:
        return
    yield U.col(viable[0])
    if len(viable) > 1:
        yield U.col(viable[-1])
        ones = Mat.from_form(M.field, len(viable), 1, 1, [{0: 1} for _ in viable])
        if not (top.columns(viable) * ones).is_zero():
            yield U.columns(viable) * ones


def _minimal_symmetric(datum):
    return all(datum.ci(i) == 1 for i in datum.vertices)


def peel(M):
    """(witness, leftover): the locally free M peeled by whole free socles
    along the vertices 1...n, 1...n, ...; a zero leftover certifies
    E-filtered (E-filtered modules are closed under extensions).

    Step k works at i = vertices[k mod n]: a sub_i(X) free over
    K[x]/(x^c_i) of rank r > 0 (`_free_rank`) is E_i^r, so the witness
    gains (i,) * r and X becomes X / sub_i(X), locally free again.  The
    peel is stuck where a sub_i is not free, or after n steps in a row
    with r = 0.  On an X whose arrows all act by zero each sub_j is all of
    X_j, so X, a sum of E_j's, peels off as (j,) * r_j over the vertices
    in cyclic order, one quotient each.  With every c_i = 1 this is the
    socle series, which reaches zero iff the representation is nilpotent.
    On a crystal module it never gets stuck (`is_crystal`).
    """
    vs = M.datum.vertices
    n, witness, X, idle, k = len(vs), (), M, 0, 0
    while X.dim_total() and idle < n:
        i = vs[k]
        U = sub_space(X, i)
        r = _free_rank(X, i, B=U)
        if r is None:
            break
        if r:
            witness, X, idle = witness + (i,) * r, quotient(X, {i: U}), 0
        else:
            idle += 1
        k = (k + 1) % n
    return witness, X


@_memoized
def is_E_filtered(M):
    """(flag, witness), the witness the tuple of peeled vertices bottom-up
    (None when the flag is False): whether M has a filtration with
    subquotients among the E_i.  A locally free M is peeled (`peel`), with
    no search.  Where the peel gets stuck, a minimal symmetrizer gives an
    exact False, and otherwise M goes to `_efiltered_search`."""
    ok, _ = is_locally_free(M)
    if not ok:
        return False, None
    witness, X = peel(M)
    if not X.dim_total():
        return True, witness
    if _minimal_symmetric(M.datum):
        return False, None
    return _efiltered_search(M)


def _arrows_vanish(M, i):
    """Whether every arrow of M that neither starts nor ends at i acts by
    zero."""
    return not any(any(A.nz) for g, A in M.arrows.items() if i not in g[1:3])


def _efiltered_search(M):
    """The backtracking search: a free rank-one loop-submodule of some
    sub_i(M) (`_rank_one_candidates`), then `is_E_filtered` of its
    quotient, over all vertex choices, so every node is peeled first and
    searched only where its peel gets stuck.  True is certified, with its
    witness; False is not, as only a few generators are tried.
    `is_E_filtered` calls it on nonzero, locally free modules whose peel is
    stuck; on the zero module it answers True and on a module that is not
    locally free False, as `is_E_filtered` does (a candidate's loop powers
    may be dependent there, which `quotient` refuses)."""
    if M.dim_total() == 0:
        return True, ()
    if not is_locally_free(M)[0]:
        return False, None
    for i in M.datum.vertices:
        for v in _rank_one_candidates(M, i):
            cols = _loop_powers(v, M.datum.ci(i), lambda X: M.eps[i] * X)
            ok, wit = is_E_filtered(quotient(M, {i: linalg.hstack(cols)}))
            if ok:
                return True, (i,) + wit
    return False, None


@_memoized
def is_crystal(M):
    """Recursive test: E-filtered, with locally free sub_i / fac_i and
    crystal Q_i / K_i at every vertex (proper pieces only, which makes the
    recursion terminate).  Over a minimal symmetrizer with symmetric C the
    crystal and E-filtered properties coincide, and the verdict is
    `is_E_filtered`'s, which `peel` decides there.
    That shortcut pays: without it, criterion c3 (whose leclerc A5 modules
    take it) ran 0.21 s per pass, not 0.03 s (CPU, min of 5, 2 cores).

    sub_i and fac_i are not built: both live at vertex i alone, and their
    local freeness is one `_free_rank` each, of col(U) with
    U = `sub_space(M, i)` and of M_i / col(K) with K = `k_space(M, i)`.
    Q_i = `quotient(M, {i: U})` is built only when U is nonzero, and
    K_i = `submodule(M, ...)` only when col(K) is not all of M_i.

    E-filtered is certified with no search (`is_E_filtered` is not
    called): a nonzero M passing the per-vertex tests is E-filtered iff
    some sub_i(M) is nonzero, because
      - a locally free sub_i(M) is supported at i, so it is E_i^r;
      - Q_i is crystal, hence E-filtered, and E-filtered modules are closed
        under extensions, so M is E-filtered;
      - conversely, the bottom step E_j of a filtration lies in sub_j(M).
    So every False rests on exact rank tests alone.  The same argument
    keeps `peel` from getting stuck on a crystal M: each sub_i it meets is
    free, each Q_i crystal again, and a nonzero one has a nonzero sub_i.

    Where the arrows away from i vanish (`rest`), a Q_i with sub_i = M_i
    and a K_i with K_i(M) zero at i are M away from i: locally free with
    every arrow acting by zero, so a sum of E_j's (Geiss-Leclerc-Schroer,
    Invent. Math. 2017), crystal, and not built.  That rule stays: without
    it `module_ops` makes 22.8% more calls and `criteria` 2.0% (cProfile).
    On an M whose arrows all vanish it holds at every vertex, where sub_i
    is all of M_i and K_i(M) is zero, so no piece is built there either."""
    if M.dim_total() == 0:
        return True
    ok, _ = is_locally_free(M)
    if not ok:
        return False
    if _minimal_symmetric(M.datum):
        return is_E_filtered(M)[0]
    peeled = False
    for i in M.datum.vertices:
        U = sub_space(M, i)
        if _free_rank(M, i, B=U) is None:
            return False
        K = k_space(M, i)
        if _free_rank(M, i, K=K) is None:
            return False
        rest = _arrows_vanish(M, i)
        if U.cols:
            if not (rest and U.cols == M.dims[i]) and not is_crystal(quotient(M, {i: U})):
                return False
            peeled = True
        if K.cols < M.dims[i] and not (rest and K.cols == 0) \
                and not is_crystal(submodule(M, _ker_spaces(M, i, K))):
            return False
    return peeled


def is_rigid(M):
    """(rigid?, orbit codimension).  Callers must pass locally free crystal
    modules; the codimension ext^1(M,M)/2 is asserted to be an integer
    (by construction: `ext1_dim` gives 2 hom(M, M) - (d, d)_H, all even)."""
    ext = ext1_dim(M, M)
    if ext % 2:
        raise ConsistencyError("odd self-extension dimension %d" % ext)
    return ext == 0, ext // 2


# -- randomized tools: sampling, isomorphism, decomposition -------------------

COEFF_BOUND = 10  # random coefficients are integers in [-10, 10]


def random_combination(basis, rng):
    """A random integer combination of a `KernelBasis`'s elements, formed
    from its kernel matrix ({} for an empty basis)."""
    return basis.combination([rng.randint(-COEFF_BOUND, COEFF_BOUND)
                              for _ in range(len(basis))])


def hom_is_injective(f, M):
    """Whether the map f (vertex -> block) is injective on M; a vertex where
    M is zero needs no block, so the empty map {} is injective on 0."""
    return all(i in f and linalg.rank(f[i]) == d for i, d in M.dims.items() if d)


@_memoized
def iso_fingerprint(M):
    """A cheap isomorphism invariant: dimensions, End, and Hom against all
    E_i, with no system: hom(E_i, M) = dim sub_i(M) and, H_i = K[x]/(x^c_i)
    being Frobenius, hom(M, E_i) = dim M_i - dim K_i(M), for every module."""
    return (M.dim_vector(), hom_dim(M, M),
            tuple((sub_space(M, i).cols, M.dims[i] - k_space(M, i).cols)
                  for i in M.datum.vertices))


def iso_test(M, N, trials=8, seed=0):
    """Decide M = N (isomorphism) with certified answers only.

    False is returned only on a mismatch of exact invariants; True only
    when an explicit invertible intertwiner is found.  If the invariants
    agree but no invertible combination shows up within `trials` samples,
    IsoInconclusive is raised (never a silent False).
    """
    check_pair(M, N)
    if M.dim_vector() != N.dim_vector():
        return False
    if M.dim_total() == 0:
        return True
    if iso_fingerprint(M) != iso_fingerprint(N):
        return False
    hb = hom_basis(M, N)
    end_dim = iso_fingerprint(M)[1]
    if len(hb) != end_dim or hom_dim(N, M) != end_dim:
        return False
    rng = random.Random(seed)
    for _ in range(trials):
        f = random_combination(hb, rng)
        if f and all(linalg.is_invertible(f[i]) for i in M.datum.vertices):
            return True
    raise IsoInconclusive("no invertible intertwiner found in %d trials" % trials)


def _end_is_local(M, endb):
    """Certify that End(M) is local: dim End - dim rad End = 1.

    In characteristic zero the radical of a matrix-realized algebra is the
    kernel of the trace form (x, y) -> tr(xy).  With h_b = K[:, b] / den, K
    the kernel matrix of `endb`, tr(h_a h_b) den^2 is row a of K^T times
    column b of K with its rows (i, u, v) read at (i, v, u): the Gram
    matrix is one product, of rank 1 iff End(M) is local.
    """
    K, (offsets, _) = endb.kernel, _var_layout(endb.shapes)
    flipped = [K.nz[offsets[i] + v * d + u] for i, (d, _) in endb.shapes.items()
               for u in range(d) for v in range(d)]
    return linalg.rank(K.transpose() * Mat.from_form(M.field, K.rows, K.cols, K.den, flipped)) == 1


def _split_spaces(M, f):
    """Split M along the coprime factors of the char polynomial of an
    endomorphism f; returns a list of per-vertex space dicts, or None if
    `coprime_factors` gives a single factor.  That factor may be reducible
    (a rest of degree 4 or more with no rational root), so None says only
    that this f does not split M, and the caller draws again.

    Each space is the kernel of p(f)^m for one factor p^m; together they
    must fill every vertex space (raises ConsistencyError otherwise)."""
    poly = linalg.charpoly_product(f[i] for i in M.datum.vertices)
    factors = linalg.coprime_factors(poly)
    if len(factors) <= 1:
        return None
    # no factor's spaces are all zero: it divides the char polynomial of some f_i
    out = [{i: linalg.nullspace(linalg.eval_poly(coeffs, f[i]).power(mult))
            for i in M.datum.vertices} for coeffs, mult in factors]
    for i in M.datum.vertices:
        total = sum(s[i].cols for s in out)
        if total != M.dims[i]:
            raise ConsistencyError("split spaces at %r have total dimension %d, not %d"
                                   % (i, total, M.dims[i]))
    return out


DECOMPOSE_RETRIES = 8


def _split_complement(M, spaces):
    """A retraction of M onto the submodule spanned by `spaces`, or None.

    A retraction is psi = sum_b x_b h_b over a basis h_b of Hom(M, sub) with
    psi_i incl_i = 1 at every vertex i (one `solve_matrix`); ker(psi) is then
    a direct complement, and (sub, complement) is returned as two submodules.
    """
    field = M.field
    incl = {i: spaces.get(i, Mat.zeros(field, M.dims[i], 0)) for i in M.datum.vertices}
    sub = submodule(M, spaces)
    hb = hom_basis(M, sub)
    K = hb.kernel
    homs = _unflatten(field, hb.shapes, K.den, K.nz, K.cols)

    def flat(f):
        return Mat.column(field, [x for i in incl for row in f[i].data for x in row])

    sol = linalg.solve_matrix(
        linalg.hstack([flat({i: h[i] * incl[i] for i in incl}) for h in homs], field=field,
                      rows=sum(d * d for d in sub.dims.values())),
        flat({i: Mat.identity(field, d) for i, d in sub.dims.items()}))
    if sol is None:
        return None
    # hb is empty only where sub = 0, and then psi is the map onto 0
    psi = (hb.combination([x for (x,) in sol.data])
           or {i: Mat.zeros(field, 0, d) for i, d in M.dims.items()})
    comp = submodule(M, {i: linalg.nullspace(psi[i]) for i in incl})
    assert comp.dim_total() + sub.dim_total() == M.dim_total()
    return sub, comp


def decompose(M, seed=0):
    """Split M into indecomposable summands (as a list).

    One split step, repeated: draw a random endomorphism f and split M
    into the generalized eigenspaces of f (`_split_spaces`), then recurse
    on the pieces.  The draws come first from End(M), which separates
    non-isomorphic summands, then from the left ideals
    Ann(e_k) = {f in End M : f e_k = 0} of the standard basis vectors,
    vertices of smallest dimension first.  A draw from Ann(e_k) is
    singular, so unless it is nilpotent its eigenspaces are Fitting's
    split ker f^n (+) im f^n of M into two nonzero submodules; this splits
    isotypic sums X (+) X, where random endomorphisms rarely have a
    reducible characteristic polynomial.  A module is returned whole once
    End(M) is certified local.  Raises DecomposeUndecided when every draw
    fails -- never a wrong split.  Requires the rational ground field.
    """
    if M.field is not QQ:
        raise RationalFieldOnly("decompose requires the rational field")
    rng = random.Random(seed)
    return _decompose(M, rng)


def _endomorphism_sources(M, endb):
    """End(M) (its nonempty basis `endb`, the h_b = K[:, b] / den of its
    kernel matrix K), then a basis of each Ann(e_k), over the vertices i in
    order of increasing dimension, each a `KernelBasis` over endb's shapes:
    sum_b x_b h_b kills e_k iff x solves the rows of K at the entries (u, k)
    of block i, so with X their `rows_nullspace` the basis is K X (no
    columns where Ann(e_k) = 0)."""
    yield endb
    K, (offsets, _), p = endb.kernel, _var_layout(endb.shapes), M.field.char
    for i in sorted(M.datum.vertices, key=lambda i: M.dims[i]):
        d = M.dims[i]
        for k in range(d):
            rows = [linalg.kernel_row(K.nz[offsets[i] + u * d + k], p) for u in range(d)]
            yield KernelBasis(M.field, K * linalg.rows_nullspace(M.field, rows, K.cols), endb.shapes)


def _decompose(M, rng):
    if M.dim_total() == 0:
        return []
    endb = hom_basis(M, M)
    if _end_is_local(M, endb):
        return [M]
    for basis in _endomorphism_sources(M, endb):
        for _ in range(DECOMPOSE_RETRIES):
            f = random_combination(basis, rng)
            if not f:   # Ann(e_k) = 0
                break
            blocks = _split_spaces(M, f)
            if blocks is None:
                continue
            out = []
            for spaces in blocks:
                out.extend(_decompose(submodule(M, spaces), rng))
            return out
    raise DecomposeUndecided("could not split a module with non-local End "
                             "(dims %r)" % (M.dims,))


def match_label(M, pool, trials=8, seed=0):
    """The label of the pool entry isomorphic to M, or None.

    `pool` is a list of (label, module) pairs; `iso_test` rejects a
    candidate of another dimension vector or fingerprint before it draws.
    """
    for label, N in pool:
        if iso_test(M, N, trials=trials, seed=seed):
            return label
    return None


# -- serialization -------------------------------------------------------------

def module_to_json(M, algebra=None):
    doc = {
        "algebra": algebra if algebra is not None else M.datum.to_json(),
        "dims": {str(i): M.dims[i] for i in M.datum.vertices if M.dims[i]},
        "epsilon": {str(i): linalg.mat_to_json(M.eps[i])
                    for i in M.datum.vertices if M.dims[i] and not M.eps[i].is_zero()},
        "arrows": {arrow_name(key): linalg.mat_to_json(A)
                   for key, A in sorted(M.arrows.items(), key=lambda kv: str(kv[0]))
                   if not A.is_zero()},
    }
    return doc


def parse_vertex(datum, s):
    for i in datum.vertices:
        if str(i) == str(s):
            return i
    raise ValueError("unknown vertex %r" % (s,))


def _json_object(doc, key):
    """The section `key` of a module file; only a missing key or null is an
    empty one."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError("%r must be a JSON object" % key)
    return value


DIM_BOUND = 1000   # the stored benchmark towers reach 24 at a vertex


def _dim_value(v, i):
    """The dimension at vertex i from JSON: an integer from 0 to DIM_BOUND,
    or a string that int() reads as one.  The bound holds for files only:
    `symred.tilde_lift` may build larger modules."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError("dimension %r is not an integer" % (v,))
    try:
        d = int(v)
    except ValueError:
        raise ValueError("dimension %r is not an integer" % (v,)) from None
    if d < 0:
        raise ValueError("dimension %d is negative" % d)
    if d > DIM_BOUND:
        raise ValueError("dimension %d at vertex %s exceeds %d" % (d, i, DIM_BOUND))
    return d


def _mat_from_json(field, rows, cols, m, what):
    """`linalg.mat_from_json`, its error naming `what`, the loop or arrow."""
    try:
        return linalg.mat_from_json(field, rows, cols, m)
    except ValueError as exc:
        raise ValueError("%s (%s)" % (exc, what)) from None


def module_from_json(doc, datum, field=QQ):
    dims = {}
    for k, v in _json_object(doc, "dims").items():
        i = parse_vertex(datum, k)
        dims[i] = _dim_value(v, i)
    eps = {}
    for k, m in _json_object(doc, "epsilon").items():
        i = parse_vertex(datum, k)
        d = dims.get(i, 0)
        eps[i] = _mat_from_json(field, d, d, m, "loop at %s" % i)
    names = {arrow_name(key): key for key in datum.arrow_keys()}
    arrows = {}
    for k, m in _json_object(doc, "arrows").items():
        if k not in names:   # only the exact name: a_2_1_01 is not a_2_1_1
            raise ValueError("unknown arrow key %r (the arrows are %s)" % (k, list(names)))
        key = names[k]
        arrows[key] = _mat_from_json(field, dims.get(key[1], 0), dims.get(key[2], 0), m,
                                     "arrow %s" % k)
    return ModuleRep(datum, dims, eps, arrows, field)

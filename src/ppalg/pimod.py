"""Modules over the preprojective algebra and their invariants.

A module is given by one exact matrix per loop and per arrow of the double
quiver.  On top of that this file implements: relation checking, local
freeness and rank vectors, Hom and derivation spaces, Ext^1 through the
four-term sequence Hom -> Hom_T -> Der -> Ext^1, the canonical pieces
sub_i / fac_i / K_i / Q_i, the E-filtered and crystal tests, rigidity,
randomized isomorphism testing and direct-sum decomposition.

Every linear system (Hom, Hom_T, Der, the annihilator ideals of End) is
written by one builder, `_linear_system`, as `linalg` kernel rows {col: int},
never as a matrix; dimensions come from `rows_rank`, and only hom_basis,
derivation_basis and the annihilator ideals solve it by `rows_nullspace`.

`submodule`, `quotient` and `canonical_pieces` share one block-triangular
split per vertex, `_split`; it refuses (ValueError) spaces with dependent
columns or not closed under the action, and it completes a basis only where
the space is neither empty nor the identity.

`is_crystal` runs no E-filtered search: it certifies E-filtered by peeling
off a nonzero sub_i (see `is_crystal`), so its False verdicts are exact.
The backtracking search lives on in `is_E_filtered` alone.

`decompose` has one split step: split M into the generalized eigenspaces
of a random endomorphism, drawn from End(M) and then from the annihilator
ideals Ann(e_k), and recurse (see `decompose`).

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
earlier run.  Nothing is kept on the module objects: a loop over the same
modules outside a run (match_label over a pool, repeated iso_test)
recomputes each answer unless it is wrapped in `memo_run()`.

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
from .cartan import alpha_form, arrow_key, eps_key, gen_source, gen_target, symmetrized_form


class NotLocallyFree(ValueError):
    pass


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
    arrow with source j and target i.  Missing matrices default to zero.
    Instances are treated as immutable.
    """

    def __init__(self, datum, dims, eps=None, arrows=None, field=QQ):
        self.datum = datum
        self.field = field
        self.dims = {i: int(dims.get(i, 0)) for i in datum.vertices}
        if any(d < 0 for d in self.dims.values()):
            raise ValueError("negative dimension")
        self.eps = {}
        eps = eps or {}
        for i in datum.vertices:
            d = self.dims[i]
            E = eps.get(i)
            if E is None:
                E = Mat.zeros(field, d, d)
            if (E.rows, E.cols) != (d, d):
                raise ValueError("loop at %r must be %dx%d" % (i, d, d))
            self.eps[i] = E
        self.arrows = {}
        arrows = arrows or {}
        for key in datum.arrow_keys():
            _, i, j, _ = key
            A = arrows.get(key)
            if A is None:
                A = Mat.zeros(field, self.dims[i], self.dims[j])
            if (A.rows, A.cols) != (self.dims[i], self.dims[j]):
                raise ValueError("arrow %r must be %dx%d" % (key, self.dims[i], self.dims[j]))
            self.arrows[key] = A
        unknown = set(arrows) - set(datum.arrow_keys())
        if unknown:
            raise ValueError("unknown arrow keys: %r" % (sorted(unknown),))
        self._cache = {}

    def gen_mat(self, gen):
        if gen[0] == "eps":
            return self.eps[gen[1]]
        return self.arrows[gen]

    def dim_total(self):
        return sum(self.dims.values())

    def dim_vector(self):
        return tuple(self.dims[i] for i in self.datum.vertices)

    def eval_word(self, word, target):
        """The matrix of a path word (leftmost factor applied last)."""
        out = Mat.identity(self.field, self.dims[target])
        for gen in word:
            out = out * self.gen_mat(gen)
        return out

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
    nonzeros of every loop and arrow matrix; anything else is its own key."""
    if not isinstance(M, ModuleRep):
        return M
    key = M._cache.get("content")
    if key is None:
        def nonzeros(A):
            return tuple((r, c, x) for r, row in enumerate(A.data) for c, x in enumerate(row) if x)

        key = M._cache["content"] = _Content((
            M.datum, M.field, M.dim_vector(),
            tuple(nonzeros(M.eps[i]) for i in M.datum.vertices),
            tuple(nonzeros(M.arrows[k]) for k in M.datum.arrow_keys())))
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


def check_relations(M):
    """Labels of all violated defining relations (empty list when ok)."""
    bad = []
    for rel in M.datum.relations():
        total = Mat.zeros(M.field, M.dims[rel.target], M.dims[rel.source])
        for coeff, word in rel.terms:
            term = M.eval_word(word, rel.target)
            total = total + (term if coeff == 1 else term.scale(coeff))
        if not total.is_zero():
            bad.append(rel.label)
    return bad


@_memoized
def is_locally_free(M):
    """(True, rank vector) iff each vertex space is free over K[x]/(x^c_i),
    else (False, None); the rank vector is a tuple in vertex order.

    Freeness is decided from ranks of powers of the loop: all Jordan blocks
    of eps_i must have size exactly c_i.
    """
    ranks = []
    for i in M.datum.vertices:
        c = M.datum.ci(i)
        d = M.dims[i]
        if d % c:
            return False, None
        E = M.eps[i]
        P = E.power(c - 1)
        if not (P * E).is_zero():
            return False, None
        if linalg.rank(P) != d // c:
            return False, None
        ranks.append(d // c)
    return True, tuple(ranks)


def rank_vector(M):
    ok, ranks = is_locally_free(M)
    if not ok:
        raise NotLocallyFree("module is not locally free")
    return ranks


def direct_sum(M, N):
    if M.datum != N.datum:
        raise ValueError("direct sum of modules over different data")
    dims = {i: M.dims[i] + N.dims[i] for i in M.datum.vertices}
    eps = {i: linalg.block_diag([M.eps[i], N.eps[i]], M.field) for i in M.datum.vertices}
    arrows = {k: linalg.block_diag([M.arrows[k], N.arrows[k]], M.field)
              for k in M.datum.arrow_keys()}
    return ModuleRep(M.datum, dims, eps, arrows, M.field)


def zero_module(datum, field=QQ):
    return ModuleRep(datum, {}, field=field)


def generalized_simple(datum, i, field=QQ):
    """E_i: the free rank-one module over K[x]/(x^c_i), all arrows zero."""
    if i not in datum.index:
        raise KeyError("unknown vertex %r" % (i,))
    c = datum.ci(i)
    E = Mat.zeros(field, c, c)
    for r in range(1, c):
        E.data[r][r - 1] = field.one  # full nilpotent Jordan block
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


def _linear_system(field, shapes, equations):
    """(rows, nvars): the kernel rows (see `linalg`) of `equations` in the
    unknown blocks X_k of `shapes`.

    Each equation is a list of terms (coeff, k, L, R) and stands for
    sum coeff * L X_k R = 0; it contributes rows(L) x cols(R) rows, row-major
    and zero rows dropped, so all its terms must share that shape.  The
    unknowns are the blocks X_k, vec'd row by row in the layout of
    `_var_layout(shapes)`.  Over Q, L and R are scaled to integers by the
    lcm D of the equation's denominators, which scales it by D^2.
    """
    offsets, nvars = _var_layout(shapes)
    p = field.char
    rows = []
    for terms in equations:
        if not terms:
            continue
        D = 1 if p else lcm(*[x.denominator for _, _, L, R in terms for row in L.data + R.data
                              for x in row if x])
        num = (lambda x: x.v) if p else (lambda x: x.numerator * (D // x.denominator))
        _, _, L0, R0 = terms[0]
        block = [{} for _ in range(L0.rows * R0.cols)]
        for coeff, k, L, R in terms:
            # (L X R)[u][v] = sum over r, c of L[u][r] X[r][c] R[c][v]: walk
            # the nonzeros of L's rows and R's columns only
            base, width = offsets[k], shapes[k][1]
            lnz = [[(base + r * width, coeff * num(x)) for r, x in enumerate(row) if x]
                   for row in L.data]
            rnz = [[(c, num(row[v])) for c, row in enumerate(R.data) if row[v]]
                   for v in range(R.cols)]
            for u, lu in enumerate(lnz):
                if not lu:
                    continue
                for v, rv in enumerate(rnz):
                    out = block[u * R.cols + v]
                    for off, x in lu:
                        for c, y in rv:
                            out[off + c] = out.get(off + c, 0) + x * y
        rows += filter(None, (linalg.kernel_row(r, p) for r in block))
    return rows, nvars


def _kernel_basis(field, system, shapes):
    """The solutions of system = (rows, nvars), as block dicts laid out by
    `shapes` (the inverse of the `_var_layout(shapes)` flattening)."""
    ns = linalg.rows_nullspace(field, *system)
    offsets, _ = _var_layout(shapes)
    return [{key: Mat(field, r, c, [[ns.data[offsets[key] + u * c + v][k] for v in range(c)]
                                    for u in range(r)])
             for key, (r, c) in shapes.items()} for k in range(ns.cols)]


def _nullity(field, system):
    return system[1] - linalg.rows_rank(field, *system)


def _hom_equations(M, N, arrows):
    """The equations f_i M_g - N_g f_j = 0 on blocks f_i of shape N_i x M_i,
    one for every loop and for every arrow g: j -> i in `arrows`."""
    field = M.field
    gens = [eps_key(i) for i in M.datum.vertices] + list(arrows)
    return [[(1, gen_target(g), Mat.identity(field, N.dims[gen_target(g)]), M.gen_mat(g)),
             (-1, gen_source(g), N.gen_mat(g), Mat.identity(field, M.dims[gen_source(g)]))]
            for g in gens]


def _hom_system(M, N, arrows):
    """(system, shapes) of the maps M -> N commuting with the loops and `arrows`."""
    if M.datum != N.datum:
        raise ValueError("modules over different data")
    shapes = {i: (N.dims[i], M.dims[i]) for i in M.datum.vertices}
    return _linear_system(M.field, shapes, _hom_equations(M, N, arrows)), shapes


def _der_system(M, N):
    """(system, shapes) of Der(M, N): one block N_{t(a)} x M_{s(a)} per
    arrow a, and per relation its word derivative,
    sum coeff * N(prefix) delta_a M(suffix) = 0 over the arrow positions."""
    if M.datum != N.datum:
        raise ValueError("modules over different data")
    datum = M.datum
    shapes = {k: (N.dims[k[1]], M.dims[gen_source(k)]) for k in datum.arrow_keys()}
    equations = []
    for rel in datum.relations():
        if N.dims[rel.target] and M.dims[rel.source]:
            equations.append([(coeff, gen, N.eval_word(word[:p], rel.target),
                               M.eval_word(word[p + 1:], gen_source(gen)))
                              for coeff, word in rel.terms
                              for p, gen in enumerate(word) if gen[0] == "arr"])
    return _linear_system(M.field, shapes, equations), shapes


def hom_basis(M, N):
    """Basis of the intertwiner space Hom(M, N).

    Elements are dicts {vertex: matrix N_i x M_i} commuting with every loop
    and arrow action.
    """
    return _kernel_basis(M.field, *_hom_system(M, N, M.datum.arrow_keys()))


@_memoized
def hom_dim(M, N):
    return _nullity(M.field, _hom_system(M, N, M.datum.arrow_keys())[0])


def hom_t_dim(M, N):
    """dim Hom_T(M, N): the maps commuting with the loops only."""
    return _nullity(M.field, _hom_system(M, N, [])[0])


def derivation_basis(M, N):
    """Basis of the derivation space Der(M, N).

    Elements assign a matrix N_{t(a)} x M_{s(a)} to every arrow (loops get
    nothing); the defining condition is that the block-triangular module on
    N (+) M with arrow action [[N_a, delta_a], [0, M_a]] and diagonal loop
    action satisfies all relations.  The constraints are assembled from the
    word derivative of each relation.
    """
    return _kernel_basis(M.field, *_der_system(M, N))


@_memoized
def ext1_dim(M, N):
    """dim Ext^1(M, N) for locally free M, N.

    Computed through the exact sequence
    0 -> Hom(M,N) -> Hom_T(M,N) -> Der(M,N) -> Ext^1(M,N) -> 0
    with dim Hom_T(M,N) = alpha(rank M, rank N).
    """
    dM = rank_vector(M)
    dN = rank_vector(N)
    ext = _nullity(M.field, _der_system(M, N)[0]) - alpha_form(M.datum, dM, dN) + hom_dim(M, N)
    if ext < 0:
        raise ConsistencyError("negative Ext^1 dimension: %d" % ext)
    return ext


class ExtTheoremError(AssertionError):
    def __init__(self, report):
        super().__init__("Ext theorem check failed: %r" % (report,))
        self.report = report


def verify_ext_theorems(M, N):
    """Check the Ext-formula and Ext-duality on a pair of locally free modules.

    Returns the computed dimensions; raises ExtTheoremError (carrying them)
    if either identity fails.
    """
    hom_mn = hom_dim(M, N)
    hom_nm = hom_dim(N, M)
    ext_mn = ext1_dim(M, N)
    ext_nm = ext1_dim(N, M)
    pairing = symmetrized_form(M.datum, rank_vector(M), rank_vector(N))
    report = {
        "hom_mn": hom_mn, "hom_nm": hom_nm,
        "ext_mn": ext_mn, "ext_nm": ext_nm,
        "euler": pairing,
        "formula_ok": hom_mn - ext_mn + hom_nm == pairing,
        "duality_ok": ext_mn == ext_nm,
    }
    if not (report["formula_ok"] and report["duality_ok"]):
        raise ExtTheoremError(report)
    return report


# -- submodules, quotients, canonical pieces ---------------------------------

def _split(M, spaces):
    """(sub, incl, quot, proj) for the submodule spanned by `spaces`.

    `complete_basis` completes each B_i = spaces[i] (zero where missing) by
    standard basis vectors C_i, with [B_i | C_i]^-1 = [L_i; P_i].  In these
    bases every loop and arrow A: j -> i is block upper triangular: L_i A B_j
    is the submodule's matrix (the X with B_i X = A B_j), P_i A C_j the
    quotient's, and P_i A B_j = 0 is the closure check (else ValueError).

    Where B_i is empty the vertex goes whole to the quotient (C_i = P_i = I,
    L_i empty), and where B_i is the identity it goes whole to the submodule
    (L_i = I, C_i and P_i empty).  These are the RREFs of [0 | I] and
    [I | I], so there the completion and the products by B_i, C_i, L_i and
    P_i are skipped: the matrices are copies or column selections of A.
    """
    field = M.field
    incl, extra, coords, proj = {}, {}, {}, {}
    for i in M.datum.vertices:
        n = M.dims[i]
        B = incl[i] = spaces.get(i, Mat.zeros(field, n, 0))
        if B.cols == 0:
            extra[i], coords[i], proj[i] = list(range(n)), None, Mat.identity(field, n)
        elif B.cols == n and B == Mat.identity(field, n):
            extra[i], coords[i], proj[i] = [], None, Mat.zeros(field, 0, n)
        else:
            extra[i], coords[i], proj[i] = linalg.complete_basis(B)
    sub_mats, quot_mats = {}, {}
    for g in [eps_key(i) for i in M.datum.vertices] + list(M.datum.arrow_keys()):
        i, j = gen_target(g), gen_source(g)
        A = M.gen_mat(g)
        if incl[j].cols == 0:
            AB = Mat.zeros(field, A.rows, 0)
        elif coords[j] is None:   # B_j = I
            AB = A.copy()
        else:
            AB = A * incl[j]
        AC = Mat(field, A.rows, len(extra[j]), [[row[c] for c in extra[j]] for row in A.data])
        if coords[i] is not None:
            if not (proj[i] * AB).is_zero():
                raise ValueError("spaces are not closed under %r" % (g,))
            sub_mats[g], quot_mats[g] = coords[i] * AB, proj[i] * AC
        elif incl[i].cols == 0:   # whole to the quotient
            if not AB.is_zero():
                raise ValueError("spaces are not closed under %r" % (g,))
            sub_mats[g], quot_mats[g] = Mat.zeros(field, 0, AB.cols), AC
        else:                     # whole to the submodule
            sub_mats[g], quot_mats[g] = AB, Mat.zeros(field, 0, AC.cols)

    def module(mats):
        dims = {i: mats[eps_key(i)].rows for i in M.datum.vertices}
        return ModuleRep(M.datum, dims, {i: mats[eps_key(i)] for i in M.datum.vertices},
                         {k: mats[k] for k in M.datum.arrow_keys()}, M.field)

    return module(sub_mats), incl, module(quot_mats), proj


def submodule(M, spaces):
    """The submodule spanned by the given per-vertex column bases.

    `spaces[i]` must have independent columns and the spans must be closed
    under all loop and arrow actions (both checked).  Returns (module,
    inclusion maps per vertex).
    """
    sub, incl, _, _ = _split(M, spaces)
    return sub, incl


def quotient(M, spaces):
    """The quotient of M by the submodule spanned by the given bases.

    Returns (module, projection maps per vertex).  The projection uses the
    coordinates of a completed basis, so the section is the chosen
    complement; different completions give isomorphic quotients.
    """
    _, _, quot, proj = _split(M, spaces)
    return quot, proj


def _loop_powers(first, d, step):
    """[first, step(first), step(step(first)), ...] up to the first zero
    block or d blocks; by Cayley-Hamilton, a d x d loop's d-th power adds
    nothing to the span of the lower ones."""
    blocks = [first]
    while len(blocks) < d and not blocks[-1].is_zero():
        blocks.append(step(blocks[-1]))
    return blocks


def sub_space(M, i):
    """Basis of sub_i(M): the largest loop-invariant subspace of the common
    kernel of the arrows out of i.  With A the stacked outgoing arrows, that
    is the kernel of [A; A eps_i; A eps_i^2; ...], from one `nullspace`."""
    E = M.eps[i]
    A = linalg.vstack([M.arrows[k] for k in M.datum.arrow_keys() if gen_source(k) == i],
                      field=M.field, cols=M.dims[i])
    return linalg.nullspace(linalg.vstack(_loop_powers(A, M.dims[i], lambda X: X * E)))


def k_space(M, i):
    """Basis at vertex i of K_i(M): the smallest loop-invariant subspace
    containing the images of the arrows into i.  With S the incoming arrows
    side by side, that is the column space of [S | eps_i S | eps_i^2 S | ...],
    from one `column_space`; its basis is a subset of those columns."""
    E = M.eps[i]
    S = linalg.hstack([M.arrows[k] for k in M.datum.arrow_keys() if gen_target(k) == i],
                      field=M.field, rows=M.dims[i])
    return linalg.column_space(linalg.hstack(_loop_powers(S, M.dims[i], lambda X: E * X)))


@dataclass
class CanonicalPieces:
    sub: ModuleRep          # largest submodule supported at i
    sub_incl: dict
    quot: ModuleRep         # Q_i = M / sub_i
    quot_proj: dict
    ker: ModuleRep          # K_i: smallest submodule with fac_i = M / K_i
    ker_incl: dict
    fac: ModuleRep          # largest factor module supported at i
    fac_proj: dict


def canonical_pieces(M, i):
    """sub_i, fac_i, K_i, Q_i with their embeddings/projections.

    The two short exact sequences 0 -> K_i -> M -> fac_i -> 0 and
    0 -> sub_i -> M -> Q_i -> 0 are exact by construction.
    """
    k_sp = {j: Mat.identity(M.field, M.dims[j]) for j in M.datum.vertices}
    k_sp[i] = k_space(M, i)
    return CanonicalPieces(*_split(M, {i: sub_space(M, i)}), *_split(M, k_sp))


# -- E-filtered and crystal tests ---------------------------------------------

def _rank_one_candidates(M, i):
    """Generators of free rank-one loop-submodules inside sub_i(M).

    Returns column vectors v with eps_i^{c_i - 1} v != 0; v then spans,
    together with its loop images, a submodule isomorphic to E_i.
    """
    U = sub_space(M, i)
    if U.cols == 0:
        return []
    c = M.datum.ci(i)
    top = M.eps[i].power(c - 1) * U
    viable = [k for k in range(U.cols) if any(top.data[r][k] for r in range(top.rows))]
    if not viable:
        return []
    cands = [U.col(viable[0])]
    if len(viable) > 1:
        cands.append(U.col(viable[-1]))
        s = U.col(viable[0])
        for k in viable[1:]:
            s = s + U.col(k)
        cands.append(s)
    return cands


def _is_nilpotent_rep(M):
    """Whether the span of all generator images shrinks to zero (so every
    long enough path acts by zero)."""
    spaces = {i: Mat.identity(M.field, M.dims[i]) for i in M.datum.vertices}
    total = M.dim_total()
    while total:
        new = {}
        for i in M.datum.vertices:
            imgs = [M.eps[i] * spaces[i]]
            for key in M.datum.arrow_keys():
                if key[1] == i:
                    imgs.append(M.arrows[key] * spaces[gen_source(key)])
            new[i] = linalg.column_space(linalg.hstack(imgs, field=M.field, rows=M.dims[i]))
        new_total = sum(b.cols for b in new.values())
        if new_total == total:
            return False
        spaces = new
        total = new_total
    return True


def _minimal_symmetric(datum):
    return all(datum.ci(i) == 1 for i in datum.vertices)


@_memoized
def is_E_filtered(M):
    """(flag, witness) where the witness is the tuple of peeled vertices,
    bottom-up (None when the flag is False).

    Decides whether M admits a filtration with subquotients among the E_i
    by backtracking: pick a vertex i and a free rank-one loop-submodule of
    sub_i(M), pass to the quotient, recurse over all vertex choices (and a
    small set of generator choices per vertex).  With a minimal symmetrizer
    and symmetric C the property reduces to nilpotency of the
    representation, which prunes the search up front.

    True comes with its witness and is certified; a False from the search
    is not (only a few generators are tried per vertex).  `is_crystal` does
    not call this test: it certifies E-filtered by peeling instead.
    """
    ok, _ = is_locally_free(M)
    if not ok:
        return False, None
    if _minimal_symmetric(M.datum) and not _is_nilpotent_rep(M):
        return False, None
    return _efiltered_search(M)


def _efiltered_search(M):
    if M.dim_total() == 0:
        return True, ()
    for i in M.datum.vertices:
        c = M.datum.ci(i)
        for v in _rank_one_candidates(M, i):
            cols = [v]
            for _ in range(c - 1):
                cols.append(M.eps[i] * cols[-1])
            Q, _ = quotient(M, {i: linalg.hstack(cols)})
            ok, wit = _efiltered_search(Q)
            if ok:
                return True, (i,) + wit
    return False, None


@_memoized
def is_crystal(M):
    """Recursive test: E-filtered, with locally free sub_i / fac_i and
    crystal Q_i / K_i at every vertex (proper pieces only, which makes the
    recursion terminate).  Over a minimal symmetrizer with symmetric C the
    crystal and E-filtered properties coincide, which shortcuts the
    recursion entirely.  The shortcut pays: without it, criterion c3 (whose
    leclerc A5 modules take it) ran 0.75 s per pass, not 0.12 s (2 cores).

    E-filtered is certified by peeling, with no search (`is_E_filtered` is
    not called): a nonzero M passing the per-vertex tests is E-filtered iff
    some sub_i(M) is nonzero, because
      - a locally free sub_i(M) is supported at i, so it is E_i^r;
      - Q_i is crystal, hence E-filtered, and E-filtered modules are closed
        under extensions, so M is E-filtered;
      - conversely, the bottom step E_j of a filtration lies in sub_j(M).
    So every False rests on exact rank tests alone."""
    if M.dim_total() == 0:
        return True
    ok, _ = is_locally_free(M)
    if not ok:
        return False
    if _minimal_symmetric(M.datum):
        return _is_nilpotent_rep(M)
    peeled = False
    for i in M.datum.vertices:
        pieces = canonical_pieces(M, i)
        if not is_locally_free(pieces.sub)[0]:
            return False
        if not is_locally_free(pieces.fac)[0]:
            return False
        if pieces.sub.dim_total():
            if not is_crystal(pieces.quot):
                return False
            peeled = True
        if pieces.fac.dim_total() and not is_crystal(pieces.ker):
            return False
    return peeled


def is_rigid(M):
    """(rigid?, orbit codimension).  Callers must pass locally free crystal
    modules; the codimension ext^1(M,M)/2 is asserted to be an integer."""
    ext = ext1_dim(M, M)
    if ext % 2:
        raise ConsistencyError("odd self-extension dimension %d" % ext)
    return ext == 0, ext // 2


# -- randomized tools: sampling, isomorphism, decomposition -------------------

COEFF_BOUND = 10  # random coefficients are integers in [-10, 10]


def random_combination(basis, rng):
    """A random integer combination of hom/der basis elements (dict-shaped)."""
    if not basis:
        return {}
    keys = basis[0].keys()
    out = {}
    coeffs = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in basis]
    for key in keys:
        acc = basis[0][key].scale(coeffs[0])
        for c, elem in zip(coeffs[1:], basis[1:]):
            if c:
                acc = acc + elem[key].scale(c)
        out[key] = acc
    return out


def hom_is_injective(f, M):
    return all(linalg.rank(f[i]) == M.dims[i] for i in M.datum.vertices)


def hom_is_surjective(f, N):
    return all(linalg.rank(f[i]) == N.dims[i] for i in N.datum.vertices)


@_memoized
def iso_fingerprint(M):
    """A cheap isomorphism invariant: dimensions, End, and Hom against all E_i."""
    simples = [generalized_simple(M.datum, i, M.field) for i in M.datum.vertices]
    return (M.dim_vector(), hom_dim(M, M),
            tuple((hom_dim(E, M), hom_dim(M, E)) for E in simples))


def iso_test(M, N, trials=8, seed=0):
    """Decide M = N (isomorphism) with certified answers only.

    False is returned only on a mismatch of exact invariants; True only
    when an explicit invertible intertwiner is found.  If the invariants
    agree but no invertible combination shows up within `trials` samples,
    IsoInconclusive is raised (never a silent False).
    """
    if M.datum != N.datum:
        raise ValueError("modules over different data")
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
    kernel of the trace form (x, y) -> tr(xy).
    """
    h = len(endb)
    gram = Mat.zeros(M.field, h, h)
    for a in range(h):
        for b in range(a, h):
            t = M.field.zero
            for i in M.datum.vertices:
                A, B = endb[a][i], endb[b][i]
                for u in range(A.rows):
                    for v in range(A.cols):
                        if A.data[u][v] and B.data[v][u]:
                            t = t + A.data[u][v] * B.data[v][u]
            gram.data[a][b] = t
            gram.data[b][a] = t
    rad = h - linalg.rank(gram)
    return h - rad == 1


def _split_spaces(M, f):
    """Split M along the coprime factors of the char polynomial of an
    endomorphism f; returns a list of per-vertex space dicts, or None if
    the polynomial has a single irreducible factor.

    Each space is the kernel of p(f)^m for one factor p^m; together they
    must fill every vertex space (raises ConsistencyError otherwise)."""
    poly = linalg.charpoly_product(f[i] for i in M.datum.vertices)
    factors = linalg.coprime_factors(poly)
    if len(factors) <= 1:
        return None
    out = []
    for coeffs, mult in factors:
        spaces = {}
        for i in M.datum.vertices:
            spaces[i] = linalg.nullspace(linalg.eval_poly(coeffs, f[i]).power(mult))
        if sum(s.cols for s in spaces.values()) == 0:
            continue
        out.append(spaces)
    for i in M.datum.vertices:
        total = sum(s[i].cols for s in out)
        if total != M.dims[i]:
            raise ConsistencyError("split spaces at %r have total dimension %d, not %d"
                                   % (i, total, M.dims[i]))
    return out if len(out) > 1 else None


DECOMPOSE_RETRIES = 8


def _split_complement(M, spaces):
    """A retraction of M onto the submodule spanned by `spaces`, or None.

    A retraction is psi = sum_b x_b h_b over a basis h_b of Hom(M, sub) with
    psi_i incl_i = 1 at every vertex i (one `solve_matrix`); ker(psi) is then
    a direct complement, and (sub, complement) is returned as two submodules.
    """
    field = M.field
    sub, incl = submodule(M, spaces)
    hb = hom_basis(M, sub)

    def flat(f):
        return Mat.column(field, [x for i in incl for row in f[i].data for x in row])

    sol = linalg.solve_matrix(
        linalg.hstack([flat({i: h[i] * incl[i] for i in incl}) for h in hb], field=field,
                      rows=sum(d * d for d in sub.dims.values())),
        flat({i: Mat.identity(field, d) for i, d in sub.dims.items()}))
    if sol is None:
        return None
    psi = {i: sum((h[i].scale(x) for (x,), h in zip(sol.data, hb)),
                  Mat.zeros(field, sub.dims[i], M.dims[i])) for i in incl}
    comp, _ = submodule(M, {i: linalg.nullspace(psi[i]) for i in incl})
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
        raise ValueError("decompose requires the rational field")
    rng = random.Random(seed)
    return _decompose(M, rng)


def _endomorphism_sources(M, endb):
    """End(M) (the basis `endb`), then a basis of each Ann(e_k), over the
    vertices in order of increasing dimension."""
    yield endb
    field = M.field
    shapes = {i: (M.dims[i], M.dims[i]) for i in M.datum.vertices}
    hom = _hom_equations(M, M, M.datum.arrow_keys())
    for i in sorted(M.datum.vertices, key=lambda i: M.dims[i]):
        d = M.dims[i]
        for k in range(d):
            e_k = Mat.column(field, [int(r == k) for r in range(d)])
            kills = [[(1, i, Mat.identity(field, d), e_k)]]   # f_i e_k = 0
            yield _kernel_basis(field, _linear_system(field, shapes, hom + kills), shapes)


def _decompose(M, rng):
    if M.dim_total() == 0:
        return []
    endb = hom_basis(M, M)
    if len(endb) == 1 or _end_is_local(M, endb):
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
                piece, _ = submodule(M, spaces)
                out.extend(_decompose(piece, rng))
            return out
    raise DecomposeUndecided("could not split a module with non-local End "
                             "(dims %r)" % (M.dims,))


def match_label(M, pool, trials=8, seed=0):
    """The label of the pool entry isomorphic to M, or None.

    `pool` is a list of (label, module) pairs; candidates are filtered by
    fingerprint before the randomized isomorphism test runs.
    """
    for label, N in pool:
        if M.dim_vector() != N.dim_vector():
            continue
        if iso_fingerprint(M) != iso_fingerprint(N):
            continue
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
        "arrows": {"a_%s_%s_%d" % (i, j, g): linalg.mat_to_json(A)
                   for (_, i, j, g), A in sorted(M.arrows.items(), key=lambda kv: str(kv[0]))
                   if not A.is_zero()},
    }
    return doc


def parse_vertex(datum, s):
    for i in datum.vertices:
        if str(i) == str(s):
            return i
    raise ValueError("unknown vertex %r" % (s,))


def _json_object(doc, key):
    value = doc.get(key) or {}
    if not isinstance(value, dict):
        raise ValueError("%r must be a JSON object" % key)
    return value


def _dim_value(v):
    """A dimension from JSON: an integer, or a string that int() reads."""
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise ValueError("dimension %r is not an integer" % (v,))
    return int(v)


def module_from_json(doc, datum, field=QQ):
    dims = {parse_vertex(datum, k): _dim_value(v) for k, v in _json_object(doc, "dims").items()}
    eps = {}
    for k, m in _json_object(doc, "epsilon").items():
        i = parse_vertex(datum, k)
        d = dims.get(i, 0)
        eps[i] = linalg.mat_from_json(field, d, d, m)
    arrows = {}
    for k, m in _json_object(doc, "arrows").items():
        parts = k.split("_")
        if len(parts) != 4 or parts[0] != "a":
            raise ValueError("bad arrow key %r (expected a_<target>_<source>_<g>)" % (k,))
        i = parse_vertex(datum, parts[1])
        j = parse_vertex(datum, parts[2])
        g = int(parts[3])
        key = arrow_key(i, j, g)
        if key not in set(datum.arrow_keys()):
            raise ValueError("arrow %r does not exist in the double quiver" % (k,))
        arrows[key] = linalg.mat_from_json(field, dims.get(i, 0), dims.get(j, 0), m)
    return ModuleRep(datum, dims, eps, arrows, field)

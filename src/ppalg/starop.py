"""The generic-extension operation * and its divisions: one cokernel search,
whose image under module duality (`pimod.dual`) is the kernel.

For rigid crystal inputs the product is certified through the short exact
sequence lemma: any exact sequence 0 -> M2 -> M -> M1 -> 0 of rigid crystal
modules pins the product of the corresponding components, so a rigid middle
term found by sampling derivation classes settles the answer exactly.  For
non-rigid inputs there is no algorithmic membership test for generic pairs,
so results carry an explicit "heuristic" flag; genericity is approximated
by minimizing dim Ext^1 of the candidate with itself (semicontinuity).
Each sampled class goes straight to `extension_module(top, sub, delta)`,
which builds its middle term from the two modules and the derivation.
Every search draws straight from the kernel matrix of its
`pimod.KernelBasis`, so a draw builds one derivation or map, not the basis.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import linalg, pimod
from .cartan import gen_source, gen_target
from .linalg import Mat
from .pimod import ModuleRep


class InvalidDerivation(ValueError):
    """The given arrow tuple is not a derivation (relation residual != 0)."""


class DivisionUndefined(RuntimeError):
    """No generic embedding/surjection was found; the division is undefined."""


class NoTrials(ValueError):
    """A product or division search was given fewer than one trial, so it
    draws nothing and has nothing to return."""


class RankMismatch(ValueError):
    """A division whose sub (or top) has a rank vector exceeding the ambient
    module's at some vertex: no embedding (or surjection) exists, so the
    division answers nothing, as `DivisionUndefined` does."""


def extension_module(top, sub, delta):
    """The middle term of the extension of `top` (quotient) by `sub` with
    derivation `delta` (arrow key -> sub_dims[target] x top_dims[source]
    matrix; a missing key is zero, and a key that is not an arrow raises
    ValueError).

    Lives on the vertex-wise direct sum sub_i (+) top_i; each generator g
    acts by [[sub_g, delta_g], [0, top_g]], with delta_g = 0 on the loops
    (derivations have no loop component), written by one `linalg._stack`
    of its blocks (a stack of a zero block is cheap, so none is left out).
    The relations of the result are re-checked and InvalidDerivation is
    raised on a nonzero residual.
    """
    pimod.check_pair(top, sub)
    datum, fld = top.datum, top.field
    unknown = set(delta) - set(datum.arrow_keys())
    if unknown:
        raise ValueError("derivation keys that are not arrows: %r" % (sorted(unknown, key=repr),))
    mats = {}
    for g in datum.generators():
        i, j = gen_target(g), gen_source(g)
        blocks, place = [sub.gen_mat(g), top.gen_mat(g)], [(0, 0), (sub.dims[i], sub.dims[j])]
        d = delta.get(g)
        if d is not None:
            if (d.rows, d.cols) != (sub.dims[i], top.dims[j]):
                raise ValueError("derivation block %r must be %dx%d"
                                 % (g, sub.dims[i], top.dims[j]))
            blocks.append(d)
            place.append((0, sub.dims[j]))
        mats[g] = linalg._stack(blocks, fld, sub.dims[i] + top.dims[i],
                                sub.dims[j] + top.dims[j], place)
    mid = ModuleRep.from_generators(datum, mats, fld)
    bad = pimod.check_relations(mid)
    if bad:
        raise InvalidDerivation("not a derivation; violated relations: %r" % (bad,))
    return mid


@dataclass
class StarResult:
    """A computed product, with the witnessing short exact sequence."""

    module: ModuleRep
    top: ModuleRep
    sub: ModuleRep
    delta: dict
    ext_self: int               # dim Ext^1 of the middle term with itself
    flags: tuple
    seed: int
    trials: int

    @property
    def certified(self):
        """Lemma-certified (rigid inputs, rigid middle): no flag was raised."""
        return not self.flags

    @property
    def rigid(self):
        """Whether the middle term is rigid."""
        return self.ext_self == 0

    @property
    def inject(self):
        """The embedding [I; 0] of the sub into the middle term, per vertex."""
        fld = self.module.field
        return {i: linalg.vstack([Mat.identity(fld, d), Mat.zeros(fld, self.top.dims[i], d)])
                for i, d in self.sub.dims.items()}

    @property
    def project(self):
        """The projection [0 I] of the middle term onto the top, per vertex."""
        fld = self.module.field
        return {i: linalg.hstack([Mat.zeros(fld, d, self.sub.dims[i]), Mat.identity(fld, d)])
                for i, d in self.top.dims.items()}


def _least_self_ext(basis, build, trials, seed, keep=None):
    """The first (ext_self, x, build(x)) of least dim Ext^1 of build(x) with
    itself over `trials` draws x from `basis` (a rigid one ends the search);
    draws failing `keep` are skipped, and None is returned if all are."""
    rng = random.Random(seed)
    best = None
    for _ in range(trials):
        x = pimod.random_combination(basis, rng)
        if keep is not None and not keep(x):
            continue
        M = build(x)
        ext_self = pimod.ext1_dim(M, M)
        if best is None or ext_self < best[0]:
            best = (ext_self, x, M)
        if ext_self == 0:
            break
    return best


def generic_extension(top, sub, trials=8, seed=0):
    """The product of (the components of) two crystal modules.

    Samples `trials` derivation classes, builds each middle term, and keeps
    the sample minimizing dim Ext^1 with itself (ties: first occurrence).
    With rigid inputs and a rigid middle term the result is exact by the
    short-exact-sequence lemma; otherwise it is flagged.  Raises NoTrials
    (a ValueError) when `trials` is below 1: with no draw there is no product.
    """
    if trials < 1:
        raise NoTrials("product not certified: %d trials draw no derivation class" % trials)
    ext_self, delta, mid = _least_self_ext(
        pimod.derivation_basis(top, sub), lambda d: extension_module(top, sub, d), trials, seed)
    top_rigid, _ = pimod.is_rigid(top)
    sub_rigid, _ = pimod.is_rigid(sub)
    flags = []
    if not (top_rigid and sub_rigid):
        flags.append("heuristic - component membership not certified")
    elif ext_self != 0:
        flags.append("product possibly non-rigid")
    return StarResult(
        module=mid, top=top, sub=sub, delta=delta, ext_self=ext_self,
        flags=tuple(flags), seed=seed, trials=trials)


def star(top, sub, trials=8, seed=0):
    """Shorthand for generic_extension(top, sub).module."""
    return generic_extension(top, sub, trials=trials, seed=seed).module


def generic_cokernel(mid, sub, trials=8, seed=0):
    """The generic cokernel of embeddings of `sub` into `mid`.

    Samples hom space elements, keeps the injective ones, and returns the
    first cokernel minimizing dim Ext^1 with itself (a rigid one ends the
    search).  The result is checked to be E-filtered (cokernels of
    monomorphisms between crystal modules are).  Raises RankMismatch when
    no embedding can exist and NoTrials (a ValueError) when `trials` is
    below 1.  Dividing by the zero module gives `mid` back: the zero map,
    the empty draw {}, is injective on it.
    """
    return _cokernel_search(mid, sub, trials, seed, "sub", "embedding")


def generic_kernel(top, mid, trials=8, seed=0):
    """The generic kernel of surjections from `mid` onto `top`: the dual of
    the generic cokernel of embeddings top^v -> mid^v (see `pimod.dual`),
    whose errors name the surjection and the top."""
    return pimod.dual(_cokernel_search(pimod.dual(mid), pimod.dual(top), trials, seed,
                                       "top", "surjection"))


def _cokernel_search(mid, sub, trials, seed, part, drawn):
    """The search of both divisions; its errors call `sub` the `part` and its maps `drawn`."""
    if any(a < b for a, b in zip(pimod.rank_vector(mid), pimod.rank_vector(sub))):
        raise RankMismatch("rank vector of the %s exceeds the ambient module" % part)
    if trials < 1:
        raise NoTrials("division undefined: %d trials draw no %s" % (trials, drawn))
    best = _least_self_ext(pimod.hom_basis(sub, mid),
                           lambda f: pimod.quotient(mid, f),   # injective => independent columns
                           trials, seed, keep=lambda f: pimod.hom_is_injective(f, sub))
    if best is None:
        raise DivisionUndefined("division undefined (no generic %s found)" % drawn)
    if not pimod.is_E_filtered(best[2])[0]:
        raise pimod.ConsistencyError(
            "cokernel of a monomorphism between crystal modules failed the E-filtered test")
    return best[2]


@dataclass
class TableCell:
    """One product of `star_table`, which keys it by (row label, col label)."""

    labels: tuple        # decomposition of the product, as pool labels
    split: bool          # product is row (+) col
    certified: bool
    error: str = ""


def star_table(entries, extra_pool=(), trials=8, seed=0):
    """The square table of pairwise products of a list of rigid modules.

    `entries` is a list of (label, module) pairs; row = top (quotient),
    column = sub.  Each product is decomposed and matched against the input
    list plus `extra_pool`; summands not matching anything are labeled by
    their rank vector and End/Ext fingerprint.  A cell whose iso test is
    inconclusive or whose decomposition is undecided records that error; an
    internal fault (`pimod.ConsistencyError`) is raised, not recorded.
    """
    pool = list(entries) + list(extra_pool)
    cells = {}
    for rl, M in entries:
        for cl, N in entries:
            try:
                res = generic_extension(M, N, trials=trials, seed=seed)
                labels = _cell_labels(res.module, rl, M, cl, N, pool, trials, seed)
                split = sorted([rl, cl]) == labels
                cells[(rl, cl)] = TableCell(tuple(labels), split, res.certified)
            except (pimod.IsoInconclusive, pimod.DecomposeUndecided) as exc:
                cells[(rl, cl)] = TableCell((), False, False, str(exc))
    return cells


def _cell_labels(mid, rl, M, cl, N, pool, trials, seed):
    # certify a split cell directly; kept for time only: `_decomposed_labels`
    # finds the same labels (tested at seeds 0-3), but serial run_criteria
    # seeds 0-7 then took 3.13 s of CPU, not 2.87 s (medians of 5)
    try:
        if pimod.iso_test(mid, pimod.direct_sum(M, N), trials=trials, seed=seed):
            return sorted([rl, cl])
    except pimod.IsoInconclusive:
        pass
    return _decomposed_labels(mid, pool, trials, seed)


def _decomposed_labels(mid, pool, trials, seed):
    """The sorted labels of mid's summands: a pool entry's, else `anonymous_label`."""
    named = [(pimod.match_label(x, pool, trials=trials, seed=seed), x)
             for x in pimod.decompose(mid, seed=seed)]
    return sorted(anonymous_label(x) if name is None else name for name, x in named)


def anonymous_label(M):
    """A stable descriptive label for a module with no catalog match."""
    rk = pimod.rank_vector(M) if pimod.is_locally_free(M)[0] else None
    end = pimod.hom_dim(M, M)
    ext = pimod.ext1_dim(M, M) if rk is not None else -1
    return "anon(dims=%s,rank=%s,end=%d,ext=%d)" % (
        list(M.dim_vector()), list(rk) if rk else "?", end, ext)


def check_cancellation(entries, trials=8, seed=0):
    """Verify left/right cancellation of * across a list of rigid modules.

    For each fixed factor R the maps X -> X * R and X -> R * X must be
    injective up to isomorphism on the list; any collision is reported with
    its witness pair.
    """
    # both sides read one table of products, table[t][s] = T * S
    table = [[star(T, S, trials=trials, seed=seed) for _, S in entries] for _, T in entries]
    collisions = []
    comparisons = 0
    for side in ("right", "left"):
        for r, (rl, _) in enumerate(entries):
            products = [(xl, table[x][r] if side == "right" else table[r][x])
                        for x, (xl, _) in enumerate(entries)]
            for (al, A), (bl, B) in itertools.combinations(products, 2):
                comparisons += 1
                if pimod.iso_test(A, B, trials=trials, seed=seed):
                    collisions.append({"side": side, "fixed": rl, "pair": (al, bl)})
    return {"comparisons": comparisons, "collisions": collisions,
            "ok": not collisions}

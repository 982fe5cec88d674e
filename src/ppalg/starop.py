"""The generic-extension operation * and its kernel/cokernel divisions.

For rigid crystal inputs the product is certified through the short exact
sequence lemma: any exact sequence 0 -> M2 -> M -> M1 -> 0 of rigid crystal
modules pins the product of the corresponding components, so a rigid middle
term found by sampling derivation classes settles the answer exactly.  For
non-rigid inputs there is no algorithmic membership test for generic pairs,
so results carry an explicit "heuristic" flag; genericity is approximated
by minimizing dim Ext^1 of the candidate with itself (semicontinuity).
Each sampled class goes straight to `extension_module(top, sub, delta)`,
which builds its middle term from the two modules and the derivation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg, pimod
from .linalg import Mat
from .pimod import ModuleRep


class InvalidDerivation(ValueError):
    """The given arrow tuple is not a derivation (relation residual != 0)."""


class DivisionUndefined(RuntimeError):
    """No generic embedding/surjection was found; the division is undefined."""


def extension_module(top, sub, delta):
    """The middle term of the extension of `top` (quotient) by `sub` with
    derivation `delta` (arrow key -> sub_dims[target] x top_dims[source]
    matrix; a missing key is zero).

    Lives on the vertex-wise direct sum sub_i (+) top_i; arrows act by
    [[sub_a, delta_a], [0, top_a]], loops act diagonally (derivations have
    no loop component).  Returns (module, inject, project) where inject
    embeds the sub and project maps onto the top; the relations of the
    result are re-checked and InvalidDerivation is raised on a nonzero
    residual.
    """
    if top.datum != sub.datum:
        raise ValueError("extension of modules over different data")
    datum = top.datum
    fld = top.field
    dims = {i: sub.dims[i] + top.dims[i] for i in datum.vertices}
    eps = {i: linalg.block_diag([sub.eps[i], top.eps[i]], fld) for i in datum.vertices}
    arrows = {}
    for key in datum.arrow_keys():
        _, i, j, _ = key
        d = delta.get(key)
        if d is None:
            d = Mat.zeros(fld, sub.dims[i], top.dims[j])
        if (d.rows, d.cols) != (sub.dims[i], top.dims[j]):
            raise ValueError("derivation block %r must be %dx%d" % (key, sub.dims[i], top.dims[j]))
        A = Mat.zeros(fld, dims[i], dims[j])
        for u in range(sub.dims[i]):
            A.data[u][:sub.dims[j]] = sub.arrows[key].data[u][:]
            A.data[u][sub.dims[j]:] = d.data[u][:]
        for u in range(top.dims[i]):
            A.data[sub.dims[i] + u][sub.dims[j]:] = top.arrows[key].data[u][:]
        arrows[key] = A
    mid = ModuleRep(datum, dims, eps, arrows, fld)
    bad = pimod.check_relations(mid)
    if bad:
        raise InvalidDerivation("not a derivation; violated relations: %r" % (bad,))
    inject = {}
    project = {}
    for i in datum.vertices:
        inc = Mat.zeros(fld, dims[i], sub.dims[i])
        for u in range(sub.dims[i]):
            inc.data[u][u] = fld.one
        prj = Mat.zeros(fld, top.dims[i], dims[i])
        for u in range(top.dims[i]):
            prj.data[u][sub.dims[i] + u] = fld.one
        inject[i] = inc
        project[i] = prj
    return mid, inject, project


@dataclass
class StarResult:
    """A computed product, with the witnessing short exact sequence."""

    module: ModuleRep
    top: ModuleRep
    sub: ModuleRep
    delta: dict
    inject: dict
    project: dict
    ext_self: int               # dim Ext^1 of the middle term with itself
    rigid: bool                 # middle term rigid
    certified: bool             # lemma-certified (rigid inputs, rigid middle)
    flags: tuple
    seed: int
    trials: int


def generic_extension(top, sub, trials=8, seed=0):
    """The product of (the components of) two crystal modules.

    Samples `trials` derivation classes, builds each middle term, and keeps
    the sample minimizing dim Ext^1 with itself (ties: first occurrence).
    With rigid inputs and a rigid middle term the result is exact by the
    short-exact-sequence lemma; otherwise it is flagged.
    """
    derb = pimod.derivation_basis(top, sub)
    rng = random.Random(seed)
    best = None
    for _ in range(max(1, trials)):
        delta = pimod.random_combination(derb, rng)
        mid, inject, project = extension_module(top, sub, delta)
        ext_self = pimod.ext1_dim(mid, mid)
        if best is None or ext_self < best[0]:
            best = (ext_self, delta, mid, inject, project)
        if ext_self == 0:
            break
    ext_self, delta, mid, inject, project = best
    top_rigid, _ = pimod.is_rigid(top)
    sub_rigid, _ = pimod.is_rigid(sub)
    flags = []
    if not (top_rigid and sub_rigid):
        flags.append("heuristic - component membership not certified")
    elif ext_self != 0:
        flags.append("product possibly non-rigid")
    return StarResult(
        module=mid, top=top, sub=sub, delta=delta,
        inject=inject, project=project,
        ext_self=ext_self, rigid=(ext_self == 0),
        certified=(top_rigid and sub_rigid and ext_self == 0),
        flags=tuple(flags), seed=seed, trials=trials)


def star(top, sub, trials=8, seed=0):
    """Shorthand for generic_extension(top, sub).module."""
    return generic_extension(top, sub, trials=trials, seed=seed).module


def _generic_division(hb, keep, piece, trials, seed, map_name, piece_name):
    """The divisions' search: the first `piece(f)` of least dim Ext^1 with
    itself over `trials` draws f from `hb` passing `keep`; raises unless E-filtered."""
    rng = random.Random(seed)
    best = None
    for _ in range(max(1, trials)):
        f = pimod.random_combination(hb, rng)
        if not f or not keep(f):
            continue
        P = piece(f)
        ext_self = pimod.ext1_dim(P, P)
        if best is None or ext_self < best[0]:
            best = (ext_self, P)
        if ext_self == 0:
            break
    if best is None:
        raise DivisionUndefined("division undefined (no generic %s found)" % map_name)
    ok, _ = pimod.is_E_filtered(best[1])
    if not ok:
        raise pimod.ConsistencyError("%s between crystal modules failed the E-filtered test"
                                     % piece_name)
    return best[1]


def generic_cokernel(mid, sub, trials=8, seed=0):
    """The generic cokernel of embeddings of `sub` into `mid`.

    Samples hom space elements, keeps the injective ones, and returns the
    first cokernel minimizing dim Ext^1 with itself (a rigid one ends the
    search).  The result is checked to be E-filtered (cokernels of
    monomorphisms between crystal modules are).
    """
    rkM = pimod.rank_vector(mid)
    rkS = pimod.rank_vector(sub)
    if any(a < b for a, b in zip(rkM, rkS)):
        raise ValueError("rank vector of the sub exceeds the ambient module")
    return _generic_division(
        pimod.hom_basis(sub, mid), lambda f: pimod.hom_is_injective(f, sub),
        lambda f: pimod.quotient(mid, f)[0],   # injective => independent columns
        trials, seed, "embedding", "cokernel of a monomorphism")


def generic_kernel(top, mid, trials=8, seed=0):
    """The generic kernel of surjections from `mid` onto `top` (dual of
    generic_cokernel); the result is checked to be E-filtered."""
    return _generic_division(
        pimod.hom_basis(mid, top), lambda f: pimod.hom_is_surjective(f, top),
        lambda f: pimod.submodule(mid, {i: linalg.nullspace(f[i]) for i in f})[0],
        trials, seed, "surjection", "kernel of an epimorphism")


@dataclass
class TableCell:
    row: str
    col: str
    labels: tuple        # decomposition of the product, as pool labels
    split: bool          # product is row (+) col
    certified: bool
    flags: tuple
    error: str = ""


def star_table(entries, extra_pool=(), trials=8, seed=0):
    """The square table of pairwise products of a list of rigid modules.

    `entries` is a list of (label, module) pairs; row = top (quotient),
    column = sub.  Each product is decomposed and matched against the input
    list plus `extra_pool`; summands not matching anything are labeled by
    their rank vector and End/Ext fingerprint.  Per-cell errors are
    recorded, not raised.
    """
    pool = list(entries) + list(extra_pool)
    cells = {}
    for rl, M in entries:
        for cl, N in entries:
            try:
                res = generic_extension(M, N, trials=trials, seed=seed)
                labels = _cell_labels(res.module, rl, M, cl, N, pool, trials, seed)
                split = sorted([rl, cl]) == labels
                cells[(rl, cl)] = TableCell(rl, cl, tuple(labels), split,
                                            res.certified, res.flags)
            except (pimod.IsoInconclusive, pimod.DecomposeUndecided,
                    pimod.ConsistencyError, DivisionUndefined) as exc:
                cells[(rl, cl)] = TableCell(rl, cl, (), False, False, (), str(exc))
    return cells


def _cell_labels(mid, rl, M, cl, N, pool, trials, seed):
    # certify a split cell directly; kept for time only: decompose finds the
    # same labels (run_criteria reports at seeds 0-3 are unchanged without it),
    # but perfbench criteria then took 7.07 s, not 6.61 s (medians, 2 cores)
    try:
        if pimod.iso_test(mid, pimod.direct_sum(M, N), trials=trials, seed=seed):
            return sorted([rl, cl])
    except pimod.IsoInconclusive:
        pass
    labels = []
    for piece in pimod.decompose(mid, seed=seed):
        name = pimod.match_label(piece, pool, trials=trials, seed=seed)
        labels.append(anonymous_label(piece) if name is None else name)
    labels.sort()
    return labels


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
            for a in range(len(products)):
                for b in range(a + 1, len(products)):
                    comparisons += 1
                    same = pimod.iso_test(products[a][1], products[b][1],
                                          trials=trials, seed=seed)
                    if same:
                        collisions.append({"side": side, "fixed": rl,
                                           "pair": (products[a][0], products[b][0])})
    return {"comparisons": comparisons, "collisions": collisions,
            "ok": not collisions}

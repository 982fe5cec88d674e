"""Change of symmetrizer for symmetric Cartan matrices.

Pairs the algebra with minimal symmetrizer ("small side", loops act by
zero) with the one whose symmetrizer is n times minimal ("big side").
`reduce_module` kills the image of the loops, `tilde_lift` replaces a
module by n shifted copies; both preserve rank vectors, and reduction of
a product of lifts agrees with the product downstairs.  None of this works
for non-symmetric C (the mesh relation would pick up loop factors), so the
constructors refuse such input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg, pimod, starop
from .cartan import CartanDatum, validate_datum
from .linalg import Mat
from .pimod import ModuleRep


class SymmetrizerError(ValueError):
    """The symmetrizer reduction does not apply to the given data."""


class NotCertified(SymmetrizerError):
    """A non-rigid input or an uncertified product in
    `verify_symmetrizer_compat`: the comparison cannot be certified, a failed
    verification rather than data the reduction does not apply to."""


@dataclass(frozen=True)
class SymPair:
    base: CartanDatum   # symmetric C with minimal symmetrizer (all ones)
    n: int
    big: CartanDatum    # same C and orientation, symmetrizer n * ones


def sym_pair(base, n):
    """Validated pair of data (C, D) and (C, nD) for symmetric connected C."""
    if not base.is_symmetric():
        raise SymmetrizerError("the Cartan matrix must be symmetric")
    if any(c != 1 for c in base.sym):
        raise SymmetrizerError("the base datum must carry the minimal symmetrizer")
    if not _connected(base):
        raise SymmetrizerError("the Cartan matrix must be connected")
    if n < 1:
        raise SymmetrizerError("n must be a positive integer")
    big = validate_datum([list(r) for r in base.cartan], [n] * base.n(),
                         [tuple(p) for p in base.orient], base.vertices)
    return SymPair(base, n, big)


def _connected(datum):
    verts = list(datum.vertices)
    seen = {verts[0]}
    queue = [verts[0]]
    while queue:
        i = queue.pop()
        for j in verts:
            if j not in seen and datum.c(i, j) != 0:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(verts)


def reduce_module(pair, M):
    """The quotient of a big-side module by the image of all loops.

    The result lives over the small side: loops become zero, arrows descend
    (they commute with the loops since all f_ij = 1), and the rank vector
    is preserved.
    """
    if M.datum != pair.big:
        raise ValueError("module is not defined over the big side of the pair")
    ok, _ = pimod.is_locally_free(M)
    if not ok:
        raise pimod.NotLocallyFree("reduction requires a locally free module")
    spaces = {i: linalg.column_space(M.eps[i]) for i in pair.big.vertices}
    quot = pimod.quotient(M, spaces)
    for i in pair.big.vertices:
        assert quot.eps[i].is_zero()  # losing the loop action is the point
    return ModuleRep(pair.base, quot.dims, {}, quot.arrows, M.field)


def tilde_lift(pair, M):
    """The big-side module on n = pair.n copies of M with the loop acting by shift.

    Arrows act diagonally (one copy each); the loop sends copy k to copy
    k+1 and kills the last.  Requires symmetric C: the construction breaks
    otherwise because the mesh relation would involve the loops.  The lift
    is locally free with rank vector the dimension vector of M, and lifts
    of crystal modules are crystal.
    """
    if M.datum != pair.base:
        raise ValueError("module is not defined over the base side of the pair")
    if not pair.base.is_symmetric():
        raise SymmetrizerError("tilde lift requires a symmetric Cartan matrix")
    n = pair.n
    fld = M.field
    dims = {i: n * M.dims[i] for i in pair.big.vertices}
    eps = {}
    for i in pair.big.vertices:
        d = M.dims[i]
        # copy k to copy k + 1: row r >= d has its one at column r - d
        eps[i] = Mat.from_form(fld, n * d, n * d, 1, [{r - d: 1} if r >= d else {}
                                                        for r in range(n * d)])
    arrows = {key: linalg.block_diag([M.arrows[key]] * n, fld) for key in pair.big.arrow_keys()}
    return ModuleRep(pair.big, dims, eps, arrows, fld)


def verify_symmetrizer_compat(pair, M1, M2, trials=8, seed=0):
    """Check that reduction intertwines the product operations.

    Computes A = reduce(tilde(M1) * tilde(M2)) and B = M1 * M2 for rigid
    crystal base-side modules and asserts A = B up to isomorphism.  Any
    heuristic (non-certified) sub-step aborts with "not certified".
    """
    for M in (M1, M2):
        rigid, _ = pimod.is_rigid(M)
        if not rigid:
            raise NotCertified("not certified: inputs must be rigid")
    lifted = starop.generic_extension(tilde_lift(pair, M1), tilde_lift(pair, M2),
                                      trials=trials, seed=seed)
    if not lifted.certified:
        raise NotCertified("not certified: big-side product %r" % (lifted.flags,))
    down = starop.generic_extension(M1, M2, trials=trials, seed=seed)
    if not down.certified:
        raise NotCertified("not certified: base-side product %r" % (down.flags,))
    A = reduce_module(pair, lifted.module)
    agree = pimod.iso_test(A, down.module, trials=max(trials, 8), seed=seed)
    return {
        "n": pair.n,
        "reduced_rank": list(pimod.rank_vector(A)),
        "base_rank": list(pimod.rank_vector(down.module)),
        "agree": bool(agree),
    }

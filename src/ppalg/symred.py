"""Change of symmetrizer for symmetric Cartan matrices.

Moves modules between the algebra with minimal symmetrizer ("small side",
loops act by zero) and the one whose symmetrizer is n times minimal ("big
side").  `tilde_lift(M, n)` replaces a module by n shifted copies over
`M.datum.scaled(n)`; `reduce_module(M)` kills the image of the loops and
lands over `M.datum.scaled(1)`, n being the common symmetrizer entry of
M's datum.  Both preserve rank vectors, and reduction of a product of
lifts agrees with the product downstairs.  None of this works for
non-symmetric C (the mesh relation would pick up loop factors), so both
refuse such input.
"""

from __future__ import annotations

from . import linalg, pimod, starop
from .cartan import DatumError
from .linalg import Mat
from .pimod import ModuleRep


class SymmetrizerError(ValueError):
    """The symmetrizer reduction does not apply to the given data."""


class NotCertified(SymmetrizerError):
    """A non-rigid input or an uncertified product in
    `verify_symmetrizer_compat`: the comparison cannot be certified, a failed
    verification rather than data the reduction does not apply to."""


def _connected(datum):
    seen = {0}
    queue = [0]
    while queue:
        row = datum.cartan[queue.pop()]
        for b, c in enumerate(row):
            if c and b not in seen:
                seen.add(b)
                queue.append(b)
    return len(seen) == len(datum.cartan)


def reduce_module(M):
    """The quotient of a module over (C, nD) by the image of all loops.

    D is the minimal symmetrizer, all ones, so M's symmetrizer must be a
    multiple of the identity and C symmetric and connected.  The result
    lives over (C, D): loops become zero, arrows descend (they commute with
    the loops since all f_ij = 1), and the rank vector is preserved.
    """
    big = M.datum
    if len(set(big.sym)) != 1:
        raise SymmetrizerError("symmetrizer is not a multiple of the identity")
    if not big.is_symmetric():
        raise SymmetrizerError("the Cartan matrix must be symmetric")
    if not _connected(big):
        raise SymmetrizerError("the Cartan matrix must be connected")
    ok, _ = pimod.is_locally_free(M)
    if not ok:
        raise pimod.NotLocallyFree("reduction requires a locally free module")
    spaces = {i: linalg.column_space(M.eps[i]) for i in big.vertices}
    quot = pimod.quotient(M, spaces)
    for i in big.vertices:
        assert quot.eps[i].is_zero()  # losing the loop action is the point
    return ModuleRep(big.scaled(1), quot.dims, {}, quot.arrows, M.field)


def tilde_lift(M, n):
    """The module over (C, nD) on n copies of M with the loop acting by shift.

    M is over (C, D) with C symmetric and connected and D minimal (all
    ones), and n >= 1.  Arrows act diagonally (one copy each); the loop
    sends copy k to copy k+1 and kills the last.  The construction breaks
    for non-symmetric C because the mesh relation would involve the loops.
    The lift is locally free with rank vector the dimension vector of M,
    and lifts of crystal modules are crystal.
    """
    base = M.datum
    if not base.is_symmetric():
        raise SymmetrizerError("the Cartan matrix must be symmetric")
    if any(c != 1 for c in base.sym):
        raise SymmetrizerError("the base datum must carry the minimal symmetrizer")
    if not _connected(base):
        raise SymmetrizerError("the Cartan matrix must be connected")
    if n < 1:
        raise SymmetrizerError("n must be a positive integer")
    try:
        big = base.scaled(n)
    except DatumError as exc:   # n above the symmetrizer bound
        raise SymmetrizerError("the n-fold datum is invalid (%s): %s" % (exc.code, exc)) from None
    fld = M.field
    dims = {i: n * M.dims[i] for i in big.vertices}
    eps = {}
    for i in big.vertices:
        d = M.dims[i]
        # copy k to copy k + 1: row r >= d has its one at column r - d
        eps[i] = Mat.from_form(fld, n * d, n * d, 1, [{r - d: 1} if r >= d else {}
                                                        for r in range(n * d)])
    arrows = {key: linalg.block_diag([M.arrows[key]] * n, fld) for key in big.arrow_keys()}
    return ModuleRep(big, dims, eps, arrows, fld)


def verify_symmetrizer_compat(M1, M2, n, trials=8, seed=0):
    """Check that reduction intertwines the product operations.

    Computes A = reduce(tilde(M1) * tilde(M2)) and B = M1 * M2 for rigid
    crystal small-side modules and asserts A = B up to isomorphism.  Data
    that `tilde_lift` refuses are refused first; any heuristic
    (non-certified) sub-step aborts with "not certified".
    """
    lifts = [tilde_lift(M, n) for M in (M1, M2)]
    for M in (M1, M2):
        rigid, _ = pimod.is_rigid(M)
        if not rigid:
            raise NotCertified("not certified: inputs must be rigid")
    lifted = starop.generic_extension(*lifts, trials=trials, seed=seed)
    if not lifted.certified:
        raise NotCertified("not certified: big-side product %r" % (lifted.flags,))
    down = starop.generic_extension(M1, M2, trials=trials, seed=seed)
    if not down.certified:
        raise NotCertified("not certified: base-side product %r" % (down.flags,))
    A = reduce_module(lifted.module)
    agree = pimod.iso_test(A, down.module, trials=max(trials, 8), seed=seed)
    return {
        "n": n,
        "reduced_rank": list(pimod.rank_vector(A)),
        "base_rank": list(pimod.rank_vector(down.module)),
        "agree": bool(agree),
    }

"""Built-in certified example modules.

Provides the generalized simples, the rank-two pair with its non-split
extensions, the six non-projective indecomposable rigid modules of the
rank-two datum with c = (2,1) together with its full 6x6 product table,
and the rank-five one-parameter family with two-dimensional cross-Hom
spaces ("leclerc" entries).

Labels read top layer to socle, layers separated by "/"; several digits in
one layer mean several composition factors, e.g. "2/12/1".  The larger
rank-two modules are bootstrapped through the product operation and
certified (rigid + indecomposable) before they are admitted, which removes
matrix-transcription risk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from . import pimod, starop
from .cartan import validate_datum
from .linalg import QQ, Mat
from .pimod import ModuleRep


class CatalogError(RuntimeError):
    """A catalog entry failed one of its certification gates."""


@dataclass(frozen=True)
class CatalogEntry:
    label: str
    module: ModuleRep
    locally_free: bool
    crystal: bool
    rigid: bool
    indecomposable: bool

    def flags(self):
        return {"locally_free": self.locally_free, "crystal": self.crystal,
                "rigid": self.rigid, "indecomposable": self.indecomposable}


def a2_datum():
    return validate_datum([[2, -1], [-1, 2]], [1, 1], [(1, 2)])


def b2_datum():
    """The rank-two datum in the table convention: c = (2, 1)."""
    return validate_datum([[2, -1], [-2, 2]], [2, 1], [(1, 2)])


def b2_relabeled_datum():
    """The same situation with vertices relabeled: c = (1, 2)."""
    return validate_datum([[2, -2], [-1, 2]], [1, 2], [(1, 2)])


def a_type_datum(n):
    """Type A_n with minimal symmetrizer and linear orientation."""
    C = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(n)] for i in range(n)]
    return validate_datum(C, [1] * n, [(i, i + 1) for i in range(1, n)])


def _certify(label, M, seed=0):
    if pimod.check_relations(M):
        raise CatalogError("%s: defining relations violated" % label)
    lf, _ = pimod.is_locally_free(M)
    if not lf:
        raise CatalogError("%s: not locally free" % label)
    crystal = pimod.is_crystal(M)
    if not crystal:
        raise CatalogError("%s: not a crystal module" % label)
    rigid, _ = pimod.is_rigid(M)
    pieces = pimod.decompose(M, seed=seed)
    if len(pieces) != 1:
        raise CatalogError("%s: decomposes into %d summands" % (label, len(pieces)))
    return CatalogEntry(label, M, lf, crystal, rigid, True)


@dataclass(frozen=True)
class B2Suite:
    datum: object
    entries: tuple         # the six non-projective indecomposable rigids
    extras: tuple          # additional indecomposables appearing in the table
    expected_table: MappingProxyType   # read-only: (row label, col label) -> sorted label tuple


@pimod._memoized
def b2_suite(trials=8, seed=0):
    """The six rank-two catalog modules plus the expected 6x6 product table.

    E1 and E2 are explicit; the four larger indecomposables are bootstrapped
    as products of smaller entries and certified rigid + indecomposable.
    The expected table transcribes all 36 cells; a split cell expands to
    {row label, col label}.  Two further indecomposables show up inside the
    table ("1/21/12/1" and "2/1/1/2"); they are certified and returned as
    extras so table results can be named.  Memoized per `pimod.memo_run`,
    so one `selftest.run_criteria` pass builds each distinct suite once and
    every caller in the run gets the same object: its table is read-only,
    and its modules must not be changed.
    """
    datum = b2_datum()
    E1 = pimod.generalized_simple(datum, 1)
    E2 = pimod.generalized_simple(datum, 2)

    def boot(label, top, sub):
        res = starop.generic_extension(top, sub, trials=trials, seed=seed)
        if not res.certified:
            raise CatalogError("%s: product not certified (%r)" % (label, res.flags))
        return _certify(label, res.module, seed=seed)

    e1 = _certify("1/1", E1, seed=seed)
    e2 = _certify("2", E2, seed=seed)
    m3 = boot("1/1/2", E1, E2)
    m4 = boot("2/1/1", E2, E1)
    m5 = boot("2/12/1", E2, m4.module)
    m6 = boot("1/21/2", m3.module, E2)
    big = boot("1/21/12/1", m3.module, m4.module)
    proj = boot("2/1/1/2", m4.module, E2)
    entries = [e1, e2, m3, m4, m5, m6]
    for k in range(len(entries)):
        for l in range(k + 1, len(entries)):
            if pimod.iso_test(entries[k].module, entries[l].module, seed=seed):
                raise CatalogError("catalog entries %s and %s are isomorphic"
                                   % (entries[k].label, entries[l].label))

    P, R = "1/21/12/1", "2/1/1/2"
    raw = {
        ("1/1", "1/1"): "+", ("1/1", "2"): ["1/1/2"], ("1/1", "1/1/2"): "+",
        ("1/1", "2/1/1"): "+", ("1/1", "2/12/1"): [P], ("1/1", "1/21/2"): ["1/1/2", "1/1/2"],
        ("2", "1/1"): ["2/1/1"], ("2", "2"): "+", ("2", "1/1/2"): [R],
        ("2", "2/1/1"): ["2/12/1"], ("2", "2/12/1"): "+", ("2", "1/21/2"): "+",
        ("1/1/2", "1/1"): "+", ("1/1/2", "2"): ["1/21/2"], ("1/1/2", "1/1/2"): "+",
        ("1/1/2", "2/1/1"): [P], ("1/1/2", "2/12/1"): [P, "2"], ("1/1/2", "1/21/2"): "+",
        ("2/1/1", "1/1"): "+", ("2/1/1", "2"): [R], ("2/1/1", "1/1/2"): ["1/1", R],
        ("2/1/1", "2/1/1"): "+", ("2/1/1", "2/12/1"): "+", ("2/1/1", "1/21/2"): [R, "1/1/2"],
        ("2/12/1", "1/1"): ["2/1/1", "2/1/1"], ("2/12/1", "2"): "+",
        ("2/12/1", "1/1/2"): ["2/1/1", R], ("2/12/1", "2/1/1"): "+",
        ("2/12/1", "2/12/1"): "+", ("2/12/1", "1/21/2"): [R, R],
        ("1/21/2", "1/1"): [P], ("1/21/2", "2"): "+", ("1/21/2", "1/1/2"): "+",
        ("1/21/2", "2/1/1"): [P, "2"], ("1/21/2", "2/12/1"): [P, "2", "2"],
        ("1/21/2", "1/21/2"): "+",
    }
    expected = {}
    for (rl, cl), val in raw.items():
        labels = [rl, cl] if val == "+" else list(val)
        expected[(rl, cl)] = tuple(sorted(labels))
    assert len(expected) == 36
    return B2Suite(datum, tuple(entries), (big, proj), MappingProxyType(expected))


@dataclass
class A2Suite:
    datum: object
    s1: CatalogEntry
    s2: CatalogEntry
    expected: dict   # name -> sorted tuple of labels


def a2_suite(trials=8, seed=0):
    """The rank-one pair over the symmetric rank-two datum, with the expected
    (decomposed) values of both bracketings of the triple product."""
    datum = a2_datum()
    s1 = _certify("1", pimod.generalized_simple(datum, 1), seed=seed)
    s2 = _certify("2", pimod.generalized_simple(datum, 2), seed=seed)
    expected = {
        "s1*s2": ("1/2",),
        "s2*s1": ("2/1",),
        "(s1*s2)*s1": tuple(sorted(["1/2", "1"])),
        "s1*(s2*s1)": tuple(sorted(["2/1", "1"])),
    }
    return A2Suite(datum, s1, s2, expected)


def a2_nonsplit(top, sub, trials=8, seed=0):
    """The non-split extension of one simple by the other (labels "1/2", "2/1")."""
    res = starop.generic_extension(top, sub, trials=trials, seed=seed)
    if not res.certified:
        raise CatalogError("non-split extension not certified")
    return res.module


def leclerc_datum():
    return a_type_datum(5)


def leclerc_module(lam, mu):
    """A member of the rank-five family with dimension vector (1,2,2,2,1).

    (lam, mu) != (0, 0) are genuine projective coordinates: scaling both by
    a nonzero constant gives an isomorphic module, distinct points give
    non-isomorphic modules with two-dimensional Hom spaces, and every
    member has a three-dimensional local endomorphism ring.

    Layout: vertices 2 and 4 carry top/bottom coordinates, vertex 3 two
    copies; the top copies map by 2 -> 1, 4 -> 5 and into the two copies of
    3; the bottom copies receive (1 a): 3 -> 2, (1 b): 3 -> 4, 1 -> 2, and
    b: 5 -> 4, where [a:b] = [lam + 2 mu : 3 lam + mu].  The coefficient on
    5 -> 4 is forced by the mesh relation at vertex 4 (under the linear
    orientation); the fixed projective coordinate change keeps the standard
    sample points [1:0], [0:1], [1:1] away from the two degenerate members
    of the family (those with a simple submodule at vertex 3, at a/b = 1,
    or with a vanishing 5 -> 4 arrow, at b = 0), so the generic
    self-extension of each sample member has a rigid middle term.
    """
    lam = Fraction(lam)
    mu = Fraction(mu)
    if lam == 0 and mu == 0:
        raise ValueError("(lam, mu) must not be (0, 0)")
    lam, mu = lam + 2 * mu, 3 * lam + mu
    datum = leclerc_datum()
    dims = {1: 1, 2: 2, 3: 2, 4: 2, 5: 1}
    arrows = {
        ("arr", 1, 2, 1): Mat.from_rows(QQ, [[1, 0]]),
        ("arr", 2, 1, 1): Mat.from_rows(QQ, [[0], [1]]),
        ("arr", 3, 2, 1): Mat.from_rows(QQ, [[1, 0], [0, 0]]),
        ("arr", 2, 3, 1): Mat.from_rows(QQ, [[0, 0], [1, lam]]),
        ("arr", 3, 4, 1): Mat.from_rows(QQ, [[0, 0], [1, 0]]),
        ("arr", 4, 3, 1): Mat.from_rows(QQ, [[0, 0], [1, mu]]),
        ("arr", 4, 5, 1): Mat.from_rows(QQ, [[0], [mu]]),
        ("arr", 5, 4, 1): Mat.from_rows(QQ, [[1, 0]]),
    }
    M = ModuleRep(datum, dims, {}, arrows, QQ)
    bad = pimod.check_relations(M)
    if bad:
        raise CatalogError("family member violates %r; transcription bug" % (bad,))
    return M


LECLERC_DEFAULT = ((1, 0), (0, 1), (1, 1))


def leclerc_label(lam, mu):
    return "leclerc[%s:%s]" % (lam, mu)


def leclerc_suite():
    """The default three family members, certified crystal (not rigid)."""
    datum = leclerc_datum()
    entries = []
    for lam, mu in LECLERC_DEFAULT:
        M = leclerc_module(lam, mu)
        label = leclerc_label(lam, mu)
        if not pimod.is_crystal(M):
            raise CatalogError("%s: not a crystal module" % label)
        rigid, _ = pimod.is_rigid(M)
        entries.append(CatalogEntry(label, M, True, True, rigid, True))
    return datum, entries


def all_entries(trials=8, seed=0):
    """Every catalog entry under a suite-qualified label, for the CLI."""
    out = []
    a2 = a2_suite(trials=trials, seed=seed)
    out.append(("a2:1", a2.s1))
    out.append(("a2:2", a2.s2))
    b2 = b2_suite(trials=trials, seed=seed)
    for e in b2.entries + b2.extras:
        out.append(("b2:%s" % e.label, e))
    _, lec = leclerc_suite()
    for e in lec:
        out.append(("a5:%s" % e.label, e))
    return out

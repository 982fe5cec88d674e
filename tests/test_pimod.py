import json
import random
import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from ppalg import catalog, linalg, pimod, selftest, starop, symred
from ppalg.cartan import (alpha_form, arrow_name, default_orientation, eps_key, gen_source,
                          gen_target, minimal_symmetrizer, symmetrized_form, validate_datum)
from ppalg.linalg import QQ, Mat
from ppalg.pimod import (ModuleRep, NotLocallyFree,
                         canonical_pieces, check_relations, decompose,
                         derivation_basis, direct_sum, ext1_dim,
                         generalized_simple, hom_basis, hom_dim, is_crystal,
                         is_E_filtered, is_locally_free, is_rigid, iso_test,
                         rank_vector, verify_ext_theorems)
from ppalg.selftest import random_tower


@pytest.fixture(scope="module")
def a2():
    return catalog.a2_datum()


@pytest.fixture(scope="module")
def b2():
    return catalog.b2_datum()


@pytest.fixture(scope="module")
def b2_mods(b2):
    E1 = generalized_simple(b2, 1)
    E2 = generalized_simple(b2, 2)
    M3 = starop.star(E1, E2, seed=0)   # socle E2, top E1
    return E1, E2, M3


def elements(basis):
    """Every element of a `KernelBasis`, unflattened from its kernel matrix."""
    K = basis.kernel
    return pimod._unflatten(basis.field, basis.shapes, K.den, K.nz, K.cols)


# -- independent oracle: Ext^1 through the connecting map Hom_T -> Der --------

def hom_t_basis(M, N):
    """Per-vertex loop-commuting maps, as dicts of matrices."""
    field = M.field
    out = []
    for i in M.datum.vertices:
        dM, dN = M.dims[i], N.dims[i]
        rows = []
        for u in range(dN):
            for v in range(dM):
                row = [field.zero] * (dN * dM)
                for r in range(dM):
                    a = M.eps[i].data[r][v]
                    if a:
                        row[u * dM + r] += a
                for r in range(dN):
                    b = N.eps[i].data[u][r]
                    if b:
                        row[r * dM + v] -= b
                rows.append(row)
        A = Mat(field, len(rows), dN * dM, rows) if rows else Mat.zeros(field, 0, dN * dM)
        for k in range(linalg.nullspace(A).cols):
            ns = linalg.nullspace(A)
            vec = [ns.data[r][k] for r in range(dN * dM)]
            f = {j: Mat.zeros(field, N.dims[j], M.dims[j]) for j in M.datum.vertices}
            f[i] = Mat(field, dN, dM, [vec[u * dM:(u + 1) * dM] for u in range(dN)])
            out.append(f)
    return out


def ext1_dim_oracle(M, N):
    """dim Ext^1 as dim Der - rank(connecting map), avoiding the alpha
    formula entirely, over the modules' field."""
    derb = elements(derivation_basis(M, N))
    homt = hom_t_basis(M, N)
    arrows = M.datum.arrow_keys()

    def flatten(delta):
        out = []
        for a in arrows:
            out.extend(x for row in delta[a].data for x in row)
        return out

    images = []
    for f in homt:
        delta = {}
        for a in arrows:
            _, i, j, _ = a
            delta[a] = N.arrows[a] * f[j] + (f[i] * M.arrows[a]).scale(-1)
        images.append(flatten(delta))
    A = Mat(M.field, len(images), len(flatten(derb[0])) if derb else
            sum(N.dims[a[1]] * M.dims[a[2]] for a in arrows), images) \
        if images else None
    rank = linalg.rank(A) if A is not None else 0
    return len(derb) - rank


class TestBasics:
    def test_relations_of_simples(self, b2):
        for i in b2.vertices:
            assert check_relations(generalized_simple(b2, i)) == []

    def test_zero_module_ok(self, b2):
        assert check_relations(pimod.zero_module(b2)) == []

    def test_nilpotency_violation(self):
        datum = catalog.b2_relabeled_datum()  # c = (1, 2)
        M = ModuleRep(datum, {2: 2}, {2: Mat.identity(QQ, 2)}, {})
        assert "nilpotency@2" in check_relations(M)

    def test_locally_free_simples(self, b2):
        E1 = generalized_simple(b2, 1)
        ok, ranks = is_locally_free(E1)
        assert ok and ranks == (1, 0)

    def test_not_locally_free_small_block(self, b2):
        M = ModuleRep(b2, {1: 1}, {}, {})  # c_1 = 2 but the loop is zero on 1 dim
        assert is_locally_free(M) == (False, None)
        assert is_E_filtered(M) == (False, None)
        assert not is_crystal(M)

    def test_not_locally_free_loop_power(self, b2):
        # d = 2 is divisible by c_1 = 2, but eps_1^2 = diag(1, 0) != 0
        M = ModuleRep(b2, {1: 2}, {1: Mat.from_rows(QQ, [[1, 0], [0, 0]])}, {})
        assert is_locally_free(M) == (False, None)

    def test_not_locally_free_jordan_type(self, b2):
        # eps_1^2 = 0 on d = 4, but rank eps_1 = 1: blocks of sizes 2, 1, 1
        E = Mat.from_rows(QQ, [[0, 1, 0, 0], [0] * 4, [0] * 4, [0] * 4])
        M = ModuleRep(b2, {1: 4}, {1: E}, {})
        assert is_locally_free(M) == (False, None)

    def test_direct_sum_ranks_add(self, b2_mods):
        E1, E2, M3 = b2_mods
        S = direct_sum(E1, M3)
        assert rank_vector(S) == (2, 1)
        assert check_relations(S) == []

    def test_direct_sum_datum_mismatch(self, a2, b2):
        with pytest.raises(ValueError):
            direct_sum(generalized_simple(a2, 1), generalized_simple(b2, 1))

    @pytest.mark.parametrize("eps, arrows, message", [
        ({1: Mat.zeros(QQ, 1, 1)}, {}, "loop at 1 must be 2x2"),
        ({}, {("arr", 2, 1, 1): Mat.zeros(QQ, 2, 1)}, "arrow ('arr', 2, 1, 1) must be 1x2"),
        ({}, {("arr", 2, 1, 2): Mat.zeros(QQ, 1, 2)}, "unknown arrow keys: [('arr', 2, 1, 2)]"),
    ], ids=["loop-shape", "arrow-shape", "unknown-arrow"])
    def test_module_refuses_bad_generator_matrices(self, b2, eps, arrows, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            ModuleRep(b2, {1: 2, 2: 1}, eps, arrows)


class TestHomAndExt:
    def test_end_of_simple_is_ci(self, b2):
        assert hom_dim(generalized_simple(b2, 1), generalized_simple(b2, 1)) == 2
        assert hom_dim(generalized_simple(b2, 2), generalized_simple(b2, 2)) == 1

    def test_disjoint_support(self, a2):
        S1, S2 = generalized_simple(a2, 1), generalized_simple(a2, 2)
        assert hom_dim(S1, S2) == 0

    def test_hom_additivity(self, b2_mods):
        E1, E2, M3 = b2_mods
        lhs = hom_dim(direct_sum(E1, E2), M3)
        assert lhs == hom_dim(E1, M3) + hom_dim(E2, M3)

    def test_a2_derivations_and_ext(self, a2):
        S1, S2 = generalized_simple(a2, 1), generalized_simple(a2, 2)
        assert len(derivation_basis(S1, S2)) == 1
        assert ext1_dim(S1, S2) == 1
        assert ext1_dim(S1, S1) == 0

    def test_b2_derivations(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        assert len(derivation_basis(E1, E2)) == 2
        assert len(derivation_basis(E1, E1)) == 0
        assert ext1_dim(E1, E2) == 2

    def test_ext_requires_locally_free(self, b2):
        M = ModuleRep(b2, {1: 1}, {}, {})
        with pytest.raises(NotLocallyFree):
            ext1_dim(M, M)

    def test_verify_ext_theorems_b2(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        report = verify_ext_theorems(E1, E2)
        assert report["hom_mn"] - report["ext_mn"] + report["hom_nm"] == -2
        assert report["euler"] == -2
        assert report["duality_ok"]

    def test_ext_theorem_failure_is_reported(self, b2, monkeypatch):
        """A wrong Ext^1 dimension disagrees with the Der route: `verify_ext_theorems`
        raises with the report, and criterion c4 fails listing it."""
        real = pimod.ext1_dim
        monkeypatch.setattr(pimod, "ext1_dim", lambda M, N: real(M, N) + 1)
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        with pytest.raises(pimod.ExtTheoremError) as exc:
            verify_ext_theorems(E1, E2)
        assert exc.value.report["der_ok"] is False
        assert exc.value.report["formula_ok"] is exc.value.report["duality_ok"] is True
        result = selftest.criterion_ext_theorems(seed=0)
        assert result["passed"] is False
        failures = result["details"]["failures"]
        assert failures and all(f["report"]["der_ok"] is False for f in failures)

    def test_ext_theorems_are_checked_on_the_der_route(self, b2, monkeypatch):
        """A fault in one direction of `ext1_dim_der` breaks the Ext-formula
        and Ext-duality, which are checked on the Der route's values."""
        real = pimod.ext1_dim_der
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        monkeypatch.setattr(pimod, "ext1_dim_der", lambda M, N: real(M, N) + (M is E1))
        with pytest.raises(pimod.ExtTheoremError) as exc:
            verify_ext_theorems(E1, E2)
        report = exc.value.report
        assert report["der_mn"] == report["ext_mn"] + 1 and report["der_nm"] == report["ext_nm"]
        assert report["formula_ok"] is report["duality_ok"] is report["der_ok"] is False

    def test_ext_against_connecting_map_oracle(self, a2, b2):
        rng = random.Random(21)
        for datum in (a2, b2):
            for _ in range(10):
                M = random_tower(datum, rng.randint(1, 3), rng)
                N = random_tower(datum, rng.randint(1, 3), rng)
                assert ext1_dim(M, N) == ext1_dim_oracle(M, N)

    def test_hom_t_dimension_is_alpha(self, b2):
        rng = random.Random(22)
        for _ in range(6):
            M = random_tower(b2, rng.randint(1, 3), rng)
            N = random_tower(b2, rng.randint(1, 3), rng)
            assert len(hom_t_basis(M, N)) == alpha_form(b2, rank_vector(M), rank_vector(N))


# Cartan matrix and symmetrizer of data beyond A2/B2: G2, C3 and the affine
# datum with c_12 = c_21 = -2 (two arrows each way)
_WIDER_DATA = {
    "G2": ([[2, -3], [-1, 2]], [1, 3]),
    "C3": ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], [2, 2, 1]),
    "A1~": ([[2, -2], [-2, 2]], [1, 1]),
}


@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank_m=st.integers(1, 3), rank_n=st.integers(1, 3))
def test_hom_basis_commutes_and_ext_formula(name, seed, rank_m, rank_n):
    C, D = _WIDER_DATA[name]
    datum = validate_datum(C, D, default_orientation(C))
    rng = random.Random(seed)
    M = random_tower(datum, rank_m, rng)
    N = random_tower(datum, rank_n, rng)
    hb = hom_basis(M, N)
    for f in elements(hb):
        for i in datum.vertices:
            assert f[i] * M.eps[i] == N.eps[i] * f[i]
        for key in datum.arrow_keys():
            _, i, j, _ = key
            assert f[i] * M.arrows[key] == N.arrows[key] * f[j]
    derb = derivation_basis(M, N)
    for delta in elements(derb):  # raises InvalidDerivation on a relation residual
        starop.extension_module(M, N, delta)
    dM, dN = rank_vector(M), rank_vector(N)
    alpha = alpha_form(datum, dM, dN)
    ext = ext1_dim(M, N)
    assert pimod.hom_t_dim(M, N) == alpha
    assert hom_dim(M, N) == len(hb)
    assert len(derb) == ext + alpha - len(hb)
    assert ext == ext1_dim_oracle(M, N)
    assert len(hb) - ext + hom_dim(N, M) == symmetrized_form(datum, dM, dN)
    report = verify_ext_theorems(M, N)   # raises ExtTheoremError on a failed identity
    assert report["formula_ok"] and report["duality_ok"]


def _defect(datum, i, rng, field):
    """A one-dimensional representation at vertex i that is not locally free:
    the zero loop where c_i >= 2, else (and at random) the loop 1, which
    breaks the nilpotency relation."""
    loop = 1 if datum.ci(i) == 1 else rng.choice([0, 1])
    return ModuleRep(datum, {i: 1}, {i: Mat.from_rows(field, [[loop]])}, {}, field)


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["B2"] + sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank_m=st.integers(1, 4), rank_n=st.integers(1, 4),
       field=st.sampled_from([QQ, linalg.GF(32003)]),
       free=st.sampled_from(["both", "source only", "target only"]))
def test_hom_dim_matches_full_system(name, seed, rank_m, rank_n, field, free):
    """hom_dim against the nullity of the full loop-and-arrow system, on
    towers conjugated so that the loops are not in Jordan form and entries
    have denominators, over Q and GF(32003).  A module that is not locally
    free gets a one-dimensional summand that is not, before conjugation:
    the free-generator route runs exactly when the target is locally free,
    and with both locally free it has alpha(rank M, rank N) unknowns."""
    datum = catalog.b2_datum() if name == "B2" else _wider(name)
    rng = random.Random(seed)
    M, N = [random_tower(datum, r, rng) for r in (rank_m, rank_n)]
    if free != "both":
        X = _defect(datum, rng.choice(datum.vertices), rng, QQ)
        if free == "source only":
            M = direct_sum(M, X)
        else:
            N = direct_sum(N, X)
    M, N = [_conjugate(T, {i: _random_invertible(rng, T.dims[i]) for i in datum.vertices})
            for T in (M, N)]
    M, N = [pimod.module_from_json(pimod.module_to_json(T), datum, field) for T in (M, N)]
    assert is_locally_free(M)[0] == (free != "source only")
    assert is_locally_free(N)[0] == (free != "target only")
    free_systems = []
    build = pimod._hom_system

    def spy(M, N, arrows, ranks=None):
        system = build(M, N, arrows, ranks)
        if ranks is not None:
            free_systems.append(system)
        return system

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pimod, "_hom_system", spy)
        got = hom_dim.__wrapped__(M, N)
    assert got == pimod._nullity(field, pimod._hom_system(M, N, datum.arrow_keys())[0])
    assert len(free_systems) == (free != "target only")
    if free == "target only":
        return
    (rows, nvars), shapes = free_systems[0]
    if free == "both":
        assert nvars == sum(s * m for s, m in shapes.values()) \
            == alpha_form(datum, rank_vector(M), rank_vector(N))
    # each solution Z is a homomorphism f_i = sum_k eps_N^k G_i Z_i eps_M^(c_i-1-k)
    for Z in elements(pimod._kernel_basis(field, (rows, nvars), shapes)):
        f = {}
        for i in datum.vertices:
            c = datum.ci(i)
            G = linalg.pivot_columns(N.eps[i].power(c - 1))
            f[i] = Mat.zeros(field, N.dims[i], M.dims[i])
            for k in range(c):
                f[i] = f[i] + N.eps[i].power(k).columns(G) * Z[i] * M.eps[i].power(c - 1 - k)
        for g in datum.generators():
            assert f[gen_target(g)] * M.gen_mat(g) == N.gen_mat(g) * f[gen_source(g)]


# -- the system builder against the dense builder it replaced ------------------

def form_mat(A):
    """A rebuilt from its form, den and nz, as dense rows of Fractions."""
    return Mat(A.field, A.rows, A.cols,
               [[Fraction(row.get(c, 0), A.den) for c in range(A.cols)] for row in A.nz])


def exact_rows(A):
    """A's dense rows as exact numbers: Fractions over Q, residues over GF(p)."""
    return [list(row) for row in A.data]


def dense_linear_system(field, shapes, equations):
    """The reference for `pimod._linear_system`: the system of `equations`
    as one dense `Mat`, summed on the exact dense rows of their factors, one
    nvars-wide row per entry of each equation, zero rows kept.  A factor
    None is the identity on its side of the block, built explicitly."""
    offsets, nvars = pimod._var_layout(shapes)
    equations = [[(coeff, k, Mat.identity(field, shapes[k][0]) if L is None else L,
                   Mat.identity(field, shapes[k][1]) if R is None else R)
                  for coeff, k, L, R in terms] for terms in equations]
    rows = []
    for terms in equations:
        if not terms:
            continue
        _, _, L0, R0 = terms[0]
        block = [[0] * nvars for _ in range(L0.rows * R0.cols)]
        for coeff, k, L, R in terms:
            base, width = offsets[k], shapes[k][1]
            lnz = [[(base + r * width, coeff * x) for r, x in enumerate(row) if x]
                   for row in exact_rows(L)]
            rnz = [[(c, row[v]) for c, row in enumerate(exact_rows(R)) if row[v]]
                   for v in range(R.cols)]
            for u, lu in enumerate(lnz):
                if not lu:
                    continue
                for v, rv in enumerate(rnz):
                    out = block[u * R.cols + v]
                    for off, x in lu:
                        for c, y in rv:
                            out[off + c] += x * y
        rows.extend(block)
    return Mat(field, len(rows), nvars, rows) if rows else Mat.zeros(field, 0, nvars)


def kernel_rows_of(A):
    """The nonzero rows of the dense A as kernel rows: over Q scaled to
    primitive integer rows, over GF(p) their residues."""
    out = []
    for row in A.data:
        if A.field is QQ:
            den = lcm(*(x.denominator for x in row))
            r = {c: int(x * den) for c, x in enumerate(row) if x}
            g = gcd(*r.values())
            r = {c: v // g for c, v in r.items()}
        else:
            r = {c: x for c, x in enumerate(row) if x}
        if r:
            out.append(r)
    return out


def systems_built_by(*calls):
    """(field, shapes, equations) of every system the calls hand to the builder."""
    seen = []
    build = pimod._linear_system

    def record(field, shapes, equations):
        seen.append((field, shapes, equations))
        return build(field, shapes, equations)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pimod, "_linear_system", record)
        for call in calls:
            call()
    return seen


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank_m=st.integers(1, 3), rank_n=st.integers(1, 3), modular=st.booleans())
def test_linear_system_matches_dense_reference(name, seed, rank_m, rank_n, modular):
    """On towers conjugated to have denominators, over Q and GF(32003): the
    Hom systems, full and over free generators, and the Hom_T and Der
    systems come out as the reference's nonzero rows in kernel form, with
    the reference's rank and nullspace."""
    datum = _wider(name)
    rng = random.Random(seed)
    M, N = [_conjugate(T, {i: _random_invertible(rng, T.dims[i]) for i in datum.vertices})
            for T in (random_tower(datum, rank_m, rng), random_tower(datum, rank_n, rng))]
    if modular:
        M, N = [pimod.module_from_json(pimod.module_to_json(T), datum, linalg.GF(32003))
                for T in (M, N)]
    systems = systems_built_by(lambda: hom_basis(M, N), lambda: hom_dim.__wrapped__(M, N),
                               lambda: pimod.hom_t_dim(M, N), lambda: derivation_basis(M, N))
    assert len(systems) == 4
    for field, shapes, equations in systems:
        ref = dense_linear_system(field, shapes, equations)
        rows, nvars = pimod._linear_system(field, shapes, equations)
        assert nvars == ref.cols
        assert rows == kernel_rows_of(ref)
        assert linalg.rows_rank(field, [dict(r) for r in rows], nvars) == linalg.rank(ref)
        assert linalg.rows_nullspace(field, rows, nvars) == linalg.nullspace(ref)


# -- word products and the relation check against dense references ------------

def eval_word(M, word, target):
    """The reference for `pimod._word`: the dense matrix of a path word,
    leftmost factor applied last (the identity at `target` when empty)."""
    out = Mat.identity(M.field, M.dims[target])
    for gen in word:
        out = out * M.gen_mat(gen)
    return out


def dense_check_relations(M):
    """The reference for `check_relations`: each relation summed as dense
    matrices of field elements."""
    bad = []
    for rel in M.datum.relations():
        total = Mat.zeros(M.field, M.dims[rel.target], M.dims[rel.source])
        for coeff, word in rel.terms:
            term = eval_word(M, word, rel.target)
            total = total + (term if coeff == 1 else term.scale(coeff))
        if not total.is_zero():
            bad.append(rel.label)
    return bad


def _perturbed(M, gen, r, c, t):
    """M with t added to entry (r, c) of the loop or arrow `gen`."""
    A = M.gen_mat(gen)
    A = A + Mat(M.field, A.rows, A.cols, [[t if (u, v) == (r, c) else 0 for v in range(A.cols)]
                                          for u in range(A.rows)])
    eps = {i: A if gen == eps_key(i) else E for i, E in M.eps.items()}
    arrows = {k: A if k == gen else B for k, B in M.arrows.items()}
    return ModuleRep(M.datum, M.dims, eps, arrows, M.field)


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank=st.integers(2, 4), modular=st.booleans())
def test_words_and_relations_match_dense_references(name, seed, rank, modular):
    """On towers conjugated to have denominators, over Q and GF(32003):
    `_word` is the dense product of every relation word and of each of its
    nonempty prefixes and suffixes (over GF(p) its rows hold residues), and
    `check_relations` gives the dense reference's labels, on the tower and
    on the tower with one entry of an arrow (or, with no nonzero arrow, of
    a loop) changed.  Adding t != 0 on the diagonal of a loop gives it
    trace t, so it is no longer nilpotent: that perturbation must violate
    the relations."""
    datum = _wider(name)
    rng = random.Random(seed)
    T = random_tower(datum, rank, rng)
    M = _conjugate(T, {i: _random_invertible(rng, T.dims[i]) for i in datum.vertices})
    if modular:
        M = pimod.module_from_json(pimod.module_to_json(M), datum, linalg.GF(32003))
    for rel in datum.relations():
        for _, word in rel.terms:
            for k in range(len(word) + 1):
                suffix_target = gen_target(word[k]) if k < len(word) else rel.source
                for part, target in ((word[:k], rel.target), (word[k:], suffix_target)):
                    if not part:
                        continue
                    got, want = pimod._word(M, part), eval_word(M, part, target)
                    assert form_mat(got) == got == want
                    if modular:
                        assert got.den == 1 and all(0 < x < 32003 for row in got.nz
                                                    for x in row.values())
    assert check_relations(M) == dense_check_relations(M) == []

    t = Fraction(rng.choice([-1, 1]) * rng.randint(1, 3), rng.randint(1, 3))
    arrows = [k for k, A in M.arrows.items() if A.rows and A.cols]
    gen = rng.choice(arrows or [eps_key(i) for i in datum.vertices if M.dims[i]])
    A = M.gen_mat(gen)
    bad = _perturbed(M, gen, rng.randrange(A.rows), rng.randrange(A.cols), t)
    assert check_relations(bad) == dense_check_relations(bad)
    i = rng.choice([i for i in datum.vertices if M.dims[i]])
    r = rng.randrange(M.dims[i])
    bad = _perturbed(M, eps_key(i), r, r, t)
    labels = check_relations(bad)
    assert labels == dense_check_relations(bad) and "nilpotency@%r" % (i,) in labels


# -- the Hom, Hom_T and Der systems against their definitions -------------------

def definition_hom_equations(M, N, arrows, ranks=None):
    """(shapes, equations) of the Hom system as `_hom_system`'s docstring
    defines it: every loop and arrow term, each identity factor an explicit
    identity matrix, the k = 0 left factor eps_N^0 G_i a product, and no
    term or equation left out."""
    field = M.field
    shapes, maps, equations = {}, {}, []
    for a, i in enumerate(M.datum.vertices):
        I_N, I_M = Mat.identity(field, N.dims[i]), Mat.identity(field, M.dims[i])
        if ranks is None:
            shapes[i], maps[i] = (N.dims[i], M.dims[i]), [(I_N, I_M)]
            equations.append([(1, i, I_N, M.eps[i]), (-1, i, N.eps[i], I_M)])
            continue
        c = M.datum.ci(i)
        shapes[i] = (ranks[a], M.dims[i])
        G = I_N.columns(linalg.pivot_columns(N.eps[i].power(c - 1)))
        maps[i] = [(N.eps[i].power(k) * G, M.eps[i].power(c - 1 - k)) for k in range(c)]
        equations.append([(1, i, Mat.identity(field, ranks[a]), M.eps[i].power(c))])
    for g in arrows:
        t, s = gen_target(g), gen_source(g)
        equations.append([(1, t, L, R * M.arrows[g]) for L, R in maps[t]]
                         + [(-1, s, N.arrows[g] * L, R) for L, R in maps[s]])
    return shapes, equations


def definition_der_equations(M, N):
    """(shapes, equations) of the Der system: per relation, every arrow
    position of every word, the prefix and suffix as dense products."""
    shapes = {k: (N.dims[k[1]], M.dims[gen_source(k)]) for k in M.datum.arrow_keys()}
    equations = [[(coeff, gen, eval_word(N, word[:p], rel.target),
                   eval_word(M, word[p + 1:], gen_source(gen)))
                  for coeff, word in rel.terms for p, gen in enumerate(word) if gen[0] == "arr"]
                 for rel in M.datum.relations()]
    return shapes, equations


def assert_systems_match_definitions(M, N):
    """The Hom system (full, and over free generators where N is locally
    free), the Hom_T system and the Der system give the definition's kernel
    rows, in the same order."""
    arrows = M.datum.arrow_keys()
    cases = [(pimod._hom_system(M, N, arrows), definition_hom_equations(M, N, arrows)),
             (pimod._hom_system(M, N, []), definition_hom_equations(M, N, [])),
             (pimod._der_system(M, N), definition_der_equations(M, N))]
    ok, ranks = is_locally_free(N)
    if ok:
        cases.append((pimod._hom_system(M, N, arrows, ranks),
                      definition_hom_equations(M, N, arrows, ranks)))
    for ((rows, nvars), shapes), (ref_shapes, equations) in cases:
        assert shapes == ref_shapes
        ref = dense_linear_system(M.field, shapes, equations)
        assert nvars == ref.cols and rows == kernel_rows_of(ref)


def _system_modules(name):
    """The zero module, the generalized simples, the sums E_i (+) E_j, a
    tower conjugated to have denominators (its arrows act where those of
    the sums vanish), modules that are not locally free (one whose loop is
    not nilpotent, a source whose Z_i eps_M^c_i = 0 rows are written) and
    over A1~ the (1, 1) cycle."""
    datum = _wider(name)
    rng = random.Random(38)
    T = random_tower(datum, 3, rng)
    simples = [generalized_simple(datum, i) for i in datum.vertices]
    mods = [pimod.zero_module(datum), *simples,
            *[direct_sum(X, Y) for a, X in enumerate(simples) for Y in simples[a:]],
            _conjugate(T, {i: _random_invertible(rng, T.dims[i]) for i in datum.vertices}),
            *_short_jordan_blocks(datum)[:2],
            ModuleRep(datum, {1: 1}, {1: Mat.from_rows(QQ, [[1]])})]
    if name == "A1~":
        mods.append(_cycle(_WIDER_DATA["A1~"][0], [("arr", 2, 1, 1), ("arr", 1, 2, 2)]))
    return mods


@pytest.mark.parametrize("field", [QQ, linalg.GF(32003)], ids=["Q", "GF32003"])
@pytest.mark.parametrize("name", sorted(_WIDER_DATA))
def test_systems_match_their_definitions(name, field):
    """Every ordered pair of `_system_modules`: the systems built from
    nonzero terms only are row for row the definition's, and the relation
    check agrees with the dense reference on each module."""
    mods = [_over(X, field) for X in _system_modules(name)]
    assert any(not A.is_zero() for X in mods for A in X.arrows.values())
    assert check_relations(mods[-1 if name != "A1~" else -2]) == ["nilpotency@1"]
    for M in mods:
        assert check_relations(M) == dense_check_relations(M)
        for N in mods:
            assert_systems_match_definitions(M, N)


@pytest.mark.parametrize("field", [QQ, linalg.GF(32003)], ids=["Q", "GF32003"])
@pytest.mark.parametrize("name, ranks", [("C3", (4, 5)), ("G2", (4, 5))])
def test_systems_match_their_definitions_on_stored_towers(name, ranks, field):
    pair = [_over(_stored_tower(name, r, 0), field) for r in ranks]
    for M in pair:
        assert check_relations(M) == dense_check_relations(M) == []
        for N in pair:
            assert_systems_match_definitions(M, N)


def test_relations_of_modules_that_break_them_match_the_dense_reference():
    """The not locally free modules of `_not_locally_free`, some of which
    break the relations, over Q and GF(32003)."""
    for X in _not_locally_free():
        for field in (QQ, linalg.GF(32003)):
            Y = _over(X, field)
            assert check_relations(Y) == dense_check_relations(Y)


# -- submodule and quotient: one block-triangular split per vertex ------------

class TestDependentSpaces:
    """Spaces with dependent columns are refused, not silently mis-sized."""

    def test_quotient_by_dependent_columns(self, b2_mods):
        E1 = b2_mods[0]   # eps e_1 = e_2: span(e_1) is not a submodule
        with pytest.raises(ValueError):
            pimod.quotient(E1, {1: Mat.from_rows(QQ, [[1, 1], [0, 0]])})

    def test_submodule_of_dependent_columns(self, b2_mods):
        E1 = b2_mods[0]   # the columns span e_2 only
        with pytest.raises(ValueError):
            pimod.submodule(E1, {1: Mat.from_rows(QQ, [[0, 0], [1, 1]])})


def _split_cases(M, rng):
    """Submodule spans (a kernel of a random endomorphism, sub_i and the
    K_i spaces) and one random span, which is rarely closed."""
    datum = M.datum
    f = pimod.random_combination(hom_basis(M, M), rng)
    cases = [{i: linalg.nullspace(f[i]) for i in datum.vertices}]
    for i in datum.vertices:
        cases.append({i: pimod.sub_space(M, i)})
        k_sp = {j: Mat.identity(M.field, M.dims[j]) for j in datum.vertices}
        k_sp[i] = pimod.k_space(M, i)
        cases.append(k_sp)
    random_span = {}
    for i in datum.vertices:
        cols = rng.randint(0, M.dims[i])
        A = Mat.from_rows(M.field, [[rng.randint(-2, 2) for _ in range(cols)]
                                    for _ in range(M.dims[i])])
        random_span[i] = linalg.column_space(A)
    return cases + [random_span]


@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank=st.integers(1, 4))
def test_split_matches_solve_and_projection(name, seed, rank):
    """`_split` against the references: each submodule matrix is the
    solution X of B_t X = A B_s (`solve_matrix`), each quotient matrix is
    P_t A C_s with C the completing standard basis vectors, and the spans
    are refused exactly when some A B_s leaves col(B_t)."""
    C, D = _WIDER_DATA[name]
    datum = validate_datum(C, D, default_orientation(C))
    rng = random.Random(seed)
    M = random_tower(datum, rank, rng)
    gens = datum.generators()
    for spaces in _split_cases(M, rng):
        B = {i: spaces.get(i, Mat.zeros(QQ, M.dims[i], 0)) for i in datum.vertices}
        want_sub = {g: linalg.solve_matrix(B[gen_target(g)], M.gen_mat(g) * B[gen_source(g)])
                    for g in gens}
        if None in want_sub.values():
            with pytest.raises(ValueError):
                pimod._split(M, spaces)
            continue
        sub, quot = pimod._split(M, spaces)
        completion, proj = {}, {}
        for i in datum.vertices:
            extra, _, proj[i] = linalg.complete_basis(B[i])
            completion[i] = Mat(QQ, M.dims[i], len(extra),
                                [[QQ.one if j == r else QQ.zero for j in extra]
                                 for r in range(M.dims[i])])
            assert sub.dims[i] + quot.dims[i] == M.dims[i]
        for g in gens:
            i, j, A = gen_target(g), gen_source(g), M.gen_mat(g)
            assert sub.gen_mat(g) == want_sub[g]
            assert quot.gen_mat(g) == proj[i] * (A * completion[j])
            assert A * B[j] == B[i] * sub.gen_mat(g)
            assert proj[i] * A == quot.gen_mat(g) * proj[j]
        assert check_relations(sub) == [] and check_relations(quot) == []


def split_reference(M, spaces):
    """`_split` with `complete_basis` and every product at every vertex,
    trivial spaces included."""
    incl, extra, coords, proj = {}, {}, {}, {}
    for i in M.datum.vertices:
        incl[i] = spaces.get(i, Mat.zeros(M.field, M.dims[i], 0))
        extra[i], coords[i], proj[i] = linalg.complete_basis(incl[i])
    sub_mats, quot_mats = {}, {}
    for g in M.datum.generators():
        i, j = gen_target(g), gen_source(g)
        A = M.gen_mat(g)
        AB = A * incl[j]
        if not (proj[i] * AB).is_zero():
            raise ValueError("spaces are not closed under %r" % (g,))
        sub_mats[g] = coords[i] * AB
        AC = Mat(M.field, A.rows, len(extra[j]), [[row[c] for c in extra[j]] for row in A.data])
        quot_mats[g] = proj[i] * AC
    return sub_mats, incl, quot_mats, proj


def _assert_split_matches_reference(M, spaces, monkeypatch):
    """Equal matrices, or refusal on both sides; `complete_basis` runs only
    at the vertices whose space is proper and nonzero, and where it does not
    run it would give the projection I (empty space) or an empty one (the
    identity).  The one-sided `submodule` and `quotient` give the two-sided
    split's matrices, and refuse where it does.  The spaces and the
    reference's projections intertwine M with the pieces."""
    try:
        want = split_reference(M, spaces)
    except ValueError:
        want = None
    completed = []
    complete_basis = linalg.complete_basis
    with monkeypatch.context() as m:
        m.setattr(linalg, "complete_basis", lambda B: completed.append(B) or complete_basis(B))
        if want is None:
            for split in (pimod._split, pimod.submodule, pimod.quotient):
                with pytest.raises(ValueError):
                    split(M, spaces)
            return
        sub, quot = pimod._split(M, spaces)
    want_sub, incl, want_quot, proj = want
    proper = [i for i in M.datum.vertices
              if 0 < incl[i].cols and incl[i] != Mat.identity(M.field, M.dims[i])]
    assert completed == [spaces[i] for i in proper]
    for i in M.datum.vertices:
        if i not in proper:
            n = M.dims[i]
            assert proj[i] == (Mat.identity(M.field, n) if incl[i].cols == 0
                               else Mat.zeros(M.field, 0, n))
    sub_only, quot_only = pimod.submodule(M, spaces), pimod.quotient(M, spaces)
    for g, X in want_sub.items():
        i, j, A = gen_target(g), gen_source(g), M.gen_mat(g)
        assert sub.gen_mat(g) == X == sub_only.gen_mat(g)
        assert quot.gen_mat(g) == want_quot[g] == quot_only.gen_mat(g)
        assert A * incl[j] == incl[i] * X
        assert proj[i] * A == want_quot[g] * proj[j]


def _part_of_sum(T, U):
    """The spaces of T inside T (+) U: [I; 0] per vertex, which is the
    identity where U is 0 and has no columns where T is 0."""
    return {i: Mat(T.field, T.dims[i] + U.dims[i], T.dims[i],
                   [[T.field.one if r == c else T.field.zero for c in range(T.dims[i])]
                    for r in range(T.dims[i] + U.dims[i])])
            for i in T.datum.vertices}


def test_split_trivial_vertices_match_reference(b2_mods, monkeypatch):
    """Over C3, T = E_1 (+) E_2 inside T (+) E_2 (+) E_3: the space is the
    identity at 1, proper at 2 and empty at 3 (or the identity at 3 too).
    Over B2, all of M3 at vertex 1 is not closed: the arrow 1 -> 2 leaves
    the empty space at 2."""
    datum = _wider("C3")
    E = {i: generalized_simple(datum, i) for i in datum.vertices}
    T, U = direct_sum(E[1], E[2]), direct_sum(E[2], E[3])
    M, spaces = direct_sum(T, U), _part_of_sum(T, U)
    assert [spaces[i].cols for i in datum.vertices] == [2, 2, 0]
    assert spaces[1] == Mat.identity(QQ, 2) and spaces[2].rows == 4
    _assert_split_matches_reference(M, spaces, monkeypatch)
    _assert_split_matches_reference(M, {**spaces, 3: Mat.identity(QQ, 1)}, monkeypatch)
    M3 = b2_mods[2]
    with pytest.raises(ValueError):
        pimod._split(M3, {1: Mat.identity(QQ, 2)})
    _assert_split_matches_reference(M3, {1: Mat.identity(QQ, 2)}, monkeypatch)
    _assert_split_matches_reference(M3, {2: Mat.identity(QQ, 1)}, monkeypatch)


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank_t=st.integers(1, 3), rank_u=st.integers(1, 3),
       field=st.sampled_from([QQ, linalg.GF(32003)]))
def test_split_matches_reference(name, seed, rank_t, rank_u, field):
    """On towers conjugated to have denominators, over Q and GF(32003):
    sums T (+) U split along T, the spaces of `_split_cases` and spans
    mixing empty, identity and random spaces per vertex."""
    datum = _wider(name)
    rng = random.Random(seed)
    T, U = [_conjugate(X, {i: _random_invertible(rng, X.dims[i]) for i in datum.vertices})
            for X in (random_tower(datum, rank_t, rng), random_tower(datum, rank_u, rng))]
    T, U = [pimod.module_from_json(pimod.module_to_json(X), datum, field) for X in (T, U)]
    M = direct_sum(T, U)
    cases = [_part_of_sum(T, U)] + _split_cases(M, rng)
    for _ in range(3):
        mixed = {}
        for i in datum.vertices:
            n = M.dims[i]
            kind = rng.choice(("empty", "identity", "random"))
            if kind == "identity":
                mixed[i] = Mat.identity(field, n)
            elif kind == "random":
                cols = rng.randint(0, n)
                A = Mat(field, n, cols, [[rng.randint(-2, 2) for _ in range(cols)]
                                         for _ in range(n)])
                mixed[i] = linalg.column_space(A)
        cases.append(mixed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        for spaces in cases:
            _assert_split_matches_reference(M, spaces, monkeypatch)


class TestCanonicalPieces:
    def test_m3_pieces_at_2(self, b2_mods):
        E1, E2, M3 = b2_mods
        p = canonical_pieces(M3, 2)
        assert iso_test(p.sub, E2)
        assert iso_test(p.quot, E1)
        assert p.fac.dim_total() == 0
        assert p.ker.dim_total() == M3.dim_total()

    def test_m3_pieces_at_1(self, b2_mods):
        E1, E2, M3 = b2_mods
        p = canonical_pieces(M3, 1)
        assert iso_test(p.fac, E1)
        assert p.sub.dim_total() == 0

    def test_simple_is_its_own_sub(self, b2):
        E2 = generalized_simple(b2, 2)
        p = canonical_pieces(E2, 2)
        assert iso_test(p.sub, E2) and p.quot.dim_total() == 0

    def test_exactness_of_dimensions(self, b2):
        rng = random.Random(23)
        for _ in range(6):
            M = random_tower(b2, rng.randint(1, 4), rng)
            for i in b2.vertices:
                p = canonical_pieces(M, i)
                assert p.sub.dim_total() + p.quot.dim_total() == M.dim_total()
                assert p.ker.dim_total() + p.fac.dim_total() == M.dim_total()

    def test_inclusions_are_intertwiners(self, b2_mods):
        """The spaces of sub_2 and K_2 embed the pieces, and the projections
        P of `complete_basis` map M3 onto Q_2 and fac_2."""
        _, _, M3 = b2_mods
        p = canonical_pieces(M3, 2)
        zero = {i: Mat.zeros(QQ, M3.dims[i], 0) for i in M3.datum.vertices}
        for spaces, sub, quot in (
                ({**zero, 2: pimod.sub_space(M3, 2)}, p.sub, p.quot),
                (pimod._ker_spaces(M3, 2, pimod.k_space(M3, 2)), p.ker, p.fac)):
            proj = {i: linalg.complete_basis(B)[2] for i, B in spaces.items()}
            for key in M3.datum.arrow_keys():
                _, i, j, _ = key
                assert M3.arrows[key] * spaces[j] == spaces[i] * sub.arrows[key]
                assert proj[i] * M3.arrows[key] == quot.arrows[key] * proj[j]


class TestFiltrationAndCrystal:
    def test_simples_are_crystal(self, b2):
        for i in b2.vertices:
            E = generalized_simple(b2, i)
            ok, wit = is_E_filtered(E)
            assert ok and wit == (i,)
            assert is_crystal(E)

    def test_m3_witness_starts_at_socle(self, b2_mods):
        _, _, M3 = b2_mods
        ok, wit = is_E_filtered(M3)
        assert ok and wit == (2, 1)
        assert is_crystal(M3)

    def test_efiltered_but_not_crystal(self, b2):
        # socle-degenerate extension of E1 by E2: sub_1 is one-dimensional,
        # hence not free over K[x]/(x^2)
        M = ModuleRep(b2, {1: 2, 2: 1},
                      {1: Mat.from_rows(QQ, [[0, 1], [0, 0]])},
                      {("arr", 2, 1, 1): Mat.from_rows(QQ, [[0, 1]])})
        assert check_relations(M) == []
        assert is_E_filtered(M)[0]
        assert not is_crystal(M)

    def test_rigid_simple(self, b2):
        assert is_rigid(generalized_simple(b2, 1)) == (True, 0)

    def test_rigid_sum_codim(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        assert is_rigid(direct_sum(E1, E2)) == (False, 2)

    def test_open_orbit_criterion_for_simples(self, b2):
        # dim GL - dim End = dim R^C on the unit rank vector
        for k, i in enumerate(b2.vertices):
            e = tuple(1 if j == k else 0 for j in range(2))
            E = generalized_simple(b2, i)
            assert alpha_form(b2, e, e) - hom_dim(E, E) == \
                sum(b2.ci(a) * abs(b2.c(a, b)) * e[b2.index[a]] * e[b2.index[b]]
                    for (a, b) in b2.orient)


# -- is_crystal: E-filtered certified by peeling ---------------------------------

def nilpotent_reference(M):
    """Whether the span of all generator images shrinks to zero (so every
    long enough path acts by zero): the image-span loop, an independent
    check of what `pimod.peel` decides over a minimal symmetrizer."""
    spaces = {i: Mat.identity(M.field, M.dims[i]) for i in M.datum.vertices}
    total = M.dim_total()
    while total:
        imgs = {i: [] for i in M.datum.vertices}
        for g in M.datum.generators():
            imgs[gen_target(g)].append(M.gen_mat(g) * spaces[gen_source(g)])
        new = {i: linalg.column_space(linalg.hstack(imgs[i])) for i in M.datum.vertices}
        new_total = sum(b.cols for b in new.values())
        if new_total == total:
            return False
        spaces = new
        total = new_total
    return True


@pimod._memoized
def crystal_reference(M):
    """The crystal test that runs the E-filtered search first, in place of
    asking that some sub_i(M) be nonzero; memoized like `is_crystal`."""
    if M.dim_total() == 0:
        return True
    ok, _ = is_locally_free(M)
    if not ok:
        return False
    if pimod._minimal_symmetric(M.datum):
        return nilpotent_reference(M)
    if not is_E_filtered(M)[0]:
        return False
    for i in M.datum.vertices:
        pieces = canonical_pieces(M, i)
        if not is_locally_free(pieces.sub)[0]:
            return False
        if not is_locally_free(pieces.fac)[0]:
            return False
        if pieces.sub.dim_total() and not crystal_reference(pieces.quot):
            return False
        if pieces.fac.dim_total() and not crystal_reference(pieces.ker):
            return False
    return True


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank=st.integers(1, 5))
def test_crystal_matches_efiltered_search_reference(name, seed, rank):
    """Towers, their four canonical pieces at every vertex, the sums of the
    tower with each piece, and the kernel and coimage of a random
    endomorphism (where the False verdicts come from)."""
    datum = _wider(name)
    rng = random.Random(seed)
    M = random_tower(datum, rank, rng)
    pieces = []
    for i in datum.vertices:
        p = canonical_pieces(M, i)
        pieces += [p.sub, p.quot, p.ker, p.fac]
    f = pimod.random_combination(hom_basis(M, M), rng)
    ker, coim = pimod._split(M, {i: linalg.nullspace(f[i]) for i in datum.vertices})
    with pimod.memo_run():
        for X in [M] + pieces + [direct_sum(M, P) for P in pieces] + [ker, coim]:
            assert is_crystal(X) == crystal_reference(X)


def test_crystal_needs_a_nonzero_sub():
    """The lift to symmetrizer (2, 2) of an A1~ module with a cycle of
    arrows is locally free with sub_i = fac_i = 0 at both vertices: every
    per-vertex test passes and only the peeling condition refuses it."""
    datum = _wider("A1~")
    one = Mat.from_rows(QQ, [[1]])
    M = ModuleRep(datum, {1: 1, 2: 1}, {}, {("arr", 2, 1, 1): one, ("arr", 1, 2, 2): one})
    lift = symred.tilde_lift(M, 2)
    assert lift.datum.sym == (2, 2) and check_relations(lift) == []
    assert is_locally_free(lift)[0]
    for i in lift.datum.vertices:
        p = canonical_pieces(lift, i)
        assert p.sub.dim_total() == p.fac.dim_total() == 0
    assert not is_crystal(lift)
    assert is_E_filtered(lift) == (False, None) and not crystal_reference(lift)


def _crystal_family(name, seed):
    """A tower, its four canonical pieces at every vertex, and the kernel
    and coimage of a random endomorphism of it."""
    datum = _wider(name)
    rng = random.Random(seed)
    M = random_tower(datum, rng.randint(1, 5), rng)
    family = [M]
    for i in datum.vertices:
        p = canonical_pieces(M, i)
        family += [p.sub, p.quot, p.ker, p.fac]
    f = pimod.random_combination(hom_basis(M, M), rng)
    ker, coim = pimod._split(M, {i: linalg.nullspace(f[i]) for i in datum.vertices})
    return family + [ker, coim]


def _freeness_by_rank_and_by_piece(X):
    """Per vertex of a locally free X: ((`_free_rank` of sub_i,
    `is_locally_free` of the built sub_i), (the same for fac_i))."""
    out = []
    for i in X.datum.vertices:
        p = canonical_pieces(X, i)
        out.append(((pimod._free_rank(X, i, B=pimod.sub_space(X, i)), is_locally_free(p.sub)),
                    (pimod._free_rank(X, i, K=pimod.k_space(X, i)), is_locally_free(p.fac))))
    return out


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["C3", "G2"]), seed=st.integers(0, 2 ** 16))
@example(name="G2", seed=34)
@example(name="C3", seed=34)
@example(name="C3", seed=27)
def test_freeness_of_sub_and_fac_by_rank(name, seed):
    """`is_crystal` reads the local freeness of sub_i and fac_i off two
    ranks (`_free_rank`); on every locally free module of the family that
    agrees with `is_locally_free` of the built piece, and a free piece's
    rank is its rank vector's entry at i (for fac_i, the crystal's eps_i)."""
    for X in _crystal_family(name, seed):
        if is_locally_free(X)[0]:
            for a, pair in enumerate(_freeness_by_rank_and_by_piece(X)):
                for rank, (free, ranks) in pair:
                    assert (rank is not None) == free
                    assert rank is None or rank == ranks[a]


@pytest.mark.parametrize("name, seed, piece", [
    ("G2", 34, "sub"), ("G2", 34, "fac"), ("C3", 34, "sub"), ("C3", 27, "fac"),
])
def test_family_reaches_pieces_that_are_not_free(name, seed, piece):
    """The examples of `test_freeness_of_sub_and_fac_by_rank` reach a
    locally free module whose sub_i or fac_i is not free."""
    k = ("sub", "fac").index(piece)
    assert any(not pair[k][1][0]
               for X in _crystal_family(name, seed) if is_locally_free(X)[0]
               for pair in _freeness_by_rank_and_by_piece(X))


def test_freeness_by_rank_where_the_dimension_divides(b2):
    """Over B2, a sum of two copies of a module with a one-dimensional
    sub_1 (or fac_1) has a sub_1 (fac_1) of dimension c_1 = 2 that is not
    free: only the rank tells it apart, and it refuses the sum."""
    loop = {1: Mat.from_rows(QQ, [[0, 1], [0, 0]])}
    low = ModuleRep(b2, {1: 2, 2: 1}, loop, {("arr", 2, 1, 1): Mat.from_rows(QQ, [[0, 1]])})
    high = ModuleRep(b2, {1: 2, 2: 1}, loop, {("arr", 1, 2, 1): Mat.from_rows(QQ, [[1], [0]])})
    for X, k in ((low, 0), (high, 1)):
        XX = direct_sum(X, X)
        assert check_relations(XX) == [] and is_locally_free(XX)[0]
        pieces = canonical_pieces(XX, 1)
        assert (pieces.sub, pieces.fac)[k].dims[1] == 2
        reading = _freeness_by_rank_and_by_piece(XX)[0]
        assert reading[k] == (None, (False, None))
        rank, (free, ranks) = reading[1 - k]
        assert free and rank == ranks[0]
        assert not is_crystal(XX)


def test_crystal_builds_no_piece_where_sub_and_fac_are_zero(monkeypatch):
    """On the A1~ lift of `test_crystal_needs_a_nonzero_sub`, sub_i = fac_i
    = 0 at both vertices, so `is_crystal` builds no module at all."""
    datum = _wider("A1~")
    one = Mat.from_rows(QQ, [[1]])
    M = ModuleRep(datum, {1: 1, 2: 1}, {}, {("arr", 2, 1, 1): one, ("arr", 1, 2, 2): one})
    lift = symred.tilde_lift(M, 2)
    calls = []
    split = pimod._split
    monkeypatch.setattr(pimod, "_split", lambda *a, **k: calls.append(a) or split(*a, **k))
    assert not is_crystal(lift)
    assert calls == []


def test_certified_negative_on_minimal_symmetrizer():
    """The A1~ module of `test_crystal_needs_a_nonzero_sub` itself, over the
    minimal symmetrizer (1, 1): locally free, but its arrows form a cycle, so
    the representation is not nilpotent and both tests refuse it before any
    search."""
    one = Mat.from_rows(QQ, [[1]])
    M = ModuleRep(_wider("A1~"), {1: 1, 2: 1}, {}, {("arr", 2, 1, 1): one, ("arr", 1, 2, 2): one})
    assert M.datum.sym == (1, 1) and M.datum.orient == ((1, 2),)
    assert check_relations(M) == [] and is_locally_free(M) == (True, (1, 1))
    assert not nilpotent_reference(M)
    assert is_crystal(M) is False
    assert is_E_filtered(M) == (False, None)


@pytest.mark.parametrize("C, D, seed, piece", [
    ([[2, -2], [-1, 2]], (1, 2), 145, "quot"),
    ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], (2, 2, 1), 292, "ker"),
])
def test_crystal_refuses_a_piece_at_vertex_1(C, D, seed, piece):
    """Two E-filtered towers that are not crystal: at vertex 1 the sub and
    fac are locally free, and Q_1 (below a nonzero sub_1) or K_1 (above a
    nonzero fac_1) is not crystal."""
    datum = validate_datum(C, D, default_orientation(C))
    rng = random.Random(seed)
    M = random_tower(datum, rng.randint(2, 5), rng)
    p = canonical_pieces(M, 1)
    assert is_locally_free(p.sub)[0] and is_locally_free(p.fac)[0]
    if piece == "quot":
        assert M.dim_vector() == (2, 6)
        assert p.sub.dim_vector() == (1, 0) and p.fac.dim_total() == 0
    else:
        assert M.dim_vector() == (2, 2, 1)
        assert p.sub.dim_total() == 0 and p.fac.dim_vector() == (2, 0, 0)
    assert is_crystal(getattr(p, piece)) is False
    assert is_crystal(M) is False
    assert is_E_filtered(M)[0] is True


def test_crystal_runs_no_efiltered_search(b2, monkeypatch):
    suite = catalog.b2_suite()
    mods = [e.module for e in suite.entries + suite.extras]
    degenerate = ModuleRep(b2, {1: 2, 2: 1}, {1: Mat.from_rows(QQ, [[0, 1], [0, 0]])},
                           {("arr", 2, 1, 1): Mat.from_rows(QQ, [[0, 1]])})
    mods += [degenerate, direct_sum(mods[0], mods[2])]
    want = [crystal_reference(M) for M in mods]
    assert want == [True] * 8 + [False, True]

    def refuse(M):
        raise AssertionError("E-filtered search called")

    monkeypatch.setattr(pimod, "_efiltered_search", refuse)
    assert [is_crystal(M) for M in mods] == want


# -- modules whose arrows vanish: crystal and E-filtered iff locally free --------

def _datum(name):
    return catalog.b2_datum() if name == "B2" else _wider(name)


_MULTIPLICITIES = ((0, 0, 0), (2, 1, 0), (0, 3, 1), (1, 1, 1))


def _sums_of_simples(datum):
    """E_1^a (+) E_2^b (+) ... for each of `_MULTIPLICITIES`, zero included."""
    out = []
    for reps in _MULTIPLICITIES:
        X = pimod.zero_module(datum)
        for i, r in zip(datum.vertices, reps):
            for _ in range(r):
                X = direct_sum(X, generalized_simple(datum, i))
        out.append(X)
    return out


def _short_jordan_blocks(datum):
    """Zero-arrow modules that are not locally free: at each vertex i with
    c_i > 1, a loop acting by one Jordan block of size c_i - 1, alone and
    beside each E_j."""
    out = []
    for i in datum.vertices:
        c = datum.ci(i)
        if c > 1:
            J = Mat.from_rows(QQ, [[int(b == a + 1) for b in range(c - 1)] for a in range(c - 1)])
            short = ModuleRep(datum, {i: c - 1}, {i: J})
            out += [short] + [direct_sum(short, generalized_simple(datum, j))
                              for j in datum.vertices]
    return out


def _verdicts(mods, search):
    with pimod.memo_run():
        return [(is_crystal(X), is_E_filtered(X))
                + ((pimod._efiltered_search(X),) if search else ()) for X in mods]


def _assert_rule_matches_full_search(mods, monkeypatch, search=False):
    """The verdicts and witnesses of `is_crystal` and `is_E_filtered` (and,
    with `search`, of `_efiltered_search` itself) equal the ones of the full
    recursion and search, run with `_arrows_vanish` always False; each side
    runs in its own memo run.  Returns the verdicts."""
    got = _verdicts(mods, search)
    monkeypatch.setattr(pimod, "_arrows_vanish", lambda M, i: False)
    assert _verdicts(mods, search) == got
    return got


def test_arrows_vanish_reads_every_arrow_or_those_away_from_a_vertex():
    datum = _wider("C3")
    one = Mat.from_rows(QQ, [[1]])
    assert all(pimod._arrows_vanish(pimod.zero_module(datum), v) for v in datum.vertices)
    for k in datum.arrow_keys():
        M = ModuleRep(datum, {k[1]: 1, k[2]: 1}, {}, {k: one})
        assert [pimod._arrows_vanish(M, v) for v in datum.vertices] == \
            [v in k[1:3] for v in datum.vertices]


@pytest.mark.parametrize("name", ["B2", "C3", "G2"])
def test_zero_arrow_rule_on_sums_of_simples(name, monkeypatch):
    datum = _datum(name)
    got = _assert_rule_matches_full_search(_sums_of_simples(datum), monkeypatch, search=True)
    witnesses = [sum(((v,) * r for v, r in zip(datum.vertices, reps)), ())
                 for reps in _MULTIPLICITIES]
    assert got == [(True, (True, w), (True, w)) for w in witnesses]


@pytest.mark.parametrize("name", ["B2", "C3", "G2"])
def test_zero_arrow_rule_on_modules_not_locally_free(name, monkeypatch):
    mods = _short_jordan_blocks(_datum(name))
    got = _assert_rule_matches_full_search(mods, monkeypatch, search=True)
    assert mods and got == [(False, (False, None), (False, None))] * len(mods)


@pytest.mark.parametrize("name, seed", [("G2", 34), ("C3", 34), ("C3", 27), ("A1~", 5)])
def test_zero_arrow_rule_on_the_crystal_family(name, seed, monkeypatch):
    """Each family holds zero-arrow modules: its sub_i and fac_i."""
    family = _crystal_family(name, seed)
    assert any(all(A.is_zero() for A in X.arrows.values()) for X in family)
    _assert_rule_matches_full_search(family, monkeypatch)


def test_zero_arrow_sum_is_crystal_and_peels_in_vertex_order(b2):
    """E_1^2 (+) E_2, all arrows zero, takes the general path: it is
    crystal, and the peel takes E_1 twice, then E_2."""
    E1 = generalized_simple(b2, 1)
    X = direct_sum(direct_sum(E1, E1), generalized_simple(b2, 2))
    with pimod.memo_run():
        assert is_crystal(X) is True
        assert is_E_filtered(X) == (True, (1, 1, 2))


@pytest.mark.parametrize("name", ["B2", "C3", "G2"])
def test_decompose_returns_each_simple_whole_with_no_draw(name, monkeypatch):
    """End(E_i) = K[x]/(x^c_i) is local, and `_end_is_local` certifies it
    for c_i = 1 as for c_i > 1: no endomorphism is drawn."""
    def no_draw(basis, rng):
        raise AssertionError("drew from End(E_i)")

    monkeypatch.setattr(pimod, "random_combination", no_draw)
    datum = _datum(name)
    for i in datum.vertices:
        E = generalized_simple(datum, i)
        assert decompose(E) == [E]


@pytest.mark.parametrize("side", ["quot", "ker"])
def test_crystal_builds_a_piece_that_is_not_m_away_from_i(side, monkeypatch):
    """Over a two-vertex datum the arrows away from a vertex always vanish.
    Yet the Q_1 of the seed-145 tower of `test_crystal_refuses_a_piece_at_vertex_1`,
    below a sub_1 that is not all of M_1, and the K_1 of its dual are not
    M away from 1: `is_crystal` builds that piece first and refuses it."""
    C = [[2, -2], [-1, 2]]
    rng = random.Random(145)
    M = random_tower(validate_datum(C, (1, 2), default_orientation(C)), rng.randint(2, 5), rng)
    if side == "ker":
        M = pimod.dual(M)
    want = getattr(canonical_pieces(M, 1), side)
    name = "quotient" if side == "quot" else "submodule"
    build, built = getattr(pimod, name), []
    monkeypatch.setattr(pimod, name, lambda X, spaces: built.append(build(X, spaces)) or built[-1])
    with pimod.memo_run():
        assert is_crystal(M) is False
    assert pimod.module_to_json(built[0]) == pimod.module_to_json(want)
    assert is_crystal(want) is False


def _conjugate(M, g):
    """M in the basis changed by the invertible matrix g[i] at each vertex."""
    return ModuleRep(M.datum, M.dims,
                     {i: g[i] * M.eps[i] * linalg.inverse(g[i]) for i in M.datum.vertices},
                     {k: g[k[1]] * A * linalg.inverse(g[k[2]]) for k, A in M.arrows.items()})


def _random_invertible(rng, d):
    while True:
        g = Mat.from_rows(QQ, [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)])
        if linalg.is_invertible(g):
            return g


# -- sub_i and K_i against the fixed-point loops they replace ------------------

def invariant_subspace(E, B):
    """Reference: the largest E-invariant subspace in col(B), found by
    shrinking U to the part that E maps back into U until it is stable."""
    U = linalg.column_space(B)
    while U.cols:
        P = linalg.nullspace(U.transpose()).transpose()   # ker P = col(U)
        X = linalg.nullspace(P * (E * U))
        if X.cols == U.cols:
            break
        U = linalg.column_space(U * X)
    return U


def closure_under(E, B):
    """Reference: the smallest E-invariant subspace containing col(B), found
    by adding E's images until the span is stable."""
    U = linalg.column_space(B)
    while True:
        W = linalg.column_space(linalg.hstack([U, E * U]))
        if W.cols == U.cols:
            return U
        U = W


def ref_sub_space(M, i):
    outgoing = [M.arrows[k] for k in M.datum.arrow_keys() if gen_source(k) == i]
    W = linalg.nullspace(linalg.vstack(outgoing)) if outgoing else Mat.identity(QQ, M.dims[i])
    return invariant_subspace(M.eps[i], W)


def ref_k_space(M, i):
    imgs = [linalg.column_space(M.arrows[k]) for k in M.datum.arrow_keys()
            if gen_target(k) == i]
    return closure_under(M.eps[i], linalg.hstack(imgs, field=QQ, rows=M.dims[i]))


def assert_subspaces_match_references(M):
    for i in M.datum.vertices:
        assert pimod.sub_space(M, i) == ref_sub_space(M, i)
        assert pimod.k_space(M, i) == ref_k_space(M, i)


class TestSubAndKSpaces:
    """Hand cases with the loop E = [[0, 1], [0, 0]] (or its transpose) at
    vertex 1 of B2, where c_1 = 2."""

    @staticmethod
    def _module(b2, eps1, arrow):
        key = ("arr", 2, 1, 1) if arrow.rows == 1 else ("arr", 1, 2, 1)
        return ModuleRep(b2, {1: 2, 2: 1}, {1: Mat.from_rows(QQ, eps1)}, {key: arrow})

    def test_sub_space_keeps_an_invariant_kernel(self, b2):
        # the arrow out of 1 kills span(e1), which E maps to zero
        M = self._module(b2, [[0, 1], [0, 0]], Mat.from_rows(QQ, [[0, 1]]))
        assert pimod.sub_space(M, 1) == Mat.from_rows(QQ, [[1], [0]])
        assert_subspaces_match_references(M)

    def test_sub_space_drops_a_kernel_that_is_not_invariant(self, b2):
        # the arrow out of 1 kills span(e2), but E e2 = e1
        M = self._module(b2, [[0, 1], [0, 0]], Mat.from_rows(QQ, [[1, 0]]))
        assert pimod.sub_space(M, 1).cols == 0
        assert_subspaces_match_references(M)

    def test_k_space_closes_an_image_under_the_loop(self, b2):
        # the arrow into 1 hits span(e1), and E e1 = e2
        M = self._module(b2, [[0, 0], [1, 0]], Mat.from_rows(QQ, [[1], [0]]))
        assert pimod.k_space(M, 1) == Mat.from_rows(QQ, [[1, 0], [0, 1]])
        assert_subspaces_match_references(M)

    def test_loop_that_is_not_nilpotent(self):
        # c_2 = 2, but the loop at 2 is invertible, so the powers of the
        # loop never vanish and the stacks stop after dims[2] = 2 blocks
        datum = catalog.b2_relabeled_datum()
        arrows = {("arr", 1, 2, 1): Mat.from_rows(QQ, [[1, 0]]),
                  ("arr", 2, 1, 1): Mat.from_rows(QQ, [[1], [1]])}
        for eps2, sub, k in (([[1, 0], [0, 2]], [[0], [1]], [[1, 1], [1, 2]]),
                             ([[0, 1], [1, 0]], None, [[1], [1]])):
            M = ModuleRep(datum, {1: 1, 2: 2}, {2: Mat.from_rows(QQ, eps2)}, arrows)
            assert "nilpotency@2" in check_relations(M)
            want_sub = Mat.from_rows(QQ, sub) if sub else Mat.zeros(QQ, 2, 0)
            assert pimod.sub_space(M, 2) == want_sub
            assert pimod.k_space(M, 2) == Mat.from_rows(QQ, k)
            assert_subspaces_match_references(M)


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank=st.integers(1, 4))
def test_subspaces_match_fixed_point_references(name, seed, rank):
    """sub_i and K_i, each from one elimination, are the very matrices the
    fixed-point loops give, on towers, on their canonical pieces and after
    a random change of basis."""
    datum = _wider(name)
    rng = random.Random(seed)
    M = random_tower(datum, rank, rng)
    mods = [M, _conjugate(M, {i: _random_invertible(rng, M.dims[i]) for i in datum.vertices})]
    for i in datum.vertices:
        p = canonical_pieces(M, i)
        mods += [p.sub, p.quot, p.ker, p.fac]
    for N in mods:
        assert_subspaces_match_references(N)


class TestIsoAndDecompose:
    def test_self_iso(self, b2_mods):
        _, _, M3 = b2_mods
        assert iso_test(M3, M3)

    def test_no_trials_is_inconclusive(self, b2_mods):
        _, _, M3 = b2_mods
        with pytest.raises(pimod.IsoInconclusive):
            iso_test(M3, M3, trials=0)

    def test_not_iso_by_fingerprint(self, b2_mods):
        E1, E2, M3 = b2_mods
        assert iso_test(direct_sum(E1, E2), M3) is False

    def test_leclerc_members_not_iso(self):
        A = catalog.leclerc_module(1, 0)
        B = catalog.leclerc_module(0, 1)
        assert iso_test(A, B) is False

    def test_iso_after_base_change(self, b2_mods):
        _, _, M3 = b2_mods
        g = {1: Mat.from_rows(QQ, [[1, 2], [0, 1]]), 2: Mat.from_rows(QQ, [[3]])}
        conj = _conjugate(M3, g)
        assert check_relations(conj) == []
        assert iso_test(M3, conj)

    def test_decompose_isotypic_pair(self, b2, monkeypatch):
        E1 = generalized_simple(b2, 1)
        parts = decompose(direct_sum(E1, E1), seed=0)
        assert len(parts) == 2 and all(iso_test(p, E1) for p in parts)
        # X (+) X in a random basis: random endomorphisms rarely split it,
        # a draw from an annihilator ideal Ann(e_k) does
        ann_drawn = []
        sources = pimod._endomorphism_sources

        def counted(M, endb):
            for n, basis in enumerate(sources(M, endb)):
                ann_drawn.append(n > 0)
                yield basis

        monkeypatch.setattr(pimod, "_endomorphism_sources", counted)
        X = next(e.module for e in catalog.b2_suite().entries if e.label == "2/12/1")
        for seed in range(4):
            rng = random.Random(seed)
            conj = _conjugate(direct_sum(X, X), {i: _random_invertible(rng, 4) for i in (1, 2)})
            assert check_relations(conj) == []
            parts = decompose(conj, seed=seed)
            assert len(parts) == 2 and all(iso_test(p, X, trials=16) for p in parts)
        assert any(ann_drawn)

    def test_split_spaces_checks_dimensions(self, b2, monkeypatch):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        M = direct_sum(E1, E2)
        f = {1: Mat.identity(QQ, 2), 2: Mat.identity(QQ, 1).scale(2)}
        assert len(pimod._split_spaces(M, f)) == 2
        real = linalg.coprime_factors
        monkeypatch.setattr(linalg, "coprime_factors", lambda poly: real(poly) + real(poly)[:1])
        with pytest.raises(pimod.ConsistencyError):
            pimod._split_spaces(M, f)

    def test_decompose_indecomposable(self, b2_mods):
        _, _, M3 = b2_mods
        assert len(decompose(M3, seed=0)) == 1

    def test_decompose_then_sum_is_iso(self, b2):
        rng = random.Random(24)
        for _ in range(4):
            M = random_tower(b2, rng.randint(1, 3), rng)
            parts = decompose(M, seed=1)
            total = pimod.zero_module(b2)
            for p in parts:
                total = direct_sum(total, p)
            assert iso_test(M, total, trials=16)

    def test_decompose_requires_rationals(self, b2):
        from ppalg.linalg import GF
        M = generalized_simple(b2, 2, field=GF(32003))
        with pytest.raises(ValueError):
            decompose(M)


def annihilator_reference(M):
    """The reference for the Ann(e_k) bases of `pimod._endomorphism_sources`:
    each solved as the whole End(M) system, every loop and arrow equation,
    plus the row f_i e_k = 0, through `_linear_system`, over the vertices i
    in order of increasing dimension; each basis as the list of its elements."""
    field, datum = M.field, M.datum
    shapes = {i: (M.dims[i], M.dims[i]) for i in datum.vertices}
    hom = [[(1, gen_target(g), Mat.identity(field, M.dims[gen_target(g)]), M.gen_mat(g)),
            (-1, gen_source(g), M.gen_mat(g), Mat.identity(field, M.dims[gen_source(g)]))]
           for g in datum.generators()]
    out = []
    for i in sorted(datum.vertices, key=lambda i: M.dims[i]):
        d = M.dims[i]
        for k in range(d):
            kills = [[(1, i, Mat.identity(field, d), Mat.identity(field, d).col(k))]]
            out.append(elements(pimod._kernel_basis(
                field, pimod._linear_system(field, shapes, hom + kills), shapes)))
    return out


# The reference solves dim M systems in sum_i dims[i]^2 unknowns each, and
# its cost grows steeply with that count: 0.3-0.4 s at 64-65 unknowns, about
# 1 s at 80-85, 9-15 s at 144-148 and over 100 s at 324 (G2, seed 2976,
# X (+) X of rank 3), on a 2-core x86 host under Python 3.11.  Examples past
# this bound are rejected, so that an edit to the test, which redraws its
# derandomized examples, cannot land on a reference that runs for minutes.
ANNIHILATOR_REFERENCE_UNKNOWNS = 64


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["B2"] + sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank_x=st.integers(1, 3), rank_y=st.integers(1, 3), isotypic=st.booleans())
@example(name="B2", seed=64937, rank_x=2, rank_y=2, isotypic=False)
@example(name="A1~", seed=51557, rank_x=3, rank_y=1, isotypic=True)
@example(name="C3", seed=748, rank_x=2, rank_y=3, isotypic=False)
@example(name="G2", seed=4630, rank_x=3, rank_y=1, isotypic=True)
def test_annihilator_bases_match_full_system_reference(name, seed, rank_x, rank_y, isotypic):
    """On X (+) X and X (+) Y of towers, conjugated by random invertibles:
    after End(M) itself, every Ann(e_k) basis read off the End(M) kernel
    matrix is a `KernelBasis` and equals the reference's, element for
    element.  The pinned examples, one per datum, have 20 to 52 unknowns."""
    datum = catalog.b2_datum() if name == "B2" else _wider(name)
    rng = random.Random(seed)
    X = random_tower(datum, rank_x, rng)
    M = direct_sum(X, X if isotypic else random_tower(datum, rank_y, rng))
    assume(sum(d * d for d in M.dims.values()) <= ANNIHILATOR_REFERENCE_UNKNOWNS)
    M = _conjugate(M, {i: _random_invertible(rng, M.dims[i]) for i in datum.vertices})
    endb = hom_basis(M, M)
    sources = list(pimod._endomorphism_sources(M, endb))
    assert sources[0] is endb
    assert all(isinstance(b, pimod.KernelBasis) for b in sources[1:])
    assert [elements(b) for b in sources[1:]] == annihilator_reference(M)


def test_split_complement_on_b2_sums_and_products():
    """Each sum X (+) Y of the six B2 entries splits along X with a
    complement isomorphic to Y.  Each generic_extension(A, B) has a
    retraction onto its sub B exactly when the product is A (+) B, and then
    the complement is isomorphic to A."""
    with pimod.memo_run():
        mods = [e.module for e in catalog.b2_suite().entries]
        for X in mods:
            for Y in mods:
                S = direct_sum(X, Y)
                spaces = {i: linalg.vstack([Mat.identity(QQ, X.dims[i]),
                                            Mat.zeros(QQ, Y.dims[i], X.dims[i])])
                          for i in S.datum.vertices}
                sub, comp = pimod._split_complement(S, spaces)
                assert iso_test(sub, X) and iso_test(comp, Y)
        for A in mods:
            for B in mods:
                res = starop.generic_extension(A, B)
                split = pimod._split_complement(res.module, res.inject)
                if not iso_test(res.module, direct_sum(B, A)):
                    assert split is None
                else:
                    assert iso_test(split[0], B) and iso_test(split[1], A)


class TestClosureProperties:
    def test_cokernel_of_injection_is_efiltered(self, b2_mods):
        E1, E2, M3 = b2_mods
        hb = hom_basis(E2, M3)
        rng = random.Random(25)
        found = 0
        for _ in range(10):
            f = pimod.random_combination(hb, rng)
            if f and pimod.hom_is_injective(f, E2):
                coker = pimod.quotient(M3, {i: f[i] for i in M3.datum.vertices})
                assert is_E_filtered(coker)[0]
                found += 1
        assert found

    def test_kernel_of_surjection_is_efiltered(self, b2_mods):
        E1, E2, M3 = b2_mods
        hb = hom_basis(M3, E1)
        rng = random.Random(26)
        found = 0
        for _ in range(10):
            f = pimod.random_combination(hb, rng)
            if f and all(linalg.rank(f[i]) == E1.dims[i] for i in E1.datum.vertices):
                spaces = {i: linalg.nullspace(f[i]) for i in M3.datum.vertices}
                ker = pimod.submodule(M3, spaces)
                assert is_E_filtered(ker)[0]
                found += 1
        assert found


# 12 vertices whose only edges are {1, 12} and {11, 2}
TWELVE_VERTICES = [[2 if a == b else -1 if {a, b} in ({1, 12}, {11, 2}) else 0
                    for b in range(1, 13)] for a in range(1, 13)]


class TestSerialization:
    def test_module_round_trip(self, b2_mods):
        _, _, M3 = b2_mods
        doc = pimod.module_to_json(M3)
        back = pimod.module_from_json(doc, M3.datum)
        assert back.dims == M3.dims
        assert all(back.eps[i] == M3.eps[i] for i in M3.datum.vertices)
        assert all(back.arrows[k] == M3.arrows[k] for k in M3.datum.arrow_keys())

    def test_bad_arrow_key(self, b2):
        with pytest.raises(ValueError):
            pimod.module_from_json({"dims": {"1": 2}, "arrows": {"x_1_2_1": [["1"]]}}, b2)

    def test_unknown_arrow(self, b2):
        with pytest.raises(ValueError):
            pimod.module_from_json({"dims": {"1": 2, "2": 1},
                                    "arrows": {"a_1_1_1": [["1", "1"], ["1", "1"]]}}, b2)

    def test_dimension_bound(self, b2):
        """A file's dimension is at most DIM_BOUND at each vertex, a string
        one too; the refusal names the vertex."""
        assert pimod.DIM_BOUND == 1000
        for dims in ({"1": 1000, "2": 1000}, {"2": "1000"}):
            M = pimod.module_from_json({"dims": dims}, b2)
            assert M.dims == {1: int(dims.get("1", 0)), 2: 1000}
        for dims in ({"1": 1001}, {"1": 2, "2": "1001"}):
            with pytest.raises(ValueError, match=r"dimension 1001 at vertex %s exceeds 1000$"
                               % max(dims)):
                pimod.module_from_json({"dims": dims}, b2)

    @pytest.mark.parametrize("C, labels", [
        ([[2, -1], [-2, 2]], ["x_1", "y_2_3"]),
        ([[2, -1, 0], [-1, 2, -1], [0, -2, 2]], ["x_1", "y_2_3", "z"]),
        ([[2, -3], [-1, 2]], ["y_2_3", "x_1"]),
        (TWELVE_VERTICES, list(range(1, 13))),
    ], ids=["B2", "C3", "G2", "12-vertices"])
    def test_round_trip_for_every_label(self, C, labels):
        """Arrow keys are looked up by their names, so labels holding "_"
        read back too, and so do the arrows 1 <- 12 and 11 <- 2."""
        datum = validate_datum(C, minimal_symmetrizer(C), default_orientation(C, labels),
                               vertices=labels)
        rng = random.Random(5)
        for rank in range(2, 7):
            M = random_tower(datum, rank, rng)
            back = pimod.module_from_json(pimod.module_to_json(M), datum)
            assert pimod._content_key(back) == pimod._content_key(M)


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank=st.integers(1, 4), modular=st.booleans())
def test_json_round_trip_is_exact(name, seed, rank, modular):
    """Writing a tower to JSON and reading it back keeps every entry exactly,
    over Q and over GF(32003): the memo key of the copy is the original's."""
    field = linalg.GF(32003) if modular else QQ
    M = random_tower(_wider(name), rank, random.Random(seed), field)
    back = pimod.module_from_json(pimod.module_to_json(M), M.datum, field)
    assert back is not M and back.field is field
    assert pimod._content_key(back) == pimod._content_key(M)


# -- module duality and Hom against the E_i ---------------------------------------

# Cartan matrix and symmetrizer of the data the duality tests draw towers over
_DUAL_DATA = {
    "B2": ([[2, -1], [-2, 2]], [2, 1]),
    "C3": ([[2, -1, 0], [-2, 2, -1], [0, -2, 2]], [4, 2, 1]),
    "G2": ([[2, -3], [-1, 2]], [1, 3]),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1]),
}


def _dual_datum(name):
    C, D = _DUAL_DATA[name]
    return validate_datum(C, D, default_orientation(C))


@settings(max_examples=25, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_DUAL_DATA)), seed=st.integers(0, 2 ** 16),
       rank_m=st.integers(1, 3), rank_n=st.integers(1, 3))
def test_dual_is_a_module_involution(name, seed, rank_m, rank_n):
    """The dual satisfies the relations, dualizing twice gives M back
    exactly, the rank vector and the crystal verdict are kept, and
    hom(N^v, M^v) = hom(M, N)."""
    rng = random.Random(seed)
    datum = _dual_datum(name)
    M, N = random_tower(datum, rank_m, rng), random_tower(datum, rank_n, rng)
    Md, Nd = pimod.dual(M), pimod.dual(N)
    assert check_relations(Md) == []
    assert pimod._content_key(pimod.dual(Md)) == pimod._content_key(M)
    assert rank_vector(Md) == rank_vector(M)
    assert is_crystal(Md) == is_crystal(M)
    assert hom_dim(Nd, Md) == hom_dim(M, N)


def _fingerprint_cases():
    """The catalog, towers over B2, C3 and G2, and a B2 module that is not
    locally free: dims (1, 1), zero loops, the arrow a_2_1_1 = [1]."""
    yield from (e.module for _, e in catalog.all_entries())
    rng = random.Random(41)
    for name in ("B2", "C3", "G2"):
        for rank in (1, 2, 3, 4):
            yield random_tower(_dual_datum(name), rank, rng)
    b2 = catalog.b2_datum()
    yield ModuleRep(b2, {1: 1, 2: 1}, {}, {("arr", 2, 1, 1): Mat.from_rows(QQ, [[1]])})


def test_fingerprint_reads_hom_against_simples_off_sub_and_k():
    """The fingerprint's E_i entries, read off dim sub_i(M) and
    dim M_i - dim K_i(M), are hom_dim(E_i, M) and hom_dim(M, E_i)."""
    checked, free = 0, []
    for M in _fingerprint_cases():
        assert check_relations(M) == []
        free.append(is_locally_free(M)[0])
        entries = pimod.iso_fingerprint(M)[2]
        for i, entry in zip(M.datum.vertices, entries):
            E = generalized_simple(M.datum, i, M.field)
            assert entry == (hom_dim(E, M), hom_dim(M, E))
            checked += 1
    assert not all(free) and checked >= 60


# -- sub_i, K_i and the freeness rank against the stacked-matrix forms ---------------

def stacked_rows(mats, field, cols):
    """[m_1; m_2; ...] built as one matrix by `linalg._stack`, one block too."""
    place, r = [], 0
    for m in mats:
        place.append((r, 0))
        r += m.rows
    return linalg._stack(mats, field, r, cols, place)


def stacked_cols(mats, field, rows):
    """[m_1 | m_2 | ...] built as one matrix by `linalg._stack`, one block too."""
    place, c = [], 0
    for m in mats:
        place.append((0, c))
        c += m.cols
    return linalg._stack(mats, field, rows, c, place)


def stacked_sub_space(M, i):
    """Reference: sub_i(M) as the `nullspace` of the stacked matrix
    [A; A eps_i; A eps_i^2; ...]."""
    E, d = M.eps[i], M.dims[i]
    A = stacked_rows([M.arrows[k] for k in M.datum.arrow_keys() if gen_source(k) == i],
                     M.field, d)
    return linalg.nullspace(stacked_rows(pimod._loop_powers(A, d, lambda X: X * E), M.field, d))


def stacked_k_space(M, i):
    """Reference: K_i(M) at i as the `column_space` of the stacked matrix
    [S | eps_i S | eps_i^2 S | ...]."""
    E, d = M.eps[i], M.dims[i]
    S = stacked_cols([M.arrows[k] for k in M.datum.arrow_keys() if gen_target(k) == i],
                     M.field, d)
    return linalg.column_space(stacked_cols(pimod._loop_powers(S, d, lambda X: E * X),
                                            M.field, d))


def stacked_free_rank(M, i, B=None, K=None):
    """Reference: `_free_rank` from the rank of the stacked matrix
    [K | eps_i^(c_i-1) B] over one denominator."""
    c, k = M.datum.ci(i), 0 if K is None else K.cols
    f = (M.dims[i] if B is None else B.cols) - k
    if c == 1 or f == 0:
        return f
    if f % c:
        return None
    top = M.eps[i].power(c - 1)
    if B is not None:
        top = top * B
    if k:
        top = stacked_cols([K, top], M.field, M.dims[i])
    return f // c if linalg.rank(top) - k == f // c else None


def eager_rank_one_candidates(M, i):
    """Reference: the candidates built in full before the search tries one,
    the sum by repeated additions and with no test of its top."""
    U = stacked_sub_space(M, i)
    if U.cols == 0:
        return []
    top = M.eps[i].power(M.datum.ci(i) - 1) * U
    viable = sorted(set().union(*top.nz))
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


def assert_candidates_meet_docstring(M, i, cands):
    """Each candidate is a vector of sub_i(M) that eps_i^(c_i-1) does not kill."""
    U = pimod.sub_space(M, i)
    top = M.eps[i].power(M.datum.ci(i) - 1)
    for v in cands:
        assert v.cols == 1 and not (top * v).is_zero()
        assert linalg.rank(linalg.hstack([U, v])) == U.cols


def checked_candidates(M, i):
    """The lazy candidates at i, asserted to be the eager list less any sum
    that eps_i^(c_i-1) kills, and to meet their docstring."""
    top = M.eps[i].power(M.datum.ci(i) - 1)
    lazy = list(pimod._rank_one_candidates(M, i))
    assert lazy == [v for v in eager_rank_one_candidates(M, i) if not (top * v).is_zero()]
    assert_candidates_meet_docstring(M, i, lazy)
    return lazy


def assert_stack_free_forms_match(M):
    """`sub_space`, `k_space`, `_free_rank` (whole M_i, B = sub_i and K = K_i)
    and the lazy candidates equal their stacked-matrix references at every
    vertex; the candidates are the eager list less any sum the loop kills."""
    for i in M.datum.vertices:
        U, K = pimod.sub_space(M, i), pimod.k_space(M, i)
        assert U == stacked_sub_space(M, i)
        assert K == stacked_k_space(M, i)
        for kw in ({}, {"B": U}, {"K": K}):
            assert pimod._free_rank(M, i, **kw) == stacked_free_rank(M, i, **kw)
        checked_candidates(M, i)


MODULAR = linalg.GF(32003)


def _over(M, field):
    return M if field is QQ else pimod.module_from_json(pimod.module_to_json(M), M.datum, field)


@settings(max_examples=20, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_DUAL_DATA)), seed=st.integers(0, 2 ** 16),
       rank=st.integers(1, 4), modular=st.booleans())
@example(name="B2", seed=3, rank=4, modular=False)
@example(name="C3", seed=5, rank=4, modular=True)
@example(name="G2", seed=7, rank=4, modular=False)
@example(name="A3", seed=11, rank=4, modular=True)
def test_stack_free_spaces_match_stacked_references(name, seed, rank, modular):
    """On towers over B2, C3 (c = (4,2,1)), G2 (c = (1,3)) and A3, over Q or
    GF(32003), and on their canonical pieces (some not locally free), the
    spaces, ranks and candidates read from block rows are the stacked ones."""
    field = MODULAR if modular else QQ
    rng = random.Random(seed)
    M = random_tower(_dual_datum(name), rank, rng, field)
    mods = [M]
    for i in M.datum.vertices:
        p = canonical_pieces(M, i)
        mods += [p.sub, p.quot, p.ker, p.fac]
    for X in mods:
        assert_stack_free_forms_match(X)


def _not_locally_free():
    """A B2 module with one nonzero arrow and zero loops; one whose M_1 has
    Jordan type (2, 2, 1) with K_1 the block of size one, so that fac_1 is
    free of rank 2 and the rank of [K | eps_1] reads both blocks; C3 short
    Jordan blocks beside each E_j; and B2 modules whose loop at 2 is not
    nilpotent."""
    b2 = catalog.b2_datum()
    yield ModuleRep(b2, {1: 1, 2: 1}, {}, {("arr", 2, 1, 1): Mat.from_rows(QQ, [[1]])})
    jordan = Mat.from_rows(QQ, [[int((r, c) in ((1, 0), (3, 2))) for c in range(5)]
                                for r in range(5)])
    yield ModuleRep(b2, {1: 5, 2: 1}, {1: jordan},
                    {("arr", 1, 2, 1): Mat.from_rows(QQ, [[0], [0], [0], [0], [1]])})
    yield from _short_jordan_blocks(_dual_datum("C3"))
    datum = catalog.b2_relabeled_datum()
    arrows = {("arr", 1, 2, 1): Mat.from_rows(QQ, [[1, 0]]),
              ("arr", 2, 1, 1): Mat.from_rows(QQ, [[1], [1]])}
    for eps2 in ([[1, 0], [0, 2]], [[0, 1], [1, 0]]):
        yield ModuleRep(datum, {1: 1, 2: 2}, {2: Mat.from_rows(QQ, eps2)}, arrows)


@pytest.mark.parametrize("field", [QQ, MODULAR], ids=["Q", "GF32003"])
def test_stack_free_spaces_on_many_blocks_and_not_locally_free(field):
    """The A5 `leclerc_suite` members (vertices 2, 3 and 4 have two arrows
    out and two in, so the stacks there have many blocks) and modules that
    are not locally free give the stacked references' spaces and ranks."""
    entries = catalog.leclerc_suite().entries
    mods = [e.module for e in entries] + list(_not_locally_free())
    assert not all(is_locally_free(X)[0] for X in mods)
    for X in mods:
        assert_stack_free_forms_match(_over(X, field))


def _cancelling_sum_module():
    """B2 with M_1 = K^4, eps_1 two blocks [[1, -1], [1, -1]] and no arrows:
    every column of eps_1 is nonzero, but eps_1 kills their sum."""
    eps = Mat.from_rows(QQ, [[1, -1, 0, 0], [1, -1, 0, 0], [0, 0, 1, -1], [0, 0, 1, -1]])
    return ModuleRep(catalog.b2_datum(), {1: 4}, {1: eps})


def test_efiltered_search_refuses_modules_that_break_the_relations():
    """The B2 modules whose loop at 2 is not nilpotent: a candidate's loop
    powers there may be dependent (`quotient` refuses them), so the search
    answers False first, as `is_E_filtered` does, over Q and GF(32003)."""
    for X in list(_not_locally_free())[-2:]:
        for field in (QQ, MODULAR):
            Y = _over(X, field)
            assert "nilpotency@2" in check_relations(Y) and is_locally_free(Y) == (False, None)
            with pimod.memo_run():
                assert pimod._efiltered_search(Y) == (False, None)
                assert is_E_filtered(Y) == (False, None)


def test_rank_one_candidates_skip_a_sum_the_loop_kills(monkeypatch):
    """The eager list's third candidate (1, 1, 1, 1) is killed by eps_1, so
    its loop powers are dependent and `quotient` refuses them; the lazy
    candidates leave it out, and the full search still peels E_1 twice."""
    M = _cancelling_sum_module()
    assert check_relations(M) == [] and is_locally_free(M) == (True, (2, 0))
    eager = eager_rank_one_candidates(M, 1)
    assert len(eager) == 3 and (M.eps[1] * eager[2]).is_zero()
    with pytest.raises(ValueError, match="linearly dependent"):
        pimod.quotient(M, {1: linalg.hstack([eager[2], M.eps[1] * eager[2]])})
    assert checked_candidates(M, 1) == eager[:2]
    monkeypatch.setattr(pimod, "_arrows_vanish", lambda M, i: False)
    with pimod.memo_run():
        assert is_E_filtered(M) == (True, (1, 1))


def _towers_doc():
    return json.loads((Path(__file__).resolve().parent.parent
                       / "perfbench" / "data" / "towers.json").read_text())


def _stored_datum(spec):
    return validate_datum(spec["cartan"], spec["symmetrizer"],
                          [tuple(p) for p in spec["orientation"]])


def _stored_towers(max_rank=12):
    """Every stored benchmark tower (B2, C3 and G2, total ranks 2 to 12),
    or those of total rank at most `max_rank`."""
    doc = _towers_doc()
    for name, spec in doc["data"].items():
        datum = _stored_datum(spec)
        for rank, docs in doc["towers"][name].items():
            if int(rank) <= max_rank:
                for tower in docs:
                    yield pimod.module_from_json(tower, datum)


def _stored_tower(name, rank, index):
    doc = _towers_doc()
    return pimod.module_from_json(doc["towers"][name][str(rank)][index],
                                  _stored_datum(doc["data"][name]))


def test_stored_towers_read_as_before():
    """Every stored tower (3 data x 11 ranks x 8) reads to the module that
    Fraction(str) on its entries and int() on its dimensions, the readers
    before `linalg.Field.coerce`, give: each of its entries is a string in
    README's spelling, so the one reader changes no value the program wrote."""
    doc, count = _towers_doc(), 0
    for name, spec in doc["data"].items():
        datum = _stored_datum(spec)
        keys = {arrow_name(key): key for key in datum.arrow_keys()}
        for docs in doc["towers"][name].values():
            for tower in docs:
                dims = {pimod.parse_vertex(datum, k): int(v) for k, v in tower["dims"].items()}

                def mat(m, i, j):
                    assert all(re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x) for row in m for x in row)
                    return Mat(QQ, dims.get(i, 0), dims.get(j, 0),
                               [[Fraction(x) for x in row] for row in m])

                eps = {i: mat(m, i, i) for i, m in
                       ((pimod.parse_vertex(datum, k), m) for k, m in tower["epsilon"].items())}
                arrows = {keys[k]: mat(m, keys[k][1], keys[k][2])
                          for k, m in tower["arrows"].items()}
                want = pimod._content_key(ModuleRep(datum, dims, eps, arrows))
                assert pimod._content_key(pimod.module_from_json(tower, datum)) == want
                count += 1
    assert count == 3 * 11 * 8


def test_quotient_by_a_scaled_identity_is_the_quotient_by_the_identity():
    """A space that is all of M_j but not the identity is completed like
    any other, with an empty projection: on the stored towers, the fac_i
    quotient with 2 I at every j != i equals the one with I there."""
    for M in _stored_towers(max_rank=6):
        for i in M.datum.vertices:
            spaces = pimod._ker_spaces(M, i, pimod.k_space(M, i))
            scaled = {j: B if j == i else B.scale(2) for j, B in spaces.items()}
            assert pimod.module_to_json(pimod.quotient(M, scaled)) == \
                pimod.module_to_json(pimod.quotient(M, spaces))


def test_rank_one_candidates_meet_their_docstring_on_stored_towers():
    """On every stored tower, each vertex's candidates are vectors of sub_i
    that eps_i^(c_i-1) does not kill, the eager list less any killed sum."""
    assert sum(len(checked_candidates(M, i)) for M in _stored_towers() for i in M.datum.vertices)


def _fresh_content_key(M):
    M._cache.pop("content", None)
    return pimod._content_key(M)


def test_crystal_and_efiltered_tests_leave_their_inputs_unchanged():
    """One-block stacks hand back the block itself, so a caller that wrote
    into a stack would write into its module: `is_crystal`, `is_E_filtered`
    and `canonical_pieces` leave each input's content key as it was."""
    entries = catalog.leclerc_suite().entries
    rng = random.Random(29)
    mods = ([e.module for e in entries] + [_cancelling_sum_module()]
            + [random_tower(_dual_datum(name), 4, rng) for name in sorted(_DUAL_DATA)])
    for M in mods:
        before = _fresh_content_key(M)
        with pimod.memo_run():
            is_crystal(M)
            is_E_filtered(M)
            for i in M.datum.vertices:
                canonical_pieces(M, i)
        assert _fresh_content_key(M) == before


# -- is_E_filtered: whole free socles peeled, the search as fallback -------------

def _count_searches(monkeypatch):
    """Record the modules `_efiltered_search` is called on, recursion included."""
    calls = []
    search = pimod._efiltered_search
    monkeypatch.setattr(pimod, "_efiltered_search", lambda M: calls.append(M) or search(M))
    return calls


def socle_blocks(M):
    """The peel's witness, rebuilt from canonical pieces with no zero-arrow
    rule: at step k, at i = vertices[k mod n], where sub_i is nonzero and
    locally free, the block (i,) * rank sub_i, then the same on Q_i; None
    where a sub_i is not locally free or n steps in a row find sub_i zero."""
    vs = M.datum.vertices
    n, witness, k, idle = len(vs), (), 0, 0
    while M.dim_total():
        if idle == n:
            return None
        i = vs[k % n]
        p = canonical_pieces(M, i)
        ok, ranks = is_locally_free(p.sub)
        if not ok:
            return None
        if p.sub.dim_total():
            witness, M, idle = witness + (i,) * ranks[k % n], p.quot, 0
        else:
            idle += 1
        k += 1
    return witness


def test_efiltered_peels_crystal_towers_with_no_search(monkeypatch):
    """On the stored towers of total rank up to 7 (B2, C3, G2), all crystal
    but B2 rank 5 #1 and C3 rank 7 #2, the peel of a crystal tower never
    gets stuck, and its witness is the block sequence."""
    mods = list(_stored_towers(max_rank=7))
    with pimod.memo_run():
        crystal = [M for M in mods if is_crystal(M)]
        want = [socle_blocks(M) for M in crystal]
    assert len(crystal) == len(mods) - 2 and None not in want
    assert {M.datum.cartan for M in crystal} == {M.datum.cartan for M in mods}
    calls = _count_searches(monkeypatch)
    with pimod.memo_run():
        assert [is_E_filtered(M) for M in crystal] == [(True, w) for w in want]
    assert calls == []


def test_efiltered_peel_gets_stuck_and_the_search_runs(monkeypatch):
    """The stored B2 rank-5 tower #1 is E-filtered but not crystal: no
    vertex of some quotient in the peel has a nonzero free sub_i, so the
    search runs on the tower itself and finds the filtration."""
    M = _stored_tower("B2", 5, 1)
    calls = _count_searches(monkeypatch)
    with pimod.memo_run():
        assert is_E_filtered(M) == (True, (1, 1, 1, 2, 1))
        assert is_crystal(M) is False
    assert calls and calls[0] is M


# the stored towers on which the cyclic peel gets stuck, as (datum, rank, index)
_STUCK_TOWERS = [("B2", 5, 1), ("C3", 8, 6), ("G2", 10, 0), ("G2", 10, 4)]


def test_peel_on_every_stored_tower():
    """The cyclic peel reaches zero on every stored tower but four, and its
    witness is `socle_blocks`' on all of them.  None of the four is
    crystal, so every crystal tower peels to zero."""
    doc = _towers_doc()
    stuck = []
    with pimod.memo_run():
        for name, spec in doc["data"].items():
            datum = _stored_datum(spec)
            for rank, docs in doc["towers"][name].items():
                for index, tower in enumerate(docs):
                    M = pimod.module_from_json(tower, datum)
                    witness, X = pimod.peel(M)
                    if X.dim_total():
                        stuck.append((name, int(rank), index))
                    assert socle_blocks(M) == (None if X.dim_total() else witness)
        assert stuck == _STUCK_TOWERS
        assert not any(is_crystal(_stored_tower(*key)) for key in stuck)


def test_search_gets_only_stuck_modules(monkeypatch):
    """On the four towers where the peel gets stuck, the search finds a
    filtration, and every `_efiltered_search` call, recursion included,
    gets a nonzero, locally free module whose peel is stuck: each node of
    the search is peeled before it is searched."""
    calls = _count_searches(monkeypatch)
    with pimod.memo_run():
        got = [is_E_filtered(_stored_tower(*key)) for key in _STUCK_TOWERS]
    assert got == [(True, (1, 1, 1, 2, 1)), (True, (1, 1, 2, 1, 3, 3, 3, 2)),
                   (True, (1, 2, 2, 2, 2, 1, 2, 2, 2, 1)),
                   (True, (1, 1, 2, 2, 1, 2, 2, 2, 2, 1))]
    assert len(calls) >= len(_STUCK_TOWERS)
    for X in calls:
        assert X.dim_total() and is_locally_free(X)[0] and pimod.peel(X)[1].dim_total()


def test_peel_stops_where_a_sub_is_not_free():
    """The peel stops at a sub_i that is not free and tries no later
    vertex: on the C3 seed-38 tower, sub_1 is zero and sub_2 not free, so
    the leftover is the tower itself, though sub_3 = E_3^2 could be
    peeled.  The tower is E-filtered, by the search, but not crystal."""
    M = _crystal_family("C3", 38)[0]
    assert [pimod._free_rank(M, i, B=pimod.sub_space(M, i)) for i in M.datum.vertices] == \
        [0, None, 2]
    assert pimod.peel(M) == ((), M)
    assert is_E_filtered(M) == (True, (3, 2, 3, 2)) and is_crystal(M) is False


def _cycle(C, arrows):
    """The module K at every vertex of the minimal-symmetric datum C, with
    the given arrows acting by 1 and no other."""
    datum = validate_datum(C, [1] * len(C), default_orientation(C))
    one = Mat.from_rows(QQ, [[1]])
    return ModuleRep(datum, {i: 1 for i in datum.vertices}, {}, {k: one for k in arrows})


def test_peel_decides_nilpotency_on_minimal_symmetric_data():
    """Over a minimal symmetrizer the peel is the socle series: it reaches
    zero exactly on nilpotent representations.  Towers over A2, A3 and A5
    and the leclerc modules are nilpotent; a cycle of arrows over A1~ and
    over A2~ is not, alone or beside E_1."""
    rng = random.Random(36)
    nilpotent = [random_tower(catalog.a_type_datum(n), rank, rng)
                 for n in (2, 3, 5) for rank in range(1, 7) for _ in range(2)]
    nilpotent += [e.module for e in catalog.leclerc_suite().entries]
    cycles = [_cycle(_WIDER_DATA["A1~"][0], [("arr", 2, 1, 1), ("arr", 1, 2, 2)]),
              _cycle([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
                     [("arr", 2, 1, 1), ("arr", 3, 2, 1), ("arr", 1, 3, 1)])]
    cycles += [direct_sum(X, generalized_simple(X.datum, 1)) for X in cycles]
    mods = nilpotent + cycles
    assert all(check_relations(X) == [] and is_locally_free(X)[0] for X in cycles)
    want = [nilpotent_reference(X) for X in mods]
    assert want == [True] * len(nilpotent) + [False] * len(cycles)
    assert [not pimod.peel(X)[1].dim_total() for X in mods] == want
    with pimod.memo_run():
        assert [is_crystal(X) for X in mods] == want
        assert [is_E_filtered(X)[0] for X in mods] == want


def _not_efiltered():
    """The modules the tests above find not E-filtered that satisfy the
    relations (the search's domain): not locally free, or locally free with
    arrows in a cycle (over symmetrizers (1, 1) and (2, 2))."""
    one = Mat.from_rows(QQ, [[1]])
    cycle = ModuleRep(_wider("A1~"), {1: 1, 2: 1}, {},
                      {("arr", 2, 1, 1): one, ("arr", 1, 2, 2): one})
    mods = [cycle, symred.tilde_lift(cycle, 2),
            ModuleRep(catalog.b2_datum(), {1: 1}, {}, {}), *_not_locally_free(),
            *_short_jordan_blocks(catalog.b2_datum())]
    return [X for X in mods if check_relations(X) == []]


@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16))
def test_efiltered_flag_matches_the_search(name, seed):
    """`is_E_filtered` and `_efiltered_search` give the same flag on a
    tower's crystal family and on the modules that are not E-filtered."""
    negatives = _not_efiltered()
    mods = _crystal_family(name, seed) + negatives
    with pimod.memo_run():
        flags = [is_E_filtered(X)[0] for X in mods]
        assert flags == [pimod._efiltered_search(X)[0] for X in mods]
    assert not any(flags[-len(negatives):])


# -- the per-run memo -----------------------------------------------------------

def _wider(name):
    C, D = _WIDER_DATA[name]
    return validate_datum(C, D, default_orientation(C))


@settings(max_examples=15, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_WIDER_DATA)), seed=st.integers(0, 2 ** 16),
       rank_m=st.integers(1, 3), rank_n=st.integers(1, 3))
def test_memo_matches_unmemoized(name, seed, rank_m, rank_n):
    datum = _wider(name)
    rng = random.Random(seed)
    M = random_tower(datum, rank_m, rng)
    N = random_tower(datum, rank_n, rng)
    want = (ext1_dim.__wrapped__(M, N), hom_dim.__wrapped__(M, N),
            is_crystal.__wrapped__(M), is_E_filtered.__wrapped__(N))
    with pimod.memo_run():
        for _ in range(2):  # a miss, then a hit
            assert (ext1_dim(M, N), hom_dim(M, N), is_crystal(M), is_E_filtered(N)) == want


def _count_free_hom_systems(monkeypatch):
    """Record the Hom systems built over free generators (`_hom_system`
    given `ranks`), the systems `ext1_dim` and `hom_dim` solve."""
    calls = []
    hom_system = pimod._hom_system

    def counted(M, N, arrows, ranks=None):
        if ranks is not None:
            calls.append((M, N))
        return hom_system(M, N, arrows, ranks)

    monkeypatch.setattr(pimod, "_hom_system", counted)
    return calls


class TestRunMemo:
    def test_content_equal_copy_hits(self, b2_mods, monkeypatch):
        _, _, M3 = b2_mods
        twin = pimod.module_from_json(pimod.module_to_json(M3), M3.datum)
        assert twin is not M3
        calls = _count_free_hom_systems(monkeypatch)
        with pimod.memo_run():
            ext = ext1_dim(M3, M3)
            entries = len(pimod._memo)
            assert ext1_dim(twin, twin) == ext
            assert ext1_dim(M3, twin) == ext
            assert len(pimod._memo) == entries
        assert len(calls) == 1

    def test_no_collisions(self, a2, b2_mods):
        E1, _, M3 = b2_mods
        # one entry changed
        arrows = dict(M3.arrows)
        key = next(k for k, A in arrows.items() if not A.is_zero())
        rows = [list(row) for row in arrows[key].data]
        r, c = next((r, c) for r, row in enumerate(rows) for c, x in enumerate(row) if x)
        rows[r][c] = rows[r][c] * 2
        arrows[key] = Mat.from_rows(QQ, rows)
        bent = ModuleRep(M3.datum, M3.dims, M3.eps, arrows)
        # the same (empty) matrices over another datum or another field
        a1t = _wider("A1~")
        pairs = [(generalized_simple(d, 1, f), generalized_simple(d, 2, f))
                 for d in (a2, a1t) for f in (QQ, linalg.GF(32003))]
        with pimod.memo_run():
            assert hom_dim(M3, E1) == hom_dim.__wrapped__(M3, E1)
            assert hom_dim(bent, E1) == hom_dim.__wrapped__(bent, E1)
            assert len([k for k in pimod._memo if k[0] == "hom_dim"]) == 2
            for M, N in pairs:
                assert ext1_dim(M, N) == ext1_dim.__wrapped__(M, N)
            assert [ext1_dim(M, N) for M, N in pairs] == [1, 1, 2, 2]
            assert len([k for k in pimod._memo if k[0] == "ext1_dim"]) == 4

    def test_no_memo_outlives_its_call(self, b2):
        assert pimod._memo is None
        E1 = generalized_simple(b2, 1)
        assert is_crystal(E1)
        assert pimod._memo is None
        with pytest.raises(NotLocallyFree):
            ext1_dim(ModuleRep(b2, {1: 1}, {}, {}), E1)
        assert pimod._memo is None
        with pimod.memo_run():
            outer = pimod._memo
            hom_dim(E1, E1)
            with pimod.memo_run():
                assert pimod._memo == {} and pimod._memo is not outer
            assert pimod._memo is outer
        assert pimod._memo is None

    def test_results_are_not_shared(self, b2_mods):
        """Results are handed out as stored, so they are immutable tuples."""
        _, _, M3 = b2_mods
        with pimod.memo_run():
            first = is_locally_free(M3), is_E_filtered(M3)
            assert first == ((True, (1, 1)), (True, (2, 1)))
            assert all(isinstance(extra, tuple) for _, extra in first)
            assert (is_locally_free(M3), is_E_filtered(M3)) == first

    def test_each_criteria_pass_computes(self, monkeypatch):
        from ppalg import selftest
        monkeypatch.setattr(selftest, "_CRITERIA", (selftest.criterion_leclerc,))
        calls = _count_free_hom_systems(monkeypatch)
        counts, reports = [], []
        for _ in range(2):
            calls.clear()
            reports.append(selftest.run_criteria(seed=0))
            counts.append(len(calls))
        assert reports[0] == reports[1] and reports[0][0]["passed"]
        assert counts[0] == counts[1] > 0
        assert pimod._memo is None


# -- draws straight from the kernel matrix of a basis

def _draw_modules(name, seed, rank_m, rank_n, modular):
    """Two towers over `_DUAL_DATA[name]`, conjugated so that the loops are
    not in Jordan form and the entries have denominators, over Q or
    GF(32003)."""
    datum = _dual_datum(name)
    rng = random.Random(seed)
    M, N = [_conjugate(T, {i: _random_invertible(rng, T.dims[i]) for i in datum.vertices})
            for T in (random_tower(datum, rank_m, rng), random_tower(datum, rank_n, rng))]
    if modular:
        M, N = [pimod.module_from_json(pimod.module_to_json(T), datum, linalg.GF(32003))
                for T in (M, N)]
    return M, N


def combination_of_elements(basis, coeffs):
    """The reference for `KernelBasis.combination`: sum_b coeffs[b] basis[b]
    over a list of dict-shaped hom/der elements ({} if none), one `Mat`
    scale and sum at a time."""
    if not basis:
        return {}
    out = {}
    for key in basis[0]:
        acc = basis[0][key].scale(coeffs[0])
        for c, elem in zip(coeffs[1:], basis[1:]):
            if c:
                acc = acc + elem[key].scale(c)
        out[key] = acc
    return out


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_DUAL_DATA)), seed=st.integers(0, 2 ** 16),
       rank_m=st.integers(1, 3), rank_n=st.integers(1, 3), modular=st.booleans())
def test_draw_from_kernel_basis_matches_combination_of_elements(name, seed, rank_m, rank_n,
                                                                modular):
    """A draw from a `KernelBasis`, formed from its kernel rows, equals
    `combination_of_elements` over its unflattened elements for the same
    integer and fractional coefficients, and unflattens one element."""
    M, N = _draw_modules(name, seed, rank_m, rank_n, modular)
    rng = random.Random(seed)
    for basis in (hom_basis(M, N), hom_basis(N, N), derivation_basis(M, N)):
        assert isinstance(basis, pimod.KernelBasis)
        with mock.patch.object(pimod, "_unflatten", wraps=pimod._unflatten) as spy:
            draw = pimod.random_combination(basis, random.Random(seed))
        # the draw unflattened one element, or none from an empty basis
        assert [call.args[-1] for call in spy.call_args_list] == [1] * bool(len(basis))
        elems = elements(basis)
        assert len(elems) == len(basis) and bool(basis) == bool(elems)
        same = random.Random(seed)
        coeffs = [same.randint(-pimod.COEFF_BOUND, pimod.COEFF_BOUND) for _ in elems]
        assert draw == combination_of_elements(elems, coeffs)
        fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in elems]
        assert basis.combination(fractions) == combination_of_elements(elems, fractions)


def test_combination_takes_one_coefficient_per_element(b2):
    """`KernelBasis.combination` refuses a coefficient list of another
    length than the basis, empty bases included."""
    E1 = generalized_simple(b2, 1)
    basis, empty = hom_basis(E1, E1), hom_basis(E1, generalized_simple(b2, 2))
    assert (len(basis), len(empty)) == (2, 0)
    for coeffs in ([1, 2, 3], [1], []):
        with pytest.raises(ValueError, match="coefficients for a basis of 2"):
            basis.combination(coeffs)
    with pytest.raises(ValueError, match="coefficients for a basis of 0"):
        empty.combination([1])
    assert basis.combination([1, 0]) == elements(basis)[0] and empty.combination([]) == {}


# every operation on two modules, each called on the pair (M, N)
_PAIR_OPERATIONS = {
    "hom_dim": hom_dim,
    "hom_basis": hom_basis,
    "hom_t_dim": pimod.hom_t_dim,
    "derivation_basis": derivation_basis,
    "ext1_dim": ext1_dim,
    "ext1_dim_der": pimod.ext1_dim_der,
    "direct_sum": direct_sum,
    "iso_test": iso_test,
    "extension_module": lambda M, N: starop.extension_module(M, N, {}),
    "star": starop.star,
}


@pytest.mark.parametrize("op", sorted(_PAIR_OPERATIONS))
def test_operations_on_two_modules_refuse_mixed_fields_and_data(op, a2, b2):
    """E_1 over Q and E_1 over GF(7) are refused by `pimod.check_pair`, in
    either order, as are modules over two data; one field and one datum
    pass."""
    fn = _PAIR_OPERATIONS[op]
    E, F = generalized_simple(b2, 1), generalized_simple(b2, 1, linalg.GF(7))
    for M, N in ((E, F), (F, E)):
        with pytest.raises(ValueError, match="different fields: "):
            fn(M, N)
    with pytest.raises(ValueError, match="different data"):
        fn(E, generalized_simple(a2, 1))
    fn(F, F)


def test_module_refuses_matrices_over_another_field(b2):
    """E_1's matrices over GF(7) make no module over Q, and a Q arrow none
    over GF(7); the error names the generator."""
    E, F = generalized_simple(b2, 1), generalized_simple(b2, 1, linalg.GF(7))
    with pytest.raises(ValueError, match=r"loop at 1 is over GF\(7\), the module over QQ"):
        ModuleRep(b2, F.dims, F.eps, F.arrows)
    key = ("arr", 2, 1, 1)
    with pytest.raises(ValueError, match=re.escape("arrow %r is over QQ" % (key,))):
        ModuleRep(b2, {1: 2, 2: 1}, {1: F.eps[1]}, {key: Mat.zeros(QQ, 1, 2)}, linalg.GF(7))
    assert hom_dim(ModuleRep(b2, E.dims, E.eps, E.arrows), E) == hom_dim(E, E)


def end_is_local_reference(M, endb):
    """The reference for `pimod._end_is_local`: the trace form's Gram matrix
    built entry by entry in Fractions over the unflattened elements."""
    h = len(endb)
    gram = [[0] * h for _ in range(h)]
    for a in range(h):
        for b in range(a, h):
            t = 0
            for i in M.datum.vertices:
                A, B = endb[a][i], endb[b][i]
                t += Fraction(sum(x * B.nz[v].get(u, 0) for u, row in enumerate(A.nz)
                                  for v, x in row.items()), A.den * B.den)
            gram[a][b] = gram[b][a] = t
    rad = h - linalg.rank(Mat(M.field, h, h, gram))
    return h - rad == 1


# Cartan matrix and symmetrizer of every datum the trace-form certificate
# is compared over, beside B2
_LOCAL_DATA = {**_WIDER_DATA, "A3": _DUAL_DATA["A3"]}

# End(M) is solved in sum_i dims[i]^2 unknowns: at 144 (G2, X (+) X of rank
# 3) the basis and the reference take 0.3-0.4 s each on a 2-core x86 host
# under Python 3.11.  Examples past this bound are rejected.
END_REFERENCE_UNKNOWNS = 80


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(["B2"] + sorted(_LOCAL_DATA)), seed=st.integers(0, 2 ** 16),
       kind=st.sampled_from(["tower", "isotypic", "pair"]),
       rank_x=st.integers(1, 3), rank_y=st.integers(1, 3))
@example(name="B2", seed=5, kind="tower", rank_x=3, rank_y=1)
@example(name="C3", seed=4, kind="tower", rank_x=2, rank_y=1)
@example(name="G2", seed=1, kind="isotypic", rank_x=3, rank_y=1)
@example(name="A3", seed=0, kind="pair", rank_x=2, rank_y=2)
@example(name="A1~", seed=4, kind="tower", rank_x=3, rank_y=1)
def test_end_is_local_matches_fraction_gram_reference(name, seed, kind, rank_x, rank_y):
    """On a tower X, X (+) X or X (+) Y, conjugated by random invertibles,
    `_end_is_local` reads the kernel matrix of hom_basis(M, M), unflattening
    no element, and agrees with the Gram reference; a sum is never local.
    The pinned towers have a local End of dimension 2."""
    datum = catalog.b2_datum() if name == "B2" else validate_datum(
        *_LOCAL_DATA[name], default_orientation(_LOCAL_DATA[name][0]))
    rng = random.Random(seed)
    X = random_tower(datum, rank_x, rng)
    M = X if kind == "tower" else direct_sum(
        X, X if kind == "isotypic" else random_tower(datum, rank_y, rng))
    assume(sum(d * d for d in M.dims.values()) <= END_REFERENCE_UNKNOWNS)
    M = _conjugate(M, {i: _random_invertible(rng, M.dims[i]) for i in datum.vertices})
    with mock.patch.object(pimod, "_unflatten", wraps=pimod._unflatten) as spy:
        local = pimod._end_is_local(M, hom_basis(M, M))
    assert not spy.called
    assert local == end_is_local_reference(M, elements(hom_basis(M, M)))
    assert not (local and kind != "tower")


# -- Ext^1 from two Hom dimensions against the Der route ---------------------------

# Cartan matrix and symmetrizer of every datum the Ext routes are compared
# over: C3 with its minimal symmetrizer and with c = (4,2,1), and A1~ with
# two arrows each way
_EXT_DATA = {
    "B2": _DUAL_DATA["B2"],
    "C3": _WIDER_DATA["C3"],
    "C3 (4,2,1)": _DUAL_DATA["C3"],
    "G2": _DUAL_DATA["G2"],
    "A3": _DUAL_DATA["A3"],
    "A1~": _WIDER_DATA["A1~"],
}


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_EXT_DATA)), seed=st.integers(0, 2 ** 16),
       rank_m=st.integers(0, 4), rank_n=st.integers(0, 4), modular=st.booleans())
@example(name="B2", seed=1, rank_m=4, rank_n=2, modular=False)
@example(name="C3", seed=2, rank_m=3, rank_n=3, modular=True)
@example(name="C3 (4,2,1)", seed=3, rank_m=2, rank_n=3, modular=False)
@example(name="G2", seed=4, rank_m=3, rank_n=3, modular=True)
@example(name="A3", seed=5, rank_m=0, rank_n=3, modular=False)
@example(name="A1~", seed=6, rank_m=3, rank_n=0, modular=True)
def test_ext_from_two_homs_matches_der_route(name, seed, rank_m, rank_n, modular):
    """On towers (rank 0: the zero module) over Q or GF(32003), `ext1_dim`
    equals the Der route `ext1_dim_der` both ways and the connecting-map
    oracle, and a summand that is not locally free raises NotLocallyFree."""
    C, D = _EXT_DATA[name]
    datum = validate_datum(C, D, default_orientation(C))
    field = MODULAR if modular else QQ
    rng = random.Random(seed)
    M, N = [random_tower(datum, r, rng, field) if r else pimod.zero_module(datum, field)
            for r in (rank_m, rank_n)]
    ext = ext1_dim(M, N)
    assert ext == pimod.ext1_dim_der(M, N) == pimod.ext1_dim_der(N, M) == ext1_dim(N, M)
    assert ext == ext1_dim_oracle(M, N)
    if not (rank_m and rank_n):
        assert ext == 0
    X = direct_sum(M, _defect(datum, rng.choice(datum.vertices), rng, field))
    for pair in ((X, N), (N, X)):
        with pytest.raises(NotLocallyFree):
            ext1_dim(*pair)
        with pytest.raises(NotLocallyFree):
            pimod.ext1_dim_der(*pair)


def test_negative_ext_is_a_fault(b2, monkeypatch):
    """ext1_dim never returns a negative number: with both Homs forced to 0,
    E_1 against itself gives 0 + 0 - (e_1, e_1)_H = -4, an internal fault."""
    monkeypatch.setattr(pimod, "hom_dim", lambda M, N: 0)
    E1 = generalized_simple(b2, 1)
    with pytest.raises(pimod.ConsistencyError, match="negative Ext"):
        pimod.ext1_dim(E1, E1)


def test_odd_self_ext_is_a_fault(b2, monkeypatch):
    """is_rigid's orbit codimension is ext^1(M, M) / 2; an odd ext^1 is an
    internal fault, not a rounded codimension."""
    monkeypatch.setattr(pimod, "ext1_dim", lambda M, N: 1)
    with pytest.raises(pimod.ConsistencyError, match="odd self-extension"):
        is_rigid(generalized_simple(b2, 1))


def test_zero_modules_are_isomorphic_and_have_no_summand(b2):
    """Two zero modules are isomorphic with no draw, and 0 decomposes into
    no summand."""
    Z = pimod.zero_module(b2)
    assert iso_test(Z, pimod.zero_module(b2), trials=0) is True
    assert decompose(Z) == []

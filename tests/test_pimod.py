import random
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ppalg import catalog, linalg, pimod, selftest, starop, symred
from ppalg.cartan import (alpha_form, default_orientation, eps_key, gen_source, gen_target,
                          symmetrized_form, validate_datum)
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


# -- independent oracle: Ext^1 through the connecting map Hom_T -> Der --------

def hom_t_basis(M, N):
    """Per-vertex loop-commuting maps, as dicts of matrices."""
    out = []
    for i in M.datum.vertices:
        dM, dN = M.dims[i], N.dims[i]
        rows = []
        for u in range(dN):
            for v in range(dM):
                row = [QQ.zero] * (dN * dM)
                for r in range(dM):
                    a = M.eps[i].data[r][v]
                    if a:
                        row[u * dM + r] += a
                for r in range(dN):
                    b = N.eps[i].data[u][r]
                    if b:
                        row[r * dM + v] -= b
                rows.append(row)
        A = Mat(QQ, len(rows), dN * dM, rows) if rows else Mat.zeros(QQ, 0, dN * dM)
        for k in range(linalg.nullspace(A).cols):
            ns = linalg.nullspace(A)
            vec = [ns.data[r][k] for r in range(dN * dM)]
            f = {j: Mat.zeros(QQ, N.dims[j], M.dims[j]) for j in M.datum.vertices}
            f[i] = Mat(QQ, dN, dM, [vec[u * dM:(u + 1) * dM] for u in range(dN)])
            out.append(f)
    return out


def ext1_dim_oracle(M, N):
    """dim Ext^1 as dim Der - rank(connecting map), avoiding the alpha
    formula entirely."""
    derb = derivation_basis(M, N)
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
    A = Mat(QQ, len(images), len(flatten(derb[0])) if derb else
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
        E = Mat.zeros(QQ, 4, 4)
        E.data[0][1] = QQ.one
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
        """A wrong Ext^1 dimension breaks the Ext-formula: `verify_ext_theorems`
        raises with the report, and criterion c4 fails listing it."""
        real = pimod.ext1_dim
        monkeypatch.setattr(pimod, "ext1_dim", lambda M, N: real(M, N) + 1)
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        with pytest.raises(pimod.ExtTheoremError) as exc:
            verify_ext_theorems(E1, E2)
        assert exc.value.report["formula_ok"] is False
        assert exc.value.report["duality_ok"] is True
        result = selftest.criterion_ext_theorems(seed=0)
        assert result["passed"] is False
        failures = result["details"]["failures"]
        assert failures and all(f["report"]["formula_ok"] is False for f in failures)

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
    for f in hb:
        for i in datum.vertices:
            assert f[i] * M.eps[i] == N.eps[i] * f[i]
        for key in datum.arrow_keys():
            _, i, j, _ = key
            assert f[i] * M.arrows[key] == N.arrows[key] * f[j]
    derb = derivation_basis(M, N)
    for delta in derb:  # raises InvalidDerivation on a relation residual
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


# -- the system builder against the dense builder it replaced ------------------

def dense_linear_system(field, shapes, equations):
    """The reference for `pimod._linear_system`: the system of `equations`
    as one dense `Mat` of field elements, one nvars-wide row per entry of
    each equation, zero rows kept."""
    offsets, nvars = pimod._var_layout(shapes)
    z = field.zero
    rows = []
    for terms in equations:
        if not terms:
            continue
        _, _, L0, R0 = terms[0]
        block = [[z] * nvars for _ in range(L0.rows * R0.cols)]
        for coeff, k, L, R in terms:
            base, width = offsets[k], shapes[k][1]
            lnz = [[(base + r * width, coeff * x) for r, x in enumerate(row) if x] for row in L.data]
            rnz = [[(c, row[v]) for c, row in enumerate(R.data) if row[v]] for v in range(R.cols)]
            for u, lu in enumerate(lnz):
                if not lu:
                    continue
                for v, rv in enumerate(rnz):
                    out = block[u * R.cols + v]
                    for off, x in lu:
                        for c, y in rv:
                            out[off + c] = out[off + c] + x * y
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
            r = {c: x.v for c, x in enumerate(row) if x}
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
    Hom, Hom_T, Der and Ann(e_k) systems come out as the reference's nonzero
    rows in kernel form, with the reference's rank and nullspace."""
    datum = _wider(name)
    rng = random.Random(seed)
    M, N = [_conjugate(T, {i: _random_invertible(rng, T.dims[i]) for i in datum.vertices})
            for T in (random_tower(datum, rank_m, rng), random_tower(datum, rank_n, rng))]
    if modular:
        M, N = [pimod.module_from_json(pimod.module_to_json(T), datum, linalg.GF(32003))
                for T in (M, N)]
    systems = systems_built_by(lambda: hom_basis(M, N), lambda: pimod.hom_t_dim(M, N),
                               lambda: derivation_basis(M, N),
                               lambda: next(islice(pimod._endomorphism_sources(M, []), 1, None)))
    assert len(systems) == 4
    for field, shapes, equations in systems:
        ref = dense_linear_system(field, shapes, equations)
        rows, nvars = pimod._linear_system(field, shapes, equations)
        assert nvars == ref.cols
        assert rows == kernel_rows_of(ref)
        assert linalg.rows_rank(field, [dict(r) for r in rows], nvars) == linalg.rank(ref)
        assert linalg.rows_nullspace(field, rows, nvars) == linalg.nullspace(ref)


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
        k_sp = {j: Mat.identity(QQ, M.dims[j]) for j in datum.vertices}
        k_sp[i] = pimod.k_space(M, i)
        cases.append(k_sp)
    random_span = {}
    for i in datum.vertices:
        cols = rng.randint(0, M.dims[i])
        A = Mat.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(cols)]
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
    gens = [eps_key(i) for i in datum.vertices] + list(datum.arrow_keys())
    for spaces in _split_cases(M, rng):
        B = {i: spaces.get(i, Mat.zeros(QQ, M.dims[i], 0)) for i in datum.vertices}
        want_sub = {g: linalg.solve_matrix(B[gen_target(g)], M.gen_mat(g) * B[gen_source(g)])
                    for g in gens}
        if None in want_sub.values():
            with pytest.raises(ValueError):
                pimod._split(M, spaces)
            continue
        sub, incl, quot, proj = pimod._split(M, spaces)
        completion = {}
        for i in datum.vertices:
            extra, _, P = linalg.complete_basis(B[i])
            completion[i] = Mat(QQ, M.dims[i], len(extra),
                                [[QQ.one if j == r else QQ.zero for j in extra]
                                 for r in range(M.dims[i])])
            assert sub.dims[i] + quot.dims[i] == M.dims[i]
            assert incl[i] == B[i] and proj[i] == P
        for g in gens:
            i, j, A = gen_target(g), gen_source(g), M.gen_mat(g)
            assert sub.gen_mat(g) == want_sub[g]
            assert quot.gen_mat(g) == proj[i] * (A * completion[j])
            assert A * incl[j] == incl[i] * sub.gen_mat(g)
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
    for g in [eps_key(i) for i in M.datum.vertices] + list(M.datum.arrow_keys()):
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
    at the vertices whose space is proper and nonzero."""
    try:
        want = split_reference(M, spaces)
    except ValueError:
        want = None
    completed = []
    complete_basis = linalg.complete_basis
    with monkeypatch.context() as m:
        m.setattr(linalg, "complete_basis", lambda B: completed.append(B) or complete_basis(B))
        if want is None:
            with pytest.raises(ValueError):
                pimod._split(M, spaces)
            return
        sub, incl, quot, proj = pimod._split(M, spaces)
    proper = [i for i in M.datum.vertices
              if 0 < spaces.get(i, Mat.zeros(QQ, M.dims[i], 0)).cols
              and spaces[i] != Mat.identity(QQ, M.dims[i])]
    assert completed == [spaces[i] for i in proper]
    want_sub, want_incl, want_quot, want_proj = want
    assert incl == want_incl and proj == want_proj
    for g, X in want_sub.items():
        assert sub.gen_mat(g) == X
        assert quot.gen_mat(g) == want_quot[g]


def _part_of_sum(T, U):
    """The spaces of T inside T (+) U: [I; 0] per vertex, which is the
    identity where U is 0 and has no columns where T is 0."""
    return {i: Mat(QQ, T.dims[i] + U.dims[i], T.dims[i],
                   [[QQ.one if r == c else QQ.zero for c in range(T.dims[i])]
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
       rank_t=st.integers(1, 3), rank_u=st.integers(1, 3))
def test_split_matches_reference(name, seed, rank_t, rank_u):
    """Sums T (+) U split along T, the spaces of `_split_cases` and spans
    mixing empty, identity and random spaces per vertex."""
    datum = _wider(name)
    rng = random.Random(seed)
    T, U = random_tower(datum, rank_t, rng), random_tower(datum, rank_u, rng)
    M = direct_sum(T, U)
    cases = [_part_of_sum(T, U)] + _split_cases(M, rng)
    for _ in range(3):
        mixed = {}
        for i in datum.vertices:
            n = M.dims[i]
            kind = rng.choice(("empty", "identity", "random"))
            if kind == "identity":
                mixed[i] = Mat.identity(QQ, n)
            elif kind == "random":
                cols = rng.randint(0, n)
                A = Mat(QQ, n, cols, [[QQ.coerce(rng.randint(-2, 2)) for _ in range(cols)]
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
        _, _, M3 = b2_mods
        p = canonical_pieces(M3, 2)
        for key in M3.datum.arrow_keys():
            _, i, j, _ = key
            assert M3.arrows[key] * p.ker_incl[j] == p.ker_incl[i] * p.ker.arrows[key]
            assert p.fac_proj[i] * M3.arrows[key] == p.fac.arrows[key] * p.fac_proj[j]


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
        return pimod._is_nilpotent_rep(M)
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
    ker, _, coim, _ = pimod._split(M, {i: linalg.nullspace(f[i]) for i in datum.vertices})
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
    lift = symred.tilde_lift(symred.sym_pair(datum, 2), M)
    assert lift.datum.sym == (2, 2) and check_relations(lift) == []
    assert is_locally_free(lift)[0]
    for i in lift.datum.vertices:
        p = canonical_pieces(lift, i)
        assert p.sub.dim_total() == p.fac.dim_total() == 0
    assert not is_crystal(lift)
    assert is_E_filtered(lift) == (False, None) and not crystal_reference(lift)


def test_certified_negative_on_minimal_symmetrizer():
    """The A1~ module of `test_crystal_needs_a_nonzero_sub` itself, over the
    minimal symmetrizer (1, 1): locally free, but its arrows form a cycle, so
    the representation is not nilpotent and both tests refuse it before any
    search."""
    one = Mat.from_rows(QQ, [[1]])
    M = ModuleRep(_wider("A1~"), {1: 1, 2: 1}, {}, {("arr", 2, 1, 1): one, ("arr", 1, 2, 2): one})
    assert M.datum.sym == (1, 1) and M.datum.orient == ((1, 2),)
    assert check_relations(M) == [] and is_locally_free(M) == (True, (1, 1))
    assert not pimod._is_nilpotent_rep(M)
    assert is_crystal(M) is False
    assert is_E_filtered(M) == (False, None)


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

def _transpose(A):
    return Mat(A.field, A.cols, A.rows,
               [[A.data[i][j] for i in range(A.rows)] for j in range(A.cols)])


def invariant_subspace(E, B):
    """Reference: the largest E-invariant subspace in col(B), found by
    shrinking U to the part that E maps back into U until it is stable."""
    U = linalg.column_space(B)
    while U.cols:
        P = _transpose(linalg.nullspace(_transpose(U)))   # ker P = col(U)
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

    def test_decompose_isotypic_pair(self, b2):
        E1 = generalized_simple(b2, 1)
        parts = decompose(direct_sum(E1, E1), seed=0)
        assert len(parts) == 2 and all(iso_test(p, E1) for p in parts)
        # X (+) X in a random basis: random endomorphisms rarely split it,
        # a draw from an annihilator ideal Ann(e_k) does
        X = next(e.module for e in catalog.b2_suite().entries if e.label == "2/12/1")
        for seed in range(4):
            rng = random.Random(seed)
            conj = _conjugate(direct_sum(X, X), {i: _random_invertible(rng, 4) for i in (1, 2)})
            assert check_relations(conj) == []
            parts = decompose(conj, seed=seed)
            assert len(parts) == 2 and all(iso_test(p, X, trials=16) for p in parts)

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
                coker, _ = pimod.quotient(M3, {i: f[i] for i in M3.datum.vertices})
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
            if f and pimod.hom_is_surjective(f, E1):
                spaces = {i: linalg.nullspace(f[i]) for i in M3.datum.vertices}
                ker, _ = pimod.submodule(M3, spaces)
                assert is_E_filtered(ker)[0]
                found += 1
        assert found


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


def _count_der_systems(monkeypatch):
    calls = []
    der_system = pimod._der_system

    def counted(M, N):
        calls.append((M, N))
        return der_system(M, N)

    monkeypatch.setattr(pimod, "_der_system", counted)
    return calls


class TestRunMemo:
    def test_content_equal_copy_hits(self, b2_mods, monkeypatch):
        _, _, M3 = b2_mods
        twin = pimod.module_from_json(pimod.module_to_json(M3), M3.datum)
        assert twin is not M3
        calls = _count_der_systems(monkeypatch)
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
        arrows = {k: A.copy() for k, A in M3.arrows.items()}
        key = next(k for k, A in arrows.items() if not A.is_zero())
        r, c = next((r, c) for r, row in enumerate(arrows[key].data)
                    for c, x in enumerate(row) if x)
        arrows[key].data[r][c] = arrows[key].data[r][c] * 2
        bent = ModuleRep(M3.datum, M3.dims, M3.eps, arrows)
        # the same (empty) matrices over another datum or another field
        a1t = _wider("A1~")
        pairs = [(generalized_simple(d, 1, f), generalized_simple(d, 2, f))
                 for d in (a2, a1t) for f in (QQ, linalg.GF(32003))]
        with pimod.memo_run():
            assert hom_dim(M3, E1) == hom_dim.__wrapped__(M3, E1)
            assert hom_dim(bent, E1) == hom_dim.__wrapped__(bent, E1)
            assert len(pimod._memo) == 2
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
        calls = _count_der_systems(monkeypatch)
        counts, reports = [], []
        for _ in range(2):
            calls.clear()
            reports.append(selftest.run_criteria(seed=0))
            counts.append(len(calls))
        assert reports[0] == reports[1] and reports[0][0]["passed"]
        assert counts[0] == counts[1] > 0
        assert pimod._memo is None

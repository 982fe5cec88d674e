import random
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ppalg import catalog, linalg, pimod, selftest, starop
from ppalg.cartan import default_orientation, gen_source, gen_target, validate_datum
from ppalg.linalg import QQ, Mat
from ppalg.pimod import direct_sum, generalized_simple, iso_test, rank_vector
from ppalg.starop import (DivisionUndefined, InvalidDerivation, extension_module,
                          generic_cokernel, generic_extension, generic_kernel, star,
                          star_table)


def elements(basis):
    """Every element of a `KernelBasis`, unflattened from its kernel matrix."""
    K = basis.kernel
    return pimod._unflatten(basis.field, basis.shapes, K.den, K.nz, K.cols)


@pytest.fixture(scope="module")
def b2():
    return catalog.b2_datum()


@pytest.fixture(scope="module")
def a2():
    return catalog.a2_datum()


class TestExtensionModule:
    def test_zero_class_is_direct_sum(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        mid = extension_module(E1, E2, {})
        assert iso_test(mid, direct_sum(E2, E1))

    def test_rank_vectors_add(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        derb = elements(pimod.derivation_basis(E1, E2))
        mid = extension_module(E1, E2, derb[0])
        assert rank_vector(mid) == (1, 1)
        assert pimod.check_relations(mid) == []

    def test_loops_stay_block_diagonal(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        res = generic_extension(E1, E2, seed=0)
        mid, inj, prj = res.module, res.inject, res.project
        # the loop of the middle term restricts to the sub and descends to the top
        for i in b2.vertices:
            assert mid.eps[i] * inj[i] == inj[i] * E2.eps[i]
            assert prj[i] * mid.eps[i] == E1.eps[i] * prj[i]

    def test_sequence_is_exact(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        res = generic_extension(E1, E2, seed=0)
        for i in b2.vertices:
            assert linalg.rank(res.inject[i]) == E2.dims[i]
            assert linalg.rank(res.project[i]) == E1.dims[i]
            assert (res.project[i] * res.inject[i]).is_zero()

    def test_nonsplit_a2_is_indecomposable(self, a2):
        S1, S2 = generalized_simple(a2, 1), generalized_simple(a2, 2)
        derb = elements(pimod.derivation_basis(S1, S2))
        mid = extension_module(S1, S2, derb[0])
        assert len(pimod.decompose(mid, seed=0)) == 1

    def test_invalid_derivation_rejected(self, b2):
        E1 = generalized_simple(b2, 1)
        M3 = star(E1, generalized_simple(b2, 2), seed=0)
        rng = random.Random(3)
        derb = pimod.derivation_basis(M3, M3)
        from ppalg.linalg import Mat, QQ
        raised = False
        for _ in range(20):
            delta = {k: Mat.from_rows(QQ, [[rng.randint(-3, 3) for _ in range(M3.dims[k[2]])]
                                           for _ in range(M3.dims[k[1]])])
                     for k in b2.arrow_keys()}
            try:
                extension_module(M3, M3, delta)
            except InvalidDerivation:
                raised = True
                break
        assert raised  # the derivation space is a proper subspace here

    def test_shape_mismatch(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        from ppalg.linalg import Mat, QQ
        with pytest.raises(ValueError):
            extension_module(E1, E2, {("arr", 2, 1, 1): Mat.zeros(QQ, 5, 5)})

    @pytest.mark.parametrize("key", [("arr", 2, 1, 7), ("eps", 2), "a_2_1_1"],
                             ids=["no-such-arrow-index", "loop", "arrow-name"])
    def test_keys_that_are_not_arrows_rejected(self, b2, key):
        """A nonsplit derivation block under a key that is not an arrow
        raises ValueError naming the key; dropping it would give the split
        extension."""
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        block = elements(pimod.derivation_basis(E1, E2))[0][("arr", 2, 1, 1)]
        assert not block.is_zero()
        with pytest.raises(ValueError, match=re.escape(repr(key))):
            extension_module(E1, E2, {key: block})


class TestGenericExtension:
    def test_b2_simple_pair_certified(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        res = generic_extension(E1, E2, seed=0)
        assert res.certified and res.rigid and res.ext_self == 0
        assert rank_vector(res.module) == (1, 1)
        assert res.flags == ()

    def test_split_when_no_extensions(self, b2):
        E1 = generalized_simple(b2, 1)
        res = generic_extension(E1, E1, seed=0)
        assert res.certified
        assert iso_test(res.module, direct_sum(E1, E1))

    def test_heuristic_flag_for_nonrigid_inputs(self):
        A = catalog.leclerc_module(1, 0)
        B = catalog.leclerc_module(0, 1)
        res = generic_extension(A, B, seed=0)
        assert any("heuristic" in f for f in res.flags)
        assert not res.certified

    def test_certified_result_independent_of_seed(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        results = [generic_extension(E1, E2, trials=8, seed=s).module for s in (0, 1, 2)]
        assert iso_test(results[0], results[1]) and iso_test(results[1], results[2])

    def test_noncommutative(self, a2):
        S1, S2 = generalized_simple(a2, 1), generalized_simple(a2, 2)
        assert iso_test(star(S1, S2, seed=0), star(S2, S1, seed=0)) is False


class TestTrialCounts:
    @pytest.mark.parametrize("search", ["extension", "cokernel", "kernel"])
    def test_zero_trials_draw_nothing(self, b2, search, monkeypatch):
        """Zero trials draw no sample: the searches raise ValueError, and
        never return a result of one draw under a count of 0."""
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        M3 = star(E1, E2, seed=0)
        run = {"extension": lambda: generic_extension(E1, E2, trials=0),
               "cokernel": lambda: generic_cokernel(M3, E2, trials=0),
               "kernel": lambda: generic_kernel(E1, M3, trials=0)}[search]
        monkeypatch.setattr(pimod, "random_combination", None)   # any draw fails
        with pytest.raises(starop.NoTrials, match="0 trials draw no") as info:
            run()
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize("trials", [1, 2, 5])
    def test_draws_exactly_trials(self, trials, monkeypatch):
        """Over non-rigid inputs whose middles are never rigid, the product
        search draws `trials` classes, no more and no fewer."""
        A, B = catalog.leclerc_module(1, 0), catalog.leclerc_module(0, 1)
        draws = []
        draw = pimod.random_combination

        def counted(basis, rng):
            draws.append(1)
            return draw(basis, rng)

        monkeypatch.setattr(pimod, "random_combination", counted)
        res = generic_extension(A, B, trials=trials, seed=0)
        assert res.ext_self > 0 and res.trials == trials
        assert len(draws) == trials


class TestDivisions:
    def test_cokernel_catalog_example(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        M3 = star(E1, E2, seed=0)
        assert iso_test(generic_cokernel(M3, E2, seed=0), E1)

    def test_kernel_catalog_example(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        M3 = star(E1, E2, seed=0)
        assert iso_test(generic_kernel(E1, M3, seed=0), E2)

    def test_divisions_stop_at_first_rigid_candidate(self, b2, monkeypatch):
        """No later draw can beat Ext^1 = 0 (ties keep the first), so one
        rigid candidate ends each search."""
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        M3 = star(E1, E2, seed=0)
        calls = []
        ext1_dim = pimod.ext1_dim

        def counted(M, N):
            calls.append((M, N))
            return ext1_dim(M, N)

        monkeypatch.setattr(pimod, "ext1_dim", counted)
        for divide in (lambda: generic_cokernel(M3, E2, seed=0),
                       lambda: generic_kernel(E1, M3, seed=0)):
            calls.clear()
            divide()
            assert len(calls) == 1

    def test_kernel_of_projection(self, b2):
        # Hom(E2, E1) = 0, so the generic surjection onto E1 has kernel E2
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        assert iso_test(generic_kernel(E1, direct_sum(E1, E2), seed=0), E2)

    def test_division_undefined_without_embedding(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        M3 = star(E1, E2, seed=0)  # sub_1(M3) = 0, so E1 does not embed
        with pytest.raises(DivisionUndefined):
            generic_cokernel(M3, E1, seed=0)

    def test_rank_precondition(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        with pytest.raises(ValueError):
            generic_cokernel(E1, E2, seed=0)

    def test_rank_precondition_of_the_kernel(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        with pytest.raises(ValueError, match="rank vector of the top"):
            generic_kernel(E2, E1, seed=0)

    def test_rank_mismatch_is_its_own_type(self, b2):
        """Both rank checks raise RankMismatch, which stays a ValueError."""
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        assert issubclass(starop.RankMismatch, ValueError)
        with pytest.raises(starop.RankMismatch, match="rank vector of the sub"):
            generic_cokernel(E2, E1, seed=0)
        with pytest.raises(starop.RankMismatch, match="rank vector of the top"):
            generic_kernel(E1, E2, seed=0)

    @pytest.mark.parametrize("name", ["E1", "E1 * E2"])
    def test_dividing_by_the_zero_module(self, b2, name):
        """The zero map, the empty draw {} of the empty Hom basis, is
        injective on 0: M / 0 and 0 \\ M give M back, matrices and all, and
        0 / 0 = 0."""
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        M = E1 if name == "E1" else star(E1, E2, seed=0)
        Z = pimod.zero_module(b2)
        assert pimod.hom_is_injective({}, Z) and not pimod.hom_is_injective({}, M)
        for D in (generic_cokernel(M, Z, seed=0), generic_kernel(Z, M, seed=0)):
            assert pimod.module_to_json(D) == pimod.module_to_json(M)
        assert generic_cokernel(Z, Z, seed=0).dim_total() == 0

    def test_cokernel_that_fails_the_efiltered_test_is_a_fault(self, b2, monkeypatch):
        """A cokernel of crystal modules that is not E-filtered is an
        internal fault, not a division result."""
        E1 = generalized_simple(b2, 1)
        monkeypatch.setattr(pimod, "is_E_filtered", lambda M: (False, None))
        with pytest.raises(pimod.ConsistencyError, match="E-filtered"):
            generic_cokernel(E1, E1, seed=0)

    def test_leclerc_division_defined_but_not_inverse(self):
        # dividing the rigid middle of a self-extension recovers the member,
        # yet the product of two distinct members is the split module, which
        # is not that middle: division does not invert the product here
        M = catalog.leclerc_module(1, 1)
        N = catalog.leclerc_module(1, 0)
        P = generic_extension(M, M, trials=8, seed=0)
        assert P.rigid
        assert iso_test(generic_cokernel(P.module, M, trials=8, seed=0), M, trials=16)
        assert iso_test(generic_kernel(M, P.module, trials=8, seed=0), M, trials=16)
        split = generic_extension(M, N, trials=8, seed=0)
        assert iso_test(split.module, P.module, trials=16) is False


class TestTableAndCancellation:
    def test_a2_table(self, a2):
        S1, S2 = generalized_simple(a2, 1), generalized_simple(a2, 2)
        p12 = star(S1, S2, seed=0)
        p21 = star(S2, S1, seed=0)
        cells = star_table([("1", S1), ("2", S2)],
                           extra_pool=[("1/2", p12), ("2/1", p21)], seed=0)
        assert cells[("1", "1")].split and cells[("2", "2")].split
        assert cells[("1", "2")].labels == ("1/2",)
        assert cells[("2", "1")].labels == ("2/1",)

    def test_anonymous_labels_without_extra_pool(self):
        """With no extra pool, the summands of the B2 table that match no
        entry get the descriptive label of `anonymous_label`."""
        suite = catalog.b2_suite(trials=8, seed=0)
        cells = star_table([(e.label, e.module) for e in suite.entries], trials=8, seed=0)
        assert len(cells) == 36
        assert cells[("1/1", "2/12/1")].labels == ("anon(dims=[4, 2],rank=[2, 2],end=4,ext=0)",)
        assert cells[("2", "1/1/2")].labels == ("anon(dims=[2, 2],rank=[1, 2],end=2,ext=0)",)

    @pytest.mark.parametrize("error", [pimod.IsoInconclusive, pimod.DecomposeUndecided])
    def test_undecided_cell_is_recorded(self, a2, monkeypatch, error):
        """A cell whose labels cannot be decided records the error, with no
        labels and not certified; the other cells are unaffected."""
        S1, S2 = generalized_simple(a2, 1), generalized_simple(a2, 2)
        labels = starop._cell_labels

        def undecided(mid, rl, M, cl, N, *args):
            if (rl, cl) == ("1", "2"):
                raise error("forced")
            return labels(mid, rl, M, cl, N, *args)

        monkeypatch.setattr(starop, "_cell_labels", undecided)
        cells = star_table([("1", S1), ("2", S2)], seed=0)
        assert cells[("1", "2")] == starop.TableCell((), False, False, "forced")
        assert cells[("1", "1")].split and cells[("1", "1")].error == ""

    @pytest.mark.parametrize("seed", range(4))
    def test_split_shortcut_keeps_the_b2_labels(self, seed):
        """`_cell_labels` certifies a split cell by one iso test; without it,
        `_decomposed_labels` gives every B2 table cell the same labels, and
        some cells are split."""
        with pimod.memo_run():
            suite = catalog.b2_suite(trials=8, seed=seed)
            entries = [(e.label, e.module) for e in suite.entries]
            pool = entries + [(e.label, e.module) for e in suite.extras]
            split = 0
            for rl, M in entries:
                for cl, N in entries:
                    mid = star(M, N, trials=8, seed=seed)
                    labels = starop._cell_labels(mid, rl, M, cl, N, pool, 8, seed)
                    assert labels == starop._decomposed_labels(mid, pool, 8, seed), (rl, cl)
                    split += labels == sorted([rl, cl])
        assert split > 0

    def test_cancellation_collision_is_reported(self, a2):
        """Two labels for one module collide on both sides, under each fixed
        factor: X * R and R * X are the same module for X = "1" and "1'"."""
        S1 = generalized_simple(a2, 1)
        report = starop.check_cancellation([("1", S1), ("1'", S1)], seed=0)
        assert not report["ok"] and report["comparisons"] == 4
        assert report["collisions"] == [{"side": side, "fixed": fixed, "pair": ("1", "1'")}
                                        for side in ("right", "left") for fixed in ("1", "1'")]

    def test_cancellation_singleton(self, b2):
        E1 = generalized_simple(b2, 1)
        report = starop.check_cancellation([("1/1", E1)], seed=0)
        assert report["ok"] and report["comparisons"] == 0

    def test_cancellation_pair_distinct(self, a2, monkeypatch):
        S1, S2 = generalized_simple(a2, 1), generalized_simple(a2, 2)
        products = []
        generic = starop.generic_extension
        monkeypatch.setattr(starop, "generic_extension",
                            lambda top, sub, **kw: products.append(1) or generic(top, sub, **kw))
        report = starop.check_cancellation([("1", S1), ("2", S2)], seed=0)
        # two sides, two fixed factors, one pair each
        assert report["ok"] and report["comparisons"] == 4
        # both sides read one table of the four ordered products
        assert len(products) == 4


# -- the kernel by duality against the surjection search it replaced ------------

def kernel_by_surjections(top, mid, trials=8, seed=0):
    """Reference: (ext_self, kernel) of the least-Ext^1 kernel over draws of
    surjections mid -> top from Hom(mid, top), each kernel the `submodule`
    of the nullspaces, as `generic_kernel` searched before it went through
    duality."""
    def onto(f):
        return f and all(linalg.rank(f[i]) == top.dims[i] for i in top.datum.vertices)

    ext_self, _, ker = starop._least_self_ext(
        pimod.hom_basis(mid, top),
        lambda f: pimod.submodule(mid, {i: linalg.nullspace(f[i]) for i in f}),
        trials, seed, keep=onto)
    return ext_self, ker


@pytest.fixture(scope="module")
def b2_products():
    """(X, Y, X * Y) over the 36 ordered pairs of the B2 table."""
    mods = [e.module for e in catalog.b2_suite().entries]
    return [(X, Y, star(X, Y, seed=0)) for X in mods for Y in mods]


def test_kernel_by_duality_matches_surjection_search(b2_products):
    """On every B2 product, the dual route's kernel is isomorphic to the
    surjection search's, with the same Ext^1 with itself."""
    assert len(b2_products) == 36
    for X, Y, P in b2_products:
        ext_self, ref = kernel_by_surjections(X, P)
        ker = generic_kernel(X, P, seed=0)
        assert pimod.ext1_dim(ker, ker) == ext_self
        assert iso_test(ker, ref, trials=16)


def test_dual_of_product_is_product_of_duals(b2_products):
    """(X * Y)^v = Y^v * X^v on every cell of the B2 table."""
    dual = pimod.dual
    for X, Y, P in b2_products:
        assert iso_test(dual(P), star(dual(Y), dual(X), seed=0), trials=16)


# -- extension blocks in one stack, against the stacks they replace ---------------

def extension_by_stacks(top, sub, delta):
    """Reference: each generator's [[sub_g, delta_g], [0, top_g]] as two
    hstacks and a vstack, with the zero block and a zero delta_g built."""
    fld, mats = top.field, {}
    for g in top.datum.generators():
        i, j = gen_target(g), gen_source(g)
        d = delta.get(g, Mat.zeros(fld, sub.dims[i], top.dims[j]))
        mats[g] = linalg.vstack([linalg.hstack([sub.gen_mat(g), d]),
                                 linalg.hstack([Mat.zeros(fld, top.dims[i], sub.dims[j]),
                                                top.gen_mat(g)])])
    return mats


_EXTENSION_DATA = {
    "B2": ([[2, -1], [-2, 2]], [2, 1]),
    "C3": ([[2, -1, 0], [-2, 2, -1], [0, -2, 2]], [4, 2, 1]),
    "G2": ([[2, -3], [-1, 2]], [1, 3]),
    "A3": ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1]),
}


@settings(max_examples=30, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(name=st.sampled_from(sorted(_EXTENSION_DATA)), seed=st.integers(0, 2 ** 16),
       rank_top=st.integers(1, 3), rank_sub=st.integers(1, 3), modular=st.booleans())
def test_extension_module_matches_stacked_blocks(name, seed, rank_top, rank_sub, modular):
    """Over Q and GF(32003): the middle term of a drawn derivation, given
    whole or with its zero blocks left out, has the reference's matrices;
    random blocks raise InvalidDerivation exactly when the reference
    violates a relation, and a block of the wrong shape raises ValueError."""
    C, D = _EXTENSION_DATA[name]
    field = linalg.GF(32003) if modular else QQ
    datum = validate_datum(C, D, default_orientation(C))
    rng = random.Random(seed)
    top, sub = [selftest.random_tower(datum, r, rng, field) for r in (rank_top, rank_sub)]
    delta = pimod.random_combination(pimod.derivation_basis(top, sub), rng)
    for d in (delta, {k: x for k, x in delta.items() if not x.is_zero()}):
        mid = extension_module(top, sub, d)
        assert {g: mid.gen_mat(g) for g in datum.generators()} == extension_by_stacks(top, sub, d)
    noise = {k: Mat(field, sub.dims[k[1]], top.dims[k[2]],
                    [[rng.randint(-2, 2) for _ in range(top.dims[k[2]])]
                     for _ in range(sub.dims[k[1]])])
             for k in datum.arrow_keys()}
    ref = pimod.ModuleRep.from_generators(datum, extension_by_stacks(top, sub, noise), field)
    if pimod.check_relations(ref):
        with pytest.raises(InvalidDerivation):
            extension_module(top, sub, noise)
    else:
        assert extension_module(top, sub, noise).arrows == ref.arrows
    key = rng.choice(datum.arrow_keys())
    wrong = Mat.zeros(field, sub.dims[key[1]] + 1, top.dims[key[2]])
    with pytest.raises(ValueError, match="derivation block .* must be"):
        extension_module(top, sub, {key: wrong})

import random

import pytest

from ppalg import catalog, pimod, starop
from ppalg.pimod import direct_sum, generalized_simple, iso_test, rank_vector
from ppalg.starop import (DivisionUndefined, InvalidDerivation, extension_module,
                          generic_cokernel, generic_extension, generic_kernel, star,
                          star_table)


@pytest.fixture(scope="module")
def b2():
    return catalog.b2_datum()


@pytest.fixture(scope="module")
def a2():
    return catalog.a2_datum()


class TestExtensionModule:
    def test_zero_class_is_direct_sum(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        mid, inj, prj = extension_module(E1, E2, {})
        assert iso_test(mid, direct_sum(E2, E1))

    def test_rank_vectors_add(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        derb = pimod.derivation_basis(E1, E2)
        mid, _, _ = extension_module(E1, E2, derb[0])
        assert rank_vector(mid) == (1, 1)
        assert pimod.check_relations(mid) == []

    def test_loops_stay_block_diagonal(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        derb = pimod.derivation_basis(E1, E2)
        mid, inj, prj = extension_module(E1, E2, derb[0])
        # the loop of the middle term restricts to the sub and descends to the top
        for i in b2.vertices:
            assert mid.eps[i] * inj[i] == inj[i] * E2.eps[i]
            assert prj[i] * mid.eps[i] == E1.eps[i] * prj[i]

    def test_sequence_is_exact(self, b2):
        E1, E2 = generalized_simple(b2, 1), generalized_simple(b2, 2)
        res = generic_extension(E1, E2, seed=0)
        from ppalg import linalg
        for i in b2.vertices:
            assert linalg.rank(res.inject[i]) == E2.dims[i]
            assert linalg.rank(res.project[i]) == E1.dims[i]
            assert (res.project[i] * res.inject[i]).is_zero()

    def test_nonsplit_a2_is_indecomposable(self, a2):
        S1, S2 = generalized_simple(a2, 1), generalized_simple(a2, 2)
        derb = pimod.derivation_basis(S1, S2)
        mid, _, _ = extension_module(S1, S2, derb[0])
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

import random

import pytest

from ppalg import catalog, linalg, pimod, starop
from ppalg.pimod import generalized_simple, iso_test, rank_vector
from ppalg.selftest import random_tower
from ppalg.symred import (SymmetrizerError, reduce_module, sym_pair, tilde_lift,
                          verify_symmetrizer_compat)


@pytest.fixture(scope="module")
def a2_pair():
    return sym_pair(catalog.a2_datum(), 2)


@pytest.fixture(scope="module")
def a3_pair():
    return sym_pair(catalog.a_type_datum(3), 3)


class TestPairValidation:
    def test_refuses_non_symmetric(self):
        with pytest.raises(SymmetrizerError):
            sym_pair(catalog.b2_datum(), 2)

    def test_refuses_non_minimal_base(self):
        datum = catalog.a2_datum()
        big = sym_pair(datum, 2).big
        with pytest.raises(SymmetrizerError):
            sym_pair(big, 2)

    def test_refuses_bad_n(self):
        with pytest.raises(SymmetrizerError):
            sym_pair(catalog.a2_datum(), 0)


class TestTildeLift:
    def test_lift_of_simple_is_generalized_simple(self, a2_pair):
        S1 = generalized_simple(a2_pair.base, 1)
        lift = tilde_lift(a2_pair, S1)
        assert iso_test(lift, generalized_simple(a2_pair.big, 1))

    def test_relations_hold_on_random_lifts(self, a3_pair):
        rng = random.Random(31)
        for _ in range(5):
            M = random_tower(a3_pair.base, rng.randint(1, 4), rng)
            lift = tilde_lift(a3_pair, M)
            assert pimod.check_relations(lift) == []

    def test_rank_vector_is_dimension_vector(self, a2_pair):
        rng = random.Random(32)
        M = random_tower(a2_pair.base, 3, rng)
        lift = tilde_lift(a2_pair, M)
        assert rank_vector(lift) == M.dim_vector()

    def test_lift_of_crystal_is_crystal(self, a2_pair):
        S1 = generalized_simple(a2_pair.base, 1)
        S2 = generalized_simple(a2_pair.base, 2)
        M = starop.star(S1, S2, seed=0)
        assert pimod.is_crystal(M)
        assert pimod.is_crystal(tilde_lift(a2_pair, M))

    def test_wrong_datum_rejected(self, a2_pair, a3_pair):
        S1 = generalized_simple(a3_pair.base, 1)
        with pytest.raises(ValueError):
            tilde_lift(a2_pair, S1)


class TestReduce:
    def test_reduce_simple(self, a2_pair):
        E1_big = generalized_simple(a2_pair.big, 1)
        red = reduce_module(a2_pair, E1_big)
        assert iso_test(red, generalized_simple(a2_pair.base, 1))

    def test_reduce_undoes_lift(self, a2_pair, a3_pair):
        rng = random.Random(33)
        for pair in (a2_pair, a3_pair):
            for _ in range(3):
                M = random_tower(pair.base, rng.randint(1, 3), rng)
                back = reduce_module(pair, tilde_lift(pair, M))
                assert iso_test(back, M, trials=16)

    def test_rank_vector_preserved(self, a2_pair):
        rng = random.Random(34)
        M = random_tower(a2_pair.big, 3, rng)
        assert rank_vector(reduce_module(a2_pair, M)) == rank_vector(M)

    def test_requires_locally_free(self, a2_pair):
        from ppalg.linalg import QQ, Mat
        M = pimod.ModuleRep(a2_pair.big, {1: 1}, {}, {})
        with pytest.raises(pimod.NotLocallyFree):
            reduce_module(a2_pair, M)

    def test_reduction_is_exact_on_extensions(self, a2_pair):
        # reduction keeps dimensions additive on short exact sequences of lifts
        rng = random.Random(35)
        for _ in range(5):
            top = random_tower(a2_pair.big, rng.randint(1, 2), rng)
            sub = random_tower(a2_pair.big, rng.randint(1, 2), rng)
            delta = pimod.random_combination(pimod.derivation_basis(top, sub), rng)
            mid = starop.extension_module(top, sub, delta)
            assert reduce_module(a2_pair, mid).dim_total() == \
                reduce_module(a2_pair, sub).dim_total() + reduce_module(a2_pair, top).dim_total()

    def test_basis_independence(self, a2_pair):
        # conjugated input reduces to an isomorphic module
        rng = random.Random(36)
        M = tilde_lift(a2_pair, random_tower(a2_pair.base, 2, rng))
        g = {}
        from ppalg.linalg import Mat, QQ
        for i in a2_pair.big.vertices:
            while True:
                cand = Mat.from_rows(QQ, [[rng.randint(-2, 2) for _ in range(M.dims[i])]
                                          for _ in range(M.dims[i])])
                if linalg.is_invertible(cand) if M.dims[i] else True:
                    g[i] = cand
                    break
        conj = pimod.ModuleRep(
            M.datum, M.dims,
            {i: g[i] * M.eps[i] * linalg.inverse(g[i]) for i in M.datum.vertices},
            {k: g[k[1]] * A * linalg.inverse(g[k[2]]) for k, A in M.arrows.items()})
        assert iso_test(reduce_module(a2_pair, conj), reduce_module(a2_pair, M), trials=16)


class TestCompat:
    def test_a2_simple_pairs(self, a2_pair):
        S1 = generalized_simple(a2_pair.base, 1)
        S2 = generalized_simple(a2_pair.base, 2)
        rep = verify_symmetrizer_compat(a2_pair, S1, S2, seed=0)
        assert rep["agree"]
        rep = verify_symmetrizer_compat(a2_pair, S1, S1, seed=0)  # split case
        assert rep["agree"]

    def test_a3_pair(self, a3_pair):
        S1 = generalized_simple(a3_pair.base, 1)
        S2 = generalized_simple(a3_pair.base, 2)
        assert verify_symmetrizer_compat(a3_pair, S1, S2, seed=0)["agree"]

    def test_refuses_non_rigid_inputs(self, a2_pair):
        # a decomposable module with self-extensions is rejected as "not certified"
        S1 = generalized_simple(a2_pair.base, 1)
        S2 = generalized_simple(a2_pair.base, 2)
        bad = pimod.direct_sum(S1, S2)
        with pytest.raises(SymmetrizerError):
            verify_symmetrizer_compat(a2_pair, bad, S1, seed=0)

import random

import pytest

from ppalg import cartan, catalog, linalg, pimod, selftest, starop
from ppalg.cartan import validate_datum
from ppalg.pimod import generalized_simple, iso_test, rank_vector
from ppalg.selftest import random_tower
from ppalg.symred import (SymmetrizerError, reduce_module, tilde_lift,
                          verify_symmetrizer_compat)


@pytest.fixture(scope="module")
def a2():
    return catalog.a2_datum()


@pytest.fixture(scope="module")
def a3():
    return catalog.a_type_datum(3)


def _refused(fn, M, *args, match):
    with pytest.raises(SymmetrizerError, match=match):
        fn(M, *args)


class TestPairValidation:
    """Each refusal of the lift, and the reduction's refusal of the same
    datum; a refused datum is a `SymmetrizerError`."""

    def test_refuses_non_symmetric(self):
        E1 = generalized_simple(catalog.b2_datum(), 1)
        _refused(tilde_lift, E1, 2, match="must be symmetric")
        _refused(reduce_module, E1, match="not a multiple of the identity")

    def test_refuses_non_minimal_base(self, a2):
        big = tilde_lift(generalized_simple(a2, 1), 2)
        _refused(tilde_lift, big, 2, match="minimal symmetrizer")
        apart = validate_datum([[2, 0], [0, 2]], [1, 2], [])
        _refused(reduce_module, generalized_simple(apart, 1), match="not a multiple")

    def test_refuses_bad_n(self, a2):
        S1 = generalized_simple(a2, 1)
        _refused(tilde_lift, S1, 0, match="n must be a positive integer")
        _refused(tilde_lift, S1, 101, match=r"\(entry_bound\)")
        _refused(tilde_lift, S1, 10 ** 6, match=r"\(entry_bound\)")

    def test_refuses_disconnected(self):
        small, big = (validate_datum([[2, 0], [0, 2]], sym, []) for sym in ([1, 1], [2, 2]))
        _refused(tilde_lift, generalized_simple(small, 1), 2, match="must be connected")
        _refused(reduce_module, generalized_simple(big, 1), match="must be connected")


class TestTildeLift:
    def test_lift_of_simple_is_generalized_simple(self, a2):
        lift = tilde_lift(generalized_simple(a2, 1), 2)
        assert lift.datum == a2.scaled(2) and lift.datum.sym == (2, 2)
        assert iso_test(lift, generalized_simple(lift.datum, 1))

    def test_relations_hold_on_random_lifts(self, a3):
        rng = random.Random(31)
        for _ in range(5):
            M = random_tower(a3, rng.randint(1, 4), rng)
            lift = tilde_lift(M, 3)
            assert pimod.check_relations(lift) == []

    def test_rank_vector_is_dimension_vector(self, a2):
        rng = random.Random(32)
        M = random_tower(a2, 3, rng)
        lift = tilde_lift(M, 2)
        assert rank_vector(lift) == M.dim_vector()

    def test_lift_of_crystal_is_crystal(self, a2):
        S1 = generalized_simple(a2, 1)
        S2 = generalized_simple(a2, 2)
        M = starop.star(S1, S2, seed=0)
        assert pimod.is_crystal(M)
        assert pimod.is_crystal(tilde_lift(M, 2))

    def test_wrong_datum_rejected(self, a3):
        """A module over the big side is no input of the lift."""
        big = tilde_lift(generalized_simple(a3, 1), 3)
        with pytest.raises(ValueError):
            tilde_lift(big, 3)


class TestReduce:
    def test_reduce_simple(self, a2):
        red = reduce_module(generalized_simple(a2.scaled(2), 1))
        assert red.datum == a2
        assert iso_test(red, generalized_simple(a2, 1))

    def test_reduce_undoes_lift(self, a2, a3):
        rng = random.Random(33)
        for datum, n in ((a2, 2), (a3, 3)):
            for _ in range(3):
                M = random_tower(datum, rng.randint(1, 3), rng)
                back = reduce_module(tilde_lift(M, n))
                assert iso_test(back, M, trials=16)

    def test_rank_vector_preserved(self, a2):
        rng = random.Random(34)
        M = random_tower(a2.scaled(2), 3, rng)
        assert rank_vector(reduce_module(M)) == rank_vector(M)

    def test_requires_locally_free(self, a2):
        M = pimod.ModuleRep(a2.scaled(2), {1: 1}, {}, {})
        with pytest.raises(pimod.NotLocallyFree):
            reduce_module(M)

    def test_reduction_is_exact_on_extensions(self, a2):
        # reduction keeps dimensions additive on short exact sequences of lifts
        rng = random.Random(35)
        big = a2.scaled(2)
        for _ in range(5):
            top = random_tower(big, rng.randint(1, 2), rng)
            sub = random_tower(big, rng.randint(1, 2), rng)
            delta = pimod.random_combination(pimod.derivation_basis(top, sub), rng)
            mid = starop.extension_module(top, sub, delta)
            assert reduce_module(mid).dim_total() == \
                reduce_module(sub).dim_total() + reduce_module(top).dim_total()

    def test_basis_independence(self, a2):
        # conjugated input reduces to an isomorphic module
        rng = random.Random(36)
        M = tilde_lift(random_tower(a2, 2, rng), 2)
        g = {}
        from ppalg.linalg import Mat, QQ
        for i in M.datum.vertices:
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
        assert iso_test(reduce_module(conj), reduce_module(M), trials=16)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_reduce_of_lift_keeps_the_matrices(self, a3, n):
        """reduce(tilde(M)) is M itself, matrix for matrix, over a datum
        equal to M's: on the A2 catalog modules, and on the A3 simples and
        the products of adjacent ones."""
        suite = catalog.a2_suite()
        mods = [e.module for e in suite.entries + suite.extras]
        simples = [generalized_simple(a3, i) for i in a3.vertices]
        mods += simples + [starop.star(simples[a], simples[b], seed=0)
                           for a, b in ((0, 1), (1, 0), (1, 2), (2, 1))]
        for M in mods:
            back = reduce_module(tilde_lift(M, n))
            assert back.datum == M.datum
            assert pimod.module_to_json(back) == pimod.module_to_json(M)


class TestDatumReuse:
    """The n-fold and minimal data are kept on the datum they are read
    off, so lifting and reducing build no datum per call."""

    def test_lifts_and_reductions_share_one_datum_per_n(self, a3):
        S1, S2 = (generalized_simple(a3, i) for i in (1, 2))
        for n in (1, 2, 3):
            L1, L2 = tilde_lift(S1, n), tilde_lift(S2, n)
            assert L1.datum is L2.datum is a3.scaled(n)
            R1, R2 = reduce_module(L1), reduce_module(L2)
            assert R1.datum is R2.datum is a3

    def test_symmetrizer_criterion_builds_at_most_eight_data(self, monkeypatch):
        """c8 lifts to n = 2 and 3 over A2 and A3 and reduces back: at most
        one n-fold datum and one minimal datum for each, whatever the
        number of lifts and reductions."""
        calls = []
        validate = cartan.validate_datum
        monkeypatch.setattr(cartan, "validate_datum",
                            lambda *a: calls.append(a) or validate(*a))
        assert selftest.criterion_symmetrizer_change()["passed"]
        assert len(calls) <= 8


class TestCompat:
    def test_a2_simple_pairs(self, a2):
        S1 = generalized_simple(a2, 1)
        S2 = generalized_simple(a2, 2)
        rep = verify_symmetrizer_compat(S1, S2, 2, seed=0)
        assert rep["agree"] and rep["n"] == 2
        rep = verify_symmetrizer_compat(S1, S1, 2, seed=0)  # split case
        assert rep["agree"]

    def test_a3_pair(self, a3):
        S1 = generalized_simple(a3, 1)
        S2 = generalized_simple(a3, 2)
        assert verify_symmetrizer_compat(S1, S2, 3, seed=0)["agree"]

    def test_refuses_non_rigid_inputs(self, a2):
        # a decomposable module with self-extensions is rejected as "not certified"
        S1 = generalized_simple(a2, 1)
        S2 = generalized_simple(a2, 2)
        bad = pimod.direct_sum(S1, S2)
        with pytest.raises(SymmetrizerError):
            verify_symmetrizer_compat(bad, S1, 2, seed=0)

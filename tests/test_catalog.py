import random

import pytest

from ppalg import cartan, catalog, pimod, selftest
from ppalg.cartan import default_orientation, validate_datum
from ppalg.linalg import QQ, Mat
from ppalg.catalog import a2_suite, b2_suite, leclerc_module, leclerc_suite
from ppalg.pimod import generalized_simple, hom_dim, iso_test
from ppalg.symred import tilde_lift


class TestGeneralizedSimples:
    def test_b2_relabeled_convention(self):
        datum = catalog.b2_relabeled_datum()
        E2 = generalized_simple(datum, 2)
        assert E2.dims == {1: 0, 2: 2}
        assert E2.eps[2].power(2).is_zero() and not E2.eps[2].is_zero()
        assert pimod.check_relations(E2) == []
        assert pimod.is_crystal(E2)

    def test_a2_simples_are_one_dimensional(self):
        datum = catalog.a2_datum()
        assert generalized_simple(datum, 1).dim_total() == 1

    def test_unknown_vertex(self):
        with pytest.raises(KeyError):
            generalized_simple(catalog.a2_datum(), 7)


@pytest.fixture(scope="module")
def suite():
    return b2_suite(seed=0)


class TestB2Suite:
    def test_six_certified_entries(self, suite):
        assert [e.label for e in suite.entries] == \
            ["1/1", "2", "1/1/2", "2/1/1", "2/12/1", "1/21/2"]
        for e in suite.entries:
            assert all(e.flags().values())

    def test_pairwise_non_isomorphic(self, suite):
        mods = [e.module for e in suite.entries]
        for a in range(len(mods)):
            for b in range(a + 1, len(mods)):
                assert iso_test(mods[a], mods[b]) is False

    def test_rank_vectors(self, suite):
        ranks = [pimod.rank_vector(e.module) for e in suite.entries]
        assert ranks == [(1, 0), (0, 1), (1, 1), (1, 1), (1, 2), (1, 2)]
        assert [pimod.rank_vector(e.module) for e in suite.extras] == [(2, 2), (1, 2)]

    def test_expected_table_shape(self, suite):
        assert len(suite.expected) == 36
        labels = {e.label for e in suite.entries} | {e.label for e in suite.extras}
        for cell in suite.expected.values():
            assert all(l in labels for l in cell)

    def test_split_cell_expansion(self, suite):
        assert suite.expected[("1/1", "1/1")] == ("1/1", "1/1")
        assert suite.expected[("1/1", "2")] == ("1/1/2",)

    def test_one_build_per_suite_per_run(self, monkeypatch):
        """Inside one run, the spelling the criteria use builds once; other
        trials build another suite.  A build is counted where it certifies
        its first entry.  The shared suite cannot be altered."""
        built = []
        certify = catalog._certify

        def counted(label, M, seed=0):
            if label == "1/1":
                built.append(seed)
            return certify(label, M, seed=seed)

        monkeypatch.setattr(catalog, "_certify", counted)
        with pimod.memo_run():
            suite = b2_suite(trials=8, seed=2)
            assert b2_suite(trials=8, seed=2) is suite
            assert built == [2]
            assert b2_suite(trials=4, seed=2) is not suite
            assert built == [2, 2]
        assert isinstance(suite.entries, tuple) and isinstance(suite.extras, tuple)
        with pytest.raises(TypeError):
            suite.expected[("1/1", "2")] = ()


class TestA2Suite:
    def test_expected_products(self):
        suite = a2_suite(seed=0)
        assert suite.expected["(s1*s2)*s1"] == ("1", "1/2")
        assert suite.expected["s1*(s2*s1)"] == ("1", "2/1")

    def test_products_are_gated_entries(self):
        """The products "1/2" and "2/1" are extras made like every other
        catalog product: certified, then gated rigid and indecomposable."""
        suite = a2_suite(trials=8, seed=0)
        assert [e.label for e in suite.entries] == ["1", "2"]
        assert [e.label for e in suite.extras] == ["1/2", "2/1"]
        for e in suite.extras:
            assert isinstance(e, catalog.CatalogEntry)
            assert all(e.flags().values()) and e.rigid
        assert [pimod.rank_vector(e.module) for e in suite.extras] == [(1, 1), (1, 1)]
        with pytest.raises(TypeError):
            suite.expected["(s1*s2)*s1"] = ()


class TestLeclercFamily:
    def test_invariant_dimensions(self):
        A = leclerc_module(1, 0)
        B = leclerc_module(1, 1)
        assert hom_dim(A, A) == 3
        assert hom_dim(A, B) == 2 and hom_dim(B, A) == 2
        assert pimod.ext1_dim(A, B) == 0
        assert pimod.ext1_dim(A, A) == 2
        assert pimod.is_rigid(A) == (False, 1)

    def test_projective_coordinates(self):
        assert iso_test(leclerc_module(1, 1), leclerc_module(2, 2))
        assert iso_test(leclerc_module(1, 2), leclerc_module(3, 6))
        assert iso_test(leclerc_module(1, 1), leclerc_module(1, 2)) is False

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValueError):
            leclerc_module(0, 0)

    def test_suite_flags(self):
        entries = leclerc_suite().entries
        assert len(entries) == 3
        for e in entries:
            assert e.flags()["crystal"] and not e.rigid

    def test_suite_is_over_one_datum(self, monkeypatch):
        """The suite and its entries share one datum object, so lifting all
        three entries to n = 2 builds one 2-fold datum."""
        suite = leclerc_suite()
        assert {id(e.module.datum) for e in suite.entries} == {id(suite.datum)}
        calls = []
        validate = cartan.validate_datum
        monkeypatch.setattr(cartan, "validate_datum",
                            lambda *a: calls.append(a) or validate(*a))
        lifts = [tilde_lift(e.module, 2) for e in suite.entries]
        assert len(calls) == 1
        assert all(L.datum is suite.datum.scaled(2) for L in lifts)

    def test_self_extension_has_rigid_middle_only_on_diagonal(self):
        from ppalg import starop
        M = leclerc_module(1, 0)
        N = leclerc_module(0, 1)
        diag = starop.generic_extension(M, M, trials=8, seed=0)
        assert diag.rigid and diag.ext_self == 0
        cross = starop.generic_extension(M, N, trials=8, seed=0)
        assert not cross.rigid


def test_all_entries_unique_labels():
    entries = catalog.all_entries(seed=0)
    labels = [label for label, _ in entries]
    assert len(labels) == len(set(labels))
    assert "b2:1/1/2" in labels and "a2:1" in labels
    assert any(label.startswith("a5:leclerc") for label in labels)



def _not_crystal():
    """A tower that is E-filtered but not crystal."""
    C = [[2, -2], [-1, 2]]
    rng = random.Random(145)
    return selftest.random_tower(validate_datum(C, [1, 2], default_orientation(C)),
                                 rng.randint(2, 5), rng)


@pytest.mark.parametrize("build, message", [
    (lambda b2: pimod.ModuleRep(b2, {1: 0, 2: 1}, {2: Mat.identity(QQ, 1)}, {}),
     "defining relations violated"),
    (lambda b2: pimod.ModuleRep(b2, {1: 1, 2: 0}, {}, {}),   # c_1 = 2 does not divide 1
     "not locally free"),
    (lambda b2: _not_crystal(), "not a crystal module"),
    (lambda b2: pimod.direct_sum(generalized_simple(b2, 1), generalized_simple(b2, 2)),
     "decomposes into 2 summands"),
], ids=["relations", "locally-free", "crystal", "indecomposable"])
def test_certify_gates(build, message):
    """Each gate of a catalog entry refuses a module that fails it, naming
    the entry."""
    with pytest.raises(catalog.CatalogError, match="^x: %s" % message):
        catalog._certify("x", build(catalog.b2_datum()))

def test_isomorphic_suite_entries_refused(monkeypatch):
    """The six B2 entries must be pairwise non-isomorphic."""
    monkeypatch.setattr(pimod, "iso_test", lambda *args, **kwargs: True)
    with pytest.raises(catalog.CatalogError, match="entries 1/1 and 2 are isomorphic"):
        b2_suite(seed=0)

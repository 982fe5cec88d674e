import itertools
import random

import pytest

from ppalg import cartan
from ppalg.cartan import (DatumError, alpha_form, beta_form, default_orientation,
                          dim_formulas, euler_forms, minimal_symmetrizer,
                          symmetrized_form, validate_datum)

B2_C12 = ([[2, -2], [-1, 2]], [1, 2])      # c = (1, 2)
B2_TABLE = ([[2, -1], [-2, 2]], [2, 1])      # c = (2, 1)
A5 = [[2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(5)] for i in range(5)]


def code_of(exc_info):
    return exc_info.value.code


class TestValidate:
    def test_b2_c12_valid(self):
        datum = validate_datum(*B2_C12, [(1, 2)])
        assert datum.vertices == (1, 2)
        assert datum.gij(1, 2) == 1
        assert datum.fij(1, 2) == 2 and datum.fij(2, 1) == 1

    def test_diagonal(self):
        with pytest.raises(DatumError) as e:
            validate_datum([[1, -1], [-1, 2]], [1, 1], [(1, 2)])
        assert code_of(e) == "diagonal"

    def test_positive_offdiagonal(self):
        with pytest.raises(DatumError) as e:
            validate_datum([[2, 1], [1, 2]], [1, 1], [(1, 2)])
        assert code_of(e) == "offdiag_positive"

    def test_zero_pattern(self):
        with pytest.raises(DatumError) as e:
            validate_datum([[2, -1], [0, 2]], [1, 1], [(1, 2)])
        assert code_of(e) == "zero_pattern"

    def test_dc_not_symmetric(self):
        with pytest.raises(DatumError) as e:
            validate_datum([[2, -2], [-1, 2]], [1, 1], [(1, 2)])
        assert code_of(e) == "dc_not_symmetric"

    def test_symmetrizer_positive(self):
        with pytest.raises(DatumError) as e:
            validate_datum([[2, -1], [-1, 2]], [1, 0], [(1, 2)])
        assert code_of(e) == "symmetrizer_positive"

    def test_orientation_both_orders(self):
        with pytest.raises(DatumError) as e:
            validate_datum(*B2_C12, [(1, 2), (2, 1)])
        assert code_of(e) == "orientation_pair"

    def test_orientation_missing_edge(self):
        with pytest.raises(DatumError) as e:
            validate_datum(*B2_C12, [])
        assert code_of(e) == "orientation_pair"

    def test_cartan_not_an_integer_matrix(self):
        for C in ("x", ["xy", "zw"], [[2, -1], [-1, "2"]], [[2, -1], [-1, 2.0]]):
            with pytest.raises(DatumError) as e:
                validate_datum(C, [1] * len(C), [])
            assert code_of(e) == "shape"

    def test_orientation_cycle(self):
        C = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        with pytest.raises(DatumError) as e:
            validate_datum(C, [1, 1, 1], [(1, 2), (2, 3), (3, 1)])
        assert code_of(e) == "orientation_cycle"
        assert "cycle" in str(e.value)


class TestMinimalSymmetrizer:
    def test_symmetric_gives_ones(self):
        assert minimal_symmetrizer([[2, -1], [-1, 2]]) == [1, 1]

    def test_b2_c12(self):
        assert minimal_symmetrizer([[2, -2], [-1, 2]]) == [1, 2]

    def test_b2_table(self):
        assert minimal_symmetrizer([[2, -1], [-2, 2]]) == [2, 1]

    def test_brute_force_oracle(self):
        pool = [
            [[2, -1], [-1, 2]],
            [[2, -2], [-1, 2]],
            [[2, -1], [-2, 2]],
            [[2, -3], [-1, 2]],
            [[2, -2], [-2, 2]],
            [[2, -1, 0], [-2, 2, -1], [0, -2, 2]],
        ]
        for C in pool:
            n = len(C)
            best = None
            for d in itertools.product(range(1, 7), repeat=n):
                if all(d[a] * C[a][b] == d[b] * C[b][a] for a in range(n) for b in range(n)):
                    if best is None or sum(d) < sum(best):
                        best = d
            got = minimal_symmetrizer(C)
            assert best is not None and list(best) == got
            # minimal divides every other symmetrizer entrywise
            for d in itertools.product(range(1, 7), repeat=n):
                if all(d[a] * C[a][b] == d[b] * C[b][a] for a in range(n) for b in range(n)):
                    assert all(d[a] % got[a] == 0 for a in range(n))

    def test_not_symmetrizable(self):
        C = [[2, -1, -2], [-2, 2, -1], [-1, -2, 2]]
        with pytest.raises(DatumError) as e:
            minimal_symmetrizer(C)
        assert code_of(e) == "not_symmetrizable"


class TestRelations:
    def test_b2_c12_presentation(self):
        datum = validate_datum(*B2_C12, [(1, 2)])
        rels = datum.relations()
        nil = {r.source: r.terms[0][1] for r in rels if r.kind == "nilpotency"}
        assert nil[1] == (("eps", 1),)
        assert nil[2] == (("eps", 2), ("eps", 2))
        mesh = {r.source: r for r in rels if r.kind == "mesh"}
        # mesh at 1: + a12 a21
        assert mesh[1].terms == ((1, (("arr", 1, 2, 1), ("arr", 2, 1, 1))),)
        # mesh at 2: -(a21 a12 eps2 + eps2 a21 a12)
        assert set(mesh[2].terms) == {
            (-1, (("arr", 2, 1, 1), ("arr", 1, 2, 1), ("eps", 2))),
            (-1, (("eps", 2), ("arr", 2, 1, 1), ("arr", 1, 2, 1))),
        }

    def test_commutativity_powers(self):
        datum = validate_datum(*B2_C12, [(1, 2)])
        rels = datum.relations()
        comm = {(r.target, r.source): r for r in rels
                if r.kind == "commutativity"}
        # eps_1^{f_21} a_12 = a_12 eps_2^{f_12} with f_21 = 1, f_12 = 2
        plus, minus = comm[(1, 2)].terms
        assert plus == (1, (("eps", 1), ("arr", 1, 2, 1)))
        assert minus == (-1, (("arr", 1, 2, 1), ("eps", 2), ("eps", 2)))

    def test_multiple_arrows_for_gcd_two(self):
        datum = validate_datum([[2, -2], [-2, 2]], [1, 1], [(1, 2)])
        rels = datum.relations()
        assert len([a for a in datum.arrow_keys() if a[1] == 1]) == 2  # two arrows 2 -> 1
        mesh = {r.source: r for r in rels if r.kind == "mesh"}
        assert len(mesh[1].terms) == 2  # one per multiplicity index

    def test_pretty_with_string_vertices(self):
        datum = validate_datum([[2, -1], [-1, 2]], [1, 1], [("a", "b")], vertices=("a", "b"))
        pretty = {r.label: r.pretty() for r in datum.relations()}
        assert pretty["mesh@'a'"] == "aab_1*aba_1"
        assert pretty["nilpotency@'b'"] == "epsb"

    def test_symmetric_minimal_mesh_has_no_loops(self):
        datum = validate_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1],
                               [(1, 2), (2, 3)])
        rels = datum.relations()
        mesh = [r for r in rels if r.kind == "mesh"]
        assert mesh
        for r in mesh:
            for _, word in r.terms:
                assert all(g[0] != "eps" for g in word)


class TestForms:
    def test_b2_unit_vectors(self):
        datum = validate_datum(*B2_TABLE, [(1, 2)])
        assert euler_forms(datum, (1, 0), (0, 1)) == (0, 2, -2)

    def test_a5_values(self):
        datum = validate_datum(A5, [1] * 5, default_orientation(A5))
        d = (1, 2, 2, 2, 1)
        # direct evaluation of the defining sums
        alpha = sum(d[i] * d[i] for i in range(5))
        beta = sum(d[i] * d[i + 1] for i in range(4))
        assert alpha_form(datum, d, d) == alpha == 14
        assert beta_form(datum, d, d) == beta == 12
        assert symmetrized_form(datum, d, d) == 2 * alpha - 2 * beta == 4

    def test_zero_vector(self):
        datum = validate_datum(*B2_TABLE, [(1, 2)])
        assert euler_forms(datum, (0, 0), (0, 0)) == (0, 0, 0)

    def test_symmetry_of_pairing(self):
        rng = random.Random(11)
        datum = validate_datum(*B2_C12, [(1, 2)])
        for _ in range(20):
            d = (rng.randint(-3, 3), rng.randint(-3, 3))
            e = (rng.randint(-3, 3), rng.randint(-3, 3))
            assert symmetrized_form(datum, d, e) == symmetrized_form(datum, e, d)

    def test_beta_orientation_independent(self):
        d1 = validate_datum(*B2_C12, [(1, 2)])
        d2 = validate_datum(*B2_C12, [(2, 1)])
        rng = random.Random(12)
        for _ in range(20):
            d = (rng.randint(0, 4), rng.randint(0, 4))
            assert beta_form(d1, d, d) == beta_form(d2, d, d)

    def test_dim_formulas_a5(self):
        datum = validate_datum(A5, [1] * 5, default_orientation(A5))
        got = dim_formulas(datum, (1, 2, 2, 2, 1), (1, 2, 2, 2, 1))
        assert got == {"dimRC": 12, "dimHomT": 14, "dimGL": 14}

    def test_index_mismatch(self):
        datum = validate_datum(*B2_TABLE, [(1, 2)])
        with pytest.raises(ValueError):
            euler_forms(datum, (1, 0, 0), (0, 1))


def test_default_orientation():
    assert default_orientation(A5) == [(1, 2), (2, 3), (3, 4), (4, 5)]


def test_datum_json_round_trip():
    datum = validate_datum(*B2_TABLE, [(1, 2)])
    doc = datum.to_json()
    again = validate_datum(doc["cartan"], doc["symmetrizer"],
                           [tuple(p) for p in doc["orientation"]], doc["vertices"])
    assert again == datum

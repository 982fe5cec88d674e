import itertools
import json
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

    def test_entry_bound(self):
        """c_ij = -100 and c_i = 100 are the largest entries taken; every
        maker that checks C refuses the next one."""
        assert validate_datum([[2, -100], [-100, 2]], [100, 100], [(1, 2)]).gij(1, 2) == 100
        for make in (lambda: validate_datum([[2, -101], [-1, 2]], [1, 101], [(1, 2)]),
                     lambda: minimal_symmetrizer([[2, -1], [-10 ** 12, 2]]),
                     lambda: default_orientation([[2, -101], [-101, 2]]),
                     lambda: validate_datum([[2, -1], [-1, 2]], [101, 101], [(1, 2)])):
            with pytest.raises(DatumError) as e:
                make()
            assert code_of(e) == "entry_bound"

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

    def test_labels_that_print_the_same(self):
        # 1 and "1" are distinct values, but arrow names and files spell both
        # "1"; True and 1 print apart but are equal
        for labels in ([1, "1"], [True, 1]):
            with pytest.raises(DatumError) as e:
                validate_datum([[2, -1], [-1, 2]], [1, 1], [labels], vertices=labels)
            assert code_of(e) == "shape" and "duplicate vertex labels" in str(e.value)

    def test_orientation_cycle(self):
        C = [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        with pytest.raises(DatumError) as e:
            validate_datum(C, [1, 1, 1], [(1, 2), (2, 3), (3, 1)])
        assert code_of(e) == "orientation_cycle"
        assert "cycle" in str(e.value)

    @pytest.mark.parametrize("C, orient, want", [
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [(1, 2), (2, 3), (3, 1)], [1, 2, 3, 1]),
        ([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]], [(2, 1), (3, 2), (1, 3)], [1, 3, 2, 1]),
        ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
         [(1, 2), (2, 3), (3, 4), (4, 1)], [1, 2, 3, 4, 1]),
        ([[2, -1, 0, -1], [-1, 2, -1, 0], [0, -1, 2, -1], [-1, 0, -1, 2]],
         [(2, 1), (3, 2), (4, 3), (1, 4)], [1, 4, 3, 2, 1]),
    ])
    def test_orientation_cycle_runs_along_the_pairs(self, C, orient, want):
        """Both orientations of the A2~ triangle and of a 4-cycle: the
        printed cycle is a closed walk along the given pairs."""
        with pytest.raises(DatumError) as e:
            validate_datum(C, [1] * len(C), orient)
        assert code_of(e) == "orientation_cycle"
        cycle = json.loads(str(e.value).split("cycle ", 1)[1])
        assert cycle == want
        assert cycle[0] == cycle[-1] and set(zip(cycle, cycle[1:])) <= set(orient)


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
        nil = {r.source: r.terms[0][1] for r in rels if r.label.startswith("nilpotency@")}
        assert nil[1] == (("eps", 1),)
        assert nil[2] == (("eps", 2), ("eps", 2))
        mesh = {r.source: r for r in rels if r.label.startswith("mesh@")}
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
                if r.label.startswith("commutativity@")}
        # eps_1^{f_21} a_12 = a_12 eps_2^{f_12} with f_21 = 1, f_12 = 2
        plus, minus = comm[(1, 2)].terms
        assert plus == (1, (("eps", 1), ("arr", 1, 2, 1)))
        assert minus == (-1, (("arr", 1, 2, 1), ("eps", 2), ("eps", 2)))

    def test_generators_are_loops_then_arrows(self):
        datum = validate_datum([[2, -2], [-2, 2]], [1, 1], [(1, 2)])
        assert datum.generators() == (("eps", 1), ("eps", 2)) + datum.arrow_keys()
        assert datum.arrow_keys() == (("arr", 1, 2, 1), ("arr", 1, 2, 2),
                                      ("arr", 2, 1, 1), ("arr", 2, 1, 2))

    def test_multiple_arrows_for_gcd_two(self):
        datum = validate_datum([[2, -2], [-2, 2]], [1, 1], [(1, 2)])
        rels = datum.relations()
        assert len([a for a in datum.arrow_keys() if a[1] == 1]) == 2  # two arrows 2 -> 1
        mesh = {r.source: r for r in rels if r.label.startswith("mesh@")}
        assert len(mesh[1].terms) == 2  # one per multiplicity index

    def test_pretty_with_string_vertices(self):
        datum = validate_datum([[2, -1], [-1, 2]], [1, 1], [("a", "b")], vertices=("a", "b"))
        pretty = {r.label: r.pretty() for r in datum.relations()}
        assert pretty["mesh@'a'"] == "a_a_b_1*a_b_a_1"
        assert pretty["nilpotency@'b'"] == "epsb"

    def test_labels_and_words_spell_arrows_by_name(self):
        """Relation labels and words name arrows by `arrow_name`, so the
        arrows 1 <- 12 and 11 <- 2 of a 12-vertex datum get two labels."""
        C = [[2 if a == b else -1 if {a, b} in ({1, 12}, {11, 2}) else 0
              for b in range(1, 13)] for a in range(1, 13)]
        datum = validate_datum(C, [1] * 12, default_orientation(C))
        pretty = {r.label: r.pretty() for r in datum.relations()}
        assert len(datum.relations()) == len(pretty) == 20
        assert pretty["commutativity@a_1_12_1"] == "eps1*a_1_12_1 - a_1_12_1*eps12"
        assert pretty["commutativity@a_11_2_1"] == "eps11*a_11_2_1 - a_11_2_1*eps2"
        assert pretty["mesh@12"] == "- a_12_1_1*a_1_12_1"

    def test_symmetric_minimal_mesh_has_no_loops(self):
        datum = validate_datum([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1],
                               [(1, 2), (2, 3)])
        rels = datum.relations()
        mesh = [r for r in rels if r.label.startswith("mesh@")]
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

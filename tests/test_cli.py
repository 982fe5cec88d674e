import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from ppalg import catalog, cli, linalg, pimod, selftest, starop, symred
from ppalg.cartan import default_orientation, validate_datum
from ppalg.cli import main
from ppalg.linalg import Mat


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Algebra and module files shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    b2 = catalog.b2_datum()
    paths = {"root": root}

    def write(name, doc):
        p = root / name
        p.write_text(json.dumps(doc))
        paths[name] = str(p)

    write("b2.json", b2.to_json())
    write("b2_minimal.json", {"cartan": [[2, -1], [-2, 2]], "symmetrizer": "minimal"})
    write("cyclic.json", {"cartan": [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]],
                          "symmetrizer": [1, 1, 1],
                          "orientation": [[1, 2], [2, 3], [3, 1]]})
    a5 = catalog.leclerc_datum()
    write("a5.json", a5.to_json())

    E1 = pimod.generalized_simple(b2, 1)
    E2 = pimod.generalized_simple(b2, 2)
    write("e1.json", pimod.module_to_json(E1))
    write("e2.json", pimod.module_to_json(E2))
    bad = dict(pimod.module_to_json(E2))
    bad["epsilon"] = {"2": [["1"]]}  # identity loop is not nilpotent
    write("bad.json", bad)
    write("sum.json", pimod.module_to_json(pimod.direct_sum(E1, E1)))
    write("e1e2.json", pimod.module_to_json(pimod.direct_sum(E1, E2)))
    write("nlf.json", {"algebra": b2.to_json(), "dims": {"1": 1},
                       "epsilon": {"1": [["0"]]}, "arrows": {}})   # c_1 = 2 does not divide 1

    for name, entry in (("div0.json", "1/0"), ("float.json", 1.5), ("bool.json", True)):
        doc = dict(pimod.module_to_json(E1))
        doc["epsilon"] = {"1": [["0", "0"], [entry, "0"]]}
        write(name, doc)
    write("labels.json", {"vertices": ["a", "b"], "cartan": [[2, -1], [-1, 2]],
                          "symmetrizer": [1, 1], "orientation": [["a", "b"]]})
    write("labels_same_str.json", {"vertices": [1, "1"], "cartan": [[2, -1], [-1, 2]],
                                   "symmetrizer": [1, 1], "orientation": [[1, "1"]]})
    write("cartan_x.json", {"cartan": "x"})
    write("cartan_empty.json", {"cartan": []})
    write("over_empty.json", {"algebra": {"cartan": []}, "dims": {}})
    write("list_algebra.json", [1])
    write("list_module.json", [])
    for key in ("dims", "epsilon", "arrows"):
        for name, value in (("list", [1, 1]), ("empty_list", []), ("false", False),
                            ("zero", 0), ("null", None)):
            doc = dict(pimod.module_to_json(E1))
            doc[key] = value
            write("%s_%s.json" % (name, key), doc)

    for name, value in (("list", [1]), ("null", None), ("float", 1.5), ("bool", True),
                        ("string", "1")):
        doc = dict(pimod.module_to_json(E2))
        doc["dims"] = {"2": value}
        write("dims_%s.json" % name, doc)

    # locally free and E-filtered, but not crystal (Q_1 is not; see
    # test_crystal_refuses_a_piece_at_vertex_1 in test_pimod.py)
    C = [[2, -2], [-1, 2]]
    rng = random.Random(145)
    tower = selftest.random_tower(validate_datum(C, [1, 2], default_orientation(C)),
                                  rng.randint(2, 5), rng)
    write("not_crystal.json", pimod.module_to_json(tower))
    disconnected = validate_datum([[2, 0], [0, 2]], [2, 2], [])
    write("disconnected.json", pimod.module_to_json(pimod.generalized_simple(disconnected, 1)))
    write("no_algebra.json", {"dims": {}})
    (root / "not_json.json").write_text("{not json")
    paths["not_json.json"] = str(root / "not_json.json")

    entries = dict(catalog.all_entries())
    write("m.json", pimod.module_to_json(entries["b2:1/21/2"].module))
    write("a5_11.json", pimod.module_to_json(entries["a5:leclerc[1:1]"].module))
    # E_1^2 (+) E_2 over B2, every arrow zero
    write("e112.json", {"algebra": {"cartan": [[2, -1], [-2, 2]], "symmetrizer": [2, 1]},
                        "dims": {"1": 4, "2": 1},
                        "epsilon": {"1": [["0", "0", "0", "0"], ["1", "0", "0", "0"],
                                          ["0", "0", "0", "0"], ["0", "0", "1", "0"]]}})
    towers = json.loads((Path(__file__).resolve().parent.parent / "perfbench" / "data"
                         / "towers.json").read_text())
    for name, rank, index in (("B2", 5, 1), ("G2", 10, 0)):
        write("%s_%d_%d.json" % (name, rank, index),
              {**towers["towers"][name][str(rank)][index], "algebra": towers["data"][name]})
    write("huge.json", {"cartan": [[2, -200000], [-200000, 2]]})

    a2 = catalog.a2_datum()
    write("s1.json", pimod.module_to_json(pimod.generalized_simple(a2, 1)))
    write("s2.json", pimod.module_to_json(pimod.generalized_simple(a2, 2)))
    write("s12.json", pimod.module_to_json(pimod.direct_sum(
        pimod.generalized_simple(a2, 1), pimod.generalized_simple(a2, 2))))
    return paths


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


_NO_INT = st.none() | st.booleans() | st.floats(allow_nan=False) | st.text(max_size=2)
_JSON_NO_INT = st.recursive(_NO_INT, lambda inner: st.lists(inner, max_size=3)
                            | st.dictionaries(st.text(max_size=2), inner, max_size=2),
                            max_leaves=6)
_JSON = st.recursive(_NO_INT | st.integers(), lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=2), inner, max_size=2), max_leaves=6)
_ABSENT = object()


def _mostly(common, rare):
    """`common` nine draws in ten, else `rare`."""
    return st.integers(0, 9).flatmap(lambda k: rare if k == 0 else common)


@st.composite
def _algebra_configs(draw):
    """Algebra configs whose four fields are each missing, near valid for
    n vertices, or any JSON.  A Cartan entry is a small c_ij <= 0 or, one
    time in ten, a positive or large integer of either sign or not an
    integer; a symmetrizer entry is small or, as rarely, large."""
    n = draw(st.integers(1, 3))
    odd = (st.integers(1, 3) | st.integers(3, 2 ** 70) | st.integers(-2 ** 70, -3)
           | _JSON_NO_INT)
    cartan = [[draw(_mostly(st.just(2) if a == b else st.integers(-3, 0), odd))
               for b in range(draw(_mostly(st.just(n), st.integers(0, 4))))]
              for a in range(n)]
    label = st.sampled_from([1, 2, 3, "x", "1"]) | st.integers()
    vertices = st.lists(_mostly(label, _JSON), min_size=n, max_size=n)
    fields = {
        "cartan": _mostly(st.just(cartan), _JSON_NO_INT),
        "vertices": st.sampled_from([_ABSENT, None]) | _mostly(vertices, _JSON),
        "symmetrizer": st.sampled_from([_ABSENT, None, "minimal"])
        | _mostly(st.lists(_mostly(st.integers(1, 3), st.integers(4, 2 ** 70) | _JSON),
                           min_size=n, max_size=n), _JSON),
    }
    doc = {key: v for key, v in ((key, draw(f)) for key, f in fields.items()) if v is not _ABSENT}
    names = doc.get("vertices")
    names = names if isinstance(names, list) and names else list(range(1, n + 1))
    pair = st.lists(_mostly(st.sampled_from(names), _JSON), min_size=2, max_size=2)
    orientation = draw(st.sampled_from([_ABSENT, None])
                       | _mostly(st.lists(_mostly(pair, _JSON), max_size=3), _JSON))
    if orientation is not _ABSENT:
        doc["orientation"] = orientation
    return doc


class TestValidation:
    def test_validate_ok(self, runner, files):
        out = run_json(runner, ["validate", files["b2.json"]])
        assert out["valid"] and out["symmetrizer"] == [2, 1]

    def test_minimal_symmetrizer_request(self, runner, files):
        out = run_json(runner, ["validate", files["b2_minimal.json"]])
        assert out["symmetrizer"] == [2, 1]
        assert out["orientation"] == [[1, 2]]

    def test_cyclic_orientation_exit_2(self, runner, files):
        result = runner.invoke(main, ["validate", files["cyclic.json"]])
        assert result.exit_code == 2
        assert "cycle" in result.output

    def test_string_vertex_labels(self, runner, files):
        out = run_json(runner, ["validate", files["labels.json"]])
        assert out["relations"]["mesh@'a'"] == "a_a_b_1*a_b_a_1"

    def test_every_relation_listed(self, runner, tmp_path):
        """Commutativity labels name their arrow, so the arrows 1 <- 12 and
        11 <- 2 of a 12-vertex datum list two relations, and all 20 show."""
        C = [[2 if a == b else -1 if {a, b} in ({1, 12}, {11, 2}) else 0
              for b in range(1, 13)] for a in range(1, 13)]
        path = tmp_path / "twelve.json"
        path.write_text(json.dumps({"cartan": C}))
        relations = run_json(runner, ["validate", str(path)])["relations"]
        assert len(relations) == 20
        assert {"commutativity@a_1_12_1", "commutativity@a_11_2_1"} <= set(relations)

    def test_labels_that_print_the_same_exit_2(self, runner, files):
        result = runner.invoke(main, ["validate", files["labels_same_str.json"]])
        assert result.exit_code == 2
        assert "(shape)" in result.output and "duplicate vertex labels" in result.output

    def test_arrows_sharing_a_name_exit_2(self, runner, tmp_path):
        """Over the vertices x, y_1, x_y and 1 with the edges x-y_1 and
        x_y-1, the arrows x <- y_1 and x_y <- 1 would both be a_x_y_1_1, so
        a module file could not tell them apart: the algebra is refused."""
        path = tmp_path / "xy.json"
        path.write_text(json.dumps({"vertices": ["x", "y_1", "x_y", 1],
                                    "cartan": [[2, -1, 0, 0], [-1, 2, 0, 0],
                                               [0, 0, 2, -1], [0, 0, -1, 2]]}))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, result.output
        assert ('(arrow_name): the arrows [target, source, g] ["x", "y_1", 1] and '
                '["x_y", 1, 1] are both named a_x_y_1_1' in result.output)

    def test_cartan_not_a_matrix_exit_2(self, runner, files):
        result = runner.invoke(main, ["validate", files["cartan_x.json"]])
        assert result.exit_code == 2
        assert "(shape)" in result.output

    def test_empty_cartan_exit_2(self, runner, files):
        result = runner.invoke(main, ["validate", files["cartan_empty.json"]])
        assert result.exit_code == 2
        assert "(shape)" in result.output and "at least one vertex" in result.output
        for args in (["lift", files["over_empty.json"], "--n", "2"],
                     ["check-symmetrizer", files["over_empty.json"], files["over_empty.json"],
                      "--n", "2"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
            assert "at least one vertex" in result.output

    @pytest.mark.parametrize("doc, code", [
        ({"cartan": [[2, False], [False, 2]]}, "shape"),
        ({"cartan": [[2, False], [False, 2]], "symmetrizer": [1, 1]}, "shape"),
        ({"cartan": [[2, -1], [-1, 2]], "symmetrizer": [1, True]}, "symmetrizer_positive"),
        ({"cartan": [[2, -1], [-1, 2]], "vertices": "ab"}, "shape"),
        ({"cartan": [[2, -1], [-1, 2]], "vertices": "ab", "symmetrizer": [1, 1]}, "shape"),
    ], ids=["bool-cartan", "bool-cartan-with-symmetrizer", "bool-symmetrizer",
            "string-vertices", "string-vertices-with-symmetrizer"])
    def test_booleans_and_string_vertices_exit_2(self, runner, tmp_path, doc, code):
        """JSON's true and false are not integers, and a string is not a
        list of vertex labels."""
        path = tmp_path / "bad_algebra.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, result.output
        assert "%s: invalid algebra (%s)" % (path, code) in result.output

    @pytest.mark.parametrize("cartan, sym, message", [
        ([[2, 1], [-1, 2]], "minimal",
         '(offdiag_positive): c_ij must be <= 0 for i != j (at "x","y")'),
        ([[2, 1], [-1, 2]], [1, 1],
         '(offdiag_positive): c_ij must be <= 0 for i != j (at "x","y")'),
        ([[2, -1], [0, 2]], "minimal", '(zero_pattern): c_ij = 0 must imply c_ji = 0 (at "x","y")'),
        ([[2, -1, -2], [-2, 2, -1], [-1, -2, 2]], "minimal",
         '(not_symmetrizable): no symmetrizer exists (cycle through "z","y")'),
    ], ids=["offdiag-positive", "offdiag-positive-with-symmetrizer", "zero-pattern",
            "not-symmetrizable"])
    def test_errors_name_the_file_vertex_labels(self, runner, tmp_path, cartan, sym, message):
        """With the symmetrizer derived, C is checked under the file's own
        labels, as it is with one given."""
        path = tmp_path / "labels.json"
        path.write_text(json.dumps({"cartan": cartan, "vertices": ["x", "y", "z"][:len(cartan)],
                                    "symmetrizer": sym}))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, result.output
        assert "%s: invalid algebra %s" % (path, message) in result.output

    @pytest.mark.parametrize("doc, code, field", [
        ({"cartan": [[2, -1], [-2, 2]], "symmetrizer": 3}, "shape", "symmetrizer"),
        ({"cartan": [[2, -1], [-2, 2]], "vertices": [[1], [2]]}, "shape", "vertices"),
        ({"cartan": [[2, -1], [-2, 2]], "vertices": [1.5, 2]}, "shape", "vertices"),
        ({"cartan": [[2, -1], [-2, 2]], "vertices": [None, 2]}, "shape", "vertices"),
        ({"cartan": [[2, -1], [-2, 2]], "orientation": 5}, "orientation_pair", "orientation"),
        ({"cartan": [[2, -1], [-2, 2]], "orientation": [[1, [2]]]}, "orientation_pair",
         "orientation"),
        ({"vertices": [1, 2]}, "shape", "'cartan'"),
    ], ids=["symmetrizer-int", "vertices-lists", "vertices-float", "vertices-null",
            "orientation-int", "orientation-nested-list", "no-cartan"])
    def test_malformed_field_is_named(self, runner, tmp_path, doc, code, field):
        """A malformed field is a DatumError naming it, not the text of a
        Python exception; vertex labels are JSON strings or integers."""
        path = tmp_path / "bad_algebra.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, result.output
        head = "%s: invalid algebra (%s): " % (path, code)
        assert head in result.output and field in result.output.split(head)[1]

    def test_null_symmetrizer_is_minimal(self, runner, tmp_path):
        path = tmp_path / "null_symmetrizer.json"
        path.write_text(json.dumps({"cartan": [[2, -1], [-2, 2]], "symmetrizer": None}))
        assert run_json(runner, ["validate", str(path)])["symmetrizer"] == [2, 1]

    @pytest.mark.parametrize("doc, message", [
        ({"cartan": [[2, -1], [-2, 2]], "symmetrizer": [2, 1, 1]},
         "(shape): symmetrizer must be a list with one entry per vertex"),
        ({"cartan": [[2, -1], [-2, 2]], "orientation": [[1, 2, 1]]},
         "(orientation_pair): orientation entries must be pairs"),
        ({"cartan": [[2, -1], [-2, 2]], "orientation": [[1, 2], [1, 2]]},
         "(orientation_pair): duplicate pair in orientation"),
        ({"cartan": [[2, -1], [-2, 2]], "orientation": [[1, 3]]},
         "(orientation_pair): orientation pair (1,3) is not an edge"),
        ({"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "orientation": [[1, 2], [2, 3], [1, 3]]},
         "(orientation_pair): orientation pair (1,3) has c_ij = 0"),
        ({"cartan": [[2, -1], [-2, 2]], "orientation": [[True, 2]]},
         "(orientation_pair): orientation pair (true,2) is not an edge"),
        ({"cartan": [[2, -1], [-2, 2]], "orientation": [["x", 2]]},
         '(orientation_pair): orientation pair ("x",2) is not an edge'),
    ], ids=["symmetrizer-length", "orientation-triple", "orientation-duplicate",
            "orientation-not-an-edge", "orientation-c-zero", "orientation-boolean-label",
            "orientation-string-label"])
    def test_invalid_datum_exit_2(self, runner, tmp_path, doc, message):
        path = tmp_path / "bad_algebra.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code == 2, result.output
        assert "%s: invalid algebra %s" % (path, message) in result.output

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(doc=_algebra_configs())
    def test_any_algebra_config_is_a_datum_or_a_datum_error(self, runner, tmp_path_factory,
                                                            doc):
        """Whatever JSON the four fields hold, `validate` exits 0 or exits 2
        with "invalid algebra": `cartan` raises a DatumError for every
        malformed field, and no other error reaches the command."""
        path = tmp_path_factory.getbasetemp() / "any_algebra.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["validate", str(path)])
        assert result.exit_code in (0, 2), (doc, result.output)
        assert result.exception is None or isinstance(result.exception, SystemExit), doc
        if result.exit_code == 2:
            assert "%s: invalid algebra (" % path in result.output, doc

    def test_algebra_not_an_object_exit_2(self, runner, files):
        result = runner.invoke(main, ["validate", files["list_algebra.json"]])
        assert result.exit_code == 2
        assert "list_algebra.json" in result.output

    def test_usage_error_writes_no_output_file(self, runner, files):
        target = os.path.join(files["root"], "should_not_exist.json")
        result = runner.invoke(main, ["validate", files["cyclic.json"], "--out", target])
        assert result.exit_code == 2
        assert not os.path.exists(target)


class TestModuleCommands:
    def test_check_ok(self, runner, files):
        out = run_json(runner, ["check", files["e2.json"]])
        assert out["ok"]

    def test_check_violation_exit_1(self, runner, files):
        result = runner.invoke(main, ["check", files["bad.json"]])
        assert result.exit_code == 1
        assert "nilpotency" in result.output

    def test_rank(self, runner, files):
        out = run_json(runner, ["rank", files["e1.json"]])
        assert out["locally_free"] and out["rank_vector"] == [1, 0]

    def test_hom_and_ext(self, runner, files):
        """Over Q and GF(32003); every arrow acts by zero on E_1 and E_2, so
        Hom(E_1, E_2) writes no arrow equation.  b2:1/21/2 is rigid, and
        a5:leclerc[1:1] is not."""
        for field in ("q", "fp:32003"):
            for command, a, b, key, dim in (
                    ("hom", "e1.json", "e1.json", "dim_hom", 2),
                    ("hom", "e1.json", "e2.json", "dim_hom", 0),
                    ("ext", "e1.json", "e1.json", "dim_ext1", 0),
                    ("ext", "e1.json", "e2.json", "dim_ext1", 2),
                    ("ext", "m.json", "m.json", "dim_ext1", 0),
                    ("ext", "a5_11.json", "a5_11.json", "dim_ext1", 2)):
                out = run_json(runner, [command, files[a], files[b], "--field", field])
                assert out[key] == dim, (field, command, a, b)

    def test_hom_prime_field(self, runner, files):
        """Also over a prime above the Miller-Rabin bound, which BPSW
        certifies."""
        for name in ("e1.json", "m.json"):
            out = run_json(runner, ["hom", files[name], files[name]])
            for p in (32003, 3317044064679887385962123):
                fp = run_json(runner, ["hom", files[name], files[name], "--field", "fp:%d" % p])
                assert fp["dim_hom"] == out["dim_hom"] and fp["field"] == "F%d" % p

    @pytest.mark.parametrize("field", ["q", "fp:32003"])
    def test_hom_with_a_module_not_locally_free(self, runner, files, tmp_path, field):
        """Both orders against an exported B2 entry: into nlf.json the full
        loop-and-arrow system runs, out of it the free-generator one; both
        equal the full system's nullity."""
        entry = tmp_path / "entry.json"
        entry.write_text(json.dumps(run_json(runner, ["catalog", "export", "b2:1/21/12/1"])))
        nlf = files["nlf.json"]
        dims = {}
        for a, b in ((str(entry), nlf), (nlf, str(entry))):
            dims[a, b] = run_json(runner, ["hom", a, b, "--field", field])["dim_hom"]
            M, N = (cli._load_module(x, cli._parse_field(None, None, field)) for x in (a, b))
            assert dims[a, b] == pimod._nullity(
                M.field, pimod._hom_system(M, N, M.datum.arrow_keys())[0])
        assert list(dims.values()) == [1, 1]

    def test_bad_field_exit_2(self, runner, files):
        for flag in ("fp:abc", "fp:4", "fp:", "fp:1022117", "r"):
            result = runner.invoke(main, ["hom", files["e1.json"], files["e1.json"],
                                          "--field", flag])
            assert result.exit_code == 2, flag
            assert "--field" in result.output
        result = runner.invoke(main, ["hom", files["e1.json"], files["e1.json"],
                                      "--field", "fp:561"])
        assert result.exit_code == 2
        assert "modulus 561 is not prime" in result.output

    @pytest.mark.parametrize("flag", ["fp:\u0663", "fp:\uff17", "fp:\u00b2"],
                             ids=["arabic-indic-3", "fullwidth-7", "superscript-2"])
    def test_field_prime_is_ascii_digits(self, runner, files, flag):
        """A prime is spelled in ASCII digits: str.isdigit takes an
        Arabic-Indic 3, a fullwidth 7 and a superscript 2 too."""
        result = runner.invoke(main, ["hom", files["e1.json"], files["e1.json"], "--field", flag])
        assert result.exit_code == 2, result.output
        assert "must be 'q' or 'fp:<prime>'" in result.output

    def test_field_only_on_commands_that_read_it(self, runner, files):
        # these commands load no module file, so a field would go unused
        for args in (["validate", files["b2.json"]],
                     ["forms", files["b2.json"], "1,1", "1,0"],
                     ["table", "a2"], ["catalog", "list"],
                     ["catalog", "export", "b2:1/1"], ["selftest"]):
            result = runner.invoke(main, args + ["--field", "fp:7"])
            assert result.exit_code == 2, args
            assert "--field" in result.output, args

    def test_seed_and_trials_only_on_commands_that_read_them(self, runner, files):
        # these commands draw no random samples, so a seed or trial count
        # would go unused; decompose draws endomorphisms but has no trial count
        e1, e2, b2 = files["e1.json"], files["e2.json"], files["b2.json"]
        unused = [(args, flag) for flag in ("--seed", "--trials")
                  for args in (["validate", b2], ["check", e1], ["rank", e1],
                               ["hom", e1, e2], ["ext", e1, e2],
                               ["forms", b2, "1,1", "1,0"], ["pieces", e1, "1"],
                               ["efiltered", e1], ["crystal", e1], ["rigid", e1],
                               ["reduce", e1], ["lift", e1, "--n", "2"])]
        unused.append((["decompose", e1], "--trials"))
        assert len(unused) == 25
        for args, flag in unused:
            result = runner.invoke(main, args + [flag, "3"])
            assert result.exit_code == 2, (args, flag)
            assert flag in result.output, (args, flag)
        assert run_json(runner, ["decompose", e1, "--seed", "3"])["seed"] == 3
        assert run_json(runner, ["iso", e1, e1, "--seed", "3", "--trials", "2"])["trials"] == 2

    def test_entry_not_defined_mod_p_exit_2(self, runner, files, tmp_path):
        """An entry whose denominator p divides has no value in GF(p): a
        malformed entry that names itself and p, under fp:p only."""
        path = tmp_path / "denominator_p.json"
        doc = dict(pimod.module_to_json(pimod.generalized_simple(catalog.b2_datum(), 1)))
        doc["epsilon"] = {"1": [["0", "0"], ["1/32003", "0"]]}
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(path), "--field", "fp:32003"])
        assert result.exit_code == 2
        assert ("%s: bad matrix entry: 1/32003 has a denominator divisible by 32003" % path
                in result.output)
        assert run_json(runner, ["check", str(path), "--field", "fp:7"])["ok"]

    def test_malformed_entry_exit_2(self, runner, files):
        for name in ("div0.json", "float.json", "bool.json"):
            result = runner.invoke(main, ["check", files[name]])
            assert result.exit_code == 2, name
            assert name in result.output

    def test_module_not_an_object_exit_2(self, runner, files):
        result = runner.invoke(main, ["check", files["list_module.json"]])
        assert result.exit_code == 2
        assert "list_module.json" in result.output

    def test_module_field_not_an_object_exit_2(self, runner, files):
        """A section that is not an object is refused, a falsy one too: only
        a missing key or null is an empty section."""
        for key in ("dims", "epsilon", "arrows"):
            for value in ("list", "empty_list", "false", "zero"):
                name = "%s_%s.json" % (value, key)
                result = runner.invoke(main, ["check", files[name]])
                assert result.exit_code == 2, name
                assert "%s: %r must be a JSON object" % (files[name], key) in result.output
        out = run_json(runner, ["check", files["null_arrows.json"]])
        assert out["ok"] and out["dims"] == {"1": 2, "2": 0}

    @pytest.mark.parametrize("name", ["list", "null", "float", "bool"])
    def test_module_dims_not_an_integer_exit_2(self, runner, files, name):
        result = runner.invoke(main, ["check", files["dims_%s.json" % name]])
        assert result.exit_code == 2, result.output
        assert "dims_%s.json" % name in result.output and "dimension" in result.output

    def test_module_dims_string_accepted(self, runner, files):
        out = run_json(runner, ["check", files["dims_string.json"]])
        assert out["dims"] == {"1": 0, "2": 1}

    @pytest.mark.parametrize("key, value, message", [
        ("dims", {"1": -2}, "dimension -2 is negative"),
        ("dims", {"1": "-2"}, "dimension -2 is negative"),
        ("dims", {"1": "abc"}, "dimension 'abc' is not an integer"),
        ("arrows", {"a_1_2_x": [["1"], ["0"]]},
         "unknown arrow key 'a_1_2_x' (the arrows are ['a_1_2_1', 'a_2_1_1'])"),
        ("arrows", {"a_2_1_1": [], "a_2_1_01": []},
         "unknown arrow key 'a_2_1_01' (the arrows are ['a_1_2_1', 'a_2_1_1'])"),
        ("arrows", {"a_2_1_1": [], "a_2_1_\u0661": []},
         "unknown arrow key 'a_2_1_\u0661' (the arrows are ['a_1_2_1', 'a_2_1_1'])"),
        ("epsilon", {"1": [["0", "0"]]}, "matrix shape mismatch: expected 2x2 (loop at 1)"),
        ("arrows", {"a_2_1_1": [["1", "0"]]},
         "matrix shape mismatch: expected 0x2 (arrow a_2_1_1)"),
        ("arrows", False, "'arrows' must be a JSON object"),
        ("epsilon", 0, "'epsilon' must be a JSON object"),
        ("dims", [], "'dims' must be a JSON object"),
    ], ids=["negative", "negative-string", "not-a-number", "arrow-index",
            "arrow-index-zero-padded", "arrow-index-non-ascii-digit", "loop-shape",
            "arrow-shape", "arrows-false", "epsilon-zero", "dims-empty-list"])
    def test_module_file_names_the_bad_value(self, runner, tmp_path, key, value, message):
        """A bad dimension, arrow key or matrix in a module file is a usage
        error naming the value or the matrix's loop or arrow, not a traceback
        or a later shape mismatch.  An arrow index int() reads but spelled
        other than the arrow's name is refused, so no arrow is given twice
        with the later entry winning."""
        doc = dict(pimod.module_to_json(pimod.generalized_simple(catalog.b2_datum(), 1)))
        doc[key] = value
        path = tmp_path / "bad_value.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["check", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "%s: %s" % (path, message) in result.output
        assert "Traceback" not in result.output

    def test_product_over_labels_with_underscores_reads_back(self, runner, tmp_path):
        """A product written by `star --out` over the labels x_1 and y names
        its arrow a_y_x_1_1, and every command that reads it finds it."""
        algebra = {"vertices": ["x_1", "y"], "cartan": [[2, -1], [-1, 2]]}
        for v in ("x_1", "y"):
            (tmp_path / ("E_%s.json" % v)).write_text(json.dumps({"algebra": algebra,
                                                                   "dims": {v: 1}}))
        p = str(tmp_path / "p.json")
        result = runner.invoke(main, ["star", str(tmp_path / "E_x_1.json"),
                                      str(tmp_path / "E_y.json"), "--out", p])
        assert result.exit_code == 0, result.output
        assert list(json.loads(Path(p).read_text())["module"]["arrows"]) == ["a_y_x_1_1"]
        assert run_json(runner, ["check", p])["ok"]
        assert run_json(runner, ["decompose", p])["count"] == 1

    @pytest.mark.parametrize("command", [["hom"], ["ext"], ["iso"], ["star"],
                                         ["check-symmetrizer", "--n", "2"],
                                         ["divide-right"], ["divide-left"]])
    def test_modules_over_different_algebras_exit_2(self, runner, files, command):
        a, b = files["s1.json"], files["e1.json"]   # over a2 and over b2
        result = runner.invoke(main, command + [a, b])
        assert result.exit_code == 2, result.output
        assert "s1.json" in result.output and "e1.json" in result.output
        assert "different algebras" in result.output

    def test_forms(self, runner, files):
        out = run_json(runner, ["forms", files["a5.json"], "1,2,2,2,1", "1,2,2,2,1"])
        assert out["alpha"] == 14 and out["beta"] == 12
        assert out["dimRC"] == 12 and out["dimGL"] == 14

    def test_forms_negative_rank_exit_2(self, runner, files):
        for dvec, evec in ((" -1,2", "0,1"), ("1,2", "0,-1")):
            result = runner.invoke(main, ["forms", files["b2.json"], dvec, evec])
            assert result.exit_code == 2, result.output
            assert "no negative entries" in result.output and "dimRC" not in result.output

    def test_pieces(self, runner, files):
        out = run_json(runner, ["pieces", files["e1.json"], "1"])
        assert out["dim_sub"] == 2 and out["dim_Q"] == 0
        for name, vertex in (("m.json", "1"), ("a5_11.json", "3")):
            out = run_json(runner, ["pieces", files[name], vertex])
            dim = sum(json.loads(Path(files[name]).read_text())["dims"].values())
            assert out["dim_sub"] + out["dim_Q"] == out["dim_K"] + out["dim_fac"] == dim

    def test_predicates(self, runner, files):
        """`efiltered`'s witness and `crystal`'s verdict on E_1, the B2 entry
        1/21/2, E_1^2 (+) E_2 over B2 (no branch of its own: the cyclic peel
        takes E_1 twice, then E_2), a5:leclerc[1:1], and the stored B2
        rank-5 tower #1 and G2 rank-10 tower #0, where the cyclic peel gets
        stuck and the search, peeling each quotient it tries, finds a
        filtration."""
        for name, witness, crystal in (("e1.json", "1", True), ("m.json", "221", True),
                                       ("e112.json", "112", True),
                                       ("a5_11.json", "23451342", True),
                                       ("B2_5_1.json", "11121", False),
                                       ("G2_10_0.json", "1222212221", False)):
            assert run_json(runner, ["efiltered", files[name]]) == {
                "e_filtered": True, "witness": list(witness)}, name
            assert run_json(runner, ["crystal", files[name]]) == {"crystal": crystal}, name
        out = run_json(runner, ["rigid", files["e1.json"]])
        assert out["rigid"] and out["orbit_codim"] == 0

    def test_iso(self, runner, files):
        out = run_json(runner, ["iso", files["e1.json"], files["e1.json"]])
        assert out["verdict"] == "isomorphic" and out["seed"] == 0
        out = run_json(runner, ["iso", files["e1.json"], files["e2.json"]])
        assert out["verdict"] == "not-isomorphic"

    def test_iso_inconclusive_exit_1(self, runner, files):
        result = runner.invoke(main, ["iso", files["e1.json"], files["e1.json"], "--trials", "0"])
        assert result.exit_code == 1
        assert json.loads(result.output) == {"verdict": "inconclusive", "seed": 0, "trials": 0}

    def test_decompose(self, runner, files, tmp_path):
        """E_1 (+) E_1 and the product b2:1/21/2 * b2:1/21/2 split in two;
        E_2, whose End the trace form certifies local, and a5:leclerc[1:1]
        come back whole."""
        out = run_json(runner, ["decompose", files["sum.json"]])
        assert out["count"] == 2
        square = str(tmp_path / "square.json")
        assert runner.invoke(main, ["star", files["m.json"], files["m.json"],
                                    "--out", square]).exit_code == 0
        for path, count in ((square, 2), (files["e2.json"], 1), (files["a5_11.json"], 1)):
            assert run_json(runner, ["decompose", path])["count"] == count, path

    def test_decompose_undecided_exit_1(self, runner, files, monkeypatch):
        monkeypatch.setattr(pimod, "DECOMPOSE_RETRIES", 0)
        result = runner.invoke(main, ["decompose", files["e1e2.json"]])
        assert result.exit_code == 1
        out = json.loads(result.output)
        assert "could not split" in out["undecided"] and out["seed"] == 0

    def test_algebra_by_path_reference(self, runner, files):
        doc = json.loads(Path(files["e1.json"]).read_text())
        doc["algebra"] = "b2.json"  # relative to the module file
        p = os.path.join(files["root"], "e1_ref.json")
        with open(p, "w") as fh:
            json.dump(doc, fh)
        out = run_json(runner, ["rank", p])
        assert out["rank_vector"] == [1, 0]


class TestStarCommands:
    def test_star_and_divisions(self, runner, files, tmp_path):
        out = run_json(runner, ["star", files["e1.json"], files["e2.json"]])
        assert out["certified"] and out["rigid_middle"] and out["ext_self"] == 0
        assert out["module"]["dims"] == {"1": 2, "2": 1}
        # reports of module-producing commands are accepted as module files
        prod = tmp_path / "star_report.json"
        prod.write_text(json.dumps(out))
        cok = run_json(runner, ["divide-right", str(prod), files["e2.json"]])
        assert cok["module"]["dims"] == {"1": 2}
        ker = run_json(runner, ["divide-left", files["e1.json"], str(prod)])
        assert ker["module"]["dims"] == {"2": 1}
        coker_path = tmp_path / "cok.json"
        coker_path.write_text(json.dumps(cok))
        iso = run_json(runner, ["iso", str(coker_path), files["e1.json"]])
        assert iso["verdict"] == "isomorphic"

    @pytest.mark.parametrize("command,order", [("divide-right", ("nlf.json", "e2.json")),
                                               ("divide-left", ("e2.json", "nlf.json")),
                                               ("ext", ("nlf.json", "e2.json")),
                                               ("rigid", ("nlf.json",))])
    def test_division_of_a_module_not_locally_free_exit_2(self, runner, files, command, order):
        """A division with a module that is not locally free is a usage error,
        as for `ext`, `rigid` and `reduce`, not a failed division."""
        result = runner.invoke(main, [command] + [files[name] for name in order])
        assert result.exit_code == 2, result.output
        assert "module is not locally free" in result.output

    def test_star_rejects_invalid_module(self, runner, files):
        result = runner.invoke(main, ["star", files["bad.json"], files["e2.json"]])
        assert result.exit_code == 2

    def test_table_a2_markdown(self, runner, files):
        result = runner.invoke(main, ["table", "a2", "--format", "md"])
        assert result.exit_code == 0
        assert "| M \\ N | 1 | 2 |" in result.output
        assert "(+)" in result.output and "1/2" in result.output

    def test_table_markdown_marks_an_undecided_cell(self, runner, monkeypatch):
        labels = starop._cell_labels

        def undecided(mid, rl, M, cl, N, *args):
            if (rl, cl) == ("1", "2"):
                raise pimod.DecomposeUndecided("forced")
            return labels(mid, rl, M, cl, N, *args)

        monkeypatch.setattr(starop, "_cell_labels", undecided)
        result = runner.invoke(main, ["table", "a2", "--format", "md"])
        assert result.exit_code == 0, result.output
        assert "| 1 | (+) | error |" in result.output
        assert "| 2 | 2/1 | (+) |" in result.output

    def test_table_a2_json(self, runner):
        """The A2 table at seed 0: both diagonal cells split, and each
        off-diagonal product is the extra the suite names, all certified."""
        out = run_json(runner, ["table", "a2"])
        assert (out["suite"], out["seed"], out["trials"]) == ("a2", 0, 8)
        assert out["labels"] == ["1", "2"]
        cells = {key: (cell["labels"], cell["split"]) for key, cell in out["cells"].items()}
        assert cells == {"1|1": (["1", "1"], True), "1|2": (["1/2"], False),
                         "2|1": (["2/1"], False), "2|2": (["2", "2"], True)}
        assert all(cell["certified"] and cell["error"] == "" for cell in out["cells"].values())

    def test_table_b2_json(self, runner, files):
        out = run_json(runner, ["table", "b2"])
        assert len(out["cells"]) == 36
        assert out["cells"]["1/1|2"]["labels"] == ["1/1/2"]
        assert out["cells"]["1/1|1/1"]["split"]


class TestSymmetrizerCommands:
    def test_lift_reduce_round_trip(self, runner, files, tmp_path):
        """`reduce` gives back the file that was lifted."""
        with open(files["s1.json"]) as fh:
            s1 = json.load(fh)
        for n in (2, 3):
            out = run_json(runner, ["lift", files["s1.json"], "--n", str(n)])
            assert out["module"]["dims"] == {"1": n}
            lifted = tmp_path / "lifted.json"
            lifted.write_text(json.dumps(out["module"]))
            back = run_json(runner, ["reduce", str(lifted)])
            assert back["module"] == s1

    def test_check_symmetrizer(self, runner, files):
        out = run_json(runner, ["check-symmetrizer", files["s1.json"], files["s2.json"],
                                "--n", "2"])
        assert out["agree"]

    def test_lift_refuses_non_symmetric(self, runner, files):
        result = runner.invoke(main, ["lift", files["e1.json"], "--n", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("mods, n, message", [
        (("e1.json", "e2.json"), "2", "must be symmetric"),
        (("s1.json", "s2.json"), "0", "positive integer")])
    def test_check_symmetrizer_usage_errors_exit_2(self, runner, files, mods, n, message):
        """A pair the symmetrizer reduction does not apply to is a usage
        error, as for `lift`; only an uncertified comparison exits 1."""
        result = runner.invoke(main, ["check-symmetrizer", files[mods[0]], files[mods[1]],
                                      "--n", n])
        assert result.exit_code == 2, result.output
        assert message in result.output

    def test_check_symmetrizer_uncertified_exits_1(self, runner, files):
        result = runner.invoke(main, ["check-symmetrizer", files["s12.json"], files["s1.json"],
                                      "--n", "2"])
        assert result.exit_code == 1, result.output
        assert "not certified" in json.loads(result.output)["error"]


class TestCatalogCommands:
    def test_list(self, runner):
        out = run_json(runner, ["catalog", "list"])
        labels = [e["label"] for e in out["entries"]]
        assert "b2:1/1/2" in labels

    def test_export_and_check(self, runner, tmp_path):
        target = tmp_path / "m3.json"
        result = runner.invoke(main, ["catalog", "export", "b2:1/1/2",
                                      "--out", str(target)])
        assert result.exit_code == 0
        doc = json.loads(target.read_text())
        runner2 = CliRunner()
        res2 = runner2.invoke(main, ["check", str(target)])
        assert res2.exit_code == 0
        assert doc["dims"] == {"1": 2, "2": 1}

    def test_export_unknown_label(self, runner):
        result = runner.invoke(main, ["catalog", "export", "nope"])
        assert result.exit_code == 2

    def test_export_takes_only_qualified_labels(self, runner):
        """A bare label is ambiguous ("2" names an entry of a2 and of b2), so
        only the labels `catalog list` prints are exported."""
        listed = [e["label"] for e in run_json(runner, ["catalog", "list"])["entries"]]
        assert "a2:2" in listed and "b2:2" in listed
        result = runner.invoke(main, ["catalog", "export", "2"])
        assert result.exit_code == 2
        assert "Error: unknown catalog label '2'" in result.output
        doc = run_json(runner, ["catalog", "export", "b2:2"])
        assert doc["algebra"]["cartan"] == [[2, -1], [-2, 2]]

    def test_export_into_missing_directory_exit_2(self, runner, tmp_path):
        """An --out path in a directory that does not exist is a usage error
        naming the path, not a traceback."""
        target = str(tmp_path / "nodir" / "x.json")
        result = runner.invoke(main, ["catalog", "export", "b2:2", "--out", target])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert target in result.output
        assert not os.path.exists(os.path.dirname(target))


def test_certified_negative_commands(runner, tmp_path):
    """`crystal` and `efiltered` say false on a locally free A1~ module over
    the minimal symmetrizer whose arrows form a cycle."""
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "algebra": {"cartan": [[2, -2], [-2, 2]], "symmetrizer": [1, 1],
                    "orientation": [[1, 2]]},
        "dims": {"1": 1, "2": 1}, "arrows": {"a_2_1_1": [["1"]], "a_1_2_2": [["1"]]}}))
    assert run_json(runner, ["crystal", str(path)]) == {"crystal": False}
    assert run_json(runner, ["efiltered", str(path)]) == {"e_filtered": False, "witness": None}


@pytest.mark.parametrize("command", ["divide-right", "divide-left"])
def test_divisions_refuse_a_locally_free_non_crystal_input(runner, tmp_path, command):
    """Over A1~ with the minimal symmetrizer, N = M (+) E_1, M the cycle
    module above, is locally free but not crystal: dividing it by E_1 on
    either side exits 2 and names it, with no traceback."""
    datum = validate_datum([[2, -2], [-2, 2]], [1, 1], [[1, 2]])
    M = pimod.module_from_json({"dims": {"1": 1, "2": 1},
                                "arrows": {"a_2_1_1": [["1"]], "a_1_2_2": [["1"]]}}, datum)
    E1 = pimod.generalized_simple(datum, 1)
    N = pimod.direct_sum(M, E1)
    assert pimod.is_locally_free(N)[0] and not pimod.is_crystal(N) and pimod.is_crystal(E1)
    paths = {}
    for name, X in (("N", N), ("E1", E1)):
        paths[name] = tmp_path / (name + ".json")
        paths[name].write_text(json.dumps(pimod.module_to_json(X)))
    order = ("N", "E1") if command == "divide-right" else ("E1", "N")
    result = runner.invoke(main, [command] + [str(paths[name]) for name in order])
    assert result.exit_code == 2, result.output
    assert "M is not a crystal module" in result.output
    assert "Traceback" not in result.output


@pytest.fixture(scope="module")
def non_module(runner, tmp_path_factory):
    """b2:1/21/2 with the arrow a_1_2_1 set to the identity: a file that
    parses, but whose matrices violate the mesh relations at both vertices."""
    doc = run_json(runner, ["catalog", "export", "b2:1/21/2"])
    doc["arrows"]["a_1_2_1"] = [["1", "0"], ["0", "1"]]
    path = tmp_path_factory.mktemp("non_module") / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("args", [["ext", "M", "M"], ["rigid", "M"], ["crystal", "M"],
                                  ["efiltered", "M"], ["hom", "M", "M"], ["iso", "M", "M"],
                                  ["pieces", "M", "1"], ["decompose", "M"], ["star", "M", "M"]],
                         ids=lambda args: args[0])
def test_module_commands_refuse_a_non_module(runner, non_module, args):
    """Every command that loads a module checks the relations first: exit 2
    with a message, not a traceback (`ext`, `rigid`) or a silent answer."""
    result = runner.invoke(main, [non_module if a == "M" else a for a in args])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert ("%s: violates the defining relations: ['mesh@1', 'mesh@2']" % non_module
            in result.output)


def test_check_reports_a_non_module(runner, non_module):
    """`check` reads the file without the loader's relation check and
    reports what it violates."""
    result = runner.invoke(main, ["check", non_module])
    assert result.exit_code == 1
    assert json.loads(result.output)["violated"] == ["mesh@1", "mesh@2"]


class TestMarkdownReports:
    def test_rank_nested_dims(self, runner, tmp_path):
        """Commands without their own renderer print nested key lists."""
        target = tmp_path / "m3.json"
        assert runner.invoke(main, ["catalog", "export", "b2:1/1/2",
                                    "--out", str(target)]).exit_code == 0
        result = runner.invoke(main, ["rank", "--format", "md", str(target)])
        assert result.exit_code == 0
        assert result.output == ("- **dims**:\n"
                                 "  - **1**: 2\n"
                                 "  - **2**: 1\n"
                                 "- **locally_free**: True\n"
                                 "- **rank_vector**: [1, 1]\n")

    def test_selftest_failure(self, runner, monkeypatch):
        report = {"seed": 3, "trials": 8, "all_passed": False, "criteria": [
            {"id": "c1", "title": "b2-table", "passed": True, "details": {}},
            {"id": "c2", "title": "a2-noncommutative", "passed": False, "details": {}}]}
        monkeypatch.setattr(cli, "run_selftest", lambda seed, trials: report)
        result = runner.invoke(main, ["selftest", "--format", "md", "--seed", "3"])
        assert result.exit_code == 1
        assert result.output == ("# selftest (seed 3, trials 8)\n"
                                 "\n"
                                 "- c1 b2-table: pass\n"
                                 "- c2 a2-noncommutative: FAIL\n"
                                 "\n"
                                 "all passed: False\n")


@pytest.mark.parametrize("trials", ["1"])
def test_selftest_uncertified_catalog_exit_1(runner, trials):
    """Too few trials leave a catalog product uncertified: a reported
    failure, not a traceback."""
    result = runner.invoke(main, ["selftest", "--trials", trials])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    out = json.loads(result.output)
    assert out["seed"] == 0 and "product not certified" in out["error"]


@pytest.mark.parametrize("args", [["star", "E1", "E2"], ["iso", "E1", "E1"], ["table", "b2"],
                                  ["selftest"], ["catalog", "list"]], ids=" ".join)
def test_negative_trials_exit_2(runner, files, args):
    """--trials is a count on every command that takes it."""
    args = [files["e1.json"] if a == "E1" else files["e2.json"] if a == "E2" else a
            for a in args]
    result = runner.invoke(main, args + ["--trials", "-1"])
    assert result.exit_code == 2, result.output
    assert "--trials" in result.output and ">=0" in result.output


@pytest.mark.parametrize("args", [
    ["star", "E1", "E2"], ["divide-right", "E1E1", "E1"], ["divide-left", "E1", "E1E1"],
    ["table", "b2"], ["table", "a2"], ["catalog", "list"], ["catalog", "export", "b2:2"],
    ["check-symmetrizer", "S1", "S2", "--n", "2"], ["selftest"]], ids=" ".join)
def test_zero_trials_exit_2(runner, files, args):
    """--trials 0 draws no product, cokernel or kernel: a usage error with a
    message, not a result of one draw reported as "trials": 0."""
    names = {"E1": "e1.json", "E2": "e2.json", "E1E1": "sum.json", "S1": "s1.json",
             "S2": "s2.json"}
    args = [files[names[a]] if a in names else a for a in args]
    result = runner.invoke(main, args + ["--trials", "0"])
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "0 trials draw no" in result.output


# The sha256 of a fixed set of reports, file paths reduced to basenames:
# every catalog entry exported, the B2 table, Hom and Ext^1 over GF(32003)
# on the 64 ordered pairs of B2 entries, the canonical pieces of each at
# both vertices over GF(7), and their decompositions.  It pins the basis
# choices behind the printed matrices, which the selftest report does not
# show.  A change that deliberately changes basis choices updates it and
# says so in CHANGES.md.
REPORTS_SHA256 = "5e87456bf84e15eac5980ab2c4e55b719746319d8c8f328fd362931edd9973f9"


def test_reports_digest(runner, tmp_path):
    digest = hashlib.sha256()

    def run(args):
        result = runner.invoke(main, args)
        shown = [os.path.basename(a) for a in args]
        digest.update(("%r %d\n" % (shown, result.exit_code)).encode())
        digest.update(result.output.replace(str(tmp_path) + os.sep, "").encode())
        return result.output

    labels = [e["label"] for e in run_json(runner, ["catalog", "list"])["entries"]]
    assert len(labels) == 13
    b2 = []
    for label in labels:
        path = tmp_path / (label.replace(":", "_").replace("/", "-") + ".json")
        path.write_text(run(["catalog", "export", label]))
        if label.startswith("b2:"):
            b2.append(str(path))
    assert len(b2) == 8
    run(["table", "b2"])
    for a in b2:
        for b in b2:
            run(["hom", a, b, "--field", "fp:32003"])
            run(["ext", a, b, "--field", "fp:32003"])
    for a in b2:
        run(["pieces", a, "1", "--field", "fp:7"])
        run(["pieces", a, "2", "--field", "fp:7"])
        run(["decompose", a])
    assert digest.hexdigest() == REPORTS_SHA256


# The sha256 of reports that go through nontrivial submodules and quotients
# over Q: the canonical pieces of the eight B2 entries at both vertices; the
# product A * B of every ordered pair of the six non-projective entries,
# divided back on either side and decomposed; decompositions of conjugated
# sums X (+) Y at seeds 0 and 1; and an A3 module lifted to (C, 3D), then
# reduced and cut into its pieces.  Like REPORTS_SHA256 it pins the basis
# choices behind the printed matrices.
SPLIT_REPORTS_SHA256 = "ed9179a0386354f9240abb4f05814972021319df71b8672e2c3ff1377a4d6aec"


def _conjugated(M, shift):
    """M in the basis changed at each vertex by g = I + shift * N, N the
    upper shift matrix, so that the summands of a direct sum are no longer
    coordinate blocks; g^-1 is the sum of the (-shift * N)^k."""
    def mat(n, entry):
        return linalg.Mat.from_rows(linalg.QQ, [[entry(c - r) for c in range(n)]
                                                for r in range(n)])

    g = {i: mat(n, lambda k: {0: 1, 1: shift}.get(k, 0)) for i, n in M.dims.items()}
    h = {i: mat(n, lambda k: (-shift) ** k if k >= 0 else 0) for i, n in M.dims.items()}
    return pimod.ModuleRep(M.datum, M.dims, {i: g[i] * E * h[i] for i, E in M.eps.items()},
                           {k: g[k[1]] * A * h[k[2]] for k, A in M.arrows.items()})


def test_split_reports_digest(runner, tmp_path):
    digest = hashlib.sha256()

    def run(args):
        result = runner.invoke(main, args)
        shown = [os.path.basename(a) for a in args]
        digest.update(("%r %d\n" % (shown, result.exit_code)).encode())
        digest.update(result.output.replace(str(tmp_path) + os.sep, "").encode())
        return result.output

    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    suite = catalog.b2_suite()
    entries = [e.module for e in suite.entries + suite.extras]
    b2 = [write("b2_%d.json" % k, pimod.module_to_json(M)) for k, M in enumerate(entries)]
    assert len(b2) == 8
    for path in b2:
        run(["pieces", path, "1"])
        run(["pieces", path, "2"])
    for a in b2[:6]:
        for b in b2[:6]:
            product = json.loads(run(["star", a, b]))["module"]
            m = write("product.json", product)
            run(["divide-right", m, b])
            run(["divide-left", a, m])
            run(["decompose", m])
    for k, (x, y) in enumerate([(0, 0), (2, 4), (3, 5), (4, 1), (2, 2), (5, 0)]):
        S = _conjugated(pimod.direct_sum(entries[x], entries[y]), k + 1)
        path = write("sum.json", pimod.module_to_json(S))
        run(["decompose", path, "--seed", "0"])
        run(["decompose", path, "--seed", "1"])
    a3 = selftest.random_tower(catalog.a_type_datum(3), 4, random.Random(3))
    lifted = json.loads(run(["lift", write("a3.json", pimod.module_to_json(a3)), "--n", "3"]))
    big = write("a3_lift.json", lifted["module"])
    run(["reduce", big])
    for i in ("1", "2", "3"):
        run(["pieces", big, i])
    assert digest.hexdigest() == SPLIT_REPORTS_SHA256


@pytest.mark.parametrize("args", [["validate", "huge.json"],
                                  ["lift", "s1.json", "--n", "1000000"]], ids=lambda a: a[0])
def test_entry_bound_refuses_at_once(files, args):
    """A Cartan entry below -100, or a lift to a symmetrizer entry above
    100, is refused before any arrow is built: the command exits 2 within
    20 s, in a process of its own that the timeout can stop."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-m", "ppalg.cli"] + [files.get(a, a) for a in args],
                         env=env, capture_output=True, text=True, timeout=20)
    assert run.returncode == 2, run.stderr
    assert "(entry_bound)" in run.stderr


def _number_input(files, tmp_path, where, value):
    """The arguments of a command that reads `value` as `where`, and the
    start of the message that input gives for a malformed value."""
    if where in ("entry", "dimension"):
        doc = dict(pimod.module_to_json(pimod.generalized_simple(catalog.b2_datum(), 1)))
        if where == "entry":
            doc["epsilon"] = {"1": [["0", "0"], [value, "0"]]}
        else:
            doc["dims"] = {"1": 2, "2": value}
        path = tmp_path / "number.json"
        path.write_text(json.dumps(doc))
        if where == "entry":
            return ["check", str(path)], "%s: bad matrix entry: " % path
        return ["check", str(path)], "%s: dimension %r is not an integer" % (path, value)
    if where == "rank vector":
        return (["forms", files["b2.json"], "1," + value, "1,0"],
                "rank vectors are comma-separated integers")
    return (["hom", files["e1.json"], files["e1.json"], "--field", "fp:" + value],
            "must be 'q' or 'fp:<prime>'")


_EVERY_INPUT = ["0.5", "1e3", "1_0", "+2", "\u0663", "\uff17", "\u00b2"]
_REFUSED = ([(where, v) for where in ("entry", "dimension", "rank vector", "fp")
             for v in _EVERY_INPUT]
            + [(where, " 2") for where in ("entry", "dimension", "fp")]   # forms splits on spaces
            + [(where, v) for where in ("entry", "dimension") for v in (True, 2.0)])
_NAMES = {"0.5": "decimal", "1e3": "exponent", "1_0": "underscore", "+2": "plus",
          "\u0663": "arabic-indic-3", "\uff17": "fullwidth-7", "\u00b2": "superscript-2",
          " 2": "space", True: "true", 2.0: "float"}


@pytest.mark.parametrize("where, value", _REFUSED,
                         ids=["%s-%s" % (w, _NAMES[v]) for w, v in _REFUSED])
def test_number_outside_the_grammar_exit_2(runner, files, tmp_path, where, value):
    """A matrix entry, a dimension, a rank vector of `forms` and an fp:
    modulus are read by one reader, `linalg.Field.coerce`, in README's
    spelling only: a JSON integer or an ASCII "-?[0-9]+(/[0-9]+)?".
    Anything else exits 2 with that input's message for a malformed
    value."""
    args, message = _number_input(files, tmp_path, where, value)
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit), result.output
    assert message in result.output


def test_exponent_entry_refuses_at_once(tmp_path):
    """A 12-byte entry "1e-10000000" is refused as it is read: the command
    exits 2 within 20 s, in a process of its own that the timeout can stop."""
    doc = dict(pimod.module_to_json(pimod.generalized_simple(catalog.b2_datum(), 1)))
    doc["epsilon"] = {"1": [["0", "0"], ["1e-10000000", "0"]]}
    path = tmp_path / "exponent.json"
    path.write_text(json.dumps(doc))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    run = subprocess.run([sys.executable, "-m", "ppalg.cli", "check", str(path)],
                         env=env, capture_output=True, text=True, timeout=20)
    assert run.returncode == 2, run.stderr
    assert "bad matrix entry: cannot coerce '1e-10000000' into Q" in run.stderr


def test_documented_spellings_read_as_before(runner, files):
    """"-3", "3/2", "007" and a JSON 3 read as they did, and a number whose
    value is an integer is one wherever an integer is asked for."""
    for field in (linalg.QQ, linalg.GF(7)):
        got = linalg.mat_from_json(field, 1, 4, [["-3", "3/2", "007", 3]])
        assert got == Mat(field, 1, 4, [[Fraction(-3), Fraction(3, 2), 7, 3]])
    M = pimod.module_from_json({"dims": {"1": "002", "2": "3/3"}}, catalog.b2_datum())
    assert M.dims == {1: 2, 2: 1}
    assert (run_json(runner, ["forms", files["b2.json"], "007,3/3", "3,0"])
            == run_json(runner, ["forms", files["b2.json"], "7,1", "3,0"]))
    assert {cli._parse_field(None, None, f) for f in ("fp:7", "fp:007", "fp:14/2")} == {
        linalg.GF(7)}


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", b'{"cartan": [[2, ' + b"9" * 5000 + b'], [-1, 2]]}', b"[" * 100000,
], ids=["utf-16-bom", "5000-digit-integer", "nested-100000-deep"])
def test_undecodable_json_exit_2(runner, tmp_path, content):
    """A file that is not UTF-8, an integer longer than int() reads and
    nesting deeper than the parser's recursion limit are refused like
    malformed JSON, as algebra configs, module files and the algebra a
    module file names by its path."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    module = tmp_path / "module.json"
    module.write_text(json.dumps({"algebra": "bad.json", "dims": {}}))
    for args in (["validate", str(bad)], ["check", str(bad)], ["check", str(module)]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit), args
        assert "cannot read %s: " % bad in result.output, args


@pytest.mark.parametrize("dim, code", [(1000, 0), (1001, 2)])
def test_module_dimension_bound(runner, tmp_path, dim, code):
    """A module file's dimension is at most 1000 at each vertex: above it,
    `check` exits 2 naming the file and the vertex, before any matrix is
    built."""
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"algebra": {"cartan": [[2, -1], [-1, 2]]}, "dims": {"1": dim}}))
    result = runner.invoke(main, ["check", str(path)])
    assert result.exit_code == code, result.output
    if code:
        assert "%s: dimension %d at vertex 1 exceeds 1000" % (path, dim) in result.output
    else:
        assert json.loads(result.output)["dims"] == {"1": 1000, "2": 0}


def test_byte_identical_reports(runner, files):
    a = runner.invoke(main, ["forms", files["a5.json"], "1,2,2,2,1", "0,1,1,1,0"])
    b = runner.invoke(main, ["forms", files["a5.json"], "1,2,2,2,1", "0,1,1,1,0"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


@pytest.mark.parametrize("args, message", [
    (["decompose", "e1.json", "--field", "fp:32003"], "decompose requires the rational field"),
    (["star", "not_crystal.json", "not_crystal.json"], "A is not a crystal module"),
    (["divide-right", "not_crystal.json", "not_crystal.json"], "M is not a crystal module"),
    (["divide-left", "not_crystal.json", "not_crystal.json"], "A is not a crystal module"),
    (["pieces", "e1.json", "3"], "unknown vertex '3'"),
    (["forms", "b2.json", "1,x", "1,0"], "rank vectors are comma-separated integers"),
    (["forms", "b2.json", "1", "1,0"], "rank vector needs 2 entries"),
    (["forms", "e1.json", "1,0", "1,0"], "invalid algebra (shape): the Cartan matrix ('cartan')"),
    (["validate", "not_json.json"], "cannot read"),
    (["check", "no_algebra.json"], "module file needs an 'algebra' entry"),
    (["reduce", "e1.json"], "symmetrizer is not a multiple of the identity"),
    (["reduce", "disconnected.json"], "the Cartan matrix must be connected"),
], ids=["decompose-mod-p", "star-not-crystal", "divide-right-not-crystal",
        "divide-left-not-crystal", "pieces-unknown-vertex", "forms-not-integer",
        "forms-short-vector", "forms-on-a-module-file", "not-json", "module-without-algebra",
        "reduce-nonscalar-symmetrizer", "reduce-disconnected"])
def test_usage_errors_exit_2(runner, files, args, message):
    """Each refused input exits 2 with its message; file names stand for
    the files of the `files` fixture."""
    result = runner.invoke(main, [files.get(a, a) for a in args])
    assert result.exit_code == 2, result.output
    assert message in result.output


def test_file_format_examples_in_readme(runner, tmp_path):
    """The algebra config and module file of README's "File formats" load,
    satisfy the relations and have rank vector (1, 1)."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("## File formats")[1].split("\n## ")[0]
    algebra, module = [block.split("```")[0] for block in section.split("```json\n")[1:]]
    assert json.loads(module)["algebra"] == "b2.json"
    (tmp_path / "b2.json").write_text(algebra)
    (tmp_path / "module.json").write_text(module)
    assert run_json(runner, ["validate", str(tmp_path / "b2.json")])["valid"]
    check = run_json(runner, ["check", str(tmp_path / "module.json")])
    assert check["ok"] and check["violated"] == []
    rank = run_json(runner, ["rank", str(tmp_path / "module.json")])
    assert rank["locally_free"] and rank["rank_vector"] == [1, 1]


@pytest.mark.parametrize("error, code", [
    (catalog.CatalogError, 1), (starop.DivisionUndefined, 1), (starop.RankMismatch, 1),
    (symred.NotCertified, 1), (pimod.NotLocallyFree, 2), (starop.NoTrials, 2),
    (symred.SymmetrizerError, 2)], ids=lambda x: getattr(x, "__name__", str(x)))
def test_library_error_type_decides_the_exit_code(runner, files, monkeypatch, error, code):
    """`hom` handles no library error itself: the wrapper around every
    command reports a failed verification with exit 1 and the error in the
    report, and refuses its input with exit 2 and the message."""
    def raise_error(A, B):
        raise error("no answer")

    monkeypatch.setattr(pimod, "hom_dim", raise_error)
    result = runner.invoke(main, ["hom", files["e1.json"], files["e2.json"]])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    if code == 1:
        assert json.loads(result.output) == {"error": "no answer", "seed": None}
    else:
        assert "Usage: main hom" in result.output and "Error: no answer" in result.output


@pytest.mark.parametrize("args, message", [
    (["table", "b2", "--trials", "1"], "2/12/1: product not certified"),
    (["catalog", "list", "--trials", "1"], "2/12/1: product not certified"),
    (["catalog", "export", "b2:2", "--trials", "1"], "2/12/1: product not certified"),
    (["divide-right", "E2", "E1"], "rank vector of the sub exceeds the ambient module"),
    (["divide-left", "E1", "E2"], "rank vector of the top exceeds the ambient module"),
], ids=["table", "catalog-list", "catalog-export", "divide-right", "divide-left"])
def test_failed_verifications_exit_1(runner, files, args, message):
    """An uncertified catalog product and a division by a module of larger
    rank are failures reported with the seed, not usage errors."""
    names = {"E1": "e1.json", "E2": "e2.json"}
    result = runner.invoke(main, [files[names[a]] if a in names else a for a in args])
    assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
    out = json.loads(result.output)
    assert out["seed"] == 0 and out["error"].startswith(message)


def _force_disagree(monkeypatch):
    monkeypatch.setattr(symred, "verify_symmetrizer_compat", lambda A, B, n, trials, seed: {
        "n": n, "reduced_rank": [1, 1], "base_rank": [1, 1], "agree": False})


def _force_selftest_failure(monkeypatch):
    monkeypatch.setattr(cli, "run_selftest", lambda seed, trials: {
        "seed": seed, "trials": trials, "all_passed": False, "criteria": [
            {"id": "c1", "title": "b2-table", "passed": False, "details": {}}]})


@pytest.mark.parametrize("fmt", ["json", "md"])
@pytest.mark.parametrize("args, force", [
    (["check", "bad.json"], None),
    (["iso", "e1.json", "e1.json", "--trials", "0"], None),
    (["decompose", "e1e2.json"], lambda mp: mp.setattr(pimod, "DECOMPOSE_RETRIES", 0)),
    (["check-symmetrizer", "s1.json", "s2.json", "--n", "2"], _force_disagree),
    (["selftest"], _force_selftest_failure),
    (["divide-right", "e2.json", "e1.json"], None),
], ids=["check", "iso-inconclusive", "decompose-undecided", "check-symmetrizer-disagree",
        "selftest-failed", "divide-right-rank-mismatch"])
def test_failure_report_goes_to_out(runner, files, monkeypatch, tmp_path, args, force, fmt):
    """A failed verification writes its report where a success would: with
    --out the file holds what stdout shows without it, and stdout is empty."""
    if force:
        force(monkeypatch)
    args = [files.get(a, a) for a in args] + ["--format", fmt]
    shown = runner.invoke(main, args)
    target = tmp_path / "report.txt"
    written = runner.invoke(main, args + ["--out", str(target)])
    assert shown.exit_code == written.exit_code == 1, shown.output
    assert written.stdout == ""
    assert target.read_text() == shown.stdout


def test_failed_division_in_markdown(runner, files):
    result = runner.invoke(main, ["divide-right", files["e2.json"], files["e1.json"],
                                  "--format", "md"])
    assert result.exit_code == 1
    assert result.output == ("- **error**: rank vector of the sub exceeds the ambient module\n"
                             "- **seed**: 0\n")


@pytest.mark.parametrize("command, args, drawn", [
    ("divide-right", ("sum.json", "e1.json"), "embedding"),
    ("divide-left", ("e1.json", "sum.json"), "surjection")], ids=["divide-right", "divide-left"])
def test_zero_trial_division_names_the_map_it_draws(runner, files, command, args, drawn):
    """divide-right draws embeddings B -> M and divide-left surjections M -> A."""
    result = runner.invoke(main, [command] + [files[a] for a in args] + ["--trials", "0"])
    assert result.exit_code == 2, result.output
    assert "Error: division undefined: 0 trials draw no %s\n" % drawn in result.output


def test_division_with_no_surjection_names_it(runner, tmp_path):
    """M = b2:1/1 (+) b2:1/1/2 has rank vector (2, 1), yet Hom(M, b2:2) = 0:
    divide-left finds no surjection, and exits 1 naming it."""
    entries = dict(catalog.all_entries())
    paths = [tmp_path / "a.json", tmp_path / "m.json"]
    paths[0].write_text(json.dumps(pimod.module_to_json(entries["b2:2"].module)))
    paths[1].write_text(json.dumps(pimod.module_to_json(pimod.direct_sum(
        entries["b2:1/1"].module, entries["b2:1/1/2"].module))))
    result = runner.invoke(main, ["divide-left"] + [str(p) for p in paths])
    assert result.exit_code == 1, result.output
    assert json.loads(result.output) == {
        "error": "division undefined (no generic surjection found)", "seed": 0}


def test_reduce_refuses_a_module_not_locally_free(runner, tmp_path):
    """Over (A2, 2D) the loop at vertex 1 must have rank 1 on a free module:
    a one-dimensional space is not, and `reduce` exits 2."""
    datum = validate_datum([[2, -1], [-1, 2]], [2, 2], [(1, 2)])
    path = tmp_path / "nlf.json"
    path.write_text(json.dumps({"algebra": datum.to_json(), "dims": {"1": 1},
                                "epsilon": {"1": [["0"]]}, "arrows": {}}))
    result = runner.invoke(main, ["reduce", str(path)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "Error: reduction requires a locally free module" in result.output


@pytest.mark.parametrize("args", [["divide-right", "M", "Z"], ["divide-left", "Z", "M"],
                                  ["divide-right", "Z", "Z"]], ids=" ".join)
def test_dividing_by_the_zero_module(runner, files, tmp_path, args):
    """M / 0 = M and 0 \\ M = M: the output is the input module's file."""
    path = tmp_path / "z.json"
    path.write_text(json.dumps(pimod.module_to_json(pimod.zero_module(catalog.b2_datum()))))
    paths = {"M": files["e1e2.json"], "Z": str(path)}
    out = run_json(runner, [args[0]] + [paths[a] for a in args[1:]])
    with open(paths["M" if "M" in args else "Z"]) as fh:
        assert out["module"] == json.load(fh)


def test_readme_exit_code_table_matches_the_rule():
    """README's exit-code table lists exactly the types of cli._FAILED
    (exit 1) and cli._USAGE (exit 2)."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        section = fh.read().split("| error | exit |")[1].split("\n\n")[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()[2:]]
    table = {name.strip(" `"): int(code) for name, code in rows}
    assert table == {**{t.__name__: 1 for t in cli._FAILED},
                     **{t.__name__: 2 for t in cli._USAGE}}


def test_decompose_shows_an_internal_fault(runner, files, monkeypatch):
    """A bare ValueError out of `decompose`, such as `_split`'s refusal of a
    space that is not closed, is an internal fault: it keeps its traceback
    and is not reported as a usage error.  Only the rational-field refusal
    exits 2."""
    def fault(M, seed=0):
        raise ValueError("spaces are not closed under ('eps', 1)")

    monkeypatch.setattr(pimod, "decompose", fault)
    result = runner.invoke(main, ["decompose", files["e1.json"]])
    assert isinstance(result.exception, ValueError) and "Usage:" not in result.output
    assert issubclass(pimod.RationalFieldOnly, ValueError) and pimod.RationalFieldOnly in cli._USAGE

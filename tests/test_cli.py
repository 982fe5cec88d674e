import json
import os

import pytest
from click.testing import CliRunner

from ppalg import catalog, cli, pimod
from ppalg.cli import main


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

    for name, entry in (("div0.json", "1/0"), ("float.json", 1.5)):
        doc = dict(pimod.module_to_json(E1))
        doc["epsilon"] = {"1": [["0", "0"], [entry, "0"]]}
        write(name, doc)
    write("labels.json", {"vertices": ["a", "b"], "cartan": [[2, -1], [-1, 2]],
                          "symmetrizer": [1, 1], "orientation": [["a", "b"]]})
    write("cartan_x.json", {"cartan": "x"})
    write("list_algebra.json", [1])
    write("list_module.json", [])
    for key in ("dims", "epsilon", "arrows"):
        doc = dict(pimod.module_to_json(E1))
        doc[key] = [1, 1]
        write("list_%s.json" % key, doc)

    for name, value in (("list", [1]), ("null", None), ("float", 1.5), ("bool", True),
                        ("string", "1")):
        doc = dict(pimod.module_to_json(E2))
        doc["dims"] = {"2": value}
        write("dims_%s.json" % name, doc)

    a2 = catalog.a2_datum()
    write("s1.json", pimod.module_to_json(pimod.generalized_simple(a2, 1)))
    write("s2.json", pimod.module_to_json(pimod.generalized_simple(a2, 2)))
    return paths


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


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
        assert out["relations"]["mesh@'a'"] == "aab_1*aba_1"

    def test_cartan_not_a_matrix_exit_2(self, runner, files):
        result = runner.invoke(main, ["validate", files["cartan_x.json"]])
        assert result.exit_code == 2
        assert "(shape)" in result.output

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
        assert run_json(runner, ["hom", files["e1.json"], files["e1.json"]])["dim_hom"] == 2
        assert run_json(runner, ["ext", files["e1.json"], files["e1.json"]])["dim_ext1"] == 0
        assert run_json(runner, ["ext", files["e1.json"], files["e2.json"]])["dim_ext1"] == 2

    def test_hom_prime_field(self, runner, files):
        out = run_json(runner, ["hom", files["e1.json"], files["e1.json"]],)
        fp = run_json(runner, ["hom", files["e1.json"], files["e1.json"],
                               "--field", "fp:32003"])
        assert fp["dim_hom"] == out["dim_hom"] and fp["field"] == "F32003"

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

    def test_malformed_entry_exit_2(self, runner, files):
        for name in ("div0.json", "float.json"):
            result = runner.invoke(main, ["check", files[name]])
            assert result.exit_code == 2, name
            assert name in result.output

    def test_module_not_an_object_exit_2(self, runner, files):
        result = runner.invoke(main, ["check", files["list_module.json"]])
        assert result.exit_code == 2
        assert "list_module.json" in result.output

    def test_module_field_not_an_object_exit_2(self, runner, files):
        for key in ("dims", "epsilon", "arrows"):
            name = "list_%s.json" % key
            result = runner.invoke(main, ["check", files[name]])
            assert result.exit_code == 2, name
            assert name in result.output and key in result.output

    @pytest.mark.parametrize("name", ["list", "null", "float", "bool"])
    def test_module_dims_not_an_integer_exit_2(self, runner, files, name):
        result = runner.invoke(main, ["check", files["dims_%s.json" % name]])
        assert result.exit_code == 2, result.output
        assert "dims_%s.json" % name in result.output and "dimension" in result.output

    def test_module_dims_string_accepted(self, runner, files):
        out = run_json(runner, ["check", files["dims_string.json"]])
        assert out["dims"] == {"1": 0, "2": 1}

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

    def test_pieces(self, runner, files):
        out = run_json(runner, ["pieces", files["e1.json"], "1"])
        assert out["dim_sub"] == 2 and out["dim_Q"] == 0

    def test_predicates(self, runner, files):
        assert run_json(runner, ["efiltered", files["e1.json"]])["e_filtered"]
        assert run_json(runner, ["crystal", files["e1.json"]])["crystal"]
        out = run_json(runner, ["rigid", files["e1.json"]])
        assert out["rigid"] and out["orbit_codim"] == 0

    def test_iso(self, runner, files):
        out = run_json(runner, ["iso", files["e1.json"], files["e1.json"]])
        assert out["verdict"] == "isomorphic" and out["seed"] == 0
        out = run_json(runner, ["iso", files["e1.json"], files["e2.json"]])
        assert out["verdict"] == "not-isomorphic"

    def test_decompose(self, runner, files):
        out = run_json(runner, ["decompose", files["sum.json"]])
        assert out["count"] == 2

    def test_algebra_by_path_reference(self, runner, files):
        doc = json.loads(open(files["e1.json"]).read())
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

    def test_star_rejects_invalid_module(self, runner, files):
        result = runner.invoke(main, ["star", files["bad.json"], files["e2.json"]])
        assert result.exit_code == 2

    def test_table_a2_markdown(self, runner, files):
        result = runner.invoke(main, ["table", "a2", "--format", "md"])
        assert result.exit_code == 0
        assert "| M \\ N | 1 | 2 |" in result.output
        assert "(+)" in result.output and "1/2" in result.output

    def test_table_b2_json(self, runner, files):
        out = run_json(runner, ["table", "b2"])
        assert len(out["cells"]) == 36
        assert out["cells"]["1/1|2"]["labels"] == ["1/1/2"]
        assert out["cells"]["1/1|1/1"]["split"]


class TestSymmetrizerCommands:
    def test_lift_reduce_round_trip(self, runner, files, tmp_path):
        out = run_json(runner, ["lift", files["s1.json"], "--n", "2"])
        assert out["module"]["dims"] == {"1": 2}
        lifted = tmp_path / "lifted.json"
        lifted.write_text(json.dumps(out["module"]))
        back = run_json(runner, ["reduce", str(lifted)])
        assert back["module"]["dims"] == {"1": 1}

    def test_check_symmetrizer(self, runner, files):
        out = run_json(runner, ["check-symmetrizer", files["s1.json"], files["s2.json"],
                                "--n", "2"])
        assert out["agree"]

    def test_lift_refuses_non_symmetric(self, runner, files):
        result = runner.invoke(main, ["lift", files["e1.json"], "--n", "2"])
        assert result.exit_code == 2


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


def test_byte_identical_reports(runner, files):
    a = runner.invoke(main, ["forms", files["a5.json"], "1,2,2,2,1", "0,1,1,1,0"])
    b = runner.invoke(main, ["forms", files["a5.json"], "1,2,2,2,1", "0,1,1,1,0"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output

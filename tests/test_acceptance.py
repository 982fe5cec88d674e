"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The table-reproduction and family-number criteria carry a 60 second budget;
everything else just has to hold exactly.  The same checks back the CLI
`selftest` command, which criterion ten runs twice for byte-identity.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from ppalg import catalog, pimod, selftest, starop
from ppalg.cli import main
from ppalg.selftest import (criterion_a2, criterion_b2_table,
                            criterion_cancellation, criterion_dim_formulas,
                            criterion_divisions, criterion_efiltered_closure,
                            criterion_ext_theorems, criterion_leclerc,
                            criterion_symmetrizer_change)

SEED = 0
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _run(fn, budget=None, **kw):
    start = time.time()
    report = fn(seed=SEED, **kw)
    elapsed = time.time() - start
    status = "pass" if report["passed"] else "FAIL"
    print("ACCEPTANCE %s %s: %s (%.1fs)" % (report["id"], report["title"], status, elapsed))
    assert report["passed"], report["details"]
    if budget is not None:
        assert elapsed < budget, "%s took %.1fs (budget %ds)" % (report["id"], elapsed, budget)
    return report


def test_c01_b2_table_reproduction():
    report = _run(criterion_b2_table, budget=60)
    assert report["details"]["cells"] == 36


@pytest.mark.parametrize("seed", [1, 9])
def test_c01_b2_table_isotypic_cells(seed):
    # at these seeds the cells 1/1 * 1/21/2 and 2/12/1 * 1/21/2 are a sum
    # X (+) X that random endomorphisms do not split
    report = criterion_b2_table(seed=seed)
    assert report["passed"], report["details"]


def test_c02_a2_non_associativity():
    _run(criterion_a2)


def test_c03_leclerc_numbers():
    _run(criterion_leclerc, budget=60)


def test_c03_inconclusive_split_check_is_a_dont_know(monkeypatch):
    """An inconclusive split check makes c3 fail as "don't know", which the
    benchmark's check counts as undecided, not wrong."""
    def inconclusive(*args, **kwargs):
        raise pimod.IsoInconclusive("forced")

    monkeypatch.setattr(pimod, "iso_test", inconclusive)
    report = criterion_leclerc(seed=SEED)
    assert not report["passed"]
    assert report["details"]["distinct_star_splits"] is False
    assert report["details"]["inconclusive"] is True
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads
    assert [wrong for _, _, wrong in workloads.criterion_failures(report)] == [False]


@pytest.mark.parametrize("criterion, owner, name", [
    (criterion_b2_table, pimod, "decompose"),
    (criterion_divisions, starop, "generic_cokernel"),
], ids=["c1", "c7"])
def test_internal_fault_is_raised_not_recorded(monkeypatch, criterion, owner, name):
    """A ConsistencyError inside c1's table or c7's divisions is a fault of
    the program, not an undecided cell or pair: it leaves the criterion."""
    def fault(*args, **kwargs):
        raise pimod.ConsistencyError("forced")

    with pimod.memo_run():
        catalog.b2_suite(trials=8, seed=SEED)   # the pass's suite, built unfaulted
        monkeypatch.setattr(owner, name, fault)
        with pytest.raises(pimod.ConsistencyError, match="forced"):
            criterion(seed=SEED)


def test_c04_ext_formula_and_duality():
    report = _run(criterion_ext_theorems)
    assert report["details"]["pairs"] >= 100


def test_c05_efiltered_closure():
    report = _run(criterion_efiltered_closure)
    assert report["details"]["injective_checked"] >= 50
    assert report["details"]["surjective_checked"] >= 50


def test_c06_cancellation():
    report = _run(criterion_cancellation)
    assert report["details"]["comparisons"] >= 60
    assert report["details"]["collisions"] == []


def test_c07_division_identities():
    report = _run(criterion_divisions)
    assert report["details"]["pairs"] == 36


def test_c08_symmetrizer_change():
    report = _run(criterion_symmetrizer_change)
    assert report["details"]["ordered_pairs"] >= 26


def test_c09_dimension_formulas():
    report = _run(criterion_dim_formulas)
    assert report["details"]["homt_checked"] >= 20
    assert report["details"]["beta_checked"] >= 20


# sha256 of the JSON report of `ppalg selftest --seed 0`.  A refactor must
# leave the report as it is; a change that alters it on purpose updates this
# digest and says so in CHANGES.md.
SELFTEST_SHA256 = "b7ae46a9e7467ce630678286c1b00cf9e84efb167a5a16859d4ecf6060e37a96"


def test_c10_selftest_determinism():
    runner = CliRunner()
    first = runner.invoke(main, ["selftest", "--seed", "0"])
    second = runner.invoke(main, ["selftest", "--seed", "0"])
    status = "pass" if (first.exit_code == 0 and first.output == second.output) else "FAIL"
    print("ACCEPTANCE c10 determinism: %s" % status)
    assert first.exit_code == 0, first.output
    assert second.exit_code == 0
    assert first.output == second.output
    blob = first.output[first.output.index("{"):]
    assert hashlib.sha256(blob.encode()).hexdigest() == SELFTEST_SHA256
    report = json.loads(blob)
    assert report["all_passed"]
    assert [c["id"] for c in report["criteria"]] == ["c%d" % k for k in range(1, 11)]


def test_run_criteria_builds_each_b2_suite_once(monkeypatch):
    """c1, c5, c6 and c7 share the pass's suite, at the default trials and
    at others.  A build is counted where it certifies its first entry."""
    built, given = [], []
    certify, memoized = catalog._certify, catalog.b2_suite

    def counted(label, M, seed=0):
        if label == "1/1":
            built.append(seed)
        return certify(label, M, seed=seed)

    def recorded(*args, **kwargs):   # outside the memo, as a tracer wraps it
        given.append(memoized(*args, **kwargs))
        return given[-1]

    names = ("criterion_b2_table", "criterion_efiltered_closure",
             "criterion_cancellation", "criterion_divisions")
    monkeypatch.setattr(catalog, "_certify", counted)
    monkeypatch.setattr(catalog, "b2_suite", recorded)
    monkeypatch.setattr(selftest, "_CRITERIA", tuple(getattr(selftest, n) for n in names))
    for trials in (8, 4):
        built.clear()
        given.clear()
        reports = selftest.run_criteria(seed=3, trials=trials)
        assert all(r["passed"] for r in reports)
        assert built == [3]
        c1, c5, c6, c7 = given
        assert c1 is c5 is c6 is c7

"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The table-reproduction and family-number criteria carry a 60 second budget;
everything else just has to hold exactly.  The same checks back the CLI
`selftest` command, which criterion ten runs twice for byte-identity.
"""

import json
import time

import pytest
from click.testing import CliRunner

from ppalg.cli import main
from ppalg.selftest import (criterion_a2, criterion_b2_table,
                            criterion_cancellation, criterion_dim_formulas,
                            criterion_divisions, criterion_efiltered_closure,
                            criterion_ext_theorems, criterion_leclerc,
                            criterion_symmetrizer_change)

SEED = 0


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


def test_c10_selftest_determinism():
    runner = CliRunner()
    first = runner.invoke(main, ["selftest", "--seed", "0"])
    second = runner.invoke(main, ["selftest", "--seed", "0"])
    status = "pass" if (first.exit_code == 0 and first.output == second.output) else "FAIL"
    print("ACCEPTANCE c10 determinism: %s" % status)
    assert first.exit_code == 0, first.output
    assert second.exit_code == 0
    assert first.output == second.output
    report = json.loads(first.output[first.output.index("{"):])
    assert report["all_passed"]
    assert [c["id"] for c in report["criteria"]] == ["c%d" % k for k in range(1, 11)]

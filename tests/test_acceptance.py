"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The table-reproduction and family-number criteria carry a 60 second budget;
everything else just has to hold exactly.  The same checks back the CLI
`selftest` command, which criterion ten runs twice for byte-identity.
"""

import functools
import hashlib
import json
import os
import threading
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from ppalg import catalog, pimod, pool, selftest, starop
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


@pytest.mark.parametrize("trials, want", [(16, 16), (2, 8)])
def test_c02_iso_tests_take_at_least_8_trials(monkeypatch, trials, want):
    """c2 decides its two isomorphisms and labels its summands with
    max(trials, 8) draws, as c3, c7 and c8 do: at least 8, and more on
    request."""
    seen, iso_test = [], pimod.iso_test

    def recorded(M, N, trials=8, seed=0):
        seen.append(trials)
        return iso_test(M, N, trials=trials, seed=seed)

    monkeypatch.setattr(pimod, "iso_test", recorded)
    criterion_a2(trials=trials)
    assert seen and set(seen) == {want}


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


# -- the worker path: the caller and forked workers pull from one queue --------


@pytest.fixture
def three_cpus(monkeypatch):
    """Run passes on the caller and two forked workers, and check that no
    worker outlives the test."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_cpu_reports(monkeypatch, seed):
    with monkeypatch.context() as m:
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        return json.dumps(selftest.run_criteria(seed=seed))


def _stub(k):
    def criterion(seed=0, trials=8):
        return {"id": "c%d" % (k + 1), "passed": True, "details": {"seed": seed}}
    return criterion


def _faulty(message):
    def criterion(seed=0, trials=8):
        raise pimod.ConsistencyError(message)
    return criterion


def test_run_criteria_builds_each_b2_suite_once(monkeypatch, tmp_path, three_cpus):
    """c1, c5, c6 and c7 share the pass's suite, at the default trials and
    at others, in whichever process runs them.  A build is counted where it
    certifies its first entry.  Calls are logged to a file, since a forked
    worker's lists are its own; a worker keeps the address of an object it
    inherits, so one id across processes is one object."""
    log = tmp_path / "calls"
    certify, memoized = catalog._certify, catalog.b2_suite

    def note(line):
        with open(log, "a") as f:
            f.write(line + "\n")

    def counted(label, M, seed=0):
        if label == "1/1":
            note("built %d" % seed)
        return certify(label, M, seed=seed)

    def recorded(*args, **kwargs):   # outside the memo, as a tracer wraps it
        suite = memoized(*args, **kwargs)
        note("given %d" % id(suite))
        return suite

    names = ("criterion_b2_table", "criterion_efiltered_closure",
             "criterion_cancellation", "criterion_divisions")
    monkeypatch.setattr(catalog, "_certify", counted)
    monkeypatch.setattr(catalog, "b2_suite", recorded)
    monkeypatch.setattr(selftest, "_CRITERIA", tuple(getattr(selftest, n) for n in names))
    for trials in (8, 4):
        log.write_text("")
        reports = selftest.run_criteria(seed=3, trials=trials)
        assert all(r["passed"] for r in reports)
        calls = [line.split() for line in log.read_text().splitlines()]
        assert [arg for what, arg in calls if what == "built"] == ["3"]
        given = [arg for what, arg in calls if what == "given"]
        assert len(given) == 5 and len(set(given)) == 1   # the prebuild, c1, c5, c6, c7


def test_run_criteria_workers_match_one_cpu(monkeypatch, three_cpus):
    """Seeds 0-3: a pass on the caller and two workers gives the bytes of a
    one-CPU pass."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    for seed in range(4):
        one = _one_cpu_reports(monkeypatch, seed)
        assert forks == []
        assert json.dumps(selftest.run_criteria(seed=seed)) == one
        assert len(forks) == 2
        forks.clear()


def test_run_criteria_raises_the_first_fault(monkeypatch, three_cpus):
    """Criteria that raise in every process: the caller raises the
    lower-indexed one, with its own type."""
    crit = [_stub(k) for k in range(9)]
    crit[3], crit[6] = _faulty("c4 fault"), _faulty("c7 fault")
    monkeypatch.setattr(selftest, "_CRITERIA", tuple(crit))
    with pytest.raises(pimod.ConsistencyError, match="^c4 fault$"):
        selftest.run_criteria(seed=0)


def test_run_criteria_survives_a_dead_worker(monkeypatch, three_cpus):
    """Every criterion exits when a worker runs it, so each worker dies on
    its first index; the caller runs what they lost."""
    caller = os.getpid()

    def dies_in_worker(fn):
        @functools.wraps(fn)
        def criterion(**kwargs):
            if os.getpid() != caller:
                os._exit(1)
            return fn(**kwargs)
        return criterion

    one = _one_cpu_reports(monkeypatch, 0)
    monkeypatch.setattr(selftest, "_CRITERIA", tuple(map(dies_in_worker, selftest._CRITERIA)))
    assert json.dumps(selftest.run_criteria(seed=0)) == one


def test_run_criteria_kills_workers_when_the_caller_unwinds(monkeypatch, three_cpus):
    """An interrupt in the caller while the workers still compute: they are
    killed and reaped before it propagates."""
    caller = os.getpid()

    def interrupted(seed=0, trials=8):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(30)

    monkeypatch.setattr(selftest, "_CRITERIA", (interrupted,) * 9)
    start = time.time()
    with pytest.raises(KeyboardInterrupt):
        selftest.run_criteria(seed=0)
    assert time.time() - start < 10


def test_run_criteria_forks_no_threaded_process(monkeypatch, three_cpus):
    def forbidden():
        raise AssertionError("forked with a second thread alive")

    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(selftest, "_CRITERIA", tuple(_stub(k) for k in range(9)))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        reports = selftest.run_criteria(seed=5)
    finally:
        stop.set()
        thread.join()
    assert reports == [_stub(k)(seed=5) for k in range(9)]


def test_run_criteria_without_a_further_process(monkeypatch, three_cpus):
    """A fork that fails, as under a process limit, leaves its share to the
    caller."""
    def refused():
        raise BlockingIOError("fork refused")

    monkeypatch.setattr(os, "fork", refused)
    monkeypatch.setattr(selftest, "_CRITERIA", tuple(_stub(k) for k in range(9)))
    assert selftest.run_criteria(seed=5) == [_stub(k)(seed=5) for k in range(9)]


def test_fork_map_maps_any_indexed_batch(monkeypatch, three_cpus):
    """A function that is not a criterion: 20 tuples come back in index
    order from the caller and two workers; an empty batch forks nothing,
    and one past the queue's 256 bytes is refused before any fork."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def triple(k):
        return (k, k * k, "x" * k)

    monkeypatch.setattr(os, "fork", counted)
    assert pool.fork_map(triple, 20) == [triple(k) for k in range(20)]
    assert len(forks) == 2
    forks.clear()
    assert pool.fork_map(triple, 0) == []
    with pytest.raises(ValueError):
        pool.fork_map(triple, 257)
    assert forks == []

"""Tests of the benchmark harness itself (not of ppalg).

    python3 -m pytest perfbench/test_harness.py
"""

import sys
from pathlib import Path

import pytest

import harness

SRC = Path(__file__).resolve().parent.parent / "src"


# -- the percentile rule ----------------------------------------------------------

def test_percentile_nearest_rank():
    values = list(range(1, 101))          # 1..100, shuffled order must not matter
    values.reverse()
    assert harness.percentile(values, 50) == 50
    assert harness.percentile(values, 90) == 90
    assert harness.percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_p90_needs_ten_samples_beyond_it():
    assert harness.tail_count(100, 90) == 10
    assert harness.tail_count(99, 90) == 9
    harness.percentile(list(range(100)), 90)
    with pytest.raises(ValueError):
        harness.percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


# -- self time of nested spans ------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    t = harness.Tracer(clock)
    t.op = 7
    t.enter("outer")            # 0
    clock.now = 1.0
    t.enter("inner")            # 1
    clock.now = 3.0
    t.enter("leaf", store=False)  # 3
    clock.now = 3.5
    t.exit()                    # leaf: 0.5
    clock.now = 4.0
    t.exit()                    # inner: 3.0, self 2.5
    clock.now = 4.5
    t.enter("inner")            # 4.5
    clock.now = 5.0
    t.exit()                    # inner: 0.5
    clock.now = 10.0
    t.exit()                    # outer: 10, children 3.5
    assert t.total_s["outer"] == 10.0
    assert t.self_s["outer"] == 6.5
    assert t.self_s["inner"] == 3.0
    assert t.self_s["leaf"] == 0.5
    assert t.calls == {"outer": 1, "inner": 2, "leaf": 1}
    # the leaf is counted but not stored; stored spans point at their parent
    assert [s[0] for s in t.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in t.spans] == [None, 0, 0]
    assert all(s[4] == 7 for s in t.spans)
    assert t.spans[1][1:3] == [1.0, 4.0]


def test_hook_time_is_in_no_self_time():
    clock = FakeClock()
    t = harness.Tracer(clock)

    class Owner:
        @staticmethod
        def work():
            clock.now += 1.0
            return "done"

    def slow_hook(tracer, args, result=None):
        clock.now += 5.0

    t.enter("caller")
    t.wrap(Owner, "work", "work", before=slow_hook, after=slow_hook)
    assert Owner.work() == "done"
    t.unwrap_all()
    t.exit()
    assert t.self_s["work"] == 1.0
    assert t.self_s["caller"] == 0.0
    assert t.counts["trace.hook_s"] == 10.0
    assert Owner.work() == "done" and t.calls["work"] == 1   # unwrapped again


def test_wrap_counts_raises_and_inner_calls():
    t = harness.Tracer()

    class Mod:
        @staticmethod
        def leaf():
            return 1

        @staticmethod
        def search(n):
            for _ in range(n):
                Mod.leaf()
            if n > 2:
                raise RuntimeError("undecided")
            return n

    t.wrap(Mod, "leaf", "leaf", store=False)
    t.wrap(Mod, "search", "search", inner=("leaf", "search.trials"))
    Mod.search(2)
    with pytest.raises(RuntimeError):
        Mod.search(3)
    t.unwrap_all()
    assert t.calls["search"] == 2 and t.calls["leaf"] == 5
    assert t.counts["search.trials"] == 5
    assert t.counts["search.raised.RuntimeError"] == 1


# -- module content keys ------------------------------------------------------------

@pytest.fixture
def ppalg_modules():
    sys.path.insert(0, str(SRC))
    try:
        from ppalg import catalog, pimod
        yield catalog, pimod
    finally:
        sys.path.remove(str(SRC))


def test_module_key_is_by_content(ppalg_modules):
    catalog, pimod = ppalg_modules
    datum = catalog.b2_datum()
    a = pimod.generalized_simple(datum, 1)
    b = pimod.generalized_simple(datum, 1)
    c = pimod.generalized_simple(datum, 2)
    key = lambda M: harness.module_key(M, pimod.module_to_json)
    assert a is not b and key(a) == key(b)
    assert key(a) != key(c)
    doc = pimod.module_to_json(pimod.direct_sum(a, c))
    doc["arrows"] = {"a_2_1_1": [["1", "0"]]}
    glued = pimod.module_from_json(doc, datum)
    assert key(glued) == key(pimod.module_from_json(doc, datum))
    doc["arrows"] = {"a_2_1_1": [["0", "1"]]}
    assert key(glued) != key(pimod.module_from_json(doc, datum))
    relabeled = pimod.generalized_simple(catalog.b2_relabeled_datum(), 2)
    assert key(relabeled) != key(c)     # same shape, other datum


def test_distinct_ratio():
    t = harness.Tracer()
    for k in ("a", "b", "a", "a"):
        t.calls["f"] += 1
        t.distinct("f", k)
    assert t.distinct_ratio("f") == 0.5
    assert t.distinct_ratio("never") == 0.0


# -- fail_ratio counting ---------------------------------------------------------------

def test_fail_ratio_counts_failed_ops_once():
    tally = harness.Tally()
    tally.record("ok")
    tally.record("undecided", [("DecomposeUndecided", "could not split", False)])
    tally.record("wrong twice", [("ext-duality", "3 != 4", True), ("piece-dims", "", True)])
    tally.record("ok again", [])
    assert (tally.attempted, tally.failed, tally.wrong) == (4, 2, 1)
    assert tally.fail_ratio == 0.5
    assert not tally.correct
    assert [f[0] for f in tally.failures] == ["undecided", "wrong twice", "wrong twice"]


def test_dont_know_failures_keep_outputs_correct():
    tally = harness.Tally()
    tally.record("c1", [("passed", "undecided cell", False)])
    assert tally.correct and tally.failed == 1 and tally.fail_ratio == 1.0
    assert harness.Tally().fail_ratio == 0.0


def test_criterion_failure_kinds(ppalg_modules):
    import workloads
    passed = {"passed": True, "details": {}}
    undecided = {"passed": False, "details": {"mismatches": [
        {"cell": ["1/1", "1/21/2"], "error": "could not split a module with non-local End"}]}}
    mismatch = {"passed": False, "details": {"mismatches": [
        {"cell": ["1/1", "2"], "want": ["1/1/2"], "got": ["2/1/1"], "error": ""}]}}
    inconclusive = {"passed": False, "details": {"inconclusive": True}}
    assert workloads.criterion_failures(passed) == []
    assert [f[2] for f in workloads.criterion_failures(undecided)] == [False]
    assert [f[2] for f in workloads.criterion_failures(mismatch)] == [True]
    assert [f[2] for f in workloads.criterion_failures(inconclusive)] == [False]


# -- host speed --------------------------------------------------------------------

def test_slices_run_inside_long_ops_and_are_left_out():
    speed = harness.HostSpeed()
    with speed.sampling():
        raw_start, net_start = harness.clock(), speed.net_clock()
        while harness.clock() - raw_start < 1.3:   # one long op
            pass
        raw, net = harness.clock() - raw_start, speed.net_clock() - net_start
    assert len(speed.samples) >= 2
    assert abs((raw - net) - speed.paused_s) < 0.005
    assert speed.normalize(2.0) == 2.0 * speed.factor

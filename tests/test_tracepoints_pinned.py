"""Every name the perfbench tracer wraps still exists in the program.

`perfbench/tracepoints.py` wraps entry points by attribute, some of which
have no caller in `src/` (`linalg.inverse`, `pimod._split_complement`).
Deleting one would break only `perfbench/run.py --trace 1`; this test makes
it fail here too.
"""

import json
from collections import Counter
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _LookupTracer:
    """A tracer whose `wrap` only looks the attribute up."""

    def __init__(self):
        self.names = []

    def wrap(self, owner, attr, name, **kw):
        assert callable(getattr(owner, attr)), name
        self.names.append(name)


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracepoints

    tracer = _LookupTracer()
    tracepoints.install(tracer)
    assert "linalg._rref" in tracer.names


class _StubTracer:
    """The counters `per_layer` reads, all empty."""

    def __init__(self):
        self.calls, self.self_s = Counter(), Counter()
        self.counts, self.total_s = Counter(), Counter()

    def distinct_ratio(self, name):
        return 0.0


def test_per_layer_names_match_benchmark(monkeypatch):
    """`per_layer` reports exactly the per-layer metrics BENCHMARK.json
    declares, less `trace_overhead_s`, which `perfbench/run.py` adds."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracepoints

    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    want = {m["name"] for m in declared} - {"trace_overhead_s"}
    assert set(tracepoints.per_layer(_StubTracer())) == want

"""Every name the perfbench tracer wraps still exists in the program.

`perfbench/tracepoints.py` wraps entry points by attribute, some of which
have no caller in `src/` (`linalg.inverse`, `pimod._split_complement`).
Deleting one would break only `perfbench/run.py --trace 1`; this test makes
it fail here too.
"""

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

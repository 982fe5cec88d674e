"""Measurement pieces shared by the workloads: the percentile rule, op
outcome counting, host-speed reference slices, module content keys and the
in-memory span tracer.  Nothing here imports ppalg, so the tests of the
harness run without it."""

from __future__ import annotations

import contextlib
import functools
import gc
import hashlib
import json
import math
import resource
import signal
import statistics
import time
import weakref
from collections import Counter
from fractions import Fraction

clock = time.perf_counter


# -- percentiles -----------------------------------------------------------------

MIN_TAIL = 10  # a reported percentile needs at least this many samples beyond it


def tail_count(n, pct):
    """Samples strictly beyond the nearest-rank `pct` percentile of n samples."""
    return n - math.ceil(pct * n / 100)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with at least pct% of the
    samples at or below it.  Refuses a percentile with fewer than MIN_TAIL
    samples beyond it, which would rest on a handful of ops."""
    n = len(values)
    if n == 0 or (pct > 50 and tail_count(n, pct) < MIN_TAIL):
        raise ValueError("p%g of %d samples has fewer than %d samples beyond it"
                         % (pct, n, MIN_TAIL))
    return sorted(values)[max(0, math.ceil(pct * n / 100) - 1)]


# -- op outcomes -------------------------------------------------------------------

class Tally:
    """Counts attempted and failed ops and remembers each failure by name.

    An op fails when it raises, when it reports an explicit "don't know", or
    when one of its output checks fails.  A failure is *wrong* when an output
    check disagrees or the program reports a violated internal certainty;
    "don't know" answers (undecided, inconclusive, undefined) fail the op but
    are not wrong answers, so they leave `correct` true.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures = []  # (op label, check or exception name, detail, wrong?)
        self.prefix = ""    # prepended to the labels of ops recorded from now on

    def record(self, label, failures=()):
        self.attempted += 1
        if failures:
            self.failed += 1
            if any(wrong for _, _, wrong in failures):
                self.wrong += 1
            self.failures.extend((self.prefix + label,) + tuple(f) for f in failures)

    @property
    def fail_ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def correct(self):
        return self.wrong == 0


# -- host speed ----------------------------------------------------------------------

# Mean duration of one reference slice on the host the benchmark was
# defined on (2-core Intel Xeon VM, Python 3.11.7), so normalized times read
# as seconds on that host at its typical speed.
REF_NOMINAL_S = 0.0125
REF_INTERVAL_S = 0.25

_REF_ROWS = [[Fraction((7 * i + 11 * j) % 9 - 4) for j in range(16)] for i in range(13)]


def reference_slice():
    """A fixed exact elimination over Fraction (the reduced row echelon form
    of a 13x16 integer matrix, twice), timed with the cyclic collector off.
    It is the same kind of work as the program's, so host states slow it as
    they slow the ops; a plain loop of Fraction products tracked them less
    well (8% run-to-run spread on identical inputs, against 3.4%)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = clock()
        for _ in range(2):
            data = [row[:] for row in _REF_ROWS]
            r = 0
            for c in range(16):
                pr = next((k for k in range(r, 13) if data[k][c]), None)
                if pr is None:
                    continue
                data[r], data[pr] = data[pr], data[r]
                piv = data[r][c]
                data[r] = [x / piv for x in data[r]]
                for k in range(13):
                    f = data[k][c]
                    if k != r and f:
                        data[k] = [a - f * b for a, b in zip(data[k], data[r])]
                r += 1
                if r == 13:
                    break
        return clock() - start
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Reference slices taken while a batch runs, to rescale its times.

    The host this runs on changes speed by up to 2x within seconds (other
    tenants), and CPU time tracks wall time, so raw times of separate runs
    cannot be compared.  Inside `sampling()` a timer signal runs one slice
    every REF_INTERVAL_S, also in the middle of a long op; `net_clock`
    leaves the slices out, so no measured time includes them.  `normalize`
    rescales a raw time by the mean slice of the same batch.  The mean, not
    the median: slice times are bimodal (fast and slow host states), and
    the median jumps between the modes while the mean follows the share of
    time spent in each, as the ops do.
    """

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0

    def net_clock(self):
        return clock() - self.paused_s

    def sample(self):
        start = clock()
        self.samples.append(reference_slice())
        self.paused_s += clock() - start

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @property
    def factor(self):
        """Nominal over measured slice time: below 1 on a slow host."""
        return REF_NOMINAL_S / statistics.fmean(self.samples)

    def normalize(self, raw_s):
        return raw_s * self.factor


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- module content keys -----------------------------------------------------------------

_keys = weakref.WeakKeyDictionary()


def module_key(M, to_json):
    """Content key of a module: datum, dims and matrices, via the module's
    JSON form (`to_json` is `pimod.module_to_json`).  Modules are immutable,
    so the key is cached per object."""
    key = _keys.get(M)
    if key is None:
        blob = json.dumps([repr(M.field), to_json(M)], sort_keys=True)
        key = hashlib.sha1(blob.encode()).hexdigest()
        _keys[M] = key
    return key


# -- tracing -------------------------------------------------------------------------

class Tracer:
    """Spans and counters recorded in memory at wrapped entry points.

    `wrap(owner, attr, name)` replaces a module or class attribute, so every
    call resolved through it (module globals included) opens a span.  A span
    is [name, start, end, parent span index, op id].  Self time is a span's
    duration minus the durations of its child spans; it is accumulated per
    name as spans close.  Entry points called hundreds of thousands of times
    pass store=False: they are timed and counted like the others but not
    kept as span records, which keeps the trace file small.  Time spent in
    counting hooks is charged as child time, so it lands in no self time.
    """

    def __init__(self, clock=clock):
        self.clock = clock
        self.spans = []
        self.stack = []            # open frames: [name, start, child_s, span index]
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        self.keys = {}             # name -> set of distinct input keys
        self.op = None
        self._undo = []

    def enter(self, name, store=True):
        parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
        start = self.clock()
        index = None
        if store:
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.op])
        self.stack.append([name, start, 0.0, index])

    def exit(self):
        name, start, child_s, index = self.stack.pop()
        end = self.clock()
        duration = end - start
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child_s
        if index is not None:
            self.spans[index][2] = end
        if self.stack:
            self.stack[-1][2] += duration

    def charge(self, start):
        """Book the time since `start` as hook overhead (child time of the
        open span, so no layer's self time includes it)."""
        spent = self.clock() - start
        self.counts["trace.hook_s"] += spent
        if self.stack:
            self.stack[-1][2] += spent

    def wrap(self, owner, attr, name, store=True, before=None, after=None, inner=None):
        """Trace calls of owner.attr.  `before(tracer, args)` and
        `after(tracer, args, result)` are counting hooks; `inner=(callee,
        counter)` adds to `counter` the calls of span `callee` made inside
        each span of this one."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                t = tracer.clock()
                before(tracer, args)
                tracer.charge(t)
            if inner is not None:
                inner_before = tracer.calls[inner[0]]
            tracer.enter(name, store)
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                tracer.counts["%s.raised.%s" % (name, type(exc).__name__)] += 1
                raise
            finally:
                tracer.exit()
                if inner is not None:
                    tracer.counts[inner[1]] += tracer.calls[inner[0]] - inner_before
            if after is not None:
                t = tracer.clock()
                after(tracer, args, result)
                tracer.charge(t)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def unwrap_all(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def distinct(self, name, key):
        self.keys.setdefault(name, set()).add(key)

    def distinct_ratio(self, name):
        calls = self.calls[name]
        return len(self.keys.get(name, ())) / calls if calls else 0.0

    def write_jsonl(self, path):
        """One JSON object per stored span, then one with all aggregates."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            fh.write(json.dumps({"calls": self.calls, "total_s": self.total_s,
                                 "self_s": self.self_s, "counts": self.counts},
                                sort_keys=True) + "\n")

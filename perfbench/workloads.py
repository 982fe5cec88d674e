"""The three workloads, their output checks and the batch runner.

Each workload turns (seed, seconds) into a fixed batch of ops.  `seconds`
only sizes the batch, through the nominal cost of one round of it, so the
parent and the change of a comparison run identical work.  The seed picks
the inputs (criteria) or their order (ext_ladder, module_ops).  An op is one
timed call into the program; its check returns one outcome per op counted
(a criteria pass yields one per criterion).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable

from ppalg import pimod, selftest, starop

import inputs
from harness import HostSpeed

UNDECIDED = (pimod.DecomposeUndecided, pimod.IsoInconclusive, starop.DivisionUndefined)
WRONG = (pimod.ConsistencyError,)


@dataclass
class Op:
    label: str
    call: Callable
    check: Callable = None  # result -> [(label, [(check, detail, wrong)])]


@dataclass
class Plan:
    inputs_doc: object      # what the program receives; its digest is printed
    build: Callable         # () -> [Op], on freshly parsed inputs

    @property
    def digest(self):
        return inputs.digest(self.inputs_doc)


def _rounds(seconds, round_s, least, most=None):
    n = max(least, round(seconds / round_s))
    return n if most is None else min(n, most)


# -- criteria ------------------------------------------------------------------------

CRITERIA_TRIALS = 8
CRITERIA_PASS_S = 6.0     # nominal seconds of one run_criteria pass


def criterion_failures(report):
    """[] for a passed criterion, else one failure; it is a "don't know"
    (not wrong) when every recorded failure carries the error of an
    undecided or inconclusive search."""
    if report["passed"]:
        return []
    details = report["details"]
    records = [r for key in ("mismatches", "failures", "collisions")
               for r in details.get(key, ())]
    undecided = details.get("inconclusive") is True or (
        bool(records) and all(r.get("error") for r in records))
    detail = json.dumps(records or details, sort_keys=True)
    return [("passed", detail[:300], not undecided)]


def plan_criteria(seed, seconds):
    passes = _rounds(seconds, CRITERIA_PASS_S, 1)
    seeds = [seed * passes + k for k in range(passes)]

    def check(seed):
        return lambda reports: [("seed %d %s %s" % (seed, r["id"], r["title"]),
                                 criterion_failures(r)) for r in reports]

    def build():
        return [Op("run_criteria(seed=%d)" % s,
                   lambda s=s: selftest.run_criteria(seed=s, trials=CRITERIA_TRIALS),
                   check(s))
                for s in seeds]

    return Plan({"workload": "criteria", "seeds": seeds, "trials": CRITERIA_TRIALS}, build)


# -- ext_ladder ------------------------------------------------------------------------

LADDER = ([("B2", r) for r in range(2, 13)] + [("C3", r) for r in range(2, 13)]
          + [("G2", r) for r in range(2, 10)])   # G2 rank >= 10 is excluded, see README
EXT_ROUND_S = 5.7         # nominal seconds of one pair per rung


def _duality(label, first):
    def check(ext_nm):
        mn = first.get("mn")
        bad = mn is not None and mn != ext_nm
        return [(label, [("ext-duality", "ext1(M,N)=%s but ext1(N,M)=%s" % (mn, ext_nm), True)]
                 if bad else [])]
    return check


def plan_ext_ladder(seed, seconds, pool_doc):
    # Stored towers 2j and 2j+1 of every rung form pair j; the seed shuffles
    # the order of the pairs.  With seed-picked pairings wall_s spread twice
    # as much between seeds as between runs of one input.
    pairs = _rounds(seconds, EXT_ROUND_S, 2, inputs.POOL_SIZE // 2)
    picks = [(name, rank, j) for name, rank in LADDER for j in range(pairs)]
    random.Random("ext_ladder:%d" % seed).shuffle(picks)

    def build():
        pool = inputs.Pool(pool_doc)
        ops = []
        for name, rank, j in picks:
            M = pool.module(name, rank, 2 * j)
            N = pool.module(name, rank, 2 * j + 1)
            label = "%s rank %d pair %d" % (name, rank, j)
            first = {}

            def mn(M=M, N=N, first=first):
                first["mn"] = pimod.ext1_dim(M, N)
                return first["mn"]

            ops.append(Op(label + " ext1(M,N)", mn))
            ops.append(Op(label + " ext1(N,M)", lambda M=M, N=N: pimod.ext1_dim(N, M),
                          _duality(label + " ext1(N,M)", first)))
        return ops

    docs = [pool_doc["towers"][name][str(rank)][k]
            for name, rank, j in picks for k in (2 * j, 2 * j + 1)]
    return Plan({"workload": "ext_ladder", "towers": docs}, build)


# -- module_ops ------------------------------------------------------------------------

MODULE_RUNGS = ([("B2", r) for r in range(6, 13)] + [("C3", r) for r in range(6, 9)]
                + [("G2", r) for r in range(6, 13)])   # C3 rank >= 9 is excluded, see README
MODULE_ROUND_S = 4.6      # nominal seconds of one tower per rung


def _check_efiltered(label):
    def check(res):
        ok = res[0] is True
        return [(label, [] if ok else [("E-filtered", "tower is not E-filtered", True)])]
    return check


def _check_pieces(label, total):
    def check(p):
        dims = [x.dim_total() for x in (p.sub, p.quot, p.ker, p.fac)]
        ok = dims[0] + dims[1] == total == dims[2] + dims[3]
        detail = "dim sub+Q = %d, dim K+fac = %d, dim M = %d" % (dims[0] + dims[1],
                                                                   dims[2] + dims[3], total)
        return [(label, [] if ok else [("piece-dims", detail, True)])]
    return check


def plan_module_ops(seed, seconds, pool_doc):
    # The first `towers` stored towers of every rung, in a seed-shuffled
    # order.  The seed does not pick the towers: their costs differ by up
    # to 100x, and seed-picked subsets moved wall_s by 30% between seeds.
    towers = _rounds(seconds, MODULE_ROUND_S, 2, inputs.POOL_SIZE)
    picks = [(name, rank, k) for name, rank in MODULE_RUNGS for k in range(towers)]
    random.Random("module_ops:%d" % seed).shuffle(picks)

    def build():
        pool = inputs.Pool(pool_doc)
        ops = []
        for name, rank, k in picks:
            M = pool.module(name, rank, k)
            label = "%s rank %d tower %d" % (name, rank, k)
            ops.append(Op(label + " is_E_filtered", lambda M=M: pimod.is_E_filtered(M),
                          _check_efiltered(label + " is_E_filtered")))
            ops.append(Op(label + " is_crystal", lambda M=M: pimod.is_crystal(M)))
            for i in M.datum.vertices:
                piece = "%s canonical_pieces(%s)" % (label, i)
                ops.append(Op(piece, lambda M=M, i=i: pimod.canonical_pieces(M, i),
                              _check_pieces(piece, M.dim_total())))
        return ops

    docs = [pool_doc["towers"][name][str(rank)][k] for name, rank, k in picks]
    return Plan({"workload": "module_ops", "towers": docs}, build)


def plan(workload, seed, seconds):
    if workload == "criteria":
        return plan_criteria(seed, seconds)
    pool_doc = inputs.load_doc()
    if workload == "ext_ladder":
        return plan_ext_ladder(seed, seconds, pool_doc)
    return plan_module_ops(seed, seconds, pool_doc)


WORKLOADS = ("criteria", "ext_ladder", "module_ops")


# -- the batch runner --------------------------------------------------------------------

@dataclass
class BatchResult:
    op_s: list              # raw seconds of each timed call, in batch order
    speed: HostSpeed

    @property
    def wall_s(self):
        """Normalized wall time of the batch: op time only, without
        reference slices or checks."""
        return self.speed.normalize(sum(self.op_s))


def run_batch(ops, tally, speed, tracer=None):
    """Run the ops in order, timing each call on `speed.net_clock` (checks
    and reference slices excluded) and recording its outcomes in `tally`.
    A tracer, if given, must read the same clock."""
    op_s = []
    speed.sample()
    with speed.sampling():
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.op = k
                tracer.enter("op")
            start = speed.net_clock()
            try:
                result = op.call()
                error = None
            except UNDECIDED + WRONG as exc:
                error = (type(exc).__name__, str(exc)[:300], isinstance(exc, WRONG))
            finally:
                op_s.append(speed.net_clock() - start)
                if tracer is not None:
                    tracer.exit()
                    tracer.op = None
            if error is not None:
                tally.record(op.label, [error])
            elif op.check is None:
                tally.record(op.label)
            else:
                for label, failures in op.check(result):
                    tally.record(label, failures)
    speed.sample()
    return BatchResult(op_s, speed)

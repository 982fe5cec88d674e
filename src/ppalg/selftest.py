"""The acceptance suite: every check the artifact promises, in one place.

`run_selftest(seed)` evaluates all ten criteria and returns a
JSON-serializable report; the CLI and the pytest acceptance module both
call into this file.  Reports contain no wall times or paths, so identical
invocations with identical seeds serialize to identical bytes (criterion
ten re-runs the first nine and compares the serialized payloads).
"""

from __future__ import annotations

import json
import random

from . import catalog, pimod, starop, symred
from .cartan import alpha_form, beta_form, validate_datum
from .linalg import QQ
from .pool import fork_map


def _seeded(seed, salt):
    return random.Random(seed * 1000003 + salt)


def random_tower(datum, total_rank, rng, field=QQ):
    """A random E-filtered module: an iterated extension of generalized
    simples with `total_rank` steps, glued by random derivation classes."""
    M = pimod.generalized_simple(datum, rng.choice(datum.vertices), field)
    for _ in range(total_rank - 1):
        E = pimod.generalized_simple(datum, rng.choice(datum.vertices), field)
        top, sub = (M, E) if rng.random() < 0.5 else (E, M)
        delta = pimod.random_combination(pimod.derivation_basis(top, sub), rng)
        M = starop.extension_module(top, sub, delta)
    return M


# -- criteria ------------------------------------------------------------------

C4_PAIRS = 60           # random pairs over A2 and over B2 each
C4_MAX_RANK = 4         # tower ranks are drawn from 1..C4_MAX_RANK
C5_COUNT = 50           # cokernels and kernels checked, each
C5_MAX_ATTEMPTS = 400   # random extensions drawn at most
C9_COUNT = 20           # random data checked for each formula


def criterion_b2_table(seed=0, trials=8):
    """All 36 product-table cells match the expected decompositions."""
    suite = catalog.b2_suite(trials=trials, seed=seed)
    entries = [(e.label, e.module) for e in suite.entries]
    extras = [(e.label, e.module) for e in suite.extras]
    cells = starop.star_table(entries, extra_pool=extras, trials=trials, seed=seed)
    mismatches = []
    for key in sorted(suite.expected):
        want = suite.expected[key]
        cell = cells[key]
        got = tuple(sorted(cell.labels))
        if cell.error or got != want:
            mismatches.append({"cell": list(key), "want": list(want),
                               "got": list(got), "error": cell.error})
    return {
        "id": "c1", "title": "b2-table",
        "passed": not mismatches,
        "details": {"cells": len(cells), "mismatches": mismatches},
    }


def criterion_a2(seed=0, trials=8):
    """Non-commutativity and non-associativity of * in the smallest case."""
    suite = catalog.a2_suite(trials=trials, seed=seed)
    pool = [(e.label, e.module) for e in suite.entries + suite.extras]
    S1, S2, p12, p21 = (M for _, M in pool)
    left = starop.star(p12, S1, trials=trials, seed=seed)    # (S1*S2)*S1
    right = starop.star(S1, p21, trials=trials, seed=seed)   # S1*(S2*S1)
    try:
        comm = pimod.iso_test(p12, p21, trials=trials, seed=seed)
        assoc = pimod.iso_test(left, right, trials=trials, seed=seed)
        inconclusive = False
    except pimod.IsoInconclusive:
        comm = assoc = True
        inconclusive = True
    left_labels = tuple(sorted(pimod.match_label(x, pool, seed=seed) or "?"
                               for x in pimod.decompose(left, seed=seed)))
    right_labels = tuple(sorted(pimod.match_label(x, pool, seed=seed) or "?"
                                for x in pimod.decompose(right, seed=seed)))
    passed = (not inconclusive and comm is False and assoc is False
              and left_labels == suite.expected["(s1*s2)*s1"]
              and right_labels == suite.expected["s1*(s2*s1)"])
    return {
        "id": "c2", "title": "a2-noncommutative-nonassociative",
        "passed": passed,
        "details": {"s1*s2 iso s2*s1": comm, "bracketings iso": assoc,
                    "left": list(left_labels), "right": list(right_labels),
                    "inconclusive": inconclusive},
    }


def criterion_leclerc(seed=0, trials=8):
    """The rank-five family: all its published numerical invariants."""
    suite = catalog.leclerc_suite()
    datum = suite.datum
    mods = [e.module for e in suite.entries]
    d = pimod.rank_vector(mods[0])
    checks = {}
    checks["rank_vector"] = list(d) == [1, 2, 2, 2, 1]
    checks["beta_dd"] = beta_form(datum, d, d) == 12
    checks["alpha_dd"] = alpha_form(datum, d, d) == 14
    checks["end_dims"] = all(pimod.hom_dim(M, M) == 3 for M in mods)
    cross_hom = all(pimod.hom_dim(A, B) == 2
                    for a, A in enumerate(mods) for b, B in enumerate(mods) if a != b)
    checks["cross_hom"] = cross_hom
    checks["cross_ext"] = all(pimod.ext1_dim(A, B) == 0
                              for a, A in enumerate(mods) for b, B in enumerate(mods) if a != b)
    checks["self_ext"] = all(pimod.ext1_dim(M, M) == 2 for M in mods)
    rigidity = [pimod.is_rigid(M) for M in mods]
    checks["not_rigid_codim_1"] = all(r == (False, 1) for r in rigidity)
    res = starop.generic_extension(mods[0], mods[1], trials=trials, seed=seed)
    details = {}
    try:
        split = pimod.iso_test(res.module, pimod.direct_sum(mods[0], mods[1]),
                               trials=max(trials, 8), seed=seed)
    except pimod.IsoInconclusive:
        split = False
        details["inconclusive"] = True
    checks["distinct_star_splits"] = bool(split)
    checks["heuristic_flagged"] = any("heuristic" in f for f in res.flags)
    return {
        "id": "c3", "title": "leclerc-family-numbers",
        "passed": all(checks.values()),
        "details": {**checks, **details},
    }


def criterion_ext_theorems(seed=0, trials=8):
    """Ext-formula and Ext-duality on seeded random locally free pairs (draws nothing)."""
    failures = []
    total = 0
    for salt, datum in ((1, catalog.a2_datum()), (2, catalog.b2_datum())):
        rng = _seeded(seed, salt)
        for k in range(C4_PAIRS):
            M = random_tower(datum, rng.randint(1, C4_MAX_RANK), rng)
            N = random_tower(datum, rng.randint(1, C4_MAX_RANK), rng)
            total += 1
            try:
                pimod.verify_ext_theorems(M, N)
            except pimod.ExtTheoremError as exc:
                failures.append({"pair": k, "report": exc.report})
    return {
        "id": "c4", "title": "ext-formula-and-duality",
        "passed": total >= 100 and not failures,
        "details": {"pairs": total, "failures": failures},
    }


def criterion_efiltered_closure(seed=0, trials=8):
    """Cokernels of injections / kernels of surjections between crystal
    modules stay E-filtered, over the pass's suite (the one c1 builds); a
    kernel is checked as the cokernel of the dual injection top^v -> mid^v."""
    suite = catalog.b2_suite(trials=trials, seed=seed)
    pool = [e.module for e in suite.entries]
    rng = _seeded(seed, 5)
    done = {"cokernel": 0, "kernel": 0}
    failures = []
    attempts = 0
    while min(done.values()) < C5_COUNT and attempts < C5_MAX_ATTEMPTS:
        attempts += 1
        sub = rng.choice(pool)
        top = rng.choice(pool)
        delta = pimod.random_combination(pimod.derivation_basis(top, sub), rng)
        mid = starop.extension_module(top, sub, delta)
        if not pimod.is_crystal(mid):
            continue
        for kind, a, b in (("cokernel", sub, mid), ("kernel", pimod.dual(top), pimod.dual(mid))):
            if done[kind] >= C5_COUNT:
                continue
            hb = pimod.hom_basis(a, b)
            for _ in range(4):
                f = pimod.random_combination(hb, rng)
                if pimod.hom_is_injective(f, a):
                    if not pimod.is_E_filtered(pimod.quotient(b, f))[0]:
                        failures.append({"kind": kind, "attempt": attempts})
                    done[kind] += 1
                    break
    return {
        "id": "c5", "title": "efiltered-closure",
        "passed": min(done.values()) >= C5_COUNT and not failures,
        "details": {"injective_checked": done["cokernel"], "surjective_checked": done["kernel"],
                    "failures": failures},
    }


def criterion_cancellation(seed=0, trials=8):
    """Left/right star maps with a fixed rigid factor are injective on the
    six catalog modules."""
    suite = catalog.b2_suite(trials=trials, seed=seed)
    entries = [(e.label, e.module) for e in suite.entries]
    try:
        report = starop.check_cancellation(entries, trials=trials, seed=seed)
    except pimod.IsoInconclusive as exc:
        report = {"comparisons": 0, "collisions": [{"error": str(exc)}], "ok": False}
    return {
        "id": "c6", "title": "cancellation",
        "passed": report["ok"] and report["comparisons"] >= 60,
        "details": report,
    }


def criterion_divisions(seed=0, trials=8):
    """(M1 * M2) / M2 = M1 and M1 \\ (M1 * M2) = M2 on all catalog pairs."""
    suite = catalog.b2_suite(trials=trials, seed=seed)
    failures = []
    pairs = 0
    for l1, M1 in [(e.label, e.module) for e in suite.entries]:
        for l2, M2 in [(e.label, e.module) for e in suite.entries]:
            pairs += 1
            try:
                prod = starop.star(M1, M2, trials=trials, seed=seed)
                coker = starop.generic_cokernel(prod, M2, trials=trials, seed=seed)
                ker = starop.generic_kernel(M1, prod, trials=trials, seed=seed)
                if not pimod.iso_test(coker, M1, trials=max(trials, 8), seed=seed):
                    failures.append({"pair": [l1, l2], "side": "cokernel"})
                if not pimod.iso_test(ker, M2, trials=max(trials, 8), seed=seed):
                    failures.append({"pair": [l1, l2], "side": "kernel"})
            except (starop.DivisionUndefined, pimod.IsoInconclusive) as exc:
                failures.append({"pair": [l1, l2], "error": str(exc)})
    return {
        "id": "c7", "title": "division-identities",
        "passed": pairs == 36 and not failures,
        "details": {"pairs": pairs, "failures": failures},
    }


def criterion_symmetrizer_change(seed=0, trials=8):
    """Reduction intertwines the products of lifts; reduce o tilde = id;
    lifts of crystal modules are crystal."""
    failures = []
    runs = 0
    for salt, datum in ((8, catalog.a2_datum()), (9, catalog.a_type_datum(3))):
        simples = {i: pimod.generalized_simple(datum, i) for i in datum.vertices}
        nontrivial = starop.star(simples[1], simples[2], trials=trials, seed=seed)
        for n in (2, 3):
            for i in datum.vertices:
                for j in datum.vertices:
                    runs += 1
                    try:
                        rep = symred.verify_symmetrizer_compat(
                            simples[i], simples[j], n, trials=trials, seed=seed)
                        if not rep["agree"]:
                            failures.append({"n": n, "pair": [i, j], "why": "products differ"})
                    except (symred.SymmetrizerError, pimod.IsoInconclusive) as exc:
                        failures.append({"n": n, "pair": [i, j], "error": str(exc)})
            for name, M in [("simple", simples[1]), ("extension", nontrivial)]:
                lift = symred.tilde_lift(M, n)
                if not pimod.is_crystal(lift):
                    failures.append({"n": n, "module": name, "why": "lift not crystal"})
                back = symred.reduce_module(lift)
                try:
                    if not pimod.iso_test(back, M, trials=max(trials, 8), seed=seed):
                        failures.append({"n": n, "module": name, "why": "reduce(tilde) != id"})
                except pimod.IsoInconclusive as exc:
                    failures.append({"n": n, "module": name, "error": str(exc)})
    return {
        "id": "c8", "title": "symmetrizer-change",
        "passed": runs >= 26 and not failures,
        "details": {"ordered_pairs": runs, "failures": failures},
    }


def _free_module(datum, d):
    """The locally free module of rank vector d with all arrows zero: a
    direct sum of generalized simples."""
    M = pimod.zero_module(datum)
    for k, i in enumerate(datum.vertices):
        for _ in range(d[k]):
            M = pimod.direct_sum(M, pimod.generalized_simple(datum, i))
    return M


_DATA_POOL = (
    ([[2, -1], [-1, 2]], [1, 1]),
    ([[2, -1], [-2, 2]], [2, 1]),
    ([[2, -2], [-1, 2]], [1, 2]),
    ([[2, -2], [-2, 2]], [1, 1]),
    ([[2, -3], [-1, 2]], [1, 3]),
    ([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], [1, 1, 1]),
    ([[2, -1, 0], [-2, 2, -1], [0, -2, 2]], [4, 2, 1]),
)


def criterion_dim_formulas(seed=0, trials=8):
    """alpha(d,e) equals the solved Hom_T dimension; beta(d,d) does not
    depend on the orientation (draws nothing)."""
    rng = _seeded(seed, 11)
    homt_failures = []
    for k in range(C9_COUNT):
        C, D = _DATA_POOL[rng.randrange(len(_DATA_POOL))]
        datum = validate_datum(C, D, _random_orientation(C, rng))
        d = tuple(rng.randint(0, 3) for _ in range(datum.n()))
        e = tuple(rng.randint(0, 3) for _ in range(datum.n()))
        want = pimod.hom_t_dim(_free_module(datum, d), _free_module(datum, e))
        got = alpha_form(datum, d, e)
        if want != got:
            homt_failures.append({"k": k, "solved": want, "alpha": got})
    beta_failures = []
    for k in range(C9_COUNT):
        C, D = _DATA_POOL[rng.randrange(len(_DATA_POOL))]
        o1 = _random_orientation(C, rng)
        o2 = _random_orientation(C, rng)
        d1 = validate_datum(C, D, o1)
        d2 = validate_datum(C, D, o2)
        d = tuple(rng.randint(0, 3) for _ in range(d1.n()))
        if beta_form(d1, d, d) != beta_form(d2, d, d):
            beta_failures.append({"k": k, "o1": o1, "o2": o2})
    return {
        "id": "c9", "title": "dimension-formulas",
        "passed": not homt_failures and not beta_failures,
        "details": {"homt_checked": C9_COUNT, "beta_checked": C9_COUNT,
                    "homt_failures": homt_failures, "beta_failures": beta_failures},
    }


def _random_orientation(C, rng):
    # all data in the pool have acyclic underlying graphs (paths), so any
    # edge orientation is valid
    out = []
    n = len(C)
    for a in range(n):
        for b in range(a + 1, n):
            if C[a][b] < 0:
                out.append((a + 1, b + 1) if rng.random() < 0.5 else (b + 1, a + 1))
    return out


_CRITERIA = (
    criterion_b2_table,
    criterion_a2,
    criterion_leclerc,
    criterion_ext_theorems,
    criterion_efiltered_closure,
    criterion_cancellation,
    criterion_divisions,
    criterion_symmetrizer_change,
    criterion_dim_formulas,
)


def run_criteria(seed=0, trials=8):
    """Criteria one through nine, each one call `criterion(seed=seed, trials=trials)`.

    Each pass is one run of `pimod.memo_run`: it starts from an empty memo,
    so the two passes of `run_selftest` are independent computations.  The
    caller builds the pass's `catalog.b2_suite` in that memo, for c1, c5, c6
    and c7 to share, and then maps the criteria by `pool.fork_map`, whose
    workers each inherit a copy of the memo.  The reports come back in
    criterion order, the same with one CPU or many."""
    with pimod.memo_run():
        catalog.b2_suite(trials=trials, seed=seed)
        return fork_map(lambda k: _CRITERIA[k](seed=seed, trials=trials), len(_CRITERIA))


def run_selftest(seed=0, trials=8):
    """The full acceptance report, including the determinism criterion.

    Criterion ten recomputes the first nine from the same seed and compares
    the canonical JSON serializations byte for byte.
    """
    first = run_criteria(seed=seed, trials=trials)
    second = run_criteria(seed=seed, trials=trials)
    blob1 = json.dumps(first, sort_keys=True)
    blob2 = json.dumps(second, sort_keys=True)
    first.append({
        "id": "c10", "title": "determinism",
        "passed": blob1 == blob2,
        "details": {"identical": blob1 == blob2},
    })
    return {
        "seed": seed,
        "trials": trials,
        "criteria": first,
        "all_passed": all(c["passed"] for c in first),
    }

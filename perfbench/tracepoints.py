"""Where the traced run opens spans and what it counts there.

Every entry point is wrapped by `setattr` on its module (or on its class,
for methods), so calls resolved through module globals -- recursion and
calls inside `linalg` included -- are caught.  The program itself is not
changed; the wrappers are removed when the traced batch ends.  Workloads
call the program through module attributes (`pimod.ext1_dim`), never through
the re-exports in `ppalg/__init__.py`, which would bypass the wrappers.
"""

from __future__ import annotations

from ppalg import cartan, catalog, linalg, pimod, starop

from harness import module_key


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


def _rref_in(tracer, args):
    data, rows, cols = args[:3]
    tracer.counts["linalg._rref.cells"] += rows * cols
    tracer.counts["linalg._rref.nnz_in"] += sum(1 for row in data[:rows] for x in row if x)


def _rref_out(tracer, args, pivots):
    data, rows = args[:2]
    top = max((_bits(x) for row in data[:rows] for x in row if x), default=0)
    if top > tracer.counts["linalg._rref.bits_out_max"]:
        tracer.counts["linalg._rref.bits_out_max"] = top


def _key(M):
    return module_key(M, pimod.module_to_json)


def _pair_key(name):
    def hook(tracer, args):
        tracer.distinct(name, (_key(args[0]), _key(args[1])))
    return hook


def _eigen_route(tracer, args, blocks):
    if blocks is not None:
        tracer.counts["pimod.decompose.route_eigen"] += 1


def install(tracer):
    """Wrap every traced entry point; `tracer.unwrap_all()` undoes it."""
    w = tracer.wrap
    # linalg: called up to hundreds of thousands of times per batch, so
    # timed and counted but not stored as span records
    w(linalg, "_rref", "linalg._rref", store=False, before=_rref_in, after=_rref_out)
    for fn in ("nullspace", "solve_matrix", "inverse", "column_space",
               "charpoly", "coprime_factors"):
        w(linalg, fn, "linalg." + fn, store=False)
    w(linalg.Mat, "__mul__", "linalg.Mat.mul", store=False)
    w(cartan.CartanDatum, "arrow_keys", "cartan.arrow_keys", store=False)
    # pimod: system assembly
    for fn in ("hom_basis", "derivation_basis", "ext1_dim"):
        w(pimod, fn, "pimod." + fn, before=_pair_key("pimod." + fn))
    # pimod: module operations
    for fn in ("quotient", "submodule", "canonical_pieces", "is_crystal",
               "_efiltered_search"):
        w(pimod, fn, "pimod." + fn)
    # randomized searches
    w(starop, "extension_module", "starop.extension_module")
    w(starop, "generic_extension", "starop.generic_extension",
      inner=("starop.extension_module", "starop.generic_extension.trials"))
    w(pimod, "random_combination", "pimod.random_combination", store=False)
    w(pimod, "iso_test", "pimod.iso_test",
      inner=("pimod.random_combination", "pimod.iso_test.trials"))
    w(pimod, "decompose", "pimod.decompose")
    w(pimod, "_split_spaces", "pimod._split_spaces", after=_eigen_route)
    w(pimod, "_split_complement", "pimod._split_complement")
    # catalog bootstrap
    w(catalog, "b2_suite", "catalog.b2_suite")
    w(catalog, "leclerc_suite", "catalog.leclerc_suite")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer):
    """The per-layer metrics of one traced batch, by BENCHMARK.json name."""
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    out = {}
    for name in ("linalg._rref", "linalg.nullspace", "linalg.solve_matrix", "linalg.inverse",
                 "linalg.column_space", "linalg.Mat.mul", "cartan.arrow_keys",
                 "pimod.hom_basis", "pimod.derivation_basis", "pimod.ext1_dim",
                 "pimod.quotient", "pimod.submodule", "pimod.canonical_pieces",
                 "pimod.is_crystal", "pimod._efiltered_search",
                 "starop.generic_extension", "pimod.iso_test", "pimod.decompose",
                 "catalog.b2_suite", "catalog.leclerc_suite"):
        out[name + ".calls"] = calls[name]
    for name in ("linalg._rref", "linalg.Mat.mul", "linalg.charpoly", "linalg.coprime_factors",
                 "pimod.hom_basis", "pimod.derivation_basis", "pimod.quotient",
                 "pimod.submodule"):
        out[name + ".self_s"] = self_s[name]
    for name in ("linalg._rref.cells", "linalg._rref.nnz_in", "linalg._rref.bits_out_max",
                 "pimod.decompose.route_eigen"):
        out[name] = counts[name]
    for name in ("pimod.hom_basis", "pimod.derivation_basis", "pimod.ext1_dim"):
        out[name + ".distinct_ratio"] = tracer.distinct_ratio(name)
    out["starop.generic_extension.trials_per_call"] = _ratio(
        counts["starop.generic_extension.trials"], calls["starop.generic_extension"])
    out["pimod.iso_test.trials_per_call"] = _ratio(
        counts["pimod.iso_test.trials"], calls["pimod.iso_test"])
    out["pimod.iso_test.inconclusive"] = counts["pimod.iso_test.raised.IsoInconclusive"]
    out["pimod.decompose.undecided"] = counts["pimod.decompose.raised.DecomposeUndecided"]
    out["pimod.decompose.route_retract"] = calls["pimod._split_complement"]
    out["catalog.b2_suite.total_s"] = tracer.total_s["catalog.b2_suite"]
    return out


def unit_of(name):
    """The unit of a per-layer metric, from the form of its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("distinct_ratio"):
        return "ratio"
    if name.endswith("trials_per_call"):
        return "1/call"
    if name.endswith("bits_out_max"):
        return "bits"
    return "count"

"""Command-line front end.

Every command reads/writes the JSON formats defined by the library
(algebra configs, module files, matrices as "p/q" strings) and prints a
JSON (default) or Markdown report.  Randomized commands echo their seed
and trial count so results can be reproduced; identical invocations with
identical seeds produce byte-identical output.

Exit codes: 0 success, 1 a failed verification, 2 a usage error.  A
command returns its report, or raises `_Failed` with the report of a
failed verification; the wrapper that `_report_options` puts around every
command is the one writer of a report, to stdout or `--out`, and the one
place that exits 1.  A command catches only what its own report or
message depends on.
"""

from __future__ import annotations

import functools
import json
import os
import sys

import click

from . import catalog, linalg, pimod, starop, symred
from .cartan import DatumError, arrow_name, default_orientation, dim_formulas, \
    euler_forms, minimal_symmetrizer, validate_datum
from .linalg import GF, QQ
from .pimod import DecomposeUndecided, IsoInconclusive
from .selftest import run_selftest
from .starop import DivisionUndefined, NoTrials


def _parse_field(ctx, param, flag):
    """The field named by a --field value; a bad value is a usage error."""
    if flag in ("q", "Q"):
        return QQ
    p = linalg.read_int(flag[3:]) if flag.startswith("fp:") else None
    if p is None:
        raise click.BadParameter("must be 'q' or 'fp:<prime>'")
    try:
        return GF(p)
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _load_json(path):
    """The JSON document in the UTF-8 file at `path`.  A file that does not
    decode, an integer longer than int() reads and nesting deeper than the
    parser's recursion limit are usage errors, as malformed JSON is."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise click.UsageError("cannot read %s: %s" % (path, exc))


def _datum_from_doc(doc, path):
    """The Cartan datum of an algebra config read from `path`."""
    if not isinstance(doc, dict):
        raise click.UsageError("%s: an algebra config must be a JSON object" % path)
    try:
        vertices, cartan = doc.get("vertices"), doc.get("cartan")
        sym = doc.get("symmetrizer")
        if sym is None or sym == "minimal":
            sym = minimal_symmetrizer(cartan, vertices)
        orient = doc.get("orientation")
        if orient is None:
            orient = default_orientation(cartan, vertices)
        return validate_datum(cartan, sym, orient, vertices)
    except DatumError as exc:
        raise click.UsageError("%s: invalid algebra (%s): %s" % (path, exc.code, exc))


def _load_algebra(path):
    return _datum_from_doc(_load_json(path), path)


def _parse_module(path, field):
    """The module file at `path`, parsed but not checked against the relations."""
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise click.UsageError("%s: a module file must be a JSON object" % path)
    if "algebra" not in doc and isinstance(doc.get("module"), dict):
        doc = doc["module"]  # accept reports of module-producing commands as-is
    alg = doc.get("algebra")
    if isinstance(alg, str):
        alg_path = alg if os.path.isabs(alg) else os.path.join(os.path.dirname(path) or ".", alg)
        datum = _load_algebra(alg_path)
    elif isinstance(alg, dict):
        datum = _datum_from_doc(alg, path)
    else:
        raise click.UsageError("%s: module file needs an 'algebra' entry" % path)
    try:
        return pimod.module_from_json(doc, datum, field)
    except ValueError as exc:
        raise click.UsageError("%s: %s" % (path, exc))


def _load_module(path, field):
    """The module file at `path`; a file violating the relations is refused."""
    M = _parse_module(path, field)
    bad = pimod.check_relations(M)
    if bad:
        raise click.UsageError("%s: violates the defining relations: %s" % (path, bad))
    return M


def _load_pair(path_a, path_b, field):
    """Two module files, which must be over the same algebra."""
    A = _load_module(path_a, field)
    B = _load_module(path_b, field)
    if A.datum != B.datum:
        raise click.UsageError("%s and %s are modules over different algebras"
                               % (path_a, path_b))
    return A, B


def _emit(payload, fmt, out, md):
    if fmt == "md":
        text = md(payload)
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        try:
            with open(out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError("cannot write %s: %s" % (out, exc))
    else:
        click.echo(text, nl=False)


def _md_kv(payload, prefix=""):
    lines = []
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            lines.append("%s- **%s**:" % (prefix, key))
            lines.append(_md_kv(val, prefix + "  "))
        else:
            lines.append("%s- **%s**: %s" % (prefix, key, val))
    return "\n".join(line for line in lines if line) + ("\n" if not prefix else "")


def _parse_rank_vector(text, datum):
    parts = [linalg.read_int(x) for x in text.replace(",", " ").split()]
    if None in parts:
        raise click.UsageError("rank vectors are comma-separated integers")
    if len(parts) != datum.n():
        raise click.UsageError("rank vector needs %d entries" % datum.n())
    if any(x < 0 for x in parts):
        raise click.UsageError("rank vectors have no negative entries")
    return tuple(parts)


# Library errors by exit code.  _FAILED is tested first: NotCertified is a
# SymmetrizerError.  A bare ValueError is neither, so an internal fault
# still shows its traceback.
_FAILED = (catalog.CatalogError, DivisionUndefined, starop.RankMismatch, symred.NotCertified)
_USAGE = (pimod.NotLocallyFree, pimod.RationalFieldOnly, NoTrials, symred.SymmetrizerError)


class _Failed(Exception):
    """A failed verification, carrying the command's report."""

    def __init__(self, report):
        super().__init__(report)
        self.report = report


def _report_options(command, md=_md_kv):
    """--format and --out, which every command takes, and the one writer of
    its report, `md` rendering it under --format md.  The command's report
    exits 0, a `_Failed` report 1, a `_FAILED` library error 1 with the
    error and seed as the report, and a `_USAGE` one 2 with the command's
    usage line and no report."""
    @functools.wraps(command)
    def run(fmt, out, **kwargs):
        try:
            _emit(command(**kwargs), fmt, out, md)
            return
        except _Failed as exc:
            _emit(exc.report, fmt, out, md)
        except _FAILED as exc:
            _emit({"error": str(exc), "seed": kwargs.get("seed")}, fmt, out, _md_kv)
        except _USAGE as exc:
            raise click.UsageError(str(exc))
        sys.exit(1)

    run = click.option("--format", "fmt", type=click.Choice(["json", "md"]),
                       default="json", show_default=True)(run)
    return click.option("--out", type=click.Path(dir_okay=False), default=None,
                        help="Write the report to a file instead of stdout.")(run)


def _common(fn):
    """The options of commands that read module files: the report options and --field."""
    fn = click.option("--field", default="q", show_default=True, callback=_parse_field,
                      help="Ground field: q or fp:<prime>.")(fn)
    return _report_options(fn)


_seed_option = click.option("--seed", type=int, default=0, show_default=True,
                            help="Seed for all randomized steps.")


def _randomized(fn):
    """--seed and --trials, for the commands whose searches draw samples."""
    fn = click.option("--trials", type=click.IntRange(min=0), default=8, show_default=True,
                      help="Sample count for randomized searches.")(fn)
    return _seed_option(fn)


@click.group()
@click.pass_context
def main(ctx):
    """Exact computations for preprojective algebras of symmetrizable
    Cartan matrices."""
    ctx.with_resource(pimod.memo_run())  # one memo per command invocation


@main.command()
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@_report_options
def validate(algebra):
    """Validate an algebra config file."""
    datum = _load_algebra(algebra)
    return {
        "valid": True,
        "vertices": list(datum.vertices),
        "symmetrizer": list(datum.sym),
        "orientation": [list(p) for p in datum.orient],
        "arrows": [arrow_name(k) for k in datum.arrow_keys()],
        "relations": {r.label: r.pretty() for r in datum.relations()},
    }


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def check(module, field):
    """Check the defining relations on a module file."""
    M = _parse_module(module, field)
    bad = pimod.check_relations(M)
    report = {"ok": not bad, "violated": bad, "dims": {str(i): M.dims[i] for i in M.datum.vertices}}
    if bad:
        raise _Failed(report)
    return report


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def rank(module, field):
    """Local freeness and the rank vector of a module."""
    M = _load_module(module, field)
    ok, ranks = pimod.is_locally_free(M)
    return {"locally_free": ok,
            "rank_vector": list(ranks) if ok else None,
            "dims": {str(i): M.dims[i] for i in M.datum.vertices}}


@main.command()
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
def hom(mod_a, mod_b, field):
    """dim Hom(A, B)."""
    A, B = _load_pair(mod_a, mod_b, field)
    return {"dim_hom": pimod.hom_dim(A, B), "field": field.name}


@main.command()
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
def ext(mod_a, mod_b, field):
    """dim Ext^1(A, B) for locally free modules."""
    A, B = _load_pair(mod_a, mod_b, field)
    return {"dim_ext1": pimod.ext1_dim(A, B), "field": field.name}


@main.command()
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@click.argument("dvec")
@click.argument("evec")
@_report_options
def forms(algebra, dvec, evec):
    """Euler forms and dimension formulas for two rank vectors."""
    datum = _load_algebra(algebra)
    d = _parse_rank_vector(dvec, datum)
    e = _parse_rank_vector(evec, datum)
    a, b, s = euler_forms(datum, d, e)
    return {"alpha": a, "beta": b, "symmetrized": s, **dim_formulas(datum, d, e)}


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@click.argument("vertex")
@_common
def pieces(module, vertex, field):
    """The canonical pieces sub_i, fac_i, K_i, Q_i at a vertex."""
    M = _load_module(module, field)
    try:
        i = pimod.parse_vertex(M.datum, vertex)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    p = pimod.canonical_pieces(M, i)
    return {
        "vertex": str(i),
        "sub": pimod.module_to_json(p.sub),
        "Q": pimod.module_to_json(p.quot),
        "K": pimod.module_to_json(p.ker),
        "fac": pimod.module_to_json(p.fac),
        "dim_sub": p.sub.dim_total(), "dim_Q": p.quot.dim_total(),
        "dim_K": p.ker.dim_total(), "dim_fac": p.fac.dim_total(),
    }


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def efiltered(module, field):
    """Decide whether a module admits a filtration by generalized simples."""
    M = _load_module(module, field)
    ok, witness = pimod.is_E_filtered(M)
    return {"e_filtered": ok,
            "witness": [str(i) for i in witness] if witness is not None else None}


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def crystal(module, field):
    """Decide the recursive crystal-module property."""
    M = _load_module(module, field)
    return {"crystal": pimod.is_crystal(M)}


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def rigid(module, field):
    """Rigidity and orbit codimension (self-Ext dimension halved)."""
    M = _load_module(module, field)
    flag, codim = pimod.is_rigid(M)
    return {"rigid": flag, "orbit_codim": codim}


@main.command()
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
@_randomized
def iso(mod_a, mod_b, seed, trials, field):
    """Randomized isomorphism test (certified answers; may be inconclusive)."""
    A, B = _load_pair(mod_a, mod_b, field)
    try:
        verdict = "isomorphic" if pimod.iso_test(A, B, trials=trials, seed=seed) \
            else "not-isomorphic"
    except IsoInconclusive:
        raise _Failed({"verdict": "inconclusive", "seed": seed, "trials": trials})
    return {"verdict": verdict, "seed": seed, "trials": trials}


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
@_seed_option
def decompose(module, seed, field):
    """Split a module into indecomposable summands."""
    M = _load_module(module, field)
    try:
        parts = pimod.decompose(M, seed=seed)
    except DecomposeUndecided as exc:
        raise _Failed({"undecided": str(exc), "seed": seed})
    return {
        "seed": seed,
        "summands": [pimod.module_to_json(x) for x in parts],
        "count": len(parts),
    }


def _star_payload(res):
    return {
        "seed": res.seed, "trials": res.trials,
        "certified": res.certified, "rigid_middle": res.rigid,
        "ext_self": res.ext_self, "flags": list(res.flags),
        "module": pimod.module_to_json(res.module),
        "certificate": {
            "delta": {arrow_name(k): linalg.mat_to_json(m)
                      for k, m in sorted(res.delta.items(), key=lambda kv: str(kv[0]))},
            "inject": {str(i): linalg.mat_to_json(m) for i, m in res.inject.items()},
            "project": {str(i): linalg.mat_to_json(m) for i, m in res.project.items()},
        },
    }


@main.command()
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
@_randomized
def star(mod_a, mod_b, seed, trials, field):
    """The generic extension A * B (A on top, B as sub)."""
    A, B = _load_pair(mod_a, mod_b, field)
    _require_crystal(("A", "B"), (A, B))
    return _star_payload(starop.generic_extension(A, B, trials=trials, seed=seed))


@main.command(name="divide-right")
@click.argument("mod_m", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
@_randomized
def divide_right(mod_m, mod_b, seed, trials, field):
    """The generic cokernel M / B (B embedded generically into M)."""
    return _divide(starop.generic_cokernel, ("M", "B"), mod_m, mod_b, seed, trials, field)


@main.command(name="divide-left")
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_m", type=click.Path(exists=True, dir_okay=False))
@_common
@_randomized
def divide_left(mod_a, mod_m, seed, trials, field):
    """The generic kernel A \\ M (M mapped generically onto A)."""
    return _divide(starop.generic_kernel, ("A", "M"), mod_a, mod_m, seed, trials, field)


def _require_crystal(names, modules):
    """Refuse (exit 2) an input that is not locally free, or that is locally
    free but not crystal, naming it by its entry in `names`."""
    for name, M in zip(names, modules):
        if not pimod.is_locally_free(M)[0]:
            raise click.UsageError("%s: module is not locally free" % name)
        if not pimod.is_crystal(M):
            raise click.UsageError("%s is not a crystal module" % name)


def _divide(division, names, path_a, path_b, seed, trials, field):
    """The report of `division` on the two module files, `names` in the
    messages."""
    A, B = _load_pair(path_a, path_b, field)
    _require_crystal(names, (A, B))
    D = division(A, B, trials=trials, seed=seed)
    return {"seed": seed, "trials": trials, "module": pimod.module_to_json(D)}


def _md_table(payload):
    labels = payload["labels"]
    head = "| M \\ N | " + " | ".join(labels) + " |"
    sep = "|" + "---|" * (len(labels) + 1)
    lines = [head, sep]
    for rl in labels:
        row = ["| %s" % rl]
        for cl in labels:
            cell = payload["cells"]["%s|%s" % (rl, cl)]
            if cell.get("error"):
                row.append("error")
            elif cell["split"]:
                row.append("(+)")
            else:
                row.append(" (+) ".join(cell["labels"]))
        lines.append(" | ".join(row) + " |")
    lines.append("")
    lines.append("seed %d, trials %d; (+) marks a split cell" % (payload["seed"], payload["trials"]))
    return "\n".join(lines) + "\n"


@main.command()
@click.argument("suite", type=click.Choice(["b2", "a2"]))
@functools.partial(_report_options, md=_md_table)
@_randomized
def table(suite, seed, trials):
    """The full product table of a catalog suite."""
    built = {"a2": catalog.a2_suite, "b2": catalog.b2_suite}[suite](trials=trials, seed=seed)
    entries = [(e.label, e.module) for e in built.entries]
    extras = [(e.label, e.module) for e in built.extras]
    cells = starop.star_table(entries, extra_pool=extras, trials=trials, seed=seed)
    return {
        "suite": suite, "seed": seed, "trials": trials,
        "labels": [label for label, _ in entries],
        "cells": {"%s|%s" % key: {"labels": list(cell.labels), "split": cell.split,
                                  "certified": cell.certified, "error": cell.error}
                  for key, cell in cells.items()},
    }


@main.command(name="reduce")
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def reduce_cmd(module, field):
    """Quotient a module over (C, nD) by its loop images, landing over (C, D)."""
    M = _load_module(module, field)
    red = symred.reduce_module(M)
    return {"n": M.datum.sym[0], "module": pimod.module_to_json(red)}


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "ncopies", type=int, required=True, help="Symmetrizer multiple.")
@_common
def lift(module, ncopies, field):
    """Lift a module over minimal (C, D) to (C, nD) by the shift construction."""
    M = _load_module(module, field)
    big = symred.tilde_lift(M, ncopies)
    return {"n": ncopies, "module": pimod.module_to_json(big)}


@main.command(name="check-symmetrizer")
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "ncopies", type=int, required=True, help="Symmetrizer multiple.")
@_common
@_randomized
def check_symmetrizer(mod_a, mod_b, ncopies, seed, trials, field):
    """Compare reduce(lift(A) * lift(B)) against A * B up to isomorphism."""
    A, B = _load_pair(mod_a, mod_b, field)
    report = symred.verify_symmetrizer_compat(A, B, ncopies, trials=trials, seed=seed)
    report.update({"seed": seed, "trials": trials})
    if not report["agree"]:
        raise _Failed(report)
    return report


@main.group(name="catalog")
def catalog_group():
    """Built-in certified example modules."""


@catalog_group.command(name="list")
@_report_options
@_randomized
def catalog_list(seed, trials):
    """List all catalog entries with their certified flags."""
    entries = catalog.all_entries(trials=trials, seed=seed)
    return {"entries": [{"label": label, **entry.flags()} for label, entry in entries]}


@catalog_group.command(name="export")
@click.argument("label")
@_report_options
@_randomized
def catalog_export(label, seed, trials):
    """Export one catalog entry, named by its `catalog list` label, as a module file."""
    entries = dict(catalog.all_entries(trials=trials, seed=seed))
    if label not in entries:
        raise click.UsageError("unknown catalog label %r" % label)
    return pimod.module_to_json(entries[label].module)


def _md_selftest(report):
    lines = ["# selftest (seed %d, trials %d)" % (report["seed"], report["trials"]), ""]
    for c in report["criteria"]:
        lines.append("- %s %s: %s" % (c["id"], c["title"], "pass" if c["passed"] else "FAIL"))
    lines.append("")
    lines.append("all passed: %s" % report["all_passed"])
    return "\n".join(lines) + "\n"


@main.command()
@functools.partial(_report_options, md=_md_selftest)
@_randomized
def selftest(seed, trials):
    """Run the full acceptance suite and report one line per criterion."""
    report = run_selftest(seed=seed, trials=trials)
    if click.get_current_context().params["fmt"] != "md":
        for c in report["criteria"]:
            click.echo("%s %s: %s" % (c["id"], c["title"],
                                      "pass" if c["passed"] else "FAIL"), err=True)
    if not report["all_passed"]:
        raise _Failed(report)
    return report


if __name__ == "__main__":
    main()

"""Command-line front end.

Every command reads/writes the JSON formats defined by the library
(algebra configs, module files, matrices as "p/q" strings) and prints a
JSON (default) or Markdown report.  Randomized commands echo their seed
and trial count so results can be reproduced; identical invocations with
identical seeds produce byte-identical output.  Exit codes: 0 success,
1 assertion/verification failure, 2 usage error.  Output files are only
written after a command has fully succeeded.
"""

from __future__ import annotations

import json
import os
import sys

import click

from . import catalog, linalg, pimod, starop, symred
from .cartan import DatumError, default_orientation, dim_formulas, \
    euler_forms, minimal_symmetrizer, validate_datum
from .linalg import GF, QQ
from .pimod import DecomposeUndecided, IsoInconclusive
from .selftest import run_selftest
from .starop import DivisionUndefined


def _parse_field(ctx, param, flag):
    """The field named by a --field value; a bad value is a usage error."""
    if flag in ("q", "Q"):
        return QQ
    digits = flag[3:] if flag.startswith("fp:") else ""
    if not digits.isdigit():
        raise click.BadParameter("must be 'q' or 'fp:<prime>'")
    try:
        return GF(int(digits))
    except ValueError as exc:
        raise click.BadParameter(str(exc))


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError("cannot read %s: %s" % (path, exc))


def _datum_from_doc(doc, path):
    """The Cartan datum of an algebra config read from `path`."""
    if not isinstance(doc, dict):
        raise click.UsageError("%s: an algebra config must be a JSON object" % path)
    try:
        vertices = doc.get("vertices")
        cartan = doc["cartan"]
        sym = doc.get("symmetrizer", "minimal")
        if sym == "minimal":
            sym = minimal_symmetrizer(cartan)
        orient = doc.get("orientation")
        if orient is None:
            orient = default_orientation(cartan, vertices)
        else:
            orient = [tuple(p) for p in orient]
        return validate_datum(cartan, sym, orient, vertices)
    except DatumError as exc:
        raise click.UsageError("%s: invalid algebra (%s): %s" % (path, exc.code, exc))
    except (KeyError, TypeError, IndexError) as exc:
        raise click.UsageError("%s: malformed algebra config: %r" % (path, exc))


def _load_algebra(path):
    return _datum_from_doc(_load_json(path), path)


def _load_module(path, field):
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


def _load_pair(path_a, path_b, field):
    """Two module files, which must be over the same algebra."""
    A = _load_module(path_a, field)
    B = _load_module(path_b, field)
    if A.datum != B.datum:
        raise click.UsageError("%s and %s are modules over different algebras"
                               % (path_a, path_b))
    return A, B


def _fail(message, seed, fmt, out):
    """Report a failed verification and exit 1."""
    _emit({"error": message, "seed": seed}, fmt, out)
    sys.exit(1)


def _emit(payload, fmt, out, md=None):
    if fmt == "md":
        text = md(payload) if md else _md_kv(payload)
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
    try:
        parts = [int(x) for x in text.replace(",", " ").split()]
    except ValueError:
        raise click.UsageError("rank vectors are comma-separated integers")
    if len(parts) != datum.n():
        raise click.UsageError("rank vector needs %d entries" % datum.n())
    return tuple(parts)


def _report_options(fn):
    """--format and --out, which every command takes."""
    fn = click.option("--format", "fmt", type=click.Choice(["json", "md"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--out", type=click.Path(dir_okay=False), default=None,
                      help="Write the report to a file instead of stdout.")(fn)
    return fn


def _common(fn):
    """The options of commands that read module files: the report options and --field."""
    fn = click.option("--field", default="q", show_default=True, callback=_parse_field,
                      help="Ground field: q or fp:<prime>.")(fn)
    return _report_options(fn)


_seed_option = click.option("--seed", type=int, default=0, show_default=True,
                            help="Seed for all randomized steps.")


def _randomized(fn):
    """--seed and --trials, for the commands whose searches draw samples."""
    fn = click.option("--trials", type=int, default=8, show_default=True,
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
def validate(algebra, fmt, out):
    """Validate an algebra config file."""
    datum = _load_algebra(algebra)
    payload = {
        "valid": True,
        "vertices": list(datum.vertices),
        "symmetrizer": list(datum.sym),
        "orientation": [list(p) for p in datum.orient],
        "arrows": ["a_%s_%s_%d" % (k[1], k[2], k[3]) for k in datum.arrow_keys()],
        "relations": {r.label: r.pretty() for r in datum.relations()},
    }
    _emit(payload, fmt, out)


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def check(module, field, fmt, out):
    """Check the defining relations on a module file."""
    M = _load_module(module, field)
    bad = pimod.check_relations(M)
    payload = {"ok": not bad, "violated": bad, "dims": {str(i): M.dims[i] for i in M.datum.vertices}}
    _emit(payload, fmt, out)
    if bad:
        sys.exit(1)


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def rank(module, field, fmt, out):
    """Local freeness and the rank vector of a module."""
    M = _load_module(module, field)
    ok, ranks = pimod.is_locally_free(M)
    payload = {"locally_free": ok,
               "rank_vector": list(ranks) if ok else None,
               "dims": {str(i): M.dims[i] for i in M.datum.vertices}}
    _emit(payload, fmt, out)


@main.command()
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
def hom(mod_a, mod_b, field, fmt, out):
    """dim Hom(A, B)."""
    A, B = _load_pair(mod_a, mod_b, field)
    payload = {"dim_hom": pimod.hom_dim(A, B), "field": field.name}
    _emit(payload, fmt, out)


@main.command()
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
def ext(mod_a, mod_b, field, fmt, out):
    """dim Ext^1(A, B) for locally free modules."""
    A, B = _load_pair(mod_a, mod_b, field)
    try:
        payload = {"dim_ext1": pimod.ext1_dim(A, B), "field": field.name}
    except pimod.NotLocallyFree as exc:
        raise click.UsageError(str(exc))
    _emit(payload, fmt, out)


@main.command()
@click.argument("algebra", type=click.Path(exists=True, dir_okay=False))
@click.argument("dvec")
@click.argument("evec")
@_report_options
def forms(algebra, dvec, evec, fmt, out):
    """Euler forms and dimension formulas for two rank vectors."""
    datum = _load_algebra(algebra)
    d = _parse_rank_vector(dvec, datum)
    e = _parse_rank_vector(evec, datum)
    a, b, s = euler_forms(datum, d, e)
    payload = {"alpha": a, "beta": b, "symmetrized": s}
    payload.update(dim_formulas(datum, d, e))
    _emit(payload, fmt, out)


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@click.argument("vertex")
@_common
def pieces(module, vertex, field, fmt, out):
    """The canonical pieces sub_i, fac_i, K_i, Q_i at a vertex."""
    M = _load_module(module, field)
    try:
        i = pimod.parse_vertex(M.datum, vertex)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    p = pimod.canonical_pieces(M, i)
    payload = {
        "vertex": str(i),
        "sub": pimod.module_to_json(p.sub),
        "Q": pimod.module_to_json(p.quot),
        "K": pimod.module_to_json(p.ker),
        "fac": pimod.module_to_json(p.fac),
        "dim_sub": p.sub.dim_total(), "dim_Q": p.quot.dim_total(),
        "dim_K": p.ker.dim_total(), "dim_fac": p.fac.dim_total(),
    }
    _emit(payload, fmt, out)


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def efiltered(module, field, fmt, out):
    """Decide whether a module admits a filtration by generalized simples."""
    M = _load_module(module, field)
    ok, witness = pimod.is_E_filtered(M)
    payload = {"e_filtered": ok,
               "witness": [str(i) for i in witness] if witness is not None else None}
    _emit(payload, fmt, out)


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def crystal(module, field, fmt, out):
    """Decide the recursive crystal-module property."""
    M = _load_module(module, field)
    payload = {"crystal": pimod.is_crystal(M)}
    _emit(payload, fmt, out)


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def rigid(module, field, fmt, out):
    """Rigidity and orbit codimension (self-Ext dimension halved)."""
    M = _load_module(module, field)
    try:
        flag, codim = pimod.is_rigid(M)
    except pimod.NotLocallyFree as exc:
        raise click.UsageError(str(exc))
    payload = {"rigid": flag, "orbit_codim": codim}
    _emit(payload, fmt, out)


@main.command()
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
@_randomized
def iso(mod_a, mod_b, seed, trials, field, fmt, out):
    """Randomized isomorphism test (certified answers; may be inconclusive)."""
    A, B = _load_pair(mod_a, mod_b, field)
    try:
        verdict = "isomorphic" if pimod.iso_test(A, B, trials=trials, seed=seed) \
            else "not-isomorphic"
        inconclusive = False
    except IsoInconclusive:
        verdict = "inconclusive"
        inconclusive = True
    payload = {"verdict": verdict, "seed": seed, "trials": trials}
    _emit(payload, fmt, out)
    if inconclusive:
        sys.exit(1)


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
@_seed_option
def decompose(module, seed, field, fmt, out):
    """Split a module into indecomposable summands."""
    M = _load_module(module, field)
    try:
        parts = pimod.decompose(M, seed=seed)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    except DecomposeUndecided as exc:
        _emit({"undecided": str(exc), "seed": seed}, fmt, out)
        sys.exit(1)
    payload = {
        "seed": seed,
        "summands": [pimod.module_to_json(x) for x in parts],
        "count": len(parts),
    }
    _emit(payload, fmt, out)


def _star_payload(res):
    return {
        "seed": res.seed, "trials": res.trials,
        "certified": res.certified, "rigid_middle": res.rigid,
        "ext_self": res.ext_self, "flags": list(res.flags),
        "module": pimod.module_to_json(res.module),
        "certificate": {
            "delta": {"a_%s_%s_%d" % (k[1], k[2], k[3]): linalg.mat_to_json(m)
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
def star(mod_a, mod_b, seed, trials, field, fmt, out):
    """The generic extension A * B (A on top, B as sub)."""
    A, B = _load_pair(mod_a, mod_b, field)
    for name, M in (("A", A), ("B", B)):
        if pimod.check_relations(M):
            raise click.UsageError("%s violates the defining relations" % name)
        if not pimod.is_crystal(M):
            raise click.UsageError("%s is not a crystal module" % name)
    res = starop.generic_extension(A, B, trials=trials, seed=seed)
    _emit(_star_payload(res), fmt, out)


@main.command(name="divide-right")
@click.argument("mod_m", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@_common
@_randomized
def divide_right(mod_m, mod_b, seed, trials, field, fmt, out):
    """The generic cokernel M / B (B embedded generically into M)."""
    M, B = _load_pair(mod_m, mod_b, field)
    try:
        Q = starop.generic_cokernel(M, B, trials=trials, seed=seed)
    except (DivisionUndefined, ValueError) as exc:
        _fail(str(exc), seed, fmt, out)
    _emit({"seed": seed, "trials": trials, "module": pimod.module_to_json(Q)}, fmt, out)


@main.command(name="divide-left")
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_m", type=click.Path(exists=True, dir_okay=False))
@_common
@_randomized
def divide_left(mod_a, mod_m, seed, trials, field, fmt, out):
    """The generic kernel A \\ M (M mapped generically onto A)."""
    A, M = _load_pair(mod_a, mod_m, field)
    try:
        K = starop.generic_kernel(A, M, trials=trials, seed=seed)
    except (DivisionUndefined, ValueError) as exc:
        _fail(str(exc), seed, fmt, out)
    _emit({"seed": seed, "trials": trials, "module": pimod.module_to_json(K)}, fmt, out)


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
@_report_options
@_randomized
def table(suite, seed, trials, fmt, out):
    """The full product table of a catalog suite."""
    try:
        if suite == "b2":
            s = catalog.b2_suite(trials=trials, seed=seed)
            entries = [(e.label, e.module) for e in s.entries]
            extras = [(e.label, e.module) for e in s.extras]
        else:
            s = catalog.a2_suite(trials=trials, seed=seed)
            entries = [(s.s1.label, s.s1.module), (s.s2.label, s.s2.module)]
            p12 = catalog.a2_nonsplit(s.s1.module, s.s2.module, trials=trials, seed=seed)
            p21 = catalog.a2_nonsplit(s.s2.module, s.s1.module, trials=trials, seed=seed)
            extras = [("1/2", p12), ("2/1", p21)]
    except catalog.CatalogError as exc:
        _fail(str(exc), seed, fmt, out)
    cells = starop.star_table(entries, extra_pool=extras, trials=trials, seed=seed)
    payload = {
        "suite": suite, "seed": seed, "trials": trials,
        "labels": [label for label, _ in entries],
        "cells": {"%s|%s" % key: {"labels": list(cell.labels), "split": cell.split,
                                  "certified": cell.certified, "error": cell.error}
                  for key, cell in cells.items()},
    }
    _emit(payload, fmt, out, md=_md_table)


@main.command(name="reduce")
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@_common
def reduce_cmd(module, field, fmt, out):
    """Quotient a module over (C, nD) by its loop images, landing over (C, D)."""
    M = _load_module(module, field)
    ns = set(M.datum.sym)
    if len(ns) != 1:
        raise click.UsageError("symmetrizer is not a multiple of the identity")
    n = ns.pop()
    base = validate_datum([list(r) for r in M.datum.cartan], [1] * M.datum.n(),
                          [tuple(p) for p in M.datum.orient], M.datum.vertices)
    try:
        pair = symred.sym_pair(base, n)
        red = symred.reduce_module(pair, M)
    except (symred.SymmetrizerError, pimod.NotLocallyFree) as exc:
        raise click.UsageError(str(exc))
    _emit({"n": n, "module": pimod.module_to_json(red)}, fmt, out)


@main.command()
@click.argument("module", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "ncopies", type=int, required=True, help="Symmetrizer multiple.")
@_common
def lift(module, ncopies, field, fmt, out):
    """Lift a module over minimal (C, D) to (C, nD) by the shift construction."""
    M = _load_module(module, field)
    try:
        pair = symred.sym_pair(M.datum, ncopies)
        big = symred.tilde_lift(pair, M)
    except symred.SymmetrizerError as exc:
        raise click.UsageError(str(exc))
    _emit({"n": ncopies, "module": pimod.module_to_json(big)}, fmt, out)


@main.command(name="check-symmetrizer")
@click.argument("mod_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("mod_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--n", "ncopies", type=int, required=True, help="Symmetrizer multiple.")
@_common
@_randomized
def check_symmetrizer(mod_a, mod_b, ncopies, seed, trials, field, fmt, out):
    """Compare reduce(lift(A) * lift(B)) against A * B up to isomorphism."""
    A, B = _load_pair(mod_a, mod_b, field)
    try:
        pair = symred.sym_pair(A.datum, ncopies)
        report = symred.verify_symmetrizer_compat(pair, A, B, trials=trials, seed=seed)
    except symred.SymmetrizerError as exc:
        _fail(str(exc), seed, fmt, out)
    report.update({"seed": seed, "trials": trials})
    _emit(report, fmt, out)
    if not report["agree"]:
        sys.exit(1)


@main.group(name="catalog")
def catalog_group():
    """Built-in certified example modules."""


@catalog_group.command(name="list")
@_report_options
@_randomized
def catalog_list(seed, trials, fmt, out):
    """List all catalog entries with their certified flags."""
    try:
        entries = catalog.all_entries(trials=trials, seed=seed)
    except catalog.CatalogError as exc:
        _fail(str(exc), seed, fmt, out)
    payload = {"entries": [{"label": label, **entry.flags()} for label, entry in entries]}
    _emit(payload, fmt, out)


@catalog_group.command(name="export")
@click.argument("label")
@_report_options
@_randomized
def catalog_export(label, seed, trials, fmt, out):
    """Export one catalog entry as a module file."""
    try:
        entries = catalog.all_entries(trials=trials, seed=seed)
    except catalog.CatalogError as exc:
        _fail(str(exc), seed, fmt, out)
    for name, entry in entries:
        if name == label or entry.label == label:
            _emit(pimod.module_to_json(entry.module), fmt, out)
            return
    raise click.UsageError("unknown catalog label %r" % label)


def _md_selftest(report):
    lines = ["# selftest (seed %d, trials %d)" % (report["seed"], report["trials"]), ""]
    for c in report["criteria"]:
        lines.append("- %s %s: %s" % (c["id"], c["title"], "pass" if c["passed"] else "FAIL"))
    lines.append("")
    lines.append("all passed: %s" % report["all_passed"])
    return "\n".join(lines) + "\n"


@main.command()
@_report_options
@_randomized
def selftest(seed, trials, fmt, out):
    """Run the full acceptance suite and report one line per criterion."""
    report = run_selftest(seed=seed, trials=trials)
    if fmt != "md":
        for c in report["criteria"]:
            click.echo("%s %s: %s" % (c["id"], c["title"],
                                      "pass" if c["passed"] else "FAIL"), err=True)
    _emit(report, fmt, out, md=_md_selftest)
    if not report["all_passed"]:
        sys.exit(1)


if __name__ == "__main__":
    main()

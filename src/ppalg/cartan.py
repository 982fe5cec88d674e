"""Symmetrizable Cartan data, double quivers, relations and Euler forms.

A Cartan datum is a triple (C, D, Omega): a symmetrizable generalized
Cartan matrix C, a symmetrizer D = diag(c_i), and an acyclic orientation
Omega of the underlying graph.  From it we derive the double quiver (one
loop eps_i per vertex, g_ij arrows each way per edge; `arrow_keys()` is the
tuple of its arrows, and `generators()` the loops in vertex order, then the
arrows) and the defining relations of the preprojective
algebra (`relations()`, a tuple of `Relation`s): nilpotency eps_i^{c_i} = 0,
commutativity eps_i^{f_ji} a_ij = a_ij eps_j^{f_ij}, and the mesh relation
at every vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from graphlib import CycleError, TopologicalSorter
from math import gcd, lcm


class DatumError(ValueError):
    """Invalid Cartan datum; `code` identifies which condition failed."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# generators of the double quiver, used as dict keys and in relation words:
#   ("eps", i)        the loop at vertex i
#   ("arr", i, j, g)  the arrow a_ij^(g) with source j and target i
def eps_key(i):
    return ("eps", i)


def arrow_key(i, j, g):
    return ("arr", i, j, g)


def arrow_name(key):
    """The name "a_<target>_<source>_<g>" of an arrow key: the one spelling
    of an arrow, in module files, relation labels and relation words."""
    return "a_%s_%s_%d" % key[1:]


def gen_source(gen):
    return gen[1] if gen[0] == "eps" else gen[2]


def gen_target(gen):
    return gen[1]


@dataclass(frozen=True)
class Relation:
    """A signed sum of words that must act by zero on every module."""

    label: str         # "<kind>@<vertex or arrow>": nilpotency, commutativity or mesh
    source: int
    target: int
    terms: tuple       # tuple of (coeff, word); word = tuple of generator keys

    def pretty(self):
        def wstr(word):
            return "*".join("eps%s" % g[1] if g[0] == "eps" else arrow_name(g)
                            for g in word) or "1"
        parts = []
        for coeff, word in self.terms:
            sign = "+" if coeff > 0 else "-"
            parts.append("%s %s" % (sign, wstr(word)))
        return " ".join(parts).lstrip("+ ")


class CartanDatum:
    """A validated (C, D, Omega) with its derived double quiver and relations.

    Immutable after construction; safe to share.  Vertices are the given
    ordered labels, and all matrices/tuples follow that order.
    """

    def __init__(self, vertices, cartan, sym, orient):
        self.vertices = tuple(vertices)
        self.index = {v: k for k, v in enumerate(self.vertices)}
        self.cartan = tuple(tuple(row) for row in cartan)
        self.sym = tuple(sym)
        self.orient = tuple(tuple(p) for p in orient)
        self._arrows = tuple(arrow_key(i, j, g) for (i, j) in self.double_orient()
                             for g in range(1, self.gij(i, j) + 1))
        self._generators = tuple(eps_key(i) for i in self.vertices) + self._arrows
        self._relations = None
        self._scaled = {}

    # raw accessors by vertex label
    def c(self, i, j):
        return self.cartan[self.index[i]][self.index[j]]

    def ci(self, i):
        return self.sym[self.index[i]]

    def n(self):
        return len(self.vertices)

    def double_orient(self):
        return self.orient + tuple((j, i) for (i, j) in self.orient)

    def gij(self, i, j):
        return gcd(abs(self.c(i, j)), abs(self.c(j, i)))

    def fij(self, i, j):
        return abs(self.c(i, j)) // self.gij(i, j)

    def sgn(self, i, j):
        if (i, j) in self.orient:
            return 1
        if (j, i) in self.orient:
            return -1
        raise KeyError("(%r,%r) is not an oriented edge" % (i, j))

    def arrow_keys(self):
        """The arrows ("arr", i, j, g) of the double quiver."""
        return self._arrows

    def generators(self):
        """The loops ("eps", i) in vertex order, then `arrow_keys()`: every
        generator of the double quiver, built with the datum."""
        return self._generators

    def scaled(self, n):
        """The datum (C, (n, ..., n), Omega) on the same vertices, validated
        and built once per n, as the arrows and relations are; raises
        DatumError where C is not symmetric or n is out of range.  Where
        this datum's symmetrizer is (m, ..., m), the result's m-fold datum
        is this one, so scaling there and back builds one datum."""
        if n not in self._scaled:
            big = validate_datum(self.cartan, [n] * self.n(), self.orient, self.vertices)
            if len(set(self.sym)) == 1:
                big._scaled[self.sym[0]] = self
            self._scaled[n] = big
        return self._scaled[n]

    def is_symmetric(self):
        return self.cartan == tuple(zip(*self.cartan))

    def relations(self):
        """The defining relations, as a tuple of `Relation`s built on first
        use: only this method runs `_build`."""
        if self._relations is None:
            self._build()
        return self._relations

    def _build(self):
        rels = []
        for i in self.vertices:
            word = (eps_key(i),) * self.ci(i)
            rels.append(Relation("nilpotency@%r" % (i,), i, i, ((1, word),)))
        for (i, j) in self.double_orient():
            for g in range(1, self.gij(i, j) + 1):
                a = arrow_key(i, j, g)
                left = (eps_key(i),) * self.fij(j, i) + (a,)
                right = (a,) + (eps_key(j),) * self.fij(i, j)
                rels.append(Relation("commutativity@%s" % arrow_name(a), j, i,
                                     ((1, left), (-1, right))))
        for i in self.vertices:
            terms = []
            for j in self.vertices:
                if self.c(i, j) >= 0 or i == j:
                    continue
                s = self.sgn(i, j)
                fji = self.fij(j, i)
                for g in range(1, self.gij(i, j) + 1):
                    for f in range(fji):
                        word = ((eps_key(i),) * f
                                + (arrow_key(i, j, g), arrow_key(j, i, g))
                                + (eps_key(i),) * (fji - 1 - f))
                        terms.append((s, word))
            if terms:
                rels.append(Relation("mesh@%r" % (i,), i, i, tuple(terms)))
        self._relations = tuple(rels)

    # serialization
    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "cartan": [list(row) for row in self.cartan],
            "symmetrizer": list(self.sym),
            "orientation": [list(p) for p in self.orient],
        }

    def __eq__(self, other):
        if not isinstance(other, CartanDatum):
            return NotImplemented
        return (self.vertices, self.cartan, self.sym, self.orient) == \
               (other.vertices, other.cartan, other.sym, other.orient)

    def __hash__(self):
        return hash((self.vertices, self.cartan, self.sym, self.orient))

    def __repr__(self):
        return "CartanDatum(vertices=%r, C=%r, D=%r, Omega=%r)" % (
            self.vertices, self.cartan, self.sym, self.orient)


def _is_int(x):
    """An integer, and not a bool: JSON's true and false are no numbers."""
    return isinstance(x, int) and not isinstance(x, bool)


def _is_label(x):
    """A vertex label: a string or an integer (JSON's, so no bool)."""
    return isinstance(x, str) or _is_int(x)


def _vertex_labels(vertices, n):
    """The n vertex labels as a tuple: 1, ..., n when `vertices` is None,
    else a list of n distinct labels."""
    if vertices is None:
        return tuple(range(1, n + 1))
    labels = "vertices must be a list of %d string or integer labels" % n
    # bools pass this first test, so that True and 1 are refused as equal
    if (not isinstance(vertices, (list, tuple)) or len(vertices) != n
            or not all(isinstance(v, (str, int)) for v in vertices)):
        raise DatumError("shape", labels)
    vertices = tuple(vertices)
    # files and arrow names spell labels by str(), so 1 and "1" clash too
    if len(set(vertices)) != len(vertices) or len(set(map(str, vertices))) != len(vertices):
        raise DatumError("shape", "duplicate vertex labels")
    if not all(map(_is_label, vertices)):
        raise DatumError("shape", labels)
    return vertices


def _js(*values):
    """The values spelled as JSON (true, "x", [2]), a tuple for %-formatting."""
    return tuple(json.dumps(v, default=repr) for v in values)


def _check_cartan_matrix(cartan, vertices):
    """The labels of C's vertices (see `_vertex_labels`), once C is checked
    to be a generalized Cartan matrix."""
    if not isinstance(cartan, (list, tuple)):
        raise DatumError("shape", "the Cartan matrix ('cartan') is missing or not a list of rows")
    vertices = _vertex_labels(vertices, len(cartan))
    n = len(vertices)
    if n == 0:
        raise DatumError("shape", "Cartan matrix must have at least one vertex")
    if any(not isinstance(row, (list, tuple)) or len(row) != n for row in cartan):
        raise DatumError("shape", "Cartan matrix must be a %dx%d list of lists" % (n, n))
    if not all(_is_int(x) for row in cartan for x in row):
        raise DatumError("shape", "Cartan matrix entries must be integers")
    for a in range(n):
        if cartan[a][a] != 2:
            raise DatumError("diagonal", "c_ii must equal 2 at vertex %s" % _js(vertices[a]))
        for b in range(n):
            if a == b:
                continue
            if cartan[a][b] > 0:
                raise DatumError("offdiag_positive",
                                 "c_ij must be <= 0 for i != j (at %s,%s)" % _js(vertices[a], vertices[b]))
            if cartan[a][b] < -100:   # the quiver has gcd(c_ij, c_ji) arrows per edge
                raise DatumError("entry_bound",
                                 "c_ij must be >= -100 (at %s,%s)" % _js(vertices[a], vertices[b]))
            if (cartan[a][b] == 0) != (cartan[b][a] == 0):
                raise DatumError("zero_pattern",
                                 "c_ij = 0 must imply c_ji = 0 (at %s,%s)" % _js(vertices[a], vertices[b]))
    return vertices


def validate_datum(cartan, sym, orient, vertices=None):
    """Validate (C, D, Omega) and return the immutable datum.

    Raises DatumError with a distinct code for each violated condition:
    shape, diagonal, offdiag_positive, entry_bound, zero_pattern,
    symmetrizer_positive, dc_not_symmetric, orientation_pair,
    orientation_cycle, arrow_name (two arrows share a name).
    """
    vertices = _check_cartan_matrix(cartan, vertices)
    n = len(vertices)
    if not isinstance(sym, (list, tuple)) or len(sym) != n:
        raise DatumError("shape", "symmetrizer must be a list with one entry per vertex")
    for a in range(n):
        if not _is_int(sym[a]) or sym[a] < 1:
            raise DatumError("symmetrizer_positive",
                             "symmetrizer entries must be positive integers (vertex %s)" % _js(vertices[a]))
        if sym[a] > 100:   # the nilpotency relation at a has length c_a
            raise DatumError("entry_bound",
                             "symmetrizer entries must be <= 100 (vertex %s)" % _js(vertices[a]))
    for a in range(n):
        for b in range(n):
            if sym[a] * cartan[a][b] != sym[b] * cartan[b][a]:
                raise DatumError("dc_not_symmetric",
                                 "DC is not symmetric at (%s,%s)" % _js(vertices[a], vertices[b]))
    if not isinstance(orient, (list, tuple)):
        raise DatumError("orientation_pair", "orientation must be a list of pairs")
    idx = {v: k for k, v in enumerate(vertices)}
    pairs = set()
    for p in orient:
        if not isinstance(p, (list, tuple)) or len(p) != 2:
            raise DatumError("orientation_pair", "orientation entries must be pairs")
        i, j = p
        if not (_is_label(i) and _is_label(j)) or i not in idx or j not in idx or i == j:
            raise DatumError("orientation_pair", "orientation pair (%s,%s) is not an edge" % _js(i, j))
        if cartan[idx[i]][idx[j]] >= 0:
            raise DatumError("orientation_pair",
                             "orientation pair (%s,%s) has c_ij = 0" % _js(i, j))
        pairs.add((i, j))
    if len(pairs) != len(orient):
        raise DatumError("orientation_pair", "duplicate pair in orientation")
    for a, i in enumerate(vertices):
        for j in vertices[a + 1:]:
            if cartan[idx[i]][idx[j]] < 0:
                hit = ((i, j) in pairs) + ((j, i) in pairs)
                if hit == 0:
                    raise DatumError("orientation_pair", "edge {%s,%s} is not oriented" % _js(i, j))
                if hit == 2:
                    raise DatumError("orientation_pair",
                                     "edge {%s,%s} is oriented in both directions" % _js(i, j))
    arcs = sorted(pairs, key=lambda p: (idx[p[0]], idx[p[1]]))
    succ = {v: [j for i, j in arcs if i == v] for v in vertices}
    try:   # graphlib reads `succ` as predecessors, so its cycle runs backwards
        TopologicalSorter(succ).prepare()
    except CycleError as exc:
        raise DatumError("orientation_cycle",
                         "orientation contains the cycle %s" % _js(exc.args[1][::-1])) from None
    datum = CartanDatum(vertices, cartan, sym, arcs)
    names = {}   # arrow name -> the first arrow given it
    for key in datum._arrows:
        other = names.setdefault(arrow_name(key), key)
        if other != key:
            raise DatumError("arrow_name", "the arrows [target, source, g] %s and %s are "
                             "both named %s" % (_js(other[1:], key[1:]) + (arrow_name(key),)))
    return datum


def default_orientation(cartan, vertices=None):
    """Every edge oriented from the smaller to the larger vertex label."""
    vertices = _check_cartan_matrix(cartan, vertices)
    n = len(vertices)
    out = []
    for a in range(n):
        for b in range(a + 1, n):
            if cartan[a][b] < 0:
                out.append((vertices[a], vertices[b]))
    return out


def minimal_symmetrizer(cartan, vertices=None):
    """The entrywise-minimal symmetrizer of C (per connected component).

    Solves the ratio constraints c_i * c_ij = c_j * c_ji along a spanning
    tree of each component, checks consistency on the remaining edges, and
    clears denominators.  Raises DatumError("not_symmetrizable") when the
    constraints are inconsistent around a cycle.  C is checked first, and
    errors name the vertices as `validate_datum` does.
    """
    vertices = _check_cartan_matrix(cartan, vertices)
    n = len(vertices)
    values = [None] * n
    for root in range(n):
        if values[root] is not None:
            continue
        values[root] = Fraction(1)
        queue = [root]
        comp = [root]
        while queue:
            a = queue.pop()
            for b in range(n):
                if a == b or cartan[a][b] == 0:
                    continue
                # c_a * c_ab = c_b * c_ba  =>  c_b = c_a * c_ab / c_ba
                want = values[a] * cartan[a][b] / cartan[b][a]
                if values[b] is None:
                    values[b] = want
                    queue.append(b)
                    comp.append(b)
                elif values[b] != want:
                    raise DatumError("not_symmetrizable",
                                     "no symmetrizer exists (cycle through %s,%s)"
                                     % _js(vertices[a], vertices[b]))
        scale = lcm(*[values[v].denominator for v in comp])
        ints = [values[v] * scale for v in comp]
        shrink = gcd(*[int(x) for x in ints])
        for v, x in zip(comp, ints):
            values[v] = int(x) // shrink
    return [int(v) for v in values]


def _check_rank_vector(datum, d):
    if len(d) != datum.n():
        raise ValueError("rank vector must have %d entries" % datum.n())
    return tuple(int(x) for x in d)


def alpha_form(datum, d, e):
    d = _check_rank_vector(datum, d)
    e = _check_rank_vector(datum, e)
    return sum(datum.sym[k] * d[k] * e[k] for k in range(datum.n()))


def beta_form(datum, d, e):
    d = _check_rank_vector(datum, d)
    e = _check_rank_vector(datum, e)
    total = 0
    for (i, j) in datum.orient:
        a, b = datum.index[i], datum.index[j]
        total += datum.sym[a] * abs(datum.cartan[a][b]) * d[a] * e[b]
    return total


def symmetrized_form(datum, d, e):
    return (alpha_form(datum, d, e) + alpha_form(datum, e, d)
            - beta_form(datum, d, e) - beta_form(datum, e, d))


def euler_forms(datum, d, e):
    """(alpha(d,e), beta(d,e), (d,e)) for rank vectors d, e."""
    return alpha_form(datum, d, e), beta_form(datum, d, e), symmetrized_form(datum, d, e)


def dim_formulas(datum, d, e):
    """Dimensions of the crystal-module variety, Hom_T, and GL for ranks d, e."""
    return {
        "dimRC": beta_form(datum, d, d),
        "dimHomT": alpha_form(datum, d, e),
        "dimGL": alpha_form(datum, d, d),
    }

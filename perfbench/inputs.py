"""Frozen benchmark inputs: random towers generated once and stored as JSON.

`selftest.random_tower` builds a tower by gluing generalized simples with
random derivation classes, so it calls `pimod.derivation_basis`.  A later
change of basis choice there would silently change every generated module.
The towers are therefore generated once, stored through
`pimod.module_to_json`, and read back through `pimod.module_from_json`, so
that every commit receives byte-identical inputs.  A run takes the first
stored towers of each rung (how many depends on `--seconds`), and its seed
only picks their order.

Regenerate on purpose only; it changes the inputs of every workload and
starts a new baseline:

    PYTHONPATH=src python3 perfbench/inputs.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from ppalg import cartan, pimod, selftest

POOL_PATH = Path(__file__).resolve().parent / "data" / "towers.json"

# Cartan matrix, symmetrizer and orientation of each datum the workloads use.
DATA = {
    "B2": {"cartan": [[2, -1], [-2, 2]], "symmetrizer": [2, 1], "orientation": [[1, 2]]},
    "C3": {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]], "symmetrizer": [2, 2, 1],
           "orientation": [[1, 2], [2, 3]]},
    "G2": {"cartan": [[2, -3], [-1, 2]], "symmetrizer": [1, 3], "orientation": [[1, 2]]},
}
RANKS = range(2, 13)      # total ranks stored for every datum
POOL_SIZE = 8             # stored towers per (datum, total rank)
GENERATOR_SEED = 20231128


def datum_of(name):
    spec = DATA[name]
    return cartan.validate_datum(spec["cartan"], spec["symmetrizer"],
                                 [tuple(p) for p in spec["orientation"]])


def generate():
    """The pool document: POOL_SIZE towers of distinct content per datum and
    total rank (low ranks draw the same split tower now and then), so that
    no pair of stored towers repeats an input."""
    rng = random.Random(GENERATOR_SEED)
    towers = {}
    for name in DATA:
        datum = datum_of(name)
        towers[name] = {}
        for rank in RANKS:
            docs = []
            while len(docs) < POOL_SIZE:
                doc = pimod.module_to_json(selftest.random_tower(datum, rank, rng), algebra=name)
                if doc not in docs:
                    docs.append(doc)
            towers[name][str(rank)] = docs
    return {"data": DATA, "generator_seed": GENERATOR_SEED, "towers": towers}


def load_doc(path=POOL_PATH):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class Pool:
    """The stored towers, parsed into modules on demand.  Each Pool builds
    its own datum objects, so two pools share no cached state."""

    def __init__(self, doc):
        self.doc = doc
        self.datums = {name: datum_of(name) for name in doc["data"]}

    def module(self, name, rank, index):
        return pimod.module_from_json(self.doc["towers"][name][str(rank)][index],
                                      self.datums[name])


def digest(docs):
    """A short sha256 of the canonical JSON of the inputs a run receives."""
    blob = json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


if __name__ == "__main__":
    POOL_PATH.parent.mkdir(exist_ok=True)
    with open(POOL_PATH, "w", encoding="utf-8") as fh:
        json.dump(generate(), fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    print("wrote", POOL_PATH)

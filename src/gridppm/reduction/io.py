"""On-disk form of constructed instances.

A written instance directory holds:

* ``instance.json``   -- formula, mode, matrix, sizes, layer schedule;
* ``pattern.perm`` / ``text.perm`` -- the two permutations, one-line form;
* ``provenance.json`` -- per-family map from (cell, point index in tile)
  to permutation position (1-based).

The geometry itself is reproducible: rebuilding from the formula and mode
is deterministic, so verification reconstructs and compares byte-wise.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from ..entries import format_entry
from ..grid import format_matrix_json, parse_matrix_json
from ..perm import format_perm
from ..sat import CNFFormula
from .builder import ReductionInstance, bucket_entry_of, reduce_formula

__all__ = ["write_instance", "read_instance_summary", "rebuild_instance"]


def _instance_payload(inst: ReductionInstance) -> Dict:
    bound = inst.families["P"].box_bound
    return {
        "formula": {"nvars": inst.formula.nvars,
                    "clauses": [list(c) for c in inst.formula.clauses]},
        "mode": inst.mode,
        "matrix": json.loads(format_matrix_json(inst.path.matrix)),
        "box_bound": [bound.numerator, bound.denominator],
        "sizes": inst.sizes,
        "layers": [list(l) for l in inst.layers],
        "d_used": inst.d_used,
        "path_cells": [list(c) for c in inst.path.cells],
        "bucket_entry": format_entry(inst.bucket_entry),
    }


def write_instance(inst: ReductionInstance, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    # compact separators keep json on its C encoder; indentation would
    # force the pure-Python one over the whole path matrix
    with open(os.path.join(directory, "instance.json"), "w") as fh:
        fh.write(json.dumps(_instance_payload(inst), separators=(",", ":"))
                 + "\n")
    with open(os.path.join(directory, "pattern.perm"), "w") as fh:
        fh.write(format_perm(inst.pattern) + "\n")
    with open(os.path.join(directory, "text.perm"), "w") as fh:
        fh.write(format_perm(inst.text) + "\n")
    with open(os.path.join(directory, "provenance.json"), "w") as fh:
        _write_provenance(inst, fh)


def _write_provenance(inst: ReductionInstance, fh) -> None:
    """Write the bytes ``json.dump(..., indent=1)`` plus a newline would
    write for {"pattern": {"i,j:idx": pos, ...}, "text": {...}}, without
    the pure-Python encoder that indentation forces on ``json``.  Keys
    come in the order of their cells, then of the point indices in each
    cell's list.  Each cell's lines are written as they are made, so the
    file is never held whole.  Every cell of ``prov`` holds points, and
    both maps are non-empty: every family carries its anchor points."""
    head = "{\n"
    for fam, name in (("P", "pattern"), ("T", "text")):
        fh.write(f'{head} "{name}": {{\n')
        sep = ""
        for (i, j), poss in sorted(inst.prov[fam].items()):
            fh.write(sep + ",\n".join([f'  "{i},{j}:{idx}": {pos}'
                                       for idx, pos in enumerate(poss)]))
            sep = ",\n"
        fh.write("\n }")
        head = ",\n"
    fh.write("\n}\n")


def read_instance_summary(directory: str) -> Dict:
    """The instance.json payload, with the formula and matrix parsed.
    A malformed formula, mode or matrix raises ValueError, and so does a
    bucket entry other than the one the matrix implies."""
    with open(os.path.join(directory, "instance.json")) as fh:
        try:
            data = json.load(fh)
        except RecursionError:   # the C decoder's answer to deep nesting
            raise ValueError("instance.json nests too deeply") from None
    nvars, clauses = data["formula"]["nvars"], data["formula"]["clauses"]
    if not (type(nvars) is int and nvars >= 0
            and isinstance(clauses, list)
            and all(isinstance(c, list) and len(c) == 3
                    and all(type(x) is int for x in c) for c in clauses)):
        raise ValueError('"formula" needs an int "nvars" and "clauses" of '
                         'three int literals')
    # the constructor rejects a literal that is 0 or beyond +-nvars
    data["formula_obj"] = CNFFormula(nvars, tuple(map(tuple, clauses)))
    if data["mode"] not in ("gadgets", "juxtaposition"):
        raise ValueError(f'unknown "mode" {data["mode"]!r}')
    be = data.get("bucket_entry")
    if not (be is None or isinstance(be, str)):
        raise ValueError('"bucket_entry" must be an entry string or null')
    data["matrix_obj"] = parse_matrix_json(json.dumps(data["matrix"]))
    implied = format_entry(bucket_entry_of(data["matrix_obj"]))
    if be != implied:
        raise ValueError(f'"bucket_entry" {be!r} is not the matrix\'s '
                         f'{implied!r}')
    return data


def rebuild_instance(summary: Dict) -> ReductionInstance:
    """Re-run the construction from a stored summary.

    The builder is deterministic, so the rebuilt instance carries the
    full geometry (trace, provenance, tile families) the files do not."""
    return reduce_formula(summary["formula_obj"], mode=summary["mode"],
                          matrix=summary["matrix_obj"])

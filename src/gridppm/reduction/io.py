"""On-disk form of constructed instances.

A written instance directory holds:

* ``instance.json`` -- formula, mode, matrix, sizes, layer schedule, and
  the griddings of both permutations under the matrix;
* ``pattern.perm`` / ``text.perm`` -- the two permutations, one-line form.

The matrix, the two griddings and the two permutations are a membership
certificate that needs no rebuild: ``grid.check_gridding`` accepts each
permutation with its gridding under the matrix.

The geometry itself is reproducible: rebuilding from the formula, mode
and matrix is deterministic, so verification trusts only those three.
``rebuild_instance`` compares every field of ``instance.json`` with the
payload the writer builds for the rebuild, as parsed JSON values, so the
file's layout does not matter; ``check_stored`` compares the two
permutations with the rebuild's, as permutations.
"""

from __future__ import annotations

import json
import os
from typing import Dict

from ..entries import format_entry
from ..grid import gridding_to_obj, matrix_from_obj, matrix_to_obj
from ..perm import format_perm, parse_perm
from ..sat import CNFFormula
from .builder import (BUCKET_ENTRY, MODES, ReductionError,
                      ReductionInstance, reduce_formula)

__all__ = ["write_instance", "read_instance_summary", "rebuild_instance",
           "check_stored"]


def _instance_payload(inst: ReductionInstance) -> Dict:
    bound = inst.families["P"].box_bound
    return {
        "formula": {"nvars": inst.formula.nvars,
                    "clauses": [list(c) for c in inst.formula.clauses]},
        "mode": inst.mode,
        "matrix": matrix_to_obj(inst.path.matrix),
        "box_bound": [bound.numerator, bound.denominator],
        "sizes": inst.sizes,
        "layers": [list(l) for l in inst.layers],
        "d_used": inst.d_used,
        "path_cells": [list(c) for c in inst.path.cells],
        "bucket_entry": format_entry(BUCKET_ENTRY),
        "griddings": {name: gridding_to_obj(inst.griddings[fam])
                      for name, fam in (("pattern", "P"), ("text", "T"))},
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


def check_stored(inst: ReductionInstance, directory: str) -> None:
    """Check the stored permutations against ``inst``, the rebuild of the
    directory's ``instance.json``, as permutations, pattern first.  An
    unparsable ``.perm`` file raises ValueError naming it, and one that
    differs from the rebuild raises ReductionError naming it."""
    for name, want in (("pattern.perm", inst.pattern),
                       ("text.perm", inst.text)):
        path = os.path.join(directory, name)
        with open(path) as fh:
            try:
                got = parse_perm(fh.read())
            except ValueError as exc:   # undecodable text too
                raise ValueError(f"{path}: {exc}") from None
        if got != want:
            raise ReductionError(
                f"stored {name} does not match a deterministic rebuild")


def read_instance_summary(directory: str) -> Dict:
    """The instance.json payload, with the formula and matrix parsed into
    "formula_obj" and "matrix_obj".  A stored "formula_obj" or
    "matrix_obj", and a malformed top level, formula, mode or matrix
    raise ValueError; ``rebuild_instance`` checks the other fields."""
    with open(os.path.join(directory, "instance.json")) as fh:
        try:
            data = json.load(fh)
        except RecursionError:   # the C decoder's answer to deep nesting
            raise ValueError("instance.json nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("instance.json is not a JSON object")
    extra = sorted(data.keys() & {"formula_obj", "matrix_obj"})
    if extra:
        raise ValueError(f"fields differ from a rebuild: {', '.join(extra)}")
    nvars, clauses = data["formula"]["nvars"], data["formula"]["clauses"]
    if not (type(nvars) is int and nvars >= 0
            and isinstance(clauses, list)
            and all(isinstance(c, list) and len(c) == 3
                    and all(type(x) is int for x in c) for c in clauses)):
        raise ValueError('"formula" needs an int "nvars" and "clauses" of '
                         'three int literals')
    # the constructor rejects a literal that is 0 or beyond +-nvars
    data["formula_obj"] = CNFFormula(nvars, tuple(map(tuple, clauses)))
    if data["mode"] not in MODES:
        raise ValueError(f'unknown "mode" {data["mode"]!r}')
    data["matrix_obj"] = matrix_from_obj(data["matrix"])
    return data


def rebuild_instance(summary: Dict) -> ReductionInstance:
    """Re-run the construction from a stored summary.

    The builder is deterministic, so the rebuilt instance carries the
    full geometry (trace, provenance, tile families) the files do not.
    Every stored field must equal the one the writer gives the rebuild,
    compared as Python compares JSON values (so 1, 1.0 and true are one
    value); otherwise ValueError names the fields that differ."""
    inst = reduce_formula(summary["formula_obj"], mode=summary["mode"],
                          matrix=summary["matrix_obj"])
    stored = {k: v for k, v in summary.items()
              if k not in ("formula_obj", "matrix_obj")}
    want = _instance_payload(inst)
    differ = [k for k in sorted(stored.keys() | want.keys())
              if k not in stored or k not in want or stored[k] != want[k]]
    if differ:
        raise ValueError(f"fields differ from a rebuild: {', '.join(differ)}")
    return inst

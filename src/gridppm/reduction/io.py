"""On-disk form of constructed instances.

A written instance directory holds:

* ``instance.json``   -- formula, mode, matrix, sizes, layer schedule;
* ``pattern.perm`` / ``text.perm`` -- the two permutations, one-line form;
* ``provenance.json`` -- per-family map from (cell, point index in tile)
  to permutation position (1-based).

The geometry itself is reproducible: rebuilding from the formula, mode
and matrix is deterministic, so verification trusts only those three.
``rebuild_instance`` compares every field of ``instance.json`` with the
payload the writer builds for the rebuild, as parsed JSON values, so the
file's layout does not matter; ``check_stored`` compares the two
permutations as permutations and ``provenance.json`` byte for byte.
"""

from __future__ import annotations

import json
import os
from itertools import repeat
from typing import Dict, Iterator

from ..entries import format_entry
from ..grid import matrix_from_obj, matrix_to_obj
from ..perm import format_perm, parse_perm
from ..sat import CNFFormula
from .builder import (BUCKET_ENTRY, MODES, ReductionError,
                      ReductionInstance, reduce_formula)

__all__ = ["write_instance", "read_instance_summary", "rebuild_instance",
           "check_stored"]

# provenance lines rendered per ``%``: enough that the work per slice is
# negligible, few enough that a slice's strings stay near 25 kB
_SLICE = 1024


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
        fh.writelines(_provenance_chunks(inst))


def _provenance_chunks(inst: ReductionInstance) -> Iterator[str]:
    """The bytes of ``provenance.json``: what ``json.dump(..., indent=1)``
    plus a newline would write for {"pattern": {"i,j:idx": pos, ...},
    "text": {...}}, without the pure-Python encoder that indentation
    forces on ``json``.  That is ``{\\n "pattern": {\\n``, the pattern
    lines, ``\\n },\\n "text": {\\n``, the text lines, ``\\n }\\n}\\n``,
    where each line is ``  "i,j:idx": pos`` (two leading spaces) and the
    lines of a map are separated by ``,\\n``.  Keys come in the order of
    their cells, then of the point indices 0, 1, ... in each cell's
    list; ``pos`` is the point's 1-based position in its permutation.
    The lines are rendered a slice of at most ``_SLICE`` at a time, by
    one ``%`` on a template of the slice's lines, and each slice comes as
    one chunk when asked for, so the file is never held whole.  Every
    cell of ``prov`` holds points, and both maps are non-empty: every
    family carries its anchor points."""
    head = "{\n"
    for fam, name in (("P", "pattern"), ("T", "text")):
        yield f'{head} "{name}": {{\n'
        sep = ""
        for (i, j), poss in sorted(inst.prov[fam].items()):
            line = f'  "{i},{j}:%d": %d'
            for s in range(0, len(poss), _SLICE):
                chunk = poss[s:s + _SLICE]
                n = len(chunk)
                args = [0] * (2 * n)
                args[0::2] = range(s, s + n)
                args[1::2] = chunk
                yield sep + ",\n".join(repeat(line, n)) % tuple(args)
                sep = ",\n"
        yield "\n }"
        head = ",\n"
    yield "\n}\n"


def check_stored(inst: ReductionInstance, directory: str) -> None:
    """Check the stored permutations and provenance against ``inst``, the
    rebuild of the directory's ``instance.json``.  An unparsable ``.perm``
    file raises ValueError naming it, and a stored file that differs from
    the rebuild raises ReductionError.  The permutations are compared as
    permutations, the provenance byte for byte, streamed."""
    stored = []
    for name in ("pattern.perm", "text.perm"):
        path = os.path.join(directory, name)
        with open(path) as fh:
            try:
                stored.append(parse_perm(fh.read()))
            except ValueError as exc:   # undecodable text too
                raise ValueError(f"{path}: {exc}") from None
    if stored != [inst.pattern, inst.text]:
        raise ReductionError(
            "stored permutations do not match a deterministic rebuild")
    with open(os.path.join(directory, "provenance.json"), "rb") as fh:
        same = all(fh.read(len(chunk)) == chunk for chunk
                   in map(str.encode, _provenance_chunks(inst)))
        if not same or fh.read(1):
            raise ReductionError(
                "stored provenance.json does not match a deterministic "
                "rebuild")


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

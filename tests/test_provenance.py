"""The provenance writer against a reference built with ``json``.

``_provenance_chunks`` renders ``provenance.json`` a slice of lines at a
time; ``write_instance`` writes its chunks and ``check_stored`` compares
the stored file with them.  Here the joined chunks must equal what
``json.dumps(..., indent=1)`` gives for the same map, on built instances
whose largest cells span many slices and on cells whose lengths sit on
either side of every slice boundary.
"""

import json
import random
from array import array
from types import SimpleNamespace

import pytest

from gridppm.reduction import reduce_formula
from gridppm.reduction.io import _SLICE, _provenance_chunks
from gridppm.sat import CNFFormula

from test_golden import USER_FORMULA, user_matrix
from test_reduction import FORMULAS


def reference(prov):
    """The file the writer must produce, from ``json`` itself."""
    return json.dumps(
        {name: {f"{i},{j}:{idx}": pos
                for (i, j), poss in sorted(prov[fam].items())
                for idx, pos in enumerate(poss)}
         for fam, name in (("P", "pattern"), ("T", "text"))},
        indent=1) + "\n"


def check(inst):
    chunks = list(_provenance_chunks(inst))
    assert "".join(chunks) == reference(inst.prov)
    # streamed: no chunk holds more than one slice of lines
    assert max(c.count("\n") for c in chunks) <= _SLICE


@pytest.mark.parametrize("mode", ["gadgets", "juxtaposition"])
@pytest.mark.parametrize("f", FORMULAS + [CNFFormula(0, ())])
def test_provenance_matches_json(mode, f):
    """FORMULAS in both modes (the largest cell, gadgets mode on the
    last formula, holds 22,618 points) and ``p cnf 0 0``, whose
    families hold only their anchors."""
    check(reduce_formula(f, mode=mode))


def test_provenance_matches_json_on_a_user_path():
    check(reduce_formula(USER_FORMULA, mode="juxtaposition",
                         matrix=user_matrix()))


def test_provenance_matches_json_at_every_slice_boundary():
    """Cells of lengths 1, 2 and 2^k - 1, 2^k, 2^k + 1 for k = 8..14,
    in both families under keys that sort differently as strings and
    as pairs: no slice boundary drops, repeats or mis-separates a
    line."""
    lengths = [1, 2] + [2 ** k + d for k in range(8, 15) for d in (-1, 0, 1)]
    rng = random.Random(28)
    prov = {}
    for fam in "PT":
        positions = list(range(1, sum(lengths) + 1))
        rng.shuffle(positions)
        cells = rng.sample([(i, j) for i in range(1, 40)
                            for j in range(1, 40)], len(lengths))
        prov[fam] = {}
        for cell, n in zip(cells, lengths):
            prov[fam][cell] = array("i", positions[:n])
            del positions[:n]
    check(SimpleNamespace(prov=prov))

"""A written instance is a membership certificate checked without a rebuild.

``instance.json`` holds the matrix M and a gridding of each permutation,
so a reader with only ``gridppm.grid`` and ``gridppm.perm`` checks that
``pattern.perm`` and ``text.perm`` lie in Grid(M).  This module imports
nothing from ``gridppm.reduction``: a child process writes the instances
and only their files are read here.
"""

import json
import os
import subprocess
import sys

import pytest

from gridppm.grid import Gridding, check_gridding, matrix_from_obj
from gridppm.perm import parse_perm

# every formula of test_reduction.FORMULAS in both modes, and the user
# path instance of test_golden
_WRITE = """
import sys
from gridppm.reduction import reduce_formula, write_instance
from test_golden import USER_FORMULA, user_matrix
from test_reduction import FORMULAS
out = sys.argv[1]
for mode in ("gadgets", "juxtaposition"):
    for k, f in enumerate(FORMULAS):
        write_instance(reduce_formula(f, mode=mode), f"{out}/{mode}-{k}")
write_instance(reduce_formula(USER_FORMULA, mode="juxtaposition",
                              matrix=user_matrix()), f"{out}/user")
"""

NAMES = [f"{mode}-{k}" for mode in ("gadgets", "juxtaposition")
         for k in range(4)] + ["user"]


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    out = tmp_path_factory.mktemp("written")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", _WRITE, str(out)], env=env,
                   check=True)
    assert sorted(d.name for d in out.iterdir()) == sorted(NAMES)
    return out


def gridding(obj):
    return Gridding(tuple(obj["col_cuts"]), tuple(obj["row_cuts"]))


def in_grid_class(directory, m, griddings):
    """Whether both stored permutations lie in Grid(m) under
    ``griddings``."""
    return all(check_gridding(
        parse_perm((directory / f"{name}.perm").read_text()),
        gridding(griddings[name]), m) for name in ("pattern", "text"))


@pytest.mark.parametrize("name", NAMES)
def test_stored_griddings_certify_membership(written, name):
    """The stored matrix and griddings are accepted; the text's middle
    interior column cut moved right by one moves a point into a cell
    whose entry refuses it."""
    directory = written / name
    stored = json.loads((directory / "instance.json").read_text())
    m, griddings = matrix_from_obj(stored["matrix"]), stored["griddings"]
    assert in_grid_class(directory, m, griddings)
    cuts = list(griddings["text"]["col_cuts"])
    cuts[len(cuts) // 2] += 1
    moved = dict(griddings, text=dict(griddings["text"], col_cuts=cuts))
    assert not in_grid_class(directory, m, moved)

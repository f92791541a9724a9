"""Each clause block ends on seven consecutive final slots.

The evaluation phase leaves clause c's seven text channels side by
side, in the role order below.  ``checks._clause_feasible`` asks
whether a channel of the middle literal lies between the channels the
outer literals take, and on this layout that holds exactly when some
literal of the clause is true.
"""

import itertools

import pytest

from gridppm.reduction import checks, reduce_formula

from test_golden import CARRIED_FORMULA, carried_matrix
from test_reduction import FORMULAS

ROLES = ("ya", "zbar_b", "za", "yb", "zc", "ztilde_b", "yc")

CASES = [(mode, f, None) for mode in ("gadgets", "juxtaposition")
         for f in FORMULAS] + [("juxtaposition", CARRIED_FORMULA, "carried")]


@pytest.mark.parametrize("mode,f,matrix", CASES)
def test_clause_block_is_its_clause(mode, f, matrix):
    inst = reduce_formula(f, mode=mode,
                          matrix=carried_matrix() if matrix else None)
    for c, clause in enumerate(f.clauses):
        lay = inst.clause_layouts[c]
        pos = [inst.final_positions[lay[r]] for r in ROLES]
        assert pos == list(range(pos[0], pos[0] + 7)), (c, pos)
        vs = sorted({abs(lit) for lit in clause})
        for bits in itertools.product((False, True), repeat=len(vs)):
            rho = [False] * f.nvars
            for v, b in zip(vs, bits):
                rho[v - 1] = b
            truth = any(rho[abs(lit) - 1] == (lit > 0) for lit in clause)
            assert checks._clause_feasible(inst, c, rho) == truth, (c, bits)

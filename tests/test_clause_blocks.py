"""Each clause block ends on seven consecutive final slots.

The evaluation phase leaves clause c's seven text channels side by
side, in the role order below.  ``checks._clause_feasible`` asks
whether a channel of the middle literal lies between the channels the
outer literals take, and on this layout that holds exactly when some
literal of the clause is true.  Each role's channel descends, through
the trace, from the branch of its literal's variable that the role
names: the ``y`` roles from the branch on which the literal is true,
the ``z`` roles from the other one.
"""

import functools
import itertools

import pytest

from gridppm.reduction import checks, reduce_formula
from gridppm.reduction.builder import CHOOSE, FLIPTEXT

from test_golden import USER_FORMULA, user_matrix
from test_reduction import FORMULAS

ROLES = ("ya", "zbar_b", "za", "yb", "zc", "ztilde_b", "yc")

CASES = [(mode, f, None) for mode in ("gadgets", "juxtaposition")
         for f in FORMULAS] + [("juxtaposition", USER_FORMULA, "user")]


@functools.lru_cache(maxsize=None)
def _instance(mode, f, matrix):
    return reduce_formula(f, mode=mode,
                          matrix=user_matrix() if matrix else None)


@pytest.mark.parametrize("mode,f,matrix", CASES)
def test_clause_block_is_its_clause(mode, f, matrix):
    inst = _instance(mode, f, matrix)
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


def _branch_labels(inst):
    """Text pair id -> (variable, branch) by trace ancestry, or None
    before the assignment layer.  The first ``nvars`` text choose
    gadgets are that layer, in variable order; output j of a text flip
    continues its input j, and every other gadget passes its inputs'
    one label to all of its outputs."""
    tr = inst.trace
    label, chooses = {}, 0
    for g in range(len(tr)):
        if not tr.fam[g]:
            continue
        ins = tr.ins[tr.in_off[g]:tr.in_off[g + 1]]
        outs = tr.outs[tr.out_off[g]:tr.out_off[g + 1]]
        if tr.kind[g] == FLIPTEXT:
            label.update(zip(outs, (label[i] for i in ins)))
            continue
        seen = {label.get(i) for i in ins}
        assert len(seen) <= 1, (g, seen)
        (lab,) = seen or {None}
        if tr.kind[g] == CHOOSE and chooses < inst.formula.nvars:
            chooses += 1
            assert lab is None, g
            label.update((o, (chooses, b)) for b, o in enumerate(outs))
        else:
            label.update((o, lab) for o in outs)
    return label


@pytest.mark.parametrize("mode,f,matrix", CASES)
def test_clause_roles_carry_their_branches(mode, f, matrix):
    """A positive literal is true on its variable's choose output 0, a
    negative one on output 1; ``ya``, ``yb`` and ``yc`` carry that
    branch and the other roles the false one."""
    inst = _instance(mode, f, matrix)
    label = _branch_labels(inst)
    for c, (la, lb, lc) in enumerate(f.clauses):
        lay = inst.clause_layouts[c]
        for role, lit in (("ya", la), ("za", la), ("yb", lb), ("zbar_b", lb),
                          ("ztilde_b", lb), ("yc", lc), ("zc", lc)):
            true = 0 if lit > 0 else 1
            want = (abs(lit), true if role[0] == "y" else 1 - true)
            assert label[lay[role]] == want, (c, role)

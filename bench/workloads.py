"""The three seeded workloads.

Each workload's ``setup(seed, workdir)`` returns a list of ``Op``: a
timed call into the library, an untimed check of its answer, and the
text size the operation handles.  Inputs depend only on the seed.  The
library is called through its modules (``matcher.solve_cppm``), never
through names bound here, so the traced run's rebinding catches the
benchmark's own calls as well as the library's internal ones.
"""

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Callable

from gridppm import grid, matcher, perm, sat
from gridppm.reduction import builder, checks, io as rio

import answers


@dataclass
class Op:
    label: str                      # the operation's kind within the workload
    run: Callable[[], Any]          # the timed call
    check: Callable[[Any], bool]    # untimed answer check
    text_points: Callable[[Any], int]
    inputs: tuple                   # what the operation is fed, for tests


# --- match -------------------------------------------------------------------

# Two monotone 2x2 matrices, rows listed top to bottom as in the CLI's
# matrix files: a cycle and a path.
MATCH_MATRICES = {
    "cycle": [["dec", "inc"], ["inc", "dec"]],
    "path": [["inc", "dec"], ["dec", "empty"]],
}
# Positives stop at the first pattern gridding, so the text's gridding
# search dominates them; negatives try every pattern gridding, so the
# 2-SAT encoding dominates them.  Negative patterns are nearly as large
# as their texts (they must beat its longest monotone subsequence), so
# their texts are smaller to keep the two halves of similar weight.
POSITIVE_TEXT_SIZES = (32, 48, 64)
NEGATIVE_TEXT_SIZES = (24, 28, 32)
MATCH_ROUNDS = 8
NEGATIVE_DRAWS = 5000


def _cells(rows):
    """{(column, row): 'inc' | 'dec'} with row 1 at the bottom."""
    height = len(rows)
    return {(i + 1, height - r): e for r, row in enumerate(rows)
            for i, e in enumerate(row) if e != "empty"}


def grid_member(cells, sizes, rng):
    """Ranks of a random member of the monotone grid class with
    ``sizes[cell]`` points in each cell.  Each column interleaves its
    cells' positions at random and each row their values; a cell's
    values then run up or down along its positions."""
    by_col, by_row = {}, {}
    for (i, j), s in sorted(sizes.items()):
        by_col.setdefault(i, []).extend([j] * s)
        by_row.setdefault(j, []).extend([i] * s)
    positions, values = {}, {}
    q = 0
    for i in sorted(by_col):
        rng.shuffle(by_col[i])
        for j in by_col[i]:
            positions.setdefault((i, j), []).append(q)
            q += 1
    v = 1
    for j in sorted(by_row):
        rng.shuffle(by_row[j])
        for i in by_row[j]:
            values.setdefault((i, j), []).append(v)
            v += 1
    ranks = [0] * q
    for cell, ps in positions.items():
        vs = values[cell] if cells[cell] == "inc" else values[cell][::-1]
        for p, x in zip(ps, vs):
            ranks[p] = x
    return tuple(ranks)


def _monotone(kind, values):
    if kind is None:
        return not values
    if kind == "inc":
        return all(a < b for a, b in zip(values, values[1:]))
    return all(a > b for a, b in zip(values, values[1:]))


def first_gridding_sizes(ranks, cells):
    """Cell sizes under the lexicographically least gridding of a 2x2
    monotone matrix (column cut first, then row cut): the gridding the
    matcher fixes for its text."""
    n = len(ranks)
    for c in range(n + 1):          # positions < c form column 1
        for r in range(1, n + 2):   # values < r form row 1
            content = {}
            for q, v in enumerate(ranks):
                content.setdefault((1 if q < c else 2, 1 if v < r else 2),
                                   []).append(v)
            if all(_monotone(cells.get(cell), vs)
                   for cell, vs in content.items()):
                return {cell: len(vs) for cell, vs in content.items()}
    raise ValueError("ranks are not in the grid class")


def _split(n, cells, rng):
    sizes = {c: n // len(cells) for c in cells}
    for c in rng.sample(sorted(cells), n % len(cells)):
        sizes[c] += 1
    return sizes


def _negative(cells, n, rng):
    """A text of size n and a pattern it cannot contain, certified by a
    monotone subsequence bound.  The pattern's cell sizes fit inside the
    text's cells under the matcher's text gridding, so the size check
    alone cannot refute it."""
    while True:
        text = grid_member(cells, _split(n, cells, rng), rng)
        room = first_gridding_sizes(text, cells)
        for _ in range(NEGATIVE_DRAWS):
            sizes = {c: max(0, s - rng.randint(0, 2))
                     for c, s in room.items()}
            pattern = grid_member(cells, sizes, rng)
            if answers.cannot_embed(text, pattern):
                return text, pattern


def _match_op(label, name, m, text, pattern, found):
    p, t = perm.Permutation(pattern), perm.Permutation(text)
    return Op(label,
              run=lambda: matcher.solve_cppm(p, t, m, stats={}),
              check=lambda emb: answers.match_ok(found, text, pattern, emb),
              text_points=lambda _: len(text),
              inputs=(name, text, pattern))


def setup_match(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for _ in range(MATCH_ROUNDS):
        for name, rows in MATCH_MATRICES.items():
            m = grid.parse_matrix_json(json.dumps(
                {"cols": 2, "rows": 2, "entries": rows}))
            cells = _cells(rows)
            for n_pos, n_neg in zip(POSITIVE_TEXT_SIZES, NEGATIVE_TEXT_SIZES):
                text = grid_member(cells, _split(n_pos, cells, rng), rng)
                keep = sorted(rng.sample(range(n_pos), n_pos // 4))
                pattern = answers.standardize([text[q] for q in keep])
                ops.append(_match_op("positive", name, m, text, pattern,
                                     True))
                text, pattern = _negative(cells, n_neg, rng)
                ops.append(_match_op("negative", name, m, text, pattern,
                                     False))
    return ops


# --- formulas ----------------------------------------------------------------

def planted_formula(rng, nvars, skeleton):
    """A 3-CNF on the given variable skeleton with random signs, each
    clause satisfied by a random planted assignment."""
    rho = [rng.random() < 0.5 for _ in range(nvars)]
    clauses = []
    for variables in skeleton:
        while True:
            clause = tuple(v if rng.random() < 0.5 else -v for v in variables)
            if any((lit > 0) == rho[abs(lit) - 1] for lit in clause):
                break
        clauses.append(clause)
    return builder.normalize_3cnf(nvars, clauses), rho


# All eight sign patterns on variables 1-3: unsatisfiable on its own.
UNSAT_BLOCK = tuple(tuple(s * v for s, v in zip(signs, (1, 2, 3)))
                    for signs in ((1, 1, 1), (1, 1, -1), (1, -1, 1),
                                  (1, -1, -1), (-1, 1, 1), (-1, 1, -1),
                                  (-1, -1, 1), (-1, -1, -1)))


def unsat_formula(rng, nvars, skeleton):
    """The UNSAT block plus random-sign clauses on the given skeleton."""
    extra = [tuple(v if rng.random() < 0.5 else -v for v in variables)
             for variables in skeleton]
    return builder.normalize_3cnf(nvars, list(UNSAT_BLOCK) + extra)


# --- reduce-gadgets ----------------------------------------------------------

# Instance size in gadgets mode depends on the order in which variables
# occur, not on the signs, so fixed skeletons give every seed the same
# instance sizes while the seed draws the signs and the planted
# assignment.  One skeleton needs sorting swaps, the other none.
GADGET_FORMULAS = (
    (3, ((1, 2, 3), (2, 3, 1), (3, 1, 2))),
    (3, ((1, 2, 3), (1, 2, 3), (1, 2, 3))),
)


def _read(directory, name):
    with open(os.path.join(directory, name)) as fh:
        return fh.read()


def _stored_ranks(directory, name):
    return answers.parse_ranks(_read(directory, name))


def _gadget_op(formula, rho, directory):
    def run():
        inst = builder.reduce_formula(formula, mode="gadgets")
        rio.write_instance(inst, directory)
        return inst

    def check(inst):
        emb = checks.embedding_from_assignment(inst, rho)
        text, pattern = inst.text.ranks, inst.pattern.ranks
        return (_stored_ranks(directory, "text.perm") == text
                and _stored_ranks(directory, "pattern.perm") == pattern
                and answers.embeds_as(text, pattern, emb))

    return Op("gadgets", run, check, lambda inst: len(inst.text),
              (formula.clauses, tuple(rho)))


def setup_reduce_gadgets(seed, workdir):
    rng = random.Random(seed)
    ops = []
    for k, (nvars, skeleton) in enumerate(GADGET_FORMULAS):
        formula, rho = planted_formula(rng, nvars, skeleton)
        ops.append(_gadget_op(formula, rho,
                              os.path.join(workdir, f"gadgets-{k}")))
    return ops


# --- verify-juxt -------------------------------------------------------------

# (known answer, variables, skeleton).  Two planted satisfiable
# formulas of the same shape and one unsatisfiable one: the UNSAT block
# plus two clauses on the other variables, so the simulation enumerates
# all 2^16 assignments.  With two operations of similar cost and a third
# apart, the median operation time stays with the similar pair instead
# of flipping between two kinds.  Fixed skeletons keep instance sizes
# equal across seeds.
JUXT_FORMULAS = (
    (True, 8, ((1, 2, 3), (4, 5, 6), (7, 8, 1), (2, 4, 7), (3, 5, 8),
               (6, 1, 4), (2, 5, 7), (3, 6, 8), (1, 5, 7), (2, 6, 4))),
    (False, 16, ((4, 9, 14), (7, 12, 16))),
    (True, 8, ((1, 3, 5), (2, 4, 6), (7, 1, 4), (8, 2, 5), (3, 6, 8),
               (1, 2, 7), (4, 5, 8), (3, 7, 2), (6, 8, 1), (5, 3, 4))),
)


def _verify_op(directory, formula, expect_sat, text, pattern):
    def run():
        summary = rio.read_instance_summary(directory)
        inst = rio.rebuild_instance(summary)
        stored_pattern = perm.parse_perm(_read(directory, "pattern.perm"))
        stored_text = perm.parse_perm(_read(directory, "text.perm"))
        report = checks.validate_instance(inst)
        simulated, _ = checks.simulate_grid_preserving(inst)
        f = inst.formula
        witness = sat.solve_sat(sat.CNFFormula(f.nvars, f.clauses))
        embedding = None
        if witness is not None:
            rho = [witness[k] for k in range(1, f.nvars + 1)]
            embedding = checks.embedding_from_assignment(inst, rho)
        return {"rebuild_matches": (stored_pattern == inst.pattern
                                    and stored_text == inst.text),
                "valid": report["ok"], "simulated": simulated,
                "sat": witness is not None, "embedding": embedding}

    return Op("sat" if expect_sat else "unsat", run,
              lambda out: answers.verify_ok(expect_sat, text, pattern, out),
              lambda _: len(text), (formula.clauses, expect_sat))


def setup_verify_juxt(seed, workdir):
    """Reduce every formula in juxtaposition mode and write it to disk,
    as ``gridppm reduce`` does; the timed operations read it back."""
    rng = random.Random(seed)
    ops = []
    for k, (expect_sat, nvars, skeleton) in enumerate(JUXT_FORMULAS):
        if expect_sat:
            formula, _ = planted_formula(rng, nvars, skeleton)
        else:
            formula = unsat_formula(rng, nvars, skeleton)
        directory = os.path.join(workdir, f"juxt-{k}")
        rio.write_instance(builder.reduce_formula(formula,
                                                  mode="juxtaposition"),
                           directory)
        ops.append(_verify_op(directory, formula, expect_sat,
                              _stored_ranks(directory, "text.perm"),
                              _stored_ranks(directory, "pattern.perm")))
    return ops


WORKLOADS = {
    "match": setup_match,
    "reduce-gadgets": setup_reduce_gadgets,
    "verify-juxt": setup_verify_juxt,
}

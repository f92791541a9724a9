"""Verification utilities for constructed instances.

``simulate_grid_preserving`` decides, by enumerating variable
assignments, whether the pattern admits a grid-preserving embedding into
the text; on a correct construction this agrees with satisfiability of
the source formula.  ``embedding_from_assignment`` turns a satisfying
assignment into an explicit embedding by propagating the pair
correspondence through the gadget trace's int columns: each pattern
point's image goes straight into the embedding through the provenance
arrays, with no per-point map, and ``perm.is_order_isomorphic`` checks
the result.
``validate_instance`` re-checks the geometric invariants of an instance
from its raw tiles.
"""

from __future__ import annotations

import itertools
from array import array
from typing import Dict, List, Optional, Sequence, Tuple

from ..grid import BoxOverflow, Tile, assemble, check_gridding
from ..perm import is_order_isomorphic
from .builder import (BUCKET, CHOOSE, COPY, FLIPPAT, FLIPTEXT, FOLLOW,
                      INITIAL, KINDS, MERGE, MULTIPLY, PICK, ReductionError,
                      ReductionInstance, TooManyVariables)

__all__ = ["validate_instance", "simulate_grid_preserving",
           "embedding_from_assignment"]


def _literal_true(lit: int, rho: Sequence[bool]) -> bool:
    return rho[abs(lit) - 1] == (lit > 0)


# --- trace propagation -------------------------------------------------------

# (pattern kind, text kind) pairs that map slot j onto slot j
_SAME_SLOTS = {(COPY, COPY), (BUCKET, BUCKET), (FLIPPAT, FLIPPAT),
               (FOLLOW, MERGE), (PICK, PICK)}


def _run_idxs(tile: Tile) -> range:
    """The indices of tile 0's anchor run points, past its columns."""
    n = len(tile.x_na)
    return range(n, n + sum(r for _, r in tile.runs))


def _propagate(inst: ReductionInstance, rho: Sequence[bool],
               emb: List[int]) -> None:
    """Follow the gadget trace under ``rho`` and write every pattern
    point's forced text image into ``emb`` (0-based positions, indexed
    by pattern position)."""
    tr = inst.trace
    kind, fam, ins, in_off = tr.kind, tr.fam, tr.ins, tr.in_off
    outs, out_off = tr.outs, tr.out_off
    s_off, s_tile, s_idx = tr.slot_off, tr.slot_tile, tr.slot_idx
    prov_p = [inst.prov["P"].get(c) for c in inst.path.cells]
    prov_t = [inst.prov["T"].get(c) for c in inst.path.cells]

    def map_slot(j: int, k: int) -> None:
        """Map the points of pattern slot j onto those of text slot k."""
        a0, a1, b0 = s_off[j], s_off[j + 1], s_off[k]
        if a1 - a0 != s_off[k + 1] - b0:
            raise ReductionError("gadget chains of unequal length")
        d = b0 - a0
        for a in range(a0, a1):
            t = s_tile[a]
            if t != s_tile[a + d]:
                raise ReductionError("cross-tile point image")
            emb[prov_p[t][s_idx[a]] - 1] = prov_t[t][s_idx[a + d]] - 1

    # every pair id is some gadget's output, so len(outs) bounds them
    cons = array("i", [-1]) * len(outs)   # text pair -> gadget taking it
    imap = array("i", [-1]) * len(outs)   # pattern pair -> text image
    initial = ([], [])
    for g in range(len(tr)):
        if fam[g]:
            for i in range(in_off[g], in_off[g + 1]):
                cons[ins[i]] = g
        if kind[g] == INITIAL:
            initial[fam[g]].append(g)

    # the i-th initial pattern pair starts on the i-th initial text pair
    for gp, gt in zip(*initial):
        j, k = out_off[gp], out_off[gt]
        imap[outs[j]] = outs[k]
        map_slot(j, k)
    # the inflated anchors are initial pairs' points; their runs follow
    ia, ib = (_run_idxs(inst.families[f].tiles[inst.path.cells[0]])
              for f in ("P", "T"))
    if len(ia) != len(ib):
        raise ReductionError("gadget chains of unequal length")
    for a, b in zip(ia, ib):
        emb[prov_p[0][a] - 1] = prov_t[0][b] - 1

    for g in range(len(tr)):
        kd = kind[g]
        if fam[g] or kd == INITIAL:
            continue
        images = []
        for i in range(in_off[g], in_off[g + 1]):
            img = imap[ins[i]]
            if img < 0:
                raise ReductionError("pattern pair consumed before mapped")
            images.append(img)
        j, width = out_off[g], 1

        if kd == FLIPTEXT:
            # a committed duo must meet a text flip as a whole
            t1, t2 = cons[images[0]], cons[images[1]]
            if t1 < 0 or t1 != t2 or kind[t1] != FLIPTEXT or \
                    ins[in_off[t1]] != images[0] or \
                    ins[in_off[t1] + 1] != images[1]:
                raise ReductionError(
                    "swap commitments do not meet a text flip duo")
            k, width = out_off[t1], 2
        else:
            (img,) = images
            tg = cons[img]
            if tg < 0:
                raise ReductionError(
                    "pattern advances past a frozen text pair")
            tk, k = kind[tg], out_off[tg]
            if (kd, tk) in _SAME_SLOTS:
                pass
            elif kd == PICK and tk == CHOOSE:
                meta = tr.meta.get(g, ())
                if meta and meta[0] == "assign":
                    beta = 0 if rho[meta[1] - 1] else 1
                elif meta and meta[0] == "swap":
                    _, idx, t_ids, partner = meta
                    pimg = imap[partner]
                    if pimg < 0:
                        raise ReductionError("swap partner not yet mapped")
                    first = pimg == (t_ids[2] if idx == 0 else t_ids[0])
                    beta = 0 if first else 1
                elif meta and meta[0] == "eval":
                    lit = inst.formula.clauses[meta[1]][0]
                    beta = 0 if _literal_true(lit, rho) else 1
                else:
                    raise ReductionError(
                        "pick meets a choose without a rule")
                k += beta
            elif kd == FLIPPAT and tk == FLIPTEXT:
                k += 0 if img == ins[in_off[tg]] else 1
            elif kd == MULTIPLY and tk == MULTIPLY:
                width = 2
            else:
                raise ReductionError(f"pattern {KINDS[kd]} gadget cannot "
                                     f"map onto text {KINDS[tk]}")

        # output j + d follows text output k + d
        for d in range(width):
            map_slot(j + d, k + d)
            imap[outs[j + d]] = outs[k + d]


# --- decision and witness ----------------------------------------------------


def _clause_feasible(inst: ReductionInstance, c: int,
                     rho: Sequence[bool]) -> bool:
    la, lb, lc = inst.formula.clauses[c]
    lay = inst.clause_layouts[c]
    pos = inst.final_positions
    a = pos[lay["ya"]] if _literal_true(la, rho) else pos[lay["za"]]
    cc = pos[lay["yc"]] if _literal_true(lc, rho) else pos[lay["zc"]]
    if _literal_true(lb, rho):
        bs = [pos[lay["yb"]]]
    else:
        bs = [pos[lay["zbar_b"]], pos[lay["ztilde_b"]]]
    return any(a < b < cc for b in bs)


def simulate_grid_preserving(inst: ReductionInstance
                             ) -> Tuple[bool, Optional[Tuple[bool, ...]]]:
    """Decide embeddability by brute force over assignments.

    Returns (embeddable, witness assignment or None).  An assignment
    admits an embedding exactly when every clause block leaves the three
    committed pattern pairs in increasing final positions.
    """
    n = inst.formula.nvars
    if n > 20:
        raise TooManyVariables(f"{n} variables exceed the 2^20 guard")
    if not inst.formula.clauses:
        return True, tuple([False] * n)
    for rho in itertools.product((False, True), repeat=n):
        if all(_clause_feasible(inst, c, rho)
               for c in range(len(inst.formula.clauses))):
            return True, rho
    return False, None


def embedding_from_assignment(inst: ReductionInstance,
                              rho: Sequence[bool]) -> Tuple[int, ...]:
    """An explicit grid-preserving embedding (0-based text positions,
    indexed by pattern position) from a satisfying assignment."""
    if not inst.formula.evaluates(rho):
        raise ReductionError("assignment does not satisfy the formula")
    emb = [-1] * len(inst.pattern)
    _propagate(inst, rho, emb)
    # every image is a position >= 0: a slot still at -1 was never
    # written, and a slot written twice keeps its last image; a -1 left
    # anywhere fails the order check
    covered = len(emb) - emb.count(-1)
    if covered != inst.sizes["pattern"]:
        raise ReductionError(
            f"propagation covered {covered} of "
            f"{inst.sizes['pattern']} pattern points")
    if not is_order_isomorphic(inst.text, inst.pattern, emb):
        raise ReductionError("embedding does not induce the pattern")
    return tuple(emb)


# --- structural validation ---------------------------------------------------


def validate_instance(inst: ReductionInstance) -> Dict[str, object]:
    """Re-check an instance's geometry from its raw tiles.

    Reassembles both families (which re-validates every tile's box and
    general position), compares against the stored permutations, and
    checks both griddings against the pattern matrix.
    """
    violations: List[str] = []
    stored = {"P": inst.pattern, "T": inst.text}
    for fam in ("P", "T"):
        try:
            p, _, g = assemble(inst.families[fam], inst.path.orientation)
        except (BoxOverflow, ValueError) as exc:
            violations.append(f"{fam}: assembly failed: {exc}")
            continue
        if p != stored[fam]:
            violations.append(f"{fam}: stored permutation does not match "
                              "its tiles")
        if g != inst.griddings[fam]:
            violations.append(f"{fam}: stored gridding does not match "
                              "its tiles")
        if not check_gridding(p, g, inst.path.matrix):
            violations.append(f"{fam}: gridding violates the matrix")
    if len(inst.pattern) > len(inst.text):
        violations.append("pattern larger than text")
    if len(inst.pattern) != inst.sizes["pattern"] or \
            len(inst.text) != inst.sizes["text"]:
        violations.append("recorded sizes disagree with the permutations")
    return {"ok": not violations, "violations": violations}

"""Verification utilities for constructed instances.

``simulate_grid_preserving`` decides, by enumerating variable
assignments, whether the pattern admits a grid-preserving embedding into
the text; on a correct construction this agrees with satisfiability of
the source formula.  ``embedding_from_assignment`` turns a satisfying
assignment into an explicit embedding by propagating the pair
correspondence through the recorded gadget trace.
``validate_instance`` re-checks the geometric invariants of an instance
from its raw tiles.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from ..grid import BoxOverflow, Tile, TileFamily, assemble, check_gridding
from .builder import (ReductionError, ReductionInstance, TooManyVariables)

__all__ = ["validate_instance", "simulate_grid_preserving",
           "embedding_from_assignment"]


def _literal_true(lit: int, rho: Sequence[bool]) -> bool:
    return rho[abs(lit) - 1] == (lit > 0)


# --- trace propagation -------------------------------------------------------


def _map_refs(pmap, a_refs, b_refs) -> None:
    if len(a_refs) != len(b_refs):
        raise ReductionError("gadget chains of unequal length")
    for a, b in zip(a_refs, b_refs):
        if a[0] != b[0]:
            raise ReductionError("cross-tile point image")
        pmap[a] = b


def _anchor_refs(tile: Tile) -> List[Tuple[int, int]]:
    """Tile 0's inflated anchors, then all of their run points."""
    n = len(tile.x_na)
    return [(0, k) for k, _ in tile.runs] + [
        (0, i) for i in range(n, n + sum(r for _, r in tile.runs))]


def _propagate(inst: ReductionInstance, rho: Sequence[bool],
               b_choices: Dict[int, int]):
    """Follow the gadget trace under ``rho`` and map every pattern point
    onto its forced text image."""
    cons = {}      # text pid -> the gadget that takes it as an input
    initial = {"P": [], "T": []}
    for rec in inst.trace:
        if rec.family == "T":
            for pid in rec.inputs:
                cons[pid] = rec
        if rec.kind == "initial":
            initial[rec.family].append(rec)
    imap: Dict[int, int] = {}
    pmap = {}

    # the i-th initial pattern pair starts on the i-th initial text pair
    for prec, trec in zip(initial["P"], initial["T"]):
        imap[prec.outputs[0]] = trec.outputs[0]
        _map_refs(pmap, prec.slots["pts"], trec.slots["pts"])
    cell0 = inst.path.cells[0]
    _map_refs(pmap, _anchor_refs(inst.families["P"].tiles[cell0]),
              _anchor_refs(inst.families["T"].tiles[cell0]))

    for rec in inst.trace:
        if rec.family != "P" or rec.kind == "initial":
            continue
        images = []
        for pid in rec.inputs:
            if pid not in imap:
                raise ReductionError("pattern pair consumed before mapped")
            images.append(imap[pid])

        if rec.kind == "fliptext":
            # a committed duo must meet a text flip as a whole
            t1 = cons.get(images[0])
            t2 = cons.get(images[1])
            if t1 is None or t1 is not t2 or t1.kind != "fliptext" or \
                    (images[0], images[1]) != t1.inputs:
                raise ReductionError(
                    "swap commitments do not meet a text flip duo")
            _map_refs(pmap, rec.slots["a1"], t1.slots["a1"])
            _map_refs(pmap, rec.slots["a2"], t1.slots["a2"])
            imap[rec.outputs[0]] = t1.outputs[0]
            imap[rec.outputs[1]] = t1.outputs[1]
            continue

        (img,) = images
        trec = cons.get(img)
        if trec is None:
            raise ReductionError("pattern advances past a frozen text pair")

        if (rec.kind, trec.kind) in (("copy", "copy"), ("bucket", "bucket"),
                                     ("flippat", "flippat"),
                                     ("follow", "merge"), ("pick", "pick")):
            _map_refs(pmap, rec.slots["pts"], trec.slots["pts"])
            imap[rec.outputs[0]] = trec.outputs[0]
            continue

        if rec.kind == "pick" and trec.kind == "choose":
            meta = rec.meta
            if meta and meta[0] == "assign":
                beta = 0 if rho[meta[1] - 1] else 1
            elif meta and meta[0] == "swap":
                _, idx, t_ids, partner = meta
                pimg = imap.get(partner)
                if pimg is None:
                    raise ReductionError("swap partner not yet mapped")
                first = pimg == (t_ids[2] if idx == 0 else t_ids[0])
                beta = 0 if first else 1
            elif meta and meta[0] == "eval":
                beta = b_choices[meta[1]]
            else:
                raise ReductionError("pick meets a choose without a rule")
            slot = "b1" if beta == 0 else "b2"
            _map_refs(pmap, rec.slots["pts"], trec.slots[slot])
            imap[rec.outputs[0]] = trec.outputs[beta]
            continue

        if rec.kind == "flippat" and trec.kind == "fliptext":
            side = 0 if img == trec.inputs[0] else 1
            key = "a1" if side == 0 else "a2"
            _map_refs(pmap, rec.slots["pts"], trec.slots[key])
            imap[rec.outputs[0]] = trec.outputs[side]
            continue

        if rec.kind == "multiply" and trec.kind == "multiply":
            _map_refs(pmap, rec.slots["b1"], trec.slots["b1"])
            _map_refs(pmap, rec.slots["b2"], trec.slots["b2"])
            imap[rec.outputs[0]] = trec.outputs[0]
            imap[rec.outputs[1]] = trec.outputs[1]
            continue

        raise ReductionError(
            f"pattern {rec.kind} gadget cannot map onto text {trec.kind}")

    return pmap


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
    b_choices = {c: (0 if _literal_true(cl[0], rho) else 1)
                 for c, cl in enumerate(inst.formula.clauses)}
    pmap = _propagate(inst, rho, b_choices)
    if len(pmap) != inst.sizes["pattern"]:
        raise ReductionError(
            f"propagation covered {len(pmap)} of "
            f"{inst.sizes['pattern']} pattern points")

    prov_p, prov_t = inst.prov["P"], inst.prov["T"]
    cells = inst.path.cells
    emb = [-1] * len(inst.pattern)
    for (t1, i1), (t2, i2) in pmap.items():
        emb[prov_p[cells[t1]][i1] - 1] = prov_t[cells[t2]][i2] - 1

    if any(e < 0 for e in emb):
        raise ReductionError("embedding misses pattern positions")
    if any(a >= b for a, b in zip(emb, emb[1:])):
        raise ReductionError("embedding is not left-to-right monotone")
    vals = [inst.text[e] for e in emb]
    rank = {v: i + 1 for i, v in enumerate(sorted(vals))}
    if tuple(rank[v] for v in vals) != inst.pattern.ranks:
        raise ReductionError("embedding does not respect value order")
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

"""Tiny hand-driven assemblies for exercising one gadget at a time.

A micro assembly seeds a handful of value channels on a short staircase
path (no anchors, no inflation), drives a single builder layer, and
assembles both families so grid-preserving embeddings can be enumerated
exhaustively.
"""

from gridppm.entries import FIBP, INC
from gridppm.grid import Tile, TileFamily, assemble, cell_positions, staircase
from gridppm.reduction.builder import _Builder, make_path_spec
from gridppm.sat import CNFFormula


def micro(channels):
    """A builder seeded with diagonal channels; ``channels`` maps the
    family ("P"/"T") to a list of (lo, hi) integer value pairs."""
    spec = make_path_spec(staircase(4, INC, FIBP))
    n = max(len(v) for v in channels.values())
    b = _Builder(CNFFormula(n, ()), spec, "gadgets", geometry=True)
    for fam in "PT":
        ids = []
        for k, (lo, hi) in enumerate(channels[fam], 1):
            ids += b._gadget("initial", fam, 0, (), [(("var", k), "")],
                             args=(lo, hi))
        b.live[fam] = ids
    return b


def finish_micro(b):
    """Assemble both families; returns {fam: (perm, prov, gridding)}."""
    out = {}
    for fam in "PT":
        tf = TileFamily(b.path.matrix.cols, b.path.matrix.rows,
                        {b.path.cells[t]: Tile(tuple(pts), b.bound)
                         for t, pts in b.tiles[fam].items() if pts},
                        b.bound)
        out[fam] = assemble(tf, b.path.orientation)
    return out


def pair_positions(b, prov, fam, pid):
    """0-based assembled positions of a pair's two points, sorted."""
    return tuple(sorted(prov[(b.path.cells[t], i)] - 1
                        for (t, i) in b.pairs[(fam, pid)].pts))


def chain_positions(b, prov, fam, kind, slot=None):
    """0-based positions of every flip chain of the given trace kind."""
    out = []
    for rec in b.trace:
        if rec.kind == kind and rec.family == fam:
            refs = rec.slots["pts"] if slot is None else rec.slots[slot]
            out.append(tuple(sorted(prov[(b.path.cells[t], i)] - 1
                                    for (t, i) in refs)))
    return out


def cell_of(p, g):
    """The cell of each 0-based position of p under the gridding g."""
    out = [None] * len(p)
    for cell, qs in cell_positions(p, g).items():
        for q in qs:
            out[q] = cell
    return out


def grid_allowed(p, gp, t, gt):
    """For each pattern position, the text positions in its cell: the
    allowed lists that make ``perm.embeddings`` grid-preserving."""
    tcells = cell_positions(t, gt)
    return [tcells.get(cell, []) for cell in cell_of(p, gp)]

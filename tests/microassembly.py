"""Test helpers for tiles, assemblies and permutation sums.

A micro assembly seeds a handful of value channels on a short staircase
path (no anchors, no inflation), drives a single builder layer, and
assembles both families so grid-preserving embeddings can be enumerated
exhaustively.

``make_tile`` is the one way tests build a ``grid.Tile`` from plane
points, and ``tile_points`` reads one back.  ``direct_sum``,
``skew_sum`` and ``inflate`` are the textbook permutation operations,
kept here as oracles for the tests.
"""

from fractions import Fraction

from gridppm.coords import ExactCoord, PlanePoint, pt
from gridppm.entries import FIBP, INC
from gridppm.grid import Tile, TileFamily, assemble, cell_positions, staircase
from gridppm.perm import Permutation, standardize
from gridppm.reduction.builder import _Builder, make_path_spec
from gridppm.sat import CNFFormula


# --- tiles -------------------------------------------------------------------


def make_tile(points, runs=()):
    """A tile holding the given ``PlanePoint``s, in order."""
    xs = [p.x for p in points]
    ys = [p.y for p in points]
    cols = [[c.na for c in xs], [c.nb for c in xs], [c.den for c in xs],
            [c.na for c in ys], [c.nb for c in ys], [c.den for c in ys]]
    return Tile(*cols, tuple(runs))


def tile_points(tile):
    """The tile's column points as ``PlanePoint``s, in order."""
    return [PlanePoint(ExactCoord(xa, xb, xd), ExactCoord(ya, yb, yd))
            for xa, xb, xd, ya, yb, yd in zip(
                tile.x_na, tile.x_nb, tile.x_den,
                tile.y_na, tile.y_nb, tile.y_den)]


# --- micro assemblies --------------------------------------------------------


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
                        {b.path.cells[t]: Tile(*cols)
                         for t, cols in b.tiles[fam].items()},
                        b.bound)
        out[fam] = assemble(tf, b.path.orientation)
    return out


def _positions(b, prov, refs):
    return tuple(sorted(prov[b.path.cells[t]][i] - 1 for (t, i) in refs))


def pair_positions(b, prov, fam, pid):
    """0-based assembled positions of a pair's two points, sorted.  The
    pair is the last two points of the trace slot that emitted it."""
    rec = next(r for r in b.trace if r.family == fam and pid in r.outputs)
    refs = list(rec.slots.values())[rec.outputs.index(pid)]
    return _positions(b, prov, refs[-2:])


def chain_positions(b, prov, fam, kind, slot=None):
    """0-based positions of every flip chain of the given trace kind."""
    return [_positions(b, prov, rec.slots["pts" if slot is None else slot])
            for rec in b.trace if rec.kind == kind and rec.family == fam]


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


# --- sums and inflation ------------------------------------------------------


class IndexOutOfRange(IndexError):
    pass


def direct_sum(p, q):
    return Permutation(p.ranks + tuple(v + len(p) for v in q.ranks))


def skew_sum(p, q):
    return Permutation(tuple(v + len(q) for v in p.ranks) + q.ranks)


def inflate(p, index, q):
    """Replace the point of p at position `index` (1-based) by a copy of
    q shrunk into its cell: the point (x, y) becomes the set
    {(x + qx/(m+1), y + qy/(m+1))}.
    """
    if not 1 <= index <= len(p):
        raise IndexOutOfRange(f"index {index} not in 1..{len(p)}")
    m = len(q)
    pts = []
    for x, y in p.points():
        if x == index:
            for qx, qy in q.points():
                pts.append(pt(x + Fraction(qx, m + 1),
                              y + Fraction(qy, m + 1)))
        else:
            pts.append(pt(x, y))
    return standardize(pts)

"""Test helpers for tiles, assemblies and permutation sums.

A micro assembly seeds a handful of value channels on a short staircase
path (no anchors, no inflation), drives a single builder layer, and
assembles both families so grid-preserving embeddings can be enumerated
exhaustively.

``make_tile`` is the one way tests build a ``grid.Tile`` from plane
points (``pt``), and ``tile_points`` reads one back.  ``standardize``,
``direct_sum``, ``skew_sum`` and ``inflate`` are the textbook
permutation operations, kept here as oracles for the tests.
``slot_refs`` and ``gadgets_of`` read a builder's gadget trace.
"""

from fractions import Fraction
from typing import NamedTuple

from gridppm.coords import ExactCoord, coord
from gridppm.entries import FIBP, INC
from gridppm.grid import Tile, TileFamily, assemble, cell_positions, staircase
from gridppm.perm import Permutation
from gridppm.reduction.builder import KINDS, _Builder, make_path_spec
from gridppm.sat import CNFFormula


# --- plane points ------------------------------------------------------------


class PlanePoint(NamedTuple):
    """A point (x, y); immutable, ordered on x, then y."""
    x: ExactCoord
    y: ExactCoord


def pt(x, y):
    """A plane point from two rationals or ``ExactCoord``s."""
    if not isinstance(x, ExactCoord):
        x = coord(x)
    if not isinstance(y, ExactCoord):
        y = coord(y)
    return PlanePoint(x, y)


class DuplicateCoordinate(ValueError):
    """Two points agree on x or on y; the set has no reduction."""


def standardize(points):
    """The reduction of a finite point set: sort by x, rank by y.

    Raises DuplicateCoordinate when two points tie on x or on y under
    the full lexicographic comparison.
    """
    pts = list(points)
    xs = sorted(p.x for p in pts)
    ys = sorted(p.y for p in pts)
    for u, v in zip(xs, xs[1:]):
        if u == v:
            raise DuplicateCoordinate(f"duplicate x coordinate {u}")
    for u, v in zip(ys, ys[1:]):
        if u == v:
            raise DuplicateCoordinate(f"duplicate y coordinate {u}")
    by_x = sorted(pts, key=lambda p: p.x)
    rank = {p.y: i + 1 for i, p in enumerate(sorted(pts, key=lambda p: p.y))}
    return Permutation(tuple(rank[p.y] for p in by_x))


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
            ids += b._gadget("initial", fam, 0, (), args=(lo, hi),
                             tag=("var", k))
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


def slot_refs(trace, j):
    """(tile, index) of each point of output j's slot in a ``Trace``."""
    a, b = trace.slot_off[j], trace.slot_off[j + 1]
    return list(zip(trace.slot_tile[a:b], trace.slot_idx[a:b]))


def gadgets_of(trace, fam, kind=None):
    """The trace's gadgets of one family ("P"/"T"), and of one kind when
    given, in emission order."""
    return [g for g in range(len(trace)) if "PT"[trace.fam[g]] == fam
            and (kind is None or KINDS[trace.kind[g]] == kind)]


def _positions(b, prov, refs):
    return tuple(sorted(prov[b.path.cells[t]][i] - 1 for (t, i) in refs))


def pair_positions(b, prov, fam, pid):
    """0-based assembled positions of a pair's two points, sorted.  The
    pair is the last two points of the trace slot that emitted it."""
    tr = b.trace
    j = next(j for g in gadgets_of(tr, fam)
             for j in range(tr.out_off[g], tr.out_off[g + 1])
             if tr.outs[j] == pid)
    return _positions(b, prov, slot_refs(tr, j)[-2:])


def slot_positions(b, prov, fam, kind, slot=0):
    """0-based positions of the points of output ``slot`` of every
    gadget of the given trace kind: a pair, or a whole flip chain."""
    tr = b.trace
    return [_positions(b, prov, slot_refs(tr, tr.out_off[g] + slot))
            for g in gadgets_of(tr, fam, kind)]


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

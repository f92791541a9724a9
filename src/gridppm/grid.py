"""Gridding matrices and everything built on top of them.

A k x l gridding matrix has k columns and l rows of cell classes; rows
are numbered 1..l from bottom to top.  A matrix stores only its filled
(non-empty) cells, since the refined path matrices of the reduction are
almost all empty.  This module provides path and cycle shapes,
gridding search and verification, orientations, refinements, staircase
matrices, the rich-path construction, and F-assembly of tile families.
"""

from __future__ import annotations

import bisect
import itertools
import math
import json
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import entries as E
from .coords import ExactCoord
from .entries import ClassEntry
from .perm import Permutation

Cell = Tuple[int, int]  # (column, row), both 1-based


class DimensionMismatch(ValueError):
    pass


class NotClosedEntry(ValueError):
    pass


class NoCycle(ValueError):
    pass


class MultipleDEntries(ValueError):
    pass


class BoxOverflow(ValueError):
    pass


class ConstructionError(RuntimeError):
    """A construction broke a guarantee it rests on: a bug in this
    module, never a property of the input."""


@dataclass(frozen=True)
class GriddingMatrix:
    """A cols x rows matrix of cell classes, stored sparsely.

    ``filled`` maps each cell (column, row; row 1 = bottom) that holds a
    non-empty class to that class.  Every other cell is empty.
    """
    cols: int
    rows: int
    filled: Dict[Cell, ClassEntry]

    def __post_init__(self) -> None:
        if self.cols < 1 or self.rows < 1:
            raise ValueError("matrix must be at least 1x1")
        for (i, j), e in self.filled.items():
            if not (1 <= i <= self.cols and 1 <= j <= self.rows):
                raise DimensionMismatch(
                    f"cell {(i, j)} outside {self.cols}x{self.rows}")
            if E.is_empty(e):
                raise ValueError(f"cell {(i, j)} filled with the empty class")

    def entry(self, i: int, j: int) -> ClassEntry:
        return self.filled.get((i, j), E.EMPTY_E)

    def nonempty_cells(self) -> List[Cell]:
        """The filled cells in column-major order."""
        return sorted(self.filled)


def matrix_from_rows_top_down(rows: Sequence[Sequence[ClassEntry]]) -> GriddingMatrix:
    """Build a matrix from rows listed top-to-bottom (the human and file
    convention), converting to bottom-to-top indexing."""
    l = len(rows)
    k = len(rows[0]) if rows else 0
    if any(len(r) != k for r in rows):
        raise DimensionMismatch("ragged rows")
    return GriddingMatrix(k, l, {(i, l - t): e for t, row in enumerate(rows)
                                 for i, e in enumerate(row, 1)
                                 if not E.is_empty(e)})


def matrix_from_obj(obj) -> GriddingMatrix:
    """The matrix {"cols": k, "rows": l, "entries": rows top to bottom},
    as ``json.load`` gives it.  Every malformed input raises ValueError."""
    if not (isinstance(obj, dict)
            and {"cols", "rows", "entries"} <= obj.keys()):
        raise ValueError('matrix must be an object with "cols", "rows" '
                         'and "entries"')
    k, l, rows = obj["cols"], obj["rows"], obj["entries"]
    if not (isinstance(rows, list)
            and all(isinstance(row, list)
                    and all(isinstance(s, str) for s in row)
                    for row in rows)):
        raise ValueError('"entries" must be a list of rows of entry strings')
    m = matrix_from_rows_top_down([[E.parse_entry(s) for s in row]
                                   for row in rows])
    if m.cols != k or m.rows != l:
        raise DimensionMismatch(
            f"declared {k}x{l}, entries give {m.cols}x{m.rows}")
    return m


def parse_matrix_json(text: str) -> GriddingMatrix:
    """``matrix_from_obj`` of a JSON text."""
    try:
        obj = json.loads(text)
    except RecursionError:   # the C decoder's answer to deep nesting
        raise ValueError("matrix JSON nests too deeply") from None
    return matrix_from_obj(obj)


def matrix_to_obj(m: GriddingMatrix) -> Dict:
    """The dense file form: every cell, rows top to bottom."""
    rows = [[E.format_entry(E.EMPTY_E)] * m.cols for _ in range(m.rows)]
    for (i, j), e in m.filled.items():
        rows[m.rows - j][i - 1] = E.format_entry(e)
    return {"cols": m.cols, "rows": m.rows, "entries": rows}


# --- path and cycle shapes -------------------------------------------------

def cell_walk(m: GriddingMatrix) -> Tuple[str, List[Cell]]:
    """The shape of m's cell graph, and its cells in walk order.

    The cell graph joins two filled cells of one row or column when no
    filled cell lies between them.  The result is ("ProperTurningPath",
    cells from the smaller end; a single cell counts),
    ("ProperTurningCycle", cells in walk order) or ("Other", []).

    A proper-turning path or cycle turns at every cell: of a cell's two
    neighbours, one shares its row and one its column.  Three filled
    cells in one row or column would give the middle one both its
    neighbours in that line, so a matrix with them is "Other".  Without
    them each cell has at most one neighbour in its row and one in its
    column, so every cell with two neighbours turns, and every connected
    piece of the graph is a path or a cycle.  One walk, from the
    smallest cell with fewer than two neighbours or else from the first
    cell, then decides the shape: the matrix is connected exactly when
    the walk visits every filled cell.
    """
    cells = m.nonempty_cells()
    lines: Dict[Tuple[int, int], List[Cell]] = {}   # (0, col) or (1, row)
    for c in cells:
        lines.setdefault((0, c[0]), []).append(c)
        lines.setdefault((1, c[1]), []).append(c)
    if not cells or any(len(line) > 2 for line in lines.values()):
        return "Other", []
    nbrs = {c: [o for o in lines[0, c[0]] + lines[1, c[1]] if o != c]
            for c in cells}
    start = next((c for c in cells if len(nbrs[c]) < 2), cells[0])
    walk, prev = [start], None
    while nxt := [o for o in nbrs[walk[-1]] if o not in (prev, start)]:
        prev = walk[-1]
        walk.append(nxt[0])
    if len(walk) < len(cells):
        return "Other", []
    if len(nbrs[start]) < 2:
        return "ProperTurningPath", walk
    return "ProperTurningCycle", walk


# --- griddings ------------------------------------------------------------

@dataclass(frozen=True)
class Gridding:
    col_cuts: Tuple[int, ...]
    row_cuts: Tuple[int, ...]

    def __post_init__(self) -> None:
        for cuts in (self.col_cuts, self.row_cuts):
            if any(a > b for a, b in zip(cuts, cuts[1:])):
                raise ValueError("cuts must be weakly increasing")


def gridding_to_obj(g: Gridding) -> Dict:
    return {"col_cuts": list(g.col_cuts), "row_cuts": list(g.row_cuts)}


def cell_positions(p: Permutation, g: Gridding) -> Dict[Cell, List[int]]:
    """The 0-based positions of p in each occupied cell of the gridding
    g, ascending.  The cuts of g must run from 1 to len(p) + 1.

    A column is a contiguous run of positions, so each column is walked
    in turn; a value's row is read from a table."""
    ranks, rc = p.ranks, g.row_cuts
    row_of = [0] * (len(p) + 1)
    for j in range(1, len(rc)):
        row_of[rc[j - 1]:rc[j]] = [j] * (rc[j] - rc[j - 1])
    cells: Dict[Cell, List[int]] = {}
    cc = g.col_cuts
    for i in range(1, len(cc)):
        for pos in range(cc[i - 1] - 1, cc[i] - 1):
            cells.setdefault((i, row_of[ranks[pos]]), []).append(pos)
    return cells


def _standardize(vs: Sequence[int]) -> Permutation:
    rank = {v: t + 1 for t, v in enumerate(sorted(vs))}
    return Permutation(tuple(rank[v] for v in vs))


def _cell_contents_sparse(p: Permutation, g: Gridding
                          ) -> Dict[Cell, Permutation]:
    """Standardization of each non-empty cell of p under the gridding g."""
    return {cell: _standardize([p.ranks[q] for q in qs])
            for cell, qs in cell_positions(p, g).items()}


def _fits(e: ClassEntry, vs: Sequence[int]) -> bool:
    """Whether values vs, in position order, form a member of e.  A
    monotone entry is one scan of vs; other kinds standardize first."""
    if e.kind in ("inc", "dec"):
        return E.is_monotone_run(vs, e.kind)
    if e.kind == "empty":
        return not vs
    return E.entry_contains(e, _standardize(vs))


def check_gridding(p: Permutation, g: Gridding, m: GriddingMatrix) -> bool:
    n = len(p)
    if len(g.col_cuts) != m.cols + 1 or len(g.row_cuts) != m.rows + 1:
        return False
    if g.col_cuts[0] != 1 or g.col_cuts[-1] != n + 1:
        return False
    if g.row_cuts[0] != 1 or g.row_cuts[-1] != n + 1:
        return False
    # empty cells satisfy every entry; only filled cells need checking
    return all(_fits(m.entry(*cell), [p.ranks[q] for q in qs])
               for cell, qs in cell_positions(p, g).items())


def all_griddings(p: Permutation, m: GriddingMatrix):
    """All valid griddings of p, in lexicographic order of
    (col_cuts, row_cuts).

    For each column cut vector, the row cuts are placed bottom to top by
    an iterative search.  Row j is checked as soon as its top cut is
    placed; when one of its cells fails, no higher top cut is tried,
    because every entry is a permutation class and raising the cut only
    adds points to the row.  Each column keeps its points sorted by
    value, so a row's cell is a slice found by bisection.
    """
    n = len(p)
    k, l = m.cols, m.rows
    col_entries = [[m.entry(i, j) for j in range(1, l + 1)]
                   for i in range(1, k + 1)]
    for ccut in itertools.combinations_with_replacement(range(1, n + 2),
                                                        k - 1):
        cols = (1,) + ccut + (n + 1,)
        # per column: values ascending, and the positions in that order
        vals, poss = [], []
        for i in range(k):
            pts = sorted((p[q], q) for q in range(cols[i] - 1,
                                                  cols[i + 1] - 1))
            vals.append([v for v, _ in pts])
            poss.append([q for _, q in pts])

        def row_fits(j: int, lo: int, hi: int) -> bool:
            """Row j (1-based) holding the values in [lo, hi).  A monotone
            cell is checked on its positions in value order, which rise
            or fall exactly when its values do."""
            for i in range(k):
                a = bisect.bisect_left(vals[i], lo)
                ps = poss[i][a:bisect.bisect_left(vals[i], hi, a)]
                e = col_entries[i][j - 1]
                if ps and not _fits(e, ps if E.is_monotone(e)
                                    else [p[q] for q in sorted(ps)]):
                    return False
            return True

        # rows[j] is the bottom cut of row j + 1; rows[l] = n + 1 is fixed
        rows = [1] * l + [n + 1]
        j = 1
        while j > 0:
            if j == l:
                if row_fits(l, rows[l - 1], n + 1):
                    yield Gridding(cols, tuple(rows))
            elif rows[j] <= n + 1 and row_fits(j, rows[j - 1], rows[j]):
                j += 1
                if j < l:
                    rows[j] = rows[j - 1]
                continue
            # this level is exhausted: raise the cut below it
            j -= 1
            rows[j] += 1


def find_gridding(p: Permutation, m: GriddingMatrix) -> Optional[Gridding]:
    """Lexicographically least valid gridding of p, or None."""
    return next(all_griddings(p, m), None)


# --- orientations ---------------------------------------------------------

@dataclass(frozen=True)
class Orientation:
    f_c: Tuple[int, ...]
    f_r: Tuple[int, ...]

    def __post_init__(self) -> None:
        if any(v not in (-1, 1) for v in self.f_c + self.f_r):
            raise ValueError("orientation values must be +-1")

    def col(self, i: int) -> int:
        return self.f_c[i - 1]

    def row(self, j: int) -> int:
        return self.f_r[j - 1]


def identity_orientation(k: int, l: int) -> Orientation:
    return Orientation((1,) * k, (1,) * l)


def orient_by_propagation(m: GriddingMatrix, want_plus
                          ) -> Optional[Orientation]:
    """2-colour columns/rows so that each non-empty entry (i,j) has
    f_c(i)*f_r(j) equal to want_plus(entry), +1 or -1.
    In every connected component the largest-indexed column is anchored
    to +1 (canonical representative)."""
    sign: Dict[Tuple[str, int], int] = {}
    nodes = [("c", i) for i in range(1, m.cols + 1)] + \
            [("r", j) for j in range(1, m.rows + 1)]
    adj: Dict[Tuple[str, int], List[Tuple[Tuple[str, int], int]]] = \
        {v: [] for v in nodes}
    for (i, j), e in m.filled.items():
        w = want_plus(e)
        adj[("c", i)].append((("r", j), w))
        adj[("r", j)].append((("c", i), w))
    for start in [("c", i) for i in range(m.cols, 0, -1)] + \
                 [("r", j) for j in range(m.rows, 0, -1)]:
        if start in sign:
            continue
        sign[start] = 1
        stack = [start]
        while stack:
            v = stack.pop()
            for w, rel in adj[v]:
                need = sign[v] * rel
                if w in sign:
                    if sign[w] != need:
                        return None
                else:
                    sign[w] = need
                    stack.append(w)
    return Orientation(tuple(sign[("c", i)] for i in range(1, m.cols + 1)),
                       tuple(sign[("r", j)] for j in range(1, m.rows + 1)))


def sum_closing_orientation(m: GriddingMatrix) -> Optional[Orientation]:
    """An orientation under which every non-empty entry's image is
    sum-closed; None if propagation conflicts.  A sum-closed entry is
    asked +1 even when it is also skew-closed, since ``refine`` lays it
    out on the diagonal."""
    def want(e: ClassEntry) -> int:
        if E.sum_closed(e):
            return 1
        if E.skew_closed(e):
            return -1
        raise NotClosedEntry(f"entry {E.format_entry(e)} is neither sum- "
                             "nor skew-closed")
    return orient_by_propagation(m, want)


# --- refinement, staircases, rich paths ------------------------------------

def refine(m: GriddingMatrix, q: int) -> GriddingMatrix:
    """Replace each sum-closed entry by a q x q diagonal block and each
    skew-closed entry by an anti-diagonal block."""
    filled = {}
    for (i, j), e in m.filled.items():
        if E.sum_closed(e):
            for t in range(1, q + 1):
                filled[(i - 1) * q + t, (j - 1) * q + t] = e
        elif E.skew_closed(e):
            for t in range(1, q + 1):
                filled[(i - 1) * q + t, j * q + 1 - t] = e
        else:
            raise NotClosedEntry(f"entry {E.format_entry(e)} at {(i, j)}")
    return GriddingMatrix(q * m.cols, q * m.rows, filled)


def staircase(k: int, c: ClassEntry, d: ClassEntry) -> GriddingMatrix:
    """The k-step increasing staircase: main-diagonal entries equal to c
    with d on the adjacent lower diagonal, i.e. cell (i, i) holds c and
    cell (i+1, i) holds d for i in [k]; k+1 columns, k rows."""
    if k < 1:
        raise ValueError("k must be >= 1")
    filled = {}
    for i in range(1, k + 1):
        filled[i, i] = c
        filled[i + 1, i] = d
    return GriddingMatrix(k + 1, k, {cc: e for cc, e in filled.items()
                                     if not E.is_empty(e)})


def build_rich_path(m: GriddingMatrix, length: int) -> GriddingMatrix:
    """Turn a proper-turning-cycle matrix with a single non-monotone
    entry D into a matrix whose cell graph is one long proper-turning
    path holding ``length`` D cells (``2 * length`` when the cycle must
    first be refined by 2 to orient).  ``cell_walk`` gives its order."""
    if length < 1:
        raise ValueError(f"rich path length must be at least 1, got {length}")
    if cell_walk(m)[0] != "ProperTurningCycle":
        raise NoCycle("cell graph is not a single proper-turning cycle")
    ds = [e for e in m.filled.values() if not E.is_monotone(e)]
    if len(ds) != 1:
        raise MultipleDEntries(f"need exactly one D entry, got {len(ds)}")
    d_entry = ds[0]
    if not (E.sum_closed(d_entry) or E.skew_closed(d_entry)):
        raise NotClosedEntry("D entry must be sum- or skew-closed")

    base = m
    f = sum_closing_orientation(base)
    if f is None:
        base = refine(m, 2)
        f = sum_closing_orientation(base)
        if f is None:
            raise ConstructionError(
                "x2 refinement always admits an orientation")

    L = length
    refined = refine(base, L)

    # characteristic labels of the refined columns/rows
    def col_label(a: int) -> int:  # a is 1-based in the refined matrix
        i, t = divmod(a - 1, L)
        return t + 1 if f.col(i + 1) == 1 else L - t

    def row_label(b: int) -> int:
        j, t = divmod(b - 1, L)
        return t + 1 if f.row(j + 1) == 1 else L - t

    # first non-empty monotone entry of the base matrix hosts the shift
    si, sj = min(cc for cc, e in base.filled.items() if E.is_monotone(e))
    shift_entry = base.filled[si, sj]

    # empty the refined block of that entry, then write the L - 1 shifts
    col_range = range((si - 1) * L + 1, si * L + 1)
    row_range = range((sj - 1) * L + 1, sj * L + 1)
    filled = {(a, b): e for (a, b), e in refined.filled.items()
              if a not in col_range or b not in row_range}
    col_of_label = {col_label(a): a for a in col_range}
    row_of_label = {row_label(b): b for b in row_range}
    for s in range(1, L):
        filled[col_of_label[s], row_of_label[s + 1]] = shift_entry

    out = GriddingMatrix(refined.cols, refined.rows, filled)
    if cell_walk(out)[0] != "ProperTurningPath":
        raise ConstructionError("rich path matrix is not a proper-turning path")
    return out


# --- tiles and F-assembly ---------------------------------------------------

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class Tile:
    """A finite set of plane points in general position inside the open
    box (1/2, b + 1/2)^2, where b is the ``box_bound`` of the tile's
    ``TileFamily``.  ``assemble`` checks both.

    The points are stored as integer columns, one entry per point: point
    k has x = (x_na[k] + x_nb[k]*eps) / x_den[k], and y likewise, in the
    representation of ``coords.ExactCoord``.  Plain ints in lists keep
    the cyclic garbage collector away from the 10^5 points of a reduction
    instance.

    ``runs`` inflates some of the points.  An entry (k, r) stands for an
    increasing run of r more points just after point k, nearer to it on
    both axes than any other point of the plane.  The run points are
    indexed after the points of the columns, run by run in the order
    listed.
    """
    x_na: List[int]
    x_nb: List[int]
    x_den: List[int]
    y_na: List[int]
    y_nb: List[int]
    y_den: List[int]
    runs: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len({len(self.x_na), len(self.x_nb), len(self.x_den),
                len(self.y_na), len(self.y_nb), len(self.y_den)}) != 1:
            raise ValueError("tile columns differ in length")


@dataclass(frozen=True)
class TileFamily:
    """One tile per non-empty cell of a cols x rows grid.  Every tile
    lies in the box (1/2, box_bound + 1/2)^2; the family holds the one
    bound they all share."""
    cols: int
    rows: int
    tiles: Dict[Cell, Tile] = field(default_factory=dict)
    box_bound: Fraction = Fraction(1)


def _placed_keys(na: List[int], nb: List[int], den: List[int],
                 mult: Dict[int, int], shift: int, flip_at: int, off: int
                 ) -> List[int]:
    """Exact integer sort keys of the coordinates (na + nb*eps)/den on
    the common denominator (``mult`` maps each denominator to its
    multiplier), translated by ``off`` and, when ``flip_at`` is
    non-zero, reflected as v -> flip_at - v.  A key is a << shift plus
    b for the scaled parts (a, b); every |b| is below 2**(shift - 1), so
    keys compare as the pairs (a, b) do."""
    ms = map(mult.__getitem__, den)
    if flip_at:
        base = flip_at + off
        return [((base - a * m) << shift) - b * m
                for a, b, m in zip(na, nb, ms)]
    return [((a * m + off) << shift) + b * m for a, b, m in zip(na, nb, ms)]


def assemble(fam: TileFamily, f: Orientation
             ) -> Tuple[Permutation, Dict[Cell, array], Gridding]:
    """F-assembly: orient each tile, translate it onto the diagonal grid
    of boxes, and standardize the union.

    Every tile is checked on the way: its points must lie in the open
    box (1/2, fam.box_bound + 1/2)^2 (else BoxOverflow) and share no x
    and no y (else ValueError).

    Coordinate ties between different tiles are resolved as if the whole
    picture were rotated clockwise by a tiny angle: on equal x the point
    with larger y ends up further right; on equal y the point with
    larger x ends up lower.

    Runs are expanded after the points are sorted: a point inflated by
    r run points takes r + 1 consecutive positions and values, itself
    first on an axis its tile keeps and last on an axis it flips.

    Returns the permutation, a provenance map from each non-empty cell to
    an ``array('i')`` of the permutation positions (1-based) of its
    points, indexed as in the tile (column points, then run points), and
    the induced gridding.
    """
    if len(f.f_c) != fam.cols or len(f.f_r) != fam.rows:
        raise DimensionMismatch("orientation does not match the family")
    mb = fam.box_bound
    tiles = [(cell, tile) for cell, tile in fam.tiles.items() if tile.x_na]

    # one pass of exact integer keys on a common denominator, with the
    # translations and orientation flips folded in: the box and
    # general-position checks and the big sorts below compare plain
    # ints, and no coordinate arithmetic happens per point.  A flip maps
    # each box onto itself, so the box test needs no unflipping.
    dens = {2, mb.denominator}
    nbmax = 0
    for _, t in tiles:
        dens.update(t.x_den)
        dens.update(t.y_den)
        nbmax = max(nbmax, max(t.x_nb), -min(t.x_nb),
                    max(t.y_nb), -min(t.y_nb))
    common = math.lcm(*dens)
    mult = {d: common // d for d in dens}
    shift = (nbmax * max(mult.values())).bit_length() + 1
    half = common // 2
    mbi = mb.numerator * (common // mb.denominator)
    flipi = mbi + common          # mb + 1, scaled
    xs: List[int] = []
    ys: List[int] = []
    runs = []       # (index of the inflated point, cell, r)
    spans = []      # (cell, first index, points, first run index, run points)
    nrun = 0        # run points so far
    col_counts = [0] * (fam.cols + 1)
    row_counts = [0] * (fam.rows + 1)
    for (i, j), t in tiles:
        offx = (i - 1) * mbi
        offy = (j - 1) * mbi
        kx = _placed_keys(t.x_na, t.x_nb, t.x_den, mult, shift,
                          flipi if f.col(i) == -1 else 0, offx)
        ky = _placed_keys(t.y_na, t.y_nb, t.y_den, mult, shift,
                          flipi if f.row(j) == -1 else 0, offy)
        for keys, off, axis in ((kx, offx, "x"), (ky, offy, "y")):
            if len(set(keys)) != len(keys):
                raise ValueError(f"tile not in general position on {axis}")
            lo, hi = (half + off) << shift, (mbi + half + off) << shift
            if not (lo < min(keys) and max(keys) < hi):
                k = next(k for k, v in enumerate(keys) if not lo < v < hi)
                x = ExactCoord(t.x_na[k], t.x_nb[k], t.x_den[k])
                y = ExactCoord(t.y_na[k], t.y_nb[k], t.y_den[k])
                raise BoxOverflow(f"point {k} ({x}, {y}) of tile {(i, j)} "
                                  f"outside the {mb}-box")
        core, extra = len(kx), 0
        for k, r in t.runs:
            if not (0 <= k < core and r >= 0):
                raise ValueError(f"run {(k, r)} does not fit its tile")
            runs.append((len(xs) + k, (i, j), r))
            extra += r
        spans.append(((i, j), len(xs), core, nrun, extra))
        nrun += extra
        xs += kx
        ys += ky
        col_counts[i] += core + extra
        row_counts[j] += core + extra

    # stable sorts, so points tied on both keys keep their tile order:
    # x ascending then y ascending; y ascending then x descending
    n = len(xs)
    by_x = sorted(sorted(range(n), key=ys.__getitem__), key=xs.__getitem__)
    by_y = sorted(sorted(range(n), key=xs.__getitem__, reverse=True),
                  key=ys.__getitem__)

    # an inflated point becomes the block of itself and its run points,
    # which are indexed after all the column points
    blocks = {}
    nxt = n
    for k, cell, r in runs:
        blocks.setdefault(k, (cell, [k]))[1].extend(range(nxt, nxt + r))
        nxt += r
    xblock, yblock = {}, {}
    for k, ((i, j), block) in blocks.items():
        xblock[k], yblock[k] = block[::f.col(i)], block[::f.row(j)]
    order_x = [e for k in by_x for e in xblock.get(k, (k,))]
    order_y = [e for k in by_y for e in yblock.get(k, (k,))]

    yrank = [0] * nxt
    for r, k in enumerate(order_y, 1):
        yrank[k] = r
    perm_out = Permutation(tuple([yrank[k] for k in order_x]))
    pos = array("i", [0]) * nxt
    for p, k in enumerate(order_x, 1):
        pos[k] = p
    prov = {cell: pos[a:a + core] + pos[n + b:n + b + extra]
            for cell, a, core, b, extra in spans}

    ccuts = [1]
    for i in range(1, fam.cols + 1):
        ccuts.append(ccuts[-1] + col_counts[i])
    rcuts = [1]
    for j in range(1, fam.rows + 1):
        rcuts.append(rcuts[-1] + row_counts[j])
    return perm_out, prov, Gridding(tuple(ccuts), tuple(rcuts))


def random_entry_member(e: ClassEntry, size: int, rng) -> Permutation:
    """A uniform-ish random member of the entry class of a given small
    size, by rejection sampling."""
    if size == 0:
        return Permutation(())
    if E.is_empty(e):
        raise ValueError("the empty class has no non-empty members")
    if e.kind == "inc":
        return Permutation(tuple(range(1, size + 1)))
    if e.kind == "dec":
        return Permutation(tuple(range(size, 0, -1)))
    for _ in range(10000):
        ranks = list(range(1, size + 1))
        rng.shuffle(ranks)
        p = Permutation(tuple(ranks))
        if E.entry_contains(e, p):
            return p
    raise ValueError(f"no member of size {size} found for {E.format_entry(e)}")


def sample_member(m: GriddingMatrix, rng, sizes: Dict[Cell, int]
                  ) -> Tuple[Permutation, Gridding]:
    """A random member of Grid(m) with the given number of points per
    cell, together with its witnessing gridding.

    Realized by filling a tile family with random in-box coordinates and
    assembling with the identity orientation.
    """
    bound = Fraction(max(sizes.values(), default=0) + 1)
    denom = 997
    tiles: Dict[Cell, Tile] = {}
    for cell, s in sizes.items():
        if s == 0:
            continue
        content = random_entry_member(m.entry(*cell), s, rng)
        span = int(bound * denom) - 2
        xs = sorted(Fraction(1 + v, denom) + _HALF
                    for v in rng.sample(range(span), s))
        ys = sorted(Fraction(1 + v, denom) + _HALF
                    for v in rng.sample(range(span), s))
        cy = [ys[v - 1] for v in content]
        tiles[cell] = Tile([v.numerator for v in xs], [0] * s,
                           [v.denominator for v in xs],
                           [v.numerator for v in cy], [0] * s,
                           [v.denominator for v in cy])
    fam = TileFamily(m.cols, m.rows, tiles, bound)
    p, _, g = assemble(fam, identity_orientation(m.cols, m.rows))
    if not check_gridding(p, g, m):
        raise ValueError("sampled permutation violates its matrix")
    return p, g



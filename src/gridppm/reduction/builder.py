"""Construction of hard matching instances from 3-CNF formulas.

Given a 3-CNF formula and a gridding matrix whose cell graph is a long
proper-turning path with recurring non-monotone ("D") entries, this module
builds a pattern/text pair of gridded permutations such that the pattern
embeds into the text by a grid-preserving embedding exactly when the
formula is satisfiable.

The construction is organised in synchronised layers.  All live channels
(atomic pairs) sit in a single frontier tile; a layer advances every one
of them to a later tile, applying copy gadgets by default and the layer's
specific gadgets (choose/pick/multiply/merge/follow/flips/bucket copies)
to designated channels.  Layers come in four shapes:

* ``mono``     -- one step into the next tile, monotone gadgets only;
* ``dsimple``  -- copy up to the tile before the next D entry, then one
                  step into it carrying choose/pick/merge/follow gadgets;
* ``flip``     -- a span between two consecutive D entries; designated
                  adjacent duos get flip (text) gadgets, every other
                  non-anchor channel gets a single-channel flip chain,
                  anchors get plain copies;
* ``bucket``   -- one step into the next D entry whose outgoing
                  coordinate is x; every channel is copied with freshly
                  assigned outgoing values, which reorders the channels
                  and lays them out as ``BUCKET_ENTRY``.  A D entry on
                  the way whose outgoing coordinate is y gets copies.

Every layer runs one code path in both of the builder's modes: it decides
the gadgets, the output channels with their tags, freezing,
the clause layouts and the new live order the same way.  The modes differ
only inside the emission helpers.  ``geometry`` mode computes exact
points with ``ExactCoord`` arithmetic, appends each point's six ints to
its tile's columns (see ``grid.Tile``), keeps a pair's values only until
a gadget consumes the pair, and records the gadget trace as int columns
(see ``Trace``); then
``reduce_formula`` assembles the tiles into a ``ReductionInstance``;
``counting`` mode creates no coordinates and no trace, and lets a plain
copy or a flip keep its channel ids, so ``plan_layers`` computes a
``LayerPlan`` (exact sizes and the layer schedule) cheaply even for
large formulas.  Both modes keep one point total per family and raise
it in the code they share: once per gadget, per counting-mode copy and
per flip layer.  Both go on past the path's last D tile with virtual
ones, so ``PathTooShort`` reports the same counts in either mode.

Every fact is recorded once: the tiles' box bound lives on their
``TileFamily``, a point's index within its tile is the length of the
tile's columns, and every bucket pass sorts through one juxtaposition,
``BUCKET_ENTRY``.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..coords import ExactCoord
from .. import entries as E
from ..grid import (Gridding, GriddingMatrix, Orientation, Tile, TileFamily,
                    assemble, build_rich_path, cell_walk,
                    matrix_from_rows_top_down, orient_by_propagation)
from ..perm import Permutation, perm
from ..sat import CNFFormula
from . import gadgets as G

Cell = Tuple[int, int]

__all__ = [
    "ReductionError", "EmptyClause", "ClauseTooWide", "PathTooShort",
    "TooManyVariables", "NotAPath", "UnusableMatrix", "BUCKET_ENTRY",
    "normalize_3cnf", "PathSpec", "make_path_spec",
    "Trace", "KINDS", "LayerPlan", "ReductionInstance", "plan_layers",
    "default_path", "reduce_formula",
    "default_matrix", "MODES",
]

# the construction's two ways to sort the occurrences
MODES = ("gadgets", "juxtaposition")

# the monotone juxtaposition every bucket pass sorts through: two
# increasing parts side by side
BUCKET_ENTRY = E.juxth("inc", "inc")


class ReductionError(Exception):
    pass


class EmptyClause(ReductionError):
    pass


class ClauseTooWide(ReductionError):
    pass


class PathTooShort(ReductionError):
    """The path has fewer D entries than the construction needs."""

    def __init__(self, required_d: int, available_d: int):
        super().__init__(
            f"path provides {available_d} usable D entries, "
            f"construction needs {required_d}")
        self.required_d = required_d
        self.available_d = available_d


class TooManyVariables(ReductionError):
    pass


class NotAPath(ReductionError):
    pass


class UnusableMatrix(ReductionError):
    pass


# --- formulas ----------------------------------------------------------------


def normalize_3cnf(nvars: int, clauses: Sequence[Sequence[int]]) -> CNFFormula:
    """A formula of three-literal clauses, the builder's input: pad narrow
    clauses by repeating their last literal; reject wide or empty ones,
    and literals out of range."""
    out = []
    for idx, cl in enumerate(clauses):
        lits = list(cl)
        if not lits:
            raise EmptyClause(f"clause {idx + 1} is empty")
        if len(lits) > 3:
            raise ClauseTooWide(f"clause {idx + 1} has {len(lits)} literals")
        while len(lits) < 3:
            lits.append(lits[-1])
        out.append(tuple(lits))
    try:
        return CNFFormula(nvars, tuple(out))
    except ValueError as exc:
        raise ReductionError(str(exc)) from None


# --- path preparation --------------------------------------------------------


@dataclass(frozen=True)
class PathSpec:
    """A proper-turning path together with the data the builder needs."""
    matrix: GriddingMatrix
    cells: Tuple[Cell, ...]
    orientation: Orientation
    out_coord: Tuple[str, ...]   # "x"/"y": assembled coordinate shared with
                                 # the next tile (last entry is a convention)
    d_tiles: Tuple[int, ...]     # 0-based path indices of non-monotone cells


def make_path_spec(matrix: GriddingMatrix) -> PathSpec:
    shape, cells = cell_walk(matrix)
    if shape != "ProperTurningPath":
        raise NotAPath("cell graph is not a single proper-turning path")
    if len(cells) < 2:
        raise NotAPath("a path needs at least two cells")

    def shared_axis(a: Cell, b: Cell) -> str:
        return "row" if a[1] == b[1] else "col"

    # Prefer the direction in which more D tiles are entered along a
    # shared row: such a tile leaves along a column, so its outgoing
    # coordinate is x and a bucket pass can build in it.  On the default
    # cycle-derived matrices every D tile then has outgoing x; a user
    # path may still hold D tiles with outgoing y, which bucket passes
    # copy through (as tile 6 of ``staircase(13, inc, av:321)`` with
    # cell (4, 4) also ``av:321``).
    def row_d(order):
        return sum(1 for t in range(1, len(order))
                   if not E.is_monotone(matrix.entry(*order[t]))
                   and shared_axis(order[t - 1], order[t]) == "row")

    rev = list(reversed(cells))
    if row_d(rev) > row_d(cells):
        cells = rev

    f = orient_by_propagation(matrix, _reduction_want)
    if f is None:
        raise UnusableMatrix("path matrix admits no consistent orientation")

    # Sharing a row means the two tiles interleave vertically: the shared
    # assembled coordinate is y.
    out_coord = []
    for t in range(len(cells) - 1):
        out_coord.append("y" if shared_axis(cells[t], cells[t + 1]) == "row"
                         else "x")
    out_coord.append("y" if out_coord[-1] == "x" else "x")

    d_tiles = tuple(t for t, cc in enumerate(cells)
                    if not E.is_monotone(matrix.entry(*cc)))
    return PathSpec(matrix, tuple(cells), f, tuple(out_coord), d_tiles)


# --- the gadget trace ---------------------------------------------------------

# trace kind codes
KINDS = ("initial", "copy", "pick", "follow", "choose", "multiply", "merge",
         "bucket", "flippat", "fliptext")
(INITIAL, COPY, PICK, FOLLOW, CHOOSE, MULTIPLY, MERGE, BUCKET, FLIPPAT,
 FLIPTEXT) = range(len(KINDS))
_KIND = {k: code for code, k in enumerate(KINDS)}
# trace family codes
_FAM = {"P": 0, "T": 1}


class Trace:
    """Every gadget the builder emitted, in emission order, as int
    columns; ``len`` is the gadget count.

    Gadget g has kind ``KINDS[kind[g]]``, family "PT"[fam[g]], input
    pair ids ``ins[in_off[g]:in_off[g + 1]]`` and output pair ids
    ``outs[out_off[g]:out_off[g + 1]]``.  Output j (an index into
    ``outs``) owns one slot: the points the gadget placed for that pair,
    point k in tile ``slot_tile[k]`` (a path index) at index
    ``slot_idx[k]``, for k in ``slot_off[j]`` .. ``slot_off[j + 1] - 1``;
    a single-tile gadget's slot is its pair, a flip's is its chain.
    ``meta`` maps a pick gadget to the rule that picks its branch.
    """

    def __init__(self) -> None:
        self.kind = bytearray()
        self.fam = bytearray()
        self.in_off = array("i", [0])
        self.ins = array("i")
        self.out_off = array("i", [0])
        self.outs = array("i")
        self.slot_off = array("i", [0])
        self.slot_tile = array("i")
        self.slot_idx = array("i")
        self.meta: Dict[int, Tuple] = {}

    def __len__(self) -> int:
        return len(self.kind)

    def add(self, kind: str, fam: str, inputs: Sequence[int],
            outputs: Sequence[int], meta: Tuple = ()) -> None:
        """Close gadget ``kind``; its slots were appended before."""
        if meta:
            self.meta[len(self.kind)] = meta
        self.kind.append(_KIND[kind])
        self.fam.append(_FAM[fam])
        self.ins.extend(inputs)
        self.in_off.append(len(self.ins))
        self.outs.extend(outputs)
        self.out_off.append(len(self.outs))

    def add_slot(self, tiles: Sequence[int], idxs: Sequence[int]) -> None:
        """Append the next output's slot: its points' tiles and indices."""
        self.slot_tile.extend(tiles)
        self.slot_idx.extend(idxs)
        self.slot_off.append(len(self.slot_idx))


@dataclass
class LayerPlan:
    """What a counting-mode dry run of the construction yields."""
    sizes: Dict[str, int]
    layers: List[Tuple[str, int]]          # (kind, tile reached)
    d_used: int


@dataclass
class ReductionInstance:
    """A built instance: the plan's figures, the gadget trace (a
    ``Trace`` of int columns) and the assembled pattern and text.
    ``prov[fam][cell]`` is an ``array('i')`` whose entry ``idx`` is the
    1-based position of point ``idx`` of the cell's tile, per family
    ("P"/"T"), as ``assemble`` returns it."""
    formula: CNFFormula
    mode: str
    path: PathSpec
    sizes: Dict[str, int]
    layers: List[Tuple[str, int]]          # (kind, tile reached)
    d_used: int
    trace: Trace
    clause_layouts: List[Dict[str, int]]
    final_positions: Dict[int, int]        # text pid -> live slot
    families: Dict[str, TileFamily]
    pattern: Permutation
    text: Permutation
    prov: Dict[str, Dict[Cell, array]]
    griddings: Dict[str, Gridding]


# --- the builder -------------------------------------------------------------

_FAMS = ("P", "T")

# Positional duo offsets (within an 8-wide block) of the seven flip layers
# that shuffle, swap and unshuffle two adjacent occurrence groups.
_SWAP_STAGES = [
    [(3, 4), (5, 6)],
    [(2, 3), (4, 5)],
    [(1, 2), (3, 4), (5, 6)],
    [(0, 1), (2, 3), (4, 5), (6, 7)],   # the actual swap
    [(1, 2), (3, 4), (5, 6)],
    [(2, 3), (4, 5)],
    [(1, 2), (3, 4)],
]
_SWAP_PATTERN_STAGE = 3

# Duo offsets (within a 7-wide clause block) of the two evaluation flips.
_EVAL_STAGES = [
    [(2, 3), (5, 6)],
    [(1, 2), (4, 5)],
]


# single-tile gadget emitters by trace kind
_GADGETS = {"initial": G.gadget_initial, "copy": G.gadget_copy,
            "pick": G.gadget_pick, "follow": G.gadget_follow,
            "choose": G.gadget_choose, "multiply": G.gadget_multiply,
            "merge": G.gadget_merge, "bucket": G.gadget_bucket}


class _Builder:
    def __init__(self, formula: CNFFormula, path: PathSpec, mode: str,
                 geometry: bool):
        if mode not in MODES:
            raise ReductionError(f"unknown mode {mode!r}")
        self.formula = formula
        self.path = path
        self.mode = mode
        self.geometry = geometry
        self.n = formula.nvars
        self.bound = Fraction(2 * self.n + 2)

        self.points = {f: 0 for f in _FAMS}   # points placed so far
        # tile -> its six point columns, as in ``grid.Tile``
        self.tiles = {f: {} for f in _FAMS}
        # unconsumed pair -> its value slot on the outgoing axis
        self.pairs: Dict[Tuple[str, int], Tuple[ExactCoord, ExactCoord]] = {}
        self.trace = Trace()
        self.live = {f: [] for f in _FAMS}     # pair ids in value order
        self.tag = {f: {} for f in _FAMS}      # pid -> tag tuple
        self.cursor = 0
        self.layers: List[Tuple[str, int]] = []
        self.clause_layouts: List[Dict[str, int]] = []
        self._next_pid = {f: 0 for f in _FAMS}
        self._dptr = 0
        self._d_needed = 0    # D tiles built in, virtual ones included
        self._d_virtual = 0
        # occurrence metadata, fixed after the multiplication phase
        self.occ_lit: List[int] = []
        self.occ_key: List[int] = []
        self.occ_order: List[int] = []

    # -- emission ---------------------------------------------------------
    #
    # Only ``_gadget``, ``_copy`` and ``_flip_chains`` look at the
    # mode.  Geometry mode places exact points and traces every
    # gadget; counting mode only raises the families' point totals.

    def _put_raw(self, fam: str, t: int, rp: G.RawPoint) -> int:
        """Append a point to tile t; returns its index there."""
        oc = self.path.out_coord[t] if t < len(self.path.out_coord) else "x"
        x, y = (rp.out, rp.inn) if oc == "x" else (rp.inn, rp.out)
        cols = self.tiles[fam].get(t)
        if cols is None:
            cols = self.tiles[fam][t] = ([], [], [], [], [], [])
        xa, xb, xd, ya, yb, yd = cols
        idx = len(xa)
        xa.append(x.na)
        xb.append(x.nb)
        xd.append(x.den)
        ya.append(y.na)
        yb.append(y.nb)
        yd.append(y.den)
        return idx

    def _pid(self, fam: str, tag: Tuple) -> int:
        pid = self._next_pid[fam]
        self._next_pid[fam] += 1
        self.tag[fam][pid] = tag
        return pid

    def _gadget(self, kind: str, fam: str, t: int, inputs: Tuple[int, ...],
                meta: Tuple = (), args: Tuple = (), tag: Tuple = ()
                ) -> List[int]:
        """Emit the single-tile gadget ``kind`` into tile t, consuming the
        pairs ``inputs``.  Its output pairs, two for choose and multiply
        and one otherwise, continue the first input's tag; an initial
        gadget's output takes ``tag``.  ``args`` follow the input values
        in the emitter's call.  Returns the new pids."""
        if inputs:
            tag = self.tag[fam][inputs[0]]
        pids = [self._pid(fam, tag)]
        if kind in ("choose", "multiply"):
            pids.append(self._pid(fam, tag))
        self.points[fam] += 2 * len(pids)
        if not self.geometry:
            return pids
        vals = ()
        for pid in inputs:
            vals += self.pairs.pop((fam, pid))
        tr = self.trace
        for pid, rp in zip(pids, _GADGETS[kind](*vals, *args)):
            i = self._put_raw(fam, t, rp[0])
            self._put_raw(fam, t, rp[1])
            tr.add_slot((t, t), (i, i + 1))
            self.pairs[(fam, pid)] = G.pair_values(rp)
        tr.add(kind, fam, inputs, pids, meta)
        return pids

    def _copy(self, fam: str, t: int, pids: Sequence[int]) -> List[int]:
        """Copy every pair of ``pids`` into tile t; returns the new pids.
        Counting mode keeps the old pids: a copy inherits the tag
        unchanged."""
        if not self.geometry:
            self.points[fam] += 2 * len(pids)
            return list(pids)
        return [self._gadget("copy", fam, t, (pid,))[0] for pid in pids]

    def _flip_chains(self, fam: str, d1: int, d2: int,
                     chains: Sequence[Tuple[str, Tuple[int, ...]]]
                     ) -> List[int]:
        """Emit every chain of one family's flip layer over tiles d1..d2
        and return the family's new live order.

        Each chain is (kind, input pids), in live order.  "copy" carries an
        anchor by one copy gadget per tile.  "flippat" carries one pair and
        "fliptext" an adjacent duo, exchanging its two slots: each input
        gets a head point in d1, a middle pair in every interior tile and
        an end pair in d2, which becomes its successor's pair.  Counting
        mode keeps the input pids, since a flip changes no tag.
        """
        new, width = [], 0
        # the tile of each chain point: a head, then two per later tile
        tiles = [d1] + [t for t in range(d1 + 1, d2 + 1) for _ in (0, 1)]
        for kind, inputs in chains:
            if kind == "copy":
                (pid,) = inputs
                for t in range(d1, d2 + 1):
                    (pid,) = self._copy(fam, t, (pid,))
                new.append(pid)
                continue
            width += len(inputs)
            if not self.geometry:
                new += reversed(inputs)
                continue
            pids = [self._pid(fam, self.tag[fam][pid]) for pid in inputs]
            new += reversed(pids)
            vals = [v for pid in inputs for v in self.pairs.pop((fam, pid))]
            if kind == "fliptext":
                if not vals[1] < vals[2]:
                    raise ReductionError(
                        "flip inputs must occupy disjoint slots")
                ends = G.flip_text_chains(*vals)
            else:
                ends = (G.flip_pattern_chain(*vals),)
            idxs = [[self._put_raw(fam, d1, ch.head)] for ch in ends]
            for t in range(d1 + 1, d2):
                for ch, ix in zip(ends, idxs):
                    ix += (self._put_raw(fam, t, ch.middle[0]),
                           self._put_raw(fam, t, ch.middle[1]))
            for pid, ch, ix in zip(pids, ends, idxs):
                ix += (self._put_raw(fam, d2, ch.end[0]),
                       self._put_raw(fam, d2, ch.end[1]))
                self.pairs[(fam, pid)] = ch.values
                self.trace.add_slot(tiles, ix)
            self.trace.add(kind, fam, inputs, pids)
        # per flipped input: a head point, then two in each later tile
        self.points[fam] += width * (1 + 2 * (d2 - d1))
        return new

    # -- D-entry supply ----------------------------------------------------

    def _take_d(self, k: int) -> List[int]:
        """The next k D tiles past the cursor, each one a layer builds
        in.  Past the path's last D tile it goes on with virtual ones,
        which ``build`` counts against the path."""
        out = []
        ds = self.path.d_tiles
        floor = self.cursor
        while len(out) < k:
            while self._dptr < len(ds) and ds[self._dptr] <= floor:
                self._dptr += 1
            if self._dptr < len(ds):
                floor = ds[self._dptr]
                out.append(floor)
                self._dptr += 1
            else:
                self._d_virtual += 1
                # build refuses a path that needs a virtual tile, so no
                # output reads where it sits; it need only lie past floor
                floor = max(floor, ds[-1] if ds else 0) + 1
                out.append(floor)
        self._d_needed += k
        return out

    # -- generic steps -----------------------------------------------------

    def _advance_to(self, target: int) -> None:
        while self.cursor < target:
            t = self.cursor + 1
            for fam in _FAMS:
                self.live[fam] = self._copy(fam, t, self.live[fam])
            self.cursor = t

    def _step(self, t: int, kind_of, meta_of=None) -> None:
        """One gadget step of every live channel into tile t.

        ``kind_of(fam, pos, pid)`` names the gadget for each live channel:
        "copy", "pick", "choose", "multiply", "follow" or ("merge",
        partner-position).  ``meta_of(fam, pos)`` (optional) supplies the
        gadget's metadata.
        """
        for fam in _FAMS:
            live = self.live[fam]
            new, skip = [], set()
            for pos, pid in enumerate(live):
                if pos in skip:
                    continue
                kind = kind_of(fam, pos, pid)
                if kind == "copy":
                    new += self._copy(fam, t, (pid,))
                    continue
                inputs = (pid,)
                if isinstance(kind, tuple):
                    kind, partner = kind
                    skip.add(partner)
                    inputs += (live[partner],)
                new += self._gadget(kind, fam, t, inputs,
                                    meta_of(fam, pos) if meta_of else ())
            self.live[fam] = new
        self.cursor = t

    def _dsimple(self, kind_of, meta_of=None) -> None:
        """One layer ending with a gadget step into the next D entry; the
        step runs after the copy advance, so ``meta_of`` sees in
        ``self.live`` the gadgets' actual input channels."""
        (d,) = self._take_d(1)
        self._advance_to(d - 1)
        self._step(d, kind_of, meta_of)

    def _flip(self, text_duos: List[int], pattern_duos: List[int]) -> None:
        """Flip layer spanning two consecutive D entries.

        ``text_duos``/``pattern_duos`` hold the lower position of each
        adjacent duo to flip; every other non-anchor channel gets a
        single-channel flip chain, anchors get plain copy chains.
        """
        d1, d2 = self._take_d(2)
        self._advance_to(d1 - 1)
        duo_low = {"T": set(text_duos), "P": set(pattern_duos)}
        for fam in _FAMS:
            lows = duo_low[fam]
            highs = {i + 1 for i in lows}
            live = self.live[fam]
            chains = []
            for pos, pid in enumerate(live):
                if self.tag[fam][pid][0] == "anchor":
                    chains.append(("copy", (pid,)))
                elif pos in lows:
                    chains.append(("fliptext", (pid, live[pos + 1])))
                elif pos not in highs:
                    chains.append(("flippat", (pid,)))
            self.live[fam] = self._flip_chains(fam, d1, d2, chains)
        self.cursor = d2

    def _bucket(self, in_first) -> None:
        """Bucket pass: one step into the next D entry whose outgoing
        coordinate is x.  ``in_first(tag)`` assigns every live channel to
        one of the two increasing parts of ``BUCKET_ENTRY``; each channel
        is copied with a fresh x, the first part's below the second's and
        each part in its incoming order.  A D entry on the way whose
        outgoing coordinate is y keeps the x of the tile before, so it
        gets plain copies."""
        ds, oc = self.path.d_tiles, self.path.out_coord
        while self._dptr < len(ds) and (ds[self._dptr] <= self.cursor
                                        or oc[ds[self._dptr]] == "y"):
            self._dptr += 1
        (d,) = self._take_d(1)
        self._advance_to(d - 1)
        for fam in _FAMS:
            order = sorted(self.live[fam], key=lambda pid: not in_first(
                self.tag[fam][pid]))
            step = self.bound / (2 * len(order) + 1)
            new = []
            for k, pid in enumerate(order):
                new += self._gadget("bucket", fam, d, (pid,), args=(step, k))
            self.live[fam] = new
        self.cursor = d
        self._refresh_occ_order()

    def _mark_layer(self, kind: str) -> None:
        self.layers.append((kind, self.cursor))

    # -- phases ------------------------------------------------------------

    def build_phase_initial(self) -> None:
        n = self.n
        ks = range(1, n + 1)
        tags = [("anchor", 0)] + [("var", k) for k in ks] + [("anchor", 1)]
        values = [(Fraction(5, 8), Fraction(7, 8))] \
            + [(Fraction(2 * k - 1), Fraction(2 * k)) for k in ks] \
            + [(2 * n + Fraction(9, 8), 2 * n + Fraction(11, 8))]
        for fam in _FAMS:
            self.live[fam] = [
                self._gadget("initial", fam, 0, (), args=v, tag=tg)[0]
                for tg, v in zip(tags, values)]
        self._mark_layer("initial")

    def build_phase_assignment(self) -> None:
        def kind_of(fam, pos, pid):
            if self.tag[fam][pid][0] != "var":
                return "copy"
            return "choose" if fam == "T" else "pick"

        def meta_of(fam, pos):
            tg = self.tag[fam][self.live[fam][pos]]
            if fam == "P" and tg[0] == "var":
                return ("assign", tg[1])
            return ()

        self._dsimple(kind_of, meta_of)
        self._mark_layer("assignment")

    def build_phase_multiplication(self) -> None:
        lits = [lit for cl in self.formula.clauses for lit in cl]
        counts = [0] * (self.n + 1)   # occurrences per variable
        for lit in lits:
            counts[abs(lit)] += 1
        # variable k doubles its channels ceil(log2(counts[k])) times
        levels = [max(c - 1, 0).bit_length() for c in counts]

        for step in range(max(levels)):
            def grows(tg, _step=step):
                return tg[0] == "var" and levels[tg[1]] > _step

            self._step(self.cursor + 1, lambda fam, pos, pid:
                       "multiply" if grows(self.tag[fam][pid]) else "copy")
            self._mark_layer("multiply")

            # after doubling, each quadruple of a growing variable's text
            # channels reads Y Y' Z Z'; flip its middle duo (Y', Z)
            duos = []
            for tg, run in itertools.groupby(
                    enumerate(self.live["T"]),
                    key=lambda e: self.tag["T"][e[1]]):
                if grows(tg):
                    duos += [pos for pos, _ in run][1::4]
            self._flip(duos, [])
            self._mark_layer("multiply-fix")

        # occurrence metadata: channels are in variable-major order, the
        # target order enumerates literal slots clause by clause
        self.occ_key = sorted(range(len(lits)), key=lambda s: abs(lits[s]))
        self.occ_lit = [lits[s] for s in self.occ_key]

        # freeze surplus channels and retag the kept ones by occurrence
        occ_base = list(itertools.accumulate(counts, initial=0))
        for fam in _FAMS:
            keep = []
            per_var_seen = [0] * (self.n + 1)
            width = 2 if fam == "T" else 1
            for pid in self.live[fam]:
                tg = self.tag[fam][pid]
                if tg[0] == "var":
                    k = tg[1]
                    slot = per_var_seen[k] // width
                    per_var_seen[k] += 1
                    if slot >= counts[k]:
                        continue   # frozen: it leaves the live order
                    self.tag[fam][pid] = ("occ", occ_base[k] + slot)
                keep.append(pid)
            self.live[fam] = keep
        self._mark_layer("freeze")
        self._refresh_occ_order()
        if self.occ_order != list(range(len(self.occ_key))):
            raise ReductionError("kept channels are not in occurrence order")

    # -- occurrence position tracking ---------------------------------------

    def _refresh_occ_order(self) -> None:
        self.occ_order = [self.tag["P"][pid][1] for pid in self.live["P"]
                          if self.tag["P"][pid][0] == "occ"]

    def _scan_positions(self):
        """(pattern position of occ, ordered text positions of occ)."""
        pos_p = {}
        pos_t = {}
        for p, pid in enumerate(self.live["P"]):
            tg = self.tag["P"][pid]
            if tg[0] == "occ":
                pos_p[tg[1]] = p
        for p, pid in enumerate(self.live["T"]):
            tg = self.tag["T"][pid]
            if tg[0] == "occ":
                pos_t.setdefault(tg[1], []).append(p)
        return pos_p, pos_t

    def build_phase_sorting_gadgets(self) -> None:
        key = self.occ_key
        parity = 0
        guard = 0
        while any(key[self.occ_order[i]] > key[self.occ_order[i + 1]]
                  for i in range(len(self.occ_order) - 1)):
            guard += 1
            if guard > 3 * len(self.occ_order) + 2:
                raise ReductionError("odd-even swap rounds do not terminate")
            swaps = [i for i in range(parity, len(self.occ_order) - 1, 2)
                     if key[self.occ_order[i]] > key[self.occ_order[i + 1]]]
            parity ^= 1
            if not swaps:
                continue
            self._run_swap_round(swaps)
        self._mark_layer("sorted")

    def _run_swap_round(self, swaps: List[int]) -> None:
        # choose layer: each participating occurrence duo splits its four
        # text channels in eight; the pattern channels commit via picks
        pos_p, pos_t = self._scan_positions()
        choose_pos = set()
        pick_pos = set()
        swap_info = {}   # pattern position -> (side, text positions, partner)
        for i in swaps:
            o1, o2 = self.occ_order[i], self.occ_order[i + 1]
            lo1, hi1 = pos_t[o1]
            lo2, hi2 = pos_t[o2]
            if (hi1, lo2, hi2) != (lo1 + 1, lo1 + 2, lo1 + 3):
                raise ReductionError("swapped occurrences are not adjacent")
            choose_pos.update([lo1, hi1, lo2, hi2])
            pick_pos.update([pos_p[o1], pos_p[o2]])
            quad = (lo1, hi1, lo2, hi2)
            swap_info[pos_p[o1]] = (0, quad, pos_p[o2])
            swap_info[pos_p[o2]] = (1, quad, pos_p[o1])

        def kind_of(fam, pos, pid):
            if fam == "T":
                return "choose" if pos in choose_pos else "copy"
            return "pick" if pos in pick_pos else "copy"

        def meta_of(fam, pos):
            if fam != "P" or pos not in swap_info:
                return ()
            side, quad, ppos = swap_info[pos]
            t_ids = tuple(self.live["T"][p] for p in quad)
            return ("swap", side, t_ids, self.live["P"][ppos])

        self._dsimple(kind_of, meta_of)
        self._mark_layer("swap-choose")

        # each participating text block is now 8 wide and contiguous
        pos_p, pos_t = self._scan_positions()
        blocks = []
        pat_pos = []
        for i in swaps:
            o1, o2 = self.occ_order[i], self.occ_order[i + 1]
            span = pos_t[o1] + pos_t[o2]
            if span != list(range(span[0], span[0] + 8)):
                raise ReductionError("swap block is not 8 contiguous channels")
            blocks.append(span[0])
            if pos_p[o2] != pos_p[o1] + 1:
                raise ReductionError("swapped pattern channels not adjacent")
            pat_pos.append(pos_p[o1])

        for stage, duos in enumerate(_SWAP_STAGES):
            td = [b + off for b in blocks for (off, _) in duos]
            pd = pat_pos if stage == _SWAP_PATTERN_STAGE else []
            self._flip(td, pd)
            self._mark_layer("swap-flip")

        # merge layer: each 8-wide block collapses back to four channels;
        # the pattern channels follow their committed images
        merge_lo = {b + off for b in blocks for off in (0, 2, 4, 6)}
        follow_pos = set(pat_pos) | {p + 1 for p in pat_pos}

        def kind_of2(fam, pos, pid):
            if fam == "T":
                return ("merge", pos + 1) if pos in merge_lo else "copy"
            return "follow" if pos in follow_pos else "copy"

        self._dsimple(kind_of2)
        self._mark_layer("swap-merge")
        self._refresh_occ_order()
        for i in swaps:
            if self.occ_key[self.occ_order[i]] >= \
                    self.occ_key[self.occ_order[i + 1]]:
                raise ReductionError("swap round left a pair out of order")

    def build_phase_sorting_juxtaposition(self) -> None:
        key = self.occ_key
        m = len(self.occ_order)
        if all(key[self.occ_order[i]] <= key[self.occ_order[i + 1]]
               for i in range(m - 1)):
            self._mark_layer("sorted")
            return
        # radix sort on the target position, least significant bit first;
        # each pass builds in a D tile whose outgoing coordinate is x, and
        # the fresh x realises any stable two-part partition
        for bit in range(max(1, (m - 1).bit_length())):
            def in_first(tag, _bit=bit):
                if tag[0] == "anchor":
                    return tag[1] == 0
                return not (key[tag[1]] >> _bit) & 1
            self._bucket(in_first)
            self._mark_layer("bucket")
        if [key[o] for o in self.occ_order] != sorted(key):
            raise ReductionError("bucket passes left occurrences unsorted")

    def build_phase_evaluation(self) -> None:
        m = len(self.occ_order)
        if m != 3 * len(self.formula.clauses):
            raise ReductionError("occurrence count is not 3 per clause")

        # polarity: make each occurrence's literal-true channel the lower
        # one.  Every occurrence reaches this step with its variable's
        # true branch (the choose's output 0) below its false branch, so
        # exactly the negative literals flip.
        _, pos_t = self._scan_positions()
        flips = []
        for o in self.occ_order:
            lo, hi = pos_t[o]
            if hi != lo + 1:
                raise ReductionError("occurrence channels not adjacent")
            if self.occ_lit[o] < 0:
                flips.append(lo)
        if flips:
            self._flip(flips, [])
            self._mark_layer("polarity")

        # choose layer: the middle literal's false channel forks
        pos_p, pos_t = self._scan_positions()
        choose_pos = set()
        pick_t = set()
        eval_info = {}   # pattern position -> clause
        for c in range(len(self.formula.clauses)):
            for slot in range(3):
                o = self.occ_order[3 * c + slot]
                lo, hi = pos_t[o]
                eval_info[pos_p[o]] = c
                if slot == 1:
                    choose_pos.add(hi)
                    pick_t.add(lo)
                else:
                    pick_t.update([lo, hi])

        def kind_of(fam, pos, pid):
            if fam == "T":
                if pos in choose_pos:
                    return "choose"
                return "pick" if pos in pick_t else "copy"
            return "pick" if pos in eval_info else "copy"

        def meta_of(fam, pos):
            if fam == "P" and pos in eval_info:
                return ("eval", eval_info[pos])
            return ()

        self._dsimple(kind_of, meta_of)
        self._mark_layer("eval-choose")

        # each clause's text block is now 7 wide and contiguous
        _, pos_t = self._scan_positions()
        bases = []
        for c in range(len(self.formula.clauses)):
            span = sorted(p for slot in range(3)
                          for p in pos_t[self.occ_order[3 * c + slot]])
            if span != list(range(span[0], span[0] + 7)):
                raise ReductionError("clause block is not 7 contiguous "
                                     "channels")
            bases.append(span[0])

        for duos in _EVAL_STAGES:
            td = [b + off for b in bases for (off, _) in duos]
            self._flip(td, [])
            self._mark_layer("eval-flip")

        roles = ["ya", "zbar_b", "za", "yb", "zc", "ztilde_b", "yc"]
        self.clause_layouts = [dict(zip(roles, self.live["T"][b: b + 7]))
                               for b in bases]

    # -- finishing ----------------------------------------------------------

    def plan(self) -> LayerPlan:
        """The layer schedule, the D entries used and the exact sizes of
        the construction built so far."""
        text_pre = self.points["T"]
        pat_pre = self.points["P"]
        run = text_pre + 1           # length of each anchor run
        sizes = {
            "pattern": pat_pre + 2 * (run - 1),
            "text": text_pre + 2 * (run - 1),
            "pattern_core": pat_pre,
            "text_core": text_pre,
            "tiles": self.cursor + 1,
            "anchor_run": run,
        }
        if sizes["pattern"] > sizes["text"]:
            raise ReductionError(
                f"pattern ({sizes['pattern']} points) larger than text "
                f"({sizes['text']})")
        return LayerPlan(sizes, self.layers, self._d_needed)

    def finish(self) -> ReductionInstance:
        """Assemble the geometry-mode tiles into the instance."""
        plan = self.plan()
        run = plan.sizes["anchor_run"]
        fams = {}
        provs = {}
        grids = {}
        perms = {}
        for fam in _FAMS:
            # tile 0 inflates its lowest and its highest point into the
            # two anchor runs, low first; it holds only the initial pairs,
            # placed bottom to top, so these are its first and last points
            last = len(self.tiles[fam][0][0]) - 1
            runs = ((0, run - 1), (last, run - 1))
            tf = TileFamily(
                self.path.matrix.cols, self.path.matrix.rows,
                {self.path.cells[t]: Tile(*cols, runs if t == 0 else ())
                 for t, cols in self.tiles[fam].items()},
                self.bound)
            p, prov, grd = assemble(tf, self.path.orientation)
            fams[fam] = tf
            provs[fam] = prov
            grids[fam] = grd
            perms[fam] = p
        for name, fam in (("pattern", "P"), ("text", "T")):
            if len(perms[fam]) != plan.sizes[name]:
                raise ReductionError(
                    f"assembled {name} has {len(perms[fam])} points, "
                    f"{plan.sizes[name]} counted")
        return ReductionInstance(
            formula=self.formula, mode=self.mode, path=self.path,
            sizes=plan.sizes, layers=plan.layers, d_used=plan.d_used,
            trace=self.trace, clause_layouts=self.clause_layouts,
            final_positions={pid: i for i, pid in enumerate(self.live["T"])},
            families=fams, pattern=perms["P"], text=perms["T"], prov=provs,
            griddings=grids)

    def build(self) -> None:
        """Run every phase the formula needs, then raise PathTooShort if
        the path is short: the count of D tiles the layers build in, and
        of those the path supplies (a D tile the cursor has passed, or
        one a bucket pass copies through, counts toward neither)."""
        self.build_phase_initial()
        if self.formula.clauses:
            self.build_phase_assignment()
            self.build_phase_multiplication()
            if self.mode == "gadgets":
                self.build_phase_sorting_gadgets()
            else:
                self.build_phase_sorting_juxtaposition()
            self.build_phase_evaluation()
        if self._d_virtual:
            raise PathTooShort(self._d_needed,
                               self._d_needed - self._d_virtual)


# --- public entry points -------------------------------------------------


def default_matrix(mode: str) -> GriddingMatrix:
    """2x2 proper-turning cycle with one rich entry; the seed for
    rich-path refinement."""
    d = E.FIBP if mode == "gadgets" else E.av(perm(3, 2, 1))
    return matrix_from_rows_top_down([[E.DEC, E.INC], [d, E.DEC]])


def _reduction_want(entry: E.ClassEntry) -> int:
    """The sign ``make_path_spec`` asks of a cell: -1 for dec, else +1.
    A D cell takes +1 because the gadgets are sums of 1s and 21s (fib+),
    and ``_capability_check`` requires each D entry to contain fib+ as
    it is, not reflected."""
    return -1 if entry.kind == "dec" else 1


def _capability_check(matrix: GriddingMatrix, mode: str) -> None:
    """Every D entry must contain every gadget the mode places in it.

    Every gadget is a direct sum of 1s and 21s, so a D entry must
    contain the whole Fibonacci class fib+; in juxtaposition mode it
    must also contain the bucket class.  av:sigma contains a class
    exactly when sigma is not in it.  fib+ holds no juxtaposition class;
    fib-, the skew sums of 1s and 12s, lacks 123; and no juxtaposition
    class holds 214365.  So of the other kinds only fib+ passes, and only
    in gadgets mode.
    """
    ds = {e for e in matrix.filled.values() if not E.is_monotone(e)}
    if not ds:
        raise UnusableMatrix("matrix has no non-monotone entry")
    wanted = [E.FIBP]
    if mode == "juxtaposition":
        wanted.append(BUCKET_ENTRY)
    for d in ds:
        for c in wanted:
            if d.kind == "av":
                ok = not E.entry_contains(c, d.sigma)
            else:
                ok = d.kind == "fib+" and c == E.FIBP
            if not ok:
                raise UnusableMatrix(
                    f"D entry {E.format_entry(d)} does not contain "
                    f"{E.format_entry(c)}")


def plan_layers(formula: CNFFormula, path: PathSpec, mode: str
                ) -> LayerPlan:
    """Dry-run the construction in counting mode.

    Returns the layer schedule, D usage and exact sizes; raises
    PathTooShort as ``_Builder.build`` does."""
    b = _Builder(formula, path, mode, geometry=False)
    b.build()
    return b.plan()


def default_path(formula: CNFFormula, mode: str
                 ) -> Tuple[PathSpec, LayerPlan]:
    """The default rich path for the mode, sized for the formula, and the
    plan of its last sizing pass: from length 8, a path too short grows
    to twice its length or to two more than the D entries it needs."""
    length = 8
    for _ in range(12):
        path = make_path_spec(build_rich_path(default_matrix(mode), length))
        try:
            return path, plan_layers(formula, path, mode)
        except PathTooShort as exc:
            length = max(length * 2, exc.required_d + 2)
    raise ReductionError("could not size a rich path for the formula")


def reduce_formula(formula: CNFFormula, mode: str = "gadgets",
                   matrix: Optional[GriddingMatrix] = None
                   ) -> ReductionInstance:
    """Build the full geometric instance for a formula, in one geometry
    build.  With no explicit matrix, it builds on ``default_path``: a
    rich path of sufficient length derived from the default 2x2 cycle."""
    if matrix is None:
        path, _ = default_path(formula, mode)
    else:
        path = make_path_spec(matrix)
    _capability_check(path.matrix, mode)
    b = _Builder(formula, path, mode, geometry=True)
    b.build()
    return b.finish()

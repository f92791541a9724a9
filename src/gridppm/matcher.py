"""Polynomial C-PPM for monotone gridding matrices.

The (Pi, Sigma)-embedding decision works on threshold literals
z[p, j] <=> "the image index of pattern point p within its target part
is at least j".  Order is transitive, so only neighbouring pairs are
constrained: pattern positions p and p+1 in x, and neighbours in
pattern-value order in y.  Each such relation on image indices is a
monotone staircase of O(n) binary implications, so k pattern points
give O(kn) clauses; the whole system is then solved as 2-SAT by
strongly-connected-component analysis.  Every witness is re-validated
pointwise, so solver soundness never rests on the encoding argument
alone.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Dict, List, Optional, Tuple

from . import entries as E
from .grid import (Gridding, GriddingMatrix, all_griddings, cell_positions,
                   check_gridding, find_gridding)
from .perm import Permutation, is_order_isomorphic


class InvalidGridding(ValueError):
    pass


class MalformedPartition(ValueError):
    pass


class StaircaseError(RuntimeError):
    """A pairwise relation of the encoding is not a monotone staircase;
    this is a bug in the encoding, never a property of the input."""


class NoTextGridding(ValueError):
    """Promise violation: the text admits no gridding at all."""


Partition = Tuple[Tuple[int, ...], ...]   # parts of 0-based positions


def _check_partitions(pattern: Permutation, pi: Partition,
                      text: Permutation, sigma: Partition) -> None:
    """Each partition's parts cover its permutation's positions once, each
    part ascends and its values run either way; the arities agree."""
    for p, parts in ((pattern, pi), (text, sigma)):
        if sorted(q for part in parts for q in part) != list(range(len(p))):
            raise MalformedPartition("parts must partition all positions")
        for part in parts:
            if list(part) != sorted(part):
                raise MalformedPartition("part positions must ascend")
            vals = [p[q] for q in part]
            if not (E.is_monotone_run(vals, "inc")
                    or E.is_monotone_run(vals, "dec")):
                raise MalformedPartition(f"part not monotone: {part}")
    if len(pi) != len(sigma):
        raise MalformedPartition("partition arities differ")


def _require_monotone(m: GriddingMatrix) -> None:
    if not all(E.is_monotone(e) for e in m.filled.values()):
        raise InvalidGridding("matrix must be monotone")


def extract_partition(p: Permutation, g: Gridding,
                      m: GriddingMatrix) -> Partition:
    """One part per non-empty (monotone) matrix cell, in cell order.  No
    part needs re-checking: ``check_gridding`` proved each cell's run."""
    _require_monotone(m)
    if not check_gridding(p, g, m):
        raise InvalidGridding("not a valid gridding of the permutation")
    cells = cell_positions(p, g)
    return tuple(tuple(cells.get(c, ())) for c in m.nonempty_cells())


# --- 2-SAT ------------------------------------------------------------------

class _TwoSat:
    """Implication-graph 2-SAT.  Variable v has literals 2v (true) and
    2v+1 (false)."""

    def __init__(self, nvars: int) -> None:
        self.n = nvars
        self.adj: List[List[int]] = [[] for _ in range(2 * nvars)]
        self.clauses = 0

    @staticmethod
    def lit(v: int, positive: bool) -> int:
        return 2 * v if positive else 2 * v + 1

    def imply(self, a: int, b: int) -> None:
        """a -> b, plus the contrapositive."""
        self.adj[a].append(b)
        self.adj[b ^ 1].append(a ^ 1)
        self.clauses += 1

    def unit(self, a: int) -> None:
        self.imply(a ^ 1, a)

    def solve(self) -> Optional[List[bool]]:
        n2 = 2 * self.n
        comp = [-1] * n2
        low = [0] * n2
        num = [-1] * n2
        counter = itertools.count()
        ncomp = 0
        stack: List[int] = []
        on_stack = [False] * n2
        for root in range(n2):
            if num[root] != -1:
                continue
            # iterative Tarjan
            work = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    num[v] = low[v] = next(counter)
                    stack.append(v)
                    on_stack[v] = True
                recurse = False
                for i in range(pi, len(self.adj[v])):
                    w = self.adj[v][i]
                    if num[w] == -1:
                        work[-1] = (v, i + 1)
                        work.append((w, 0))
                        recurse = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], num[w])
                if recurse:
                    continue
                if low[v] == num[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
        out = []
        for v in range(self.n):
            if comp[2 * v] == comp[2 * v + 1]:
                return None
            # components are numbered sinks-first; the literal whose
            # component is closer to a sink is safe to set true
            out.append(comp[2 * v] < comp[2 * v + 1])
        return out


# --- the (Pi, Sigma)-embedding decision --------------------------------------

def psi_embedding(pattern: Permutation, pi: Partition,
                  text: Permutation, sigma: Partition,
                  stats: Optional[dict] = None) -> Optional[Tuple[int, ...]]:
    """An embedding of pattern into text mapping the i-th pattern part
    into the i-th text part, or None.

    Returns the embedding as a tuple of 0-based text positions indexed
    by pattern position.  ``stats`` gets "clauses" only if the encoding
    reaches the 2-SAT solve; one refuted while it is built sets nothing.
    """
    _check_partitions(pattern, pi, text, sigma)
    if any(len(a) > len(b) for a, b in zip(pi, sigma)):
        return None  # pigeonhole

    k = len(pattern)
    part_of = [0] * k
    for i, part in enumerate(pi):
        for q in part:
            part_of[q] = i
    # text part data, in canonical (ascending position) order; tasc holds
    # each part's values ascending, and a part rises when its values do
    # along it (one with fewer than two points counts as rising)
    tpos = [list(part) for part in sigma]
    tval = [[text[q] for q in part] for part in sigma]
    tasc = [sorted(vs) for vs in tval]
    rising = [len(vs) < 2 or vs[0] < vs[1] for vs in tval]

    # threshold variables: z[p, j] for j in 1..dom(p)-1 is variable
    # base[p] + j - 1; lits[p][j] is the literal for val_p >= j, with the
    # constants TRUE at j = 0 and FALSE at j = dom(p)
    TRUE, FALSE = -1, -2
    dom = [len(tpos[part_of[p]]) for p in range(k)]
    base = list(itertools.accumulate((d - 1 for d in dom), initial=0))
    lits = [[TRUE] + [_TwoSat.lit(base[p] + j - 1, True)
                      for j in range(1, dom[p])] + [FALSE]
            for p in range(k)]
    ts = _TwoSat(base[k])

    def neg(a: int) -> int:
        if a == TRUE:
            return FALSE
        if a == FALSE:
            return TRUE
        return a ^ 1

    def imply(a: int, b: int) -> bool:
        """a -> b with constant folding; returns False when the system
        is immediately unsatisfiable."""
        if a == FALSE or b == TRUE:
            return True
        if a == TRUE:
            if b == FALSE:
                return False
            ts.unit(b)
            return True
        if b == FALSE:
            ts.unit(a ^ 1)
            return True
        ts.imply(a, b)
        return True

    # domain closure: z[p, j] -> z[p, j-1]
    for zp in lits:
        for j in range(2, len(zp) - 1):
            imply(zp[j], zp[j - 1])

    stairs: Dict[Tuple[int, int, str], Tuple[bool, List[int], bool]] = {}

    def staircase(ip: int, iq: int, kind: str) -> Tuple[bool, List[int], bool]:
        """The relation between image index a in text part ip and b in
        text part iq: 'x' is "a left of b" and 'up' is "a below b".
        Only neighbouring pattern pairs ask for one, so ip is the part
        of the left point of two adjacent positions ('x') or of the
        lower of two adjacent values ('up').  For every a the allowed b
        are a suffix or a prefix of part iq, counted by bisection.

        Returns (suffix, thr, nondec): thr[a] is the least allowed b of
        a suffix (len(iq) if none) or the greatest of a prefix (-1 if
        none), and nondec says the boundary never falls.  A relation
        whose rows are all empty or full is both; it is encoded as a
        suffix, and a constant boundary as non-decreasing."""
        key = (ip, iq, kind)
        if key in stairs:
            return stairs[key]
        nb = len(tpos[iq])
        if kind == "x":
            def rel(a: int, b: int) -> bool:
                return tpos[ip][a] < tpos[iq][b]
            counts = [nb - bisect.bisect_right(tpos[iq], x) for x in tpos[ip]]
            suffix = True
        else:
            def rel(a: int, b: int) -> bool:
                return tval[ip][a] < tval[iq][b]
            counts = [nb - bisect.bisect_right(tasc[iq], v) for v in tval[ip]]
            suffix = rising[iq] or all(c in (0, nb) for c in counts)
        # the relation holds exactly on each row's interval [lo, hi) of
        # allowed b: checked at both ends and just outside them
        for a, c in enumerate(counts):
            lo, hi = (nb - c, nb) if suffix else (0, c)
            for b in {lo - 1, lo, hi - 1, hi}:
                if 0 <= b < nb and rel(a, b) != (lo <= b < hi):
                    raise StaircaseError("pairwise relation is not a staircase")
        thr = [nb - c for c in counts] if suffix else [c - 1 for c in counts]
        nondec = all(x <= y for x, y in zip(thr, thr[1:]))
        if not nondec and not all(x >= y for x, y in zip(thr, thr[1:])):
            raise StaircaseError("staircase boundary not monotone")
        stairs[key] = out = (suffix, thr, nondec)
        return out

    def encode(p: int, q: int, stair: Tuple[bool, List[int], bool]) -> bool:
        """Encode the staircase relation between the image indices of
        pattern points p and q, one implication per row a; False when
        it is already unsatisfiable."""
        suffix, thr, nondec = stair
        zp, zq = lits[p], lits[q]
        # val_p >= a, or val_p <= a, implies ...
        lhs = zp[:-1] if suffix == nondec else [neg(x) for x in zp[1:]]
        # ... val_q >= thr[a] (suffix), or val_q <= thr[a] (prefix)
        rhs = ([zq[t] for t in thr] if suffix
               else [neg(zq[t + 1]) for t in thr])
        return all(imply(a, b) for a, b in zip(lhs, rhs))

    # x between positions p and p+1; y between neighbours in value
    # order, the lower-valued point's part giving the rows
    by_value = sorted(range(k), key=pattern.__getitem__)
    for p, q in zip(range(k), range(1, k)):
        if not encode(p, q, staircase(part_of[p], part_of[q], "x")):
            return None
    for p, q in zip(by_value, by_value[1:]):
        if not encode(p, q, staircase(part_of[p], part_of[q], "up")):
            return None

    if stats is not None:
        stats["clauses"] = ts.clauses
    model = ts.solve()
    if model is None:
        return None
    emb = []
    for p in range(k):
        # val_p is the largest j with z[p, j] true (0 if none)
        val = 0
        for j in range(1, dom[p]):
            if model[base[p] + j - 1]:
                val = j
        emb.append(tpos[part_of[p]][val])
    witness = tuple(emb)
    # loud re-validation: an encoding bug must never produce a witness
    if not is_order_isomorphic(text, pattern, witness):
        raise RuntimeError(
            f"threshold encoding produced an invalid witness {witness}")
    for i, part in enumerate(pi):
        tgt = set(sigma[i])
        if any(witness[q] not in tgt for q in part):
            raise RuntimeError("witness is not part-respecting")
    return witness


# --- the full solver ----------------------------------------------------------

def solve_cppm(pattern: Permutation, text: Permutation, m: GriddingMatrix,
               stats: Optional[dict] = None) -> Optional[Tuple[int, ...]]:
    """C-PPM for Grid(m) with monotone m: both inputs are promised to be
    members; decides containment in polynomial time.

    Fixes the first gridding of the text, then tries every gridding of
    the pattern.  Completeness: any embedding pulls the text's gridding
    back to a gridding of the pattern, which this loop reaches.
    Raises InvalidGridding, before any search, when m is not monotone.
    ``stats`` gets the text's gridding, the pattern griddings tried, the
    clauses of the encodings that reached the 2-SAT solve (one refuted
    while it is built adds none) and, on a find, the pattern's gridding.
    """
    _require_monotone(m)
    g_text = find_gridding(text, m)
    if g_text is None:
        raise NoTextGridding("text admits no gridding (broken promise)")
    sigma = extract_partition(text, g_text, m)
    stats = {} if stats is None else stats
    stats.update(gridding_text=g_text, griddings_tried=0, clauses=0)
    emb = None
    for g_pat in all_griddings(pattern, m):
        stats["griddings_tried"] += 1
        pi = extract_partition(pattern, g_pat, m)
        sub = {}
        emb = psi_embedding(pattern, pi, text, sigma, stats=sub)
        stats["clauses"] += sub.get("clauses", 0)
        if emb is not None:
            stats["gridding_pattern"] = g_pat
            break
    return emb

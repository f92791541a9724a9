"""Polynomial C-PPM for monotone gridding matrices.

The (Pi, Sigma)-embedding decision works on threshold literals
z[p, j] <=> "the image index of pattern point p within its target part
is at least j".  For every ordered pair of pattern points, the x- and
y-relations on their image indices are monotone staircases, so each
contributes O(n) binary implications; the whole system is then solved
as 2-SAT by strongly-connected-component analysis.  Every witness is
re-validated pointwise, so solver soundness never rests on the encoding
argument alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from . import entries as E
from .grid import Gridding, GriddingMatrix, all_griddings, check_gridding
from .perm import Permutation, is_order_isomorphic


class InvalidGridding(ValueError):
    pass


class MalformedPartition(ValueError):
    pass


class NoTextGridding(ValueError):
    """Promise violation: the text admits no gridding at all."""


@dataclass(frozen=True)
class MonotonePartition:
    """Disjoint monotone parts covering all points of a permutation.

    Each part is a tuple of 0-based positions in ascending order; the
    direction states how values run along that order.
    """
    parts: Tuple[Tuple[int, ...], ...]
    dirs: Tuple[str, ...]

    def validate(self, p: Permutation) -> None:
        if len(self.parts) != len(self.dirs):
            raise MalformedPartition("parts/dirs length mismatch")
        seen = [q for part in self.parts for q in part]
        if sorted(seen) != list(range(len(p))):
            raise MalformedPartition("parts must partition all positions")
        for part, d in zip(self.parts, self.dirs):
            if d not in ("inc", "dec"):
                raise MalformedPartition(f"bad direction {d!r}")
            if list(part) != sorted(part):
                raise MalformedPartition("part positions must ascend")
            vals = [p[q] for q in part]
            ok = all(a < b for a, b in zip(vals, vals[1:])) if d == "inc" \
                else all(a > b for a, b in zip(vals, vals[1:]))
            if not ok:
                raise MalformedPartition(f"part not {d}: {part}")


def _require_monotone(m: GriddingMatrix) -> None:
    for cell in m.nonempty_cells():
        if not E.is_monotone(m.entry(*cell)):
            raise InvalidGridding("matrix must be monotone")


def extract_partition(p: Permutation, g: Gridding,
                      m: GriddingMatrix) -> MonotonePartition:
    """One part per non-empty (monotone) matrix cell, in cell order."""
    _require_monotone(m)
    if not check_gridding(p, g, m):
        raise InvalidGridding("not a valid gridding of the permutation")
    parts: List[Tuple[int, ...]] = []
    dirs: List[str] = []
    for (i, j) in m.nonempty_cells():
        poss = tuple(
            pos for pos in range(g.col_cuts[i - 1] - 1, g.col_cuts[i] - 1)
            if g.row_cuts[j - 1] <= p[pos] < g.row_cuts[j])
        parts.append(poss)
        dirs.append(m.entry(i, j).kind)
    out = MonotonePartition(tuple(parts), tuple(dirs))
    out.validate(p)
    return out


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

def psi_embedding(pattern: Permutation, pi: MonotonePartition,
                  text: Permutation, sigma: MonotonePartition,
                  stats: Optional[dict] = None) -> Optional[Tuple[int, ...]]:
    """An embedding of pattern into text mapping the i-th pattern part
    into the i-th text part, or None.

    Returns the embedding as a tuple of 0-based text positions indexed
    by pattern position.
    """
    pi.validate(pattern)
    sigma.validate(text)
    if len(pi.parts) != len(sigma.parts):
        raise MalformedPartition("partition arities differ")
    t = len(pi.parts)
    for i in range(t):
        if len(pi.parts[i]) > len(sigma.parts[i]):
            return None  # pigeonhole

    k = len(pattern)
    if k == 0:
        if stats is not None:
            stats["clauses"] = 0
        return ()

    part_of = [0] * k
    for i, part in enumerate(pi.parts):
        for q in part:
            part_of[q] = i
    # text part data, in canonical (ascending position) order
    tpos = [list(part) for part in sigma.parts]
    tval = [[text[q] for q in part] for part in sigma.parts]

    # threshold variables: var[(p, j)] for j in 1..dom(p)-1
    var: Dict[Tuple[int, int], int] = {}
    for p in range(k):
        for j in range(1, len(tpos[part_of[p]])):
            var[(p, j)] = len(var)
    ts = _TwoSat(len(var))

    TRUE, FALSE = -1, -2

    def z(p: int, j: int) -> int:
        """Literal for val_p >= j (may be a constant marker)."""
        dom = len(tpos[part_of[p]])
        if j <= 0:
            return TRUE
        if j >= dom + 1:
            return FALSE
        if j == dom:
            return FALSE
        return _TwoSat.lit(var[(p, j)], True)

    def neg(a: int) -> int:
        if a == TRUE:
            return FALSE
        if a == FALSE:
            return TRUE
        return a ^ 1

    def imply(a: int, b: int) -> Optional[bool]:
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
    for p in range(k):
        for j in range(2, len(tpos[part_of[p]])):
            imply(z(p, j), z(p, j - 1))

    def encode_staircase(p: int, q: int, rel) -> bool:
        """Encode 'rel(a, b) must hold for the chosen indices a of p and
        b of q', where rel is a staircase relation: for every a the
        allowed b form a suffix or a prefix, with a monotone boundary."""
        na = len(tpos[part_of[p]])
        nb = len(tpos[part_of[q]])
        rows = [[rel(a, b) for b in range(nb)] for a in range(na)]
        suffix = all(not r[b] or all(r[b:]) for r in rows for b in range(nb))
        prefix = all(not r[b] or all(r[:b + 1]) for r in rows for b in range(nb))
        assert suffix or prefix, "pairwise relation is not a staircase"
        if suffix:
            thr = [nb - sum(r) for r in rows]  # least allowed b, nb if none
            nondec = all(x <= y for x, y in zip(thr, thr[1:]))
            noninc = all(x >= y for x, y in zip(thr, thr[1:]))
            assert nondec or noninc, "staircase boundary not monotone"
            if nondec:
                for a in range(na):
                    lhs = z(p, a) if a > 0 else TRUE
                    if imply(lhs, z(q, thr[a])) is False:
                        return False
            else:
                for a in range(na):
                    # val_p <= a  =>  val_q >= thr[a]
                    if imply(neg(z(p, a + 1)), z(q, thr[a])) is False:
                        return False
        else:
            thr = [sum(r) - 1 for r in rows]  # greatest allowed b, -1 if none
            nondec = all(x <= y for x, y in zip(thr, thr[1:]))
            noninc = all(x >= y for x, y in zip(thr, thr[1:]))
            assert nondec or noninc, "staircase boundary not monotone"
            if nondec:
                for a in range(na):
                    # val_p <= a  =>  val_q <= thr[a]
                    if imply(neg(z(p, a + 1)), neg(z(q, thr[a] + 1))) is False:
                        return False
            else:
                for a in range(na):
                    lhs = z(p, a) if a > 0 else TRUE
                    if imply(lhs, neg(z(q, thr[a] + 1))) is False:
                        return False
        return True

    for p in range(k):
        for q in range(p + 1, k):
            ip, iq = part_of[p], part_of[q]
            want_up = pattern[p] < pattern[q]

            def rel_x(a: int, b: int, ip=ip, iq=iq) -> bool:
                return tpos[ip][a] < tpos[iq][b]

            def rel_y(a: int, b: int, ip=ip, iq=iq, w=want_up) -> bool:
                return (tval[ip][a] < tval[iq][b]) == w

            if not encode_staircase(p, q, rel_x):
                return None
            if not encode_staircase(p, q, rel_y):
                return None

    if stats is not None:
        stats["clauses"] = ts.clauses
    model = ts.solve()
    if model is None:
        return None
    emb = []
    for p in range(k):
        dom = len(tpos[part_of[p]])
        val = 0
        for j in range(1, dom):
            if model[var[(p, j)]]:
                val = j
        emb.append(tpos[part_of[p]][val])
    witness = tuple(emb)
    # loud re-validation: an encoding bug must never produce a witness
    if not is_order_isomorphic(text, pattern, witness):
        raise RuntimeError(
            f"threshold encoding produced an invalid witness {witness}")
    for i, part in enumerate(pi.parts):
        tgt = set(sigma.parts[i])
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
    """
    from .grid import find_gridding
    _require_monotone(m)
    g_text = find_gridding(text, m)
    if g_text is None:
        raise NoTextGridding("text admits no gridding (broken promise)")
    sigma = extract_partition(text, g_text, m)
    tried = 0
    for g_pat in all_griddings(pattern, m):
        tried += 1
        pi = extract_partition(pattern, g_pat, m)
        sub = {} if stats is not None else None
        emb = psi_embedding(pattern, pi, text, sigma, stats=sub)
        if stats is not None:
            stats["griddings_tried"] = tried
            stats["clauses"] = stats.get("clauses", 0) + sub.get("clauses", 0)
            stats["gridding_text"] = g_text
            if emb is not None:
                stats["gridding_pattern"] = g_pat
        if emb is not None:
            return emb
    if stats is not None:
        stats["griddings_tried"] = tried
        stats["gridding_text"] = g_text
    return None

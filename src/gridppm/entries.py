"""The closed vocabulary of cell classes used in gridding matrices.

Tags: empty, inc, dec, the Fibonacci class fib+ (all |p_i - i| <= 1, the
direct sums of 1s and 21s) and its reverse fib- (the skew sums of 1s and
12s), avoidance classes av:sigma for a concrete sigma, and
monotone juxtapositions juxth:d1,d2 / juxtv:d1,d2 with d in {inc, dec}.
Membership of a concrete permutation in every tag is decidable here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .perm import (Permutation, SymmetryOp, apply_symmetry, avoids,
                   is_fibonacci, perm)


@dataclass(frozen=True)
class ClassEntry:
    kind: str  # empty | inc | dec | fib+ | fib- | av | juxth | juxtv
    sigma: Optional[Permutation] = None
    d1: Optional[str] = None
    d2: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("empty", "inc", "dec", "fib+", "fib-",
                             "av", "juxth", "juxtv"):
            raise ValueError(f"unknown entry kind {self.kind!r}")
        if self.kind == "av" and self.sigma is None:
            raise ValueError("av entry needs a pattern")
        if self.kind == "av" and len(self.sigma) < 2:
            # Av(1) holds only the empty permutation, Av() holds nothing
            raise ValueError(f"{format_entry(self)} holds no point: an av "
                             "pattern needs at least 2 points")
        if self.kind in ("juxth", "juxtv"):
            if self.d1 not in ("inc", "dec") or self.d2 not in ("inc", "dec"):
                raise ValueError("juxtaposition parts must be inc or dec")

    def __repr__(self) -> str:
        return f"Entry({format_entry(self)})"


EMPTY_E = ClassEntry("empty")
INC = ClassEntry("inc")
DEC = ClassEntry("dec")
FIBP = ClassEntry("fib+")
FIBM = ClassEntry("fib-")


def av(sigma: Permutation) -> ClassEntry:
    return ClassEntry("av", sigma=sigma)


def juxth(d1: str, d2: str) -> ClassEntry:
    return ClassEntry("juxth", d1=d1, d2=d2)


def is_empty(e: ClassEntry) -> bool:
    return e.kind == "empty"


def is_monotone(e: ClassEntry) -> bool:
    return e.kind in ("inc", "dec")


def _sum_indecomposable(s: Permutation) -> bool:
    seen_max = 0
    for i, v in enumerate(s.ranks[:-1], start=1):
        seen_max = max(seen_max, v)
        if seen_max == i:
            return False
    return len(s) > 0


def _skew_indecomposable(s: Permutation) -> bool:
    n = len(s)
    seen_min = n + 1
    for i, v in enumerate(s.ranks[:-1], start=1):
        seen_min = min(seen_min, v)
        if seen_min == n - i + 1:
            return False
    return n > 0


def sum_closed(e: ClassEntry) -> bool:
    """Closed under direct sums (refines into a diagonal block matrix)."""
    if e.kind in ("inc", "fib+"):
        return True
    if e.kind == "av":
        return _sum_indecomposable(e.sigma)
    return False


def skew_closed(e: ClassEntry) -> bool:
    if e.kind in ("dec", "fib-"):
        return True
    if e.kind == "av":
        return _skew_indecomposable(e.sigma)
    return False


def is_monotone_run(vals: Sequence[int], d: str) -> bool:
    """Whether vals rise (d == "inc") or fall (d == "dec") strictly."""
    if d == "inc":
        return all(a < b for a, b in zip(vals, vals[1:]))
    return all(a > b for a, b in zip(vals, vals[1:]))


def _monotone_prefix(vals: Sequence[int], d: str) -> int:
    """The length of the longest prefix of distinct vals that rises
    (d == "inc") or falls (d == "dec")."""
    for i in range(1, len(vals)):
        if (vals[i - 1] < vals[i]) != (d == "inc"):
            return i
    return len(vals)


def _longest_increasing(vals: Tuple[int, ...]) -> int:
    """Patience sorting, O(n log n)."""
    from bisect import bisect_left
    piles: list = []
    for v in vals:
        i = bisect_left(piles, v)
        if i == len(piles):
            piles.append(v)
        else:
            piles[i] = v
    return len(piles)


def _contains_linear(e: ClassEntry, p: Permutation) -> bool:
    """Membership in every kind but av, in linear time."""
    n = len(p)
    if e.kind == "empty":
        return n == 0
    if e.kind in ("inc", "dec"):
        return is_monotone_run(p.ranks, e.kind)
    if e.kind == "fib+":
        return is_fibonacci(p)
    if e.kind == "fib-":
        return is_fibonacci(apply_symmetry(p, SymmetryOp("r")))
    # juxth: a column cut, prefix in d1 and suffix in d2.  A cut fits
    # exactly when the longest d1 prefix and the longest d2 suffix cover
    # p.  juxtv, a row cut by value with d1 the bottom part, is juxth of
    # the inverse: a set of points rises (falls) whichever axis orders it.
    ranks = p.ranks if e.kind == "juxth" else \
        apply_symmetry(p, SymmetryOp("i")).ranks
    back = "dec" if e.d2 == "inc" else "inc"
    return _monotone_prefix(ranks, e.d1) \
        + _monotone_prefix(ranks[::-1], back) >= n


# the classes of the vocabulary whose membership test is linear
_LINEAR_CLASSES = (INC, DEC, FIBP, FIBM) + tuple(
    ClassEntry(kind, d1=d1, d2=d2) for kind in ("juxth", "juxtv")
    for d1 in ("inc", "dec") for d2 in ("inc", "dec"))


def entry_contains(e: ClassEntry, p: Permutation) -> bool:
    if e.kind != "av":
        return _contains_linear(e, p)
    # monotone patterns reduce to a longest-run computation
    if is_monotone_run(e.sigma.ranks, "inc"):
        return _longest_increasing(p.ranks) < len(e.sigma)
    if is_monotone_run(e.sigma.ranks, "dec"):
        rev = tuple(reversed(p.ranks))
        return _longest_increasing(rev) < len(e.sigma)
    # a class is closed under patterns, so p avoids sigma when it lies in
    # a class that sigma lies outside; otherwise the brute force decides
    if any(_contains_linear(w, p) for w in _LINEAR_CLASSES
           if not _contains_linear(w, e.sigma)):
        return True
    return avoids(p, e.sigma)


def parse_entry(s: str) -> ClassEntry:
    s = s.strip().lower()
    if s in ("empty", "inc", "dec", "fib+", "fib-"):
        return ClassEntry(s)
    if s.startswith("av:"):
        return av(perm(*[int(ch) for ch in s[3:].strip()]))
    if s.startswith("juxth:") or s.startswith("juxtv:"):
        kind, _, rest = s.partition(":")
        d1, _, d2 = rest.partition(",")
        return ClassEntry(kind, d1=d1.strip(), d2=d2.strip())
    raise ValueError(f"unknown entry string {s!r}")


def format_entry(e: ClassEntry) -> str:
    if e.kind == "av":
        return "av:" + "".join(map(str, e.sigma.ranks))
    if e.kind in ("juxth", "juxtv"):
        return f"{e.kind}:{e.d1},{e.d2}"
    return e.kind

"""Permutations as sequences and as point sets.

A permutation of length n is a sequence of the ranks 1..n, each exactly
once.  Its diagram is the point set {(i, p_i)}.  Containment and the
eight symmetries operate on this diagram view.
"""

from __future__ import annotations

import bisect
import itertools
import operator
from array import array
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple


class InvalidWitness(RuntimeError):
    """A search returned an embedding that does not induce the pattern."""


@dataclass(frozen=True)
class Permutation:
    ranks: Tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.ranks)
        # each rank in 1..n and none twice, in O(n) time and n bytes
        seen = bytearray(n + 1)
        for r in self.ranks:
            if not 0 < r <= n or seen[r]:
                # name the first bad rank: the sequence can be huge
                at = self.ranks.index(r)
                if 0 < r <= n:
                    at = self.ranks.index(r, at + 1)
                    why = "repeats"
                else:
                    why = "is out of range"
                raise ValueError(f"not a permutation of 1..{n}: rank {r} "
                                 f"{why} at position {at + 1}")
            seen[r] = 1

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, i: int) -> int:
        return self.ranks[i]

    def __iter__(self):
        return iter(self.ranks)

    def __repr__(self) -> str:
        return "Perm(" + " ".join(map(str, self.ranks)) + ")"

    def points(self) -> Tuple[Tuple[int, int], ...]:
        """The diagram {(i, p_i)}, 1-based."""
        return tuple((i + 1, r) for i, r in enumerate(self.ranks))


def perm(*ranks: int) -> Permutation:
    return Permutation(ranks)


EMPTY = Permutation(())


def is_order_isomorphic(text: Permutation, pattern: Permutation,
                        embedding: Sequence[int]) -> bool:
    """Check, in linear time, that text restricted to `embedding`
    (0-based positions, strictly increasing) induces exactly `pattern`:
    the images' values rise along the pattern's inverse."""
    if len(embedding) != len(pattern):
        return False
    lows = itertools.chain((-1,), embedding)
    highs = itertools.chain(embedding, (len(text),))
    if not all(map(operator.lt, lows, highs)):
        return False
    inv = array("i", [0]) * len(pattern)
    for i, v in enumerate(pattern.ranks):
        inv[v - 1] = i
    vals = [text.ranks[embedding[i]] for i in inv]
    return all(map(operator.lt, vals, itertools.islice(vals, 1, None)))


def embeddings(text: Permutation, pattern: Permutation,
               allowed: Optional[Sequence[Sequence[int]]] = None
               ) -> Iterator[Tuple[int, ...]]:
    """Every embedding of pattern into text (0-based positions, strictly
    increasing), in lexicographic order.

    ``allowed[i]``, when given, is the ascending list of text positions
    that pattern point i may take.  Iterative backtracking; worst case
    O(n^k).
    """
    n, k = len(text), len(pattern)
    if allowed is None:
        allowed = [range(n)] * k
    elif len(allowed) != k:
        raise ValueError(f"{len(allowed)} allowed lists for {k} points")
    if k == 0:
        yield ()
        return

    tr, pr = text.ranks, pattern.ranks
    chosen: List[int] = []
    # one entry per pattern point from 0 to len(chosen): its untried
    # candidates, and the open value interval the points chosen before
    # it leave for its image
    stack = []
    while True:
        i = len(chosen)
        if len(stack) == i:
            # enter point i: candidates right of the last choice that
            # leave room for the k - 1 - i points after it
            cand = allowed[i]
            a = bisect.bisect_right(cand, chosen[-1]) if chosen else 0
            w = pr[i]
            lo = max([tr[q] for j, q in enumerate(chosen) if pr[j] < w],
                     default=0)
            hi = min([tr[q] for j, q in enumerate(chosen) if pr[j] > w],
                     default=n + 1)
            stack.append((iter(cand[a:bisect.bisect_right(cand, n - k + i)]),
                          lo, hi))
        it, lo, hi = stack[-1]
        for pos in it:
            if lo < tr[pos] < hi:
                break
        else:
            stack.pop()
            if not chosen:
                return
            chosen.pop()
            continue
        if i + 1 == k:
            yield tuple(chosen) + (pos,)
        else:
            chosen.append(pos)


def contains(text: Permutation, pattern: Permutation) -> Optional[Tuple[int, ...]]:
    """Lexicographically least embedding of pattern into text, or None.

    The witness is re-validated before being returned.
    """
    witness = next(embeddings(text, pattern), None)
    if witness is not None and not is_order_isomorphic(text, pattern,
                                                       witness):
        raise InvalidWitness(f"backtracking produced {witness}")
    return witness


def avoids(p: Permutation, sigma: Permutation) -> bool:
    return contains(p, sigma) is None


# --- symmetries -----------------------------------------------------------

_GENERATORS = ("r", "c", "i")  # reversal, complement, inverse


@dataclass(frozen=True)
class SymmetryOp:
    """A word over {r, c, i}; the group they generate has order 8."""

    word: str = ""

    def __post_init__(self) -> None:
        if any(ch not in _GENERATORS for ch in self.word):
            raise ValueError(f"unknown symmetry letters in {self.word!r}")


def apply_symmetry(p: Permutation, s: SymmetryOp) -> Permutation:
    out = p
    for ch in reversed(s.word):
        n = len(out)
        if ch == "r":
            out = Permutation(tuple(reversed(out.ranks)))
        elif ch == "c":
            out = Permutation(tuple(n + 1 - v for v in out.ranks))
        else:  # inverse: swap the roles of position and value
            inv = [0] * n
            for i, v in enumerate(out.ranks):
                inv[v - 1] = i + 1
            out = Permutation(tuple(inv))
    return out


def all_symmetries() -> Tuple[SymmetryOp, ...]:
    """Canonical coset words for the 8-element symmetry group."""
    return tuple(SymmetryOp(w) for w in
                 ("", "r", "c", "i", "rc", "ri", "ci", "rci"))


# --- small class predicates ----------------------------------------------

def is_fibonacci(p: Permutation) -> bool:
    """Membership in the Fibonacci class: |p_i - i| <= 1 for all i."""
    return all(abs(v - (i + 1)) <= 1 for i, v in enumerate(p.ranks))


# --- text format ----------------------------------------------------------

def parse_perm(text: str) -> Permutation:
    """One line of space-separated decimal ranks; empty input is the
    empty permutation."""
    return Permutation(tuple(map(int, text.split())))


def format_perm(p: Permutation) -> str:
    return " ".join(map(str, p.ranks)) + "\n"

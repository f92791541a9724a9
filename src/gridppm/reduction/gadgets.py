"""Point-level emitters for the reduction gadgets.

Every gadget is described in a tile-local frame.  A tile on the cell path
shares one axis with its predecessor and the other axis with its successor,
so each emitted point is a pair of values

    (out, inn)

where ``inn`` is the coordinate on the axis shared with the previous tile
(the axis along which the gadget's inputs are sandwiched) and ``out`` the
coordinate on the axis shared with the next tile (the values the outputs
carry forward).  The builder is responsible for mapping (out, inn) onto
(x, y) according to the actual adjacency of each tile, which collapses the
row/column case analysis into a single code path.

Inputs to a gadget are given as value intervals: the two coordinates of an
atomic pair on the shared axis, sorted ascending.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple

from ..coords import EPS, ExactCoord, coord

__all__ = [
    "RawPoint",
    "RawPair",
    "gadget_copy",
    "gadget_pick",
    "gadget_multiply",
    "gadget_choose",
    "gadget_merge",
    "gadget_follow",
    "gadget_initial",
    "gadget_bucket",
    "FlipChain",
    "flip_text_chains",
    "flip_pattern_chain",
    "pair_values",
]


@dataclass(frozen=True)
class RawPoint:
    out: ExactCoord
    inn: ExactCoord


# An atomic pair in formula order (s, t).
RawPair = Tuple[RawPoint, RawPoint]


def pair_values(pair: RawPair) -> Tuple[ExactCoord, ExactCoord]:
    """Value interval of a pair on the outgoing axis, sorted ascending."""
    a, b = pair[0].out, pair[1].out
    return (a, b) if a < b else (b, a)


def _thirds(r: ExactCoord, q: ExactCoord) -> Tuple[ExactCoord, ExactCoord]:
    lo = (r.scale(2) + q).scale(Fraction(1, 3))
    hi = (r + q.scale(2)).scale(Fraction(1, 3))
    return lo, hi


def gadget_copy(r: ExactCoord, q: ExactCoord) -> List[RawPair]:
    """12 pair sandwiched by the input on the shared axis."""
    return [(RawPoint(r, r + EPS), RawPoint(q, q - EPS))]


def gadget_pick(r: ExactCoord, q: ExactCoord) -> List[RawPair]:
    """21 pair sandwiched by the input; forces a committed branch."""
    return [(RawPoint(r, q - EPS), RawPoint(q, r + EPS))]


def gadget_multiply(r: ExactCoord, q: ExactCoord) -> List[RawPair]:
    """Two 12 pairs (a 1234) splitting one channel into two."""
    lo, hi = _thirds(r, q)
    b1 = (RawPoint(r, r + EPS), RawPoint(lo, lo))
    b2 = (RawPoint(hi, hi), RawPoint(q, q - EPS))
    return [b1, b2]


def gadget_choose(r: ExactCoord, q: ExactCoord) -> List[RawPair]:
    """Two 21 pairs (a 2143); an incoming channel commits to one of them."""
    lo, hi = _thirds(r, q)
    b1 = (RawPoint(r, lo), RawPoint(lo, r + EPS))
    b2 = (RawPoint(hi, q - EPS), RawPoint(q, hi))
    return [b1, b2]


def gadget_merge(
    r1: ExactCoord, q1: ExactCoord, r2: ExactCoord, q2: ExactCoord
) -> List[RawPair]:
    """21 pair sandwiching the union of two adjacent input pairs."""
    return [(RawPoint(r1, q2 + EPS), RawPoint(q2, r1 - EPS))]


def gadget_follow(r: ExactCoord, q: ExactCoord) -> List[RawPair]:
    """21 pair sandwiching a single input pair from outside."""
    return [(RawPoint(r, q + EPS), RawPoint(q, r - EPS))]


def gadget_initial(lo: Fraction, hi: Fraction) -> List[RawPair]:
    """12 pair on the diagonal at values ``lo < hi``: a channel's start."""
    return [(RawPoint(coord(lo), coord(lo)), RawPoint(coord(hi), coord(hi)))]


def gadget_bucket(r: ExactCoord, q: ExactCoord, step: Fraction, k: int
                  ) -> List[RawPair]:
    """A 12 sandwiched by the input, carrying it onto the k-th pair of
    fresh outgoing values 1/2 + (2k+1)*step < 1/2 + (2k+2)*step."""
    lo = coord(Fraction(1, 2) + step * (2 * k + 1))
    return [(RawPoint(lo, r + EPS), RawPoint(lo + coord(step), q - EPS))]


@dataclass(frozen=True)
class FlipChain:
    """Points contributed by one logical channel of a flip gadget.

    ``head`` lives in the first tile of the span, one ``middle`` pair in
    every interior tile, and ``end`` in the last tile.  The ``end`` pair is
    a 21 occupying the value slot recorded in ``values``.
    """

    head: RawPoint
    middle: RawPair
    end: RawPair
    values: Tuple[ExactCoord, ExactCoord]


def _mid(r: ExactCoord, q: ExactCoord) -> ExactCoord:
    return (r + q).scale(Fraction(1, 2))


def _chain(r: ExactCoord, q: ExactCoord, m: ExactCoord,
           inn: ExactCoord) -> FlipChain:
    """The chain that ends on the slot (r, q) of midpoint m, its head
    at ``inn`` on the incoming axis."""
    return FlipChain(
        head=RawPoint(m, inn),
        middle=(RawPoint(r + EPS, r), RawPoint(q - EPS, q)),
        end=(RawPoint(r, q), RawPoint(q, r)),
        values=(r, q),
    )


def flip_text_chains(
    r1: ExactCoord, q1: ExactCoord, r2: ExactCoord, q2: ExactCoord
) -> Tuple[FlipChain, FlipChain]:
    """Chains continuing the lower input pair A1 and the upper pair A2.

    The continuation of A1 travels inside A2's value band and ends at the
    upper slot, and vice versa: the flip exchanges the two channels'
    physical positions while each chain stays pinned to its own input by
    sandwiching.
    """
    m1, m2 = _mid(r1, q1), _mid(r2, q2)
    return _chain(r2, q2, m2, m1), _chain(r1, q1, m1, m2)


def flip_pattern_chain(r: ExactCoord, q: ExactCoord) -> FlipChain:
    """Single-channel chain matching the shape of a text flip chain: the
    pair is both its source and its target."""
    m = _mid(r, q)
    return _chain(r, q, m, m)

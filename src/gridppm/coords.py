"""Exact plane coordinates with one symbolic infinitesimal.

A coordinate is a formal expression ``a + b*eps`` with rational a and b,
where eps is a positive infinitesimal.  Comparison is therefore
lexicographic on (a, b).  This makes every "for a small enough eps > 0"
clause in the gadget formulas exact: no numeric tuning, no tolerance
anywhere.

Representation: three plain ints ``(na, nb, den)`` with ``a = na/den``
and ``b = nb/den``.  The shared denominator is positive and the three
ints have no common factor, so every value has exactly one
representation and equality, hashing and ordering work on the ints
directly.  Arithmetic is integer-only, with a fast path when both
operands share a denominator; ``a`` and ``b`` are available as
read-only ``Fraction`` views.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Union

Rat = Union[int, Fraction]


class ExactCoord:
    """(na + nb*eps) / den, ordered lexicographically.

    The constructor trusts its arguments: ``den > 0`` and
    ``gcd(na, nb, den) == 1``.  Build coordinates with ``coord``;
    arithmetic keeps the invariant.  Instances are treated as immutable
    everywhere.
    """

    __slots__ = ("na", "nb", "den")

    def __init__(self, na: int, nb: int, den: int) -> None:
        self.na = na
        self.nb = nb
        self.den = den

    @property
    def a(self) -> Fraction:
        return Fraction(self.na, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.nb, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactCoord):
            return NotImplemented
        return (self.na == other.na and self.den == other.den
                and self.nb == other.nb)

    def __hash__(self) -> int:
        return hash((self.na, self.nb, self.den))

    def __lt__(self, other: "ExactCoord") -> bool:
        sd, od = self.den, other.den
        if sd == od:
            return (self.na, self.nb) < (other.na, other.nb)
        return (self.na * od, self.nb * od) < (other.na * sd, other.nb * sd)

    def __le__(self, other: "ExactCoord") -> bool:
        return not other.__lt__(self)

    def __gt__(self, other: "ExactCoord") -> bool:
        return other.__lt__(self)

    def __ge__(self, other: "ExactCoord") -> bool:
        return not self.__lt__(other)

    def __add__(self, other: "ExactCoord") -> "ExactCoord":
        sd, od = self.den, other.den
        if sd == od:
            return _reduced(self.na + other.na, self.nb + other.nb, sd)
        g = gcd(sd, od)
        ms, mo = od // g, sd // g
        return _reduced(self.na * ms + other.na * mo,
                        self.nb * ms + other.nb * mo, sd * ms)

    def __sub__(self, other: "ExactCoord") -> "ExactCoord":
        sd, od = self.den, other.den
        if sd == od:
            return _reduced(self.na - other.na, self.nb - other.nb, sd)
        g = gcd(sd, od)
        ms, mo = od // g, sd // g
        return _reduced(self.na * ms - other.na * mo,
                        self.nb * ms - other.nb * mo, sd * ms)

    def __neg__(self) -> "ExactCoord":
        return ExactCoord(-self.na, -self.nb, self.den)

    def scale(self, r: Rat) -> "ExactCoord":
        rn, rd = (r, 1) if type(r) is int else (r.numerator, r.denominator)
        return _reduced(self.na * rn, self.nb * rn, self.den * rd)

    def __repr__(self) -> str:
        parts = [str(self.a)]
        if self.nb:
            parts.append(f"{self.b}e")
        return "+".join(parts).replace("+-", "-")


def _reduced(na: int, nb: int, den: int) -> ExactCoord:
    """The coordinate (na, nb)/den in lowest terms; den > 0."""
    g = gcd(na, nb, den)
    if g != 1:
        return ExactCoord(na // g, nb // g, den // g)
    return ExactCoord(na, nb, den)


def coord(a: Rat, b: Rat = 0) -> ExactCoord:
    fa, fb = Fraction(a), Fraction(b)
    den = lcm(fa.denominator, fb.denominator)
    return _reduced(fa.numerator * (den // fa.denominator),
                    fb.numerator * (den // fb.denominator), den)


EPS = coord(0, 1)

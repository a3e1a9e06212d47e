"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Values are a + b*sqrt(d) with Fraction components.  Mixing two different
irrationalities is not supported (and not needed: each exact computation in
this package lives in a single Q(sqrt(d))).  Rationals embed with b = 0 and
combine with any d.  A QuadVal adds, multiplies, divides and compares for
equality; it is neither hashed nor ordered.

exact_product multiplies a sequence of ints, Fractions and QuadVals as
integer triples (n_a, n_b, den), standing for (n_a + n_b*sqrt(d)) / den, and
reduces each component once at the end instead of after every factor.
"""

from __future__ import annotations

import math
from fractions import Fraction


class QuadVal:
    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.d = int(d)
        if self.d < 0:
            raise ValueError(f"d = {self.d} is negative: not a real field")
        root = math.isqrt(self.d)
        if root * root == self.d:
            # sqrt(d) is an integer (d = 0 included): fold it into a
            self.a += self.b * root
            self.b = Fraction(0)
        if self.b == 0:
            self.d = 0

    @classmethod
    def _of(cls, a, b, d):
        """a + b*sqrt(d) from Fraction a, b and int d, taken as they are."""
        self = object.__new__(cls)
        self.a = a
        self.b = b
        self.d = d if b else 0
        return self

    def _coerce(self, other):
        if isinstance(other, QuadVal):
            if self.d and other.d and self.d != other.d:
                raise ValueError("mixing different quadratic fields")
            return other
        return QuadVal(other)

    def _field(self, other):
        return self.d or other.d

    def __add__(self, other):
        other = self._coerce(other)
        return QuadVal._of(self.a + other.a, self.b + other.b,
                           self._field(other))

    __radd__ = __add__

    def __mul__(self, other):
        other = self._coerce(other)
        d = self._field(other)
        return QuadVal._of(self.a * other.a + self.b * other.b * d,
                           self.a * other.b + self.b * other.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        d = self._field(other)
        norm = other.a * other.a - other.b * other.b * d
        if norm == 0:
            raise ZeroDivisionError
        conj = QuadVal(other.a, -other.b, d)
        prod = self * conj
        return QuadVal(prod.a / norm, prod.b / norm, prod.d)

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ValueError:
            return False
        return self.a == other.a and self.b == other.b

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        if self.b == 0:
            return f"QuadVal({self.a})"
        return f"QuadVal({self.a} + {self.b}*sqrt({self.d}))"


def exact_product(factors, scale=1):
    """scale * f1 * f2 * ... for a sequence of factors and an int scale.

    Ints and Fractions are read as (n, 0, den) and a QuadVal a + b*sqrt(d)
    as (a.num*b.den, b.num*a.den, a.den*b.den); the integer triples are
    multiplied and each component is reduced once; the sqrt(d) component
    is multiplied only from the first QuadVal on.  The result is a
    Fraction, or a QuadVal when any factor is one.  A factor of any other
    type (a float, say) sends the sequence through the left-to-right
    product Fraction(1) * f1 * f2 * ... * scale, so inexact weights keep
    their bits.
    """
    na, nb, den, d = scale, 0, 1, 0
    quad = False
    for f in factors:
        if isinstance(f, (int, Fraction)):
            n, q = f.as_integer_ratio()
            na *= n
            den *= q
            if quad:
                nb *= n
        elif isinstance(f, QuadVal):
            quad = True
            if f.d:
                if d and f.d != d:
                    raise ValueError("mixing different quadratic fields")
                d = f.d
            an, ad = f.a.as_integer_ratio()
            bn, bd = f.b.as_integer_ratio()
            fa, fb = an * bd, bn * ad
            na, nb = na * fa + nb * fb * d, na * fb + nb * fa
            den *= ad * bd
        else:
            total = Fraction(1)
            for g in factors:
                total = total * g
            return total * scale
    if not quad:
        return Fraction(na, den)
    return QuadVal._of(Fraction(na, den), Fraction(nb, den), d)

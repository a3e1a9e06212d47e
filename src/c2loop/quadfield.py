"""Exact arithmetic in a real quadratic field Q(sqrt(d)).

Values are a + b*sqrt(d) with Fraction components.  Mixing two different
irrationalities is not supported (and not needed: each exact computation in
this package lives in a single Q(sqrt(d))).  Rationals embed with b = 0 and
combine with any d.
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
        if self.b == 0:
            self.d = 0

    @staticmethod
    def sqrt(d):
        """sqrt(n) for a nonnegative rational n, exact when possible."""
        n = Fraction(d)
        num = math.isqrt(n.numerator)
        den = math.isqrt(n.denominator)
        if num * num == n.numerator and den * den == n.denominator:
            return QuadVal(Fraction(num, den))
        if n.denominator != 1:
            raise ValueError("sqrt of non-square rational not supported")
        return QuadVal(0, 1, n.numerator)

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
        return QuadVal(self.a + other.a, self.b + other.b, self._field(other))

    __radd__ = __add__

    def __neg__(self):
        return QuadVal(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + QuadVal(other)

    def __mul__(self, other):
        other = self._coerce(other)
        d = self._field(other)
        return QuadVal(self.a * other.a + self.b * other.b * d,
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

    def __rtruediv__(self, other):
        return QuadVal(other) / self

    def __pow__(self, n):
        out = QuadVal(1)
        base = self
        for _ in range(int(n)):
            out = out * base
        return out

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except ValueError:
            return False
        return self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b, self.d))

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __lt__(self, other):
        other = self._coerce(other)
        return float(self) < float(other)

    def __repr__(self):
        if self.b == 0:
            return f"QuadVal({self.a})"
        return f"QuadVal({self.a} + {self.b}*sqrt({self.d}))"

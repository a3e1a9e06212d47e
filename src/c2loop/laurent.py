"""Exact multivariate Laurent polynomial arithmetic over the rationals.

A polynomial lives in a ring with two kinds of generators:

  * vertex variables, which may carry any integer exponent (Laurent), and
  * root variables s, each equipped with a defining quadratic polynomial q
    (a polynomial in vertex variables only) subject to the rewrite rule
    s^2 -> q.

After every operation a polynomial is kept in canonical form: no zero
coefficients, and every root variable appears with exponent 0 or 1.  A root
variable is never allowed to acquire a negative exponent; an operation that
would need s^-1 raises NotDivisible, since in the intended computations all
divisions are by vertex monomials.  `p / q` is exact division
(lp_div_exact): it raises NotDivisible on a remainder and never rounds.

One kernel, _mul, multiplies and reduces in a single pass: merging two
monomials, it rewrites a root that reaches s^2 by its square on the spot,
from tables the registry builds once.  Products and monomial division go
through it, and so does a constructed term with a root variable: poly(),
which monomial() calls, builds every term list.  A variable to the first
power is already canonical, so var() builds that term itself, and a square
may be given as a term dict already in canonical form.

Representation:

  Monomial  = tuple of (name, exponent) pairs, sorted by registry position,
              with zero exponents omitted.
  terms     = dict {Monomial: Fraction}, zero coefficients never stored.

Coefficients are fractions.Fraction in every term dict; the kernel counts
integral ones as int inside.  Floats never enter the symbolic path.
"""

from __future__ import annotations

import math
from fractions import Fraction


_ONE = Fraction(1)


class LaurentError(Exception):
    pass


class RegistryMismatch(LaurentError):
    pass


class NotDivisible(LaurentError):
    pass


class DivZero(LaurentError):
    pass


class MissingAssignment(LaurentError):
    pass


class NegativeUnderRoot(LaurentError):
    pass


class VarRegistry:
    """Immutable registry of vertex variables and root variables.

    Root variables are declared with their defining square, a polynomial in
    vertex variables only: a list of (exps_dict, coeff) pairs, summed as
    poly() sums them, or a term dict {Monomial: coeff} already in canonical
    form.  The registry fixes the global variable order used by the
    graded-lexicographic term order.
    """

    def __init__(self, vertex_vars, root_squares=None):
        self.vertex_vars = tuple(vertex_vars)
        root_squares = root_squares or {}
        self.root_vars = tuple(root_squares.keys())
        names = self.vertex_vars + self.root_vars
        if len(set(names)) != len(names):
            raise LaurentError("variable names must be unique")
        # the multiply kernel's tables: the variable order, the roots, and
        # each root's square as a term dict with integral coefficients as
        # int.  A square holds no LaurentPoly, whose registry would point
        # back here and make a cycle that only the garbage collector frees.
        self._index = {n: i for i, n in enumerate(names)}
        self._squares = {}
        # with no roots known yet, poly() sums each square's terms as they
        # stand, and a square that names a root is refused below
        self._roots = frozenset()
        for name, sq in root_squares.items():
            terms = self._canonical(sq) if isinstance(sq, dict) \
                else self.poly(sq).terms
            for mono in terms:
                for var, _e in mono:
                    if var in root_squares:
                        raise LaurentError(
                            "root definitions must use vertex variables only")
            self._squares[name] = dict(_int_terms(terms))
        self._roots = frozenset(self.root_vars)
        self._frozen = True

    def __setattr__(self, key, value):
        if getattr(self, "_frozen", False):
            raise LaurentError("registry is immutable")
        super().__setattr__(key, value)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, VarRegistry):
            return NotImplemented
        if (self.vertex_vars, self.root_vars) != (other.vertex_vars,
                                                  other.root_vars):
            return False
        return all(self._squares[n] == other._squares[n]
                   for n in self.root_vars)

    def __hash__(self):
        return hash((self.vertex_vars, self.root_vars))

    def index(self, name):
        return self._index[name]

    def is_root(self, name):
        return name in self._squares

    def root_square(self, name):
        return LaurentPoly({m: Fraction(c)
                            for m, c in self._squares[name].items()}, self)

    def _canonical(self, terms):
        """A term dict, checked to be in canonical form: every monomial's
        variables known, in registry order, with nonzero exponents, and no
        zero coefficient."""
        index = self._index
        for mono, c in terms.items():
            last = -1
            for n, e in mono:
                if index[n] <= last or not e:
                    break
                last = index[n]
            else:
                if c:
                    continue
            raise LaurentError(f"term {mono}: {c} is not canonical")
        return terms

    # -- constructors ----------------------------------------------------

    def zero(self):
        return LaurentPoly({}, self)

    def const(self, c):
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return LaurentPoly({(): c}, self)

    def var(self, name):
        if name not in self._index:
            raise LaurentError(f"unknown variable {name!r}")
        return LaurentPoly({((name, 1),): _ONE}, self)

    def monomial(self, exps, coeff=1):
        """Build coeff * prod(var**e) from a {name: exponent} mapping."""
        return self.poly([(exps, coeff)])

    def poly(self, terms):
        """Build a polynomial from an iterable of (exps_dict, coeff), summed
        in order: a monomial whose sum cancels is dropped, and comes back at
        the end if it recurs.  Only a monomial with a root variable goes
        through the kernel, to reduce it."""
        out = {}
        order = self._index.__getitem__
        for exps, coeff in terms:
            ks = sorted([n for n, e in exps.items() if e], key=order)
            part = {tuple(zip(ks, map(exps.__getitem__, ks))): Fraction(coeff)}
            if self._roots.intersection(ks):
                part = _mul(part, {(): 1}, self)
            for mono, c in part.items():
                if mono in out:
                    c += out[mono]
                if c:
                    out[mono] = c
                else:
                    out.pop(mono, None)
        return LaurentPoly(out, self)


class LaurentPoly:
    """Sparse Laurent polynomial in canonical (root-reduced) form."""

    __slots__ = ("terms", "registry")

    def __init__(self, terms, registry):
        self.terms = terms
        self.registry = registry

    # -- ring operations --------------------------------------------------

    def _check(self, other):
        if not isinstance(other, LaurentPoly):
            other = self.registry.const(other)
        if other.registry is not self.registry and \
                other.registry != self.registry:
            raise RegistryMismatch("operands use different registries")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out[m] + c if m in out else c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return LaurentPoly(out, self.registry)

    __radd__ = __add__

    def __mul__(self, other):
        other = self._check(other)
        reg = self.registry
        return LaurentPoly(_mul(self.terms, other.terms, reg), reg)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Exact division; see lp_div_exact."""
        return lp_div_exact(self, other)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.registry.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.registry is not other.registry and \
                self.registry != other.registry:
            return False
        return self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "<poly 0>"
        bits = []
        for mono, coeff in sorted(self.terms.items(),
                                  key=lambda t: self._order_key(t[0])):
            factors = "".join(
                f"*{n}" if e == 1 else f"*{n}^{e}" for n, e in mono)
            bits.append(f"{coeff}{factors}")
        return "<poly " + " + ".join(bits) + ">"

    def _order_key(self, mono):
        """Graded lexicographic key over the registry's variable order."""
        reg = self.registry
        exps = dict(mono)
        vec = tuple(-exps.get(n, 0)
                    for n in reg.vertex_vars + reg.root_vars)
        total = -sum(exps.values())
        return (total, vec)

    def is_monomial(self):
        return len(self.terms) == 1

    def num_terms(self):
        return len(self.terms)

    def has_roots(self):
        reg = self.registry
        return any(reg.is_root(n) for m in self.terms for n, _ in m)


def _mul(terms1, terms2, reg):
    """The multiply kernel: the canonical term dict of a product.

    Each pair of terms merges its exponent maps.  A root variable s that
    reaches exponent e >= 2 is rewritten on the spot, e // 2 times, by its
    square * s^-2, which leaves s^(e%2); a negative root exponent raises
    NotDivisible.  Integral coefficients are multiplied and summed as int,
    and every output coefficient is made a Fraction once, at the end.
    """
    order = reg._index.__getitem__
    left = [(m, dict(m), [n for n, _ in m if n in reg._roots], c)
            for m, c in _int_terms(terms1)]
    out = {}
    for m2, c2 in _int_terms(terms2):
        r2 = [n for n, _ in m2 if n in reg._roots]
        for mono, d, r1, c1 in left:
            if m2:
                mono, d = None, _merge(d, m2)
            products = [(d, c1 * c2)]
            for n in r1 + r2:
                e = products[0][0].get(n, 0)
                if e < 0:
                    raise NotDivisible(
                        f"negative exponent on root variable {n!r}")
                for _ in range(e // 2):
                    mono = None
                    square = reg._squares[n].items()
                    products = [(_merge(dp, sm + ((n, -2),)), cp * sc)
                                for dp, cp in products for sm, sc in square]
            for d, c in products:
                if mono is None:
                    ks = sorted(d, key=order)
                    mono = tuple(zip(ks, map(d.__getitem__, ks)))
                out[mono] = out.get(mono, 0) + c
                mono = None
    for mono in [m for m, c in out.items() if not c]:
        del out[mono]
    for mono, c in out.items():
        if type(c) is int:
            out[mono] = Fraction(c)
    return out


def _int_terms(terms):
    """(monomial, coefficient) pairs with integral coefficients as int."""
    return [(m, c.numerator if c.denominator == 1 else c)
            for m, c in terms.items()]


def _merge(d, mono):
    """A copy of the exponent map d, times a monomial."""
    d = dict(d)
    for n, e in mono:
        e += d.get(n, 0)
        if e:
            d[n] = e
        else:
            del d[n]
    return d


def lp_div_exact(p, q):
    """Exact division p / q.

    q must be a single monomial (possibly with roots), or a general
    polynomial free of root variables.  Raises NotDivisible when the division
    leaves a remainder, which in the recurrence context signals a breach of
    the Laurent property and is a hard failure.
    """
    q = p._check(q)
    if not q.terms:
        raise DivZero("division by zero polynomial")
    reg = p.registry
    if q.is_monomial():
        # multiply by the inverse monomial; a root variable left with a
        # negative exponent makes the kernel raise NotDivisible
        (qmono, qcoeff), = q.terms.items()
        inverse = {tuple((n, -e) for n, e in qmono): 1 / qcoeff}
        return LaurentPoly(_mul(p.terms, inverse, reg), reg)
    if q.has_roots():
        raise NotDivisible("general divisor must be free of root variables")
    # Split the dividend into sectors by square-free root monomial; each
    # sector is a vertex-only polynomial that must be divisible on its own.
    sectors = {}
    for m, c in p.terms.items():
        rootpart = tuple((n, e) for n, e in m if reg.is_root(n))
        vertpart = tuple((n, e) for n, e in m if not reg.is_root(n))
        sectors.setdefault(rootpart, {})[vertpart] = c
    result = {}
    for rootpart, terms in sectors.items():
        quo = _divide_vertex_exact(terms, q, reg)
        for m, c in quo.items():
            full = tuple(sorted(m + rootpart, key=lambda t: reg.index(t[0])))
            result[full] = c
    return LaurentPoly(result, reg)


def _divide_vertex_exact(p_terms, q, reg):
    """Exact division of vertex-only term dicts; raises NotDivisible."""
    # Shift both operands into ordinary (non-negative) polynomials so the
    # classical division algorithm terminates, then shift the quotient back.
    names = reg.vertex_vars
    p_min = {n: 0 for n in names}
    q_min = {n: 0 for n in names}
    for m in p_terms:
        d = dict(m)
        for n in names:
            p_min[n] = min(p_min[n], d.get(n, 0))
    for m in q.terms:
        d = dict(m)
        for n in names:
            q_min[n] = min(q_min[n], d.get(n, 0))

    def shift(terms, mins):
        out = {}
        for m, c in terms.items():
            d = dict(m)
            out[tuple(d.get(n, 0) - mins[n] for n in names)] = c
        return out

    pw = shift(p_terms, p_min)
    qw = shift({m: c for m, c in q.terms.items()}, q_min)

    def key(v):
        return (-sum(v), tuple(-x for x in v))

    q_lead = min(qw, key=key)
    q_lc = qw[q_lead]
    quo = {}
    guard = 0
    limit = 10 * (len(pw) + 1) * (len(qw) + 1) + 10000
    while pw:
        guard += 1
        if guard > limit:
            raise NotDivisible("division does not terminate; not divisible")
        p_lead = min(pw, key=key)
        t = tuple(a - b for a, b in zip(p_lead, q_lead))
        if any(x < 0 for x in t):
            raise NotDivisible("remainder in exact division")
        c = pw[p_lead] / q_lc
        quo[t] = quo.get(t, Fraction(0)) + c
        for m, cc in qw.items():
            m2 = tuple(a + b for a, b in zip(t, m))
            s = pw.get(m2, Fraction(0)) - c * cc
            if s == 0:
                pw.pop(m2, None)
            else:
                pw[m2] = s
    out = {}
    for v, c in quo.items():
        mono = tuple(
            (n, e) for n, e in
            ((names[i], v[i] + p_min[names[i]] - q_min[names[i]])
             for i in range(len(names)))
            if e != 0)
        out[mono] = c
    return out


def lp_eval(p, assign):
    """Evaluate at a point, as a float.  Vertex variables must all be
    assigned positive values; a root variable takes the nonnegative square
    root of its defining polynomial's value.
    """
    reg = p.registry
    root_vals = {}

    def root_val(name):
        if name not in root_vals:
            sq = lp_eval(reg.root_square(name), assign)
            if sq < 0:
                raise NegativeUnderRoot(
                    f"defining square of {name!r} is negative at this point")
            root_vals[name] = math.sqrt(sq)
        return root_vals[name]

    total = 0.0
    for m, c in p.terms.items():
        val = float(c)
        for n, e in m:
            if reg.is_root(n):
                val *= root_val(n) ** e
            else:
                if n not in assign:
                    raise MissingAssignment(n)
                val *= float(assign[n]) ** e
        total += val
    return total


# -- canonical serialization ------------------------------------------------

def poly_to_json(p):
    """Canonical JSON dict for a polynomial, bit-exact across runs."""
    reg = p.registry

    def term_list(poly):
        items = sorted(poly.terms.items(), key=lambda t: poly._order_key(t[0]))
        return [{"coeff": f"{c.numerator}/{c.denominator}",
                 "exps": {n: e for n, e in m}} for m, c in items]

    return {
        "vars": list(reg.vertex_vars),
        "roots": [{"name": n, "square": term_list(reg.root_square(n))}
                  for n in reg.root_vars],
        "terms": term_list(p),
    }

"""Ring axioms, root reduction, exact division and evaluation."""

import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from c2loop.laurent import (
    DivZero,
    LaurentError,
    NotDivisible,
    RegistryMismatch,
    VarRegistry,
    _mul,
    lp_div_exact,
    lp_eval,
    poly_to_json,
)


def poly_to_json_str(p):
    return json.dumps(poly_to_json(p), sort_keys=True, separators=(",", ":"))


def poly_from_json(data):
    reg = VarRegistry(data["vars"], {
        r["name"]: [(t["exps"], Fraction(t["coeff"])) for t in r["square"]]
        for r in data["roots"]})
    p = reg.zero()
    for t in data["terms"]:
        p = p + reg.monomial(t["exps"], Fraction(t["coeff"]))
    return p


def make_reg():
    return VarRegistry(
        ["g", "g1", "g2", "g3", "g12", "g13", "g23"],
        {
            "X": [({"g": 1, "g23": 1}, 1), ({"g2": 1, "g3": 1}, 1)],
            "Y": [({"g": 1, "g13": 1}, 1), ({"g1": 1, "g3": 1}, 1)],
            "Z": [({"g": 1, "g12": 1}, 1), ({"g1": 1, "g2": 1}, 1)],
        },
    )


REG = make_reg()


def rand_poly(reg, rng, n_terms=4, with_roots=False):
    p = reg.zero()
    vs = list(reg.vertex_vars)
    for _ in range(rng.randint(0, n_terms)):
        exps = {v: rng.randint(-3, 3) for v in rng.sample(vs, rng.randint(0, 3))}
        if with_roots and rng.random() < 0.4:
            exps[rng.choice(list(reg.root_vars))] = 1
        p = p + reg.monomial(exps, Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return p


# -- reference: the two-pass multiply (raw product, then root reduction) ----

def ref_mul_terms(terms1, terms2, reg):
    """Raw (unreduced) term dict of the product of two term dicts."""
    out = {}
    for m1, c1 in terms1.items():
        d1 = dict(m1)
        for m2, c2 in terms2.items():
            d = dict(d1)
            for n, e in m2:
                e2 = d.get(n, 0) + e
                if e2 == 0:
                    d.pop(n, None)
                else:
                    d[n] = e2
            mono = tuple(sorted(d.items(), key=lambda t: reg.index(t[0])))
            out[mono] = out.get(mono, Fraction(0)) + c1 * c2
    return out


def ref_reduce_roots(terms, reg):
    """Rewrite s^e -> square^(e//2) * s^(e%2) until every root exponent is
    0 or 1; a negative root exponent raises NotDivisible."""
    pending = dict(terms)
    out = {}
    while pending:
        mono, coeff = pending.popitem()
        if coeff == 0:
            continue
        hot = None
        for name, e in mono:
            if reg.is_root(name):
                if e < 0:
                    raise NotDivisible(
                        f"negative exponent on root variable {name!r}")
                if e >= 2:
                    hot = (name, e)
                    break
        if hot is None:
            out[mono] = out.get(mono, Fraction(0)) + coeff
            continue
        name, e = hot
        rest = {n: x for n, x in mono if n != name}
        if e % 2:
            rest[name] = 1
        base = tuple(sorted(rest.items(), key=lambda t: reg.index(t[0])))
        expanded = {base: coeff}
        for _ in range(e // 2):
            expanded = ref_mul_terms(expanded, reg.root_square(name).terms,
                                     reg)
        for m2, c2 in expanded.items():
            pending[m2] = pending.get(m2, Fraction(0)) + c2
    return {m: c for m, c in out.items() if c != 0}


def ref_product(terms1, terms2, reg):
    return ref_reduce_roots(ref_mul_terms(terms1, terms2, reg), reg)


def assert_canonical(got, want):
    """Same terms, same Fraction values, keys in registry order."""
    assert got.terms == want
    assert all(type(c) is Fraction for c in got.terms.values())
    reg = got.registry
    for mono in got.terms:
        assert list(mono) == sorted(mono, key=lambda t: reg.index(t[0]))


def test_add_identity_and_cancellation():
    g1 = REG.var("g1")
    g2 = REG.var("g2")
    assert g1 + REG.zero() == g1
    assert (g1 + g2) + (g1 + (-1) * g2) == 2 * g1


def test_add_disjoint_supports():
    p = REG.monomial({"g1": 1, "g2": 1, "g3": 1, "g": -2}, 2)
    q = REG.monomial({"g1": 1, "g23": 1, "g": -1}, 1)
    s = p + q
    assert s.num_terms() == 2
    assert sorted(s.terms.values()) == [Fraction(1), Fraction(2)]


def test_root_square_reduces():
    X = REG.var("X")
    want = REG.monomial({"g": 1, "g23": 1}) + REG.monomial({"g2": 1, "g3": 1})
    assert X * X == want


def test_xyz_squared():
    XYZ = REG.var("X") * REG.var("Y") * REG.var("Z")
    sq = XYZ * XYZ
    want = (
        (REG.monomial({"g": 1, "g23": 1}) + REG.monomial({"g2": 1, "g3": 1}))
        * (REG.monomial({"g": 1, "g13": 1}) + REG.monomial({"g1": 1, "g3": 1}))
        * (REG.monomial({"g": 1, "g12": 1}) + REG.monomial({"g1": 1, "g2": 1}))
    )
    assert sq == want


def test_mul_identity():
    rng = random.Random(1)
    for _ in range(20):
        p = rand_poly(REG, rng, with_roots=True)
        assert p * REG.const(1) == p


def test_registry_mismatch():
    other = VarRegistry(["g", "h"])
    with pytest.raises(RegistryMismatch):
        REG.var("g") + other.var("g")


def _poly_by_addition(reg, terms):
    """Reference poly(): one monomial per term, added up one at a time."""
    out = reg.zero()
    for exps, coeff in terms:
        out = out + reg.monomial(exps, coeff)
    return out


def test_poly_matches_sum_of_monomials():
    # terms, values and insertion order through repeats, zero coefficients,
    # fractions, a cancellation that re-adds a monomial at the end, and
    # roots the kernel reduces
    for terms in ([({"g": 1, "X": 1}, 2), ({"X": 2}, 1), ({"g": 1, "g23": 1}, -1)],
                  [({"Y": 3, "g1": -1}, Fraction(1, 2)), ({"Z": 1}, 0),
                   ({"g1": 1, "g3": 1}, 4), ({"X": 1, "Y": 1}, 1)]):
        got = REG.poly(terms).terms
        want = _poly_by_addition(REG, terms).terms
        assert list(got.items()) == list(want.items())
    with pytest.raises(NotDivisible):
        REG.poly([({"X": -1}, 1)])


def _kernel_monomial(reg, exps, coeff=1):
    """Reference monomial(): every monomial through the multiply kernel."""
    mono = tuple(sorted(((n, e) for n, e in exps.items() if e != 0),
                        key=lambda t: reg.index(t[0])))
    return _mul({mono: Fraction(coeff)}, {(): 1}, reg)


def test_monomial_matches_kernel_path():
    # same terms, key order and Fraction coefficients, over roots that the
    # kernel reduces (exponents 2-3), zero and negative coefficients
    rng = random.Random(23)
    names = REG.vertex_vars + REG.root_vars
    seen = {"reduced": 0, "zero": 0, "negative": 0}
    for _ in range(2000):
        exps = {n: rng.randint(-3, 3)
                for n in rng.sample(names, rng.randint(0, 5))}
        for r in REG.root_vars:
            if r in exps:
                exps[r] = abs(exps[r])
        coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        got = REG.monomial(exps, coeff).terms
        want = _kernel_monomial(REG, exps, coeff)
        assert list(got.items()) == list(want.items())
        assert all(type(c) is Fraction for c in got.values())
        seen["reduced"] += any(exps.get(r, 0) >= 2 for r in REG.root_vars)
        seen["zero"] += coeff == 0
        seen["negative"] += coeff < 0
    assert min(seen.values()) > 50
    with pytest.raises(NotDivisible):
        REG.monomial({"g": 1, "Y": -1})


def test_squares_match_poly_in_insertion_order():
    # each square is summed as it stands, with the terms, values and
    # insertion order of monomials added up one at a time
    names = ["g", "g1", "g2", "g3"]
    plain = VarRegistry(names)
    for sq in ([({"g2": 1, "g": 1}, 1), ({"g3": 1, "g1": 1}, 1)],
               [({"g": 1}, 1), ({"g1": 1}, Fraction(1, 3)), ({"g": 1}, 2)],
               [({"g": 1}, 1), ({"g1": 2}, 1), ({"g": 1}, -1), ({"g": 1}, 5)],
               [({"g": 1, "g1": 0}, 0), ({"g3": -1}, 2), ({}, 4)],
               []):
        reg = VarRegistry(names, {"s": sq})
        got = reg.root_square("s").terms
        want = _poly_by_addition(plain, sq).terms
        assert list(got.items()) == list(want.items())
        assert all(type(c) is Fraction for c in got.values())
    with pytest.raises(KeyError):
        VarRegistry(names, {"s": [({"h": 1}, 1)]})
    # a square given as a term dict is taken only in canonical form
    canonical = {(("g", 1), ("g2", 1)): 1, (("g1", 1), ("g3", 1)): 1}
    reg = VarRegistry(names, {"s": canonical})
    assert list(reg.root_square("s").terms.items()) == list(
        VarRegistry(names, {"s": [({"g2": 1, "g": 1}, 1),
                                  ({"g3": 1, "g1": 1}, 1)]})
        .root_square("s").terms.items())
    for terms in ({(("g2", 1), ("g", 1)): 1}, {(("g", 1), ("g", 1)): 1},
                  {(("g", 0),): 1}, {(("g", 1),): 0}):
        with pytest.raises(LaurentError, match="not canonical"):
            VarRegistry(names, {"s": terms})
    with pytest.raises(KeyError):
        VarRegistry(names, {"s": {(("h", 1),): 1}})
    for sq in ([({"g": 1, "t": 1}, 1)], [({"s": 1}, 1)], [({"s": 2}, 1)]):
        with pytest.raises(LaurentError, match="vertex variables only"):
            VarRegistry(names, {"t": [({"g": 1}, 1)], "s": sq})


def test_equal_content_registries_interoperate():
    other = make_reg()
    assert other is not REG
    assert REG.var("g") + other.var("g") == 2 * REG.var("g")
    assert REG.var("X") * REG.var("g1") + 3 == \
        other.var("X") * other.var("g1") + 3


def test_div_by_unit_and_monomial():
    p = 2 * REG.monomial({"g1": 1, "g2": 1, "g3": 1}) + 2 * (
        REG.var("X") * REG.var("Y") * REG.var("Z"))
    assert lp_div_exact(p, REG.const(1)) == p
    q = lp_div_exact(REG.monomial({"g1": 2, "g2": 1}), REG.var("g1"))
    assert q == REG.monomial({"g1": 1, "g2": 1})


def test_div_common_factor():
    p = REG.monomial({"g1": 1, "g2": 1}) + REG.monomial({"g1": 1, "g3": 1})
    assert lp_div_exact(p, REG.var("g1")) == REG.var("g2") + REG.var("g3")


def test_div_general_polynomial():
    a = REG.var("g1") + REG.var("g2")
    b = REG.var("g") + REG.monomial({"g3": -1}, -1)
    assert lp_div_exact(a * b, b) == a


def test_div_not_divisible():
    with pytest.raises(NotDivisible):
        lp_div_exact(REG.var("g1") + REG.var("g2"), REG.var("g1") + REG.var("g3"))


def test_div_zero():
    with pytest.raises(DivZero):
        lp_div_exact(REG.var("g1"), REG.zero())


def test_negative_root_exponent_rejected():
    with pytest.raises(NotDivisible):
        lp_div_exact(REG.var("g1"), REG.var("X"))


def test_eval_all_ones():
    p = REG.monomial({"g1": 1, "g23": 1, "g": -1})
    assert lp_eval(p, {v: 1 for v in REG.vertex_vars}) == pytest.approx(1.0)


def test_eval_roots_all_ones():
    p = 2 * REG.var("X") * REG.var("Y") * REG.var("Z") * REG.monomial({"g": -2})
    val = lp_eval(p, {v: 1 for v in REG.vertex_vars})
    assert val == pytest.approx(4 * math.sqrt(2), rel=1e-12)


def test_eval_corner_polynomial_all_ones():
    # Five-monomial expansion of the cube completion at the all-ones point.
    K = (2 * REG.monomial({"g1": 1, "g2": 1, "g3": 1})
         + REG.var("g") * (REG.monomial({"g1": 1, "g23": 1})
                           + REG.monomial({"g2": 1, "g13": 1})
                           + REG.monomial({"g3": 1, "g12": 1}))
         + 2 * REG.var("X") * REG.var("Y") * REG.var("Z"))
    K = lp_div_exact(K, REG.monomial({"g": 2}))
    val = lp_eval(K, {v: 1 for v in REG.vertex_vars})
    assert val == pytest.approx(5 + 4 * math.sqrt(2), rel=1e-12)


def test_ring_axioms_randomized():
    rng = random.Random(42)
    for _ in range(1000):
        p = rand_poly(REG, rng, 3, with_roots=True)
        q = rand_poly(REG, rng, 3, with_roots=True)
        r = rand_poly(REG, rng, 3, with_roots=True)
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)


def test_mul_div_roundtrip_randomized():
    rng = random.Random(7)
    for _ in range(200):
        p = rand_poly(REG, rng, 3, with_roots=True)
        q = rand_poly(REG, rng, 3, with_roots=False)
        if not q.terms:
            continue
        assert lp_div_exact(p * q, q) == p
        assert (p * q) / q == p


def test_truediv_errors():
    g1, g2, g3 = REG.var("g1"), REG.var("g2"), REG.var("g3")
    with pytest.raises(NotDivisible):
        (g1 + g2) / (g1 + g3)
    with pytest.raises(NotDivisible):
        (g1 * REG.var("X") + g2) / (g1 + REG.var("X"))
    with pytest.raises(DivZero):
        g1 / REG.zero()


def test_reduction_idempotent():
    rng = random.Random(9)
    for _ in range(100):
        p = rand_poly(REG, rng, 4, with_roots=True)
        assert ref_reduce_roots(p.terms, REG) == p.terms


def test_kernel_matches_reference_products():
    rng = random.Random(2024)
    for _ in range(300):
        p = rand_poly(REG, rng, 6, with_roots=True)
        q = rand_poly(REG, rng, 6, with_roots=True)
        assert_canonical(p * q, ref_product(p.terms, q.terms, REG))
        pq = p * q
        assert_canonical(pq * p, ref_product(pq.terms, p.terms, REG))


def test_kernel_matches_reference_powers():
    rng = random.Random(11)
    for name in REG.root_vars + ("g", "g23"):
        for e in range(6):
            raw = {((name, e),) if e else (): Fraction(1)}
            assert_canonical(REG.monomial({name: e}),
                             ref_reduce_roots(raw, REG))
            p = rand_poly(REG, rng, 4, with_roots=True)
            assert_canonical(REG.monomial({name: e}, 3) * p,
                             ref_product({((name, e),) if e else ():
                                          Fraction(3)}, p.terms, REG))
    xyz = REG.const(1)
    for name, e in (("X", 3), ("Y", 4), ("Z", 5)):
        for _ in range(e):
            xyz = xyz * REG.var(name)
    assert xyz == REG.monomial({"X": 3, "Y": 4, "Z": 5})
    mono = {"X": 3, "Y": 2, "g": -1}
    raw = {(("g", -1), ("X", 3), ("Y", 2)): Fraction(5, 2)}
    assert_canonical(REG.monomial(mono, Fraction(5, 2)),
                     ref_reduce_roots(raw, REG))


def test_kernel_constants_and_cancellation():
    rng = random.Random(5)
    for _ in range(100):
        p = rand_poly(REG, rng, 5, with_roots=True)
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        assert_canonical(p * REG.const(c), ref_product(p.terms, {(): c}, REG)
                         if c else {})
        assert_canonical(p * c, ref_product(p.terms, {(): c}, REG)
                         if c else {})
        assert_canonical(p * REG.zero(), {})
    assert_canonical(REG.const(3) * REG.const(Fraction(1, 3)),
                     {(): Fraction(1)})
    # cross terms cancel, and the squares of the roots meet the vertex part
    gX, Y = REG.var("g") * REG.var("X"), REG.var("Y")
    prod = (gX + Y) * (gX + (-1) * Y)
    assert_canonical(prod, ref_product((gX + Y).terms,
                                       (gX + (-1) * Y).terms, REG))
    assert prod == (REG.monomial({"g": 3, "g23": 1})
                    + REG.monomial({"g": 2, "g2": 1, "g3": 1})
                    + REG.monomial({"g": 1, "g13": 1}, -1)
                    + REG.monomial({"g1": 1, "g3": 1}, -1))
    # the whole product cancels: X^2 = g*g23 + g2*g3
    zero = (REG.var("X") * REG.var("X")
            + REG.monomial({"g": 1, "g23": 1}, -1)
            + REG.monomial({"g2": 1, "g3": 1}, -1))
    assert_canonical(zero, {})


def test_kernel_matches_reference_monomial_division():
    rng = random.Random(31)
    vs = list(REG.vertex_vars)
    raised = 0
    for _ in range(300):
        p = rand_poly(REG, rng, 5, with_roots=True)
        exps = {v: rng.randint(-2, 2) for v in rng.sample(vs, 2)}
        for r in rng.sample(REG.root_vars, rng.choice((0, 0, 1, 2))):
            exps[r] = 1
        q = REG.monomial(exps, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        (qmono, qcoeff), = q.terms.items()
        inverse = {tuple((n, -e) for n, e in qmono): 1 / qcoeff}
        try:
            want = ref_product(p.terms, inverse, REG)
        except NotDivisible as exc:
            raised += 1
            with pytest.raises(NotDivisible) as got:
                lp_div_exact(p, q)
            n_roots = sum(REG.is_root(n) for n, _ in qmono)
            if n_roots == 1:
                assert str(got.value) == str(exc)
            else:
                assert str(got.value).startswith(
                    "negative exponent on root variable ")
            continue
        assert_canonical(lp_div_exact(p, q), want)
        assert_canonical(p / q, want)
    assert 30 < raised < 270


def test_unreduced_inputs_reduce():
    X = REG.var("X")
    assert REG.monomial({"X": 3}) == X * X * X
    assert REG.monomial({"X": 2}) == REG.root_square("X")
    data = poly_to_json(REG.zero())
    data["terms"] = [{"coeff": "2/1", "exps": {"X": 3, "g": 1}},
                     {"coeff": "-1/3", "exps": {"Y": 2}}]
    p = poly_from_json(data)
    want = (2 * REG.var("g") * X * X * X
            + Fraction(-1, 3) * REG.var("Y") * REG.var("Y"))
    assert p.terms == want.terms
    with pytest.raises(NotDivisible, match="negative exponent on root "
                                           "variable 'Y'"):
        REG.monomial({"Y": -1})


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 5))
def test_eval_homomorphism(e1, e2, c):
    p = REG.monomial({"g1": e1, "g2": 1}, c) + REG.var("X")
    q = REG.monomial({"g3": e2}, 2) + REG.var("Y")
    point = {v: Fraction(k + 2, 3) for k, v in enumerate(REG.vertex_vars)}
    lhs = lp_eval(p * q, point)
    rhs = lp_eval(p, point) * lp_eval(q, point)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_json_roundtrip_and_determinism():
    p = (REG.monomial({"g1": 1, "g23": 1, "g": -1}, Fraction(2, 3))
         + REG.var("X") * REG.var("Y"))
    s1 = poly_to_json_str(p)
    s2 = poly_to_json_str(p + REG.zero())
    assert s1 == s2
    q = poly_from_json(json.loads(s1))
    assert poly_to_json_str(q) == s1

"""Ring axioms, root reduction, exact division and evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from c2loop.laurent import (
    DivZero,
    NotDivisible,
    RegistryMismatch,
    VarRegistry,
    lp_div_exact,
    lp_eval,
    poly_from_json,
    poly_to_json_str,
)


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


def test_add_identity_and_cancellation():
    g1 = REG.var("g1")
    g2 = REG.var("g2")
    assert g1 + REG.zero() == g1
    assert (g1 + g2) + (g1 - g2) == 2 * g1


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


def test_equal_content_registries_interoperate():
    other = make_reg()
    assert REG.var("g") + other.var("g") == 2 * REG.var("g")


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
    b = REG.var("g") - REG.monomial({"g3": -1})
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


def test_exact_eval_rational():
    p = REG.monomial({"g1": 2, "g": -1}, Fraction(3, 2))
    assert lp_eval(p, {"g1": Fraction(2), "g": Fraction(4)}, exact=True) \
        == Fraction(3, 2)


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
        assert p._reduce_roots() == p


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
    import json
    q = poly_from_json(json.loads(s1))
    assert poly_to_json_str(q) == s1

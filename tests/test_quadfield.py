"""Exact arithmetic in Q(sqrt d): the product kernel against the
left-to-right product, and the value semantics of QuadVal."""

import gc
import random
from fractions import Fraction

import pytest

from c2loop.ffdimers import build_gq, enumerate_matchings, ff_decompose
from c2loop.fixtures import cube_sphere, ff_fixture_weights
from c2loop.loopmodel import BoundarySpec, enumerate_configs
from c2loop.quadfield import QuadVal, exact_product
from c2loop.stepped import SteppedSolid
from c2loop.taut import build_taut_window, enumerate_taut


def left_to_right(factors, scale=1):
    total = Fraction(1)
    for f in factors:
        total = total * f
    return total * scale


def parts(x):
    """Type and exact components, so that equal values of different types
    or fields do not pass for each other."""
    if isinstance(x, QuadVal):
        return (QuadVal, x.a, x.b, x.d)
    if isinstance(x, float):
        return (float, x.hex())
    return (type(x), x)


def random_rational(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 40))


def random_factor(rng, d):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-9, 9)
    if kind == 1:
        return random_rational(rng)
    if kind == 2:
        return QuadVal(random_rational(rng))
    return QuadVal(random_rational(rng), random_rational(rng), d)


@pytest.mark.parametrize("d", [2, 3])
def test_kernel_matches_left_to_right_product(d):
    rng = random.Random(d)
    for _ in range(400):
        factors = [random_factor(rng, d) for _ in range(rng.randint(0, 8))]
        scale = rng.choice([1, 2, 8, -3])
        assert parts(exact_product(factors, scale)) == \
            parts(left_to_right(factors, scale))


def test_kernel_result_types():
    assert parts(exact_product([])) == (Fraction, Fraction(1))
    assert parts(exact_product([], 4)) == (Fraction, Fraction(4))
    assert parts(exact_product([2, Fraction(3, 4)])) == \
        (Fraction, Fraction(3, 2))
    assert parts(exact_product([Fraction(-1, 2), 0])) == (Fraction, 0)
    # a rational QuadVal still makes the product a QuadVal
    assert parts(exact_product([3, QuadVal(Fraction(1, 3))])) == \
        (QuadVal, 1, 0, 0)


def test_kernel_cancels_to_rational():
    r2 = QuadVal(0, 1, 2)
    assert parts(exact_product([r2, r2], 2)) == (QuadVal, 4, 0, 0)
    conj = [QuadVal(1, 1, 3), QuadVal(1, -1, 3)]       # 1 - 3
    assert parts(exact_product(conj)) == (QuadVal, -2, 0, 0)
    assert parts(exact_product([QuadVal(0, 5, 3), Fraction(0)])) == \
        (QuadVal, 0, 0, 0)


def test_kernel_mixed_fields_raise():
    with pytest.raises(ValueError, match="different quadratic fields"):
        exact_product([QuadVal(0, 1, 2), QuadVal(1), QuadVal(0, 1, 3)])
    with pytest.raises(ValueError, match="different quadratic fields"):
        left_to_right([QuadVal(0, 1, 2), QuadVal(1), QuadVal(0, 1, 3)])


def test_kernel_floats_are_bit_identical():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 8)
        factors = [rng.uniform(0.01, 3.0) for _ in range(n)]
        scale = 2 ** rng.randint(0, 5)
        got = exact_product(factors, scale)
        assert parts(got) == parts(left_to_right(factors, scale))
        # the loop weight's former expression: product, then * 2**loops
        assert parts(got) == \
            parts(left_to_right(factors) * Fraction(scale))
    for _ in range(200):
        factors = [rng.uniform(0.01, 3.0) if rng.random() < 0.3
                   else random_factor(rng, 2) for _ in range(6)]
        if not any(isinstance(f, float) for f in factors):
            factors.append(0.5)
        assert parts(exact_product(factors, 4)) == \
            parts(left_to_right(factors, 4))


@pytest.mark.parametrize("k", range(6))
def test_kernel_takes_a_quadval_after_rationals(k):
    # the sqrt(d) component is carried from the first QuadVal on, however
    # many ints and Fractions come before it
    rng = random.Random(k)
    for d in (2, 3):
        head = [rng.choice([rng.randint(-9, 9), random_rational(rng)])
                for _ in range(k)]
        tail = [QuadVal(random_rational(rng), random_rational(rng), d),
                random_rational(rng), rng.randint(-9, 9),
                QuadVal(random_rational(rng), random_rational(rng), d)]
        for factors in (head + tail, head + tail[:1]):
            assert parts(exact_product(factors, 2)) == \
                parts(left_to_right(factors, 2))


@pytest.mark.parametrize("factors, scale", [
    ([True, Fraction(2, 3), QuadVal(1, 1, 5), True], 1),
    ([Fraction(2, 3), True, 3], 2),
    ([False, QuadVal(1, 1, 2)], 1),
    ([Fraction(1, 2), QuadVal(0, 1, 2)], Fraction(3, 7)),
    ([2, Fraction(1, 3)], Fraction(-5, 2)),
    ([], Fraction(3, 4)),
    ([3, Fraction(2, 7), 0.3], 4),
    ([Fraction(1, 3)] * 5 + [0.1], 1),
    ([Fraction(1, 3), QuadVal(1, 1, 2), 0.1, 2], 8),
], ids=["bool", "bool-rational", "false", "fraction-scale-quad",
        "fraction-scale", "fraction-scale-empty", "float", "float-last",
        "float-after-quad"])
def test_kernel_dispatch(factors, scale):
    assert parts(exact_product(factors, scale)) == \
        parts(left_to_right(factors, scale))


def test_perfect_square_d_is_rational():
    # 2 - sqrt 4 is zero, 1 + 5 sqrt 0 is one and sqrt 4 is two; each equals
    # its Fraction, and so do a rational QuadVal and sqrt 2 squared
    zero = QuadVal(2, -1, 4)
    assert zero == 0
    assert parts(zero) == (QuadVal, 0, 0, 0)
    assert QuadVal(1, 5, 0) == 1
    assert QuadVal(0, 1, 4) == 2 and QuadVal(3, Fraction(1, 2), 9) == 4.5
    for value, rational in ((zero, 0), (QuadVal(0, 1, 4), 2),
                            (QuadVal(Fraction(1, 3), 2, 1), Fraction(7, 3)),
                            (QuadVal(Fraction(1, 2)), Fraction(1, 2)),
                            (QuadVal(0, 1, 2) * QuadVal(0, 1, 2), 2)):
        assert value == Fraction(rational)
        assert parts(value) == (QuadVal, rational, 0, 0)
    with pytest.raises(ValueError, match="negative"):
        QuadVal(1, 1, -2)


def _cycle_garbage(fn):
    """Objects the cyclic collector finds after one call of fn."""
    gc.collect()
    gc.disable()
    try:
        out = fn()
        return gc.collect(), out
    finally:
        gc.enable()


def test_enumerations_leave_no_reference_cycles():
    comp = cube_sphere()
    params = {f: ff_decompose(ff_fixture_weights()) for f in comp.face_ids()}
    gq = build_gq(comp, params)
    U = SteppedSolid.from_removed([(-1, -1, -1)])
    win = build_taut_window(U)
    for fn, count in [
            (lambda: enumerate_configs(comp, BoundarySpec.closed()), 540),
            (lambda: enumerate_matchings(gq), 169),
            (lambda: enumerate_taut(U, win), 5)]:
        garbage, out = _cycle_garbage(fn)
        assert len(out) == count
        assert garbage == 0

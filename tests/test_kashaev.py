"""Cube relation, recurrence, duality, symbolic solving, row identities."""

import math
import random
from fractions import Fraction

import pytest

from c2loop.kashaev import (
    CubeData,
    KashaevError,
    NonPositive,
    alternative_root,
    cube_from_bottom,
    duality_check,
    kashaev_relation_residual,
    kashaev_step,
    solve_origin,
    solve_state,
    yang_baxter_row_check,
)
from c2loop.laurent import NotDivisible, VarRegistry, lp_eval
from c2loop.stepped import (
    SteppedSolid,
    enumerate_solids,
    random_fill_order,
    slab_solid,
    surface_graph,
)

ONE = SteppedSolid.from_removed([(-1, -1, -1)])


def ones_cube(g123=None):
    c = cube_from_bottom(1, 1, 1, 1, 1, 1, 1)
    c.g123 = g123
    return c


class _NoProduct:
    """A corner value that fails any product it enters."""

    def __mul__(self, other):
        raise AssertionError("the corner numerator was formed")

    __rmul__ = __mul__


def test_step_fails_before_corner_product():
    # g has a root and two terms, so no division by it is exact; the faces
    # are divided first, and the step fails before g12, g13 and g23 are read
    reg = VarRegistry(["a", "b", "c", "d", "e"],
                      {"s": [({"a": 1, "b": 1}, 1), ({"c": 1, "d": 1}, 1)]})
    a, b, c, d, e, s = (reg.var(n) for n in "abcdes")
    cube = CubeData(g=a + s, g1=b, g2=c, g3=d, g12=_NoProduct(),
                    g13=_NoProduct(), g23=_NoProduct(), X=e, Y=a, Z=b)
    with pytest.raises(NotDivisible, match="^general divisor must be free "
                                           "of root variables$"):
        kashaev_step(cube)


@pytest.mark.parametrize("values, X, message", [
    ((math.nan, 1, 1, 1, 1, 1, 1), 1.0, "g is not positive"),
    ((1, 1, 1, 1, 1, 1, -1), 1.0, "g23 is not positive"),
    ((1, 1, 1, 1, 1, 1, 1), 0.0, "X is not positive"),
    ((1e-200,) * 7, 1.0, "g \\* g = 0.0 is out"),
    ((1e200,) * 7, 1.0, "g \\* g = inf is out"),
])
def test_numeric_step_failures_are_typed(values, X, message):
    with pytest.raises(NonPositive, match=f"^{message}"):
        kashaev_step(cube_from_bottom(*values, X=X, Y=1.0, Z=1.0))


def test_numeric_step_nan_output_is_typed():
    # positive inputs: g1 g2 underflows to 0, and 0 * g3 = 0 * inf is NaN
    c = cube_from_bottom(1, 1e-200, 1e-200, math.inf, 1, 1, 1,
                         X=1.0, Y=1.0, Z=1.0)
    with pytest.raises(NonPositive, match="^completed cube is not "
                                          "positive$"):
        kashaev_step(c)


def test_numeric_step_keeps_inf_from_finite_divisors():
    # g * g = 1e-320 is finite and positive; the corner overflows to +inf
    c = kashaev_step(cube_from_bottom(1e-160, 1, 1, 1, 1, 1, 1))
    assert c.g123 == math.inf and math.isfinite(c.X1)


def test_residual_hand_value():
    assert kashaev_relation_residual(ones_cube(1)) == -16


def test_residual_after_step():
    c = ones_cube()
    kashaev_step(c)
    assert c.g123 == pytest.approx(5 + 4 * math.sqrt(2), rel=1e-12)
    assert c.X1 == pytest.approx(2 + math.sqrt(2), rel=1e-12)
    assert abs(kashaev_relation_residual(c)) < 1e-9


def test_step_slab_formula():
    # Height-only data (a; b,b,b; c,c,c) completes to the closed form d.
    for a, b, c in [(1.0, 1.0, 1.0), (2.0, 1.5, 1.25), (0.7, 1.1, 2.3)]:
        cube = cube_from_bottom(a, b, b, b, c, c, c)
        kashaev_step(cube)
        d = (2 * b ** 3 + 3 * a * b * c
             + 2 * (a * c + b * b) ** 1.5) / a ** 2
        assert cube.g123 == pytest.approx(d, rel=1e-12)


def test_symbolic_one_cube_five_monomials():
    p = solve_origin(ONE, mode="symbolic")
    assert p.num_terms() == 5
    assert sorted(c for c in p.terms.values()) == [1, 1, 1, 2, 2]
    val = lp_eval(p, {n: 1 for n in p.registry.vertex_vars})
    assert val == pytest.approx(5 + 4 * math.sqrt(2), rel=1e-12)


def test_symbolic_residual_vanishes():
    sg = surface_graph(ONE)
    state = solve_state(ONE, mode="symbolic", check_residuals=True)
    assert state.check_face_invariant()


def test_solve_u0_identity():
    U0 = SteppedSolid()
    p = solve_origin(U0, mode="symbolic")
    assert p.is_monomial()
    v = solve_origin(U0, g_init={v: 3.0 for v in surface_graph(U0).vertices},
                     mode="numeric")
    assert v == 3.0


def test_numeric_matches_symbolic():
    rng = random.Random(11)
    for U in enumerate_solids(2):
        sg = surface_graph(U)
        init = {v: Fraction(rng.randint(1, 9), rng.randint(1, 4))
                for v in sg.vertices}
        sym = solve_origin(U, mode="symbolic")
        num = solve_origin(U, g_init={v: float(x) for v, x in init.items()},
                           mode="numeric")
        point = {sg.vertex_var_name(v): init[v] for v in sg.vertices}
        assert lp_eval(sym, point) == pytest.approx(num, rel=1e-9)


def test_order_independence_exact():
    rng = random.Random(5)
    for U in enumerate_solids(3):
        if not U.removed:
            continue
        base = solve_origin(U, mode="symbolic")
        for _ in range(3):
            order = random_fill_order(U, rng)
            assert solve_origin(U, mode="symbolic", order=order) == base


def test_duality_numeric_randomized():
    rng = random.Random(23)
    for _ in range(100):
        vals = [rng.uniform(0.2, 4.0) for _ in range(7)]
        c = cube_from_bottom(*vals)
        kashaev_step(c)
        assert duality_check(c)


def test_duality_symbolic():
    from c2loop.kashaev import _yb_registry
    reg = _yb_registry()
    c = CubeData(**{n: reg.var(n) for n in
                    ("g", "g1", "g2", "g3", "g12", "g13", "g23")},
                 X=reg.var("X"), Y=reg.var("Y"), Z=reg.var("Z"))
    kashaev_step(c)
    assert duality_check(c)


def test_greatest_root_dominates():
    rng = random.Random(31)
    for _ in range(100):
        c = cube_from_bottom(*[rng.uniform(0.1, 5.0) for _ in range(7)])
        kashaev_step(c)
        assert alternative_root(c) <= c.g123 + 1e-12


def test_item_ff_invariant_on_solve():
    # (X1 Y2 Z3 + g12 g13 g23)/g123 == (X Y Z + g1 g2 g3)/g on every cube.
    rng = random.Random(7)
    for _ in range(50):
        c = cube_from_bottom(*[rng.uniform(0.3, 3.0) for _ in range(7)])
        kashaev_step(c)
        lhs = (c.X1 * c.Y2 * c.Z3 + c.g12 * c.g13 * c.g23) / c.g123
        rhs = (c.X * c.Y * c.Z + c.g1 * c.g2 * c.g3) / c.g
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_yang_baxter_rows():
    for row in range(1, 8):
        assert yang_baxter_row_check(row), f"row {row}"
        assert yang_baxter_row_check(row, side_swap=True), f"dual row {row}"


def test_laurentness_never_fails_small_solids():
    for U in enumerate_solids(3):
        solve_origin(U, mode="symbolic")


def test_slab_solve_matches_nested_radicals():
    # Climbing the slab: Y3 = d, then Y4 = step(b, c,c,c, d,d,d).
    a = b = c = 1.0
    d = 5 + 4 * math.sqrt(2)
    cube = cube_from_bottom(b, c, c, c, d, d, d)
    kashaev_step(cube)
    sg = surface_graph(slab_solid(4))
    init = {}
    for v in sg.vertices:
        h = sum(v)
        init[v] = {0: a, 1: b, 2: c}.get(h + 4, 1.0)
    got = solve_origin(slab_solid(4), g_init=init, mode="numeric")
    assert got == pytest.approx(cube.g123, rel=1e-9)


def test_solve_on_given_window_builds_none(monkeypatch):
    U = slab_solid(3)
    sg = surface_graph(U)
    init = {v: 1.0 + 0.25 * (sum(v) % 3) for v in sg.vertices}
    # the reference solves run on an equal solid of their own, whose
    # windows are not sg
    twin = slab_solid(3)
    sym = solve_origin(twin, mode="symbolic")
    num = solve_origin(twin, g_init=init, mode="numeric")

    def no_window(*_args):
        raise AssertionError("surface_graph called despite window=")

    monkeypatch.setattr("c2loop.kashaev.surface_graph", no_window)
    assert solve_origin(U, g_init=init, mode="numeric", window=sg) == num
    assert "registry" not in vars(sg)
    got = solve_origin(U, mode="symbolic", window=sg)
    assert got == sym and got.registry is sg.registry
    assert solve_origin(U, mode="symbolic", window=sg,
                        window_radius=sg.window_radius) == sym


def test_solve_rejects_foreign_window():
    sg = surface_graph(ONE)
    with pytest.raises(KashaevError):
        solve_origin(slab_solid(2), mode="symbolic", window=sg)
    with pytest.raises(KashaevError):
        solve_origin(ONE, mode="symbolic", window=sg,
                     window_radius=sg.window_radius + 1)

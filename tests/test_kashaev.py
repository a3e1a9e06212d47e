"""Cube relation, recurrence, duality, symbolic solving, row identities."""

import math
import random
from fractions import Fraction

import pytest

import c2loop.kashaev
import c2loop.stepped
from c2loop.kashaev import (
    KashaevError,
    NonPositive,
    agree,
    kashaev_step,
    solve_origin,
    solve_state,
)
from c2loop.laurent import LaurentPoly, NotDivisible, VarRegistry, lp_eval
from c2loop.stepped import (
    SteppedSolid,
    enumerate_solids,
    random_fill_order,
    slab_solid,
    surface_graph,
)
from c2loop.taut import (
    _same_sum,
    cube_flip_sums,
    yang_baxter_classes,
    yang_baxter_row_class,
    yang_baxter_row_check,
)
from c2loop.verify import criterion_2_yang_baxter
from conftest import complete_cube, cube_from_bottom, face_diagonals, \
    kashaev_relation_residual, kashaev_relation_sides

ONE = SteppedSolid.from_removed([(-1, -1, -1)])
# the corners of ONE's cube, by their names in the cube relation
CORNERS = {"g": (-1, -1, -1), "g1": (0, -1, -1), "g2": (-1, 0, -1),
           "g3": (-1, -1, 0), "g12": (0, 0, -1), "g13": (0, -1, 0),
           "g23": (-1, 0, 0)}


def cube_variables(sg):
    """The corner variables and bottom face roots X, Y, Z of ONE's cube in
    the registry of its window sg, by name."""
    reg = sg.registry
    out = {n: reg.var(sg.vertex_var_name(v)) for n, v in CORNERS.items()}
    out.update({n: reg.var(sg.face_root_name((a, CORNERS["g"])))
                for a, n in enumerate("XYZ")})
    return out


def alternative_root(c):
    """The other root of the corner relation in g123 (numeric)."""
    g, g1, g2, g3 = c["g"], c["g1"], c["g2"], c["g3"]
    g12, g13, g23 = c["g12"], c["g13"], c["g23"]
    ssum = (2 * g * (g1 * g23 + g2 * g13 + g3 * g12)
            + 4 * g1 * g2 * g3) / (g * g)
    return ssum - c["g123"]


def duality_check(c, tol=1e-9):
    """Central flip (g <-> g123, g_i <-> g_jk) followed by a completion must
    return the original corner and swap the face values."""
    flipped = {"g": c["g123"], "g1": c["g23"], "g2": c["g13"],
               "g3": c["g12"], "g12": c["g3"], "g13": c["g2"],
               "g23": c["g1"], "X": c["X1"], "Y": c["Y2"], "Z": c["Z3"]}
    if isinstance(c["g"], LaurentPoly):
        # Cleared-denominator comparison: g * g123^2 == flip numerator.
        f = flipped
        num = (2 * f["g1"] * f["g2"] * f["g3"]
               + f["g"] * (f["g1"] * f["g23"] + f["g2"] * f["g13"]
                           + f["g3"] * f["g12"])
               + 2 * f["X"] * f["Y"] * f["Z"])
        return num == c["g"] * c["g123"] * c["g123"]
    g, X, Y, Z = kashaev_step(**flipped)
    ok = abs(g - c["g"]) <= tol * (abs(c["g"]) + abs(g))
    for got, want in ((X, c["X"]), (Y, c["Y"]), (Z, c["Z"])):
        ok = ok and abs(got - want) <= tol * (abs(want) + 1)
    return ok


def check_face_invariant(g_values, face_values):
    """Every face value squared equals the sum of its two diagonal
    g-products: exactly for symbolic values, to 1e-9 for floats."""
    for key, val in face_values.items():
        axis, base = key
        (a, c), (b, d) = face_diagonals(axis, base)
        want = g_values[a] * g_values[c] + g_values[b] * g_values[d]
        if not agree(val * val, want):
            return False
    return True


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
    with pytest.raises(NotDivisible, match="^general divisor must be free "
                                           "of root variables$"):
        kashaev_step(a + s, b, c, d, _NoProduct(), _NoProduct(),
                     _NoProduct(), e, a, b)


@pytest.mark.parametrize("values, X, message", [
    ((math.nan, 1, 1, 1, 1, 1, 1), 1.0, "g is not positive"),
    ((1, 1, 1, 1, 1, 1, -1), 1.0, "g23 is not positive"),
    ((1, 1, 1, 1, 1, 1, 1), 0.0, "X is not positive"),
    ((1e-200,) * 7, 1.0, "g \\* g = 0.0 is out"),
    ((1e200,) * 7, 1.0, "g \\* g = inf is out"),
])
def test_numeric_step_failures_are_typed(values, X, message):
    with pytest.raises(NonPositive, match=f"^{message}"):
        kashaev_step(**cube_from_bottom(*values, X=X, Y=1.0, Z=1.0))


def test_numeric_step_nan_output_is_typed():
    # positive inputs: g1 g2 underflows to 0, and 0 * g3 = 0 * inf is NaN
    c = cube_from_bottom(1, 1e-200, 1e-200, math.inf, 1, 1, 1,
                         X=1.0, Y=1.0, Z=1.0)
    with pytest.raises(NonPositive, match="^completed cube is not "
                                          "positive$"):
        kashaev_step(**c)


def test_numeric_step_keeps_inf_from_finite_divisors():
    # g * g = 1e-320 is finite and positive; the corner overflows to +inf
    g123, X1, _Y2, _Z3 = kashaev_step(
        **cube_from_bottom(1e-160, 1, 1, 1, 1, 1, 1))
    assert g123 == math.inf and math.isfinite(X1)


def test_residual_hand_value():
    ones = dict(cube_from_bottom(1, 1, 1, 1, 1, 1, 1), g123=1)
    assert kashaev_relation_residual(ones) == -16


def test_residual_after_step():
    c = complete_cube(cube_from_bottom(1, 1, 1, 1, 1, 1, 1))
    assert c["g123"] == pytest.approx(5 + 4 * math.sqrt(2), rel=1e-12)
    assert c["X1"] == pytest.approx(2 + math.sqrt(2), rel=1e-12)
    assert abs(kashaev_relation_residual(c)) < 1e-9


def test_step_slab_formula():
    # Height-only data (a; b,b,b; c,c,c) completes to the closed form d.
    for a, b, c in [(1.0, 1.0, 1.0), (2.0, 1.5, 1.25), (0.7, 1.1, 2.3)]:
        g123, _X1, _Y2, _Z3 = kashaev_step(
            **cube_from_bottom(a, b, b, b, c, c, c))
        d = (2 * b ** 3 + 3 * a * b * c
             + 2 * (a * c + b * b) ** 1.5) / a ** 2
        assert g123 == pytest.approx(d, rel=1e-12)


def test_symbolic_one_cube_five_monomials():
    p = solve_origin(ONE, mode="symbolic")
    assert p.num_terms() == 5
    assert sorted(c for c in p.terms.values()) == [1, 1, 1, 2, 2]
    val = lp_eval(p, {n: 1 for n in p.registry.vertex_vars})
    assert val == pytest.approx(5 + 4 * math.sqrt(2), rel=1e-12)


def test_symbolic_residual_vanishes(monkeypatch):
    sides = []

    def checked(*args):
        out = real(*args)
        cube = dict(zip(("g", "g1", "g2", "g3", "g12", "g13", "g23"), args))
        sides.append(kashaev_relation_sides(dict(cube, g123=out[0])))
        return out

    real = c2loop.kashaev.kashaev_step
    monkeypatch.setattr(c2loop.kashaev, "kashaev_step", checked)
    g_values, face_values = solve_state(ONE)
    # the corner relation holds exactly at every step of the solve
    assert len(sides) == len(ONE.removed)
    assert all(plus == minus for plus, minus in sides)
    assert check_face_invariant(g_values, face_values)


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
        assert duality_check(complete_cube(cube_from_bottom(*vals)))


def test_duality_symbolic():
    assert duality_check(complete_cube(cube_variables(surface_graph(ONE))))


def test_greatest_root_dominates():
    rng = random.Random(31)
    for _ in range(100):
        c = complete_cube(
            cube_from_bottom(*[rng.uniform(0.1, 5.0) for _ in range(7)]))
        assert alternative_root(c) <= c["g123"] + 1e-12


def test_item_ff_invariant_on_solve():
    # (X1 Y2 Z3 + g12 g13 g23)/g123 == (X Y Z + g1 g2 g3)/g on every cube.
    rng = random.Random(7)
    for _ in range(50):
        c = complete_cube(
            cube_from_bottom(*[rng.uniform(0.3, 3.0) for _ in range(7)]))
        lhs = (c["X1"] * c["Y2"] * c["Z3"]
               + c["g12"] * c["g13"] * c["g23"]) / c["g123"]
        rhs = (c["X"] * c["Y"] * c["Z"] + c["g1"] * c["g2"] * c["g3"]) / c["g"]
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_yang_baxter_rows():
    for row in range(1, 8):
        assert yang_baxter_row_check(row), f"row {row}"
        assert yang_baxter_row_check(row, side_swap=True), f"dual row {row}"


# ---------------------------------------------------------------------------
# The seven row identities as the paper prints them, transcribed by hand: an
# oracle for the cube-flip classes the loop model derives.  Each row equates
# a weighted sum of local pictures before and after the flip, with the
# common (possibly half-integer) monomial prefactor of both sides stripped.
# The identities are polynomial in the seven corner variables, the bottom
# face roots X, Y, Z, and the completed quantities G123, X1, Y2, Z3.  The
# oracle substitutes the completed quantities by their explicit forms and
# compares canonical Laurent polynomials, clearing G123 denominators by
# cross-multiplication.
# ---------------------------------------------------------------------------

BASE_VARS = ("g", "g1", "g2", "g3", "g12", "g13", "g23")
ROOT_VARS = ("X", "Y", "Z")
AUX_VARS = ("G123", "X1", "Y2", "Z3")

# term = (coeff, {var: exp}); var may be any base, root or aux name.
_ROW_TABLE = {
    1: (
        [(2, {"g1": 2, "g2": 2, "g3": 2, "g": -2}),
         (2, {"g1": 1, "g2": 1, "g3": 1, "X": 1, "Y": 1, "Z": 1, "g": -2}),
         (1, {"g1": 1, "g2": 2, "g3": 1, "g13": 1, "g": -1}),
         (1, {"g1": 1, "g2": 1, "g3": 2, "g12": 1, "g": -1}),
         (1, {"g1": 2, "g2": 1, "g3": 1, "g23": 1, "g": -1})],
        [(1, {"g1": 1, "g2": 1, "g3": 1, "G123": 1})],
    ),
    2: (
        [(1, {"g1": 1, "g3": 1, "g12": 1, "g23": 1})],
        [(1, {"g1": 1, "g3": 1, "g12": 1, "g23": 1})],
    ),
    3: (
        [(1, {"g1": 1, "g3": 1, "X": 1, "Z": 1, "g": -1}),
         (1, {"g1": 1, "g2": 1, "g3": 1, "Y": 1, "g": -1})],
        [(1, {"g1": 1, "g3": 1, "Y2": 1})],
    ),
    4: (
        [(1, {"g2": 1, "Y": 1, "Z": 1, "g": -1}),
         (1, {"g1": 1, "g2": 1, "X": 1, "g": -1})],
        [(1, {"g2": 1, "X1": 1})],
    ),
    5: (
        [(2, {"g1": 1, "g2": 2, "g3": 1, "Y": 1, "g": -2}),
         (2, {"g1": 1, "g2": 1, "g3": 1, "X": 1, "Z": 1, "g": -2}),
         (1, {"g2": 1, "g13": 1, "X": 1, "Z": 1, "g": -1}),
         (1, {"g1": 1, "g2": 1, "g23": 1, "Y": 1, "g": -1}),
         (1, {"g2": 1, "g3": 1, "g12": 1, "Y": 1, "g": -1})],
        [(1, {"g2": 1, "X1": 1, "Z3": 1})],
    ),
    6: (
        [(1, {"g2": 1, "g13": 1})],
        [(1, {"g2": 1, "g13": 1})],
    ),
    7: (
        [(1, {"X": 1, "Y": 1, "Z": 1, "g": -1}),
         (1, {"g1": 1, "g2": 1, "g3": 1, "g": -1})],
        [(1, {"X1": 1, "Y2": 1, "Z3": 1, "G123": -1}),
         (1, {"g12": 1, "g13": 1, "g23": 1, "G123": -1})],
    ),
}

_DUAL_MAP = {
    "g": "G123", "G123": "g",
    "g1": "g23", "g23": "g1",
    "g2": "g13", "g13": "g2",
    "g3": "g12", "g12": "g3",
    "X": "X1", "X1": "X",
    "Y": "Y2", "Y2": "Y",
    "Z": "Z3", "Z3": "Z",
}


def _yb_registry():
    squares = {
        "X": [({"g": 1, "g23": 1}, 1), ({"g2": 1, "g3": 1}, 1)],
        "Y": [({"g": 1, "g13": 1}, 1), ({"g1": 1, "g3": 1}, 1)],
        "Z": [({"g": 1, "g12": 1}, 1), ({"g1": 1, "g2": 1}, 1)],
    }
    return VarRegistry(list(BASE_VARS), squares)


def _dualize(terms):
    return [(c, {_DUAL_MAP.get(n, n): e for n, e in exps.items()})
            for c, exps in terms]


def _normalize_side(terms):
    """Split off negative G123 powers: side = expr / G123^k with k >= 0."""
    k = max((-exps.get("G123", 0) for _c, exps in terms), default=0)
    k = max(k, 0)
    out = []
    for c, exps in terms:
        e = dict(exps)
        e["G123"] = e.get("G123", 0) + k
        if e["G123"] == 0:
            del e["G123"]
        out.append((c, e))
    return out, k


def _expand(terms, reg):
    """Substitute the completed quantities and return a LaurentPoly."""
    subs = completed({n: reg.var(n) for n in BASE_VARS + ROOT_VARS})
    total = reg.zero()
    for coeff, exps in terms:
        part = reg.const(coeff)
        base = {n: e for n, e in exps.items() if n not in AUX_VARS}
        part = part * reg.monomial(base)
        for name in AUX_VARS:
            e = exps.get(name, 0)
            if e < 0:
                raise KashaevError("negative aux power after normalization")
            for _ in range(e):
                part = part * subs[name]
        total = total + part
    return total


def transcribed_row_holds(row, side_swap=False):
    """Verify one transcribed row identity in the root-reduced ring.

    With side_swap the dual row (central flip of every picture) is checked
    instead; rows 2, 6 and 7 are self-dual.
    """
    lhs, rhs = _ROW_TABLE[row]
    if side_swap:
        lhs, rhs = _dualize(lhs), _dualize(rhs)
    lhs, k_l = _normalize_side(lhs)
    rhs, k_r = _normalize_side(rhs)
    # Cross-multiply the G123 denominators before substitution.
    lhs = [(c, _mul_exp(e, "G123", k_r)) for c, e in lhs]
    rhs = [(c, _mul_exp(e, "G123", k_l)) for c, e in rhs]
    reg = _yb_registry()
    return _expand(lhs, reg) == _expand(rhs, reg)


def _mul_exp(exps, name, k):
    if k == 0:
        return exps
    e = dict(exps)
    e[name] = e.get(name, 0) + k
    if e[name] == 0:
        del e[name]
    return e


def completed(v):
    """G123, X1, Y2 and Z3 by the completion formulas, over the corner and
    face values v."""
    g, g1, g2, g3 = v["g"], v["g1"], v["g2"], v["g3"]
    X, Y, Z = v["X"], v["Y"], v["Z"]
    return {"G123": (2 * g1 * g2 * g3 + 2 * X * Y * Z
                     + g * (g1 * v["g23"] + g2 * v["g13"] + g3 * v["g12"]))
            / (g * g),
            "X1": (g1 * X + Y * Z) / g, "Y2": (g2 * Y + X * Z) / g,
            "Z3": (g3 * Z + X * Y) / g}


def in_window(terms, sg, v):
    """A transcribed side as {power of G123: polynomial} in the registry of
    ONE's window sg, with v the values of X, Y, Z, X1, Y2 and Z3."""
    reg = sg.registry
    out = {}
    for coeff, exps in terms:
        part = reg.monomial({sg.vertex_var_name(CORNERS[n]): e
                             for n, e in exps.items() if n in CORNERS}, coeff)
        for name, e in exps.items():
            if name not in CORNERS and name != "G123":
                for _ in range(e):
                    part = part * v[name]
        m = exps.get("G123", 0)
        out[m] = out.get(m, reg.zero()) + part
    return out


def test_row_table_pins_the_derivation():
    # each representative class's carved and flat sums are the transcribed
    # sides exactly: the common monomial of the classes chosen is 1; a dual
    # row's pictures are the reflected ones, so the carved sum is the
    # dualized right side
    sg = surface_graph(ONE)
    v = cube_variables(sg)
    v.update(completed(v))
    _top, sums = cube_flip_sums()
    for row, (lhs, rhs) in _ROW_TABLE.items():
        for dual in (False, True):
            assert transcribed_row_holds(row, side_swap=dual)
            sides = (_dualize(rhs), _dualize(lhs)) if dual else (lhs, rhs)
            got = sums[yang_baxter_row_class(row, dual)]
            for derived, transcribed in zip(got, sides):
                assert _same_sum(derived, in_window(transcribed, sg, v),
                                 v["G123"]), (row, dual)


def test_criterion_2_fails_on_a_mutated_step(monkeypatch):
    # g123 with one X Y Z in its numerator instead of two
    def mutated(g, g1, g2, g3, g12, g13, g23, X, Y, Z):
        _g123, X1, Y2, Z3 = kashaev_step(g, g1, g2, g3, g12, g13, g23,
                                         X, Y, Z)
        g123 = (2 * g1 * g2 * g3 + g * (g1 * g23 + g2 * g13 + g3 * g12)
                + X * Y * Z) / (g * g)
        return g123, X1, Y2, Z3

    monkeypatch.setattr("c2loop.kashaev.kashaev_step", mutated)
    holds = yang_baxter_classes()
    assert len(holds) == 70 and not all(holds.values())
    assert not criterion_2_yang_baxter()["passed"]


def test_laurentness_never_fails_small_solids():
    for U in enumerate_solids(3):
        solve_origin(U, mode="symbolic")


def test_slab_solve_matches_nested_radicals():
    # Climbing the slab: Y3 = d, then Y4 = step(b, c,c,c, d,d,d).
    a = b = c = 1.0
    d = 5 + 4 * math.sqrt(2)
    g123, _X1, _Y2, _Z3 = kashaev_step(**cube_from_bottom(b, c, c, c,
                                                          d, d, d))
    sg = surface_graph(slab_solid(4))
    init = {}
    for v in sg.vertices:
        h = sum(v)
        init[v] = {0: a, 1: b, 2: c}.get(h + 4, 1.0)
    got = solve_origin(slab_solid(4), g_init=init, mode="numeric")
    assert got == pytest.approx(g123, rel=1e-9)


def test_solve_on_given_window_builds_none(monkeypatch):
    U = slab_solid(3)
    sg = surface_graph(U)
    init = {v: 1.0 + 0.25 * (sum(v) % 3) for v in sg.vertices}
    # the reference solves run on an equal solid of their own, whose
    # windows are not sg
    twin = slab_solid(3)
    sym = solve_origin(twin, mode="symbolic")
    num = solve_origin(twin, g_init=init, mode="numeric")
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    real = c2loop.stepped.SurfaceGraph
    monkeypatch.setattr(c2loop.stepped, "SurfaceGraph", counting)
    assert solve_origin(U, g_init=init, mode="numeric") == num
    assert "registry" not in vars(sg)
    got = solve_origin(U, mode="symbolic")
    assert got == sym and got.registry is sg.registry
    assert solve_origin(U, mode="symbolic",
                        window_radius=sg.window_radius) == sym
    assert built == []
    # a window at another radius is built, and the count sees it
    surface_graph(U, sg.window_radius + 1)
    assert len(built) == 1


@pytest.mark.parametrize("g_init, mode, message", [
    (None, "numeric", "numeric mode requires initial values"),
    ({}, "symbolic", "symbolic mode takes no initial values"),
    (None, "exact", "unknown mode 'exact'"),
    ({}, "floats", "unknown mode 'floats'"),
], ids=["numeric-without-values", "symbolic-with-values", "unknown-exact",
        "unknown-floats"])
def test_solve_origin_mode_must_match_values(g_init, mode, message):
    # the initial data choose the value type; mode only names it
    with pytest.raises(KashaevError, match=f"^{message}$"):
        solve_origin(ONE, g_init=g_init, mode=mode)

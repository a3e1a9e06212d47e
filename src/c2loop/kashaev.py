"""The degree-2 cube relation, its explicit recurrence, and symbolic solving.

The eight corners of a unit cube carry values g, g1, g2, g3, g12, g13, g23,
g123 and the six faces carry X, Y, Z (bottom) and X1, Y2, Z3 (top), where
X^2 = g*g23 + g2*g3 etc.  Completing the cube takes the greatest root of the
corner relation:

    g123 = (2 g1 g2 g3 + g (g1 g23 + g2 g13 + g3 g12) + 2 X Y Z) / g^2
    X1 = (g1 X + Y Z) / g,   Y2 = (g2 Y + X Z) / g,   Z3 = (g3 Z + X Y) / g.

The formulas are written once for both value types: positive floats
(numeric mode) and Laurent polynomials (symbolic mode), whose `/` is exact
division.  A division that leaves a remainder is a hard error rather than a
fallback, because the result is guaranteed to be a Laurent polynomial.  A
step divides the three faces by g before it forms the corner numerator, so
a divisor that cannot divide exactly fails before the step's largest
product.  A numeric step raises `NonPositive` on an input that is not
positive, on a g * g that is 0 or infinite, and on a NaN output; an
output of +inf from finite divisors is returned as it is.  The
value type is chosen once, when the initial data are lifted onto the window
(`lift_state`), whose own registry (`SurfaceGraph.registry`) holds the
symbolic variables; only the float positivity guards look at the type
again, and `agree` compares values of either type.

`solve_origin` iterates the completion over a regular stepped solid, on
`surface_graph(U, window_radius)`, the window a caller still holds for that
solid and radius when there is one: `fill_corners` adds cubes back in a
fill order, each step reading the seven bottom corners, consuming the three
pit faces at the cube and producing the three new ones, until the value at
the origin is known.  Face values of the
original surface are first-class root variables; propagated faces carry the
polynomials from the items above, so no new root symbols ever appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laurent import LaurentPoly
from .stepped import (
    UNITS,
    fill_order,
    is_regular,
    surface_graph,
    vadd,
)


class KashaevError(Exception):
    pass


class NonPositive(KashaevError):
    pass


@dataclass
class CubeData:
    g: object = None
    g1: object = None
    g2: object = None
    g3: object = None
    g12: object = None
    g13: object = None
    g23: object = None
    g123: object = None
    X: object = None
    Y: object = None
    Z: object = None
    X1: object = None
    Y2: object = None
    Z3: object = None


def _is_poly(x):
    return isinstance(x, LaurentPoly)


def agree(got, want):
    """Exact values must be equal; floats must agree to 1e-9 times
    |want| + 1."""
    if _is_poly(got) or _is_poly(want):
        return got == want
    return abs(got - want) <= 1e-9 * (abs(want) + 1)


_STEP_INPUTS = ("g", "g1", "g2", "g3", "g12", "g13", "g23", "X", "Y", "Z")


def kashaev_step(c):
    """Complete the cube from its bottom data, in place; returns c.

    Numeric mode requires positive inputs and a finite nonzero g * g, and
    keeps the outputs positive (the greatest root) or +inf; symbolic mode
    divides exactly, the faces before the corner.
    """
    g, g1, g2, g3 = c.g, c.g1, c.g2, c.g3
    g12, g13, g23 = c.g12, c.g13, c.g23
    X, Y, Z = c.X, c.Y, c.Z
    numeric = not _is_poly(g)
    # a NaN fails every comparison, so each guard asks for > 0
    if numeric and not (g > 0 and g1 > 0 and g2 > 0 and g3 > 0 and g12 > 0
                        and g13 > 0 and g23 > 0 and X > 0 and Y > 0
                        and Z > 0 and 0 < g * g < math.inf):
        for name in _STEP_INPUTS:
            if not getattr(c, name) > 0:
                raise NonPositive(f"{name} is not positive in numeric mode")
        raise NonPositive(f"g * g = {g * g} is out of float range")
    c.X1 = (g1 * X + Y * Z) / g
    c.Y2 = (g2 * Y + X * Z) / g
    c.Z3 = (g3 * Z + X * Y) / g
    c.g123 = (2 * g1 * g2 * g3 + g * (g1 * g23 + g2 * g13 + g3 * g12)
              + 2 * X * Y * Z) / (g * g)
    if numeric and not (c.g123 > 0 and c.X1 > 0 and c.Y2 > 0 and c.Z3 > 0):
        raise NonPositive("completed cube is not positive")
    return c


class HexState:
    """Evolving vertex and face data while a solid is filled back in."""

    def __init__(self, g_values, face_values):
        self.g_values = g_values
        self.face_values = face_values


def positive_value(x, where):
    """A numeric initial value as a float; NonPositive unless it is finite
    and positive."""
    val = float(x)
    if not (val > 0 and math.isfinite(val)):
        raise NonPositive(f"initial value at {where} is not finite and "
                          "positive")
    return val


def lift_state(sg, g_init=None, mode="symbolic", faces=()):
    """Initial data on a window: a value at every vertex of sg and at each
    face key in faces.

    Symbolic mode lifts into the window's registry: a vertex takes the
    exact constant g_init gives for it, or else its variable, and a face
    takes its root variable.  Numeric mode reads a finite positive float for
    every vertex from g_init, and a face takes the square root of its two
    diagonal products, which must be finite and positive.
    """
    if mode == "symbolic":
        registry = sg.registry
        g_init = g_init or {}
        g_values = {v: registry.zero() + g_init[v] if v in g_init
                    else registry.var(sg.vertex_var_name(v))
                    for v in sg.vertices}
        face_values = {key: registry.var(sg.face_root_name(key))
                       for key in faces}
        return HexState(g_values, face_values)
    if g_init is None:
        raise KashaevError("numeric mode requires initial values")
    g_values = {v: positive_value(g_init[v], v) for v in sg.vertices}
    face_values = {}
    for key in faces:
        a, b, c, d = sg.faces[key]
        val = math.sqrt(g_values[a] * g_values[c] + g_values[b] * g_values[d])
        if not 0 < val < math.inf:
            raise NonPositive(
                f"face {key} is {val}, out of float range, from the initial "
                f"values {g_values[a]}, {g_values[b]}, {g_values[c]}, "
                f"{g_values[d]} at its corners")
        face_values[key] = val
    return HexState(g_values, face_values)


# offsets of a cube's seven bottom corners, in CubeData order
_BOTTOM = ((0, 0, 0), UNITS[0], UNITS[1], UNITS[2],
           (1, 1, 0), (1, 0, 1), (0, 1, 1))


def fill_corners(order, g_values, complete):
    """Add the cubes back in order: complete(p, corners) gets the values at
    cube p's seven bottom corners (g, g1, g2, g3, g12, g13, g23) and returns
    the value at its top corner p + (1, 1, 1)."""
    for p in order:
        corners = [g_values[vadd(p, d)] for d in _BOTTOM]
        g_values[vadd(p, (1, 1, 1))] = complete(p, corners)


def solve_state(U, g_init=None, mode="symbolic", order=None,
                window_radius=None):
    """Fill the solid back to the flat corner, returning the final state.

    The initial data live on surface_graph(U, window_radius), which is the
    window a caller still holds at that radius, if any."""
    sg = surface_graph(U, window_radius)
    state = lift_state(sg, g_init, mode, faces=sg.faces)
    if order is None:
        order = fill_order(U)
    else:
        order = list(order)
        if sorted(order) != sorted(U.removed):
            raise KashaevError("order must enumerate the removed cubes")
    fv = state.face_values

    def complete(p, corners):
        c = kashaev_step(CubeData(*corners, X=fv.pop((0, p)),
                                  Y=fv.pop((1, p)), Z=fv.pop((2, p))))
        fv[(0, vadd(p, UNITS[0]))] = c.X1
        fv[(1, vadd(p, UNITS[1]))] = c.Y2
        fv[(2, vadd(p, UNITS[2]))] = c.Z3
        return c.g123

    fill_corners(order, state.g_values, complete)
    return state


def solve_origin(U, g_init=None, mode="symbolic", order=None,
                 window_radius=None):
    """Value of the recurrence at the origin for initial data on V(U)."""
    if not is_regular(U)["regular"]:
        raise KashaevError("solve_origin requires a regular solid")
    state = solve_state(U, g_init, mode, order, window_radius)
    return state.g_values[(0, 0, 0)]

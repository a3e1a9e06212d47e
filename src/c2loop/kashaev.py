"""The degree-2 cube relation, its explicit recurrence, and symbolic solving.

The eight corners of a unit cube carry values g, g1, g2, g3, g12, g13, g23,
g123 and the six faces carry X, Y, Z (bottom) and X1, Y2, Z3 (top), where
X^2 = g*g23 + g2*g3 etc.  Completing the cube takes the greatest root of the
corner relation:

    g123 = (2 g1 g2 g3 + g (g1 g23 + g2 g13 + g3 g12) + 2 X Y Z) / g^2
    X1 = (g1 X + Y Z) / g,   Y2 = (g2 Y + X Z) / g,   Z3 = (g3 Z + X Y) / g.

The formulas are written once for both value types: positive floats and
Laurent polynomials, whose `/` is exact division.  A division that leaves a
remainder is a hard error rather than a fallback, because the result is
guaranteed to be a Laurent polynomial.  A step divides the three faces by g
before it forms the corner numerator, so a divisor that cannot divide
exactly fails before the step's largest product.  A float step raises
`NonPositive` on an input that is not positive, on a g * g that is 0 or
infinite, and on a NaN output; an output of +inf from finite divisors is
returned as it is.  The initial data alone choose the value type, once,
when they are lifted onto the window (`lift_state`): values given make
floats, and none make the window's own variables (`SurfaceGraph.registry`).
Only the float positivity guards look at the type again, and `agree`
compares values of either type.

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


def _is_poly(x):
    return isinstance(x, LaurentPoly)


def agree(got, want):
    """Exact values must be equal; floats must agree to 1e-9 times
    |want| + 1."""
    if _is_poly(got) or _is_poly(want):
        return got == want
    return abs(got - want) <= 1e-9 * (abs(want) + 1)


_STEP_INPUTS = ("g", "g1", "g2", "g3", "g12", "g13", "g23", "X", "Y", "Z")


def kashaev_step(g, g1, g2, g3, g12, g13, g23, X, Y, Z):
    """Complete the cube from its bottom data: (g123, X1, Y2, Z3).

    Floats must be positive with a finite nonzero g * g, and the outputs
    stay positive (the greatest root) or +inf; Laurent polynomials divide
    exactly, the faces before the corner.
    """
    numeric = not _is_poly(g)
    # a NaN fails every comparison, so each guard asks for > 0
    if numeric and not (g > 0 and g1 > 0 and g2 > 0 and g3 > 0 and g12 > 0
                        and g13 > 0 and g23 > 0 and X > 0 and Y > 0
                        and Z > 0 and 0 < g * g < math.inf):
        for name, val in zip(_STEP_INPUTS,
                             (g, g1, g2, g3, g12, g13, g23, X, Y, Z)):
            if not val > 0:
                raise NonPositive(f"{name} is not positive in numeric mode")
        raise NonPositive(f"g * g = {g * g} is out of float range")
    X1 = (g1 * X + Y * Z) / g
    Y2 = (g2 * Y + X * Z) / g
    Z3 = (g3 * Z + X * Y) / g
    g123 = (2 * g1 * g2 * g3 + g * (g1 * g23 + g2 * g13 + g3 * g12)
            + 2 * X * Y * Z) / (g * g)
    if numeric and not (g123 > 0 and X1 > 0 and Y2 > 0 and Z3 > 0):
        raise NonPositive("completed cube is not positive")
    return g123, X1, Y2, Z3


def positive_value(x, where):
    """A numeric initial value as a float; NonPositive unless it is finite
    and positive."""
    val = float(x)
    if not (val > 0 and math.isfinite(val)):
        raise NonPositive(f"initial value at {where} is not finite and "
                          "positive")
    return val


def lift_state(sg, g_init=None, faces=()):
    """Initial data on a window: (g_values, face_values), a value at every
    vertex of sg and at each face key in faces.

    Without g_init every vertex and face takes its variable in the window's
    registry.  With g_init every vertex reads a finite positive float from
    it, and a face takes the square root of its two diagonal products, which
    must be finite and positive.
    """
    if g_init is None:
        registry = sg.registry
        return ({v: registry.var(sg.vertex_var_name(v)) for v in sg.vertices},
                {key: registry.var(sg.face_root_name(key)) for key in faces})
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
    return g_values, face_values


# offsets of a cube's seven bottom corners, in kashaev_step's order
_BOTTOM = ((0, 0, 0), UNITS[0], UNITS[1], UNITS[2],
           (1, 1, 0), (1, 0, 1), (0, 1, 1))


def fill_corners(order, g_values, complete):
    """Add the cubes back in order: complete(p, corners) gets the values at
    cube p's seven bottom corners (g, g1, g2, g3, g12, g13, g23) and returns
    the value at its top corner p + (1, 1, 1)."""
    for p in order:
        corners = [g_values[vadd(p, d)] for d in _BOTTOM]
        g_values[vadd(p, (1, 1, 1))] = complete(p, corners)


def solve_state(U, g_init=None, order=None, window_radius=None):
    """Fill the solid back to the flat corner: the final (g_values,
    face_values), floats when g_init is given and Laurent polynomials when
    it is not.

    The initial data live on surface_graph(U, window_radius), which is the
    window a caller still holds at that radius, if any."""
    sg = surface_graph(U, window_radius)
    g_values, fv = lift_state(sg, g_init, faces=sg.faces)
    if order is None:
        order = fill_order(U)
    else:
        order = list(order)
        if sorted(order) != sorted(U.removed):
            raise KashaevError("order must enumerate the removed cubes")

    def complete(p, corners):
        g123, X1, Y2, Z3 = kashaev_step(*corners, fv.pop((0, p)),
                                        fv.pop((1, p)), fv.pop((2, p)))
        fv[(0, vadd(p, UNITS[0]))] = X1
        fv[(1, vadd(p, UNITS[1]))] = Y2
        fv[(2, vadd(p, UNITS[2]))] = Z3
        return g123

    fill_corners(order, g_values, complete)
    return g_values, fv


def solve_origin(U, g_init=None, mode="symbolic", order=None,
                 window_radius=None):
    """Value of the recurrence at the origin for initial data on V(U).

    mode names the value type that g_init chooses: "numeric" with values,
    "symbolic" without; any other pairing raises KashaevError."""
    if not is_regular(U)["regular"]:
        raise KashaevError("solve_origin requires a regular solid")
    if mode not in ("numeric", "symbolic"):
        raise KashaevError(f"unknown mode {mode!r}")
    if mode == "numeric" and g_init is None:
        raise KashaevError("numeric mode requires initial values")
    if mode == "symbolic" and g_init is not None:
        raise KashaevError("symbolic mode takes no initial values")
    g_values, _faces = solve_state(U, g_init, order, window_radius)
    return g_values[(0, 0, 0)]

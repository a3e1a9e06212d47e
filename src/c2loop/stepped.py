"""Monotone stepped solids in the negative octant and their boundary surfaces.

A solid is stored as the finite set of removed cubes, the difference from the
full corner U0 = R_-^3.  Cube positions are integer triples with all
coordinates <= -1; C_p is the unit cube [p, p+1]^3.  The removed set must be
upward closed (p removed and p' >= p componentwise implies p' removed), which
is exactly monotonicity of the solid, and finiteness is regularity.

The boundary stepped surface G(U) has vertex set
    V(U) = {x in U: x + (1,1,1) not in U}
and faces the boundary unit squares.  Faces are keyed by (axis, base) where
axis is the normal direction and base the lexicographically-least corner.
The projection along (1,1,1) maps the surface to the familiar lozenge tiling
of the plane; we use the integer projection basis (1,-1,0), (1,1,-2) so all
2D positions are exact.

A face is on the boundary exactly when one of its two cubes is in the solid.
A cube is in the solid when it lies in the corner XOR it is removed, so, read
mod 2, the boundary faces of U are the boundary faces of the flat corner
(base[axis] = 0, the other two coordinates negative) XOR the six faces of
every removed cube.  The window is built that way in O(faces), and a ball
filter then keeps the faces with a corner inside the window.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .laurent import VarRegistry


class SteppedError(Exception):
    pass


class NotRegular(SteppedError):
    pass


class WindowTooSmall(SteppedError):
    pass


class NotFlippable(SteppedError):
    pass


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
UNITS = (E1, E2, E3)


def vadd(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def height(v):
    return v[0] + v[1] + v[2]


def norm2(v):
    return v[0] * v[0] + v[1] * v[1] + v[2] * v[2]


@dataclass(frozen=True)
class SteppedSolid:
    removed: frozenset = frozenset()

    @staticmethod
    def from_removed(cubes):
        cubes = frozenset(tuple(c) for c in cubes)
        for c in cubes:
            if not all(x <= -1 for x in c):
                raise SteppedError(f"cube {c} outside the negative octant")
        return SteppedSolid(cubes)

    def cube_in(self, p):
        """Is the cube C_p part of the solid?"""
        return all(x <= -1 for x in p) and p not in self.removed

    def vertex_in(self, x):
        """Is the lattice point x in the solid (as a subset of R^3)?"""
        for d in itertools.product((0, -1), repeat=3):
            if self.cube_in(vadd(x, d)):
                return True
        return False

    def on_surface(self, x):
        return self.vertex_in(x) and not self.vertex_in(vadd(x, (1, 1, 1)))

    def to_json(self):
        return {"removed": sorted(list(c) for c in self.removed)}


def is_regular(U):
    """Regularity report: finite upward-closed removed set, plus the radius
    R_U beyond which the surface agrees with the flat corner."""
    ok = True
    for p in U.removed:
        for e in UNITS:
            q = vadd(p, e)
            if all(x <= -1 for x in q) and q not in U.removed:
                ok = False
    r = max((norm2(p) for p in U.removed), default=0) ** 0.5 + 2
    return {"regular": ok, "R_U": r}


def addable_positions(U):
    """Removed cubes that may be added back while staying monotone: the
    minimal elements of the removed set."""
    out = []
    for p in U.removed:
        if all(vadd(p, (-e[0], -e[1], -e[2])) not in U.removed for e in UNITS):
            out.append(p)
    return sorted(out, key=lambda p: (height(p), p))


def fill_order(U):
    """Canonical order in which removed cubes are added back to reach U0.

    Sorted by height then lexicographically; every prefix keeps the
    complement monotone because a cube's three lower neighbours have
    strictly smaller height.
    """
    if not is_regular(U)["regular"]:
        raise NotRegular("fill_order requires a regular solid")
    return sorted(U.removed, key=lambda p: (height(p), p))


def random_fill_order(U, rng):
    """A uniformly random valid add-back order (for order-independence tests)."""
    remaining = set(U.removed)
    order = []
    while remaining:
        frontier = sorted(
            p for p in remaining
            if all(vadd(p, (-e[0], -e[1], -e[2])) not in remaining
                   for e in UNITS))
        order.append(frontier[rng.randrange(len(frontier))])
        remaining.remove(order[-1])
    return order


def face_corners(axis, base):
    """Corner 4-cycle of the unit square with normal `axis` at `base`."""
    i, j = [k for k in range(3) if k != axis]
    ei, ej = UNITS[i], UNITS[j]
    return (base, vadd(base, ei), vadd(base, vadd(ei, ej)), vadd(base, ej))


def face_diagonals(axis, base):
    c = face_corners(axis, base)
    return (c[0], c[2]), (c[1], c[3])


# 2D projection along (1,1,1); integral so positions stay exact.
_PROJ = ((1, -1, 0), (1, 1, -2))


def project(v):
    return (Fraction(sum(a * b for a, b in zip(_PROJ[0], v))),
            Fraction(sum(a * b for a, b in zip(_PROJ[1], v))))


def _shoelace(points):
    s = Fraction(0)
    for k in range(len(points)):
        x1, y1 = points[k]
        x2, y2 = points[(k + 1) % len(points)]
        s += x1 * y2 - x2 * y1
    return s


# a translation keeps the orientation, so one shoelace per axis decides
# which corner cycles to reverse into clockwise order
_REVERSE = [_shoelace([project(c) for c in face_corners(a, (0, 0, 0))]) > 0
            for a in range(3)]


def clockwise_corners(axis, base):
    """Corner cycle of a face, clockwise in the projection."""
    a, b, c, d = face_corners(axis, base)
    return (a, d, c, b) if _REVERSE[axis] else (a, b, c, d)


def toggled_faces(U):
    """Faces on which G(U) and the flat corner differ: each removed cube
    toggles its six faces, so a face two removed cubes share cancels."""
    out = set()
    for p in U.removed:
        for axis, e in enumerate(UNITS):
            out ^= {(axis, p), (axis, vadd(p, e))}
    return out


@dataclass
class SurfaceGraph:
    solid: SteppedSolid
    window_radius: float
    vertices: set = field(default_factory=set)
    faces: dict = field(default_factory=dict)   # key -> clockwise corner cycle
    positions: dict = field(default_factory=dict)

    def face_root_name(self, key):
        axis, base = key
        return f"s{axis}[{base[0]},{base[1]},{base[2]}]"

    def vertex_var_name(self, v):
        return f"g[{v[0]},{v[1]},{v[2]}]"

    @cached_property
    def registry(self):
        """Variables of exact initial data, built on first symbolic use: one
        per vertex, and one root per face whose square is the sum of the
        face's two diagonal products."""
        squares = {self.face_root_name(key): [
            ({self.vertex_var_name(a): 1, self.vertex_var_name(b): 1}, 1)
            for a, b in face_diagonals(*key)] for key in sorted(self.faces)}
        return VarRegistry(map(self.vertex_var_name, sorted(self.vertices)),
                           squares)


def surface_graph(U, window_radius=None):
    """Finite window of G(U): every face with a corner inside the window
    ball.  The default radius covers the carved region plus a flat collar."""
    reg = is_regular(U)
    if not reg["regular"]:
        raise NotRegular("surface_graph requires a regular solid")
    r_need = reg["R_U"]
    if window_radius is None:
        window_radius = r_need + 1
    if not math.isfinite(window_radius):
        raise WindowTooSmall(f"window radius {window_radius} is not finite")
    if window_radius < r_need:
        raise WindowTooSmall(
            f"window radius {window_radius} < R_U = {r_need}")
    rad2 = window_radius * window_radius
    lim = int(window_radius) + 3
    keys = set()
    for axis in range(3):
        for a, b in itertools.product(range(-lim, 0), repeat=2):
            base = [a, b]
            base.insert(axis, 0)
            keys.add((axis, tuple(base)))
    keys ^= toggled_faces(U)
    sg = SurfaceGraph(U, window_radius)
    for key in sorted(keys):
        cyc = clockwise_corners(*key)
        if min(norm2(c) for c in cyc) > rad2:
            continue
        sg.faces[key] = cyc
        sg.vertices.update(cyc)
    for v in sg.vertices:
        if not U.on_surface(v):
            raise SteppedError(f"window corner {v} is off the surface")
        sg.positions[v] = project(v)
    return sg


def flip_vertex(surface, x):
    """Cube flip at a degree-3 vertex: add or remove the cube whose pit or
    peak sits at x, and rebuild the window.  Applying it twice restores the
    original incidence structure."""
    U = surface.solid
    p_bottom = x
    p_top = vadd(x, (-1, -1, -1))
    if p_bottom in U.removed and p_bottom in addable_positions(U):
        new = SteppedSolid(U.removed - {p_bottom})
        return surface_graph(new, surface.window_radius)
    if U.cube_in(p_top):
        grown = U.removed | {p_top}
        cand = SteppedSolid(grown)
        if is_regular(cand)["regular"]:
            return surface_graph(cand, surface.window_radius)
    raise NotFlippable(f"vertex {x} is not a flippable corner")


def enumerate_solids(max_cubes):
    """All regular solids with at most max_cubes removed cubes."""
    levels = [{frozenset()}]
    for _ in range(max_cubes):
        nxt = set()
        for s in levels[-1]:
            cand = {vadd(p, (-e[0], -e[1], -e[2])) for p in s for e in UNITS}
            cand.add((-1, -1, -1))
            for p in cand:
                if p in s:
                    continue
                if all(vadd(p, e) in s or not all(c <= -1 for c in vadd(p, e))
                       for e in UNITS):
                    nxt.add(s | {p})
        levels.append(nxt)
    out = []
    for lv in levels:
        out.extend(SteppedSolid(s) for s in sorted(lv, key=sorted))
    return out


def slab_solid(n):
    """The corner slab: all cubes of height >= -n removed.  One Kashaev step
    per cube climbs from the (a, b, c) staircase to the origin in n steps."""
    removed = set()
    for p in itertools.product(range(-n, 0), repeat=3):
        if height(p) >= -n:
            removed.add(p)
    return SteppedSolid(frozenset(removed))

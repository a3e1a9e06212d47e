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
every removed cube.

Each solid caches its regularity report, read from integer codes of its
removed cubes after a cheap depth test, and one read-only boolean occupancy
array of the cubes near the origin.  A window is built in NumPy: every face
is one integer code that sorts like its (axis, base) key, the window's keys
are the codes counted an odd number of times among the flat-corner faces and
the removed cubes' faces, a ball filter keeps the faces with a corner inside
the window, and every window corner is checked against the occupancy array
to lie on the surface.  A solid keeps one window per resolved radius, held
weakly, for as long as some caller holds it; windows are frozen, so the
callers that share one cannot rebind its fields.
"""

from __future__ import annotations

import itertools
import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .laurent import VarRegistry


class SteppedError(Exception):
    pass


class NotRegular(SteppedError):
    pass


class WindowTooSmall(SteppedError):
    pass


class WindowTooLarge(SteppedError):
    pass


E1, E2, E3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)
UNITS = (E1, E2, E3)
WINDOW_MAX_RADIUS = 400     # a one-cube window then takes 3.6 s and 606 MiB


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
        out = set()
        for c in cubes:
            if not (isinstance(c, (list, tuple)) and len(c) == 3
                    and all(type(x) is int for x in c)):
                raise SteppedError(f"cube {c!r} is not three integers")
            c = tuple(c)
            if max(c) > -1:
                raise SteppedError(f"cube {c} outside the negative octant")
            out.add(c)
        return SteppedSolid(frozenset(out))

    @cached_property
    def _depth(self):
        """How many cube layers below the origin the removed cubes reach."""
        return -min(map(min, self.removed), default=0)

    @cached_property
    def _cubes(self):
        """The removed cubes as an (n, 3) integer array, in no set order."""
        if self._depth > _MAX_DEPTH:
            raise SteppedError(
                f"removed cubes deeper than {_MAX_DEPTH} are not supported")
        return np.fromiter(itertools.chain.from_iterable(self.removed),
                           np.int64, 3 * len(self.removed)).reshape(-1, 3)

    @cached_property
    def _regularity(self):
        depth = self._depth
        # an upward-closed set holds the row from each of its n cubes up to
        # the octant's face, so none lies below -n: a deeper set is not
        # regular, which is read off before any array is made of it
        if depth > len(self.removed):
            r = max(map(norm2, self.removed)) ** 0.5 + 2
            return {"regular": False, "R_U": r}
        q = -1 - self._cubes
        w = depth + 1

        def code(c):
            return (c[:, 0] * w + c[:, 1]) * w + c[:, 2]
        # the upper neighbour of each removed cube, where it lies inside the
        # octant, must be removed too
        codes = np.sort(code(q))
        ok = True
        for a, e in enumerate(np.eye(3, dtype=q.dtype)):
            up = code(q[q[:, a] > 0] - e)
            at = np.minimum(codes.searchsorted(up), len(codes) - 1)
            ok = ok and bool((codes[at] == up).all())
        r = int(((q + 1) ** 2).sum(1).max(initial=0)) ** 0.5 + 2
        return {"regular": ok, "R_U": r}

    @cached_property
    def occupancy(self):
        """Read-only boolean array of the cubes near the origin: entry -p
        says whether the cube C_p is in the solid.  Each axis runs from 0,
        outside the octant, to one layer past the deepest removed cube.
        Windows read it after the regularity check, and a regular solid's
        array is no wider on any axis than its window."""
        cubes = self._cubes
        occ = np.ones(2 - cubes.min(0, initial=0), dtype=bool)
        occ[0] = occ[:, 0] = occ[:, :, 0] = False
        occ[tuple((-cubes).T)] = False
        occ.flags.writeable = False
        return occ

    @cached_property
    def _windows(self):
        """The solid's windows by resolved radius, held weakly: a window
        points back at its solid, so a strong cache would make a cycle that
        only the garbage collector frees."""
        return weakref.WeakValueDictionary()

    def on_surface_mask(self, x):
        """Which points of an (n, 3) integer array lie on the surface: in the
        solid, with x + (1, 1, 1) outside it.  A point is in the solid when
        one of its eight cubes is; a cube beyond the array's reach on some
        axis is read at that axis's last entry, which holds the same."""
        occ = self.occupancy
        top = np.array(occ.shape) - 1

        def vertex_in(y):
            i = np.clip(-y[:, None] - _CUBES_AT_VERTEX, 0, top)
            return occ[i[..., 0], i[..., 1], i[..., 2]].any(1)
        return vertex_in(x) & ~vertex_in(x + 1)


# cube and face codes are built from three coordinates of up to this depth,
# which keeps them inside int64
_MAX_DEPTH = 10 ** 6

# the eight cubes x + d, d in {0, -1}^3, that meet the lattice point x
_CUBES_AT_VERTEX = np.array(list(itertools.product((0, -1), repeat=3)))


def is_regular(U):
    """Regularity report: finite upward-closed removed set, plus the radius
    R_U beyond which the surface agrees with the flat corner."""
    return dict(U._regularity)


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


# clockwise corner offsets of each axis's faces, as an (axis, 4, 3) table
_CLOCKWISE = np.array([clockwise_corners(a, (0, 0, 0)) for a in range(3)])


def _encode(axis, base, lim):
    """Integer codes of faces (axis, base) whose base coordinates lie in
    [-lim, 0]; the codes sort like the (axis, base) keys."""
    w = lim + 1
    d = base + lim
    return ((axis * w + d[:, 0]) * w + d[:, 1]) * w + d[:, 2]


def _odd_faces(codes, lim):
    """Sorted (axes, bases) of the faces whose code occurs an odd number of
    times in `codes`."""
    keys, counts = np.unique(codes, return_counts=True)
    keys = keys[counts % 2 == 1]
    w = lim + 1
    rest, b2 = np.divmod(keys, w)
    rest, b1 = np.divmod(rest, w)
    axes, b0 = np.divmod(rest, w)
    return axes, np.stack([b0, b1, b2], 1) - lim


def _cube_face_codes(U, lim):
    """Codes of the six faces of every removed cube."""
    p = U._cubes
    e = np.eye(3, dtype=p.dtype)
    return np.concatenate([_encode(a, q, lim)
                           for a in range(3) for q in (p, p + e[a])])


def toggled_faces(U):
    """Faces on which G(U) and the flat corner differ: each removed cube
    toggles its six faces, so a face two removed cubes share cancels."""
    lim = U._depth
    axes, bases = _odd_faces(_cube_face_codes(U, lim), lim)
    return set(zip(axes.tolist(), zip(*bases.T.tolist())))


@dataclass(frozen=True)
class SurfaceGraph:
    solid: SteppedSolid
    window_radius: float
    vertices: set
    faces: dict       # key -> clockwise corner cycle, in sorted key order
    positions: dict

    def face_root_name(self, key):
        axis, base = key
        return f"s{axis}[{base[0]},{base[1]},{base[2]}]"

    def vertex_var_name(self, v):
        return f"g[{v[0]},{v[1]},{v[2]}]"

    @cached_property
    def registry(self):
        """Variables of exact initial data, built on first symbolic use: one
        per vertex, and one root per face whose square is the sum of the
        face's two diagonal products.  The variables follow the vertex
        order, so each square is built in canonical form: a diagonal's
        corners in vertex order, the (a, c) diagonal's term first."""
        names = {v: self.vertex_var_name(v) for v in sorted(self.vertices)}

        def term(p, q):
            return ((names[p], 1), (names[q], 1)) if p < q else \
                ((names[q], 1), (names[p], 1))
        squares = {self.face_root_name(key): {term(a, c): 1, term(b, d): 1}
                   for key, (a, b, c, d) in self.faces.items()}
        return VarRegistry(names.values(), squares)


def surface_graph(U, window_radius=None):
    """Finite window of G(U): every face with a corner inside the window
    ball.  The default radius covers the carved region plus a flat collar;
    no radius may exceed WINDOW_MAX_RADIUS.
    A window the same solid object still holds at the same resolved radius
    is returned as it is; windows are frozen and shared, so read them and do
    not change them."""
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
    if window_radius > WINDOW_MAX_RADIUS:
        raise WindowTooLarge(f"window radius {window_radius} > "
                             f"{WINDOW_MAX_RADIUS}")
    sg = U._windows.get(window_radius)
    if sg is not None:
        return sg
    # every removed cube lies inside the ball of radius R_U - 2, so each
    # base coordinate of a face below fits in [-lim, 0]
    lim = int(window_radius) + 3
    # the flat corner's faces: base[axis] = 0, the other two in [-lim, -1]
    side = np.arange(-lim, 0)
    flat = np.stack(np.meshgrid(side, side, indexing="ij"), -1).reshape(-1, 2)
    axes, bases = _odd_faces(np.concatenate(
        [_encode(a, np.insert(flat, a, 0, axis=1), lim) for a in range(3)]
        + [_cube_face_codes(U, lim)]), lim)
    cycles = bases[:, None] + _CLOCKWISE[axes]
    near = (cycles * cycles).sum(2).min(1) <= window_radius * window_radius
    corners = list(zip(*cycles[near].reshape(-1, 3).T.tolist()))
    faces = dict(zip(zip(axes[near].tolist(), zip(*bases[near].T.tolist())),
                     zip(*[iter(corners)] * 4)))
    vertices = set(corners)
    order = list(vertices)
    points = np.array(order)
    on = U.on_surface_mask(points)
    if not on.all():
        v = order[int(np.argmin(on))]
        raise SteppedError(f"window corner {v} is off the surface")
    # one Fraction per distinct projected coordinate, shared by the positions
    xy = (points @ np.array(_PROJ).T).tolist()
    frac = {k: Fraction(k) for k in set(itertools.chain.from_iterable(xy))}
    positions = {v: (frac[x], frac[y]) for v, (x, y) in zip(order, xy)}
    sg = U._windows[window_radius] = SurfaceGraph(
        U, window_radius, vertices, faces, positions)
    return sg


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

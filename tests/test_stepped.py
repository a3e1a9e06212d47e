"""Stepped solids, surfaces, fill orders and flips."""

import dataclasses
import gc
import itertools
import math
import random
import re
import weakref

import numpy as np
import pytest

from c2loop.laurent import VarRegistry
from c2loop.stepped import (
    NotRegular,
    SteppedError,
    SteppedSolid,
    enumerate_solids,
    face_corners,
    fill_order,
    height,
    is_regular,
    norm2,
    project,
    random_fill_order,
    slab_solid,
    surface_graph,
    toggled_faces,
    vadd,
    UNITS,
    WindowTooSmall,
)
from conftest import face_diagonals

U0 = SteppedSolid()
ONE = SteppedSolid.from_removed([(-1, -1, -1)])


def _is_regular_loop(U):
    """Reference regularity report: every upper neighbour of a removed cube
    inside the octant is removed too."""
    ok = True
    for p in U.removed:
        for e in UNITS:
            q = vadd(p, e)
            if all(x <= -1 for x in q) and q not in U.removed:
                ok = False
    r = max((norm2(p) for p in U.removed), default=0) ** 0.5 + 2
    return {"regular": ok, "R_U": r}


def _toggled_faces_loop(U):
    """Reference toggled faces: each removed cube toggles its six faces."""
    out = set()
    for p in U.removed:
        for axis, e in enumerate(UNITS):
            out ^= {(axis, p), (axis, vadd(p, e))}
    return out


def cube_in(U, p):
    """Is the cube C_p part of the solid?"""
    return all(x <= -1 for x in p) and p not in U.removed


def _vertex_in(U, x):
    """Reference: is the lattice point x in the solid (as a subset of R^3)?"""
    return any(cube_in(U, vadd(x, d))
               for d in itertools.product((0, -1), repeat=3))


def _on_surface(U, x):
    """Reference: x is in the solid and x + (1, 1, 1) is not."""
    return _vertex_in(U, x) and not _vertex_in(U, vadd(x, (1, 1, 1)))


def _random_pile(rng, n_cubes):
    """An upward-closed pile grown one addable cube at a time."""
    removed = {(-1, -1, -1)}
    while len(removed) < n_cubes:
        p = vadd(rng.choice(sorted(removed)),
                 tuple(-x for x in rng.choice(UNITS)))
        if all(vadd(p, e) in removed or vadd(p, e)[i] == 0
               for i, e in enumerate(UNITS)):
            removed.add(p)
    return SteppedSolid(frozenset(removed))


def _random_piles():
    rng = random.Random(11)
    return [_random_pile(rng, n) for n in (7, 20, 33, 45, 60)]


def _random_cube_sets():
    """Sets of cubes in the box [-4, -1]^3 that hold (-2, -1, -1) but not
    its upper neighbour (-1, -1, -1), so none is upward closed."""
    rng = random.Random(12)
    box = list(itertools.product(range(-4, 0), repeat=3))
    return [SteppedSolid(frozenset(rng.sample(box, rng.randint(1, 20)))
                         .union({(-2, -1, -1)}) - {(-1, -1, -1)})
            for _ in range(60)]


def test_regularity():
    assert is_regular(U0) == {"regular": True, "R_U": 2}
    assert is_regular(ONE)["regular"]
    bad = SteppedSolid.from_removed([(-2, -1, -1)])
    assert not is_regular(bad)["regular"]
    # within the depth bound, so only the upper-neighbour search sees it
    bad = SteppedSolid.from_removed([(-2, -1, -1), (-1, -2, -1)])
    assert not is_regular(bad)["regular"]
    for U in enumerate_solids(5) + _random_piles() + _random_cube_sets():
        assert is_regular(U) == _is_regular_loop(U)
        assert toggled_faces(U) == _toggled_faces_loop(U)
    assert all(is_regular(U)["regular"] for U in _random_piles())
    assert not any(is_regular(U)["regular"] for U in _random_cube_sets())


def test_deep_cubes_are_judged_without_an_array():
    # no coordinate of an upward-closed set of n cubes lies below -n, so
    # these are refused from that alone, int64 overflow and all
    for cubes in ([(-3000, -3000, -3000)], [(-10 ** 20, -1, -1)]):
        U = SteppedSolid.from_removed(cubes)
        assert is_regular(U) == _is_regular_loop(U)
        assert not is_regular(U)["regular"]
        assert "_cubes" not in vars(U)
    # three long arms within the depth bound are checked from cube codes,
    # not from an array over their 300^3 box
    arms = [(-300, -1, -1), (-1, -300, -1), (-1, -1, -300)]
    fill = itertools.product(range(-7, 0), repeat=3)
    U = SteppedSolid(frozenset(arms).union(itertools.islice(fill, 297)))
    assert is_regular(U) == _is_regular_loop(U)
    assert not is_regular(U)["regular"]
    assert "occupancy" not in vars(U)
    with pytest.raises(SteppedError, match="deeper than"):
        toggled_faces(SteppedSolid.from_removed([(-10 ** 20, -1, -1)]))


def test_occupancy_is_read_only():
    with pytest.raises(ValueError):
        slab_solid(2).occupancy[0, 0, 0] = False


def test_on_surface_mask_matches_scalar_predicate():
    for U in [U0, ONE, slab_solid(3)] + _random_piles()[:2] \
            + _random_cube_sets()[:5]:
        points = list(itertools.product(range(-6, 2), repeat=3))
        mask = U.on_surface_mask(np.array(points))
        assert mask.tolist() == [_on_surface(U, x) for x in points]


@pytest.mark.parametrize("cube", [
    (-1, -1), (-1, -1, -1, -1), (-1.0, -1, -1), (-1.5, -1, -1),
    (True, -1, -1), "abc", 5, None])
def test_from_removed_rejects_malformed_cubes(cube):
    with pytest.raises(SteppedError, match="not three integers"):
        SteppedSolid.from_removed([(-1, -1, -1), cube])


def addable_positions(U):
    """Removed cubes that may be added back while staying monotone: the
    minimal elements of the removed set."""
    out = []
    for p in U.removed:
        if all(vadd(p, (-e[0], -e[1], -e[2])) not in U.removed for e in UNITS):
            out.append(p)
    return sorted(out, key=lambda p: (height(p), p))


def test_addable():
    assert addable_positions(ONE) == [(-1, -1, -1)]
    assert addable_positions(U0) == []
    two = SteppedSolid.from_removed([(-1, -1, -1), (-2, -1, -1)])
    assert addable_positions(two) == [(-2, -1, -1)]


def test_fill_order_single():
    assert fill_order(ONE) == [(-1, -1, -1)]


def test_fill_order_slab_by_height():
    U = slab_solid(4)
    order = fill_order(U)
    assert len(order) == 4
    assert [height(p) for p in order] == sorted(height(p) for p in order)
    assert order[-1] == (-1, -1, -1)


def test_fill_order_prefixes_regular():
    rng = random.Random(3)
    for U in enumerate_solids(4):
        if len(U.removed) < 2:
            continue
        order = random_fill_order(U, rng)
        left = set(U.removed)
        for p in order:
            left.remove(p)
            assert is_regular(SteppedSolid(frozenset(left)))["regular"]


def test_surface_u0_flat_pattern():
    sg = surface_graph(U0, 4)
    assert all(height(v) <= 0 for v in sg.vertices)
    for cyc in sg.faces.values():
        hs = sorted(height(c) for c in cyc)
        assert hs[3] - hs[0] == 2 and hs[1] == hs[2] == hs[0] + 1


def test_surface_one_cube_pit():
    flat = surface_graph(U0, 5)
    pit = surface_graph(ONE, 5)
    assert (0, 0, 0) in flat.vertices
    assert (0, 0, 0) not in pit.vertices
    assert (-1, -1, -1) in pit.vertices
    gained = set(pit.faces) - set(flat.faces)
    lost = set(flat.faces) - set(pit.faces)
    assert len(gained) == 3 and len(lost) == 3
    for axis, base in gained:
        assert base == (-1, -1, -1)


def test_surface_slab_heights():
    n = 3
    sg = surface_graph(slab_solid(n), None)
    staircase = [v for v in sg.vertices
                 if all(c < 0 for c in v)]
    assert staircase
    assert {height(v) for v in staircase} <= {-n, -n + 1, -n + 2}


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        surface_graph(ONE, 1.0)
    r_u = is_regular(ONE)["R_U"]
    with pytest.raises(WindowTooSmall,
                       match=rf"^window radius {r_u - 0.5} < R_U = {r_u}$"):
        surface_graph(ONE, r_u - 0.5)


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_window_not_finite(radius):
    with pytest.raises(WindowTooSmall,
                       match=rf"^window radius {radius} is not finite$"):
        surface_graph(ONE, radius)


def test_window_corners_checked_on_surface(monkeypatch):
    # the first window corner, in vertex-set order, that the check rejects
    # is the one the error names
    corner = list(surface_graph(ONE).vertices)[3]
    monkeypatch.setattr(SteppedSolid, "on_surface_mask",
                        lambda U, x: np.arange(len(x)) < 3)
    with pytest.raises(SteppedError, match=re.escape(
            f"window corner {corner} is off the surface")):
        surface_graph(ONE)


def test_window_shared_per_solid_and_radius():
    U = slab_solid(2)
    sg = surface_graph(U, 6)
    assert surface_graph(U, 6) is sg
    # the default radius is resolved before the lookup
    r_default = is_regular(U)["R_U"] + 1
    assert surface_graph(U) is surface_graph(U, r_default)
    other = surface_graph(U, 7)
    assert other is not sg and other.window_radius == 7
    twin = slab_solid(2)
    assert twin == U and surface_graph(twin, 6) is not sg
    with pytest.raises(dataclasses.FrozenInstanceError):
        sg.faces = {}


def test_window_freed_with_its_last_holder():
    # a window points back at its solid; the solid holds its windows only
    # weakly, so a window is freed by reference counting alone, registry
    # and all
    enabled = gc.isenabled()
    gc.disable()
    try:
        U = slab_solid(3)
        sg = surface_graph(U)
        assert sg.registry is not None
        ref = weakref.ref(sg)
        del sg
        assert ref() is None
        fresh = surface_graph(U)
        assert "registry" not in vars(fresh)
    finally:
        if enabled:
            gc.enable()


def test_window_requires_regular_solid():
    with pytest.raises(NotRegular,
                       match="^surface_graph requires a regular solid$"):
        surface_graph(SteppedSolid.from_removed([(-2, -1, -1)]))


class NotFlippable(SteppedError):
    pass


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
    if cube_in(U, p_top):
        grown = U.removed | {p_top}
        cand = SteppedSolid(grown)
        if is_regular(cand)["regular"]:
            return surface_graph(cand, surface.window_radius)
    raise NotFlippable(f"vertex {x} is not a flippable corner")


def test_flip_roundtrip():
    sg = surface_graph(ONE, 6)
    flipped = flip_vertex(sg, (-1, -1, -1))
    assert flipped.solid == U0
    back = flip_vertex(flipped, (0, 0, 0))
    assert back.solid == ONE
    assert set(back.faces) == set(sg.faces)


def test_flip_guard():
    sg = surface_graph(ONE, 6)
    with pytest.raises(NotFlippable):
        flip_vertex(sg, (0, -3, 0))


def test_enumerate_solids_counts():
    # Solid-partition counts: 1, 3, 6, 13 shapes for 1..4 cubes.
    sizes = {}
    for U in enumerate_solids(4):
        sizes[len(U.removed)] = sizes.get(len(U.removed), 0) + 1
    assert sizes == {0: 1, 1: 1, 2: 3, 3: 6, 4: 13}


def test_faces_have_two_diagonal_classes():
    cyc = face_corners(2, (-1, -1, -1))
    h = [height(c) for c in cyc]
    assert sorted(h) == [-3, -2, -2, -1]


def _scan_window(U, window_radius):
    """Reference window: scan every face of the cube [-lim, lim]^3 and keep
    the boundary faces inside the ball, clockwise in the projection."""
    rad2 = window_radius * window_radius
    lim = int(window_radius) + 3
    faces, vertices = {}, set()
    for axis in range(3):
        down = tuple(-x for x in UNITS[axis])
        for base in itertools.product(range(-lim, lim + 1), repeat=3):
            cyc = face_corners(axis, base)
            if min(norm2(c) for c in cyc) > rad2:
                continue
            if cube_in(U, vadd(base, down)) == cube_in(U, base):
                continue
            assert all(_on_surface(U, c) for c in cyc)
            pts = [project(c) for c in cyc]
            area2 = sum(pts[k][0] * pts[k - 3][1] - pts[k - 3][0] * pts[k][1]
                        for k in range(4))
            if area2 > 0:
                cyc = (cyc[0], cyc[3], cyc[2], cyc[1])
            faces[(axis, base)] = cyc
            vertices.update(cyc)
    positions = {v: project(v) for v in vertices}
    return faces, vertices, positions


def _window_cases():
    for U in enumerate_solids(5):
        yield U, None
        yield U, is_regular(U)["R_U"] + 2.5
    for n in (4, 8, 15):
        yield slab_solid(n), None
    yield U0, None
    for U in _random_piles():
        yield U, None


def test_window_matches_scan():
    for U, radius in _window_cases():
        sg = surface_graph(U, radius)
        faces, vertices, positions = _scan_window(U, sg.window_radius)
        assert list(sg.faces.items()) == list(faces.items())
        assert list(sg.vertices) == list(vertices)
        assert list(sg.positions.items()) == list(positions.items())


def test_window_registry_matches_sums_of_diagonal_monomials():
    # the registry of each window against squares built as the sum of the
    # face's two diagonal monomials over the same vertex variables
    for U, radius in _window_cases():
        sg = surface_graph(U, radius)
        reg = sg.registry
        names = [sg.vertex_var_name(v) for v in sorted(sg.vertices)]
        plain = VarRegistry(names)
        roots = [sg.face_root_name(key) for key in sorted(sg.faces)]
        assert reg.vertex_vars == tuple(names)
        assert reg.root_vars == tuple(roots)
        # and against the squares poly() sums from the two diagonal terms,
        # in the same insertion order
        summed = VarRegistry(names, {
            sg.face_root_name(key): [({sg.vertex_var_name(a): 1,
                                       sg.vertex_var_name(b): 1}, 1)
                                     for a, b in face_diagonals(*key)]
            for key in sorted(sg.faces)})
        for key, root in zip(sorted(sg.faces), roots):
            want = plain.zero()
            for a, b in face_diagonals(*key):
                want = want + plain.monomial(
                    {sg.vertex_var_name(a): 1, sg.vertex_var_name(b): 1})
            got = list(reg.root_square(root).terms.items())
            assert got == list(want.terms.items())
            assert got == list(summed.root_square(root).terms.items())
        assert reg == summed


def test_window_variables_are_first_power_monomials():
    for U, radius in _window_cases():
        reg = surface_graph(U, radius).registry
        for name in reg.vertex_vars + reg.root_vars:
            assert reg.var(name).terms == reg.monomial({name: 1}).terms

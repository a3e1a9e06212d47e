"""Stepped solids, surfaces, fill orders and flips."""

import itertools
import math
import random

import pytest

from c2loop.stepped import (
    NotFlippable,
    SteppedSolid,
    addable_positions,
    enumerate_solids,
    face_corners,
    fill_order,
    flip_vertex,
    height,
    is_regular,
    norm2,
    project,
    random_fill_order,
    slab_solid,
    surface_graph,
    vadd,
    UNITS,
    WindowTooSmall,
)

U0 = SteppedSolid()
ONE = SteppedSolid.from_removed([(-1, -1, -1)])


def test_regularity():
    assert is_regular(U0) == {"regular": True, "R_U": 2}
    assert is_regular(ONE)["regular"]
    bad = SteppedSolid.from_removed([(-2, -1, -1)])
    assert not is_regular(bad)["regular"]


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


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_window_not_finite(radius):
    with pytest.raises(WindowTooSmall):
        surface_graph(ONE, radius)


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
            if U.cube_in(vadd(base, down)) == U.cube_in(base):
                continue
            assert all(U.on_surface(c) for c in cyc)
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


def test_window_matches_scan():
    for U, radius in _window_cases():
        sg = surface_graph(U, radius)
        faces, vertices, positions = _scan_window(U, sg.window_radius)
        assert list(sg.faces.items()) == list(faces.items())
        assert list(sg.vertices) == list(vertices)
        assert list(sg.positions.items()) == list(positions.items())

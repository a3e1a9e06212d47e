"""Complexes, cubes and oracles shared by several test modules.  Test modules
import them from here, so that no test module imports another."""

import math
from fractions import Fraction

import pytest

from c2loop.kashaev import kashaev_step
from c2loop.loopmodel import FaceComplex, LOCAL_CONFIGS, _trace, side_colors
from c2loop.quadgraph import QuadGraph, grid_quadgraph
from c2loop.stepped import face_corners


def doubled_grid(nx, ny):
    """Two copies of grid_quadgraph(nx, ny) glued along their boundary into a
    sphere.  Copy B's cycles are mirrored, so side s of a face of copy A is
    side 3 - s of its twin in B; the half-edges of A glue to those of B."""
    grid = grid_quadgraph(nx, ny)
    corner_ids = {}
    for fid, (x, u, y, v) in grid.corner_ids.items():
        corner_ids[("A", fid)] = (x, u, y, v)
        corner_ids[("B", fid)] = (x, v, y, u)
    gluing = {}
    for (f, s), (f2, s2) in grid.gluing.items():
        gluing[(("A", f), s)] = (("A", f2), s2)
        gluing[(("B", f), 3 - s)] = (("B", f2), 3 - s2)
    for f, s in grid.half_edges():
        gluing[(("A", f), s)] = (("B", f), 3 - s)
        gluing[(("B", f), 3 - s)] = (("A", f), s)
    return FaceComplex(corner_ids, gluing)


@pytest.fixture
def doubled_grid21():
    """The doubled 2x1 grid: a sphere whose 8 edges join only 7 vertex
    pairs."""
    return doubled_grid(2, 1)


def pillow_sphere():
    """Two quadrilaterals glued along their whole boundary."""
    colors = {0: "black", 1: "white", 2: "black", 3: "white"}
    faces = {"A": (0, 1, 2, 3), "B": (0, 3, 2, 1)}
    return QuadGraph(colors, faces, closed=True)


def hexagon_y():
    """Hexagon split into three quadrilaterals around a center vertex; its
    three train tracks pairwise cross once.  Stands in for the figure-style
    bounded quadrangulation with two highlighted tracks."""
    colors = {"o": "white"}
    positions = {"o": (Fraction(0), Fraction(0))}
    faces = {}
    ring = {}
    for t in range(3):
        a = f"a{t}"
        b = f"b{t}"
        colors[a] = "black"
        colors[b] = "white"
        ring[a] = (Fraction(round(100 * math.cos(2 * math.pi * t / 3 + math.pi / 6)), 100),
                   Fraction(round(100 * math.sin(2 * math.pi * t / 3 + math.pi / 6)), 100))
        ring[b] = (Fraction(round(100 * 2 * math.cos(2 * math.pi * t / 3 + math.pi / 2)), 100),
                   Fraction(round(100 * 2 * math.sin(2 * math.pi * t / 3 + math.pi / 2)), 100))
    positions.update(ring)
    for t in range(3):
        faces[f"q{t}"] = (f"a{t}", f"b{t}", f"a{(t + 1) % 3}", "o")
    return QuadGraph(colors, faces, positions)


def cube_from_bottom(g, g1, g2, g3, g12, g13, g23, X=None, Y=None, Z=None):
    """A cube's bottom data by the names kashaev_step takes, each face value
    not given the square root of its two diagonal products (numeric)."""
    return {"g": g, "g1": g1, "g2": g2, "g3": g3,
            "g12": g12, "g13": g13, "g23": g23,
            "X": math.sqrt(g * g23 + g2 * g3) if X is None else X,
            "Y": math.sqrt(g * g13 + g1 * g3) if Y is None else Y,
            "Z": math.sqrt(g * g12 + g1 * g2) if Z is None else Z}


def complete_cube(c):
    """The bottom data c with kashaev_step's outputs g123, X1, Y2, Z3."""
    return dict(c, **dict(zip(("g123", "X1", "Y2", "Z3"),
                              kashaev_step(**c))))


def kashaev_relation_sides(c):
    """The corner relation's terms of each sign, summed: equal iff the
    relation holds (exactly, for Laurent polynomials)."""
    g, g1, g2, g3 = c["g"], c["g1"], c["g2"], c["g3"]
    g12, g13, g23, g123 = c["g12"], c["g13"], c["g23"], c["g123"]
    plus = (g * g * g123 * g123 + g1 * g1 * g23 * g23
            + g2 * g2 * g13 * g13 + g3 * g3 * g12 * g12)
    minus = (2 * g2 * g3 * g13 * g12 + 2 * g1 * g3 * g23 * g12
             + 2 * g1 * g2 * g23 * g13
             + 2 * g * g123 * (g1 * g23 + g2 * g13 + g3 * g12)
             + 4 * g * g12 * g23 * g13 + 4 * g123 * g1 * g2 * g3)
    return plus, minus


def kashaev_relation_residual(c):
    """Left side of the corner relation (floats); zero iff the relation
    holds."""
    plus, minus = kashaev_relation_sides(c)
    return plus - minus


def face_diagonals(axis, base):
    """The two diagonals of a stepped-surface face, as corner pairs."""
    c = face_corners(axis, base)
    return (c[0], c[2]), (c[1], c[3])


def crossing_parity_check(graph, assignment):
    """Every closed loop crosses opposite-colored paths an even number of
    times (each row-5 face traversal is one crossing)."""
    loops, _paths = _trace(graph, assignment)
    return all(crossings % 2 == 0 for _color, crossings in loops)


def blue_data(graph, config):
    """The blue part of a configuration: its blue glued-edge set plus the
    pairing choice at faces whose four sides are all blue."""
    blue_edges = set()
    pairings = {}
    for fid, name in config.assignment.items():
        _row, pairs, cols = LOCAL_CONFIGS[name]
        scol = side_colors(name)
        for s in range(4):
            if scol[s] == "B":
                blue_edges.add(graph.glue_key(fid, s))
        if all(c == "B" for c in scol):
            pairings[fid] = pairs
    return blue_edges, pairings

"""Complexes shared by several test modules."""

import pytest

from c2loop.loopmodel import FaceComplex
from c2loop.quadgraph import grid_quadgraph


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

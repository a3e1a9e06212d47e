"""Small reference graphs used across tests and the verification suite."""

from __future__ import annotations

from fractions import Fraction

from .loopmodel import FaceComplex
from .quadgraph import FaceWeights, QuadGraph
from .quadfield import QuadVal


def cube_sphere():
    """The 1-skeleton of the cube: a quadrangulation of the sphere with
    8 vertices, 12 edges, 6 faces, all face cycles clockwise from outside."""
    colors = {}
    for i in (0, 1):
        for j in (0, 1):
            for k in (0, 1):
                colors[(i, j, k)] = "black" if (i + j + k) % 2 == 0 \
                    else "white"
    faces = {
        "z0": ((0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)),
        "z1": ((0, 0, 1), (0, 1, 1), (1, 1, 1), (1, 0, 1)),
        "y0": ((0, 0, 0), (0, 0, 1), (1, 0, 1), (1, 0, 0)),
        "y1": ((0, 1, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)),
        "x0": ((0, 0, 0), (0, 1, 0), (0, 1, 1), (0, 0, 1)),
        "x1": ((1, 0, 0), (1, 0, 1), (1, 1, 1), (1, 1, 0)),
    }
    return QuadGraph(colors, faces, closed=True)


def torus_two_faces():
    """Fundamental domain of the periodic square-grid quadrangulation:
    two faces, every side glued to the other face."""
    corner_ids = {
        "f0": ("B", "W", "B", "W"),
        "f1": ("B", "W", "B", "W"),
    }
    gluing = {}
    pairs = [(("f0", 0), ("f1", 1)), (("f0", 1), ("f1", 2)),
             (("f0", 2), ("f1", 3)), (("f0", 3), ("f1", 0))]
    for a, b in pairs:
        gluing[a] = b
        gluing[b] = a
    return FaceComplex(corner_ids, gluing)


def ff_fixture_weights():
    """The symmetric point: (1/2, 1/2, 1/sqrt2, 1/sqrt2, 1/2), exact in
    Q(sqrt 2)."""
    half = Fraction(1, 2)
    inv_sqrt2 = QuadVal(0, Fraction(1, 2), 2)      # sqrt(2)/2 = 1/sqrt(2)
    return FaceWeights(half, half, inv_sqrt2, inv_sqrt2, half)


def rational_ff_weights(rng):
    """Random free-fermionic weights with all five entries rational:
    lambda rational, (a, b) a rational point on the unit circle drawn from
    m, n <= 5."""
    while True:
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        if m != n:
            break
    m, n = max(m, n), min(m, n)
    a = Fraction(m * m - n * n, m * m + n * n)
    b = Fraction(2 * m * n, m * m + n * n)
    if rng.random() < 0.5:
        a, b = b, a
    lam = Fraction(rng.randint(1, 6), rng.randint(1, 4))
    return FaceWeights(lam * a * a, lam * b * b, lam * a, lam * b,
                       lam * a * b)

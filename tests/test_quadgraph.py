"""Validation, train tracks, census identities, parametrization solver."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from c2loop.ffdimers import verify_correspondence
from c2loop.fixtures import cube_sphere, ff_fixture_weights, \
    rational_ff_weights
from c2loop.loopmodel import BoundarySpec, enumerate_configs
from c2loop.quadgraph import (
    FaceWeights,
    LoopTrackPresent,
    MulValue,
    NotFreeFermionic,
    QuadGraph,
    ff_ratio,
    grid_quadgraph,
    solve_parametrization,
    track_census,
    train_tracks,
    validate,
)
from c2loop.stepped import SteppedSolid, enumerate_solids, surface_graph
from c2loop.taut import window_complex
from conftest import hexagon_y, pillow_sphere


ROW3 = [(-3, -1, -1), (-2, -1, -1), (-1, -1, -1)]
ELL3 = [(-2, -1, -1), (-1, -2, -1), (-1, -1, -1)]


def quadgraph_from_surface(sg):
    colors = {v: "black" if sum(v) % 2 == 0 else "white"
              for v in sg.vertices}
    return QuadGraph(colors, dict(sg.faces), dict(sg.positions))


# -- reference incidence: primal edges keyed by vertex pair ------------------

def face_sides(graph, fid):
    """The four sides of a face as frozenset edges, in cyclic order."""
    cyc = graph.faces[fid]
    return [frozenset((cyc[k], cyc[(k + 1) % 4])) for k in range(4)]


def edge_faces(graph):
    """Vertex pair -> the faces over it, in sorted face order, read off the
    raw face cycles and not off the complex's slot gluing."""
    ef = {}
    for fid in sorted(graph.faces, key=str):
        for e in face_sides(graph, fid):
            ef.setdefault(e, []).append(fid)
    return ef


def degree2_boundary(graph):
    """Vertices of degree exactly 2 lying on the outer boundary."""
    ef = edge_faces(graph)
    boundary = {v for e, fs in ef.items() if len(fs) == 1 for v in e}
    return sorted(v for v in boundary if sum(v in e for e in ef) == 2)


# -- reference: the dense solve the track walk replaced ----------------------

def _dense_solve(graph):
    """Gauss-Jordan on [Phi | I] gives a particular solution of
    Phi(h) = e_f for every face f; returns {v: {f: exponent}}.  Rows are
    stored as dicts of their nonzero entries; the pivots and the arithmetic
    are those of the dense elimination."""
    fids = sorted(graph.faces, key=str)
    verts = graph.vertices()
    vidx = {v: i for i, v in enumerate(verts)}
    m, n = len(fids), len(verts)
    aug = []
    for i, fid in enumerate(fids):
        x, u, y, v = graph.corner_labels(fid)
        row = {n + i: Fraction(1)}
        for c, s in ((x, 1), (y, 1), (u, -1), (v, -1)):
            row[vidx[c]] = row.get(vidx[c], 0) + s
        aug.append({j: a for j, a in row.items() if a != 0})
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if c in aug[i]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = {j: Fraction(a) / pv for j, a in aug[r].items()}
        for i in range(m):
            if i != r and c in aug[i]:
                f = aug[i][c]
                for j, b in aug[r].items():
                    a = aug[i].get(j, 0) - f * b
                    if a == 0:
                        aug[i].pop(j, None)
                    else:
                        aug[i][j] = a
        pivots.append(c)
        r += 1
        if r == m:
            break
    assert r == m, "face system is rank deficient"
    q = {v: {} for v in verts}
    for i, c in enumerate(pivots):
        for j, a in sorted(aug[i].items()):
            if j >= n:
                q[verts[c]][fids[j - n]] = a
    return q


def _track_flanks(graph):
    """Per primal edge: (track index, vertex on the track's left, vertex on
    its right), each track walked from the first edge of its path."""
    ef = edge_faces(graph)
    ann = {}
    for t_i, t in enumerate(train_tracks(graph)):
        e = t.dual_edge_path[0]
        fid = sorted(ef[e], key=str)[0]
        while True:
            cyc, sides = graph.faces[fid], face_sides(graph, fid)
            i = sides.index(e)
            nxt = sides[(i + 2) % 4]
            ann[e] = (t_i, cyc[(i + 1) % 4], cyc[i])
            ann[nxt] = (t_i, cyc[(i + 2) % 4], cyc[(i + 3) % 4])
            fs = [f for f in ef[nxt] if f != fid]
            if not fs:
                break
            e, fid = nxt, fs[0]
    return ann


def _pin_kernel(graph, q):
    """Subtract, exponent key by key, the kernel element of the face map
    with q's base value and q's increment at each track's first edge."""
    verts = graph.vertices()
    base = verts[0]
    ann = _track_flanks(graph)
    first_edge = {}
    for e, (t_i, l, r) in sorted(ann.items(),
                                 key=lambda t: sorted(map(str, t[0]))):
        first_edge.setdefault(t_i, (l, r))
    adj = {}
    for e in edge_faces(graph):
        a, b = sorted(e)
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    out = {v: dict(q[v]) for v in verts}
    for key in sorted({k for v in verts for k in q[v]}, key=str):
        alpha = {t_i: q[r].get(key, 0) - q[l].get(key, 0)
                 for t_i, (l, r) in first_edge.items()}
        h = {base: q[base].get(key, Fraction(0))}
        stack = [base]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                t_i, l, r = ann[frozenset((v, w))]
                val = h[v] + alpha[t_i] if v == l else h[v] - alpha[t_i]
                if w not in h:
                    h[w] = val
                    stack.append(w)
                assert h[w] == val, "kernel reconstruction mismatch"
        for v in verts:
            e = out[v].get(key, Fraction(0)) - h[v]
            if e == 0:
                out[v].pop(key, None)
            else:
                out[v][key] = e
    return out


def _value_in_dict_order(exps, bases):
    out = 1.0
    for k, e in exps.items():
        out *= float(bases[k]) ** float(e)
    return out


def reference_parametrization(graph, weights):
    """The canonical solution by the dense solve, with its floats taken in
    exponent-dict order as the dense code computed them."""
    q = _pin_kernel(graph, _dense_solve(graph))
    g_formal = {v: MulValue(e) for v, e in q.items()}
    ratios = {fid: ff_ratio(w) for fid, w in weights.items()}
    scales = {}
    for fid in graph.faces:
        x, u, y, v = graph.corner_labels(fid)
        prod = (g_formal[x] * g_formal[y] * g_formal[u] * g_formal[v]).root()
        scales[fid] = _value_in_dict_order(prod.exps, ratios) / \
            float(weights[fid].w5)
    return {"g": {v: _value_in_dict_order(q[v], ratios) for v in q},
            "g_formal": g_formal, "scales": scales}


def parity_graphs():
    yield "grid22", grid_quadgraph(2, 2)
    yield "grid32", grid_quadgraph(3, 2)
    yield "grid33", grid_quadgraph(3, 3)
    yield "hexagon", hexagon_y()
    yield "single", grid_quadgraph(1, 1)
    for k, U in enumerate(enumerate_solids(2)):
        yield f"solid2_{k}", quadgraph_from_surface(surface_graph(U))
    for name, cubes in (("row3", ROW3), ("ell3", ELL3)):
        yield name, quadgraph_from_surface(
            surface_graph(SteppedSolid.from_removed(cubes)))


def test_validate_grid():
    g = grid_quadgraph(2, 2)
    rep = validate(g)
    assert rep["valid"]
    assert len(g.colors) - len(edge_faces(g)) + len(g.faces) == 1


def test_validate_single_quad():
    assert validate(grid_quadgraph(1, 1))["valid"]


def with_face(g, fid, cyc):
    """A new QuadGraph: g with one face added."""
    return QuadGraph(g.colors, {**g.faces, fid: cyc}, g.positions, g.closed)


def test_graph_mappings_are_read_only():
    # the complex is built once, so a face added afterwards would be unseen
    g = grid_quadgraph(1, 1)
    assert len(g.corner_ids) == 1
    for mapping in (g.faces, g.colors, g.positions):
        with pytest.raises(TypeError):
            mapping[(1, 0)] = ((1, 0), (1, 1), (2, 1), (2, 0))
    assert len(g.faces) == 1 and len(train_tracks(g)) == 2


def test_validate_bad_face():
    g = with_face(grid_quadgraph(1, 1), "bad",
                  ((0, 0), (1, 1), (0, 1), (1, 0)))  # non-alternating
    rep = validate(g)
    assert not rep["valid"]
    kinds = {v["kind"] for v in rep["violations"]}
    assert kinds & {"CornerColors", "Bipartite", "FaceDegree", "Euler"}


def test_tracks_grid():
    tracks = train_tracks(grid_quadgraph(2, 2))
    assert len(tracks) == 4
    assert not any(t.is_loop for t in tracks)


def test_tracks_single_quad():
    tracks = train_tracks(grid_quadgraph(1, 1))
    assert len(tracks) == 2
    assert all(len(t.dual_edge_path) == 2 for t in tracks)


def test_tracks_hexagon_fixture():
    g = hexagon_y()
    assert validate(g)["valid"]
    tracks = train_tracks(g)
    assert len(tracks) == 3
    # the two highlighted tracks are distinct objects crossing one common face
    t1, t2 = tracks[0], tracks[1]
    assert t1.dual_edge_path != t2.dual_edge_path


def test_census():
    c = track_census(grid_quadgraph(2, 2))
    assert c["T"] == 4 and c["E_ext"] == 8
    assert all(c["checks"].values())
    c = track_census(grid_quadgraph(3, 3))
    assert c["T"] == 6 and c["E_ext"] == 12
    assert all(c["checks"].values())
    c = track_census(grid_quadgraph(1, 1))
    assert c["T"] == 2 and c["E_ext"] == 4
    assert all(c["checks"].values())


def test_census_stepped_windows():
    rng = random.Random(17)
    solids = [U for U in enumerate_solids(3)]
    for U in solids:
        g = quadgraph_from_surface(surface_graph(U))
        assert validate(g)["valid"]
        assert all(track_census(g)["checks"].values())


def phi(comp, h):
    """Per-face h_x + h_y - h_u - h_v."""
    out = {}
    for fid in comp.face_ids():
        x, u, y, v = comp.corner_ids[fid]
        out[fid] = h[x] + h[y] - h[u] - h[v]
    return out


def test_phi_basics():
    g = grid_quadgraph(2, 2)
    zero = {v: Fraction(0) for v in g.vertices()}
    assert all(v == 0 for v in phi(g, zero).values())
    const = {v: Fraction(7) for v in g.vertices()}
    assert all(v == 0 for v in phi(g, const).values())
    one_black = {v: Fraction(1 if v == (1, 1) else 0) for v in g.vertices()}
    vals = phi(g, one_black)
    touched = [f for f, val in vals.items() if val != 0]
    assert len(touched) == 4 and all(vals[f] == 1 for f in touched)


def test_phi_linear():
    g = grid_quadgraph(3, 2)
    rng = random.Random(5)
    for _ in range(20):
        h1 = {v: Fraction(rng.randint(-5, 5)) for v in g.vertices()}
        h2 = {v: Fraction(rng.randint(-5, 5)) for v in g.vertices()}
        s = {v: h1[v] + h2[v] for v in g.vertices()}
        p1, p2, ps = phi(g, h1), phi(g, h2), phi(g, s)
        assert all(ps[f] == p1[f] + p2[f] for f in g.faces)


def test_degree2_boundary():
    assert len(degree2_boundary(grid_quadgraph(1, 1))) == 4
    g = grid_quadgraph(2, 2)
    assert set(degree2_boundary(g)) == {(0, 0), (0, 2), (2, 0), (2, 2)}
    # staircase strip of 3 quads
    U = SteppedSolid.from_removed([(-1, -1, -1)])
    sg = surface_graph(U, 4)
    g = quadgraph_from_surface(sg)
    assert len(degree2_boundary(g)) >= 3


def test_parametrization_single_quad():
    g = grid_quadgraph(1, 1)
    # w1/w5 = 2, so the face ratio must come out 4 exactly
    lam, a, b = Fraction(5), Fraction(4, 5), Fraction(3, 5)
    w = FaceWeights(lam * a * a, lam * b * b, lam * a, lam * b, lam * a * b)
    res = solve_parametrization(g, {(0, 0): w})
    x, u, y, v = g.corner_labels((0, 0))
    ratio = (res["g_formal"][x] * res["g_formal"][y]) / \
        (res["g_formal"][u] * res["g_formal"][v])
    assert ratio.exps == {(0, 0): Fraction(1)}


def test_parametrization_roundtrip_exact():
    rng = random.Random(99)
    for name, graph in parity_graphs():
        W = {fid: rational_ff_weights(rng) for fid in graph.faces}
        res = solve_parametrization(graph, W)
        ref = reference_parametrization(graph, W)
        assert res["g_formal"] == ref["g_formal"], name
        assert all(type(e) is int for gv in res["g_formal"].values()
                   for e in gv.exps.values()), name
        # the floats derive from g_formal; only the product order differs
        for key in ("g", "scales"):
            assert res[key].keys() == ref[key].keys()
            for k, val in ref[key].items():
                assert res[key][k] == pytest.approx(val, rel=1e-12), \
                    (name, key, k)
        for fid in graph.faces:
            x, u, y, v = graph.corner_labels(fid)
            gf = res["g_formal"]
            ratio = (gf[x] * gf[y]) / (gf[u] * gf[v])
            assert ratio.exps == {fid: Fraction(1)}, (fid, ratio.exps)
        # numeric weights reproduce the input up to the per-face scale
        for fid in graph.faces:
            x, u, y, v = graph.corner_labels(fid)
            gn = res["g"]
            gx, gu, gy, gv = gn[x], gn[u], gn[y], gn[v]
            w1 = gx * gy
            w5 = (gx * gy * gu * gv) ** 0.5
            s = res["scales"][fid]
            assert w1 == pytest.approx(float(W[fid].w1) * s, rel=1e-9)
            assert w5 == pytest.approx(float(W[fid].w5) * s, rel=1e-9)


def test_parametrization_rejects_non_ff():
    g = grid_quadgraph(1, 1)
    with pytest.raises(NotFreeFermionic):
        solve_parametrization(g, {(0, 0): FaceWeights(1, 1, 1, 1, 1)})


def test_parametrization_symmetric_case():
    g = grid_quadgraph(2, 2)
    lam = Fraction(2)
    # a = b = 1/sqrt2 is irrational; use the rational same-ratio point
    # R_f = 1 via w1 = w2, w5 = w1: weights (1,1,?,?,1) are not rational FF;
    # instead check that R_f = 1 forces a constant-ratio solution.
    rng = random.Random(3)
    w = rational_ff_weights(rng)
    W = {fid: w for fid in g.faces}
    res = solve_parametrization(g, W)
    vals = res["ratios"]
    assert all(v == vals[(0, 0)] for v in vals.values())


def test_validate_degree3_face():
    g = with_face(grid_quadgraph(1, 1), "tri",
                  ((0, 0), (0, 1), (1, 1), (1, 1)))
    rep = validate(g)
    assert not rep["valid"]
    assert any(v["kind"] == "FaceDegree" for v in rep["violations"])


# -- outputs pinned before the track walk read slots --------------------------

def pinned_surfaces():
    """(name, QuadGraph, face order of the weight draw) of the graph
    fixtures and of the window of every solid of at most 4 cubes."""
    for nx, ny in ((1, 1), (2, 2), (3, 2), (3, 3), (5, 2)):
        g = grid_quadgraph(nx, ny)
        yield f"grid{nx}{ny}", g, g.faces
    for make in (hexagon_y, cube_sphere, pillow_sphere):
        g = make()
        yield make.__name__, g, g.faces
    for k, U in enumerate(enumerate_solids(4)):
        sg = surface_graph(U)
        yield f"solid4_{k}", quadgraph_from_surface(sg), sg.faces


def track_digest(comp, faces, seed=33):
    """The first 16 hex digits of the sha256 of the tracks, the census and
    the exact part of the parametrization (weights drawn in faces order),
    as canonical JSON."""
    out = {"tracks": [[t.is_loop, [sorted(map(str, e))
                                   for e in t.dual_edge_path]]
                      for t in train_tracks(comp)]}
    try:
        out["census"] = track_census(comp)
    except LoopTrackPresent:
        out["census"] = "LoopTrackPresent"
    else:
        rng = random.Random(seed)
        res = solve_parametrization(
            comp, {fid: rational_ff_weights(rng) for fid in faces})
        out["g_formal"] = {str(v): {str(k): str(e)
                                    for k, e in sorted(m.exps.items(),
                                                       key=str)}
                           for v, m in res["g_formal"].items()}
        out["ratios"] = {str(f): str(r) for f, r in res["ratios"].items()}
    text = json.dumps(out, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# track_digest of each pinned surface, computed by the edge-keyed track walk
# the slot walk replaced
PINNED_DIGESTS = {
    "grid11": "e6d93d065c06ed46",
    "grid22": "f0d7e314f7d9528e",
    "grid32": "e449c65f67d5564d",
    "grid33": "a8201745b1327c4c",
    "grid52": "0780772f56f18f78",
    "hexagon_y": "d7bccca3bcbdfbd3",
    "cube_sphere": "f9415b8115c6b62d",
    "pillow_sphere": "b421df67134f2494",
    "solid4_0": "9a1a3837e9473dfd",
    "solid4_1": "9261cdeacfeb2bfc",
    "solid4_2": "48fcbbe751a49884",
    "solid4_3": "83af5644aefa91b6",
    "solid4_4": "267127cc41127371",
    "solid4_5": "44467a1a78214cbe",
    "solid4_6": "0eaa8a35af57f6b3",
    "solid4_7": "ea3165c56b0960fc",
    "solid4_8": "d89f976e78be933c",
    "solid4_9": "8a50507cc35be176",
    "solid4_10": "264577b086adea21",
    "solid4_11": "d7ecda5d442a0ff4",
    "solid4_12": "3033a2156b6fb8ab",
    "solid4_13": "4ae127d820968c71",
    "solid4_14": "cf510c48ef6edc84",
    "solid4_15": "26c414d87a05f11b",
    "solid4_16": "3b1083a0517fdeb8",
    "solid4_17": "36095db3a55b2365",
    "solid4_18": "7be37e7d3ed8dc5d",
    "solid4_19": "ccbca713d9322e93",
    "solid4_20": "12838bb27acc7060",
    "solid4_21": "69d1fac13c084c19",
    "solid4_22": "040df7182a28e20c",
    "solid4_23": "52f65fb05fb07c49",
}


def test_tracks_census_and_parametrization_match_pinned_outputs():
    for name, graph, faces in pinned_surfaces():
        assert track_digest(graph, faces) == PINNED_DIGESTS[name], name


def test_window_complex_is_the_window_quadgraph():
    for k, U in enumerate(enumerate_solids(4)):
        sg = surface_graph(U)
        comp, g = window_complex(sg), quadgraph_from_surface(sg)
        assert comp.corner_ids == g.corner_ids and comp.gluing == g.gluing
        assert track_digest(comp, sg.faces) == PINNED_DIGESTS[f"solid4_{k}"]


# -- a sphere with parallel edges ---------------------------------------------

def test_doubled_grid_sphere_with_parallel_edges(doubled_grid21):
    comp = doubled_grid21
    assert comp.is_closed()
    edges = len(comp.gluing) // 2
    pairs = {comp.edge_of(*slot) for slot in comp.gluing}
    assert (edges, len(pairs)) == (8, 7)
    assert len(comp.vertices()) - edges + len(comp.corner_ids) == 2
    tracks = train_tracks(comp)
    assert len(tracks) == 3 and all(t.is_loop for t in tracks)
    # together the tracks cross every face twice, through all four sides
    assert sorted((f, s % 2) for t in tracks for f, s in t.crossings) == \
        sorted((f, s) for f in comp.face_ids() for s in (0, 1))
    with pytest.raises(LoopTrackPresent):
        track_census(comp)
    assert len(enumerate_configs(comp, BoundarySpec.closed())) == 98
    rng = random.Random(18)
    for W in ({f: ff_fixture_weights() for f in comp.face_ids()},
              {f: rational_ff_weights(rng) for f in comp.face_ids()}):
        rep = verify_correspondence(comp, W)
        assert rep["equal"] and rep["z_loop"] == rep["rhs"]

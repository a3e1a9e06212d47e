"""Local pictures, gluing enumeration, loop counting, weights."""

import itertools
import random
from fractions import Fraction

import pytest

import c2loop.loopmodel
from c2loop.fixtures import cube_sphere, torus_two_faces
from c2loop.loopmodel import (
    BoundarySpec,
    CONFIG_ORDER,
    FaceComplex,
    LOCAL_CONFIGS,
    LoopConfig,
    LoopModelError,
    _candidates,
    _search_order,
    _trace,
    complex_from_quadgraph,
    count_loops,
    enumerate_configs,
    partition_function,
    side_colors,
    weight,
)
from c2loop.quadgraph import FaceWeights, grid_quadgraph
from c2loop.stepped import enumerate_solids
from c2loop.taut import build_taut_window
from conftest import blue_data, crossing_parity_check, pillow_sphere


SYMBOLS = FaceWeights(Fraction(2), Fraction(3), Fraction(5), Fraction(7),
                      Fraction(11))


def test_ten_local_configs():
    assert len(LOCAL_CONFIGS) == 10
    for name in CONFIG_ORDER:
        cols = side_colors(name)
        assert set(cols) <= {"R", "B"}


def test_single_face_free():
    cfgs = enumerate_configs(grid_quadgraph(1, 1), BoundarySpec.free())
    assert len(cfgs) == 10


def test_two_faces_shared_edge():
    cfgs = enumerate_configs(grid_quadgraph(2, 1), BoundarySpec.free())
    assert len(cfgs) == 50


def test_cube_count_matches_unpruned():
    comp = complex_from_quadgraph(cube_sphere())
    fids = comp.face_ids()
    pruned = enumerate_configs(comp, BoundarySpec.closed())
    # unpruned oracle: filter all 10^6 raw assignments on glued-edge colors
    keys = {}
    for fid in fids:
        for s in range(4):
            keys[(fid, s)] = comp.glue_key(fid, s)
    count = 0
    colsets = [[side_colors(n) for n in CONFIG_ORDER] for _ in fids]
    for combo in itertools.product(range(10), repeat=len(fids)):
        ok = True
        seen = {}
        for fi, ci in enumerate(combo):
            cols = colsets[fi][ci]
            for s in range(4):
                k = keys[(fids[fi], s)]
                if seen.get(k, cols[s]) != cols[s]:
                    ok = False
                    break
                seen[k] = cols[s]
            if not ok:
                break
        count += ok
    assert count == len(pruned)


def test_pillow_two_red_loops():
    comp = complex_from_quadgraph(pillow_sphere())
    assert count_loops(comp, {"A": "1a", "B": "1a"}) == 2


def test_sigma_window_like_no_loops():
    # all-blue nested turns on a small open window have no closed loops
    g = grid_quadgraph(2, 2)
    assert count_loops(g, {f: "1b" for f in g.faces}) == 0


def test_weight_rows():
    g = grid_quadgraph(1, 1)
    fid = (0, 0)
    for name, wexp in [("1a", SYMBOLS.w1), ("3a", SYMBOLS.w3),
                       ("5b", SYMBOLS.w5)]:
        cfg = LoopConfig({fid: name}, 0)
        assert weight(g, cfg, {fid: SYMBOLS}) == wexp


def test_partition_single_face():
    g = grid_quadgraph(1, 1)
    z = partition_function(g, {(0, 0): SYMBOLS}, BoundarySpec.free())
    assert z == 2 * (SYMBOLS.w1 + SYMBOLS.w2 + SYMBOLS.w3 + SYMBOLS.w4
                     + SYMBOLS.w5)


def test_partition_fixed_all_blue():
    g = grid_quadgraph(1, 1)
    comp = complex_from_quadgraph(g)
    colors = {he: "B" for he in comp.half_edges()}
    z = partition_function(comp, {(0, 0): SYMBOLS},
                           BoundarySpec.fixed_colors(colors))
    assert z == SYMBOLS.w1 + SYMBOLS.w2


def test_partition_cube_integer():
    comp = complex_from_quadgraph(cube_sphere())
    ones = FaceWeights(*(Fraction(1),) * 5)
    W = {f: ones for f in comp.face_ids()}
    z = partition_function(comp, W, BoundarySpec.closed())
    assert z == sum(
        Fraction(2) ** count_loops(comp, c.assignment)
        for c in enumerate_configs(comp, BoundarySpec.closed()))
    assert z.denominator == 1 and z > 0


def test_crossing_parity_cube():
    comp = complex_from_quadgraph(cube_sphere())
    for cfg in enumerate_configs(comp, BoundarySpec.closed()):
        assert crossing_parity_check(comp, cfg.assignment)


def test_crossing_parity_torus():
    comp = torus_two_faces()
    cfgs = enumerate_configs(comp, BoundarySpec.closed())
    assert cfgs
    for cfg in cfgs:
        assert crossing_parity_check(comp, cfg.assignment)


def test_color_swap_involution():
    comp = complex_from_quadgraph(cube_sphere())
    swap = {"1a": "1b", "1b": "1a", "2a": "2b", "2b": "2a", "3a": "3b",
            "3b": "3a", "4a": "4b", "4b": "4a", "5a": "5b", "5b": "5a"}
    cfgs = enumerate_configs(comp, BoundarySpec.closed())
    keys = {tuple(sorted(c.assignment.items())) for c in cfgs}
    W = {f: SYMBOLS for f in comp.face_ids()}
    for cfg in cfgs:
        assign = {f: swap[t] for f, t in cfg.assignment.items()}
        mirror = LoopConfig(assign, count_loops(comp, assign))
        assert tuple(sorted(mirror.assignment.items())) in keys
        assert weight(comp, cfg, W) == weight(comp, mirror, W)


@pytest.mark.parametrize("comp, z", [
    (complex_from_quadgraph(cube_sphere()), 83683808),
    (torus_two_faces(), 1676),
])
def test_weights_read_the_search_loop_count(monkeypatch, comp, z):
    # z is the partition function with every loop counted by _trace
    cfgs = enumerate_configs(comp, BoundarySpec.closed())
    assert any(c.n_loops for c in cfgs)

    def no_trace(*args):
        raise AssertionError("a listed configuration was traced")

    monkeypatch.setattr(c2loop.loopmodel, "_trace", no_trace)
    W = {f: SYMBOLS for f in comp.face_ids()}
    assert sum(weight(comp, c, W) for c in cfgs) == z
    assert partition_function(comp, W, BoundarySpec.closed()) == z


def test_fixed_connections():
    g = grid_quadgraph(1, 1)
    comp = complex_from_quadgraph(g)
    hes = comp.half_edges()
    # connect side 0 to side 1 in blue and side 2 to side 3 in blue: the
    # two blue pictures with that pairing are rows 1 and 3b is excluded
    conn = [((hes[0], hes[1]), "B"), ((hes[2], hes[3]), "B")]
    cfgs = enumerate_configs(comp, BoundarySpec.fixed_connections(conn))
    assert {c.assignment[(0, 0)] for c in cfgs} == {"1b"}


def test_blue_data_roundtrip():
    comp = complex_from_quadgraph(cube_sphere())
    cfgs = enumerate_configs(comp, BoundarySpec.closed())
    seen = set()
    for cfg in cfgs:
        edges, pairings = blue_data(comp, cfg)
        seen.add((frozenset(edges),
                  tuple(sorted((f, p) for f, p in pairings.items()))))
    assert len(seen) > 1


def _enumerate_by_face_order(comp, boundary):
    """The face-order backtracker: faces in face_ids() order, pictures in
    CONFIG_ORDER, colors keyed by glue_key (a face glued to itself colors
    both sides alike), and a fixed_connections spec checked by tracing every
    leaf."""
    fids = comp.face_ids()
    fixed = {}
    if boundary.mode == "fixed_colors":
        fixed = dict(boundary.colors)
    if boundary.mode == "fixed_connections":
        for (a, b), c in boundary.connections:
            fixed[a] = fixed[b] = c
    want = {frozenset(ab): c for ab, c in boundary.connections or ()}
    edge_color = {}
    assign = {}
    out = []

    def rec(k):
        if k == len(fids):
            if boundary.mode == "fixed_connections":
                _cycles, paths = _trace(comp, assign)
                if {frozenset(ends): c for ends, c in paths} != want:
                    return
            out.append(list(assign.items()))
            return
        fid = fids[k]
        keys = [comp.glue_key(fid, s) for s in range(4)]
        for name in CONFIG_ORDER:
            cols = side_colors(name)
            if any(edge_color.get(keys[s], cols[s]) != cols[s]
                   or fixed.get((fid, s), cols[s]) != cols[s]
                   or cols[keys.index(keys[s])] != cols[s]
                   for s in range(4)):
                continue
            added = [k2 for k2 in dict.fromkeys(keys) if k2 not in edge_color]
            for s in range(4):
                edge_color.setdefault(keys[s], cols[s])
            assign[fid] = name
            rec(k + 1)
            del assign[fid]
            for k2 in added:
                del edge_color[k2]

    rec(0)
    return out


def _grid22_boundaries():
    hes = complex_from_quadgraph(grid_quadgraph(2, 2)).half_edges()
    colors = {he: c for he, c in zip(hes[:4], "RBBR")}
    conn = [((hes[0], hes[1]), "B"), ((hes[2], hes[3]), "R"),
            ((hes[4], hes[5]), "B"), ((hes[6], hes[7]), "B")]
    return [BoundarySpec.fixed_colors(colors),
            BoundarySpec.fixed_connections(conn)]


def one_face(*pairs):
    """One face whose sides are glued in the given pairs."""
    gluing = {}
    for a, b in pairs:
        gluing[("f", a)], gluing[("f", b)] = ("f", b), ("f", a)
    return FaceComplex({"f": ("B", "W", "B", "W")}, gluing)


ORACLE_CASES = (
    [(grid_quadgraph(1, 1), BoundarySpec.free())]
    + [(grid_quadgraph(m, n), BoundarySpec.free())
       for m, n in ((2, 1), (2, 2), (3, 2))]
    + [(grid_quadgraph(2, 2), b) for b in _grid22_boundaries()]
    + [(g, BoundarySpec.closed())
       for g in (cube_sphere(), pillow_sphere(), torus_two_faces())]
    # a face glued to itself: the one-face torus and annulus
    + [(one_face((0, 2), (1, 3)), BoundarySpec.closed()),
       (one_face((1, 3)), BoundarySpec.free()),
       (one_face((1, 3)), BoundarySpec.fixed_colors(
           {("f", 0): "R", ("f", 2): "R"}))])


@pytest.mark.parametrize("graph, boundary", ORACLE_CASES)
def test_search_matches_face_order_oracle(graph, boundary):
    comp = graph if isinstance(graph, FaceComplex) \
        else complex_from_quadgraph(graph)
    cfgs = enumerate_configs(comp, boundary)
    assert cfgs
    assert [list(c.assignment.items()) for c in cfgs] == \
        _enumerate_by_face_order(comp, boundary)
    assert [c.n_loops for c in cfgs] == \
        [count_loops(comp, c.assignment) for c in cfgs]


def test_one_face_torus_colors_glued_sides_alike():
    cfgs = enumerate_configs(one_face((0, 2), (1, 3)), BoundarySpec.closed())
    assert [c.assignment["f"] for c in cfgs] == \
        ["1a", "1b", "2a", "2b", "5a", "5b"]


def _quadratic_search_order(sides, decided):
    """The search order by its rule, one face at a time: the face with the
    most distinct side ids decided, ties to the lowest position."""
    decided = set(decided)
    left = list(range(len(sides)))
    order = []
    while left:
        i = max(left, key=lambda j: (len(decided.intersection(sides[j])), -j))
        left.remove(i)
        order.append(i)
        decided.update(sides[i])
    return order


def _random_sides(rng, max_faces):
    """Up to max_faces faces over side ids each on one or two face sides, a
    face glued to itself included, and a random set of preset ids."""
    n = rng.randint(1, max_faces)
    slots = list(range(4 * n))
    rng.shuffle(slots)
    ids = [None] * (4 * n)
    e = 0
    while slots:
        take = 2 if len(slots) > 1 and rng.random() < 0.7 else 1
        for _ in range(take):
            ids[slots.pop()] = e
        e += 1
    sides = [tuple(ids[4 * i:4 * i + 4]) for i in range(n)]
    return sides, [x for x in range(e) if rng.random() < 0.2]


def test_search_order_matches_quadratic_rule():
    for U in enumerate_solids(4):
        win = build_taut_window(U)
        sides = list(win.sides.values())
        assert _search_order(sides, win.pairing) == \
            _quadratic_search_order(sides, win.pairing)
    rng = random.Random(41)
    for _ in range(300):
        sides, preset = _random_sides(rng, 12)
        assert _search_order(sides, preset) == \
            _quadratic_search_order(sides, preset)


def test_candidate_table_fits_every_face():
    # every pattern of side ids on a face (an id on at most two sides),
    # every set of decided ids and every coloring of them: the looked-up
    # pictures are those that match the decided colors and color the two
    # sides of a repeated id alike
    keys = set()
    for face in itertools.product(range(4), repeat=4):
        ids = list(dict.fromkeys(face))     # numbered as they first appear
        if ids != list(range(len(ids))) or max(map(face.count, ids)) > 2:
            continue
        for known in itertools.product((False, True), repeat=len(ids)):
            decided = tuple(p for p in range(4) if known[face[p]])
            alike = tuple((p, q) for p in range(4) for q in range(p + 1, 4)
                          if face[p] == face[q] and not known[face[p]])
            keys.add((decided, alike))
            table = _candidates(decided, alike)
            for color in itertools.product("RB", repeat=len(ids)):
                got = [r for r, _c, _p in table.get(
                    tuple(color[face[p]] for p in decided), ())]
                want = [r for r, name in enumerate(CONFIG_ORDER)
                        if all(side_colors(name)[p] == side_colors(name)[q]
                               for p, q in itertools.combinations(range(4), 2)
                               if face[p] == face[q])
                        and all(side_colors(name)[p] == color[face[p]]
                                for p in decided)]
                assert got == want
    assert len(keys) < 100


def test_search_matches_face_order_oracle_on_random_sides():
    # random gluings, faces glued to themselves included, with colors
    # preset on some free sides
    rng = random.Random(7)
    for _ in range(30):
        sides, preset = _random_sides(rng, 4)
        slots = {}
        for i, face in enumerate(sides):
            for s, e in enumerate(face):
                slots.setdefault(e, []).append((i, s))
        gluing = {}
        for pair in slots.values():
            if len(pair) == 2:
                gluing[pair[0]], gluing[pair[1]] = pair[1], pair[0]
        comp = FaceComplex(dict.fromkeys(range(len(sides)),
                                         ("B", "W", "B", "W")), gluing)
        boundary = BoundarySpec.fixed_colors(
            {slots[e][0]: rng.choice("RB") for e in preset
             if len(slots[e]) == 1})
        cfgs = enumerate_configs(comp, boundary)
        assert [list(c.assignment.items()) for c in cfgs] == \
            _enumerate_by_face_order(comp, boundary)
        assert [c.n_loops for c in cfgs] == \
            [count_loops(comp, c.assignment) for c in cfgs]


@pytest.mark.parametrize("boundary", [
    BoundarySpec.fixed_colors({((0, 0), 0): "G"}),
    BoundarySpec.fixed_colors({("nope", 9): "B"}),
    BoundarySpec.fixed_colors({((0, 0), 1): "B"}),
    BoundarySpec.fixed_connections([((("nope", 0), ("nope", 1)), "B")]),
    BoundarySpec.fixed_connections([((((0, 0), 0), ((0, 0), 3)), "B")]),
    BoundarySpec("fixed"),
])
def test_malformed_boundary_rejected(boundary):
    with pytest.raises(LoopModelError):
        enumerate_configs(grid_quadgraph(2, 2), boundary)

"""Taut configurations: reference picture, enumeration, weights, theorems."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest

import c2loop.groves
import c2loop.stepped
import c2loop.taut
from c2loop.kashaev import cube_from_bottom, kashaev_step, solve_origin
from c2loop.laurent import LaurentPoly, _mul, lp_eval
from c2loop.loopmodel import CONFIG_ORDER, LOCAL_CONFIGS, FaceComplex, \
    count_loops, crossing_parity_check, side_colors
from c2loop.stepped import (
    SteppedSolid,
    enumerate_solids,
    face_diagonals,
    height,
    is_regular,
    norm2,
    slab_solid,
    surface_graph,
    vadd,
)
from c2loop.taut import (
    _CORNER_EXP,
    NotAMonomial,
    TautError,
    TautWindow,
    build_taut_window,
    enumerate_taut,
    reconstruct_from_monomial,
    sample_taut,
    sigma0,
    sigma0_type,
    taut_weight,
    verify_partition_identity,
    verify_monomial_bijection,
    window_complex,
    y_taut,
)

U0 = SteppedSolid()
ONE = SteppedSolid.from_removed([(-1, -1, -1)])
BOX = SteppedSolid.from_removed([(i, j, k) for i in (-1, -2)
                                 for j in (-1, -2) for k in (-1, -2)])


def two_window_oracle(U):
    """TautWindow of U built from two windows: the reference zone, its
    interface and pairing come from a second window of the flat corner."""
    r_u = is_regular(U)["R_U"]
    r2 = r_u * r_u
    sg = surface_graph(U, r_u + 4)
    comp = window_complex(sg)
    flat = window_complex(surface_graph(U0, r_u + 4))

    def zone_of(c):
        return {k for k, cyc in c.corner_ids.items()
                if min(map(norm2, cyc)) <= r2}

    def interface(c, zone):
        return {c.edge_of(k, s) for k in zone for s in range(4)
                if c.gluing[(k, s)][0] not in zone}

    zone_set, flat_zone = zone_of(comp), zone_of(flat)
    frozen = set(comp.corner_ids) - zone_set
    assert frozen == set(flat.corner_ids) - flat_zone
    iface = interface(comp, zone_set)
    assert iface == interface(flat, flat_zone)
    slot_of = {flat.edge_of(k, s): (k, s) for k in flat_zone
               for s in range(4)}
    target = {}
    for start in sorted(iface, key=sorted):
        if start in target:
            continue
        key, s = slot_of[start]
        while True:
            pairs = LOCAL_CONFIGS[sigma0_type(flat.corner_ids[key])][1]
            other, = (b if a == s else a for a, b in pairs if s in (a, b))
            e = flat.edge_of(key, other)
            if e in iface:
                target[start], target[e] = e, start
                break
            key, s = flat.gluing[(key, other)]
            assert key in flat_zone
    zone = sorted(zone_set, key=lambda k: (
        min(height(c) for c in comp.corner_ids[k]), str(k)))
    vnames = {v: sg.vertex_var_name(v) for v in sg.vertices}
    collar = dict.fromkeys(sg.vertices, -4)
    for key in frozen:
        cyc = comp.corner_ids[key]
        for v, e in zip(cyc, _CORNER_EXP[sigma0_type(cyc)]):
            collar[v] += e
    return TautWindow(
        sg, comp, zone, zone_complex_of(comp, zone), frozen, iface, target,
        vnames, collar, {name: v for v, name in vnames.items()},
        {sg.face_root_name(k): k for k in comp.corner_ids},
        {k: tuple(comp.edge_of(k, s) for s in range(4)) for k in zone})


def zone_complex_of(comp, zone):
    """The zone faces with the window's gluing among them."""
    zone_set = set(zone)
    return FaceComplex({k: comp.corner_ids[k] for k in zone},
                       {(k, s): p for (k, s), p in comp.gluing.items()
                        if k in zone_set and p[0] in zone_set})


def zone_complex(win):
    return zone_complex_of(win.comp, win.zone)


ORACLE_SOLIDS = {f"solid{i}": U for i, U in enumerate(enumerate_solids(4))}
ORACLE_SOLIDS.update(slab5=slab_solid(5), slab6=slab_solid(6), box=BOX)


@pytest.mark.parametrize("name", ORACLE_SOLIDS)
def test_window_matches_two_window_oracle(name):
    U = ORACLE_SOLIDS[name]
    win, want = build_taut_window(U), two_window_oracle(U)
    for f in dataclasses.fields(TautWindow):
        assert getattr(win, f.name) == getattr(want, f.name), f.name
    assert list(win.zone_comp.corner_ids) == win.zone


def test_window_builds_one_surface_graph(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    real = c2loop.stepped.surface_graph
    monkeypatch.setattr(c2loop.stepped, "surface_graph", counting)
    monkeypatch.setattr(c2loop.taut, "surface_graph", counting)
    for U in (U0, ONE, slab_solid(4)):
        calls.clear()
        build_taut_window(U)
        assert len(calls) == 1 and calls[0][0] == U


def test_window_checks_raise(monkeypatch):
    # a toggled face outside the zone ball leaks; one that the surface does
    # not show leaves a hole in the reference zone, whose edges the carved
    # interface lacks
    for face, match in (((0, (0, -9, -9)), "leaks"),
                        ((0, (0, -1, -1)), "interface mismatch")):
        monkeypatch.setattr(c2loop.taut, "toggled_faces", lambda U: {face})
        with pytest.raises(TautError, match=match):
            build_taut_window(U0)


def test_numeric_users_build_no_registry():
    win = build_taut_window(ONE)
    init = {v: 1.0 for v in win.sg.vertices}
    sample_taut(ONE, init, seed=3, n=10, window=win)
    y_taut(ONE, g_init=init, symbolic=False, window=win)
    assert verify_partition_identity(ONE, mode="numeric", g_init=init,
                                     window=win)
    assert "registry" not in vars(win.sg)


def test_verify_solves_each_window_once(monkeypatch):
    modes = []

    def counting(*args, **kwargs):
        modes.append(kwargs.get("mode"))
        return real(*args, **kwargs)

    real = c2loop.taut.solve_origin
    monkeypatch.setattr(c2loop.taut, "solve_origin", counting)
    win = build_taut_window(ONE)
    assert verify_partition_identity(ONE, window=win)
    assert verify_monomial_bijection(ONE, window=win)["all"]
    assert modes == ["symbolic"]
    assert win.symbolic_origin == solve_origin(ONE, mode="symbolic",
                                               window=win.sg)


def test_sigma0_all_blue_turns():
    sg = surface_graph(U0, 5)
    s0 = sigma0(sg)
    assert set(s0.values()) <= {"1b", "2b"}
    # deep in a flat sector both variants occur (checkerboard by parity)
    assert {"1b", "2b"} == set(s0.values())


def test_sigma0_unique_on_flat():
    cfgs = enumerate_taut(U0)
    assert len(cfgs) == 1
    assert cfgs[0].n_loops == 0
    assert cfgs[0].assignment == {
        k: sigma0_type(cfgs[0].window.comp.corner_ids[k])
        for k in cfgs[0].assignment}


def test_sigma0_weight_is_origin_variable():
    win = build_taut_window(U0)
    cfg = enumerate_taut(U0, win)[0]
    w = taut_weight(win, cfg, symbolic=True)
    assert w == win.registry.var(win.vnames[(0, 0, 0)])


def test_one_cube_five_configs():
    win = build_taut_window(ONE)
    cfgs = enumerate_taut(ONE, win)
    assert len(cfgs) == 5
    assert sorted(c.n_loops for c in cfgs) == [0, 0, 0, 1, 1]


def test_one_cube_weights_match_monomials():
    win = build_taut_window(ONE)
    cfgs = enumerate_taut(ONE, win)
    poly = solve_origin(ONE, mode="symbolic",
                        window_radius=win.sg.window_radius)
    got = win.registry.zero()
    for c in cfgs:
        got = got + taut_weight(win, c, symbolic=True)
    assert got == poly
    # the two coefficient-2 monomials: all-red triple loop and the triple
    # crossing with the three face roots
    with_roots = [c for c in cfgs
                  if taut_weight(win, c, symbolic=True).has_roots()]
    assert len(with_roots) == 1
    assert with_roots[0].n_loops == 1


def _enumerate_by_level(win):
    """The level-order backtracker: faces in zone order, pictures in
    CONFIG_ORDER, so the results come out in lexicographic order of the
    pictures' ranks along the zone."""
    comp = win.comp
    zone = win.zone
    zone_set = set(zone)
    ends = {}
    for key in zone:
        for s in range(4):
            e = comp.edge_of(key, s)
            if e in win.interface_edges:
                a, b = (e, key), (e, "IF")
            else:
                a, b = (e, key), (e, comp.gluing[(key, s)][0])
                assert b[1] in zone_set
            if a not in ends:
                ends[a] = b
                ends[b] = a
    edge_color = {e: "B" for e in win.interface_edges}
    results = []
    assign = {}
    n_loops = [0]

    def join(p1, p2, log):
        a, b = ends.pop(p1), ends.pop(p2)
        log.append((p1, a, p2, b))
        if a == p2:
            n_loops[0] += 1
            log.append("loop")
            return True
        ends[a] = b
        ends[b] = a
        return not (a[1] == "IF" and b[1] == "IF"
                    and win.target_pairing[a[0]] != b[0])

    def undo(log):
        for item in reversed(log):
            if item == "loop":
                n_loops[0] -= 1
                continue
            p1, a, p2, b = item
            if a != p2:
                ends[a] = p1
                ends[b] = p2
            ends[p1] = a
            ends[p2] = b

    def rec(k):
        if k == len(zone):
            results.append((list(assign.items()), n_loops[0]))
            return
        key = zone[k]
        sides = [comp.edge_of(key, s) for s in range(4)]
        for name in CONFIG_ORDER:
            cols = side_colors(name)
            if any(edge_color.get(sides[s], cols[s]) != cols[s]
                   for s in range(4)):
                continue
            added = [sides[s] for s in range(4) if sides[s] not in edge_color]
            for s in range(4):
                edge_color.setdefault(sides[s], cols[s])
            log = []
            if all(join((sides[s1], key), (sides[s2], key), log)
                   for s1, s2 in LOCAL_CONFIGS[name][1]):
                assign[key] = name
                rec(k + 1)
                del assign[key]
            undo(log)
            for e in added:
                del edge_color[e]

    rec(0)
    return results


def test_enumeration_matches_level_order_search():
    # same configurations, loop counts and order (assignments in zone order)
    # as the level-order backtracker, on every solid of at most four cubes
    for U in enumerate_solids(4):
        win = build_taut_window(U)
        got = [(list(c.assignment.items()), c.n_loops)
               for c in enumerate_taut(U, win)]
        assert got == _enumerate_by_level(win), sorted(U.removed)


def test_box_configs_and_numeric_identity():
    win = build_taut_window(BOX)
    cfgs = enumerate_taut(BOX, win)
    assert len(cfgs) == 415
    monos = {next(iter(taut_weight(win, c, symbolic=True).terms))
             for c in cfgs}
    assert len(monos) == 415
    rng = random.Random(8)
    for _ in range(2):
        init = {v: rng.randint(1, 9) / rng.randint(1, 3)
                for v in win.sg.vertices}
        assert verify_partition_identity(BOX, mode="numeric", g_init=init,
                                         window=win)


def test_slab5_partition_identity_and_bijection():
    U = slab_solid(5)
    win = build_taut_window(U)
    assert verify_partition_identity(U, window=win)
    rep = verify_monomial_bijection(U, window=win)
    assert rep["all"] and rep["n_configs"] == 786, rep


def test_enumerated_configs_pass_independent_checks():
    for U in (ONE, SteppedSolid.from_removed([(-1, -1, -1), (-2, -1, -1)])):
        win = build_taut_window(U)
        comp = zone_complex(win)
        for cfg in enumerate_taut(U, win):
            assert count_loops(comp, cfg.assignment) == cfg.n_loops
            assert crossing_parity_check(comp, cfg.assignment)


def test_partition_identity_small_solids_symbolic():
    for U in enumerate_solids(3):
        assert verify_partition_identity(U), sorted(U.removed)


def test_partition_identity_numeric_random():
    rng = random.Random(2024)
    two_cube = [U for U in enumerate_solids(2) if len(U.removed) == 2]
    for U in two_cube:
        win = build_taut_window(U)
        for _ in range(5):
            init = {v: rng.randint(1, 9) / rng.randint(1, 3)
                    for v in win.sg.vertices}
            assert verify_partition_identity(U, mode="numeric", g_init=init, window=win)


def test_cube_flip_invariance():
    # adding a cube and extending g by the completed corner keeps Y fixed
    rng = random.Random(7)
    U = SteppedSolid.from_removed([(-1, -1, -1), (-1, -2, -1)])
    win = build_taut_window(U)
    init = {v: Fraction(rng.randint(1, 5), rng.randint(1, 3))
            for v in win.sg.vertices}
    initf = {v: float(x) for v, x in init.items()}
    y_before = y_taut(U, g_init=initf, symbolic=False, window=win)
    p = (-1, -2, -1)
    cube = cube_from_bottom(
        initf[p], initf[vadd(p, (1, 0, 0))], initf[vadd(p, (0, 1, 0))],
        initf[vadd(p, (0, 0, 1))], initf[vadd(p, (1, 1, 0))],
        initf[vadd(p, (1, 0, 1))], initf[vadd(p, (0, 1, 1))])
    kashaev_step(cube)
    u2 = SteppedSolid.from_removed([(-1, -1, -1)])
    win2 = build_taut_window(u2)
    init2 = dict(initf)
    init2[vadd(p, (1, 1, 1))] = cube.g123
    for v in win2.sg.vertices:
        init2.setdefault(v, 1.0)
    y_after = y_taut(u2, g_init=init2, symbolic=False, window=win2)
    assert y_after == pytest.approx(y_before, rel=1e-12)


def test_monomial_bijection_all_small_solids():
    for U in enumerate_solids(3):
        rep = verify_monomial_bijection(U)
        assert rep["all"], (sorted(U.removed), rep)


def test_monomial_bijection_one_cube_details():
    rep = verify_monomial_bijection(ONE)
    assert rep["n_monomials"] == 5 and rep["n_configs"] == 5
    assert rep["injective"] and rep["coefficients_are_loop_powers"]


def test_reconstruct_roundtrip_one_and_three():
    for U in (ONE, SteppedSolid.from_removed(
            [(-1, -1, -1), (-2, -1, -1), (-1, -2, -1)])):
        win = build_taut_window(U)
        poly = solve_origin(U, mode="symbolic",
                            window_radius=win.sg.window_radius)
        for mono, coeff in poly.terms.items():
            cfg = reconstruct_from_monomial(U, dict(mono), window=win)
            w = taut_weight(win, cfg, symbolic=True)
            (m2, c2), = w.terms.items()
            assert m2 == mono and c2 == coeff


def test_reconstruct_rejects_corrupted():
    win = build_taut_window(ONE)
    poly = solve_origin(ONE, mode="symbolic",
                        window_radius=win.sg.window_radius)
    mono = dict(max(poly.terms))
    name = win.vnames[(-1, -1, -1)]
    bad = dict(mono)
    bad[name] = bad.get(name, 0) + 1
    with pytest.raises((NotAMonomial,)):
        reconstruct_from_monomial(ONE, bad, window=win)


def test_sample_u0_deterministic():
    cfg = sample_taut(U0, {v: 1.0 for v in build_taut_window(U0).sg.vertices},
                      seed=5)
    assert cfg.n_loops == 0


def test_sample_frequencies_three_sigma():
    win = build_taut_window(ONE)
    init = {v: 1.0 for v in win.sg.vertices}
    n = 100_000
    samples = sample_taut(ONE, init, seed=11, n=n, window=win)
    # the samples are the enumerated config objects: classify each once
    drawn = {id(c): c for c in samples}
    has_roots = {i: taut_weight(win, c, symbolic=True).has_roots()
                 for i, c in drawn.items()}
    crossing = sum(1 for c in samples if has_roots[id(c)])
    p = 4 * math.sqrt(2) / (5 + 4 * math.sqrt(2))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(crossing - n * p) < 3 * sigma


def test_loop_free_configs_have_no_red():
    win = build_taut_window(ONE)
    for cfg in enumerate_taut(ONE, win):
        if cfg.n_loops == 0:
            for name in cfg.assignment.values():
                assert set(side_colors(name)) == {"B"}


def test_frozen_traced_fixture():
    from c2loop.fixtures import taut_example
    solid, deviations, traced_loops = taut_example()
    win = build_taut_window(solid)
    assignment = {k: sigma0_type(win.comp.corner_ids[k])
                  for k in win.comp.face_ids()}
    assignment.update(deviations)
    comp = zone_complex(win)
    zone_assign = {k: assignment[k] for k in win.zone}
    assert count_loops(comp, zone_assign) == traced_loops
    assert crossing_parity_check(comp, zone_assign)
    # the red loop lives on the deviating faces only
    red_faces = [k for k, v in zone_assign.items()
                 if "R" in side_colors(v)]
    assert sorted(red_faces, key=str) == sorted(deviations, key=str)


# -- weights against the uncached path ----------------------------------------

def _weight_by_walk(win, config, symbolic=True, g_init=None):
    """Reference weight: the vertex walk, the completeness check and a
    kernel-built monomial, all on every call."""
    corner_ids = win.comp.corner_ids
    exps, roots = {}, []
    for key, name in config.assignment.items():
        for v, e in zip(corner_ids[key], _CORNER_EXP[name]):
            exps[v] = exps.get(v, win.collar[v]) + e
        if LOCAL_CONFIGS[name][0] in (3, 4):
            roots.append(key)
    exps = {v: e for v, e in exps.items() if e}
    lim = (win.sg.window_radius - 2.1) ** 2
    assert all(norm2(v) <= lim for v in exps)
    if symbolic:
        assert all(e % 2 == 0 for e in exps.values())
        mono = {win.vnames[v]: e // 2 for v, e in exps.items()}
        mono.update((win.sg.face_root_name(key), 1) for key in roots)
        reg = win.registry
        key = tuple(sorted(mono.items(), key=lambda t: reg.index(t[0])))
        return LaurentPoly(_mul({key: Fraction(2) ** config.n_loops},
                                {(): 1}, reg), reg)
    val = float(2 ** config.n_loops)
    for v, e in exps.items():
        val *= float(g_init[v]) ** (e / 2)
    for key in roots:
        (a, c), (b, d) = face_diagonals(*key)
        val *= math.sqrt(float(g_init[a]) * float(g_init[c])
                         + float(g_init[b]) * float(g_init[d]))
    return val


def _sample_by_walk(U, win, g_init, seed, n):
    """Reference sampler over the reference weights."""
    configs = enumerate_taut(U, win)
    weights = [_weight_by_walk(win, c, False, g_init) for c in configs]
    total = sum(weights)
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = rng.random() * total
        acc = 0.0
        pick = len(configs) - 1
        for i, w in enumerate(weights):
            acc += w
            if x <= acc:
                pick = i
                break
        out.append(pick)
    return configs, out


def test_weights_match_walk_on_every_small_solid():
    rng = random.Random(12)
    n_configs = 0
    for U in [*enumerate_solids(4), slab_solid(5)]:
        win = build_taut_window(U)
        init = {v: rng.uniform(0.3, 3.0) for v in win.sg.vertices}
        for cfg in enumerate_taut(U, win):
            want = _weight_by_walk(win, cfg).terms
            got = taut_weight(win, cfg).terms
            assert list(got.items()) == list(want.items())
            assert all(type(c) is Fraction for c in got.values())
            assert taut_weight(win, cfg, False, init) == \
                _weight_by_walk(win, cfg, False, init)
            n_configs += 1
    assert n_configs == 483 + 786


def test_weight_data_computed_once_per_config(monkeypatch):
    calls = []

    def counting(win, assignment):
        calls.append(id(assignment))
        return real(win, assignment)

    real = c2loop.taut._vertex_contributions
    monkeypatch.setattr(c2loop.taut, "_vertex_contributions", counting)
    U = SteppedSolid.from_removed([(-3, -1, -1), (-2, -1, -1), (-1, -1, -1)])
    win = build_taut_window(U)
    init = {v: 1.0 + (sum(v) % 3) / 4 for v in win.sg.vertices}
    drawn = sample_taut(U, init, seed=4, n=1000, window=win)
    assert "registry" not in vars(win.sg)
    for cfg in drawn:
        taut_weight(win, cfg, symbolic=True)
        taut_weight(win, cfg, symbolic=False, g_init=init)
    assert len(calls) == len(set(calls)) == len(enumerate_taut(U, win))


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_samples_match_walk_sampler(seed):
    U = SteppedSolid.from_removed([(-1, -1, -1), (-2, -1, -1), (-1, -2, -1)])
    win = build_taut_window(U)
    rng = random.Random(seed)
    init = {v: rng.uniform(0.5, 2.0) for v in win.sg.vertices}
    configs, want = _sample_by_walk(U, win, init, seed, 300)
    drawn = sample_taut(U, init, seed=seed, n=300, window=win)
    index = {tuple(c.assignment.items()): i for i, c in enumerate(configs)}
    assert [index[tuple(c.assignment.items())] for c in drawn] == want


def test_weight_on_another_window():
    win, other = build_taut_window(ONE), build_taut_window(ONE)
    init = {v: 1.0 + (sum(v) % 3) / 4 for v in win.sg.vertices}
    for cfg in enumerate_taut(ONE, other):
        w = taut_weight(win, cfg)
        assert w.registry is win.registry
        assert w.terms == taut_weight(other, cfg).terms
        assert taut_weight(win, cfg, False, init) == \
            taut_weight(other, cfg, False, init)
    two = SteppedSolid.from_removed([(-1, -1, -1), (-2, -1, -1)])
    cfg = enumerate_taut(two)[0]
    for symbolic in (True, False):
        with pytest.raises(TautError, match="zone faces"):
            taut_weight(win, cfg, symbolic, init)


def test_numeric_weights_out_of_range_raise(monkeypatch):
    win = build_taut_window(ONE)
    with pytest.raises(TautError, match="float range"):
        sample_taut(ONE, dict.fromkeys(win.sg.vertices, 1e-200), window=win)
    with pytest.raises(TautError, match="float range"):
        y_taut(ONE, dict.fromkeys(win.sg.vertices, 1e200), symbolic=False,
               window=win)
    # finite weights whose total is not
    monkeypatch.setattr(c2loop.taut, "taut_weight",
                        lambda *args, **kwargs: 1e308)
    with pytest.raises(TautError, match="finite positive total"):
        sample_taut(ONE, dict.fromkeys(win.sg.vertices, 1.0), window=win)


TWO = SteppedSolid.from_removed([(-1, -1, -1), (-2, -1, -1)])


@pytest.mark.parametrize("call", [
    lambda w: enumerate_taut(ONE, w),
    lambda w: y_taut(ONE, window=w),
    lambda w: verify_partition_identity(ONE, window=w),
    lambda w: verify_monomial_bijection(ONE, window=w),
    lambda w: reconstruct_from_monomial(ONE, {}, window=w),
    lambda w: sample_taut(ONE, {}, window=w),
    lambda w: c2loop.groves.cube_recurrence_solve(ONE, window=w),
    lambda w: c2loop.groves.verify_grove_equality(ONE, window=w),
], ids=["enumerate_taut", "y_taut", "verify_partition_identity",
        "verify_monomial_bijection", "reconstruct_from_monomial",
        "sample_taut", "cube_recurrence_solve", "verify_grove_equality"])
def test_window_of_another_solid_is_rejected(call):
    # a two-cube window would check, enumerate or fail on the wrong solid
    with pytest.raises(TautError, match="not one of this solid"):
        call(build_taut_window(TWO))

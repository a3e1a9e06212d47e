"""Loop-free sector, grove dictionary, all-plus-sign recurrence."""

import pytest

from c2loop.groves import (
    GrovesError,
    cube_recurrence_solve,
    filter_no_loops,
    verify_grove_equality,
)
from c2loop.laurent import lp_eval
from c2loop.loopmodel import LOCAL_CONFIGS
from c2loop.stepped import SteppedSolid, enumerate_solids, slab_solid
from c2loop.taut import build_taut_window, enumerate_taut, sigma0_type

U0 = SteppedSolid()
ONE = SteppedSolid.from_removed([(-1, -1, -1)])


# ---------------------------------------------------------------------------
# the diagonal dictionary between the loop-free sector and groves, and the
# forest check on it
# ---------------------------------------------------------------------------

class HasLoops(GrovesError):
    pass


def full_assignment(cfg):
    """The configuration's picture on every window face: the frozen faces
    show the reference picture."""
    out = {key: sigma0_type(cfg.window.comp.corner_ids[key])
           for key in cfg.window.frozen}
    out.update(cfg.assignment)
    return out


def near_zone(win):
    """The window faces that share a corner with a zone face, the zone
    faces included."""
    corners = {c for key in win.zone for c in win.comp.corner_ids[key]}
    return {key for key in win.comp.face_ids()
            if not corners.isdisjoint(win.comp.corner_ids[key])}


def to_grove(cfg):
    """Per-face chosen diagonal: the pair of corners the blue turns avoid."""
    if cfg.n_loops != 0:
        raise HasLoops("grove image is defined on the loop-free sector")
    comp = cfg.window.comp
    out = {}
    for key, name in full_assignment(cfg).items():
        cyc = comp.corner_ids[key]
        row = LOCAL_CONFIGS[name][0]
        if row == 1:
            out[key] = (cyc[0], cyc[2])
        elif row == 2:
            out[key] = (cyc[1], cyc[3])
        else:
            raise HasLoops(f"face {key} is not a blue turn")
    return out


def grove_to_types(window, grove):
    """Inverse of the diagonal dictionary on the window's faces."""
    comp = window.comp
    out = {}
    for key, diag in grove.items():
        cyc = comp.corner_ids[key]
        if set(diag) == {cyc[0], cyc[2]}:
            out[key] = "1b"
        elif set(diag) == {cyc[1], cyc[3]}:
            out[key] = "2b"
        else:
            raise GrovesError(f"{diag} is not a diagonal of {key}")
    return out


def grove_is_forest(cfg):
    """No diagonal cycle on either height-parity class near the carve."""
    grove = to_grove(cfg)
    for parity in (0, 1):
        adj = {}
        edges = []
        for key in near_zone(cfg.window):
            a, b = grove[key]
            if sum(a) % 2 != parity:
                continue
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
            edges.append((a, b))
        seen = set()
        for start in adj:
            if start in seen:
                continue
            stack = [(start, None)]
            seen.add(start)
            comp_nodes = set()
            while stack:
                v, parent = stack.pop()
                comp_nodes.add(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, v))
            n_edges = sum(1 for (a, b) in edges
                          if a in comp_nodes and b in comp_nodes)
            if n_edges >= len(comp_nodes):
                return False
    return True


def test_filter_one_cube():
    win = build_taut_window(ONE)
    cfgs = enumerate_taut(ONE, win)
    free = filter_no_loops(cfgs)
    assert len(free) == 3


def test_filter_u0():
    cfgs = enumerate_taut(U0)
    assert len(filter_no_loops(cfgs)) == 1


def test_to_grove_bijection():
    win = build_taut_window(ONE)
    free = filter_no_loops(enumerate_taut(ONE, win))
    groves = [to_grove(c) for c in free]
    keys = [tuple(sorted((str(k), str(sorted(map(str, d))))
                         for k, d in g.items())) for g in groves]
    assert len(set(keys)) == 3
    for cfg, grove in zip(free, groves):
        back = grove_to_types(win, grove)
        assert back == full_assignment(cfg)


def test_to_grove_rejects_loops():
    win = build_taut_window(ONE)
    looped = [c for c in enumerate_taut(ONE, win) if c.n_loops > 0]
    with pytest.raises(HasLoops):
        to_grove(looped[0])


def test_cube_recurrence_numeric():
    # the all-plus polynomial of one cube is 3 at the all-ones point
    win = build_taut_window(ONE)
    p = cube_recurrence_solve(ONE, window=win)
    ones = dict.fromkeys(p.registry.vertex_vars, 1)
    assert lp_eval(p, ones) == pytest.approx(3.0)


def test_cube_recurrence_symbolic_one_cube():
    win = build_taut_window(ONE)
    p = cube_recurrence_solve(ONE, window=win)
    assert p.num_terms() == 3
    assert all(c == 1 for c in p.terms.values())


def test_cube_recurrence_slabs_integer():
    # every coefficient of the exact all-plus polynomial is an integer, so
    # its value at every integer point is one too
    for n in (2, 3, 4):
        U = slab_solid(n)
        p = cube_recurrence_solve(U, window=build_taut_window(U))
        assert p.terms and all(c.denominator == 1
                               for c in p.terms.values()), n


def test_grove_equality_small_solids():
    for U in enumerate_solids(3):
        rep = verify_grove_equality(U)
        assert rep["ok"], (sorted(U.removed), rep)


def test_groves_are_forests():
    for U in enumerate_solids(3):
        win = build_taut_window(U)
        for cfg in filter_no_loops(enumerate_taut(U, win)):
            assert grove_is_forest(cfg)


def _near_zone_scan(win):
    """Zone faces plus every window face sharing a corner with one of them,
    by testing each face against each zone face."""
    zone = set(win.zone)
    keys = set()
    for key in win.comp.face_ids():
        cyc = win.comp.corner_ids[key]
        if key in zone or any(any(c in cyc for c in win.comp.corner_ids[z])
                              for z in zone):
            keys.add(key)
    return keys


def test_near_zone_matches_pairwise_scan():
    for U in list(enumerate_solids(4)) + [slab_solid(5), slab_solid(6)]:
        win = build_taut_window(U)
        assert near_zone(win) == _near_zone_scan(win), sorted(U.removed)

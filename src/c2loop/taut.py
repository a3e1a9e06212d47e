"""Taut loop configurations on stepped surfaces.

The reference configuration on the flat corner is all blue: every face pairs
its sides so the two paths turn around the face's mid-height corners.  The
resulting blue paths climb one wall sector diagonally, cross a fold and
descend the neighbouring sector, so all of them are infinite and nested; the
weight telescope makes the reference weight equal to the origin variable.

A taut configuration on a carved solid agrees with the reference picture
outside a ball around the origin and reconnects the frozen strands exactly
as the reference does.  The solid's window is the only surface built: the
reference zone is the carved zone with the faces the removed cubes toggle
toggled back, and tracing the reference picture through it pairs the
interface edges.  Enumeration works on a finite zone of faces around
the carve: colors propagate through shared sides, strands are maintained as
chains between interface plugs, and any chain that closes interface-to-
interface with the wrong partner kills the branch immediately.  The search
takes next the face with the most sides already colored, starting from the
interface, so both checks fire as early as possible; the configurations are
then listed in zone order, deepest wall level first.

Weights are assembled per vertex: each face type contributes exponent 1 to
its non-hugged diagonal (rows 1-2), exponent 1/2 plus the face root variable
to a diagonal (rows 3-4), or exponent 1/2 to every corner (row 5); the
renormalization subtracts 2 at every vertex, and everything outside the zone
cancels against the reference pattern except on a bounded collar.  A
configuration computes its weight data once, on first use: the half-unit
vertex exponents and root faces, and for symbolic use the canonical
monomial.  Both weight modes and sampling read them from the configuration,
so a draw repeats no work.

The same local weights derive the row identities behind the cube flip: the
loop model lists the configurations of the cube's carved and flat hexagons,
and the two sides' weights, summed per colored pairing of the six outer
edges, agree in all 70 classes exactly when the recurrence's completion is
right.  The paper's seven rows and their duals are among those classes.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .kashaev import agree, positive_value, solve_origin, solve_state
from .laurent import LaurentPoly
from .loopmodel import CONFIG_ORDER, FaceComplex, LOCAL_CONFIGS, \
    LoopConfig, _trace, count_loops, enumerate_configs, search, side_colors
from .stepped import (
    UNITS,
    SteppedSolid,
    clockwise_corners,
    face_diagonals,
    height,
    is_regular,
    norm2,
    surface_graph,
    toggled_faces,
    vadd,
)


class TautError(Exception):
    pass


class Stuck(TautError):
    pass


class NotAMonomial(TautError):
    pass


ROW_TYPES = {1: ("1a", "1b"), 2: ("2a", "2b"), 3: ("3a", "3b"),
             4: ("4a", "4b"), 5: ("5a", "5b")}


def _rotate_black_first(cyc):
    """Rotate a face cycle so the lex-least even-height corner leads."""
    blacks = [i for i, c in enumerate(cyc) if height(c) % 2 == 0]
    i = min(blacks, key=lambda k: cyc[k])
    return tuple(cyc[(i + j) % 4] for j in range(4))


def window_complex(sg):
    """FaceComplex of a surface window; face keys are the (axis, base)
    pairs, corner cycles rotated to start at the lex-least black corner."""
    return FaceComplex.from_corners({key: _rotate_black_first(sg.faces[key])
                                     for key in sorted(sg.faces)})


def sigma0_type(cyc):
    """Local picture of the reference configuration: hug the two mid-height
    corners in blue."""
    h = [height(c) for c in cyc]
    if h[1] == h[3]:
        return "1b"     # mids at the odd slots (the white corners)
    if h[0] == h[2]:
        return "2b"
    raise TautError(f"face heights {h} are not a surface pattern")


def sigma0(sg):
    """Reference assignment for every face of a window."""
    return {key: sigma0_type(_rotate_black_first(cyc))
            for key, cyc in sg.faces.items()}


# type -> per-slot vertex exponent contribution (slot = corner position), in
# integer half-units: 2 stands for exponent 1, 1 for exponent 1/2
_ROW_EXP = {1: (2, 0, 2, 0), 2: (0, 2, 0, 2), 3: (1, 0, 1, 0),
            4: (0, 1, 0, 1), 5: (1, 1, 1, 1)}
_CORNER_EXP = {name: _ROW_EXP[row]
               for row, names in ROW_TYPES.items() for name in names}


@dataclass
class TautWindow:
    """Shared context: carved window, zone and interface."""

    sg: object
    comp: FaceComplex
    zone: list                    # carved zone face keys, output order
    zone_comp: FaceComplex        # the zone faces, glued among themselves
    frozen: set
    interface_edges: set          # primal-edge keys on the zone boundary
    target_pairing: dict          # interface edge -> partner edge
    vnames: dict
    collar: dict                  # vertex -> frozen exponent - 2, half-units
    vertex_of: dict               # vertex variable name -> vertex
    face_of: dict                 # root variable name -> window face
    sides: dict                   # zone face -> its four primal edges

    @property
    def registry(self):
        """The window's variable registry, built on first symbolic use."""
        return self.sg.registry

    @cached_property
    def symbolic_origin(self):
        """Exact recurrence solution at the origin, in the canonical fill
        order, solved on first use."""
        return solve_origin(self.sg.solid, mode="symbolic", window=self.sg)

    @cached_property
    def near_zone(self):
        """The window faces that share a corner with a zone face, the zone
        faces included."""
        corners = {c for key in self.zone for c in self.comp.corner_ids[key]}
        return {key for key in self.comp.face_ids()
                if not corners.isdisjoint(self.comp.corner_ids[key])}


def _unglued_sides(comp):
    """Primal edge -> (face, slot) of each side no other face shares."""
    return {comp.edge_of(*side): side for side in comp.half_edges()}


# window radius beyond R_U: the frozen collar around the zone ball
_COLLAR = 4.0


def build_taut_window(U):
    """Window, zone and interface of a regular solid."""
    reg_info = is_regular(U)
    if not reg_info["regular"]:
        raise TautError("taut enumeration requires a regular solid")
    r_u = reg_info["R_U"]
    r2 = r_u * r_u
    # each toggled face has a corner p + e_i + e_j, no farther out than its
    # cube p, so the carved and flat surfaces agree outside the zone ball
    toggled = toggled_faces(U)
    if any(min(map(norm2, clockwise_corners(*key))) > r2 for key in toggled):
        raise TautError("carved region leaks outside the zone ball")
    sg = surface_graph(U, r_u + _COLLAR)
    comp = window_complex(sg)
    zone = sorted((k for k, cyc in comp.corner_ids.items()
                   if min(map(norm2, cyc)) <= r2),
                  key=lambda k: (min(map(height, comp.corner_ids[k])), str(k)))
    frozen = set(comp.corner_ids).difference(zone)
    zone_comp = FaceComplex.from_corners(
        {k: comp.corner_ids[k] for k in zone})
    # interface edges: sides between a zone face and a frozen face
    iface = _unglued_sides(zone_comp)
    if any(side not in comp.gluing for side in iface.values()):
        raise TautError("zone touches the window boundary; "
                        "enlarge the collar")
    flat_zone = FaceComplex.from_corners(
        {key: _rotate_black_first(clockwise_corners(*key))
         for key in sorted(set(zone) ^ toggled)})
    if iface.keys() != _unglued_sides(flat_zone).keys():
        raise TautError("interface mismatch between carved and flat zones")
    # a reference strand crosses glued sides only, so it stays in the flat
    # zone until both its ends reach the interface
    _cycles, paths = _trace(flat_zone, {
        key: sigma0_type(cyc) for key, cyc in flat_zone.corner_ids.items()})
    target = {}
    for (a, b), _color, _nodes in paths:
        e, f = flat_zone.edge_of(*a), flat_zone.edge_of(*b)
        target[e], target[f] = f, e
    vnames = {v: sg.vertex_var_name(v) for v in sg.vertices}
    # the frozen faces keep their reference pictures, so their share of each
    # vertex exponent, net of the -2 renormalization, is fixed per window
    collar = dict.fromkeys(sg.vertices, -4)
    for key in frozen:
        cyc = comp.corner_ids[key]
        for v, e in zip(cyc, _CORNER_EXP[sigma0_type(cyc)]):
            collar[v] += e
    return TautWindow(sg, comp, zone, zone_comp, frozen, set(iface), target,
                      vnames, collar,
                      {name: v for v, name in vnames.items()},
                      {sg.face_root_name(k): k for k in comp.corner_ids},
                      {k: tuple(comp.edge_of(k, s) for s in range(4))
                       for k in zone})


def window_for(U, window):
    """window, checked to be one of the solid U, or U's own when None."""
    if window is None:
        return build_taut_window(U)
    if window.sg.solid != U:
        raise TautError("window is not one of this solid")
    return window


@dataclass
class TautConfig(LoopConfig):
    """A LoopConfig on the zone faces of its window.

    Its weight data are computed on first use and kept, so the assignment
    must not change after that."""

    window: TautWindow

    @cached_property
    def exponents(self):
        """The weight's half-unit vertex exponents and root faces (see
        _vertex_contributions), shared by both weight modes; reading them
        builds no registry."""
        win = self.window
        if self.assignment.keys() != win.sides.keys():  # the zone faces
            raise TautError("the configuration's faces are not the window's "
                            "zone faces")
        exps, roots = _vertex_contributions(win, self.assignment)
        _check_vertex_completeness(win, exps)
        return exps, roots

    @cached_property
    def monomial_key(self):
        """The weight's canonical monomial in the window's registry."""
        win = self.window
        exps, roots = self.exponents
        mono = {}
        for v, e in exps.items():
            if e % 2:
                raise TautError(f"half-integer exponent survived at {v}")
            mono[win.vnames[v]] = e // 2
        for key in roots:
            mono[win.sg.face_root_name(key)] = 1
        (key,) = win.registry.monomial(mono).terms
        return key

    def full_assignment(self):
        out = {key: sigma0_type(self.window.comp.corner_ids[key])
               for key in self.window.frozen}
        out.update(self.assignment)
        return out

    def to_json(self):
        return {"faces": {str(k): v for k, v in
                          sorted(self.assignment.items(), key=str)},
                "n_loops": self.n_loops,
                "window_radius": self.window.sg.window_radius}


_SIDE_COLORS = {name: side_colors(name) for name in CONFIG_ORDER}


def enumerate_taut(U, window=None):
    """All taut configurations, in lexicographic order of their pictures'
    CONFIG_ORDER ranks along the zone.

    The zone sides on the interface are the search's terminals, preset
    blue and paired as the reference picture pairs them; the search visits
    the faces in constraint order, so colors and the pairing prune early."""
    win = window_for(U, window)
    zone = win.zone
    ids = win.comp.side_ids(zone)
    sides = [tuple(ids[(key, s)] for s in range(4)) for key in zone]
    term = {win.sides[key][s]: e for (key, s), e in ids.items()
            if win.sides[key][s] in win.interface_edges}
    found = search(sides, dict.fromkeys(term.values(), "B"),
                   {term[e]: term[f] for e, f in win.target_pairing.items()})
    return [TautConfig({key: CONFIG_ORDER[r] for key, r in zip(zone, ranks)},
                       loops, win) for ranks, loops in found]


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def _vertex_contributions(win, assignment):
    """Per-vertex exponent in half-units, after the -2 renormalization and
    the frozen collar, at every vertex the assignment touches (zero entries
    dropped), and the face roots used."""
    corner_ids = win.comp.corner_ids
    collar = win.collar
    exps = {}
    roots = []
    for key, name in assignment.items():
        for v, e in zip(corner_ids[key], _CORNER_EXP[name]):
            exps[v] = exps.get(v, collar[v]) + e
        if LOCAL_CONFIGS[name][0] in (3, 4):
            roots.append(key)
    return {v: e for v, e in exps.items() if e}, roots


def _check_vertex_completeness(win, verts):
    """Every vertex with a residual exponent must have all its faces inside
    the window, i.e. sit well inside the window ball."""
    lim = (win.sg.window_radius - 2.1) ** 2
    for v in verts:
        if norm2(v) > lim:
            raise TautError(f"vertex {v} too close to the window boundary; "
                            "enlarge the collar")


def taut_weight(win, config, symbolic=True, g_init=None):
    """Weight 2^loops * prod w^f * prod g^-2 of one taut configuration.

    A configuration of win reads its cached weight data; one of another
    window is weighed afresh in win's variables."""
    if config.window is not win:
        config = TautConfig(config.assignment, config.n_loops, win)
    if symbolic:
        coeff = Fraction(2 ** config.n_loops)
        return LaurentPoly({config.monomial_key: coeff}, win.registry)

    def g(v):
        return positive_value(g_init[v], v)

    exps, roots = config.exponents
    val = float(2 ** config.n_loops)
    try:
        for v, e in exps.items():
            val *= g(v) ** (e / 2)
        for key in roots:
            (a, c), (b, d) = face_diagonals(*key)
            val *= math.sqrt(g(a) * g(c) + g(b) * g(d))
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise TautError("the weight is out of float range")
    return val


def y_taut(U, g_init=None, symbolic=True, window=None):
    """Renormalized partition function over all taut configurations."""
    win = window_for(U, window)
    return sum(taut_weight(win, cfg, symbolic, g_init)
               for cfg in enumerate_taut(U, win))


def verify_partition_identity(U, mode="symbolic", g_init=None, window=None,
                              tol=1e-9):
    """Partition function against the recurrence solution at the origin:
    exactly in symbolic mode, to tol in numeric mode at the values g_init
    (which symbolic mode does not take)."""
    win = window_for(U, window)
    symbolic = mode == "symbolic"
    lhs = y_taut(U, g_init=g_init, symbolic=symbolic, window=win)
    rhs = win.symbolic_origin if symbolic else \
        solve_origin(U, g_init=g_init, mode=mode, window=win.sg)
    return agree(lhs, rhs, tol)


def verify_monomial_bijection(U, window=None):
    """Monomial <-> configuration checks on the symbolic solution."""
    win = window_for(U, window)
    configs = enumerate_taut(U, win)
    poly = win.symbolic_origin
    report = {"n_configs": len(configs), "n_monomials": poly.num_terms()}
    report["counts_match"] = report["n_configs"] == report["n_monomials"]
    seen = {}
    injective = True
    coeffs_ok = True
    for cfg in configs:
        w = taut_weight(win, cfg, symbolic=True)
        (mono, coeff), = w.terms.items()
        if mono in seen:
            injective = False
        seen[mono] = cfg
        if coeff != Fraction(2) ** cfg.n_loops:
            coeffs_ok = False
        if mono not in poly.terms or poly.terms[mono] != coeff:
            coeffs_ok = False
    report["injective"] = injective
    report["coefficients_are_loop_powers"] = coeffs_ok
    vert_ok, root_ok = True, True
    reg = win.registry
    for mono, _c in poly.terms.items():
        for name, e in mono:
            if reg.is_root(name):
                root_ok &= e in (0, 1)
            else:
                vert_ok &= -2 <= e <= 4
    report["vertex_exponents_in_range"] = vert_ok
    report["root_exponents_in_range"] = root_ok
    report["all"] = all((report["counts_match"], injective, coeffs_ok,
                         vert_ok, root_ok))
    return report


# ---------------------------------------------------------------------------
# the cube flip
# ---------------------------------------------------------------------------

# the flipped cube and, around the hexagon, its corners other than the bottom
# and the top (g1, g12, g2, g23, g3, g13); outer edge k joins corners k and
# k + 1, and the reflection through the cube centre takes edge k to k + 3
_FLIP_CUBE = (-1, -1, -1)
_FLIP_RING = ((0, -1, -1), (0, 0, -1), (-1, 0, -1), (-1, 0, 0), (-1, -1, 0),
              (0, -1, 0))

# one boundary class per row identity of the paper, whose carved and flat
# sums are the row's two sides; a class lists its strands as edge, edge, color
_YB_ROWS = dict(enumerate(("01R 23R 45R", "03R 12R 45R", "03R 12B 45R",
                           "01B 24B 35R", "01R 23R 45B", "03R 15B 24B",
                           "03R 12B 45B"), start=1))


def _boundary_class(strands):
    """A class from its (edge, edge, color) strands: "01R 23B 45B"."""
    return " ".join(sorted(f"{min(a, b)}{max(a, b)}{c}"
                           for a, b, c in strands))


def cube_flip_sums():
    """The two sides of the cube flip, summed by boundary class.

    The carved hexagon is the cube's three faces at _FLIP_CUBE, the flat one
    its three faces at the origin.  Each hexagon's configurations come from
    the loop model with a free boundary; a configuration's class is the
    colored pairing its strands make of the six outer edges, and its weight
    is 2^loops * prod g_v^(e_v / 2) (e_v in _CORNER_EXP half-units, -4 at
    the centre) times its row 3-4 face values.  The carved side reads the
    one-cube window's variables, the flat side G123, X1, Y2 and Z3 as the
    recurrence computes them.  A class's terms share the parities of their
    boundary exponents, which are dropped.

    Returns G123 and {class: (carved, flat)}, each side a dict {power of
    G123: Laurent polynomial}; a class that one side lacks is empty there.
    """
    U = SteppedSolid.from_removed([_FLIP_CUBE])
    sg = surface_graph(U)
    reg = sg.registry
    state = solve_state(U, window=sg)
    ring = _FLIP_RING
    edges = {frozenset(e): k
             for k, e in enumerate(zip(ring, ring[1:] + ring[:1]))}
    sums, parities = {}, {}
    for side, centre in enumerate((_FLIP_CUBE, (0, 0, 0))):
        comp = FaceComplex.from_corners({
            key: _rotate_black_first(clockwise_corners(*key))
            for key in ((a, vadd(_FLIP_CUBE, UNITS[a]) if side else _FLIP_CUBE)
                        for a in range(3))})
        for cfg in enumerate_configs(comp):
            exps = {centre: -4}
            term = reg.const(2 ** cfg.n_loops)
            for key, name in cfg.assignment.items():
                for v, e in zip(comp.corner_ids[key], _CORNER_EXP[name]):
                    exps[v] = exps.get(v, 0) + e
                if LOCAL_CONFIGS[name][0] in (3, 4):
                    term = term * (state.face_values[key] if side else
                                   reg.var(sg.face_root_name(key)))
            if exps[centre] % 2:
                raise TautError(f"half-integer exponent at {centre}")
            power = exps.pop((0, 0, 0), 0) // 2
            term = term * reg.monomial({sg.vertex_var_name(v): e // 2
                                        for v, e in exps.items()})
            cls = _boundary_class(
                (edges[comp.edge_of(*a)], edges[comp.edge_of(*b)], color)
                for (a, b), color, _nodes in _trace(comp, cfg.assignment)[1])
            parities.setdefault(cls, set()).add(
                tuple(exps.get(v, 0) % 2 for v in ring))
            part = sums.setdefault(cls, ({}, {}))[side]
            part[power] = part.get(power, reg.zero()) + term
    if any(len(p) > 1 for p in parities.values()):
        raise TautError("boundary exponent parities differ within a class")
    return state.g_values[(0, 0, 0)], sums


def _same_sum(a, b, top):
    """Whether two sums {power of top: polynomial} are equal, compared with
    the powers of top cross-multiplied to whole ones."""
    k = -min([*a, *b])

    def cleared(side):
        total = top.registry.zero()
        for m, poly in side.items():
            for _ in range(m + k):
                poly = poly * top
            total = total + poly
        return total
    return cleared(a) == cleared(b)


def yang_baxter_classes():
    """Boundary class of the cube flip -> whether its carved and flat sums
    are equal, in exact arithmetic; derived afresh on every call."""
    top, sums = cube_flip_sums()
    return {cls: _same_sum(carved, flat, top)
            for cls, (carved, flat) in sums.items()}


def yang_baxter_row_class(row, side_swap=False):
    """The boundary class of a paper row; with side_swap, that of its dual
    row, the class reflected through the cube centre (g <-> g123 and
    g_i <-> g_jk, colors kept)."""
    if row not in _YB_ROWS:
        raise TautError(f"row {row} is not one of 1-7")
    shift = 3 if side_swap else 0
    return _boundary_class(((int(a) + shift) % 6, (int(b) + shift) % 6, c)
                           for a, b, c in _YB_ROWS[row].split())


def yang_baxter_row_check(row, side_swap=False):
    """Whether a paper row, or its dual with side_swap, holds: its class's
    two sums are equal in the root-reduced ring."""
    return yang_baxter_classes().get(yang_baxter_row_class(row, side_swap),
                                     False)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------

def reconstruct_from_monomial(U, monomial, window=None):
    """Rebuild the unique configuration whose weight is the given monomial.

    monomial: {var name: exponent} over the window's variables.  Repeatedly
    finds a vertex with one unknown face, reads the row off the face-root
    presence and the residual half-integer exponent, and the variant off a
    known incident edge color.
    """
    win = window_for(U, window)
    comp = win.comp
    root_faces = set()
    residual = {}
    for name, e in monomial.items():
        if win.registry.is_root(name):
            if e not in (0, 1):
                raise NotAMonomial(f"root exponent {e}")
            if e:
                root_faces.add(win.face_of[name])
        elif name in win.vertex_of:
            residual[win.vertex_of[name]] = e
        else:
            raise NotAMonomial(f"unknown variable {name!r}")

    assign = {}
    # res tracks, in half-units, the exponent not yet explained by known
    # faces; the frozen collar and the +2 renormalization are folded in up
    # front
    unknown_at = {}
    for key in win.zone:
        for c in comp.corner_ids[key]:
            unknown_at.setdefault(c, set()).add(key)
    res = {v: 2 * residual.get(v, 0) - win.collar[v] for v in unknown_at}
    edge_color = {e: "B" for e in win.interface_edges}
    # the least vertex with one unknown face comes next; a vertex's count
    # only falls, so it enters the heap once, and entries whose count has
    # reached zero since are stale
    ready = [v for v, faces in unknown_at.items() if len(faces) == 1]
    heapq.heapify(ready)
    for _ in win.zone:
        while ready and not unknown_at[ready[0]]:
            heapq.heappop(ready)
        if not ready:
            raise Stuck("no vertex with a single unknown face")
        v = heapq.heappop(ready)
        key, = unknown_at[v]
        cyc = comp.corner_ids[key]
        sides = win.sides[key]
        slot = cyc.index(v)
        on_black_diag = slot % 2 == 0
        r = res[v]
        if key in root_faces:
            if r == 1:
                row = 3 if on_black_diag else 4
            elif r == 0:
                row = 4 if on_black_diag else 3
            else:
                raise NotAMonomial(
                    f"residual {Fraction(r) / 2} at {v} with face root")
        else:
            if r == 2:
                row = 1 if on_black_diag else 2
            elif r == 0:
                row = 2 if on_black_diag else 1
            elif r == 1:
                row = 5
            else:
                raise NotAMonomial(f"residual {Fraction(r) / 2} at {v}")
        # variant from any known incident edge color
        name = None
        for cand in ROW_TYPES[row]:
            cols = _SIDE_COLORS[cand]
            ok = True
            for s, e in enumerate(sides):
                if e in edge_color and edge_color[e] != cols[s]:
                    ok = False
                    break
            if ok and name is not None:
                raise Stuck(f"variant ambiguous at {key}")
            if ok:
                name = cand
        if name is None:
            raise NotAMonomial(f"no variant of row {row} fits at {key}")
        assign[key] = name
        cols = _SIDE_COLORS[name]
        contrib = _CORNER_EXP[name]
        for s, e in enumerate(sides):
            if e not in edge_color:
                edge_color[e] = cols[s]
            c = cyc[s]
            res[c] -= contrib[s]
            unknown_at[c].discard(key)
            if len(unknown_at[c]) == 1:
                heapq.heappush(ready, c)
    if any(r != 0 for r in res.values()):
        raise NotAMonomial("unexplained exponents remain")
    # loops by independent tracing
    cfg = TautConfig(assign, count_loops(win.zone_comp, assign), win)
    w = taut_weight(win, cfg, symbolic=True)
    (m2, _c2), = w.terms.items()
    want = tuple(sorted(((n, e) for n, e in monomial.items() if e != 0),
                        key=lambda t: win.registry.index(t[0])))
    if m2 != want:
        raise NotAMonomial("reconstructed weight does not match the input")
    return cfg


def sample_taut(U, g_init, seed=0, n=1, window=None):
    """Exact sampling proportional to the numeric weight; deterministic for
    a given seed.  Returns one configuration, or a list when n > 1."""
    win = window_for(U, window)
    configs = enumerate_taut(U, win)
    weights = [taut_weight(win, c, symbolic=False, g_init=g_init)
               for c in configs]
    total = sum(weights)
    if not (total > 0 and math.isfinite(total)):
        raise TautError(f"the weights sum to {total}, not to a finite "
                        "positive total")
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = rng.random() * total
        acc = 0.0
        pick = configs[-1]
        for c, w in zip(configs, weights):
            acc += w
            if x <= acc:
                pick = c
                break
        out.append(pick)
    return out[0] if n == 1 else out

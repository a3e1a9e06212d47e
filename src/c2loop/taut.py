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
interface sides.  The window numbers the zone's sides once, for the search,
the peel plan and that pairing, and checks once that its collar holds every
face at each zone corner.  Enumeration works on a finite zone of faces
around the carve: colors propagate through shared sides, strands are
maintained as chains between interface plugs, and any chain that closes
interface-to-interface with the wrong partner kills the branch immediately.
The search takes next the face with the most sides already colored,
starting from the interface, so both checks fire as early as possible; the
configurations are then listed in zone order, deepest wall level first.

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
from typing import NamedTuple

from .kashaev import agree, positive_value, solve_origin, solve_state
from .laurent import LaurentPoly
from .loopmodel import CONFIG_ORDER, FaceComplex, LOCAL_CONFIGS, \
    LoopConfig, _SIDE_COLORS, _trace, count_loops, enumerate_configs, search
from .stepped import (
    UNITS,
    SteppedSolid,
    clockwise_corners,
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
    """Rotate a face cycle so the lex-least even-height corner leads.  The
    heights alternate in parity around a face, so the even-height corners
    are slots 0 and 2 or slots 1 and 3."""
    i = height(cyc[0]) % 2
    if cyc[i + 2] < cyc[i]:
        i += 2
    return cyc[i:] + cyc[:i]


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
    sides: dict                   # zone face -> its four side ids
    pairing: dict                 # interface side id -> partner side id
    vnames: dict
    collar: dict                  # vertex -> frozen exponent - 2, half-units
    vertex_of: dict               # vertex variable name -> vertex
    face_of: dict                 # root variable name -> window face

    @property
    def registry(self):
        """The window's variable registry, built on first symbolic use."""
        return self.sg.registry

    @cached_property
    def symbolic_origin(self):
        """Exact recurrence solution at the origin, in the canonical fill
        order, solved on first use."""
        return solve_origin(self.sg.solid,
                            window_radius=self.sg.window_radius)

    @cached_property
    def peel_plan(self):
        """The order in which reconstruction decides the zone faces.

        Reconstruction always decides next the face of the least vertex
        with one undecided zone face, and which face that is depends only on
        the window's corner incidence, never on the monomial.  So the order
        is worked out once: each step gives its pivot, the face, the face's
        corners and sides, and the face's sides already colored (by the
        interface or by an earlier face) and not yet colored: the pivot and
        corners as positions in the plan's vertex list, the sides as the
        window's side ids.  Raises Stuck when no vertex has a single
        undecided face, or when a face comes up with no colored side, whose
        row's two variants could not then be told apart."""
        comp = self.comp
        unknown_at = {}
        for key in self.zone:
            for c in comp.corner_ids[key]:
                unknown_at.setdefault(c, set()).add(key)
        at = {v: i for i, v in enumerate(unknown_at)}
        colors = [None] * (1 + max(map(max, self.sides.values())))
        for e in self.pairing:
            colors[e] = "B"
        colored = set(self.pairing)
        # a vertex's count only falls, so it enters the heap once, and
        # entries whose count has reached zero since are stale
        ready = [v for v, faces in unknown_at.items() if len(faces) == 1]
        heapq.heapify(ready)
        steps = []
        for _ in self.zone:
            while ready and not unknown_at[ready[0]]:
                heapq.heappop(ready)
            if not ready:
                raise Stuck("no vertex with a single unknown face")
            v = heapq.heappop(ready)
            key, = unknown_at[v]
            cyc = comp.corner_ids[key]
            sides = self.sides[key]
            known = tuple(s for s in range(4) if sides[s] in colored)
            if not known:
                raise Stuck(f"variant ambiguous at {key}")
            colored.update(sides)
            steps.append((at[v], cyc.index(v) % 2 == 0, key,
                          tuple(at[c] for c in cyc), sides, known,
                          tuple(s for s in range(4) if s not in known)))
            for c in cyc:
                unknown_at[c].discard(key)
                if len(unknown_at[c]) == 1:
                    heapq.heappush(ready, c)
        return PeelPlan(list(unknown_at), {self.vnames[v]: i
                                           for v, i in at.items()},
                        [-self.collar[v] for v in unknown_at], colors, steps)


class PeelPlan(NamedTuple):
    """A window's reconstruction order (TautWindow.peel_plan)."""

    vertices: list      # the vertices of the zone faces
    position: dict      # their variable names -> positions in vertices
    residuals: list     # per vertex, minus its frozen collar, half-units
    colors: list        # per side id, its color before any step
    steps: list         # (pivot, pivot on the black diagonal, face,
    #                      corners, sides, colored slots, fresh slots)


def _unglued_sides(comp):
    """Primal edge -> (face, slot) of each side no other face shares."""
    return {comp.edge_of(key, s): (key, s)
            for key in comp.corner_ids for s in range(4)
            if (key, s) not in comp.gluing}


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
    # a weight reads exponents at zone corners, each from all its faces
    far = max((c for k in zone for c in comp.corner_ids[k]), key=norm2)
    if norm2(far) > (sg.window_radius - 2.1) ** 2:
        raise TautError(f"vertex {far} too close to the window boundary; "
                        "enlarge the collar")
    frozen = set(comp.corner_ids).difference(zone)
    zone_comp = FaceComplex.from_corners(
        {k: comp.corner_ids[k] for k in zone})
    # interface: the sides between a zone face and a frozen face
    iface = _unglued_sides(zone_comp)
    if any(side not in comp.gluing for side in iface.values()):
        raise TautError("zone touches the window boundary; "
                        "enlarge the collar")
    flat_zone = FaceComplex.from_corners(
        {key: _rotate_black_first(clockwise_corners(*key))
         for key in sorted(set(zone) ^ toggled)})
    flat_iface = _unglued_sides(flat_zone)
    if iface.keys() != flat_iface.keys():
        raise TautError("interface mismatch between carved and flat zones")
    ids = zone_comp.side_ids(zone)
    carved = {flat_iface[e]: ids[side] for e, side in iface.items()}
    # a reference strand crosses glued sides only, so it stays in the flat
    # zone until both its ends reach the interface
    _loops, paths = _trace(flat_zone, {
        key: sigma0_type(cyc) for key, cyc in flat_zone.corner_ids.items()})
    pairing = {}
    for (a, b), _color in paths:
        pairing[carved[a]], pairing[carved[b]] = carved[b], carved[a]
    vnames = {v: sg.vertex_var_name(v) for v in sg.vertices}
    # the frozen faces keep their reference pictures, so their share of each
    # vertex exponent, net of the -2 renormalization, is fixed per window
    collar = dict.fromkeys(sg.vertices, -4)
    for key in frozen:
        cyc = comp.corner_ids[key]
        for v, e in zip(cyc, _CORNER_EXP[sigma0_type(cyc)]):
            collar[v] += e
    return TautWindow(sg, comp, zone, zone_comp, frozen,
                      {k: tuple(ids[(k, s)] for s in range(4)) for k in zone},
                      pairing, vnames, collar,
                      {name: v for v, name in vnames.items()},
                      {sg.face_root_name(k): k for k in comp.corner_ids})


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
        return _vertex_contributions(self.window, self.assignment)

    @cached_property
    def monomial_key(self):
        """The weight's canonical monomial in the window's registry: the
        nonzero exponents sorted by variable, each root to the first power,
        so nothing needs reducing."""
        win = self.window
        exps, roots = self.exponents
        mono = []
        for v, e in exps.items():
            if e % 2:
                raise TautError(f"half-integer exponent survived at {v}")
            mono.append((win.vnames[v], e // 2))
        mono.extend((win.sg.face_root_name(key), 1) for key in roots)
        index = win.registry.index
        mono.sort(key=lambda t: index(t[0]))
        return tuple(mono)

    def to_json(self):
        return {"faces": {str(k): v for k, v in
                          sorted(self.assignment.items(), key=str)},
                "n_loops": self.n_loops,
                "window_radius": self.window.sg.window_radius}


def enumerate_taut(U, window=None):
    """All taut configurations, in lexicographic order of their pictures'
    CONFIG_ORDER ranks along the zone.

    The zone sides on the interface are the search's terminals, preset
    blue and paired as the reference picture pairs them; the search visits
    the faces in constraint order, so colors and the pairing prune early."""
    win = window_for(U, window)
    found = search(list(win.sides.values()), dict.fromkeys(win.pairing, "B"),
                   win.pairing)
    return [TautConfig({key: CONFIG_ORDER[r] for key, r in
                        zip(win.zone, ranks)}, loops, win)
            for ranks, loops in found]


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


def taut_weight(win, config, symbolic=True, g_init=None):
    """Weight 2^loops * prod w^f * prod g^-2 of one taut configuration of
    win, from its cached weight data: a Laurent monomial when symbolic, else
    a float at the values g_init."""
    if config.window is not win:
        raise TautError("the configuration is not one of this window")
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
            a, b, c, d = win.sg.faces[key]
            val *= math.sqrt(g(a) * g(c) + g(b) * g(d))
    except OverflowError:
        val = math.inf
    if not math.isfinite(val):
        raise TautError("the weight is out of float range")
    return val


def y_taut(U, g_init=None, window=None):
    """Renormalized partition function over all taut configurations: a
    float at the values g_init, or a Laurent polynomial without them."""
    win = window_for(U, window)
    return sum(taut_weight(win, cfg, g_init is None, g_init)
               for cfg in enumerate_taut(U, win))


def verify_partition_identity(U, g_init=None, window=None):
    """Partition function against the recurrence solution at the origin:
    exactly without g_init, and to agree's tolerance at the values g_init
    when they are given."""
    win = window_for(U, window)
    lhs = y_taut(U, g_init, window=win)
    rhs = win.symbolic_origin if g_init is None else \
        solve_origin(win.sg.solid, g_init=g_init, mode="numeric",
                     window_radius=win.sg.window_radius)
    return agree(lhs, rhs)


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
    g_values, face_values = solve_state(U)
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
                    term = term * (face_values[key] if side else
                                   reg.var(sg.face_root_name(key)))
            if exps[centre] % 2:
                raise TautError(f"half-integer exponent at {centre}")
            power = exps.pop((0, 0, 0), 0) // 2
            term = term * reg.monomial({sg.vertex_var_name(v): e // 2
                                        for v, e in exps.items()})
            cls = _boundary_class(
                (edges[comp.edge_of(*a)], edges[comp.edge_of(*b)], color)
                for (a, b), color in _trace(comp, cfg.assignment)[1])
            parities.setdefault(cls, set()).add(
                tuple(exps.get(v, 0) % 2 for v in ring))
            part = sums.setdefault(cls, ({}, {}))[side]
            part[power] = part.get(power, reg.zero()) + term
    if any(len(p) > 1 for p in parities.values()):
        raise TautError("boundary exponent parities differ within a class")
    return g_values[(0, 0, 0)], sums


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

# (face root present, residual at the pivot in half-units, pivot on the
# black diagonal) -> the row of the pivot's face
_PIVOT_ROW = {(True, 1, True): 3, (True, 1, False): 4,
              (True, 0, True): 4, (True, 0, False): 3,
              (False, 2, True): 1, (False, 2, False): 2,
              (False, 0, True): 2, (False, 0, False): 1,
              (False, 1, True): 5, (False, 1, False): 5}


def reconstruct_from_monomial(U, monomial, window=None):
    """Rebuild the unique configuration whose weight is the given monomial.

    monomial: {var name: exponent} over the window's variables.  The faces
    are decided in the window's peel plan: at each step's pivot, the one
    vertex left with a single undecided face, the row is read off the
    face-root presence and the residual half-integer exponent, and the
    variant off one colored side, since the two variants of a row color
    all four sides oppositely; the face's other colored sides must agree.
    The loop count comes from tracing the zone independently, and the
    configuration's weight must be the input.
    """
    win = window_for(U, window)
    plan = win.peel_plan
    roots = set()
    # res tracks, in half-units, the exponent not yet explained by decided
    # faces; the frozen collar and the +2 renormalization are folded in up
    # front
    res = list(plan.residuals)
    for name, e in monomial.items():
        if name in win.face_of:
            if e not in (0, 1):
                raise NotAMonomial(f"root exponent {e}")
            if e:
                roots.add(win.face_of[name])
        elif name in plan.position:
            res[plan.position[name]] += 2 * e
        elif name not in win.vertex_of:
            raise NotAMonomial(f"unknown variable {name!r}")
    colors = list(plan.colors)
    assign = {}
    for v, black, key, corners, sides, known, fresh in plan.steps:
        rooted = key in roots
        row = _PIVOT_ROW.get((rooted, res[v], black))
        if row is None:
            with_root = " with face root" if rooted else ""
            raise NotAMonomial(f"residual {Fraction(res[v]) / 2} at "
                               f"{plan.vertices[v]}{with_root}")
        a, b = ROW_TYPES[row]
        s = known[0]
        name = a if _SIDE_COLORS[a][s] == colors[sides[s]] else b
        cols = _SIDE_COLORS[name]
        if any(colors[sides[s]] != cols[s] for s in known):
            raise NotAMonomial(f"no variant of row {row} fits at {key}")
        for s in fresh:
            colors[sides[s]] = cols[s]
        for c, e in zip(corners, _CORNER_EXP[name]):
            res[c] -= e
        assign[key] = name
    if any(res):
        raise NotAMonomial("unexplained exponents remain")
    # loops by independent tracing
    cfg = TautConfig(assign, count_loops(win.zone_comp, assign), win)
    index = win.registry.index
    want = tuple(sorted(((n, e) for n, e in monomial.items() if e != 0),
                        key=lambda t: index(t[0])))
    if cfg.monomial_key != want:
        raise NotAMonomial("reconstructed weight does not match the input")
    return cfg


def sample_taut(U, g_init, seed=0, n=1, window=None):
    """Exact sampling proportional to the numeric weight; deterministic for
    a given seed.  Returns a list of n configurations."""
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
    return out

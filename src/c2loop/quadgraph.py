"""Bipartite quadrangulations, train tracks, and the weight parametrization.

Every surface here is a loopmodel.FaceComplex: faces with four side slots,
corner 0 black, glued slot to slot.  A QuadGraph is the complex read from
vertex colors and face cycles, either a finite planar quadrangulation with a
boundary (all bounded faces have degree 4) or a quadrangulation of a closed
surface.  Face corner cycles are stored clockwise; the two black corners of
a face are its (x, y) diagonal and the white corners are (u, v), with x the
lexicographically-least black corner, and the two sides over a vertex pair
are glued.  Complexes that are not read from such a file, like stepped
windows (taut.window_complex) or spheres with parallel edges, serve the
functions here just as well.

Train tracks are paths in the dual that always leave a face through the side
opposite the one they entered: the strands (loopmodel.strands) of the rule
s -> s + 2.  For surfaces with a boundary and no closed track the
counting identities 2|T| = |E_ext| and |T| + 1 = |V| - |F| hold, and the
per-face map h -> h_x + h_y - h_u - h_v is onto, which is what lets arbitrary
free-fermionic weights (those that pass ff_check) be rewritten in terms of
vertex quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType

from .loopmodel import FaceComplex, strands
from .quadfield import QuadVal


class QuadGraphError(Exception):
    pass


class LoopTrackPresent(QuadGraphError):
    pass


class NotFreeFermionic(QuadGraphError):
    pass


class Inconsistent(QuadGraphError):
    pass


@dataclass(frozen=True)
class FaceWeights:
    w1: object
    w2: object
    w3: object
    w4: object
    w5: object

    def __post_init__(self):
        for w in self.as_tuple():
            if float(w) <= 0:
                raise QuadGraphError("face weights must be positive")

    def as_tuple(self):
        return (self.w1, self.w2, self.w3, self.w4, self.w5)


def _exactish(x):
    return isinstance(x, (int, Fraction, QuadVal))


def ff_check(w):
    """w1 w4 = w3 w5, w2 w3 = w4 w5, w5 (w1 + w2) = w3 w4."""
    w1, w2, w3, w4, w5 = w.as_tuple()
    lhs = (w1 * w4, w2 * w3, w5 * (w1 + w2))
    rhs = (w3 * w5, w4 * w5, w3 * w4)
    if all(_exactish(x) for x in w.as_tuple()):
        return all(a == b for a, b in zip(lhs, rhs))
    return all(abs(float(a) - float(b)) <= 1e-12 * (abs(float(a)) + 1)
               for a, b in zip(lhs, rhs))


class QuadGraph(FaceComplex):
    """Vertices carry a color and optionally a 2D position; faces are
    4-cycles of vertex ids stored in clockwise order.

    The complex is built on first use.  Every face must first pass the check
    that validate reports (QuadGraphError), and an edge may bound at most
    two faces (the LoopModelError of FaceComplex.from_corners).  The colors,
    faces and positions are read-only, so the complex cannot go stale."""

    def __init__(self, colors, faces, positions=None, closed=False):
        self.colors = MappingProxyType(dict(colors))    # "black"/"white"
        self.faces = MappingProxyType({fid: tuple(c)
                                       for fid, c in faces.items()})
        self.positions = MappingProxyType(dict(positions or {}))
        self.closed = closed

    @cached_property
    def corner_ids(self):
        for fid, cyc in self.faces.items():
            for kind, detail in _face_violations(self.colors, fid, cyc):
                raise QuadGraphError(f"{kind}: {detail}")
        return {fid: self.corner_labels(fid)
                for fid in sorted(self.faces, key=str)}

    @cached_property
    def gluing(self):
        return FaceComplex.from_corners(self.corner_ids).gluing

    def corner_labels(self, fid):
        """(x, u, y, v) with x, y black, starting at the lex-least black
        corner and following the stored clockwise cycle."""
        cyc = self.faces[fid]
        blacks = [c for c in cyc if self.colors[c] == "black"]
        x = min(blacks)
        i = cyc.index(x)
        return (cyc[i], cyc[(i + 1) % 4], cyc[(i + 2) % 4], cyc[(i + 3) % 4])

    def to_json(self):
        return {
            "closed": self.closed,
            "vertices": [{"id": list(v) if isinstance(v, tuple) else v,
                          "color": self.colors[v],
                          "pos": [str(p) for p in self.positions.get(v, ())]}
                         for v in sorted(self.colors, key=str)],
            "faces": {str(fid): [list(c) if isinstance(c, tuple) else c
                                 for c in cyc]
                      for fid, cyc in sorted(self.faces.items(),
                                             key=lambda t: str(t[0]))},
        }


_ALTERNATING = (["black", "white"] * 2, ["white", "black"] * 2)


def _face_violations(colors, fid, cyc):
    """The (kind, detail) faults of one face cycle: it needs 4 distinct
    corners, each a known vertex, with colors alternating around it."""
    if len(cyc) != 4 or len(set(cyc)) != 4:
        return [("FaceDegree", f"face {fid} is not a quadrilateral")]
    unknown = [c for c in cyc if c not in colors]
    if unknown:
        return [("UnknownCorner", f"face {fid} corner {c} is not a vertex")
                for c in unknown]
    cols = [colors[c] for c in cyc]
    if cols not in _ALTERNATING:
        return [("CornerColors", f"face {fid} colors {cols}")]
    return []


def validate(graph):
    """Bipartiteness, face degrees, corner labels and the Euler count, read
    off the raw face cycles, so that a malformed graph is reported."""
    report = {"valid": True, "violations": []}

    def fail(kind, detail):
        report["valid"] = False
        report["violations"].append({"kind": kind, "detail": detail})

    sides = {}          # vertex pair -> face sides over it
    for fid, cyc in graph.faces.items():
        for kind, detail in _face_violations(graph.colors, fid, cyc):
            fail(kind, detail)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            e = frozenset((a, b))
            sides[e] = sides.get(e, 0) + 1
    for e in sides:
        if len(e) != 2:
            fail("DegenerateEdge", f"edge {sorted(e, key=str)} is a loop")
            continue
        a, b = sorted(e, key=str)
        if a in graph.colors and b in graph.colors and \
                graph.colors[a] == graph.colors[b]:
            fail("Bipartite", f"edge {a}-{b} joins equal colors")
    n_v = len(graph.colors)
    n_e = len(sides)
    n_f = len(graph.faces)
    if graph.closed:
        targets = {2: "sphere", 0: "torus"}
        if n_v - n_e + n_f not in targets:
            fail("Euler", f"{n_v}-{n_e}+{n_f} not a closed surface count")
    else:
        if n_v - n_e + n_f != 1:
            fail("Euler", f"{n_v}-{n_e}+{n_f} != 1")
    for e, n in sides.items():
        if n > 2:
            fail("EdgeIncidence", f"edge {sorted(e, key=str)} on {n} faces")
    return report


@dataclass
class TrainTrack:
    dual_edge_path: list        # the edges crossed, as FaceComplex.edge_of
    is_loop: bool
    crossings: list             # (fid, s): in by side s, out by side s + 2


def train_tracks(comp):
    """The strands of the rule s -> s + 2 (loopmodel.strands), which
    partition the glued and free sides of a FaceComplex into tracks crossing
    each face through opposite sides.  Open tracks start at the half-edges,
    then closed tracks at the remaining glued sides, each list in the order
    of the side's edge (its sorted corner names), face and slot; the tracks
    come back sorted by their edges."""
    exits = dict.fromkeys(comp.corner_ids, (2, 3, 0, 1))

    def order(slot):
        return sorted(map(str, comp.edge_of(*slot))), str(slot[0]), slot[1]

    walked = strands(comp, exits, sorted(comp.half_edges(), key=order))
    crossed = {slot for entries, _end, _closed in walked for slot in entries}
    walked += strands(comp, exits, sorted(
        ((fid, s) for fid, s in comp.gluing
         if (fid, s) not in crossed and (fid, exits[fid][s]) not in crossed),
        key=order))
    tracks = []
    for entries, end, closed in walked:
        path = [comp.edge_of(*slot) for slot in entries]
        if not closed:
            path.append(comp.edge_of(*end))
        tracks.append(TrainTrack(path, closed, entries))
    tracks.sort(key=lambda t: sorted(sorted(map(str, e))
                                     for e in t.dual_edge_path))
    return tracks


def track_census(comp):
    tracks = train_tracks(comp)
    if any(t.is_loop for t in tracks):
        raise LoopTrackPresent("census requires loop-free tracks")
    n_t = len(tracks)
    n_ext = len(comp.half_edges())
    n_int = len(comp.gluing) // 2
    n_v, n_f = len(comp.vertices()), len(comp.corner_ids)
    return {
        "T": n_t,
        "E_ext": n_ext,
        "checks": {
            "two_T_is_E_ext": 2 * n_t == n_ext,
            "face_edge_count": 4 * n_f == 2 * n_int + n_ext,
            "kernel_dimension": n_t + 1 == n_v - n_f,
        },
    }


# -- the parametrization solver ---------------------------------------------

def ff_ratio(w):
    """R_f = (w1/w5)^2, the face quantity the parametrization must realize."""
    return (Fraction(w.w1) / Fraction(w.w5)) ** 2 \
        if isinstance(w.w1, (int, Fraction)) and isinstance(w.w5, (int, Fraction)) \
        else (w.w1 / w.w5) ** 2


class MulValue:
    """Formal product prod_f base_f^{e_f} with rational exponents.

    Keeps the round trip through the parametrization exact: face ratios of
    the output are literal exponent-vector sums, no floating logs.  The
    exponents stay ints until root() halves them.
    """

    def __init__(self, exps=None):
        self.exps = {k: v for k, v in (exps or {}).items() if v != 0}

    def _add(self, other, sign):
        out = dict(self.exps)
        for k, v in other.exps.items():
            out[k] = out.get(k, 0) + sign * v
            if out[k] == 0:
                del out[k]
        return MulValue(out)

    def __mul__(self, other):
        return self._add(other, 1)

    def __truediv__(self, other):
        return self._add(other, -1)

    def root(self):
        """The square root: every exponent halved."""
        return MulValue({k: Fraction(v, 2) for k, v in self.exps.items()})

    def value(self, bases):
        out = 1.0
        for k in sorted(self.exps, key=str):
            out *= float(bases[k]) ** float(self.exps[k])
        return out

    def __eq__(self, other):
        return isinstance(other, MulValue) and self.exps == other.exps

    def __repr__(self):
        return f"MulValue({self.exps})"


def solve_parametrization(comp, weights):
    """Vertex quantities g with g_x g_y / (g_u g_v) = (w1/w5)^2 on every face.

    Solves Phi(h) = log R_f in the multiplicative group: each g_v is a formal
    product of the R_f with rational exponents (plus a float value), so the
    recovered face ratios are exact.  Also returns the per-face positive
    scalar relating the canonical parametrized weights to the input weights.

    The face map has a kernel of dimension |T| + 1 (a base value plus one
    increment h_right - h_left per oriented track, constant along the track),
    so the solution returned is the canonical one: its exponent vector is
    zero at the base vertex vertices()[0], and on every track the increment
    is zero at the track's first edge in sorted key order.  It is built by
    walking the tracks, with no linear solve.  Crossing face f from its side
    s to side s + 2, a track's increment changes by exactly +e_f when the
    corner after the entry side (corner s + 1) is black, that is when s is
    odd, and by -e_f when it is white.  Each track is walked outward from its
    first edge, then one traversal from the base vertex sets
    h_w = h_v +- increment along every edge; a mismatch on any edge raises
    Inconsistent.
    """

    for fid, w in weights.items():
        if not ff_check(w):
            raise NotFreeFermionic(f"face {fid} fails the weight relations")
    tracks = train_tracks(comp)
    if any(t.is_loop for t in tracks):
        raise LoopTrackPresent("parametrization requires loop-free tracks")

    ids = comp.side_ids(comp.face_ids())
    flank = {}      # side id -> (left, right, increment h_right - h_left)
    for t in tracks:
        keys = []       # the side id of each edge of the path
        steps = []      # +-e_f for each face the track crosses, in order
        for fid, s in t.crossings:
            cyc = comp.corner_ids[fid]
            steps.append(MulValue({fid: 1 if s % 2 else -1}))
            # the clockwise cycles keep the flanks of an edge coherent
            # between the two faces it separates
            for side, lr in ((s, (cyc[(s + 1) % 4], cyc[s])),
                             ((s + 2) % 4, (cyc[(s + 2) % 4],
                                            cyc[(s + 3) % 4]))):
                if flank.setdefault(ids[(fid, side)], lr) != lr:
                    raise Inconsistent("incoherent track flanks at "
                                       f"{sorted(lr, key=str)}")
            keys.append(ids[(fid, s)])
        keys.append(ids[(fid, (s + 2) % 4)])
        path = t.dual_edge_path
        k0 = min(range(len(path)), key=lambda k: sorted(map(str, path[k])))
        inc = {keys[k0]: MulValue()}
        for k in range(k0, len(steps)):
            inc[keys[k + 1]] = inc[keys[k]] * steps[k]
        for k in range(k0 - 1, -1, -1):
            inc[keys[k]] = inc[keys[k + 1]] / steps[k]
        for key, d in inc.items():
            flank[key] += (d,)

    adj = {}
    for left, right, d in flank.values():
        adj.setdefault(left, []).append((right, d, True))
        adj.setdefault(right, []).append((left, d, False))
    verts = comp.vertices()
    g_formal = {verts[0]: MulValue()}
    stack = [verts[0]]
    while stack:
        a = stack.pop()
        for b, d, forward in adj.get(a, ()):
            val = g_formal[a] * d if forward else g_formal[a] / d
            if b not in g_formal:
                g_formal[b] = val
                stack.append(b)
            elif g_formal[b] != val:
                raise Inconsistent(f"face system has no solution at {b}")
    if len(g_formal) != len(verts):
        raise Inconsistent("graph is not connected")

    fids = comp.face_ids()
    ratios = {fid: ff_ratio(weights[fid]) for fid in fids}
    g_num = {v: g_formal[v].value(ratios) for v in verts}
    scales = {}
    for fid in fids:
        x, u, y, v = comp.corner_ids[fid]
        prod = (g_formal[x] * g_formal[y] * g_formal[u] * g_formal[v]).root()
        scales[fid] = prod.value(ratios) / float(weights[fid].w5)
    return {"g": g_num, "g_formal": g_formal, "scales": scales,
            "ratios": ratios}


# -- simple constructors -----------------------------------------------------

def grid_quadgraph(nx, ny):
    """(nx x ny) array of quads on vertex grid (nx+1) x (ny+1)."""
    colors = {}
    positions = {}
    for i in range(nx + 1):
        for j in range(ny + 1):
            colors[(i, j)] = "black" if (i + j) % 2 == 0 else "white"
            positions[(i, j)] = (Fraction(i), Fraction(j))
    faces = {}
    for i in range(nx):
        for j in range(ny):
            # clockwise with y pointing up
            faces[(i, j)] = ((i, j), (i, j + 1), (i + 1, j + 1), (i + 1, j))
    return QuadGraph(colors, faces, positions)

"""Bipartite quadrangulations, train tracks, and the weight parametrization.

A QuadGraph is either a finite planar quadrangulation with a boundary (all
bounded faces have degree 4) or a quadrangulation of a closed surface given
by explicit face cycles.  Face corner cycles are stored clockwise; the two
black corners of a face are its (x, y) diagonal and the white corners are
(u, v), with x the lexicographically-least black corner.

Train tracks are paths in the dual that always leave a face through the edge
opposite to the one they entered.  For boundary graphs with no closed track
the counting identities 2|T| = |E_ext| and |T| + 1 = |V| - |F| hold, and the
per-face map h -> h_x + h_y - h_u - h_v is onto, which is what lets arbitrary
free-fermionic weights be rewritten in terms of vertex quantities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class QuadGraphError(Exception):
    pass


class LoopTrackPresent(QuadGraphError):
    pass


class NotFreeFermionic(QuadGraphError):
    pass


class Inconsistent(QuadGraphError):
    pass


class MissingValue(QuadGraphError):
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


class QuadGraph:
    """Vertices carry a color and optionally a 2D position; faces are
    4-cycles of vertex ids stored in clockwise order."""

    def __init__(self, colors, faces, positions=None, closed=False):
        self.colors = dict(colors)              # vertex id -> "black"/"white"
        self.faces = {fid: tuple(c) for fid, c in faces.items()}
        self.positions = dict(positions or {})
        self.closed = closed
        self._edge_faces = None

    # -- derived structure -------------------------------------------------

    def vertices(self):
        return sorted(self.colors, key=str)

    def face_sides(self, fid):
        """The four sides of a face as frozenset edges, in cyclic order."""
        cyc = self.faces[fid]
        return [frozenset((cyc[k], cyc[(k + 1) % 4])) for k in range(4)]

    def edges(self):
        out = set()
        for fid in self.faces:
            out.update(self.face_sides(fid))
        return out

    def edge_faces(self):
        if self._edge_faces is None:
            ef = {}
            for fid in sorted(self.faces, key=str):
                for e in self.face_sides(fid):
                    ef.setdefault(e, []).append(fid)
            self._edge_faces = ef
        return self._edge_faces

    def boundary_half_edges(self):
        """Edges adjacent to only one face (empty for closed surfaces)."""
        return sorted((e for e, fs in self.edge_faces().items()
                       if len(fs) == 1),
                      key=lambda e: sorted(map(str, e)))

    def corner_labels(self, fid):
        """(x, u, y, v) with x, y black, starting at the lex-least black
        corner and following the stored clockwise cycle."""
        cyc = self.faces[fid]
        blacks = [c for c in cyc if self.colors[c] == "black"]
        x = min(blacks)
        i = cyc.index(x)
        return (cyc[i], cyc[(i + 1) % 4], cyc[(i + 2) % 4], cyc[(i + 3) % 4])

    def degree(self, v):
        return sum(1 for e in self.edges() if v in e)

    def to_json(self):
        return {
            "closed": self.closed,
            "vertices": [{"id": list(v) if isinstance(v, tuple) else v,
                          "color": self.colors[v],
                          "pos": [str(p) for p in self.positions.get(v, ())]}
                         for v in self.vertices()],
            "faces": {str(fid): [list(c) if isinstance(c, tuple) else c
                                 for c in cyc]
                      for fid, cyc in sorted(self.faces.items(),
                                             key=lambda t: str(t[0]))},
        }


def validate(graph):
    """Bipartiteness, face degrees, corner labels and the Euler count."""
    report = {"valid": True, "violations": []}

    def fail(kind, detail):
        report["valid"] = False
        report["violations"].append({"kind": kind, "detail": detail})

    for fid, cyc in graph.faces.items():
        if len(cyc) != 4 or len(set(cyc)) != 4:
            fail("FaceDegree", f"face {fid} is not a quadrilateral")
            continue
        cols = [graph.colors[c] for c in cyc]
        if cols != ["black", "white", "black", "white"] and \
                cols != ["white", "black", "white", "black"]:
            fail("CornerColors", f"face {fid} colors {cols}")
    for e in graph.edges():
        if len(e) != 2:
            fail("DegenerateEdge", f"edge {sorted(e)} is a loop")
            continue
        a, b = sorted(e)
        if graph.colors[a] == graph.colors[b]:
            fail("Bipartite", f"edge {a}-{b} joins equal colors")
    n_v = len(graph.colors)
    n_e = len(graph.edges())
    n_f = len(graph.faces)
    if graph.closed:
        targets = {2: "sphere", 0: "torus"}
        if n_v - n_e + n_f not in targets:
            fail("Euler", f"{n_v}-{n_e}+{n_f} not a closed surface count")
    else:
        if n_v - n_e + n_f != 1:
            fail("Euler", f"{n_v}-{n_e}+{n_f} != 1")
    for e, fs in graph.edge_faces().items():
        if len(fs) > 2:
            fail("EdgeIncidence", f"edge {sorted(e)} on {len(fs)} faces")
    return report


@dataclass
class TrainTrack:
    dual_edge_path: list
    is_loop: bool


def _opposite_side(graph, fid, e):
    sides = graph.face_sides(fid)
    return sides[(sides.index(e) + 2) % 4]


def train_tracks(graph):
    """Partition of the dual edges into tracks that cross each face through
    opposite sides."""
    ef = graph.edge_faces()
    unused = set(ef)
    tracks = []
    # open tracks start at boundary half-edges
    for start in graph.boundary_half_edges():
        if start not in unused:
            continue
        path = [start]
        unused.discard(start)
        fid = ef[start][0]
        prev = start
        while True:
            nxt = _opposite_side(graph, fid, prev)
            path.append(nxt)
            unused.discard(nxt)
            fs = [f for f in ef[nxt] if f != fid]
            if not fs:
                break
            fid = fs[0]
            prev = nxt
        tracks.append(TrainTrack(path, False))
    # what remains are closed tracks
    while unused:
        start = min(unused, key=lambda e: sorted(map(str, e)))
        path = [start]
        unused.discard(start)
        fid = sorted(ef[start], key=str)[0]
        prev = start
        while True:
            nxt = _opposite_side(graph, fid, prev)
            if nxt == path[0] and len(path) > 1:
                break
            path.append(nxt)
            unused.discard(nxt)
            fs = [f for f in ef[nxt] if f != fid]
            if not fs:
                break
            fid = fs[0]
            prev = nxt
        tracks.append(TrainTrack(path, True))
    tracks.sort(key=lambda t: sorted(sorted(map(str, e)) for e in t.dual_edge_path))
    return tracks


def track_census(graph):
    tracks = train_tracks(graph)
    if any(t.is_loop for t in tracks):
        raise LoopTrackPresent("census requires loop-free tracks")
    n_t = len(tracks)
    ext = graph.boundary_half_edges()
    n_ext = len(ext)
    n_int = len(graph.edges()) - n_ext
    n_v, n_f = len(graph.colors), len(graph.faces)
    return {
        "T": n_t,
        "E_ext": n_ext,
        "checks": {
            "two_T_is_E_ext": 2 * n_t == n_ext,
            "face_edge_count": 4 * n_f == 2 * n_int + n_ext,
            "kernel_dimension": n_t + 1 == n_v - n_f,
        },
    }


def phi(graph, h):
    """Per-face h_x + h_y - h_u - h_v."""
    out = {}
    for fid in sorted(graph.faces, key=str):
        x, u, y, v = graph.corner_labels(fid)
        try:
            out[fid] = h[x] + h[y] - h[u] - h[v]
        except KeyError as exc:
            raise MissingValue(f"h missing at {exc}") from exc
    return out


def degree2_boundary(graph):
    """Vertices of degree exactly 2 lying on the outer boundary."""
    boundary_vertices = set()
    for e in graph.boundary_half_edges():
        boundary_vertices.update(e)
    return sorted(v for v in boundary_vertices if graph.degree(v) == 2)


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

    def root(self, n=2):
        return MulValue({k: Fraction(v, n) for k, v in self.exps.items()})

    def value(self, bases):
        out = 1.0
        for k in sorted(self.exps, key=str):
            out *= float(bases[k]) ** float(self.exps[k])
        return out

    def __eq__(self, other):
        return isinstance(other, MulValue) and self.exps == other.exps

    def __repr__(self):
        return f"MulValue({self.exps})"


def solve_parametrization(graph, weights):
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
    i to side i + 2, a track's increment changes by exactly +e_f when the
    corner after the entry side (cycle[i + 1]) is black and by -e_f when it
    is white.  Each track is walked outward from its first edge, then one
    traversal from the base vertex sets h_w = h_v +- increment along every
    edge; a mismatch on any edge raises Inconsistent.
    """
    from .ffdimers import ff_check  # local import to avoid a cycle

    for fid, w in weights.items():
        if not ff_check(w):
            raise NotFreeFermionic(f"face {fid} fails the weight relations")
    tracks = train_tracks(graph)
    if any(t.is_loop for t in tracks):
        raise LoopTrackPresent("parametrization requires loop-free tracks")

    ef = graph.edge_faces()
    flank = {}      # edge -> (left, right, increment h_right - h_left)
    for t in tracks:
        path = t.dual_edge_path
        steps = []      # +-e_f for each face the track crosses, in order
        fid = ef[path[0]][0]
        for e, nxt in zip(path, path[1:]):
            cyc, sides = graph.faces[fid], graph.face_sides(fid)
            i = sides.index(e)
            sign = 1 if graph.colors[cyc[(i + 1) % 4]] == "black" else -1
            steps.append(MulValue({fid: sign}))
            # the clockwise cycles keep the flanks of an edge coherent
            # between the two faces it separates
            for edge, lr in ((e, (cyc[(i + 1) % 4], cyc[i])),
                             (nxt, (cyc[(i + 2) % 4], cyc[(i + 3) % 4]))):
                if flank.setdefault(edge, lr) != lr:
                    raise Inconsistent(
                        f"incoherent track flanks at {sorted(edge)}")
            fid = next((f for f in ef[nxt] if f != fid), None)
        k0 = min(range(len(path)), key=lambda k: sorted(map(str, path[k])))
        inc = {path[k0]: MulValue()}
        for k in range(k0, len(steps)):
            inc[path[k + 1]] = inc[path[k]] * steps[k]
        for k in range(k0 - 1, -1, -1):
            inc[path[k]] = inc[path[k + 1]] / steps[k]
        for edge, d in inc.items():
            flank[edge] += (d,)

    adj = {}
    for left, right, d in flank.values():
        adj.setdefault(left, []).append((right, d, True))
        adj.setdefault(right, []).append((left, d, False))
    verts = graph.vertices()
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

    fids = sorted(graph.faces, key=str)
    ratios = {fid: ff_ratio(weights[fid]) for fid in fids}
    g_num = {v: g_formal[v].value(ratios) for v in verts}
    scales = {}
    for fid in fids:
        x, u, y, v = graph.corner_labels(fid)
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


def single_quad():
    return grid_quadgraph(1, 1)

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
    the output are literal exponent-vector sums, no floating logs.
    """

    def __init__(self, exps=None):
        self.exps = {k: v for k, v in (exps or {}).items() if v != 0}

    def __mul__(self, other):
        out = dict(self.exps)
        for k, v in other.exps.items():
            out[k] = out.get(k, Fraction(0)) + v
            if out[k] == 0:
                del out[k]
        return MulValue(out)

    def __truediv__(self, other):
        out = dict(self.exps)
        for k, v in other.exps.items():
            out[k] = out.get(k, Fraction(0)) - v
            if out[k] == 0:
                del out[k]
        return MulValue(out)

    def root(self, n=2):
        return MulValue({k: v / n for k, v in self.exps.items()})

    def value(self, bases):
        out = 1.0
        for k, e in self.exps.items():
            out *= float(bases[k]) ** float(e)
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
    """
    from .ffdimers import ff_check  # local import to avoid a cycle

    for fid, w in weights.items():
        if not ff_check(w):
            raise NotFreeFermionic(f"face {fid} fails the weight relations")
    tracks = train_tracks(graph)
    if any(t.is_loop for t in tracks):
        raise LoopTrackPresent("parametrization requires loop-free tracks")

    fids = sorted(graph.faces, key=str)
    verts = graph.vertices()
    vidx = {v: i for i, v in enumerate(verts)}
    # Phi as a rational matrix: rows faces, columns vertices.
    rows = []
    for fid in fids:
        x, u, y, v = graph.corner_labels(fid)
        row = [Fraction(0)] * len(verts)
        row[vidx[x]] += 1
        row[vidx[y]] += 1
        row[vidx[u]] -= 1
        row[vidx[v]] -= 1
        rows.append(row)
    # Solve Phi Q = I by Gaussian elimination on [Phi | I].
    m, n = len(fids), len(verts)
    aug = [rows[i] + [Fraction(1 if j == i else 0) for j in range(m)]
           for i in range(m)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    if r < m:
        raise Inconsistent("face system is rank deficient")  # defensive
    # Q[v][f]: exponent of R_f in g_v; zero on non-pivot columns.
    q = {v: {} for v in verts}
    for i, c in enumerate(pivots):
        for j in range(m):
            if aug[i][n + j] != 0:
                q[verts[c]][fids[j]] = aug[i][n + j]

    g_formal = {v: MulValue(q[v]) for v in verts}
    g_formal = _pin_kernel(graph, g_formal)

    ratios = {fid: ff_ratio(weights[fid]) for fid in fids}
    g_num = {v: g_formal[v].value(ratios) for v in verts}
    scales = {}
    for fid in fids:
        x, u, y, v = graph.corner_labels(fid)
        prod = (g_formal[x] * g_formal[y] * g_formal[u] * g_formal[v]).root()
        scales[fid] = prod.value(ratios) / float(weights[fid].w5)
    return {"g": g_num, "g_formal": g_formal, "scales": scales,
            "ratios": ratios}


def track_annotations(graph):
    """Orient every track and record, per crossed primal edge, which endpoint
    lies on the track's left and which on its right.

    For a kernel element of the face map, (h at right) - (h at left) is
    constant along a track; these annotations let a kernel element be rebuilt
    from its base value and one increment per track.
    """
    ef = graph.edge_faces()
    ann = {}

    def cross(fid, e_in, t_i):
        cyc = graph.faces[fid]
        sides = graph.face_sides(fid)
        i = sides.index(e_in)
        # clockwise-stored cycle: travelling from side i to side i+2 puts the
        # corners of side i+1 on the left
        left1, right1 = cyc[(i + 1) % 4], cyc[i]
        left2, right2 = cyc[(i + 2) % 4], cyc[(i + 3) % 4]
        for e, l, r in ((e_in, left1, right1),
                        (sides[(i + 2) % 4], left2, right2)):
            if e in ann and ann[e][1:] != (l, r):
                raise Inconsistent(f"incoherent track flanks at {sorted(e)}")
            ann[e] = (t_i, l, r)
        return sides[(i + 2) % 4]

    tracks = train_tracks(graph)
    for t_i, t in enumerate(tracks):
        e = t.dual_edge_path[0]
        fid = sorted(ef[e], key=str)[0]
        prev = e
        while True:
            nxt = cross(fid, prev, t_i)
            fs = [f for f in ef[nxt] if f != fid]
            if not fs or (t.is_loop and nxt == t.dual_edge_path[0]):
                break
            fid = fs[0]
            prev = nxt
    return tracks, ann


def _pin_kernel(graph, g_formal):
    """Canonicalize across the kernel of the face map: subtract the kernel
    element matching the current base value and per-track increments, leaving
    zero at the base vertex and zero increment along every track."""
    verts = graph.vertices()
    base = verts[0]
    tracks, ann = track_annotations(graph)
    first_edge = {}
    for e, (t_i, l, r) in sorted(ann.items(),
                                 key=lambda t: sorted(map(str, t[0]))):
        first_edge.setdefault(t_i, (l, r))

    def kernel_element(c0, alpha_vals):
        h = {base: c0}
        queue = [base]
        adj = {}
        for e in graph.edges():
            a, b = sorted(e)
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        while queue:
            v = queue.pop()
            for w_ in adj[v]:
                t_i, l, r = ann[frozenset((v, w_))]
                val = h[v] + alpha_vals[t_i] if v == l else \
                    h[v] - alpha_vals[t_i]
                if w_ not in h:
                    h[w_] = val
                    queue.append(w_)
                elif h[w_] != val:
                    raise Inconsistent("kernel reconstruction mismatch")
        return h

    out = {v: dict(g_formal[v].exps) for v in g_formal}
    keys = set()
    for v in verts:
        keys |= set(g_formal[v].exps)
    for key in sorted(keys, key=str):
        c0 = g_formal[base].exps.get(key, Fraction(0))
        avals = []
        for t_i in range(len(tracks)):
            l, r = first_edge[t_i]
            avals.append(g_formal[r].exps.get(key, Fraction(0))
                         - g_formal[l].exps.get(key, Fraction(0)))
        h = kernel_element(c0, avals)
        for v in out:
            e = out[v].get(key, Fraction(0)) - h[v]
            if e == 0:
                out[v].pop(key, None)
            else:
                out[v][key] = e
    return {v: MulValue(e) for v, e in out.items()}


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

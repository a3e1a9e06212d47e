"""The dense two-color loop model: local pictures, gluing, loops, weights.

Every face of a bipartite quadrangulation carries one of ten local pictures.
With the face corners written (x, u, y, v) clockwise, x black, the four dual
half-edges are the sides s0={x,u}, s1={u,y}, s2={y,v}, s3={v,x}, and the
pictures pair them as

  rows 1, 3:  {s0,s1} and {s2,s3}   (paths turning around u and around v)
  rows 2, 4:  {s3,s0} and {s1,s2}   (paths turning around x and around y)
  row  5:     {s0,s2} and {s1,s3}   (two crossing straight paths)

Rows 1-2 are monochromatic (variant a red, b blue); rows 3-5 have one path
of each color, the variant choosing which.  Gluing requires equal colors on
shared dual edges.

FaceComplex is the one surface type of the package: faces with four side
slots, corner 0 black, and an explicit gluing involution on the slots.  It
holds closed surfaces (spheres, torus fundamental domains where a face may
see the same vertex twice, spheres with parallel edges) as well as planar
windows with boundary half-edges.  quadgraph.QuadGraph is a FaceComplex read
from vertex colors and face cycles, and taut.window_complex gives a stepped
window's; every function here takes the complex it is given.  The one
backtracker, search, also lists the taut configurations of taut.py; every
configuration carries the closed-loop count the search kept.  Its face
order is fixed first, so each step knows which of its face's sides are
already colored and looks up only the pictures they allow in one table.

strands is the one strand walker of the package: enter a face by a side,
leave by the side a local rule gives, cross into the face glued there.  The
rule of an assignment's pictures gives its colored loops and paths (_trace,
on its own for reconstruction and for checks), s -> s + 2 the train tracks
(quadgraph.train_tracks) and s -> s + 1 the links around primal vertices
(ffdimers.gq_faces).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from functools import cache

from .quadfield import exact_product


class LoopModelError(Exception):
    pass


# name -> (row, pairs, colors-of-pairs)
LOCAL_CONFIGS = {
    "1a": (1, ((0, 1), (2, 3)), ("R", "R")),
    "1b": (1, ((0, 1), (2, 3)), ("B", "B")),
    "2a": (2, ((3, 0), (1, 2)), ("R", "R")),
    "2b": (2, ((3, 0), (1, 2)), ("B", "B")),
    "3a": (3, ((0, 1), (2, 3)), ("R", "B")),
    "3b": (3, ((0, 1), (2, 3)), ("B", "R")),
    "4a": (4, ((3, 0), (1, 2)), ("R", "B")),
    "4b": (4, ((3, 0), (1, 2)), ("B", "R")),
    "5a": (5, ((0, 2), (1, 3)), ("R", "B")),
    "5b": (5, ((0, 2), (1, 3)), ("B", "R")),
}
CONFIG_ORDER = ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b", "5a", "5b")


def side_colors(name):
    """Color of each of the four sides for a local picture."""
    _row, pairs, cols = LOCAL_CONFIGS[name]
    out = [None] * 4
    for (p, c) in zip(pairs, cols):
        out[p[0]] = c
        out[p[1]] = c
    return tuple(out)


@dataclass
class FaceComplex:
    """Faces with slot gluing.  corner_ids may repeat on small tori."""

    corner_ids: dict            # fid -> 4-tuple, corner 0 black
    gluing: dict = field(default_factory=dict)   # (fid, s) <-> (fid', s')

    def face_ids(self):
        return sorted(self.corner_ids, key=str)

    def half_edges(self):
        out = []
        for fid in self.face_ids():
            for s in range(4):
                if (fid, s) not in self.gluing:
                    out.append((fid, s))
        return out

    def glue_key(self, fid, s):
        other = self.gluing.get((fid, s))
        if other is None:
            return ("half", fid, s)
        return ("glued",) + min((fid, s), other, key=str)

    def is_closed(self):
        return not self.half_edges()

    def vertices(self):
        """The distinct corners, sorted by str."""
        return sorted({c for cyc in self.corner_ids.values() for c in cyc},
                      key=str)

    def edge_of(self, fid, s):
        """The primal edge under side s of face fid: its two corners."""
        cyc = self.corner_ids[fid]
        return frozenset((cyc[s], cyc[(s + 1) % 4]))

    def side_ids(self, faces):
        """Number the sides of the given faces 0, 1, ... in order: two sides
        glued to each other share an id, any other side has its own."""
        inside = set(faces)
        ids = {}
        n = 0
        for fid in faces:
            for s in range(4):
                if (fid, s) in ids:
                    continue
                ids[(fid, s)] = n
                partner = self.gluing.get((fid, s))
                if partner is not None and partner[0] in inside:
                    ids[partner] = n
                n += 1
        return ids

    @classmethod
    def from_corners(cls, corner_ids):
        """Glue the two face sides over each primal edge, visiting faces in
        corner_ids order; an edge may bound at most two faces.  An edge is
        keyed by its sorted corner pair."""
        comp = cls(corner_ids)
        incid = {}
        for fid, cyc in corner_ids.items():
            for s in range(4):
                a, b = cyc[s], cyc[(s + 1) % 4]
                incid.setdefault((a, b) if a <= b else (b, a),
                                 []).append((fid, s))
        for e, slots in incid.items():
            if len(slots) > 2:
                raise LoopModelError(
                    f"edge {sorted(e)} bounds {len(slots)} faces")
            if len(slots) == 2:
                comp.gluing[slots[0]] = slots[1]
                comp.gluing[slots[1]] = slots[0]
        return comp


def complex_from_quadgraph(graph):
    """A plain FaceComplex copy of a QuadGraph's corners and gluing."""
    return FaceComplex(dict(graph.corner_ids), dict(graph.gluing))


@dataclass
class BoundarySpec:
    mode: str = "free"          # free | closed_surface | fixed_colors |
    colors: dict = None         # fixed_connections
    connections: list = None    # [((he1, he2), color), ...]

    @staticmethod
    def free():
        return BoundarySpec("free")

    @staticmethod
    def closed():
        return BoundarySpec("closed_surface")

    @staticmethod
    def fixed_colors(colors):
        return BoundarySpec("fixed_colors", colors=dict(colors))

    @staticmethod
    def fixed_connections(connections):
        conn = [((tuple(a), tuple(b)), c) for (a, b), c in connections]
        seen = [he for (a, b), _ in conn for he in (a, b)]
        if len(seen) != len(set(seen)):
            raise LoopModelError("connection pairing is not a matching")
        return BoundarySpec("fixed_connections", connections=conn)


@dataclass
class LoopConfig:
    assignment: dict            # fid -> local picture name
    n_loops: int                # closed loops, as the search counted them

    def to_json(self):
        return {"faces": {str(f): t for f, t in sorted(
            self.assignment.items(), key=lambda t: str(t[0]))}}


def _check_boundary(comp, boundary):
    """The preset side colors and the terminal pairing of a boundary spec,
    after checking the spec against the complex: colors are R or B, and they
    name half-edges; connections pair every half-edge."""
    if boundary.mode in ("free", "closed_surface"):
        if boundary.mode == "closed_surface" and not comp.is_closed():
            raise LoopModelError("complex has boundary half-edges")
        return {}, None
    if boundary.mode == "fixed_colors":
        colors = {tuple(he): c for he, c in boundary.colors.items()}
        target = None
    elif boundary.mode == "fixed_connections":
        colors, target = {}, {}
        for (a, b), c in boundary.connections:
            colors[a] = colors[b] = c
            target[a], target[b] = b, a
    else:
        raise LoopModelError(f"unknown boundary mode {boundary.mode!r}")
    half = set(comp.half_edges())
    for he, c in colors.items():
        if he not in half:
            raise LoopModelError(f"{he} is not a boundary half-edge")
        if c not in ("R", "B"):
            raise LoopModelError(f"color {c!r} at {he} is not R or B")
    if target is not None and set(target) != half:
        raise LoopModelError("connections do not pair every half-edge")
    return colors, target


def enumerate_configs(graph, boundary=None):
    """All gluing-consistent assignments, in lexicographic order of their
    pictures' CONFIG_ORDER ranks along face_ids()."""
    boundary = boundary or BoundarySpec.free()
    colors, target = _check_boundary(graph, boundary)
    fids = graph.face_ids()
    ids = graph.side_ids(fids)
    found = search([tuple(ids[(fid, s)] for s in range(4)) for fid in fids],
                   {ids[he]: c for he, c in colors.items()},
                   target and {ids[a]: ids[b] for a, b in target.items()})
    return [LoopConfig({fid: CONFIG_ORDER[r] for fid, r in zip(fids, ranks)},
                       loops) for ranks, loops in found]


_SIDE_COLORS = {name: side_colors(name) for name in CONFIG_ORDER}
# per local picture, the side a strand entering by side s leaves by
_EXITS = {name: tuple(a + b - s for s in range(4) for a, b in pairs
                      if s in (a, b))
          for name, (_row, pairs, _cols) in LOCAL_CONFIGS.items()}
# per local picture, the FaceWeights field of its row
_ROW_WEIGHT = {name: f"w{row}" for name, (row, _p, _c) in LOCAL_CONFIGS.items()}
# (side colors, side pairs) of every local picture, in CONFIG_ORDER
_PICTURES = tuple((_SIDE_COLORS[name], LOCAL_CONFIGS[name][1])
                  for name in CONFIG_ORDER)


def _search_order(sides, decided):
    """Face positions, most constrained first: repeatedly the face with the
    most sides already decided (preset sides or sides of earlier faces),
    ties broken by position, with each face's count kept on a heap."""
    decided = set(decided)
    faces_of = {}
    for j, face in enumerate(sides):
        for e in set(face):
            faces_of.setdefault(e, []).append(j)
    count = [len(decided.intersection(face)) for face in sides]
    heap = [(-c, j) for j, c in enumerate(count)]
    heapq.heapify(heap)
    order = []
    while heap:
        c, i = heapq.heappop(heap)
        if count[i] != -c:
            continue                # a stale count, or a face taken
        count[i] = None
        order.append(i)
        for e in set(sides[i]) - decided:
            decided.add(e)
            for j in faces_of[e]:
                if count[j] is not None:
                    count[j] += 1
                    heapq.heappush(heap, (-count[j], j))
    return order


@cache
def _candidates(decided, alike):
    """(rank, colors, pairs) of each picture a step may place, keyed by its
    colors at the decided positions 0-3 of the face; alike holds the pairs
    of undecided positions sharing a side id, which it must color alike."""
    table = {}
    for rank, (cols, pairs) in enumerate(_PICTURES):
        if all(cols[p] == cols[q] for p, q in alike):
            table.setdefault(tuple(cols[p] for p in decided), []).append(
                (rank, cols, pairs))
    return table


def search(sides, colors, target=None):
    """Every choice of local pictures on faces glued along numbered sides.

    sides[i] holds the ids 0..m-1 of face i's four sides: an id on two face
    sides glues them, an id on one side is a terminal.  colors presets
    side ids; strands are kept as chains between unjoined plugs, and when
    target (terminal id -> terminal id) is given, a chain may only join two
    terminals that it pairs.  Faces are taken in _search_order, which fixes
    the sides of each step's face decided by a preset or an earlier face:
    the step looks its candidates up in _candidates by their colors, and
    writes its other sides' colors unchecked, as only later steps read them.
    Returns (CONFIG_ORDER ranks along sides, closed loops) pairs, sorted.
    """
    n = len(sides)
    top = 4 * n
    uses = {}
    for i, face in enumerate(sides):
        for s, e in enumerate(face):
            uses.setdefault(e, []).append(4 * i + s)
    # plug 4i+s is side s of face i, plug top+e the terminal of side id e;
    # ends[p] is the far end of the chain at an unjoined plug p
    ends = [None] * (top + len(uses))
    for e, plugs in uses.items():
        a, b = plugs if len(plugs) == 2 else (plugs[0], top + e)
        ends[a], ends[b] = b, a
    color = [colors.get(e) for e in range(len(uses))]
    # per step: face, first plug, decided ids, (undecided id, position)s
    steps = []
    known = set(colors)
    for i in _search_order(sides, colors):
        face = sides[i]
        decided = tuple(p for p in range(4) if face[p] in known)
        alike = tuple((p, q) for p in range(4) for q in range(p + 1, 4)
                      if face[p] == face[q] not in known)
        steps.append((i, 4 * i, [face[p] for p in decided],
                      [(e, p) for p, e in enumerate(face) if e not in known],
                      _candidates(decided, alike)))
        known.update(face)
    picks = [None] * n
    found = []
    loops = 0

    def rec(k):
        nonlocal loops
        if k == n:
            found.append((tuple(picks), loops))
            return
        i, base, decided, free, table = steps[k]
        for rank, cols, pairs in table.get(tuple([color[e] for e in decided]),
                                           ()):
            for e, p in free:
                color[e] = cols[p]
            log = []
            for s1, s2 in pairs:
                p1, p2 = base + s1, base + s2
                a, b = ends[p1], ends[p2]
                if a == p2:
                    loops += 1
                    log.append(None)
                    continue
                ends[a], ends[b] = b, a
                log.append((a, p1, b, p2))
                if target is not None and a >= top and b >= top \
                        and target[a - top] != b - top:
                    break
            else:
                picks[i] = rank
                rec(k + 1)
            for item in reversed(log):
                if item is None:
                    loops -= 1
                else:
                    a, p1, b, p2 = item
                    ends[a], ends[b] = p1, p2

    rec(0)
    del rec             # rec holds itself through its cell
    found.sort()
    return found


def strands(comp, exits, starts):
    """The strands of a local rule on a complex.

    exits maps every face to its rule, whose entry s is the side a strand
    entering by side s leaves by.  From each start slot not yet used, a
    strand enters its face there, leaves by the side the rule gives and
    crosses into the face glued to that side, until it reaches a free side
    or a used slot.  A slot is used once a strand enters by it, and also
    once a strand leaves by it when the rule leads straight back, so every
    slot is walked at most once, under an involutive rule too.  Returns
    (entry slots, last exit slot, closed) for each strand, in the order of
    their starts; a strand is closed when it came back to its start.
    """
    gluing = comp.gluing
    used = set()
    out = []
    for start in starts:
        if start in used:
            continue
        entries = []
        slot = start
        while True:
            entries.append(slot)
            used.add(slot)
            fid, s = slot
            rule = exits[fid]
            end = (fid, rule[s])
            if rule[rule[s]] == s:
                used.add(end)
            slot = gluing.get(end)
            if slot is None or slot in used:
                break
        out.append((entries, end, slot == start))
    return out


def _trace(comp, assignment):
    """Walk the strands of an assignment (fid -> local picture name) with
    strands, independently of the search: free sides first, so that every
    path is walked from one of its ends.

    Returns (loops, paths): each closed loop as (color, row-5 faces it
    crosses), each path as ((end, end), color) with its two half-edges.
    """
    starts = [(fid, s) for fid, name in assignment.items()
              for pair in LOCAL_CONFIGS[name][1] for s in pair]
    loops, paths = [], []
    for entries, end, closed in strands(
            comp, {fid: _EXITS[name] for fid, name in assignment.items()},
            sorted(starts, key=comp.gluing.__contains__)):
        fid, s = entries[0]
        color = _SIDE_COLORS[assignment[fid]][s]
        if closed:
            loops.append((color, sum(LOCAL_CONFIGS[assignment[f]][0] == 5
                                     for f, _s in entries)))
        else:
            paths.append(((entries[0], end), color))
    return loops, paths


def count_loops(graph, assignment):
    """Number of finite closed monochromatic loops (paths to the boundary
    are not counted)."""
    loops, _paths = _trace(graph, assignment)
    return len(loops)


def weight(graph, config, W):
    """2^loops * prod of local weights, with the loop count the search
    reported (graph is not traced), as one exact_product."""
    return exact_product([getattr(W[fid], _ROW_WEIGHT[name])
                          for fid, name in config.assignment.items()],
                         2 ** config.n_loops)


def partition_function(graph, W, boundary=None):
    total = 0
    for cfg in enumerate_configs(graph, boundary):
        total = weight(graph, cfg, W) + total
    return total

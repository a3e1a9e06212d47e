"""Height-periodic initial data, the origin observable, and the arctic curve.

With values (a, b, c) on three consecutive height layers, the recurrence
solution depends only on height and has a closed form in R = ac/b^2 and
S = bd/c^2, the two of them tied by R^2 S^2 - 6RS - 4R - 4S - 3 = 0.  The
origin observable rho (a logarithmic derivative of the partition function in
the origin variable) then satisfies two alternating linear recurrences whose
generating function has an explicit denominator, and the limit shape is the
dual of a symmetric plane cubic."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .stepped import height, slab_solid, surface_graph
from .kashaev import solve_origin


class LimitShapeError(Exception):
    pass


class IntrinsicViolated(LimitShapeError):
    pass


def intrinsic_residual(R, S):
    return R * R * S * S - 6 * R * S - 4 * R - 4 * S - 3


def _finite_positive(**values):
    """LimitShapeError unless every value is a finite positive float."""
    for name, x in values.items():
        if not 0 < x < math.inf:
            raise LimitShapeError(f"{name} = {x} is not finite and positive")


def s_from_r(R):
    """Greatest root of the intrinsic relation in S."""
    if not R > 0:
        raise LimitShapeError(f"R = ac/b^2 must be positive, got {R}")
    A = R * R
    B = -(6 * R + 4)
    C = -(4 * R + 3)
    try:
        S = (-B + math.sqrt(B * B - 4 * A * C)) / (2 * A)
    except (OverflowError, ZeroDivisionError) as exc:
        raise LimitShapeError(f"S is out of float range at R = {R}") from exc
    _finite_positive(R=R, S=S)
    return S


def rs_from_abc(a, b, c):
    """R, S and the first new layer d from three initial layers."""
    if min(a, b, c) <= 0:
        raise LimitShapeError("layers must be positive")
    try:
        d = (2 * b ** 3 + 3 * a * b * c + 2 * (a * c + b * b) ** 1.5) / a ** 2
        R = a * c / (b * b)
        S = b * d / (c * c)
    except (OverflowError, ZeroDivisionError) as exc:
        raise LimitShapeError("R, S or d is out of float range at layers "
                              f"{a}, {b}, {c}") from exc
    _finite_positive(R=R, S=S, d=d)
    res = intrinsic_residual(R, S)
    if abs(res) > 1e-9 * (1 + (R * S) ** 2):
        raise IntrinsicViolated(f"residual {res}")
    return R, S, d


def y_closed_form(N, a, b, c):
    """(Y_N, X_N) for the height-only solution."""
    if N < 0:
        raise LimitShapeError("N must be nonnegative")
    R, S, _d = rs_from_abc(a, b, c)

    def y(k):
        if k % 2 == 0:
            n = k // 2
            return a ** (1 - 2 * n) * b ** (2 * n) * R ** (n * n) \
                * S ** (n * n - n)
        n = (k - 1) // 2
        return a ** (-2 * n) * b ** (2 * n + 1) * R ** (n * n + n) \
            * S ** (n * n)

    if N % 2 == 0:
        x = math.sqrt(1 + R) * y(N + 1)
    else:
        x = math.sqrt(1 + S) * y(N + 1)
    return y(N), x


def rho_coeffs(R, S=None):
    """Coefficients of the two linear relations on the observable."""
    if S is None:
        S = s_from_r(R)
    if not (R > 0 and S > 0):
        raise LimitShapeError(f"R and S must be positive, got {R}, {S}")
    if abs(intrinsic_residual(R, S)) > 1e-6 * (1 + (R * S) ** 2):
        raise IntrinsicViolated("R, S do not satisfy the intrinsic relation")
    sr = math.sqrt(1 + R)
    ss = math.sqrt(1 + S)
    alpha = (3 + 3 * sr - 2 * R * S) / (R * S)
    beta = (2 + 2 * sr + R) / (R * R * S)
    gamma = (1 + sr) / (R * S)
    alpha_p = (3 + 3 * ss - 2 * R * S) / (R * S)
    # the primed middle coefficient mirrors beta with R and S exchanged;
    # this is forced both by the two-form denominator identity (it needs
    # beta * beta_p = gamma * gamma_p) and by finite-difference derivatives
    # of the numeric recurrence
    beta_p = (2 + 2 * ss + S) / (R * S * S)
    gamma_p = (1 + ss) / (R * S)
    return alpha, beta, gamma, alpha_p, beta_p, gamma_p


RHO_MAX_N = 400     # the (N+2)^3 float64 grid is then about 496 MiB


class RhoValues(Mapping):
    """Read-only view (i, j, k) -> rho over the nonzero entries of the
    padded grid, where grid[i+1, j+1, k+1] = rho(i, j, k).  Keys iterate in
    sorted order; a key outside the cone i, j, k >= 0, i+j+k <= N is
    missing."""

    def __init__(self, grid):
        self._grid = grid
        self._len = int(np.count_nonzero(grid))

    def __getitem__(self, key):
        try:
            i, j, k = key
            v = self._grid[i + 1, j + 1, k + 1] if min(i, j, k) >= 0 else 0.0
        except (TypeError, ValueError, IndexError):
            v = 0.0
        if v == 0.0:
            raise KeyError(key)
        return float(v)

    def slabs(self):
        """For i = 0..N in turn: i, the sorted [j, k] of the nonzero entries
        of that slab and their values, as lists."""
        for i, s in enumerate(self._grid[1:]):
            yield i, (np.argwhere(s) - 1).tolist(), s[s != 0.0].tolist()

    def __iter__(self):
        for i, jk, _vals in self.slabs():
            for j, k in jk:
                yield (i, j, k)

    def __len__(self):
        return self._len


@dataclass
class RhoField:
    N: int
    R: float
    S: float
    values: RhoValues   # (i, j, k) with i, j, k >= 0, i+j+k <= N


def rho_field(N, R):
    """Fill the observable on the nonnegative cone up to height N.

    Heights 0..2 carry the delta at the origin (the partition function of
    the uncarved slab is just the corner variable); the alternating linear
    relations then fill upward, one height layer at a time, into a
    zero-padded grid with grid[i+1, j+1, k+1] = rho(i, j, k).  The grid entry
    at the flat index f of y = (i, j, k) holds rho(x) for x = y - (1, 1, 1),
    so x + e sits at f + d_e and rho(y) at f + dx + dy + dz."""
    if N < 3:
        raise LimitShapeError("N must be at least 3")
    if N > RHO_MAX_N:
        raise LimitShapeError(f"N must be at most {RHO_MAX_N}, got {N}")
    S = s_from_r(R)
    alpha, beta, gamma, alpha_p, beta_p, gamma_p = rho_coeffs(R, S)
    n = N + 2
    dx, dy, dz = n * n, n, 1
    g = np.zeros(n ** 3)
    g[dx + dy + dz] = 1.0
    ij = np.add.outer(np.arange(N + 1), np.arange(N + 1))
    for h in range(3, N + 1):
        i, j = np.nonzero(ij[:h + 1, :h + 1] <= h)
        f = i * dx + j * dy + (h - i - j) * dz
        # height(x) = h - 3 is even exactly when h is odd
        if h % 2:
            ca, cb, cg = alpha, beta, gamma
        else:
            ca, cb, cg = alpha_p, beta_p, gamma_p
        val = ca * g[f]
        val += cb * (g[f + dx] + g[f + dy] + g[f + dz])
        val += cg * (g[f + dx + dy] + g[f + dx + dz] + g[f + dy + dz])
        g[f + dx + dy + dz] = val
    g = g.reshape(n, n, n)
    g.flags.writeable = False
    return RhoField(N, R, S, RhoValues(g))


def _slab_init(N, a, b, c, vertices):
    layer = {0: a, 1: b, 2: c}
    return {v: layer.get(height(v) + N, 1.0) for v in vertices}


def rho_oracle(x, a, b, c):
    """The observable at x from the symbolic solution: the logarithmic
    derivative of the origin value in the single vertex variable sitting at
    -x, with the face-root chain rule, evaluated at the layered point."""
    N = height(x)
    if N < 0 or min(x) < 0:
        raise LimitShapeError("x must lie in the nonnegative cone")
    if N <= 2:
        return 1.0 if x == (0, 0, 0) else 0.0
    U = slab_solid(N)
    sg = surface_graph(U)
    poly = solve_origin(U, mode="symbolic")
    target = tuple(-t for t in x)
    vname = sg.vertex_var_name(target)
    point = _slab_init(N, a, b, c, sg.vertices)
    assign = {sg.vertex_var_name(v): point[v] for v in sg.vertices}
    reg = poly.registry
    # numeric values of the root squares and the target's diagonal partner
    root_info = {}
    for key, (p1, q1, p2, q2) in sg.faces.items():
        rn = sg.face_root_name(key)
        if rn not in reg.root_vars:
            continue
        qval = point[p1] * point[p2] + point[q1] * point[q2]
        partner = None
        if target == p1:
            partner = point[p2]
        elif target == p2:
            partner = point[p1]
        elif target == q1:
            partner = point[q2]
        elif target == q2:
            partner = point[q1]
        root_info[rn] = (qval, partner)
    num = 0.0
    den = 0.0
    tval = point[target]
    for mono, coeff in poly.terms.items():
        val = float(coeff)
        logderiv = 0.0
        for name, e in mono:
            if reg.is_root(name):
                qval, partner = root_info[name]
                val *= math.sqrt(qval) ** e
                if partner is not None:
                    logderiv += e * tval * partner / (2 * qval)
            else:
                val *= assign[name] ** e
                if name == vname:
                    logderiv += e
        num += val * logderiv
        den += val
    return num / den


# ---------------------------------------------------------------------------
# generating-function denominator and the dual curve
# ---------------------------------------------------------------------------

def h_denominator(R, x, y, z, S=None):
    """The two expressions for the denominator: the product form from the
    pair of linear relations and the theta-factored form."""
    if S is None:
        S = s_from_r(R)
    alpha, beta, gamma, alpha_p, beta_p, gamma_p = rho_coeffs(R, S)
    theta = gamma * gamma_p
    e = x + y + z
    q = x * y + x * z + y * z
    form1 = (alpha * x * y * z + gamma * e) \
        * (alpha_p * x * y * z + gamma_p * e) \
        - (1 - beta * q) * (1 - beta_p * q)
    form2 = theta * (x * x - 1) * (y * y - 1) * (z * z - 1) \
        + (1 - theta) * (x * y - 1) * (x * z - 1) * (y * z - 1)
    return form1, form2


def h_identity_check(seed):
    """The two forms of h_denominator agree to 1e-9 at 1000 random points
    for each of 10 random R."""
    import random as _random
    rng = _random.Random(seed)
    for _ in range(10):
        R = math.exp(rng.uniform(-2.0, 2.0))
        for _ in range(1000):
            pt = [rng.uniform(-2, 2) for _ in range(3)]
            f1, f2 = h_denominator(R, *pt)
            if abs(f1 - f2) > 1e-9 * (1 + abs(f1) + abs(f2)):
                return False
    return True


def lambda_param(R, S=None):
    if S is None:
        S = s_from_r(R)
    _a, _b, gamma, _ap, _bp, gamma_p = rho_coeffs(R, S)
    theta = gamma * gamma_p
    lam = 2 * (1 + 3 * theta) / (1 - theta)
    if not 2 < lam <= 3 + 1e-12:
        raise LimitShapeError(f"lambda {lam} outside (2, 3]")
    return min(lam, 3.0)


@dataclass
class DualCurve:
    lam: float
    outer: list          # ordered 3D points on x+y+z = -1
    inner: list


def _cubic_gradient(lam, X, Y, Z):
    gx = 2 * X * Y + Y * Y + 2 * X * Z + Z * Z + lam * Y * Z
    gy = X * X + 2 * X * Y + 2 * Y * Z + Z * Z + lam * X * Z
    gz = X * X + 2 * X * Z + Y * Y + 2 * Y * Z + lam * X * Y
    return gx, gy, gz


def _cubic_points(lam, n_samples):
    """Real points of the symmetric cubic, from the chart Z = 1 (quadratic
    in Y) plus the three coordinate points."""
    pts = []
    ts = [math.tan(math.pi * (k + 0.5) / n_samples - math.pi / 2)
          for k in range(n_samples)]
    for X in ts:
        A = X + 1
        B = X * X + lam * X + 1
        C = X * X + X
        if abs(A) < 1e-12:
            if abs(B) > 1e-12:
                pts.append((X, -C / B, 1.0))
            continue
        disc = B * B - 4 * A * C
        if disc < 0:
            continue
        rt = math.sqrt(disc)
        for sgn in (1, -1):
            Yv = (-B + sgn * rt) / (2 * A)
            pts.append((X, Yv, 1.0))
    pts.extend([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
    # symmetry completion: the cubic is invariant under permutations
    full = []
    for (X, Y, Z) in pts:
        full.extend([(X, Y, Z), (Z, X, Y), (Y, Z, X)])
    return full


_CENTER = (-1 / 3, -1 / 3, -1 / 3)
_U1 = (1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)
_U2 = (1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6))


def _plane_coords(p):
    """Orthonormal coordinates of p in the plane x+y+z = -1, centered at
    (-1/3, -1/3, -1/3)."""
    d = (p[0] - _CENTER[0], p[1] - _CENTER[1], p[2] - _CENTER[2])
    return (sum(a * b for a, b in zip(d, _U1)),
            sum(a * b for a, b in zip(d, _U2)))


def dual_curve(lam, n_points=360):
    """Tangent-plane dual of the cubic, rendered in the plane x+y+z = -1."""
    if not 2 < lam <= 3:
        raise LimitShapeError("lambda must lie in (2, 3]")
    raw = []
    for (X, Y, Z) in _cubic_points(lam, n_points):
        g = _cubic_gradient(lam, X, Y, Z)
        norm = math.sqrt(sum(t * t for t in g))
        if norm < 1e-10:
            continue
        s = g[0] + g[1] + g[2]
        if abs(s) < 1e-9 * norm:
            continue
        raw.append(tuple(-t / s for t in g))
    deco = {}
    for p in raw:
        px, py = _plane_coords(p)
        key = (round(px, 9), round(py, 9))
        deco[key] = (math.atan2(py, px), (px, py), p)
    pts = sorted(deco.values())
    # the outer boundary is convex (it is the dual of the oval component),
    # while the facet boundary sits strictly inside it: classify by distance
    # to the convex hull of the whole cloud, which is 0 at a hull vertex
    hull = _convex_hull([xy for _a, xy, _p in pts])
    tol = 1e-6 * max(max(abs(x), abs(y)) for x, y in hull)
    on_hull = set(hull)
    rest = [xy for _a, xy, _p in pts if xy not in on_hull]
    near = dict(zip(rest, _hull_distance(rest, hull) <= tol))
    outer, inner = [], []
    for a, xy, p in pts:
        (outer if xy in on_hull or near[xy] else inner).append((a, p))
    return DualCurve(lam, [p for _a, p in sorted(outer)],
                     [p for _a, p in sorted(inner)])


def _convex_hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


_HULL_BLOCK = 256   # points per row block of _hull_distance


def _hull_distance(points, hull):
    """Distance from each point to the closed polygon `hull`: the least
    distance to any of its edges, computed for _HULL_BLOCK points at a
    time."""
    a = np.array(hull)
    ax, ay = a[:, 0], a[:, 1]
    ex = np.roll(ax, -1) - ax
    ey = np.roll(ay, -1) - ay
    l2 = ex * ex + ey * ey
    q = np.array(points, dtype=float).reshape(-1, 2)
    out = np.empty(len(q))
    for s in range(0, len(q), _HULL_BLOCK):
        qx, qy = q[s:s + _HULL_BLOCK, :1], q[s:s + _HULL_BLOCK, 1:]
        t = np.clip(((qx - ax) * ex + (qy - ay) * ey) / l2, 0.0, 1.0)
        out[s:s + _HULL_BLOCK] = np.hypot(qx - (ax + t * ex),
                                    qy - (ay + t * ey)).min(axis=1)
    return out


# ---------------------------------------------------------------------------
# exporters
# ---------------------------------------------------------------------------

def export_heatmap(field, path):
    with open(path, "w") as fh:
        fh.write("i,j,k,rho\n")
        for i, jk, vals in field.values.slabs():
            fh.write("".join(f"{i},{j},{k},{v:.12g}\n"
                             for (j, k), v in zip(jk, vals)))
    return path


def export_curve(curve, path):
    """SVG, 600 pixels square, with the bounding triangle and the curve
    polylines."""
    size = 600
    corners3 = [(-1, 0, 0), (0, -1, 0), (0, 0, -1)]

    def xy(p):
        px, py = _plane_coords(p)
        return (size / 2 + px * size / 2.2, size / 2 - py * size / 2.2)

    def fmt(points):
        return " ".join(f"{x:.6f},{y:.6f}" for x, y in map(xy, points))

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
             f'height="{size}" viewBox="0 0 {size} {size}">']
    parts.append(f'<polygon points="{fmt(corners3)}" fill="none" '
                 'stroke="black" stroke-width="1"/>')
    if curve.outer:
        parts.append(f'<polygon points="{fmt(curve.outer)}" fill="none" '
                     'stroke="blue" stroke-width="1.5"/>')
    if len(curve.inner) > 2:
        parts.append(f'<polygon points="{fmt(curve.inner)}" fill="none" '
                     'stroke="red" stroke-width="1.5"/>')
    elif curve.inner:
        x, y = xy(curve.inner[0])
        parts.append(f'<circle cx="{x:.6f}" cy="{y:.6f}" r="2" '
                     'fill="red"/>')
    parts.append("</svg>")
    data = "\n".join(parts) + "\n"
    with open(path, "w") as fh:
        fh.write(data)
    return path

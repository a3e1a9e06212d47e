"""Closed forms, the origin observable, the denominator, the arctic curve."""

import math
import random

import pytest

from c2loop import limitshape
from c2loop.kashaev import solve_origin
from c2loop.limitshape import (
    DualCurve,
    _convex_hull,
    _hull_distance,
    _plane_coords,
    IntrinsicViolated,
    LimitShapeError,
    dual_curve,
    export_curve,
    export_heatmap,
    h_denominator,
    h_identity_check,
    intrinsic_residual,
    lambda_param,
    rho_coeffs,
    rho_field,
    rho_oracle,
    RHO_MAX_N,
    rs_from_abc,
    s_from_r,
    y_closed_form,
)
from c2loop.loopmodel import LOCAL_CONFIGS
from c2loop.stepped import height, slab_solid, surface_graph, vadd
from c2loop.taut import build_taut_window, enumerate_taut, taut_weight
from conftest import cube_from_bottom, kashaev_relation_residual

SQRT2 = math.sqrt(2)


def test_rs_from_abc_ones():
    R, S, d = rs_from_abc(1, 1, 1)
    assert R == 1
    assert d == pytest.approx(5 + 4 * SQRT2, rel=1e-12)
    assert S == pytest.approx(5 + 4 * SQRT2, rel=1e-12)


def test_intrinsic_values():
    assert intrinsic_residual(3, 3) == 0
    assert intrinsic_residual(1, 5 + 4 * SQRT2) == pytest.approx(0, abs=1e-12)
    assert intrinsic_residual(1, 1) == -16


def test_greatest_root_s02():
    # largest root in R when S = 0.2
    R = s_from_r(0.2)  # symmetric relation: same functional form
    assert R == pytest.approx(130.7, abs=0.1)


def test_y_closed_form_initial_layers():
    a, b, c = 1.3, 0.8, 1.1
    assert y_closed_form(0, a, b, c)[0] == pytest.approx(a)
    assert y_closed_form(1, a, b, c)[0] == pytest.approx(b)
    assert y_closed_form(2, a, b, c)[0] == pytest.approx(c)
    _R, _S, d = rs_from_abc(a, b, c)
    assert y_closed_form(3, a, b, c)[0] == pytest.approx(d, rel=1e-12)


def test_y4_matches_slab_solve():
    U = slab_solid(4)
    sg = surface_graph(U)
    init = {v: {0: 1.0, 1: 1.0, 2: 1.0}.get(height(v) + 4, 1.0)
            for v in sg.vertices}
    got = solve_origin(U, g_init=init, mode="numeric",
                       window_radius=sg.window_radius)
    assert y_closed_form(4, 1, 1, 1)[0] == pytest.approx(got, rel=1e-9)


def test_y_satisfies_cube_relation():
    rng = random.Random(8)
    for _ in range(10):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        c = rng.uniform(0.5, 2.0)
        for n in range(0, 12):
            y0 = y_closed_form(n, a, b, c)[0]
            y1 = y_closed_form(n + 1, a, b, c)[0]
            y2 = y_closed_form(n + 2, a, b, c)[0]
            y3 = y_closed_form(n + 3, a, b, c)[0]
            cube = dict(cube_from_bottom(y0, y1, y1, y1, y2, y2, y2),
                        g123=y3)
            res = kashaev_relation_residual(cube)
            scale = (y0 * y3 + y1 * y2) ** 2
            assert abs(res) <= 1e-9 * scale, (n, a, b, c)


def test_x_identity():
    rng = random.Random(3)
    for _ in range(10):
        a, b, c = (rng.uniform(0.5, 2.0) for _ in range(3))
        for n in range(0, 10):
            y0 = y_closed_form(n, a, b, c)[0]
            y1, x0 = y_closed_form(n + 1, a, b, c)[0], \
                y_closed_form(n, a, b, c)[1]
            y2 = y_closed_form(n + 2, a, b, c)[0]
            assert x0 * x0 == pytest.approx(y0 * y2 + y1 * y1, rel=1e-12)


def test_rho_coeffs_symmetric_point():
    alpha, beta, gamma, ap, bp, gp = rho_coeffs(3.0, 3.0)
    assert alpha == pytest.approx(-1)
    assert beta == pytest.approx(1 / 3)
    assert gamma == pytest.approx(1 / 3)
    assert (ap, bp, gp) == (pytest.approx(-1), pytest.approx(1 / 3),
                            pytest.approx(1 / 3))
    assert gamma * gp == pytest.approx(1 / 9)


def test_rho_coeffs_alpha_at_ones():
    alpha = rho_coeffs(1.0)[0]
    assert alpha == pytest.approx(-(5 + 3 * SQRT2) / 7, abs=1e-12)


def _rho_field_loop(N, R, S=None):
    """The point-by-point fill the layered grid replaced, kept as its
    oracle: the same operations in the same order, into a dict."""
    if S is None:
        S = s_from_r(R)
    alpha, beta, gamma, alpha_p, beta_p, gamma_p = rho_coeffs(R, S)
    vals = {(0, 0, 0): 1.0}

    def get(p):
        return vals.get(p, 0.0)

    for h in range(3, N + 1):
        for i in range(h + 1):
            for j in range(h + 1 - i):
                k = h - i - j
                y = (i, j, k)
                x = (i - 1, j - 1, k - 1)
                if height(x) % 2 == 0:
                    ca, cb, cg = alpha, beta, gamma
                else:
                    ca, cb, cg = alpha_p, beta_p, gamma_p
                val = ca * get(x)
                val += cb * (get(vadd(x, (1, 0, 0))) + get(vadd(x, (0, 1, 0)))
                             + get(vadd(x, (0, 0, 1))))
                val += cg * (get(vadd(x, (1, 1, 0))) + get(vadd(x, (1, 0, 1)))
                             + get(vadd(x, (0, 1, 1))))
                if val != 0.0:
                    vals[y] = val
    return vals


@pytest.mark.parametrize("N, R", [(3, 1.0), (4, 1.0), (6, 0.9), (40, 0.2),
                                  (80, 0.7), (81, 2.5), (40, 1 / 16),
                                  (40, 16.0)])
def test_rho_field_matches_loop_oracle(N, R):
    oracle = _rho_field_loop(N, R)
    f = rho_field(N, R)
    # the same floating-point operations in the same order: exact equality
    assert dict(f.values.items()) == oracle
    assert list(f.values) == sorted(oracle)
    assert len(f.values) == len(oracle)
    assert (1, 0, 0) not in f.values
    assert f.values.get((-1, 0, 0), 0.0) == 0.0
    assert (N + 1, 0, 0) not in f.values
    assert f.values.get((N + 1, 0, 0)) is None
    assert type(f.values[(1, 1, 1)]) is float


def test_rho_field_values_missing_keys():
    v = rho_field(6, 0.9).values
    for key in [(0, 0), (0, 0, 0, 0), (-1, 1, 1), (7, 0, 0), (3, 3, 1),
                "abc", 5, None]:
        assert key not in v
        with pytest.raises(KeyError):
            v[key]
    assert (2, 2, 2) in v


def test_rho_field_size_bound():
    with pytest.raises(LimitShapeError):
        rho_field(RHO_MAX_N + 1, 1.0)


def test_rho_field_base_and_first_step():
    f = rho_field(4, 1.0)
    assert f.values[(0, 0, 0)] == 1.0
    assert (1, 0, 0) not in f.values
    assert f.values[(1, 1, 1)] == pytest.approx(rho_coeffs(1.0)[0])


def test_rho_field_vs_oracle_heights_3_and_4():
    f = rho_field(4, 1.0)
    for x in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]:
        assert f.values.get(x, 0.0) == pytest.approx(
            rho_oracle(x, 1.0, 1.0, 1.0), abs=1e-12)


def test_rho_oracle_trivial_heights():
    assert rho_oracle((0, 0, 0), 1.0, 1.0, 1.0) == 1.0
    assert rho_oracle((1, 0, 0), 1.0, 1.0, 1.0) == 0.0


def test_rho_oracle_random_abc():
    rng = random.Random(12)
    for _ in range(5):
        a, b, c = (rng.uniform(0.6, 1.8) for _ in range(3))
        R = a * c / (b * b)
        f = rho_field(3, R)
        assert f.values[(1, 1, 1)] == pytest.approx(
            rho_oracle((1, 1, 1), a, b, c), rel=1e-9)


def rho_observable_expectation(x, a, b, c):
    """The probabilistic form: expectation of (origin exponent plus a
    multiple of the bichromatic-face count at the deep corner) under the
    weighted taut measure.  Stated for deep corners on the lowest layer; its
    published prefactor is reproduced verbatim here.  At a = b = c = 1 it
    equals rho_oracle at (1,1,1), (2,1,1), (1,1,2) and (2,2,1).  Away from
    that point it does not: at (a, b, c) = (0.7, 1.3, 0.9) it gives -1.2686
    at (1,1,1), where rho_oracle gives -1.6166."""
    N = height(x)
    U = slab_solid(N)
    win = build_taut_window(U)
    target = tuple(-t for t in x)
    R = a * c / (b * b)
    point = limitshape._slab_init(N, a, b, c, win.sg.vertices)
    comp = win.comp
    corner_faces = [key for key in comp.face_ids()
                    if target in comp.corner_ids[key]]
    num = 0.0
    den = 0.0
    vname = win.vnames[target]
    for cfg in enumerate_taut(U, win):
        w = taut_weight(win, cfg, symbolic=False, g_init=point)
        sym = taut_weight(win, cfg, symbolic=True)
        (mono, _c), = sym.terms.items()
        n0 = dict(mono).get(vname, 0)
        eps = sum(1 for key in corner_faces
                  if key in cfg.assignment
                  and LOCAL_CONFIGS[cfg.assignment[key]][0] in (3, 4))
        num += w * (n0 + eps / (2 * (1 + R)))
        den += w
    return num / den


def test_rho_observable_expectation_matches_at_symmetric_point():
    # the probabilistic form with its published prefactor agrees at R = 1
    got = rho_observable_expectation((1, 1, 1), 1.0, 1.0, 1.0)
    assert got == pytest.approx(-(5 + 3 * SQRT2) / 7, abs=1e-12)
    for x in ((1, 1, 1), (2, 1, 1), (1, 1, 2), (2, 2, 1)):
        assert rho_observable_expectation(x, 1.0, 1.0, 1.0) == \
            pytest.approx(rho_oracle(x, 1.0, 1.0, 1.0), abs=1e-12)


def test_h_two_forms():
    assert h_identity_check(seed=1)
    f1, f2 = h_denominator(3.0, 1.0, 1.0, 1.0, S=3.0)
    assert f1 == pytest.approx(0.0, abs=1e-12)
    assert f2 == pytest.approx(0.0, abs=1e-12)
    # symmetry in the arguments
    rng = random.Random(5)
    for _ in range(20):
        x, y, z = (rng.uniform(-2, 2) for _ in range(3))
        a1, _ = h_denominator(0.7, x, y, z)
        a2, _ = h_denominator(0.7, y, x, z)
        assert a1 == pytest.approx(a2, rel=1e-9)


def test_lambda_values():
    assert lambda_param(3.0) == 3.0
    lam = lambda_param(0.2)
    assert 2 < lam < 3
    for R in (0.2, 0.5, 1.0, 2.0, 5.0):
        assert lambda_param(R) == pytest.approx(lambda_param(s_from_r(R)),
                                                rel=1e-9)


def test_dual_curve_circle():
    c = dual_curve(3.0, 360)
    assert len(c.outer) >= 360
    for p in c.outer:
        r2 = sum((t + 1 / 3) ** 2 for t in p)
        assert r2 == pytest.approx(1 / 6, rel=1e-9)
    assert len(c.inner) == 1
    assert all(abs(t + 1 / 3) < 1e-9 for t in c.inner[0])


def test_dual_curve_rounded_triangle():
    c = dual_curve(2.2, 360)
    rad = lambda p: math.sqrt(sum((t + 1 / 3) ** 2 for t in p))
    assert c.inner
    assert max(map(rad, c.inner)) < min(map(rad, c.outer))
    # tangent to the three sector borders at the mid-edge points
    for tangent in [(0, -0.5, -0.5), (-0.5, 0, -0.5), (-0.5, -0.5, 0)]:
        d = min(max(abs(p[i] - tangent[i]) for i in range(3))
                for p in c.outer)
        assert d < 1e-6
    # three-fold rotation invariance
    s = {tuple(round(x, 6) for x in p) for p in c.outer}
    assert s == {(p[1], p[2], p[0]) for p in s}


def _dist_to_polygon(q, hull):
    """Per-point distance to the hull's edges: the classifier's oracle."""
    best = float("inf")
    n = len(hull)
    for i in range(n):
        a, b = hull[i], hull[(i + 1) % n]
        ax, ay = b[0] - a[0], b[1] - a[1]
        t = ((q[0] - a[0]) * ax + (q[1] - a[1]) * ay) / (ax * ax + ay * ay
                                                         or 1.0)
        t = min(1.0, max(0.0, t))
        px, py = a[0] + t * ax, a[1] + t * ay
        best = min(best, math.hypot(q[0] - px, q[1] - py))
    return best


@pytest.mark.parametrize("R", [3.0, 1.0, 0.2])
def test_dual_curve_matches_point_by_point_oracle(R):
    c = dual_curve(lambda_param(R), 360)
    pts = [(_plane_coords(p), p) for p in c.outer + c.inner]
    hull = _convex_hull([xy for xy, _p in pts])
    tol = 1e-6 * max(max(abs(x), abs(y)) for x, y in hull)
    near = [_dist_to_polygon(xy, hull) <= tol for xy, _p in pts]
    outer = [p for (_xy, p), ok in zip(pts, near) if ok]
    inner = [p for (_xy, p), ok in zip(pts, near) if not ok]
    assert c.outer == outer
    assert c.inner == inner


def test_hull_distance_matches_oracle(monkeypatch):
    # points inside, outside and on the edges of a pentagon, in blocks
    # smaller than the point count
    hull = [(0.0, -1.0), (1.0, -0.2), (0.6, 1.0), (-0.6, 1.0), (-1.0, -0.2)]
    rng = random.Random(4)
    pts = [(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
           for _ in range(50)] + [(0.5, -0.6), (0.0, 1.0)] + hull
    monkeypatch.setattr(limitshape, "_HULL_BLOCK", 7)
    got = _hull_distance(pts, hull)
    want = [_dist_to_polygon(q, hull) for q in pts]
    assert list(got) == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert all(got[-len(hull):] == 0.0)


def test_exports(tmp_path):
    f = rho_field(6, 0.9)
    p1 = tmp_path / "rho.csv"
    export_heatmap(f, p1)
    text = p1.read_text()
    assert text.startswith("i,j,k,rho\n")
    assert "0,0,0,1\n" in text
    c = dual_curve(3.0, 360)
    p2 = tmp_path / "curve.svg"
    export_curve(c, p2)
    svg = p2.read_text()
    assert svg.count(",") >= 360
    # byte-identical re-export
    p3 = tmp_path / "rho2.csv"
    p4 = tmp_path / "curve2.svg"
    export_heatmap(f, p3)
    export_curve(c, p4)
    assert p3.read_bytes() == p1.read_bytes()
    assert p4.read_bytes() == p2.read_bytes()


@pytest.mark.parametrize("N, R", [(6, 0.9), (40, 0.2)])
def test_export_heatmap_matches_sorted_lines(tmp_path, N, R):
    # the CSV the exporter wrote from the sorted keys, one line per point
    oracle = _rho_field_loop(N, R)
    want = "".join(f"{p[0]},{p[1]},{p[2]},{oracle[p]:.12g}\n"
                   for p in sorted(oracle))
    path = tmp_path / "rho.csv"
    export_heatmap(rho_field(N, R), path)
    assert path.read_text() == "i,j,k,rho\n" + want


def test_phase_checks_soft():
    f = rho_field(40, 0.2)
    # frozen corners: exponential decay
    for corner in [(38, 1, 1), (1, 38, 1), (1, 1, 38)]:
        assert abs(f.values.get(corner, 0.0)) < 1e-6
    # gaseous center: plateau near 1/3 in absolute value
    center = [abs(f.values[(13, 13, 14)]), abs(f.values[(14, 13, 13)]),
              abs(f.values[(13, 14, 13)])]
    spread = max(center) - min(center)
    assert spread < 1e-9


def test_domain_errors():
    with pytest.raises(LimitShapeError):
        rs_from_abc(1, -1, 1)
    with pytest.raises(LimitShapeError):
        dual_curve(1.5)
    with pytest.raises(IntrinsicViolated):
        rho_coeffs(2.0, 2.0)


def test_nonpositive_r_rejected():
    # R = ac/b^2 is positive for positive layers; R = -1 solves the intrinsic
    # relation with S = -1, so only an explicit sign check rejects it
    assert intrinsic_residual(-1.0, -1.0) == 0
    for R in (0.0, -1.0, float("nan")):
        with pytest.raises(LimitShapeError):
            s_from_r(R)
        with pytest.raises(LimitShapeError):
            rho_field(8, R)
        with pytest.raises(LimitShapeError):
            lambda_param(R)
    with pytest.raises(LimitShapeError):
        rho_coeffs(-1.0, -1.0)

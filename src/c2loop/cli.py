"""Command-line entry point.

All subcommands print a machine-readable JSON summary on standard output
(numbers with 12 significant digits) and use the exit codes
0 = success, 1 = verification failure, 2 = input error.  Input errors,
including malformed input files and the graphs, weights, solids, initial
values and parameters the library rejects, are reported as a JSON error on
standard error.  A result that is not a finite number cannot be written as
JSON, and an exact Laurent computation can fail (for example a division
that does not come out exact); both are reported as a JSON error on
standard output with exit code 1.  Identical argv and input files produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from fractions import Fraction

from .ffdimers import FFDimersError, fig_octa_domain, free_energy, \
    lobachevsky_free_energy
from .fixtures import cube_sphere, rational_ff_weights
from .groves import verify_grove_equality
from .kashaev import KashaevError, solve_origin
from .laurent import LaurentError, poly_to_json
from .limitshape import (
    LimitShapeError,
    dual_curve,
    export_curve,
    export_heatmap,
    lambda_param,
    rho_field,
    rs_from_abc,
)
from .loopmodel import BoundarySpec, LoopModelError, enumerate_configs, \
    partition_function
from .quadgraph import FaceWeights, QuadGraph, QuadGraphError, \
    grid_quadgraph, solve_parametrization, track_census, train_tracks, \
    validate
from .stepped import SteppedError, SteppedSolid, height, random_fill_order, \
    surface_graph
from .taut import TautError, build_taut_window, enumerate_taut, \
    sample_taut, verify_partition_identity, verify_monomial_bijection, \
    y_taut, yang_baxter_row_check
from .verify import run_all


class InputError(Exception):
    pass


class NonFiniteOutput(Exception):
    pass


def _fmt(x):
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    return x


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (float, Fraction)):
        return _fmt(obj)
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    return str(obj)


def emit(payload):
    try:
        text = json.dumps(_jsonable(payload), sort_keys=True, indent=1,
                          allow_nan=False)
    except ValueError as exc:
        raise NonFiniteOutput(f"result is not finite: {exc}") from exc
    print(text)


@contextlib.contextmanager
def _reading(what):
    """Turn a malformed input's parse error into an InputError."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError,
            ZeroDivisionError) as exc:
        raise InputError(f"malformed {what}: "
                         f"{type(exc).__name__}: {exc}") from exc


def _load_json(path):
    if path is None:
        raise InputError("a required input file is missing")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _parse_number(x):
    if isinstance(x, str):
        if "/" in x:
            return Fraction(x)
        return float(x)
    if isinstance(x, (int, float)):
        return Fraction(x) if isinstance(x, int) else x
    raise InputError(f"bad number {x!r}")


def load_graph(path):
    data = _load_json(path)
    colors = {}
    positions = {}
    with _reading(f"graph file {path}"):
        for v in data["vertices"]:
            vid = tuple(v["id"]) if isinstance(v["id"], list) else v["id"]
            colors[vid] = v["color"]
            if v.get("pos"):
                positions[vid] = tuple(Fraction(p) for p in v["pos"])
        faces = {}
        for fid, cyc in data["faces"].items():
            faces[fid] = tuple(tuple(c) if isinstance(c, list) else c
                               for c in cyc)
        closed = data.get("closed", False)
    return QuadGraph(colors, faces, positions, closed=closed)


def load_weights(path, graph):
    data = _load_json(path)
    out = {}
    with _reading(f"weights file {path}"):
        for fid, ws in data["faces"].items():
            if len(ws) != 5:
                raise InputError(f"face {fid} needs five weights")
            out[fid] = FaceWeights(*[_parse_number(w) for w in ws])
    missing = set(map(str, graph.faces)) - set(out)
    if missing:
        raise InputError(f"weights missing for faces {sorted(missing)}")
    return {fid: out[str(fid)] for fid in graph.faces}


def load_solid(path):
    data = _load_json(path)
    try:
        return SteppedSolid.from_removed(data["removed"])
    except Exception as exc:
        raise InputError(str(exc)) from exc


def load_init(path, vertices):
    if path is None:
        raise InputError("numeric mode needs an initial-value file")
    data = _load_json(path)
    out = {}
    with _reading(f"initial-value file {path}"):
        default = data.get("default")
        by_height = {int(k): v for k, v in data.get("by_height", {}).items()}
        values = {tuple(json.loads(k)): v
                  for k, v in data.get("values", {}).items()}
        for v in vertices:
            if v in values:
                out[v] = float(values[v])
            elif height(v) in by_height:
                out[v] = float(by_height[height(v)])
            elif default is not None:
                out[v] = float(default)
            else:
                raise InputError(f"no initial value for vertex {v}")
    return out


# -- subcommand handlers ------------------------------------------------------

def cmd_graph(args):
    g = load_graph(args.file)
    if args.action == "validate":
        rep = validate(g)
        emit(rep)
        return 0 if rep["valid"] else 1
    tracks = train_tracks(g)
    payload = {
        "tracks": [{"is_loop": t.is_loop,
                    "edges": [sorted(map(str, e)) for e in t.dual_edge_path]}
                   for t in tracks],
    }
    if not any(t.is_loop for t in tracks):
        payload["census"] = track_census(g)
    emit(payload)
    return 0


def cmd_param(args):
    g = load_graph(args.graph)
    W = load_weights(args.weights, g)
    res = solve_parametrization(g, W)
    emit({
        "g": {str(v): res["g"][v] for v in sorted(res["g"], key=str)},
        "scales": {str(f): res["scales"][f]
                   for f in sorted(res["scales"], key=str)},
        "face_ratios": {str(f): res["ratios"][f]
                        for f in sorted(res["ratios"], key=str)},
    })
    return 0


def _boundary_from_file(path):
    if path is None:
        return BoundarySpec.free()
    data = _load_json(path)
    with _reading(f"boundary file {path}"):
        mode = data.get("mode", "free")
        if mode == "free":
            return BoundarySpec.free()
        if mode == "closed_surface":
            return BoundarySpec.closed()
        if mode == "fixed_colors":
            colors = {tuple(json.loads(k)): v
                      for k, v in data["colors"].items()}
            return BoundarySpec.fixed_colors(colors)
        if mode == "fixed_connections":
            conns = [((tuple(a), tuple(b)), c)
                     for (a, b), c in data["connections"]]
            return BoundarySpec.fixed_connections(conns)
    raise InputError(f"unknown boundary mode {mode!r}")


def cmd_loops(args):
    g = load_graph(args.graph)
    W = load_weights(args.weights, g)
    boundary = _boundary_from_file(args.boundary)
    if args.action == "enumerate":
        cfgs = enumerate_configs(g, boundary)
        emit({"count": len(cfgs),
              "configs": [c.to_json() for c in cfgs[:args.limit]]})
        return 0
    z = partition_function(g, W, boundary)
    emit({"partition_function": float(z), "exact": _fmt(z)
          if isinstance(z, Fraction) else None})
    return 0


def cmd_dimers(args):
    if args.action == "verify":
        from .ffdimers import verify_correspondence
        g = load_graph(args.graph)
        W = load_weights(args.weights, g)
        rep = verify_correspondence(g, W)
        emit({"equal": rep["equal"], "z_loop": float(rep["z_loop"]),
              "z_dim": float(rep["z_dim"])})
        return 0 if rep["equal"] else 1
    if args.action == "free-energy":
        dom = _domain_from_arg(args.domain)
        fe = free_energy(dom, grid=args.grid)
        emit({"free_energy": fe, "grid": args.grid})
        return 0
    val = lobachevsky_free_energy(args.theta)
    emit({"theta": args.theta, "free_energy": val})
    return 0


def _domain_from_arg(spec):
    with _reading(f"domain {spec}"):
        if spec.startswith("integrable:"):
            return fig_octa_domain(float(spec.split(":", 1)[1]))
        data = _load_json(spec)
        if data.get("type") == "integrable":
            return fig_octa_domain(float(data["theta"]))
    raise InputError("domain must be integrable:<theta> or a JSON with "
                     '{"type": "integrable", "theta": ...}')


def cmd_kashaev(args):
    if args.action == "yb":
        ok = yang_baxter_row_check(args.row, side_swap=args.dual)
        emit({"row": args.row, "dual": args.dual, "holds": ok})
        return 0 if ok else 1
    U = load_solid(args.solid)
    order = None
    if args.order and args.order != "canonical":
        if not args.order.startswith("random:"):
            raise InputError("--order must be canonical or random:SEED")
        import random as _random
        with _reading(f"--order {args.order}"):
            rng = _random.Random(int(args.order.split(":", 1)[1]))
        order = random_fill_order(U, rng)
    if args.mode == "numeric":
        sg = surface_graph(U)
        init = load_init(args.init, sg.vertices)
        val = solve_origin(U, g_init=init, mode="numeric", order=order,
                           window=sg)
        emit({"origin_value": val})
    else:
        poly = solve_origin(U, mode="symbolic", order=order)
        emit({"origin_polynomial": poly_to_json(poly),
              "n_monomials": poly.num_terms()})
    return 0


def cmd_stepped(args):
    U = load_solid(args.solid)
    sg = surface_graph(U, args.window)
    emit({
        "n_vertices": len(sg.vertices),
        "n_faces": len(sg.faces),
        "vertices": sorted(map(list, sg.vertices)),
        "faces": {f"{axis}:{base}": [list(c) for c in cyc]
                  for (axis, base), cyc in sorted(sg.faces.items(),
                                                  key=str)},
    })
    return 0


def cmd_taut(args):
    U = load_solid(args.solid)
    win = build_taut_window(U)
    if args.action == "enumerate":
        cfgs = enumerate_taut(U, win)
        emit({"count": len(cfgs), "loops": sorted(c.n_loops for c in cfgs),
              "configs": [c.to_json() for c in cfgs[:args.limit]]})
        return 0
    if args.action == "partition":
        if args.symbolic:
            poly = y_taut(U, symbolic=True, window=win)
            emit({"partition_polynomial": poly_to_json(poly),
                  "n_monomials": poly.num_terms()})
        else:
            init = load_init(args.init, win.sg.vertices)
            emit({"partition_value": y_taut(U, g_init=init, symbolic=False,
                                            window=win)})
        return 0
    if args.action == "verify":
        ok = verify_partition_identity(U, window=win)
        rep = verify_monomial_bijection(U, window=win)
        emit({"partition_equals_recurrence": ok, "monomial_checks": rep})
        return 0 if ok and rep["all"] else 1
    if args.action == "reconstruct":
        from .taut import reconstruct_from_monomial
        mono = _load_json(args.monomial)
        if not (isinstance(mono, dict)
                and all(isinstance(e, int) for e in mono.values())):
            raise InputError(f"monomial file {args.monomial} must map "
                             "variable names to integer exponents")
        cfg = reconstruct_from_monomial(U, mono, window=win)
        emit(cfg.to_json())
        return 0
    init = load_init(args.init, win.sg.vertices)
    cfgs = sample_taut(U, init, seed=args.seed, n=args.n, window=win)
    if args.n == 1:
        cfgs = [cfgs]
    emit({"samples": [c.to_json() for c in cfgs]})
    return 0


def cmd_shape(args):
    if args.action == "rho":
        field = rho_field(args.N, args.R)
        if args.out:
            export_heatmap(field, args.out)
        emit({"N": args.N, "R": args.R, "S": field.S,
              "n_points": len(field.values), "out": args.out})
        return 0
    if args.action == "curve":
        lam = lambda_param(args.R)
        curve = dual_curve(lam, args.points)
        if args.out:
            export_curve(curve, args.out)
        emit({"R": args.R, "lambda": lam, "outer_points": len(curve.outer),
              "inner_points": len(curve.inner), "out": args.out})
        return 0
    R, S, d = rs_from_abc(args.a, args.b, args.c)
    emit({"R": R, "S": S, "d": d, "lambda": lambda_param(R, S)})
    return 0


def cmd_groves(args):
    U = load_solid(args.solid)
    rep = verify_grove_equality(U)
    emit({"equal": rep["equal"], "parity_match": rep["parity_match"],
          "n_loop_free": rep["n_loop_free"]})
    return 0 if rep["ok"] else 1


def cmd_verify_all(args):
    reports = run_all(quick=args.quick)
    for rep in reports:
        status = "PASS" if rep["passed"] else "FAIL"
        line = f"[{status}] criterion {rep['criterion']}: {rep['name']}"
        print(line, file=sys.stderr)
        for w in rep["warnings"]:
            print(f"    warning: {w}", file=sys.stderr)
    emit({"criteria": reports,
          "all_passed": all(r["passed"] for r in reports)})
    return 0 if all(r["passed"] for r in reports) else 1


def cmd_fixtures(args):
    import os
    os.makedirs(args.out, exist_ok=True)

    def write(name, payload):
        with open(os.path.join(args.out, name), "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)

    write("one_cube.json", {"removed": [[-1, -1, -1]]})
    write("two_cube.json", {"removed": [[-1, -1, -1], [-2, -1, -1]]})
    write("init_ones.json", {"default": 1.0})
    g = grid_quadgraph(2, 2)
    write("grid22_graph.json", g.to_json())
    import random as _random
    rng = _random.Random(0)
    write("grid22_weights.json", {
        "faces": {str(fid): [_fmt(w) for w in
                             rational_ff_weights(rng).as_tuple()]
                  for fid in g.faces}})
    cube = cube_sphere()
    write("cube_graph.json", cube.to_json())
    rng = _random.Random(1)
    write("cube_weights.json", {
        "faces": {str(fid): [_fmt(w) for w in
                             rational_ff_weights(rng).as_tuple()]
                  for fid in cube.faces}})
    emit({"written": sorted(["one_cube.json", "two_cube.json",
                             "init_ones.json", "grid22_graph.json",
                             "grid22_weights.json", "cube_graph.json",
                             "cube_weights.json"]), "dir": args.out})
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="c2loop")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graph")
    g.add_argument("action", choices=["validate", "tracks"])
    g.add_argument("file")
    g.set_defaults(fn=cmd_graph)

    pm = sub.add_parser("param")
    pm.add_argument("action", choices=["solve"])
    pm.add_argument("graph")
    pm.add_argument("weights")
    pm.set_defaults(fn=cmd_param)

    lo = sub.add_parser("loops")
    lo.add_argument("action", choices=["enumerate", "partition"])
    lo.add_argument("graph")
    lo.add_argument("weights")
    lo.add_argument("--boundary")
    lo.add_argument("--limit", type=int, default=20)
    lo.set_defaults(fn=cmd_loops)

    di = sub.add_parser("dimers")
    di.add_argument("action", choices=["verify", "free-energy",
                                       "lobachevsky"])
    di.add_argument("graph", nargs="?")
    di.add_argument("weights", nargs="?")
    di.add_argument("--domain", default="integrable:0.7853981633974483")
    di.add_argument("--grid", type=int, default=512)
    di.add_argument("--theta", type=float, default=math.pi / 4)
    di.set_defaults(fn=cmd_dimers)

    ka = sub.add_parser("kashaev")
    ka.add_argument("action", choices=["solve", "yb"])
    ka.add_argument("solid", nargs="?")
    ka.add_argument("init", nargs="?")
    ka.add_argument("--mode", choices=["numeric", "symbolic"],
                    default="numeric")
    ka.add_argument("--order", default="canonical")
    ka.add_argument("--row", type=int, default=1)
    ka.add_argument("--dual", action="store_true")
    ka.set_defaults(fn=cmd_kashaev)

    st = sub.add_parser("stepped")
    st.add_argument("action", choices=["surface"])
    st.add_argument("solid")
    st.add_argument("--window", type=float, default=None)
    st.set_defaults(fn=cmd_stepped)

    ta = sub.add_parser("taut")
    ta.add_argument("action", choices=["enumerate", "partition", "verify",
                                       "reconstruct", "sample"])
    ta.add_argument("solid")
    ta.add_argument("monomial", nargs="?")
    ta.add_argument("--init")
    ta.add_argument("--symbolic", action="store_true")
    ta.add_argument("--seed", type=int, default=0)
    ta.add_argument("--n", type=int, default=1)
    ta.add_argument("--limit", type=int, default=50)
    ta.set_defaults(fn=cmd_taut)

    sh = sub.add_parser("shape")
    sh.add_argument("action", choices=["rho", "curve", "params"])
    sh.add_argument("--N", type=int, default=40)
    sh.add_argument("--R", type=float, default=1.0)
    sh.add_argument("--points", type=int, default=720)
    sh.add_argument("--out")
    sh.add_argument("--a", type=float, default=1.0)
    sh.add_argument("--b", type=float, default=1.0)
    sh.add_argument("--c", type=float, default=1.0)
    sh.set_defaults(fn=cmd_shape)

    gr = sub.add_parser("groves")
    gr.add_argument("action", choices=["verify"])
    gr.add_argument("solid")
    gr.set_defaults(fn=cmd_groves)

    va = sub.add_parser("verify-all")
    va.add_argument("--quick", action="store_true")
    va.set_defaults(fn=cmd_verify_all)

    fx = sub.add_parser("fixtures")
    fx.add_argument("--out", default="fixtures")
    fx.set_defaults(fn=cmd_fixtures)
    return p


def _error(exc):
    """The JSON error payload; library errors also name their type."""
    if isinstance(exc, (InputError, NonFiniteOutput, FileNotFoundError)):
        return {"error": str(exc)}
    return {"error": f"{type(exc).__name__}: {exc}"}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for name in ("limit", "n", "points"):
            if getattr(args, name, 0) < 0:
                raise InputError(f"--{name} must not be negative")
        return args.fn(args)
    except (InputError, FileNotFoundError, QuadGraphError, SteppedError,
            KashaevError, FFDimersError, LimitShapeError, LoopModelError,
            TautError) as exc:
        print(json.dumps(_error(exc)), file=sys.stderr)
        return 2
    except (NonFiniteOutput, LaurentError) as exc:
        print(json.dumps(_error(exc)))
        return 1


if __name__ == "__main__":
    sys.exit(main())

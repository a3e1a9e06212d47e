"""Command-line behaviour: wiring, exit codes, determinism."""

import contextlib
import hashlib
import json
import math
import pathlib
import re
import shlex
import signal
from fractions import Fraction

import pytest

from c2loop.cli import main
from c2loop.quadgraph import grid_quadgraph
from c2loop.stepped import slab_solid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixtures_and_graph_validate(tmp_path, capsys):
    code, out, _ = run(capsys, "fixtures", "--out", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "graph", "validate",
                       str(tmp_path / "grid22_graph.json"))
    assert code == 0
    assert json.loads(out)["valid"]


def test_graph_tracks(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "graph", "tracks",
                       str(tmp_path / "grid22_graph.json"))
    assert code == 0
    data = json.loads(out)
    assert len(data["tracks"]) == 4
    assert data["census"]["T"] == 4


def test_param_solve(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "param", "solve",
                       str(tmp_path / "grid22_graph.json"),
                       str(tmp_path / "grid22_weights.json"))
    assert code == 0
    assert "face_ratios" in json.loads(out)


def test_loops_partition(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "loops", "partition",
                       str(tmp_path / "cube_graph.json"),
                       str(tmp_path / "cube_weights.json"))
    assert code == 0
    assert json.loads(out) == {"exact": "124824532800100/1173151100641",
                               "partition_function": 106.401070358}


def test_loops_partition_float_weights(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    data = json.loads((tmp_path / "cube_weights.json").read_text())
    data["faces"] = {fid: [float(Fraction(w)) for w in ws]
                     for fid, ws in data["faces"].items()}
    (tmp_path / "float_weights.json").write_text(json.dumps(data))
    code, out, _ = run(capsys, "loops", "partition",
                       str(tmp_path / "cube_graph.json"),
                       str(tmp_path / "float_weights.json"))
    assert code == 0
    assert json.loads(out) == {"exact": None,
                               "partition_function": 106.401070358}


def test_dimers_verify(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "dimers", "verify",
                       str(tmp_path / "cube_graph.json"),
                       str(tmp_path / "cube_weights.json"))
    assert code == 0
    assert json.loads(out) == {"equal": True, "z_dim": 10.3150894498,
                               "z_loop": 106.401070358}


def test_dimers_lobachevsky(capsys):
    code, out, _ = run(capsys, "dimers", "lobachevsky", "--theta",
                       str(math.pi / 4))
    assert code == 0
    val = json.loads(out)["free_energy"]
    assert val == pytest.approx(0.946192871127, abs=1e-9)


def test_kashaev_solve_numeric(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "kashaev", "solve",
                       str(tmp_path / "one_cube.json"),
                       str(tmp_path / "init_ones.json"), "--mode", "numeric")
    assert code == 0
    assert json.loads(out)["origin_value"] == pytest.approx(
        5 + 4 * math.sqrt(2), rel=1e-12)


def test_kashaev_solve_symbolic_deterministic(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "kashaev", "solve",
                           str(tmp_path / "one_cube.json"), "--mode",
                           "symbolic")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["n_monomials"] == 5


def test_kashaev_solve_random_order(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, base, _ = run(capsys, "kashaev", "solve",
                        str(tmp_path / "two_cube.json"), "--mode", "symbolic")
    code, alt, _ = run(capsys, "kashaev", "solve",
                       str(tmp_path / "two_cube.json"), "--mode", "symbolic",
                       "--order", "random:3")
    assert json.loads(base) == json.loads(alt)


def _strict_json(text):
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_kashaev_solve_non_finite_is_json_error(tmp_path, capsys):
    # all-ones data overflow the numeric recurrence on the 24-slab
    solid, init = tmp_path / "slab24.json", tmp_path / "ones.json"
    solid.write_text(json.dumps(
        {"removed": [list(c) for c in slab_solid(24).removed]}))
    init.write_text(json.dumps({"default": 1}))
    code, out, _ = run(capsys, "kashaev", "solve", str(solid), str(init),
                       "--mode", "numeric")
    assert code == 1
    assert "not finite" in _strict_json(out)["error"]


BOX = [[i, j, k] for i in (-1, -2) for j in (-1, -2) for k in (-1, -2)]


def test_kashaev_solve_not_divisible_is_json_error(tmp_path, capsys):
    # the symbolic recurrence cannot divide exactly on the 2x2x2 box
    solid = tmp_path / "box.json"
    solid.write_text(json.dumps({"removed": BOX}))
    code, out, _ = run(capsys, "kashaev", "solve", str(solid), "--mode",
                       "symbolic")
    assert code == 1
    assert _strict_json(out)["error"].startswith("NotDivisible")


def test_kashaev_yb(capsys):
    code, out, _ = run(capsys, "kashaev", "yb", "--row", "7", "--dual")
    assert code == 0
    assert json.loads(out)["holds"]


def test_stepped_surface(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "stepped", "surface",
                       str(tmp_path / "one_cube.json"))
    assert code == 0
    data = json.loads(out)
    assert data["n_faces"] > 0


def test_taut_verify(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "taut", "verify",
                       str(tmp_path / "one_cube.json"))
    assert code == 0
    data = json.loads(out)
    assert data["partition_equals_recurrence"]
    assert data["monomial_checks"]["all"]


def test_taut_sample(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "taut", "sample",
                       str(tmp_path / "one_cube.json"), "--init",
                       str(tmp_path / "init_ones.json"), "--seed", "4",
                       "--n", "3")
    assert code == 0
    assert len(json.loads(out)["samples"]) == 3


def test_shape_params(capsys):
    code, out, _ = run(capsys, "shape", "params", "--a", "1", "--b", "1",
                       "--c", "1")
    assert code == 0
    data = json.loads(out)
    assert data["R"] == 1
    assert data["S"] == pytest.approx(10.65685424949238, rel=1e-11)
    assert data["d"] == pytest.approx(10.65685424949238, rel=1e-11)


def test_shape_outputs_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, "shape", "rho", "--N", "8", "--R", "0.5", "--out", str(p1))
    run(capsys, "shape", "rho", "--N", "8", "--R", "0.5", "--out", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    s1, s2 = tmp_path / "a.svg", tmp_path / "b.svg"
    run(capsys, "shape", "curve", "--R", "3.0", "--points", "400",
        "--out", str(s1))
    run(capsys, "shape", "curve", "--R", "3.0", "--points", "400",
        "--out", str(s2))
    assert s1.read_bytes() == s2.read_bytes()
    assert s1.read_text().count(",") >= 400


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_commands():
    """The `c2loop ...` lines of the README's command-line block as argument
    lists, less the verify-all lines, which test_verify_all_quick covers."""
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0]
    cmds = [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("c2loop ")]
    return [argv for argv in cmds if argv[0] != "verify-all"]


# the pin_form of each README command's standard output and of each file the
# commands write, computed before the three strand walks became
# loopmodel.strands; an output that changes must be re-pinned on purpose
README_STDOUT = {
    "fixtures --out fixtures": "986f390f4574f27b",
    "kashaev solve fixtures/one_cube.json fixtures/init_ones.json "
    "--mode numeric":
        "0a7645243b6a8a60",
    "kashaev solve fixtures/one_cube.json --mode symbolic": "cbbdce1d4878e7db",
    "kashaev yb --row 7 --dual": "0dd57ceef4ef8572",
    "graph validate fixtures/grid22_graph.json": "132ad1a198d4c44f",
    "graph tracks fixtures/grid22_graph.json": "f8aae161104e0752",
    "param solve fixtures/grid22_graph.json fixtures/grid22_weights.json":
        "eb94a1135084f11f",
    "loops partition fixtures/cube_graph.json fixtures/cube_weights.json":
        "fbaabcd80a335cd4",
    "dimers verify fixtures/cube_graph.json fixtures/cube_weights.json":
        "fed25a18ec3e0020",
    "dimers free-energy --domain integrable:0.7853981633974483 --grid 512":
        "a10e3618b19da1dc",
    "dimers lobachevsky --theta 0.7853981633974483": "0ffae28e6edf1b94",
    "stepped surface fixtures/one_cube.json": "9a16386394310f30",
    "taut verify fixtures/one_cube.json": "2a211267bf8cd232",
    "taut sample fixtures/one_cube.json --init fixtures/init_ones.json "
    "--seed 7 --n 5":
        "b2afba41bb1b1195",
    "shape params --a 1 --b 1 --c 1": "5ffa4b00af090b29",
    "shape rho --N 40 --R 0.2 --out rho.csv": "9393b75e6bf0c04b",
    "shape curve --R 3 --points 720 --out curve.svg": "b302dac0363237df",
    "groves verify fixtures/one_cube.json": "d74f87f3f1ecd7a9",
}
README_FILES = {
    "curve.svg": "ad5fdf4c3abf1729",
    "fixtures/cube_graph.json": "a1cd8fd301764532",
    "fixtures/cube_weights.json": "ae4146e6fad4b623",
    "fixtures/grid22_graph.json": "b0a6ae8308b71f13",
    "fixtures/grid22_weights.json": "e0076445842b6bd2",
    "fixtures/init_ones.json": "e3f216f9fe9facfd",
    "fixtures/one_cube.json": "a7711a9ac1793f3c",
    "fixtures/two_cube.json": "40182f8438733562",
    "rho.csv": "88aba612f52bce1f",
}


FLOAT_LITERAL = re.compile(rb"-?\d+(?:\.\d+(?:[eE][-+]?\d+)?|[eE][-+]?\d+)")


def pin_form(data):
    """The digest of data with every float literal rounded to 10 significant
    digits: floats whose last bits depend on the numpy and libm build still
    pin, while every other byte is pinned exactly."""
    data = FLOAT_LITERAL.sub(lambda m: b"%.10g" % float(m[0]), data)
    return hashlib.sha256(data).hexdigest()[:16]


def test_readme_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cmds = readme_commands()
    assert cmds[0][0] == "fixtures" and len(cmds) > 10
    runs = []
    for _ in range(2):
        outs = {}
        for argv in cmds:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            _strict_json(out)
            outs[shlex.join(argv)] = out.encode()
        files = {str(p.relative_to(tmp_path)): p.read_bytes()
                 for p in tmp_path.rglob("*") if p.is_file()}
        runs.append((outs, files))
    assert runs[0] == runs[1]
    outs, files = runs[0]
    assert {k: pin_form(v) for k, v in outs.items()} == README_STDOUT
    assert {k: pin_form(v) for k, v in files.items()} == README_FILES


def test_groves_verify(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "groves", "verify",
                       str(tmp_path / "one_cube.json"))
    assert code == 0
    assert json.loads(out)["equal"]


def test_groves_verify_box(tmp_path, capsys):
    # the all-plus recurrence on the 2x2x2 box divides by a multi-term,
    # root-free g: the program's one path to the general divisor
    solid = tmp_path / "box.json"
    solid.write_text(json.dumps({"removed": BOX}))
    code, out, _ = run(capsys, "groves", "verify", str(solid))
    assert code == 0
    assert json.loads(out) == {"equal": True, "n_loop_free": 65,
                               "parity_match": True}


def test_input_error_exit_code(tmp_path, capsys):
    code, _out, err = run(capsys, "graph", "validate",
                          str(tmp_path / "missing.json"))
    assert code == 2


def test_param_solve_loop_track_is_input_error(tmp_path, capsys):
    # the cube's closed surface has closed tracks, which the solve rejects
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, err = run(capsys, "param", "solve",
                         str(tmp_path / "cube_graph.json"),
                         str(tmp_path / "cube_weights.json"))
    assert code == 2 and out == ""
    assert _strict_json(err)["error"].startswith("LoopTrackPresent")


def test_stepped_window_too_small_is_input_error(tmp_path, capsys):
    solid = tmp_path / "slab12.json"
    solid.write_text(json.dumps(
        {"removed": [list(c) for c in slab_solid(12).removed]}))
    code, out, err = run(capsys, "stepped", "surface", str(solid),
                         "--window", "7.5")
    assert code == 2 and out == ""
    assert _strict_json(err)["error"].startswith("WindowTooSmall")


def test_malformed_graph_is_input_error(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"vertices": []}))
    code, out, err = run(capsys, "graph", "validate", str(graph))
    assert code == 2 and out == ""
    assert "'faces'" in _strict_json(err)["error"]


def test_verify_all_quick(capsys):
    code, out, err = run(capsys, "verify-all", "--quick")
    assert code == 0
    data = json.loads(out)
    assert data["all_passed"]
    assert len(data["criteria"]) == 11
    assert "[PASS]" in err


# malformed inputs: files to write next to the fixtures, then the argv, in
# which "{d}" names that directory
MALFORMED = {
    "weights-without-faces": (
        {"w.json": {"face": {}}},
        ["param", "solve", "{d}/grid22_graph.json", "{d}/w.json"]),
    "init-not-a-number": (
        {"i.json": {"default": "x"}},
        ["kashaev", "solve", "{d}/one_cube.json", "{d}/i.json"]),
    "init-bad-vertex-key": (
        {"i.json": {"values": {"oops": 1}}},
        ["kashaev", "solve", "{d}/one_cube.json", "{d}/i.json"]),
    "boundary-without-colors": (
        {"b.json": {"mode": "fixed_colors"}},
        ["loops", "partition", "{d}/cube_graph.json", "{d}/cube_weights.json",
         "--boundary", "{d}/b.json"]),
    "boundary-connections-not-a-matching": (
        {"b.json": {"mode": "fixed_connections",
                    "connections": [[[["f", 0], ["f", 0]], "B"]]}},
        ["loops", "partition", "{d}/grid22_graph.json",
         "{d}/grid22_weights.json", "--boundary", "{d}/b.json"]),
    "boundary-color-not-r-or-b": (
        {"b.json": {"mode": "fixed_colors",
                    "colors": {'["(0, 0)", 0]': "G"}}},
        ["loops", "enumerate", "{d}/grid22_graph.json",
         "{d}/grid22_weights.json", "--boundary", "{d}/b.json"]),
    "boundary-color-unknown-slot": (
        {"b.json": {"mode": "fixed_colors", "colors": {'["nope", 9]': "B"}}},
        ["loops", "enumerate", "{d}/grid22_graph.json",
         "{d}/grid22_weights.json", "--boundary", "{d}/b.json"]),
    "boundary-color-glued-slot": (
        {"b.json": {"mode": "fixed_colors",
                    "colors": {'["(0, 0)", 1]': "B"}}},
        ["loops", "enumerate", "{d}/grid22_graph.json",
         "{d}/grid22_weights.json", "--boundary", "{d}/b.json"]),
    "boundary-connections-not-half-edges": (
        {"b.json": {"mode": "fixed_connections",
                    "connections": [[[["nope", 0], ["nope", 1]], "B"]]}},
        ["loops", "enumerate", "{d}/grid22_graph.json",
         "{d}/grid22_weights.json", "--boundary", "{d}/b.json"]),
    "boundary-connections-not-pairing-every-half-edge": (
        {"b.json": {"mode": "fixed_connections",
                    "connections": [[[["(0, 0)", 0], ["(0, 0)", 3]], "B"]]}},
        ["loops", "enumerate", "{d}/grid22_graph.json",
         "{d}/grid22_weights.json", "--boundary", "{d}/b.json"]),
    "kashaev-numeric-without-init": (
        {}, ["kashaev", "solve", "{d}/one_cube.json"]),
    "taut-sample-without-init": (
        {}, ["taut", "sample", "{d}/one_cube.json"]),
    "domain-theta-not-a-number": (
        {}, ["dimers", "free-energy", "--domain", "integrable:abc"]),
    "free-energy-grid-too-small": (
        {}, ["dimers", "free-energy", "--grid", "10"]),
    "shape-negative-layer": (
        {}, ["shape", "params", "--a", "-1"]),
    "taut-verify-non-regular": (
        {"s.json": {"removed": [[-2, -1, -1]]}},
        ["taut", "verify", "{d}/s.json"]),
    "taut-enumerate-non-regular": (
        {"s.json": {"removed": [[-2, -1, -1]]}},
        ["taut", "enumerate", "{d}/s.json"]),
    "groves-verify-non-regular": (
        {"s.json": {"removed": [[-2, -1, -1]]}},
        ["groves", "verify", "{d}/s.json"]),
    "lobachevsky-theta-out-of-range": (
        {}, ["dimers", "lobachevsky", "--theta", "2"]),
    "domain-theta-above-quarter-turn": (
        {}, ["dimers", "free-energy", "--domain", "integrable:2"]),
    "domain-theta-zero": (
        {}, ["dimers", "free-energy", "--domain", "integrable:0"]),
    "domain-theta-negative": (
        {}, ["dimers", "free-energy", "--domain", "integrable:-0.5"]),
    "domain-theta-nan": (
        {}, ["dimers", "free-energy", "--domain", "integrable:nan"]),
    "kashaev-order-seed-not-an-integer": (
        {}, ["kashaev", "solve", "{d}/one_cube.json", "{d}/init_ones.json",
             "--order", "random:x"]),
    "taut-reconstruct-monomial-list": (
        {"m.json": [1, 2]},
        ["taut", "reconstruct", "{d}/one_cube.json", "{d}/m.json"]),
    "taut-reconstruct-exponent-not-an-integer": (
        {"m.json": {"g[0,0,0]": "x"}},
        ["taut", "reconstruct", "{d}/one_cube.json", "{d}/m.json"]),
    "taut-reconstruct-unknown-variable": (
        {"m.json": {"nope": 1}},
        ["taut", "reconstruct", "{d}/one_cube.json", "{d}/m.json"]),
    "shape-rho-zero-r": (
        {}, ["shape", "rho", "--N", "8", "--R", "0"]),
    "shape-curve-zero-r": (
        {}, ["shape", "curve", "--R", "0"]),
    "shape-rho-negative-r": (
        {}, ["shape", "rho", "--N", "8", "--R", "-1"]),
    "shape-rho-huge-n": (
        {}, ["shape", "rho", "--N", "100000", "--R", "1"]),
    # finite layers and R whose R, S or d leave the float range
    "shape-params-huge-a-tiny-b": (
        {}, ["shape", "params", "--a", "1e300", "--b", "1e-300"]),
    "shape-params-huge-a-and-c": (
        {}, ["shape", "params", "--a", "1e200", "--b", "1", "--c", "1e200"]),
    "shape-params-tiny-a-huge-b": (
        {}, ["shape", "params", "--a", "1e-300", "--b", "1e300"]),
    "shape-params-tiny-a-and-c": (
        {}, ["shape", "params", "--a", "1e-200", "--b", "1", "--c",
             "1e-200"]),
    "shape-rho-tiny-r": (
        {}, ["shape", "rho", "--R", "1e-300", "--N", "5"]),
    "shape-curve-tiny-r": (
        {}, ["shape", "curve", "--R", "1e-300"]),
    "stepped-window-nan": (
        {}, ["stepped", "surface", "{d}/one_cube.json", "--window", "nan"]),
    "stepped-window-inf": (
        {}, ["stepped", "surface", "{d}/one_cube.json", "--window", "inf"]),
    # finite radii whose window would not fit in memory
    "stepped-window-1e300": (
        {}, ["stepped", "surface", "{d}/one_cube.json", "--window", "1e300"]),
    "stepped-window-1e7": (
        {}, ["stepped", "surface", "{d}/one_cube.json", "--window", "1e7"]),
    "stepped-cube-two-coordinates": (
        {"s.json": {"removed": [[-1, -1]]}},
        ["stepped", "surface", "{d}/s.json"]),
    "stepped-cube-float-coordinate": (
        {"s.json": {"removed": [[-1.0, -1, -1]]}},
        ["stepped", "surface", "{d}/s.json"]),
    "stepped-cube-deep": (
        {"s.json": {"removed": [[-3000, -3000, -3000]]}},
        ["stepped", "surface", "{d}/s.json"]),
    "stepped-cube-beyond-int64": (
        {"s.json": {"removed": [[-10 ** 20, -1, -1]]}},
        ["stepped", "surface", "{d}/s.json"]),
    "taut-enumerate-negative-limit": (
        {}, ["taut", "enumerate", "{d}/one_cube.json", "--limit", "-1"]),
    "loops-enumerate-negative-limit": (
        {}, ["loops", "enumerate", "{d}/grid22_graph.json",
             "{d}/grid22_weights.json", "--limit", "-2"]),
    "taut-sample-negative-n": (
        {}, ["taut", "sample", "{d}/one_cube.json", "--init",
             "{d}/init_ones.json", "--n", "-1"]),
    "shape-curve-negative-points": (
        {}, ["shape", "curve", "--R", "3", "--points", "-5"]),
    "kashaev-init-nan": (
        {"i.json": {"default": float("nan")}},
        ["kashaev", "solve", "{d}/one_cube.json", "{d}/i.json"]),
    # finite positive values whose face roots leave the float range: 0 or
    # inf
    "kashaev-init-tiny": (
        {"i.json": {"default": 1e-200}},
        ["kashaev", "solve", "{d}/one_cube.json", "{d}/i.json"]),
    "kashaev-init-huge": (
        {"i.json": {"default": 1e200}},
        ["kashaev", "solve", "{d}/one_cube.json", "{d}/i.json"]),
    "kashaev-yb-row-zero": ({}, ["kashaev", "yb", "--row", "0"]),
    "kashaev-yb-row-eight": ({}, ["kashaev", "yb", "--row", "8", "--dual"]),
    # input files the action needs but argv leaves out
    "dimers-verify-no-graph": ({}, ["dimers", "verify"]),
    "dimers-verify-no-weights": (
        {}, ["dimers", "verify", "{d}/cube_graph.json"]),
    "kashaev-solve-no-solid": ({}, ["kashaev", "solve"]),
    "taut-reconstruct-no-monomial": (
        {}, ["taut", "reconstruct", "{d}/one_cube.json"]),
}
# initial values that are not finite and positive, or whose weights leave
# the float range
MALFORMED.update({
    f"taut-{action}-init-{name}": (
        {"i.json": {"default": value}},
        ["taut", action, "{d}/one_cube.json", "--init", "{d}/i.json"])
    for action in ("sample", "partition")
    for name, value in (("zero", 0), ("negative", -1), ("tiny", 1e-200),
                        ("nan", float("nan")))})

# grid22_graph.json edited to break the face check or to put an edge on
# three faces: (edit, error start of the commands that read the complex,
# violation kinds `graph validate` reports with exit 1)
BAD_GRAPHS = {
    "face-three-corners": (
        lambda g: g["faces"]["(0, 0)"].pop(),
        "QuadGraphError: FaceDegree: face (0, 0)",
        ["FaceDegree", "Bipartite"]),
    "edge-on-three-faces": (
        lambda g: g["faces"].update(extra=g["faces"]["(0, 0)"]),
        "LoopModelError: edge [(0, 1), (1, 1)] bounds 3 faces",
        ["Euler", "EdgeIncidence", "EdgeIncidence"]),
    "every-vertex-white": (
        lambda g: [v.update(color="white") for v in g["vertices"]],
        "QuadGraphError: CornerColors: face (0, 0)",
        ["CornerColors"] * 4 + ["Bipartite"] * 12),
    "corner-not-a-vertex": (
        lambda g: g["faces"]["(0, 0)"].__setitem__(1, [9, 9]),
        "QuadGraphError: UnknownCorner: face (0, 0) corner (9, 9)",
        ["UnknownCorner", "Euler"]),
}
GRID22 = json.dumps(grid_quadgraph(2, 2).to_json())
# free-fermionic weights on every face, the extra one included
BAD_GRAPH_WEIGHTS = {"faces": {
    fid: ["9/25", "16/25", "3/5", "4/5", "12/25"]
    for fid in [*json.loads(GRID22)["faces"], "extra"]}}
GRAPH_COMMANDS = [["graph", "validate", "{d}/g.json"],
                  ["graph", "tracks", "{d}/g.json"],
                  ["param", "solve", "{d}/g.json", "{d}/w.json"],
                  ["loops", "partition", "{d}/g.json", "{d}/w.json"],
                  ["dimers", "verify", "{d}/g.json", "{d}/w.json"]]


def _bad_graph(edit):
    graph = json.loads(GRID22)
    edit(graph)
    return graph


MALFORMED.update({
    f"{argv[0]}-{argv[1]}-{name}": (
        {"g.json": _bad_graph(edit), "w.json": BAD_GRAPH_WEIGHTS}, argv)
    for name, (edit, _start, _kinds) in BAD_GRAPHS.items()
    for argv in GRAPH_COMMANDS})
VALIDATE_KINDS = {f"graph-validate-{name}": kinds
                  for name, (_edit, _start, kinds) in BAD_GRAPHS.items()}


@contextlib.contextmanager
def time_limit(seconds):
    """Fail, instead of hanging, when the body runs longer than seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# the start of the error some rows must report
ERROR_START = {
    "kashaev-init-tiny": "NonPositive: face (0, (-1, -1, -1)) is 0.0, out of "
                         "float range, from the initial values 1e-200,",
    "kashaev-yb-row-zero": "TautError: row 0 is not one of 1-7",
    **dict.fromkeys(["stepped-window-1e300", "stepped-window-1e7"],
                    "WindowTooLarge: "),
    **dict.fromkeys(["dimers-verify-no-graph", "dimers-verify-no-weights",
                     "kashaev-solve-no-solid", "taut-reconstruct-no-monomial"],
                    "a required input file is missing"),
    **dict.fromkeys(["shape-params-huge-a-tiny-b", "shape-params-huge-a-and-c",
                     "shape-params-tiny-a-huge-b", "shape-params-tiny-a-and-c",
                     "shape-rho-tiny-r", "shape-curve-tiny-r"],
                    "LimitShapeError: "),
}
ERROR_START.update({
    f"{argv[0]}-{argv[1]}-{name}": start
    for name, (_edit, start, _kinds) in BAD_GRAPHS.items()
    for argv in GRAPH_COMMANDS[1:]})


@pytest.mark.parametrize("files, argv, start, kinds", [
    (*case, ERROR_START.get(name, ""), VALIDATE_KINDS.get(name))
    for name, case in MALFORMED.items()], ids=MALFORMED)
def test_malformed_input_is_json_error(tmp_path, capsys, files, argv, start,
                                       kinds):
    run(capsys, "fixtures", "--out", str(tmp_path))
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    with time_limit(10):
        code, out, err = run(capsys, *[a.format(d=tmp_path) for a in argv])
    if kinds is not None:
        # validate reports what is wrong with a graph, and exits 1
        assert code == 1 and err == ""
        report = _strict_json(out)
        assert not report["valid"]
        assert [v["kind"] for v in report["violations"]] == kinds
        return
    assert code == 2 and out == ""
    error = _strict_json(err)["error"]
    assert error and error.startswith(start)

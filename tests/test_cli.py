"""Command-line behaviour: wiring, exit codes, determinism."""

import json
import math
import pathlib
import shlex

import pytest

from c2loop.cli import main
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
    assert json.loads(out)["partition_function"] > 0


def test_dimers_verify(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "dimers", "verify",
                       str(tmp_path / "cube_graph.json"),
                       str(tmp_path / "cube_weights.json"))
    assert code == 0
    assert json.loads(out)["equal"]


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
    solid.write_text(json.dumps(slab_solid(24).to_json()))
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


def test_readme_commands(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cmds = readme_commands()
    assert cmds[0][0] == "fixtures" and len(cmds) > 10
    runs = []
    for _ in range(2):
        outs = []
        for argv in cmds:
            code, out, _ = run(capsys, *argv)
            assert code == 0, argv
            _strict_json(out)
            outs.append(out)
        files = {str(p.relative_to(tmp_path)): p.read_bytes()
                 for p in tmp_path.rglob("*") if p.is_file()}
        runs.append((outs, files))
    assert runs[0] == runs[1]


def test_groves_verify(tmp_path, capsys):
    run(capsys, "fixtures", "--out", str(tmp_path))
    code, out, _ = run(capsys, "groves", "verify",
                       str(tmp_path / "one_cube.json"))
    assert code == 0
    assert json.loads(out)["equal"]


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
    solid.write_text(json.dumps(slab_solid(12).to_json()))
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
    "stepped-window-nan": (
        {}, ["stepped", "surface", "{d}/one_cube.json", "--window", "nan"]),
    "stepped-window-inf": (
        {}, ["stepped", "surface", "{d}/one_cube.json", "--window", "inf"]),
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


# the start of the error some rows must report
ERROR_START = {
    "kashaev-init-tiny": "NonPositive: face (0, (-1, -1, -1)) is 0.0, out of "
                         "float range, from the initial values 1e-200,",
    "kashaev-yb-row-zero": "TautError: row 0 is not one of 1-7",
    **dict.fromkeys(["dimers-verify-no-graph", "dimers-verify-no-weights",
                     "kashaev-solve-no-solid", "taut-reconstruct-no-monomial"],
                    "a required input file is missing"),
}


@pytest.mark.parametrize("files, argv, start", [
    (*case, ERROR_START.get(name, "")) for name, case in MALFORMED.items()],
    ids=MALFORMED)
def test_malformed_input_is_json_error(tmp_path, capsys, files, argv, start):
    run(capsys, "fixtures", "--out", str(tmp_path))
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload))
    code, out, err = run(capsys, *[a.format(d=tmp_path) for a in argv])
    assert code == 2 and out == ""
    error = _strict_json(err)["error"]
    assert error and error.startswith(start)

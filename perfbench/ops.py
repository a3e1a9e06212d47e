"""The benchmark's three workloads: operations and their independent checks.

A workload is built once from its seed (that is set-up) and returns a list
of operations.  An operation is one verification unit: it calls c2loop's
public functions on the generated inputs and checks the results against a
reference that does not re-run the code under test.  It passes by
returning; it fails by raising.  `KnownFailure` marks the defects the parent
commit is known to have; they are attempted and counted on every pass.
`stats` is a dict the operations of one pass share; the runner empties it
before every pass.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from c2loop import (cli, ffdimers, fixtures, groves, kashaev, laurent,
                    limitshape, loopmodel, quadgraph, stepped, taut)

import seeded

RHO_N = 80
RHO_POINTS = [(1, 1, 1), (2, 1, 1)]
# two-sided binomial tail below which a sampled frequency fails
SAMPLE_ALPHA = 1e-7
FREE_ENERGY_GRID = 512
WINDOW_FACES_MAX = 160     # faces of a 3-cube solid's window: 90 to 111


class CheckFailed(Exception):
    """A result disagrees with its reference; `layer` produced the result."""

    def __init__(self, layer, message):
        super().__init__(message)
        self.layer = layer


class KnownFailure(CheckFailed):
    """One of the defects recorded for the parent commit."""


def check(ok, layer, message):
    if not ok:
        raise CheckFailed(layer, message)


def close(x, ref, rel):
    return (math.isfinite(x) and math.isfinite(ref)
            and abs(x - ref) <= rel * max(abs(x), abs(ref)))


@dataclass
class Op:
    name: str
    layer: str                 # layer blamed when a failure names none
    run: Callable[[], None]


def slab_cubes(n):
    """Cubes of the corner slab: all with height >= -n."""
    r = range(-n, 0)
    return [(i, j, k) for i in r for j in r for k in r if i + j + k >= -n]


BOX = [(i, j, k) for i in (-1, -2) for j in (-1, -2) for k in (-1, -2)]
# small solids of fixed shape, so that the seed changes the data (orders,
# values, weights) and not the amount of work
ONE = [(-1, -1, -1)]
TWO = [(-2, -1, -1), (-1, -1, -1)]
ROW3 = [(-3, -1, -1), (-2, -1, -1), (-1, -1, -1)]
ELL3 = [(-2, -1, -1), (-1, -2, -1), (-1, -1, -1)]


def solid(cubes):
    return stepped.SteppedSolid.from_removed(cubes)


def vertex_of(name):
    """Lattice point of a vertex variable named 'g[i,j,k]'."""
    return tuple(json.loads(name[1:]))


def point(registry, values):
    """Assignment of every vertex variable of a registry from `values`."""
    return {n: values[vertex_of(n)] for n in registry.vertex_vars}


def lsum(tracer, zero, polys):
    with tracer.span("laurent.sum"):
        total = zero
        for p in polys:
            total = total + p
    tracer.count_max("laurent.max_terms", total.num_terms())
    return total


# ---------------------------------------------------------------------------
# theorem-symbolic
# ---------------------------------------------------------------------------

def theorem_op(tracer, cubes, order, values, stats):
    """Partition function = recurrence (exactly, in a seeded fill order, and
    numerically), the monomial bijection by reconstruction, and the
    loop-free sector against the all-plus recurrence."""
    U = solid(cubes)
    win = taut.build_taut_window(U)
    cfgs = taut.enumerate_taut(U, win)
    weights = [taut.taut_weight(win, c, symbolic=True) for c in cfgs]
    by_mono = {}
    for cfg, w in zip(cfgs, weights):
        (mono, coeff), = w.terms.items()
        check(coeff == 2 ** cfg.n_loops, "taut",
              "taut weight coefficient is not 2^loops")
        check(mono not in by_mono, "taut",
              "two configurations share a monomial")
        by_mono[mono] = cfg
    total = lsum(tracer, win.registry.zero(), weights)
    radius = win.sg.window_radius
    rec = kashaev.solve_origin(U, mode="symbolic", order=order,
                               window_radius=radius)
    tracer.count_max("laurent.max_terms", rec.num_terms())
    check(rec == total, "kashaev",
          "recurrence solution differs from the partition function")
    for mono in rec.terms:
        cfg = taut.reconstruct_from_monomial(U, dict(mono), window=win)
        check(mono in by_mono
              and cfg.assignment == by_mono[mono].assignment, "taut",
              "reconstruction does not return the enumerated configuration")
    free = {id(c) for c in groves.filter_no_loops(cfgs)}
    free_total = lsum(tracer, win.registry.zero(),
                      [w for c, w in zip(cfgs, weights) if id(c) in free])
    check(groves.cube_recurrence_solve(U, window=win) == free_total,
          "groves", "all-plus recurrence differs from the loop-free sector")
    y = sum(taut.taut_weight(win, c, symbolic=False, g_init=values)
            for c in cfgs)
    v = kashaev.solve_origin(U, g_init=values, mode="numeric", order=order,
                             window_radius=radius)
    check(close(v, y, 1e-9), "kashaev",
          f"numeric recurrence {v} differs from the partition value {y}")
    stats.setdefault("configs", {})[tuple(cubes)] = len(cfgs)


def box_op(tracer, order, values):
    """The 2x2x2 box: the symbolic recurrence is attempted in a seeded fill
    order.  It raises NotDivisible at the parent commit (a known failure);
    once it succeeds, its coefficients must be powers of two and its value
    at a seeded point must match the numeric recurrence."""
    U = solid(BOX)
    try:
        rec = kashaev.solve_origin(U, mode="symbolic", order=order)
    except laurent.NotDivisible as exc:
        raise KnownFailure("kashaev", f"box: NotDivisible: {exc}") from exc
    tracer.count_max("laurent.max_terms", rec.num_terms())
    for c in rec.terms.values():
        check(c > 0 and c.denominator == 1
              and c.numerator & (c.numerator - 1) == 0, "kashaev",
              f"box coefficient {c} is not a power of two")
    val = laurent.lp_eval(rec, point(rec.registry, values))
    ref = kashaev.solve_origin(U, g_init=values, mode="numeric")
    check(close(val, ref, 1e-9), "kashaev",
          f"box: symbolic value {val} differs from numeric {ref}")


def cli_op(path, cubes, stats):
    """`c2loop taut verify` through the CLI entry point: exit code 0, JSON on
    stdout, both verdicts true, and the configuration count the in-process
    operation enumerated for the same solid."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(["taut", "verify", path])
    check(rc == 0, "cli", f"exit code {rc}")
    out = json.loads(buf.getvalue())
    mc = out["monomial_checks"]
    check(out["partition_equals_recurrence"] is True and mc["all"] is True,
          "cli", "taut verify reports a failed check")
    want = stats.get("configs", {}).get(tuple(cubes))
    check(mc["n_configs"] == mc["n_monomials"] == want, "cli",
          f"taut verify counts {mc['n_configs']} configurations, "
          f"the library enumerated {want}")


def theorem_symbolic(seed, tracer, workdir, stats):
    rng = seeded.stream(seed, "theorem-symbolic")
    ops = []
    for name, cubes in [("slab4", slab_cubes(4)), ("row3", ROW3),
                        ("ell3", ELL3)]:
        order = seeded.random_order(rng, cubes)
        values = seeded.VertexValues(rng.getrandbits(63))
        ops.append(Op(name, "taut",
                      lambda c=cubes, o=order, v=values:
                      theorem_op(tracer, c, o, v, stats)))
    box_order = seeded.random_order(rng, BOX)
    box_values = seeded.VertexValues(rng.getrandbits(63))
    ops.append(Op("box", "kashaev",
                  lambda: box_op(tracer, box_order, box_values)))
    path = os.path.join(workdir, "theorem-symbolic-ell3.json")
    with open(path, "w") as fh:
        json.dump({"removed": [list(p) for p in ELL3]}, fh)
    ops.append(Op("cli", "cli", lambda: cli_op(path, ELL3, stats)))
    return ops


# ---------------------------------------------------------------------------
# recurrence-numeric
# ---------------------------------------------------------------------------

def slab_op(n, abc, stats):
    """Numeric recurrence on the N-slab against the height-periodic closed
    form.  A non-finite value is the known overflow defect."""
    a, b, c = abc
    v = kashaev.solve_origin(solid(slab_cubes(n)),
                             g_init=seeded.LayeredValues(n, a, b, c),
                             mode="numeric")
    if not math.isfinite(v):
        raise KnownFailure("kashaev", f"slab {n}: non-finite value {v}")
    y = limitshape.y_closed_form(n, a, b, c)[0]
    check(close(v, y, 1e-9), "kashaev",
          f"slab {n}: recurrence {v} differs from closed form {y}")
    stats.setdefault("slab_ok", set()).add(n)


def pile_op(cubes, order, values):
    """Order independence on a large random pile."""
    U = solid(cubes)
    v1 = kashaev.solve_origin(U, g_init=values, mode="numeric")
    v2 = kashaev.solve_origin(U, g_init=values, mode="numeric", order=order)
    check(close(v1, v2, 1e-9), "kashaev",
          f"pile: canonical order gives {v1}, seeded order {v2}")


def rho_op(abc, points):
    """The observable field from its linear recurrences against the
    symbolic-derivative oracle."""
    a, b, c = abc
    field = limitshape.rho_field(RHO_N, a * c / (b * b))
    for x in points:
        got = field.values.get(x, 0.0)
        ref = limitshape.rho_oracle(x, a, b, c)
        check(abs(got - ref) <= 1e-9 * (1 + abs(ref)), "limitshape",
              f"rho at {x}: field {got}, oracle {ref}")


def binomial_tail(k, n, p):
    """min(P[X <= k], P[X >= k]) for X ~ Binomial(n, p)."""
    if p <= 0.0 or p >= 1.0:
        return 1.0 if k == round(n * p) else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(j + 1)
                    - math.lgamma(n - j + 1) + j * lp + (n - j) * lq)
           for j in range(n + 1)]
    return min(sum(pmf[:k + 1]), sum(pmf[k:]))


def sampling_op(cubes, n, values, sample_seed):
    """Exact sampling: each monomial's frequency among the samples against
    its exact probability, read off the symbolic recurrence solution."""
    U = solid(cubes)
    win = taut.build_taut_window(U)
    drawn = taut.sample_taut(U, values, seed=sample_seed, n=n, window=win)
    counts = collections.Counter()
    for cfg in drawn:
        (mono, _c), = taut.taut_weight(win, cfg, symbolic=True).terms.items()
        counts[mono] += 1
    poly = kashaev.solve_origin(U, mode="symbolic",
                                window_radius=win.sg.window_radius)
    reg = poly.registry
    at = point(reg, values)
    total = laurent.lp_eval(poly, at)
    check(set(counts) <= set(poly.terms), "taut",
          "a sample's monomial is not a term of the partition function")
    for mono, coeff in poly.terms.items():
        p = laurent.lp_eval(reg.monomial(dict(mono), coeff), at) / total
        tail = binomial_tail(counts[mono], n, p)
        check(tail >= SAMPLE_ALPHA / 2, "taut",
              f"monomial drawn {counts[mono]} times in {n}, "
              f"probability {p:.6f} (tail {tail:.3g})")


def recurrence_numeric(seed, tracer, workdir, stats):
    rng = seeded.stream(seed, "recurrence-numeric")
    abc = seeded.layered_data(rng)
    ops = [Op(f"slab{n}", "kashaev", lambda n=n: slab_op(n, abc, stats))
           for n in seeded.SLAB_LADDER]
    pile = seeded.random_pile(rng, 250)
    pile_order = seeded.random_order(rng, pile)
    pile_values = seeded.VertexValues(rng.getrandbits(63))
    ops.append(Op("pile", "kashaev",
                  lambda: pile_op(pile, pile_order, pile_values)))
    rho_abc = tuple(rng.uniform(0.5, 2.0) for _ in range(3))
    ops.append(Op("rho", "limitshape",
                  lambda: rho_op(rho_abc, RHO_POINTS)))
    # sample counts even out the four operations' latencies (1000 draws)
    for name, cubes, n in [("one", ONE, 450), ("two", TWO, 250),
                           ("row3", ROW3, 150), ("ell3", ELL3, 150)]:
        values = seeded.VertexValues(rng.getrandbits(63))
        sseed = rng.getrandbits(32)
        ops.append(Op(f"sample_{name}", "taut",
                      lambda c=cubes, n=n, v=values, s=sseed:
                      sampling_op(c, n, v, s)))
    return ops


# ---------------------------------------------------------------------------
# dimers-spectral
# ---------------------------------------------------------------------------

def correspondence_op(comp, W):
    """Loop partition function against prod(lambda) * Z_dimer^2, exactly."""
    configs = loopmodel.enumerate_configs(comp,
                                          loopmodel.BoundarySpec.closed())
    z_loop = 0
    for cfg in configs:
        z_loop = loopmodel.weight(comp, cfg, W) + z_loop
    params = {f: ffdimers.ff_decompose(W[f]) for f in comp.face_ids()}
    gq = ffdimers.build_gq(comp, params)
    z_dim = ffdimers.dimer_partition_bruteforce(gq)
    lam = 1
    for f in comp.face_ids():
        lam = params[f].lam * lam
    check(z_loop == lam * z_dim * z_dim, "loopmodel",
          "loop partition function differs from lambda * Z_dimer^2")


def road_op(comp):
    """Every road is covered with probability exactly 1/2 at the symmetric
    point."""
    W = fixtures.ff_fixture_weights()
    gq = ffdimers.build_gq(comp, {f: ffdimers.ff_decompose(W)
                                  for f in comp.face_ids()})
    for key in sorted(gq.road_of, key=str):
        p = ffdimers.road_probability(gq, key)
        check(p == Fraction(1, 2), "ffdimers",
              f"road {key} has probability {p}")


def kasteleyn_op(comp, W):
    """Kasteleyn orientation: odd around every constrained face, and |det K|
    equal to the brute-force dimer partition function."""
    gq = ffdimers.build_gq(comp, {f: ffdimers.ff_decompose(W[f])
                                  for f in comp.face_ids()})
    data = ffdimers.kasteleyn_orientation(gq, comp)
    check(ffdimers.kasteleyn_valid(gq, data, comp), "ffdimers",
          "orientation is not Kasteleyn")
    det = ffdimers.kasteleyn_determinant(gq, data)
    z = float(ffdimers.dimer_partition_bruteforce(gq))
    check(close(det, z, 1e-9), "ffdimers", f"|det K| = {det}, Z = {z}")


def free_energy_op(make_domain, theta, known):
    """Torus free energy on the grid against the Lobachevsky closed form."""
    fe = ffdimers.free_energy(make_domain(theta), grid=FREE_ENERGY_GRID)
    ref = ffdimers.lobachevsky_free_energy(theta)
    if abs(fe - ref) > 1e-6:
        cls = KnownFailure if known else CheckFailed
        raise cls("ffdimers", f"{make_domain.__name__}({theta:.6f}): grid "
                  f"{fe}, closed form {ref}")


def parametrization_op(cubes, weights):
    """Track census identities and the exact round trip of the
    parametrization solve on a stepped window, with the seeded rational
    weights given to its faces in sorted order."""
    sg = stepped.surface_graph(solid(cubes))
    colors = {v: "black" if sum(v) % 2 == 0 else "white"
              for v in sg.vertices}
    g = quadgraph.QuadGraph(colors, dict(sg.faces), dict(sg.positions))
    census = quadgraph.track_census(g)
    check(all(census["checks"].values()), "quadgraph",
          f"track census fails: {census['checks']}")
    check(len(weights) >= len(g.faces), "stepped", "window too large")
    W = dict(zip(sorted(g.faces), weights))
    gf = quadgraph.solve_parametrization(g, W)["g_formal"]
    for fid in g.faces:
        x, u, y, v = g.corner_labels(fid)
        ratio = (gf[x] * gf[y]) / (gf[u] * gf[v])
        check(ratio.exps == {fid: Fraction(1)}, "quadgraph",
              f"face {fid}: parametrized ratio {ratio}")


def dimers_spectral(seed, tracer, workdir, stats):
    rng = seeded.stream(seed, "dimers-spectral")
    comp = loopmodel.complex_from_quadgraph(fixtures.cube_sphere())
    fids = comp.face_ids()
    draws = [{f: fixtures.ff_fixture_weights() for f in fids}]
    draws += [{f: fixtures.rational_ff_weights(rng) for f in fids}
              for _ in range(4)]
    ops = [Op(f"correspondence{k}", "loopmodel",
              lambda W=W: correspondence_op(comp, W))
           for k, W in enumerate(draws)]
    ops.append(Op("road", "ffdimers", lambda: road_op(comp)))
    ops += [Op(f"kasteleyn{k}", "ffdimers",
               lambda W=W: kasteleyn_op(comp, W))
            for k, W in enumerate(draws[1:3], start=1)]
    theta = seeded.theta(rng)
    ops.append(Op("free_energy_octa", "ffdimers",
                  lambda: free_energy_op(ffdimers.fig_octa_domain, theta,
                                         known=False)))
    # the decorated-graph domain agrees with the closed form only at pi/4
    ops.append(Op("free_energy_gq", "ffdimers",
                  lambda: free_energy_op(ffdimers.gq_torus_domain, theta,
                                         known=True)))
    for name, cubes in [("row3", ROW3), ("ell3", ELL3)]:
        weights = [fixtures.rational_ff_weights(rng)
                   for _ in range(WINDOW_FACES_MAX)]
        ops.append(Op(f"parametrization_{name}", "quadgraph",
                      lambda c=cubes, w=weights: parametrization_op(c, w)))
    return ops


# name -> (builder, budgeted seconds of one pass): a run makes
# round(seconds / budget) passes, so every run of a workload takes the same
# number of samples; the budgets are upper estimates of a pass at the parent
# commit on a loaded 2-core machine
WORKLOADS = {
    "theorem-symbolic": (theorem_symbolic, 12.0),
    "recurrence-numeric": (recurrence_numeric, 12.0),
    "dimers-spectral": (dimers_spectral, 7.0),
}

"""Seeded input generation for the benchmark.

Everything seeded that the library receives is built here from the workload
seed: random piles, fill orders, initial values, layered slab data and
angles (rational free-fermionic weights come from c2loop.fixtures with a
stream from here).  The generators are the benchmark's own code, so a fill
order or a pile never comes from the library function it is used to test.
"""

from __future__ import annotations

import math
import random

UNITS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))

# slab ladder and the band its layered data is drawn from: inside [0.5, 2],
# every draw keeps the numeric recurrence finite up to N = 15 and overflows
# it at N = 20 (a known defect), so max_slab_ok reads 15 on every seed
SLAB_LADDER = (3, 5, 7, 9, 11, 13, 15, 20)
SLAB_A_C = (0.5, 0.7)
SLAB_B = (1.8, 2.0)


def stream(seed, purpose):
    """An independent random stream for one purpose of one seed."""
    return random.Random(f"{seed}:{purpose}")


def _add(p, q):
    return (p[0] + q[0], p[1] + q[1], p[2] + q[2])


def _sub(p, q):
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def _norm2(p):
    return p[0] * p[0] + p[1] * p[1] + p[2] * p[2]


def addable_cubes(removed):
    """Cubes that may join an upward-closed removed set: every upper
    neighbour is removed already or lies outside the negative octant."""
    if not removed:
        return [(-1, -1, -1)]
    cands = {_sub(p, e) for p in removed for e in UNITS} - set(removed)
    return sorted(
        p for p in cands
        if all(_add(p, e) in removed or max(_add(p, e)) > -1 for e in UNITS))


def random_pile(rng, n_cubes):
    """Upward-closed pile of n_cubes, grown one cube at a time; each step
    picks uniformly among the addable cubes whose squared distance from the
    corner is within 3 of the nearest one, which keeps piles of one size
    about equally round (and so equally costly to solve)."""
    removed = set()
    for _ in range(n_cubes):
        cands = addable_cubes(removed)
        near = min(_norm2(p) for p in cands) + 3
        removed.add(rng.choice([p for p in cands if _norm2(p) <= near]))
    return sorted(removed)


def random_order(rng, cubes):
    """A uniformly chosen valid fill order: a cube may be filled back once
    none of its three lower neighbours is still removed."""
    remaining = set(map(tuple, cubes))
    order = []
    while remaining:
        ready = sorted(p for p in remaining
                       if all(_sub(p, e) not in remaining for e in UNITS))
        p = rng.choice(ready)
        order.append(p)
        remaining.remove(p)
    return order


def _mix(x):
    """splitmix64 finalizer."""
    x = (x + 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return x ^ (x >> 31)


class VertexValues(dict):
    """Initial values in [1, 2] for every lattice point, a pure function of
    the seed and the point, so no window has to be built to list them."""

    def __init__(self, seed):
        super().__init__()
        self.key = _mix(int(seed) & 0xFFFFFFFFFFFFFFFF)

    def __missing__(self, v):
        x = self.key
        for c in v:
            x = _mix(x ^ (c & 0xFFFFFFFF))
        val = 1.0 + (x >> 11) / float(1 << 53)
        self[v] = val
        return val


class LayeredValues(dict):
    """Height-periodic slab data: a, b, c on the three bottom layers of the
    N-slab and 1 elsewhere (the layers the origin value depends on)."""

    def __init__(self, n, a, b, c):
        super().__init__()
        self.n = n
        self.layers = {0: a, 1: b, 2: c}

    def __missing__(self, v):
        return self.layers.get(v[0] + v[1] + v[2] + self.n, 1.0)


def layered_data(rng):
    a = rng.uniform(*SLAB_A_C)
    b = rng.uniform(*SLAB_B)
    c = rng.uniform(*SLAB_A_C)
    return a, b, c


def theta(rng):
    """An angle of the integrable family away from the degenerate ends."""
    return rng.uniform(math.pi / 10, 2 * math.pi / 5)

"""The loop-free sector and the all-plus recurrence.

A taut configuration without closed loops is all blue (red paths always
close up), so every face shows one of the two blue turn pictures.  The
sector's partition function satisfies the all-plus-sign recurrence
g * g_top = g1 g23 + g2 g13 + g3 g12 instead of the full one, and its
monomials are exactly the monomials with an odd coefficient in the full
partition function, each with coefficient 1.  Recording every face of the
sector by its non-hugged diagonal gives the grove-like essential forests on
the even and odd sublattices; that dictionary and the forest check are test
oracles (tests/test_groves.py), not part of the package.
"""

from __future__ import annotations

from .kashaev import fill_corners, lift_state
from .loopmodel import side_colors
from .stepped import fill_order, is_regular
from .taut import build_taut_window, enumerate_taut, taut_weight, \
    window_for


class GrovesError(Exception):
    pass


def filter_no_loops(configs):
    """The loop-free sector; such configurations contain no red half-edge."""
    out = []
    for cfg in configs:
        if cfg.n_loops == 0:
            for name in cfg.assignment.values():
                if "R" in side_colors(name):
                    raise GrovesError("loop-free configuration shows red")
            out.append(cfg)
    return out


def _all_plus_step(_p, corners):
    g, g1, g2, g3, g12, g13, g23 = corners
    return (g1 * g23 + g2 * g13 + g3 * g12) / g


def cube_recurrence_solve(U, window=None):
    """Origin value of the all-plus-sign recurrence along the fill order, as
    a Laurent polynomial in the window's variables."""
    if not is_regular(U)["regular"]:
        raise GrovesError("requires a regular solid")
    win = window_for(U, window)
    g, _faces = lift_state(win.sg)
    fill_corners(fill_order(U), g, _all_plus_step)
    return g[(0, 0, 0)]


def verify_grove_equality(U):
    """Loop-free partition function against the all-plus recurrence, as
    Laurent polynomials, plus the coefficient-parity reduction."""
    win = build_taut_window(U)
    configs = enumerate_taut(U, win)
    free = filter_no_loops(configs)
    weights = [taut_weight(win, cfg, symbolic=True) for cfg in configs]
    total = win.registry.zero()
    for cfg, w in zip(configs, weights):
        if cfg.n_loops == 0:
            total = total + w
    rec = cube_recurrence_solve(U, window=win)
    equal = total == rec
    # parity: even coefficients of the full sum are exactly the looped part
    full = win.registry.zero()
    for w in weights:
        full = full + w
    odd_monos = {m for m, c in full.terms.items() if c.numerator % 2 == 1}
    free_monos = set(total.terms)
    parity_ok = odd_monos == free_monos and all(
        total.terms[m] == 1 for m in free_monos)
    return {"equal": equal, "n_loop_free": len(free),
            "parity_match": parity_ok,
            "ok": equal and parity_ok}

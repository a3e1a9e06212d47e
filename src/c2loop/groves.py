"""The loop-free sector and its spanning-forest counterpart.

A taut configuration without closed loops is all blue (red paths always
close up), so every face shows one of the two blue turn pictures, and the
face can be recorded by its non-hugged diagonal.  The resulting diagonal
sets are exactly the grove-like essential forests on the even and odd
sublattices, and the sector's partition function satisfies the all-plus-sign
recurrence g * g_top = g1 g23 + g2 g13 + g3 g12 instead of the full one.
"""

from __future__ import annotations

from .kashaev import fill_corners, lift_state
from .loopmodel import LOCAL_CONFIGS, side_colors
from .stepped import fill_order, is_regular
from .taut import enumerate_taut, taut_weight, window_for


class GrovesError(Exception):
    pass


class HasLoops(GrovesError):
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


def to_grove(cfg):
    """Per-face chosen diagonal: the pair of corners the blue turns avoid."""
    if cfg.n_loops != 0:
        raise HasLoops("grove image is defined on the loop-free sector")
    comp = cfg.window.comp
    out = {}
    for key, name in cfg.full_assignment().items():
        cyc = comp.corner_ids[key]
        row = LOCAL_CONFIGS[name][0]
        if row == 1:
            out[key] = (cyc[0], cyc[2])
        elif row == 2:
            out[key] = (cyc[1], cyc[3])
        else:
            raise HasLoops(f"face {key} is not a blue turn")
    return out


def grove_to_types(window, grove):
    """Inverse of the diagonal dictionary on the window's faces."""
    comp = window.comp
    out = {}
    for key, diag in grove.items():
        cyc = comp.corner_ids[key]
        if set(diag) == {cyc[0], cyc[2]}:
            out[key] = "1b"
        elif set(diag) == {cyc[1], cyc[3]}:
            out[key] = "2b"
        else:
            raise GrovesError(f"{diag} is not a diagonal of {key}")
    return out


def _all_plus_step(_p, corners):
    g, g1, g2, g3, g12, g13, g23 = corners
    return (g1 * g23 + g2 * g13 + g3 * g12) / g


def cube_recurrence_solve(U, g_init=None, mode="symbolic", window=None):
    """Origin value of the all-plus-sign recurrence along the fill order."""
    if not is_regular(U)["regular"]:
        raise GrovesError("requires a regular solid")
    win = window_for(U, window)
    g = lift_state(win.sg, g_init, mode).g_values
    fill_corners(fill_order(U), g, _all_plus_step)
    return g[(0, 0, 0)]


def verify_grove_equality(U, window=None):
    """Loop-free partition function against the all-plus recurrence, as
    Laurent polynomials, plus the coefficient-parity reduction."""
    win = window_for(U, window)
    configs = enumerate_taut(U, win)
    free = filter_no_loops(configs)
    total = win.registry.zero()
    for cfg in free:
        total = total + taut_weight(win, cfg, symbolic=True)
    rec = cube_recurrence_solve(U, window=win)
    equal = total == rec
    # parity: even coefficients of the full sum are exactly the looped part
    full = win.registry.zero()
    for cfg in configs:
        full = full + taut_weight(win, cfg, symbolic=True)
    odd_monos = {m for m, c in full.terms.items() if c.numerator % 2 == 1}
    free_monos = set(total.terms)
    parity_ok = odd_monos == free_monos and all(
        total.terms[m] == 1 for m in free_monos)
    return {"equal": equal, "n_loop_free": len(free),
            "parity_match": parity_ok,
            "ok": equal and parity_ok}


def grove_is_forest(cfg):
    """No diagonal cycle on either height-parity class near the carve."""
    grove = to_grove(cfg)
    for parity in (0, 1):
        adj = {}
        edges = []
        for key in cfg.window.near_zone:
            a, b = grove[key]
            if sum(a) % 2 != parity:
                continue
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
            edges.append((a, b))
        seen = set()
        for start in adj:
            if start in seen:
                continue
            stack = [(start, None)]
            seen.add(start)
            comp_nodes = set()
            while stack:
                v, parent = stack.pop()
                comp_nodes.add(v)
                for w in adj[v]:
                    if w not in seen:
                        seen.add(w)
                        stack.append((w, v))
            n_edges = sum(1 for (a, b) in edges
                          if a in comp_nodes and b in comp_nodes)
            if n_edges >= len(comp_nodes):
                return False
    return True

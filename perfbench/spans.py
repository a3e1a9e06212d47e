"""Spans around calls into c2loop's layers, recorded from outside the program.

While a Tracer is installed, the public functions it lists are replaced, in
every loaded c2loop module namespace, by wrappers that record one span per
call: name, start, end, parent span, operation id and whether it raised.
Calls between layers are therefore traced too, which is what makes self time
meaningful.  Uninstalling restores the original functions, so untraced
passes run the program unchanged.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time

import numpy


def _faces(args, kwargs, res):
    return {"faces": len(res.faces)}


def _zone(args, kwargs, res):
    return {"zone_faces": len(res.zone)}


def _configs(args, kwargs, res):
    return {"configs": len(res)}


def _cubes(args, kwargs, res):
    return {"cubes": len(args[0].removed)}


def _matchings(args, kwargs, res):
    return {"matchings": len(res)}


def _phi(args, kwargs, res):
    return {"phi_entries": 4 * len(args[0].faces)}


# (module, function, counter hook): the hook sees the call's arguments and
# result and returns {counter: amount} added to the module's counters
TARGETS = [
    ("stepped", "surface_graph", _faces),
    ("taut", "build_taut_window", _zone),
    ("taut", "enumerate_taut", _configs),
    ("taut", "taut_weight", None),
    ("taut", "reconstruct_from_monomial", None),
    ("taut", "sample_taut", None),
    ("kashaev", "solve_origin", _cubes),
    ("laurent", "lp_eval", None),
    ("groves", "cube_recurrence_solve", None),
    ("groves", "filter_no_loops", None),
    ("limitshape", "rho_field", None),
    ("limitshape", "rho_oracle", None),
    ("limitshape", "y_closed_form", None),
    ("loopmodel", "enumerate_configs", _configs),
    ("loopmodel", "weight", None),
    ("ffdimers", "build_gq", None),
    ("ffdimers", "enumerate_matchings", _matchings),
    ("ffdimers", "road_probability", None),
    ("ffdimers", "kasteleyn_orientation", None),
    ("ffdimers", "kasteleyn_valid", None),
    ("ffdimers", "kasteleyn_determinant", None),
    ("ffdimers", "free_energy", None),
    ("ffdimers", "lobachevsky_free_energy", None),
    ("quadgraph", "track_census", None),
    ("quadgraph", "solve_parametrization", _phi),
    ("cli", "main", None),
]

# spans the benchmark opens itself around work it does with a layer's types
OWN_SPANS = ["laurent.sum"]

LAYERS = ("stepped", "taut", "kashaev", "laurent", "groves", "limitshape",
          "loopmodel", "ffdimers", "quadgraph", "cli")

COUNTERS = ("stepped.faces", "taut.zone_faces", "taut.configs",
            "kashaev.cubes", "laurent.max_terms", "loopmodel.configs",
            "ffdimers.matchings", "ffdimers.det_evals",
            "quadgraph.phi_entries")


def span_names():
    """Every span name a traced pass can produce, in report order."""
    out = []
    for mod, fn, _hook in TARGETS:
        if (mod, fn) == ("kashaev", "solve_origin"):
            out += ["kashaev.solve_origin.symbolic",
                    "kashaev.solve_origin.numeric"]
        else:
            out.append(f"{mod}.{fn}")
    return out + OWN_SPANS


def _solve_mode(args, kwargs):
    return kwargs.get("mode", args[2] if len(args) > 2 else "symbolic")


class Tracer:
    """Span and counter recorder; inactive until `installed` is entered."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op, error]
        self.stack = []
        self.op = None
        self.counters = {name: 0 for name in COUNTERS}
        self.active = False

    # -- recording ------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        if not self.active:
            yield
            return
        rec = [name, time.perf_counter(), None,
               self.stack[-1] if self.stack else None, self.op, False]
        idx = len(self.spans)
        self.spans.append(rec)
        self.stack.append(idx)
        try:
            yield
        except BaseException:
            rec[5] = True
            raise
        finally:
            self.stack.pop()
            rec[2] = time.perf_counter()

    def count(self, name, amount):
        if self.active:
            self.counters[name] += amount

    def count_max(self, name, value):
        if self.active and value > self.counters[name]:
            self.counters[name] = value

    def _wrap(self, mod, fn, orig, hook):
        tracer = self
        if (mod, fn) == ("kashaev", "solve_origin"):
            def name_of(args, kwargs):
                return f"kashaev.solve_origin.{_solve_mode(args, kwargs)}"
        else:
            fixed = f"{mod}.{fn}"

            def name_of(args, kwargs):
                return fixed

        def wrapper(*args, **kwargs):
            with tracer.span(name_of(args, kwargs)):
                res = orig(*args, **kwargs)
            if hook is not None:
                for key, amount in hook(args, kwargs, res).items():
                    tracer.count(f"{mod}.{key}", amount)
            return res

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every loaded c2loop namespace, and count the
        matrices numpy.linalg.det is asked for."""
        patched = []
        for mod, fn, hook in TARGETS:
            orig = getattr(sys.modules[f"c2loop.{mod}"], fn)
            wrapper = self._wrap(mod, fn, orig, hook)
            for name, module in list(sys.modules.items()):
                if not name.startswith("c2loop") or module is None:
                    continue
                for attr, val in list(vars(module).items()):
                    if val is orig:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, orig))
        det = numpy.linalg.det

        def counted_det(a):
            arr = numpy.asarray(a)
            self.count("ffdimers.det_evals",
                       int(numpy.prod(arr.shape[:-2], dtype=numpy.int64)))
            return det(a)

        numpy.linalg.det = counted_det
        self.active = True
        try:
            yield
        finally:
            self.active = False
            numpy.linalg.det = det
            for module, attr, orig in patched:
                setattr(module, attr, orig)

    # -- reduction ------------------------------------------------------

    def layer_times(self):
        """{span name: (busy_s, self_s, calls)} over all recorded spans.

        Busy time counts a span only when no ancestor has the same name;
        self time is a span's duration minus the part of it its children
        cover."""
        child_cover = [0.0] * len(self.spans)
        for name, start, end, parent, _op, _err in self.spans:
            if parent is not None:
                child_cover[parent] += end - start
        out = {name: [0.0, 0.0, 0] for name in span_names()}
        for i, (name, start, end, parent, _op, _err) in enumerate(self.spans):
            entry = out.setdefault(name, [0.0, 0.0, 0])
            entry[2] += 1
            entry[1] += (end - start) - child_cover[i]
            outer = True
            p = parent
            while p is not None:
                if self.spans[p][0] == name:
                    outer = False
                    break
                p = self.spans[p][3]
            if outer:
                entry[0] += end - start
        return out

    def failing_layer(self, op):
        """Layer of the innermost span of operation `op` that raised."""
        best = None
        for i, rec in enumerate(self.spans):
            if rec[4] == op and rec[5]:
                if best is None or self._depth(i) > self._depth(best):
                    best = i
        return None if best is None else self.spans[best][0].split(".")[0]

    def _depth(self, i):
        d = 0
        while self.spans[i][3] is not None:
            i = self.spans[i][3]
            d += 1
        return d

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent, op,
        error."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, op, err) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent, "op": op,
                                     "error": err}) + "\n")

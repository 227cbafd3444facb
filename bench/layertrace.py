"""Per-layer trace from outside the program.

`Tracer.install()` wraps the public functions of each rackhom module (and
a few private boundaries) in the module that defines them and at every
by-name import site in the package, so `coalgebra.verify_chain_map` and
`chains.verify_chain_map` are the same wrapper.  Each call records a span
(name, start, end, parent span, query id) in memory; the spans are written
out when the run ends.  A layer's self time is its span durations minus the
time covered by child spans, summed over its functions.

A target that no longer exists is reported as absent rather than failing,
so a refactor that renames a private boundary (say, replaces `_ModRank`) is
still measured by the unchanged benchmark; its time then shows up in the
caller's self time.

Counters come only from arguments and return values, so they repeat
exactly for one seed.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
from collections import defaultdict
from time import perf_counter

import rackhom


def _cells(args, out):
    return sum(out.sizes)


def _boundary_nnz(args, out):
    return sum(len(col) for m in out.boundaries for col in m.cols_data)


def _matrix_cols(args, out):
    return args[0].cols


def _stream_processed(args, out):
    return out[1]


# metric -> ("module:qualname" targets, {counter metric: fn(args, result)}).
# The end-to-end metric each layer should move is recorded with the baseline
# in bench/baseline.json.
LAYERS = {
    "nerves.build_s": (["nerves:group_cubical_nerve", "nerves:rack_nerve",
                        "nerves:bar_nerve"], {"nerves.cells": _cells}),
    "cubical.validate_s": (["cubical:validate_cubical",
                            "nerves:validate_simplicial"], {}),
    "cubical.functor_s": (["cubical:l_functor",
                           "cubical:gamma_functor_with_projection",
                           "cubical:verify_cubset_map"], {}),
    "chains.build_complex_s": (["chains:build_complex"],
                               {"chains.boundary_nnz": _boundary_nnz}),
    "chains.homology_s": (["chains:homology"], {}),
    "exactfield.eliminate_s": (["exactfield:column_space_analysis",
                                "exactfield:solve_in_image"],
                               {"exactfield.eliminated_cols": _matrix_cols}),
    "chains.stream_s": (["chains:stream_group_top_image"],
                        {"chains.stream_processed": _stream_processed}),
    "chains.tracker_s": (["chains:_ModRank.add", "chains:_F2Rank.add"],
                         {"chains.tracker_adds": lambda args, out: 1,
                          "chains.tracker_useful": lambda args, out: int(bool(out))}),
    "chains.les_s": (["chains:les_for_group", "chains:long_exact_sequence",
                      "chains:_les_assemble"], {}),
    "chains.verify_map_s": (["chains:verify_chain_map", "chains:verify_homotopy",
                             "chains:s_map_rack_formula"], {}),
    "coalgebra.coproduct_s": (["coalgebra:delta_halves",
                               "coalgebra:cubical_coproduct",
                               "coalgebra:half_shuffle_model"], {}),
    "coalgebra.induced_s": (["coalgebra:induced_coproduct_components",
                             "coalgebra:induced_on_homology"], {}),
    "coalgebra.laws_s": (["coalgebra:check_laws",
                          "coalgebra:primitive_analysis"], {}),
    "glstable.lemmas_s": (["glstable:verify_matrix_lemmas"], {}),
}

COUNTERS = ["nerves.cells", "chains.boundary_nnz", "exactfield.eliminated_cols",
            "chains.stream_processed", "chains.tracker_adds"]


def _package_modules():
    mods = [rackhom]
    for info in pkgutil.iter_modules(rackhom.__path__):
        if not info.name.startswith("__"):  # __main__ would run the CLI
            mods.append(importlib.import_module("rackhom." + info.name))
    return mods


class Tracer:
    def __init__(self):
        self.spans = []   # (name, start, end, parent index, query id)
        self._stack = []  # [span index, time covered by children]
        self.query = None
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.absent = []
        self._patched = []  # (module or class, attribute, original)

    def install(self):
        """Wrap every LAYERS target that exists; missing ones are recorded
        in self.absent.  uninstall() puts the originals back."""
        modules = _package_modules()
        by_name = {m.__name__: m for m in modules}
        for metric, (targets, counters) in LAYERS.items():
            for target in targets:
                modname, qualname = target.split(":")
                owner = by_name.get("rackhom." + modname)
                parts = qualname.split(".")
                for part in parts[:-1]:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, parts[-1], None)
                if orig is None:
                    self.absent.append(target)
                    continue
                wrapper = self._wrap(metric, qualname, orig, counters)
                for site in [owner] if len(parts) > 1 else modules:
                    for name, val in list(vars(site).items()):
                        if val is orig:
                            self._patched.append((site, name, orig))
                            setattr(site, name, wrapper)

    def uninstall(self):
        for site, name, orig in reversed(self._patched):
            setattr(site, name, orig)
        self._patched.clear()

    def _wrap(self, metric, name, fn, counters):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self._timed(metric, name, lambda: fn(*args, **kwargs))
            for counter, count in counters.items():
                try:
                    self.counts[counter] += count(args, out)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.absent.append(counter)
            return out

        return traced

    def _timed(self, metric, name, call):
        """call() inside a span; its self time is added to metric."""
        stack = self._stack
        sid = len(self.spans)
        self.spans.append(None)
        parent = stack[-1][0] if stack else None
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        try:
            return call()
        finally:
            t1 = perf_counter()
            stack.pop()
            self.self_s[metric] += (t1 - t0) - frame[1]
            if stack:
                stack[-1][1] += t1 - t0
            self.spans[sid] = (name, t0, t1, parent, self.query)

    def run_query(self, query_id, call):
        """call() as the root span of one query; its self time is the part
        of the query that no layer accounts for."""
        self.query = query_id
        try:
            return self._timed("bench.query", "bench.query", call)
        finally:
            self.query = None

    def take_round(self):
        """Self times and counters since the last call, then reset them."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s.clear()
        self.counts.clear()
        return out

    def write(self, path):
        with open(path, "w") as fh:
            for name, t0, t1, parent, query in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "query": query}) + "\n")

"""Spans around calls into polychain's layers, for the traced run only.

`Tracer.install` replaces each listed function with a wrapper under every
module attribute of polychain that names it (so re-exports such as
`approx.flat_norm` are wrapped too) and under its own class attribute.
A wrapper records a span (name, start, end, parent span, job) and adds its
self time, its duration minus that of wrapped calls made inside it, to a
per-layer total.  Layers called too often to keep one span per call are
only totalled.  Spans stay in memory until `dump`.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def _cols(key):
    """Probe adding the column count of the LP whose matrix is argument 0."""
    def probe(counters, args, result):
        counters[key] += len(args[0][0]) if len(args[0]) else 0
    return probe


def _stages(counters, args, result):
    representative, report = result
    counters["approx.stages"] += len(report.stages)
    counters["approx.representative_terms"] += len(representative)


def layer_targets():
    """(layer, owner, attribute, keep spans, probe) for every traced call."""
    from polychain import (approx, chainfile, chains, cli, coarea, flatnorm,
                           geometry, grid, lifting, radicals, report, simplex_lp)
    targets = [
        ("simplex_lp.solve_float", simplex_lp, "solve_float", True,
         _cols("simplex_lp.float_cols")),
        ("simplex_lp.solve_exact", simplex_lp, "solve_exact", True,
         _cols("simplex_lp.exact_cols")),
        ("simplex_lp.check_certificate", simplex_lp, "check_certificate", True, None),
        ("flatnorm.flat_norm", flatnorm, "flat_norm", True, None),
        ("flatnorm.flat_norm_oracle", flatnorm, "flat_norm_oracle", True, None),
        ("chains.build", chains.PolyChain, "build", True, None),
        ("chains.boundary", chains.PolyChain, "boundary", True, None),
        ("chains.mass_exact", chains.PolyChain, "mass_exact", True, None),
        ("chains.prism", chains, "prism", True, None),
        ("chains.pushforward", chains, "pushforward", True, None),
        ("geometry.simplex_init", geometry.Simplex, "__init__", False, None),
        ("geometry.volume", geometry.Simplex, "volume", False, None),
        ("geometry.overlap_dim", geometry, "overlap_dim", False, None),
        ("radicals.sign", radicals.RadicalSum, "sign", False, None),
        ("grid.build", grid.GridComplex, "__init__", True, None),
        ("grid.incidence", grid.GridComplex, "incidence", True, None),
        ("grid.incidence", grid.GridComplex, "coboundary", True, None),
        ("grid.embed_on", grid, "embed_on", True, None),
        ("approx.disjoint_representative", approx, "disjoint_representative", True, _stages),
        ("approx.measured_shrink_distance", approx, "measured_shrink_distance", True, None),
        ("lifting.threshold_profile", lifting, "threshold_profile", True, None),
        ("lifting.fill_boundary", lifting, "fill_boundary", True, None),
        ("lifting.loop_cancel", lifting, "loop_cancel", True, None),
        ("lifting.lift_flat", lifting, "lift_flat", True, None),
        ("coarea.level_slices", coarea, "level_slices", True, None),
        ("coarea.verify_coarea", coarea, "verify_coarea", True, None),
        ("chainfile.load", chainfile, "load_chain", True, None),
        ("chainfile.load", chainfile, "load_grid_function", True, None),
        ("chainfile.save", chainfile, "save_chain", True, None),
        ("chainfile.save", chainfile, "save_grid_function", True, None),
        ("report.write", report.Report, "write", True, None),
    ]
    targets += [("cli.handler", cli, attr, True, None)
                for attr in sorted(vars(cli)) if attr.startswith("_cmd_")]
    return targets


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start s, end s, parent index, job)
        self.totals = defaultdict(lambda: [0, 0.0])   # layer -> [calls, self s]
        self.counters = defaultdict(float)
        self.job = "setup"
        self._stack = []         # per open call: [child seconds, span index]
        self._patched = []
        self.t0 = time.perf_counter()

    def _wrap(self, name, fn, keep, probe):
        spans, totals, stack, counters = self.spans, self.totals, self._stack, self.counters
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = parent
            if keep:
                sid = len(spans)
                spans.append(None)
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][0] += end - start
                total = totals[name]
                total[0] += 1
                total[1] += end - start - frame[0]
                if keep:
                    spans[sid] = (name, start - tracer.t0, end - tracer.t0, parent, tracer.job)
            if probe is not None:
                probe(counters, args, result)
            return result

        return wrapper

    def install(self):
        modules = [m for key, m in sys.modules.items()
                   if key == "polychain" or key.startswith("polychain.")]
        for name, owner, attr, keep, probe in layer_targets():
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._wrap(name, fn, keep, probe)
            if isinstance(owner, type):
                self._patch(owner, attr, classmethod(wrapper)
                            if isinstance(raw, classmethod) else wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def dump(self, path, meta):
        doc = dict(meta, spans=[
            {"name": n, "start_us": round(a * 1e6, 1), "end_us": round(b * 1e6, 1),
             "parent": p, "job": j} for n, a, b, p, j in self.spans])
        with open(path, "w") as fp:
            json.dump(doc, fp)

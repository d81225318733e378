"""Layer tracing applied from outside the mfcat package.

`Tracer.install()` replaces each traced function at every binding site: a
`from .linalg import rank_sparse` in `complexes` is a second name for the same
function object, so patching `mfcat.linalg` alone would miss those calls.
Functions listed in SPANS record a span (name, start, end, parent, job id)
in memory; hot methods listed in COUNTED record a call count only, since
they run 46k-1.1M times in one heavy job and a span each would swamp them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# module -> functions traced as spans; every public function of serialize too
SPANS = {
    "mfcat.cli": ("main",),
    "mfcat.linalg": ("rank_sparse", "nullspace_dense", "rref_dense", "rank_dense"),
    "mfcat.complexes": ("detect_grading", "cohomology_over_R", "hom_complex"),
    "mfcat.hochschild": ("jacobian_report", "hochschild_cohomology", "hh_report"),
    "mfcat.stabilize": ("stabilize_residue_field", "stabilized_diagonal"),
    "mfcat.ainfinity": ("build_contraction", "transfer_minimal_model"),
}
SPAN_ALL_PUBLIC = "mfcat.serialize"

# counter name -> (module, class or None, attributes)
COUNTED = {
    "series.Series.mul": ("mfcat.series", "Series", ("__mul__", "__rmul__")),
    "factorization.RMatrix.mul": ("mfcat.factorization", "RMatrix", ("__mul__",)),
    "superops.SuperOp.mul": ("mfcat.superops", "SuperOp", ("__mul__",)),
    "superops.graded_commutator": ("mfcat.superops", None, ("graded_commutator",)),
    "fields.ops": ("mfcat.fields", "RationalField", ("add", "sub", "mul", "neg", "inv", "div")),
}


def _rank_sparse_pre(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    return {"rows": len(rows), "nnz": sum(len(r) for r in rows)}


def _nullspace_pre(args, kwargs):
    rows = args[0] if args else kwargs["rows"]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    return {"cells": len(rows) * ncols}


# span name -> (stats taken before the call, stats taken from the result)
STATS = {
    "linalg.rank_sparse": (_rank_sparse_pre, lambda r: {"rank": r}),
    "linalg.nullspace_dense": (_nullspace_pre, None),
    "complexes.detect_grading": (None, lambda r: {"ungraded": int(r is None)}),
}


def _short(module_name: str, attr: str) -> str:
    return module_name.split(".", 1)[1] + "." + attr


def _package_modules():
    return [m for n, m in list(sys.modules.items()) if n == "mfcat" or n.startswith("mfcat.")]


def _rebind(orig, replacement) -> list:
    """Point every mfcat module attribute bound to `orig` at `replacement`."""
    sites = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, attr, replacement)
                sites.append(f"{mod.__name__}.{attr}")
    return sites


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, job id, stats]
        self.stack = []
        self.counts = defaultdict(int)
        self.job = None  # id of the running job, stamped on each span
        self.binding_sites = {}

    # -- installation -------------------------------------------------------

    def install(self):
        for module_name, names in SPANS.items():
            mod = sys.modules[module_name]
            for attr in names:
                self._wrap_span(_short(module_name, attr), getattr(mod, attr))
        for attr, value in list(vars(sys.modules[SPAN_ALL_PUBLIC]).items()):
            if (callable(value) and not attr.startswith("_") and not isinstance(value, type)
                    and getattr(value, "__module__", None) == SPAN_ALL_PUBLIC):
                self._wrap_span(_short(SPAN_ALL_PUBLIC, attr), value)
        for counter, (module_name, cls_name, attrs) in COUNTED.items():
            mod = sys.modules[module_name]
            owner = getattr(mod, cls_name) if cls_name else None
            for attr in attrs:
                orig = getattr(owner, attr) if owner else getattr(mod, attr)
                wrapper = self._counting(counter, orig)
                if owner is not None:
                    setattr(owner, attr, wrapper)
                    self.binding_sites.setdefault(counter, []).append(f"{cls_name}.{attr}")
                else:
                    self.binding_sites.setdefault(counter, []).extend(_rebind(orig, wrapper))

    def _counting(self, counter, fn):
        counts = self.counts

        def counted(*args):
            counts[counter] += 1
            return fn(*args)

        return counted

    def _wrap_span(self, name, fn):
        pre, post = STATS.get(name, (None, None))
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            stats = pre(args, kwargs) if pre else None
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.job, stats]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if post:
                rec[5] = {**(stats or {}), **post(result)}
            return result

        self.binding_sites[name] = _rebind(fn, traced)

    # -- results ------------------------------------------------------------

    def self_times(self):
        """Per span: its duration minus the durations of its direct children."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        return [rec[2] - rec[1] - c for rec, c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, summed stats."""
        out = {}
        for rec, self_s in zip(self.spans, self.self_times()):
            agg = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += rec[2] - rec[1]
            agg["self_s"] += self_s
            for key, value in (rec[5] or {}).items():
                agg[key] = agg.get(key, 0) + value
        return {"spans": out, "counts": dict(self.counts), "binding_sites": self.binding_sites}

    def per_job(self) -> dict:
        """Per job id and span name: calls and summed stats (the route record)."""
        out: dict = {}
        for rec in self.spans:
            agg = out.setdefault(rec[4], {}).setdefault(rec[0], {"calls": 0})
            agg["calls"] += 1
            for key, value in (rec[5] or {}).items():
                agg[key] = agg.get(key, 0) + value
        return out

    def write_spans(self, path, origin):
        with open(path, "w", encoding="utf-8") as fh:
            for rec, self_s in zip(self.spans, self.self_times()):
                row = {"name": rec[0], "start": rec[1] - origin, "end": rec[2] - origin,
                       "self": self_s, "parent": rec[3], "job": rec[4]}
                if rec[5]:
                    row.update(rec[5])
                fh.write(json.dumps(row) + "\n")

"""Layer spans for the traced run, installed from outside the package.

A wrapper replaces a layer's function in the namespace of every module
that looks it up, so the package's sources stay untouched:

* every function one layer module imports from another (for example
  ``criticality.density_at`` or ``search.grad_sinc_product_integral``);
* the module globals ``search.refine_critical`` and
  ``search.classify_critical_point``, which also catches Newton's
  recursive re-entries;
* the entry points the workloads call through module attributes.

A name missing from the package is skipped, and its metrics read 0.

Spans (name, parent, start, end, one integer of extra data) go into flat
arrays in memory and are reduced to per-layer metrics when the run ends.
With tracing off nothing is installed.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

from cube_sections import casework, cli, criticality, density, search, sections, weights

# the timed layers, in call-graph order; piecewise serves only the
# density_closed_form path no workload takes, and oracles only the checks
LAYERS = ("weights", "density", "sections", "criticality", "search", "casework", "cli")
_MODULES = dict(zip(LAYERS, (weights, density, sections, criticality, search, casework, cli)))

# functions patched in their own module: the workloads' entry points, plus
# the search globals that scan and Newton's re-entries look up
_OWN_MODULE = {
    "search": ("scan", "refine_critical", "classify_critical_point"),
    "sections": ("section_report",),
    "casework": ("solve_n4_system_unequal", "solve_n4_system_triple"),
    "cli": ("main",),
}

# (name, unit, better); per round of the workload unless the name says otherwise
PER_LAYER = (
    ("weights.calls", "count", "lower"),
    ("weights.self_s", "s", "lower"),
    ("density.calls", "count", "lower"),
    ("density.corner_terms", "count", "lower"),
    ("density.self_s", "s", "lower"),
    ("density.ns_per_corner_term", "ns", "lower"),
    ("density.sign_table_bytes", "bytes", "lower"),
    ("sections.calls", "count", "lower"),
    ("sections.self_s", "s", "lower"),
    ("sections.kernel_calls_per_report", "count", "lower"),
    ("criticality.grad_calls", "count", "lower"),
    ("criticality.residual_calls", "count", "lower"),
    ("criticality.self_s", "s", "lower"),
    ("search.certified_per_seed", "ratio", "higher"),
    ("search.refine_calls_per_seed", "count", "lower"),
    ("search.density_calls_per_seed", "count", "lower"),
    ("search.refine_s", "s", "lower"),
    ("search.classify_s", "s", "lower"),
    ("casework.solve_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
)

_KERNELS = ("density_at", "cdf_at")


def _corner_terms(args) -> int:
    """``2^m`` when the call evaluates a corner sum over ``m`` weights, else 0.

    Mirrors the kernel's guards: weights below the relative floor are
    dropped, one weight is a box, and points off the support return early.
    """
    w = [abs(x) for x in np.asarray(args[0], dtype=float).ravel().tolist()]
    floor = getattr(weights, "RELATIVE_WEIGHT_FLOOR", 0.0) * max(w)
    w = [x for x in w if x > floor]
    if len(w) < 2 or not abs(float(args[1])) < sum(w):
        return 0
    return 1 << len(w)


class Tracer:
    """Installs span-recording wrappers and reduces the spans to metrics."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []
        self._ids: dict[tuple[str, str], int] = {}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.extra = array("q")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, layer: str, func: str) -> int:
        key = (layer, func)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def _wrap(self, fn, layer: str):
        nid = self._id(layer, fn.__name__)
        name_id, parent, start, end, extra = self.name_id, self.parent, self.start, self.end, self.extra
        stack, clock = self._stack, time.perf_counter
        if fn.__name__ in _KERNELS:
            post = lambda args, result: _corner_terms(args)  # noqa: E731
        elif fn.__name__ == "refine_critical":
            post = lambda args, result: int(result is not None)  # noqa: E731
        else:
            post = None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            extra.append(0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if post is not None:
                extra[idx] = post(args, result)
            return result

        return traced

    def _patch(self, module, attr: str, layer: str):
        original = getattr(module, attr, None)
        if original is None:
            return
        self._patches.append((module, attr, original))
        setattr(module, attr, self._wrap(original, layer))

    def install(self):
        for consumer_name, consumer in _MODULES.items():
            for attr, value in list(vars(consumer).items()):
                if not inspect.isfunction(value):
                    continue
                layer = (value.__module__ or "").rsplit(".", 1)[-1]
                if layer in _MODULES and layer != consumer_name:
                    self._patch(consumer, attr, layer)
        for layer, attrs in _OWN_MODULE.items():
            for attr in attrs:
                self._patch(_MODULES[layer], attr, layer)

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _arrays(self):
        """Span names, parents, durations, self times (duration minus the
        children's durations) and extra data, as numpy arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        extra = np.frombuffer(self.extra, dtype=np.int64)
        return name_id, parent, dur, dur - child, extra

    def _has_ancestor(self, parent: np.ndarray, marked: np.ndarray) -> np.ndarray:
        """For each span, whether some strict ancestor is marked.

        Parents precede their children, so walking every span up one level
        per pass ends after as many passes as the deepest nesting."""
        found = np.zeros(parent.size, dtype=bool)
        anc = parent.copy()
        while True:
            live = anc >= 0
            if not np.any(live):
                return found
            found[live] |= marked[anc[live]]
            anc[live] = parent[anc[live]]

    def function_summary(self) -> list[dict]:
        """Calls, inclusive and self seconds per wrapped function, over all spans."""
        name_id, _, dur, self_time, _ = self._arrays()
        rows = []
        for nid, (layer, func) in enumerate(self.names):
            sel = name_id == nid
            rows.append(
                {
                    "layer": layer,
                    "function": func,
                    "calls": int(np.count_nonzero(sel)),
                    "total_s": float(np.sum(dur[sel])),
                    "self_s": float(np.sum(self_time[sel])),
                }
            )
        return rows

    def metrics(self, rounds: int) -> dict[str, float]:
        """The per-layer metrics of ``PER_LAYER``, per round of the workload."""
        name_id, parent, dur, self_time, extra = self._arrays()
        layer_index = np.array([LAYERS.index(layer) for layer, _ in self.names] or [0])
        span_layer = layer_index[name_id] if name_id.size else name_id

        def is_func(*funcs):
            ids = [i for i, (_, f) in enumerate(self.names) if f in funcs]
            return np.isin(name_id, ids)

        def layer_mask(layer):
            return span_layer == LAYERS.index(layer)

        kernel = is_func(*_KERNELS)
        reports = is_func("section_report")
        refine = is_func("refine_critical")
        top_refine = refine & ~self._has_ancestor(parent, refine)
        seeds = int(np.count_nonzero(top_refine))
        corner_terms = int(np.sum(extra[kernel]))
        sizes = sorted({int(t).bit_length() - 1 for t in np.unique(extra[kernel]) if t > 0})

        def per_seed(count):
            return count / seeds if seeds else 0.0

        out = {}
        for layer in ("weights", "density", "sections"):
            out[f"{layer}.calls"] = int(np.count_nonzero(layer_mask(layer))) / rounds
        for layer in ("weights", "density", "sections", "criticality", "cli"):
            out[f"{layer}.self_s"] = float(np.sum(self_time[layer_mask(layer)])) / rounds
        out["density.corner_terms"] = corner_terms / rounds
        out["density.ns_per_corner_term"] = (
            1e9 * float(np.sum(self_time[kernel])) / corner_terms if corner_terms else 0.0
        )
        out["density.sign_table_bytes"] = sign_table_bytes(sizes)
        n_reports = int(np.count_nonzero(reports))
        in_report = int(np.count_nonzero(kernel & self._has_ancestor(parent, reports)))
        out["sections.kernel_calls_per_report"] = in_report / n_reports if n_reports else 0.0
        out["criticality.grad_calls"] = int(np.count_nonzero(is_func("grad_sinc_product_integral"))) / rounds
        out["criticality.residual_calls"] = int(np.count_nonzero(is_func("criticality_residuals"))) / rounds
        out["search.certified_per_seed"] = per_seed(int(np.sum(extra[top_refine])))
        out["search.refine_calls_per_seed"] = per_seed(int(np.count_nonzero(refine)))
        out["search.density_calls_per_seed"] = per_seed(
            int(np.count_nonzero(kernel & self._has_ancestor(parent, refine)))
        )
        out["search.refine_s"] = float(np.sum(dur[top_refine])) / rounds
        out["search.classify_s"] = float(np.sum(dur[is_func("classify_critical_point")])) / rounds
        out["casework.solve_s"] = (
            float(np.sum(dur[is_func("solve_n4_system_unequal", "solve_n4_system_triple")])) / rounds
        )
        return {name: out[name] for name, _, _ in PER_LAYER}

    def save_spans(self, path):
        """Write every recorded span as flat arrays (compressed ``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array([f"{layer}.{func}" for layer, func in self.names]),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            extra=np.frombuffer(self.extra, dtype=np.int64),
        )


def sign_table_bytes(sizes) -> int:
    """Bytes held by the density module's cached sign tables for these sizes.

    Reads the arrays the cache returns; 0 once the module has no such cache.
    """
    table = getattr(density, "_sign_patterns", None)
    if table is None:
        return 0
    return sum(int(arr.nbytes) for m in sizes for arr in table(m))

"""In-process span tracer for the benchmark's traced run.

``install`` replaces each binding in ``BINDINGS`` with a wrapper that records
a span (layer, start, end, parent).  Bindings are patched where they are
called from: ``from .x import f`` copies the function into the importing
module, so wrapping only the defining module would record nothing.  Spans
stay in memory; ``write`` turns them into per-layer self times (a span's
duration minus the time its child spans cover) and writes one JSON file.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from typing import Callable

Hook = Callable[["Tracer", tuple, object], None]


def _elements(tracer: "Tracer", args: tuple, result) -> None:
    tracer.add("permutations.elements", len(result))


def _vertices(tracer: "Tracer", args: tuple, result) -> None:
    tracer.add("graphs.vertices", result.size)


def _block_dim(tracer: "Tracer", args: tuple, result) -> None:
    tracer.peak("yor.block_dim_max", result.shape[0])


def _cluster_values(tracer: "Tracer", args: tuple, result) -> None:
    tracer.add("eigen.cluster_values", len(args[0]))


# (module[:class], attribute, layer, hook)
BINDINGS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("snspectra.verify", "enumerate_connecting_set", "permutations.enumerate", _elements),
    ("snspectra.graphs", "enumerate_connecting_set", "permutations.enumerate", _elements),
    ("snspectra.equitable", "enumerate_connecting_set", "permutations.enumerate", _elements),
    ("snspectra.verify", "build", "graphs.adjacency", _vertices),
    ("snspectra.graphs:CayleyGraph", "adjacency_matrix", "graphs.adjacency", None),
    ("snspectra.graphs:CayleyGraph", "neighbors", "graphs.adjacency", None),
    ("snspectra.verify", "dense_spectrum", "graphs.dense_eig", None),
    ("snspectra.graphs", "natural_module_matrix", "graphs.natural_matrix", None),
    ("snspectra.verify", "counted_quotient", "equitable.quotient", None),
    ("snspectra.graphs", "exact_integer_eigenvalues", "eigen.exact", None),
    ("snspectra.equitable", "exact_integer_eigenvalues", "eigen.exact", None),
    ("snspectra.yor", "hplus_matrix", "yor.assemble", _block_dim),
    ("snspectra.yor", "hplus_block_spectrum", "yor.block", None),
    ("snspectra.yor", "jacobi_eigenvalues", "eigen.jacobi", None),
    ("snspectra.yor", "char_spectrum", "yor.expand", None),
    ("snspectra.yor", "full_spectrum_via_irreps", "yor.expand", None),
    ("snspectra.yor", "cluster_eigenvalues", "eigen.cluster", _cluster_values),
    ("snspectra.graphs", "cluster_eigenvalues", "eigen.cluster", _cluster_values),
    ("snspectra.characters", "class_eigenvalue", "characters.eigenvalue", None),
    ("snspectra.verify", "max_ratio_diagram", "characters.eigenvalue", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [layer, start, end, parent index or -1]
        self.counters: dict[str, float] = {}
        self._open: list[int] = []

    def add(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def peak(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    def wrap(self, layer: str, fn: Callable, hook: Hook | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per layer: summed self time in seconds and number of spans."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        layers: dict[str, dict[str, float]] = {}
        for (layer, start, end, _), covered in zip(self.spans, inner):
            entry = layers.setdefault(layer, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += end - start - covered
            entry["calls"] += 1
        return layers


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding that exists; returns the ones that do not."""
    missing = []
    for target, attr, layer, hook in BINDINGS:
        module_name, _, class_name = target.partition(":")
        owner = importlib.import_module(module_name)
        if class_name:
            owner = getattr(owner, class_name, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None:
            missing.append(f"{target}.{attr}")
            continue
        setattr(owner, attr, tracer.wrap(layer, fn, hook))
    return missing


def absent_layers(missing: list[str]) -> set[str]:
    """Layers none of whose bindings could be wrapped."""
    present = {layer for target, attr, layer, _ in BINDINGS if f"{target}.{attr}" not in missing}
    return {layer for _, _, layer, _ in BINDINGS} - present


def write(tracer: Tracer, missing: list[str], path: str) -> None:
    from snspectra import characters

    counters = dict(tracer.counters)
    counters["characters.memo_entries"] = len(getattr(characters, "_MEMO", ()))
    payload = {"layers": tracer.self_times(), "counters": counters, "missing": missing}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)

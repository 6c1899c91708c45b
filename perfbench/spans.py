"""Span recorder for the traced run, and the per-layer metrics it yields.

The recorder wraps, from outside the package, every function one
specturan layer imports from another (the binding in the importing
module is replaced, so calls inside a layer stay unwrapped), plus the
public functions the benchmark's units call.  Spans (name, layer, start,
end, parent) are kept in memory; counts come only from values the public
functions already return.  A span's self time is its duration minus the
durations of its direct children, which run nested inside it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from types import SimpleNamespace

import specturan as st

LAYERS = ("graph", "spectral", "subgraph", "theorems", "harness")
EXACT_SPECTRAL = ("compare_mu_exact_multipartite", "exact_mu_greater_than_rational")
SEARCHES = ("find_kr_plus", "find_complete_multipartite")
CLIQUES = ("count_cliques", "clique_exists")


def _layer(fn) -> str | None:
    module = getattr(fn, "__module__", "") or ""
    if not module.startswith("specturan."):
        return None
    layer = module.rsplit(".", 1)[1]
    return layer if layer in LAYERS else None


def _counts(result) -> tuple | None:
    """(power iterations, converged), (search nodes,) or ("graph",) from a return value."""
    if isinstance(result, st.SpectralComparison):
        result = result.mu_g
    if isinstance(result, st.SpectralEstimate):
        return (result.iterations, result.converged)
    if isinstance(result, (st.SearchResult, st.ColoringResult)):
        return (result.nodes_expanded,)
    if isinstance(result, st.Graph):
        return ("graph",)
    return None


class Recorder:
    """Wraps cross-layer names while installed and records one span per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, layer, start, end, parent, counts]
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            span[5] = _counts(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for importer in LAYERS:
            module = importlib.import_module(f"specturan.{importer}")
            for attr, obj in list(vars(module).items()):
                layer = _layer(obj)
                if (
                    inspect.isfunction(obj)
                    and layer is not None
                    and layer != importer
                ):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, self.wrap(attr, layer, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    def api(self, names) -> SimpleNamespace:
        """The benchmark's own entry points, wrapped as root spans."""
        return SimpleNamespace(
            **{n: self.wrap(n, _layer(getattr(st, n)), getattr(st, n)) for n in names}
        )

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def plain_api(names) -> SimpleNamespace:
    return SimpleNamespace(**{n: getattr(st, n) for n in names})


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer self times and counts summed over all recorded spans."""
    child = [0.0] * len(spans)
    for name, layer, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for key in (
        "spectral.calls", "spectral.power_iters", "spectral.nonconverged",
        "spectral.exact_calls", "spectral.exact_s", "subgraph.joint_s",
        "subgraph.joint_calls", "subgraph.search_s", "subgraph.search_nodes",
        "subgraph.color_s", "subgraph.color_nodes", "subgraph.clique_s",
        "theorems.calls", "graph.build_calls",
    ):
        m[key] = 0
    for i, (name, layer, start, end, parent, counts) in enumerate(spans):
        dur = end - start
        m[f"{layer}.self_s"] += dur - child[i]
        if layer == "spectral":
            m["spectral.calls"] += 1
            if counts is not None:
                m["spectral.power_iters"] += counts[0]
                m["spectral.nonconverged"] += not counts[1]
            if name in EXACT_SPECTRAL:
                m["spectral.exact_calls"] += 1
                m["spectral.exact_s"] += dur
        elif layer == "theorems":
            m["theorems.calls"] += 1
        elif layer == "graph":
            m["graph.build_calls"] += counts == ("graph",)
        elif name == "joint_size":
            m["subgraph.joint_s"] += dur
            m["subgraph.joint_calls"] += 1
        elif name in SEARCHES:
            m["subgraph.search_s"] += dur
            m["subgraph.search_nodes"] += counts[0]
        elif name == "is_r_partite":
            m["subgraph.color_s"] += dur
            m["subgraph.color_nodes"] += counts[0]
        elif name in CLIQUES:
            m["subgraph.clique_s"] += dur
    return m

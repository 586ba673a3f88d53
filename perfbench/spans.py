"""Span tracing of the library's public functions, from outside the library.

:class:`Tracer` wraps each function named in :data:`WRAPPED` and records one
span per call: ``(name, start, end, parent)``, where ``parent`` is the index
of the enclosing span or -1.  The library's modules import each other's names
directly (``from .inference import eliminate_marginal``), and so does the
benchmark, so a wrapper must replace the function in every loaded module
that holds it, under whatever name it was imported (``cli`` holds
``graph.validate`` as ``validate_graph``).  ``BayesianModel`` is traced
through its ``__init__``, which is construction plus validation; patching
the class object itself would break ``isinstance`` checks.

Spans stay in memory until :meth:`Tracer.write`; :func:`self_times` turns
them into per-name call counts and self time (duration minus the part of it
covered by child spans).
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Public functions wrapped in a traced run, by defining module.
WRAPPED = {
    "inference": ("eliminate_marginal", "posterior_update"),
    "temporal": ("unroll", "filter_marginals", "smooth_marginals", "predict_marginals"),
    "graph": ("topological_order", "descendants", "ancestors", "dependency_order",
              "validate"),
    "cascade": ("impact_probabilities", "rank_criticality", "classify_levels"),
    "documents": ("parse_model", "read_evidence", "ingest_evidence"),
    "reporting": ("emit_report",),
    "uncontrollable": ("complete_model", "resolve_uncontrollable"),
    "sampling": ("monte_carlo_sample",),
    "cli": ("main",),
}


def _loaded_modules():
    return [m for _, m in sorted(sys.modules.items()) if m is not None]


class Tracer:
    """Records spans and layer counters while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = {"temporal.unrolled_nodes": 0, "reporting.report_bytes": 0,
                       "sampling.node_samples": 0, "inference.marginals_delivered": 0}
        self.installed_s = 0.0   # wall time spent with the wrappers in place
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._installed_at = 0.0

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        """Swap every wrapper in; the patch list is built on first use."""
        if not self._patches:
            self._patches = self._build_patches()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self._installed_at = time.perf_counter()

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)
        self.installed_s += time.perf_counter() - self._installed_at

    def _build_patches(self) -> list[tuple]:
        import iotrisk.cli  # noqa: F401  (the package does not import cli)
        from iotrisk.model import BayesianModel

        patches = []
        modules = _loaded_modules()
        for module_name, names in WRAPPED.items():
            home = sys.modules[f"iotrisk.{module_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(getattr(module, "__dict__", {}).items()):
                        if value is original:
                            patches.append((module, attr, original, wrapper))
        init = BayesianModel.__init__
        patches.append((BayesianModel, "__init__", init,
                        self._wrap("model.BayesianModel", init)))
        return patches

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            span = [name, time.perf_counter(), None, parent]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if count is not None:
                count(self, parent, args, kwargs, out)
            return out

        return traced

    # ------------------------------------------------------------- output

    def write(self, path) -> None:
        """One JSON array per span: name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _count_unroll(tracer, parent, args, kwargs, out):
    tracer.counts["temporal.unrolled_nodes"] += len(out.graph.nodes)


def _count_report(tracer, parent, args, kwargs, out):
    tracer.counts["reporting.report_bytes"] += len(out.encode("utf-8"))


def _count_samples(tracer, parent, args, kwargs, out):
    n = kwargs["n"] if "n" in kwargs else args[1]
    tracer.counts["sampling.node_samples"] += int(n) * len(out)


def _delivered(size):
    """Count marginals handed out by the inference layer, not to itself."""
    def count(tracer, parent, args, kwargs, out):
        if parent < 0 or not tracer.spans[parent][0].startswith("inference."):
            tracer.counts["inference.marginals_delivered"] += size(out)
    return count


_COUNTERS = {
    "temporal.unroll": _count_unroll,
    "reporting.emit_report": _count_report,
    "sampling.monte_carlo_sample": _count_samples,
    "inference.eliminate_marginal": _delivered(lambda out: 1),
    "inference.posterior_update": _delivered(len),
}


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """``name -> (calls, self seconds)``; self = duration minus child cover.

    Child intervals are clipped to their parent, so a child that outlives
    its parent (which synchronous calls never do) cannot make self time
    negative.
    """
    children: dict[int, list] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            p_start, p_end = spans[parent][1], spans[parent][2]
            lo, hi = max(start, p_start), min(end, p_end)
            if lo < hi:
                children.setdefault(parent, []).append((lo, hi))
    out: dict[str, tuple[int, float]] = {}
    for index, (name, start, end, _) in enumerate(spans):
        own = (end - start) - _covered(children.get(index, ()))
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + own)
    return out

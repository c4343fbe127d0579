"""Per-layer spans recorded from outside the program.

A ``Tracer`` replaces module-level names that the builders call (and the
request's own entry points) with timing wrappers, records one span per
call with its parent span, and puts every original back on ``restore``.
Nothing under ``src/`` knows about it.  A name that no longer exists is
skipped and its layer is reported as not measured, so a refactor that
moves code makes the traced run incomplete instead of crashing it.

A layer's self time is the duration of its spans minus the time covered by
their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter

# (module, attribute path, layer).  A request calls the package's exported
# names, and the builders import their helpers by name, so those are the
# bindings wrapped.
WRAPS = [
    ("twinplanar", "parse_plane", "plane_graph.parse"),
    ("twinplanar", "write_seq", "trigraph.write"),
    ("twinplanar", "planar_sequence", "seq_planar.driver"),
    ("twinplanar", "bipartite_sequence", "seq_bipartite.driver"),
    ("twinplanar.plane_graph", "PlaneGraph.is_simple", "plane_graph.validate"),
    ("twinplanar.plane_graph", "connected_components", "plane_graph.validate"),
    ("twinplanar.plane_graph", "find_odd_cycle", "plane_graph.validate"),
    ("twinplanar.seq_bipartite", "find_odd_cycle", "plane_graph.validate"),
    ("twinplanar.seq_planar", "connect_components", "plane_graph.connect"),
    ("twinplanar.seq_bipartite", "connect_components", "plane_graph.connect"),
    ("twinplanar.seq_planar", "triangulate", "plane_graph.complete"),
    ("twinplanar.seq_bipartite", "quadrangulate", "plane_graph.complete"),
    ("twinplanar.plane_graph", "build", "plane_graph.build"),
    ("twinplanar.seq_planar", "left_aligned_bfs_tree", "layering.tree"),
    ("twinplanar.seq_bipartite", "left_aligned_bfs_tree", "layering.tree"),
    ("twinplanar.seq_planar", "check_left_aligned", "layering.tree"),
    ("twinplanar.seq_bipartite", "check_left_aligned", "layering.tree"),
    ("twinplanar.seq_planar", "run_trampoline", "seq_planar.core"),
    ("twinplanar.seq_bipartite", "run_trampoline", "seq_bipartite.core"),
    ("twinplanar.seq_planar", "restrict_sequence", "trigraph.restrict"),
    ("twinplanar.seq_bipartite", "restrict_sequence", "trigraph.restrict"),
    ("twinplanar.seq_planar", "verify_sequence", "trigraph.verify"),
    ("twinplanar.seq_bipartite", "verify_sequence", "trigraph.verify"),
    ("twinplanar.buildctx", "BuildCtx.sequence", "buildctx.sequence"),
    ("twinplanar.instrument", "InvariantChecker.bind", "instrument.check"),
    ("twinplanar.instrument", "InvariantChecker.push_region", "instrument.check"),
    ("twinplanar.instrument", "InvariantChecker.pop_region", "instrument.check"),
    ("twinplanar.instrument", "InvariantChecker.enter_final_phase",
     "instrument.check"),
    ("twinplanar.instrument", "InvariantChecker.on_contract", "instrument.check"),
    ("twinplanar.instrument", "InvariantChecker.on_decrease", "instrument.check"),
]

# names whose last return value a request's counters read
KEEP_RESULT = {"triangulate", "quadrangulate", "left_aligned_bfs_tree",
               "sequence"}


def _resolve(module: str, path: str):
    """(owner object, attribute name), or None if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # the owner's own entry, so a class method keeps its descriptor
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class Tracer:
    def __init__(self):
        self.targets = []      # (owner, attr, layer)
        self.missing = []      # "module:path" of every name not found
        for module, path, layer in WRAPS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}:{path}")
            else:
                self.targets.append((*found, layer))
        present = {layer for *_, layer in self.targets}
        self.unmeasured = sorted({layer for *_, layer in WRAPS} - present)
        self._saved: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []   # [layer, parent index, start, end]
        self.stack: list[int] = []
        self.results: dict[str, object] = {}

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        for owner, attr, layer in self.targets:
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._wrap(orig, layer, attr))

    def restore(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def __enter__(self):
        self.reset()
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _wrap(self, fn, layer: str, attr: str):
        keep = attr in KEEP_RESULT
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            span = [layer, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if keep:
                tracer.results[attr] = result
            return result

        return wrapper

    # -- reading --------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Self seconds and span count per layer for the spans recorded
        since the last reset."""
        child = [0.0] * len(self.spans)
        for layer, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (layer, _parent, t0, t1) in enumerate(self.spans):
            own[layer] += (t1 - t0) - child[i]
            calls[layer] += 1
        return own, calls

    def inclusive(self, layer: str) -> float:
        """Total duration of the outermost spans of one layer."""
        return sum(t1 - t0 for name, parent, t0, t1 in self.spans
                   if name == layer and (parent < 0
                                         or self.spans[parent][0] != layer))

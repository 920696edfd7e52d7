"""In-memory spans around calls into the package's layers.

The benchmark traces from outside the package: while a traced job runs,
each layer's public function is replaced, in every ``codearea`` module
that holds a reference to it, by a wrapper that records a span.  Patching
every holder matters because modules bind some functions by name at
import (``analysis`` does ``from .frontend import tokenize``), so a
wrapper on the defining module alone would see none of those calls.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from contextlib import contextmanager

# (defining module, function) for each call the traced job records.
LAYER_FUNCTIONS = (
    ("codearea.analysis", "analyze_source"),
    ("codearea.frontend", "tokenize"),
    ("codearea.frontend", "parse_tokens"),
    ("codearea.segmenter", "segment"),
    ("codearea.segmenter", "parse_segment_overrides"),
    ("codearea.segmenter", "apply_segment_overrides"),
    ("codearea.impact", "segment_impact"),
    ("codearea.classifier", "flow_orderliness"),
)

# Results whose size is recorded on the span, as a count of work done.
_SIZED = {"tokenize", "segment", "apply_segment_overrides"}


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent, job, size]`` lists;
    ``parent`` is an index into :attr:`spans`, or -1 for a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.trees: list = []   # parse results, counted after each job
        self.job = 0
        self.gc_ns = 0
        self.gc_collections = 0
        self._stack: list[int] = []
        self._gc_start = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.job, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name in _SIZED:
                self.spans[idx][5] = len(result)
            elif name == "parse_tokens":
                self.trees.append(result[0])
            return result

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter_ns()
        else:
            self.gc_ns += time.perf_counter_ns() - self._gc_start
            self.gc_collections += 1

    @contextmanager
    def patched(self):
        """Route every layer call through a span, and time the collector."""
        saved = []
        for module_name, name in LAYER_FUNCTIONS:
            original = getattr(importlib.import_module(module_name), name)
            wrapper = self._wrap(name, original)
            for mod_name, module in list(sys.modules.items()):
                if mod_name.split(".")[0] == "codearea" and getattr(module, name, None) is original:
                    saved.append((module, name, original))
                    setattr(module, name, wrapper)
        gc.callbacks.append(self._on_gc)
        try:
            yield
        finally:
            gc.callbacks.remove(self._on_gc)
            for module, name, original in saved:
                setattr(module, name, original)


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def tree_shape(trees: list) -> tuple[int, int]:
    """(node count, deepest nesting) over parsed block trees; a top-level
    node has depth 1."""
    nodes = 0
    deepest = 0
    stack = [(node, 1) for tree in trees for node in tree]
    while stack:
        node, depth = stack.pop()
        nodes += 1
        deepest = max(deepest, depth)
        children = []
        for branch in getattr(node, "branches", ()):
            children.extend(branch)
        children.extend(getattr(node, "body", ()))
        stack.extend((child, depth + 1) for child in children)
    return nodes, deepest

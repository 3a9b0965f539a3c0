"""In-memory span recorder that wraps calls across minword's module boundaries.

A span is (name, start, end, parent).  Spans live in flat arrays so that a
workload with millions of calls (languages-4 makes about 3.3 million) keeps
them in well under 100 MB; nothing is written until the run ends.

The layer of a span is the module that defines the called function, so a
call from ``enumeration`` into ``minimize.minimize`` opens a ``minimize``
span.  A layer's self time is the time of its spans minus the part covered
by their direct children; over a whole tree the self times of all layers
add up to the root span exactly.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter

# Functions that also get a span when called from their own module: the
# enumeration metrics need the cold language build and the raw generator
# separated from the tuple scan that calls them.
OWN_MODULE_SPANS = {
    ("minword.enumeration", "canonical_languages"),
    ("minword.enumeration", "enumerate_dfas"),
}


class Spans:
    """Recorded spans plus per-name counters, in call order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, int] = defaultdict(int)

    def name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name_id: int) -> int:
        sid = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(sid)
        self.start.append(perf_counter())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = perf_counter()
        self.stack.pop()


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Summary:
    """Per-name and per-layer times of a span tree, from one pass over it.

    ``self_s(layer)`` is the layer's self time.  ``time(name)`` and
    ``calls(name)`` count only the outermost spans of a name, and
    ``layer_time``/``layer_calls`` only spans entered from another layer, so
    nested calls are never counted twice.  ``edge(parent, child)`` is the
    time of spans named child whose parent span is named parent.
    """

    def __init__(self, spans: Spans) -> None:
        names = spans.names
        n = len(names)
        self_t = [0.0] * n
        edges: dict[tuple[int, int], list] = defaultdict(lambda: [0.0, 0])
        name_of, parent, start, end = spans.name_of, spans.parent, spans.start, spans.end
        for sid in range(len(start)):
            nid = name_of[sid]
            dur = end[sid] - start[sid]
            self_t[nid] += dur
            p = parent[sid]
            pid = -1
            if p >= 0:
                pid = name_of[p]
                self_t[pid] -= dur
            acc = edges[pid, nid]
            acc[0] += dur
            acc[1] += 1
        self._self: dict[str, float] = defaultdict(float)
        for nid, value in enumerate(self_t):
            self._self[layer_of(names[nid])] += value
        self._time: dict[str, float] = defaultdict(float)
        self._calls: dict[str, int] = defaultdict(int)
        self._edge: dict[tuple[str, str], float] = {}
        for (pid, nid), (dur, count) in edges.items():
            child = names[nid]
            parent_name = names[pid] if pid >= 0 else ""
            self._edge[parent_name, child] = dur
            if parent_name != child:
                self._time[child] += dur
                self._calls[child] += count
            if layer_of(parent_name) != layer_of(child):
                self._time["layer:" + layer_of(child)] += dur
                self._calls["layer:" + layer_of(child)] += count

    def self_s(self, layer: str) -> float:
        return self._self.get(layer, 0.0)

    def layers(self) -> dict[str, float]:
        return dict(self._self)

    def time(self, name: str) -> float:
        return self._time.get(name, 0.0)

    def calls(self, name: str) -> int:
        return self._calls.get(name, 0)

    def layer_time(self, layer: str) -> float:
        return self._time.get("layer:" + layer, 0.0)

    def layer_calls(self, layer: str) -> int:
        return self._calls.get("layer:" + layer, 0)

    def edge(self, parent: str, child: str) -> float:
        return self._edge.get((parent, child), 0.0)


def _traced(spans: Spans, fn, name: str, on_result=None):
    nid = spans.name_id(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                sid = spans.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    spans.close(sid)
                spans.counters[name] += 1
                yield item

        return traced_gen

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = spans.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            spans.close(sid)
        if on_result is not None:
            on_result(spans.counters, args, result)
        return result

    return traced


def _is_traceable(obj) -> bool:
    if inspect.isclass(obj) or not callable(obj):
        return False
    module = getattr(obj, "__module__", "") or ""
    return module.startswith("minword.") and (inspect.isfunction(obj) or hasattr(obj, "__wrapped__"))


class Patch:
    """Replaces minword functions in every loaded minword module's namespace
    with span-recording wrappers; ``undo`` puts the originals back."""

    def __init__(self, spans: Spans, on_result: dict | None = None) -> None:
        self.spans = spans
        self.on_result = on_result or {}
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        modules = [m for n, m in sorted(sys.modules.items()) if n == "minword" or n.startswith("minword.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not _is_traceable(obj):
                    continue
                home = obj.__module__
                if home == module.__name__ and (home, attr) not in OWN_MODULE_SPANS:
                    continue
                name = f"{home.split('.', 1)[1]}.{obj.__name__}"
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = _traced(self.spans, obj, name, self.on_result.get(name))
                self._saved.append((module, attr, obj))
                setattr(module, attr, wrapper)

    def undo(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def root(self, fn, name: str):
        """Wrap a function the benchmark calls itself (no module patching)."""
        return _traced(self.spans, fn, name, self.on_result.get(name))

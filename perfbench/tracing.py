"""Span recorder and the wrappers that feed it.

The benchmark traces bellswap from the outside: every public function of
the eight layer modules is replaced by a wrapper that opens a span, calls
the original and closes the span. The wrapper is rebound wherever the
original function object is bound inside ``bellswap.*`` (module globals
and module-level dicts such as the zoo's builder table), so calls between
modules and inside a module are caught too. Spans stay in memory and are
written once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

LAYERS = ("search", "robustness", "model", "factorizer", "verdict", "quantum", "zoo", "cli")

# span fields, in record order
NAME, START, END, PARENT, ITEM, PHASE = range(6)


class Recorder:
    """Spans of one traced run: name, start, end, parent span, item id, phase.

    The wrappers record only while ``active`` is true, so the benchmark's
    own untimed work (preparing inputs, checking outputs) never enters the
    per-layer sums. The benchmark opens its own spans (``bench.*``) around
    set-up, passes and items.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.active = False
        self.item = -1
        self.phase = ""
        # models_examined and robust_count of every search call, per phase
        self.search_counts: dict[str, dict[str, int]] = defaultdict(
            lambda: {"candidates": 0, "survivors": 0}
        )

    def open(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name_id, time.perf_counter(), 0.0, parent, self.item, self.phase])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")

    def summarize(self, phase: str, groups: dict[int, str] | None = None) -> dict:
        """Per-name [calls, self seconds, inclusive seconds] over one phase.

        Self time is a span's duration minus the durations of its direct
        children. With ``groups`` (item id -> label) the same sums are also
        broken down per group.
        """
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        totals: dict[str, list] = {}
        by_group: dict[str, dict[str, list]] = defaultdict(dict)
        for index, span in enumerate(self.spans):
            if span[PHASE] != phase:
                continue
            duration = span[END] - span[START]
            name = self.names[span[NAME]]
            targets = [totals]
            if groups and span[ITEM] in groups:
                targets.append(by_group[groups[span[ITEM]]])
            for target in targets:
                acc = target.setdefault(name, [0, 0.0, 0.0])
                acc[0] += 1
                acc[1] += duration - child[index]
                acc[2] += duration
        return {"totals": totals, "groups": dict(by_group)}

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "item", "phase"],
                    "names": self.names,
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


SEARCHES = ("search.search_two_source", "search.search_single_source")


def _wrap(recorder: Recorder, name: str, fn):
    counts_search = name in SEARCHES

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.active:
            return fn(*args, **kwargs)
        index = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        if counts_search:
            counts = recorder.search_counts[recorder.phase]
            counts["candidates"] += result.models_examined
            counts["survivors"] += result.robust_count
        return result

    return wrapper


def public_functions(module) -> dict[str, object]:
    """Public callables defined in ``module`` itself (classes excluded)."""
    return {
        name: value
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    }


def install(recorder: Recorder) -> list[str]:
    """Wrap every public function of the layer modules; return the span names."""
    # keyed by id: the originals stay alive inside their wrappers
    wrappers: dict[int, object] = {}
    names: list[str] = []
    for layer in LAYERS:
        module = importlib.import_module(f"bellswap.{layer}")
        for fname, fn in public_functions(module).items():
            names.append(f"{layer}.{fname}")
            wrappers[id(fn)] = _wrap(recorder, names[-1], fn)

    def rebind(mapping: dict) -> None:
        for key, value in list(mapping.items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                mapping[key] = wrapper

    for modname, module in list(sys.modules.items()):
        if modname == "bellswap" or modname.startswith("bellswap."):
            namespace = vars(module)
            rebind(namespace)
            for key, value in list(namespace.items()):
                if isinstance(value, dict) and not key.startswith("__"):
                    rebind(value)
    return names

"""In-memory span recorder for the traced benchmark pass.

Wrappers are installed on module attributes, so every call that crosses a
layer boundary through ``module.fn`` or a module-global lookup opens a span.
Each span records its name, start, end, parent span and task id; spans are
kept in flat arrays (a pass can open about a million of them) and written as
JSON lines only when the pass is over. Deterministic work counters (rows,
pairs, nfev, vertices, ...) are accumulated at the same boundaries.
"""

import functools
import gzip
import inspect
import json
import time
from array import array


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.task = array("l")
        self.counters = {}
        self.task_id = -1
        self._stack = [-1]
        self._undo = []

    def intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def current(self):
        """Name of the innermost open span, or None at the top level."""
        top = self._stack[-1]
        return None if top < 0 else self.names[self.name[top]]

    def wrap(self, name, fn, on_result=None):
        """Callable that records a span named ``name`` around ``fn``.

        on_result(recorder, args, kwargs, result) adds counters for the call.
        """
        nid = self.intern(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.task.append(self.task_id)
            self.end.append(0.0)
            self._stack.append(idx)
            t0 = clock()
            self.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, on_result=None):
        """Replace owner.attr by its traced wrapper until restore().

        A missing attribute is skipped, so a later version of the package
        that drops a helper still traces; its metrics then read 0.
        """
        if not hasattr(owner, attr):
            return
        original = inspect.getattr_static(owner, attr)
        fn = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, fn, on_result))

    def patch_module(self, module, prefix, hooks=None, skip=()):
        """Wrap every function defined in ``module`` as ``prefix.<name>``."""
        hooks = hooks or {}
        for attr, value in sorted(vars(module).items()):
            if attr in skip or not inspect.isfunction(value):
                continue
            if value.__module__ != module.__name__:
                continue
            self.patch(module, attr, f"{prefix}.{attr}", hooks.get(attr))

    def restore(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path, header=None):
        """Spans as gzip-compressed JSON lines, after an optional header object."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            if header is not None:
                fh.write(json.dumps(header) + "\n")
            for i in range(len(self.start)):
                fh.write(json.dumps({
                    "id": i,
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "end": self.end[i],
                    "parent": self.parent[i],
                    "task": self.task[i],
                }) + "\n")


def self_times(names, name, start, end, parent, transparent=()):
    """Per-name (total self time, call count) of a span forest.

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap in a single-threaded pass.
    ``name`` holds indices into ``names``; ``parent`` is -1 for a root.
    The self time of a span named in ``transparent`` (third-party code) is
    also counted as self time of its parent.
    """
    n = len(start)
    covered = [0.0] * n
    for i in range(n):
        p = parent[i]
        if p >= 0:
            covered[p] += end[i] - start[i]
    if transparent:
        see_through = {k for k, v in enumerate(names) if v in transparent}
        for i in reversed(range(n)):  # children before their parents
            p = parent[i]
            if p >= 0 and name[i] in see_through:
                covered[p] -= (end[i] - start[i]) - covered[i]
    totals = {}
    for i in range(n):
        key = names[name[i]]
        s, c = totals.get(key, (0.0, 0))
        totals[key] = (s + (end[i] - start[i]) - covered[i], c + 1)
    return totals



def read_jsonl(path):
    """(header, spans) of a file written by Recorder.write_jsonl(header=...)."""
    with gzip.open(path, "rt") as fh:
        header = json.loads(fh.readline())
        return header, [json.loads(line) for line in fh]

"""In-memory spans around the program's public functions.

The tracer replaces module attributes of the already-imported ``wedge_cot``
modules with timing wrappers, so nothing under ``src/`` changes.  Because
the modules import each other's functions by name, every module attribute
bound to the same function object is replaced, and every one is restored by
``unpatch``.  A span is (name, parent, start, end); the spans stay in
compact arrays until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        #: While False, wrapped functions run untimed (the benchmark's own
        #: checks call the program too).
        self.enabled = True
        self.raised: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def wrap(self, name: str, fn):
        nid = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[(name, type(exc).__name__)] += 1
                raise
            finally:
                tracer._close(idx)

        traced.__wrapped__ = fn
        return traced

    def patch(self, module: str, attr: str, name: str, around=None) -> bool:
        """Replace ``module.attr`` everywhere the package binds it with a
        span named ``name`` around the original, or around
        ``around(original)`` when given.

        Returns False, and replaces nothing, when the module is not
        imported or lacks the attribute.
        """
        mod = sys.modules.get(module)
        original = getattr(mod, attr, None) if mod is not None else None
        if original is None:
            return False
        wrapper = self.wrap(name, original if around is None else around(original))
        for other_name, other in list(sys.modules.items()):
            if other_name.split(".")[0] != module.split(".")[0]:
                continue
            if other.__dict__.get(attr) is original:
                setattr(other, attr, wrapper)
                self._patches.append((other, attr, original))
        return True

    def unpatch(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy_s (span time) and self_s (span time
        minus the time its direct children cover)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            stats = out[self.names[self.name_id[i]]]
            span = self.end[i] - self.start[i]
            stats["calls"] += 1
            stats["busy_s"] += span
            stats["self_s"] += span - child[i]
        return out

    def children_of(self, parent_name: str) -> int:
        """Number of spans named ``parent_name`` that have any child span."""
        pid = self._ids.get(parent_name)
        if pid is None:
            return 0
        parents = {p for p in self.parent if p >= 0 and self.name_id[p] == pid}
        return len(parents)

    def dump(self, path):
        """Write the spans: one JSON header line, then the four arrays."""
        header = {
            "names": self.names,
            "count": len(self.start),
            "arrays": ["name_id:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)


def load_spans(path) -> tuple[list[str], list[tuple[str, int, float, float]]]:
    """Read a file written by ``Tracer.dump`` back as (name, parent, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    names = header["names"]
    spans = [
        (names[nid], parent, start, end)
        for nid, parent, start, end in zip(*arrays)
    ]
    return names, spans

"""Per-layer spans and counters, recorded from outside the library.

The layers are the modules of ``quadlink``.  ``instrument`` rebinds
every public function of those modules, plus a few hot methods, in
every ``quadlink`` namespace that holds it, and restores the originals
on exit.  Only calls made while a probe is active are recorded, so the
harness can run oracles between operations without polluting the data.

Two probes share the rebinding:

* ``SpanProbe`` times each call.  A span keeps its name, start, end,
  parent span and operation id; self time is the span's duration minus
  the time its child spans cover.
* ``CountProbe`` does no timing.  It counts calls and the work counters
  below, including every ``QmodZ`` construction, which is too frequent
  to hook in a timed pass without distorting self times.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

LAYERS = ("zlinalg", "lattice", "quadfun", "exact", "classify", "presentation")
METHODS = (("quadfun", "QuadraticFunction", "from_callable"), ("exact", "CyclotomicSum", "canonical"))


def _public_functions(module: Any) -> dict[str, Callable]:
    out = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) or isinstance(obj, functools._lru_cache_wrapper):
            out[name] = obj
    return out


Span = tuple[int, str, float, float, int | None, int | None, float]


class SpanProbe:
    """Spans of one traced pass, kept in memory.

    A span is (id, name, start, end, parent id, operation id, time
    covered by its children).
    """

    def __init__(self) -> None:
        self.active = False
        self.op_id: int | None = None
        self.spans: list[Span] = []
        self._stack: list[list] = []

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id; filled on exit
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            self.spans[span_id] = (span_id, name, start, end, parent[0] if parent else None, self.op_id, frame[1])

    @contextmanager
    def operation(self, op_id: int) -> Iterator[None]:
        self.op_id = op_id
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.op_id = None

    def self_times(self, op_ids: set[int] | None = None) -> dict[str, tuple[int, float]]:
        """Per function: (calls, self seconds), optionally for some operations only."""
        out: dict[str, list] = {}
        for _, name, start, end, _, op_id, child in self.spans:
            if op_ids is not None and op_id not in op_ids:
                continue
            acc = out.setdefault(name, [0, 0.0])
            acc[0] += 1
            acc[1] += end - start - child
        return {k: (v[0], v[1]) for k, v in out.items()}


class CountProbe:
    """Deterministic work counters; no clock is read."""

    def __init__(self) -> None:
        self.active = False
        self.counts: dict[str, int] = {}
        self.max_transform_bits = 0

    def add(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict) -> Any:
        if not self.active:
            return fn(*args, **kwargs)
        self.add(f"{name}.calls")
        if name == "exact.cyclo_from_angles":
            angles = list(args[0])
            self.add(f"{name}.angles", len(angles))
            args = (angles,) + args[1:]
        elif name == "quadfun.QuadraticFunction.from_callable":
            self.add(f"{name}.elements", args[0].order)
        result = fn(*args, **kwargs)
        if name == "zlinalg.smith_normal_form":
            bits = max((abs(x).bit_length() for m in (result.u, result.v) for row in m.data for x in row), default=0)
            self.max_transform_bits = max(self.max_transform_bits, bits)
        elif name == "quadfun.is_isomorphic":
            self.add(f"{name}.found", result is not None)
        elif name == "exact.cyclo_equals":
            self.add(f"{name}.equal", bool(result))
        elif name == "classify.yc_equivalent":
            self.add(f"classify.verdict.{result.status}")
        return result

    @contextmanager
    def operation(self, op_id: int) -> Iterator[None]:
        self.active = True
        try:
            yield
        finally:
            self.active = False

    def qmodz_hook(self, init: Callable) -> Callable:
        def counted_init(obj: Any, value: Any) -> None:
            if self.active:
                self.add("exact.QmodZ.created")
            init(obj, value)

        return counted_init


def _wrap(name: str, fn: Callable, probe: Any) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return probe.call(name, fn, args, kwargs)

    return wrapper


@contextmanager
def instrument(probe: Any) -> Iterator[Any]:
    """Rebind the public functions of every layer to go through ``probe``."""
    modules = {name: sys.modules[f"quadlink.{name}"] for name in LAYERS}
    namespaces = [m for n, m in sys.modules.items() if n == "quadlink" or n.startswith("quadlink.")]
    wrapped: dict[int, Callable] = {}
    for layer, module in modules.items():
        for fname, fn in _public_functions(module).items():
            wrapped[id(fn)] = _wrap(f"{layer}.{fname}", fn, probe)
    restore: list[tuple[Any, str, Any]] = []
    for ns in namespaces:
        for key, obj in list(vars(ns).items()):
            if id(obj) in wrapped:
                restore.append((ns, key, obj))
                setattr(ns, key, wrapped[id(obj)])
    for layer, cls_name, meth in METHODS:
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[meth]
        restore.append((cls, meth, raw))
        if isinstance(raw, staticmethod):
            setattr(cls, meth, staticmethod(_wrap(f"{layer}.{cls_name}.{meth}", raw.__func__, probe)))
        else:
            setattr(cls, meth, _wrap(f"{layer}.{cls_name}.{meth}", raw, probe))
    if isinstance(probe, CountProbe):
        qmodz = modules["exact"].QmodZ
        restore.append((qmodz, "__init__", qmodz.__dict__["__init__"]))
        qmodz.__init__ = probe.qmodz_hook(qmodz.__dict__["__init__"])
    try:
        yield probe
    finally:
        for owner, key, obj in reversed(restore):
            setattr(owner, key, obj)

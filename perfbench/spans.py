"""Per-layer tracing for one operation process, and its summary.

`install()` wraps every public function and method of the microfold modules
so each call records a span: id, parent span, name, start, end, whether it
is the outermost span of that name on its thread, and the bytes it moved
(its bytes result, else its bytes arguments).  Spans stay in memory and are
written out once, when the operation ends.  `summarize()` turns one
operation's spans into per-name call counts, self time, wall time and bytes.

Two boundaries are not functions of microfold and get their own names:
`builder.exec` wraps the builder's `subprocess.run`, and `store.lock` times
the exclusive `flock` calls made by the store, i.e. the wait for its lock.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time

MODULES = ("carc", "hashing", "store", "derivation", "sexpr", "builder",
           "archive", "substitute", "transport", "channel", "manifest",
           "profile", "bootstrap", "cli")
# A contextmanager method: a span around it would time only the creation of
# the context manager.  The lock wait is traced through `store.lock` instead.
_SKIP = {("store", "lock")}


class Tracer:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name, fn, when=None):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
                local.active = {}
            active = local.active
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            outer = not active.get(name)
            active[name] = active.get(name, 0) + 1
            stack.append(span_id)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                active[name] -= 1
                if isinstance(result, (bytes, bytearray)):
                    moved = len(result)
                else:
                    moved = sum(len(a) for a in args
                                if isinstance(a, (bytes, bytearray)))
                spans.append((span_id, parent, name, start, end, outer, moved))

        return traced

    def dump(self, path, op, start_s):
        with open(path, "w") as f:
            json.dump({"op": op, "start_s": start_s, "spans": self.spans}, f)


class _Proxy:
    """A module stand-in that overrides some attributes of the real one."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(tracer: Tracer):
    """Wrap microfold's public functions in place; call before any work."""
    modules = {short: importlib.import_module(f"microfold.{short}")
               for short in MODULES}
    wrapped = {}  # id(original function) -> wrapper

    def wrap(short, attr, fn):
        w = tracer.wrap(f"{short}.{attr}", fn)
        wrapped[id(fn)] = w
        return w

    for short, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                setattr(mod, attr, wrap(short, attr, obj))
            elif inspect.isclass(obj):
                for meth, raw in list(vars(obj).items()):
                    if meth.startswith("_") or (short, meth) in _SKIP:
                        continue
                    if isinstance(raw, (staticmethod, classmethod)):
                        setattr(obj, meth, type(raw)(wrap(short, meth, raw.__func__)))
                    elif inspect.isfunction(raw):
                        setattr(obj, meth, wrap(short, meth, raw))
    # Names imported by value (`from .derivation import parse_derivation`)
    # still point at the original in the importing module.
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    builder, store = modules["builder"], modules["store"]
    builder.subprocess = _Proxy(builder.subprocess, run=tracer.wrap(
        "builder.exec", builder.subprocess.run))
    fcntl = store.fcntl
    store.fcntl = _Proxy(fcntl, flock=tracer.wrap(
        "store.lock", fcntl.flock, when=lambda fd, op: op & fcntl.LOCK_EX))


def summarize(trace: dict) -> dict:
    """name -> {calls, self_s, wall_s, mib}, plus the root span's duration.

    self_s is each span's duration minus that of its child spans; wall_s and
    mib count only outermost spans, so recursion is not counted twice.
    """
    spans = trace["spans"]
    child_time = {}
    for _, parent, _, start, end, _, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    stats = {}
    root_s = 0.0
    for span_id, parent, name, start, end, outer, moved in spans:
        s = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "wall_s": 0.0, "mib": 0.0})
        s["calls"] += 1
        s["self_s"] += (end - start) - child_time.get(span_id, 0.0)
        if outer:
            s["wall_s"] += end - start
            s["mib"] += moved / (1 << 20)
        if parent < 0 and name.startswith("op."):
            root_s += end - start
    return {"stats": stats, "root_s": root_s, "start_s": trace["start_s"]}

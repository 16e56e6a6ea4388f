"""Span tracer installed around the package's public functions (traced runs only).

``install`` wraps every public function defined in a ``pandora_hedge`` module
and every public method (plus ``Instance.__init__``) of the classes defined
there.  ``from .x import f`` copies the name ``f`` into each importing
module, so the wrapper replaces every module attribute that binds the
original function, not only the defining one.

Each wrapped call made while an op is active records a span (name, start,
end, parent span id, op id) in memory, up to a cap, and counts the call.  Self
time is a span's duration minus the time its child spans cover; it is
accumulated on the fly, so it stays exact after the span cap is reached.
Calls made outside an op (loading, references) run the original function
unrecorded.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import pkgutil
from array import array
from collections import defaultdict
from time import perf_counter_ns

MARK = "__bench_original__"
SPAN_CAP = 200_000


class Tracer:
    def __init__(self, span_cap: int = SPAN_CAP):
        self.labels: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.calls_by_op: dict[str, int] = {}  # filled by the harness per op key
        self.stack: list[list] = []  # [label id, start, child ns, span id]
        self.op_id = 0  # 0: no op active, nothing is recorded
        self.span_cap = span_cap
        self.spans_dropped = 0
        self._next_span = 1
        self._span_cols = {k: array("q") for k in ("span", "label", "start", "end", "parent", "op")}
        self._hooks: dict[int, object] = {}
        self.installed: list[tuple[object, str]] = []  # (owner, attribute) pairs replaced

    # --- recording -----------------------------------------------------------

    def label_id(self, label: str) -> int:
        self.labels.append(label)
        for col in (self.calls, self.self_ns, self.total_ns):
            col.append(0)
        return len(self.labels) - 1

    def ids(self, *labels: str) -> list[int]:
        return [i for i, name in enumerate(self.labels) if name in labels]

    def inside(self, label_ids) -> bool:
        return any(frame[0] in label_ids for frame in self.stack)

    def caller_module(self) -> str:
        """Module of the innermost enclosing span (the current call excluded)."""
        if len(self.stack) < 2:
            return ""
        return self.labels[self.stack[-2][0]].split(".", 1)[0]

    def wrap(self, fn, label: str, hook=None):
        lid = self.label_id(label)
        if hook is not None:
            self._hooks[lid] = hook
        stack = self.stack
        calls, self_ns, total_ns = self.calls, self.self_ns, self.total_ns
        cols = self._span_cols
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.op_id:
                return fn(*args, **kwargs)
            span = tracer._next_span
            tracer._next_span += 1
            frame = [lid, perf_counter_ns(), 0, span]
            stack.append(frame)
            ok = False
            result = None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[1]
                calls[lid] += 1
                self_ns[lid] += dur - frame[2]
                total_ns[lid] += dur
                if stack:
                    stack[-1][2] += dur
                if len(cols["span"]) < tracer.span_cap:
                    for key, val in (("span", span), ("label", lid), ("start", frame[1]), ("end", end),
                                     ("parent", stack[-1][3] if stack else 0), ("op", tracer.op_id)):
                        cols[key].append(val)
                else:
                    tracer.spans_dropped += 1
                if lid in tracer._hooks:
                    stack.append(frame)  # hooks see the call as the innermost span
                    try:
                        tracer._hooks[lid](tracer, args, kwargs, result, ok)
                    finally:
                        stack.pop()

        setattr(wrapper, MARK, fn)
        return wrapper

    # --- installation ----------------------------------------------------------

    def install(self, package, hooks=None):
        """Wrap the package's public functions and methods in every binding."""
        hooks = hooks or {}
        modules = _modules(package)
        prefix = package.__name__ + "."
        wrappers: dict[int, object] = {}

        def wrapper_for(fn, label):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self.wrap(fn, label, hooks.get(label))
            return wrappers[id(fn)]

        originals = {}
        for mod in modules:
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__.startswith(prefix) and not obj.__name__.startswith("_"):
                    originals[id(obj)] = obj
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_methods(obj, mod.__name__[len(prefix):], wrapper_for)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)] is obj:
                    label = f"{obj.__module__[len(prefix):]}.{obj.__name__}"
                    setattr(mod, name, wrapper_for(obj, label))
                    self.installed.append((mod, name))

    def _install_methods(self, cls, module_short, wrapper_for):
        generated_init = dataclasses.is_dataclass(cls)
        for name, attr in list(vars(cls).items()):
            public = not name.startswith("_") or (name == "__init__" and not generated_init)
            if not public:
                continue
            label = f"{module_short}.{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)) and inspect.isfunction(attr.__func__):
                new = type(attr)(wrapper_for(attr.__func__, label))
            elif inspect.isfunction(attr):
                new = wrapper_for(attr, label)
            else:
                continue
            setattr(cls, name, new)
            self.installed.append((cls, name))

    # --- output ----------------------------------------------------------------

    def module_self_s(self) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for lid, label in enumerate(self.labels):
            out[label.split(".", 1)[0]] += self.self_ns[lid] / 1e9
        return dict(out)

    def calls_of(self, *labels: str) -> int:
        return sum(self.calls[i] for i in self.ids(*labels))

    def write_spans(self, path) -> int:
        cols = self._span_cols
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps({"labels": self.labels, "columns": list(cols), "dropped": self.spans_dropped}) + "\n")
            for row in zip(*cols.values()):
                fh.write("\t".join(map(str, row)) + "\n")
        return len(cols["span"])


def _modules(package) -> list:
    return [package] + [
        importlib.import_module(f"{package.__name__}.{m.name}") for m in pkgutil.iter_modules(package.__path__)
    ]


def wrapped_attributes(package) -> list[str]:
    """Names of package attributes (module or class level) that hold a wrapper."""
    found = []
    for mod in _modules(package):
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{name}")
            if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for attr_name, attr in vars(obj).items():
                    inner = getattr(attr, "__func__", attr)
                    if hasattr(inner, MARK):
                        found.append(f"{mod.__name__}.{obj.__name__}.{attr_name}")
    return found

"""Span tracer for the benchmark's traced run; the untraced run never imports it.

Installing the tracer replaces every function defined in a mirrorcfe module,
in every mirrorcfe module namespace that binds it, and every method of the
classes those modules define, by one shared timing wrapper. A call is
therefore counted whichever binding it goes through: `evaluation.featurize`
and `cli.featurize` are bindings of `classifier.featurize`, and the imports
that `train_generator` and `cmd_explain` make at call time read the module
attribute, which is the wrapper. `conv2d` also gets its backward closure
timed, by wrapping the `_backward` of the node it returns, and `Tensor`
construction is counted.

Spans are recorded only inside a benchmark operation (`Tracer.operation`), so
the benchmark's own checks, which call a few program functions, add nothing.
Each span keeps its name, its parent and its operation; all of them stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import time
import types
from array import array
from contextlib import contextmanager

import numpy as np

PACKAGE = "mirrorcfe"
CONV = "autodiff.conv2d"
CONV_BACKWARD = "autodiff.conv2d.bwd"


def program_modules() -> list[types.ModuleType]:
    pkg = importlib.import_module(PACKAGE)
    return [pkg] + [importlib.import_module(f"{PACKAGE}.{info.name}")
                    for info in pkgutil.iter_modules(pkg.__path__)]


def _defined_here(obj) -> bool:
    return getattr(obj, "__module__", "").split(".")[0] == PACKAGE


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.nodes = 0  # Tensor objects built inside operations
        self.conv_frozen_weight = 0  # conv2d backward calls whose weight is not trainable
        self.conv_constant_input = 0  # ... whose input is a constant leaf
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        stack = self.stack
        sid = len(self.name)
        self.name.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(stack[0] if stack else sid)
        self.end.append(0.0)
        stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def operation(self, name: str):
        """Root span of one benchmark operation; program spans nest under it."""
        if self.stack:
            raise RuntimeError("benchmark operations do not nest")
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    # -- wrapping ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        name_id = self._name_id(name)
        after = self._time_conv_backward if name == CONV else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.stack:
                return fn(*args, **kwargs)
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    def _time_conv_backward(self, args, out) -> None:
        x, w = args[0], args[1]
        backward = out._backward
        tracer = self
        name_id = self._name_id(CONV_BACKWARD)
        frozen = not w.trainable
        constant = not x.trainable and not x._parents

        def timed_backward(g):
            tracer.conv_frozen_weight += frozen
            tracer.conv_constant_input += constant
            sid = tracer._open(name_id)
            try:
                backward(g)
            finally:
                tracer._close(sid)

        out._backward = timed_backward

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: dict[object, object] = {}
        modules = program_modules()
        for module in modules:
            short = module.__name__.removeprefix(PACKAGE + ".")
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._install_class(obj, short)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and _defined_here(obj):
                    if obj not in wrappers:
                        owner = obj.__module__.removeprefix(PACKAGE + ".")
                        wrappers[obj] = self._wrap(obj, f"{owner}.{obj.__qualname__}")
                    self._replace(module, attr, wrappers[obj])

    def _install_class(self, cls: type, short: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr == "__init__" and cls.__name__ == "Tensor":
                self._replace(cls, attr, self._counting_init(obj))
            elif not (attr.startswith("__") and attr.endswith("__")):
                self._replace(cls, attr, self._wrap(obj, f"{short}.{obj.__qualname__}"))

    def _counting_init(self, init):
        tracer = self

        @functools.wraps(init)
        def counted(self_, *args, **kwargs):
            if tracer.stack:
                tracer.nodes += 1
            init(self_, *args, **kwargs)

        counted.__wrapped_by_tracer__ = True
        return counted

    def _replace(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {"name": name, "parent": parent, "op": np.frombuffer(self.op, dtype=np.int32),
                "duration": duration, "self": duration - child}

    def totals(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive seconds and self seconds per span name."""
        a = self.arrays()
        n = len(self.names)
        calls = np.bincount(a["name"], minlength=n)
        incl = np.bincount(a["name"], weights=a["duration"], minlength=n)
        own = np.bincount(a["name"], weights=a["self"], minlength=n)
        return {name: {"calls": int(calls[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)}

    def totals_by_operation(self) -> dict[str, dict[str, dict[str, float]]]:
        """`totals` split by the name of the benchmark operation each span ran under."""
        a = self.arrays()
        out: dict[str, dict[str, dict[str, float]]] = {}
        op_name = a["name"][a["op"]]
        for op_id in np.unique(op_name):
            keep = op_name == op_id
            names = a["name"][keep]
            per = out.setdefault(self.names[op_id], {})
            for i in np.unique(names):
                sel = names == i
                per[self.names[i]] = {"calls": int(sel.sum()),
                                      "incl_s": float(a["duration"][keep][sel].sum()),
                                      "self_s": float(a["self"][keep][sel].sum())}
        return out

    def outermost_seconds(self, prefix: str) -> float:
        """Seconds inside spans named `prefix*` whose parent is not one of them."""
        a = self.arrays()
        match = np.array([n.startswith(prefix) for n in self.names] + [False], dtype=bool)
        inside = match[a["name"]]
        parent_inside = match[np.where(a["parent"] >= 0, a["name"][a["parent"]], len(self.names))]
        return float(a["duration"][inside & ~parent_inside].sum())

    def self_seconds(self, prefix: str) -> float:
        a = self.arrays()
        match = np.array([n.startswith(prefix) for n in self.names], dtype=bool)
        return float(a["self"][match[a["name"]]].sum())

    def save(self, path) -> None:
        a = self.arrays()
        np.savez(path, names=np.array(self.names), name=a["name"], parent=a["parent"], op=a["op"],
                 start=np.frombuffer(self.start, dtype=np.float64), duration=a["duration"])

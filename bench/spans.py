"""Span tracing installed from outside the package.

``Tracer.install()`` replaces every public function of each layer module (and
every private one that another module imports) with a timing wrapper, under
every module name that binds it, so ``pre_measurement_state`` is traced
whether it is reached through ``pipeline`` or ``metrology``.  Constructors and
public methods of the layers' public classes are wrapped on the class.
``uninstall()`` puts every original back.  Nothing in the package is edited.

A span is ``[name_id, start_ns, end_ns, parent_index, raised]``; spans stay in
memory until ``write()``.  Self time is a span's duration minus the time its
direct children cover (children nest inside their parent, so their durations
add without overlap).
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from types import FunctionType

import numpy as np

LAYERS = ("states", "channels", "pipeline", "metrology", "sweep", "cli", "gw",
          "fock", "validation")
PACKAGE = "pumpedsu11"
# functions from other libraries that a layer calls and the benchmark times as that layer
FOREIGN = (("fock", "expm_multiply"),)
# class members wrapped besides public methods; a dataclass's generated __init__ is
# not wrapped, its __post_init__ (where it has one) marks each construction instead
CLASS_HOOKS = ("__post_init__", "__matmul__")

NAME, START, END, PARENT, RAISED = range(5)


def _layer_modules():
    return {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _public_names(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return set(names)


def _targets():
    """Yield (span name, owner, attribute) for every boundary to wrap.

    ``owner`` is None for a module-level function (rebound in every module
    that holds it) or the class whose attribute is replaced.
    """
    modules = _layer_modules()
    bound_elsewhere = {}
    for module in _package_modules():
        for value in vars(module).values():
            if isinstance(value, FunctionType) and value.__module__ != module.__name__:
                bound_elsewhere[id(value)] = value
    for layer, module in modules.items():
        public = _public_names(module)
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if isinstance(obj, FunctionType):
                if name in public or id(obj) in bound_elsewhere:
                    yield f"{layer}.{name}", None, obj
            elif isinstance(obj, type) and name in public \
                    and not issubclass(obj, BaseException):
                is_dataclass = "__dataclass_fields__" in vars(obj)
                for attr, fn in vars(obj).items():
                    if not isinstance(fn, FunctionType):
                        continue
                    hook = attr in CLASS_HOOKS or (attr == "__init__" and not is_dataclass)
                    if hook or not attr.startswith("_"):
                        yield f"{layer}.{name}.{attr}", obj, attr
    for layer, name in FOREIGN:
        yield f"{layer}.{name}", None, getattr(modules[layer], name)


class Tracer:
    """In-memory span recorder with install/uninstall of the layer wrappers."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.spans = []
        self._stack = []
        self._undo = []

    def _wrap(self, span_name, fn):
        name_id = self._ids.setdefault(span_name, len(self.names))
        if name_id == len(self.names):
            self.names.append(span_name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_id, clock(), 0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                record[RAISED] = True
                raise
            finally:
                record[END] = clock()
                stack.pop()

        return traced

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        holders = {}
        for module in _package_modules():
            for attr, value in vars(module).items():
                holders.setdefault(id(value), []).append((module, attr))
        for span_name, owner, target in _targets():
            if owner is not None:
                original = vars(owner)[target]
                setattr(owner, target, self._wrap(span_name, original))
                self._undo.append((owner, target, original))
                continue
            wrapper = self._wrap(span_name, target)
            for module, attr in holders.get(id(target), ()):
                setattr(module, attr, wrapper)
                self._undo.append((module, attr, target))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self):
        """Per span name: calls, raised, inclusive and self ns, and durations."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_ns[span[PARENT]] += span[END] - span[START]
        out = {}
        for i, span in enumerate(self.spans):
            name = self.names[span[NAME]]
            entry = out.setdefault(name, {"calls": 0, "raised": 0, "incl_ns": 0,
                                          "self_ns": 0, "durations_ns": []})
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["raised"] += span[RAISED]
            entry["incl_ns"] += duration
            entry["self_ns"] += duration - child_ns[i]
            entry["durations_ns"].append(duration)
        return out

    def write(self, path):
        """Save the spans as an int64 array with columns name id, start_ns,
        end_ns, parent index (-1 for a root) and raised (0 or 1), plus the names."""
        np.savez_compressed(path, names=np.array(self.names, dtype=str),
                            spans=np.array(self.spans, dtype=np.int64).reshape(-1, 5))


def layer_self_ns(summary):
    """Self time summed per layer (the span name's first component)."""
    totals = dict.fromkeys(LAYERS, 0)
    for name, entry in summary.items():
        totals[name.split(".", 1)[0]] += entry["self_ns"]
    return totals

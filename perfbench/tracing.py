"""Spans around the calls into ``condexp``, recorded from outside the package.

``Tracer.install`` wraps the public functions of every ``condexp`` module,
plus the constructors and methods that carry the numeric work, and
patches each wrapped name in every module that imported it.  A span
holds its name, start, end and parent span; spans are kept in flat
arrays and written out when the run ends.  Self time is a span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

import numpy as np

LAYERS = ("space", "spacefile", "operators", "sequences", "sufficiency",
          "counterexample", "cli", "rng")

# (module, class, attribute, span name): members wrapped besides the
# module-level functions.  The WeightedInnerProduct methods share one name.
MEMBERS = [
    ("space", "Partition", "__init__", "space.Partition"),
    ("space", "Partition", "refines", "space.refines"),
    ("space", "MeasureFamily", "__init__", "space.MeasureFamily"),
    ("operators", "CondExpOperator", "__init__", "operators.CondExpOperator"),
    ("operators", "CondExpOperator", "apply", "operators.apply"),
    ("operators", "OperatorProduct", "apply", "operators.OperatorProduct.apply"),
] + [("operators", "WeightedInnerProduct", name, "operators.norms")
     for name in ("inner", "norm1", "norm2_sq", "norm2", "norminf", "distinf")]

# The three theorem suites are one layer; the countable suite nests the pairwise one.
RENAMED = {
    "sufficiency.intersection_sufficiency_suite": "sufficiency.suite",
    "sufficiency.decreasing_chain_suite": "sufficiency.suite",
    "sufficiency.countable_intersection_suite": "sufficiency.suite",
}


def _trajectory_bytes(result) -> float:
    """Bytes of the retained trajectory, computed as applications x n x 8."""
    return float(result.iterations_used * result.limit.shape[0] * 8)


def _suite_rounds(result) -> float:
    return float(result.details.get("rounds", 0))


# Counters computed from a wrapped call's result: (span name, counter, function).
RESULT_COUNTERS = {
    "operators.iterate": ("operators.trajectory_bytes", _trajectory_bytes),
    "sufficiency.intersection_sufficiency_suite": ("sufficiency.suite.rounds", _suite_rounds),
}


# Spans the buffers hold before they grow.  They are allocated once, large
# enough to be mapped apart from the heap the program's own arrays share,
# and never freed while the workload runs: on iterate-cli, where and when
# freed memory goes back to the system sets about a sixth of an
# operation's time (page faults on the retained trajectory), so the
# tracer must not move heap boundaries.
CAPACITY = 1 << 21


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.installed: set[str] = set()   # span names with a wrapper
        self._ids: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.name_id = np.empty(CAPACITY, np.int32)
        self.parent = np.empty(CAPACITY, np.int32)
        self.start = np.empty(CAPACITY)
        self.end = np.empty(CAPACITY)
        self.reset()

    def reset(self) -> None:
        """Drop recorded spans and counters (the wrappers stay installed)."""
        self.size = 0
        self._stack = [-1]
        self.counters = {name: 0.0 for name, _ in RESULT_COUNTERS.values()}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        idx = self.size
        if idx == self.start.size:
            for attr in ("name_id", "parent", "start", "end"):
                old = getattr(self, attr)
                setattr(self, attr, np.concatenate([old, np.empty_like(old)]))
        self.name_id[idx] = self._id(name)
        self.parent[idx] = self._stack[-1]
        self.size = idx + 1
        self._stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def spans(self) -> dict:
        """The recorded spans, in the form ``self_times`` takes."""
        n = self.size
        return {"names": np.array(self.names), "name_id": self.name_id[:n],
                "parent": self.parent[:n], "start": self.start[:n], "end": self.end[:n]}

    def wrap(self, name: str, fn, counter=None):
        tracer = self
        self.installed.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the package's public functions and the MEMBERS list."""
        package = {name: mod for name, mod in sys.modules.items()
                   if name == "condexp" or name.startswith("condexp.")}
        wrapped = {}
        for layer in LAYERS:
            mod = package[f"condexp.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    span = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(RENAMED.get(span, span), obj,
                                             RESULT_COUNTERS.get(span))
        for mod in package.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for layer, cls_name, attr, span in MEMBERS:
            cls = getattr(package[f"condexp.{layer}"], cls_name)
            fn = cls.__dict__[attr]
            traced = self.wrap(span, fn)
            self._patch(cls, attr, traced)
            if cls.__dict__.get("__call__") is fn:
                self._patch(cls, "__call__", traced)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def save(self, path) -> None:
        np.savez(path, **self.spans(), installed=np.array(sorted(self.installed)),
                 counter_names=np.array(list(self.counters)),
                 counter_values=np.array(list(self.counters.values()), dtype=float))


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (number of spans, total self time in seconds)."""
    names, name_id, parent = spans["names"], spans["name_id"], spans["parent"]
    duration = spans["end"] - spans["start"]
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=duration[nested], minlength=duration.size)
    own = duration - covered
    calls = np.bincount(name_id, minlength=len(names))
    total = np.bincount(name_id, weights=own, minlength=len(names))
    return {str(name): (int(calls[i]), float(total[i])) for i, name in enumerate(names)}

"""In-memory span recorder for the traced benchmark run.

The engine has no instrumentation of its own, so the traced run wraps the
public functions of each layer from the outside: every wrapped call records a
span (name, start, end, parent span) plus the rows it handled.  Spans nest the
way the calls do -- ``expansion.expand`` inside ``router.route`` inside
``ensemble.full_inference`` -- so a span's self time is its duration minus the
durations of its direct children.

Nothing here changes what the engine computes: a wrapper only reads its
arguments, calls the original and returns its result.
"""

from __future__ import annotations

import importlib
import os
import sys
import time

import numpy as np

# (module, attribute, span name).  A dotted attribute names a method.  The
# span's layer is the part of its name before the first dot.
TARGETS = (
    ("stream", "build_stream", "stream.build"),
    ("stream", "load_feature_file", "stream.load_feature_file"),
    ("stream", "StreamCursor.next_batch", "stream.next_batch"),
    ("expansion", "RandomExpansion.__init__", "expansion.build"),
    ("expansion", "RandomExpansion.__call__", "expansion.expand"),
    ("analytic_router", "accumulate", "router.accumulate"),
    ("analytic_router", "solve", "router.solve"),
    ("analytic_router", "route", "router.route"),
    ("experts", "train_step", "experts.train_step"),
    ("experts", "ExpertPool.spawn", "experts.spawn"),
    ("ensemble", "full_inference", "ensemble.full_inference"),
    ("baselines", "baseline_fit_update", "baselines.fit_update"),
    ("baselines", "baseline_finalize", "baselines.finalize"),
    ("baselines", "baseline_route", "baselines.route"),
    ("metrics", "linear_cka", "metrics.linear_cka"),
    ("metrics", "routing_accuracy", "metrics.routing_accuracy"),
    ("harness", "SeedRunState.__init__", "harness.setup"),
    ("harness", "run_batch", "harness.run_batch"),
    ("harness", "finish_seed", "harness.finish_seed"),
    ("harness", "_write_outputs", "harness.emit"),
)

LAYERS = ("expansion", "router", "experts", "ensemble", "stream", "baselines",
          "metrics", "harness")


def _rows(value) -> int:
    shape = np.shape(value)
    return 1 if len(shape) < 2 else int(shape[0])


def _rows_arg0(args, kwargs):
    return _rows(args[0])


def _rows_arg1(args, kwargs):  # methods: args[0] is self
    return _rows(args[1])


def _rows_accumulate(args, kwargs):
    return _rows(args[1].values)


def _solve_info(args, kwargs):
    return {"factorized": args[0].solved is None}


def _solve_after(args, info):
    if info["factorized"]:
        info["jitter"] = float(args[0].jitter_used)


def _file_info(args, kwargs):
    return {"bytes": os.path.getsize(args[0])}


# span name -> (rows(args, kwargs), info(args, kwargs), after(args, info))
HOOKS = {
    "expansion.expand": (_rows_arg1, None, None),
    "router.accumulate": (_rows_accumulate, None, None),
    "router.solve": (None, _solve_info, _solve_after),
    "router.route": (_rows_arg0, None, None),
    "ensemble.full_inference": (_rows_arg0, None, None),
    "stream.load_feature_file": (None, _file_info, None),
}


class Recorder:
    """Collects spans while installed; ``uninstall`` restores the engine."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, rows, info]
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, fn, name):
        rows_of, info_of, after = HOOKS.get(name, (None, None, None))
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    rows_of(args, kwargs) if rows_of else 0,
                    info_of(args, kwargs) if info_of else None]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if after:
                    after(args, span[5])

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target, in every engine module that holds it."""
        for module_name, _, _ in TARGETS:
            importlib.import_module(f"gclstream.{module_name}")
        modules = [m for key, m in sys.modules.items()
                   if key == "gclstream" or key.startswith("gclstream.")]
        for module_name, attr, name in TARGETS:
            module = sys.modules[f"gclstream.{module_name}"]
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                fn = getattr(owner, method, None) if owner else None
                if fn is None:
                    self.missing.append(name)
                    continue
                self._undo.append((owner, method, fn))
                setattr(owner, method, self._wrap(fn, name))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(fn, name)
            for mod in modules:  # every `from .x import f` holds its own name
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    def summary(self) -> dict:
        """Per span name: calls, rows, total and self seconds, durations."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, rows, info) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "rows": 0, "s": 0.0,
                                          "self_s": 0.0, "durations": [],
                                          "infos": []})
            entry["calls"] += 1
            entry["rows"] += rows
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s[i]
            entry["durations"].append(end - start)
            if info is not None:
                entry["infos"].append(info)
        return out

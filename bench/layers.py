"""Transparent timing wrappers for the traced benchmark run.

The wrappers replace, for the length of one traced round, the module
globals through which each layer calls the next one (``tracker.iou``,
``metrics.hungarian``, ``cli.load_annotation``, ...).  They call the
original function unchanged and add its count, busy time and result
statistics to the aggregate of the stage that is running.  The package
sources are never edited: a wrapper only rebinds a name for a while and
puts the original back afterwards.

A target that no longer exists is reported as absent, so that a layer
that went away is never read as a layer that did no work.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass, field

# (module attribute, layer name, kind).  The kind selects what the wrapper
# counts besides calls and busy time:
#   overlap  results that are nonzero, and busy time split by that
#   assign   padded matrix size: sum of n*n ("cells") and the largest n
#   read     bytes of the file named by the first argument
#   write    bytes of the file or stream given as the last argument
#   plain    nothing else
LEAF_TARGETS = (
    ("tracker", "iou", "geometry.iou", "overlap"),
    ("tracker", "hungarian", "matching.hungarian", "assign"),
    ("linker", "iou", "geometry.iou", "overlap"),
    ("linker", "quad_to_rotated", "geometry.quad_to_rotated", "plain"),
    ("metrics", "quad_iou", "geometry.quad_iou", "overlap"),
    ("metrics", "hungarian", "matching.hungarian", "assign"),
    ("metrics", "eval_mot", "metrics.clear", "plain"),
    ("metrics", "eval_id", "metrics.identity", "plain"),
    ("matching", "giou", "geometry.giou", "plain"),
    ("matching", "hungarian", "matching.hungarian", "assign"),
    ("cli", "load_annotation", "annotations.load_annotation", "read"),
    ("cli", "load_detections", "annotations.load_detections", "read"),
    ("cli", "save_trajectories", "annotations.save_trajectories", "write"),
)

# Tracker methods, wrapped on the class: the step is the per-frame unit of
# online tracking and trajectories() the final collection pass.
METHOD_TARGETS = (
    ("step", "tracker.step"),
    ("trajectories", "tracker.trajectories"),
)


@dataclass
class LayerAgg:
    """What one layer did inside one stage."""

    calls: int = 0
    busy_s: float = 0.0
    nonzero: int = 0
    zero_busy_s: float = 0.0
    nonzero_busy_s: float = 0.0
    cells: int = 0
    max_n: int = 0
    bytes: int = 0
    born: int = 0


@dataclass
class Span:
    """A stage or round interval; stages point at their round."""

    span_id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    layers: dict[str, LayerAgg] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def layer(self, name: str) -> LayerAgg:
        agg = self.layers.get(name)
        if agg is None:
            agg = self.layers[name] = LayerAgg()
        return agg

    def to_dict(self) -> dict:
        return {
            "id": self.span_id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "layers": {k: vars(v) for k, v in sorted(self.layers.items())},
        }


def _file_size(target) -> int:
    """Size of a path or of an open file, 0 for anything else."""
    if isinstance(target, (str, os.PathLike)):
        try:
            return os.path.getsize(target)
        except OSError:
            return 0
    if hasattr(target, "fileno"):
        target.flush()
        return os.fstat(target.fileno()).st_size
    return 0


class Tracer:
    """Spans kept in memory, plus the wrappers that feed them.

    ``stage`` is the span that leaf calls are charged to; wrappers charge
    nothing while it is ``None``.
    """

    def __init__(self, modules: dict, tracker_cls):
        self._modules = modules
        self._tracker_cls = tracker_cls
        self.spans: list[Span] = []
        self.stage: Span | None = None
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def open_span(self, name: str, parent: Span | None) -> Span:
        span = Span(len(self.spans), parent.span_id if parent else None,
                    name, time.perf_counter())
        self.spans.append(span)
        return span

    def _leaf(self, fn, layer: str, kind: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stage = self.stage
            if stage is None:
                return fn(*args, **kwargs)
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            agg = stage.layer(layer)
            agg.calls += 1
            agg.busy_s += dt
            if kind == "overlap":
                if result != 0.0:
                    agg.nonzero += 1
                    agg.nonzero_busy_s += dt
                else:
                    agg.zero_busy_s += dt
            elif kind == "assign":
                n = len(args[0])
                agg.cells += n * n
                agg.max_n = max(agg.max_n, n)
            elif kind == "read":
                agg.bytes += _file_size(args[0])
            elif kind == "write":
                agg.bytes += _file_size(args[-1])
            return result
        return wrapper

    def _method(self, fn, layer: str):
        @functools.wraps(fn)
        def wrapper(tracker, *args, **kwargs):
            stage = self.stage
            if stage is None:
                return fn(tracker, *args, **kwargs)
            t0 = time.perf_counter()
            result = fn(tracker, *args, **kwargs)
            agg = stage.layer(layer)
            agg.calls += 1
            agg.busy_s += time.perf_counter() - t0
            if layer == "tracker.step":
                agg.born += len(result[1])
            return result
        return wrapper

    def install(self) -> None:
        self.absent = []
        for mod_name, attr, layer, kind in LEAF_TARGETS:
            module = self._modules[mod_name]
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._leaf(fn, layer, kind))
        for attr, layer in METHOD_TARGETS:
            fn = self._tracker_cls.__dict__.get(attr)
            if fn is None:
                self.absent.append(f"tracker.Tracker.{attr}")
                continue
            self._saved.append((self._tracker_cls, attr, fn))
            setattr(self._tracker_cls, attr, self._method(fn, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

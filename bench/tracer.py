"""Per-layer tracing of graphdet from outside the package.

:func:`Tracer.installed` replaces the public functions listed in
``LAYERS`` with timing wrappers, in every ``graphdet`` module that binds
them (the defining module too, so calls inside a module are seen), and
restores the originals on exit.  Spans are aggregated in memory per
operation kind: a wrapped call made while no operation is open records
nothing, so the benchmark's own checks never count.

A layer's self time is its span's duration minus the time of the wrapped
calls nested directly inside it.  A tracer made with ``memory=True`` also
records, for ``voxel.voxelize`` and ``interp.propagate_features``, the
peak memory that ``tracemalloc`` sees allocated during the call.
tracemalloc runs only inside those calls, but it slows them several
times over, so timings come from a tracer without it.
"""

from __future__ import annotations

import importlib
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

# Layer name -> (module, attribute) pairs it wraps.  "Class.method" wraps a method.
LAYERS: dict[str, list[tuple[str, str]]] = {
    "scene.generate_synthetic_scene": [("graphdet.scene", "generate_synthetic_scene")],
    "scene.read_detections": [("graphdet.scene", "read_detections")],
    "scene.write_detections": [("graphdet.scene", "write_detections")],
    "voxel.voxelize": [("graphdet.voxel", "voxelize")],
    "interp.propagate_features": [("graphdet.interp", "propagate_features")],
    "interp.set_abstraction": [("graphdet.interp", "set_abstraction")],
    "interp.farthest_point_sample": [("graphdet.interp", "farthest_point_sample")],
    "interp.sample_bev_point": [("graphdet.interp", "sample_bev_point")],
    "interp.sample_bev_grid": [("graphdet.interp", "sample_bev_grid")],
    "rfa.point_pyramid": [("graphdet.rfa", "point_pyramid")],
    "rfa.voxel_feature_set": [("graphdet.rfa", "voxel_feature_set")],
    "rfa.synthetic_bev_map": [("graphdet.rfa", "synthetic_bev_map")],
    "rfa.auxiliary_targets": [("graphdet.rfa", "auxiliary_targets")],
    "geom.generate_anchors": [("graphdet.geom", "generate_anchors")],
    "geom.match_anchors": [("graphdet.geom", "match_anchors")],
    "geom.nms": [("graphdet.geom", "nms")],
    "geom.rotated_iou_bev": [("graphdet.geom", "rotated_iou_bev")],
    "gnn.update_forward": [
        ("graphdet.gnn", "update_extended_forward"),
        ("graphdet.gnn", "update_vanilla_forward"),
    ],
    "gnn.update_backward": [("graphdet.gnn", "update_backward")],
    "gnn.header": [("graphdet.gnn", "header_forward"), ("graphdet.gnn", "header_backward")],
    "gnn.build_graph": [("graphdet.gnn", "build_graph")],
    "nnet.DenseStack.forward": [("graphdet.nnet", "DenseStack.forward")],
    "nnet.DenseStack.backward": [("graphdet.nnet", "DenseStack.backward")],
    "nnet.DenseStack.sgd_step": [("graphdet.nnet", "DenseStack.sgd_step")],
    "nnet.losses": [
        ("graphdet.nnet", name)
        for name in (
            "focal_loss",
            "focal_loss_grad",
            "masked_smooth_l1_mean",
            "masked_smooth_l1_mean_grad",
            "offset_loss",
            "offset_loss_grad",
            "total_loss",
        )
    ],
    "metrics.precision_recall": [("graphdet.metrics", "precision_recall")],
    "metrics.interpolated_ap": [("graphdet.metrics", "interpolated_ap")],
    "pipeline.run_pipeline": [("graphdet.pipeline", "run_pipeline")],
    "pipeline.train_smoke": [("graphdet.pipeline", "train_smoke")],
    "cli.main": [("graphdet.cli", "main")],
}

PEAK_LAYERS = frozenset({"voxel.voxelize", "interp.propagate_features"})

_MB = 1024.0 * 1024.0


def _count_edges(graph) -> float:
    return float(sum(len(neigh) for neigh in graph.adjacency))


def _overlaps(iou) -> float:
    return 1.0 if iou > 0.0 else 0.0


# Counters read off a layer's return value: layer -> (counter suffix, function).
OBSERVERS = {
    "gnn.build_graph": ("edges", _count_edges),
    "geom.rotated_iou_bev": ("overlaps", _overlaps),
}


class Tracer:
    """Aggregates wrapped-call spans per operation kind."""

    def __init__(self, memory: bool = False) -> None:
        self.memory = memory
        self.kind: str | None = None
        self.ops: dict[str, int] = defaultdict(int)
        self.totals: dict[tuple[str, str], float] = defaultdict(float)
        self.peaks: dict[tuple[str, str], float] = defaultdict(float)
        self._open: list[float] = []  # child time of each open span

    @contextmanager
    def operation(self, kind: str):
        """Attribute the wrapped calls made inside the block to one ``kind`` operation."""
        self.kind = kind
        try:
            yield
        finally:
            self.kind = None
            self.ops[kind] += 1

    def per_op(self, kind: str, layer: str, counter: str) -> float:
        """Total ``counter`` ("s", "calls" or an observer's) of ``layer`` per ``kind`` operation."""
        ops = self.ops.get(kind, 0)
        return self.totals.get((kind, f"{layer}.{counter}"), 0.0) / ops if ops else 0.0

    def peak_mb(self, kind: str, layer: str) -> float:
        return self.peaks.get((kind, layer), 0.0) / _MB

    def _wrap(self, layer: str, fn):
        peak = self.memory and layer in PEAK_LAYERS
        observer = OBSERVERS.get(layer)

        def traced(*args, **kwargs):
            kind = self.kind
            if kind is None:
                return fn(*args, **kwargs)
            if peak:
                tracemalloc.start()
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._open.pop()
                if self._open:
                    self._open[-1] += elapsed
                self.totals[kind, f"{layer}.s"] += elapsed - child
                self.totals[kind, f"{layer}.calls"] += 1
                if peak:
                    top = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.peaks[kind, layer] = max(self.peaks[kind, layer], top)
            if observer is not None:
                self.totals[kind, f"{layer}.{observer[0]}"] += observer[1](result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every function in ``LAYERS`` for the duration of the block."""
        saved: list[tuple[object, str, object]] = []
        try:
            for layer, targets in LAYERS.items():
                for module_name, attr in targets:
                    module = importlib.import_module(module_name)
                    if "." in attr:
                        cls_name, meth = attr.split(".")
                        cls = getattr(module, cls_name)
                        orig = cls.__dict__[meth]
                        saved.append((cls, meth, orig))
                        setattr(cls, meth, self._wrap(layer, orig))
                        continue
                    orig = getattr(module, attr)
                    wrapper = self._wrap(layer, orig)
                    for name, mod in list(sys.modules.items()):
                        if (name == "graphdet" or name.startswith("graphdet.")) and getattr(
                            mod, attr, None
                        ) is orig:
                            saved.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

"""The benchmark's per-layer tracer (``bench/tracer.py``) still finds every
function it wraps, so renaming one fails here rather than in a traced
benchmark run (``python3 bench/run.py --trace 1``)."""

import importlib
from pathlib import Path

import numpy as np

from graphdet import rfa, voxel
from graphdet.scene import PointCloud

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _target(module_name, attr):
    """The object a ``LAYERS`` entry names, as its owner holds it."""
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return vars(getattr(module, cls_name))[meth]
    return getattr(module, attr)


def test_every_traced_layer_resolves_and_is_wrapped(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    targets = [t for layer in tracer.LAYERS.values() for t in layer]
    originals = [_target(*t) for t in targets]
    assert all(callable(fn) for fn in originals)

    with tracer.Tracer().installed() as traced:
        assert all(_target(*t) is not fn for t, fn in zip(targets, originals))
        cloud = PointCloud(np.array([[0.1, 0.1, 0.1, 0.5], [0.9, 0.9, 0.9, 0.2]]))
        config = voxel.VoxelizationConfig(
            step=(0.5, 0.5, 0.5), range_bounds=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
        )
        with traced.operation("pipeline"):
            rfa.voxel_feature_set(voxel.voxelize(cloud, config), dim=2, seed=0)
    assert traced.per_op("pipeline", "voxel.voxelize", "calls") == 1
    assert traced.per_op("pipeline", "rfa.voxel_feature_set", "calls") == 1
    assert all(_target(*t) is fn for t, fn in zip(targets, originals))

"""Point-cloud 3D detection toolkit with graph-based proposal refinement.

The package covers the full desk-scale loop: synthetic scenes, sparse
voxelization, rotated-box geometry, point-pyramid region features, a
hand-differentiated graph refinement stage, detection losses, and
KITTI/nuScenes-style evaluation.  Everything is numpy-only and seeded.
"""

from .geom import (
    AnchorConfig,
    Box3D,
    decode_boxes,
    encode_boxes,
    generate_anchors,
    iou_3d,
    match_anchors,
    nms,
    rotated_iou_bev,
)
from .gnn import (
    GraphUpdater,
    NeighborhoodGraph,
    build_graph,
    refine_proposals,
    update,
)
from .interp import (
    BevFeatureMap,
    FeatureSet,
    farthest_point_sample,
    propagate_features,
    sample_bev_grid,
    sample_bev_point,
    set_abstraction,
)
from .metrics import (
    BevIouMatcher,
    CenterDistanceMatcher,
    ErrorBundle,
    RecallSchedule,
    interpolated_ap,
    mean_ap_distance,
    nds,
    precision_recall,
)
from .nnet import DenseStack, LossConfig, focal_loss, total_loss
from .pipeline import (
    ConfigError,
    PipelineConfig,
    TrainingDivergedError,
    load_pipeline_config,
    run_pipeline,
    train_smoke,
)
from .rfa import RfaConfig
from .scene import (
    KITTI_RANGE,
    BoxArray,
    PointCloud,
    Scene,
    clip_to_range,
    generate_synthetic_scene,
    read_detections,
    write_detections,
)
from .voxel import SparseVoxelGrid, VoxelizationConfig, voxelize

__version__ = "0.1.0"

__all__ = [
    "AnchorConfig",
    "BevFeatureMap",
    "BevIouMatcher",
    "Box3D",
    "BoxArray",
    "CenterDistanceMatcher",
    "ConfigError",
    "DenseStack",
    "ErrorBundle",
    "FeatureSet",
    "GraphUpdater",
    "KITTI_RANGE",
    "LossConfig",
    "NeighborhoodGraph",
    "PipelineConfig",
    "PointCloud",
    "RecallSchedule",
    "RfaConfig",
    "Scene",
    "SparseVoxelGrid",
    "TrainingDivergedError",
    "VoxelizationConfig",
    "build_graph",
    "clip_to_range",
    "decode_boxes",
    "encode_boxes",
    "farthest_point_sample",
    "focal_loss",
    "generate_anchors",
    "generate_synthetic_scene",
    "interpolated_ap",
    "iou_3d",
    "load_pipeline_config",
    "match_anchors",
    "mean_ap_distance",
    "nds",
    "nms",
    "precision_recall",
    "propagate_features",
    "read_detections",
    "refine_proposals",
    "rotated_iou_bev",
    "run_pipeline",
    "sample_bev_grid",
    "sample_bev_point",
    "set_abstraction",
    "total_loss",
    "train_smoke",
    "update",
    "voxelize",
    "write_detections",
]

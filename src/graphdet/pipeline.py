"""End-to-end desk pipeline: synthetic scene through refined detections.

The pipeline wires every stage together at a size that runs in seconds:
a seeded synthetic scene is generated, proposals are ground-truth boxes
under seeded noise (standing in for a region proposal stage), region
feature aggregation reads node states from a seeded, frozen point pyramid
over the scene's cloud, the graph refiner and its header produce scored
boxes, suppression and metrics close the loop.  Training is plain
gradient descent on the refinement loss against a fixed synthetic batch:
the header's focal loss over the proposals plus its smooth-L1 over the
foreground proposals' box residuals.  The refiner
(graph updater and header) is the only trained model, because it is the
only one a detection reads.  A step is one pass over the batch's proposal
graphs joined into one, with no edge between scenes; the batch loss is
the sum of the scenes' losses, each with its own normaliser.

The headline ``ap_*`` keys are scored on the first training scene, so
they show what refinement adds on the batch it descended on.  The
``holdout_*`` keys are scored on a held-out scene drawn from a different
seed, and measure how the refinement stacks generalise.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, NamedTuple

import numpy as np

from .geom import encode_boxes, nms, pairwise_bev_iou
from .gnn import (
    GraphUpdater,
    NeighborhoodGraph,
    _check_header,
    _check_update,
    _header_backward,
    _header_forward,
    _update_forward,
    build_graph,
    header_stacks,
    join_graphs,
    refine_proposals,
    update,
    update_backward,
)
from .metrics import BevIouMatcher, RecallSchedule, interpolated_ap, precision_recall
from .nnet import (
    DenseStack,
    LayerGrads,
    LossConfig,
    _product_for,
    bind_flat_params,
    focal_loss_and_grad,
    masked_smooth_l1_mean_and_grad,
)
from .rfa import RfaConfig, default_point_stacks, point_pyramid, roi_states
from .scene import (
    KITTI_RANGE,
    BoxArray,
    RangeBounds,
    Scene,
    clip_to_range,
    generate_synthetic_scene,
    normalize_yaw,
)

# Seed offsets separating the pipeline's random streams.  Training scenes
# stride by _SCENE_STRIDE; the held-out scene deliberately lies outside
# that family so holdout_* AP measures transfer, not recall of the batch.
_PROPOSAL_OFFSET = 11
_MODEL_OFFSET = 211
_SCENE_STRIDE = 101
_EVAL_SCENE_OFFSET = 7919
_EVAL_PROPOSAL_OFFSET = 7930
_POINT_STACK_OFFSET = 2
# Training fails once a step's loss exceeds this multiple of the initial
# loss.  The default runs on seeds 0-11 peak at 1.7 times it; a learning
# rate that blows the loss up to 1e7 or beyond (seed 4 at 0.4) meets it.
_DIVERGENCE_FACTOR = 100.0


class ConfigError(ValueError):
    """Raised for malformed or inconsistent pipeline configuration."""


class TrainingDivergedError(ValueError):
    """Raised when the refinement loss stops being finite during training,
    or grows past ``_DIVERGENCE_FACTOR`` times its initial value."""


@dataclass(frozen=True)
class SceneConfig:
    n_objects: int = 4
    points_per_object: int = 160
    clutter_points: int = 80
    min_separation: float = 7.0

    def __post_init__(self) -> None:
        if self.n_objects < 0 or self.points_per_object < 0 or self.clutter_points < 0:
            raise ConfigError("scene sizes must be non-negative")
        if self.min_separation <= 0:
            raise ConfigError("min_separation must be positive")


@dataclass(frozen=True)
class GnnPipelineConfig:
    depth: int = 3
    radius: float = 2.0
    hidden_dim: int = 16
    variant: str = "extended"
    header_hidden: int = 8
    header_init: str = "random"

    def __post_init__(self) -> None:
        if not 0 <= self.depth <= 5:
            raise ConfigError("gnn depth must lie in 0..5")
        if self.radius <= 0:
            raise ConfigError("gnn radius must be positive")
        if self.hidden_dim < 1 or self.header_hidden < 1:
            raise ConfigError("gnn widths must be positive")
        if self.variant not in ("extended", "vanilla"):
            raise ConfigError(f"unknown gnn variant {self.variant!r}")
        if self.header_init not in ("random", "zero"):
            raise ConfigError(f"unknown header_init {self.header_init!r}")


@dataclass(frozen=True)
class ProposalConfig:
    per_gt: int = 8
    center_noise: float = 0.3
    yaw_noise: float = 0.1
    pos_iou: float = 0.7

    def __post_init__(self) -> None:
        if self.per_gt < 1:
            raise ConfigError("per_gt must be at least one")
        if self.center_noise < 0 or self.yaw_noise < 0:
            raise ConfigError("proposal noise must be non-negative")
        if not 0.0 < self.pos_iou <= 1.0:
            raise ConfigError("proposal pos_iou must lie in (0, 1]")


@dataclass(frozen=True)
class NmsPipelineConfig:
    iou_threshold: float = 0.1
    score_threshold: float = 0.3

    def __post_init__(self) -> None:
        if not 0.0 <= self.iou_threshold <= 1.0:
            raise ConfigError("nms iou_threshold must lie in [0, 1]")
        if not 0.0 <= self.score_threshold <= 1.0:
            raise ConfigError("nms score_threshold must lie in [0, 1]")


@dataclass(frozen=True)
class TrainPipelineConfig:
    steps: int = 500
    learning_rate: float = 0.2
    batch_scenes: int = 1

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ConfigError("train steps must be non-negative")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be non-negative")
        if self.batch_scenes < 1:
            raise ConfigError("batch_scenes must be at least one")


@dataclass(frozen=True)
class EvalConfig:
    ap_iou: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 < self.ap_iou <= 1.0:
            raise ConfigError("ap_iou must lie in (0, 1]")


@dataclass(frozen=True)
class PipelineConfig:
    """Every knob of the desk pipeline, validated on construction."""

    seed: int = 0
    feature_seed: int = 1234
    range_bounds: RangeBounds = KITTI_RANGE
    scene: SceneConfig = field(default_factory=SceneConfig)
    rfa: RfaConfig = field(
        default_factory=lambda: RfaConfig(keypoint_counts=(64, 16, 8))
    )
    point_hidden: int = 16
    gnn: GnnPipelineConfig = field(default_factory=GnnPipelineConfig)
    proposals: ProposalConfig = field(default_factory=ProposalConfig)
    nms: NmsPipelineConfig = field(default_factory=NmsPipelineConfig)
    loss: LossConfig = field(default_factory=LossConfig)
    train: TrainPipelineConfig = field(default_factory=TrainPipelineConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self) -> None:
        if not all(isinstance(s, (int, np.integer)) for s in (self.seed, self.feature_seed)):
            raise ConfigError("seed and feature_seed must be integers")
        if self.point_hidden < 1:
            raise ConfigError("point_hidden must be positive")
        if self.rfa.point_dim % 2 != 0:
            raise ConfigError("rfa point_dim must be even (two grouping radii)")

    @property
    def state_dim(self) -> int:
        return self.rfa.point_dim


# ---------------------------------------------------------------------------
# Configuration files
# ---------------------------------------------------------------------------

def _to_json(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_to_json(v) for v in value]
    return value


def _section_to_dict(section: Any) -> dict[str, Any]:
    """One sub-config's file section: its fields."""
    return {f.name: _to_json(getattr(section, f.name)) for f in fields(section)}


def _file_key(field_name: str) -> str:
    """The file key of a top-level field: ``range_bounds`` is spelled ``range``."""
    return "range" if field_name == "range_bounds" else field_name


def config_to_dict(config: PipelineConfig) -> dict[str, Any]:
    """The JSON-serialisable mirror of a config (round-trips through parse)."""
    out: dict[str, Any] = {}
    for f in fields(config):
        value = getattr(config, f.name)
        key = _file_key(f.name)
        out[key] = _section_to_dict(value) if is_dataclass(value) else _to_json(value)
    return out


def _coerce(name: str, default: Any, value: Any) -> Any:
    """File value ``name`` read as the type of the field's default.

    Lists become tuples element by element; ``None`` passes through.  A
    bool fits only a bool field, NaN or an infinity fits none, and a
    non-integral number fits no int field (``2.0`` does, ``2.7`` does not).
    """
    if isinstance(default, tuple):
        item = default[0] if default else None
        return tuple(_coerce(name, item, v) for v in value)
    if value is None or default is None or isinstance(default, bool):
        return value
    if _not_a_number(value) or _not_a_number(out := type(default)(value)):
        kind = "a finite number" if isinstance(default, (int, float)) else f"a {type(default).__name__}"
        raise ConfigError(f"config key {name!r} must be {kind}, got {value!r}")
    if isinstance(value, float) and out != value:
        raise ConfigError(f"config key {name!r} must be an integer, got {value!r}")
    return out


def _not_a_number(value: Any) -> bool:
    """True for a bool or a NaN/infinite float: values no config number may take."""
    return isinstance(value, bool) or (isinstance(value, float) and not math.isfinite(value))


def _parse_section(name: str, default: Any, raw: dict[str, Any]) -> Any:
    """Merge file section ``name`` over the pipeline's default sub-config."""
    return replace(
        default, **{k: _coerce(f"{name}.{k}", getattr(default, k), v) for k, v in raw.items()}
    )


def parse_pipeline_config(raw: dict[str, Any]) -> PipelineConfig:
    """Build a validated config from a plain dict (e.g. parsed JSON).

    Every key must be known; sections and keys left out, also inside a
    section, fall back to the :class:`PipelineConfig` defaults.  Values
    are converted to the type of the default they replace.  Inconsistent
    values raise :class:`ConfigError`.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config root must be an object")
    defaults = PipelineConfig()
    known = config_to_dict(defaults)
    for key, value in raw.items():
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(known[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config section {key!r} must be an object")
            for sub in value:
                if sub not in known[key]:
                    raise ConfigError(f"unknown config key {key!r}.{sub!r}")

    try:
        kwargs: dict[str, Any] = {}
        for f in fields(defaults):
            key = _file_key(f.name)
            if key in raw:
                default = getattr(defaults, f.name)
                parse = _parse_section if is_dataclass(default) else _coerce
                kwargs[f.name] = parse(key, default, raw[key])
        return PipelineConfig(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_pipeline_config(path: str) -> PipelineConfig:
    """Read and validate a JSON pipeline config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return parse_pipeline_config(raw)


# ---------------------------------------------------------------------------
# World assembly
# ---------------------------------------------------------------------------


class _WorldRows(NamedTuple):
    """One non-empty world's rows of the batch, and its loss selections."""

    rows: slice  # the world's rows [lo, hi) of the joined graph
    fg: np.ndarray  # foreground rows, counted from lo; their count is the loss normaliser
    bg: np.ndarray  # background rows, counted from lo
    fg_targets: np.ndarray  # (len(fg), 7) encoded boxes of the foreground rows


@dataclass
class _Targets:
    """The training batch's refinement targets, its worlds' rows stacked.

    ``worlds`` holds, for each non-empty world in order, what its loss
    terms select on every step: the foreground and background row
    indices and the foreground rows' box targets.  They depend only on
    the targets, so they are derived once, here.
    """

    prop_fg: np.ndarray  # (n_proposals,) proposals matching a ground-truth box
    prop_reg_targets: np.ndarray  # (n_proposals, 7) encoded boxes; zero rows off the foreground
    bounds: list[tuple[int, int]]  # each world's row range [lo, hi)
    worlds: list[_WorldRows] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.worlds = []
        for lo, hi in self.bounds:
            if lo == hi:
                continue
            fg = np.flatnonzero(self.prop_fg[lo:hi])
            bg = np.flatnonzero(~self.prop_fg[lo:hi])
            self.worlds.append(_WorldRows(slice(lo, hi), fg, bg, self.prop_reg_targets[lo + fg]))


@dataclass
class _World:
    """One materialised scene."""

    scene: Scene
    graph: NeighborhoodGraph  # one node per proposal; empty when there are none


def _make_proposals(config: PipelineConfig, scene: Scene, seed: int) -> BoxArray:
    """``per_gt`` noisy copies of each ground-truth box, box after box:
    one normal draw of (dx, dy, dz, dyaw) rows, with deviations
    ``center_noise``, 0.3 of it for z, and ``yaw_noise``."""
    gt = BoxArray.of(scene.gt_boxes)
    per_gt = config.proposals.per_gt
    sigma = config.proposals.center_noise
    noise = np.random.default_rng(seed).normal(
        0.0, [sigma, sigma, 0.3 * sigma, config.proposals.yaw_noise], size=(len(gt) * per_gt, 4)
    )
    params = np.repeat(gt.params, per_gt, axis=0)
    params[:, :3] += noise[:, :3]
    params[:, 6] = normalize_yaw(params[:, 6] + noise[:, 3])
    return BoxArray(params, np.full(len(params), math.nan), np.repeat(gt.class_ids, per_gt))


def _build_world(config: PipelineConfig, scene_seed: int, proposal_seed: int) -> _World:
    """The scene, its features and its proposal graph: all that detection
    and scoring read.  :func:`_training_targets` adds what training reads.

    Set abstraction groups by a cell-hash ball query.  A KITTI-sized world
    (20k in-range points, 80 proposals) builds in 0.021-0.025 s with a
    3.2 MB tracemalloc peak on a shared 2-core x86 machine.
    """
    scene = clip_to_range(
        generate_synthetic_scene(
            scene_seed,
            config.scene.n_objects,
            config.scene.points_per_object,
            config.scene.clutter_points,
            range_bounds=config.range_bounds,
            min_separation=config.scene.min_separation,
        )
    )
    cloud = scene.cloud
    proposals = _make_proposals(config, scene, proposal_seed)
    if len(proposals) and len(cloud):
        stacks = default_point_stacks(
            config.rfa,
            config.feature_seed + _POINT_STACK_OFFSET,
            hidden=config.point_hidden,
        )
        pyramid = point_pyramid(cloud, config.rfa, stacks)
        states = roi_states(pyramid, proposals)
    else:
        proposals, states = proposals.take([]), np.empty((0, config.state_dim))
    graph = build_graph(proposals, states, config.gnn.radius)
    return _World(scene=scene, graph=graph)


def _training_targets(config: PipelineConfig, world: _World) -> tuple[np.ndarray, np.ndarray]:
    """Each proposal's refinement target: the ground-truth box of best BEV
    IoU (lowest index on ties), if that IoU is positive and reaches
    ``proposals.pos_iou``.  Returns the (n,) foreground mask and the (n, 7)
    encoded targets, zero off the foreground.

    The IoUs come from one :func:`graphdet.geom.pairwise_bev_iou` call,
    which computes only the pairs whose footprints can reach: the others
    have IoU 0, so they can never be the accepted best.
    """
    proposals = world.graph.boxes
    gt_boxes = BoxArray.of(world.scene.gt_boxes)
    prop_fg = np.zeros(len(proposals), dtype=bool)
    prop_reg_targets = np.zeros((len(proposals), 7))
    if len(proposals) and len(gt_boxes):
        iou = pairwise_bev_iou(proposals, gt_boxes)
        best_g = iou.argmax(axis=1)  # ties -> lower gt index
        best_iou = iou[np.arange(len(proposals)), best_g]
        prop_fg = (best_iou > 0.0) & (best_iou >= config.proposals.pos_iou)
        fg = np.flatnonzero(prop_fg)
        prop_reg_targets[fg] = encode_boxes(gt_boxes.take(best_g[fg]), proposals.take(fg))
    return prop_fg, prop_reg_targets


# ---------------------------------------------------------------------------
# Models and training
# ---------------------------------------------------------------------------


@dataclass
class PipelineModels:
    """The trainable stacks of the desk pipeline: the graph updater and the
    detection header's classification and regression stacks."""

    updater: GraphUpdater
    cls_stack: DenseStack
    reg_stack: DenseStack

    @property
    def stacks(self) -> list[DenseStack]:
        """Every stack, in the order of :func:`_evaluate`'s gradients: the
        updater's (:attr:`GraphUpdater.stacks`), then the header's two."""
        return [*self.updater.stacks, self.cls_stack, self.reg_stack]


def init_models(config: PipelineConfig) -> PipelineModels:
    """Seeded (or zeroed, per ``header_init``) model stacks."""
    f = config.state_dim
    child = np.random.SeedSequence(config.seed + _MODEL_OFFSET).generate_state(3)
    extended = config.gnn.variant == "extended"
    updater = GraphUpdater.seeded(
        f, config.gnn.hidden_dim, config.gnn.depth, int(child[0]), extended=extended
    )
    seeds = None if config.gnn.header_init == "zero" else (int(child[1]), int(child[2]))
    return PipelineModels(updater, *header_stacks(f, config.gnn.header_hidden, seeds))


def _evaluate(
    models: PipelineModels,
    graph: NeighborhoodGraph,
    targets: _Targets,
    config: PipelineConfig,
    want_grads: bool,
    product: Callable,
) -> tuple[float, list[list[LayerGrads]] | None]:
    """Refinement loss of the batch and, if wanted, its gradients: one
    pass over the joined graph, with per-world normalisers.

    A world's loss is the header's focal loss over its rows plus its
    smooth-L1 over its foreground rows' box residuals, each term and its
    gradient from one fused call (:func:`~graphdet.nnet.focal_loss_and_grad`,
    :func:`~graphdet.nnet.masked_smooth_l1_mean_and_grad`) on the row
    selections ``targets`` derived once; the batch loss is their sum in
    world order.  An empty world adds nothing.  The gradients are one
    per stack, in :attr:`PipelineModels.stacks` order, and every call
    returns new arrays: no later call overwrites them.

    The update and the header run as kernels with ``product`` as their
    matrix product: the models must have passed the checks that
    :func:`_train_models` runs once.
    """
    cfg_loss = config.loss
    beta = cfg_loss.smooth_l1_beta
    updater = models.updater
    extended = updater.align_stacks is not None
    refined, ucache = _update_forward(graph, updater, extended, product)
    scores, residuals, hcache = _header_forward(
        refined, models.cls_stack, models.reg_stack, product
    )
    dscores, dres = np.zeros(scores.shape), np.zeros(residuals.shape)
    loss = 0.0
    for rows, fg, bg, fg_targets in targets.worlds:
        focal, d_focal = focal_loss_and_grad(scores[rows], fg, bg, cfg_loss, want_grads)
        box, d_box = masked_smooth_l1_mean_and_grad(
            residuals[rows], fg, fg_targets, beta, want_grads
        )
        loss += focal + box
        if want_grads:
            dscores[rows], dres[rows] = d_focal, d_box
    if not want_grads:
        return loss, None
    cls_grads, reg_grads, dz = _header_backward(
        hcache, models.cls_stack, models.reg_stack, dscores, dres, product
    )
    updater_grads, _ = update_backward(ucache, dz, want_state_grad=False)
    return loss, [*updater_grads, cls_grads, reg_grads]


def _training_worlds(config: PipelineConfig) -> tuple[list[_World], NeighborhoodGraph, _Targets]:
    """The batch's worlds, their proposal graphs joined into one (with no
    edge between worlds) and the targets of the joined rows."""
    worlds = [
        _build_world(
            config,
            config.seed + _SCENE_STRIDE * j,
            config.seed + _SCENE_STRIDE * j + _PROPOSAL_OFFSET,
        )
        for j in range(config.train.batch_scenes)
    ]
    fgs, regs = zip(*(_training_targets(config, world) for world in worlds))
    ends = np.cumsum([len(fg) for fg in fgs]).tolist()
    targets = _Targets(np.concatenate(fgs), np.concatenate(regs), list(zip([0] + ends, ends)))
    return worlds, join_graphs([world.graph for world in worlds]), targets


def _train_models(
    config: PipelineConfig, steps: int
) -> tuple[PipelineModels, list[float], _World]:
    """Train on the batch, one :func:`_evaluate` pass per step; also
    returns the first training world, which is the pipeline's main scene
    (training never mutates a world).

    The run binds every weight and bias of :attr:`PipelineModels.stacks`
    as a view of one parameter vector
    (:func:`~graphdet.nnet.bind_flat_params`), so a step's descent is one
    ``params -= lr * gradient`` over the step's gradient list flattened
    in the same order: one ``concatenate``, scaled by ``lr`` in place and
    subtracted, which is ``w - lr * dw`` entry by entry.  A step asks
    :func:`~graphdet.gnn.update_backward` for the stacks' gradients only,
    not the initial states' one, which no step reads.  Each run binds a
    new vector: models from two runs share no memory.

    The models are checked against the joined graph once, with the checks
    :func:`~graphdet.gnn.update` and :func:`~graphdet.gnn.header_forward`
    run on every call (the updater's widths, the header's widths, the
    state width), and the matrix product is picked once
    (:func:`~graphdet.nnet._product_for`); each step then runs the update
    and header kernels unchecked.  A step multiplies only contiguous
    arrays: the graph's states, arrays the step makes, and weights bound
    to the parameter vector.

    Raises :class:`TrainingDivergedError` as soon as the refinement loss
    ``l_gnn`` is not finite, or exceeds ``_DIVERGENCE_FACTOR`` times a
    positive initial loss.  If the previous step's gradients were already
    non-finite, the error names that step and the first such stack;
    otherwise it names this step, the loss term and the initial loss.
    Only the previous step's gradient list is kept, and it is read only
    then.
    """
    worlds, graph, targets = _training_worlds(config)
    models = init_models(config)
    _check_update(graph, models.updater, models.updater.align_stacks is not None)
    _check_header(graph.states, models.cls_stack, models.reg_stack)
    params = bind_flat_params(models.stacks)
    product = _product_for(len(graph), models.stacks)
    lr = config.train.learning_rate / len(worlds)
    history, last_grads = [], []
    for step in range(steps + 1):
        # The loss after the last step is only recorded, never descended.
        loss, grads = _evaluate(models, graph, targets, config, step < steps, product)
        if step == 0:
            initial = loss
        if not math.isfinite(loss) or (initial > 0 and loss > _DIVERGENCE_FACTOR * initial):
            raise TrainingDivergedError(_divergence(step, loss, initial, last_grads))
        history.append(loss / len(worlds))
        if grads is not None:
            flat = np.concatenate(
                [a for stack_grads in grads for pair in stack_grads for a in pair], axis=None
            )
            flat *= lr
            params -= flat
            last_grads = grads
    return models, history, worlds[0]


def _divergence(step: int, loss: float, initial: float, last_grads: list[list[LayerGrads]]) -> str:
    """The message for a non-finite or outgrown loss at ``step``, after a
    descent on ``last_grads`` (empty at step 0) from an ``initial`` loss."""
    for i, grads in enumerate(last_grads):
        if not all(np.isfinite(a).all() for layer in grads for a in layer):
            return (
                f"training diverged at step {step - 1}: the gradient of stack {i} "
                f"(of PipelineModels.stacks) is not finite, so loss term l_gnn is {loss}"
            )
    message = f"training diverged at step {step}: loss term l_gnn is {loss}"
    if step > 0:
        message += f", against an initial loss of {initial}"
    return message


def train_smoke(config: PipelineConfig, steps: int | None = None) -> list[float]:
    """Plain gradient descent on the refinement loss over one fixed batch.

    The refinement loss is the detection header's focal loss plus its box
    smooth-L1, each world's with its own normaliser, summed over the
    batch's worlds and divided by their count; a step is one pass over the
    worlds' joined proposal graph.  Returns it before training and after
    every step, so the history has ``steps + 1`` entries.  Zero steps report only the initial loss; a
    zero learning rate leaves the history constant.
    """
    if steps is None:
        steps = config.train.steps
    if steps < 0:
        raise ConfigError("steps must be non-negative")
    _, history, _ = _train_models(config, steps)
    return history


def detect(
    models: PipelineModels, world: _World, config: PipelineConfig
) -> BoxArray:
    """Refine the world's proposals and suppress duplicates; the proposals
    stay one :class:`~graphdet.scene.BoxArray` from drawing to NMS (an
    empty graph gives an empty one)."""
    refined, _ = update(world.graph, models.updater)
    boxes = refine_proposals(world.graph, refined, models.cls_stack, models.reg_stack)
    return nms(boxes, config.nms.iou_threshold, config.nms.score_threshold)


def _score_world(
    models: PipelineModels, world: _World, config: PipelineConfig
) -> tuple[BoxArray, dict[str, Any]]:
    """Detect and score one world.  ``empty_stage`` names the first stage
    that came up empty ("points" in range, "proposals", "detections"), or
    is None, so that an AP of zero from an empty input says why."""
    detections = detect(models, world, config)
    gts = list(world.scene.gt_boxes)
    curve = precision_recall(detections, gts, BevIouMatcher(config.eval.ap_iou))
    counts = {
        "points": len(world.scene.cloud),
        "proposals": len(world.graph),
        "detections": len(detections),
    }
    return detections, {
        "ap_s11": interpolated_ap(curve, RecallSchedule.s11()),
        "ap_s40": interpolated_ap(curve, RecallSchedule.s40()),
        "n_detections": len(detections),
        "n_gt": len(gts),
        "n_proposals": len(world.graph),
        "empty_stage": next((stage for stage, n in counts.items() if n == 0), None),
    }


def run_pipeline(config: PipelineConfig) -> tuple[BoxArray, dict[str, Any]]:
    """Train (optionally), detect, and score the result.

    The headline AP is measured on the first training scene — the fixed
    batch the smoke-test losses descend on — so the K>0 versus K=0
    comparison isolates what refinement adds.  A held-out scene (fresh
    seed for both scene and proposal noise) is scored alongside under
    ``holdout_*`` keys; each scene's ``empty_stage`` names the first stage
    that came up empty, or is None.  When ``train.steps`` is zero the
    stacks keep their initial weights, which with ``header_init="zero"``
    makes the refiner an exact passthrough.
    """
    if config.train.steps > 0:
        models, history, world_main = _train_models(config, config.train.steps)
    else:
        models = init_models(config)
        history = []
        world_main = _build_world(config, config.seed, config.seed + _PROPOSAL_OFFSET)
    detections, scores = _score_world(models, world_main, config)
    world_holdout = _build_world(
        config,
        config.seed + _EVAL_SCENE_OFFSET,
        config.seed + _EVAL_PROPOSAL_OFFSET,
    )
    _, holdout_scores = _score_world(models, world_holdout, config)

    report: dict[str, Any] = {"ap_iou": config.eval.ap_iou, **scores}
    report.update({f"holdout_{key}": value for key, value in holdout_scores.items()})
    report["loss_history"] = history
    if history:
        report["loss_first"] = history[0]
        report["loss_final"] = history[-1]
    return detections, report

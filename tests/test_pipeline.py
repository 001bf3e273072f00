"""End-to-end pipeline: configuration files, training smoke runs, scoring."""

import json
import math
import re
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphdet import geom, pipeline
from graphdet.gnn import GraphUpdater, header_forward, update, update_backward
from graphdet.nnet import (
    DenseStack,
    LossConfig,
    _product_for,
    focal_loss,
    masked_smooth_l1_mean,
)
from graphdet.pipeline import (
    ConfigError,
    EvalConfig,
    GnnPipelineConfig,
    NmsPipelineConfig,
    PipelineConfig,
    ProposalConfig,
    SceneConfig,
    TrainingDivergedError,
    TrainPipelineConfig,
    config_to_dict,
    load_pipeline_config,
    parse_pipeline_config,
    run_pipeline,
    train_smoke,
)
from graphdet.rfa import RfaConfig
from graphdet.scene import Box3D, BoxArray, generate_synthetic_scene

from oracles import (
    loop_batch_evaluate,
    loop_batch_targets,
    loop_make_proposals,
    loop_rotated_iou_bev,
    loop_train_models,
    loop_training_targets,
    loop_update_backward,
    separate_loss_evaluate,
)


def tiny_raw(**overrides):
    """A small, fast pipeline description; sections merge over these."""
    raw = {
        "scene": {"n_objects": 2, "points_per_object": 48, "clutter_points": 24},
        "rfa": {
            "keypoint_counts": [24, 12, 6],
            "radii": [[0.4, 0.8], [0.8, 1.6], [1.6, 3.2]],
        },
        "train": {"steps": 0},
    }
    for key, value in overrides.items():
        if key in raw and isinstance(value, dict):
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw


def tiny_config(**overrides):
    return parse_pipeline_config(tiny_raw(**overrides))


# ---------------------------------------------------------------------------
# configuration


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_default_config_and_state_dim():
    config = PipelineConfig()
    assert config.state_dim == config.rfa.point_dim == 8
    assert config.gnn.depth == 3
    assert config.gnn.alignment is True
    assert config.proposals.pos_iou == 0.7


def test_sub_config_validation():
    with pytest.raises(ConfigError):
        SceneConfig(n_objects=-1)
    with pytest.raises(ConfigError):
        GnnPipelineConfig(depth=6)
    with pytest.raises(ConfigError):
        ProposalConfig(per_gt=0)
    with pytest.raises(ConfigError):
        NmsPipelineConfig(iou_threshold=1.5)
    with pytest.raises(ConfigError):
        TrainPipelineConfig(steps=-1)
    with pytest.raises(ConfigError):
        EvalConfig(ap_iou=0.0)


def test_parse_empty_dict_gives_defaults():
    assert parse_pipeline_config({}) == PipelineConfig()


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key 'turbo'"):
        parse_pipeline_config({"turbo": True})
    with pytest.raises(ConfigError, match="'proposals'.'jitter'"):
        parse_pipeline_config({"proposals": {"jitter": 1.0}})
    with pytest.raises(ConfigError, match="must be an object"):
        parse_pipeline_config({"gnn": 3})
    with pytest.raises(ConfigError, match="root"):
        parse_pipeline_config([1, 2])
    # Node states read the point pyramid alone: no key sizes a voxel or
    # BEV field.
    for raw, key in [
        ({"bev_cell_size": 0.4}, "'bev_cell_size'"),
        ({"voxel": {"step": [0.4, 0.4, 0.4]}}, "'voxel'"),
        ({"rfa": {"m1": 2}}, "'rfa'.'m1'"),
        ({"rfa": {"m2": 2}}, "'rfa'.'m2'"),
        ({"rfa": {"voxel_dim": 8}}, "'rfa'.'voxel_dim'"),
    ]:
        with pytest.raises(ConfigError, match=f"unknown config key {key}$"):
            parse_pipeline_config(raw)


def test_parse_surfaces_invalid_values_as_config_errors():
    with pytest.raises(ConfigError):
        parse_pipeline_config({"gnn": {"depth": 9}})
    with pytest.raises(ConfigError):
        parse_pipeline_config({"point_hidden": 0})


def test_config_dict_round_trip():
    config = tiny_config(seed=7, gnn={"depth": 2, "hidden_dim": 12})
    mirrored = parse_pipeline_config(config_to_dict(config))
    assert mirrored == config
    assert config_to_dict(mirrored) == config_to_dict(config)


def test_partial_section_keeps_the_pipeline_defaults():
    config = parse_pipeline_config({"rfa": {"point_dim": 4}})
    assert config.rfa.keypoint_counts == (64, 16, 8)
    assert config.rfa == replace(PipelineConfig().rfa, point_dim=4)


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"range_bounds": [[0, 1], [0, 1], [0, 1]]}, "'range_bounds'"),
        ({"rfa": {"range_bounds": [[0, 1], [0, 1], [0, 1]]}}, "'rfa'.'range_bounds'"),
    ],
)
def test_field_names_the_file_spells_differently_are_unknown_keys(raw, key):
    with pytest.raises(ConfigError, match=f"unknown config key {key}"):
        parse_pipeline_config(raw)


def test_anchors_section_is_an_unknown_key():
    # No trained model reads anchors, so the config has no anchor section.
    with pytest.raises(ConfigError, match="unknown config key 'anchors'"):
        parse_pipeline_config({"anchors": {"rows": 16, "cols": 16}})


def test_file_keys_mirror_the_dataclass_fields():
    # One departure only: the top-level range_bounds is spelled "range".
    config = PipelineConfig()
    known = config_to_dict(config)
    renamed = {"range_bounds": "range"}
    assert list(known) == [renamed.get(f.name, f.name) for f in fields(config)]
    for f in fields(config):
        section = getattr(config, f.name)
        if is_dataclass(section):
            assert list(known[f.name]) == [g.name for g in fields(section)], f.name


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"train": {"learning_rate": NaN}}', "train.learning_rate"),
        ('{"gnn": {"radius": NaN}}', "gnn.radius"),
        ('{"scene": {"min_separation": -Infinity}}', "scene.min_separation"),
        ('{"gnn": {"radius": Infinity}}', "gnn.radius"),
        ('{"gnn": {"depth": NaN}}', "gnn.depth"),
        ('{"seed": 1e999}', "seed"),
        ('{"range": [[0, NaN], [-40, 40], [-3, 1]]}', "range"),
        ('{"train": {"learning_rate": "nan"}}', "train.learning_rate"),
        ('{"eval": {"ap_iou": true}}', "eval.ap_iou"),
        ('{"seed": true}', "seed"),
        ('{"rfa": {"keypoint_counts": [64, false, 8]}}', "rfa.keypoint_counts"),
    ],
)
def test_non_finite_numbers_and_bools_name_their_key(text, key):
    with pytest.raises(ConfigError, match=f"config key '{key}' must be a finite number"):
        parse_pipeline_config(json.loads(text))


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"train": {"steps": 2.7}}, "train.steps"),
        ({"scene": {"n_objects": 2.5}}, "scene.n_objects"),
        ({"rfa": {"keypoint_counts": [64, 16.5, 8]}}, "rfa.keypoint_counts"),
        ({"seed": -0.5}, "seed"),
    ],
)
def test_non_integral_numbers_for_int_fields_name_their_key(raw, key):
    with pytest.raises(ConfigError, match=f"config key '{key}' must be an integer, got"):
        parse_pipeline_config(raw)


BOOL_KEYS = [("loss", "focal_background"), ("gnn", "alignment")]


def test_bool_fields_still_take_bools():
    for section, key in BOOL_KEYS:
        for flag in (True, False):
            config = parse_pipeline_config({section: {key: flag}})
            assert getattr(getattr(config, section), key) is flag


@pytest.mark.parametrize("section, key", BOOL_KEYS)
@pytest.mark.parametrize("value", ["false", "true", 0, 1, "no", None, [1], 0.0, {}])
def test_bool_fields_take_nothing_but_bools(section, key, value):
    # "false" is a truthy string: read as is, it would keep the term on.
    want = f"config key '{section}.{key}' must be a bool, got {value!r}"
    with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
        parse_pipeline_config({section: {key: value}})


NOT_BOOLS = ["false", "true", 0, 1, None, 0.0, np.True_]


@pytest.mark.parametrize("value", NOT_BOOLS)
def test_constructed_bool_fields_take_nothing_but_bools(value):
    # "false" is truthy: kept as is, it would build the alignment stacks.
    with pytest.raises(ConfigError, match=f"^gnn alignment must be a bool, got {re.escape(repr(value))}$"):
        PipelineConfig(gnn=GnnPipelineConfig(alignment=value))
    with pytest.raises(ValueError, match=f"^focal_background must be a bool, got {re.escape(repr(value))}$"):
        LossConfig(focal_background=value)


def test_negative_seeds_are_refused_naming_the_key(tmp_path):
    # feature_seed -1 and -2 once ran: the point stacks seed at feature_seed + 2.
    for key in ("seed", "feature_seed"):
        for seed in (-1, -2, -(2**40)):
            want = f"^{key} must be non-negative$"
            with pytest.raises(ConfigError, match=want):
                PipelineConfig(**{key: seed})
            with pytest.raises(ConfigError, match=want):
                parse_pipeline_config({key: seed})
            path = tmp_path / "config.json"
            path.write_text(json.dumps({key: seed}))
            with pytest.raises(ConfigError, match=want):
                load_pipeline_config(str(path))
    assert PipelineConfig(seed=0, feature_seed=0).feature_seed == 0


def test_the_old_gnn_variant_key_is_unknown():
    for value in ("extended", "vanilla"):
        with pytest.raises(ConfigError, match=r"unknown config key 'gnn'\.'variant'"):
            parse_pipeline_config({"gnn": {"variant": value}})


def test_values_take_the_type_of_their_default():
    config = parse_pipeline_config(
        {
            "scene": {"n_objects": "2"},
            "train": {"steps": 2.0},
            "gnn": {"radius": 1},
            "range": [[0, 20], [-10, 10], [-3, 1]],
            "loss": {"focal_background": False},
        }
    )
    assert config.scene.n_objects == 2 and type(config.scene.n_objects) is int
    assert config.train.steps == 2 and type(config.train.steps) is int
    assert config.gnn.radius == 1.0 and type(config.gnn.radius) is float
    assert config.range_bounds == ((0.0, 20.0), (-10.0, 10.0), (-3.0, 1.0))
    assert all(type(v) is float for pair in config.range_bounds for v in pair)
    assert config.loss.focal_background is False
    with pytest.raises(ConfigError, match="integers"):
        parse_pipeline_config({"seed": None})
    with pytest.raises(ConfigError):
        parse_pipeline_config({"range": None})


def _reals(lo, hi, **kwargs):
    return st.floats(lo, hi, allow_nan=False, **kwargs)


_POSITIVE = _reals(0.0, 1e3, exclude_min=True)
_UNIT = _reals(0.0, 1.0)
_COUNTS = st.integers(0, 10_000)
_WIDTHS = st.integers(1, 64)
_INTERVAL = st.tuples(_reals(-1e3, 1e3), _reals(1e-3, 1e3)).map(lambda p: (p[0], p[0] + p[1]))


@st.composite
def _rfa_configs(draw):
    levels = draw(st.integers(1, 4))
    return RfaConfig(
        point_dim=2 * draw(_WIDTHS),
        keypoint_counts=tuple(draw(st.integers(1, 5000)) for _ in range(levels)),
        radii=tuple(draw(st.tuples(_POSITIVE, _POSITIVE)) for _ in range(levels)),
    )


_PIPELINE_CONFIGS = st.builds(
    PipelineConfig,
    seed=st.integers(0, 2**31),
    feature_seed=st.integers(0, 2**31),
    range_bounds=st.tuples(_INTERVAL, _INTERVAL, _INTERVAL),
    scene=st.builds(
        SceneConfig,
        n_objects=_COUNTS,
        points_per_object=_COUNTS,
        clutter_points=_COUNTS,
        min_separation=_POSITIVE,
    ),
    rfa=_rfa_configs(),
    point_hidden=_WIDTHS,
    gnn=st.builds(
        GnnPipelineConfig,
        depth=st.integers(0, 5),
        radius=_POSITIVE,
        hidden_dim=_WIDTHS,
        alignment=st.booleans(),
        header_hidden=_WIDTHS,
        header_init=st.sampled_from(["random", "zero"]),
    ),
    proposals=st.builds(
        ProposalConfig,
        per_gt=_WIDTHS,
        center_noise=_UNIT,
        yaw_noise=_UNIT,
        pos_iou=_reals(0.0, 1.0, exclude_min=True),
    ),
    nms=st.builds(NmsPipelineConfig, iou_threshold=_UNIT, score_threshold=_UNIT),
    loss=st.builds(
        LossConfig,
        focal_alpha=_reals(0.0, 1.0, exclude_min=True),
        focal_gamma=_reals(0.0, 5.0),
        smooth_l1_beta=_POSITIVE,
        focal_background=st.booleans(),
    ),
    train=st.builds(
        TrainPipelineConfig, steps=_COUNTS, learning_rate=_UNIT, batch_scenes=_WIDTHS
    ),
    eval=st.builds(EvalConfig, ap_iou=_reals(0.0, 1.0, exclude_min=True)),
)


@settings(max_examples=60, deadline=None)
@given(_PIPELINE_CONFIGS)
def test_every_valid_config_round_trips_through_json(config):
    text = json.dumps(config_to_dict(config))
    assert parse_pipeline_config(json.loads(text)) == config


def test_load_config_file(tmp_path):
    path = tmp_path / "pipeline.json"
    path.write_text(json.dumps(tiny_raw(seed=3)))
    config = load_pipeline_config(str(path))
    assert config.seed == 3
    assert config.scene.n_objects == 2

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="broken.json"):
        load_pipeline_config(str(bad))


# ---------------------------------------------------------------------------
# training smoke runs


def test_train_smoke_history_length():
    config = tiny_config()
    history = train_smoke(config, steps=3)
    assert len(history) == 4
    assert all(np.isfinite(history))
    # with no explicit override the configured step count applies
    assert len(train_smoke(config)) == 1  # tiny config trains zero steps


def test_train_smoke_zero_learning_rate_is_constant():
    config = tiny_config(train={"steps": 2, "learning_rate": 0.0})
    history = train_smoke(config)
    assert history[0] == history[1] == history[2]


def test_train_smoke_is_deterministic():
    config = tiny_config()
    assert train_smoke(config, steps=2) == train_smoke(config, steps=2)


def test_train_smoke_descends():
    config = tiny_config()
    history = train_smoke(config, steps=30)
    assert history[-1] < history[0]


def test_train_smoke_runs_one_backward_pass_per_step(monkeypatch):
    # The loss after the last step is recorded without a backward pass.
    # A step runs the stacks' kernels, which the checked methods wrap.
    calls = []
    backward = DenseStack._backward
    monkeypatch.setattr(
        DenseStack, "_backward", lambda self, *a: calls.append(1) or backward(self, *a)
    )
    config = tiny_config()
    train_smoke(config, steps=0)
    assert calls == []
    train_smoke(config, steps=2)
    per_step = len(calls) // 2
    assert per_step > 0 and len(calls) == 2 * per_step


@pytest.mark.parametrize("batch", [1, 3])
def test_each_stack_runs_once_per_training_step(monkeypatch, batch):
    # The batch's worlds train as one joined graph: every stack runs one
    # forward and one backward pass per step, whatever the batch size,
    # through the kernels that the checked methods wrap.
    calls = []
    for name in ("_forward", "_backward"):
        method = getattr(DenseStack, name)
        monkeypatch.setattr(
            DenseStack,
            name,
            lambda self, *a, _name=name, _method=method: calls.append((self, _name))
            or _method(self, *a),
        )
    models = []
    init = pipeline.init_models
    monkeypatch.setattr(pipeline, "init_models", lambda c: models.append(init(c)) or models[-1])
    train_smoke(tiny_config(train={"batch_scenes": batch}), steps=2)
    for stack in models[0].stacks:
        runs = [name for owner, name in calls if owner is stack]
        assert runs.count("_forward") == 3  # two steps and the final loss
        assert runs.count("_backward") == 2


def test_training_checks_the_models_once_per_run(monkeypatch):
    # The updater's widths, the header's widths and the state width are
    # checked before the first step; the steps run the kernels unchecked.
    calls = []
    validate = GraphUpdater.validate_for
    monkeypatch.setattr(
        GraphUpdater, "validate_for", lambda self, *a: calls.append(a) or validate(self, *a)
    )
    rows = DenseStack._input_rows
    monkeypatch.setattr(
        DenseStack, "_input_rows", lambda self, x: calls.append(self) or rows(self, x)
    )
    models = []
    init = pipeline.init_models
    monkeypatch.setattr(pipeline, "init_models", lambda c: models.append(init(c)) or models[-1])
    config = tiny_config()
    pipeline._train_models(config, 3)
    header = [c for c in calls if c in (models[0].cls_stack, models[0].reg_stack)]
    assert [c for c in calls if isinstance(c, tuple)] == [(config.state_dim,)]
    assert header == [models[0].cls_stack, models[0].reg_stack]


def _mismatched(name, f):
    """A model part that does not fit state width ``f``, and the message a
    run fails with, as the per-call checks word it."""
    if name == "updater":
        part = GraphUpdater.seeded(f + 1, 16, 3, seed=0)
        return part, re.escape(f"iteration 0: aggregation input {f + 4} != expected {f + 3}")
    if name == "cls_stack":
        return DenseStack.seeded((f, 8, 2), 0), "classification stack must end in one unit"
    part = DenseStack.seeded((f + 1, 8, 7), 0)
    return part, rf"input of shape \(\d+, {f}\) is not \(rows, stack width {f + 1}\)"


@pytest.mark.parametrize("name", ["updater", "cls_stack", "reg_stack"])
def test_mismatched_models_fail_a_run_with_the_checked_message(monkeypatch, name):
    config = tiny_config(train={"steps": 2})
    part, message = _mismatched(name, config.state_dim)
    init = pipeline.init_models
    monkeypatch.setattr(pipeline, "init_models", lambda c: replace(init(c), **{name: part}))
    for run in (train_smoke, run_pipeline):
        with pytest.raises(ValueError, match=f"^{message}$"):
            run(config)


# Stated bound of the joined pass against the per-world loop at a batch
# of more than one world: the same rows are summed in another order, so
# histories and weights may move in the last bits, never by more.
BATCH_RTOL = 1e-12
BATCH_ATOL = 1e-12
# The refiner's two arms as test ids: "extended" has alignment stacks,
# "vanilla" reads the same edge offsets without them.
ARMS = ["extended", "vanilla"]


def _oracle_run(config, steps):
    models, history = loop_train_models(config, steps)
    return history, [stack.flat_params() for stack in models.stacks]


@pytest.mark.parametrize("alignment", [True, False], ids=ARMS)
def test_batch_of_one_trains_bit_identically_to_the_per_world_loop(alignment):
    config = PipelineConfig(gnn=GnnPipelineConfig(alignment=alignment))
    history, weights = _trained_weights(config, 40)
    want_history, want_weights = _oracle_run(config, 40)
    assert history == want_history
    for got, want in zip(weights, want_weights, strict=True):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("alignment", [True, False], ids=ARMS)
@pytest.mark.parametrize("batch", [2, 4])
def test_joined_batch_trains_like_the_per_world_loop(alignment, batch):
    config = PipelineConfig(
        gnn=GnnPipelineConfig(alignment=alignment), train=TrainPipelineConfig(batch_scenes=batch)
    )
    history, weights = _trained_weights(config, 200)
    want_history, want_weights = _oracle_run(config, 200)
    assert history[0] == want_history[0]
    np.testing.assert_allclose(history, want_history, rtol=BATCH_RTOL, atol=0.0)
    for got, want in zip(weights, want_weights, strict=True):
        np.testing.assert_allclose(got, want, rtol=BATCH_RTOL, atol=BATCH_ATOL)


def test_joined_pass_skips_empty_worlds_like_the_per_world_loop(monkeypatch):
    # Empty worlds before, between and after two non-empty ones get no
    # rows, add no loss and pass zero gradients; each world keeps its own
    # normaliser.
    config = tiny_config()
    worlds = [pipeline._build_world(config, seed, seed + 11) for seed in (0, 5)]
    empty = pipeline._build_world(tiny_config(scene={"n_objects": 0}), 0, 11)
    batch = [empty, worlds[0], empty, worlds[1], empty]
    _, graph, rows = _training_batch(monkeypatch, config, batch)
    first, both = np.cumsum([len(world.graph) for world in worlds]).tolist()
    assert [r.rows for r in rows] == [slice(0, first), slice(first, both)]
    graphs = [world.graph for world in batch]
    models = pipeline.init_models(config)
    loss, grads = _evaluate(models, graph, rows, config, True)
    targets = loop_batch_targets(batch, config.proposals.pos_iou)
    want_loss, want_grads = loop_batch_evaluate(models, graphs, targets, config, True)
    assert loss == want_loss > 0
    np.testing.assert_allclose(
        _flat_grads(grads), _flat_grads(want_grads), rtol=BATCH_RTOL, atol=BATCH_ATOL
    )


def _training_batch(monkeypatch, config, batch):
    """``pipeline._training_worlds`` over the worlds of ``batch``, in order."""
    built = iter(batch)
    monkeypatch.setattr(pipeline, "_build_world", lambda *args: next(built))
    train = replace(config.train, batch_scenes=len(batch))
    return pipeline._training_worlds(replace(config, train=train))


def _without_foreground(rows):
    """A world's ``_WorldRows`` with every row moved to the background."""
    n = rows.rows.stop - rows.rows.start
    return rows._replace(fg=rows.fg[:0], bg=np.arange(n), fg_targets=rows.fg_targets[:0])


def _evaluate(models, graph, rows, config, want_grads):
    """``pipeline._evaluate`` with the matrix product a training run picks."""
    product = _product_for(len(graph), models.stacks)
    return pipeline._evaluate(models, graph, rows, config, want_grads, product)


def _flat_grads(grads):
    """Every (dW, db) array of a gradient list, flattened in stack order."""
    return np.concatenate([a.ravel() for stack in grads for layer in stack for a in layer])


def _trained_weights(config, steps):
    models, history, _ = pipeline._train_models(config, steps)
    return history, [stack.flat_params() for stack in models.stacks]


@pytest.mark.parametrize("alignment", [True, False], ids=ARMS)
def test_training_is_bit_identical_with_the_add_at_backward(monkeypatch, alignment):
    config = PipelineConfig(gnn=GnnPipelineConfig(alignment=alignment))
    history, weights = _trained_weights(config, 30)
    monkeypatch.setattr(pipeline, "update_backward", loop_update_backward)
    assert train_smoke(config, steps=30) == history
    _, want_weights = _trained_weights(config, 30)
    for got, want in zip(weights, want_weights, strict=True):
        assert np.array_equal(got, want)


def _batch_with_empty_worlds(monkeypatch):
    """Make every training world but the first an empty one."""
    build = pipeline._build_world

    def first_only(config, scene_seed, proposal_seed):
        if scene_seed != config.seed:
            config = replace(config, scene=replace(config.scene, n_objects=0))
        return build(config, scene_seed, proposal_seed)

    monkeypatch.setattr(pipeline, "_build_world", first_only)


@pytest.mark.parametrize("case", ["extended", "vanilla", "depth0", "batch3", "all-empty"])
def test_gradient_vectors_train_bit_identically_to_the_per_world_loop(monkeypatch, case):
    # 200 steps whose kernels write into two gradient vectors in turn,
    # against the loop oracle's sgd_step on new arrays.  The vanilla
    # updater has no alignment stacks, so the vectors have no alignment
    # block; at depth 0 only the header trains; the batch of three trains one world next to two empty
    # ones, which add zero gradients and still divide the learning rate;
    # an all-empty batch leaves every weight as it was.
    config = {
        "extended": PipelineConfig(),
        "vanilla": PipelineConfig(gnn=GnnPipelineConfig(alignment=False)),
        "depth0": PipelineConfig(gnn=GnnPipelineConfig(depth=0)),
        "batch3": PipelineConfig(train=TrainPipelineConfig(batch_scenes=3)),
        "all-empty": tiny_config(scene={"n_objects": 0}, train={"batch_scenes": 2}),
    }[case]
    if case == "batch3":
        _batch_with_empty_worlds(monkeypatch)
    history, weights = _trained_weights(config, 200)
    want_history, want_weights = _oracle_run(config, 200)
    assert history == want_history
    for got, want in zip(weights, want_weights, strict=True):
        assert np.array_equal(got, want)
    initial = [stack.flat_params() for stack in pipeline.init_models(config).stacks]
    moved = [not np.array_equal(got, first) for got, first in zip(weights, initial)]
    assert all(moved) if case != "all-empty" else not any(moved)


def _best_training_ious(config):
    """Each training world's best proposal IoU, by the pairwise loop."""
    bests = []
    for j in range(config.train.batch_scenes):
        seed = config.seed + pipeline._SCENE_STRIDE * j
        world = pipeline._build_world(config, seed, seed + pipeline._PROPOSAL_OFFSET)
        bests.append(max(
            loop_rotated_iou_bev(prop, gt)
            for prop in world.graph.boxes
            for gt in world.scene.gt_boxes
        ))
    return bests


def _no_foreground_message(best):
    return (
        f"no training proposal is foreground: the best proposal IoU is {best:.4f}, "
        "below proposals.pos_iou = 0.999"
    )


def test_a_batch_without_foreground_fails_naming_pos_iou_and_the_best_iou():
    # The loss would be zero at every step and the run would return its
    # initial models, so it fails before the first step, without a warning.
    config = PipelineConfig(
        proposals=ProposalConfig(pos_iou=0.999), train=TrainPipelineConfig(steps=20)
    )
    (best,) = _best_training_ious(config)
    assert 0.7 < best < 0.999
    want = _no_foreground_message(best)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for run in (train_smoke, run_pipeline):
            with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
                run(config)
        # Without a step nothing is trained, and nothing fails.
        assert run_pipeline(replace(config, train=TrainPipelineConfig(steps=0)))[1]["ap_s40"] == 0.0


def test_a_batch_of_two_without_foreground_names_the_best_iou_of_both():
    # The message's IoU is the batch maximum: the two worlds' bests differ,
    # and the second world's is the larger.
    config = PipelineConfig(
        proposals=ProposalConfig(pos_iou=0.999),
        train=TrainPipelineConfig(steps=20, batch_scenes=2),
    )
    bests = _best_training_ious(config)
    assert 0.7 < max(bests) < 0.999
    assert round(bests[0], 4) < round(bests[1], 4)
    want = _no_foreground_message(max(bests))
    for run in (train_smoke, run_pipeline):
        with pytest.raises(ConfigError, match=f"^{re.escape(want)}$"):
            run(config)


def test_batches_with_some_foreground_or_no_proposals_still_train(monkeypatch):
    assert train_smoke(tiny_config(scene={"n_objects": 0}), steps=3) == [0.0] * 4
    world_rows, calls = pipeline._world_rows, []

    def second_without_foreground(config, world, lo):
        rows, best = world_rows(config, world, lo)
        calls.append(rows)
        return (_without_foreground(rows) if len(calls) == 2 else rows), best

    monkeypatch.setattr(pipeline, "_world_rows", second_without_foreground)
    with pytest.warns(RuntimeWarning, match="no foreground"):
        history = train_smoke(tiny_config(train={"batch_scenes": 2}), steps=3)
    assert len(calls) == 2 and len(calls[0].fg) and len(history) == 4
    assert all(math.isfinite(loss) for loss in history)


def test_initial_loss_is_the_refinement_loss_of_the_first_world():
    # Only the refiner is trained: the loss is the header's focal loss plus
    # its box smooth-L1 over the proposals of the training world.
    config = PipelineConfig()
    (world,), graph, rows = pipeline._training_worlds(config)
    assert graph is world.graph and [r.rows for r in rows] == [slice(0, len(graph))]
    models = pipeline.init_models(config)
    refined, _ = update(world.graph, models.updater)
    scores, residuals, _ = header_forward(refined, models.cls_stack, models.reg_stack)
    fg, targets = loop_training_targets(
        world.graph.boxes, world.scene.gt_boxes, config.proposals.pos_iou
    )
    want = focal_loss(scores, fg, config.loss) + masked_smooth_l1_mean(
        residuals, targets, fg, config.loss.smooth_l1_beta
    )
    assert 0 < fg.sum() < len(fg)
    assert train_smoke(config, steps=0) == [want]


def test_train_smoke_rejects_negative_steps():
    with pytest.raises(ConfigError, match="non-negative"):
        train_smoke(tiny_config(), steps=-1)


def test_diverging_training_names_the_step_and_the_term():
    config = tiny_config(train={"steps": 50, "learning_rate": 50.0})
    with np.errstate(all="ignore"):
        with pytest.raises(TrainingDivergedError, match=r"step \d+: loss term l_\w+ is"):
            train_smoke(config)
        with pytest.raises(TrainingDivergedError):
            run_pipeline(config)
    assert issubclass(TrainingDivergedError, ValueError)
    assert not issubclass(TrainingDivergedError, ConfigError)


def test_loss_growing_past_the_divergence_factor_fails_naming_the_initial_loss():
    # Seed 4 at learning rate 0.4 blows the loss up to finite values of
    # 1e7 and more; the step where it first passes the factor fails.
    config = PipelineConfig(seed=4, train=TrainPipelineConfig(learning_rate=0.4))
    initial = train_smoke(config, steps=0)[0]
    want = r"^training diverged at step (\d+): loss term l_gnn is (\S+), against an initial loss of (\S+)$"
    with pytest.raises(TrainingDivergedError) as caught:
        train_smoke(config)
    step, loss, first = re.match(want, str(caught.value)).groups()
    assert 0 < int(step) < config.train.steps
    assert float(first) == initial
    assert math.isfinite(float(loss))
    assert float(loss) > pipeline._DIVERGENCE_FACTOR * initial


def test_zero_initial_loss_never_trips_the_divergence_factor(monkeypatch):
    calls = []
    evaluate = pipeline._evaluate

    def zero_first(*args):
        loss, grads = evaluate(*args)
        calls.append(loss)
        return (0.0 if len(calls) == 1 else loss), grads

    monkeypatch.setattr(pipeline, "_evaluate", zero_first)
    history = train_smoke(tiny_config(train={"steps": 5}))
    assert history[0] == 0.0 and history[1:] == calls[1:] and min(calls) > 0


@pytest.mark.parametrize(
    "depth, loss_grad, stack",
    [(3, "focal_loss_and_grad", 0), (0, "masked_smooth_l1_mean_and_grad", 1)],
    ids=["3-focal_loss_grad-0", "0-masked_smooth_l1_mean_grad-1"],  # the poisoned gradient
)
def test_divergence_names_the_step_whose_gradient_was_not_finite(
    monkeypatch, depth, loss_grad, stack
):
    # A NaN loss gradient at step 3 (its 4th call) leaves that step's loss
    # finite; the descent on it makes the loss NaN at step 4.  With depth 0
    # a box-term NaN reaches only the regression stack, the second of
    # PipelineModels.stacks; otherwise it reaches every updater stack.
    # The fused loss call returns (loss, gradient); only the gradient is
    # poisoned.
    calls = []
    fused = getattr(pipeline, loss_grad)

    def poisoned(*args):
        calls.append(args)
        loss, out = fused(*args)
        return (loss, np.full_like(out, np.nan)) if len(calls) == 4 else (loss, out)

    monkeypatch.setattr(pipeline, loss_grad, poisoned)
    config = PipelineConfig(gnn=GnnPipelineConfig(depth=depth))
    want = (
        rf"^training diverged at step 3: the gradient of stack {stack} "
        r"\(of PipelineModels\.stacks\) is not finite, so loss term l_gnn is nan$"
    )
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDivergedError, match=want):
        train_smoke(config, steps=10)
    assert len(calls) == 5  # steps 0-4: step 4's pass runs before its loss is read


def test_model_stacks_are_the_updaters_then_the_headers():
    for alignment in (True, False):
        models = pipeline.init_models(PipelineConfig(gnn=GnnPipelineConfig(alignment=alignment)))
        updater = models.updater
        want = [*updater.agg_stacks, *updater.fus_stacks, *(updater.align_stacks or [])]
        want += [models.cls_stack, models.reg_stack]
        assert len(models.stacks) == len(want) == (11 if alignment else 8)
        assert all(got is stack for got, stack in zip(models.stacks, want))


@pytest.mark.parametrize("alignment", [True, False], ids=ARMS)
def test_fused_losses_evaluate_like_the_separate_passes(monkeypatch, alignment):
    # A batch of four worlds, the second empty and the third stripped of
    # its foreground: that world warns and adds a zero loss and zero
    # gradients.  Loss and every gradient equal the four separate loss
    # passes bit for bit.
    config = tiny_config(gnn={"alignment": alignment})
    worlds = [pipeline._build_world(config, seed, seed + 11) for seed in (0, 2, 5)]
    empty = pipeline._build_world(tiny_config(scene={"n_objects": 0}), 0, 11)
    batch = [worlds[0], empty, worlds[1], worlds[2]]
    _, graph, rows = _training_batch(monkeypatch, config, batch)
    rows[1] = _without_foreground(rows[1])
    targets = loop_batch_targets(batch, config.proposals.pos_iou)
    fg, reg = targets[2]
    targets[2] = np.zeros_like(fg), np.zeros_like(reg)
    assert all(targets[i][0].any() for i in (0, 3)) and len(fg)
    models = pipeline.init_models(config)
    with pytest.warns(RuntimeWarning, match="no foreground"):
        loss, grads = _evaluate(models, graph, rows, config, True)
    want_loss, want_grads = separate_loss_evaluate(models, graph, targets, config)
    assert loss == want_loss > 0
    assert np.array_equal(_flat_grads(grads), _flat_grads(want_grads))
    with pytest.warns(RuntimeWarning, match="no foreground"):
        assert _evaluate(models, graph, rows, config, False) == (loss, None)


def _grad_arrays(grads):
    return [a for stack in grads for layer in stack for a in layer]


def _share_nothing(first, second):
    return not any(np.shares_memory(a, b) for a in first for b in second)


def test_successive_gradients_share_no_memory():
    # A caller may keep a returned gradient: no later call overwrites it.
    config = PipelineConfig()
    _, graph, rows = pipeline._training_worlds(config)
    models = pipeline.init_models(config)
    _, first = _evaluate(models, graph, rows, config, True)
    kept = [a.copy() for a in _grad_arrays(first)]
    _, second = _evaluate(models, graph, rows, config, True)
    assert _share_nothing(_grad_arrays(first), _grad_arrays(second))
    assert all(np.array_equal(a, b) for a, b in zip(_grad_arrays(first), kept))

    refined, cache = update(graph, models.updater)
    dz = np.random.default_rng(0).normal(size=refined.shape)
    grads_a, d_states_a = update_backward(cache, dz)
    grads_b, d_states_b = update_backward(cache, dz)
    assert _share_nothing(
        _grad_arrays(grads_a) + [d_states_a], _grad_arrays(grads_b) + [d_states_b]
    )
    assert np.array_equal(d_states_a, d_states_b)


def test_training_runs_share_no_memory_and_leave_each_other_alone():
    def params(models):
        return [a for stack in models.stacks for l in stack.layers for a in (l.weight, l.bias)]

    config = tiny_config(train={"steps": 6})
    first, _, _ = pipeline._train_models(config, 6)
    kept = [a.copy() for a in params(first)]
    faster = replace(config, train=replace(config.train, learning_rate=0.5))
    second, _, _ = pipeline._train_models(faster, 6)
    assert _share_nothing(params(first), params(second))
    assert all(np.array_equal(a, b) for a, b in zip(params(first), kept))
    assert not all(np.array_equal(a, b) for a, b in zip(params(second), kept))


# ---------------------------------------------------------------------------
# end-to-end scoring


def test_empty_scene_yields_no_detections():
    config = tiny_config(scene={"n_objects": 0})
    detections, report = run_pipeline(config)
    assert len(detections) == 0
    assert report["ap_s11"] == 0.0
    assert report["ap_s40"] == 0.0
    assert report["n_gt"] == 0
    assert report["n_proposals"] == 0
    assert report["loss_history"] == []
    assert "loss_first" not in report


def test_empty_stage_names_the_first_stage_that_came_up_empty():
    _, report = run_pipeline(tiny_config(scene={"points_per_object": 0, "clutter_points": 0}))
    assert report["n_proposals"] == report["holdout_n_proposals"] == 0
    assert report["empty_stage"] == report["holdout_empty_stage"] == "points"
    _, report = run_pipeline(tiny_config(scene={"n_objects": 0}))
    assert report["empty_stage"] == report["holdout_empty_stage"] == "proposals"
    _, report = run_pipeline(
        tiny_config(
            proposals={"center_noise": 0.0, "yaw_noise": 0.0},
            gnn={"depth": 0, "header_init": "zero"},
        )
    )
    assert report["n_detections"] > 0 and report["empty_stage"] is None
    _, report = run_pipeline(
        tiny_config(gnn={"depth": 0, "header_init": "zero"}, nms={"score_threshold": 0.9})
    )
    assert report["n_proposals"] > 0 and report["n_detections"] == 0
    assert report["empty_stage"] == "detections"


def test_empty_scene_trains_on_an_empty_graph():
    # Zero rows flow through every stack as zero gradients, in a batch of
    # one empty world and in a joined graph of three.
    config = tiny_config(scene={"n_objects": 0}, train={"steps": 2})
    graph = pipeline._build_world(config, 0, 1).graph
    assert len(graph) == 0 and graph.adjacency == ()
    for batch in (1, 3):
        config = replace(config, train=replace(config.train, batch_scenes=batch))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no loss is evaluated on an empty graph
            detections, report = run_pipeline(config)
        assert len(detections) == 0
        assert report["loss_history"] == [0.0, 0.0, 0.0]
        assert report["empty_stage"] == "proposals"


def test_noise_free_passthrough_reproduces_ground_truth():
    """Exact proposals, a depth-0 refiner, and a zero header must hand the
    ground truth straight through with AP exactly one."""
    config = tiny_config(
        proposals={"center_noise": 0.0, "yaw_noise": 0.0},
        gnn={"depth": 0, "header_init": "zero"},
    )
    detections, report = run_pipeline(config)
    assert report["ap_s11"] == 1.0
    assert report["ap_s40"] == 1.0
    assert report["holdout_ap_s40"] == 1.0
    assert report["n_detections"] == report["n_gt"] == 2
    for det in detections:
        assert det.score == 0.5


def test_run_pipeline_reports_expected_keys():
    config = tiny_config(train={"steps": 2})
    _, report = run_pipeline(config)
    for key in (
        "ap_iou",
        "ap_s11",
        "ap_s40",
        "n_detections",
        "n_gt",
        "n_proposals",
        "holdout_ap_s11",
        "holdout_ap_s40",
        "holdout_n_gt",
        "loss_history",
        "loss_first",
        "loss_final",
    ):
        assert key in report, key
    assert len(report["loss_history"]) == 3
    assert report["loss_first"] == report["loss_history"][0]
    assert report["loss_final"] == report["loss_history"][-1]


def test_run_pipeline_builds_each_scene_once(monkeypatch):
    # The first training scene is the main scene; only the held-out
    # scene is built on top of the training batch.
    seeds = []
    generate = pipeline.generate_synthetic_scene
    monkeypatch.setattr(
        pipeline,
        "generate_synthetic_scene",
        lambda seed, *a, **kw: seeds.append(seed) or generate(seed, *a, **kw),
    )
    run_pipeline(tiny_config(train={"steps": 1}))
    assert len(seeds) == len(set(seeds)) == 2
    seeds.clear()
    run_pipeline(tiny_config())
    assert len(seeds) == 2


def test_only_training_worlds_build_training_targets(monkeypatch):
    # Proposal targets are built for each training scene and never for a
    # scene that is only scored.
    calls = []
    world_rows = pipeline._world_rows
    monkeypatch.setattr(pipeline, "_world_rows", lambda *a: calls.append(1) or world_rows(*a))
    run_pipeline(tiny_config(train={"steps": 1, "batch_scenes": 2}))
    assert len(calls) == 2
    calls.clear()
    run_pipeline(tiny_config())
    assert calls == []


DESK = SceneConfig()
DENSE = SceneConfig(n_objects=10, points_per_object=300, clutter_points=1000)
KITTI_SIZED = SceneConfig(n_objects=10, points_per_object=1000, clutter_points=10000)


@pytest.mark.parametrize("scene", [DESK, DENSE], ids=["desk", "dense"])
@pytest.mark.parametrize("seed", [0, 1])
def test_training_targets_match_the_unfiltered_loop(monkeypatch, scene, seed):
    # Scoring only the pairs that can reach, in one kernel call, leaves every
    # target bit-identical to scoring every (proposal, ground truth) pair.
    config = PipelineConfig(seed=seed, scene=scene)
    world = pipeline._build_world(config, seed, seed + 11)
    calls = []
    kernel = geom.bev_iou_pairs
    monkeypatch.setattr(geom, "bev_iou_pairs", lambda a, b, i, j: calls.extend(i) or kernel(a, b, i, j))
    got, _ = pipeline._world_rows(config, world, 5)
    fg, reg = loop_training_targets(
        world.graph.boxes, world.scene.gt_boxes, config.proposals.pos_iou
    )
    assert fg.any() and not fg.all()
    assert got.rows == slice(5, 5 + len(world.graph))
    assert np.array_equal(got.fg, np.flatnonzero(fg))
    assert np.array_equal(got.bg, np.flatnonzero(~fg))
    assert got.fg_targets.tobytes() == reg[fg].tobytes()
    assert 0 < len(calls) < len(world.graph) * len(world.scene.gt_boxes)


@settings(max_examples=60, deadline=None)
@given(
    n_objects=st.integers(0, 5),
    per_gt=st.integers(1, 9),
    center_noise=st.sampled_from([0.0, 0.3, 2.0]),
    yaw_noise=st.sampled_from([0.0, 0.1, 3.0]),  # 3.0 sends many yaws across the seam
    seed=st.integers(0, 2**32 - 1),
)
def test_proposals_match_the_per_proposal_loop(n_objects, per_gt, center_noise, yaw_noise, seed):
    # One (n, 4) normal draw reads the generator as one draw per offset did.
    config = PipelineConfig(proposals=ProposalConfig(per_gt, center_noise, yaw_noise))
    scene = generate_synthetic_scene(seed % 1000, n_objects, 0, 0, min_separation=7.0)
    got = pipeline._make_proposals(config, scene, seed)
    want = loop_make_proposals(scene.gt_boxes, per_gt, center_noise, yaw_noise, seed)
    assert list(got) == want
    assert got.params.tobytes() == BoxArray.of(want).params.tobytes()


def test_detect_constructs_no_box3d(monkeypatch):
    # Proposals stay one BoxArray from drawing to NMS: decoding and
    # suppression build no per-box object.
    config = tiny_config()
    world = pipeline._build_world(config, 0, 11)
    models = pipeline.init_models(config)
    calls = []
    post_init = Box3D.__post_init__
    monkeypatch.setattr(Box3D, "__post_init__", lambda box: calls.append(1) or post_init(box))
    detections = pipeline.detect(models, world, config)
    assert isinstance(detections, BoxArray) and len(detections) > 0
    assert calls == []


def test_kitti_sized_world_build_stays_small_in_memory():
    # 20k in-range points.  The point pyramid and the states peak at about
    # 3 MB; a voxel field propagated onto the whole cloud once peaked at
    # 36 MB.
    config = PipelineConfig(scene=KITTI_SIZED)
    tracemalloc.start()
    try:
        world = pipeline._build_world(config, 0, 11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(world.scene.cloud) == 20_000 and len(world.graph) == 80
    assert peak < 16 * 2**20


def test_run_pipeline_is_deterministic():
    config = tiny_config(train={"steps": 2})
    det_a, report_a = run_pipeline(config)
    det_b, report_b = run_pipeline(config)
    assert report_a == report_b
    assert len(det_a) == len(det_b)
    assert list(det_a) == list(det_b)

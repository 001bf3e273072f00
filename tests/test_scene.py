"""Scene primitives: boxes, clouds, synthetic generation, clipping, text I/O."""

import math
import warnings

import numpy as np
import pytest

from graphdet.scene import (
    CAR_DIMS,
    KITTI_RANGE,
    Box3D,
    BoxArray,
    DetectionParseError,
    PointCloud,
    Scene,
    clip_to_range,
    generate_synthetic_scene,
    normalize_yaw,
    read_detections,
    write_detections,
)

from oracles import corners_bev, random_box


def test_normalize_yaw_wraps_into_half_open_interval():
    assert normalize_yaw(0.0) == 0.0
    assert normalize_yaw(math.pi) == pytest.approx(math.pi)
    assert normalize_yaw(-math.pi) == pytest.approx(math.pi)  # -pi maps to +pi
    assert normalize_yaw(3 * math.pi) == pytest.approx(math.pi)
    assert normalize_yaw(2 * math.pi + 0.25) == pytest.approx(0.25)
    rng = np.random.default_rng(0)
    for theta in rng.uniform(-50, 50, size=200):
        wrapped = normalize_yaw(float(theta))
        assert -math.pi < wrapped <= math.pi
        # same angle modulo 2*pi
        assert math.isclose(
            math.cos(wrapped), math.cos(theta), abs_tol=1e-12
        ) and math.isclose(math.sin(wrapped), math.sin(theta), abs_tol=1e-12)


def test_box_validation_and_yaw_normalisation():
    box = Box3D((1, 2, 3), (4, 2, 1.5), yaw=7.0)
    assert box.yaw == pytest.approx(normalize_yaw(7.0))
    assert box.volume == pytest.approx(12.0)
    assert BoxArray.of([box]).bev_diagonal[0] == math.hypot(4, 2)
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, -1, 1), 0.0)
    with pytest.raises(ValueError):
        Box3D((0, 0, float("nan")), (1, 1, 1), 0.0)
    with pytest.raises(ValueError):
        Box3D((0, 0, 0), (1, 1, 1), 0.0, score=1.5)


def test_box_corners_bev_counter_clockwise_and_rotated():
    box = Box3D((0, 0, 0), (4, 2, 1), yaw=0.0)
    corners = corners_bev(box)
    # shoelace sign: counter-clockwise order has positive signed area
    x, y = corners[:, 0], corners[:, 1]
    signed = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    assert signed > 0
    assert set(map(tuple, np.round(corners, 9))) == {
        (2.0, 1.0),
        (-2.0, 1.0),
        (-2.0, -1.0),
        (2.0, -1.0),
    }
    quarter = Box3D((0, 0, 0), (4, 2, 1), yaw=math.pi / 2)
    rotated = corners_bev(quarter)
    assert np.allclose(sorted(map(tuple, rotated)), sorted([(-1, -2), (-1, 2), (1, -2), (1, 2)]), atol=1e-9)


def test_z_interval_spans_the_box_height():
    box = Box3D((0, 0, 1.0), (2, 2, 3.0), yaw=0.3)
    assert box.z_interval() == (-0.5, 2.5)


def test_point_cloud_shape_checks_and_immutability():
    cloud = PointCloud(np.zeros((5, 4)))
    assert len(cloud) == 5
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 1.0
    assert PointCloud(np.empty((0, 4))).xyz.shape == (0, 3)
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        PointCloud(np.full((2, 4), np.inf))


def test_scene_rejects_out_of_range_gt():
    box = Box3D((100.0, 0, 0), CAR_DIMS, 0.0)
    with pytest.raises(ValueError):
        Scene(PointCloud(np.empty((0, 4))), (box,), KITTI_RANGE)


def test_generate_scene_counts_zero_objects():
    scene = generate_synthetic_scene(7, 0, 0, 100)
    assert len(scene.cloud) == 100
    assert scene.gt_boxes == ()


def test_generate_scene_counts_with_objects():
    scene = generate_synthetic_scene(7, 2, 200, 50)
    assert len(scene.cloud) == 2 * 200 + 50
    assert len(scene.gt_boxes) == 2


def test_generate_scene_deterministic():
    a = generate_synthetic_scene(123, 3, 64, 32)
    b = generate_synthetic_scene(123, 3, 64, 32)
    assert np.array_equal(a.cloud.points, b.cloud.points)
    assert a.gt_boxes == b.gt_boxes


def test_generate_scene_object_points_lie_on_their_box():
    """Surface samples sit on the box boundary: inside at face tolerance."""
    scene = generate_synthetic_scene(5, 2, 100, 0)
    from graphdet.geom import points_in_box

    for i, box in enumerate(scene.gt_boxes):
        block = scene.cloud.xyz[i * 100 : (i + 1) * 100]
        grown = Box3D(box.center, tuple(d + 1e-9 for d in box.dims), box.yaw)
        assert np.all(points_in_box(block, grown))


def test_generate_scene_min_separation():
    scene = generate_synthetic_scene(11, 4, 10, 0, min_separation=7.0)
    centres = [b.center for b in scene.gt_boxes]
    for i in range(len(centres)):
        for j in range(i + 1, len(centres)):
            assert math.hypot(
                centres[i][0] - centres[j][0], centres[i][1] - centres[j][1]
            ) >= 7.0


def test_unsatisfiable_separation_names_the_object():
    # 12 cars 30 m apart do not fit in the default 70.4 m x 80 m range
    with pytest.raises(ValueError, match=r"object \d+ of n_objects=12 .* min_separation=30\.0"):
        generate_synthetic_scene(0, 12, 10, 0, min_separation=30.0)


def test_clip_to_range_boundary_conventions():
    pts = np.array(
        [
            [75.0, 0.0, 0.0, 0.5],  # beyond x_max -> removed
            [0.0, 0.0, 0.0, 0.5],  # exactly x_min -> kept
            [70.4, 0.0, 0.0, 0.5],  # exactly x_max (half-open) -> removed
            [10.0, -40.0, -1.0, 0.5],  # exactly y_min -> kept
        ]
    )
    scene = Scene(PointCloud(pts), (), KITTI_RANGE)
    clipped = clip_to_range(scene)
    assert len(clipped.cloud) == 2
    assert np.allclose(clipped.cloud.xyz[:, 0], [0.0, 10.0])


def test_clip_to_range_identity_and_idempotent():
    scene = generate_synthetic_scene(3, 1, 50, 50)
    once = clip_to_range(scene)
    assert np.array_equal(once.cloud.points, clip_to_range(once).cloud.points)
    inside = Scene(PointCloud(np.array([[1.0, 0.0, 0.0, 0.1]])), (), KITTI_RANGE)
    assert np.array_equal(clip_to_range(inside).cloud.points, inside.cloud.points)


def test_read_detections_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    assert len(read_detections(str(path))) == 0


@pytest.mark.parametrize("text", ["", "\n", " \n\x0c\n\r\n\t"], ids=["empty", "newline", "blank"])
def test_read_detections_empty_and_blank_files_warn_nothing(tmp_path, text):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        boxes = read_detections(str(path))
    assert len(boxes) == 0 and boxes.params.shape == (0, 7)


def test_read_detections_single_line(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("Car 1.0 2.0 -1.0 3.9 1.6 1.56 0.0 0.9\n")
    (box,) = read_detections(str(path))
    assert box.center == (1.0, 2.0, -1.0)
    assert box.dims == (3.9, 1.6, 1.56)
    assert box.yaw == 0.0
    assert box.score == 0.9
    assert box.class_id == 0


def test_detection_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    boxes = [random_box(rng, score=True) for _ in range(100)]
    boxes += [random_box(rng, score=False) for _ in range(5)]  # gt style, no score
    path = tmp_path / "boxes.txt"
    write_detections(str(path), boxes)
    back = read_detections(str(path))
    assert list(back) == boxes


def test_read_detections_reports_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("Car 1 2 3 4 5 6 7 0.5\nCar not-a-number 0 0 1 1 1 0\n")
    with pytest.raises(DetectionParseError, match="line 2"):
        read_detections(str(path))
    path.write_text("Car 1 2 3\n")
    with pytest.raises(DetectionParseError, match="expected 8 or 9 fields"):
        read_detections(str(path))


def test_read_detections_accepts_crlf_line_ends(tmp_path):
    path = tmp_path / "crlf.txt"
    path.write_bytes(b"Car 1.0 2.0 -1.0 3.9 1.6 1.56 0.0 0.9\r\nPedestrian 5 6 -1 0.8 0.6 1.7 0.5\r\n")
    first, second = read_detections(str(path))
    assert first == Box3D((1.0, 2.0, -1.0), (3.9, 1.6, 1.56), 0.0, score=0.9, class_id=0)
    assert second == Box3D((5.0, 6.0, -1.0), (0.8, 0.6, 1.7), 0.5, class_id=1)


@pytest.mark.parametrize("separator", ["\x0c", "\x1c"])
def test_read_detections_ends_lines_only_at_newlines(tmp_path, separator):
    # str.splitlines would break these lines in two; they are whitespace
    # between fields, so the bad line after them is still line 3.
    path = tmp_path / "sep.txt"
    good = f"Car 1 2 -1{separator}3.9 1.6 1.56 0 0.9\n"
    path.write_text(good + "\n" + "Car 1 2 -1 3.9 1.6 1.56 0 zero\n", encoding="utf-8")
    with pytest.raises(DetectionParseError, match=r"sep\.txt, line 3: could not convert"):
        read_detections(str(path))
    path.write_text(good + good, encoding="utf-8")
    assert len(read_detections(str(path))) == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("Car 1 2 -1 3.9 1.6 1.56 0 nan", "line 2: non-finite value"),
        ("Car 1 inf -1 3.9 1.6 1.56 0", "line 2: non-finite value"),
        ("Car 1 2 -1 3.9 1.6 1.56", "line 2: expected 8 or 9 fields, got 7"),
        ("Car 1 2 -1 3.9 1.6 1.56 0 0.5 7", "line 2: expected 8 or 9 fields, got 10"),
        ("Car 1 2 -1 3.9 -1.6 1.56 0", r"line 2: box dims must be positive, got \(3.9, -1.6, 1.56\)"),
        ("Car 1 2 -1 3.9 1.6 1.56 0 1.5", r"line 2: score must lie in \[0, 1\], got 1.5"),
    ],
)
def test_read_detections_error_messages(tmp_path, line, message):
    path = tmp_path / "bad.txt"
    path.write_text("Car 1 2 -1 3.9 1.6 1.56 0 0.5\n" + line + "\n")
    with pytest.raises(DetectionParseError, match=message):
        read_detections(str(path))


def test_read_detections_numbers_lines_across_blocks(tmp_path):
    # A bad line past the first 1,024 (the former reader's block) still
    # reports its own line number, and the file parses whole without it.
    path = tmp_path / "long.txt"
    good = "Car 1 2 -1 3.9 1.6 1.56 0 0.5\n"
    path.write_text(good * 1499 + "\n" + "Car 1 2 -1 3.9 1.6 1.56\n" + good * 600)
    with pytest.raises(DetectionParseError, match="line 1501: expected 8 or 9 fields, got 7"):
        read_detections(str(path))
    path.write_text(good * 1499 + "\n" + good * 600)
    assert len(read_detections(str(path))) == 2099


_LINE = b"Car 1 2 -1 3.9 1.6 1.56 0 0.5\n"


@pytest.mark.parametrize(
    "data, message",
    [
        (
            _LINE + b"Car\xff 1 2 -1 3.9 1.6 1.56 0\n",
            "line 2: 'utf-8' codec can't decode byte 0xff in position 3",
        ),
        (_LINE + b"\r\nCar 1 2 -1 3.9 1.6 1.56 0 0.\xe9\n", "line 3: 'utf-8' codec can't decode byte 0xe9"),
        (
            _LINE * 1500 + b"Car 1 2 -1 3.9 1.6 1.56 0 \xed\xa0\x80\n",
            "line 1501: 'utf-8' codec can't decode byte 0xed",
        ),
        # An earlier bad line in the same block is still the one named.
        (b"Car 1 2\n" + _LINE + b"\xff\n", "line 1: expected 8 or 9 fields, got 3"),
    ],
    ids=["class", "score", "past-first-block", "earlier-bad-line"],
)
def test_read_detections_names_the_first_line_that_is_not_utf8(tmp_path, data, message):
    path = tmp_path / "latin1.txt"
    path.write_bytes(data)
    with pytest.raises(DetectionParseError, match=rf"latin1\.txt, {message}"):
        read_detections(str(path))


def test_box_rejects_a_string_yaw():
    with pytest.raises(TypeError):
        Box3D((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), "0.5")

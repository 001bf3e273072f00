"""Property tests for the box-file reader: every file, well formed or
not, reads as the block reader in ``tests/oracles.py`` reads it."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdet.scene import DetectionParseError, read_detections

from oracles import block_read_detections

_GOOD = "Car 1.5 -2.25 -1.0 3.9 1.6 1.56 0.3 0.75\n"
# Tokens float() reads and loadtxt does not, non-finite ones, and ones
# neither reads.
_ODD_TOKENS = ["1_0", "\u0661", "nan", "inf", "Infinity", "+.5e0", "0x1", "1e", "."]
_SEPARATORS = [" ", " ", "\t", "  ", "\xa0", "\u2028", "\x1c"]
_BLANKS = ["", " ", "\x0c", "\t\xa0", "\u2028"]
_ENDS = ["\n", "\n", "\r\n", "\r"]
_NAMES = ["Car", "Pedestrian", "Cyclist", "Class7", "Unknown", "Truck" * 8]
_FAULTS = [None] * 8 + ["token", "count", "dims", "score"]


def _number(draw, lo: float, hi: float) -> str:
    return repr(draw(st.floats(lo, hi, allow_nan=False)))


@st.composite
def _row(draw, scored: bool | None) -> str:
    fields = [draw(st.sampled_from(_NAMES))]
    fields += [_number(draw, -80.0, 80.0) for _ in range(3)]
    fields += [_number(draw, 1e-3, 10.0) for _ in range(3)]
    fields.append(_number(draw, -7.0, 7.0))
    if draw(st.booleans()) if scored is None else scored:
        fields.append(_number(draw, 0.0, 1.0))
    fault = draw(st.sampled_from(_FAULTS))
    if fault == "token":
        fields[draw(st.integers(1, len(fields) - 1))] = draw(st.sampled_from(_ODD_TOKENS))
    elif fault == "count":
        fields = fields[:-1] if draw(st.booleans()) else [*fields, "0.5"]
    elif fault == "dims":
        fields[draw(st.integers(4, 6))] = draw(st.sampled_from(["0.0", "-1.5"]))
    elif fault == "score" and len(fields) == 9:
        fields[8] = draw(st.sampled_from(["1.5", "-0.25"]))
    return draw(st.sampled_from(_SEPARATORS)).join(fields)


@st.composite
def box_files(draw) -> str:
    """Box file text: an optional BOM and 1,030 good lines, then rows
    (all scored, none scored, or mixed) and blank or whitespace-only
    lines with mixed line ends."""
    row = _row(draw(st.sampled_from([True, False, None])))
    lines = draw(st.lists(st.one_of(row, st.sampled_from(_BLANKS)), max_size=8))
    text = "".join(line + draw(st.sampled_from(_ENDS)) for line in lines)
    prefix = _GOOD * draw(st.sampled_from([0, 0, 1030]))
    return ("\ufeff" if draw(st.booleans()) else "") + prefix + text


def _outcome(read, path: str):
    try:
        params, scores, class_ids = read(path)
    except DetectionParseError as exc:
        return str(exc)
    return params.tobytes(), scores.tobytes(), list(class_ids)


def _library(path: str):
    boxes = read_detections(path)
    return boxes.params, boxes.scores, boxes.class_ids


@settings(max_examples=200, deadline=None)
@given(box_files())
@example(_GOOD * 3)
@example(_GOOD + "Car 1 2 -1 3.9 1.6 1.56 0\n")  # mixed 8 and 9 fields
@example(_GOOD + "Car 1 2 -1 3.9 1.6 1_0 0 0.5\n")
@example(_GOOD + "Car 1 2 -1 3.9 1.6 1.56 0 1.5\n")
@example(_GOOD * 1500 + "Car 1 2 -1 3.9 1.6 1.56 0 0.5 7\n")
def test_read_detections_reads_every_file_as_the_block_reader(text):
    with tempfile.TemporaryDirectory() as folder:
        path = str(Path(folder) / "boxes.txt")
        Path(path).write_bytes(text.encode("utf-8"))
        assert _outcome(_library, path) == _outcome(block_read_detections, path)

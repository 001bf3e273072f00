"""The inputs of ``tests/output_hashes.py`` stay valid for this checkout.

That script leaves out any config or refine mode a checkout refuses, so
an entry this checkout refuses would drop out of every comparison
unnoticed; these tests make such an entry fail here instead.
"""

import pytest

from graphdet.cli import build_parser
from graphdet.pipeline import parse_pipeline_config

from output_hashes import CONFIGS, REFINE_MODES


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_every_hashed_config_parses(name):
    parse_pipeline_config(CONFIGS[name])


@pytest.mark.parametrize("name", sorted(REFINE_MODES))
def test_every_hashed_refine_mode_parses(name):
    args = build_parser().parse_args(
        ["refine", "--proposals", "boxes.txt", "--states", "states.txt", *REFINE_MODES[name]]
    )
    assert args.command == "refine"

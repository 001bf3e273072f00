"""The package's public names."""

import graphdet
from graphdet import gnn


def test_every_public_name_resolves():
    assert len(set(graphdet.__all__)) == len(graphdet.__all__)
    assert [name for name in graphdet.__all__ if not hasattr(graphdet, name)] == []


def test_one_update_function_is_exported():
    assert "update" in graphdet.__all__ and graphdet.update is gnn.update
    for name in ("update_vanilla", "update_extended"):
        assert name not in graphdet.__all__
        assert not hasattr(graphdet, name) and not hasattr(gnn, name)

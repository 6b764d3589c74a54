"""Placement mapping semantics."""

import pytest

from repro.dataflow.placement import Placement
from repro.dataflow.tree import complete_binary_tree

TREE = complete_binary_tree(4)
SERVER_HOSTS = {f"s{i}": f"h{i}" for i in range(4)}


def download_all():
    return Placement.all_at_client(TREE, SERVER_HOSTS, "client")


class TestConstruction:
    def test_all_at_client(self):
        placement = download_all()
        for op in TREE.operators():
            assert placement.host_of(op.node_id) == "client"
        for server, host in SERVER_HOSTS.items():
            assert placement.host_of(server) == host


class TestOperations:
    def test_with_move_is_functional(self):
        base = download_all()
        moved = base.with_move("op0", "h0")
        assert moved.host_of("op0") == "h0"
        assert base.host_of("op0") == "client"

    def test_with_move_unknown_node(self):
        with pytest.raises(KeyError):
            download_all().with_move("ghost", "h0")

    def test_moves_from(self):
        base = download_all()
        changed = base.with_move("op0", "h0").with_move("op2", "h3")
        moves = changed.moves_from(base)
        assert moves == [("op0", "client", "h0"), ("op2", "client", "h3")]

    def test_equality_and_hash(self):
        assert download_all() == download_all()
        assert hash(download_all()) == hash(download_all())
        assert download_all() != download_all().with_move("op0", "h1")

    def test_items_sorted(self):
        items = download_all().items()
        assert items == sorted(items)

    def test_assignment_view_matches_dict(self):
        placement = download_all()
        assert dict(placement.assignment) == placement.as_dict()

    def test_getitem_and_contains(self):
        placement = download_all()
        assert placement["op0"] == "client"
        assert "op0" in placement
        assert "ghost" not in placement
        with pytest.raises(KeyError):
            placement["ghost"]

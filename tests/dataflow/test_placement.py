"""Placement mapping semantics."""

import pytest

from repro.dataflow.placement import Placement
from repro.dataflow.tree import CLIENT_ID, complete_binary_tree

TREE = complete_binary_tree(4)
SERVER_HOSTS = {f"s{i}": f"h{i}" for i in range(4)}
HOSTS = [f"h{i}" for i in range(4)] + ["client"]


def download_all():
    return Placement.all_at_client(TREE, SERVER_HOSTS, "client")


class TestConstruction:
    def test_all_at_client(self):
        placement = download_all()
        for op in TREE.operators():
            assert placement.host_of(op.node_id) == "client"
        for server, host in SERVER_HOSTS.items():
            assert placement.host_of(server) == host

    def test_validated_accepts_complete(self):
        placement = Placement.validated(
            TREE, download_all().as_dict(), HOSTS, SERVER_HOSTS, "client"
        )
        assert placement == download_all()

    def test_validated_rejects_missing_node(self):
        partial = download_all().as_dict()
        del partial["op0"]
        with pytest.raises(ValueError):
            Placement.validated(TREE, partial, HOSTS, SERVER_HOSTS, "client")

    def test_validated_rejects_unknown_host(self):
        assignment = download_all().as_dict()
        assignment["op0"] = "mars"
        with pytest.raises(ValueError):
            Placement.validated(TREE, assignment, HOSTS, SERVER_HOSTS, "client")

    def test_validated_rejects_moved_server(self):
        assignment = download_all().as_dict()
        assignment["s0"] = "h1"
        with pytest.raises(ValueError):
            Placement.validated(TREE, assignment, HOSTS, SERVER_HOSTS, "client")

    def test_validated_rejects_moved_client(self):
        assignment = download_all().as_dict()
        assignment[CLIENT_ID] = "h0"
        with pytest.raises(ValueError):
            Placement.validated(TREE, assignment, HOSTS, SERVER_HOSTS, "client")

    def test_validated_rejects_unknown_node(self):
        assignment = download_all().as_dict()
        assignment["ghost"] = "h0"
        with pytest.raises(ValueError):
            Placement.validated(TREE, assignment, HOSTS, SERVER_HOSTS, "client")


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

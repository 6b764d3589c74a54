"""Combination tree builders and validation."""

import pytest

from repro.dataflow.tree import (
    CLIENT_ID,
    CombinationTree,
    TreeNode,
    complete_binary_tree,
    left_deep_tree,
)


class TestCompleteBinaryTree:
    def test_eight_servers_shape(self):
        tree = complete_binary_tree(8)
        assert len(tree.servers()) == 8
        assert len(tree.operators()) == 7
        assert len(tree) == 16  # 8 + 7 + client
        assert tree.depth() == 3

    def test_power_of_two_counts(self):
        for n in (2, 4, 16, 32):
            tree = complete_binary_tree(n)
            assert len(tree.servers()) == n
            assert len(tree.operators()) == n - 1

    def test_non_power_of_two(self):
        tree = complete_binary_tree(6)
        assert len(tree.servers()) == 6
        assert len(tree.operators()) == 5

    def test_minimum_two_servers(self):
        with pytest.raises(ValueError):
            complete_binary_tree(1)

    def test_client_consumes_root(self):
        tree = complete_binary_tree(4)
        assert tree.client.node_id == CLIENT_ID
        root = tree.root_operator
        assert root.parent == CLIENT_ID
        assert root.is_operator

    def test_operator_levels_stagger_bottom_up(self):
        tree = complete_binary_tree(8)
        # Leaf operators (fed by servers) at level 0, root at level 2.
        leaf_ops = [
            op
            for op in tree.operators()
            if all(tree.node(c).is_server for c in op.children)
        ]
        assert {op.level for op in leaf_ops} == {0}
        assert tree.root_operator.level == 2

    def test_depths_from_client(self):
        tree = complete_binary_tree(4)
        assert tree.client.depth == 0
        assert tree.root_operator.depth == 1
        for server in tree.servers():
            assert server.depth == 3


class TestLeftDeepTree:
    def test_chain_shape(self):
        tree = left_deep_tree(8)
        assert len(tree.servers()) == 8
        assert len(tree.operators()) == 7
        assert tree.depth() == 7

    def test_chain_linkage(self):
        tree = left_deep_tree(4)
        # op0 combines s0+s1; op1 combines op0+s2; op2 combines op1+s3.
        assert tuple(tree.node("op0").children) == ("s0", "s1")
        assert tuple(tree.node("op1").children) == ("op0", "s2")
        assert tuple(tree.node("op2").children) == ("op1", "s3")
        assert tree.root_operator.node_id == "op2"

    def test_minimum_two_servers(self):
        with pytest.raises(ValueError):
            left_deep_tree(1)


class TestTreeQueries:
    def test_path_to_client(self):
        tree = complete_binary_tree(4)
        path = tree.path_to_client("s0")
        assert path[0] == "s0"
        assert path[-1] == CLIENT_ID
        assert len(path) == 4

    def test_unknown_node_raises(self):
        tree = complete_binary_tree(4)
        with pytest.raises(KeyError):
            tree.node("nope")

    def test_contains_and_len(self):
        tree = complete_binary_tree(2)
        assert "s0" in tree
        assert "ghost" not in tree
        assert len(tree) == 4


class TestValidation:
    def test_missing_client_rejected(self):
        nodes = [TreeNode("s0", "server")]
        with pytest.raises(ValueError):
            CombinationTree(nodes)

    def test_duplicate_ids_rejected(self):
        nodes = [
            TreeNode(CLIENT_ID, "client", children=("s0",)),
            TreeNode("s0", "server", parent=CLIENT_ID),
            TreeNode("s0", "server", parent=CLIENT_ID),
        ]
        with pytest.raises(ValueError):
            CombinationTree(nodes)

    def test_operator_arity_enforced(self):
        nodes = [
            TreeNode(CLIENT_ID, "client", children=("op0",)),
            TreeNode("op0", "operator", children=("s0",), parent=CLIENT_ID),
            TreeNode("s0", "server", parent="op0"),
        ]
        with pytest.raises(ValueError):
            CombinationTree(nodes)

    def test_unmirrored_link_rejected(self):
        nodes = [
            TreeNode(CLIENT_ID, "client", children=("op0",)),
            TreeNode("op0", "operator", children=("s0", "s1"), parent=CLIENT_ID),
            TreeNode("s0", "server", parent="op0"),
            TreeNode("s1", "server", parent=CLIENT_ID),  # wrong parent
        ]
        with pytest.raises(ValueError):
            CombinationTree(nodes)

    def test_unreachable_node_rejected(self):
        nodes = [
            TreeNode(CLIENT_ID, "client", children=("op0",)),
            TreeNode("op0", "operator", children=("s0", "s1"), parent=CLIENT_ID),
            TreeNode("s0", "server", parent="op0"),
            TreeNode("s1", "server", parent="op0"),
            TreeNode("orphan", "server", parent=None),
        ]
        with pytest.raises(ValueError):
            CombinationTree(nodes)

"""Combination trees: servers at the leaves, operators inside, client on top.

Two builders are provided, matching the paper's §4:

* :func:`complete_binary_tree` — "maximally bushy"; composition operations
  are paired up level by level.  This is the paper's default order.
* :func:`left_deep_tree` — a linear chain, "often used for database query
  plans"; used in the combination-order experiment (Figure 10).

Node ids are stable strings (``"s0"``, ``"op3"``, ``"client"``) so they can
be used as actor addresses and placement keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

#: The id of the client (root) node in every tree.
CLIENT_ID = "client"


@dataclass(frozen=True)
class TreeNode:
    """One node of a combination tree."""

    node_id: str
    #: "server", "operator" or "client".
    role: str
    #: Child node ids (producers).  Empty for servers.
    children: tuple[str, ...] = ()
    #: Parent node id (consumer).  None for the client.
    parent: Optional[str] = None
    #: Depth measured from the client (client = 0).
    depth: int = 0
    #: Level measured from the deepest operator layer upward; used for
    #: the local algorithm's staggered epochs (§2.3).
    level: int = 0

    @property
    def is_server(self) -> bool:
        return self.role == "server"

    @property
    def is_operator(self) -> bool:
        return self.role == "operator"

    @property
    def is_client(self) -> bool:
        return self.role == "client"


class CombinationTree:
    """An immutable data-flow tree.

    Build via the module-level builders or from explicit parent links; the
    constructor validates shape (single root named ``client``, binary
    operators, servers as leaves).
    """

    def __init__(self, nodes: Sequence[TreeNode]) -> None:
        self._nodes: dict[str, TreeNode] = {}
        for node in nodes:
            if node.node_id in self._nodes:
                raise ValueError(f"duplicate node id {node.node_id!r}")
            self._nodes[node.node_id] = node
        self._validate()

    def _validate(self) -> None:
        if CLIENT_ID not in self._nodes:
            raise ValueError(f"tree has no {CLIENT_ID!r} node")
        client = self._nodes[CLIENT_ID]
        if not client.is_client or client.parent is not None:
            raise ValueError("client node must be the parentless root")
        if len(client.children) != 1:
            raise ValueError("client must consume exactly one node")
        for node in self._nodes.values():
            if node.is_server and node.children:
                raise ValueError(f"server {node.node_id!r} has children")
            if node.is_operator and len(node.children) != 2:
                raise ValueError(
                    f"operator {node.node_id!r} must have exactly 2 children"
                )
            if node.parent is not None and node.parent not in self._nodes:
                raise ValueError(f"{node.node_id!r} has unknown parent {node.parent!r}")
            for child in node.children:
                if child not in self._nodes:
                    raise ValueError(f"{node.node_id!r} has unknown child {child!r}")
                if self._nodes[child].parent != node.node_id:
                    raise ValueError(
                        f"child link {node.node_id!r}->{child!r} is not mirrored"
                    )
        # Reachability: every node must be reachable from the client.
        seen: set[str] = set()
        stack = [CLIENT_ID]
        while stack:
            nid = stack.pop()
            if nid in seen:
                raise ValueError(f"cycle through {nid!r}")
            seen.add(nid)
            stack.extend(self._nodes[nid].children)
        if seen != set(self._nodes):
            orphans = sorted(set(self._nodes) - seen)
            raise ValueError(f"unreachable nodes: {orphans!r}")

    # -- accessors ----------------------------------------------------------
    def node(self, node_id: str) -> TreeNode:
        """The node with the given id."""
        try:
            return self._nodes[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r}") from None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def client(self) -> TreeNode:
        """The root node."""
        return self._nodes[CLIENT_ID]

    @property
    def root_operator(self) -> TreeNode:
        """The operator (or server) feeding the client."""
        return self._nodes[self.client.children[0]]

    def nodes(self) -> Iterator[TreeNode]:
        """All nodes in deterministic (sorted-id) order."""
        return iter(sorted(self._nodes.values(), key=lambda n: n.node_id))

    def servers(self) -> list[TreeNode]:
        """Leaf nodes, sorted by id."""
        return [n for n in self.nodes() if n.is_server]

    def operators(self) -> list[TreeNode]:
        """Internal combination nodes, sorted by id."""
        return [n for n in self.nodes() if n.is_operator]

    def depth(self) -> int:
        """Number of operator levels (1 for a single operator)."""
        operators = self.operators()
        if not operators:
            return 0
        return max(op.level for op in operators) + 1

    def path_to_client(self, node_id: str) -> list[str]:
        """Node ids from ``node_id`` up to and including the client."""
        path = [node_id]
        node = self.node(node_id)
        while node.parent is not None:
            path.append(node.parent)
            node = self.node(node.parent)
        return path


def _finalize(parents: dict[str, Optional[str]], children: dict[str, list[str]],
              roles: dict[str, str]) -> CombinationTree:
    """Assemble TreeNodes with depth/level annotations."""
    depths: dict[str, int] = {CLIENT_ID: 0}
    order = [CLIENT_ID]
    index = 0
    while index < len(order):
        nid = order[index]
        index += 1
        for child in children.get(nid, ()):
            depths[child] = depths[nid] + 1
            order.append(child)

    # level: distance above the deepest operator layer, operators only
    # (servers/client get level 0; they never take epoch decisions).
    operator_depths = [depths[n] for n, r in roles.items() if r == "operator"]
    max_depth = max(operator_depths) if operator_depths else 0
    nodes = []
    for nid, role in roles.items():
        level = max_depth - depths[nid] if role == "operator" else 0
        nodes.append(
            TreeNode(
                node_id=nid,
                role=role,
                children=tuple(children.get(nid, ())),
                parent=parents.get(nid),
                depth=depths[nid],
                level=level,
            )
        )
    return CombinationTree(nodes)


def complete_binary_tree(num_servers: int) -> CombinationTree:
    """A (maximally bushy) balanced binary combination tree.

    For power-of-two ``num_servers`` this is the complete binary tree of
    the paper; other counts produce the natural balanced pairing.
    """
    if num_servers < 2:
        raise ValueError(f"need at least 2 servers, got {num_servers!r}")
    roles = {CLIENT_ID: "client"}
    parents: dict[str, Optional[str]] = {CLIENT_ID: None}
    children: dict[str, list[str]] = {CLIENT_ID: []}

    frontier = [f"s{i}" for i in range(num_servers)]
    for server in frontier:
        roles[server] = "server"
        children[server] = []

    op_counter = 0
    while len(frontier) > 1:
        next_frontier = []
        for i in range(0, len(frontier) - 1, 2):
            op_id = f"op{op_counter}"
            op_counter += 1
            roles[op_id] = "operator"
            children[op_id] = [frontier[i], frontier[i + 1]]
            parents[frontier[i]] = op_id
            parents[frontier[i + 1]] = op_id
            next_frontier.append(op_id)
        if len(frontier) % 2 == 1:
            next_frontier.append(frontier[-1])
        frontier = next_frontier

    root = frontier[0]
    parents[root] = CLIENT_ID
    children[CLIENT_ID] = [root]
    return _finalize(parents, children, roles)


def left_deep_tree(num_servers: int) -> CombinationTree:
    """A linear (left-deep) combination chain: ((s0+s1)+s2)+... (Figure 5)."""
    if num_servers < 2:
        raise ValueError(f"need at least 2 servers, got {num_servers!r}")
    roles = {CLIENT_ID: "client"}
    parents: dict[str, Optional[str]] = {CLIENT_ID: None}
    children: dict[str, list[str]] = {CLIENT_ID: []}
    for i in range(num_servers):
        roles[f"s{i}"] = "server"
        children[f"s{i}"] = []

    previous = "s0"
    for i in range(1, num_servers):
        op_id = f"op{i - 1}"
        roles[op_id] = "operator"
        children[op_id] = [previous, f"s{i}"]
        parents[previous] = op_id
        parents[f"s{i}"] = op_id
        previous = op_id

    parents[previous] = CLIENT_ID
    children[CLIENT_ID] = [previous]
    return _finalize(parents, children, roles)

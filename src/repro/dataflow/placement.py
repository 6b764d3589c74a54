"""Placements: the assignment of tree nodes to hosts."""

from __future__ import annotations

from typing import Callable, Mapping

from repro.dataflow.tree import CLIENT_ID, CombinationTree


def canonical_link(a: str, b: str) -> "tuple[str, str]":
    """The order-independent key for a host pair."""
    return (a, b) if a < b else (b, a)


def cross_host_links(
    tree: CombinationTree, host_of: Callable[[str], str]
) -> "frozenset[tuple[str, str]]":
    """The canonical host pairs the tree's edges cross when each node
    runs on ``host_of(node_id)``: a placement's ``host_of``, or a running
    query's, which reads the actors' actual hosts."""
    links = set()
    for node in tree.nodes():
        if node.parent is not None:
            src = host_of(node.node_id)
            dst = host_of(node.parent)
            if src != dst:
                links.add(canonical_link(src, dst))
    return frozenset(links)


class Placement:
    """An assignment of every tree node to a host.

    Servers and the client are *pinned* (data is not replicated and the
    client is where the results must arrive); operators are free.  The
    class is a thin, hashable mapping — the placement
    algorithms create many of these while searching.
    """

    __slots__ = ("_assignment",)

    def __init__(self, assignment: Mapping[str, str]) -> None:
        self._assignment = dict(assignment)

    @classmethod
    def all_at_client(
        cls,
        tree: CombinationTree,
        server_hosts: Mapping[str, str],
        client_host: str,
    ) -> "Placement":
        """The download-all placement: every operator at the client."""
        assignment = {CLIENT_ID: client_host}
        for server in tree.servers():
            assignment[server.node_id] = server_hosts[server.node_id]
        for op in tree.operators():
            assignment[op.node_id] = client_host
        return cls(assignment)

    # -- mapping interface ---------------------------------------------------
    def host_of(self, node_id: str) -> str:
        """The host the node is placed on."""
        try:
            return self._assignment[node_id]
        except KeyError:
            raise KeyError(f"placement has no node {node_id!r}") from None

    def __getitem__(self, node_id: str) -> str:
        return self.host_of(node_id)

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._assignment

    def __len__(self) -> int:
        return len(self._assignment)

    def items(self):
        """(node_id, host) pairs in sorted node order."""
        return sorted(self._assignment.items())

    def as_dict(self) -> dict[str, str]:
        """A mutable copy of the underlying mapping."""
        return dict(self._assignment)

    @property
    def assignment(self) -> Mapping[str, str]:
        """Read-only view of the node→host mapping (hot-path accessor)."""
        return self._assignment

    def with_move(self, node_id: str, host: str) -> "Placement":
        """A copy with one node re-assigned."""
        if node_id not in self._assignment:
            raise KeyError(f"placement has no node {node_id!r}")
        updated = dict(self._assignment)
        updated[node_id] = host
        return Placement(updated)

    def moves_from(self, other: "Placement") -> list[tuple[str, str, str]]:
        """``(node, old_host, new_host)`` for nodes placed differently."""
        moves = []
        for node_id, host in self.items():
            old = other.host_of(node_id)
            if old != host:
                moves.append((node_id, old, host))
        return moves

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Placement):
            return NotImplemented
        return self._assignment == other._assignment

    def __hash__(self) -> int:
        return hash(frozenset(self._assignment.items()))

    def __repr__(self) -> str:
        ops = {k: v for k, v in self._assignment.items() if k.startswith("op")}
        return f"<Placement ops={ops!r}>"

"""Consistent-hash ring routing :class:`~repro.serve.request.BatchKey`s.

The fleet routes every request to the shard that owns its batch key, so
all requests of one compatibility class coalesce in *one* shard's
micro-batcher and that shard's :class:`~repro.serve.plan_cache.PlanCache`
stays hot for exactly the keys it owns. Plain modulo routing would reshuffle almost every key whenever a
shard joins or leaves (cold caches fleet-wide on every scaling action);
a consistent-hash ring with virtual nodes remaps only ~``1/N`` of the
key space per change, and the virtual nodes keep the per-shard arcs
balanced (the classic Karger/"Dynamo" construction).

Hashing is :mod:`hashlib` SHA-1 — deterministic across processes and
runs, unlike the salted builtin ``hash`` — over a canonical string form
of the key, so a request routes identically wherever it is hashed.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from typing import Iterable

__all__ = ["HashRing", "key_position", "ring_token"]

#: The ring is the integer interval ``[0, 2**64)``.
_RING_BITS = 64
_RING_SIZE = 1 << _RING_BITS


def _hash64(token: str) -> int:
    """Deterministic 64-bit ring position of an arbitrary token."""
    digest = hashlib.sha1(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def ring_token(key: object) -> str:
    """A canonical, process-stable string form of a routing key.

    :class:`~repro.serve.request.BatchKey` is a frozen dataclass whose
    ``repr`` enumerates every field deterministically; strings pass
    through unchanged.
    """
    return key if isinstance(key, str) else repr(key)


def key_position(key: object) -> int:
    """Ring position of a routing key (``BatchKey`` or string)."""
    return _hash64(ring_token(key))


class HashRing:
    """A consistent-hash ring with virtual nodes.

    Not thread-safe on its own: the owning
    :class:`~repro.fleet.service.FleetService` serializes mutation and
    lookup under its admission lock. Lookup is ``O(log(nodes x vnodes))``
    via bisection over the sorted virtual-node positions.
    """

    def __init__(self, virtual_nodes: int = 64) -> None:
        if virtual_nodes <= 0:
            raise ValueError(f"virtual_nodes must be positive, got {virtual_nodes}")
        self.virtual_nodes = virtual_nodes
        self._positions: list[int] = []  # sorted virtual-node positions
        self._owner: dict[int, str] = {}  # position -> node name

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> list[str]:
        """Member node names, sorted."""
        return sorted(set(self._owner.values()))

    def __len__(self) -> int:
        return len(set(self._owner.values()))

    def __contains__(self, node: str) -> bool:
        return node in set(self._owner.values())

    def _vnode_positions(self, node: str) -> list[int]:
        return [self._hash_vnode(node, i) for i in range(self.virtual_nodes)]

    @staticmethod
    def _hash_vnode(node: str, index: int) -> int:
        return _hash64(f"{node}#vnode{index}")

    def add(self, node: str) -> None:
        """Insert ``node``'s virtual nodes (idempotence is an error)."""
        if node in self:
            raise ValueError(f"node {node!r} already on the ring")
        for position in self._vnode_positions(node):
            # SHA-1 collisions between distinct vnode tokens are not a
            # practical concern; last-write-wins keeps the map consistent
            self._owner[position] = node
        self._positions = sorted(self._owner)

    def remove(self, node: str) -> None:
        """Remove ``node``'s virtual nodes; its arcs fall to the successors."""
        if node not in self:
            raise KeyError(f"node {node!r} not on the ring")
        self._owner = {p: n for p, n in self._owner.items() if n != node}
        self._positions = sorted(self._owner)

    # -- routing -------------------------------------------------------------

    def node_for(self, key: object) -> str:
        """The node owning ``key``: first virtual node clockwise of its hash."""
        if not self._positions:
            raise LookupError("hash ring is empty (no shards)")
        position = key_position(key)
        index = bisect_right(self._positions, position)
        if index == len(self._positions):
            index = 0  # wrap past the top of the ring
        return self._owner[self._positions[index]]

    def assignments(self, keys: Iterable[object]) -> dict[str, str]:
        """``{ring_token(key): owner}`` for a set of keys (remap studies)."""
        return {ring_token(key): self.node_for(key) for key in keys}

    # -- introspection -------------------------------------------------------

    def occupancy(self) -> dict[str, float]:
        """Exact arc-length share of the ring owned by each node.

        Each virtual node owns the arc from its predecessor (exclusive)
        to itself (inclusive); shares sum to 1.0.
        """
        if not self._positions:
            return {}
        shares: dict[str, float] = {name: 0.0 for name in self.nodes}
        previous = self._positions[-1] - _RING_SIZE  # wrap-around arc
        for position in self._positions:
            shares[self._owner[position]] += (position - previous) / _RING_SIZE
            previous = position
        return shares

    def __repr__(self) -> str:
        return (
            f"HashRing(nodes={len(self)}, virtual_nodes={self.virtual_nodes}, "
            f"positions={len(self._positions)})"
        )

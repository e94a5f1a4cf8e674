"""Seeded consistent-hash ring for session -> shard routing.

The ring is the fleet's only placement authority: initial session
assignment, failover re-homing, and rebalancer targeting all ask it the
same question ("which alive shard owns this session?") and get the same
deterministic answer.  Classic consistent hashing with virtual nodes:
every shard contributes ``vnodes`` points on a 64-bit ring (SHA-256 of
``"<seed>:shard:<id>:<replica>"``), a session hashes to one point
(``"<seed>:session:<id>"``), and routing walks clockwise to the first
shard point.

Properties the fleet leans on:

* **stability** — removing a shard only remaps the sessions that hashed
  to its arcs; everyone else keeps their placement (bounded failover
  churn).
* **determinism** — SHA-256 of seeded strings, no process-dependent
  ``hash()``; two fleets with the same seed and member set route
  identically, which is what makes fleet reports byte-diffable.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field

from repro.recover.configio import decode, encode

#: Ring positions are the top 64 bits of a SHA-256 digest.
_RING_BITS = 64


def _digest64(key: str) -> int:
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


@dataclass(eq=False)
class HashRing:
    """Consistent-hash ring over shard ids with virtual nodes.

    Its fields are what a checkpoint stores; the ring points are derived
    from them.
    """

    vnodes: int = 64
    seed: int = 0
    #: Alive shard ids, sorted.
    nodes: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.vnodes <= 0:
            raise ValueError(f"vnodes must be positive, got {self.vnodes}")
        #: Sorted parallel arrays: ring position -> owning shard.
        self._points: list[int] = []
        self._owners: list[int] = []
        members, self.nodes = self.nodes, []
        for shard_id in members:
            self.add(shard_id)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def _shard_points(self, shard_id: int) -> list[int]:
        return [
            _digest64(f"{self.seed}:shard:{shard_id}:{replica}")
            for replica in range(self.vnodes)
        ]

    def add(self, shard_id: int) -> None:
        """Join one shard (its virtual nodes enter the ring)."""
        shard_id = int(shard_id)
        if shard_id in self.nodes:
            raise ValueError(f"shard {shard_id} is already on the ring")
        bisect.insort(self.nodes, shard_id)
        for point in self._shard_points(shard_id):
            index = bisect.bisect_left(self._points, point)
            self._points.insert(index, point)
            self._owners.insert(index, shard_id)

    def remove(self, shard_id: int) -> None:
        """Leave the ring (failover / drain); other arcs are untouched."""
        shard_id = int(shard_id)
        if shard_id not in self.nodes:
            raise ValueError(f"shard {shard_id} is not on the ring")
        self.nodes.remove(shard_id)
        keep = [
            (point, owner)
            for point, owner in zip(self._points, self._owners)
            if owner != shard_id
        ]
        self._points = [point for point, _ in keep]
        self._owners = [owner for _, owner in keep]

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, shard_id: int) -> bool:
        return int(shard_id) in self.nodes

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, session_id: int, avoid: "int | None" = None) -> int:
        """Owning shard of ``session_id`` (clockwise walk from its hash).

        ``avoid`` skips one shard's arcs — used when migrating a session
        *off* a shard that is still alive: the session lands where the
        ring would place it if that shard were gone, so a later real
        removal does not move it again.
        """
        if not self.nodes:
            raise RuntimeError("ring has no alive shards to route to")
        if avoid is not None and self.nodes == [int(avoid)]:
            raise RuntimeError(
                f"cannot route around shard {avoid}: it is the only shard"
            )
        point = _digest64(f"{self.seed}:session:{int(session_id)}")
        start = bisect.bisect_right(self._points, point)
        n = len(self._points)
        for offset in range(n):
            owner = self._owners[(start + offset) % n]
            if avoid is None or owner != int(avoid):
                return owner
        raise RuntimeError("ring walk found no eligible shard")  # pragma: no cover

    def assignment(self, session_ids: "list[int]") -> dict[int, list[int]]:
        """Route many sessions at once: shard id -> sorted session ids.

        Every alive shard appears in the result, hosting ``[]`` when no
        session hashed to its arcs.
        """
        placement: dict[int, list[int]] = {shard: [] for shard in self.nodes}
        for session_id in sorted(int(s) for s in session_ids):
            placement[self.route(session_id)].append(session_id)
        return placement

    # ------------------------------------------------------------------
    # Snapshot protocol (repro.recover)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        return encode(self)

    @classmethod
    def from_state(cls, state: dict, path: str = "") -> "HashRing":
        return decode(cls, state, path)

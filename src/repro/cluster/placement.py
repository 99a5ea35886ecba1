"""Placement groups — gang allocation of bundles across nodes."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from repro.cluster.resources import ResourceBundle

_group_counter = itertools.count()


@dataclass(frozen=True)
class BundlePlacement:
    """One bundle pinned to one node."""

    node_id: str
    bundle: ResourceBundle


class PlacementGroup:
    """An atomically-allocated set of bundles (all-or-nothing).

    Mirrors Ray placement groups: a task that needs N actor slots reserves
    them together so partially-scheduled tasks never deadlock the pool.
    Bundles are packed: nodes fill in id order, minimising fragmentation
    (Ray's default for data-local actors).
    """

    def __init__(self, placements: list[BundlePlacement]) -> None:
        if not placements:
            raise ValueError("a placement group needs at least one bundle")
        self.group_id = f"pg-{next(_group_counter):05d}"
        self.placements = list(placements)
        self.released = False

    @property
    def node_ids(self) -> list[str]:
        """Node of each bundle, aligned with :attr:`placements`."""
        return [placement.node_id for placement in self.placements]

    def __repr__(self) -> str:
        return f"PlacementGroup({self.group_id}, {len(self.placements)} bundles)"

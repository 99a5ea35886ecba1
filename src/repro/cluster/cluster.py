"""The elastic Kubernetes-like cluster hosting the logical simulation."""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Sequence

from repro.cluster.placement import BundlePlacement, PlacementGroup
from repro.cluster.resources import NodeSpec, ResourceBundle, WorkerNode


class K8sCluster:
    """A pool of worker nodes with elastic scaling and gang allocation.

    The paper "employs Kubernetes (k8s) nodes for elastic scaling to
    accommodate simulation demands of varying scales" (§IV-A).  The default
    experimental configuration is 200 CPU cores and 300 GB of memory.

    Parameters
    ----------
    nodes:
        Initial node specs (``PlatformConfig.cluster_nodes`` defaults to the
        paper's 200-core/300-GB configuration).
    """

    def __init__(self, nodes: Sequence[NodeSpec]) -> None:
        self._node_counter = itertools.count()
        self.nodes: dict[str, WorkerNode] = {}
        #: Nodes per spec, kept by the two node mutators: capacity queries scan no node.
        self.spec_counts: Counter[NodeSpec] = Counter()
        self._group_nodes: dict[str, list[tuple[WorkerNode, ResourceBundle]]] = {}
        for spec in nodes:
            self.add_node(spec)

    # ------------------------------------------------------------------
    # elastic scaling
    # ------------------------------------------------------------------
    def add_node(self, spec: NodeSpec) -> str:
        """Scale up by one node; returns its id."""
        node_id = f"node-{next(self._node_counter):04d}"
        self.nodes[node_id] = WorkerNode(node_id, spec)
        self.spec_counts[spec] += 1
        return node_id

    def remove_node(self, node_id: str) -> None:
        """Scale down; only idle nodes can be drained."""
        node = self.nodes.get(node_id)
        if node is None:
            raise KeyError(f"unknown node {node_id!r}")
        if not node.idle:
            raise RuntimeError(f"node {node_id} still hosts allocations")
        del self.nodes[node_id]
        self.spec_counts[node.spec] -= 1

    # ------------------------------------------------------------------
    # capacity queries
    # ------------------------------------------------------------------
    @property
    def total_cpus(self) -> float:
        """Provisioned CPU cores across all nodes."""
        return sum(node.spec.cpus for node in self.nodes.values())

    @property
    def free_cpus(self) -> float:
        """Currently unallocated CPU cores."""
        return sum(node.free_cpus for node in self.nodes.values())

    # ------------------------------------------------------------------
    # gang allocation
    # ------------------------------------------------------------------
    def allocate(self, bundles: Sequence[ResourceBundle]) -> PlacementGroup | None:
        """Atomically place every bundle, or place nothing and return None."""
        placements = self._place(bundles)
        if placements is None:
            return None
        group = PlacementGroup([BundlePlacement(node.node_id, bundle) for node, bundle in placements])
        self._group_nodes[group.group_id] = placements
        return group

    def release(self, group: PlacementGroup) -> None:
        """Free every bundle of a previously allocated group."""
        if group.released:
            raise RuntimeError(f"{group} was already released")
        placements = self._group_nodes.pop(group.group_id, None)
        if placements is None:
            raise KeyError(f"{group} is not allocated on this cluster")
        for node, bundle in placements:
            node.release(bundle)
        group.released = True

    # ------------------------------------------------------------------
    def _place(self, bundles: Sequence[ResourceBundle]) -> list[tuple[WorkerNode, ResourceBundle]] | None:
        """Find and commit the first node (in id order) that fits each bundle, or commit nothing.

        Placement works against shadow free-capacity counters so a failed
        gang attempt leaves the cluster untouched.
        """
        if not bundles:
            raise ValueError("cannot allocate an empty bundle list")
        shadow = {
            node_id: [node.free_cpus, node.free_memory_gb, node.free_gpus]
            for node_id, node in self.nodes.items()
        }

        def shadow_fits(node_id: str, bundle: ResourceBundle) -> bool:
            free = shadow[node_id]
            return (
                bundle.cpus <= free[0] + 1e-9
                and bundle.memory_gb <= free[1] + 1e-9
                and bundle.gpus <= free[2] + 1e-9
            )

        def shadow_take(node_id: str, bundle: ResourceBundle) -> None:
            free = shadow[node_id]
            free[0] -= bundle.cpus
            free[1] -= bundle.memory_gb
            free[2] -= bundle.gpus

        chosen: list[tuple[WorkerNode, ResourceBundle]] = []
        node_ids = sorted(self.nodes)
        for bundle in bundles:
            target = next((n for n in node_ids if shadow_fits(n, bundle)), None)
            if target is None:
                return None
            shadow_take(target, bundle)
            chosen.append((self.nodes[target], bundle))

        for node, bundle in chosen:
            node.allocate(bundle)
        return chosen

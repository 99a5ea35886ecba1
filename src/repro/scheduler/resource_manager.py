"""The Resource Manager: freezing and releasing heterogeneous resources.

§III-B: "This module oversees the querying, freezing, and releasing of
heterogeneous resources, while also enabling dynamic scaling up or down.
Resource Manager continuously monitors physical resources in real-time and
synchronizes resource utilization information with the Task Manager."

Reservations are bookkeeping at the granularity the scheduler reasons in —
logical *unit bundles* and per-grade phone counts; physical placement
happens later inside the execution tiers against the same capacity.  Every
scheduling pass takes a snapshot, so capacity is counted where it changes
(``add_phones`` / ``remove_phones``, ``K8sCluster.add_node`` /
``remove_node``) and a snapshot reads the counts: no phone, no node.  The
Task Manager is not polled: capacity growth reaches its queue through
``TaskManager.notify_resources_changed``, which the caller of
:meth:`ResourceManager.scale_up` / ``add_phones`` invokes afterwards.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.checks import check_count
from repro.cluster.cluster import K8sCluster
from repro.cluster.resources import NodeSpec, ResourceBundle
from repro.phones.phone import VirtualPhone
from repro.scheduler.task import TaskSpec


@dataclass
class ResourceSnapshot:
    """Free capacity at a point in time (what the scheduler sees)."""

    free_bundles: int
    free_phones: dict[str, int] = field(default_factory=dict)

    def copy(self) -> ResourceSnapshot:
        """An independent copy the scheduler can decrement speculatively."""
        return ResourceSnapshot(self.free_bundles, dict(self.free_phones))

    def fits(self, spec: TaskSpec) -> bool:
        """Whether this snapshot covers a task's full request."""
        if spec.total_bundles_requested > self.free_bundles:
            return False
        for grade, count in spec.phones_requested().items():
            if count > self.free_phones.get(grade, 0):
                return False
        return True

    def commit(self, spec: TaskSpec) -> None:
        """Subtract a task's request (after :meth:`fits`)."""
        self.free_bundles -= spec.total_bundles_requested
        for grade, count in spec.phones_requested().items():
            self.free_phones[grade] = self.free_phones.get(grade, 0) - count


@dataclass
class ResourceGrant:
    """A frozen reservation, held for a task's lifetime."""

    task_id: str
    bundles: int
    phones: dict[str, int]


class ResourceManager:
    """Tracks unit-bundle and phone capacity across concurrent tasks.

    Parameters
    ----------
    cluster:
        The logical tier's node pool.
    phones:
        The full physical fleet (local + MSP).
    unit_bundle:
        The indivisible logical allocation unit (paper example:
        1 CPU + 1 GB).
    """

    def __init__(self, cluster: K8sCluster, phones: list[VirtualPhone], unit_bundle: ResourceBundle) -> None:
        self.cluster = cluster
        self.phones: list[VirtualPhone] = []
        self._phones_by_grade: Counter[str] = Counter()
        self.unit_bundle = unit_bundle
        self._frozen_bundles = 0
        self._frozen_phones: dict[str, int] = {}
        self._grants: dict[str, ResourceGrant] = {}
        self.add_phones(phones)

    # ------------------------------------------------------------------
    # capacity queries
    # ------------------------------------------------------------------
    def total_bundles(self) -> int:
        """Unit bundles the cluster can host in total.

        Per-node capacity is the binding minimum across resource
        dimensions (a 20-core/30-GB node hosts 20 one-CPU/one-GB units).
        """
        unit = self.unit_bundle
        total = 0
        for spec, count in self.cluster.spec_counts.items():
            dims = ((spec.cpus, unit.cpus), (spec.memory_gb, unit.memory_gb), (spec.gpus, unit.gpus))
            total += count * int(min(have / need for have, need in dims if need > 0))
        return total

    def phones_by_grade(self) -> dict[str, int]:
        """Total phone counts per grade."""
        return dict(self._phones_by_grade)

    def snapshot(self) -> ResourceSnapshot:
        """Current free capacity after existing freezes."""
        free_phones = self.phones_by_grade()
        for grade, frozen in self._frozen_phones.items():
            free_phones[grade] = free_phones.get(grade, 0) - frozen
        return ResourceSnapshot(
            free_bundles=self.total_bundles() - self._frozen_bundles,
            free_phones=free_phones,
        )

    # ------------------------------------------------------------------
    # freeze / release
    # ------------------------------------------------------------------
    def freeze(self, spec: TaskSpec) -> ResourceGrant:
        """Reserve a task's full request; raises if anything is short."""
        if spec.task_id in self._grants:
            raise RuntimeError(f"task {spec.task_id!r} already holds a grant")
        snapshot = self.snapshot()
        if not snapshot.fits(spec):
            raise RuntimeError(
                f"insufficient resources for task {spec.task_id!r}: "
                f"need {spec.total_bundles_requested} bundles "
                f"(free {snapshot.free_bundles}) and phones {spec.phones_requested()} "
                f"(free {snapshot.free_phones})"
            )
        grant = ResourceGrant(
            task_id=spec.task_id,
            bundles=spec.total_bundles_requested,
            phones=spec.phones_requested(),
        )
        self._frozen_bundles += grant.bundles
        for grade, count in grant.phones.items():
            self._frozen_phones[grade] = self._frozen_phones.get(grade, 0) + count
        self._grants[spec.task_id] = grant
        return grant

    def release(self, task_id: str) -> None:
        """Return a task's reservation to the pool."""
        grant = self._grants.pop(task_id, None)
        if grant is None:
            raise KeyError(f"task {task_id!r} holds no grant")
        self._frozen_bundles -= grant.bundles
        for grade, count in grant.phones.items():
            self._frozen_phones[grade] -= count

    # ------------------------------------------------------------------
    # dynamic scaling
    # ------------------------------------------------------------------
    def scale_up(self, spec: NodeSpec, count: int) -> list[str]:
        """Add cluster nodes; returns their ids."""
        check_count("count", count)
        return [self.cluster.add_node(spec) for _ in range(count)]

    def scale_down(self, node_ids: list[str]) -> None:
        """Drain idle nodes as one transaction: all of them, or none.

        Every id is validated *before* anything is removed — unknown ids
        raise :class:`KeyError` and nodes still hosting allocations raise
        :class:`RuntimeError`, in both cases leaving the cluster exactly
        as it was.  (The old implementation removed nodes one-by-one and
        raised mid-loop on the first busy node, stranding the cluster
        partially drained.)  Duplicate ids in ``node_ids`` are drained
        once.
        """
        nodes = self.cluster.nodes
        unique_ids = list(dict.fromkeys(node_ids))
        missing = [nid for nid in unique_ids if nid not in nodes]
        if missing:
            raise KeyError(f"unknown nodes {missing!r}; nothing was removed")
        busy = [nid for nid in unique_ids if not nodes[nid].idle]
        if busy:
            raise RuntimeError(
                f"nodes {busy!r} still host allocations; nothing was removed"
            )
        for node_id in unique_ids:
            self.cluster.remove_node(node_id)

    def add_phones(self, phones: list[VirtualPhone]) -> None:
        """Grow the physical fleet (e.g. extra MSP provisioning)."""
        self.phones.extend(phones)
        self._phones_by_grade.update(phone.spec.grade for phone in phones)

    def remove_phones(self, phones: list[VirtualPhone]) -> None:
        """Shrink the fleet (device churn / fault injection): all of ``phones``, or none.

        Every phone is validated *before* anything is removed — one that is
        not in the fleet raises :class:`ValueError` naming its serial and
        leaves the fleet exactly as it was; a phone named twice is removed
        once (as :meth:`scale_down` treats node ids).  Only capacity
        accounting changes; reservations already frozen against the removed
        phones stay valid until their tasks release them (free counts may go
        transiently negative, which simply blocks new freezes).
        """
        unique, fleet = list(dict.fromkeys(phones)), set(self.phones)
        unknown = [phone.serial for phone in unique if phone not in fleet]
        if unknown:
            raise ValueError(f"phones {unknown!r} are not in the fleet; nothing was removed")
        for phone in unique:
            self.phones.remove(phone)
        self._phones_by_grade.subtract(phone.spec.grade for phone in unique)
        self._phones_by_grade = +self._phones_by_grade  # a grade with no phone left has no entry, as in a recount

    @property
    def active_grants(self) -> int:
        """How many tasks currently hold reservations."""
        return len(self._grants)

"""The round both execution tiers run, and the columns it runs over.

The paper's two tiers are one queueing structure — "each actor sequentially
simulating multiple devices" (§IV-A), computing phones "repeatedly
emulating simulated devices" (§IV-C): a plan's devices are dealt round-robin
onto slots and each slot works through its queue.  A plan is therefore a
struct of per-device columns (:class:`DeviceColumns`; every id column is an
:class:`IdColumn`, rows of one :class:`IdTable`, and a generated table holds
no string until one is read) plus what the whole grade shares (:class:`TierPlan`), a round's
results are one :class:`~repro.deviceflow.messages.MessageBlock` over the
same rows — the block the sink, DeviceFlow and the fold are handed, never a
copy of it, and kept by the tier only until its deliveries have fired — and
:class:`TierRounds` is the one engine that executes, schedules, delivers and
closes a round.  A tier contributes only its completion-time kernel.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.cloud.sink import OutcomeSink
from repro.data.avazu import DeviceDataset
from repro.deviceflow.messages import MessageBlock, Segment, join_rows
from repro.ml.backends import NumericBackend
from repro.ml.fedavg import ModelUpdate
from repro.ml.operators import BlockOperatorContext, OperatorFlow
from repro.simkernel import AllOf, RandomStreams, Signal, Simulator, TimeoutPool


@dataclass(eq=False, slots=True)
class IdTable:
    """A dataset's ids, or ``f"{prefix}{i:06d}"`` for ``i < n``: an index formats one, a first iteration renders all."""

    prefix: str
    n: int
    names: Sequence[str] | None = None


class IdColumn(Sequence):
    """A device-id column: the ``rows`` it selects of one :class:`IdTable`, a ``range`` while contiguous.

    A selection's rows are an int64 array, and construction refuses rows outside ``[0, table.n)``.  Cuts,
    selections and joins of one table stay columns of it; only a join of different tables makes a table.
    """

    __slots__ = ("table", "rows")

    def __init__(self, table: IdTable, rows: range | np.ndarray) -> None:
        if len(rows):  # a range is checked by its ends, an array by its min and max
            ends = (rows[0], rows[-1]) if rows.__class__ is range else (rows.min(), rows.max())
            if min(ends) < 0 or max(ends) >= table.n:
                raise ValueError(f"rows {rows!r} fall outside an id table of {table.n} rows")
        self.table, self.rows = table, rows

    @classmethod
    def _cut(cls, table: IdTable, rows: range | np.ndarray) -> IdColumn:
        """A column whose rows narrow rows already checked, built unchecked."""
        column = object.__new__(cls)
        column.table, column.rows = table, rows
        return column

    @classmethod
    def of(cls, ids: Sequence[str]) -> IdColumn:
        """``ids`` itself when it is a column, else every row of a fresh table over it."""
        return ids if ids.__class__ is cls else cls._cut(IdTable("", len(ids), ids), range(len(ids)))

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, index: int | slice) -> str | IdColumn:
        if index.__class__ is slice:
            if (index.step or 1) < 0:
                raise ValueError("an id column is sliced forwards")
            return IdColumn._cut(self.table, self.rows[index])
        row, table = self.rows[index], self.table
        return f"{table.prefix}{row:06d}" if table.names is None else table.names[row]

    def __iter__(self) -> Iterator[str]:
        table, rows = self.table, self.rows
        if table.names is None:
            table.names = [f"{table.prefix}{i:06d}" for i in range(table.n)]
        if rows.__class__ is range:
            return iter(table.names[rows.start : rows.stop : rows.step])
        return map(table.names.__getitem__, rows.tolist())

    def __eq__(self, other: object) -> bool:
        return list(self) == list(other) if isinstance(other, (IdColumn, list)) else NotImplemented

    def take(self, index: range | np.ndarray) -> IdColumn:
        """The rows at positions ``index`` (a forward ``range`` or an int64 array) of this column."""
        rows = self.rows
        if index.__class__ is range:
            return IdColumn._cut(self.table, rows[index.start : index.stop : index.step])
        if rows.__class__ is not range:
            return IdColumn._cut(self.table, rows[index])
        return IdColumn._cut(self.table, index + rows.start if rows.step == 1 else rows.start + rows.step * index)

    def join(self, others: list[IdColumn]) -> IdColumn:
        """This column and ``others`` end to end, over this column's table unless a part is of another."""
        if any(column.table is not self.table for column in others):
            return IdColumn.of([name for part in (self, *others) for name in part])
        return IdColumn._cut(self.table, join_rows([self.rows, *(column.rows for column in others)]))


@dataclass
class DeviceColumns:
    """The devices of a plan, one row each.

    ``device_ids`` is an :class:`IdColumn` (a list is wrapped into one): rows
    of a dataset's own id table for numeric plans, of a generated table for
    time-only ones.  ``datasets`` is ``None`` for *time-only* runs (the
    large-scale scalability experiments); ``n_samples`` still feeds the
    FedAvg weights and the staged-bytes estimate so aggregation triggers
    behave realistically.  Plans validate their columns at construction.
    """

    device_ids: IdColumn
    n_samples: np.ndarray
    datasets: list[DeviceDataset] | None = None

    def __post_init__(self) -> None:
        self.device_ids = IdColumn.of(self.device_ids)
        self.n_samples = np.asarray(self.n_samples, dtype=np.int64)

    @classmethod
    def of_shards(cls, shards: Sequence[DeviceDataset]) -> DeviceColumns:
        """Columns of devices that each hold one local dataset shard, over one table of their ids."""
        return cls([s.device_id for s in shards], [len(s) for s in shards], list(shards))

    def __len__(self) -> int:
        return len(self.device_ids)

    def __getitem__(self, rows: slice) -> DeviceColumns:
        return DeviceColumns(
            self.device_ids[rows],
            self.n_samples[rows],
            None if self.datasets is None else self.datasets[rows],
        )

    def staged_bytes(self) -> np.ndarray:
        """Bytes of local data staged per device (64 a record when time-only)."""
        if self.datasets is None:
            return 64 * self.n_samples
        return np.fromiter((d.nbytes() for d in self.datasets), dtype=np.int64, count=len(self))


@dataclass(kw_only=True)
class TierPlan:
    """What a tier needs to simulate one device grade, whichever tier it is.

    Attributes
    ----------
    grade:
        Grade label ("High"/"Low" in the paper's experiments); a plan has
        one grade by construction.
    devices:
        The grade's devices allocated to this tier, in row order.
    flow:
        The task's operator flow.
    feature_dim:
        Model dimensionality for numeric runs.
    backend:
        Numeric backend of the tier.
    numeric:
        When false, flows advance simulated time but skip the ML math —
        used for the 100k-device scalability sweeps.
    """

    grade: str
    devices: DeviceColumns
    flow: OperatorFlow
    feature_dim: int = 4096
    backend: NumericBackend
    numeric: bool = True

    def __post_init__(self) -> None:
        self._check_columns("devices", self.devices)

    def _check_columns(self, name: str, columns: DeviceColumns) -> None:
        """The one place a plan's per-device input is validated."""
        n = len(columns)
        for column, values in (("n_samples", columns.n_samples), ("datasets", columns.datasets)):
            if values is not None and len(values) != n:
                raise ValueError(f"{self.grade!r} plan: {name}.{column} has {len(values)} rows for {n} device_ids")
        if n and columns.n_samples.min() <= 0:
            raise ValueError(f"{self.grade!r} plan: {name}.n_samples must be positive")
        if n and self.numeric and columns.datasets is None:
            raise ValueError(f"{self.grade!r} plan: numeric=True needs {name}.datasets")


#: One slot's queue in a plan's schedule: the plan rows it works through, in
#: completion order, and the tier's hook for when the queue has drained.
SlotQueue = tuple[slice, Callable[[], None]]


class TierRounds:
    """One round engine for both tiers.

    A tier subclass supplies :attr:`label`, :attr:`rng_stream`,
    :meth:`_numeric_block_size` and its completion-time kernel
    :meth:`_completion_times`; the engine owns everything else about a
    round.  Numeric plans execute up front as stacked blocks; every plan is
    built as one :class:`MessageBlock` and delivered as
    :class:`~repro.cloud.sink.OutcomeSink` describes: whole, at its last
    completion time — one kernel event, no per-device objects or events —
    or, for a sink that sets ``prefers_waves``, as one
    :class:`~repro.deviceflow.messages.Segment` per completion wave (the
    plan block and the wave's rows) at the wave's time, each slot queue an ascending
    sequence in the tier's :class:`~repro.simkernel.TimeoutPool`.  ``sink=None``
    delivers nothing (Fig. 8's scalability sweep times the round alone).
    A round process resolves with one bool, ``True`` when :meth:`teardown`
    voided it: an epoch guard voids the scheduled callbacks of a torn-down
    task, and :meth:`_void_rounds` releases the plans-done barrier so a
    round in flight resolves instead of leaking.
    """

    #: The tier's name on the signals the engine creates.
    label: str
    #: ``str.format`` template of a device's numeric random stream, keyed by
    #: device — never by slot — so grouping cannot perturb results.
    rng_stream: str

    def __init__(self, sim: Simulator, streams: RandomStreams) -> None:
        self.sim = sim
        self.streams = streams
        #: The task whose rounds this tier runs: ``prepare`` sets it, every block carries it.
        self.task_id = ""
        self.plans: list = []
        self._pool = TimeoutPool(sim)
        self._epoch = 0
        self._round_barriers: list[Signal] = []

    # -- what a tier supplies -------------------------------------------
    def _numeric_block_size(self, plan: TierPlan) -> int:
        """Devices stacked into one :class:`BlockOperatorContext`."""
        raise NotImplementedError

    def _completion_times(
        self, plan: TierPlan, model_bytes: int, upload_bytes: int
    ) -> tuple[np.ndarray, list[SlotQueue]]:
        """``finished_at`` per plan row, and the slot queues it decomposes into.

        Every queue's rows must be ascending in ``finished_at`` and the
        queues must partition the plan.
        """
        raise NotImplementedError

    # -- the round --------------------------------------------------------
    def _drive_round(
        self,
        round_index: int,
        barriers: list,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        sink: OutcomeSink | None,
    ) -> Generator:
        """Register every plan, wait for them (and ``barriers``); ``True`` if the round was voided."""
        epoch = self._epoch
        if self.plans:
            remaining = len(self.plans)
            plans_done = Signal(name=f"{self.label}.round{round_index}.plans-done")
            self._round_barriers.append(plans_done)

            def plan_done() -> None:
                nonlocal remaining
                remaining -= 1
                if remaining == 0:
                    self._round_barriers.remove(plans_done)
                    plans_done.fire()

            for plan in self.plans:
                self._register_plan(plan, round_index, global_weights, global_bias, model_bytes, sink, plan_done)
            barriers = [*barriers, plans_done]
        if barriers:
            yield AllOf(barriers)
        return epoch != self._epoch

    def _void_rounds(self) -> None:
        """Void the scheduled callbacks of rounds in flight and release their barriers."""
        self._epoch += 1
        for barrier in self._round_barriers:
            barrier.fire()
        self._round_barriers = []

    def _execute_numeric(
        self,
        plan: TierPlan,
        devices: DeviceColumns,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        block_size: int,
    ) -> tuple[np.ndarray, np.ndarray] | tuple[None, None]:
        """Run the plan's flow over ``devices`` in stacked blocks of ``block_size``.

        Devices of a plan share grade, backend and the round's global
        model, so each block is one ``(rows, feature_dim)`` weight matrix
        refined by the flow's operators.  Flow execution consumes no
        simulated time.  Returns the stacked ``(update_weights,
        update_biases)`` in row order, or ``(None, None)`` when the flow
        produces no uploads.
        """
        total = len(devices)
        update_weights = update_biases = None
        for start in range(0, total, block_size):
            rows = devices[start : start + block_size]
            block = BlockOperatorContext(
                device_ids=rows.device_ids,
                grade=plan.grade,
                datasets=rows.datasets,
                feature_dim=plan.feature_dim,
                backend=plan.backend,
                global_weights=global_weights,
                global_bias=global_bias,
                round_index=round_index,
                rngs=[self.streams.get(self.rng_stream.format(d)) for d in rows.device_ids],
            )
            plan.flow.execute_block(block)
            block_weights = block.outputs.get("update_weights")
            if block_weights is None:
                continue  # the flow uploads nothing; later blocks still take their rng draws
            if update_weights is None:
                update_weights = np.empty((total, plan.feature_dim), dtype=np.float64)
                update_biases = np.empty(total, dtype=np.float64)
            update_weights[start : start + len(rows)] = block_weights
            update_biases[start : start + len(rows)] = block.outputs["update_biases"]
        return update_weights, update_biases

    def _register_plan(
        self,
        plan: TierPlan,
        round_index: int,
        global_weights: np.ndarray | None,
        global_bias: float,
        model_bytes: int,
        sink: OutcomeSink | None,
        plan_done: Callable[[], None],
    ) -> None:
        """Schedule one plan's whole round on the kernel.

        Numeric plans run their ML round here, up front (the upload leg of
        the tier's schedule then carries the model-update payload); the
        tier's kernel turns the plan into completion times; the block is
        delivered when those times come due.
        """
        total = len(plan.devices)
        if total == 0:
            plan_done()
            return
        update_weights = update_biases = None
        upload_bytes = model_bytes
        if plan.numeric:
            update_weights, update_biases = self._execute_numeric(
                plan, plan.devices, round_index, global_weights, global_bias,
                self._numeric_block_size(plan),
            )
            if update_weights is not None:
                upload_bytes = ModelUpdate.wire_size(plan.feature_dim)
        finished, queues = self._completion_times(plan, model_bytes, upload_bytes)
        block = MessageBlock(
            task_id=self.task_id,
            round_index=round_index,
            device_ids=plan.devices.device_ids,
            grade=plan.grade,
            size_bytes=upload_bytes,
            n_samples=plan.devices.n_samples,
            finished_at=finished,
            update_weights=update_weights,
            update_biases=update_biases,
        )
        epoch = self._epoch
        pending = len(queues)

        def deliver(rows: range | None, drained: list[Callable[[], None]]) -> None:
            nonlocal pending
            if epoch != self._epoch:
                return
            if sink is not None:
                sink.accept_block(block if rows is None else Segment(block, rows))
            for queue_drained in drained:
                queue_drained()
            pending -= len(drained)
            if pending == 0:
                plan_done()

        if not getattr(sink, "prefers_waves", False):
            self.sim.schedule_at(float(finished.max()), deliver, None, [hook for _, hook in queues])
            return
        for rows, hook in queues:
            queue = range(total)[rows]

            # Entries lo..hi of a queue are the plan rows queue[lo:hi]; queues
            # drain chronologically across slots, ties in slot order.
            def fire(lo: int, hi: int, _t: float, queue=queue, hook=hook) -> None:
                deliver(queue[lo:hi], [hook] if hi == len(queue) else [])

            self._pool.add_sequence(finished[rows], fire)

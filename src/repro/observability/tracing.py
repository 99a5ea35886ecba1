"""End-to-end task tracing: deterministic sim-time span trees.

The paper's GUI promise — operators "monitor various computational
metrics, edge device performance, and updates to cloud services
throughout the task execution process" (§III-C) — needs more than
aggregate KPIs: it needs *one task's journey* through the platform.
This module assembles that journey as a span tree per task:

    task
    ├── queue_wait            (submission → scheduler grant)
    ├── dispatch              (grant → runner start)
    └── round r
        ├── wave w (grade)    (derived: devices sharing a completion time)
        │   └── device_round  (round start → upload completion)
        │       ├── upload    (transport attempt chain: retries/drops)
        │       └── flow      (DeviceFlow shelve → dispatcher delivery)
        ├── bench_stage ×5    (the Table-I five-stage phone protocol)
        ├── ingest_drop       (dedup/late rejections at the cloud gate)
        └── aggregate         (the round's FedAvg fold)

Spans live entirely on the *simulated* clock and every span id is a
deterministic function of ``(task, round, device, kind)``, so two runs
of the same spec and seed produce byte-identical traces.  Each fact is
recorded once, by whoever owns it, and the trace is derived afterwards:

* :class:`Tracer` — append-only capture of what nothing else keeps.  The
  task runner records round starts / ends and each block a tier hands to
  the cloud side (one reference to the columnar block), the transport
  channel each upload's fate, the ingestion sink its gate drops, and
  DeviceFlow its submissions and deliveries (one reference to each
  message segment); nothing is formatted, sorted or allocated per span
  while the simulation runs.
  Every instrumentation point is guarded by ``tracer is not None``, so
  an untraced run executes exactly the code it executed before tracing
  existed — zero cost when off, and byte-identical reports when on
  (recording never touches a random stream or the event queue).
* :func:`assemble_trace` — post-run distillation of the Tracer's capture,
  the :class:`~repro.cloud.monitor.Monitor` event log (task lifecycle,
  per-round transport KPIs, the ``round_aggregated`` folds) and the task
  results' :class:`~repro.phones.phonemgr.BenchmarkRecord` stage
  boundaries into a sorted :class:`Trace`.

Wave, aggregate and bench-stage spans are *derived*, not recorded: a wave
is the set of a round's devices sharing ``(grade, finished_at)``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - typing only
    from collections.abc import Callable, Iterable, Sequence

    from repro.cloud.monitor import Monitor
    from repro.deviceflow.messages import MessageBlock, Segment
    from repro.scheduler.task_runner import TaskResult

#: Every span kind the assembler can emit, with the tree level it lives
#: at (documentation + the README reference table; exporters use it to
#: pick renderable categories).
SPAN_KINDS = {
    "task": "root: one scheduled task, submission to completion",
    "queue_wait": "task child: submission → scheduler resource grant",
    "dispatch": "task child: resource grant → runner start",
    "round": "task child: one collaboration round, start → aggregation",
    "wave": "round child: devices sharing one (grade, completion-time)",
    "device_round": "wave child: one device's train+upload leg",
    "upload": "device child: transport attempt chain (retries, drops)",
    "flow": "device child: DeviceFlow shelve → dispatcher delivery",
    "bench_stage": "round child: one Table-I benchmark-phone stage",
    "ingest_drop": "round child (instant): dedup/late gate rejection",
    "aggregate": "round child (instant): the round's FedAvg fold",
}

#: Terminal states an ``upload`` span can report.
UPLOAD_STATUSES = ("delivered", "late", "abandoned")


@dataclass
class Span:
    """One sim-time interval in a task's journey.

    ``span_id`` is stable across runs — a pure function of the task id,
    round index, device id and kind — so differential tests can compare
    whole traces bytewise.  Instant events are spans with ``end ==
    start``.
    """

    span_id: str
    parent_id: str | None
    name: str
    kind: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


class Trace:
    """A finished run's span tree, sorted and queryable."""

    def __init__(self, name: str, spans: list[Span]) -> None:
        self.name = name
        #: Sorted by ``(start, span_id)`` — a total, deterministic order.
        self.spans = sorted(spans, key=lambda s: (s.start, s.span_id))
        self._by_id = {span.span_id: span for span in self.spans}
        if len(self._by_id) != len(self.spans):
            seen: set[str] = set()
            dupes = {s.span_id for s in self.spans if s.span_id in seen or seen.add(s.span_id)}
            raise ValueError(f"duplicate span ids in trace: {sorted(dupes)[:5]}")

    def __len__(self) -> int:
        return len(self.spans)

    def __iter__(self):
        return iter(self.spans)

    def span(self, span_id: str) -> Span:
        return self._by_id[span_id]

    def of_kind(self, kind: str) -> list[Span]:
        return [span for span in self.spans if span.kind == kind]

    def children(self, span_id: str) -> list[Span]:
        return [span for span in self.spans if span.parent_id == span_id]

    def counts_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for span in self.spans:
            counts[span.kind] = counts.get(span.kind, 0) + 1
        return counts

    def to_dict(self) -> dict[str, Any]:
        return {"name": self.name, "spans": [span.to_dict() for span in self.spans]}

    def to_json(self) -> str:
        """Deterministic rendering (sorted keys, no whitespace drift)."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


class Tracer:
    """Append-only capture of a run's trace records.

    One Tracer serves one platform run.  The record methods are the
    whole hot-path surface: each appends one plain tuple (or one block
    reference) to a list.  Everything else — span construction, wave
    derivation, sorting — happens once, after the run, in
    :func:`assemble_trace`.
    """

    def __init__(self) -> None:
        #: A plan's round, a wave of it (a segment) or one benchmarking
        #: phone's row, expanded to per-device records at assembly.
        self.device_blocks: list[Segment] = []
        #: (task, round, time)
        self.round_starts: list[tuple[str, int, float]] = []
        self.round_ends: list[tuple[str, int, float]] = []
        #: (task, device, round, t0, arrival-or-None, retries, duplicate, status)
        self.uploads: list[tuple[str, str, int, float, float | None, int, bool, str]] = []
        #: (task, device, round, time, reason) — reason: duplicate | late
        self.ingest_drops: list[tuple[str, str, int, float, str]] = []
        #: (task, round, devices, time) — one row per submitted / delivered
        #: segment (or delivered block), expanded to one record per device
        #: at assembly; uploads shelved ahead carry their arrivals as the time.
        self.flow_submits: list[tuple[str, int, Sequence[str], float | list[float]]] = []
        self.flow_deliveries: list[tuple[str, int, Sequence[str], float]] = []

    # -- hot-path record methods (append one tuple each) ----------------
    def record_block(self, block: Segment) -> None:
        """O(1) capture of the device rounds a block (or a segment of one) holds."""
        self.device_blocks.append(block)

    def record_round_start(self, task_id: str, round_index: int, time: float) -> None:
        self.round_starts.append((task_id, round_index, time))

    def record_round_end(self, task_id: str, round_index: int, time: float) -> None:
        self.round_ends.append((task_id, round_index, time))

    def record_upload(
        self,
        task_id: str,
        device_id: str,
        round_index: int,
        t0: float,
        arrival: float | None,
        retries: int,
        duplicate: bool,
        status: str,
    ) -> None:
        self.uploads.append(
            (task_id, device_id, round_index, t0, arrival, retries, duplicate, status)
        )

    def record_ingest_drop(
        self, task_id: str, device_id: str, round_index: int, time: float, reason: str
    ) -> None:
        self.ingest_drops.append((task_id, device_id, round_index, time, reason))

    def record_flow_submit(self, segment: Segment, time: float | list[float]) -> None:
        """O(1) capture of one DeviceFlow submission (a wave, one upload, or rows ahead with their arrivals)."""
        self.flow_submits.append((segment.task_id, segment.round_index, segment.device_ids, time))

    def record_flow_delivery(self, segment: MessageBlock, time: float) -> None:
        """O(1) capture of one delivered segment of a transmission chunk."""
        self.flow_deliveries.append(
            (segment.task_id, segment.round_index, segment.device_ids, time)
        )

    # ------------------------------------------------------------------
    def all_devices(self) -> list[tuple[str, str, str, int, int, int, float]]:
        """The captured blocks expanded to one record per device.

        A record is ``(task, device, grade, round, n_samples,
        payload_bytes, finished_at)``.
        """
        records = []
        for recorded in self.device_blocks:
            block = recorded.gather()
            task_id, grade, round_index, payload = block.task_id, block.grade, block.round_index, block.size_bytes
            for device_id, n_samples, finished in zip(
                block.device_ids, block.n_samples.tolist(), block.finished_at.tolist()
            ):
                records.append((task_id, device_id, grade, round_index, n_samples, payload, finished))
        return records


# ----------------------------------------------------------------------
# assembly
# ----------------------------------------------------------------------
def _per_device(
    records: list[tuple[str, int, Sequence[str], float]],
) -> list[tuple[str, str, int, float]]:
    """Expand flow segment records to ``(task, device, round, time)``; a record's time is one, or one a device."""
    return [
        (task, device, round_index, time)
        for task, round_index, devices, times in records
        for device, time in zip(devices, times if isinstance(times, list) else repeat(times))
    ]


def _span_id(task_id: str, *parts: Any) -> str:
    return "/".join([f"t:{task_id}", *map(str, parts)])


def assemble_trace(
    monitor: Monitor,
    tracer: Tracer,
    results: Iterable[TaskResult],
    name: str,
    tenant_of: Callable[[str], str],
) -> Trace:
    """Distil a finished run's capture into a :class:`Trace`.

    ``monitor`` supplies the task lifecycle (submitted / scheduled /
    started / completed / failed), the per-round ``transport_round``
    KPI events that annotate round spans and the ``round_aggregated``
    folds; ``tracer`` supplies everything device-level; ``results`` (the
    finished tasks', failed ones included) supply the benchmarking phones'
    Table-I stage boundaries.  ``tenant_of`` maps a task id to its tenant
    (the scenario runner's convention) — the tenant lands in the task
    span's attrs so span identity is effectively ``(tenant, task, round,
    device, kind)``.
    """
    spans: list[Span] = []

    # -- task lifecycle from the Monitor's per-kind index ---------------
    submitted = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_submitted")}
    scheduled = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_scheduled")}
    started = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_started")}
    completed = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_completed")}
    failed = {e.fields["task_id"]: e.time for e in monitor.of_kind("task_failed")}

    round_starts: dict[tuple[str, int], float] = {
        (task, index): time for task, index, time in tracer.round_starts
    }
    round_ends: dict[tuple[str, int], float] = {
        (task, index): time for task, index, time in tracer.round_ends
    }
    devices = tracer.all_devices()

    device_end_by_task: dict[str, float] = defaultdict(float)
    for record in devices:
        task = record[0]
        device_end_by_task[task] = max(device_end_by_task[task], record[6])

    round_span_ids: dict[tuple[str, int], str] = {}
    round_spans: dict[tuple[str, int], Span] = {}
    # Every task the platform was handed logged ``task_submitted``, before it started.
    for task, first in sorted(submitted.items()):
        t_sched = scheduled.get(task)
        t_start = started.get(task)
        t_end = completed.get(task, failed.get(task))
        rounds_of_task = sorted(k[1] for k in round_starts if k[0] == task)
        if t_end is None:
            t_end = max(
                device_end_by_task.get(task, first),
                max((round_ends.get((task, r), first) for r in rounds_of_task), default=first),
            )
        root_id = _span_id(task)
        status = "failed" if task in failed else ("completed" if task in completed else "open")
        attrs: dict[str, Any] = {"task": task, "status": status, "tenant": tenant_of(task)}
        spans.append(
            Span(root_id, None, task, "task", first, t_end, attrs)
        )
        if t_sched is not None:
            spans.append(
                Span(
                    _span_id(task, "queue"),
                    root_id,
                    "queue wait",
                    "queue_wait",
                    first,
                    t_sched,
                    {"task": task},
                )
            )
        if t_sched is not None and t_start is not None:
            spans.append(
                Span(
                    _span_id(task, "dispatch"),
                    root_id,
                    "dispatch",
                    "dispatch",
                    t_sched,
                    t_start,
                    {"task": task},
                )
            )

        # -- rounds ------------------------------------------------------
        for round_index in rounds_of_task:
            r_start = round_starts[(task, round_index)]
            r_end = round_ends.get((task, round_index), r_start)
            round_id = _span_id(task, f"r{round_index}")
            round_span_ids[(task, round_index)] = round_id
            round_span = Span(
                round_id,
                root_id,
                f"round {round_index}",
                "round",
                r_start,
                r_end,
                {"task": task, "round": round_index},
            )
            round_spans[(task, round_index)] = round_span
            spans.append(round_span)

    # Per-round transport KPIs (monitor events) annotate round spans.
    for event in monitor.of_kind("transport_round"):
        key = (event.fields["task_id"], event.fields["round"])
        round_span = round_spans.get(key)
        if round_span is None:
            continue
        round_span.attrs["transport"] = {
            k: event.fields[k]
            for k in ("uploads", "delivered", "retries", "duplicates", "late", "abandoned")
        }

    # -- aggregation folds ----------------------------------------------
    for event in monitor.of_kind("round_aggregated"):
        task, round_index, accuracy = event.fields["task_id"], event.fields["round"], event.fields["test_accuracy"]
        attrs = {"task": task, "round": round_index, "n_updates": event.fields["n_updates"]}
        if accuracy is not None:
            attrs["test_accuracy"] = accuracy
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", "aggregate"),
                round_span_ids.get((task, round_index)),
                "aggregate",
                "aggregate",
                event.time,
                event.time,
                attrs,
            )
        )

    # -- waves (derived) and device spans -------------------------------
    # A wave is a round's devices sharing (grade, finished_at).
    by_round: dict[tuple[str, int], list[tuple]] = defaultdict(list)
    for record in devices:
        by_round[(record[0], record[3])].append(record)
    device_span_ids: set[str] = set()
    for (task, round_index), records in sorted(by_round.items()):
        round_id = round_span_ids.get((task, round_index))
        r_start = round_starts.get((task, round_index), min(r[6] for r in records))
        waves: dict[tuple[str, float], list[tuple]] = defaultdict(list)
        for record in records:
            waves[(record[2], record[6])].append(record)
        previous_end: dict[str, float] = {}
        wave_index: dict[str, int] = {}
        for grade, finished in sorted(waves):
            index = wave_index.get(grade, 0)
            wave_index[grade] = index + 1
            wave_id = _span_id(task, f"r{round_index}", grade, f"w{index}")
            members = waves[(grade, finished)]
            spans.append(
                Span(
                    wave_id,
                    round_id,
                    f"{grade} wave {index}",
                    "wave",
                    previous_end.get(grade, r_start),
                    finished,
                    {
                        "task": task,
                        "round": round_index,
                        "grade": grade,
                        "n_devices": len(members),
                    },
                )
            )
            previous_end[grade] = finished
            for _task, device, grade_, _round, n_samples, payload, finished_at in members:
                device_span_ids.add(_span_id(task, f"r{round_index}", f"d:{device}"))
                spans.append(
                    Span(
                        _span_id(task, f"r{round_index}", f"d:{device}"),
                        wave_id,
                        device,
                        "device_round",
                        r_start,
                        finished_at,
                        {
                            "task": task,
                            "round": round_index,
                            "device": device,
                            "grade": grade_,
                            "n_samples": n_samples,
                            "payload_bytes": payload,
                        },
                    )
                )

    # -- transport upload chains ----------------------------------------
    for task, device, round_index, t0, arrival, retries, duplicate, status in sorted(
        tracer.uploads
    ):
        device_id = _span_id(task, f"r{round_index}", f"d:{device}")
        parent = device_id if device_id in device_span_ids else None
        end = arrival if arrival is not None else t0
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", f"d:{device}", "upload"),
                parent,
                "upload",
                "upload",
                t0,
                end,
                {
                    "task": task,
                    "round": round_index,
                    "device": device,
                    "retries": retries,
                    "duplicate": duplicate,
                    "status": status,
                },
            )
        )

    # -- ingestion-gate drops -------------------------------------------
    occurrence: dict[tuple, int] = defaultdict(int)
    for task, device, round_index, time, reason in sorted(tracer.ingest_drops):
        key = (task, device, round_index, reason)
        suffix = f"drop:{reason}" if occurrence[key] == 0 else f"drop:{reason}#{occurrence[key]}"
        occurrence[key] += 1
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", f"d:{device}", suffix),
                round_span_ids.get((task, round_index)),
                f"{reason} drop",
                "ingest_drop",
                time,
                time,
                {"task": task, "round": round_index, "device": device, "reason": reason},
            )
        )

    # -- DeviceFlow shelve → delivery -----------------------------------
    deliveries: dict[tuple[str, str, int], list[float]] = defaultdict(list)
    for task, device, round_index, time in sorted(_per_device(tracer.flow_deliveries)):
        deliveries[(task, device, round_index)].append(time)
    submit_occurrence: dict[tuple, int] = defaultdict(int)
    for task, device, round_index, time in sorted(_per_device(tracer.flow_submits)):
        key = (task, device, round_index)
        position = submit_occurrence[key]
        submit_occurrence[key] += 1
        times = deliveries.get(key, [])
        delivered = position < len(times)
        end = times[position] if delivered else time
        device_id = _span_id(task, f"r{round_index}", f"d:{device}")
        parent = device_id if device_id in device_span_ids else None
        suffix = "flow" if position == 0 else f"flow#{position}"
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", f"d:{device}", suffix),
                parent,
                "flow",
                "flow",
                time,
                end,
                {
                    "task": task,
                    "round": round_index,
                    "device": device,
                    "status": "delivered" if delivered else "lost",
                },
            )
        )

    # -- benchmark-phone stages (the task results' records) -------------
    stages = [
        (result.task_id, record, stage.label, start, end)
        for result in results
        for record in result.benchmark_records
        for stage, start, end in record.boundaries
    ]
    for task, record, stage, start, end in stages:
        serial, round_index = record.serial, record.round_index
        spans.append(
            Span(
                _span_id(task, f"r{round_index}", f"bench:{serial}", stage),
                round_span_ids.get((task, round_index)),
                f"{serial} {stage}",
                "bench_stage",
                start,
                end,
                {"task": task, "round": round_index, "device": record.device_id, "serial": serial, "stage": stage},
            )
        )

    return Trace(name, spans)

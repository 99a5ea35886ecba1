"""Microbench: discrete-event kernel throughput.

Everything in SimDC reduces to kernel events; these numbers bound how big
a simulation one wall-clock second buys (the 100k-device sweeps of Fig. 8
schedule roughly one million events).

``schedule_and_drain`` prices heap events drained by the same-timestamp
batch loop every run rides; ``test_drain_throughput_report`` persists that
absolute throughput, which the CI regression gate
(``benchmarks/ci_gate.py``) checks, calibrated, on every push.  The
:class:`~repro.simkernel.TimeoutPool`'s load — whole completion waves as
ascending sequences — is measured in situ by the perf ledger
(``direct_hybrid``, ``flash_crowd_flow``).
"""

import time

from conftest import full_scale

from repro.simkernel import Simulator, Timeout


def schedule_and_drain(n_events: int) -> None:
    sim = Simulator()
    for i in range(n_events):
        sim.schedule(float(i % 97), lambda: None)
    sim.run()


def process_chains(n_processes: int, hops: int) -> None:
    sim = Simulator()

    def worker():
        for _ in range(hops):
            yield Timeout(1.0)

    for _ in range(n_processes):
        sim.process(worker())
    sim.run()


def bench_scale() -> int:
    return 200_000 if full_scale() else 50_000


def measure_throughputs(n_events: int, repeats: int = 3) -> dict:
    """Events/second for heap events.

    Plain-function form (no pytest-benchmark) so ``ci_gate.py`` can reuse
    it; takes the best of ``repeats`` runs to damp scheduler noise.
    """

    walls = []
    for _ in range(repeats):
        start = time.perf_counter()
        schedule_and_drain(n_events)
        walls.append(time.perf_counter() - start)
    return {"n_events": n_events, "events_per_sec_batched": n_events / min(walls)}


def test_event_throughput(benchmark):
    benchmark.pedantic(schedule_and_drain, args=(bench_scale(),), rounds=3, iterations=1)


def test_process_switching(benchmark):
    benchmark.pedantic(process_chains, args=(2_000, 20), rounds=3, iterations=1)


def test_drain_throughput_report(persist_result):
    stats = measure_throughputs(bench_scale())
    persist_result(
        "kernel_throughput",
        "Kernel drain throughput (events/s, higher is better)\n"
        f"  heap events     : {stats['events_per_sec_batched']:,.0f}",
    )

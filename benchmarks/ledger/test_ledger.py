"""Self-test of the perf ledger harness.

Run explicitly: ``python -m pytest benchmarks/ledger -q`` (tier-1
``testpaths`` stays ``tests``).  It checks the harness, not the simulator's
speed: every named metric is emitted with a unit, self times fit inside the
wall clock, the generator proxy is transparent, attach/detach leaves no
trace, and each workload still has its reason to exist.
"""

from __future__ import annotations

import copy
import gc
import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layertrace  # noqa: E402
from compare import compare_files, verdict  # noqa: E402
from layertrace import WRAP_POINTS, GeneratorProxy, LayerTrace  # noqa: E402
from reference import NOMINAL_S, Tick, speed  # noqa: E402
from worker import Operations, layer_metrics, run_once, times  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [row["name"] for row in CONTRACT["workloads"]]
TIME_ONLY = ["flash_crowd_flow", "lossy_transport", "direct_hybrid"]


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One ``--smoke`` ledger run: (ledger dict, printed text, path)."""
    out = tmp_path_factory.mktemp("ledger") / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8")), done.stdout, out


# ----------------------------------------------------------------------
# the smoke ledger
# ----------------------------------------------------------------------
def test_smoke_emits_every_named_metric_with_its_unit(smoke):
    ledger, text, _ = smoke
    assert list(ledger["workloads"]) == WORKLOADS
    for workload, row in ledger["workloads"].items():
        assert row["ops_failed"] == 0 and row["ops_attempted"] >= 6, row["failures"]
        assert row["missing_points"] == [] and row["failed_hooks"] == []
        for section in ("end_to_end", "per_layer"):
            for spec in CONTRACT[section]:
                assert spec["name"] in row[section], f"{workload}: {spec['name']} not measured"
                value = row[section][spec["name"]]["median"]
                assert f"{workload}.{spec['name']} = {value:.6g} {spec['unit']}" in text
        for name in ("devices_per_s", "wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
            assert row["end_to_end"][name]["median"] > 0


def test_smoke_manifest_names_the_machine_and_the_run(smoke):
    manifest = smoke[0]["manifest"]
    for key in ("git_sha", "git_dirty", "python", "numpy", "nproc", "seed", "seconds", "scale_div", "pins",
                "yardstick_nominal_s", "yardstick_s"):
        assert key in manifest
    assert manifest["pins"]["OMP_NUM_THREADS"] == "1" and manifest["yardstick_s"] > 0
    for row in smoke[0]["workloads"].values():
        assert row["timed"]["devices"] > 0 and row["full"]["devices"] >= row["timed"]["devices"]
        assert row["timed"]["digest"] != row["full"]["digest"]
        assert row["end_to_end"]["wall_s"]["n"] >= 3 and row["yardstick_s"]["plain"] > 0


def test_self_times_fit_inside_the_traced_wall(smoke):
    for workload, row in smoke[0]["workloads"].items():
        layers = row["per_layer"]
        shares = [layers[f"{layer}.share"]["min"] for layer in layertrace.LAYERS]
        assert all(share >= 0 for share in shares)
        assert sum(shares) <= 1.0, workload
        assert layers["trace.unattributed_share"]["min"] >= 0.0, workload


def test_each_workload_keeps_its_reason_to_exist(smoke):
    rows = smoke[0]["workloads"]
    assert rows["direct_hybrid"]["per_layer"]["deviceflow.calls"]["median"] == 0
    assert rows["direct_hybrid"]["per_layer"]["cloud.sink.block_share"]["median"] > 0.99  # benchmark phones are scalar
    assert rows["lossy_transport"]["per_layer"]["cloud.transport.retries"]["median"] > 0
    assert rows["flash_crowd_flow"]["per_layer"]["deviceflow.messages"]["median"] > 0
    assert rows["flash_crowd_flow"]["per_layer"]["cloud.sink.block_share"]["median"] == 0.0
    assert rows["diurnal_mixed"]["per_layer"]["data.devices"]["median"] > 0
    for workload in TIME_ONLY:
        assert rows[workload]["per_layer"]["data.calls"]["median"] == 0
        assert rows[workload]["per_layer"]["ml.calls"]["median"] == 0
    for workload in set(WORKLOADS) - {"lossy_transport"}:
        assert rows[workload]["per_layer"]["cloud.transport.calls"]["median"] == 0


def test_compare_agrees_with_itself_and_flags_a_slowdown(smoke, tmp_path, capsys):
    ledger, _, path = smoke
    assert compare_files(str(path), str(path), CONTRACT) == 0
    assert "compare: ok" in capsys.readouterr().out
    slow = copy.deepcopy(ledger)
    wall = slow["workloads"]["direct_hybrid"]["end_to_end"]["wall_s"]
    wall["samples"] = [sample * 2.0 for sample in wall["samples"]]
    wall["median"] *= 2.0
    slow["workloads"]["flash_crowd_flow"]["timed"]["digest"] = "0" * 64
    slow_path = tmp_path / "slow.json"
    slow_path.write_text(json.dumps(slow), encoding="utf-8")
    assert compare_files(str(path), str(slow_path), CONTRACT) == 1
    text = capsys.readouterr().out
    assert "regressed" in text and "DIFFER" in text


def test_verdict_rules():
    spec = {"name": "wall_s", "better": "lower", "bound": 0.10}

    def side(*samples):
        return {"median": sorted(samples)[len(samples) // 2], "samples": list(samples)}

    assert verdict(side(1.0, 1.01, 1.02), side(1.04, 1.05, 1.06), spec)[0] == "ok"
    assert verdict(side(1.0, 1.01, 1.02), side(1.2, 1.21, 1.22), spec)[0] == "regressed"
    assert verdict(side(0.8, 1.0, 1.3), side(0.9, 1.2, 1.4), spec)[0] == "unresolved"
    # a wide spread does not hide a change when every run of one side beats every run of the other
    assert verdict(side(0.8, 1.0, 1.3), side(1.5, 1.9, 2.4), spec)[0] == "regressed"
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    assert verdict(side(0.10, 0.10), side(0.15, 0.15), setup)[0] == "ok"  # +50% but under the 0.1 s floor


def test_yardstick_calibrates_and_leaves_the_collector_alone():
    assert speed(NOMINAL_S, NOMINAL_S) == 1.0
    assert speed(2 * NOMINAL_S, 2 * NOMINAL_S) == 0.5  # a machine at half speed: raw times are halved
    for enabled in (True, False):
        (gc.enable if enabled else gc.disable)()
        try:
            tick = Tick()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert tick.wall_s > 0 and tick.cpu_s > 0


def test_a_pin_fails_the_operation_it_disagrees_with():
    ops = Operations("direct_hybrid", 0, pins={200: "0" * 64})
    assert ops.run("unpinned scale", 400) is not None
    assert ops.run("pinned scale", 200) is None
    assert (ops.attempted, ops.failed) == (2, 1) and "differs from the pin" in ops.failures[0]
    good = ops.run("again", 400)
    assert good["wall_speed"] > 0 and times(good)["raw_wall_s"] == good["wall_s"]


# ----------------------------------------------------------------------
# the tracer
# ----------------------------------------------------------------------
def _proxy(generator, trace=None):
    trace = trace or LayerTrace()
    return GeneratorProxy(generator, lambda resume: trace._timed(resume, 0)), trace


def test_generator_proxy_passes_values_exceptions_and_return():
    seen = []

    def body():
        try:
            got = yield "first"
            seen.append(got)
            yield "second"
        except KeyError as error:
            seen.append(error)
            got = yield "recovered"
        return ("done", got)

    proxy, trace = _proxy(body())
    assert proxy.__name__ == "body"
    assert next(proxy) == "first"
    assert proxy.send("sent") == "second"
    error = KeyError("thrown")
    assert proxy.throw(error) == "recovered"
    with pytest.raises(StopIteration) as stop:
        proxy.send("last")
    assert stop.value.value == ("done", "last")
    assert seen == ["sent", error]
    assert trace.n_spans == 4 and all(end >= start > 0 for _, _, start, end in trace.span_rows())


def test_generator_proxy_propagates_errors_close_and_yield_from():
    def failing():
        yield 1
        raise ValueError("boom")

    proxy, _ = _proxy(failing())
    assert next(proxy) == 1
    with pytest.raises(ValueError, match="boom"):
        next(proxy)

    closed = []

    def closable():
        try:
            yield 1
        finally:
            closed.append(True)

    proxy, _ = _proxy(closable())
    next(proxy)
    proxy.close()
    assert closed == [True]

    def inner():
        got = yield "a"
        return got * 2

    def outer(delegate):
        return (yield from delegate)

    proxy, _ = _proxy(inner())
    driver = outer(proxy)
    assert next(driver) == "a"
    with pytest.raises(StopIteration) as stop:
        driver.send(21)
    assert stop.value.value == 42


def _resolve(module_name, owner_name):
    target = import_module(module_name)
    return getattr(target, owner_name) if owner_name else target


def test_attach_then_detach_restores_the_identical_objects():
    before = [vars(_resolve(module, owner))[attr] for _, module, owner, attr, _ in WRAP_POINTS]
    trace = LayerTrace().attach()
    try:
        assert trace.missing_points == []
        patched = [vars(_resolve(module, owner))[attr] for _, module, owner, attr, _ in WRAP_POINTS]
        assert all(new is not old for new, old in zip(patched, before))
        with pytest.raises(RuntimeError):
            trace.attach()
    finally:
        trace.detach()
    after = [vars(_resolve(module, owner))[attr] for _, module, owner, attr, _ in WRAP_POINTS]
    assert all(new is old for new, old in zip(after, before))


def test_a_vanished_wrap_point_is_listed_not_fatal(monkeypatch):
    gone = (
        ("simkernel", "repro.simkernel.simulator", "Simulator", "no_such_method", "sync"),
        ("data", "repro.no_such_module", "Thing", "call", "sync"),
    )
    monkeypatch.setattr(layertrace, "WRAP_POINTS", WRAP_POINTS + gone)
    trace = LayerTrace()
    op = run_once("lossy_transport", 300, 0, trace)
    assert trace.missing_points == ["Simulator.no_such_method", "Thing.call"]
    assert op["problems"] == []
    assert trace.points()["Simulator.no_such_method"]["calls"] == 0


def test_tracing_does_not_perturb_the_simulation_and_self_time_fits():
    plain = run_once("diurnal_mixed", 300, 0)
    trace = LayerTrace()
    traced = run_once("diurnal_mixed", 300, 0, trace)
    assert traced["digest"] == plain["digest"] and traced["sim"] == plain["sim"]
    assert plain["problems"] == [] and traced["problems"] == []
    layers = trace.layers()
    assert 0 < sum(row["self_s"] for row in layers.values()) <= traced["wall_s"]
    metrics = layer_metrics(trace, traced)
    assert {spec["name"] for spec in CONTRACT["per_layer"]} - set(metrics) == {"trace.overhead_ratio"}
    assert metrics["data.devices"] > 0 and metrics["ml.device_rounds"] > 0
    assert metrics["scheduler.tasks"] == traced["tasks"]
    assert metrics["scheduler.devices_planned"] == traced["devices"]
    assert metrics["simkernel.events"] > metrics["simkernel.calls"] > 0

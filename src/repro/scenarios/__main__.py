"""Scenario CLI: ``python -m repro.scenarios {list,show,run}``.

``show`` and ``run`` accept either a library scenario name or a path to
a YAML/JSON scenario file (anything ``ScenarioSpec.from_dict`` round-
trips — ``show <name> > spec.json`` writes a valid starting point).

Examples::

    python -m repro.scenarios list
    python -m repro.scenarios show flash_crowd --scale 500
    python -m repro.scenarios run diurnal_multitenant --scale 2000
    python -m repro.scenarios run flaky_fleet --seed 3 --report-json report.json
    python -m repro.scenarios run autoscale_flash_crowd --sla
    python -m repro.scenarios run lossy_uplink --trace-out trace.json --profile
    python -m repro.scenarios run path/to/spec.yaml --sla

With ``--sla`` the exit code becomes part of the contract: 0 when every
service-level objective in the scenario holds against the final report,
2 when any is violated (CI gates on it).  A run that reaches the spec's
``max_time`` with tasks unfinished exits 3 and lists them on stderr.
``--trace-out`` writes a Chrome/Perfetto-loadable span timeline of the run
(``--trace-jsonl`` the archival one-span-per-line dump), and ``--profile``
prints a ranked wall-clock hotspot table over the simulator's subsystems.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.checks import check_non_negative_int
from repro.scenarios.engine import ScenarioRunner
from repro.scenarios.library import SCENARIOS, build_scenario
from repro.scenarios.spec import ScenarioSpec
from repro.scheduler.task import TaskState

_FILE_SUFFIXES = (".json", ".yaml", ".yml")


def _seed_arg(text: str) -> int:
    """``--seed`` as argparse sees it: a bad value is a usage error, not a mid-run traceback."""
    try:
        return check_non_negative_int("--seed", int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_spec_file(path: Path) -> ScenarioSpec:
    """Parse a YAML/JSON scenario file through ``ScenarioSpec.from_dict``.

    A file that does not parse or describes no runnable scenario exits 1
    with one stderr line, ``<file>: <what is wrong, by path>``.
    """
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise SystemExit(
                f"cannot read {path}: PyYAML is not installed "
                f"(use a .json spec instead)"
            ) from exc
        data = yaml.safe_load(text)
    else:
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise SystemExit(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise SystemExit(f"{path} must contain one scenario mapping, got {type(data).__name__}")
    try:
        return ScenarioSpec.from_dict(data)
    except ValueError as exc:
        raise SystemExit(f"{path}: {exc}") from None


def _load_spec(args: argparse.Namespace) -> ScenarioSpec:
    """Resolve the ``name`` argument: scenario file or library entry.

    File specs carry their own scale (``--scale`` is rejected) and seed
    (``--seed`` overrides it when given).
    """
    name = args.name
    path = Path(name)
    if name.lower().endswith(_FILE_SUFFIXES) or path.exists():
        if not path.exists():
            raise SystemExit(f"scenario file not found: {path}")
        if args.scale is not None:
            raise SystemExit(
                "--scale applies to library scenarios only; edit the file's "
                "tenant device counts instead"
            )
        spec = _load_spec_file(path)
        if args.seed is not None:
            spec.seed = args.seed
        return spec
    if name not in SCENARIOS:
        raise SystemExit(
            f"unknown scenario {name!r} (and no such file); "
            f"known: {', '.join(sorted(SCENARIOS))}"
        )
    return build_scenario(name, scale=args.scale, seed=args.seed or 0)


def _cmd_list(_args: argparse.Namespace) -> int:
    print(f"{'name':<22} {'tenants':>7} {'devices':>8}  description")
    for name in sorted(SCENARIOS):
        spec = build_scenario(name)
        print(
            f"{name:<22} {len(spec.tenants):>7} {spec.total_devices:>8}  {spec.description}"
        )
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.observability.tracing import Tracer

    spec = _load_spec(args)
    tracing = args.trace_out is not None or args.trace_jsonl is not None
    tracer = Tracer() if tracing else None
    runner = ScenarioRunner(spec, tracer=tracer)
    profiler = None
    if args.profile:
        from repro.observability.profiler import RunProfiler

        profiler = RunProfiler().attach()
    wall_start = time.perf_counter()
    try:
        report = runner.run()
    except TimeoutError as horizon:
        # The run hit spec.max_time (or drained its queue) with tasks
        # unfinished: name them instead of dumping a traceback.
        manager = runner.platform.task_manager
        states = {task.task_id: task.state for task in manager.queue.snapshot()}
        states.update((task_id, active.spec.state) for task_id, active in manager.running.items())
        print(f"scenario {spec.name!r} did not finish: {horizon}", file=sys.stderr)
        for ledger in runner.submissions.values():
            for task_id, submit_time in ledger:
                if task_id not in manager.results:
                    state = states.get(task_id, TaskState.PENDING)  # not yet arrived
                    print(f"  {task_id}: {state.value} (submitted at t={submit_time:g})", file=sys.stderr)
        return 3
    finally:
        wall = time.perf_counter() - wall_start
        if profiler is not None:
            profiler.detach()
    for line in report.summary_lines():
        print(line)
    print(f"  wall time: {wall:.2f}s")
    if args.report_json is not None:
        args.report_json.write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        print(f"  report written to {args.report_json}")
    if tracing:
        from repro.observability.export import write_chrome_trace, write_spans_jsonl

        trace = runner.trace()
        print(f"  trace: {len(trace)} spans")
        if args.trace_out is not None:
            write_chrome_trace(trace, args.trace_out)
            print(f"  Perfetto trace written to {args.trace_out}")
        if args.trace_jsonl is not None:
            write_spans_jsonl(trace, args.trace_jsonl)
            print(f"  span dump written to {args.trace_jsonl}")
    if profiler is not None:
        print("profiler hotspots (wall-clock, self time ranked):")
        print(profiler.table(wall_s=wall))
    if args.sla and not report.sla_ok:
        violated = report.sla_violations()
        print(
            f"SLA check failed: {len(violated)} objective(s) violated", file=sys.stderr
        )
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the built-in scenario library").set_defaults(
        fn=_cmd_list
    )

    name_help = "library scenario name, or path to a YAML/JSON scenario file"
    show = sub.add_parser("show", help="print a scenario spec as JSON")
    show.add_argument("name", help=name_help)
    show.add_argument("--scale", type=int, default=None, help="approximate total devices")
    show.add_argument("--seed", type=_seed_arg, default=None)
    show.set_defaults(fn=_cmd_show)

    run = sub.add_parser("run", help="replay a scenario and print its report")
    run.add_argument("name", help=name_help)
    run.add_argument("--scale", type=int, default=None, help="approximate total devices")
    run.add_argument("--seed", type=_seed_arg, default=None)
    run.add_argument(
        "--report-json",
        type=Path,
        default=None,
        help="also write the full ScenarioReport as JSON",
    )
    run.add_argument(
        "--trace-out",
        type=Path,
        default=None,
        help="write a Chrome/Perfetto trace-event JSON of the run",
    )
    run.add_argument(
        "--trace-jsonl",
        type=Path,
        default=None,
        help="write the span tree as JSONL (one span per line)",
    )
    run.add_argument(
        "--profile",
        action="store_true",
        help="print a ranked wall-clock hotspot table per simulator subsystem",
    )
    run.add_argument(
        "--sla",
        action="store_true",
        help="exit with code 2 when any scenario SLA is violated",
    )
    run.set_defaults(fn=_cmd_run)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())

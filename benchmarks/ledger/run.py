"""The perf ledger: four named workloads, absolute end-to-end metrics, a per-layer trace.

Two ways in (see README.md):

* ``python benchmarks/ledger/run.py [--seed N] [--out FILE]`` runs all four
  workloads, prints every metric by name with its unit, checks the outputs and
  optionally writes a ledger file; ``--smoke`` does it at 1/100 scale and
  ``--compare A.json B.json`` diffs two ledger files.
* ``... run.py --workload W --seed N --seconds S --trace 0|1`` measures one
  workload for S seconds and prints one JSON result line (the contract of
  the root ``BENCHMARK.json``, which also names every metric, unit and bound).

This is a closed, single-process, single-thread batch benchmark: each
workload runs in its own fresh subprocess (``worker.py``) with BLAS/OpenMP
pinned to one thread, does one untimed warm-up at 1/20 scale, then timed
repeats of ``ScenarioRunner(spec).run()`` on the default production path, and
reports medians of host times calibrated against a fixed yardstick kernel
(``reference.py``).  This process stays small (standard library only): a
child's ``ru_maxrss`` starts from its parent's resident size.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from compare import compare_files
from reference import NOMINAL_S, Tick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ("diurnal_mixed", "flash_crowd_flow", "lossy_transport", "direct_hybrid")

#: Thread and hash pins of every worker process (recorded in the manifest).
PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}
#: Extra set-up-only processes per measured run; with the worker's own
#: set-up that makes five samples behind each ``setup_s`` median.
SETUP_PROBES = 4
WORKER_TIMEOUT_S = 170


class WorkerError(RuntimeError):
    """A worker process died or printed no result."""


def load_contract() -> dict:
    """The root ``BENCHMARK.json``: the one list of metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spawn_worker(workload: str, seed: int, *extra: str) -> dict:
    """Run ``worker.py`` to completion and return the JSON it printed last."""
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH", "")]))
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), *extra]
    command += ["--spawned-at", repr(time.time())]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise WorkerError(f"{workload} worker exited {done.returncode}:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarize(samples: list[float], raw: list[float] | None = None) -> dict:
    """Median, range and count of ``samples``; ``raw`` is the same times before calibration."""
    row = {"median": statistics.median(samples), "min": min(samples), "max": max(samples), "n": len(samples),
           "samples": samples}
    if raw is not None:
        row["raw_median"] = statistics.median(raw)
    return row


def measure(workload: str, seed: int, seconds: float, trace: bool, scale_div: int = 1, probes: int = SETUP_PROBES,
            spans_out: str = "") -> dict:
    """One measured run of one workload: a plain worker, or a traced one.

    Returns the worker's result with ``end_to_end`` (plain) or ``per_layer``
    (traced) summaries added; every repeat is one operation.
    """
    extra = ["--seconds", str(seconds), "--scale-div", str(scale_div), "--trace", str(int(trace))]
    setups = [spawn_worker(workload, seed, *extra, "--setup-only") for _ in range(0 if trace else probes)]
    if spans_out:
        extra += ["--spans-out", spans_out]
    result = spawn_worker(workload, seed, *extra)
    if trace:
        names = sorted({name for op in result["traced"] for name in op["metrics"]})
        result["per_layer"] = {name: summarize([op["metrics"][name] for op in result["traced"]]) for name in names}
    elif result["plain"] and "full_repeat" in result:
        setups.append(result)
        plain = result["plain"]
        walls = [op["wall_s"] for op in plain]
        result["end_to_end"] = {
            "devices_per_s": summarize([result["timed"]["devices"] / wall for wall in walls],
                                       [result["timed"]["devices"] / op["raw_wall_s"] for op in plain]),
            "wall_s": summarize(walls, [op["raw_wall_s"] for op in plain]),
            "cpu_s": summarize([op["cpu_s"] for op in plain], [op["raw_cpu_s"] for op in plain]),
            "peak_rss_mb": summarize([result["peak_rss_mb"]]),
            "setup_s": summarize([row["setup_s"] for row in setups], [row["raw_setup_s"] for row in setups]),
        }
    return result


def print_metrics(workload: str, summaries: dict[str, dict], specs: list[dict]) -> None:
    for spec in specs:
        row = summaries.get(spec["name"])
        if row is None:
            print(f"  {workload}.{spec['name']}: not measured")
            continue
        notes = [f"min {row['min']:.6g}", f"max {row['max']:.6g}", f"n={row['n']}"] if row["n"] > 1 else []
        if "raw_median" in row:
            notes.append(f"uncalibrated median {row['raw_median']:.6g}")
        print(f"  {workload}.{spec['name']} = {row['median']:.6g} {spec['unit']}"
              f"{'  (' + ', '.join(notes) + ')' if notes else ''}")


def print_outcome(result: dict) -> None:
    for key in ("timed", "full"):
        row = result[key]
        if row:
            print(f"  {result['workload']} at {key} scale {row['scale']}: {row['devices']} devices, {row['tasks']} "
                  f"tasks, digest {row['digest'][:16]}{' (pinned)' if result['pinned'] else ''}")
    if result["why_unpinned"]:
        print(f"    digests not pinned: {result['why_unpinned']}")
    print(f"  {result['workload']}: ops_attempted={result['ops_attempted']} ops_failed={result['ops_failed']}")
    for failure in result["failures"]:
        print(f"    FAILED {failure}")
    if result.get("missing_points") or result.get("failed_hooks"):
        print(f"    missing_points={result.get('missing_points')} failed_hooks={result.get('failed_hooks')}")


# ----------------------------------------------------------------------
# the driver's entry: one workload, one JSON line
# ----------------------------------------------------------------------
def run_single(args: argparse.Namespace) -> int:
    contract = load_contract()
    trace = bool(args.trace)
    result = measure(args.workload, args.seed, args.seconds, trace, scale_div=100 if args.smoke else 1)
    specs = contract["per_layer" if trace else "end_to_end"]
    summaries = result.get("per_layer" if trace else "end_to_end", {})
    print_outcome(result)
    print_metrics(args.workload, summaries, specs)
    correct = result["ops_failed"] == 0 and all(spec["name"] in summaries for spec in specs)
    print(json.dumps({
        "correct": correct,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            spec["name"]: {"value": summaries[spec["name"]]["median"], "unit": spec["unit"]}
            for spec in specs if spec["name"] in summaries
        },
    }))
    return 0


# ----------------------------------------------------------------------
# the ledger: all four workloads, plain + traced, one file
# ----------------------------------------------------------------------
def git_state() -> dict:
    def git(*command: str) -> str | None:
        try:
            done = subprocess.run(["git", *command], cwd=ROOT, capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {"git_sha": sha or "unknown", "git_dirty": bool(status) if status is not None else None}


def run_ledger(args: argparse.Namespace) -> int:
    contract = load_contract()
    scale_div, seconds, probes = (100, 0.0, 1) if args.smoke else (1, args.seconds, SETUP_PROBES)
    ledger: dict = {
        "manifest": {
            **git_state(),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "seed": args.seed,
            "seconds": seconds,
            "scale_div": scale_div,
            "pins": PINS,
            # the machine yardstick (``ci_gate.py``'s calibration idea, with the ledger's own kernel)
            "yardstick_nominal_s": NOMINAL_S,
            "yardstick_s": statistics.median(Tick().wall_s for _ in range(5)),
        },
        "workloads": {},
    }
    failed = 0
    for workload in WORKLOADS:
        print(f"== {workload}")
        plain = measure(workload, args.seed, seconds, trace=False, scale_div=scale_div, probes=probes)
        print_outcome(plain)
        print_metrics(workload, plain.get("end_to_end", {}), contract["end_to_end"])
        spans_out = f"{args.spans_out}.{workload}.json" if args.spans_out else ""
        traced = measure(workload, args.seed, seconds, trace=True, scale_div=scale_div, spans_out=spans_out)
        print_outcome(traced)
        print_metrics(workload, traced.get("per_layer", {}), contract["per_layer"])
        if plain["full"].get("digest") != traced["full"].get("digest"):
            traced["failures"].append("traced worker's digest differs from the plain worker's at the same scale")
            traced["ops_failed"] = max(traced["ops_failed"], 1)
        failed += plain["ops_failed"] + traced["ops_failed"]
        ledger["manifest"]["numpy"] = plain["numpy"]
        ledger["workloads"][workload] = {
            "timed": plain["timed"],
            "full": plain["full"],
            "full_repeat": plain.get("full_repeat"),
            "yardstick_s": {"plain": plain["yardstick_s"], "traced": traced["yardstick_s"]},
            "ops_attempted": plain["ops_attempted"] + traced["ops_attempted"],
            "ops_failed": plain["ops_failed"] + traced["ops_failed"],
            "failures": plain["failures"] + traced["failures"],
            "missing_points": traced.get("missing_points", []),
            "failed_hooks": traced.get("failed_hooks", []),
            "end_to_end": plain.get("end_to_end", {}),
            "per_layer": traced.get("per_layer", {}),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    print(f"ledger: {'FAILED' if failed else 'ok'} ({failed} failed operations)")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="measure one workload and print one JSON line")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="how long each worker measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 prints the end-to-end metrics, 1 the per-layer ones")
    parser.add_argument("--out", help="write the ledger (all workloads) to this JSON file")
    parser.add_argument("--smoke", action="store_true", help="1/100 scale, three repeats: checks the harness")
    parser.add_argument("--spans-out", help="prefix for per-workload span dumps of the last traced repeat")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), help="diff two ledger files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare_files(*args.compare, load_contract())
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no simulator to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        return run_single(args) if args.workload else run_ledger(args)
    except (WorkerError, subprocess.TimeoutExpired) as error:
        print(error, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""``run.py --compare A.json B.json``: diff two ledger files.

A is the base (the parent commit, or the first of two sets of runs of one
commit), B the candidate.  For every (workload, end-to-end metric) pair it
prints both medians, the delta with its base, the bound fixed in
``BENCHMARK.json`` and a verdict:

* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound and the two sides'
  samples overlap: the pair neither shows nor rules out a regression;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``ok`` — otherwise.

Deterministic quantities (report digests, simulated statistics, work counts)
must be identical, and the per-layer deltas are listed below so a moved
end-to-end number can be traced to the layer that moved it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

#: A set-up time difference below this many seconds is never a regression.
SETUP_FLOOR_S = 0.1
#: Per-layer metrics with these suffixes are host timings; the rest must repeat exactly.
TIMING_SUFFIXES = (
    ".self_s", ".share", ".us_per_device", ".us_per_device_round", ".overhead_ratio", ".unattributed_share",
)


def spread(samples: list[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than two samples)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    median = statistics.median(samples)
    return (q3 - q1) / median if median else 0.0


def verdict(base: dict, candidate: dict, spec: dict) -> tuple[str, float, float]:
    """(``ok`` / ``regressed`` / ``unresolved``, worsening as a share of base, spread)."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worsening = sign * (candidate["median"] - base["median"]) / base["median"]
    width = max(spread(base["samples"]), spread(candidate["samples"]))
    a, b = base["samples"], candidate["samples"]
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if width > spec["bound"] and overlap:
        return "unresolved", worsening, width
    below_floor = spec["name"] == "setup_s" and abs(candidate["median"] - base["median"]) < SETUP_FLOOR_S
    if worsening > spec["bound"] and not below_floor:
        return "regressed", worsening, width
    return "ok", worsening, width


def compare_files(path_a: str, path_b: str, contract: dict) -> int:
    """Print the comparison; exit status 1 when anything regressed or differs."""
    a = json.loads(Path(path_a).read_text(encoding="utf-8"))
    b = json.loads(Path(path_b).read_text(encoding="utf-8"))
    for side, ledger in (("A", a), ("B", b)):
        m = ledger["manifest"]
        print(f"{side}: git {m['git_sha'][:12]}{'+dirty' if m['git_dirty'] else ''} seed {m['seed']} "
              f"python {m['python']} numpy {m.get('numpy')} nproc {m['nproc']} "
              f"yardstick {m['yardstick_s']:.4g} s (nominal {m['yardstick_nominal_s']:g} s)")
    bad = 0
    for workload, row_a in a["workloads"].items():
        row_b = b["workloads"].get(workload)
        if row_b is None:
            print(f"\n== {workload}: missing from B")
            bad += 1
            continue
        print(f"\n== {workload} (timed scale {row_a['timed']['scale']}, full scale {row_a['full']['scale']})")
        print(f"  {'end-to-end metric':<16} {'A median':>12} {'B median':>12} {'delta (base A)':>15} "
              f"{'bound':>6} {'spread':>7}  verdict")
        for spec in contract["end_to_end"]:
            name = spec["name"]
            if name not in row_a["end_to_end"] or name not in row_b["end_to_end"]:
                print(f"  {name:<16} not measured on both sides")
                bad += 1
                continue
            base, candidate = row_a["end_to_end"][name], row_b["end_to_end"][name]
            status, _, width = verdict(base, candidate, spec)
            delta = (candidate["median"] - base["median"]) / base["median"]
            print(f"  {name:<16} {base['median']:>12.6g} {candidate['median']:>12.6g} {delta:>+14.2%} "
                  f"{spec['bound']:>6.0%} {width:>7.2%}  {status}")
            bad += status == "regressed"
        same = row_a["timed"] == row_b["timed"] and row_a["full"] == row_b["full"]
        print(f"  deterministic: scales, digests and simulated statistics {'identical' if same else 'DIFFER'}")
        bad += not same
        print(f"  {'per-layer metric':<34} {'A':>12} {'B':>12} {'delta (base A)':>15}")
        for spec in contract["per_layer"]:
            name = spec["name"]
            va = row_a["per_layer"].get(name, {}).get("median")
            vb = row_b["per_layer"].get(name, {}).get("median")
            if va is None or vb is None:
                print(f"  {name:<34} not measured on both sides")
                continue
            if not va and not vb:
                continue
            delta = f"{(vb - va) / va:>+14.2%}" if va else f"{'new':>14}"
            note = ""
            if not name.endswith(TIMING_SUFFIXES) and va != vb:
                note = "  DIFFERS (must repeat exactly)"
                bad += 1
            print(f"  {name:<34} {va:>12.6g} {vb:>12.6g} {delta}{note}")
    print(f"\ncompare: {'ok' if not bad else f'{bad} regressed or differing rows'}")
    return 1 if bad else 0

"""Definition-level reachability audit of ``src/repro`` (``python benchmarks/reachability.py``).

Runs every production entry point in this process under ``sys.setprofile``
and lists the functions under ``src/repro`` that were never called: the
experiments CLI at ``--scale small``, each library scenario through the
scenarios CLI with every ``run`` flag, one scenario-file run, the four
examples, and the four ledger workloads at their timed scales.  Scenarios and
examples run at their default sizes: the numeric phone block, the phone tier's
per-wave delivery and the 128-row fold only run from there.

A never-run function must be listed in ``reachability_allow.txt``
(``path::qualname  reason``) under one of :data:`REASONS`; the script exits 1
on an unlisted never-run function, or on an entry that now runs or no longer
exists.  Interface declarations — a body that is only a docstring, ``...``,
``pass`` or ``raise NotImplementedError`` — have nothing to run and are skipped.
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOW = Path(__file__).with_name("reachability_allow.txt")
REASONS = ("failure path", "test oracle/observer", "public scalar API")
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "examples"), str(ROOT / "benchmarks" / "ledger")]


def is_declaration(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Protocol methods, abstract stubs and no-op hook defaults."""
    body = [s for s in node.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))]
    return all(isinstance(s, ast.Pass) or ast.unparse(s).startswith("raise NotImplementedError") for s in body)


def definitions() -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (path::qualname, lines)`` for every ``def`` under ``src/repro``."""
    found = {}

    def visit(node: ast.AST, prefix: str, path: Path) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and not is_declaration(child):
                    # A code object starts at its first decorator.
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    label = f"{path.relative_to(PACKAGE).as_posix()}::{name}"
                    found[str(path), first] = (label, child.end_lineno - child.lineno + 1)
                visit(child, name + ".", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), "", path)
    return found


def run_entry_points(tmp: Path) -> None:
    """Every production entry point, at its default size."""
    from workloads import SCALES, build_spec

    from repro.experiments.__main__ import main as experiments
    from repro.scenarios import ScenarioRunner
    from repro.scenarios.__main__ import main as scenarios
    from repro.scenarios.library import SCENARIOS

    experiments(["list"])
    experiments(["all", "--scale", "small"])
    scenarios(["list"])
    for name in sorted(SCENARIOS):
        outputs = [f"--{flag}={tmp / flag}" for flag in ("trace-out", "trace-jsonl", "report-json")]
        scenarios(["run", name, "--sla", "--profile", *outputs])
    with contextlib.redirect_stdout(io.StringIO()) as shown:
        scenarios(["show", "lossy_uplink", "--scale", "120"])
    (tmp / "spec.json").write_text(shown.getvalue(), encoding="utf-8")
    scenarios(["run", str(tmp / "spec.json"), "--seed", "1"])
    for example in ("quickstart", "global_traffic_replay", "dropout_robustness_study", "recommendation_ab_campaign"):
        importlib.import_module(example).main()
    for workload, scale in SCALES.items():
        ScenarioRunner(build_spec(workload, scale, 0)).run()


def main() -> int:
    seen = set()
    sys.setprofile(lambda frame, event, arg: seen.add(frame.f_code) if event == "call" else None)
    try:
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            run_entry_points(Path(tmp))
    finally:
        sys.setprofile(None)
    ran = {(code.co_filename, code.co_firstlineno) for code in seen}
    defs = definitions()
    never = {label: lines for key, (label, lines) in defs.items() if key not in ran}
    allowed = {}
    for line in ALLOW.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            label, _, reason = line.partition("  ")
            allowed[label] = reason.strip()
    problems = [f"never runs, not allowlisted: {label}" for label in sorted(never.keys() - allowed.keys())]
    problems += [f"allowlisted but runs or is gone: {label}" for label in sorted(allowed.keys() - never.keys())]
    problems += [f"unknown reason {r!r}: {label}" for label, r in sorted(allowed.items()) if r not in REASONS]
    for label in sorted(never):
        print(f"{never[label]:5d}  {label}  [{allowed.get(label, 'NOT ALLOWLISTED')}]")
    total = sum(lines for _, lines in defs.values())
    package_lines = sum(path.read_text(encoding="utf-8").count("\n") for path in PACKAGE.rglob("*.py"))
    print(
        f"{len(never)} of {len(defs)} functions never run: {sum(never.values())} of {total} function-body lines; "
        f"src/repro is {package_lines} *.py lines"
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

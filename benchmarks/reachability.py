"""Definition- and option-level reachability audit of ``src/repro`` (``python benchmarks/reachability.py``).

Runs every production entry point in this process under ``sys.setprofile``,
lists the functions under ``src/repro`` that were never called, and for the
ones that were, the defaulted parameters that bound one value only: the
experiments CLI at ``--scale small``, each library scenario through the
scenarios CLI with every ``run`` flag, two scenario-file runs (edited to arm
every round-deadline gate), the four examples, and the four ledger workloads at their timed scales.  Scenarios and
examples run at their default sizes: the numeric phone block, the phone tier's
per-wave delivery and the 128-row fold only run from there.

A never-run function must be listed in ``reachability_allow.txt``
(``path::qualname  reason``) under one of :data:`REASONS`; the script exits 1
on an unlisted never-run function, or on an entry that now runs or no longer
exists.  Interface declarations — a body that is only a docstring, ``...``,
``pass`` or ``raise NotImplementedError`` — have nothing to run and are skipped.

A defaulted parameter of a function that ran is one-valued when every call
bound its default (``only default``: the option is a constant) or none did
(``default never``: the default and its fallback are dead).  It is listed as
``path::qualname(param)`` with the reason ``user input`` when a spec field,
``PlatformConfig`` field, ``SimDC.submit`` argument, CLI flag or ``run_*``
experiment argument carries it, and otherwise loses the parameter or the
default.  Dataclass-generated ``__init__``s are not under ``src/repro`` as
far as the profile hook can tell and are read by hand.
"""

from __future__ import annotations

import ast
import contextlib
import enum
import gc
import importlib
import io
import json
import pkgutil
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ALLOW = Path(__file__).with_name("reachability_allow.txt")
REASONS = ("failure path", "test oracle/observer", "public scalar API")
OPTION_REASON = "user input"
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

    def shown(name: str, scale: int) -> dict:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            scenarios(["show", name, "--scale", str(scale)])
        return json.loads(out.getvalue())

    def run_file(spec: dict) -> None:
        (tmp / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        scenarios(["run", str(tmp / "spec.json"), "--seed", "1"])

    # The library arms a round deadline only on flow tenants behind the lossy
    # channel.  A direct tenant with a deadline some uploads miss runs the
    # channel's late gate; the same on a channel-free file runs the sink's,
    # for direct blocks and for flow deliveries (two waves, one too late).
    def late_direct(tenant: dict, deadline_s: float) -> dict:
        return dict(tenant, name="late-direct", dispatch={"kind": "direct"}, deadline_s=deadline_s)

    lossy = shown("lossy_uplink", 120)
    lossy["tenants"].append(late_direct(lossy["tenants"][1], 6.0))
    run_file(lossy)
    flash = shown("flash_crowd", 100)
    steady = flash["tenants"][0]
    steady.update(deadline_s=4.0, grades=[dict(steady["grades"][0], bundles=4)])
    flash["tenants"].append(late_direct(steady, 4.0))
    run_file(flash)
    for example in ("quickstart", "global_traffic_replay", "dropout_robustness_study", "recommendation_ab_campaign"):
        importlib.import_module(example).main()
    for workload, scale in SCALES.items():
        ScenarioRunner(build_spec(workload, scale, 0)).run()


def defaulted_parameters() -> dict[types.CodeType, dict[str, object]]:
    """``code -> {parameter: default}`` for every function defined under ``src/repro``."""
    import repro

    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(module.name)
    found = {}
    for function in gc.get_objects():
        if isinstance(function, types.FunctionType) and function.__code__.co_filename.startswith(str(PACKAGE)):
            code = function.__code__
            positional = code.co_varnames[: code.co_argcount]
            defaults = function.__defaults__ or ()
            found[code] = dict(zip(positional[len(positional) - len(defaults) :], defaults))
            found[code].update(function.__kwdefaults__ or {})
    return found


def is_default(value: object, default: object) -> bool:
    if value is default:
        return True
    plain = isinstance(default, (bool, int, float, str, tuple, frozenset, enum.Enum))
    return plain and type(value) is type(default) and value == default


def read_allowlist() -> dict[str, str]:
    allowed = {}
    for line in ALLOW.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            label, _, reason = line.partition("  ")
            allowed[label] = reason.strip()
    return allowed


def main() -> int:
    seen = set()
    # (code, parameter) -> how calls bound it: {True} (its default), {False} or
    # both.  A parameter leaves ``pending`` once both, so a hot function costs
    # one dict lookup per call.  ``defaults`` is filled under the hook, because
    # importing the package calls functions too.
    defaults, pending, bindings = {}, {}, {}

    def on_call(frame: types.FrameType, event: str, arg: object) -> None:
        if event != "call":
            return
        code = frame.f_code
        seen.add(code)
        undecided = pending.get(code)
        if undecided:
            values = frame.f_locals
            for name in tuple(undecided):
                ways = bindings.setdefault((code, name), set())
                ways.add(is_default(values[name], defaults[code][name]))
                if len(ways) == 2:
                    undecided.discard(name)

    sys.setprofile(on_call)
    try:
        defaults.update(defaulted_parameters())
        pending.update({code: set(params) for code, params in defaults.items() if params})
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            run_entry_points(Path(tmp))
    finally:
        sys.setprofile(None)
    ran = {(code.co_filename, code.co_firstlineno) for code in seen}
    defs = definitions()
    never = {label: lines for key, (label, lines) in defs.items() if key not in ran}
    one_valued = {
        f"{defs[code.co_filename, code.co_firstlineno][0]}({name})": "only default" if True in ways else "default never"
        for (code, name), ways in bindings.items()
        if len(ways) == 1 and (code.co_filename, code.co_firstlineno) in defs
    }
    allowed = read_allowlist()
    listed_options = {label for label in allowed if label.endswith(")")}
    listed_functions = allowed.keys() - listed_options
    problems = [f"never runs, not allowlisted: {label}" for label in sorted(never.keys() - listed_functions)]
    problems += [f"allowlisted but runs or is gone: {label}" for label in sorted(listed_functions - never.keys())]
    problems += [f"binds one value, not allowlisted: {label}" for label in sorted(one_valued.keys() - listed_options)]
    problems += [
        f"allowlisted but binds two values or is gone: {label}" for label in sorted(listed_options - one_valued.keys())
    ]
    for label, reason in sorted(allowed.items()):
        if reason not in REASONS and not (label in listed_options and reason == OPTION_REASON):
            problems.append(f"unknown reason {reason!r}: {label}")
    for label in sorted(never):
        print(f"{never[label]:5d}  {label}  [{allowed.get(label, 'NOT ALLOWLISTED')}]")
    for label in sorted(one_valued):
        print(f"{one_valued[label]:>13}  {label}  [{allowed.get(label, 'NOT ALLOWLISTED')}]")
    total = sum(lines for _, lines in defs.values())
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE.rglob("*.py")]
    statement_lines = sum(
        len({node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.stmt)}) for source in sources
    )
    as_input = sum(1 for label in one_valued.keys() & listed_options if allowed[label] == OPTION_REASON)
    print(
        f"{len(one_valued)} defaulted parameters bind one value in production: "
        f"{as_input} allowlisted as {OPTION_REASON}, {len(one_valued.keys() - listed_options)} unlisted"
    )
    package_lines = sum(source.count("\n") for source in sources)
    print(
        f"{len(never)} of {len(defs)} functions never run: {sum(never.values())} of {total} function-body lines; "
        f"src/repro is {package_lines} *.py lines ({statement_lines} statement lines)"
    )
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

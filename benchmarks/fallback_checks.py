"""Stdlib stand-ins for ``ruff`` and ``pytest-cov`` where neither is installed.

CI runs the real tools (``ruff check``, ``pytest --cov=repro
--cov-fail-under=90``); a build container without them runs this instead, so
the check is at least the same from one PR to the next:

    python benchmarks/fallback_checks.py lint [PATH ...]        # F401 + E501, default src tests benchmarks examples
    python benchmarks/fallback_checks.py cov [--fail-under N] [PYTEST ARG ...]   # line coverage of src/repro

``lint`` knows two of the configured rules: unused imports (a name bound by
an import and read nowhere in the module — ``__all__`` entries, quoted
annotations and ``# noqa`` lines count as reads) and lines over the
``line-length`` in ``pyproject.toml``.  ``cov`` runs the tier-1 suite in this
process under ``sys.settrace`` and tallies executed over executable lines
(``# pragma: no cover`` lines and the blocks they open are excluded).  Both
over-approximate what the real tools accept; neither replaces them.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LINE_LENGTH = int(re.search(r"^line-length = (\d+)", (ROOT / "pyproject.toml").read_text(), re.M).group(1))
WORD = re.compile(r"[A-Za-z_]\w*")


def lint_file(path: Path) -> list[str]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    problems = [
        f"{path}:{number}: E501 line too long ({len(line)} > {LINE_LENGTH})"
        for number, line in enumerate(lines, start=1)
        if len(line) > LINE_LENGTH and "noqa" not in line
    ]
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*" and "noqa" not in lines[node.lineno - 1]:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.update(WORD.findall(node.value))  # __all__ entries, quoted annotations
    problems += [
        f"{path}:{lineno}: F401 {name!r} imported but unused"
        for name, lineno in sorted(imported.items(), key=lambda item: item[1])
        if name not in read
    ]
    return problems


def lint(paths: list[str]) -> int:
    roots = [ROOT / p for p in (paths or ["src", "tests", "benchmarks", "examples"])]
    files = sorted(f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py")))
    problems = [problem for f in files for problem in lint_file(f)]
    print("\n".join(problems) if problems else f"lint: {len(files)} files clean (F401, E501 at {LINE_LENGTH})")
    return 1 if problems else 0


def executable_lines(path: Path) -> set[int]:
    """Line numbers that carry bytecode, minus ``# pragma: no cover`` lines and their blocks."""
    text = path.read_text(encoding="utf-8")
    found: set[int] = set()
    stack = [compile(text, str(path), "exec")]
    while stack:
        code = stack.pop()
        found.update(line for _, _, line in code.co_lines() if line)
        stack.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    lines = text.splitlines()
    for number, line in enumerate(lines, start=1):
        if "pragma: no cover" in line:
            found.discard(number)
            indent = len(line) - len(line.lstrip())
            for later in range(number + 1, len(lines) + 1):
                body = lines[later - 1]
                if body.strip() and len(body) - len(body.lstrip()) <= indent:
                    break
                found.discard(later)
    # A docstring's line carries a store to __doc__ that only import runs.
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            found.difference_update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return found


def cov(args: list[str]) -> int:
    fail_under = 90.0
    if args[:1] == ["--fail-under"]:
        fail_under, args = float(args[1]), args[2:]
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE)
    hit: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(trace)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *args])
    finally:
        sys.settrace(None)
    rows = []
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        ran = {line for line in lines if (str(path), line) in hit}
        rows.append((path.relative_to(PACKAGE).as_posix(), len(ran), len(lines)))
    for name, ran, total in sorted(rows, key=lambda row: row[1] / max(1, row[2]))[:10]:
        print(f"{100 * ran / max(1, total):6.1f}%  {ran:5d}/{total:<5d} {name}")
    percent = 100 * sum(r for _, r, _ in rows) / max(1, sum(t for _, _, t in rows))
    print(f"coverage: {percent:.1f}% of src/repro lines (floor {fail_under:g}); pytest exit {int(status)}")
    return 1 if status or percent < fail_under else 0


if __name__ == "__main__":
    command, rest = (sys.argv[1:2] or [""])[0], sys.argv[2:]
    if command not in ("lint", "cov"):
        sys.exit(__doc__)
    sys.exit(lint(rest) if command == "lint" else cov(rest))

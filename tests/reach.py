"""Reach check: every statement under src/birdedge runs in the tier-1 suite.

Runs the suite in this process under sys.settrace (and threading.settrace,
for the threads a test starts), records each line of src/birdedge that
runs, and fails when a statement ran on none of its own lines. A
statement's own lines are its lines without those of the statements it
holds, so an `if` is one statement and each statement of its branches
another. A compound statement whose header has no code of its own, such
as `try:`, counts as reached when a statement in it is. Docstrings,
`global` and `nonlocal` compile to no code and are left out.

The one listed exception is `cli.entry`, with the `__main__` guard that
calls it: only the console script runs them, in a process of its own.

Run from anywhere, with pytest arguments in place of the tier-1 ones if
given (the check then covers only what those tests run):

    python3 tests/reach.py

Exits 0 when every statement is reached, 1 when one is not (each printed
as path:line and its first line), or pytest's own status when the suite
does not pass. The suite runs about twice as slowly as without the trace.
The file has no test_ prefix, so pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "birdedge"
TIER1 = ("-q", "--continue-on-collection-errors", "-p", "no:cacheprovider")
# (file relative to PACKAGE, function) whose bodies no in-process test runs
EXEMPT_FUNCTIONS = {("cli.py", "entry")}


def record_lines() -> dict[str, set[int]]:
    """Start tracing every thread; returns {path: lines run}, filled as
    code under PACKAGE runs."""
    hits: dict[str, set[int]] = {}
    ours: dict[str, set[int] | None] = {}  # co_filename -> its hit set, or None
    prefix = str(PACKAGE) + os.sep

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in ours:
            path = os.path.realpath(name)
            ours[name] = hits.setdefault(path, set()) if path.startswith(prefix) else None
        lines = ours[name]
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    threading.settrace(call)
    sys.settrace(call)
    return hits


def is_docstring(body: list[ast.stmt], index: int) -> bool:
    """Whether body[index] is its body's docstring."""
    node = body[index]
    return (index == 0 and isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))


def children(node: ast.AST) -> list[list[ast.stmt]]:
    """The statement lists a compound statement holds, handlers' and match
    cases' bodies included."""
    blocks = [getattr(node, field) for field in ("body", "orelse", "finalbody")
              if isinstance(getattr(node, field, None), list)]
    for holder in getattr(node, "handlers", []) + getattr(node, "cases", []):
        blocks.append(holder.body)
    return blocks


def is_main_guard(node: ast.stmt) -> bool:
    """Whether node is `if __name__ == "__main__":`."""
    test = getattr(node, "test", None)
    return (isinstance(node, ast.If) and isinstance(test, ast.Compare)
            and isinstance(test.left, ast.Name) and test.left.id == "__name__"
            and isinstance(test.comparators[0], ast.Constant)
            and test.comparators[0].value == "__main__")


def unreached(path: Path, lines_run: set[int]) -> tuple[list[int], int]:
    """(first lines of the statements of path that ran on none of their own
    lines, count of statements checked)."""
    relative = path.relative_to(PACKAGE).as_posix()
    missed: list[int] = []
    checked = 0

    def visit(body: list[ast.stmt], exempt: bool) -> bool:
        """Whether any statement of body ran; records those that did not."""
        nonlocal checked
        ran_any = False
        for index, node in enumerate(body):
            if is_docstring(body, index) or isinstance(node, (ast.Global, ast.Nonlocal)):
                continue
            blocks = children(node)
            start = min([node.lineno] + [d.lineno for d in
                                         getattr(node, "decorator_list", [])])
            own = set(range(start, node.end_lineno + 1))
            for block in blocks:
                for inner in block:
                    own -= set(range(inner.lineno, inner.end_lineno + 1))
            inner_exempt = exempt or (relative, getattr(node, "name", None)) in \
                EXEMPT_FUNCTIONS or is_main_guard(node)
            ran = bool(own & lines_run)
            for block in blocks:
                ran = visit(block, inner_exempt) or ran
            if not exempt:
                checked += 1
                if not ran:
                    missed.append(node.lineno)
            ran_any = ran_any or ran
        return ran_any

    visit(ast.parse(path.read_text(), str(path)).body, False)
    return sorted(missed), checked


def main(argv: list[str]) -> int:
    os.chdir(ROOT)
    hits = record_lines()
    try:
        status = pytest.main(argv or list(TIER1))
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"reach: the suite did not pass (pytest exit {status})", file=sys.stderr)
        return int(status)
    missed = total = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text().splitlines()
        lines, checked = unreached(path, hits.get(str(path), set()))
        for line in lines:
            print(f"UNREACHED {path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
        missed, total = missed + len(lines), total + checked
    print(f"reach: {missed} of {total} statements under "
          f"{PACKAGE.relative_to(ROOT)} unreached")
    return int(missed > 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

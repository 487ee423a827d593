"""Which statements of src/qcurv no report reaches.

Runs, in one process and under a ``sys.settrace`` line tracer, every
pinned command of tests/test_report.py (PINNED and PINNED_ONE_THREAD), one
``--report`` call, one ``--jet-file`` call and every demo.  Then it prints,
module by module, the statements that no run reached, split into refusals
(a ``raise``, or a statement of an if/else branch or except handler that
ends in one) and the rest, with the source line of each of the rest.

    python tools/reach_audit.py [ROOT]

ROOT is the checkout to audit (default: the one this file is in); qcurv is
imported from ROOT/src.  A statement counts once, a compound one by its
header; docstrings are not statements.  Stdlib only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import runpy
import sys
import tempfile
from dataclasses import dataclass, field


@dataclass
class Stmt:
    first: int  # the lines whose trace means "reached": a simple statement's
    last: int   # whole span, a compound statement's header
    refusal: bool
    children: list = field(default_factory=list)


def _ends_in_raise(body: list) -> bool:
    """Whether a block ends in a raise, or in an if/else whose branches all do."""
    last = body[-1] if body else None
    if isinstance(last, ast.If) and last.orelse:
        return _ends_in_raise(last.body) and _ends_in_raise(last.orelse)
    return isinstance(last, ast.Raise)


def _is_docstring(node) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
        and isinstance(node.value.value, str)


def _block(body: list, refusing: bool, documented: bool = False) -> list[Stmt]:
    if documented and body and _is_docstring(body[0]):
        body = body[1:]
    return [_stmt(node, refusing) for node in body]


def _stmt(node, refusing: bool) -> Stmt:
    body = getattr(node, "body", None)
    if not isinstance(body, list):  # a simple statement
        return Stmt(node.lineno, node.end_lineno, refusing or isinstance(node, ast.Raise))
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    out = Stmt(first, max(first, body[0].lineno - 1), refusing)
    documented = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    if isinstance(node, ast.If):  # each branch is its own block
        out.children = (_block(node.body, refusing or _ends_in_raise(node.body))
                        + _block(node.orelse, refusing or _ends_in_raise(node.orelse)))
        return out
    out.children = _block(body, refusing, documented) + _block(getattr(node, "orelse", []), refusing)
    for handler in getattr(node, "handlers", []):
        out.children += _block(handler.body, refusing or _ends_in_raise(handler.body))
    out.children += _block(getattr(node, "finalbody", []), refusing)
    return out


def module_statements(path: str) -> list[Stmt]:
    with open(path, encoding="utf-8") as f:
        return _block(ast.parse(f.read()).body, False, documented=True)


def unreached(stmts: list[Stmt], hits: set[int]) -> tuple[int, list[Stmt]]:
    """(statement count, the unreached ones).  A compound statement is
    reached when its header is traced or any statement inside it is."""
    total, missed = 0, []

    def walk(s: Stmt) -> bool:
        nonlocal total
        total += 1
        inner = [walk(c) for c in s.children]
        reached = any(line in hits for line in range(s.first, s.last + 1)) or any(inner)
        if not reached:
            missed.append(s)
        return reached

    for s in stmts:
        walk(s)
    return total, sorted(missed, key=lambda s: s.first)


def pinned_argvs(root: str) -> list[list[str]]:
    """The argvs of PINNED and PINNED_ONE_THREAD, each once, read from the
    assignments of tests/test_report.py without importing the test."""
    with open(os.path.join(root, "tests", "test_report.py"), encoding="utf-8") as f:
        tree = ast.parse(f.read())
    names = {"PINNED", "_BLAS_GRAM", "PINNED_ONE_THREAD"}
    assigns = [node for node in tree.body if isinstance(node, ast.Assign)
               and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)]
    scope: dict = {}
    exec(compile(ast.Module(body=assigns, type_ignores=[]), "test_report.py", "exec"), scope)
    out = []
    for argv, _ in scope["PINNED"] + scope["PINNED_ONE_THREAD"]:
        if argv not in out:
            out.append(argv)
    return out


def _ranges(lines: list[int]) -> str:
    parts, start = [], None
    for i, line in enumerate(lines):
        start = line if start is None else start
        if i + 1 == len(lines) or lines[i + 1] != line + 1:
            parts.append(str(start) if start == line else f"{start}-{line}")
            start = None
    return " ".join(parts)


def main(root: str) -> int:
    src = os.path.join(root, "src")
    package = os.path.join(src, "qcurv")
    modules = sorted(os.path.realpath(os.path.join(package, name))
                     for name in os.listdir(package) if name.endswith(".py"))
    wanted = set(modules)
    hits: dict[str, set[int]] = {path: set() for path in modules}
    seen: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            hits[seen[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in seen:
            real = os.path.realpath(name)
            seen[name] = real if real in wanted else None
        return local if seen[name] else None

    sys.path.insert(0, src)
    runs: list[tuple[str, object]] = []
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        sys.settrace(tracer)
        try:
            from qcurv import parametrix
            from qcurv.cli import main as cli

            jet = os.path.join(tmp, "jet.json")
            with open(jet, "w", encoding="utf-8") as f:
                json.dump(parametrix.random_jet(9, 1).to_json(), f)
            argvs = pinned_argvs(root) + [
                ["constants", "--n", "5", "--report", os.path.join(tmp, "report.json")],
                ["parametrix", "--n", "9", "--jet-file", jet],
            ]
            for argv in argvs:
                try:
                    cli.main(args=argv, prog_name="qcurv", standalone_mode=False)
                    code = 0
                except SystemExit as e:
                    code = e.code
                runs.append((" ".join(argv), code))
            demos = os.path.join(root, "demos")
            for name in sorted(os.listdir(demos)):
                if name.endswith(".py"):
                    runpy.run_path(os.path.join(demos, name), run_name="__main__")
                    runs.append((f"demos/{name}", 0))
        finally:
            sys.settrace(None)
    if os.path.realpath(parametrix.__file__) not in wanted:
        print(f"qcurv was imported from {parametrix.__file__}, not from {src}", file=sys.stderr)
        return 2

    for run, code in runs:
        if code != 0:
            print(f"note: {run} exited {code}")
    grand_total = grand_missed = grand_refusals = 0
    for path in modules:
        total, missed = unreached(module_statements(path), hits[path])
        refusals = [s.first for s in missed if s.refusal]
        rest = [s for s in missed if not s.refusal]
        grand_total += total
        grand_missed += len(missed)
        grand_refusals += len(refusals)
        print(f"{os.path.relpath(path, src)}: {len(missed)} of {total} statements unreached, "
              f"{len(refusals)} of them refusals")
        if refusals:
            print(f"  refusals at lines {_ranges(refusals)}")
        with open(path, encoding="utf-8") as f:
            text = f.read().splitlines()
        for s in rest:
            print(f"  {s.first}: {text[s.first - 1].strip()}")
    print(f"total: {grand_missed} of {grand_total} statements unreached, {grand_refusals} refusals, "
          f"{grand_missed - grand_refusals} other; {len(runs)} runs")
    return 0


if __name__ == "__main__":
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.exit(main(os.path.abspath(sys.argv[1]) if len(sys.argv) > 1 else here))

"""Which statements of src/qcurv no report reaches.

Runs, in one process and under a ``sys.settrace`` line tracer, every
pinned command of tests/test_report.py (PINNED and PINNED_ONE_THREAD), one
``--report`` call, one ``--jet-file`` call and every demo.  Then it prints,
module by module, the statements that no run reached, split into refusals
(a ``raise``, or a statement of an if/else branch or except handler that
ends in one) and the rest, with the source line of each of the rest.

    python tools/reach_audit.py [--json] [ROOT]

``--json`` prints one JSON document instead: the run count, the runs that
exited nonzero, the statement count and the unreached statements, each
keyed by module, enclosing qualname ("<module>" at the top level) and its
first source line stripped, with a count for a key that repeats, so the
keys do not move when lines above them do.  tests/test_reach_audit.py
holds that list against an allowlist.

ROOT is the checkout to audit (default: the one this file is in); qcurv is
imported from ROOT/src.  A statement counts once, a compound one by its
header; docstrings are not statements.  Stdlib only.
"""

from __future__ import annotations

import argparse
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
    scope: str  # the enclosing qualname, "<module>" at the top level
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


def _block(body: list, refusing: bool, scope: str, documented: bool = False) -> list[Stmt]:
    if documented and body and _is_docstring(body[0]):
        body = body[1:]
    return [_stmt(node, refusing, scope) for node in body]


def _stmt(node, refusing: bool, scope: str) -> Stmt:
    body = getattr(node, "body", None)
    if not isinstance(body, list):  # a simple statement
        return Stmt(node.lineno, node.end_lineno, refusing or isinstance(node, ast.Raise), scope)
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    out = Stmt(first, max(first, body[0].lineno - 1), refusing, scope)
    documented = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
    inner = (node.name if scope == "<module>" else f"{scope}.{node.name}") if documented else scope
    if isinstance(node, ast.If):  # each branch is its own block
        out.children = (_block(node.body, refusing or _ends_in_raise(node.body), scope)
                        + _block(node.orelse, refusing or _ends_in_raise(node.orelse), scope))
        return out
    out.children = (_block(body, refusing, inner, documented)
                    + _block(getattr(node, "orelse", []), refusing, scope))
    for handler in getattr(node, "handlers", []):
        out.children += _block(handler.body, refusing or _ends_in_raise(handler.body), scope)
    out.children += _block(getattr(node, "finalbody", []), refusing, scope)
    return out


def module_statements(path: str) -> list[Stmt]:
    with open(path, encoding="utf-8") as f:
        return _block(ast.parse(f.read()).body, False, "<module>", documented=True)


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


def main(root: str, as_json: bool = False) -> int:
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

    failed = [f"{run} exited {code}" for run, code in runs if code != 0]
    per_module = {os.path.relpath(path, src): unreached(module_statements(path), hits[path])
                  for path in modules}
    if as_json:
        print(json.dumps({"runs": len(runs), "nonzero_exits": failed,
                          "statements": sum(total for total, _ in per_module.values()),
                          "unreached": _keyed(src, per_module)}, indent=1))
        return 0

    for note in failed:
        print(f"note: {note}")
    grand_total = grand_missed = grand_refusals = 0
    for module, (total, missed) in per_module.items():
        refusals = [s.first for s in missed if s.refusal]
        rest = [s for s in missed if not s.refusal]
        grand_total += total
        grand_missed += len(missed)
        grand_refusals += len(refusals)
        print(f"{module}: {len(missed)} of {total} statements unreached, "
              f"{len(refusals)} of them refusals")
        if refusals:
            print(f"  refusals at lines {_ranges(refusals)}")
        text = _source_lines(os.path.join(src, module))
        for s in rest:
            print(f"  {s.first}: {text[s.first - 1].strip()}")
    print(f"total: {grand_missed} of {grand_total} statements unreached, {grand_refusals} refusals, "
          f"{grand_missed - grand_refusals} other; {len(runs)} runs")
    return 0


def _source_lines(path: str) -> list[str]:
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def _keyed(src: str, per_module: dict) -> list[dict]:
    """The unreached statements as {"module", "qualname", "text", "refusal",
    "count"}, one entry per distinct key, in source order of its first."""
    out: dict[tuple, dict] = {}
    for module, (_, missed) in per_module.items():
        text = _source_lines(os.path.join(src, module))
        for s in missed:
            line = text[s.first - 1].strip()
            key = (module, s.scope, line, s.refusal)
            if key not in out:
                out[key] = {"module": module, "qualname": s.scope, "text": line,
                            "refusal": s.refusal, "count": 0}
            out[key]["count"] += 1
    return list(out.values())


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="List the statements of src/qcurv no report reaches.")
    parser.add_argument("--json", action="store_true", help="print one JSON document")
    parser.add_argument("root", nargs="?", help="the checkout to audit (default: this one)",
                        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    args = parser.parse_args()
    sys.exit(main(os.path.abspath(args.root), args.json))

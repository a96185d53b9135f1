"""List the statements of ``src/heckepairs`` that no command and no
acceptance criterion runs.

    python tools/unreached.py

Every run of ``tools/artifact_diff.py`` is made in this process through
``heckepairs.cli.main``, each with its own empty out directory, and then
``tests/test_acceptance.py`` runs under pytest, both under a
``sys.settrace`` hook that records each function of the package entered
and each line of it run.  A statement of a function's own body (its blocks
included, the bodies of nested defs and classes not) is run when one of its
own lines ran, or, for an ``if``, ``try`` or other block statement, when a
statement inside it did.  Only statements the compiler gives code count, so
a docstring or ``global`` line never does.  Per function, in file order:

- a function never entered, inside one that was (or at class or module
  level), is one line with the statement count of its body and its nested
  functions' bodies;
- in a function entered, each outermost statement not run is one line with
  the count of the statements it holds and its first source line.

Then the totals.  Standard library and pytest only; the trace takes about
80 s on a 2-core machine.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
import types
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "heckepairs")


@dataclass
class Function:
    path: str
    first: int                  # the first decorator's line, as co_firstlineno
    qual: str
    enclosing: tuple | None     # (path, first) of the enclosing function
    body: list = field(default_factory=list)   # its top-level statements


def _first(node) -> int:
    return min([node.lineno] + [d.lineno for d in
                                getattr(node, "decorator_list", ())])


def _children(node) -> list:
    """The statements directly inside a block statement: its bodies, its
    else and finally blocks and the bodies of its except and case clauses.
    A def or class has none: its body is not its enclosing function's."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return []
    out = []
    for name in ("body", "orelse", "finalbody", "handlers", "cases"):
        for item in getattr(node, name, ()):
            out.extend([item] if isinstance(item, ast.stmt) else item.body)
    return out


def _own_lines(node) -> set:
    """The lines of a statement that none of its children holds: a def's
    or class's decorators and header, a block statement's header and
    clause lines, every line of any other statement."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        first = _first(node)
        return set(range(first, max(node.body[0].lineno, first + 1)))
    lines = set(range(node.lineno, node.end_lineno + 1))
    for child in _children(node):
        lines -= set(range(_first(child), child.end_lineno + 1))
    return lines


def defined_functions(path: str, tree) -> list[Function]:
    """Every def of a module, with the statements of its own body."""
    out: list[Function] = []

    def walk(stmts, prefix, enclosing, body):
        for node in stmts:
            body.append(node)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                fn = Function(path, _first(node), prefix + node.name,
                              enclosing)
                out.append(fn)
                walk(node.body, fn.qual + ".", (path, fn.first), fn.body)
            elif isinstance(node, ast.ClassDef):
                walk(node.body, prefix + node.name + ".", enclosing, [])
            else:       # the block's statements are the node's own
                walk(_children(node), prefix, enclosing, [])

    walk(tree.body, "", None, [])
    return out


def code_lines(path: str, source: str) -> set:
    """The lines the compiler gives code, over every code object of the
    module."""
    lines: set = set()
    todo = [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def load_artifact_diff():
    spec = importlib.util.spec_from_file_location(
        "artifact_diff", os.path.join(ROOT, "tools", "artifact_diff.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_commands(main, runs: list, specs: dict, tmp: str) -> None:
    """Each run through ``main``, with its input files written under
    ``tmp`` and its own out directory unless it names one."""
    for name, text in specs.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    for i, cmd in enumerate(runs):
        argv = [os.path.join(tmp, a) if a in specs else a for a in cmd]
        if "--out" not in argv:
            argv += ["--out", os.path.join(tmp, f"out-{i}")]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            try:
                main(argv)
            except SystemExit:
                pass


def trace(files: set, run) -> tuple[set, set]:
    """The (path, co_firstlineno) of each code object of ``files`` entered
    and the (path, line) of each of their lines run while ``run()`` runs."""
    entered: set = set()
    ran: set = set()

    def on_line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return on_line

    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(None)
    return entered, ran


def main() -> int:
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    from heckepairs.cli import main as hecke_main

    diff = load_artifact_diff()
    files = {os.path.join(PACKAGE, name)
             for name in os.listdir(PACKAGE) if name.endswith(".py")}
    codes: list = []

    def run():
        with tempfile.TemporaryDirectory() as tmp:
            run_commands(hecke_main, diff.RUNS, diff.SPECS, tmp)
        codes.append(pytest.main(
            ["-q", "-p", "no:cacheprovider",
             os.path.join(ROOT, "tests", "test_acceptance.py")]))

    entered, ran = trace(files, run)
    if codes[0] != 0:
        print(f"tests/test_acceptance.py exited {codes[0]}", file=sys.stderr)
    n_left = n_skipped = n_functions = 0
    for path in sorted(files):
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        has_code = code_lines(path, source)
        base = os.path.basename(path)

        def counted(node) -> int:
            """The statements of ``node`` and its blocks that have code."""
            own = 1 if _children(node) or _own_lines(node) & has_code else 0
            return own + sum(counted(c) for c in _children(node))

        def was_run(node) -> bool:
            return (any((path, line) in ran for line in _own_lines(node))
                    or any(map(was_run, _children(node))))

        def left(stmts):
            for node in stmts:
                if not counted(node):
                    continue
                if was_run(node):
                    yield from left(_children(node))
                else:
                    yield node

        functions = defined_functions(path, ast.parse(source, path))
        nested: dict = {}
        for fn in functions:
            nested.setdefault(fn.enclosing, []).append(fn)

        def total(fn) -> int:
            return (sum(map(counted, fn.body))
                    + sum(map(total, nested.get((path, fn.first), []))))

        for fn in functions:
            if (path, fn.first) not in entered:
                if fn.enclosing is None or fn.enclosing in entered:
                    n = total(fn)
                    n_skipped += n
                    n_functions += 1
                    print(f"{n:5d}  {base}:{fn.first}  {fn.qual}  "
                          "(never entered)")
                continue
            for node in left(fn.body):
                n = counted(node)
                n_left += n
                print(f"{n:5d}  {base}:{node.lineno}  {fn.qual}: "
                      f"{text[node.lineno - 1].strip()[:60]}")
    print(f"{n_left + n_skipped} statements run by no command and no "
          f"acceptance criterion: {n_left} in functions entered, "
          f"{n_skipped} in {n_functions} functions never entered")
    return 0


if __name__ == "__main__":
    sys.exit(main())

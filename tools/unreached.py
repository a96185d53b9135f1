"""List the functions of ``src/heckepairs`` that no command and no
acceptance criterion reaches.

    python tools/unreached.py

Every run of ``tools/artifact_diff.py`` is made in this process through
``heckepairs.cli.main``, each with its own empty out directory, and then
``tests/test_acceptance.py`` runs under pytest, both under a
``sys.setprofile`` hook that records each Python function entered.  Every
``def`` of the package whose code was never entered, inside a function that
was (or at class or module level), is printed with its line count, then
the totals.  Standard library and pytest only.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "heckepairs")


def defined_functions() -> list[tuple]:
    """(file, first line, qualified name, line count, enclosing function's
    (file, first line) or None) for every def of the package; the first
    line is the first decorator's, as in the function's code object."""
    out = []
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)

        def visit(node, prefix, enclosing):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in
                                                  child.decorator_list])
                    qual = prefix + child.name
                    out.append((path, first, qual,
                                child.end_lineno - first + 1, enclosing))
                    visit(child, qual + ".", (path, first))
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".", enclosing)
                else:
                    visit(child, prefix, enclosing)

        visit(tree, "", None)
    return out


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


def main() -> int:
    import pytest

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.chdir(ROOT)
    from heckepairs.cli import main as hecke_main

    diff = load_artifact_diff()
    reached: set = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(hook)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            run_commands(hecke_main, diff.RUNS, diff.SPECS, tmp)
        code = pytest.main(["-q", "-p", "no:cacheprovider",
                            os.path.join(ROOT, "tests", "test_acceptance.py")])
    finally:
        sys.setprofile(None)
    if code != 0:
        print(f"tests/test_acceptance.py exited {code}", file=sys.stderr)
    unreached = [(path, first, qual, n)
                 for path, first, qual, n, enclosing in defined_functions()
                 if (path, first) not in reached
                 and (enclosing is None or enclosing in reached)]
    for path, first, qual, n in unreached:
        print(f"{n:5d}  {os.path.basename(path)}:{first}  {qual}")
    print(f"{sum(u[3] for u in unreached)} lines in {len(unreached)} "
          "functions reached by no command and no acceptance criterion")
    return 0


if __name__ == "__main__":
    sys.exit(main())

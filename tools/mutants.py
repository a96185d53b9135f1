"""Run a table of one-line faults against tier-1 and ``hecke verify``.

    python tools/mutants.py

Each row of ``ROWS`` is (name, file, exact old text, new text).  One row at
a time, never in parallel, the checkout (without ``.git`` and caches) is
copied into a temporary directory and the row applied there; tier-1 runs
in the copy with ``-x``, then ``hecke verify`` if tier-1 passed.  Each row
prints the first check that fails (a test id, or ``verify`` and a check
name) or SURVIVED, with its time.  A row whose old text does not occur
exactly once in its file is reported as STALE and not run, so a refactor
cannot retire a row silently.  The exit code is 1 if any row survived or
is stale, else 0.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

RD = "src/heckepairs/rd.py"
GROWTH = "src/heckepairs/growth.py"
ALGEBRA = "src/heckepairs/algebra.py"

ROWS = [
    ("nth-root may overshoot", RD,
     "    while Fraction(r) ** k > q:\n"
     "        r = math.nextafter(r, 0.0)\n", ""),
    ("nth-root one ulp high", RD,
     "        r = math.nextafter(r, math.inf)\n    return r\n",
     "        r = math.nextafter(r, math.inf)\n"
     "    return math.nextafter(r, math.inf)\n"),
    ("l1 norm weighted by L", ALGEBRA,
     "        l1 += abs(n) * r\n",
     "        l1 += abs(n) * store.class_L(d)\n"),
    ("weighted norm (1+l)^s", ALGEBRA,
     "base ** (2.0 * s) for s in s_grid", "base ** s for s in s_grid"),
    ("lower bound takes rho_1", RD,
     "max(roots[-1] if roots else 0.0, trunc)",
     "max(roots[0] if roots else 0.0, trunc)"),
    ("fit tail from the first radius", RD,
     "tail_start = rs[0] + int((rs[-1] - rs[0]) * (1.0 - tail_fraction))",
     "tail_start = rs[0]"),
    ("kesten hint > for >=", RD,
     'if index >= cfg["kesten.amenable_min"]:',
     'if index > cfg["kesten.amenable_min"]:'),
    ("fit accepts 3 radii", RD,
     "    if len(rs) < 4:\n", "    if len(rs) < 3:\n"),
    ("fit slope < for <=", RD,
     "if slope <= stable_slope:", "if slope < stable_slope:"),
    ("recurrence checked one term short", GROWTH,
     "for r in range(a + 1, depth + 1)", "for r in range(a + 1, depth)"),
    ("root bracket 2^-8 wide", GROWTH,
     "while hi - lo > 2 ** -32:", "while hi - lo > 2 ** -8:"),
    ("c_hat over the tail only", RD,
     "c_hat = max(per_r[r][s] for r in rs if s in per_r[r])",
     "c_hat = max(per_r[r][s] for r in tail if s in per_r[r])"),
    ("kesten f not normalized", RD,
     "        f = Fraction(1, norms(sym).l1_exact) * sym\n",
     "        f = sym\n"),
    ("m_e := 1", ALGEBRA,
     "c, rem = divmod(l1 * m, L(e))", "c, rem = divmod(l1, L(e))"),
    ("mirrored product keyed by e, not inv(e)", ALGEBRA,
     "out = {inv(e): c for e, c in", "out = {e: c for e, c in"),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                ".pytest_cache", "hecke-out", "out")


def first_line(text: str, prefix: str) -> str | None:
    return next((line for line in text.splitlines()
                 if line.startswith(prefix)), None)


def run_row(file: str, old: str, new: str, tmp: str) -> str:
    """The first check that fails with the row applied in a copy of the
    checkout under ``tmp``, or SURVIVED."""
    copy = os.path.join(tmp, "checkout")
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    path = os.path.join(copy, file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    tier1 = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
         "-p", "no:cacheprovider", "--continue-on-collection-errors"],
        cwd=copy, env=env, capture_output=True, text=True)
    if tier1.returncode:
        line = (first_line(tier1.stdout, "FAILED ")
                or first_line(tier1.stdout, "ERROR "))
        return (line.split(" - ")[0].split(" ", 1)[1] if line
                else f"tier-1 exit {tier1.returncode}")
    verify = subprocess.run(
        [sys.executable, "-m", "heckepairs.cli", "verify",
         "--out", os.path.join(tmp, "verify-out")],
        cwd=tmp, env=env, capture_output=True, text=True)
    if verify.returncode:
        line = first_line(verify.stdout, "FAIL ")
        return ("verify " + line.split()[1].rstrip(":") if line
                else f"verify exit {verify.returncode}")
    return "SURVIVED"


def main() -> int:
    bad = 0
    for name, file, old, new in ROWS:
        with open(os.path.join(ROOT, file), encoding="utf-8") as fh:
            count = fh.read().count(old)
        if count != 1:
            bad += 1
            print(f"{name}: STALE, old text occurs {count} times in {file}",
                  flush=True)
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            result = run_row(file, old, new, tmp)
        bad += result == "SURVIVED"
        print(f"{name}: {result} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    print(f"{len(ROWS)} rows, {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

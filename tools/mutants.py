"""Run a table of one-line faults against tier-1 and ``hecke verify``.

    python tools/mutants.py

Each row of ``ROWS`` is (name, file, exact old text, new text, test
module), the module being the one that killed the row in the last table
run.  One row at a time, never in parallel, the checkout (without
``.git`` and caches) is copied into a temporary directory and the row
applied there; its module runs alone in the copy with ``-x``, and only if
that module passes do tier-1 with ``-x`` and then ``hecke verify`` run, so
a survivor still meets every check.  Each row prints the first check that
fails (a test id, or ``verify`` and a check name) or SURVIVED, with its
time.  A row whose old text does not occur exactly once in its file, or
whose module does not exist, is reported as STALE and not run, so a
refactor cannot retire a row silently.  The exit code is 1 if any row
survived or is stale, else 0.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CLI = "src/heckepairs/cli.py"
CONFIG = "src/heckepairs/config.py"
RD = "src/heckepairs/rd.py"
GROWTH = "src/heckepairs/growth.py"
ALGEBRA = "src/heckepairs/algebra.py"
GROUPS = "src/heckepairs/groups.py"
T_ACCEPTANCE = "tests/test_acceptance.py"
T_ALGEBRA = "tests/test_algebra.py"
T_CLI = "tests/test_cli.py"
T_EXACT = "tests/test_exact_norms.py"
T_GROUPS = "tests/test_groups.py"
T_GROWTH = "tests/test_growth.py"
T_RD = "tests/test_rd.py"

ROWS = [
    ("nth-root may overshoot", RD,
     "    while Fraction(r) ** k > q:\n"
     "        r = math.nextafter(r, 0.0)\n", "", T_RD),
    ("nth-root one ulp high", RD,
     "        r = math.nextafter(r, math.inf)\n    return r\n",
     "        r = math.nextafter(r, math.inf)\n"
     "    return math.nextafter(r, math.inf)\n", T_ALGEBRA),
    ("l1 norm weighted by L", ALGEBRA,
     "        l1 += abs(n) * r\n",
     "        l1 += abs(n) * store.class_L(d)\n", T_ALGEBRA),
    ("weighted norm (1+l)^s", ALGEBRA,
     "base ** (2.0 * s) for s in s_grid", "base ** s for s in s_grid",
     T_ALGEBRA),
    ("lower bound takes rho_1", RD,
     "max(roots[-1] if roots else 0.0, trunc)",
     "max(roots[0] if roots else 0.0, trunc)", T_RD),
    ("fit tail from the first radius", RD,
     "tail_start = rs[0] + int((rs[-1] - rs[0]) * (1.0 - tail_fraction))",
     "tail_start = rs[0]", T_RD),
    ("kesten hint > for >=", RD,
     'if index >= cfg["kesten.amenable_min"]:',
     'if index > cfg["kesten.amenable_min"]:', T_RD),
    ("fit accepts 3 radii", RD,
     "    if len(rs) < 4:\n", "    if len(rs) < 3:\n", T_RD),
    ("fit slope < for <=", RD,
     "if slope <= stable_slope:", "if slope < stable_slope:", T_RD),
    ("recurrence checked one term short", GROWTH,
     "for r in range(a + 1, depth + 1)", "for r in range(a + 1, depth)",
     T_GROWTH),
    ("root bracket 2^-8 wide", GROWTH,
     "while hi - lo > 2 ** -32:", "while hi - lo > 2 ** -8:", T_GROWTH),
    ("c_hat over the tail only", RD,
     "c_hat = max(per_r[r][s] for r in rs if s in per_r[r])",
     "c_hat = max(per_r[r][s] for r in tail if s in per_r[r])", T_RD),
    ("kesten f not normalized", RD,
     "        f = Fraction(1, norms(sym).l1_exact) * sym\n",
     "        f = sym\n", T_EXACT),
    ("m_e := 1", ALGEBRA,
     "c, rem = divmod(l1 * m, L(e))", "c, rem = divmod(l1, L(e))",
     T_ACCEPTANCE),
    ("mirrored product keyed by e, not inv(e)", ALGEBRA,
     "out = {inv(e): c for e, c in", "out = {e: c for e, c in", T_ACCEPTANCE),
    ("z:d bound unchecked", GROUPS,
     "        if d > Z_MAX_DIMENSION:\n",
     "        if d > Z_MAX_DIMENSION ** 2:\n", T_GROUPS),
    ("perm sorted before its length is compared", GROUPS,
     "if len(x.images) != self.n or sorted(x.images) != [*range(self.n)]:",
     "if sorted(x.images) != [*range(self.n)]:", T_GROUPS),
    ("rmax unbounded above", CLI,
     "    if not 0 <= args.rmax <= MAX_RADIUS:\n",
     "    if not 0 <= args.rmax:\n", T_CLI),
    ("spec label unchecked", GROUPS,
     'if any(c in val for c in "/\\\\\\0"):', 'if any(c in val for c in ""):',
     T_CLI),
    ("decode error uncaught", GROUPS,
     "    except UnicodeDecodeError:\n", "    except UnicodeEncodeError:\n",
     T_CLI),
    ("infinite weighted norm passed", RD,
     "finite = math.isfinite(weighted[grid[-1]])", "finite = True", T_CLI),
    ("PSL2 product keeps its sign", GROUPS,
     "return Mat2(_canon_sign(num) if self.projective else num, k, p)",
     "return Mat2(num, k, p)", T_GROUPS),
    ("int-to-str digit limit kept", CLI,
     "sys.set_int_max_str_digits(0)", "sys.set_int_max_str_digits(limit)",
     T_CLI),
    ("rd.coeff_max unbounded above", CONFIG,
     '"rd.coeff_max": (9, (">=", 1), ("<=", 10 ** 6)),',
     '"rd.coeff_max": (9, (">=", 1)),', T_CLI),
    ("non-convergence note dropped", RD,
     "    if not converged:\n", "    if False:\n", T_RD),
    ("both pair flags accepted", CLI,
     "if (args.pair is None) == (args.pair_spec is None):",
     "if args.pair is None and args.pair_spec is None:", T_CLI),
]

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                ".pytest_cache", "hecke-out", "out")


def first_line(text: str, prefix: str) -> str | None:
    return next((line for line in text.splitlines()
                 if line.startswith(prefix)), None)


def first_failure(copy: str, env: dict, args: list[str]) -> str | None:
    """The first failing test id of pytest with ``-x`` and ``args`` in
    ``copy``, or None if it passes."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rfE",
         "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True)
    if not proc.returncode:
        return None
    line = (first_line(proc.stdout, "FAILED ")
            or first_line(proc.stdout, "ERROR "))
    return (line.split(" - ")[0].split(" ", 1)[1] if line
            else f"pytest exit {proc.returncode}")


def run_row(file: str, old: str, new: str, module: str, tmp: str) -> str:
    """The first check that fails with the row applied in a copy of the
    checkout under ``tmp``, or SURVIVED: ``module`` first, then tier-1
    and ``hecke verify``."""
    copy = os.path.join(tmp, "checkout")
    shutil.copytree(ROOT, copy, ignore=IGNORE)
    path = os.path.join(copy, file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"))
    failed = (first_failure(copy, env, [module])
              or first_failure(copy, env, ["--continue-on-collection-errors"]))
    if failed:
        return failed
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
    for name, file, old, new, module in ROWS:
        with open(os.path.join(ROOT, file), encoding="utf-8") as fh:
            count = fh.read().count(old)
        if count != 1:
            stale = f"old text occurs {count} times in {file}"
        elif not os.path.isfile(os.path.join(ROOT, module)):
            stale = f"no module {module}"
        else:
            stale = None
        if stale:
            bad += 1
            print(f"{name}: STALE, {stale}", flush=True)
            continue
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            result = run_row(file, old, new, module, tmp)
        bad += result == "SURVIVED"
        print(f"{name}: {result} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    print(f"{len(ROWS)} rows, {bad} survived or stale")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

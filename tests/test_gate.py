"""The boundary gate: outside input drawn at random ends in exit 0, 2 or 3,
never in a traceback, and writes nothing outside ``--out``.

Each example is one pair command run in process through ``cli.main``, in
a fresh temporary directory that is also the working directory, so a
relative write would show there.  The draws are cheap by construction:
small pairs, ``--rmax`` at most 4, and the in-domain edges whose cost
grows with the value only with the commands that check them without
computing with them.  Inputs whose fault needs memory to show stay fixed
tests in ``test_cli.py``.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from heckepairs.cli import (CONFIG_KEYS, EXIT_INCONCLUSIVE, EXIT_OK,
                            EXIT_USAGE, main)
from heckepairs.config import MAX_RADIUS
from heckepairs.groups import Z_MAX_DIMENSION, catalog_labels

from oracles import off_domain

BIG = "1" + "0" * 400       # a 400-digit integer

COMMANDS = ["enumerate", "ltable", "growth", "rd-profile", "kesten"]
#: commands that check every config value and compute with no rd.* or
#: kesten.* value
CHECK_ONLY = ["enumerate", "ltable", "growth"]


def _in_domain_edges(table):
    """(key, value) pairs at each bound of each domain row, on its inner
    side: the bound itself, or for ">" the next int or float above it."""
    edges = []
    for key, (default, *bounds) in table.items():
        for op, bound in bounds:
            if op == ">":
                bound = (bound + 1 if isinstance(default, int)
                         else math.nextafter(bound, math.inf))
            edges.append((key, bound))
    return edges


EDGES = _in_domain_edges(CONFIG_KEYS)
#: in-domain edges whose run time grows with the value: the padded ball,
#: the random family, the moment orders and a tolerance no power
#: iteration meets before rd.max_iter
COSTLY = {(k, v) for k, v in EDGES if k in {"rd.pad", "rd.n_random",
                                             "rd.moment_n", "kesten.n"}
          and v > CONFIG_KEYS[k][0]} | {("rd.tol", math.nextafter(0, 1))}


def _spec(label="gate") -> bytes:
    """The spec of S3 over <(0 1)>, labelled ``label``."""
    return (f"kind=perm\nlabel={label}\nn=3\ng_gen=perm 1 0 2\n"
            "g_gen=perm 1 2 0\nh_gen=perm 1 0 2\n").encode()


NOT_UTF8_SPEC = _spec().replace(b"gate", b"\xff\xfe")
#: one hostile input per example at most, as (where, value): a config
#: value off its domain or not a finite number of its type, a pair label,
#: --rmax or cap flag out of range, a spec label holding a path separator
#: or NUL, a spec or config file that is not UTF-8, or both pair flags
HOSTILE = [
    *(("set", f"{k}={v}") for k, v in off_domain(CONFIG_KEYS)),
    *(("set", item) for item in (
        "seed=" + BIG, "rd.coeff_max=" + BIG, "caps.max_cosets=" + BIG,
        "rd.tol=nan", "rd.s_grid_max=inf", "rd.stable_slope=-inf",
        "kesten.n=nan", "rd.max_iter=1.5", "no.such=1", "seed",
        # weighted norms that overflow a float; hint thresholds that cross
        "rd.s_grid_max=250", "kesten.amenable_min=0.9")),
    *(("pair", label) for label in (
        "z:0", f"z:{Z_MAX_DIMENSION + 1}", f"z:{BIG}", "z:x", "nonsense")),
    *(("rmax", rmax) for rmax in ("-1", str(MAX_RADIUS + 1), BIG, "nan")),
    *(("flag", flag) for flag in (["--max-cosets", "0"],
                                  ["--max-orbit", "0"], ["--seed", BIG])),
    # a label that descends one level under --out and climbs two, to land
    # beside it in the example's temporary directory
    *(("label", label) for label in ("x/../../escape", "a\\b", "a\0b",
                                     "")),
    ("spec", NOT_UTF8_SPEC),
    ("config", b"seed=\xff\n"),
    ("both", None),
]
PAIRS = [*catalog_labels(), "z:3"]


@st.composite
def perm_spec(draw, label="gate") -> bytes:
    """The spec of a perm pair of degree 3 to 5 on one or two random
    generators, H on at most one."""
    n = draw(st.integers(3, 5))
    perm = st.permutations(range(n)).map(
        lambda p: "perm " + " ".join(map(str, p)))
    lines = ["kind=perm", f"label={label}", f"n={n}"]
    lines += [f"g_gen={g}" for g in draw(st.lists(perm, min_size=1,
                                                  max_size=2))]
    lines += [f"h_gen={h}" for h in draw(st.lists(perm, max_size=1))]
    return ("\n".join(lines) + "\n").encode()


@st.composite
def pair_runs(draw):
    """(argv without --out, {input file name: bytes}): a pair command on
    a catalog pair or a perm spec, --rmax 0 to 4 and up to two in-domain
    edges, by --set or a config file, with at most one ``HOSTILE`` input.
    Input file paths in argv start with ``IN/``."""
    settings_ = draw(st.lists(st.sampled_from(EDGES), max_size=2))
    costly = any(s in COSTLY for s in settings_)
    where, value = draw(st.one_of(st.just((None, None)),
                                  st.sampled_from(HOSTILE)))
    files = {}
    argv = [draw(st.sampled_from(CHECK_ONLY if costly else COMMANDS))]
    pair = (value if where == "pair" else "spec" if where in ("label", "spec")
            else draw(st.sampled_from(PAIRS + ["spec"])))
    if where == "both":
        pair = draw(st.sampled_from(PAIRS))
    if pair != "spec":
        argv += ["--pair", pair]
    if pair == "spec" or where == "both":
        files["pair.spec"] = (value if where == "spec" else draw(
            perm_spec(value if where == "label" else "gate")))
        argv += ["--pair-spec", "IN/pair.spec"]
    argv += ["--rmax", value if where == "rmax"
             else str(draw(st.integers(0, 4)))]
    lines = [f"{k}={v}" for k, v in settings_]
    if where == "set":
        lines.append(value)
    if where == "config" or draw(st.booleans()):
        files["run.cfg"] = ("\n".join(lines) + "\n").encode()
        if where == "config":
            files["run.cfg"] += value
        argv += ["--config", "IN/run.cfg"]
    else:
        for line in lines:
            argv += ["--set", line]
    if where == "flag":
        argv += value
    return argv, files


def _run(argv, cwd):
    """The exit code, output and warnings of ``main(argv)`` run in
    ``cwd``; argparse's refusal of a flag's type is its exit code."""
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(here)
    return code, out.getvalue(), caught


def _asked_labels(argv, files) -> set:
    """The pair labels the pair flags of ``argv`` ask for: --pair's, and
    the spec's label line, or the default a spec without one gets."""
    asked = {argv[i + 1] for i, a in enumerate(argv) if a == "--pair"}
    if "pair.spec" in files:
        lines = files["pair.spec"].decode("utf-8", "replace").splitlines()
        asked.add(next((line.partition("=")[2] for line in lines
                        if line.startswith("label=")), "") or "custom-perm")
    return asked


def _refuse(constant):
    raise ValueError(f"a report holds {constant}")


def _inconclusive(command, report) -> bool:
    """Whether a report with no cap hit holds an inconclusive verdict, or
    an rd-profile with a bound skipped at a cap, both written whole."""
    if command == "growth":
        return report["verdict"]["kind"] == "inconclusive"
    if command == "rd-profile":
        profile = report["profile"]
        return profile["verdict"] == "inconclusive" or profile["partial"]
    return False


# each input an earlier fix refused by hand runs in every gate run
@example((["growth", "--pair", "z:1", "--pair-spec", "IN/pair.spec",
           "--rmax", "2"], {"pair.spec": _spec()}))
@example((["growth", "--pair-spec", "IN/pair.spec", "--rmax", "2"],
          {"pair.spec": _spec("x/../../escape")}))
@example((["ltable", "--pair-spec", "IN/pair.spec", "--rmax", "2"],
          {"pair.spec": _spec("a\0b")}))
@example((["enumerate", "--pair-spec", "IN/pair.spec", "--rmax", "1"],
          {"pair.spec": NOT_UTF8_SPEC}))
@example((["kesten", "--pair", "z:1", "--config", "IN/run.cfg",
           "--rmax", "2"], {"run.cfg": b"seed=\xff\n"}))
@example((["rd-profile", "--pair", "z:1", "--rmax", "4",
           "--set", "rd.s_grid_max=250"], {}))
@example((["rd-profile", "--pair", "z:1", "--rmax", "4", "--set",
           "rd.s_grid_max=220", "--set", "rd.s_grid_step=1"], {}))
@example((["growth", "--pair", "z:1", "--rmax", BIG], {}))
@given(pair_runs())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_outside_input_never_ends_in_a_traceback(run):
    argv, files = run
    with tempfile.TemporaryDirectory() as tmp:
        inputs = os.path.join(tmp, "in")
        os.mkdir(inputs)
        for name, data in files.items():
            with open(os.path.join(inputs, name), "wb") as fh:
                fh.write(data)
        out = os.path.join(tmp, "out")
        argv = [a.replace("IN/", inputs + os.sep) for a in argv]
        code, printed, caught = _run(argv + ["--out", out], tmp)
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_INCONCLUSIVE), printed
        assert "Traceback" not in printed
        assert [str(w.message) for w in caught] == []
        assert sorted(os.listdir(tmp)) == sorted(
            ["in"] + (["out"] if os.path.exists(out) else []))
        assert sorted(os.listdir(inputs)) == sorted(files)
        if code == EXIT_USAGE:
            assert not os.path.exists(out), printed
            return
        # one JSON report, of the one pair asked for, every number finite
        command = argv[0]
        (name,) = [n for n in os.listdir(out) if n.endswith(".json")]
        assert name.startswith(command.replace("-", "_") + "_")
        with open(os.path.join(out, name), encoding="utf-8") as fh:
            report = json.load(fh, parse_constant=_refuse)
        assert report["command"] == command
        assert {report["pair"]["label"]} == _asked_labels(argv, files)
        if code == EXIT_INCONCLUSIVE:
            assert (report.get("partial") is True and report["cap_exceeded"]
                    or _inconclusive(command, report))

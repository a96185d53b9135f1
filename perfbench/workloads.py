"""The benchmark's workloads: seeded inputs, one round of operations, checks.

A workload makes its inputs from the seed (``inputs``) and runs one round of
operations (``round``).  A round is a generator: it does the program's work
and yields one ``Op`` per operation, so the runner can stop its clock while it
checks what the operation returned.  Checks compare against values computed
apart from the program (closed forms, independent sums) or against laws the
method must obey, never against stored copies of earlier output.

The program is reached through module attributes (``algebra.convolve``, not a
name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from heckepairs import algebra, cli, cosets, groups
from heckepairs.errors import HeckeError

TREE = "psl2z1p:2"


def _no_fault(outcome) -> bool:
    return False


@dataclass
class Op:
    """One operation of a round, as the program left it."""

    name: str
    group: str                        # the pair the operation runs on
    outcome: object                   # what the program returned or raised
    check: Callable[[object], Optional[str]]    # error text, None if correct
    known_fault: Callable[[object], bool] = _no_fault
    reach: Optional[int] = None       # rmax of a growth-reach tree probe


@dataclass
class CliRun:
    code: int
    stderr: str
    out: str                          # the --out directory of the run


def _cli(argv: list[str], out: str) -> CliRun:
    """One in-process ``hecke`` run; the program's own printing is kept out
    of the benchmark's standard output."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv + ["--out", out])
    return CliRun(code, err.getvalue(), out)


def _report(run: CliRun, prefix: str, label: str) -> dict:
    path = os.path.join(run.out, f"{prefix}_{label.replace(':', '-')}.json")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _exit_ok(run: CliRun) -> Optional[str]:
    if run.code != 0:
        return f"exit {run.code}: {run.stderr.strip()[:200]}"
    return None


# ---------------------------------------------------------------------------
# algebra-tree: the criterion-02 body on the tree pair and a non-unimodular
# pair.  Cold structure constants drive interning and orbit BFS.

ALGEBRA_PAIRS = (TREE, "bcp:2")
ALGEBRA_RADIUS = 3
ALGEBRA_TRIPLES = 200
# triple products on the tree reach the level-9 sphere (393216 cosets), so
# the orbit cap is raised above the CLI default, as criterion 02 does
ALGEBRA_CAPS = cosets.Caps(max_cosets=2_000_000, max_orbit=500_000)


def algebra_inputs(seed: int) -> list:
    """Per pair, 200 triples of elements given as (class position, coefficient)
    lists over the radius-3 ball's classes: support 1-3 classes, coefficients
    n/d with |n| <= 9 and 1 <= d <= 4, as criterion 02 draws them."""
    out = []
    for label in ALGEBRA_PAIRS:
        ball = cosets.enumerate_ball(groups.get_pair(label), ALGEBRA_RADIUS)
        n_classes = len(ball.classes_in_ball(ALGEBRA_RADIUS))
        rng = random.Random(f"algebra-tree:{label}:{seed}")

        def element():
            supp = rng.sample(range(n_classes),
                              k=rng.randint(1, min(3, n_classes)))
            return [(i, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
                    for i in supp]

        out.append((label, [(element(), element(), element())
                            for _ in range(ALGEBRA_TRIPLES)]))
    return out


def _laws(f, g, h, ident) -> dict:
    convolve, involution = algebra.convolve, algebra.involution
    return {
        "associativity": convolve(convolve(f, g), h)
        == convolve(f, convolve(g, h)),
        "unit": convolve(ident, f) == f == convolve(f, ident),
        "involution": involution(involution(f)) == f,
        "anti-multiplicativity": involution(convolve(f, g))
        == convolve(involution(g), involution(f)),
    }


def _check_laws(outcome) -> Optional[str]:
    if isinstance(outcome, HeckeError):
        return f"{type(outcome).__name__}: {outcome}"
    broken = [law for law, holds in outcome.items() if not holds]
    return f"laws fail: {', '.join(broken)}" if broken else None


def algebra_round(inputs, workdir: str, state: dict):
    for label, triples in inputs:
        store = cosets.enumerate_ball(groups.get_pair(label), ALGEBRA_RADIUS,
                                      ALGEBRA_CAPS)
        classes = store.classes_in_ball(ALGEBRA_RADIUS)
        ident = algebra.identity_element(store)
        state[label] = store

        def element(spec):
            return algebra.HeckeElement(store,
                                        {classes[i]: c for i, c in spec})

        for n, specs in enumerate(triples):
            f, g, h = (element(spec) for spec in specs)
            try:
                outcome = _laws(f, g, h, ident)
            except HeckeError as exc:
                outcome = exc
            yield Op(f"{label} triple {n}", label, outcome, _check_laws)


def algebra_final(state: dict) -> list[tuple[str, str]]:
    """Store-wide laws, checked on the last round's stores after timing:
    the degree identity sum_d c_d R(d) = R(d1) R(d2) on every cached
    structure-constant pair, R(d) = L(inv d) on every class, and on the tree
    the Bruhat-Tits sphere counts {1} u {3 * 2^(2k-1)} as class sizes."""
    problems = []
    for label, store in state.items():
        R = store.class_R
        for (d1, d2), sc in store.sc_cache.items():
            if sum(c * R(d) for d, c in sc.items()) != R(d1) * R(d2):
                problems.append((label, f"degree identity fails on "
                                        f"T[{d1}]*T[{d2}]"))
        for d in range(len(store.dcs)):
            if R(d) != store.class_L(store.class_inverse(d)):
                problems.append((label, f"R != L(inv) on class {d}"))
        if label == TREE:
            sizes = sorted(R(d) for d in range(len(store.dcs)))
            want = [1] + [3 * 2 ** (2 * k - 1) for k in range(1, len(sizes))]
            if sizes != want:
                problems.append((label, f"class sizes {sizes} are not the "
                                        "tree's sphere counts"))
    return problems


# ---------------------------------------------------------------------------
# rd-spectral: the criterion-10 bodies as CLI runs.  Truncated-operator
# builds dominate; interning is lookup only.

RD_TREE_RMAX = 5
RD_COMMANDS = (
    ["rd-profile", "--pair", "z:1", "--rmax", "20"],
    ["rd-profile", "--pair", "z:2", "--rmax", "10"],
    ["rd-profile", "--pair", TREE, "--rmax", str(RD_TREE_RMAX),
     "--set", "rd.pad=1",
     "--set", "rd.n_random=1", "--set", "rd.max_matrix_cost=500000"],
    ["kesten", "--pair", "z:1", "--rmax", "6"],
)


def rd_inputs(seed: int) -> list[list[str]]:
    return [argv + ["--seed", str(seed)] for argv in RD_COMMANDS]


def central_trinomial(k: int) -> int:
    """[x^0] (x^-1 + 1 + x)^k = sum_j C(k, 2j) C(2j, j)."""
    return sum(math.comb(k, 2 * j) * math.comb(2 * j, j)
               for j in range(k // 2 + 1))


def _path_norm(m: int) -> float:
    """Norm of the adjacency matrix of the path on m vertices."""
    return 2 * math.cos(math.pi / (m + 1))


def _check_profile(label: str):
    def check(run: CliRun) -> Optional[str]:
        error = _exit_ok(run)
        if error:
            return error
        prof = _report(run, "rd_profile", label)["profile"]
        low = [rec["r"] for rec in prof["records"] if rec["ratio"] < 1 - 1e-9]
        if low:
            return f"ratio below 1 at r={low}"
        if label == TREE:
            if not prof["unimodular"]:
                return "tree pair reported non-unimodular"
            if prof["poly_slope"] is None or prof["poly_slope"] > 2.5:
                return f"poly_slope {prof['poly_slope']} above 2.5"
            return None
        if prof["verdict"] != "polynomial-compatible":
            return f"verdict {prof['verdict']} (Z^d has (RD))"
        if label == "z:1":
            for rec in prof["records"]:
                if rec["family"] != "shell":
                    continue
                r, R = rec["r"], rec["trunc_radius"]
                # the shell at r > 0 is T_{+r} + T_{-r}: on 2R+1 points it
                # splits into r paths, the longest has ceil((2R+1)/r) points
                want = 1.0 if r == 0 else _path_norm(-(-(2 * R + 1) // r))
                if abs(rec["trunc_norm"] - want) > 1e-6:
                    return (f"shell r={r}: trunc_norm {rec['trunc_norm']} "
                            f"!= {want}")
        return None
    return check


def _check_kesten(run: CliRun) -> Optional[str]:
    error = _exit_ok(run)
    if error:
        return error
    kes = _report(run, "kesten", "z:1")["kesten"]
    for n, text in enumerate(kes["moments"], start=1):
        if Fraction(text) * 9 ** n != central_trinomial(2 * n):
            return f"moment a_{n} = {text} is not T({2 * n})/9^{n}"
    # f = (T_-1 + T_0 + T_1)/3 on the 13-point ball: (I + path)/3
    want = (1 + _path_norm(13)) / 3
    if abs(kes["trunc_norm"] - want) > 1e-6:
        return f"trunc_norm {kes['trunc_norm']} != {want}"
    return None


def rd_round(inputs, workdir: str, state: dict):
    for n, argv in enumerate(inputs):
        label = argv[argv.index("--pair") + 1]
        check = _check_kesten if argv[0] == "kesten" else _check_profile(label)
        run = _cli(argv, os.path.join(workdir, f"op{n}"))
        yield Op(" ".join(argv), label, run, check)


# ---------------------------------------------------------------------------
# growth-reach: CLI growth runs under default caps.  Right-H orbit
# materialisation inside the word length dominates; on the tree it hits the
# orbit cap from rmax 9 on.

GROWTH_COMMANDS = (("z:1", 40), ("z:2", 25)) + tuple(
    (TREE, r) for r in range(8, 13))
ORBIT_CAP_MESSAGE = "right-H orbit exceeded max_orbit=100000"


def growth_inputs(seed: int) -> list[list[str]]:
    return [["growth", "--pair", label, "--rmax", str(r), "--seed", str(seed)]
            for label, r in GROWTH_COMMANDS]


def _ball_closed_form(label: str, r: int) -> int:
    if label == "z:1":
        return 2 * r + 1
    if label == "z:2":
        return 2 * r * r + 2 * r + 1
    return 2 ** (2 * r + 1) - 1          # 3-regular tree, counted by cosets


def _check_growth(label: str, rmax: int):
    def check(run: CliRun) -> Optional[str]:
        error = _exit_ok(run)
        if error:
            return error
        report = _report(run, "growth", label)
        want = [_ball_closed_form(label, r) for r in range(rmax + 1)]
        if report["series"]["ball"] != want:
            return "ball series differs from its closed form"
        verdict = report["verdict"]
        if label == TREE:
            if verdict["kind"] != "exponential":
                return f"verdict {verdict['kind']}, want exponential"
        elif (verdict["kind"] != "polynomial"
              or abs(verdict["alpha"] - int(label[2:])) > 0.3):
            return f"verdict {verdict['kind']} alpha {verdict['alpha']}"
        return None
    return check


def _orbit_cap_fault(run: CliRun) -> bool:
    """The known fault: exit 3 at the right-H orbit cap of the level-9
    class (R = 393216) inside the word length."""
    return run.code == 3 and ORBIT_CAP_MESSAGE in run.stderr


def growth_round(inputs, workdir: str, state: dict):
    for n, argv in enumerate(inputs):
        label = argv[argv.index("--pair") + 1]
        rmax = int(argv[argv.index("--rmax") + 1])
        run = _cli(argv, os.path.join(workdir, f"op{n}"))
        tree = label == TREE
        yield Op(" ".join(argv), label, run, _check_growth(label, rmax),
                 known_fault=_orbit_cap_fault if tree and rmax >= 9
                 else _no_fault,
                 reach=rmax if tree else None)


@dataclass(frozen=True)
class Workload:
    inputs: Callable[[int], object]
    round: Callable
    final: Callable[[dict], list] = lambda state: []
    # reach_rmax of a workload without reach probes: the fixed radius of its
    # tree inputs, so that the metric is never 0
    fixed_reach: Optional[int] = None


WORKLOADS = {
    "algebra-tree": Workload(algebra_inputs, algebra_round, algebra_final,
                             fixed_reach=ALGEBRA_RADIUS),
    "rd-spectral": Workload(rd_inputs, rd_round, fixed_reach=RD_TREE_RMAX),
    "growth-reach": Workload(growth_inputs, growth_round),
}

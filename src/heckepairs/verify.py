"""Self-verification suites: oracle equivalence, exact-arithmetic
invariants and golden-snapshot regression.

Used by the CLI ``verify`` command; any exact mismatch is a hard failure
(exit 1 there).  Golden snapshots live in the package's ``golden/``
directory and pin small-radius enumerations of every catalog pair, so a
regression in interning, orbit computation or class data shows up as a
diff.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .algebra import (HeckeElement, basis_element, convolve, direct_count,
                      identity_element, involution, norms, power_moments)
from .cosets import (check_interning_soundness, enumerate_ball, left_L_count,
                     relative_modular)
from .errors import HeckeError
from .groups import get_pair
from .lengths import word_length
from .oracle import finite_group_oracle, oracle_matches_engine
from .rd import operator_matrix, truncated_norm

__all__ = ["CheckResult", "GOLDEN_SPECS", "golden_snapshot_path",
           "run_verification"]

#: (pair label, pinned enumeration radius) for the in-repo golden snapshots;
#: every enumerable catalog pair appears (the full BC pair has no finite
#: generating set, so there is nothing to enumerate there)
GOLDEN_SPECS = [
    ("z:1", 5), ("z:2", 3), ("dinf", 4),
    ("s3-h12", 3), ("s4-h12", 4), ("s4-h12-34", 4),
    ("bcp:2", 3), ("bcp:3", 3), ("bcp:5", 3),
    ("psl2z1p:2", 2), ("sl2z1p:2", 2),
]

ORACLE_PAIRS = ["s3-h12", "s4-h12", "s4-h12-34"]

LAW_PAIRS = ["z:1", "z:2", "dinf", "s3-h12", "bcp:2", "psl2z1p:2"]

#: bcp:2 is not relatively unimodular, psl2z1p:2 is
MIRROR_PAIRS = ["bcp:2", "psl2z1p:2"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def golden_snapshot_path(label: str, radius: int):
    name = f"{label.replace(':', '-')}_r{radius}.json"
    return resources.files("heckepairs") / "golden" / name


def _saturated_store(label: str):
    store = enumerate_ball(get_pair(label), 12)
    store.snapshot(compute_classes=True)
    return store


def _check_oracle_equivalence() -> list[CheckResult]:
    out = []
    for label in ORACLE_PAIRS:
        pair = get_pair(label)
        store = _saturated_store(label)
        oracle = finite_group_oracle(
            [g.images for g in pair.g_generators],
            [h.images for h in pair.h_elements()])
        problems = oracle_matches_engine(store, oracle)
        out.append(CheckResult(f"oracle-equivalence[{label}]", not problems,
                               "; ".join(problems)))
    # the classical S3 identity, pinned explicitly
    pair = get_pair("s3-h12")
    store = _saturated_store("s3-h12")
    e = store.identity_class()
    others = [x.id for x in store.dcs if x.id != e]
    if len(others) != 1:
        out.append(CheckResult("s3-structure-identity", False,
                               f"{len(others) + 1} classes, want 2"))
        return out
    td = basis_element(store, others[0])
    want = HeckeElement(store, {e: Fraction(2), others[0]: Fraction(1)})
    out.append(CheckResult("s3-structure-identity",
                           convolve(td, td) == want))
    return out


def _check_golden() -> list[CheckResult]:
    out = []
    for label, radius in GOLDEN_SPECS:
        path = golden_snapshot_path(label, radius)
        if not path.is_file():
            out.append(CheckResult(f"golden[{label}]", False,
                                   "snapshot file missing"))
            continue
        want = json.loads(path.read_text())
        got = enumerate_ball(get_pair(label), radius).snapshot()
        ok = got == want
        detail = ""
        if not ok:
            keys = [k for k in want if got.get(k) != want.get(k)]
            detail = f"differs in {keys}"
        out.append(CheckResult(f"golden[{label}]", ok, detail))
    return out


def _random_element(store, classes, rng) -> HeckeElement:
    support = rng.sample(classes, k=min(len(classes), rng.randint(1, 3)))
    return HeckeElement(
        store, {d: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for d in support})


def _check_algebra_laws(n_cases: int = 25) -> list[CheckResult]:
    out = []
    for label in LAW_PAIRS:
        rng = random.Random(0xA1)
        store = enumerate_ball(get_pair(label), 2)
        classes = store.classes_in_ball(2)
        ok = True
        detail = ""
        ident = identity_element(store)
        for _ in range(n_cases):
            f = _random_element(store, classes, rng)
            g = _random_element(store, classes, rng)
            h = _random_element(store, classes, rng)
            if convolve(convolve(f, g), h) != convolve(f, convolve(g, h)):
                ok, detail = False, "associativity"
                break
            if convolve(ident, f) != f or convolve(f, ident) != f:
                ok, detail = False, "unit"
                break
            if involution(involution(f)) != f:
                ok, detail = False, "involution involutive"
                break
            if involution(convolve(f, g)) != convolve(involution(g),
                                                      involution(f)):
                ok, detail = False, "anti-multiplicativity"
                break
        out.append(CheckResult(f"algebra-laws[{label}]", ok, detail))
    return out


def _check_coset_invariants() -> list[CheckResult]:
    out = []
    for label in LAW_PAIRS:
        pair = get_pair(label)
        store = enumerate_ball(pair, 2)
        ok = True
        detail = ""
        ball = store.ball_ids(2)
        for d in store.classes_in_ball(2):
            if store.class_R(d) != store.class_L(store.class_inverse(d)):
                ok, detail = False, f"R != L(inv) on class {d}"
                break
        if ok:
            seen: dict[int, int] = {}
            for d in store.classes_in_ball(2):
                for m in store.class_members(d):
                    if m in seen:
                        ok, detail = False, "classes overlap"
                    seen[m] = d
            covered = set(seen)
            if ok and any(c not in covered for c in ball):
                ok, detail = False, "ball not covered by classes"
        if ok:
            bad = check_interning_soundness(store, limit=5000)
            if bad:
                ok, detail = False, f"duplicate cosets {bad[:3]}"
        if ok:
            rng = random.Random(0xB2)
            for _ in range(10):
                x = store.reps[rng.choice(ball)]
                y = store.reps[rng.choice(ball)]
                lhs = relative_modular(pair, pair.mul(x, y))
                rhs = (relative_modular(pair, x)
                       * relative_modular(pair, y))
                if lhs != rhs:
                    ok, detail = False, "delta not multiplicative"
                    break
        out.append(CheckResult(f"coset-invariants[{label}]", ok, detail))
    return out


def _check_learned_sizes() -> list[CheckResult]:
    """Every class size the class search learns from its counting rule:
    L against the class's left walk, R against its right-H orbit."""
    out = []
    for label in LAW_PAIRS:
        pair = get_pair(label)
        store = enumerate_ball(pair, 2)
        searched = word_length(store).values
        wrong = []
        for d in searched:
            obj = store.dcs[d]
            walk = left_L_count(pair, store.reps[obj.rep_cid],
                                store.caps.max_orbit)
            if obj.L != len(walk) or obj.R != len(store._orbit(obj.rep_cid)):
                wrong.append(d)
        detail = f"L and R checked on {len(searched)} classes"
        if wrong:
            detail += f"; walks or orbits differ on classes {wrong}"
        out.append(CheckResult(f"learned-class-sizes[{label}]", not wrong,
                               detail))
    return out


def _check_structure_constant_mirror() -> list[CheckResult]:
    """c_e(d1, d2) = c_{inv e}(inv d2, inv d1), the identity
    ``structure_constants`` uses to count each pair from its cheaper side:
    both orientations counted directly on every pair of radius-2 ball
    classes."""
    out = []
    for label in MIRROR_PAIRS:
        store = enumerate_ball(get_pair(label), 2)
        classes = store.classes_in_ball(2)
        inv = store.class_inverse
        wrong = []
        for d1 in classes:
            for d2 in classes:
                mirrored = direct_count(store, inv(d2), inv(d1))
                if (direct_count(store, d1, d2)
                        != {inv(e): c for e, c in mirrored.items()}):
                    wrong.append((d1, d2))
        detail = f"{len(classes) ** 2} pairs in both orientations"
        if wrong:
            detail += f"; counts differ on {wrong[:3]}"
        out.append(CheckResult(f"structure-constants-mirror[{label}]",
                               not wrong, detail))
    return out


def _check_spectral_examples() -> list[CheckResult]:
    out = []
    pair = get_pair("z:1")
    store = enumerate_ball(pair, 50)
    cls = {n: store.dc(store.lookup(pair.parse(f"zvec {n}")))
           for n in (-1, 0, 1)}
    f = HeckeElement(store, {d: Fraction(1) for d in cls.values()})
    a = power_moments(f, 2)
    out.append(CheckResult("z-moments", a == [Fraction(3), Fraction(19)],
                           f"a_1={a[0]}, a_2={a[1]}"))
    t10 = truncated_norm(operator_matrix(f, store, 10))
    t50 = truncated_norm(operator_matrix(f, store, 50))
    out.append(CheckResult("z-projection-monotone", t10 <= t50 + 1e-9,
                           f"{t10:.6f} vs {t50:.6f}"))
    out.append(CheckResult("z-l1-bound", t50 <= float(norms(f).l1) + 1e-9))
    return out


def run_verification(include_golden: bool = True) -> list[CheckResult]:
    """Every suite in turn; a suite cut short by an error (an exact
    invariant the engine itself enforces) fails under its own name."""
    suites = [("oracle-equivalence", _check_oracle_equivalence),
              ("golden", _check_golden),
              ("algebra-laws", _check_algebra_laws),
              ("coset-invariants", _check_coset_invariants),
              ("learned-class-sizes", _check_learned_sizes),
              ("structure-constants-mirror", _check_structure_constant_mirror),
              ("spectral-examples", _check_spectral_examples)]
    checks: list[CheckResult] = []
    for name, suite in suites:
        if name == "golden" and not include_golden:
            continue
        try:
            checks += suite()
        except HeckeError as exc:
            checks.append(CheckResult(name, False,
                                      f"{type(exc).__name__}: {exc}"))
    return checks

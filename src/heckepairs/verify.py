"""Self-verification: oracle equivalence, exact-arithmetic invariants and
golden-snapshot regression, as one ordered table of checks, ``CHECKS``.

Used by the CLI ``verify`` command; any exact mismatch is a hard failure
(exit 1 there), and every check fails alone: an error inside one is that
check's failure, and the others still run.  Golden snapshots live in the
package's ``golden/`` directory and pin small-radius enumerations of
every catalog pair, so a regression in interning, orbit computation or
class data shows up as a diff.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .algebra import (HeckeElement, basis_element, convolve, direct_count,
                      identity_element, involution, norms, power_moments,
                      structure_constants)
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

#: one-coset classes (z:2, bcp:2), L != R (bcp:2) and products with
#: several support classes (s4-h12, psl2z1p:2)
COUNT_PAIRS = ["z:2", "bcp:2", "s4-h12", "psl2z1p:2"]


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


def _oracle_equivalence(label: str):
    pair = get_pair(label)
    store = _saturated_store(label)
    oracle = finite_group_oracle(
        [g.images for g in pair.g_generators],
        [h.images for h in pair.h_elements()])
    problems = oracle_matches_engine(store, oracle)
    return not problems, "; ".join(problems)


def _s3_structure_identity():
    """The classical S3 identity T_d * T_d = 2 T_e + T_d, pinned
    explicitly."""
    store = _saturated_store("s3-h12")
    e = store.identity_class()
    others = [x.id for x in store.dcs if x.id != e]
    if len(others) != 1:
        return False, f"{len(others) + 1} classes, want 2"
    td = basis_element(store, others[0])
    want = HeckeElement(store, {e: Fraction(2), others[0]: Fraction(1)})
    return convolve(td, td) == want, ""


def _golden(label: str):
    radius = dict(GOLDEN_SPECS)[label]
    path = golden_snapshot_path(label, radius)
    if not path.is_file():
        return False, "snapshot file missing"
    want = json.loads(path.read_text())
    got = enumerate_ball(get_pair(label), radius).snapshot()
    keys = [k for k in want if got.get(k) != want.get(k)]
    return got == want, f"differs in {keys}" if got != want else ""


def _random_element(store, classes, rng) -> HeckeElement:
    support = rng.sample(classes, k=min(len(classes), rng.randint(1, 3)))
    return HeckeElement(
        store, {d: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                for d in support})


def _algebra_laws(label: str):
    """The first law 25 random triples of radius-2 elements break."""
    rng = random.Random(0xA1)
    store = enumerate_ball(get_pair(label), 2)
    classes = store.classes_in_ball(2)
    ident = identity_element(store)
    for _ in range(25):
        f, g, h = (_random_element(store, classes, rng) for _ in range(3))
        laws = {"associativity": convolve(convolve(f, g), h)
                == convolve(f, convolve(g, h)),
                "unit": convolve(ident, f) == f == convolve(f, ident),
                "involution involutive": involution(involution(f)) == f,
                "anti-multiplicativity": involution(convolve(f, g))
                == convolve(involution(g), involution(f))}
        broken = next((law for law, ok in laws.items() if not ok), "")
        if broken:
            return False, broken
    return True, ""


def _coset_invariants(label: str):
    """The first coset invariant the radius-2 ball of ``label`` breaks."""
    pair = get_pair(label)
    store = enumerate_ball(pair, 2)
    ball = store.ball_ids(2)
    for d in store.classes_in_ball(2):
        if store.class_R(d) != store.class_L(store.class_inverse(d)):
            return False, f"R != L(inv) on class {d}"
    seen: set[int] = set()
    for d in store.classes_in_ball(2):
        for m in store.class_members(d):
            if m in seen:
                return False, "classes overlap"
            seen.add(m)
    if any(c not in seen for c in ball):
        return False, "ball not covered by classes"
    bad = check_interning_soundness(store, limit=5000)
    if bad:
        return False, f"duplicate cosets {bad[:3]}"
    rng = random.Random(0xB2)
    for _ in range(10):
        x, y = (store.reps[rng.choice(ball)] for _ in range(2))
        if relative_modular(pair, pair.mul(x, y)) != (
                relative_modular(pair, x) * relative_modular(pair, y)):
            return False, "delta not multiplicative"
    return True, ""


def _learned_sizes(label: str):
    """Every class size the class search learns from its counting rule:
    L against the class's left walk, R against its right-H orbit."""
    pair = get_pair(label)
    store = enumerate_ball(pair, 2)
    searched = word_length(store, 2).values
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
    return not wrong, detail


def _structure_constant_mirror(label: str):
    """c_e(d1, d2) = c_{inv e}(inv d2, inv d1), the identity
    ``structure_constants`` uses to walk each pair from its cheaper side:
    both orientations counted directly on every pair of radius-2 ball
    classes."""
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
    return not wrong, detail


def _structure_constant_count(label: str):
    """``structure_constants``, which derives each c_e = L(d1) m_e / L(e)
    from the support walk, against ``direct_count``, which counts it, on
    every pair of radius-2 ball classes."""
    store = enumerate_ball(get_pair(label), 2)
    classes = store.classes_in_ball(2)
    counted = {(d1, d2): direct_count(store, d1, d2)
               for d1 in classes for d2 in classes}
    wrong = [p for p, c in counted.items()
             if structure_constants(store, *p) != c]
    detail = (f"{len(counted)} pairs, "
              f"{sum(map(len, counted.values()))} support classes")
    if wrong:
        detail += f"; counts differ on {wrong[:3]}"
    return not wrong, detail


def _z_walk() -> HeckeElement:
    """T_{-1} + T_0 + T_1 on the radius-50 ball of z:1."""
    pair = get_pair("z:1")
    store = enumerate_ball(pair, 50)
    return HeckeElement(store, {
        store.dc(store.lookup(pair.parse(f"zvec {n}"))): Fraction(1)
        for n in (-1, 0, 1)})


def _z_moments():
    a = power_moments(_z_walk(), 2)
    return a == [Fraction(3), Fraction(19)], f"a_1={a[0]}, a_2={a[1]}"


def _z_projection_monotone():
    f = _z_walk()
    t10 = truncated_norm(operator_matrix(f, 10))
    t50 = truncated_norm(operator_matrix(f, 50))
    return t10 <= t50 + 1e-9, f"{t10:.6f} vs {t50:.6f}"


def _z_l1_bound():
    f = _z_walk()
    t50 = truncated_norm(operator_matrix(f, 50))
    return t50 <= float(norms(f).l1) + 1e-9, ""


#: every check ``hecke verify`` runs, in report order, as rows (name,
#: pairs, check): a row with pairs runs ``check(label)`` once per pair
#: under ``name[label]``, a row with none runs ``check()`` once under
#: ``name``; a check returns (ok, detail)
CHECKS = [
    ("oracle-equivalence", ORACLE_PAIRS, _oracle_equivalence),
    ("s3-structure-identity", [], _s3_structure_identity),
    ("golden", [label for label, _ in GOLDEN_SPECS], _golden),
    ("algebra-laws", LAW_PAIRS, _algebra_laws),
    ("coset-invariants", LAW_PAIRS, _coset_invariants),
    ("learned-class-sizes", LAW_PAIRS, _learned_sizes),
    ("structure-constants-mirror", MIRROR_PAIRS, _structure_constant_mirror),
    ("structure-constants-count", COUNT_PAIRS, _structure_constant_count),
    ("z-moments", [], _z_moments),
    ("z-projection-monotone", [], _z_projection_monotone),
    ("z-l1-bound", [], _z_l1_bound),
]


def run_verification(include_golden: bool = True) -> list[CheckResult]:
    """Every check of ``CHECKS`` in table order, each on its own: an error
    inside one (an exact invariant the engine itself enforces) fails that
    check alone, with ``Type: message`` as its detail, so every run reports
    the same names in the same order whatever fails."""
    checks = []
    for name, pairs, check in CHECKS:
        if name == "golden" and not include_golden:
            continue
        runs = [(f"{name}[{label}]", (label,)) for label in pairs]
        for full_name, args in runs or [(name, ())]:
            try:
                ok, detail = check(*args)
            except HeckeError as exc:
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            checks.append(CheckResult(full_name, ok, detail))
    return checks

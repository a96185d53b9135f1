"""Length functions on pairs, pseudo-metric checks and dominance fits.

A length function on a pair is bi-H-invariant, so it lives on double
cosets: ``LengthFunction.values`` maps class ids to nonnegative values
(exact rationals for the word and indicator lengths, floats for the
logarithmic characteristic length, which also carries its integer base
for exact submultiplicativity checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .algebra import structure_constants
from .cosets import CosetStore
from .errors import (EmptyStore, InfiniteH, LengthUndefinedOnSupport,
                     NotRelativelyUnimodular)
from .groups import HeckePair

__all__ = [
    "LengthFunction", "word_length", "characteristic_length",
    "indicator_length", "AveragedLength", "averaged_length",
    "length_of_element", "pseudometric_checks", "PseudometricReport",
    "dominance_fit", "DominanceFit", "check_length_axioms", "linfit",
]


@dataclass
class LengthFunction:
    kind: str                      # word-schreier | characteristic | indicator
    #                              # | averaged-finite-h | custom
    values: dict                   # DoubleCosetId -> Fraction | float
    #: for the characteristic length: class -> integer L (or L*R), so the
    #: submultiplicative law can be checked exactly
    exact_base: Optional[dict] = None
    #: globally defined lengths (indicator, characteristic) evaluate lazily
    #: on classes outside the tabulated ball; the word length cannot
    extend: Optional[Callable] = None
    #: memo of the lazy values, kept apart so that ``values`` stays the
    #: tabulated domain whatever was evaluated before
    _extended: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __call__(self, dcid: int):
        try:
            return self.values[dcid]
        except KeyError:
            pass
        if self.extend is not None:
            if dcid not in self._extended:
                self._extended[dcid] = self.extend(dcid)
            return self._extended[dcid]
        raise LengthUndefinedOnSupport(
            f"{self.kind} length undefined on class {dcid}")

    def defined_on(self, dcid: int) -> bool:
        return dcid in self.values or self.extend is not None


def word_length(store: CosetStore) -> LengthFunction:
    """Word length of the pair: l(d) = least n with d inside the n-fold
    product of H S-hat H, read off the store's class-level search
    (``CosetStore.word_lengths``) up to the enumerated radius.  From a
    class d the search steps to the classes of x t_j, for one coset Hx of
    d and the left-coset representatives t_j of each generator class s:
    those classes are exactly supp(T_d * T_s), so no member coset of d is
    visited, and counting the x t_j per class gives the class sizes L and
    R on the way.

    This is the word length of the pair's coset completion with respect to
    the compact set H S-hat, and it satisfies the length axioms exactly;
    plain per-coset Schreier depth minimized over a class can fail
    subadditivity (H-moves in the middle of a word are free here, not
    there).  Values are produced for every class within the store's
    enumerated radius."""
    if store.radius_complete < 0:
        raise EmptyStore("enumerate before asking for word length")
    found = store.word_lengths(store.radius_complete)
    return LengthFunction("word-schreier",
                          {d: Fraction(n) for d, n in found.items()})


def characteristic_length(store: CosetStore,
                          use_lr: bool = False) -> LengthFunction:
    """l_c(d) = log L(d) on the store's pair; refuses pairs that are not
    relatively unimodular unless ``use_lr`` switches to the log(L*R)
    variant."""
    pair = store.pair
    if not use_lr:
        if not store.unimodularity().verdict:
            raise NotRelativelyUnimodular(
                f"{pair.label} is not relatively unimodular; "
                "pass use_lr=True for the log(L*R) variant")
    base: dict[int, int] = {}

    def evaluate(d: int) -> float:
        n = store.class_L(d) * store.class_R(d) if use_lr else store.class_L(d)
        base[d] = n
        return math.log(n)

    values = {d: evaluate(d) for d in store.classes_in_ball(store.radius_complete)}
    kind = "characteristic-lr" if use_lr else "characteristic"
    return LengthFunction(kind, values, exact_base=base, extend=evaluate)


def indicator_length(store: CosetStore) -> LengthFunction:
    """0 on H, 1 elsewhere (proper only for cocompact H)."""
    e = store.identity_class()
    values = {d: Fraction(0) if d == e else Fraction(1)
              for d in store.classes_in_ball(store.radius_complete)}
    return LengthFunction("indicator", values,
                          extend=lambda d: Fraction(0 if d == e else 1))


def length_of_element(store: CosetStore, l: LengthFunction, g):
    """Evaluate a class-level length at a group element."""
    return l(store.dc(store._intern(g)))


# ---------------------------------------------------------------------------
# H-averaging for finite H


class AveragedLength:
    """l1(g) = sum_{h in H} l(h g h^{-1}) and l'(g) = min_{h in H} l1(h g),
    for finite H with counting measure.  l' vanishes on H and is a length
    function on the pair whenever l is one on G."""

    def __init__(self, pair: HeckePair, base: Callable):
        self.pair = pair
        self.base = base
        h = pair.h_elements()
        if h is None:
            raise InfiniteH(f"{pair.label}: H is not finite")
        self.h = h
        self.eta = len(h)
        self.h_total = sum(base(x) for x in h)

    def l1(self, g):
        p = self.pair
        return sum(self.base(p.mul(p.mul(h, g), p.inv(h))) for h in self.h)

    def l_prime(self, g):
        p = self.pair
        return min(self.l1(p.mul(h, g)) for h in self.h)

    def bound_slack(self, g):
        """eta(H) l(g) + 2 sum_H l  -  l1(g); nonnegative pointwise."""
        return self.eta * self.base(g) + 2 * self.h_total - self.l1(g)

    def as_length_function(self, store: CosetStore) -> LengthFunction:
        def evaluate(d: int):
            return self.l_prime(store.reps[store.dcs[d].rep_cid])

        values = {d: evaluate(d)
                  for d in store.classes_in_ball(store.radius_complete)}
        return LengthFunction("averaged-finite-h", values, extend=evaluate)


def averaged_length(pair: HeckePair, base: Callable) -> AveragedLength:
    return AveragedLength(pair, base)


# ---------------------------------------------------------------------------
# pseudo-metric checks


@dataclass
class PseudometricReport:
    samples: int
    evaluated: int
    symmetry_failures: int
    triangle_failures: int
    invariance_failures: int

    @property
    def ok(self) -> bool:
        return not (self.symmetry_failures or self.triangle_failures
                    or self.invariance_failures)


def pseudometric_checks(store: CosetStore, l: LengthFunction,
                        n_samples: int = 100, seed: int = 0) -> PseudometricReport:
    """Check d_l(x,y) = l(x^{-1} y) for symmetry, the triangle inequality
    and left invariance on random triples drawn from the half-radius ball
    (so every product stays inside the enumerated ball)."""
    import random

    pair = store.pair
    rng = random.Random(seed)
    half = store.ball_ids(store.radius_complete // 2)
    if not half:
        raise EmptyStore("no cosets to sample")

    def d_l(x, y):
        return length_of_element(store, l, pair.mul(pair.inv(x), y))

    sym = tri = invar = 0
    for _ in range(n_samples):
        x, y, z, g = (store.reps[rng.choice(half)] for _ in range(4))
        dxy = d_l(x, y)
        if dxy != d_l(y, x):
            sym += 1
        if d_l(x, z) > dxy + d_l(y, z):
            tri += 1
        if d_l(pair.mul(g, x), pair.mul(g, y)) != dxy:
            invar += 1
    return PseudometricReport(n_samples, n_samples, sym, tri, invar)


# ---------------------------------------------------------------------------
# dominance fitting


@dataclass
class DominanceFit:
    c1: float
    c0: float
    holds: bool
    lsq_c1: float
    lsq_c0: float
    n_classes: int


def dominance_fit(l1: LengthFunction, l2: LengthFunction,
                  store: CosetStore) -> DominanceFit:
    """Fit constants with l2 <= c1*l1 + c0 over all classes where both are
    defined, verifying the inequality exactly; an empirical shadow of
    dominance, never a proof."""
    common = [d for d in l1.values if l2.defined_on(d)]
    if not common:
        raise EmptyStore("no common classes")
    zeros = [l2(d) for d in common if l1(d) == 0]
    c0 = max(zeros) if zeros else 0
    rest = [(l1(d), l2(d)) for d in common if l1(d) != 0]
    c1 = max(((v2 - c0) / v1 for v1, v2 in rest), default=0)
    if c1 < 0:
        c1 = 0
    holds = all(l2(d) <= c1 * l1(d) + c0 for d in common)
    # least-squares line for reporting
    ls1, ls0, _ = linfit([float(l1(d)) for d in common],
                         [float(l2(d)) for d in common])
    return DominanceFit(float(c1), float(c0), holds, ls1, ls0, len(common))


def linfit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares line y = slope * x + intercept and its r2.  With a
    single x value the slope is 0, the intercept mean(y) and r2 1."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, my, 1.0
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    syy = sum((y - my) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if syy < 1e-30 else max(0.0, 1.0 - ss_res / syy)
    return slope, intercept, r2


# ---------------------------------------------------------------------------
# the generic length-axiom suite


def check_length_axioms(store: CosetStore, l: LengthFunction,
                        half_radius: int) -> list[str]:
    """Exact axioms at class level: l(HeH) = 0, symmetry under class
    inversion, and subadditivity l(d) <= l(d1) + l(d2) for every d in the
    support of T_{d1} * T_{d2}, over all class pairs of the half-radius
    ball.  For the characteristic length the subadditive law is checked in
    its exact integer form L(d) <= L(d1) L(d2).  Returns violations."""
    problems: list[str] = []
    e = store.identity_class()
    if not l.defined_on(e) or l(e) != 0:
        problems.append("l(HeH) != 0")
    for d in sorted(l.values):
        inv = store.class_inverse(d)
        if l.defined_on(inv) and l(inv) != l(d):
            problems.append(f"symmetry fails on class {d}")
    half_classes = store.classes_in_ball(half_radius)
    for d1 in half_classes:
        if not l.defined_on(d1):
            continue
        for d2 in half_classes:
            if not l.defined_on(d2):
                continue
            for d in structure_constants(store, d1, d2):
                if not l.defined_on(d):
                    problems.append(
                        f"length undefined on product class {d} "
                        f"of ({d1},{d2})")
                    continue
                value = l(d)   # force lazy evaluation (fills exact_base too)
                if l.exact_base is not None:
                    if l.exact_base[d] > l.exact_base[d1] * l.exact_base[d2]:
                        problems.append(
                            f"submultiplicativity fails on {d} in "
                            f"supp(T{d1}*T{d2})")
                elif value > l(d1) + l(d2):
                    problems.append(
                        f"subadditivity fails on {d} in supp(T{d1}*T{d2})")
    return problems

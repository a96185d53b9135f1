"""Length functions on pairs and their axiom checks.

A length function on a pair is bi-H-invariant, so it lives on double
cosets: ``LengthFunction.values`` maps class ids to nonnegative values
(exact rationals for the word and indicator lengths, floats for the
logarithmic characteristic length, which also carries its integer base
for exact submultiplicativity checks).  Each length is tabulated on the
classes of word length <= r that the class search lists, for the radius r
its caller names, and reads no Schreier ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from .algebra import structure_constants
from .cosets import CosetStore
from .errors import (InfiniteH, LengthUndefinedOnSupport,
                     NotRelativelyUnimodular)
from .groups import HeckePair

__all__ = [
    "LengthFunction", "word_length", "characteristic_length",
    "indicator_length", "AveragedLength", "check_length_axioms", "linfit",
]


@dataclass
class LengthFunction:
    kind: str                      # word-schreier | characteristic | indicator
    #                              # | averaged-finite-h | custom
    values: dict                   # DoubleCosetId -> Fraction | float
    #: for the characteristic length: the function class -> integer L (or
    #: L*R), so the submultiplicative law can be checked exactly
    exact_base: Optional[Callable] = None
    #: globally defined lengths (indicator, characteristic, averaged)
    #: evaluate lazily past the tabulated classes; the word length cannot
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


def word_length(store: CosetStore, r: int) -> LengthFunction:
    """Word length of the pair on the classes of word length <= r: l(d) =
    least n with d inside the n-fold product of H S-hat H, read off the
    store's class-level search (``CosetStore.word_lengths``), resumed to
    depth r; it enumerates no Schreier ball.  From a class d the search
    steps to the classes of x t_j, for one coset Hx of d and the left-coset
    representatives t_j of each generator class s: those classes are
    exactly supp(T_d * T_s), so no member coset of d is visited, and
    counting the x t_j per class gives the class sizes L and R on the way.

    This is the word length of the pair's coset completion with respect to
    the compact set H S-hat, and it satisfies the length axioms exactly;
    plain per-coset Schreier depth minimized over a class can fail
    subadditivity (H-moves in the middle of a word are free here, not
    there)."""
    return LengthFunction("word-schreier", {
        d: Fraction(n) for d, n in store.word_lengths(r).items()})


def characteristic_length(store: CosetStore, r: int,
                          use_lr: bool = False) -> LengthFunction:
    """l_c(d) = log L(d) on the store's pair, tabulated on the classes of
    word length <= r; refuses pairs that are not relatively unimodular
    unless ``use_lr`` switches to the log(L*R) variant."""
    pair = store.pair
    if not use_lr:
        if not store.unimodularity().verdict:
            raise NotRelativelyUnimodular(
                f"{pair.label} is not relatively unimodular; "
                "pass use_lr=True for the log(L*R) variant")

    def base(d: int) -> int:
        n = store.class_L(d)
        return n * store.class_R(d) if use_lr else n

    def evaluate(d: int) -> float:
        return math.log(base(d))

    values = {d: evaluate(d) for d in sorted(store.word_lengths(r))}
    kind = "characteristic-lr" if use_lr else "characteristic"
    return LengthFunction(kind, values, exact_base=base, extend=evaluate)


def indicator_length(store: CosetStore, r: int) -> LengthFunction:
    """0 on H, 1 elsewhere (proper only for cocompact H), tabulated on the
    classes of word length <= r."""
    e = store.identity_class()
    values = {d: Fraction(0) if d == e else Fraction(1)
              for d in sorted(store.word_lengths(r))}
    return LengthFunction("indicator", values,
                          extend=lambda d: Fraction(0 if d == e else 1))


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

    def l1(self, g):
        p = self.pair
        return sum(self.base(p.mul(p.mul(h, g), p.inv(h))) for h in self.h)

    def l_prime(self, g):
        p = self.pair
        return min(self.l1(p.mul(h, g)) for h in self.h)

    def as_length_function(self, store: CosetStore, r: int) -> LengthFunction:
        """l', tabulated on the classes of word length <= r."""
        def evaluate(d: int):
            return self.l_prime(store.reps[store.dcs[d].rep_cid])

        values = {d: evaluate(d) for d in sorted(store.word_lengths(r))}
        return LengthFunction("averaged-finite-h", values, extend=evaluate)


# ---------------------------------------------------------------------------
# least squares


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
    support of T_{d1} * T_{d2}, over all class pairs of word length <=
    ``half_radius``.  For the characteristic length the subadditive law is
    checked in its exact integer form L(d) <= L(d1) L(d2).  Returns
    violations."""
    problems: list[str] = []
    e = store.identity_class()
    if not l.defined_on(e) or l(e) != 0:
        problems.append("l(HeH) != 0")
    for d in sorted(l.values):
        inv = store.class_inverse(d)
        if l.defined_on(inv) and l(inv) != l(d):
            problems.append(f"symmetry fails on class {d}")
    half_classes = sorted(store.word_lengths(half_radius))
    base = l.exact_base
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
                if base is not None:
                    if base(d) > base(d1) * base(d2):
                        problems.append(
                            f"submultiplicativity fails on {d} in "
                            f"supp(T{d1}*T{d2})")
                elif l(d) > l(d1) + l(d2):
                    problems.append(
                        f"subadditivity fails on {d} in supp(T{d1}*T{d2})")
    return problems

"""Exact arithmetic in the Hecke algebra of a pair.

Elements are finite rational linear combinations of double-coset
indicators T_d over a coset store.  Products are computed classwise: the
structure constants of T_{d1} * T_{d2} are read off one walk of its
support over left-coset representatives, c_e = L(d1) m_e / L(e) with m_e
the products of the walk landing in class e, and no member coset of
either class is built; ``direct_count``, which counts each c_e, is the
arbiter.  Each result is checked against the degree identity
sum_d c_d R(d) = R(d1) R(d2) (T_d -> R(d) is a ring homomorphism), with
the sizes learned by the store's class search, and cached on the store,
so repeated convolutions are dictionary arithmetic: ``convolve`` reads a
cached pair off ``store.sc_cache`` itself and calls
``structure_constants`` only on a miss, ``class_L`` and ``class_R``
return a known size at once, and ``involution`` reads L, R and the
inverse off the class records, asking the store only for what is unknown.

An element is held as integer numerators over one lowest denominator:
a pair (den, num) with den > 0, num mapping each support class to a
nonzero int, and gcd(den, *num.values()) = 1.  That form is unique, so
equality and hashing compare the pair.  Convolution, involution, sums and
scalar multiples read and build pairs, with one gcd division per result;
involution rescales once, by the lcm of the reduced denominators of the
Delta(d) that are not 1.  Norms sum ints and build one Fraction per
returned value.  A result dict is rebuilt to drop zeros only when
``0 in num.values()``, a scan that runs in C.  ``HeckeElement.coeffs``
is a read-only Fraction view, built on first read.  Output dicts keep
the order in which the loops first reach each class.

Coefficients are rationals, not complex: every computation in scope uses
real data, so conjugation is the identity.  A complex payload would be a
mechanical extension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .cosets import CosetStore
from .errors import (HeckeError, LengthUndefinedOnSupport,
                     NonBiInvariantResult, ParseError, StoreMismatch)

__all__ = [
    "HeckeElement", "NormReport",
    "basis_element", "identity_element", "convolve", "involution",
    "norms", "weighted_norms", "power_moments", "structure_constants",
]


class HeckeElement:
    """Finite map DoubleCosetId -> exact rational coefficient, held as
    integer numerators over one lowest denominator.

    ``num`` maps each support class to a nonzero int and ``den`` is a
    positive int with gcd(den, *num.values()) = 1, so the pair is unique
    and ``==`` and ``hash`` read it directly.  ``coeffs`` is a read-only
    view of the coefficients as Fractions, built on first read."""

    __slots__ = ("store", "den", "num", "_coeffs")

    def __init__(self, store: CosetStore, coeffs: dict[int, Fraction]):
        # ints and Fractions are in lowest terms, so over the lcm of their
        # denominators the numerators share no factor with it
        items = [(d, c if type(c) is int or type(c) is Fraction
                  else Fraction(c))
                 for d, c in coeffs.items() if c != 0]
        den = math.lcm(*(c.denominator for _, c in items))
        self.store = store
        self.den = den
        self.num = {d: c.numerator * (den // c.denominator)
                    for d, c in items}
        self._coeffs = None

    @classmethod
    def _of(cls, store: CosetStore, den: int,
            num: dict[int, int]) -> "HeckeElement":
        """The element from a pair (den, num) already in canonical form."""
        f = object.__new__(cls)
        f.store, f.den, f.num, f._coeffs = store, den, num, None
        return f

    @property
    def coeffs(self) -> MappingProxyType:
        view = self._coeffs
        if view is None:
            den = self.den
            view = self._coeffs = MappingProxyType(
                {d: Fraction(n, den) for d, n in self.num.items()})
        return view

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other) -> bool:
        return (isinstance(other, HeckeElement)
                and self.store is other.store
                and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((id(self.store), self.den,
                     tuple(sorted(self.num.items()))))

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        return _combine(self, other, 1)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return _combine(self, other, -1)

    def __rmul__(self, scalar) -> "HeckeElement":
        if type(scalar) is not int and type(scalar) is not Fraction:
            scalar = Fraction(scalar)
        p = scalar.numerator
        return _reduced(self.store, self.den * scalar.denominator,
                        {d: p * n for d, n in self.num.items()})

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            return convolve(self, other)
        return NotImplemented

    def __repr__(self):
        terms = " + ".join(f"{c}*T[{d}]" for d, c in sorted(self.coeffs.items()))
        return f"<HeckeElement {terms or '0'}>"

    def to_text(self) -> str:
        return "\n".join(f"dc={d} coeff={c}"
                         for d, c in sorted(self.coeffs.items()))

    @classmethod
    def from_text(cls, store: CosetStore, text: str) -> "HeckeElement":
        """The element of ``to_text``'s lines ``dc=<id> coeff=<rational>``,
        a repeated class summed.  A malformed line, or one whose keys are
        not exactly dc and coeff once each, raises ``ParseError``, and a
        class the store has not named ``HeckeError``, each naming the
        1-based line."""
        coeffs: dict[int, Fraction] = {}
        for ln, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                tokens = line.split()
                parts = dict(p.split("=", 1) for p in tokens)
                if len(tokens) != 2 or parts.keys() != {"dc", "coeff"}:
                    raise ValueError(line)
                d, c = int(parts["dc"]), Fraction(parts["coeff"])
            except (ValueError, ZeroDivisionError):
                raise ParseError(f"line {ln}: expected 'dc=<id> "
                                 f"coeff=<rational>', got {line!r}") from None
            if not 0 <= d < len(store.dcs):
                raise HeckeError(f"line {ln}: class {d} is not in the store")
            coeffs[d] = coeffs.get(d, Fraction(0)) + c
        return cls(store, coeffs)


def _same_store(f: HeckeElement, g: HeckeElement) -> None:
    if f.store is not g.store:
        raise StoreMismatch("elements live over different stores")


def _reduced(store: CosetStore, den: int,
             num: dict[int, int]) -> HeckeElement:
    """The element sum_d num[d] / den T_d for den > 0, in canonical form:
    zero numerators dropped and one gcd divided out (den becomes 1 for the
    zero element).  ``num`` is kept as it is when it holds no zero and the
    gcd is 1, so callers pass a dict of their own."""
    if 0 in num.values():
        num = {d: n for d, n in num.items() if n}
    g = math.gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {d: n // g for d, n in num.items()}
    return HeckeElement._of(store, den, num)


def _combine(f: HeckeElement, g: HeckeElement, sign: int) -> HeckeElement:
    """f + sign * g over the lcm of the two denominators, by class in f's
    order and then g's."""
    _same_store(f, g)
    den = math.lcm(f.den, g.den)
    a, b = den // f.den, sign * (den // g.den)
    out = {d: a * n for d, n in f.num.items()}
    for d, n in g.num.items():
        out[d] = out.get(d, 0) + b * n
    return _reduced(f.store, den, out)


def basis_element(store: CosetStore, dcid: int) -> HeckeElement:
    return HeckeElement._of(store, 1, {dcid: 1})


def identity_element(store: CosetStore) -> HeckeElement:
    return basis_element(store, store.identity_class())


def direct_count(store: CosetStore, d1: int, d2: int) -> dict[int, int]:
    """The coefficients of T_{d1} * T_{d2} counted in this orientation,
    unchecked and uncached, the arbiter of ``structure_constants``: the
    support off the left-coset representatives of d2, and each c_e, for x
    in e, the R(d2) products x t over those of inv(d2) that land in d1."""
    support = store.product_support(d1, d2)
    inv_reps = store.class_left_reps(store.class_inverse(d2))
    want = store.dcs[d1].key
    return {d: store._count(x, inv_reps, want)
            for d, (x, _) in support.items()}


def structure_constants(store: CosetStore, d1: int, d2: int) -> dict[int, int]:
    """Coefficients of T_{d1} * T_{d2} in the double-coset basis, read off
    one walk of the support.

    With x1 in d1 and the L(d2) left-coset representatives t of d2, the
    classes of the x1 t are the support, each named by its key; m_e of
    the x1 t land in class e, and c_e = L(d1) m_e / L(e).  Proof: count
    the triangles of left cosets (H, aH, bH) with a in d1, a^{-1} b in d2
    and b in e.  Fixing aH first (L(d1) ways), bH = a t H, and m_e of
    these lie in e.  Fixing bH = zH first (L(e) ways), aH -> H a^{-1} z is
    a bijection onto the right cosets H b' of d2 with z b'^{-1} in d1, and
    c_e counts those.  So L(d1) m_e = L(e) c_e; unimodularity is not
    used.  A remainder raises.  L and R may be read in either order: the
    store sizes a class by one rule, the class search where it runs, with
    no left walk.  No member list is read; only a new class interns a coset.

    The walk costs L(d2) products here and L(inv d1) = R(d1) on the
    mirrored pair: Hy -> x y^{-1} H gives
    c_e(d1, d2) = c_{inv e}(inv d2, inv d1), with no Delta factor.  So
    when R(d1) < L(d2) the mirrored pair is computed, and cached as its
    own entry, for min(L(d2), R(d1)) products; inversion swaps L and R,
    so it never mirrors back.  A one-coset side is the case m_e = 1.

    The result must satisfy the degree identity
    sum_d c_d R(d) = R(d1) R(d2).  On a unimodular pair it holds by
    construction (sum_e m_e = L(d2)); elsewhere it checks the learned
    Delta = L/R of the classes in the product.  A failure caches neither
    orientation.
    """
    key = (d1, d2)
    cached = store.sc_cache.get(key)
    if cached is not None:
        return cached
    L, R = store.class_L, store.class_R
    if R(d1) < L(d2):
        inv = store.class_inverse
        out = {inv(e): c for e, c in
               structure_constants(store, inv(d2), inv(d1)).items()}
    else:
        l1 = L(d1)
        out = {}
        for e, (_, m) in store.product_support(d1, d2).items():
            c, rem = divmod(l1 * m, L(e))
            if rem:
                raise NonBiInvariantResult(
                    f"product T[{d1}]*T[{d2}] leaves no whole coefficient "
                    f"of class {e}: L(d1) m_e / L(e) = {l1 * m}/{L(e)}")
            out[e] = c
    degree = sum(c * R(d) for d, c in out.items())
    want = R(d1) * R(d2)
    if degree != want:
        raise NonBiInvariantResult(
            f"product T[{d1}]*T[{d2}] breaks the degree identity: "
            f"sum c_d R(d) = {degree}, R(d1) R(d2) = {want}")
    store.sc_cache[key] = out
    return out


def convolve(f: HeckeElement, g: HeckeElement) -> HeckeElement:
    """(f * g)(Hx) = sum_y f(H x y^{-1}) g(Hy) under the counting
    normalization (mass 1 per right coset)."""
    _same_store(f, g)
    store = f.store
    cache = store.sc_cache
    out: dict[int, int] = {}
    for d1, n1 in f.num.items():
        for d2, n2 in g.num.items():
            w = n1 * n2
            sc = cache.get((d1, d2))
            if sc is None:
                sc = structure_constants(store, d1, d2)
            for d, n in sc.items():
                out[d] = out.get(d, 0) + w * n
    return _reduced(store, f.den * g.den, out)


def involution(f: HeckeElement) -> HeckeElement:
    """f*(Hx) = Delta(x^{-1}) f(Hx^{-1}); on the basis this sends T_d to
    Delta(d) T_{inv(d)} (Delta is constant on classes).  It is the adjoint
    of x -> f * x for the L-weighted pairing sum_d L(d) x(d) y(d), not for
    the R-weighted one of l2(H\\G), whose adjoint is d -> f(inv d); the
    two agree where Delta = 1 on the support.  The class inverse is a
    bijection, so each output class takes one term.  Where Delta = 1 on
    the whole support the numerators move over unchanged; otherwise the
    denominator is scaled once, by the lcm of the reduced denominators of
    the Delta(d) = L(d) / R(d) that are not 1."""
    store = f.store
    dcs = store.dcs
    terms = []
    scale = 1
    delta_one = True
    for d, n in f.num.items():
        obj = dcs[d]
        left, right = obj.L or store.class_L(d), obj.R or store.class_R(d)
        if (e := obj.inv) is None:
            e = store.class_inverse(d)
        if left == right:
            left = right = 1
        else:
            g = math.gcd(left, right)
            left, right = left // g, right // g
            scale = math.lcm(scale, right)
            delta_one = False
        terms.append((e, n, left, right))
    if delta_one:
        return HeckeElement._of(store, f.den, {e: n for e, n, _, _ in terms})
    return _reduced(store, f.den * scale,
                    {e: n * left * (scale // right)
                     for e, n, left, right in terms})


@dataclass
class NormReport:
    l1_exact: Fraction
    l2_sq_exact: Fraction

    @property
    def l1(self) -> float:
        return float(self.l1_exact)

    @property
    def l2(self) -> float:
        return math.sqrt(self.l2_sq_exact)


def norms(f: HeckeElement) -> NormReport:
    """l1 = sum |c_d| R(d); l2^2 = sum c_d^2 R(d)."""
    store = f.store
    den = f.den
    l1 = l2sq = 0
    for d, n in f.num.items():
        r = store.class_R(d)
        l1 += abs(n) * r
        l2sq += n * n * r
    return NormReport(Fraction(l1, den), Fraction(l2sq, den * den))


def weighted_norms(f: HeckeElement, l, s_grid: list, powers: dict) -> dict:
    """s -> ||f||_{s,l} for every s of the grid, with the powers
    (1 + l(d))^(2s) over ``s_grid`` read from ``powers``, class -> list by
    grid point, and a class's list computed there on its first use, so
    callers that pass one dict for one l and one grid, as a profile does,
    compute each class's powers once; pass ``{}`` for a single call.  Each
    norm sums w_d * base_d^(2s) over f's classes in order, one float at a
    time, so the floats do not depend on what is cached; a class undefined
    under l raises before it is cached."""
    den_sq = f.den * f.den
    R = f.store.class_R
    acc = [0.0] * len(s_grid)
    for d, n in f.num.items():
        p = powers.get(d)
        if p is None:
            if not l.defined_on(d):
                raise LengthUndefinedOnSupport(
                    f"length undefined on support class {d}")
            base = 1.0 + float(l(d))
            p = powers[d] = [base ** (2.0 * s) for s in s_grid]
        # int true division rounds once, as float(c * c * R) does
        w = n * n * R(d) / den_sq
        acc = [a + w * q for a, q in zip(acc, p)]
    return {s: math.sqrt(a) for s, a in zip(s_grid, acc)}


def power_moments(f: HeckeElement, n_max: int) -> list[Fraction]:
    """a_n = ||f^{*n}||_2^2 = sum_d R(d) f^{*n}(d)^2 for n = 1..n_max.

    f^{*n} is lambda(f)^n delta_H, so a_n <= ||lambda(f)||^{2n} for every
    f, with no self-adjointness or unimodularity assumption.  Where
    f(inv d) = f(d), as for f* = f on a relatively unimodular pair, it is
    also the return moment (f^{*2n})(HeH) = sum_d R(d) g(inv d) g(d) for
    g = f^{*n}.
    """
    out: list[Fraction] = []
    g = f
    for n in range(1, n_max + 1):
        if n > 1:
            g = convolve(g, f)
        out.append(norms(g).l2_sq_exact)
    return out

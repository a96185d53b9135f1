"""Exact arithmetic in the Hecke algebra of a pair.

Elements are finite rational linear combinations of double-coset
indicators T_d over a coset store.  Products are computed classwise: the
structure constants of a basis product T_{d1} * T_{d2} are counted by class
keys over left-coset representatives, at one element per target class,
without the member cosets of either class.  Each result is checked against
the degree identity sum_d c_d R(d) = R(d1) R(d2) (T_d -> R(d) is a ring
homomorphism), with the sizes R learned by the store's class search from
its own products T_d * T_s with generator classes s, and cached on the
store, so repeated convolutions are dictionary arithmetic.

An element is held as integer numerators over one lowest denominator:
a pair (den, num) with den > 0, num mapping each support class to a
nonzero int, and gcd(den, *num.values()) = 1.  That form is unique, so
equality and hashing compare the pair.  Convolution, involution, sums and
scalar multiples read and build pairs, with one gcd division per result;
involution rescales once, by the lcm of the reduced denominators of the
Delta(d) that are not 1.  Norms and moment pairings sum ints and build
one Fraction per returned value.  ``HeckeElement.coeffs`` is a read-only
Fraction view, built on first read.  Output dicts keep the order in
which the loops first reach each class.

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
from .errors import (LengthUndefinedOnSupport, NonBiInvariantResult,
                     NotSelfAdjoint, StoreMismatch)

__all__ = [
    "HeckeElement", "NormReport",
    "basis_element", "identity_element", "convolve", "involution",
    "norms", "weighted_norms", "power_moments", "convolution_power_moment",
    "structure_constants",
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
        coeffs: dict[int, Fraction] = {}
        for ln, raw in enumerate(text.splitlines()):
            line = raw.strip()
            if not line:
                continue
            parts = dict(p.split("=", 1) for p in line.split())
            coeffs[int(parts["dc"])] = (coeffs.get(int(parts["dc"]), Fraction(0))
                                        + Fraction(parts["coeff"]))
        return cls(store, coeffs)

    def to_json(self) -> dict:
        return {str(d): str(c) for d, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, store: CosetStore, obj: dict) -> "HeckeElement":
        return cls(store, {int(d): Fraction(c) for d, c in obj.items()})


def _same_store(f: HeckeElement, g: HeckeElement) -> None:
    if f.store is not g.store:
        raise StoreMismatch("elements live over different stores")


def _reduced(store: CosetStore, den: int,
             num: dict[int, int]) -> HeckeElement:
    """The element sum_d num[d] / den T_d for den > 0, in canonical form:
    zero numerators dropped and one gcd divided out (den becomes 1 for the
    zero element)."""
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
    unchecked and uncached: the support off the left-coset representatives
    of d2, each count off those of inv(d2)."""
    return {d: store.product_count(d1, d2, x)
            for d, (x, _) in store.product_support(d1, d2).items()}


def structure_constants(store: CosetStore, d1: int, d2: int) -> dict[int, int]:
    """Coefficients of T_{d1} * T_{d2} in the double-coset basis.

    (T_{d1} * T_{d2})(Hx) counts the right cosets H b_j of d2 with
    H x b_j^{-1} in d1, and is constant on the class of Hx.  The support
    is the set of classes of the x1 t, for one element x1 of d1 and the
    L(d2) left-coset representatives t of d2; each class is named by its
    key.  For the element x of each support class met that way, c_d counts
    the left-coset representatives t of inv(d2) (the b_j^{-1} up to right
    H) with class_key(x t) = key(d1).  No member list is read and only a
    newly named class interns a coset, its rep: L(d2) + |supp| R(d2)
    products per pair.

    That cost is paid on the cheaper side.  Hy -> x y^{-1} H maps the
    right cosets of d2 counted at Hx onto the left cosets of d1 counted
    for (T_{inv d2} * T_{inv d1})(H x^{-1}), so
    c_e(d1, d2) = c_{inv e}(inv d2, inv d1) with no Delta factor.  When
    L(d1) < R(d2) the mirrored pair is computed (and cached) instead, for
    R(d1) + |supp| L(d1) products and the left cosets of d1 and inv(d1)
    alone; it never mirrors back, as L(inv d2) = R(d2) > L(d1) =
    R(inv d1).  Either way the result must satisfy the degree identity
    sum_d c_d R(d) = R(d1) R(d2), with every R learned by the store's
    class search, not from this product; a failure caches nothing.
    """
    key = (d1, d2)
    cached = store.sc_cache.get(key)
    if cached is not None:
        return cached
    if store.class_L(d1) < store.class_R(d2):
        inv = store.class_inverse
        out = {inv(e): c for e, c in
               structure_constants(store, inv(d2), inv(d1)).items()}
    else:
        out = direct_count(store, d1, d2)
    degree = sum(c * store.class_R(d) for d, c in out.items())
    want = store.class_R(d1) * store.class_R(d2)
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
    out: dict[int, int] = {}
    for d1, n1 in f.num.items():
        for d2, n2 in g.num.items():
            w = n1 * n2
            for d, n in structure_constants(store, d1, d2).items():
                out[d] = out.get(d, 0) + w * n
    return _reduced(store, f.den * g.den, out)


def involution(f: HeckeElement) -> HeckeElement:
    """f*(Hx) = Delta(x^{-1}) f(Hx^{-1}); on the basis this sends T_d to
    Delta(d) T_{inv(d)} (Delta is constant on classes).  The class inverse
    is a bijection, so each output class takes one term.  Where Delta = 1
    on the whole support the numerators move over unchanged; otherwise the
    denominator is scaled once, by the lcm of the reduced denominators of
    the Delta(d) = L(d) / R(d) that are not 1."""
    store = f.store
    terms = []
    scale = 1
    delta_one = True
    for d, n in f.num.items():
        left, right = store.class_L(d), store.class_R(d)
        if left == right:
            left = right = 1
        else:
            g = math.gcd(left, right)
            left, right = left // g, right // g
            scale = math.lcm(scale, right)
            delta_one = False
        terms.append((store.class_inverse(d), n, left, right))
    if delta_one:
        return HeckeElement._of(store, f.den, {e: n for e, n, _, _ in terms})
    return _reduced(store, f.den * scale,
                    {e: n * left * (scale // right)
                     for e, n, left, right in terms})


def is_self_adjoint(f: HeckeElement) -> bool:
    return involution(f) == f


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


def weighted_norms(f: HeckeElement, l, s_grid) -> dict:
    """s -> ||f||_{s,l} for every s of the grid, with each class term
    c_d^2 R(d) and base 1 + l(d) computed once."""
    den_sq = f.den * f.den
    terms = []
    for d, n in f.num.items():
        if not l.defined_on(d):
            raise LengthUndefinedOnSupport(
                f"length undefined on support class {d}")
        # int true division rounds once, as float(c * c * R) does
        terms.append((n * n * f.store.class_R(d) / den_sq,
                      1.0 + float(l(d))))
    out = {}
    for s in s_grid:
        wsq = 0.0
        for w, base in terms:
            wsq += w * base ** (2.0 * s)
        out[s] = math.sqrt(wsq)
    return out


def _pairing_at_identity(u: HeckeElement, v: HeckeElement) -> Fraction:
    """(u * v)(HeH) = sum_d R(d) u(inv d) v(d), avoiding the full product."""
    store = u.store
    num_u = u.num
    total = 0
    for d, nv in v.num.items():
        nu = num_u.get(store.class_inverse(d))
        if nu:
            total += store.class_R(d) * nu * nv
    return Fraction(total, u.den * v.den)


def power_moments(f: HeckeElement, n_max: int) -> list[Fraction]:
    """a_n = (f^{*2n})(HeH) for n = 1..n_max; requires f* = f.

    Computed as a_n = (f^{*n} * f^{*n})(HeH), so supports only grow to the
    n_max-fold product.
    """
    if not is_self_adjoint(f):
        raise NotSelfAdjoint("moments need f* = f")
    out: list[Fraction] = []
    g = f
    for n in range(1, n_max + 1):
        if n > 1:
            g = convolve(g, f)
        a_n = _pairing_at_identity(g, g)
        if a_n < 0:
            raise NonBiInvariantResult(f"moment a_{n} negative: {a_n}")
        out.append(a_n)
    return out


def convolution_power_moment(f: HeckeElement, n: int) -> Fraction:
    return power_moments(f, n)[-1]


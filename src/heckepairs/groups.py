"""Concrete group arithmetic and subgroup membership for the catalog pairs.

Every pair (G, H) is packaged as a :class:`HeckePair`: exact group
operations, an exact H-membership predicate, generator lists for G and H,
and two normal forms: ``coset_fingerprint`` of the right coset Hx, so the
enumeration engine interns a coset by its key alone, and ``class_key`` of
the double coset HxH, so the store names a class without computing its
right-H orbit.  No pair keys left cosets: tH -> Ht^{-1} maps the
left cosets of HxH onto the right cosets of Hx^{-1}H, so the engine walks
left cosets as inverted right cosets.  All scalar arithmetic is over
arbitrary-precision rationals; there is no floating point in this module.

Element payloads
----------------
* :class:`Mat2`  -- 2x2 matrix with det 1 and entries in Z[1/p], stored as
  an integer numerator matrix over a power of p (exposed as `Fraction`s).
  Used plain (SL2) or modulo +-1 (PSL2, sign-canonicalized).
* :class:`Aff`   -- [[1, b], [0, a]] with a > 0 as integers over one lowest
  denominator (exposed as `Fraction`s); the ax+b style groups (Bost-Connes
  full pair and its finitely generated p-version).
* :class:`Perm`  -- permutation of {0..n-1} as a tuple of images.
* :class:`Vec`   -- integer vector (Z^d with the trivial subgroup).
* :class:`Dih`   -- infinite dihedral element x -> +-x + n as (shift, flip).

Each payload is an unfrozen slots dataclass, so ``==``, ``hash`` and
``repr`` follow its fields.  None is frozen: a payload is built on every
group product, and a frozen dataclass's ``__init__`` is the slower one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, neg
from typing import Callable, Optional

from .errors import (DomainError, HeckeError, MixedKinds, NotFinitelyGenerated,
                     ParseError)

__all__ = [
    "Mat2", "Aff", "Perm", "Vec", "Dih",
    "HeckePair", "SL2ZpPair", "AffinePair", "ZPair", "PermPair",
    "DihedralPair",
    "get_pair", "catalog_labels", "load_pair_spec",
]


# ---------------------------------------------------------------------------
# element payloads


# A frozen dataclass's __init__ sets each field through object.__setattr__:
# Vec(t) took 326 ns frozen against 185 ns unfrozen (best of 15 runs,
# CPython 3.11), and a payload is built on every group product.


@dataclass(slots=True, unsafe_hash=True)
class Mat2:
    """Matrix ``num / p**k`` with integer ``num`` and det(num) = p**(2k).

    ``num`` is reduced: unless k = 0, not all entries are divisible by p,
    which makes the representation unique (up to sign; the projective pairs
    canonicalize the sign separately).
    """

    num: tuple[int, int, int, int]
    k: int
    p: int

    def to_fractions(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        q = self.p ** self.k
        return tuple(Fraction(x, q) for x in self.num)


@dataclass(slots=True, unsafe_hash=True, init=False)
class Aff:
    """The matrix [[1, b], [0, a]] with a > 0, held as b = B/D, a = A/D.

    B, A, D are integers over one lowest denominator: D > 0 and
    gcd(B, A, D) = 1, which makes the representation unique.  ``Aff(b, a)``
    takes ints or Fractions; ``b`` and ``a`` are read-only Fraction views.
    """

    B: int
    A: int
    D: int

    def __init__(self, b, a):
        # over the lcm of two lowest-terms denominators the numerators
        # share no prime with it, so (B, A, D) is already reduced
        db, da = b.denominator, a.denominator
        d = db // gcd(db, da) * da
        self.B = b.numerator * (d // db)
        self.A = a.numerator * (d // da)
        self.D = d

    @property
    def b(self) -> Fraction:
        return Fraction(self.B, self.D)

    @property
    def a(self) -> Fraction:
        return Fraction(self.A, self.D)


def _aff(B: int, A: int, D: int) -> Aff:
    """The Aff with numerators B, A over D, taken as already reduced."""
    x = object.__new__(Aff)
    x.B = B
    x.A = A
    x.D = D
    return x


@dataclass(slots=True, unsafe_hash=True)
class Perm:
    """Permutation of {0..n-1} as the tuple of its images."""

    images: tuple[int, ...]


@dataclass(slots=True, unsafe_hash=True)
class Vec:
    """Integer vector, the tuple of its coordinates."""

    coords: tuple[int, ...]


@dataclass(slots=True, unsafe_hash=True)
class Dih:
    """The isometry x -> -x + shift (flip) or x -> x + shift (no flip)."""

    shift: int
    flip: bool


def _p_exponent(n: int, p: int) -> Optional[int]:
    """Exponent k with n = p**k, or None if n (>= 1) is not a power of p."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k if n == 1 else None


def _hnf_2x2(rows: tuple[int, int, int, int], det: int) -> tuple[int, int, int]:
    """Canonical basis (alpha, beta, delta) of the row lattice of an
    integer 2x2 matrix with det > 0: {(alpha, beta), (0, delta)} with
    alpha, delta > 0 and 0 <= beta < delta."""
    a, b, c, d = rows
    # half-extended euclid: g = gcd(a, c) with x*a = g (mod c)
    old_r, r = a, c
    old_x, x = 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
    if old_r < 0:
        old_r, old_x = -old_r, -old_x
    y = (old_r - old_x * a) // c if c else 0
    delta = det // old_r
    beta = (old_x * b + y * d) % delta if delta else 0
    return (old_r, beta, delta)


# ---------------------------------------------------------------------------
# rational token helpers


def _parse_rational(tok: str, pos: int) -> Fraction:
    try:
        if "/" in tok:
            n, d = tok.split("/", 1)
            den = int(d)
            if den <= 0:
                raise ParseError(f"denominator must be positive: {tok!r}", pos)
            return Fraction(int(n), den)
        return Fraction(int(tok))
    except ValueError:
        raise ParseError(f"not a rational: {tok!r}", pos) from None


def _parse_int(tok: str, pos: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(f"not an integer: {tok!r}", pos) from None


# ---------------------------------------------------------------------------
# the pair interface


class HeckePair:
    """A concrete group instance with a designated Hecke subgroup H.

    Elements handed to the methods must come from this instance; all
    returned elements are canonical representatives, so ``==`` on payloads
    is exact equality in the group.
    """

    label: str
    kind: str
    payload_type: type
    #: None for pairs without a finite generating set (ball enumeration off).
    g_generators: Optional[list]
    h_generators: list
    #: implementer conventions for this catalog entry, surfaced in reports
    notes: str = ""
    #: description of the supplied reduction kernel / canonicalization rule
    reduction_note: str = ""

    def __init__(self):
        self._shat = None
        self._h_sym = None
        for h in self.h_generators:
            if not self.in_h(h):
                raise HeckeError(f"{self.label}: subgroup generator outside H")

    # -- group law ---------------------------------------------------------

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def identity(self):
        raise NotImplementedError

    def canon(self, x):
        """Canonical representative (identity map unless the instance is a
        quotient such as PSL2, where the sign rule applies)."""
        return x

    def in_h(self, x) -> bool:
        raise NotImplementedError

    def validate(self, x) -> None:
        """Raise DomainError if x is not a well-formed element."""
        raise NotImplementedError

    def _check_payload(self, x):
        if not isinstance(x, self.payload_type):
            raise MixedKinds(
                f"expected {self.payload_type.__name__}, got {type(x).__name__}")

    # -- generators --------------------------------------------------------

    @property
    def finitely_generated(self) -> bool:
        return self.g_generators is not None

    def shat(self) -> list:
        """S union S^{-1} with duplicates removed (the identity is treated
        as the BFS start, not listed)."""
        if not self.finitely_generated:
            raise NotFinitelyGenerated(f"{self.label} has no finite generating set")
        if self._shat is None:
            self._shat = self._symmetrized(self.g_generators)
        return self._shat

    def h_gens_sym(self) -> list:
        if self._h_sym is None:
            self._h_sym = self._symmetrized(self.h_generators)
        return self._h_sym

    def _symmetrized(self, gens) -> list:
        """s, s^{-1} in canonical form for each s in turn, without repeats
        or the identity.  Schreier ids follow this order."""
        out = []
        for s in gens:
            for t in (self.canon(s), self.canon(self.inv(s))):
                if t not in out and t != self.identity():
                    out.append(t)
        return out

    def h_elements(self) -> Optional[list]:
        """All of H when H is finite, else None."""
        return None

    def unimod_probes(self) -> list:
        """Elements whose relative modular values decide (or witness
        failure of) relative unimodularity."""
        if self.finitely_generated:
            return list(self.g_generators)
        raise NotImplementedError

    # -- coset keys --------------------------------------------------------

    def coset_fingerprint(self, x):
        """Hashable normal form of the right coset Hx: key(x) == key(y)
        exactly when Hx == Hy.  The coset store interns by this key alone."""
        raise NotImplementedError

    def class_key(self, x):
        """Hashable normal form of the double coset HxH: key(x) == key(y)
        exactly when HxH == HyH.  The coset store names classes by this
        key alone."""
        raise NotImplementedError

    # -- optional exact word length on G (used by H-averaging checks) ------

    def word_length_on_g(self, x) -> Optional[int]:
        return None

    # -- text --------------------------------------------------------------

    def parse(self, text: str):
        raise NotImplementedError

    def render(self, x) -> str:
        raise NotImplementedError

    def describe(self) -> dict:
        """Pair metadata for reports (labels the generator conventions)."""
        gens = None
        if self.finitely_generated:
            gens = [self.render(s) for s in self.g_generators]
        return {
            "label": self.label,
            "kind": self.kind,
            "g_generators": gens,
            "h_generators": [self.render(s) for s in self.h_generators],
            "reduction": self.reduction_note,
            "notes": self.notes,
        }

    def __repr__(self):
        return f"<HeckePair {self.label}>"


# ---------------------------------------------------------------------------
# SL2(Z[1/p]) / PSL2(Z[1/p]) over SL2(Z) / PSL2(Z)


class SL2ZpPair(HeckePair):
    """(SL2(Z[1/p]), SL2(Z)) and its reduction mod {+-I}.

    Generators: S = [[0,-1],[1,0]], T = [[1,1],[0,1]], g_p = diag(p, 1/p);
    H is generated by {S, T}.  Together with the elementary-matrix identity
    g_p^{-k} T g_p^k = E12(p^{2k}) these generate the full group; the choice
    is a convention of this catalog, not forced by the pair.
    """

    payload_type = Mat2

    def __init__(self, p: int, projective: bool):
        if not _is_prime(p):
            raise HeckeError(f"p must be prime, got {p}")
        self.p = p
        self.projective = projective
        self.kind = "psl2z1p" if projective else "sl2z1p"
        self.label = f"{self.kind}:{p}"
        s = Mat2((0, -1, 1, 0), 0, p)
        t = Mat2((1, 1, 0, 1), 0, p)
        gp = Mat2((p * p, 0, 0, 1), 1, p)
        self.g_generators = [self.canon(s), self.canon(t), gp]
        self.h_generators = [self.canon(s), self.canon(t)]
        self.notes = ("S, T generate the integral subgroup; diag(p,1/p) "
                      "moves along the tree")
        self.reduction_note = (
            "kernel {+-I}; representative has its first nonzero entry positive"
            if projective else "none (pair is not reduced; -I lies in H)")
        super().__init__()

    def mul(self, x, y):
        p = self.p
        try:
            if x.p != p or y.p != p:
                raise MixedKinds(
                    "matrix belongs to a different Z[1/p] instance")
            a1, b1, c1, d1 = x.num
            a2, b2, c2, d2 = y.num
            k = x.k + y.k
        except AttributeError:
            self._check_payload(x)
            self._check_payload(y)
            raise
        a = a1 * a2 + b1 * c2
        b = a1 * b2 + b1 * d2
        c = c1 * a2 + d1 * c2
        d = c1 * b2 + d1 * d2
        while k and not (a % p or b % p or c % p or d % p):
            a //= p
            b //= p
            c //= p
            d //= p
            k -= 1
        num = (a, b, c, d)
        return Mat2(_canon_sign(num) if self.projective else num, k, p)

    def inv(self, x):
        self._check_payload(x)
        a, b, c, d = x.num
        # num/p^k has inverse (d,-b,-c,a)/p^k since det(num) = p^{2k}; its
        # entries are num's up to sign and order, so it is already reduced
        num = (d, -b, -c, a)
        if self.projective:
            num = _canon_sign(num)
        return Mat2(num, x.k, self.p)

    def identity(self):
        return Mat2((1, 0, 0, 1), 0, self.p)

    def canon(self, x):
        self._check_payload(x)
        if self.projective:
            num = _canon_sign(x.num)
            if num != x.num:
                return Mat2(num, x.k, x.p)
        return x

    def in_h(self, x) -> bool:
        self._check_payload(x)
        return x.k == 0

    def validate(self, x) -> None:
        self._check_payload(x)
        if x.p != self.p:
            raise DomainError(f"entries must lie in Z[1/{self.p}]")
        det = x.num[0] * x.num[3] - x.num[1] * x.num[2]
        if det != self.p ** (2 * x.k):
            raise DomainError("matrix determinant is not 1")

    def coset_fingerprint(self, x):
        # Hx <-> the row lattice Z^2 * x; (exponent, HNF) pins it exactly.
        return (x.k, _hnf_2x2(x.num, self.p ** (2 * x.k)))

    def class_key(self, x):
        # Smith form over Z: num is primitive with det p^(2k), so
        # H num H = H diag(1, p^(2k)) H and the exponent pins the class
        return x.k

    def parse(self, text: str):
        toks = text.split()
        if len(toks) != 5 or toks[0] != "mat":
            raise ParseError("expected 'mat a b c d'", 0)
        fr = [_parse_rational(t, i + 1) for i, t in enumerate(toks[1:])]
        # over the lcm p^k of the denominators the entries are integers,
        # and one whose denominator is p^k keeps a numerator prime to p
        den = lcm(*(f.denominator for f in fr))
        k = _p_exponent(den, self.p)
        if k is None:
            raise DomainError(f"denominator {den} is not a power of {self.p}")
        m = Mat2(tuple(int(f * den) for f in fr), k, self.p)
        self.validate(m)
        return self.canon(m)

    def render(self, x) -> str:
        return "mat " + " ".join(str(f) for f in x.to_fractions())


def _canon_sign(num: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    """The PSL2 sign rule: of +-num, the one whose first nonzero entry is
    positive."""
    a, b, c, d = num
    return num if (a or b or c or d) > 0 else (-a, -b, -c, -d)


# Miller-Rabin with the first 13 primes as bases is exact below the least
# strong pseudoprime to all of them (Sorenson and Webster, 2015); the bases
# 2..37 alone are fooled by 318665857834031151167461.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; an n it cannot decide exactly is
    refused."""
    if n >= _MR_EXACT_BELOW:
        raise HeckeError(f"p must be below {_MR_EXACT_BELOW} to be tested "
                         f"for primality, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# the ax+b style pairs (Bost-Connes and its finitely generated p-version)


class AffinePair(HeckePair):
    """(G, Z) with G the [[1,b],[0,a]] matrices.

    With p = None this is the full pair: b ranges over Q, a over Q_{>0};
    G is not finitely generated, so ball enumeration is disabled and only
    pointwise queries (membership, L, R, modular values) are supported.
    With a prime p it is the finitely generated pair with b in Z[1/p] and
    a a power of p, generated by {(b=1,a=1), (b=0,a=p)}.  The group law,
    membership and both keys are integer arithmetic on :class:`Aff`'s
    (B, A, D).
    """

    payload_type = Aff

    def __init__(self, p: Optional[int]):
        self.p = p
        u = Aff(1, 1)
        if p is None:
            self.kind = "bc"
            self.label = "bc"
            self.g_generators = None
            self.notes = ("full pair: infinitely generated, pointwise "
                          "queries only; probe element (0,2)")
        else:
            if not _is_prime(p):
                raise HeckeError(f"p must be prime, got {p}")
            self.kind = "bcp"
            self.label = f"bcp:{p}"
            self.g_generators = [u, Aff(0, p)]
            self.notes = "generated by the unit translation and scaling by p"
        self.h_generators = [u]
        self.reduction_note = "none"
        super().__init__()

    def mul(self, x, y):
        try:
            b1, a1, d1 = x.B, x.A, x.D
            b2, a2, d2 = y.B, y.A, y.D
        except AttributeError:
            self._check_payload(x)
            self._check_payload(y)
            raise
        # [[1,b1],[0,a1]] * [[1,b2],[0,a2]] = [[1, b2 + b1*a2], [0, a1*a2]],
        # over the denominator d1*d2
        b = b2 * d1 + b1 * a2
        a = a1 * a2
        d = d1 * d2
        g = gcd(b, a, d)
        return _aff(b // g, a // g, d // g)

    def inv(self, x):
        self._check_payload(x)
        # (-b/a, 1/a) = (-B, D) / A, and gcd(B, D, A) = 1 already
        return _aff(-x.B, x.D, x.A)

    def identity(self):
        return _aff(0, 1, 1)

    def in_h(self, x) -> bool:
        self._check_payload(x)
        # a = 1 makes gcd(B, D) = 1, so b is an integer only when D = 1
        return x.A == 1 and x.D == 1

    def validate(self, x) -> None:
        self._check_payload(x)
        if x.a <= 0:
            raise DomainError("a must be positive")
        if self.p is not None:
            if _p_exponent(x.b.denominator, self.p) is None:
                raise DomainError(
                    f"denominator {x.b.denominator} is not a power of {self.p}")
            if (_p_exponent(x.a.numerator, self.p) is None
                    or _p_exponent(x.a.denominator, self.p) is None
                    or (x.a.numerator > 1 and x.a.denominator > 1)):
                raise DomainError(f"a must be a power of {self.p}")

    def unimod_probes(self) -> list:
        if self.p is not None:
            return list(self.g_generators)
        # a single witness disproves unimodularity for the full pair
        return [Aff(0, 2)]

    def coset_fingerprint(self, x):
        # H(b,a) = {(b + n*a, a)} <-> (a, b mod aZ), and b mod aZ is
        # (B mod A) / D; gcd(B mod A, A, D) = 1, so the triple is reduced
        return (x.A, x.D, x.B % x.A)

    def class_key(self, x):
        # H(b,a)H = {(b + n*a + m, a)} <-> (a, b mod (Z + aZ)), and
        # Z + aZ = (1/den a) Z with den a = D/g, g = gcd(A, D), so b mod it
        # is (B mod g) / D; gcd(B mod g, A, D) = 1 keeps the triple reduced
        a, d = x.A, x.D
        return (a, d, x.B % gcd(a, d))

    def parse(self, text: str):
        toks = text.split()
        if len(toks) != 3 or toks[0] != "aff":
            raise ParseError("expected 'aff b a'", 0)
        b = _parse_rational(toks[1], 1)
        a = _parse_rational(toks[2], 2)
        g = Aff(b, a)
        self.validate(g)
        return g

    def render(self, x) -> str:
        return f"aff {x.b} {x.a}"


# ---------------------------------------------------------------------------
# Z^d with the trivial subgroup

#: the largest d of z:d, the last whose coset stays near the 0.5-0.7 KB
#: the default max_cosets is sized by (0.7 KB at d = 32, 17 KB at 1024)
Z_MAX_DIMENSION = 32

class ZPair(HeckePair):
    """(Z^d, {0}) with the standard unit generators, d <= Z_MAX_DIMENSION."""

    payload_type = Vec

    def __init__(self, d: int):
        if d < 1:
            raise HeckeError("dimension must be >= 1")
        if d > Z_MAX_DIMENSION:
            raise HeckeError(f"dimension must be <= {Z_MAX_DIMENSION}, "
                             f"got {d}")
        self.d = d
        self.kind = "z"
        self.label = f"z:{d}"
        self.g_generators = [
            Vec(tuple(1 if j == i else 0 for j in range(d))) for i in range(d)
        ]
        self.h_generators = []
        self.notes = "free abelian pair; every coset is a single element"
        self.reduction_note = "none"
        super().__init__()

    def mul(self, x, y):
        if x.__class__ is not Vec or y.__class__ is not Vec:
            self._check_payload(x)
            self._check_payload(y)
        if len(x.coords) != self.d or len(y.coords) != self.d:
            raise MixedKinds(f"vector is not in Z^{self.d}")
        return Vec(tuple(map(add, x.coords, y.coords)))

    def inv(self, x):
        if x.__class__ is not Vec:
            self._check_payload(x)
        if len(x.coords) != self.d:
            raise MixedKinds(f"vector is not in Z^{self.d}")
        return Vec(tuple(map(neg, x.coords)))

    def identity(self):
        return Vec((0,) * self.d)

    def in_h(self, x) -> bool:
        self._check_payload(x)
        if len(x.coords) != self.d:
            raise MixedKinds(f"vector is not in Z^{self.d}")
        return all(a == 0 for a in x.coords)

    def validate(self, x) -> None:
        self._check_payload(x)
        if len(x.coords) != self.d:
            raise DomainError(f"expected {self.d} coordinates")

    def h_elements(self):
        return [self.identity()]

    def coset_fingerprint(self, x):
        return x.coords

    def class_key(self, x):
        return x.coords

    def word_length_on_g(self, x) -> int:
        return sum(abs(a) for a in x.coords)

    def parse(self, text: str):
        toks = text.split()
        if len(toks) < 2 or toks[0] != "zvec":
            raise ParseError("expected 'zvec n1 ... nd'", 0)
        v = Vec(tuple(_parse_int(t, i + 1) for i, t in enumerate(toks[1:])))
        self.validate(v)
        return v

    def render(self, x) -> str:
        return "zvec " + " ".join(str(a) for a in x.coords)


# ---------------------------------------------------------------------------
# finite permutation pairs


class PermPair(HeckePair):
    """A finite permutation group with a designated subgroup.

    Products compose left to right: (x*y)(i) = y(x(i)).
    """

    payload_type = Perm

    def __init__(self, label: str, n: int, g_gens: list[tuple[int, ...]],
                 h_gens: list[tuple[int, ...]]):
        self.n = n
        self.kind = "perm"
        self.label = label
        self.g_generators = [Perm(tuple(g)) for g in g_gens]
        self.h_generators = [Perm(tuple(h)) for h in h_gens]
        for g in self.g_generators + self.h_generators:
            self.validate(g)
        # no H generators is the trivial H, built once the others passed
        self.h_generators = self.h_generators or [self.identity()]
        self._h_set = frozenset(
            p.images for p in _perm_closure(self.h_generators, self))
        self.notes = "finite pair; exhaustive oracle available"
        self.reduction_note = "none"
        super().__init__()

    def mul(self, x, y):
        if x.__class__ is not Perm or y.__class__ is not Perm:
            self._check_payload(x)
            self._check_payload(y)
        return Perm(tuple(map(y.images.__getitem__, x.images)))

    def inv(self, x):
        if x.__class__ is not Perm:
            self._check_payload(x)
        out = [0] * len(x.images)
        for i, j in enumerate(x.images):
            out[j] = i
        return Perm(tuple(out))

    def identity(self):
        return Perm(tuple(range(self.n)))

    def in_h(self, x) -> bool:
        self._check_payload(x)
        return x.images in self._h_set

    def validate(self, x) -> None:
        self._check_payload(x)
        # the length first: a short x allocates nothing of size n
        if len(x.images) != self.n or sorted(x.images) != [*range(self.n)]:
            raise DomainError(f"not a permutation of 0..{self.n - 1}")

    def h_elements(self):
        return [Perm(t) for t in sorted(self._h_set)]

    def coset_fingerprint(self, x):
        # the least images of h x over h in H, composed on the tuples
        at = x.images.__getitem__
        return min(tuple(map(at, h)) for h in self._h_set)

    def class_key(self, x):
        # the least images of a x b over a, b in H
        at, hs = x.images.__getitem__, self._h_set
        return min(tuple(map(b.__getitem__, map(at, a)))
                   for a in hs for b in hs)

    def parse(self, text: str):
        v = Perm(_parse_perm(text))
        self.validate(v)
        return v

    def render(self, x) -> str:
        return "perm " + " ".join(str(a) for a in x.images)


def _parse_perm(text: str) -> tuple[int, ...]:
    """The images of ``perm i0 i1 ... ik``, not checked for a permutation."""
    toks = text.split()
    if len(toks) < 2 or toks[0] != "perm":
        raise ParseError("expected 'perm i0 i1 ... ik'", 0)
    return tuple(_parse_int(t, i + 1) for i, t in enumerate(toks[1:]))


def _perm_closure(gens: list, pair: PermPair, cap: int = 10 ** 4) -> list:
    seen = {pair.identity()}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = pair.mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    if len(seen) > cap:
                        raise HeckeError("subgroup closure exceeded cap")
        frontier = nxt
    return sorted(seen, key=lambda q: q.images)


# ---------------------------------------------------------------------------
# infinite dihedral over Z/2


class DihedralPair(HeckePair):
    """(D_inf, Z/2): isometries of Z over the reflection at the origin."""

    payload_type = Dih

    def __init__(self):
        self.kind = "dinf"
        self.label = "dinf"
        self.g_generators = [Dih(1, False), Dih(0, True)]
        self.h_generators = [Dih(0, True)]
        self.notes = "generated by the unit translation and the reflection"
        self.reduction_note = "none"
        super().__init__()

    def mul(self, x, y):
        if x.__class__ is not Dih or y.__class__ is not Dih:
            self._check_payload(x)
            self._check_payload(y)
        # apply y after x: (x*y)(t) = y(x(t))  -- composition left to right
        shift = y.shift + (-x.shift if y.flip else x.shift)
        return Dih(shift, x.flip ^ y.flip)

    def inv(self, x):
        if x.__class__ is not Dih:
            self._check_payload(x)
        return x if x.flip else Dih(-x.shift, False)

    def identity(self):
        return Dih(0, False)

    def in_h(self, x) -> bool:
        self._check_payload(x)
        return x.shift == 0

    def validate(self, x) -> None:
        self._check_payload(x)

    def h_elements(self):
        return [Dih(0, False), Dih(0, True)]

    def coset_fingerprint(self, x):
        # H(n,f) = {(n,f), (n, not f)}: the shift is a perfect invariant
        return (x.shift,)

    def class_key(self, x):
        # H(n,f)H = {(+-n, f), (+-n, not f)}
        return abs(x.shift)

    def word_length_on_g(self, x) -> int:
        return abs(x.shift) + (1 if x.flip else 0)

    def parse(self, text: str):
        toks = text.split()
        if len(toks) != 3 or toks[0] != "dih":
            raise ParseError("expected 'dih n f' with f in {1,-1}", 0)
        n = _parse_int(toks[1], 1)
        f = _parse_int(toks[2], 2)
        if f not in (1, -1):
            raise ParseError("flip must be 1 or -1", 2)
        return Dih(n, f == -1)

    def render(self, x) -> str:
        return f"dih {x.shift} {-1 if x.flip else 1}"


# ---------------------------------------------------------------------------
# catalog


#: the catalog labels that take no parameter
_PRESETS: dict[str, Callable[[], HeckePair]] = {
    "s3-h12": lambda: PermPair(
        "s3-h12", 3, [(1, 0, 2), (1, 2, 0)], [(1, 0, 2)]),
    "s4-h12": lambda: PermPair(
        "s4-h12", 4, [(1, 0, 2, 3), (1, 2, 3, 0)], [(1, 0, 2, 3)]),
    "s4-h12-34": lambda: PermPair(
        "s4-h12-34", 4,
        [(1, 0, 2, 3), (0, 1, 3, 2), (1, 2, 3, 0)],
        [(1, 0, 2, 3), (0, 1, 3, 2)]),
    "bc": lambda: AffinePair(None),
    "dinf": DihedralPair,
}

#: the family heads of labels ``head:n``, each taking the integer n
_FAMILIES: dict[str, Callable[[int], HeckePair]] = {
    "z": ZPair,
    "bcp": AffinePair,
    "sl2z1p": lambda p: SL2ZpPair(p, projective=False),
    "psl2z1p": lambda p: SL2ZpPair(p, projective=True),
}


def catalog_labels() -> list[str]:
    return ["z:1", "z:2", "dinf", "s3-h12", "s4-h12", "s4-h12-34",
            "bc", "bcp:2", "bcp:3", "bcp:5", "sl2z1p:2", "psl2z1p:2"]


def get_pair(label: str) -> HeckePair:
    """Resolve a catalog label such as 'psl2z1p:2', 'bcp:3', 'z:2'."""
    if label in _PRESETS:
        return _PRESETS[label]()
    head, colon, arg = label.partition(":")
    if colon:
        try:
            n = int(arg)
        except ValueError:
            raise HeckeError(f"bad pair label {label!r}") from None
        if head in _FAMILIES:
            return _FAMILIES[head](n)
    raise HeckeError(
        f"unknown pair label {label!r}; known: {', '.join(catalog_labels())} "
        "or a custom spec file")


def read_key_values(path: str, what: str):
    """The stripped (key, value) pairs of a key=value file, skipping blank
    and ``#`` lines; a line without ``=`` is a bad ``what`` line, and a
    file that cannot be opened or is not UTF-8 is a HeckeError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise HeckeError(f"cannot read {what} file {path!r}: "
                         f"{exc.strerror}") from None
    except UnicodeDecodeError:
        raise HeckeError(f"cannot read {what} file {path!r}: "
                         "not UTF-8 text") from None
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise HeckeError(f"bad {what} line {line!r}")
        key, _, value = line.partition("=")
        yield key.strip(), value.strip()


def load_pair_spec(path: str) -> HeckePair:
    """Build a custom finite-H pair from a line-oriented key=value file.

    Supported keys: kind (perm), label, n (degree), g_gen (repeatable,
    element text), h_gen (repeatable).  Z^d is ``--pair z:d``, not a spec.
    A label names the artifacts, so it may hold no path separator and no
    NUL.
    """
    kind = None
    label = None
    n = None
    g_texts: list[str] = []
    h_texts: list[str] = []
    for key, val in read_key_values(path, "pair-spec"):
        if key == "kind":
            kind = val
        elif key == "label":
            if any(c in val for c in "/\\\0"):
                raise HeckeError(f"pair-spec label {val!r} holds a path "
                                 "separator or NUL")
            label = val
        elif key == "n":
            try:
                n = int(val)
            except ValueError:
                raise HeckeError(f"pair-spec key 'n' needs an integer, "
                                 f"got {val!r}") from None
        elif key == "g_gen":
            g_texts.append(val)
        elif key == "h_gen":
            h_texts.append(val)
        else:
            raise HeckeError(f"unknown pair-spec key {key!r}")
    if kind == "perm":
        if n is None or not g_texts:
            raise HeckeError("perm spec needs n and at least one g_gen")
        g = [_parse_perm(t) for t in g_texts]
        h = [_parse_perm(t) for t in h_texts]
        return PermPair(label or "custom-perm", n, g, h)
    raise HeckeError(f"unsupported custom pair kind {kind!r}")

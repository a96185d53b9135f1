"""Ball/shell counting and exact growth types.

G(r) counts the right cosets Hx of word length <= r.  The word length is
bi-H-invariant, so the ball of radius r is a union of double cosets and
the count is a sum of class sizes R(d) over the classes of word length
<= r.  Those classes and their sizes are what the store's class-level
search (``CosetStore.word_lengths``) yields by depth r_max, whether or
not they meet a Schreier ball (on bcp:2 some do not), so the series needs
no enumerated ball.

The growth type is read from the shortest recurrence of the ball series
(Berlekamp-Massey), found on a prefix and checked in ints on every later
term (an integer sequence's recurrence has integer coefficients, by
Fatou's lemma).  In its characteristic polynomial chi, roots 0 are a
finite transient, chi = x^k (x - 1)^m is growth of degree m - 1, and a
real root above 1 is exponential growth.  A check on finitely many terms
is not a proof, so verdicts are empirical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate
from typing import Optional, Union

from .cosets import CapExceeded, CosetStore
from .errors import HeckeError

__all__ = ["GrowthSeries", "GrowthVerdict", "growth_series",
           "classify_growth"]


@dataclass
class GrowthSeries:
    radii: list[int]
    ball: list[int]
    shell: list[int]
    kind: str


def growth_series(store: CosetStore, r_max: int) -> GrowthSeries:
    """G(r) = number of right cosets of word length <= r, for r = 0..r_max,
    read from the store's class search, resumed to depth r_max."""
    if r_max < 0:
        raise HeckeError(f"growth needs r_max >= 0, got {r_max}")
    shell = [0] * (r_max + 1)
    for d, n in store.word_lengths(r_max).items():
        shell[n] += store.class_R(d)
    return GrowthSeries(list(range(r_max + 1)), list(accumulate(shell)),
                        shell, "word-schreier")


@dataclass
class GrowthVerdict:
    kind: str               # polynomial | exponential | finite | inconclusive
    details: str
    alpha: Optional[int] = None         # degree (polynomial)
    beta: Union[int, tuple, None] = None    # base, or a bracket (lo, hi]
    index: Optional[int] = None         # right cosets (finite)
    chi: Optional[list[int]] = None     # highest degree first


def classify_growth(series: GrowthSeries,
                    store: Optional[CosetStore] = None) -> GrowthVerdict:
    """The growth type from the shortest recurrence of G(r), r <= D // 2,
    checked through r = D, for D = r_max.  Given the store a word-length
    series was read from, an ended class search reads "finite", and while
    no recurrence passes the search resumes with D doubled, to at least 8
    and at most max(r_max, 32).  It resumes one depth at a time and reads
    inconclusive once it has named more than the class budget,
    max(64 N, 10,000) for the N classes of word length <= r_max, or on a
    cap hit."""
    if not series.radii:
        raise HeckeError("growth series has no radii")
    r_max = depth = series.radii[-1]
    ball = series.ball
    if store is not None:
        budget = max(64 * len(store.word_lengths(r_max)), 10_000)
    while True:
        if store is not None and store.class_search_depth < depth:
            return GrowthVerdict(                   # the search has ended
                "finite", f"index {ball[-1]}, the class search ended at "
                f"depth {store.class_search_depth}", index=ball[-1])
        a = depth // 2
        chi = _shortest_recurrence(ball[:a + 1])
        where = f"found on r <= {a}, checked through r <= {depth}"
        if chi is not None and not any(
                sum(c * g for c, g in zip(chi, ball[r::-1]))
                for r in range(a + 1, depth + 1)):
            return _read_chi(chi, f"recurrence of order {len(chi) - 1} "
                                  f"{where}")
        deeper = min(max(2 * depth, 8), max(r_max, 32))
        if store is None or deeper <= depth:
            return GrowthVerdict("inconclusive", f"no recurrence {where}")
        depth = deeper
        try:
            for k in range(store.class_search_depth + 1, depth + 1):
                named = len(store.word_lengths(k))
                # a search that ended short of k reads finite, not budget
                if named > budget and store.class_search_depth == k:
                    return GrowthVerdict("inconclusive", (
                        f"class budget {budget} exceeded: {named} classes "
                        f"named by depth {k}, no recurrence {where}"))
            ball = growth_series(store, depth).ball
        except CapExceeded as exc:
            return GrowthVerdict("inconclusive",
                                 f"cap hit at depth {depth}: {exc}")


def _read_chi(chi: list[int], where: str) -> GrowthVerdict:
    """The type chi gives; ``where`` says how its recurrence was found."""
    q, m = chi, 0
    while q[-1] == 0:                   # roots at 0: a finite transient
        q = q[:-1]
    while len(q) > 1 and sum(q) == 0:   # divide out x - 1
        q, m = list(accumulate(q[:-1])), m + 1
    beta = _largest_root_above_one(q)
    if beta is not None:
        base = beta if isinstance(beta, int) else "in (%s, %s]" % beta
        return GrowthVerdict("exponential", f"base {base}, {where}",
                             beta=beta, chi=chi)
    if len(q) == 1 and m:
        return GrowthVerdict("polynomial", f"degree {m - 1}, {where}",
                             alpha=m - 1, chi=chi)
    return GrowthVerdict("inconclusive", "chi has roots other than 0 and 1 "
                         f"and none above 1, {where}", chi=chi)


def _shortest_recurrence(seq: list[int]) -> Optional[list[int]]:
    """[1, c_1, ..., c_L] with sum_i c_i s(n - i) = 0 for n >= L: the
    shortest recurrence of ``seq`` (Berlekamp-Massey, fraction-free) and
    its chi.  None unless the 2L terms that fix it are there and its
    coefficients are integers."""
    c, b, size, gap, bd = [1], [1], 0, 1, 1
    for n in range(len(seq)):
        d = sum(ci * s for ci, s in zip(c, seq[n::-1]))
        if d:
            c, old = [bd * ci for ci in c] + [0] * (len(b) + gap - len(c)), c
            for i, bi in enumerate(b):
                c[i + gap] -= d * bi
            if 2 * size <= n:
                size, b, bd, gap = n + 1 - size, old, d, 0
        gap += 1
    c = (c + [0] * size)[:size + 1]
    if 2 * size > len(seq) or any(ci % c[0] for ci in c):
        return None
    return [ci // c[0] for ci in c]


def _largest_root_above_one(q: list[int]):
    """The largest real root of the monic integer q (q(1) != 0) if it
    exceeds 1: an int when it is one, else a bracket (lo, hi] of width
    2^-32.  The Sturm sequence of q's square-free part counts the roots
    above a point; signs of q alone miss pairs: (x - 2)(x - 4) > 0 at 1, 9."""
    if len(q) == 1:
        return None
    chain = [q, [c * (len(q) - 1 - i) for i, c in enumerate(q[:-1])]]
    while rem := _divmod(chain[-2], chain[-1])[1]:
        chain.append([-c for c in rem])
    chain = [_divmod(p, chain[-1])[0] for p in chain]

    def above(x) -> bool:
        return _changes(_value(p, x) for p in chain) > _changes(
            p[0] for p in chain)

    if not above(1):
        return None
    lo, hi = 1, 1 + max(map(abs, q))    # above(lo), not above(hi)
    while hi - lo > 2 ** -32:
        # integer midpoints first, so that an integer root is met as hi
        if hi - lo == 1 and _value(q, hi) == 0:
            return hi
        mid = (lo + hi) // 2 if hi - lo > 1 else Fraction(lo + hi, 2)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return lo, hi


def _divmod(a: list, b: list) -> tuple[list, list]:
    """Quotient and remainder over Q, highest degree first."""
    a, quotient = list(a), []
    while len(a) >= len(b):
        quotient.append(Fraction(a[0]) / b[0])
        a = [x - quotient[-1] * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    return quotient, a[next((i for i, x in enumerate(a) if x), len(a)):]


def _value(p: list, x):
    return reduce(lambda v, c: v * x + c, p, 0)


def _changes(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(s != t for s, t in zip(signs, signs[1:]))

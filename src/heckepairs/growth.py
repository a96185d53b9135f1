"""Ball/shell counting and empirical growth classification.

G_l(r) counts the right cosets Hx with l(x) <= r.  Length functions on a
pair are bi-H-invariant, so the ball B_{r,l} is a union of double cosets
and the count is a sum of class sizes R(d) over the classes with
l(d) <= r.  For the word length those classes and their sizes are what
the store's class-level search (``CosetStore.word_lengths``) yields by
depth r_max, whether or not they meet a Schreier ball (on bcp:2 some do
not), so the series needs no enumerated ball; for other lengths small
values could hide outside any finite ball, so the class route requires an
exhausted coset space.

Verdicts are empirical: asymptotic growth classes are not decidable from
finite data, and intermediate growth is only ever reported as
inconclusive at this scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .cosets import CosetStore
from .errors import BallIncomplete
from .lengths import LengthFunction, linfit

__all__ = ["GrowthSeries", "GrowthVerdict", "growth_series",
           "classify_growth", "GROWTH_DEFAULTS"]

GROWTH_DEFAULTS = {
    "growth.delta": 0.2,           # tail ball ratios must exceed 1+delta for "exponential"
    "growth.tail_fraction": 0.5,   # fraction of radii used for the fits
    "growth.min_r2": 0.98,         # fit quality gate for "polynomial"
}


@dataclass
class GrowthSeries:
    radii: list[int]
    ball: list[int]
    shell: list[int]
    kind: str

    def as_rows(self) -> list[tuple[int, int, int]]:
        return list(zip(self.radii, self.ball, self.shell))


def growth_series(store: CosetStore, r_max: int,
                  l: Optional[LengthFunction] = None) -> GrowthSeries:
    """G(r) = number of right cosets with length <= r, for r = 0..r_max.
    The word length (``l`` None or of kind word-schreier) is read from the
    store's class search, resumed to depth r_max."""
    if l is None or l.kind == "word-schreier":
        kind, values = "word-schreier", store.word_lengths(r_max)
    elif not store.saturated:
        raise BallIncomplete(
            f"growth for a {l.kind} length needs an exhausted coset "
            "space (infinite pairs can hide small values outside any "
            "finite ball)")
    else:
        kind, values = l.kind, l.values
    shell = [0] * (r_max + 1)
    for d, v in values.items():
        v = float(v)
        if v <= r_max:
            shell[int(math.floor(v))] += store.class_R(d)
    ball = []
    total = 0
    for s in shell:
        total += s
        ball.append(total)
    return GrowthSeries(list(range(r_max + 1)), ball, shell, kind)


@dataclass
class GrowthVerdict:
    kind: str                 # polynomial | exponential | inconclusive
    alpha: Optional[float]    # fitted degree (polynomial)
    beta: Optional[float]     # fitted base (exponential)
    r2: float
    tail_ratios: list[float]
    details: str


def classify_growth(series: GrowthSeries,
                    delta: float = GROWTH_DEFAULTS["growth.delta"],
                    tail_fraction: float = GROWTH_DEFAULTS["growth.tail_fraction"],
                    min_r2: float = GROWTH_DEFAULTS["growth.min_r2"]) -> GrowthVerdict:
    """Empirical classification: exponential when the tail ball ratios
    stay above 1 + delta and ln G fits r at least as well (r2) as ln r,
    base fitted from ln G vs r; polynomial when the log-log fit of the
    tail is good; otherwise inconclusive."""
    rs = [r for r, g in zip(series.radii, series.ball) if g > 0 and r >= 1]
    if len(rs) < 4:
        return GrowthVerdict("inconclusive", None, None, 0.0, [],
                             "too few radii")
    tail_start = rs[0] + int((rs[-1] - rs[0]) * (1.0 - tail_fraction))
    tail = [r for r in rs if r >= tail_start]
    if len(tail) < 3:
        tail = rs[-3:]
    g = {r: series.ball[series.radii.index(r)] for r in rs}
    ratios = [g[b] / g[a] for a, b in zip(tail, tail[1:])]

    logs = [math.log(g[r]) for r in tail]
    exp_slope, _, exp_r2 = linfit([float(r) for r in tail], logs)
    slope, _, r2 = linfit([math.log(r) for r in tail], logs)
    if ratios and min(ratios) > 1.0 + delta and exp_r2 >= r2:
        return GrowthVerdict("exponential", None, math.exp(exp_slope), exp_r2,
                             ratios, f"tail ratios all > {1 + delta}")
    if r2 >= min_r2:
        return GrowthVerdict("polynomial", slope, None, r2, ratios,
                             f"log-log tail fit r2={r2:.4f}")
    return GrowthVerdict("inconclusive", slope, None, r2, ratios,
                         "no stable fit")

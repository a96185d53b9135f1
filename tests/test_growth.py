from fractions import Fraction
from math import comb

import pytest

import heckepairs as hp
from heckepairs.errors import BallIncomplete, HeckeError
from heckepairs.growth import GrowthSeries, classify_growth, growth_series
from heckepairs.groups import get_pair
from heckepairs.lengths import LengthFunction, characteristic_length


def test_z_ball_formula_r40():
    store = hp.enumerate_ball(get_pair("z:1"), 40)
    series = growth_series(store, 40)
    assert series.ball == [2 * r + 1 for r in range(41)]
    verdict = classify_growth(series)
    assert (verdict.kind, verdict.alpha) == ("polynomial", 1)
    assert verdict.chi == [1, -2, 1]


@pytest.mark.parametrize("d,r_max", [(1, 12), (2, 12), (3, 12), (4, 8)])
def test_zd_ball_series_is_its_closed_form(d, r_max):
    # the ball of Z^d under unit generators holds
    # sum_k 2^k C(d, k) C(r, k) points
    series = growth_series(hp.CosetStore(get_pair(f"z:{d}")), r_max)
    assert series.ball == [sum(2 ** k * comb(d, k) * comb(r, k)
                               for k in range(d + 1))
                           for r in range(r_max + 1)]
    if d == 3:
        assert series.ball[:5] == [1, 7, 25, 63, 129]


def test_z2_diamond_formula_r25():
    # independent cross-check: count lattice points with |x|+|y| <= r
    def diamond(r):
        return sum(1 for x in range(-r, r + 1)
                   for y in range(-r, r + 1) if abs(x) + abs(y) <= r)
    store = hp.enumerate_ball(get_pair("z:2"), 25)
    series = growth_series(store, 25)
    for r in range(26):
        assert series.ball[r] == diamond(r) == 2 * r * r + 2 * r + 1
    # the order-3 recurrence needs 6 terms to be found: at r_max 8 the
    # class search resumes to depth 16 and is checked there
    for r_max, found, checked in ((25, 12, 25), (8, 8, 16), (4, 8, 16)):
        verdict = classify_growth(growth_series(store, r_max), store)
        assert (verdict.kind, verdict.alpha) == ("polynomial", 2)
        assert verdict.details == (
            f"degree 2, recurrence of order 3 found on r <= {found}, "
            f"checked through r <= {checked}")
    # the series alone cannot go deeper
    assert classify_growth(growth_series(store, 8)).kind == "inconclusive"


def test_shell_consistency_and_monotonicity():
    for label in ("z:2", "dinf", "bcp:2"):
        store = hp.enumerate_ball(get_pair(label), 6)
        series = growth_series(store, 6)
        for r in range(1, 7):
            assert series.ball[r] == series.ball[r - 1] + series.shell[r]
            assert series.ball[r] >= series.ball[r - 1]


def test_depth_histogram_agreement_when_classes_are_depth_homogeneous():
    # for (Z^d, {0}) and the dihedral pair every class sits at one BFS
    # depth, so the class-level series coincides with the depth histogram
    for label in ("z:1", "z:2", "dinf"):
        store = hp.enumerate_ball(get_pair(label), 8)
        series = growth_series(store, 8)
        ends = store.ball_ends
        hist = [ends[0]] + [b - a for a, b in zip(ends, ends[1:])]
        assert series.shell == hist[:9]


def test_psl2_exponential(psl2_store_r8):
    series = growth_series(psl2_store_r8, 8)
    assert series.shell == [1, 6, 24, 96, 384, 1536, 6144, 24576, 98304]
    verdict = classify_growth(series)
    assert verdict.kind == "exponential"
    shell_ratios = [series.shell[i + 1] / series.shell[i] for i in range(1, 8)]
    assert min(shell_ratios) >= 3
    assert (verdict.beta, verdict.chi) == (4, [1, -5, 4])


def test_dinf_linear_growth():
    store = hp.enumerate_ball(get_pair("dinf"), 20)
    series = growth_series(store, 20)
    assert series.ball == [1 + 2 * r for r in range(21)]
    verdict = classify_growth(series)
    assert (verdict.kind, verdict.alpha) == ("polynomial", 1)


def test_finite_pair_growth_stabilizes():
    store = hp.enumerate_ball(get_pair("s3-h12"), 8)
    series = growth_series(store, 8)
    assert series.ball[-1] == 3
    verdict = classify_growth(series, store)
    assert (verdict.kind, verdict.index) == ("finite", 3)
    # the series alone reads a recurrence G(r) = G(r - 1) from r = 2 on:
    # chi = x (x - 1), a root at 0 for the transient
    verdict = classify_growth(series)
    assert (verdict.kind, verdict.alpha, verdict.chi) == (
        "polynomial", 0, [1, -1, 0])


def test_growth_requires_complete_ball():
    # the word-length series needs no Schreier ball: the class search alone
    # completes to r_max (or exhausts a finite pair), so a store that was
    # never enumerated gives the series of one enumerated to r_max
    for label, r_max in (("z:1", 12), ("z:2", 8), ("dinf", 10),
                         ("s3-h12", 6), ("bcp:2", 8), ("bcp:3", 5),
                         ("psl2z1p:2", 6)):
        bare = hp.CosetStore(get_pair(label))
        series = growth_series(bare, r_max)
        assert bare.radius_complete == -1
        ball = hp.enumerate_ball(get_pair(label), r_max)
        assert series == growth_series(ball, r_max), label


def test_growth_with_characteristic_length_needs_saturation():
    pair = get_pair("psl2z1p:2")
    store = hp.enumerate_ball(pair, 3)
    lc = characteristic_length(store, 3)
    with pytest.raises(BallIncomplete):
        growth_series(store, 3, lc)
    # on a finite pair the class route works
    s3 = hp.enumerate_ball(get_pair("s3-h12"), 6)
    lc3 = characteristic_length(s3, 6)
    series = growth_series(s3, 2, lc3)
    assert series.ball[-1] == 3
    # the series evaluates the length on every class of the exhausted
    # space, so it does not read the radius the length was tabulated to
    s4 = hp.enumerate_ball(get_pair("s4-h12"), 6)
    assert s4.saturated
    series = [growth_series(s4, 3, characteristic_length(s4, r))
              for r in (0, 6)]
    assert series[0] == series[1] and series[0].ball[-1] == 12


@pytest.mark.parametrize("label,rmax,kind", [
    ("s3-h12", 0, "inconclusive"), ("s3-h12", 2, "polynomial"),
    ("s4-h12", 1, "inconclusive"), ("s4-h12", 3, "polynomial")])
def test_classify_reads_the_series_it_is_given(label, rmax, kind):
    # with its store, a characteristic-length series was read through the
    # store's word-length search: "finite" at the smaller rmax, a degree-0
    # recurrence at the larger.  That is refused; alone, the series reads
    # as given
    store = hp.enumerate_ball(get_pair(label), 6)
    series = growth_series(store, rmax, characteristic_length(store, 6))
    with pytest.raises(HeckeError, match="word length, not characteristic"):
        classify_growth(series, store)
    assert classify_growth(series).kind == kind


def test_negative_radius_is_refused():
    store = hp.CosetStore(get_pair("z:1"))
    with pytest.raises(HeckeError, match="r_max >= 0, got -1"):
        growth_series(store, -1)
    with pytest.raises(HeckeError, match="no radii"):
        classify_growth(GrowthSeries([], [], [], "word-schreier"), store)
    assert store.class_search_depth == -1


def test_classify_inconclusive_on_thin_data():
    series = GrowthSeries([0, 1], [1, 3], [1, 2], "word-schreier")
    assert classify_growth(series).kind == "inconclusive"


@pytest.mark.parametrize("label,rmax,kind,value", [
    ("z:1", 4, "polynomial", 1), ("dinf", 4, "polynomial", 1),
    ("z:2", 4, "polynomial", 2), ("z:3", 4, "polynomial", 3),
    ("z:3", 14, "polynomial", 3), ("bcp:2", 4, "exponential", 2),
    ("bcp:3", 4, "exponential", 3), ("bcp:5", 4, "exponential", 5),
    ("psl2z1p:2", 4, "exponential", 4), ("sl2z1p:2", 4, "exponential", 4),
    ("psl2z1p:3", 4, "exponential", 9), ("s3-h12", 4, "finite", 3),
    ("s4-h12", 4, "finite", 12), ("s4-h12-34", 4, "finite", 6)])
def test_catalog_growth_types_are_exact(label, rmax, kind, value):
    store = hp.CosetStore(get_pair(label))
    verdict = classify_growth(growth_series(store, rmax), store)
    field = {"polynomial": "alpha", "exponential": "beta", "finite": "index"}
    assert (verdict.kind, getattr(verdict, field[kind])) == (kind, value)


@pytest.mark.parametrize("rmax,budget,named,depth", [
    (0, 10_000, 11_969, 11), (4, 64 * 321, 22_569, 13)])
def test_resumed_search_stops_at_the_class_budget(rmax, budget, named, depth):
    # z:4's order-5 recurrence needs 10 terms, so D = 32 and about 10^6
    # cosets; the budget is 64 classes per class of word length <= rmax
    # (321 at rmax 4), at least 10,000, and the search stops at the first
    # depth past it, the ball of Z^4 of that radius
    store = hp.CosetStore(get_pair("z:4"))
    verdict = classify_growth(growth_series(store, rmax), store)
    assert verdict.kind == "inconclusive"
    assert verdict.details.startswith(
        f"class budget {budget} exceeded: {named} classes named by depth "
        f"{depth}, no recurrence found on r <= 4, checked through r <= 8")
    assert store.class_search_depth == depth


def _series(ball):
    shell = [ball[0]] + [b - a for a, b in zip(ball, ball[1:])]
    return GrowthSeries(list(range(len(ball))), ball, shell, "word-schreier")


def test_one_changed_term_past_the_prefix_is_inconclusive():
    ball = [2 * r * r + 2 * r + 1 for r in range(26)]
    assert classify_growth(_series(ball)).alpha == 2
    for r in (13, 20, 25):
        changed = ball[:r] + [ball[r] + 1] + ball[r + 1:]
        verdict = classify_growth(_series(changed))
        assert verdict.kind == "inconclusive"
        assert verdict.details == ("no recurrence found on r <= 12, "
                                   "checked through r <= 25")


def test_characteristic_roots_read_exactly():
    # two roots above 1, where q > 0 at 1 and at its root bound 9: the
    # largest is 4, found only by counting roots
    two = [1 + 2 ** r + 4 ** r for r in range(12)]
    verdict = classify_growth(_series(two))
    assert (verdict.kind, verdict.beta) == ("exponential", 4)
    assert verdict.chi == [1, -7, 14, -8]
    # the golden ratio is bracketed, not rounded
    fib = [1, 2]
    while len(fib) < 12:
        fib.append(fib[-1] + fib[-2])
    lo, hi = classify_growth(_series(fib)).beta
    assert hi - lo <= Fraction(1, 2 ** 32)
    assert lo < (1 + 5 ** 0.5) / 2 < hi
    assert lo * lo - lo - 1 < 0 <= hi * hi - hi - 1
    # a root -1 beside (x - 1)^2 is neither polynomial of one degree nor
    # exponential
    wobble = [r + (r % 2) for r in range(12)]
    verdict = classify_growth(_series(wobble))
    assert verdict.kind == "inconclusive"
    assert verdict.chi == [1, -1, -1, 1]
    # a double root: every Sturm polynomial of chi vanishes at 3, so roots
    # are counted on its square-free part, and 5 is found above 3
    double = [(r + 1) * 3 ** r + 5 ** r for r in range(14)]
    verdict = classify_growth(_series(double))
    assert (verdict.beta, verdict.chi) == (5, [1, -11, 39, -45])


@pytest.mark.parametrize("value", [Fraction(-1), float("nan")])
def test_growth_refuses_a_value_that_is_no_length(value):
    # neither a negative value nor NaN is a length: each is refused,
    # naming its class
    store = hp.enumerate_ball(get_pair("s3-h12"), 12)
    e = store.identity_class()
    (d,) = [c for c in store.classes_in_ball(12) if c != e]
    l = LengthFunction("custom", {e: Fraction(0), d: value})
    with pytest.raises(HeckeError, match=f"custom length of class {d} is"):
        growth_series(store, 2, l)

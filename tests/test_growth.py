import pytest

import heckepairs as hp
from heckepairs.errors import BallIncomplete
from heckepairs.growth import GrowthSeries, classify_growth, growth_series
from heckepairs.groups import get_pair
from heckepairs.lengths import characteristic_length


def test_z_ball_formula_r40():
    store = hp.enumerate_ball(get_pair("z:1"), 40)
    series = growth_series(store, 40)
    assert series.ball == [2 * r + 1 for r in range(41)]
    verdict = classify_growth(series)
    assert verdict.kind == "polynomial"
    assert abs(verdict.alpha - 1) <= 0.3


def test_z2_diamond_formula_r25():
    # independent cross-check: count lattice points with |x|+|y| <= r
    def diamond(r):
        return sum(1 for x in range(-r, r + 1)
                   for y in range(-r, r + 1) if abs(x) + abs(y) <= r)
    store = hp.enumerate_ball(get_pair("z:2"), 25)
    series = growth_series(store, 25)
    for r in range(26):
        assert series.ball[r] == diamond(r) == 2 * r * r + 2 * r + 1
    # at r_max = 8 the tail ratios (145/113 = 1.28) still exceed 1 + delta
    for r_max in (25, 8):
        verdict = classify_growth(growth_series(store, r_max))
        assert verdict.kind == "polynomial"
        assert abs(verdict.alpha - 2) <= 0.3


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
        hist = store.depth_histogram()
        assert series.shell == hist[:9]


def test_psl2_exponential(psl2_store_r8):
    series = growth_series(psl2_store_r8, 8)
    assert series.shell == [1, 6, 24, 96, 384, 1536, 6144, 24576, 98304]
    verdict = classify_growth(series)
    assert verdict.kind == "exponential"
    shell_ratios = [series.shell[i + 1] / series.shell[i] for i in range(1, 8)]
    assert min(shell_ratios) >= 3
    assert verdict.beta == pytest.approx(4.0, abs=0.1)


def test_dinf_linear_growth():
    store = hp.enumerate_ball(get_pair("dinf"), 20)
    series = growth_series(store, 20)
    assert series.ball == [1 + 2 * r for r in range(21)]
    verdict = classify_growth(series)
    assert verdict.kind == "polynomial"
    assert abs(verdict.alpha - 1) <= 0.3


def test_finite_pair_growth_stabilizes():
    store = hp.enumerate_ball(get_pair("s3-h12"), 8)
    series = growth_series(store, 8)
    assert series.ball[-1] == 3
    verdict = classify_growth(series)
    assert verdict.kind == "polynomial"
    assert abs(verdict.alpha) <= 0.1


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
    lc = characteristic_length(store)
    with pytest.raises(BallIncomplete):
        growth_series(store, 3, lc)
    # on a finite pair the class route works
    s3 = hp.enumerate_ball(get_pair("s3-h12"), 6)
    lc3 = characteristic_length(s3)
    series = growth_series(s3, 2, lc3)
    assert series.ball[-1] == 3


def test_classify_inconclusive_on_thin_data():
    series = GrowthSeries([0, 1], [1, 3], [1, 2], "word-schreier")
    assert classify_growth(series).kind == "inconclusive"

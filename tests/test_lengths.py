import math
from fractions import Fraction as Q

import pytest

import heckepairs as hp
from heckepairs.cosets import Caps
from heckepairs.errors import (CapExceeded, InfiniteH,
                               LengthUndefinedOnSupport,
                               NotRelativelyUnimodular)
from heckepairs.groups import get_pair
from heckepairs.lengths import (LengthFunction, averaged_length,
                                characteristic_length, check_length_axioms,
                                dominance_fit, indicator_length,
                                length_of_element, pseudometric_checks,
                                word_length)

def test_word_length_examples():
    z = hp.enumerate_ball(get_pair("z:1"), 6)
    lw = word_length(z)
    assert lw(z.identity_class()) == 0
    for n in range(-6, 7):
        d = z.dc(z.lookup(z.pair.parse(f"zvec {n}")))
        assert lw(d) == abs(n)

    psl = hp.enumerate_ball(get_pair("psl2z1p:2"), 3)
    lwp = word_length(psl)
    g2 = psl.pair.parse("mat 2 0 0 1/2")
    assert lwp(psl.dc(psl.lookup(g2))) == 1
    assert lwp(psl.identity_class()) == 0


def test_capped_word_length_leaves_completed_depths_exact():
    # the 63-coset ball fits in 64 cosets; the class reps the search
    # interns pass the cap at depth 4, after depths 0-3 are recorded
    pair = get_pair("bcp:3")
    full = word_length(hp.enumerate_ball(pair, 5))
    store = hp.enumerate_ball(pair, 5, Caps(max_cosets=64))
    with pytest.raises(CapExceeded):
        word_length(store)
    assert store.class_search_depth == 3
    assert store.word_lengths(3) == {d: n for d, n in full.values.items()
                                     if n <= 3}


# word-length axioms must hold exactly: (enumeration radius, half radius)
AXIOM_RADII = {"z:1": (8, 4), "z:2": (6, 3), "dinf": (8, 4), "s3-h12": (6, 3),
               "s4-h12": (6, 3), "s4-h12-34": (6, 3), "bcp:2": (6, 3),
               "sl2z1p:2": (4, 2), "psl2z1p:2": (4, 2)}


@pytest.mark.parametrize("label", sorted(AXIOM_RADII))
def test_word_length_axioms(label):
    r, half = AXIOM_RADII[label]
    store = hp.enumerate_ball(get_pair(label), r)
    assert check_length_axioms(store, word_length(store), half) == []


@pytest.mark.parametrize("label", sorted(AXIOM_RADII))
def test_indicator_length_axioms(label):
    r, half = AXIOM_RADII[label]
    store = hp.enumerate_ball(get_pair(label), r)
    ind = indicator_length(store)
    e = store.identity_class()
    assert ind(e) == 0
    assert all(ind(d) == 1 for d in ind.values if d != e)
    assert check_length_axioms(store, ind, half) == []


def test_characteristic_length_values():
    s3 = hp.enumerate_ball(get_pair("s3-h12"), 4)
    lc = characteristic_length(s3)
    e = s3.identity_class()
    d = next(x for x in s3.classes_in_ball(4) if x != e)
    assert lc(e) == 0.0
    assert lc(d) == pytest.approx(math.log(2))
    # zero exactly on the normalizer classes: H is self-normalizing in S3
    assert [x for x in lc.values if lc(x) == 0] == [e]

    for d in (1, 2):
        z = hp.enumerate_ball(get_pair(f"z:{d}"), 3)
        lcz = characteristic_length(z)
        assert all(v == 0.0 for v in lcz.values.values())   # bounded length


def test_characteristic_refuses_nonunimodular():
    bcp = get_pair("bcp:2")
    store = hp.enumerate_ball(bcp, 3)
    with pytest.raises(NotRelativelyUnimodular):
        characteristic_length(store)
    lr = characteristic_length(store, use_lr=True)
    assert lr.kind == "characteristic-lr"
    assert check_length_axioms(store, lr, 1) == []


@pytest.mark.parametrize("label", ["s3-h12", "s4-h12", "psl2z1p:2"])
def test_characteristic_axioms(label):
    store = hp.enumerate_ball(get_pair(label), 4)
    lc = characteristic_length(store)
    assert check_length_axioms(store, lc, 2) == []


def test_characteristic_submultiplicative_exact():
    # L(d) <= L(d1) L(d2) on product supports, in exact integers
    from heckepairs.algebra import structure_constants
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 4)
    lc = characteristic_length(store)
    classes = store.classes_in_ball(2)
    for d1 in classes:
        for d2 in classes:
            for d in structure_constants(store, d1, d2):
                assert lc.exact_base[d] <= lc.exact_base[d1] * lc.exact_base[d2]


def test_lazy_values_leave_the_tabulated_domain_alone():
    # the axiom check evaluates lc on product classes past its radius-2
    # table; the table, which dominance fits and rd-profile families
    # iterate, must not grow, so no result depends on what ran before
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 2)
    ind = indicator_length(store)
    fresh = dominance_fit(characteristic_length(store), ind, store)
    lc = characteristic_length(store)
    table = dict(lc.values)
    assert len(table) == 3
    assert check_length_axioms(store, lc, 2) == []
    assert lc.values == table
    outside = [d for d in range(len(store.dcs)) if d not in table]
    assert outside
    for d in outside:
        assert lc(d) == math.log(store.class_L(d)) and lc.defined_on(d)
    assert dominance_fit(lc, ind, store) == fresh
    assert fresh.n_classes == 3


def test_averaged_length_dinf():
    pair = get_pair("dinf")
    av = averaged_length(pair, pair.word_length_on_g)
    # kernel of l' contains H
    for h in pair.h_elements():
        assert av.l_prime(h) == 0
    # l1 = l and l' = l when H is trivial
    zpair = get_pair("z:1")
    avz = averaged_length(zpair, zpair.word_length_on_g)
    for n in range(-5, 6):
        g = zpair.parse(f"zvec {n}")
        assert avz.l1(g) == abs(n) == avz.l_prime(g)


def test_averaged_bound_pointwise_exact_on_radius8_ball():
    # l1(g) <= |H| l(g) + 2 sum_H l, checked exactly on the whole ball
    pair = get_pair("dinf")
    av = averaged_length(pair, pair.word_length_on_g)
    assert av.eta == 2
    store = hp.enumerate_ball(pair, 8)
    checked = 0
    for cid in store.ball_ids(8):
        for h in pair.h_elements():
            g = pair.mul(h, store.reps[cid])
            assert av.bound_slack(g) >= 0
            assert av.l1(g) <= 2 * pair.word_length_on_g(g) + 2
            checked += 1
    assert checked == 2 * len(store.ball_ids(8))


def test_averaged_infinite_h():
    with pytest.raises(InfiniteH):
        averaged_length(get_pair("psl2z1p:2"), lambda g: 0)


def test_averaged_as_length_function():
    pair = get_pair("dinf")
    store = hp.enumerate_ball(pair, 8)
    av = averaged_length(pair, pair.word_length_on_g)
    lf = av.as_length_function(store)
    assert lf.kind == "averaged-finite-h"
    assert check_length_axioms(store, lf, 4) == []


def test_pseudometric_zero_length():
    store = hp.enumerate_ball(get_pair("z:1"), 6)
    zero = LengthFunction("custom", {d: Q(0) for d in store.classes_in_ball(6)})
    rep = pseudometric_checks(store, zero, n_samples=50, seed=1)
    assert rep.ok


def test_pseudometric_z_is_absolute_difference():
    store = hp.enumerate_ball(get_pair("z:1"), 10)
    lw = word_length(store)
    pair = store.pair
    for m in range(-5, 5):
        for n in range(-5, 5):
            x = pair.parse(f"zvec {m}")
            y = pair.parse(f"zvec {n}")
            d = length_of_element(store, lw, pair.mul(pair.inv(x), y))
            assert d == abs(m - n)


def test_pseudometric_psl2_random_triples():
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 4)
    lw = word_length(store)
    rep = pseudometric_checks(store, lw, n_samples=100, seed=7)
    assert rep.ok
    assert rep.samples == 100


def test_dominance_self():
    store = hp.enumerate_ball(get_pair("z:1"), 8)
    lw = word_length(store)
    fit = dominance_fit(lw, lw, store)
    assert fit.c1 == 1.0 and fit.c0 == 0.0 and fit.holds


def test_dominance_word_over_indicator():
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 3)
    lw = word_length(store)
    ind = indicator_length(store)
    fit = dominance_fit(lw, ind, store)
    assert fit.holds
    # (c1, c0) = (1, 1) always works since the indicator is at most 1
    assert all(ind(d) <= 1 * lw(d) + 1 for d in ind.values)


def test_dominance_word_over_characteristic_psl2():
    pair = get_pair("psl2z1p:2")
    store = hp.enumerate_ball(pair, 4)
    lw = word_length(store)
    lc = characteristic_length(store)
    fit = dominance_fit(lw, lc, store)
    assert fit.holds
    assert fit.c1 > 0


def test_length_undefined_raises():
    store = hp.enumerate_ball(get_pair("z:1"), 3)
    lw = word_length(store)
    with pytest.raises(LengthUndefinedOnSupport):
        lw(999)

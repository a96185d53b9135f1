import math
from fractions import Fraction as Q

import pytest

import heckepairs as hp
from heckepairs.cosets import Caps
from heckepairs.errors import (CapExceeded, InfiniteH,
                               LengthUndefinedOnSupport,
                               NotRelativelyUnimodular)
from heckepairs.groups import get_pair
from heckepairs.lengths import (AveragedLength, LengthFunction,
                                characteristic_length, check_length_axioms,
                                indicator_length, word_length)

def test_word_length_examples():
    z = hp.enumerate_ball(get_pair("z:1"), 6)
    lw = word_length(z, 6)
    assert lw(z.identity_class()) == 0
    for n in range(-6, 7):
        d = z.dc(z.lookup(z.pair.parse(f"zvec {n}")))
        assert lw(d) == abs(n)

    psl = hp.enumerate_ball(get_pair("psl2z1p:2"), 3)
    lwp = word_length(psl, 3)
    g2 = psl.pair.parse("mat 2 0 0 1/2")
    assert lwp(psl.dc(psl.lookup(g2))) == 1
    assert lwp(psl.identity_class()) == 0


def test_capped_word_length_leaves_completed_depths_exact():
    # the 63-coset ball fits in 64 cosets; the class reps the search
    # interns pass the cap at depth 4, after depths 0-3 are recorded
    pair = get_pair("bcp:3")
    full = word_length(hp.enumerate_ball(pair, 5), 5)
    store = hp.enumerate_ball(pair, 5, Caps(max_cosets=64))
    with pytest.raises(CapExceeded):
        word_length(store, 5)
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
    assert check_length_axioms(store, word_length(store, r), half) == []


@pytest.mark.parametrize("label", sorted(AXIOM_RADII))
def test_indicator_length_axioms(label):
    r, half = AXIOM_RADII[label]
    store = hp.enumerate_ball(get_pair(label), r)
    ind = indicator_length(store, r)
    e = store.identity_class()
    assert ind(e) == 0
    assert all(ind(d) == 1 for d in ind.values if d != e)
    assert check_length_axioms(store, ind, half) == []


def test_characteristic_length_values():
    s3 = hp.enumerate_ball(get_pair("s3-h12"), 4)
    lc = characteristic_length(s3, 4)
    e = s3.identity_class()
    d = next(x for x in s3.classes_in_ball(4) if x != e)
    assert lc(e) == 0.0
    assert lc(d) == pytest.approx(math.log(2))
    # zero exactly on the normalizer classes: H is self-normalizing in S3
    assert [x for x in lc.values if lc(x) == 0] == [e]

    for d in (1, 2):
        z = hp.enumerate_ball(get_pair(f"z:{d}"), 3)
        lcz = characteristic_length(z, 3)
        assert all(v == 0.0 for v in lcz.values.values())   # bounded length


@pytest.mark.parametrize("make", [characteristic_length, indicator_length],
                         ids=["characteristic", "indicator"])
def test_lengths_tabulate_the_classes_of_word_length_at_most_r(make):
    # the table is the class search's to the radius the caller names,
    # whatever ball was enumerated before: none here
    store = hp.CosetStore(get_pair("psl2z1p:2"))
    l = make(store, 5)
    assert list(l.values) == sorted(store.word_lengths(5))
    assert store.radius_complete == -1


def test_characteristic_refuses_nonunimodular():
    bcp = get_pair("bcp:2")
    store = hp.enumerate_ball(bcp, 3)
    with pytest.raises(NotRelativelyUnimodular):
        characteristic_length(store, 3)
    lr = characteristic_length(store, 3, use_lr=True)
    assert lr.kind == "characteristic-lr"
    assert check_length_axioms(store, lr, 1) == []


@pytest.mark.parametrize("label", ["s3-h12", "s4-h12", "psl2z1p:2"])
def test_characteristic_axioms(label):
    store = hp.enumerate_ball(get_pair(label), 4)
    lc = characteristic_length(store, 4)
    assert check_length_axioms(store, lc, 2) == []


def test_characteristic_submultiplicative_exact():
    # L(d) <= L(d1) L(d2) on product supports, in exact integers
    from heckepairs.algebra import structure_constants
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 4)
    lc = characteristic_length(store, 4)
    classes = store.classes_in_ball(2)
    for d1 in classes:
        for d2 in classes:
            for d in structure_constants(store, d1, d2):
                assert lc.exact_base(d) <= lc.exact_base(d1) * lc.exact_base(d2)


def test_averaged_length_dinf():
    pair = get_pair("dinf")
    av = AveragedLength(pair, pair.word_length_on_g)
    # kernel of l' contains H
    for h in pair.h_elements():
        assert av.l_prime(h) == 0
    # l1 = l and l' = l when H is trivial
    zpair = get_pair("z:1")
    avz = AveragedLength(zpair, zpair.word_length_on_g)
    for n in range(-5, 6):
        g = zpair.parse(f"zvec {n}")
        assert avz.l1(g) == abs(n) == avz.l_prime(g)


def test_averaged_bound_pointwise_exact_on_radius8_ball():
    # l1(g) <= |H| l(g) + 2 sum_H l, checked exactly on the whole ball;
    # on dinf |H| = 2 and sum_H l = 1
    pair = get_pair("dinf")
    l = pair.word_length_on_g
    av = AveragedLength(pair, l)
    eta = len(pair.h_elements())
    h_total = sum(l(h) for h in pair.h_elements())
    assert (eta, h_total) == (2, 1)
    store = hp.enumerate_ball(pair, 8)
    checked = 0
    for cid in store.ball_ids(8):
        for h in pair.h_elements():
            g = pair.mul(h, store.reps[cid])
            assert av.l1(g) <= eta * l(g) + 2 * h_total
            checked += 1
    assert checked == 2 * len(store.ball_ids(8))


def test_averaged_infinite_h():
    with pytest.raises(InfiniteH):
        AveragedLength(get_pair("psl2z1p:2"), lambda g: 0)


def test_averaged_as_length_function():
    pair = get_pair("dinf")
    store = hp.enumerate_ball(pair, 8)
    av = AveragedLength(pair, pair.word_length_on_g)
    lf = av.as_length_function(store, 8)
    assert lf.kind == "averaged-finite-h"
    assert check_length_axioms(store, lf, 4) == []


def test_length_undefined_raises():
    store = hp.enumerate_ball(get_pair("z:1"), 3)
    lw = word_length(store, 3)
    with pytest.raises(LengthUndefinedOnSupport):
        lw(999)
    # every length is defined on the classes it was tabulated on, and
    # only there: a radius-2 table misses the products of radius-2
    # classes, and the axiom suite names them
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 2)
    for lf in (characteristic_length(store, 2), indicator_length(store, 2)):
        outside = [d for d in store.word_lengths(4) if d not in lf.values]
        assert len(lf.values) == 3 and len(outside) == 2
        for d in outside:
            assert not lf.defined_on(d)
            with pytest.raises(LengthUndefinedOnSupport):
                lf(d)
        assert any(p.startswith("length undefined on product class ")
                   for p in check_length_axioms(store, lf, 2))


def _forged_z1_length(**values):
    """Word length on z:1 to radius 4, with the class of each ``n`` given
    the value ``values[str n]`` (keys like ``n1``, ``m2`` for 1, -2)."""
    store = hp.enumerate_ball(get_pair("z:1"), 4)
    cls = {n: store.dc(store.lookup(store.pair.parse(f"zvec {n}")))
           for n in range(-4, 5)}
    lengths = dict(word_length(store, 4).values)
    for name, v in values.items():
        n = int(name[1:]) * (-1 if name[0] == "m" else 1)
        lengths[cls[n]] = Q(v)
    return store, cls, lengths


def test_length_axioms_report_each_forged_fault_by_name():
    # each forged value breaks one axiom, and only that axiom's message
    # names it
    store, cls, lengths = _forged_z1_length(n0=1)
    assert check_length_axioms(store, LengthFunction("custom", lengths),
                               2) == ["l(HeH) != 0"]
    store, cls, lengths = _forged_z1_length(n1=2)
    assert check_length_axioms(store, LengthFunction("custom", lengths),
                               2) == [f"symmetry fails on class {d}"
                                      for d in sorted((cls[1], cls[-1]))]
    store, cls, lengths = _forged_z1_length(n2=5, m2=5)
    assert set(check_length_axioms(store, LengthFunction("custom", lengths),
                                   2)) == {
        f"subadditivity fails on {cls[n]} in supp(T{cls[h]}*T{cls[h]})"
        for n, h in ((2, 1), (-2, -1))}
    del lengths[cls[3]]
    assert (f"length undefined on product class {cls[3]} of "
            f"({cls[1]},{cls[2]})"
            in check_length_axioms(store, LengthFunction("custom", lengths),
                                   2))
    # a table short of the half radius: the factors it misses are passed
    # over, and only the products of the ones it holds are named
    short = LengthFunction("custom", word_length(store, 1).values)
    assert sorted(check_length_axioms(store, short, 2)) == sorted(
        f"length undefined on product class {cls[2 * n]} of "
        f"({cls[n]},{cls[n]})" for n in (1, -1))


def test_length_axioms_check_a_forged_exact_base():
    # the characteristic length's exact law L(d) <= L(d1) L(d2): a base of
    # 2 on the class of 2 in Z, where every L is 1, fails it on 1 + 1,
    # although every float value (log 1 = 0) is subadditive
    store, cls, lengths = _forged_z1_length()
    base = {d: 1 for d in lengths}
    base[cls[2]] = 2
    lc = LengthFunction("characteristic", {d: 0.0 for d in lengths},
                        exact_base=base.__getitem__)
    assert check_length_axioms(store, lc, 2) == [
        f"submultiplicativity fails on {cls[2]} in "
        f"supp(T{cls[1]}*T{cls[1]})"]


def test_length_axioms_read_the_classes_the_half_ball_misses():
    # on bcp:2 the radius-2 ball misses one class of word length 2, a
    # self-inverse one; its length forged to 0 breaks subadditivity only
    # as a factor, so a suite over the ball's classes would pass it
    store = hp.enumerate_ball(get_pair("bcp:2"), 2)
    lengths = dict(word_length(store, 4).values)
    ball = set(store.classes_in_ball(2))
    (missed,) = [d for d in store.word_lengths(2) if d not in ball]
    assert store.class_inverse(missed) == missed
    lengths[missed] = Q(0)
    problems = check_length_axioms(store, LengthFunction("custom", lengths),
                                   2)
    assert problems and all(p.startswith("subadditivity fails on ")
                            for p in problems)
    assert all(f"T{missed}*" in p or f"*T{missed})" in p for p in problems)

import functools
import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heckepairs as hp
from heckepairs import algebra
from heckepairs.algebra import (HeckeElement, basis_element, convolve,
                                direct_count, identity_element, involution,
                                norms, power_moments, structure_constants,
                                weighted_norms)
from heckepairs.errors import (HeckeError, LengthUndefinedOnSupport,
                               NonBiInvariantResult, ParseError,
                               StoreMismatch)
from heckepairs.groups import Aff, get_pair
from heckepairs.lengths import word_length
from heckepairs.rd import spectral_lower_bound

from conftest import FG_LABELS
from oracles import (brute_structure_constants, central_trinomial,
                     fraction_add, fraction_convolve, fraction_involution,
                     fraction_norms, fraction_scale, fraction_power_moments,
                     fraction_weighted_norms, structure_constants_csv,
                     tree_level)


def random_element(store, classes, rng, signed=True):
    supp = rng.sample(classes, k=rng.randint(1, min(3, len(classes))))
    lo = -9 if signed else 1
    return HeckeElement(store, {d: Q(rng.randint(lo, 9), rng.randint(1, 4))
                                for d in supp})


def level(store, d):
    return tree_level(store.reps[store.dcs[d].rep_cid].to_fractions(), 2)


def z_delta(store, n):
    pair = store.pair
    return basis_element(store, store.dc(store.lookup(pair.parse(f"zvec {n}"))))


def test_identity_is_two_sided_unit():
    for label in FG_LABELS:
        store = hp.enumerate_ball(get_pair(label), 2)
        classes = store.classes_in_ball(2)
        ident = identity_element(store)
        rng = random.Random(41)
        for _ in range(20):
            f = random_element(store, classes, rng)
            assert convolve(ident, f) == f
            assert convolve(f, ident) == f


def test_s3_basis_product():
    # frozen: T_d * T_d = 2 T_e + T_d for the nontrivial S3 class (also
    # cross-checked against the exhaustive oracle in test_oracle)
    store = hp.enumerate_ball(get_pair("s3-h12"), 3)
    classes = store.classes_in_ball(3)
    assert len(classes) == 2   # a 2-dimensional algebra
    e = store.identity_class()
    d = next(x for x in classes if x != e)
    td = basis_element(store, d)
    assert convolve(td, td) == HeckeElement(store, {e: Q(2), d: Q(1)})


def test_z_group_convolution():
    store = hp.enumerate_ball(get_pair("z:1"), 4)
    assert convolve(z_delta(store, 1), z_delta(store, -1)) == z_delta(store, 0)


def test_basis_norm_squared_is_R():
    for label in ("s3-h12", "bcp:2", "psl2z1p:2"):
        store = hp.enumerate_ball(get_pair(label), 2)
        for d in store.classes_in_ball(2):
            rep = norms(basis_element(store, d))
            assert rep.l2_sq_exact == store.class_R(d)


def test_norm_examples():
    store = hp.enumerate_ball(get_pair("z:1"), 3)
    ident = identity_element(store)
    rep = norms(ident)
    assert rep.l1_exact == 1 and rep.l2_sq_exact == 1
    lw = word_length(store, 3)
    assert weighted_norms(ident, lw, [2.0], {})[2.0] == pytest.approx(1.0)

    f = z_delta(store, -1) + z_delta(store, 0) + z_delta(store, 1)
    rep = norms(f)
    assert rep.l1_exact == 3
    assert rep.l2_sq_exact == 3
    assert weighted_norms(f, lw, [0.0], {})[0.0] == pytest.approx(rep.l2)

    missing = HeckeElement(store, {store.dc(store.lookup(
        store.pair.parse("zvec 3"))): Q(1)})
    short = word_length(hp.enumerate_ball(get_pair("z:1"), 1), 1)
    with pytest.raises(LengthUndefinedOnSupport):
        weighted_norms(missing, short, [1.0], {})[1.0]


def test_undefined_length_raises_after_other_powers_are_cached():
    # the profile's power cache holds only classes with a length: a class
    # without one raises on every call, whatever else is cached
    store = hp.enumerate_ball(get_pair("z:1"), 3)
    short = word_length(hp.enumerate_ball(get_pair("z:1"), 1), 1)
    near = z_delta(store, -1) + z_delta(store, 0) + z_delta(store, 1)
    far = near + z_delta(store, 3)
    grid = [0.0, 0.5, 2.0]
    powers: dict = {}
    assert (weighted_norms(near, short, grid, powers)
            == weighted_norms(near, short, grid, {}))
    assert sorted(powers) == sorted(near.num)
    for _ in range(2):
        with pytest.raises(LengthUndefinedOnSupport):
            weighted_norms(far, short, grid, powers)
        assert sorted(powers) == sorted(near.num)


@given(st.integers(-2**1100, 2**1100), st.integers(1, 2**1100))
@example(10**400, 1)
@example(-10**400, 3)
@example(1, 10**400)
@example(2**1024 - 2**970, 1)
@example(2**1024 - 2**970 - 1, 1)
@settings(max_examples=300, deadline=None)
def test_int_quotient_is_the_fraction_float(n, den):
    # n / den is correctly rounded, as float(Fraction(n, den)) is: the
    # truncated operator's data and the weighted norms build no Fraction.
    # A quotient past the float range raises OverflowError in both
    try:
        want = float(Q(n, den))
    except OverflowError:
        with pytest.raises(OverflowError):
            n / den
        return
    assert n / den == want


def test_s3_norm_from_R():
    store = hp.enumerate_ball(get_pair("s3-h12"), 3)
    classes = store.classes_in_ball(3)
    d = next(x for x in classes if x != store.identity_class())
    assert norms(basis_element(store, d)).l2_sq_exact == 2


def test_involution_examples():
    store = hp.enumerate_ball(get_pair("bcp:2"), 2)
    pair = store.pair
    d = store.dc(store.lookup(Aff(Q(0), Q(2))))
    d_inv = store.dc(store.lookup(Aff(Q(0), Q(1, 2))))
    td = basis_element(store, d)
    assert involution(td) == HeckeElement(store, {d_inv: Q(1, 2)})
    assert store.class_delta(d) == Q(1, 2)
    ident = identity_element(store)
    assert involution(ident) == ident


@pytest.mark.parametrize("label", FG_LABELS)
def test_involution_is_involutive_and_antimultiplicative(label):
    store = hp.enumerate_ball(get_pair(label), 2)
    classes = store.classes_in_ball(2)
    rng = random.Random(59)
    for _ in range(25):
        f = random_element(store, classes, rng)
        g = random_element(store, classes, rng)
        assert involution(involution(f)) == f
        assert involution(convolve(f, g)) == convolve(involution(g),
                                                      involution(f))


def weighted_pairing(u, v, size):
    """<u, v>_w = sum_d w(d) u(d) v(d) for the class size w (class_R or
    class_L); with class_R it is the inner product of l2(H\\G) on class
    functions, as ||T_d||^2 = R(d)."""
    return sum(size(d) * c * v.coeffs.get(d, 0) for d, c in u.coeffs.items())


def flip(f):
    """f~(d) = f(inv d)."""
    return HeckeElement(f.store, {f.store.class_inverse(d): c
                                  for d, c in f.coeffs.items()})


@functools.cache
def length3_classes(label):
    store = hp.CosetStore(get_pair(label))
    return store, sorted(store.word_lengths(3))


@pytest.mark.parametrize("label", ["bcp:2", "bcp:3", "psl2z1p:2"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_r_weighted_adjoint_is_the_flip(label, data):
    # <f*x, y>_R = <x, f~*y>_R on every pair, unimodular or not
    store, classes = length3_classes(label)
    coeff = st.fractions(-9, 9, max_denominator=4)
    f, x, y = (HeckeElement(store, data.draw(st.dictionaries(
        st.sampled_from(classes), coeff, min_size=1, max_size=3)))
        for _ in range(3))
    assert (weighted_pairing(convolve(f, x), y, store.class_R)
            == weighted_pairing(x, convolve(flip(f), y), store.class_R))


def test_involution_is_the_l_weighted_adjoint_only():
    # on bcp:2, Delta(d) = 1/2 for d = H diag(2, 1) H: involution(f) is the
    # adjoint for the L-weights and off by Delta for the R-weights
    store = hp.enumerate_ball(get_pair("bcp:2"), 2)
    d = store.dc(store.lookup(Aff(Q(0), Q(2))))
    f = y = basis_element(store, d)
    x = identity_element(store)
    lhs = convolve(f, x)
    assert (weighted_pairing(lhs, y, store.class_L)
            == weighted_pairing(x, convolve(involution(f), y), store.class_L))
    assert (weighted_pairing(lhs, y, store.class_R)
            != weighted_pairing(x, convolve(involution(f), y), store.class_R))
    assert (weighted_pairing(lhs, y, store.class_R)
            == weighted_pairing(x, convolve(flip(f), y), store.class_R))


@pytest.mark.parametrize("label", ["z:1", "z:2", "dinf", "s3-h12", "bcp:2"])
def test_associativity_randomized(label):
    store = hp.enumerate_ball(get_pair(label), 3)
    classes = store.classes_in_ball(3)
    rng = random.Random(61)
    for _ in range(50):
        f, g, h = (random_element(store, classes, rng) for _ in range(3))
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))


def test_moments_against_polynomial_oracle(z1_store):
    # oracle: a_n = central coefficient of (x^{-1} + 1 + x)^{2n}
    f = (z_delta(z1_store, -1) + z_delta(z1_store, 0) + z_delta(z1_store, 1))
    want = [central_trinomial(2 * n) for n in range(1, 7)]
    assert want[:2] == [3, 19]
    got = power_moments(f, 6)
    assert got == want
    assert power_moments(f, 2)[-1] == 19


def test_moments_of_the_unitary_shift(z1_store):
    # T_1 on z:1 is the shift, unitary and not self-adjoint: each power is
    # a unit vector, so every moment and every root is 1
    shift = z_delta(z1_store, 1)
    assert power_moments(shift, 5) == [Q(1)] * 5
    assert spectral_lower_bound(shift, 5) == [1.0] * 5


def schur_bound_up(f):
    """U = sum_d |c_d| ceil(sqrt(L(d) R(d))), Schur's bound on
    ||lambda(f)|| rounded up."""
    store = f.store
    total = Q(0)
    for d, c in f.coeffs.items():
        lr = store.class_L(d) * store.class_R(d)
        root = math.isqrt(lr)
        total += abs(c) * (root if root * root == lr else root + 1)
    return total


@functools.cache
def length2_classes(label):
    store = hp.CosetStore(get_pair(label))
    return store, sorted(store.word_lengths(2))


@pytest.mark.parametrize("label", ["z:1", "z:2", "dinf", "s4-h12",
                                   "psl2z1p:2", "bcp:2", "bcp:3"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_moments_are_norms_of_powers(label, data):
    # a_n = ||f^{*n}||_R^2 for every signed f, self-adjoint or not, and
    # ||f^{*n}||_R <= ||lambda(f)||^n <= U^n for Schur's bound U
    store, classes = length2_classes(label)
    f = HeckeElement(store, data.draw(st.dictionaries(
        st.sampled_from(classes), st.fractions(-9, 9, max_denominator=4)
        .filter(bool), min_size=1, max_size=4)))
    moments = power_moments(f, 3)
    assert moments == fraction_power_moments(f, 3)
    u = schur_bound_up(f)
    for n, a in enumerate(moments, start=1):
        assert a <= u ** (2 * n)


def test_moment_nonnegative_and_identity():
    store = hp.enumerate_ball(get_pair("s3-h12"), 3)
    ident = identity_element(store)
    assert power_moments(ident, 5) == [Q(1)] * 5


def test_rho_monotone():
    for label in ("z:1", "dinf", "s3-h12"):
        store = hp.enumerate_ball(get_pair(label), 2)
        classes = store.classes_in_ball(1)
        f = HeckeElement(store, {d: Q(1) for d in classes})
        f = Q(1, 2) * (f + involution(f))
        moments = power_moments(f, 8)
        rho = [float(a) ** (1 / (2 * n))
               for n, a in enumerate(moments, start=1)]
        for a, b in zip(rho, rho[1:]):
            assert b >= a - 1e-12


def test_store_mismatch():
    s1 = hp.enumerate_ball(get_pair("z:1"), 2)
    s2 = hp.enumerate_ball(get_pair("z:1"), 2)
    with pytest.raises(StoreMismatch):
        convolve(identity_element(s1), identity_element(s2))


def test_element_arithmetic_and_text():
    store = hp.enumerate_ball(get_pair("z:1"), 3)
    f = Q(2, 3) * z_delta(store, 1) + z_delta(store, -1)
    g = HeckeElement.from_text(store, f.to_text())
    assert g == f
    assert (f - f) == HeckeElement(store, {})
    assert not (f - f)


def test_text_round_trip_sums_repeated_classes():
    store = hp.enumerate_ball(get_pair("bcp:2"), 2)
    classes = store.classes_in_ball(2)
    rng = random.Random(5)
    for _ in range(5):
        f = random_element(store, classes, rng)
        assert HeckeElement.from_text(store, f.to_text()) == f
    assert HeckeElement.from_text(store, "") == HeckeElement(store, {})
    text = "dc=0 coeff=1/2\n\n  dc=2 coeff=-1  \ndc=0 coeff=1/3\n"
    assert (HeckeElement.from_text(store, text)
            == HeckeElement(store, {0: Q(5, 6), 2: -1}))


@pytest.mark.parametrize("text,line", [
    ("garbage", 1),
    ("dc=0 coeff=1\ndc=1", 2),
    ("\ndc=1 coeff=1/0", 2),
    ("dc=0 coeff=1\n\ndc=x coeff=1", 3),
    ("dc=0 coeff=one", 1),
    ("coeff=1", 1),
])
def test_from_text_refuses_a_malformed_line(text, line):
    store = hp.enumerate_ball(get_pair("z:1"), 2)
    store.classes_in_ball(2)
    with pytest.raises(ParseError, match=f"^line {line}: "):
        HeckeElement.from_text(store, text)


@pytest.mark.parametrize("line", [
    "dc=0 dc=1 coeff=1",                # repeated dc: T[1] before
    "dc=0 coeff=1 coeff=5",             # repeated coeff: 5 T[0] before
    "dc=0 coeff=1 coeff=5 junk=3",
    "dc=0 coeff=1 junk=3",              # unknown key: T[0] before
    "junk=3 coeff=1",
    "dc=0 dc=0",                        # missing coeff
    "dc=0",
])
def test_from_text_refuses_a_repeated_unknown_or_missing_key(line):
    # to_text writes dc=<id> coeff=<rational>: each key exactly once
    store = hp.enumerate_ball(get_pair("z:1"), 2)
    store.classes_in_ball(2)
    with pytest.raises(ParseError, match=f"^line 2: .*got {line!r}$"):
        HeckeElement.from_text(store, f"dc=0 coeff=1\n{line}\ndc=1 coeff=2")
    f = HeckeElement(store, {1: Q(1, 2), 0: Q(-3)})
    assert HeckeElement.from_text(store, f.to_text()) == f
    assert (HeckeElement.from_text(store, "coeff=1/2 dc=1")
            == Q(1, 2) * basis_element(store, 1))


@pytest.mark.parametrize("dc", ["999", "5", "-1"])
def test_from_text_refuses_a_class_the_store_never_named(dc):
    # z:1 at radius 2 names classes 0..4; convolving a stray id would
    # raise IndexError, or read another class for -1
    store = hp.enumerate_ball(get_pair("z:1"), 2)
    assert len(store.classes_in_ball(2)) == len(store.dcs) == 5
    with pytest.raises(HeckeError, match=f"^line 2: class {dc} is not") as exc:
        HeckeElement.from_text(store, f"dc=0 coeff=1\ndc={dc} coeff=1")
    assert not isinstance(exc.value, ParseError)


def test_structure_constants_cached_and_csv():
    store = hp.enumerate_ball(get_pair("s3-h12"), 3)
    ds = store.classes_in_ball(3)
    a = structure_constants(store, ds[1], ds[1])
    assert store.sc_cache[(ds[1], ds[1])] is a
    csv_text = structure_constants_csv(store, ds)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "d1,d2,d,coeff"
    assert f"{ds[1]},{ds[1]},{ds[0]},2" in lines
    assert f"{ds[1]},{ds[1]},{ds[1]},1" in lines


@pytest.mark.parametrize("label,radius", [
    ("bcp:2", 3), ("psl2z1p:2", 2), ("psl2z1p:2", 3), ("sl2z1p:2", 2),
    ("s4-h12", 4), ("dinf", 4), ("z:2", 3)])
def test_structure_constants_match_member_pair_count(label, radius):
    store = hp.enumerate_ball(get_pair(label), radius)
    classes = store.classes_in_ball(radius)
    for d1 in classes:
        for d2 in classes:
            assert (structure_constants(store, d1, d2)
                    == brute_structure_constants(store, d1, d2)), (d1, d2)


def miskey_one_product(monkeypatch, store, e, other):
    """Key the first product of a support walk that lands in class ``e``
    as class ``other``; returns the (d1, d2) of each walk and the list of
    misses still to come (empty once the miskey has fired)."""
    pair = store.pair
    class_key, support = pair.class_key, store.product_support
    walking, walked, misses = [False], [], [store.dcs[other].key]

    def lossy_key(g):
        k = class_key(g)
        if walking[0] and misses and k == store.dcs[e].key:
            return misses.pop()
        return k

    def logged_support(d1, d2):
        walked.append((d1, d2))
        walking[0] = True
        try:
            return support(d1, d2)
        finally:
            walking[0] = False

    monkeypatch.setattr(pair, "class_key", lossy_key)
    monkeypatch.setattr(store, "product_support", logged_support)
    return walked, misses


def test_structure_constants_degree_identity_catches_a_miscount(monkeypatch):
    # T_1 * T_1 on psl2z1p:2: 4 of the 6 products x1 t land in level 2
    # (L = 24), giving c = 6 * 4 / 24 = 1; one of them keyed as level 1
    # leaves 6 * 3 / 24, not whole, so the product raises and caches
    # nothing
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 2)
    by_level = {int(v): d for d, v in word_length(store, 2).values.items()}
    d = by_level[1]
    store.word_lengths(3)      # the support is sized: only the walk runs
    walked, misses = miskey_one_product(monkeypatch, store, by_level[2], d)
    with pytest.raises(NonBiInvariantResult, match="no whole coefficient"):
        structure_constants(store, d, d)
    assert walked == [(d, d)] and not misses
    assert (d, d) not in store.sc_cache


def test_structure_constants_mirrored_miscount_caches_neither_side(
        monkeypatch):
    # R(level 1) = 6 < L(level 2) = 24, so T_{level 1} * T_{level 2} is
    # walked as its mirror T_{inv level 2} * T_{inv level 1}; one product
    # there keyed to the wrong class leaves a coefficient that is not
    # whole, and neither orientation is cached
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 2)
    by_level = {int(v): d for d, v in word_length(store, 2).values.items()}
    d1, d2 = by_level[1], by_level[2]
    mirror = (store.class_inverse(d2), store.class_inverse(d1))
    store.word_lengths(3)      # the support is sized: only the walk runs
    level3 = next(d for d, n in store.word_lengths(3).items() if n == 3)
    walked, misses = miskey_one_product(monkeypatch, store, level3, d1)
    with pytest.raises(NonBiInvariantResult, match="no whole coefficient"):
        structure_constants(store, d1, d2)
    assert walked == [mirror] and not misses
    assert (d1, d2) not in store.sc_cache
    assert mirror not in store.sc_cache


def test_structure_constants_read_the_cheaper_side(monkeypatch):
    # on bcp:2 a class with (L, R) = (2^k, 1) has 2^k left cosets: a
    # product walks the L(d2) left-coset representatives of d2 as it
    # stands and the R(d1) = L(inv d1) of inv(d1) mirrored, and is
    # mirrored exactly when R(d1) < L(d2), so it costs min(L(d2), R(d1))
    # group products and counts nothing
    store = hp.enumerate_ball(get_pair("bcp:2"), 3)
    store.word_lengths(6)      # the supports are sized: only the walk runs
    L, R = store.class_L, store.class_R
    classes = store.classes_in_ball(3)
    for d in classes:          # every left walk done: only products remain
        store.class_left_reps(d)
        store.class_left_reps(store.class_inverse(d))
    pair = store.pair
    mul, products = pair.mul, [0]

    def logged_mul(x, y):
        products[0] += 1
        return mul(x, y)

    def no_count(*args):
        raise AssertionError("a structure constant was counted")

    monkeypatch.setattr(pair, "mul", logged_mul)
    monkeypatch.setattr(store, "_count", no_count)
    assert sorted({L(d) for d in classes if R(d) == 1 and L(d) > 1}) \
        == [2, 4, 8]
    mirrored = saved = 0
    for d1 in classes:
        for d2 in classes:
            store.sc_cache.clear()
            products[0] = 0
            structure_constants(store, d1, d2)
            assert products[0] == min(L(d2), R(d1)), (d1, d2)
            mirrored += R(d1) < L(d2)
            saved += L(d2) - products[0]
    assert mirrored and saved > 0


@pytest.mark.parametrize("label", ["z:2", "dinf", "s4-h12", "bcp:2", "bcp:3",
                                   "psl2z1p:2", "sl2z1p:2"])
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_structure_constants_match_member_pairs_on_random_classes(label,
                                                                 data):
    # the support walk's c_e = L(d1) m_e / L(e), in whichever orientation
    # it runs, against the member-pair count of each pair of classes of
    # word length <= 3
    store = hp.enumerate_ball(get_pair(label), 3)
    classes = sorted(store.word_lengths(3))
    d1 = data.draw(st.sampled_from(classes))
    d2 = data.draw(st.sampled_from(classes))
    assert (structure_constants(store, d1, d2)
            == brute_structure_constants(store, d1, d2)), (d1, d2)


@pytest.mark.parametrize("label", ["bcp:2", "bcp:3", "psl2z1p:2", "s4-h12"])
def test_triangle_identity_against_the_count(label):
    # L(e) c_e = L(d1) m_e on every support class of every pair of
    # radius-2 ball classes, with c_e counted by ``direct_count`` and m_e
    # read off the support walk; bcp:p has L(e) != R(e)
    store = hp.enumerate_ball(get_pair(label), 2)
    L = store.class_L
    classes = store.classes_in_ball(2)
    non_unimodular = 0
    for d1 in classes:
        for d2 in classes:
            support = store.product_support(d1, d2)
            counted = direct_count(store, d1, d2)
            assert counted.keys() == support.keys()
            for e, (_, m) in support.items():
                assert L(e) * counted[e] == L(d1) * m, (d1, d2, e)
                non_unimodular += L(e) != store.class_R(e)
    assert non_unimodular or not label.startswith("bcp")


def one_coset_pairs(store, classes):
    """The pairs of ``classes`` with a one-coset side: L(d2) = 1, or
    R(d1) = 1, whose mirror has L(inv d1) = 1."""
    L, R = store.class_L, store.class_R
    return [(d1, d2) for d1 in classes for d2 in classes
            if L(d2) == 1 or R(d1) == 1]


@pytest.mark.parametrize("label", ["z:2", "bcp:2", "bcp:3"])
def test_one_coset_products_match_member_pair_count(label, monkeypatch):
    # a product with a one-coset side is read off one product (m_e = 1),
    # with no call of the counting arbiter, and must agree with the
    # member-pair count on every such pair of radius-3 classes
    store = hp.enumerate_ball(get_pair(label), 3)
    pairs = one_coset_pairs(store, store.classes_in_ball(3))
    counted = []
    count = algebra.direct_count

    def logged_count(*args):
        counted.append(args)
        return count(*args)

    monkeypatch.setattr(algebra, "direct_count", logged_count)
    for d1, d2 in pairs:
        assert (structure_constants(store, d1, d2)
                == brute_structure_constants(store, d1, d2)), (d1, d2)
    assert pairs and not counted


def test_one_coset_coefficients_are_not_all_one():
    # c_e = R(d1) R(d2) / R(e), which is not 1 where R(e) < R(d1) R(d2):
    # a rule that set c_e = 1 would be wrong on these bcp:2 pairs
    store = hp.enumerate_ball(get_pair("bcp:2"), 2)
    pairs = one_coset_pairs(store, store.classes_in_ball(2))
    other = [(d1, d2) for d1, d2 in pairs
             if set(structure_constants(store, d1, d2).values()) != {1}]
    assert other
    for d1, d2 in other:
        assert structure_constants(store, d1, d2) == direct_count(store, d1,
                                                                  d2)


def test_one_coset_remainder_raises_and_caches_nothing(monkeypatch):
    # with R(e) patched to a non-divisor of R(d1) R(d2), no c_e satisfies
    # the degree identity: the product raises and nothing is cached
    store = hp.enumerate_ball(get_pair("bcp:2"), 2)
    L, R = store.class_L, store.class_R
    classes = store.classes_in_ball(2)
    d1, d2, e = next((d1, d2, e) for d1 in classes for d2 in classes
                     for e in direct_count(store, d1, d2)
                     if L(d2) == 1 and R(d1) * R(d2) >= 4
                     and e not in (d1, d2))
    want = R(d1) * R(d2)
    bad = next(n for n in range(2, want) if want % n)
    monkeypatch.setattr(store, "class_R", lambda d: bad if d == e else R(d))
    with pytest.raises(NonBiInvariantResult, match="degree identity"):
        structure_constants(store, d1, d2)
    assert not store.sc_cache


def test_convolution_lookups_intern_nothing_stray():
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 3)
    classes = store.classes_in_ball(3)
    rng = random.Random(97)
    for _ in range(10):
        convolve(random_element(store, classes, rng),
                 random_element(store, classes, rng))
    assert store.sc_cache
    # the ball and one representative per class the products named: no
    # member list is built, not even for the classes seeding the search
    assert all(obj.member_cids is None for obj in store.dcs)
    named = len(store.dcs) - len(classes)
    assert named > 0
    assert len(store) <= len(store.ball_ids(3)) + named


def brute_convolve(f, g):
    """f * g summed over ``brute_structure_constants``."""
    store = f.store
    out = {}
    for d1, c1 in f.coeffs.items():
        for d2, c2 in g.coeffs.items():
            for d, n in brute_structure_constants(store, d1, d2).items():
                out[d] = out.get(d, 0) + c1 * c2 * n
    return HeckeElement(store, out)


@pytest.mark.parametrize("label", ["psl2z1p:2", "bcp:2", "z:2"])
def test_convolve_calls_structure_constants_only_on_a_miss(label,
                                                           monkeypatch):
    # convolve reads a cached pair itself.  A cold product calls
    # structure_constants only for a pair not yet cached when the loop
    # reaches it (the mirror called inside may be a hit), computes each
    # pair it needs exactly once, and a second product makes no call
    store = hp.enumerate_ball(get_pair(label), 3)
    classes = store.classes_in_ball(3)
    rng = random.Random(29)
    f, g = (random_element(store, classes, rng) for _ in range(2))
    calls, computed, depth = [], [], [0]
    sc = algebra.structure_constants

    def counted(store, d1, d2):
        miss = (d1, d2) not in store.sc_cache
        if depth[0] == 0:
            calls.append(((d1, d2), miss))
        if miss:
            computed.append((d1, d2))
        depth[0] += 1
        try:
            return sc(store, d1, d2)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(algebra, "structure_constants", counted)
    store.sc_cache.clear()
    fg = convolve(f, g)
    pairs = [(d1, d2) for d1 in f.num for d2 in g.num]
    assert calls and all(miss for _, miss in calls)
    assert len(set(computed)) == len(computed)
    assert set(pairs) <= set(computed)
    calls.clear()
    assert convolve(f, g) == fg
    assert not calls
    monkeypatch.undo()
    assert fg == brute_convolve(f, g)
    assert convolve(g, f) == brute_convolve(g, f)


@pytest.mark.parametrize("label", ["psl2z1p:2", "bcp:2", "z:2"])
def test_class_r_reads_a_known_size_without_the_pair(label):
    pair = get_pair(label)
    reads = [0]
    base = type(pair)

    class Counted(base):
        @property
        def finitely_generated(self):
            reads[0] += 1
            return base.finitely_generated.fget(self)

    pair.__class__ = Counted
    store = hp.enumerate_ball(pair, 3)
    classes = store.classes_in_ball(3)
    assert store.dcs[classes[-1]].R is None
    store.class_R(classes[-1])       # an unknown R resumes the search
    assert reads[0] > 0
    reads[0] = 0
    sizes = [store.class_R(d) for d in range(len(store.dcs))]
    assert sizes == [obj.R for obj in store.dcs]
    assert reads[0] == 0


def test_structure_constants_build_no_members(monkeypatch):
    # T_{level 3} * T_{level 6}, its mirror and seeded triple products on
    # the tree: the support is read off class keys over the left-coset
    # representatives t of d2, the counts off those of inv(d2), and a pair
    # with L(d1) < R(d2) is counted as its mirror (inv d2, inv d1).  So a
    # cold pair costs at most the cheaper of L(d2) + |supp| R(d2) and
    # R(d1) + |supp| L(d1) products beyond left-coset representatives and
    # the class search, and only a newly named class interns a coset
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 3)
    pair = store.pair
    classes = store.classes_in_ball(3)
    lw = word_length(store, 3)
    by_level = {int(v): d for d, v in lw.values.items()}
    muls = [0]
    paused = [False]
    mul, sc = pair.mul, algebra.structure_constants
    left_reps, search = store.class_left_reps, store._search_depth
    cold = []

    def counted_mul(x, y):
        muls[0] += not paused[0]
        return mul(x, y)

    def pausing(fn):
        def run(*args):
            paused[0], was = True, paused[0]
            try:
                return fn(*args)
            finally:
                paused[0] = was
        return run

    def recorded_sc(st, d1, d2):
        new = (d1, d2) not in st.sc_cache
        before = muls[0]
        out = sc(st, d1, d2)
        if new:
            cold.append((d1, d2, len(out), muls[0] - before))
        return out

    monkeypatch.setattr(pair, "mul", counted_mul)
    monkeypatch.setattr(store, "class_left_reps", pausing(left_reps))
    monkeypatch.setattr(store, "_search_depth", pausing(search))
    monkeypatch.setattr(algebra, "structure_constants", recorded_sc)
    t3 = basis_element(store, by_level[3])
    t6 = convolve(t3, t3)
    assert sorted(level(store, d) for d in t6.coeffs) == [0, 1, 2, 3, 4, 5, 6]
    d6 = next(d for d in t6.coeffs if level(store, d) == 6)
    d3 = by_level[3]
    t9 = convolve(t3, basis_element(store, d6))
    assert max(level(store, d) for d in t9.coeffs) == 9
    # the small class on the left: only its own left cosets are walked
    n_supp, n_mul = next((s, m) for a, b, s, m in cold if (a, b) == (d3, d6))
    assert n_supp == len(t9.coeffs)
    assert n_mul <= store.class_R(d3) + n_supp * store.class_L(d3)
    assert convolve(basis_element(store, d6), t3) == t9
    rng = random.Random(7)
    for _ in range(10):
        f, g, h = (random_element(store, classes, rng) for _ in range(3))
        assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
    assert len(cold) > 20
    L, R = store.class_L, store.class_R
    for d1, d2, n_supp, n_mul in cold:
        assert n_mul <= min(L(d2) + n_supp * R(d2), R(d1) + n_supp * L(d1))
    assert all(obj.member_cids is None for obj in store.dcs
               if level(store, obj.id) > 3)
    assert len(store) <= len(store.ball_ids(3)) + len(store.dcs)


def test_convolution_power_support_growth_is_linear(z1_store):
    f = z_delta(z1_store, 1) + z_delta(z1_store, -1)
    g = f
    for n in range(2, 6):
        g = convolve(g, f)
        reps = sorted(z1_store.reps[z1_store.dcs[d].rep_cid].coords[0]
                      for d in g.coeffs)
        assert max(reps) == n and min(reps) == -n


def test_l2_at_most_l1_sanity():
    # counting measure with mass >= 1 per coset: sum a^2 <= (sum |a|)^2
    rng = random.Random(83)
    for label in ("z:2", "bcp:2", "psl2z1p:2"):
        store = hp.enumerate_ball(get_pair(label), 2)
        classes = store.classes_in_ball(2)
        for _ in range(20):
            f = random_element(store, classes, rng)
            rep = norms(f)
            assert rep.l2_sq_exact <= rep.l1_exact * rep.l1_exact


# the integer-numerator kernel against the term-by-term Fraction oracles, on
# radius-3 balls; bcp:2 has Delta != 1
KERNEL_PAIRS = ["z:2", "dinf", "s4-h12", "psl2z1p:2", "bcp:2"]
KERNEL_STORES = {}
PRIMES = [p for p in range(2, 98) if all(p % q for q in range(2, p))]


def kernel_store(label):
    if label not in KERNEL_STORES:
        store = hp.enumerate_ball(get_pair(label), 3)
        KERNEL_STORES[label] = (store, store.classes_in_ball(3),
                                word_length(store, 3))
    return KERNEL_STORES[label]


def cancelling(f, g, classes):
    """f plus a multiple of one more class b, chosen so that a class d of
    f * g, to which f already contributes, sums to zero; (f', d), or None
    when no class of ``classes`` reaches a class of f * g."""
    store = f.store
    fg = fraction_convolve(f, g).coeffs
    for b in classes:
        if b in f.coeffs:
            continue
        bg = fraction_convolve(basis_element(store, b), g).coeffs
        for d, k in bg.items():
            if d in fg:
                return f + HeckeElement(store, {b: -fg[d] / k}), d
    return None


def assert_same(kernel, oracle):
    assert list(kernel.coeffs.items()) == list(oracle.coeffs.items())
    assert all(type(c) is Q for c in kernel.coeffs.values())


@st.composite
def kernel_cases(draw):
    """(word length, f, g, cancelled class or None) on one pair's radius-3
    ball, in one of three shapes: random f and g, the empty f (a nonzero
    element minus itself), or an f whose product with g cancels on the
    returned class."""
    label = draw(st.sampled_from(KERNEL_PAIRS))
    store, classes, l = kernel_store(label)
    shape = draw(st.sampled_from(["random", "empty", "cancel"]))
    numerators = st.integers(-50, 50)
    if shape != "random":
        numerators = numerators.filter(bool)

    def element(min_size):
        supp = draw(st.lists(st.sampled_from(classes), min_size=min_size,
                             max_size=4, unique=True))
        return HeckeElement(store, {
            d: Q(draw(numerators), draw(st.sampled_from(PRIMES)))
            for d in supp})

    f, g = element(int(shape != "random")), element(2 * (shape == "cancel"))
    gone = None
    if shape == "empty":
        f = f - f
    elif shape == "cancel":
        f, gone = cancelling(f, g, classes) or (f, None)
    return l, f, g, gone


@given(kernel_cases())
@settings(max_examples=80, deadline=None)
def test_kernel_matches_fraction_oracle(case):
    l, f, g, gone = case
    fg = convolve(f, g)
    assert gone is None or gone not in fg.coeffs
    assert_same(fg, fraction_convolve(f, g))
    assert_same(convolve(g, f), fraction_convolve(g, f))
    assert_same(involution(f), fraction_involution(f))
    rep = norms(f)
    assert (rep.l1_exact, rep.l2_sq_exact) == fraction_norms(f)
    assert type(rep.l1_exact) is Q and type(rep.l2_sq_exact) is Q
    grid = [0.0, 0.5, 1.25, 3.0]
    assert (weighted_norms(f, l, grid, {})
            == fraction_weighted_norms(f, l, grid))
    moments = power_moments(f, 2)
    assert moments == fraction_power_moments(f, 2)
    assert all(type(a) is Q for a in moments)


def test_element_keeps_fraction_coefficients():
    # coeffs reads the (den, num) pair back as Fractions: equal values,
    # zeros dropped, in input order, and no way to write through it
    store = hp.enumerate_ball(get_pair("z:1"), 2)
    f = HeckeElement(store, {0: Q(3, 7), 1: 0, 2: Q(0, 5), 3: 2})
    assert (f.den, f.num) == (7, {0: 3, 3: 14})
    assert list(f.coeffs.items()) == [(0, Q(3, 7)), (3, Q(2))]
    assert all(type(c) is Q for c in f.coeffs.values())
    with pytest.raises(TypeError):
        f.coeffs[1] = Q(1)


def test_kernel_builds_no_fraction(monkeypatch):
    # convolve, involution and == read and build (den, num) pairs only.
    # The laws run once first to warm the structure constants and class
    # sizes, which the kernel only reads.  On bcp:2 the product's support
    # has classes with Delta != 1, so involution rescales
    cases = []
    for label in ("psl2z1p:2", "bcp:2"):
        store, classes, _ = kernel_store(label)
        rng = random.Random(19)
        f, g = (random_element(store, classes, rng) for _ in range(2))
        fg = fraction_convolve(f, g)
        assert involution(fg) == fraction_involution(fg)
        cases.append((f, g, fg))
    bcp_fg = cases[1][2]
    assert any(bcp_fg.store.class_delta(d) != 1 for d in bcp_fg.num)

    def laws():
        return [law for f, g, fg in cases
                for law in (convolve(f, g) == fg,
                            involution(involution(fg)) == fg,
                            convolve(involution(g), involution(f))
                            == involution(fg))]

    assert all(laws())
    built = [0]
    new = Q.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counted))
    held = laws()
    monkeypatch.undo()
    assert built[0] == 0
    assert all(held)


def assert_canonical(h):
    assert type(h.den) is int and h.den > 0
    assert all(type(n) is int and n != 0 for n in h.num.values())
    assert math.gcd(h.den, *h.num.values()) == 1


@st.composite
def canonical_cases(draw):
    """(f, g, scalar) on one pair's radius-3 ball.  g is random, or
    cancels f on some of its classes (so f + g drops or reduces them), or
    is f again built from its coefficients in reverse order."""
    label = draw(st.sampled_from(KERNEL_PAIRS))
    store, classes, _ = kernel_store(label)
    coeffs = st.builds(Q, st.integers(-50, 50), st.sampled_from(PRIMES))

    def element():
        supp = draw(st.lists(st.sampled_from(classes), max_size=4,
                             unique=True))
        return HeckeElement(store, {d: draw(coeffs) for d in supp})

    f = element()
    shape = draw(st.sampled_from(["random", "cancel", "twin"]))
    if shape == "random":
        g = element()
    elif shape == "cancel":
        g = element() + HeckeElement(store, {
            d: -c for d, c in f.coeffs.items() if draw(st.booleans())})
    else:
        g = HeckeElement(store, dict(reversed(list(f.coeffs.items()))))
    return f, g, draw(st.one_of(st.integers(-6, 6), coeffs))


@given(canonical_cases())
@settings(max_examples=80, deadline=None)
def test_elements_are_canonical(case):
    f, g, s = case
    total, diff, scaled = f + g, f - g, s * f
    for h in (f, g, total, diff, scaled, involution(f), convolve(f, g)):
        assert_canonical(h)
    assert (f == g) == (dict(f.coeffs) == dict(g.coeffs))
    assert f != g or hash(f) == hash(g)
    back = total - g
    assert back == f and hash(back) == hash(f)
    assert_same(total, fraction_add(f, g))
    assert_same(diff, fraction_add(f, g, -1))
    assert_same(scaled, fraction_scale(s, f))
    assert_same(involution(f), fraction_involution(f))
    for h in (f, total, scaled):
        assert HeckeElement.from_text(h.store, h.to_text()) == h


def filtered_reduced(den, num):
    """The canonical pair by the rule that always rebuilds: drop zeros,
    then divide out one gcd."""
    num = {d: n for d, n in num.items() if n}
    g = math.gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {d: n // g for d, n in num.items()}
    return den, num


@given(st.integers(1, 10**6),
       st.dictionaries(st.integers(0, 40), st.integers(-10**4, 10**4),
                       max_size=8),
       st.integers(1, 12), st.booleans())
@settings(max_examples=300, deadline=None)
@example(5, {}, 1, False)
@example(6, {3: 0, 1: 4}, 1, False)
@example(1, {2: 0}, 1, False)
def test_reduced_matches_the_rebuilding_rule(den, num, k, zeros):
    # a common factor k gives a gcd to divide out; without ``zeros`` the
    # dict holds none, so _reduced may keep it as given
    num = {d: k * n for d, n in num.items() if zeros or n}
    want_den, want_num = filtered_reduced(k * den, dict(num))
    h = algebra._reduced(kernel_store("z:2")[0], k * den, dict(num))
    assert h.den == want_den
    assert list(h.num.items()) == list(want_num.items())
    assert_canonical(h)


@given(canonical_cases())
@settings(max_examples=80, deadline=None)
def test_results_share_no_num_dict_with_their_inputs(case):
    f, g, s = case
    results = (f + g, f - g, f + (g - g), s * f, 1 * f, convolve(f, g),
               involution(f), involution(g))
    held = [f.num, g.num, *f.store.sc_cache.values()]
    for h in results:
        assert all(h.num is not x for x in held)

"""Product pairs (G1 x G2, H1 x H2), whose every answer is known from the
factors': the coset store, the class search and the structure constants
checked on class spaces of rank 2."""

from itertools import accumulate

import pytest

from heckepairs.algebra import structure_constants
from heckepairs.cosets import CosetStore
from heckepairs.groups import get_pair
from heckepairs.growth import classify_growth, growth_series

from oracles import ProductPair


def _stores(a, b):
    """The product's store and each factor's."""
    pa, pb = get_pair(a), get_pair(b)
    return CosetStore(ProductPair(pa, pb)), CosetStore(pa), CosetStore(pb)


def _split(stores, d):
    """The factors' classes of the product class d."""
    prod, sa, sb = stores
    x1, x2 = prod.reps[prod.dcs[d].rep_cid]
    return sa.class_of(x1), sb.class_of(x2)


@pytest.mark.parametrize("a,b,r", [("z:1", "psl2z1p:2", 12),
                                   ("dinf", "z:1", 15)])
def test_product_shells_are_the_cauchy_product(a, b, r):
    # the word length is l1 + l2, so the shells convolve
    prod, sa, sb = (growth_series(s, r).shell for s in _stores(a, b))
    assert prod == [sum(sa[k] * sb[n - k] for k in range(n + 1))
                    for n in range(r + 1)]


@pytest.mark.parametrize("a,b", [("psl2z1p:2", "bcp:2"),
                                 ("z:1", "psl2z1p:2")])
def test_product_sizes_multiply(a, b):
    stores = _stores(a, b)
    prod, sa, sb = stores
    for d in prod.word_lengths(4):
        da, db = _split(stores, d)
        for size in ("class_L", "class_R", "class_delta"):
            assert (getattr(prod, size)(d)
                    == getattr(sa, size)(da) * getattr(sb, size)(db))
    assert prod.unimodularity().verdict == (sa.unimodularity().verdict
                                            and sb.unimodularity().verdict)


def test_product_structure_constants_are_the_tensor():
    # T_(a,b) * T_(c,d) = (T_a * T_c) (x) (T_b * T_d)
    stores = _stores("z:1", "psl2z1p:2")
    prod, sa, sb = stores
    wl = prod.word_lengths(4)
    pairs = [(d1, d2) for d1 in wl for d2 in wl if wl[d1] + wl[d2] <= 4]
    assert len(pairs) == 155
    for d1, d2 in pairs:
        (a1, b1), (a2, b2) = _split(stores, d1), _split(stores, d2)
        got = {_split(stores, e): c
               for e, c in structure_constants(prod, d1, d2).items()}
        assert got == {(e, f): m * n
                       for e, m in structure_constants(sa, a1, a2).items()
                       for f, n in structure_constants(sb, b1, b2).items()}


def _times(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _nonzero_roots(chi):
    """chi without its roots at 0, highest degree first."""
    while chi[-1] == 0:
        chi = chi[:-1]
    return chi


@pytest.mark.parametrize("a,b,kind,value,chi", [
    ("z:1", "dinf", "polynomial", 2, [1, -3, 3, -1]),
    ("z:1", "psl2z1p:2", "exponential", 4, [1, -6, 9, -4]),
    # two roots above 1: (x - 1)(x - 2)(x - 4)
    ("psl2z1p:2", "bcp:2", "exponential", 4, [1, -7, 14, -8]),
    # a finite factor leaves a transient: x (x - 1)^2
    ("dinf", "s3-h12", "polynomial", 1, [1, -2, 1, 0])])
def test_product_growth_is_the_factors_recurrences(a, b, kind, value, chi):
    # the ball series is the partial sum of the shells' Cauchy product, so
    # chi, without roots at 0, is (x - 1) times the factors' shell
    # polynomials: each factor's chi over x - 1 (1 for a finite factor)
    verdicts = [classify_growth(growth_series(s, 4), s)
                for s in _stores(a, b)]
    prod = verdicts[0]
    field = "alpha" if kind == "polynomial" else "beta"
    assert (prod.kind, getattr(prod, field), prod.chi) == (kind, value, chi)
    want = [1, -1]
    for v in verdicts[1:]:
        if v.kind != "finite":
            want = _times(want, list(accumulate(_nonzero_roots(v.chi)[:-1])))
    assert _nonzero_roots(prod.chi) == want


def test_product_of_finite_pairs_is_finite():
    stores = _stores("s3-h12", "s4-h12")
    verdicts = [classify_growth(growth_series(s, 4), s) for s in stores]
    assert [(v.kind, v.index) for v in verdicts] == [
        ("finite", 36), ("finite", 3), ("finite", 12)]

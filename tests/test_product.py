"""Product pairs (G1 x G2, H1 x H2), whose every answer is known from the
factors': the coset store, the class search and the structure constants
checked on class spaces of rank 2."""

import pytest

from heckepairs.algebra import structure_constants
from heckepairs.cosets import CosetStore
from heckepairs.groups import get_pair
from heckepairs.growth import growth_series

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

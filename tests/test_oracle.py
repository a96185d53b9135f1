from fractions import Fraction as Q

import pytest

import heckepairs as hp
from heckepairs.errors import SubsetNotSubgroup
from heckepairs.oracle import finite_group_oracle, oracle_matches_engine

from oracles import double_coset, perm_mul

S3_GENS = [(1, 0, 2), (1, 2, 0)]
H12 = [(0, 1, 2), (1, 0, 2)]


def test_s3_hand_counts():
    oracle = finite_group_oracle(S3_GENS, H12)
    assert len(oracle.elements) == 6
    assert len(oracle.right_cosets) == 3
    assert len(oracle.classes) == 2
    by_r = sorted(c.R for c in oracle.classes)
    assert by_r == [1, 2]
    for c in oracle.classes:
        assert c.delta == 1
        assert c.L == c.R
    # |H(13)H| = 4 elements = 2 right cosets, counted by hand
    dc = double_coset((2, 1, 0), set(map(tuple, H12)), perm_mul)
    assert len(dc) == 4
    big = max(oracle.classes, key=lambda c: c.R)
    assert big.elements == dc


def test_s3_structure_constants():
    oracle = finite_group_oracle(S3_GENS, H12)
    e = oracle.class_of_element((0, 1, 2))
    d = 1 - e
    assert oracle.structure_constants[(d, d)] == {e: 2, d: 1}
    assert oracle.structure_constants[(e, d)] == {d: 1}
    assert oracle.structure_constants[(d, e)] == {d: 1}
    assert oracle.structure_constants[(e, e)] == {e: 1}


def test_h_equals_g_is_scalars():
    oracle = finite_group_oracle(S3_GENS, [tuple(p) for p in
                                           finite_group_oracle(S3_GENS, H12).elements])
    assert len(oracle.right_cosets) == 1
    assert len(oracle.classes) == 1
    assert oracle.structure_constants[(0, 0)] == {0: 1}


def test_h_trivial_recovers_group_table():
    oracle = finite_group_oracle(S3_GENS, [(0, 1, 2)])
    assert len(oracle.classes) == len(oracle.elements) == 6
    for i, x in enumerate(oracle.elements):
        for j, y in enumerate(oracle.elements):
            ci = oracle.class_of_element(x)
            cj = oracle.class_of_element(y)
            ck = oracle.class_of_element(perm_mul(x, y))
            assert oracle.structure_constants[(ci, cj)] == {ck: 1}


def test_subset_not_subgroup():
    with pytest.raises(SubsetNotSubgroup):
        finite_group_oracle(S3_GENS, [(0, 1, 2), (1, 2, 0)])  # not closed
    with pytest.raises(SubsetNotSubgroup):
        finite_group_oracle(S3_GENS, [(1, 0, 2)])             # missing e


def test_engine_agrees_with_oracle_s3():
    pair = hp.get_pair("s3-h12")
    store = hp.enumerate_ball(pair, 8)
    store.snapshot()   # materialize all classes and inverses
    oracle = finite_group_oracle([g.images for g in pair.g_generators],
                                 [h.images for h in pair.h_elements()])
    assert oracle_matches_engine(store, oracle) == []


def test_delta_values_are_rational():
    oracle = finite_group_oracle(S3_GENS, H12)
    for c in oracle.classes:
        assert isinstance(c.delta, Q)

import random
import re
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import heckepairs as hp
from heckepairs.errors import HeckeError, SubsetNotSubgroup
from heckepairs.groups import Perm, PermPair
from heckepairs import oracle as oracle_module
from heckepairs.oracle import finite_group_oracle, oracle_matches_engine

from oracles import double_coset, group_closure, perm_inv, perm_mul

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
    # two transpositions are each their own inverse; their product is not
    # in H
    with pytest.raises(SubsetNotSubgroup, match="not closed under product"):
        finite_group_oracle(S3_GENS, [(0, 1, 2), (1, 0, 2), (0, 2, 1)])


@pytest.mark.parametrize("gens,max_order,message", [
    ([], 10_000, "need at least one generator"),
    ([(1, 0, 2), (0, 0, 1)], 10_000, "not a permutation: (0, 0, 1)"),
    (S3_GENS, 5, "group larger than 5")])
def test_oracle_refuses_bad_generators(gens, max_order, message):
    with pytest.raises(HeckeError, match=re.escape(message)):
        finite_group_oracle(gens, [(0, 1, 2)], max_order)


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


def _s4_store_and_oracle():
    """A saturated s4-h12 store that matches its oracle, with every
    structure constant cached by that first comparison."""
    pair = hp.get_pair("s4-h12")
    store = hp.enumerate_ball(pair, 12)
    store.snapshot()
    oracle = finite_group_oracle([g.images for g in pair.g_generators],
                                 [h.images for h in pair.h_elements()])
    assert oracle_matches_engine(store, oracle) == []
    return store, oracle


@pytest.mark.parametrize("side", ["R", "L"])
def test_oracle_names_a_forged_class_size(side):
    store, oracle = _s4_store_and_oracle()
    d = next(x.id for x in store.dcs if getattr(x, side) == 2)
    setattr(store.dcs[d], side, 3)
    assert oracle_matches_engine(store, oracle) == [
        f"{side} mismatch on class {d}: 3 vs 2", f"delta mismatch on class {d}"]


def test_oracle_names_a_forged_size_before_it_divides_by_it():
    # with no product cached, structure_constants would divide by the
    # forged R; the size mismatch is reported and nothing is raised
    store, oracle = _s4_store_and_oracle()
    store.sc_cache.clear()
    store.dcs[1].R = 99
    assert "R mismatch on class 1: 99 vs 2" in oracle_matches_engine(
        store, oracle)


def test_oracle_names_a_corrupted_structure_constant():
    store, oracle = _s4_store_and_oracle()
    d1, d2 = next(p for p, c in store.sc_cache.items() if len(c) > 1)
    store.sc_cache[(d1, d2)] = {store.identity_class(): 5}
    (problem,) = oracle_matches_engine(store, oracle)
    assert problem.startswith(f"structure constants differ on ({d1},{d2}): ")


def test_oracle_refuses_an_unsaturated_store_and_another_pair():
    store, oracle = _s4_store_and_oracle()
    small = hp.enumerate_ball(store.pair, 1)
    assert oracle_matches_engine(small, oracle) == [
        "engine store is not saturated"]
    trivial_h = finite_group_oracle(
        [g.images for g in store.pair.g_generators], [(0, 1, 2, 3)])
    assert oracle_matches_engine(store, trivial_h) == [
        "coset counts differ: engine 12 vs oracle 24"]
    # S4 over <(0 1)(2 3)> has 12 cosets in 8 classes; over <(2 3)>, 12 in
    # 7 classes of the same sizes, two of them matched to one
    gens = [g.images for g in store.pair.g_generators]
    for h, problem in (
            ((1, 0, 3, 2), "class counts differ: engine 7 vs oracle 8"),
            ((0, 1, 3, 2), "class matching is not a bijection")):
        other = finite_group_oracle(gens, [(0, 1, 2, 3), h])
        assert oracle_matches_engine(store, other) == [problem]


def test_oracle_refuses_a_convolution_that_is_not_class_constant(
        monkeypatch):
    # with every inverse read as the element itself, the pointwise sum
    # over x y^{-1} is not constant on a class of S3 over <(0 1)>
    monkeypatch.setattr(oracle_module, "_inv", lambda x: x)
    with pytest.raises(HeckeError, match="not constant on a class"):
        finite_group_oracle(S3_GENS, H12)


def random_permutation_pair(seed):
    """(degree, G's generators, H's generators, H's elements) from one
    seed: G on one or two random permutations of degree 4-6, H on one or
    two random elements of G."""
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    identity = tuple(range(n))
    g_gens = [tuple(rng.sample(identity, n))
              for _ in range(rng.randint(1, 2))]
    elements = sorted(group_closure(g_gens, perm_mul, identity))
    h_gens = [rng.choice(elements) for _ in range(rng.randint(1, 2))]
    h = sorted(group_closure(h_gens, perm_mul, identity))
    return n, g_gens, h_gens, h, len(elements) // len(h)


@given(st.integers(0, 2**32))
@settings(max_examples=10, derandomize=True, deadline=None)
def test_random_permutation_pairs_match_the_oracle(seed):
    # class count, L, R, Delta and every structure constant on a saturated
    # store; then, on fresh stores, L and R read in either order and each
    # class's inverse, by the oracle class of the inverse of its rep.  A
    # pair is drawn again unless it has 3 to 40 right cosets, so that the
    # oracle stays quick, and a class that is not its own inverse, so that
    # a mirrored product keyed by the wrong class shows
    n, g_gens, h_gens, h, index = random_permutation_pair(seed)
    assume(3 <= index <= 40)
    oracle = finite_group_oracle(g_gens, h)
    reps = [min(c.elements) for c in oracle.classes]
    assume(any(oracle.class_of_element(perm_inv(rep)) != o
               for o, rep in enumerate(reps)))
    pair = PermPair("random-perm", n, g_gens, h_gens)
    store = hp.enumerate_ball(pair, len(oracle.right_cosets))
    assert oracle_matches_engine(store, oracle) == []
    for first, second in (("class_L", "class_R"), ("class_R", "class_L")):
        fresh = hp.CosetStore(pair)
        for o, rep in enumerate(reps):
            d = fresh.class_of(Perm(rep))
            sizes = {first: getattr(fresh, first)(d),
                     second: getattr(fresh, second)(d)}
            assert (sizes["class_L"], sizes["class_R"]) == (
                oracle.classes[o].L, oracle.classes[o].R)
            inv = fresh.class_inverse(d)
            assert oracle.class_of_element(
                fresh.reps[fresh.dcs[inv].rep_cid].images) == (
                oracle.class_of_element(perm_inv(rep)))

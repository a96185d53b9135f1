"""The tree pairs against closed forms.

(P)SL2(Z[1/p]) over (P)SL2(Z) acts on the (p+1)-regular tree; its double
cosets are the even spheres around the base vertex, so every class size,
word length and product T_1 * T_k is known in closed form (see
``oracles``).  The engine learns L and R by the class search's counting
rule, so these also check that rule against the orbit BFS, and past the
radii any orbit reaches.
"""

import pytest

import heckepairs as hp
from heckepairs.algebra import structure_constants
from heckepairs.groups import get_pair
from heckepairs.growth import growth_series
from heckepairs.lengths import word_length

from oracles import (tree_ball, tree_class_size, tree_level, tree_t1_times_tk,
                     tree_tj_times_tk)


def level(store, d, p):
    return tree_level(store.reps[store.dcs[d].rep_cid].to_fractions(), p)


@pytest.mark.parametrize("label,p,radius", [
    ("psl2z1p:2", 2, 5), ("sl2z1p:2", 2, 5), ("psl2z1p:3", 3, 3)])
def test_tree_classes_match_closed_forms(label, p, radius):
    store = hp.enumerate_ball(get_pair(label), radius)
    lw = word_length(store, radius)
    learned = {d: store.class_R(d) for d in lw.values}
    assert growth_series(store, radius).ball == [
        tree_ball(p, r) for r in range(radius + 1)]
    levels = []
    for d in lw.values:
        members = store.class_members(d)
        ks = {tree_level(store.reps[m].to_fractions(), p) for m in members}
        assert len(ks) == 1, (d, ks)       # one k per class ...
        (k,) = ks
        levels.append(k)
        assert lw(d) == k
        assert learned[d] == len(members) == tree_class_size(p, k)
        assert store.class_L(d) == tree_class_size(p, k)
    assert sorted(levels) == list(range(radius + 1))   # ... and per k


@pytest.mark.parametrize("label,p,kmax", [
    ("psl2z1p:2", 2, 3), ("sl2z1p:2", 2, 3),
    ("psl2z1p:3", 3, 2), ("sl2z1p:3", 3, 2)])
def test_tree_products_follow_the_sphere_recursion(label, p, kmax):
    store = hp.enumerate_ball(get_pair(label), kmax)
    lw = word_length(store, kmax)
    by_level = {int(v): d for d, v in lw.values.items()}
    for k in range(1, kmax + 1):
        sc = structure_constants(store, by_level[1], by_level[k])
        assert {level(store, d, p): c for d, c in sc.items()} \
            == tree_t1_times_tk(p, k)


def test_tree_learned_sizes_to_level_9():
    # the class search runs to depth 9 from the radius-3 ball: the level-9
    # class holds 3 * 2^17 cosets, and no class above level 1 builds its
    # members
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 3)
    found = store.word_lengths(9)
    assert sorted(found.values()) == list(range(10))
    for d, n in found.items():
        assert level(store, d, 2) == n
        assert store.dcs[d].R == tree_class_size(2, n)
        if n > 1:
            assert store.dcs[d].member_cids is None
    assert len(store) <= len(store.ball_ids(3)) + len(store.dcs)


@pytest.mark.parametrize("label,p", [("psl2z1p:2", 2), ("psl2z1p:3", 3)])
def test_tree_products_to_level_8_follow_the_sphere_recursion(label, p):
    store = hp.enumerate_ball(get_pair(label), 4)
    lw = word_length(store, 4)
    by_level = {int(v): d for d, v in lw.values.items()}
    for j in range(1, 5):
        for k in range(1, 5):
            sc = structure_constants(store, by_level[j], by_level[k])
            assert {level(store, d, p): c for d, c in sc.items()} \
                == tree_tj_times_tk(p, j, k), (j, k)


@pytest.mark.parametrize("p", [2, 3])
def test_quotient_map_carries_the_classes_to_the_reduced_pair(p):
    # the quotient map x -> {+-x} matches the classes of word length <= 4
    # of sl2z1p:p with those of psl2z1p:p by class key, on stores that
    # enumerate no ball, and carries word length, L, R and every
    # structure constant among them across
    sl2 = hp.CosetStore(get_pair(f"sl2z1p:{p}"))
    psl2 = hp.CosetStore(get_pair(f"psl2z1p:{p}"))
    image = psl2.pair

    def key(store, d):
        return image.class_key(image.canon(store.reps[store.dcs[d].rep_cid]))

    tables = []
    for store in (sl2, psl2):
        wl = store.word_lengths(4)
        rows = {key(store, d): (n, store.class_L(d), store.class_R(d))
                for d, n in wl.items()}
        products = {(key(store, d1), key(store, d2)): {
            key(store, d): c
            for d, c in structure_constants(store, d1, d2).items()}
            for d1 in wl for d2 in wl}
        tables.append((rows, products))
    assert len(tables[0][0]) == 5 and len(tables[0][1]) == 25
    assert tables[0] == tables[1]


def test_tree_products_to_level_14_follow_the_sphere_recursion():
    # T_j * T_k for j, k <= 7 reaches level 14: each product walks
    # min(L, R) <= 3 * 2^13 left cosets, and the class search sizes the
    # support past any ball or orbit
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 1)
    by_level = {n: d for d, n in store.word_lengths(7).items()}
    for j in range(1, 8):
        for k in range(1, 8):
            sc = structure_constants(store, by_level[j], by_level[k])
            assert {level(store, d, 2): c for d, c in sc.items()} \
                == tree_tj_times_tk(2, j, k), (j, k)

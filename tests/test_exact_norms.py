"""Reported lower bounds against exact norms on the tree pairs, where the
norm of a nonnegative test function is known in closed form
(``oracles.tree_nonneg_norm``)."""

from fractions import Fraction

import pytest

from heckepairs.cosets import CosetStore
from heckepairs.groups import get_pair
from heckepairs.rd import kesten_diagnostic, rd_profile

from oracles import tree_class_size, tree_nonneg_norm

TREES = [("psl2z1p:2", 2, 5), ("psl2z1p:3", 3, 5), ("sl2z1p:2", 2, 6)]


def _at_most(bound: float, exact) -> bool:
    return bound <= exact * (1 + 1e-12)


def test_tree_norms_of_the_shells():
    assert [tree_nonneg_norm(2, {k: 1}) for k in range(4, 8)] == [
        88, 208, 480, 1088]
    # kesten's f = (T_0 + T_1) / ||T_0 + T_1||_1 reads 3p / (p^2 + p + 1)
    for p in (2, 3, 5):
        l1 = 1 + tree_class_size(p, 1)
        assert Fraction(tree_nonneg_norm(p, {0: 1, 1: 1}), l1) == Fraction(
            3 * p, p * p + p + 1)


@pytest.mark.parametrize("label,p,r_max", TREES)
def test_rd_profile_bounds_stay_below_the_exact_norms(label, p, r_max):
    store = CosetStore(get_pair(label))
    profile = rd_profile(store, r_max, config={"rd.n_random": 0})
    wl = store.word_lengths(r_max)
    # one class per word length k, the tree's level k
    assert sorted(store.dcs[d].key for d in wl) == list(range(r_max + 1))
    assert all(wl[d] == store.dcs[d].key for d in wl)
    exact = {"shell": lambda r: tree_nonneg_norm(p, {r: 1}),
             "ball": lambda r: tree_nonneg_norm(
                 p, {k: 1 for k in range(r + 1)})}
    checked = 0
    for rec in profile.records:
        if rec.family not in exact:
            continue
        norm = exact[rec.family](rec.r)
        assert Fraction(rec.moment_root) <= norm, (rec.family, rec.r)
        assert _at_most(rec.trunc_norm, norm), (rec.family, rec.r)
        assert _at_most(rec.lower_bound, norm), (rec.family, rec.r)
        checked += 1
    assert checked == 2 * (r_max + 1)


@pytest.mark.parametrize("label,p", [(label, p) for label, p, _ in TREES])
def test_kesten_bounds_stay_below_the_exact_norm(label, p):
    store = CosetStore(get_pair(label))
    store.enumerate_to(4)
    report = kesten_diagnostic(store)
    exact = Fraction(3 * p, p * p + p + 1)
    # a_n = ||f^{*n}||_R^2 <= ||lambda(f)||^{2n}, compared exactly
    assert all(a <= exact ** (2 * n)
               for n, a in enumerate(report.moments, start=1))
    assert all(Fraction(rho) <= exact for rho in report.rho)
    assert _at_most(report.trunc_norm, exact)

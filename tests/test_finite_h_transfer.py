"""The paper's finite-H transfer: for H finite, iota(f)(g) = f(HgH) / |H|
maps the Hecke algebra of (G, H) into the group algebra of G as a
*-homomorphism, so (G, H) and G have the same norms and the moments of f
and of iota f agree up to the factor |H|, exactly."""

import random

import pytest

from heckepairs.algebra import HeckeElement, convolve, power_moments
from heckepairs.cosets import CosetStore
from heckepairs.groups import get_pair

from oracles import LiftPair


@pytest.mark.parametrize("label,order", [
    ("dinf", 2), ("s3-h12", 2), ("s4-h12", 2), ("s4-h12-34", 4)])
def test_moments_transfer_to_the_group(label, order):
    base = get_pair(label)
    assert len(base.h_elements()) == order
    store = CosetStore(base)
    classes = sorted(store.word_lengths(2))
    lift = LiftPair(base)
    lifted = CosetStore(lift)
    rng = random.Random(label)
    draws = [HeckeElement(store, {d: rng.randint(-9, 9) for d in classes})
             for _ in range(11)]
    for f, g in zip(draws, draws[1:]):
        assert lift.lift(convolve(f, g), lifted) == convolve(
            lift.lift(f, lifted), lift.lift(g, lifted))
        moments = power_moments(f, 3)
        assert [a * order for a in power_moments(lift.lift(f, lifted), 3)
                ] == moments

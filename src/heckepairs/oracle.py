"""Exhaustive ground truth for finite permutation pairs.

Everything here is computed by literal enumeration over the whole group:
right cosets by explicit translation, L and R by counting cosets inside
each double coset, and structure constants by evaluating the convolution
sum pointwise.  No interning, no orbits, no caching -- this is the
independent route the enumeration engine is checked against.

Permutations are plain image tuples composing left to right:
(x * y)(i) = y[x[i]].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import HeckeError, SubsetNotSubgroup

__all__ = ["FiniteOracle", "finite_group_oracle", "oracle_matches_engine"]


def _mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(y[i] for i in x)


def _inv(x: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(x)
    for i, j in enumerate(x):
        out[j] = i
    return tuple(out)


@dataclass
class OracleClass:
    elements: frozenset
    right_coset_ids: tuple[int, ...]
    L: int
    R: int
    delta: Fraction


@dataclass
class FiniteOracle:
    elements: list[tuple[int, ...]]
    h: frozenset
    right_cosets: list[frozenset]
    coset_of: dict                # element -> right coset id
    classes: list[OracleClass]
    class_of_coset: list[int]
    structure_constants: dict     # (i, j) -> {k: int}

    def class_of_element(self, g: tuple[int, ...]) -> int:
        return self.class_of_coset[self.coset_of[g]]


def finite_group_oracle(g_gens: Iterable[Sequence[int]],
                        h_subset: Iterable[Sequence[int]],
                        max_order: int = 10_000) -> FiniteOracle:
    """Evaluate the coset/double-coset/convolution definitions for a finite
    permutation group by full enumeration.  ``h_subset`` must be the full
    element set of the subgroup."""
    gens = [tuple(g) for g in g_gens]
    if not gens:
        raise HeckeError("need at least one generator")
    n = len(gens[0])
    identity = tuple(range(n))
    for g in gens:
        if sorted(g) != list(range(n)):
            raise HeckeError(f"not a permutation: {g}")

    elements = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = _mul(x, g)
                if y not in elements:
                    elements.add(y)
                    nxt.append(y)
                    if len(elements) > max_order:
                        raise HeckeError(f"group larger than {max_order}")
        frontier = nxt
    ordered = sorted(elements)

    h = frozenset(tuple(x) for x in h_subset)
    if not h or identity not in h or not h <= elements:
        raise SubsetNotSubgroup("H must contain e and lie inside G")
    for a in h:
        if _inv(a) not in h:
            raise SubsetNotSubgroup(f"H not closed under inversion at {a}")
        for b in h:
            if _mul(a, b) not in h:
                raise SubsetNotSubgroup(f"H not closed under product at {a},{b}")

    # right cosets Hx
    right_cosets: list[frozenset] = []
    coset_of: dict = {}
    for x in ordered:
        if x in coset_of:
            continue
        coset = frozenset(_mul(a, x) for a in h)
        idx = len(right_cosets)
        right_cosets.append(coset)
        for y in coset:
            coset_of[y] = idx

    # double cosets HxH, with L = #left cosets and R = #right cosets inside
    classes: list[OracleClass] = []
    class_of_coset = [-1] * len(right_cosets)
    for x in ordered:
        if class_of_coset[coset_of[x]] != -1:
            continue
        dc = frozenset(_mul(_mul(a, x), b) for a in h for b in h)
        rids = tuple(sorted({coset_of[y] for y in dc}))
        left_cosets = {frozenset(_mul(y, a) for a in h) for y in dc}
        idx = len(classes)
        for rid in rids:
            class_of_coset[rid] = idx
        classes.append(OracleClass(dc, rids, len(left_cosets), len(rids),
                                   Fraction(len(left_cosets), len(rids))))

    # structure constants by evaluating the convolution sum pointwise:
    # (1_i * 1_j)(Hx) = sum over right cosets Hy of
    #                   1_i(H x y^{-1}) 1_j(Hy)
    coset_reps = [min(c) for c in right_cosets]
    sc: dict = {}
    for i in range(len(classes)):
        for j in range(len(classes)):
            values = []
            for x in coset_reps:
                total = 0
                for rid, y in enumerate(coset_reps):
                    if class_of_coset[rid] != j:
                        continue
                    z = _mul(x, _inv(y))
                    if class_of_coset[coset_of[z]] == i:
                        total += 1
                values.append(total)
            per_class: dict[int, set[int]] = {}
            for rid, v in enumerate(values):
                per_class.setdefault(class_of_coset[rid], set()).add(v)
            out: dict[int, int] = {}
            for k, vals in sorted(per_class.items()):
                if len(vals) != 1:
                    raise HeckeError(
                        "oracle convolution not constant on a class")
                v = vals.pop()
                if v:
                    out[k] = v
            sc[(i, j)] = out
    return FiniteOracle(ordered, h, right_cosets, coset_of, classes,
                        class_of_coset, sc)


def oracle_matches_engine(store, oracle: FiniteOracle) -> list[str]:
    """Compare a fully enumerated engine store against the oracle.
    Returns a list of mismatch descriptions (empty when equal).  Structure
    constants are compared only once every class size agrees, since
    ``structure_constants`` divides by those sizes."""
    from .algebra import structure_constants

    problems: list[str] = []
    if not store.saturated:
        problems.append("engine store is not saturated")
        return problems
    if len(store) != len(oracle.right_cosets):
        problems.append(
            f"coset counts differ: engine {len(store)} vs "
            f"oracle {len(oracle.right_cosets)}")
        return problems

    engine_classes = store.classes_in_ball(store.radius_complete)
    if len(engine_classes) != len(oracle.classes):
        problems.append(
            f"class counts differ: engine {len(engine_classes)} vs "
            f"oracle {len(oracle.classes)}")
        return problems

    to_oracle: dict[int, int] = {}
    for d in engine_classes:
        rep = store.reps[store.dcs[d].rep_cid]
        o = oracle.class_of_element(rep.images)
        to_oracle[d] = o
        oc = oracle.classes[o]
        if store.class_R(d) != oc.R:
            problems.append(f"R mismatch on class {d}: "
                            f"{store.class_R(d)} vs {oc.R}")
        if store.class_L(d) != oc.L:
            problems.append(f"L mismatch on class {d}: "
                            f"{store.class_L(d)} vs {oc.L}")
        if store.class_delta(d) != oc.delta:
            problems.append(f"delta mismatch on class {d}")
    if len(set(to_oracle.values())) != len(oracle.classes):
        problems.append("class matching is not a bijection")
    if problems:
        return problems

    for d1 in engine_classes:
        for d2 in engine_classes:
            got = {to_oracle[d]: v
                   for d, v in structure_constants(store, d1, d2).items()}
            want = oracle.structure_constants[(to_oracle[d1], to_oracle[d2])]
            if got != want:
                problems.append(
                    f"structure constants differ on ({d1},{d2}): "
                    f"{got} vs {want}")
    return problems

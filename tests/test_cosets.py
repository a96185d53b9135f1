import random
from fractions import Fraction as Q

import pytest

import heckepairs as hp
from heckepairs.algebra import HeckeElement, basis_element, involution
from heckepairs.cosets import (Caps, check_interning_soundness, enumerate_ball,
                               left_L_count, relative_modular,
                               unimodularity_check)
from heckepairs.errors import (BallIncomplete, CapExceeded, HeckeError,
                               NonBiInvariantResult, NotFinitelyGenerated,
                               OrbitCapExceeded)
from heckepairs.groups import Aff, get_pair
from heckepairs.rd import operator_matrix

from conftest import FG_LABELS
from oracles import (ProductPair, double_coset, group_closure, mat_mul,
                     perm_mul, right_cosets, word)


def test_intern_identity_and_h_element():
    pair = get_pair("s3-h12")
    store = hp.CosetStore(pair)
    a = store.intern(pair.identity())
    b = store.intern(pair.parse("perm 1 0 2"))   # the transposition in H
    assert a == b == 0
    assert len(store) == 1


def test_intern_idempotent_on_z():
    pair = get_pair("z:1")
    store = hp.CosetStore(pair)
    five = pair.parse("zvec 5")
    a = store.intern(five)
    before = len(store)
    assert store.intern(five) == a
    assert len(store) == before


def test_intern_psl2_h_translate():
    # H(T g2) = H g2 because (T g2)(g2)^{-1} = T lies in H; the oracle is
    # the rational matrix product itself
    pair = get_pair("psl2z1p:2")
    g2 = pair.parse("mat 2 0 0 1/2")
    t = pair.parse("mat 1 1 0 1")
    tg2 = pair.mul(t, g2)
    g2_inv = ((Q(1, 2), Q(0)), (Q(0), Q(2)))
    a, b, c, d = tg2.to_fractions()
    prod = mat_mul(((a, b), (c, d)), g2_inv)
    assert prod in (((1, 1), (0, 1)), ((-1, -1), (0, -1)))
    store = hp.CosetStore(pair)
    assert store.intern(g2) == store.intern(tg2)


# the group G of each pair; pairs on the same G share their elements, and
# the affine pairs (skipped) share translations
AMBIENT = {"z:1": "Z", "z:2": "Z^2", "dinf": "Dinf", "s3-h12": "S3",
           "s4-h12": "S4", "s4-h12-34": "S4", "sl2z1p:2": "SL2(Z[1/2])",
           "psl2z1p:2": "SL2(Z[1/2])", "sl2z1p:3": "SL2(Z[1/3])"}


@pytest.mark.parametrize("label,other", [
    (a, b) for a in AMBIENT for b in AMBIENT if AMBIENT[a] != AMBIENT[b]])
def test_public_interning_refuses_another_pairs_element(label, other):
    store = hp.CosetStore(get_pair(label))
    store.intern(store.pair.identity())
    for g in get_pair(other).g_generators:
        with pytest.raises(HeckeError):
            store.intern(g)
        with pytest.raises(HeckeError):
            store.lookup(g)
        assert len(store) == 1


def test_enumerate_ball_z_r5():
    store = enumerate_ball(get_pair("z:1"), 5)
    assert len(store) == 11
    reps = sorted(v.coords[0] for v in store.reps)
    assert reps == list(range(-5, 6))
    assert sorted(store.wl) == sorted(abs(n) for n in range(-5, 6))


def test_enumerate_ball_s3_three_cosets():
    # oracle: enumerate all 6 elements and partition into right cosets
    pair = get_pair("s3-h12")
    elements = group_closure([g.images for g in pair.g_generators],
                             perm_mul, (0, 1, 2))
    h_set = {h.images for h in pair.h_elements()}
    assert len(right_cosets(elements, h_set, perm_mul)) == 3
    for r in (2, 3, 5):
        assert len(enumerate_ball(pair, r)) == 3


def test_enumerate_ball_psl2_r1():
    # frozen from the first derivation: {He, Hg2, Hg2^{-1}}
    pair = get_pair("psl2z1p:2")
    store = enumerate_ball(pair, 1)
    assert len(store) == 3
    g2 = pair.parse("mat 2 0 0 1/2")
    assert store.lookup(pair.identity()) == 0
    assert store.lookup(g2) is not None
    assert store.lookup(pair.inv(g2)) is not None


def test_enumerate_ball_fails_fast_for_full_bc():
    with pytest.raises(NotFinitelyGenerated):
        enumerate_ball(get_pair("bc"), 2)


def test_unimodularity_without_generators_refuses_a_true_verdict(
        monkeypatch):
    # bc's probes of Delta = 1 alone (a translation by 1/2) cannot certify
    # a pair with no finite generating set
    pair = get_pair("bc")
    monkeypatch.setattr(pair, "unimod_probes",
                        lambda: [pair.parse("aff 1/2 1")])
    with pytest.raises(NotFinitelyGenerated, match="cannot certify"):
        hp.CosetStore(pair).unimodularity()


def test_orbit_of_identity():
    for label in FG_LABELS:
        store = enumerate_ball(get_pair(label), 2)
        d = store.identity_class()
        assert store.class_R(d) == 1


def test_orbit_s3_class():
    # oracle: H(13)H = {(13),(23),(123),(132)} is two right cosets
    pair = get_pair("s3-h12")
    h_set = {h.images for h in pair.h_elements()}
    x13 = (2, 1, 0)
    dc = double_coset(x13, h_set, perm_mul)
    assert len(dc) == 4
    assert len(right_cosets(dc, h_set, perm_mul)) == 2
    store = enumerate_ball(pair, 3)
    d = store.dc(store.lookup(pair.parse("perm 2 1 0")))
    assert store.class_R(d) == 2


@pytest.mark.parametrize("b,a,L,R", [
    (Q(0), Q(2), 1, 2), (Q(0), Q(1, 3), 3, 1), (Q(1, 5), Q(6), 1, 6),
    (Q(1, 2), Q(1), 1, 1)])
def test_bc_class_sizes_without_a_class_search(b, a, L, R):
    # bc has no finite generating set, so no class search sizes its
    # classes: L is walked and R(d) = L(inv d), which the orbit must
    # match, whichever size is read first
    for first in ("class_L", "class_R", "class_delta"):
        store = hp.CosetStore(get_pair("bc"))
        d = store.dc(store.intern(Aff(b, a)))
        getattr(store, first)(d)
        assert (store.class_L(d), store.class_R(d), store.class_delta(d)) == (
            L, R, Q(L, R))
        assert len(store.class_members(d)) == R


def test_orbit_bc_scaling_class():
    pair = get_pair("bcp:2")
    store = hp.CosetStore(pair)
    c = store.intern(Aff(Q(0), Q(2)))
    d = store.dc(c)
    assert store.class_R(d) == 2
    members = {store.reps[m] for m in store.class_members(d)}
    assert store.lookup(Aff(Q(1), Q(2))) in store.class_members(d)
    assert members == {Aff(Q(0), Q(2)), Aff(Q(1), Q(2))}


def test_left_counts():
    assert len(left_L_count(get_pair("z:1"), get_pair("z:1").identity())) == 1
    # BC: conjugation oracle g (n,1) g^{-1} = (n/2, 1), so g H g^{-1}
    # contains H and L((0,2)) = 1
    conj = mat_mul(mat_mul(((Q(1), Q(0)), (Q(0), Q(2))),
                           ((Q(1), Q(1)), (Q(0), Q(1)))),
                   ((Q(1), Q(0)), (Q(0), Q(1, 2))))
    assert conj == ((1, Q(1, 2)), (0, 1))
    bc = get_pair("bcp:2")
    assert len(left_L_count(bc, Aff(Q(0), Q(2)))) == 1
    assert len(left_L_count(bc, Aff(Q(0), Q(1, 2)))) == 2
    # S3: exhaustive oracle says the nontrivial class holds 2 left cosets
    s3 = get_pair("s3-h12")
    h_set = {h.images for h in s3.h_elements()}
    dc = double_coset((2, 1, 0), h_set, perm_mul)
    lefts = {frozenset(perm_mul(y, h) for h in h_set) for y in dc}
    assert len(lefts) == 2
    assert len(left_L_count(s3, s3.parse("perm 2 1 0"))) == 2


def test_relative_modular_values():
    bc = get_pair("bcp:2")
    for h in (Aff(Q(0), Q(1)), Aff(Q(7), Q(1))):
        assert relative_modular(bc, h) == 1
    assert relative_modular(bc, Aff(Q(0), Q(2))) == Q(1, 2)
    # psl2: delta(g2) = 1; the class is symmetric because g2^{-1} = S g2 S^{-1}
    psl = get_pair("psl2z1p:2")
    s = psl.parse("mat 0 -1 1 0")
    g2 = psl.parse("mat 2 0 0 1/2")
    assert psl.mul(psl.mul(s, g2), psl.inv(s)) == psl.inv(g2)
    assert relative_modular(psl, g2) == 1


@pytest.mark.parametrize("label", FG_LABELS)
def test_delta_multiplicative(label):
    pair = get_pair(label)
    rng = random.Random(31)
    shat = pair.shat()
    for _ in range(8):
        x = word(pair, rng.choices(range(len(shat)), k=rng.randint(0, 4)))
        y = word(pair, rng.choices(range(len(shat)), k=rng.randint(0, 4)))
        assert (relative_modular(pair, pair.mul(x, y))
                == relative_modular(pair, x) * relative_modular(pair, y))


def test_unimodularity_verdicts():
    for d in (1, 2):
        assert unimodularity_check(get_pair(f"z:{d}")).verdict is True
    assert unimodularity_check(get_pair("dinf")).verdict is True
    assert unimodularity_check(get_pair("psl2z1p:2")).verdict is True
    for p in (2, 3, 5):
        rep = unimodularity_check(get_pair(f"bcp:{p}"))
        assert rep.verdict is False
        deltas = {g: d for g, d in rep.witnesses}
        assert deltas[Aff(Q(0), Q(p))] == Q(1, p)
    rep = unimodularity_check(get_pair("bc"))
    assert rep.verdict is False
    assert rep.witnesses == [(Aff(Q(0), Q(2)), Q(1, 2))]


def test_invert_double_coset():
    z = get_pair("z:1")
    store = enumerate_ball(z, 5)
    e = store.identity_class()
    assert store.class_inverse(e) == e
    d3 = store.dc(store.lookup(z.parse("zvec 3")))
    dm3 = store.dc(store.lookup(z.parse("zvec -3")))
    assert store.class_inverse(d3) == dm3
    assert store.class_inverse(dm3) == d3

    s3 = get_pair("s3-h12")
    st3 = enumerate_ball(s3, 3)
    d = st3.dc(st3.lookup(s3.parse("perm 2 1 0")))
    assert st3.class_inverse(d) == d   # (13)^{-1} = (13)


@pytest.mark.parametrize("label", FG_LABELS)
def test_r_equals_l_of_inverse(label):
    store = enumerate_ball(get_pair(label), 3)
    for d in store.classes_in_ball(3):
        assert store.class_R(d) == store.class_L(store.class_inverse(d))


@pytest.mark.parametrize("label", FG_LABELS)
def test_interning_soundness(label):
    store = enumerate_ball(get_pair(label), 3)
    assert check_interning_soundness(store) == []
    with pytest.raises(HeckeError, match="too large for exhaustive check"):
        check_interning_soundness(store, limit=len(store) - 1)


def test_orbit_refuses_a_coset_of_another_class():
    # a member of s3-h12's two-coset class, marked as the identity class's
    # before the class's orbit is built, is an interning bug
    store = enumerate_ball(get_pair("s3-h12"), 2)
    d = store.dc(1)
    assert store.dcs[d].member_cids is None
    store.dc_of[2] = store.identity_class()
    with pytest.raises(HeckeError, match="interning bug"):
        store.class_members(d)


@pytest.mark.parametrize("label", FG_LABELS)
def test_ball_partitioned_by_classes(label):
    store = enumerate_ball(get_pair(label), 3)
    ball = set(store.ball_ids(3))
    seen = set()
    classes = store.classes_in_ball(3)
    assert classes == sorted(set(classes))
    for d in classes:
        members = set(store.class_members(d))
        assert len(members) == store.class_R(d)
        assert not (members & seen)
        seen |= members
    assert ball <= seen


@pytest.mark.parametrize("label", FG_LABELS)
def test_wl_lipschitz_along_edges(label):
    store = enumerate_ball(get_pair(label), 4)
    pair = store.pair
    for cid in store.ball:
        for s in pair.shat():
            t = store.lookup(pair.mul(store.reps[cid], s))
            if t is not None and store.wl[t] is not None:
                assert abs(store.wl[t] - store.wl[cid]) <= 1


def test_store_caps():
    pair = get_pair("z:1")
    with pytest.raises(CapExceeded):
        enumerate_ball(pair, 5, Caps(max_cosets=4))
    with pytest.raises(OrbitCapExceeded):
        st = hp.CosetStore(get_pair("psl2z1p:2"), Caps(max_orbit=5))
        g2 = get_pair("psl2z1p:2").parse("mat 2 0 0 1/2")
        st.class_members(st.dc(st.intern(st.pair.mul(g2, g2))))


def test_resumable_bfs_and_orbit_wl():
    pair = get_pair("psl2z1p:2")
    store = enumerate_ball(pair, 1)
    g2 = pair.parse("mat 2 0 0 1/2")
    d = store.dc(store.lookup(g2))
    # orbit interned cosets beyond the ball have unknown depth
    unknown = [m for m in store.class_members(d) if store.wl[m] is None]
    assert unknown
    # resuming the BFS assigns the same depths a fresh enumeration finds
    store.enumerate_to(4)
    fresh = enumerate_ball(pair, 4)
    assert store.radius_complete == 4
    for cid, rep in enumerate(fresh.reps):
        if fresh.wl[cid] is not None:
            assert store.wl[store.lookup(rep)] == fresh.wl[cid]
    # the class spreads over depths 1..4; its word length is the minimum
    depths = sorted(store.wl[m] for m in store.class_members(d))
    assert depths == [1, 1, 2, 2, 3, 4]


def test_ball_is_the_bfs_order_after_orbits():
    # member lists intern cosets past the ball before the BFS resumes, so
    # the ball's order is not id order; each ball is still a prefix of it
    pair = get_pair("psl2z1p:2")
    store = enumerate_ball(pair, 1)
    for d in store.classes_in_ball(1):
        store.class_members(d)
    store.enumerate_to(4)
    assert store.ball != sorted(store.ball)
    assert store.ball[0] == 0
    f = HeckeElement(store, {store.identity_class(): Q(1)})
    for r in range(5):
        prefix = store.ball[:store.ball_ends[r]]
        assert sorted(prefix) == store.ball_ids(r)
        assert operator_matrix(f, r).ball == prefix
    depths = [store.wl[cid] for cid in store.ball]
    assert depths == sorted(depths)
    hist = [0] * 5
    for w in store.wl:
        if w is not None:
            hist[w] += 1
    ends = store.ball_ends
    assert [ends[0]] + [b - a for a, b in zip(ends, ends[1:])] == hist
    with pytest.raises(BallIncomplete, match="complete to 4, requested 5"):
        store.ball_ids(5)


def test_ball_ends_flat_after_saturation():
    # the three cosets of S3 / <(0 1)> are all met by depth 1
    store = enumerate_ball(get_pair("s3-h12"), 5)
    assert store.saturated and store.radius_complete == 5
    assert store.ball_ends == [1, 3, 3, 3, 3, 3]
    ends = store.ball_ends
    assert [ends[0]] + [b - a for a, b in zip(ends, ends[1:])] \
        == [1, 2, 0, 0, 0, 0]
    assert store.ball_ids(5) == [0, 1, 2]


def test_snapshot_deterministic():
    a = enumerate_ball(get_pair("bcp:2"), 3).snapshot()
    b = enumerate_ball(get_pair("bcp:2"), 3).snapshot()
    assert a == b
    assert [c["id"] for c in a["cosets"]] == sorted(c["id"] for c in a["cosets"])


def test_sl2_and_psl2_ball_sizes_agree():
    # -I lies in H, so both variants present the same coset space
    for r in (1, 2, 3):
        assert (len(enumerate_ball(get_pair("sl2z1p:2"), r))
                == len(enumerate_ball(get_pair("psl2z1p:2"), r)))


@pytest.mark.parametrize("label", ["dinf", "s3-h12", "bcp:2", "psl2z1p:2"])
@pytest.mark.parametrize("key", [lambda x: 0, lambda x: x],
                         ids=["too-coarse", "too-fine"])
def test_interning_soundness_flags_wrong_keys(label, key, monkeypatch):
    # a constant key merges every coset into id 0, which the re-tested
    # Schreier edges expose; keying by the element splits each coset Hx
    # over several ids, which the pairwise test exposes
    pair = get_pair(label)
    monkeypatch.setattr(pair, "coset_fingerprint", key)
    assert check_interning_soundness(enumerate_ball(pair, 2))


@pytest.mark.parametrize("label", ["dinf", "s3-h12", "bcp:2", "psl2z1p:2"])
@pytest.mark.parametrize("key", [lambda x: 0, lambda x: x],
                         ids=["too-coarse", "too-fine"])
def test_interning_soundness_flags_wrong_class_keys(label, key, monkeypatch):
    # a constant class key names every coset to the identity class, whose
    # orbit holds H alone; keying by the element splits a class whose
    # orbit then carries several keys
    pair = get_pair(label)
    store = enumerate_ball(pair, 2)
    monkeypatch.setattr(pair, "class_key", key)
    assert check_interning_soundness(store)


def test_class_ids_follow_first_lookup_and_members_are_lazy():
    pair = get_pair("psl2z1p:2")
    store = enumerate_ball(pair, 3)
    g2 = pair.parse("mat 2 0 0 1/2")
    far = store.lookup(pair.mul(pair.mul(g2, g2), g2))
    n = len(store)
    assert store.dc(far) == 0 and store.dc(0) == 1
    assert len(store) == n                 # naming a class interns nothing
    assert store.dcs[0].member_cids is None and store.dcs[0].R is None
    members = store.class_members(0)
    assert len(members) == store.class_R(0) == 96
    assert store.dcs[0].rep_cid == members[0] <= far
    assert all(store.dc(m) == 0 for m in members)


def test_delta_is_unknown_until_r_is():
    # L alone names no modular value: Fraction(L, None) would read L.
    # class_L learns both sizes from the class search, so L is walked alone
    store = enumerate_ball(get_pair("psl2z1p:2"), 2)
    d = store.dc(5)
    assert store._walk(d, "L") == 6
    row = store.snapshot(compute_classes=False)["double_cosets"][d]
    assert (row["L"], row["R"], row["delta"]) == (6, None, None)
    assert store.class_delta(d) == 1
    row = store.snapshot(compute_classes=False)["double_cosets"][d]
    assert (row["L"], row["R"], row["delta"]) == (6, 6, "1")


@pytest.mark.parametrize("read", ["L", "delta", "involution"])
def test_a_deep_class_is_sized_by_the_class_search(monkeypatch, read):
    # L = R = 1,572,864 on the class of g_p^10 is past the orbit cap of a
    # left walk; class_L, class_delta and the involution learn it from the
    # class search, as class_R does, and only the generator classes that
    # seed the search are walked
    from heckepairs import cosets
    walked = []
    walk = cosets.left_L_count

    def counted_walk(pair, g, *args):
        walked.append(g)
        return walk(pair, g, *args)

    monkeypatch.setattr(cosets, "left_L_count", counted_walk)
    pair = get_pair("psl2z1p:2")
    store = hp.CosetStore(pair)
    d = store.class_of(pair.canon(pair.parse("mat 1024 0 0 1/1024")))
    if read == "L":
        assert store.class_L(d) == 1_572_864
    elif read == "delta":
        assert store.class_delta(d) == 1
    else:
        t = basis_element(store, d)
        assert involution(t) == t
    assert (store.dcs[d].L, store.dcs[d].R) == (1_572_864, 1_572_864)
    gens = set(store._gen_classes)
    assert len(walked) == len(gens)
    assert {store.class_of(g) for g in walked} == gens


@pytest.mark.parametrize("label", ["psl2z1p:2", "bcp:2"])
def test_class_sizes_do_not_depend_on_which_is_read_first(label):
    # fresh stores name the classes of word length <= 4 in one order and
    # read (L, R) or (R, L) of each as it is named
    pair = get_pair(label)
    ref = hp.CosetStore(pair)
    classes = sorted(ref.word_lengths(4))
    seen = []
    for first, second in (("class_L", "class_R"), ("class_R", "class_L")):
        store = hp.CosetStore(pair)
        sizes = {}
        for d in classes:
            e = store.class_of(ref.reps[ref.dcs[d].rep_cid])
            sizes[e] = {first: getattr(store, first)(e),
                        second: getattr(store, second)(e)}
        seen.append((sizes, [c.key for c in store.dcs]))
    assert seen[0] == seen[1]
    assert [(ref.dcs[d].L, ref.dcs[d].R) for d in classes] == [
        (row["class_L"], row["class_R"]) for row in seen[0][0].values()]


@pytest.mark.parametrize("label, how, text, ball", [
    ("psl2z1p:2", "class_of", "mat 2 0 0 1/2", [1, 7, 31]),
    ("z:1", "intern", "zvec 5", [1, 3, 5])])
def test_enumeration_starts_at_h_on_a_used_store(label, how, text, ball):
    # cosets interned before the BFS must not stand in for H
    pair = get_pair(label)
    store = hp.CosetStore(pair)
    getattr(store, how)(pair.parse(text))
    store.enumerate_to(2)
    assert not store.saturated
    assert hp.growth_series(store, 2).ball == ball
    assert pair.in_h(store.reps[0])
    assert store.identity_class() == store.dc(0)
    assert store.class_R(store.identity_class()) == 1


@pytest.mark.parametrize("label,radius", [("bcp:2", 8), ("bcp:3", 6)])
def test_bcp_class_search_sizes_every_class_without_orbits(label, radius,
                                                          monkeypatch):
    # Delta != 1 on most of these classes, so L and R are learned apart;
    # each must equal its walk: of HxH's left cosets for L, of Hx^-1H's for R
    built = []
    monkeypatch.setattr(hp.CosetStore, "_compute_orbit",
                        lambda store, start: built.append(start))
    pair = get_pair(label)
    store = enumerate_ball(pair, radius)
    lw = hp.word_length(store, radius)
    assert built == [] and all(o.member_cids is None for o in store.dcs)
    assert sorted(lw.values) == list(range(len(store.dcs)))
    sizes = {d: (store.dcs[d].L, store.dcs[d].R) for d in lw.values}
    for d, (L, R) in sizes.items():
        rep = store.reps[store.dcs[d].rep_cid]
        assert L == len(left_L_count(pair, rep))
        assert R == len(left_L_count(pair, pair.inv(rep)))
    assert sum(L != R for L, R in sizes.values()) > len(sizes) // 2


@pytest.mark.parametrize("p", [2, 3, 5, 11, 23])
def test_bcp_classes_of_word_length_four_number_p_plus_2_squared(p):
    # the count the class search gives on each bcp:p, 16 to 625 classes
    store = hp.CosetStore(get_pair(f"bcp:{p}"))
    assert len(store.word_lengths(4)) == (p + 2) ** 2


@pytest.mark.parametrize("label", [
    "z:1", "z:2", "z:3", "dinf", "s3-h12", "s4-h12", "s4-h12-34", "bcp:2",
    "bcp:3", "bcp:5", "sl2z1p:2", "psl2z1p:2", "psl2z1p:3",
    "z:1*psl2z1p:2", "psl2z1p:2*bcp:2", "dinf*s3-h12"])
def test_class_ids_do_not_depend_on_the_ball(label):
    # the class search steps from each class's rep, and a rep's right coset
    # is all that its products' classes depend on: so whatever ball was
    # enumerated first, the search names the same classes the same way
    r = 8

    def store_at(radius):
        pairs = [get_pair(part) for part in label.split("*")]
        store = hp.CosetStore(ProductPair(*pairs) if len(pairs) == 2
                              else pairs[0])
        if radius is not None:
            store.enumerate_to(radius)
        return store

    def triples(radius):
        store = store_at(radius)
        return [(d, store.dcs[d].key, n)
                for d, n in sorted(store.word_lengths(r).items())]

    bare = triples(None)
    for radius in (r - 3, r, r + 2):
        assert triples(radius) == bare, radius
    # the word length at radius r is the search's, on a bare store as on
    # one enumerated to r, and it enumerates nothing
    store = store_at(None)
    assert hp.word_length(store, r).values \
        == hp.word_length(store_at(r), r).values
    assert store.radius_complete == -1


@pytest.mark.parametrize("label,radius", [
    ("z:2", 12), ("bcp:2", 10), ("psl2z1p:2", 8), ("dinf", 12)])
def test_class_search_costs_its_products(label, radius, monkeypatch):
    # the cost model of a depth, left-coset walks aside: L(s) products for
    # each frontier class d and generator class s, which name
    # supp(T_d * T_s) (one product where L(s) = 1), and an R(s)-product
    # count for each class sized there, charged to the first (d, s) whose
    # support met it, except where R(s) = 1: then c_e = 1 and nothing is
    # counted, so a depth that sizes a class there costs less than the
    # counting rule alone
    store = hp.CosetStore(get_pair(label))
    store.enumerate_to(radius)
    pair = store.pair
    mul, left_reps = pair.mul, store.class_left_reps
    muls = [0]
    paused = [False]

    def counted_mul(x, y):
        muls[0] += not paused[0]
        return mul(x, y)

    def paused_left_reps(dcid):
        paused[0], was = True, paused[0]
        try:
            return left_reps(dcid)
        finally:
            paused[0] = was

    monkeypatch.setattr(pair, "mul", counted_mul)
    monkeypatch.setattr(store, "class_left_reps", paused_left_reps)
    store.word_lengths(0)
    assert muls[0] == 0
    used = counted = 0
    while store.class_search_depth < radius:
        frontier = store._wl_frontier
        before = muls[0]
        assert store._search_depth()
        paused[0] = True
        gens = store._gen_classes
        sized = set(store._wl_frontier)
        want = counting = 0
        for d in frontier:
            for s in gens:
                want += store.dcs[s].L
                counting += store.dcs[s].L
                for e in store.product_support(d, s):
                    if e in sized:
                        sized.discard(e)
                        want += store.dcs[s].R if store.dcs[s].R > 1 else 0
                        counting += store.dcs[s].R
        paused[0] = False
        assert not sized
        assert muls[0] - before == want, store.class_search_depth
        used += want
        counted += counting
    # the rule fires on the one-coset generators of z:2 and bcp:2 only,
    # and saves a product wherever it fires
    if label in ("z:2", "bcp:2"):
        assert used < counted
    else:
        assert used == counted
    assert len(store._wl_classes) == len(store.word_lengths(radius))


@pytest.mark.parametrize("label", ["z:2", "bcp:2", "bcp:3", "dinf"])
def test_class_search_sizes_match_walks_and_orbits(label):
    # a class met through a one-coset generator is sized without counting
    # (m_e = 1 where L(s) = 1, c_e = 1 where R(s) = 1); every size the
    # search learns to depth 6 must equal the class's left walk (L) and
    # its right-H orbit (R)
    pair = get_pair(label)
    store = hp.CosetStore(pair)
    searched = store.word_lengths(6)
    for d in searched:
        obj = store.dcs[d]
        rep = store.reps[obj.rep_cid]
        assert obj.L == len(left_L_count(pair, rep)), d
        assert obj.R == len(store._orbit(obj.rep_cid)), d
    assert len(searched) > 6


def _depth_two_product(label):
    """A store searched to depth 1, its first depth-1 class d, and the
    first generator class s and product x t (x the rep of d, t a left rep
    of s) whose class the store has not named yet: the search meets that
    class at depth 2, in supp(T_d * T_s), first by that product."""
    store = hp.CosetStore(get_pair(label))
    store.word_lengths(1)
    d = store._wl_frontier[0]
    x, key = store.reps[store.dcs[d].rep_cid], store.pair.class_key
    s, y = next((s, y) for s in store._gen_classes
                for y in (store.pair.mul(x, t)
                          for t in store.class_left_reps(s))
                if key(y) not in store._classes)
    return store, d, s, y


@pytest.mark.parametrize("path", ["new-class", "known-class"])
def test_class_search_refuses_a_size_that_is_not_whole(path):
    # z:2's generator classes are one coset each; with L(s) forged to 2
    # after they are sized, the counting rule gives R(e) = 1/2 for the
    # class of x t, whether its key is new to the store or was named
    # before the search meets it
    store, d, s, y = _depth_two_product("z:2")
    store.dcs[s].L = 2
    if path == "known-class":
        e = store.class_of(y)
    else:
        e = len(store.dcs)
    with pytest.raises(NonBiInvariantResult,
                       match=rf"^T\[{d}\]\*T\[{s}\] leaves no R for class "
                             rf"{e}: 1 over 2$"):
        store.word_lengths(2)
    assert store.pair.class_key(y) in store._classes
    assert store.class_search_depth == 1


@pytest.mark.parametrize("label", ["bcp:2", "s4-h12"])
def test_class_search_refuses_a_zero_count(label):
    # with the left reps of inv(s) forged to copies of the identity, for
    # the first generator class s whose inverse has several cosets, a
    # depth-two class e != d gets the count c_e = 0: through a one-coset
    # generator on bcp:2, through a support on s4-h12.  The search refuses
    # it by name and sizes nothing
    store = hp.CosetStore(get_pair(label))
    store.word_lengths(1)
    inv = next(store.dcs[store.class_inverse(s)] for s in store._gen_classes
               if store.class_L(store.class_inverse(s)) > 1)
    inv.left_reps = [store.pair.identity()] * inv.L
    with pytest.raises(NonBiInvariantResult,
                       match=r"^T\[\d+\]\*T\[\d+\] leaves no L for class "
                             r"\d+: \d+ over 0$") as exc:
        store.word_lengths(4)
    e = int(str(exc.value).split("class ")[1].split(":")[0])
    assert store.dcs[e].L is None and store.dcs[e].R is None
    assert store.class_search_depth == 1


@pytest.mark.parametrize("label", ["z:2", "psl2z1p:2"])
@pytest.mark.parametrize("side", ["L", "R"])
def test_class_search_refuses_a_known_size_it_disagrees_with(label, side):
    # a class named by class_of before the search reaches it keeps the
    # size it was given, and the search must refuse to overwrite it: on
    # z:2 through a one-coset generator, on the tree through a support
    store, d, s, y = _depth_two_product(label)
    e = store.class_of(y)
    setattr(store.dcs[e], side, 10**6)
    with pytest.raises(HeckeError, match=rf"^class {e}: {side}=1000000 "
                                         "known, the class search gives") \
            as exc:
        store.word_lengths(2)
    assert not isinstance(exc.value, NonBiInvariantResult)
    assert getattr(store.dcs[e], side) == 10**6


@pytest.mark.parametrize("label,text", [
    ("z:2", "zvec 1 0"), ("bcp:2", "aff 0 2"), ("s4-h12", "perm 1 2 3 0"),
    ("psl2z1p:2", "mat 2 0 0 1/2")])
def test_class_of_computes_a_new_class_key_once(label, text, monkeypatch):
    # naming a new class reuses the key class_of looked it up by
    pair = get_pair(label)
    store = hp.CosetStore(pair)
    g = pair.parse(text)
    key, calls = pair.class_key, []

    def counted_key(x):
        calls.append(x)
        return key(x)

    monkeypatch.setattr(pair, "class_key", counted_key)
    d = store.class_of(g)
    assert len(calls) == 1
    assert d == len(store.dcs) - 1 and store.dcs[d].key == key(g)
    assert store.reps[store.dcs[d].rep_cid] == g
    assert store.class_of(g) == d and len(calls) == 2

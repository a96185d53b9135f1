import dataclasses
import functools
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import heckepairs as hp
from heckepairs.errors import (DomainError, HeckeError, MixedKinds,
                               OrbitCapExceeded, ParseError)
from heckepairs.algebra import structure_constants
from heckepairs.groups import (Z_MAX_DIMENSION, Aff, Dih, HeckePair, Mat2,
                               Perm, PermPair, Vec, _is_prime, get_pair)

import oracles
from conftest import FG_LABELS
from oracles import (aff_to_mat, dih_inv, dih_mul, fraction_aff_class_key,
                     fraction_aff_fingerprint, fraction_aff_in_h,
                     fraction_aff_inv, fraction_aff_mul, group_closure,
                     mat_mul, same_left_coset, same_right_coset, word)


def random_word(pair, rng, max_len=6):
    shat = pair.shat()
    return word(pair, rng.choices(range(len(shat)),
                                  k=rng.randint(0, max_len)))


@pytest.mark.parametrize("label", FG_LABELS)
def test_identity_and_inverse_laws(label):
    pair = get_pair(label)
    rng = random.Random(11)
    e = pair.identity()
    for _ in range(20):
        g = random_word(pair, rng)
        assert pair.mul(e, g) == g
        assert pair.mul(g, e) == g
        assert pair.mul(g, pair.inv(g)) == e
        assert pair.mul(pair.inv(g), g) == e


@pytest.mark.parametrize("label", FG_LABELS)
def test_associativity_exact(label):
    pair = get_pair(label)
    rng = random.Random(23)
    for _ in range(30):
        x, y, z = (random_word(pair, rng) for _ in range(3))
        assert pair.mul(pair.mul(x, y), z) == pair.mul(x, pair.mul(y, z))


def test_s_squared_is_minus_identity():
    # S^2 = -I: equals I in the projective pair, not in the linear one
    psl = get_pair("psl2z1p:2")
    s = psl.parse("mat 0 -1 1 0")
    assert psl.mul(s, s) == psl.identity()
    sl = get_pair("sl2z1p:2")
    s2 = sl.mul(sl.parse("mat 0 -1 1 0"), sl.parse("mat 0 -1 1 0"))
    assert s2 == Mat2((-1, 0, 0, -1), 0, 2)
    assert s2 != sl.identity()


def test_affine_product_matches_matrix_oracle():
    bc = get_pair("bc")
    # oracle: [[1,0],[0,2]] * [[1,1],[0,1]] = [[1,1],[0,2]]
    m = mat_mul(aff_to_mat(0, 2), aff_to_mat(1, 1))
    assert m == ((1, 1), (0, 2))
    got = bc.mul(Aff(Q(0), Q(2)), Aff(Q(1), Q(1)))
    assert got == Aff(Q(1), Q(2))


@given(st.tuples(st.fractions(), st.fractions(min_value=Q(1, 64), max_value=64)),
       st.tuples(st.fractions(), st.fractions(min_value=Q(1, 64), max_value=64)))
@settings(max_examples=60, deadline=None)
def test_affine_product_randomized_against_oracle(x, y):
    bc = get_pair("bc")
    got = bc.mul(Aff(*x), Aff(*y))
    ((_, b), (_, a)) = mat_mul(aff_to_mat(*x), aff_to_mat(*y))
    assert (got.b, got.a) == (b, a)


def _draw_affine(p, data):
    """(b, a) with b in Q and a in Q_{>0} for the full pair (p = None), or
    b in Z[1/p] and a a power of p, as Fractions."""
    if p is None:
        small = st.integers(1, 12)
        return (Q(data.draw(st.integers(-40, 40)), data.draw(small)),
                Q(data.draw(small), data.draw(small)))
    return (Q(data.draw(st.integers(-60, 60)), p ** data.draw(st.integers(0, 4))),
            Q(p) ** data.draw(st.integers(-4, 4)))


def _as_pair(g):
    return (g.b, g.a)


@pytest.mark.parametrize("label,p", [("bc", None), ("bcp:2", 2), ("bcp:3", 3)])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_affine_payload_matches_fraction_oracle(label, p, data):
    # the integer group law and keys against the Fraction rules in
    # oracles.py; y is often x moved inside its right coset or its class,
    # so that both sides of each key comparison are reached
    pair = get_pair(label)
    x = _draw_affine(p, data)
    move = data.draw(st.sampled_from(["none", "coset", "class"]))
    if move == "none":
        y = _draw_affine(p, data)
    else:
        h = (Q(data.draw(st.integers(-5, 5))), Q(1))
        y = fraction_aff_mul(h, x)
        if move == "class":
            y = fraction_aff_mul(y, (Q(data.draw(st.integers(-5, 5))), Q(1)))
    gx, gy = Aff(*x), Aff(*y)
    assert _as_pair(pair.mul(gx, gy)) == fraction_aff_mul(x, y)
    assert _as_pair(pair.inv(gx)) == fraction_aff_inv(x)
    assert pair.in_h(gx) == fraction_aff_in_h(x)
    assert pair.in_h(pair.mul(gx, pair.inv(gy))) == fraction_aff_in_h(
        fraction_aff_mul(x, fraction_aff_inv(y)))
    assert ((pair.coset_fingerprint(gx) == pair.coset_fingerprint(gy))
            == (fraction_aff_fingerprint(x) == fraction_aff_fingerprint(y)))
    assert ((pair.class_key(gx) == pair.class_key(gy))
            == (fraction_aff_class_key(x) == fraction_aff_class_key(y)))
    # one reduced form, however the element is built
    assert all(type(n) is int for n in (gx.B, gx.A, gx.D))
    assert gx.D > 0 and math.gcd(gx.B, gx.A, gx.D) == 1
    assert _as_pair(gx) == x
    g = data.draw(st.integers(1, 6))
    for built in (Aff(Q(gx.B * g, gx.D * g), Q(gx.A * g, gx.D * g)),
                  pair.mul(pair.identity(), gx), pair.mul(gx, pair.identity()),
                  pair.inv(pair.inv(gx))):
        assert (built.B, built.A, built.D) == (gx.B, gx.A, gx.D)
        assert built == gx and hash(built) == hash(gx)
    if x[0].denominator == x[1].denominator == 1:
        assert Aff(int(x[0]), int(x[1])) == gx


def test_affine_group_law_builds_no_fraction(monkeypatch):
    # products, inverses and both keys read and build integers only: the
    # bcp:2 ball and every structure constant on its radius-3 classes
    built = [0]
    new = Q.__new__

    def counted(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Q, "__new__", staticmethod(counted))
    Q(1, 2)
    assert built == [1]         # the counter sees a construction
    built[0] = 0
    store = hp.enumerate_ball(get_pair("bcp:2"), 3)
    classes = store.classes_in_ball(3)
    constants = [structure_constants(store, d1, d2)
                 for d1 in classes for d2 in classes]
    monkeypatch.undo()
    assert built[0] == 0
    assert len(classes) > 1 and all(constants)


def test_sl2_product_matches_fraction_oracle():
    pair = get_pair("psl2z1p:2")
    rng = random.Random(5)
    for _ in range(40):
        x, y = random_word(pair, rng), random_word(pair, rng)
        z = pair.mul(x, y)
        (xa, xb, xc, xd), (ya, yb, yc, yd) = x.to_fractions(), y.to_fractions()
        mx = ((xa, xb), (xc, xd))
        my = ((ya, yb), (yc, yd))
        ((a, b), (c, d)) = mat_mul(mx, my)
        assert (z.to_fractions() == (a, b, c, d)
                or z.to_fractions() == (-a, -b, -c, -d))


def test_projective_canon_respects_group_law():
    pair = get_pair("psl2z1p:2")
    rng = random.Random(3)
    for _ in range(25):
        x, y = random_word(pair, rng), random_word(pair, rng)
        x_neg = Mat2(tuple(-v for v in x.num), x.k, x.p)
        assert pair.canon(x_neg) == x
        assert pair.mul(x_neg, y) == pair.mul(x, y)


def test_canon_idempotent():
    pair = get_pair("psl2z1p:2")
    rng = random.Random(4)
    for _ in range(25):
        g = Mat2(tuple(-v for v in random_word(pair, rng).num), 0, 2)
        g = Mat2(g.num, random_word(pair, rng).k, 2)  # arbitrary payload
        assert pair.canon(pair.canon(g)) == pair.canon(g)


def test_in_h_examples():
    psl = get_pair("psl2z1p:2")
    assert psl.in_h(psl.parse("mat 1 1 0 1"))
    assert not psl.in_h(psl.parse("mat 2 0 0 1/2"))
    bc = get_pair("bc")
    assert not bc.in_h(Aff(Q(1, 2), Q(1)))
    assert bc.in_h(Aff(Q(3), Q(1)))


@pytest.mark.parametrize("label", FG_LABELS)
def test_in_h_is_subgroup_predicate(label):
    pair = get_pair(label)
    rng = random.Random(17)
    hsym = pair.h_gens_sym()
    samples = [pair.identity()]
    for _ in range(15):
        g = pair.identity()
        for _ in range(rng.randint(0, 5)):
            g = pair.mul(g, rng.choice(hsym)) if hsym else g
        samples.append(g)
    for g in samples:
        assert pair.in_h(g)
        assert pair.in_h(pair.inv(g))
        for h in samples:
            assert pair.in_h(pair.mul(g, h))


@pytest.mark.parametrize("label", FG_LABELS)
def test_h_generators_inside_h_and_shat_symmetric(label):
    pair = get_pair(label)
    for h in pair.h_generators:
        assert pair.in_h(h)
    shat = pair.shat()
    for s in shat:
        assert pair.canon(pair.inv(s)) in shat
    # a G generator outside H, given as an H generator, is refused
    outside = next(g for g in pair.g_generators if not pair.in_h(g))
    pair.h_generators = [*pair.h_generators, outside]
    with pytest.raises(HeckeError, match="subgroup generator outside H"):
        HeckePair.__init__(pair)


def test_parse_render_round_trips():
    psl = get_pair("psl2z1p:2")
    s = psl.parse("mat 0 -1 1 0")
    assert s == psl.canon(Mat2((0, -1, 1, 0), 0, 2))
    assert psl.parse(psl.render(s)) == s

    bc = get_pair("bc")
    g = bc.parse("aff 3/4 2")
    assert g == Aff(Q(3, 4), Q(2))
    assert bc.render(g) == "aff 3/4 2"

    z2 = get_pair("z:2")
    v = z2.parse("zvec 3 -4")
    assert z2.render(v) == "zvec 3 -4"

    di = get_pair("dinf")
    d = di.parse("dih -3 -1")
    assert d == Dih(-3, True)
    assert di.parse(di.render(d)) == d

    s3 = get_pair("s3-h12")
    p = s3.parse("perm 2 1 0")
    assert s3.render(p) == "perm 2 1 0"


@given(st.fractions(), st.fractions(min_value=Q(1, 100), max_value=100))
@settings(max_examples=50, deadline=None)
def test_affine_round_trip_randomized(b, a):
    bc = get_pair("bc")
    g = Aff(b, a)
    assert bc.parse(bc.render(g)) == g


def test_parse_errors():
    z1p = get_pair("sl2z1p:2")
    with pytest.raises(DomainError):
        z1p.parse("mat 1 1/3 0 1")       # denominator 3 not a power of 2
    with pytest.raises(DomainError):
        z1p.parse("mat 1 1 1 1")         # det 0
    with pytest.raises(ParseError):
        z1p.parse("mat 1 1 0")           # wrong arity
    err = None
    try:
        z1p.parse("mat 1 x 0 1")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 2

    bc = get_pair("bc")
    with pytest.raises(DomainError):
        bc.parse("aff 1 0")              # a must be positive
    bcp = get_pair("bcp:2")
    with pytest.raises(DomainError):
        bcp.parse("aff 1/3 2")           # denominator 3 not a power of 2
    with pytest.raises(DomainError):
        bcp.parse("aff 0 3")             # a not a power of 2

    s3 = get_pair("s3-h12")
    with pytest.raises(DomainError):
        s3.parse("perm 0 0 1")
    di = get_pair("dinf")
    with pytest.raises(ParseError):
        di.parse("dih 1 2")

    # a denominator must be positive, and an integer token an integer
    for text in ("mat 1 1/0 0 1", "mat 1 1/-2 0 1"):
        with pytest.raises(ParseError, match="denominator must be positive"):
            z1p.parse(text)
    with pytest.raises(ParseError, match="not an integer: 'x'") as exc:
        get_pair("z:2").parse("zvec 1 x")
    assert exc.value.position == 2
    # each kind refuses another kind's head token
    for pair, text, want in ((bcp, "mat 1 0 0 1", "expected 'aff b a'"),
                             (get_pair("z:1"), "perm 1 0", "expected 'zvec"),
                             (s3, "zvec 1 2 3", "expected 'perm"),
                             (di, "aff 1 -1", "expected 'dih n f'")):
        with pytest.raises(ParseError, match=want):
            pair.parse(text)


@pytest.mark.parametrize("label", ["sl2z1p:4", "psl2z1p:9"])
def test_sl2_pairs_refuse_a_composite_p(label):
    with pytest.raises(HeckeError, match="p must be prime, got"):
        get_pair(label)


def test_perm_subgroup_closure_is_capped():
    # H = S_8 has 40320 elements, past the closure's cap of 10^4
    cycle = (1, 2, 3, 4, 5, 6, 7, 0)
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    with pytest.raises(HeckeError, match="subgroup closure exceeded cap"):
        PermPair("s8", 8, [cycle, swap], [cycle, swap])


def test_mixed_kinds():
    psl = get_pair("psl2z1p:2")
    bc = get_pair("bc")
    with pytest.raises(MixedKinds):
        psl.mul(psl.identity(), bc.identity())
    psl3 = get_pair("psl2z1p:3")
    with pytest.raises(MixedKinds):
        psl.mul(psl.identity(), psl3.identity())
    for args in ((bc.identity(), psl.identity()),
                 (psl.identity(), bc.identity())):
        with pytest.raises(MixedKinds):
            bc.mul(*args)
    with pytest.raises(MixedKinds):
        bc.inv(psl.identity())


SLOTS_PAYLOAD_LABELS = ["z:1", "z:2", "z:3", "dinf", "s3-h12", "s4-h12"]


def _as_dataclass(g):
    """The frozen-dataclass payload of g's name, with g's fields."""
    fields = type(g).__slots__
    return getattr(oracles, type(g).__name__)(*(getattr(g, f) for f in fields))


@pytest.mark.parametrize("label", SLOTS_PAYLOAD_LABELS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_slots_payloads_match_dataclass_oracle(label, data):
    # products, inverses, ==, hash and repr of the slots payloads are those
    # of the frozen dataclasses they replaced
    pair = get_pair(label)
    x, y = _draw_element(pair, data), _draw_element(pair, data)
    ox, oy = _as_dataclass(x), _as_dataclass(y)
    for got, want in ((pair.mul(x, y), oracles.dataclass_mul(ox, oy)),
                      (pair.inv(x), oracles.dataclass_inv(ox))):
        assert type(got) is pair.payload_type
        assert _as_dataclass(got) == want
    twin = type(x)(*(getattr(x, f) for f in type(x).__slots__))
    assert twin is not x
    for a, b, oa, ob in ((x, y, ox, oy), (x, twin, ox, ox)):
        assert (a == b) == (oa == ob) and (a != b) == (oa != ob)
        assert hash(a) == hash(oa) and hash(b) == hash(ob)
    assert repr(x) == repr(ox)
    assert x != ox and ox != x


@pytest.mark.parametrize("label", SLOTS_PAYLOAD_LABELS)
def test_slots_payloads_refuse_other_kinds(label):
    # another pair's payload, or the frozen dataclass of the same name,
    # fails the fast type test and then the payload check
    pair = get_pair(label)
    e = pair.identity()
    others = [get_pair(other).identity()
              for other in ("z:2", "dinf", "s3-h12", "bcp:2", "psl2z1p:2")]
    others = [g for g in others if type(g) is not type(e)]
    if isinstance(e, Vec):
        # a vector of another dimension is a payload of another pair
        others.append(Vec((0,) * (pair.d + 1)))
    for g in others + [_as_dataclass(e)]:
        for args in ((e, g), (g, e), (g, g)):
            with pytest.raises(MixedKinds):
                pair.mul(*args)
        with pytest.raises(MixedKinds):
            pair.inv(g)
        with pytest.raises(MixedKinds):
            pair.in_h(g)


# instances of each payload class, built from their field tuples
PAYLOAD_FIELDS = {
    Mat2: [((1, 0, 0, 1), 0, 2), ((1, 0, 0, 1), 0, 3), ((4, 0, 0, 1), 1, 2),
           ((1, 1, 0, 1), 0, 2)],
    Aff: [(1, 2, 1), (1, 2, 3), (0, 1, 1), (-1, 2, 1)],
    Perm: [((1, 0, 2),), ((0, 1, 2),), ((1, 0, 2, 3),)],
    Vec: [((1, 2),), ((2, 1),), ((1, 2, 0),), ((1,),)],
    Dih: [(3, True), (3, False), (-3, True), (0, False)],
}


def _rebuilt(cls, values):
    """A payload with these field values, set without its __init__."""
    x = object.__new__(cls)
    for f, v in zip(dataclasses.fields(cls), values):
        setattr(x, f.name, v)
    return x


@pytest.mark.parametrize("cls", list(PAYLOAD_FIELDS), ids=lambda c: c.__name__)
def test_payload_identity_follows_its_fields(cls):
    # one rule for every payload: an unfrozen slots dataclass whose ==,
    # hash and repr are those of its field tuple
    assert dataclasses.is_dataclass(cls)
    assert not cls.__dataclass_params__.frozen
    names = tuple(f.name for f in dataclasses.fields(cls))
    assert cls.__slots__ == names
    xs = [_rebuilt(cls, v) for v in PAYLOAD_FIELDS[cls]]
    for x, values in zip(xs, PAYLOAD_FIELDS[cls]):
        assert not hasattr(x, "__dict__")
        assert hash(x) == hash(values)
        assert repr(x) == f"{cls.__name__}(" + ", ".join(
            f"{n}={v!r}" for n, v in zip(names, values)) + ")"
        twin = _rebuilt(cls, values)
        assert twin is not x and twin == x and hash(twin) == hash(x)
    for (x, vx), (y, vy) in itertools.product(
            zip(xs, PAYLOAD_FIELDS[cls]), repeat=2):
        assert (x == y) == (vx == vy) and (x != y) == (vx != vy)
    for other, fields in PAYLOAD_FIELDS.items():
        if other is not cls:
            for x, o in itertools.product(
                    xs, (_rebuilt(other, v) for v in fields)):
                assert x != o and o != x and not x == o


def test_dihedral_against_brute_oracle():
    pair = get_pair("dinf")
    rng = random.Random(9)
    for _ in range(40):
        x, y = random_word(pair, rng), random_word(pair, rng)
        got = pair.mul(x, y)
        want = dih_mul((x.shift, x.flip), (y.shift, y.flip))
        assert (got.shift, got.flip) == want
        gi = pair.inv(x)
        assert (gi.shift, gi.flip) == dih_inv((x.shift, x.flip))


def test_dihedral_word_length_matches_bfs_oracle():
    pair = get_pair("dinf")
    gens = [(1, False), (-1, False), (0, True)]
    # brute force: min word length over all products of <= 7 letters
    best = {(0, False): 0}
    frontier = [(0, False)]
    for depth in range(1, 8):
        nxt = []
        for x in frontier:
            for g in gens:
                y = dih_mul(x, g)
                if y not in best:
                    best[y] = depth
                    nxt.append(y)
        frontier = nxt
    for (n, f), d in best.items():
        assert pair.word_length_on_g(Dih(n, f)) == d


def test_perm_pairs_have_expected_orders():
    s3 = get_pair("s3-h12")
    elems = group_closure([g.images for g in s3.g_generators],
                          lambda x, y: tuple(y[i] for i in x), (0, 1, 2))
    assert len(elems) == 6
    assert len(s3.h_elements()) == 2
    s4a = get_pair("s4-h12")
    assert len(s4a.h_elements()) == 2
    s4b = get_pair("s4-h12-34")
    assert len(s4b.h_elements()) == 4


def test_catalog_labels_resolve():
    for label in hp.catalog_labels():
        pair = get_pair(label)
        assert pair.label == label
    with pytest.raises(HeckeError):
        get_pair("nope")
    with pytest.raises(HeckeError):
        get_pair("bcp:4")   # 4 is not prime


@pytest.mark.parametrize("label,message", [
    ("nope", "unknown pair label 'nope'; known: z:1, z:2, dinf,"),
    ("foo:3", "unknown pair label 'foo:3'"),
    ("dinf:1", "unknown pair label 'dinf:1'"),
    # a parameter that is no integer is bad whatever the head
    ("foo:x", "bad pair label 'foo:x'"),
    ("z:x", "bad pair label 'z:x'"),
    ("z:0", "dimension must be >= 1")])
def test_catalog_errors_name_the_label(label, message):
    with pytest.raises(HeckeError) as exc:
        get_pair(label)
    assert str(exc.value).startswith(message)


def _peak_bytes(build, error, message):
    """The traced allocation peak while ``build()`` raises ``error``."""
    tracemalloc.start()
    try:
        with pytest.raises(error, match=message):
            build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_z_dimension_past_its_bound_is_refused_before_allocating():
    # the generators of z:d hold d^2 coordinates, 8 d^2 bytes of references
    # alone; past the bound none is built
    d = Z_MAX_DIMENSION + 1
    message = f"dimension must be <= {Z_MAX_DIMENSION}, got {d}"
    assert _peak_bytes(lambda: get_pair(f"z:{d}"), HeckeError,
                       message) < 8 * d * d
    assert get_pair(f"z:{Z_MAX_DIMENSION}").d == Z_MAX_DIMENSION


def test_perm_spec_compares_lengths_before_building_size_n(tmp_path):
    # a two-point generator of a degree-10^6 spec is refused before the
    # default H or the validation allocates n entries
    n = 10 ** 6
    spec = tmp_path / "big.spec"
    spec.write_text(f"kind=perm\nn={n}\ng_gen=perm 1 0\n")
    peak = _peak_bytes(lambda: hp.load_pair_spec(str(spec)), DomainError,
                       f"not a permutation of 0..{n - 1}")
    assert peak < n         # bytes: far below n machine words
    # without h_gen lines H is still the trivial subgroup, named by the
    # identity
    spec.write_text("kind=perm\nn=3\ng_gen=perm 1 2 0\n")
    pair = hp.load_pair_spec(str(spec))
    assert pair.describe()["h_generators"] == ["perm 0 1 2"]
    assert len(pair.h_elements()) == 1


def test_primality_agrees_with_trial_division_below_1e5():
    def trial(n):
        return n >= 2 and all(n % i for i in range(2, math.isqrt(n) + 1))
    assert [n for n in range(10 ** 5) if _is_prime(n)] == [
        n for n in range(10 ** 5) if trial(n)]


@pytest.mark.parametrize("n", [
    561, 41041,                     # Carmichael numbers
    2047,                           # strong pseudoprime to base 2
    3215031751,                     # ... to the bases 2, 3, 5, 7
    3825123056546413051,            # ... to the bases 2 to 23
    318665857834031151167461,       # ... to the bases 2 to 37
    1000000007 * 1000000009])
def test_pseudoprimes_are_refused_at_once(n):
    t0 = time.perf_counter()
    assert not _is_prime(n)
    with pytest.raises(HeckeError, match="p must be prime"):
        get_pair(f"bcp:{n}")
    assert time.perf_counter() - t0 < 0.1


def test_a_large_prime_is_accepted_at_once():
    t0 = time.perf_counter()
    for label in ("bcp:2305843009213693951", "psl2z1p:2305843009213693951"):
        assert get_pair(label).p == 2 ** 61 - 1
    assert time.perf_counter() - t0 < 0.1


def test_a_p_past_the_exact_primality_bound_is_refused():
    # the bound is itself a strong pseudoprime to all 13 bases, so the
    # test would accept it
    bound = 3_317_044_064_679_887_385_961_981
    for n in (bound, bound + 2, 2 ** 127 - 1):
        with pytest.raises(HeckeError, match=f"p must be below {bound}"):
            get_pair(f"bcp:{n}")


def test_bc_is_not_finitely_generated():
    bc = get_pair("bc")
    assert not bc.finitely_generated
    from heckepairs.errors import NotFinitelyGenerated
    with pytest.raises(NotFinitelyGenerated):
        bc.shat()


def test_load_pair_spec(tmp_path):
    spec = tmp_path / "pair.cfg"
    spec.write_text(
        "kind=perm\nlabel=c4-h2\nn=4\n"
        "g_gen=perm 1 2 3 0\nh_gen=perm 2 3 0 1\n")
    pair = hp.load_pair_spec(str(spec))
    assert pair.label == "c4-h2"
    assert len(pair.h_elements()) == 2
    store = hp.enumerate_ball(pair, 6)
    assert len(store) == 2   # C4 over its order-2 subgroup


def test_validate_domain():
    bcp = get_pair("bcp:2")
    with pytest.raises(DomainError):
        bcp.validate(Aff(Q(0), Q(6)))   # 6 = 2*3 is not a power of 2
    bcp.validate(Aff(Q(5, 8), Q(4)))
    z2 = get_pair("z:2")
    with pytest.raises(DomainError):
        z2.validate(Vec((1, 2, 3)))


# -- coset keys are normal forms ---------------------------------------------


def _draw_element(pair, data):
    """A word in S-hat, or for the full BC pair a small (b, a) with b in Q
    and a in Q_{>0}, so that independent draws often share a coset."""
    if pair.finitely_generated:
        shat = pair.shat()
        return word(pair, data.draw(
            st.lists(st.integers(0, len(shat) - 1), max_size=6)))
    small = st.integers(1, 6)
    b = Q(data.draw(st.integers(-12, 12)), data.draw(small))
    return Aff(b, Q(data.draw(small), data.draw(small)))


def _draw_h_element(pair, data):
    g = pair.identity()
    hs = pair.h_gens_sym()
    if hs:
        for i in data.draw(st.lists(st.integers(0, len(hs) - 1),
                                    max_size=6)):
            g = pair.mul(g, hs[i])
    return g


@pytest.mark.parametrize("label", FG_LABELS + ["bc"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_coset_keys_are_normal_forms(label, data):
    # key equality must agree with the base-class membership test both
    # ways: y = h x shares the coset, an independent y may not
    pair = get_pair(label)
    x = _draw_element(pair, data)
    h = _draw_h_element(pair, data)
    translate = data.draw(st.booleans())
    y = pair.mul(h, x) if translate else _draw_element(pair, data)
    same = same_right_coset(pair, x, y)
    assert same or not translate
    assert (pair.coset_fingerprint(x) == pair.coset_fingerprint(y)) == same
    # the left-coset walk, held to the membership test: its representatives
    # lie in distinct left cosets, and every h x h' lies in exactly one
    # of them (classes above 100 left cosets are too large to compare
    # pairwise)
    try:
        reps = hp.left_L_count(pair, x, 100)
    except OrbitCapExceeded:
        assume(False)
    same_left = functools.partial(same_left_coset, pair)
    assert not any(same_left(s, t)
                   for i, s in enumerate(reps) for t in reps[:i])
    y = pair.mul(pair.mul(h, x), _draw_h_element(pair, data))
    assert sum(same_left(t, y) for t in reps) == 1


def test_base_pair_has_no_coset_key():
    # a missing key must fail loudly: a constant one would merge all cosets
    with pytest.raises(NotImplementedError):
        hp.HeckePair.coset_fingerprint(get_pair("z:1"), Vec((0,)))


@pytest.mark.parametrize("label", FG_LABELS + ["bc"])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_class_keys_are_normal_forms(label, data):
    # key equality must agree with the orbit BFS: y = h x h' shares the
    # class, an independent y shares it exactly when Hy lies in the
    # right-H orbit of Hx
    pair = get_pair(label)
    x = _draw_element(pair, data)
    translate = data.draw(st.booleans())
    y = (pair.mul(pair.mul(_draw_h_element(pair, data), x),
                  _draw_h_element(pair, data))
         if translate else _draw_element(pair, data))
    store = hp.CosetStore(pair)
    orbit = store.class_members(store.dc(store.intern(x)))
    same = store.lookup(y) in orbit
    assert same or not translate
    assert (pair.class_key(x) == pair.class_key(y)) == same


def test_base_pair_has_no_class_key():
    with pytest.raises(NotImplementedError):
        hp.HeckePair.class_key(get_pair("z:1"), Vec((0,)))

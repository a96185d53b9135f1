"""Right-coset interning, ball enumeration and double-coset structure.

The store interns right cosets Hx by their key: every pair's
``coset_fingerprint`` is a normal form of Hx, so key(x) == key(y) exactly
when Hx == Hy, and interning is one dict lookup.  The membership test
x y^{-1} in H stays the arbiter: ``check_interning_soundness`` re-tests a
built store with it in both directions.

Double cosets are named the same way, by the pair's ``class_key``, so
naming a class costs no orbit, and a product x t names its class without
interning x t unless the class is new.  Products of classes are read off
class keys and left-coset representatives (``product_support``), and the
class sizes L and R, the one source of L, R and Delta that a report
reads, are learned by one counting rule along a class-level word-length
search that the store resumes on demand (``word_lengths``).  Both step
from each class's rep,
and the search's products depend on a rep only through its right coset,
so the ids it gives follow from the pair and the calls made on the class
layer, whatever Schreier ball was enumerated.  Member cosets (right-H
orbits) are built only for the code that reads members, and left cosets
are walked only for a right factor of a product or a class the search
has not sized; both walks stay the arbiters of the class keys and of
every learned size.

A one-coset generator class s costs the search less.  Of the L(s)
products x t naming supp(T_d * T_s), m_e <= L(s) land in a class e, so
L(s) = 1 gives one class with m_e = 1, named by one product; and
1 <= c_e <= R(s) on the support, so R(s) = 1 gives c_e = 1 with no count.
When that product's key is new, the class is named and sized in one step.

A store only appends: interning, double-coset orbits, class inverses and
a resumed BFS may add cosets at any time; those appends are deterministic,
so data returned earlier is never invalidated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import (BallIncomplete, CapExceeded, HeckeError,
                     NonBiInvariantResult, NotFinitelyGenerated,
                     OrbitCapExceeded)
from .groups import HeckePair

__all__ = [
    "Caps", "DoubleCoset", "CosetStore",
    "enumerate_ball", "left_L_count", "relative_modular",
    "unimodularity_check", "check_interning_soundness",
]

DEFAULT_MAX_COSETS = 2_000_000
DEFAULT_MAX_ORBIT = 100_000


@dataclass(frozen=True)
class Caps:
    max_cosets: int = DEFAULT_MAX_COSETS
    max_orbit: int = DEFAULT_MAX_ORBIT


@dataclass(slots=True)
class DoubleCoset:
    id: int
    key: object                       # the pair's class key
    rep_cid: int                      # smallest coset id seen in the class
    member_cids: Optional[tuple[int, ...]] = None   # built on demand
    L: Optional[int] = None           # None until learned or walked
    R: Optional[int] = None           # None until learned or built
    inv: Optional[int] = None
    left_reps: Optional[list] = None  # left-coset representatives, cached

    def settle(self, side: str, n: int, source: str) -> None:
        """Record class size ``side`` ("L" or "R"); a known one must agree."""
        known = getattr(self, side)
        if known is not None and known != n:
            raise HeckeError(f"class {self.id}: {side}={known} known, "
                             f"{source} gives {n}")
        setattr(self, side, n)


class CosetStore:
    """Interned right cosets of one pair, with the Schreier ball in BFS
    order and the partition into double cosets."""

    def __init__(self, pair: HeckePair, caps: Caps = Caps()):
        self.pair = pair
        self.caps = caps
        self.reps: list = []                  # cid -> representative element
        self.wl: list[Optional[int]] = []     # cid -> BFS depth (None: > radius_complete)
        # ball cosets in the order the BFS found them, append-only, and
        # radius -> ball size, so the ball of radius r is ball[:ball_ends[r]]
        self.ball: list[int] = []
        self.ball_ends: list[int] = []
        self.dc_of: list[Optional[int]] = []  # cid -> double coset id
        self.dcs: list[DoubleCoset] = []
        self.radius_complete: int = -1
        self.saturated: bool = False          # BFS exhausted the coset space
        self.sc_cache: dict = {}              # (d1, d2) -> {d: int}; see algebra
        # class codes of the pairs of ball cosets, grown by BFS shells and
        # valid as the ball grows; see rd.operator_matrix
        self.class_table = None
        self._ids: dict = {}                  # coset key -> cid
        self._classes: dict = {}              # class key -> double coset id
        self._frontier: list[int] = []
        # the class-level word-length search: class -> word length for the
        # depths done, the last depth's classes, the generator classes
        self._wl_classes: dict[int, int] = {}
        self._wl_frontier: list[int] = []
        self._wl_depth: int = -1
        self._gen_classes: Optional[list[int]] = None
        self._unimod: Optional[UnimodularityReport] = None
        self._intern(pair.identity())         # coset 0 is H

    # -- interning ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.reps)

    def _intern(self, g, insert: bool = True) -> Optional[int]:
        """Id of Hg, interning if new.  ``g`` must already be canonical
        (every pair operation returns canonical representatives; the public
        wrappers canonicalize)."""
        key = self.pair.coset_fingerprint(g)
        cid = self._ids.get(key)
        if cid is not None or not insert:
            return cid
        if len(self.reps) >= self.caps.max_cosets:
            raise CapExceeded(
                f"coset store exceeded max_cosets={self.caps.max_cosets}")
        cid = len(self.reps)
        self.reps.append(g)
        self.wl.append(None)
        self.dc_of.append(None)
        self._ids[key] = cid
        return cid

    def intern(self, g) -> int:
        """Public interning of an element of the pair (``pair.validate``
        refuses any other)."""
        self.pair.validate(g)
        return self._intern(self.pair.canon(g))

    def lookup(self, g) -> Optional[int]:
        """Id of the coset Hg if it is already interned, else None; ``g``
        must be an element of the pair, as for ``intern``."""
        self.pair.validate(g)
        return self._intern(self.pair.canon(g), insert=False)

    # -- ball enumeration ----------------------------------------------------

    def enumerate_to(self, r_max: int) -> None:
        """Run (or resume) the Schreier BFS until the ball of radius
        ``r_max`` is complete.  Each shell is appended to ``ball`` as it
        is found; once the space is exhausted ``ball_ends`` stays flat."""
        pair = self.pair
        shat = pair.shat()
        if self.radius_complete < 0:
            self.wl[0] = 0
            self._frontier = [0]
            self.ball.append(0)
            self.ball_ends.append(1)
            self.radius_complete = 0
        while self.radius_complete < r_max and not self.saturated:
            nxt: list[int] = []
            depth = self.radius_complete + 1
            for cid in self._frontier:
                rep = self.reps[cid]
                for s in shat:
                    tid = self._intern(pair.mul(rep, s))
                    if self.wl[tid] is None:
                        self.wl[tid] = depth
                        nxt.append(tid)
            self._frontier = nxt
            self.ball += nxt
            self.ball_ends.append(len(self.ball))
            self.radius_complete = depth
            if not nxt:
                self.saturated = True
        if self.saturated:
            self.radius_complete = max(self.radius_complete, r_max)
            self.ball_ends += [len(self.ball)] * (
                self.radius_complete + 1 - len(self.ball_ends))

    def ball_ids(self, r: int) -> list[int]:
        """Ids of the ball of radius r, in increasing order."""
        if r > self.radius_complete:
            raise BallIncomplete(
                f"ball complete to {self.radius_complete}, requested {r}")
        return sorted(self.ball[:self.ball_ends[r]]) if r >= 0 else []

    # -- double cosets -------------------------------------------------------

    def dc(self, cid: int) -> int:
        """Double-coset id of a coset, looked up by its class key; a new
        key names a new class, so ids follow the order of first calls."""
        d = self.dc_of[cid]
        if d is not None:
            return d
        return self._name_class(self.pair.class_key(self.reps[cid]), cid)

    def _name_class(self, key, cid: int) -> int:
        """Id of the class with key ``key``, which coset ``cid`` lies in;
        a new key names a new class with ``cid`` as its rep."""
        d = self._classes.get(key)
        if d is None:
            d = self._classes[key] = len(self.dcs)
            self.dcs.append(DoubleCoset(d, key, cid))
        elif cid < self.dcs[d].rep_cid:
            self.dcs[d].rep_cid = cid
        self.dc_of[cid] = d
        return d

    def _orbit(self, start: int) -> tuple[int, ...]:
        """Sorted ids of the right-H orbit of H rep(start), interning it."""
        pair = self.pair
        hs = pair.h_gens_sym()
        members = [start]
        seen = {start}
        i = 0
        while i < len(members):
            x = members[i]
            i += 1
            rep = self.reps[x]
            for h in hs:
                tid = self._intern(pair.mul(rep, h))
                if tid not in seen:
                    if len(members) >= self.caps.max_orbit:
                        raise OrbitCapExceeded(
                            f"right-H orbit exceeded max_orbit="
                            f"{self.caps.max_orbit}")
                    seen.add(tid)
                    members.append(tid)
        return tuple(sorted(seen))

    def _compute_orbit(self, start: int) -> int:
        """Build the member list of the class of ``start``; returns its id."""
        dcid = self.dc(start)
        obj = self.dcs[dcid]
        ordered = self._orbit(start)
        obj.settle("R", len(ordered), "its orbit")
        for m in ordered:
            if self.dc_of[m] is None:
                self.dc_of[m] = dcid
            elif self.dc_of[m] != dcid:
                raise HeckeError(
                    "interning bug: coset already assigned to a double coset")
        obj.member_cids = ordered
        obj.rep_cid = ordered[0]
        return dcid

    def class_of(self, g) -> int:
        """Double-coset id of HgH for a canonical ``g``.  The coset Hg is
        interned only when its class is new, to give the class a rep."""
        key = self.pair.class_key(g)
        d = self._classes.get(key)
        return self._name_class(key, self._intern(g)) if d is None else d

    def class_R(self, dcid: int) -> int:
        """R of the class: a known R at once, else learned by resuming
        the class search on a finitely generated pair, else R(d) = L(inv d)."""
        obj = self.dcs[dcid]
        if obj.R is not None:
            return obj.R
        if self.pair.finitely_generated:
            while obj.R is None and self._search_depth():
                pass
        if obj.R is None:
            obj.R = self.class_L(self.class_inverse(dcid))
        return obj.R

    def class_left_reps(self, dcid: int) -> list:
        """Representatives t_j of the left cosets in the class,
        HxH = t_1 H u ... u t_L H, walked once; their count must be L."""
        obj = self.dcs[dcid]
        if obj.left_reps is None:
            reps = left_L_count(self.pair, self.reps[obj.rep_cid],
                                self.caps.max_orbit)
            obj.settle("L", len(reps), "its left cosets")
            obj.left_reps = reps
        return obj.left_reps

    def class_L(self, dcid: int) -> int:
        """L of the class: as the class search learned it, else walked."""
        obj = self.dcs[dcid]
        if obj.L is None:
            self.class_left_reps(dcid)
        return obj.L

    def unimodularity(self) -> UnimodularityReport:
        """The pair's relative-unimodularity report, read once per store
        off the class records: Delta, a homomorphism trivial on H, of each
        generator's class.  The class search's first depth names and sizes
        those classes as it always does, so no id moves and no generator
        is walked twice.  Without a finite generating set only a failing
        probe is sound, so a True verdict is refused."""
        if self._unimod is None:
            pair = self.pair
            if pair.finitely_generated:
                self.word_lengths(1)
            witnesses = [(s, self.class_delta(self.class_of(pair.canon(s))))
                         for s in pair.unimod_probes()]
            verdict = all(delta == 1 for _, delta in witnesses)
            if verdict and not pair.finitely_generated:
                raise NotFinitelyGenerated(
                    f"{pair.label}: cannot certify unimodularity without a "
                    "finite generating set")
            self._unimod = UnimodularityReport(verdict, witnesses)
        return self._unimod

    def class_delta(self, dcid: int) -> Fraction:
        return Fraction(self.class_L(dcid), self.class_R(dcid))

    def class_inverse(self, dcid: int) -> int:
        obj = self.dcs[dcid]
        if obj.inv is None:
            other = self.class_of(self.pair.inv(self.reps[obj.rep_cid]))
            obj.inv = other
            self.dcs[other].inv = dcid
        return obj.inv

    def class_members(self, dcid: int) -> tuple[int, ...]:
        """Ids of the class's right cosets, built by orbit BFS on first
        use."""
        obj = self.dcs[dcid]
        if obj.member_cids is None:
            self._compute_orbit(obj.rep_cid)
        return obj.member_cids

    def identity_class(self) -> int:
        return self.dc(0)

    # -- products of classes and the class search ----------------------------

    def product_support(self, d1: int, d2: int) -> dict:
        """supp(T_{d1} * T_{d2}) as class id -> [one element of the class,
        how many of the products land in it], in the order met.  With x the
        rep of d1 and the left-coset representatives t of d2,
        H x H d2 = u_t H x t H, so the classes of the x t are exactly the
        support; each is named by its key."""
        return self._support(self.reps[self.dcs[d1].rep_cid],
                             self.class_left_reps(d2))

    def _support(self, x, reps) -> dict:
        """Class id -> [first x t met in it, how many x t land in it] over
        the elements t of ``reps``, in the order met: one product per t."""
        mul, class_of = self.pair.mul, self.class_of
        support: dict = {}
        for t in reps:
            y = mul(x, t)
            e = class_of(y)
            if e in support:
                support[e][1] += 1
            else:
                support[e] = [y, 1]
        return support

    def _count(self, x, reps, want) -> int:
        """How many of the x t, over the elements t of ``reps``, carry the
        class key ``want``: one product per t."""
        mul, key = self.pair.mul, self.pair.class_key
        return sum(key(mul(x, t)) == want for t in reps)

    def word_lengths(self, r: int) -> dict[int, int]:
        """Class id -> word length for every class of word length <= r
        (the least n with the class inside (H S-hat H)^n), resuming the
        class-level search as far as needed."""
        while self._wl_depth < r and self._search_depth():
            pass
        return {d: n for d, n in self._wl_classes.items() if n <= r}

    @property
    def class_search_depth(self) -> int:
        """The last depth the class-level search completed, -1 before it
        starts.  ``word_lengths`` of it is exact even after a cap hit."""
        return self._wl_depth

    def _search_depth(self) -> bool:
        """Run the next depth of the class-level breadth-first search;
        False once there is none.

        From the rep of a class d of the last depth the search steps to
        supp(T_d * T_s) for each generator class s, and sizes each class e
        it meets first by one counting rule.  Of the L(s) products x t that
        name the support, m_e land in e, and c_e = (T_d * T_s)(e).
        Counting the triangles of H-cosets two ways gives
        L(e) c_e = L(d) m_e, and Delta = L/R is multiplicative on the
        support, so R(e) = R(d) R(s) m_e / (L(s) c_e).  A depth is
        recorded only once complete, so a cap hit leaves every recorded
        depth exact.

        One-coset generators cost less.  If L(s) = 1, its one left rep t
        names the whole support, the class e of x t with m_e = 1 (as
        m_e <= L(s)): one product, no support dict.  If R(s) = 1, then
        c_e = 1 with no count, as 1 <= c_e <= R(s) on the support.  A key
        of x t not yet in the class table is a new class, sized in one
        step: x t is interned as its rep and L(e), R(e) are set from the
        rule, with no earlier size to agree with.  A class named before
        (by ``class_inverse`` or a product's support) settles each size,
        so a disagreement raises HeckeError; c_e = 0 or a size that is not
        whole raises NonBiInvariantResult and sets none."""
        if self._wl_depth < 0:
            e = self.identity_class()
            self.dcs[e].L = self.dcs[e].R = 1
            self._wl_classes = {e: 0}
            self._wl_frontier = [e]
            self._wl_depth = 0
            return True
        if not self._wl_frontier:
            return False
        if self._gen_classes is None:
            self._gen_classes = self._generator_classes()
        dcs, wl, classes = self.dcs, self._wl_classes, self._classes
        gens = []   # s, t (its one left rep, or None), reps, inv_reps, R, L
        for s in self._gen_classes:
            reps = self.class_left_reps(s)
            inv_reps = self.class_left_reps(self.class_inverse(s))
            gens.append((s, reps[0] if len(reps) == 1 else None, reps,
                         None if len(inv_reps) == 1 else inv_reps,
                         dcs[s].R, dcs[s].L))
        found: dict[int, None] = {}
        mul, key_of, count = self.pair.mul, self.pair.class_key, self._count
        for d in self._wl_frontier:
            x, want = self.reps[dcs[d].rep_cid], dcs[d].key
            l_d, r_d = dcs[d].L, dcs[d].R
            for s, t, reps, inv_reps, r_s, l_s in gens:
                if t is None:
                    support = self._support(x, reps).items()
                else:
                    y = mul(x, t)
                    e = classes.get(key := key_of(y))
                    if e is None:   # a new class: named, then sized at once
                        cid = self._intern(y)
                        e = classes[key] = self.dc_of[cid] = len(dcs)
                        dcs.append(new := DoubleCoset(e, key, cid))
                        c = 1 if inv_reps is None else count(y, inv_reps, want)
                        if c and not (l_d % c or r_d * r_s % (l_s * c)):
                            new.L, new.R = l_d // c, r_d * r_s // (l_s * c)
                            found[e] = None
                            continue
                    support = ((e, (y, 1)),)
                for e, (y, m) in support:
                    if e in wl or e in found:
                        continue
                    found[e] = None
                    c = 1 if inv_reps is None else count(y, inv_reps, want)
                    for side, num, den in (("L", l_d * m, c),
                                           ("R", r_d * r_s * m, l_s * c)):
                        if not den or num % den:
                            raise NonBiInvariantResult(
                                f"T[{d}]*T[{s}] leaves no {side} for class "
                                f"{e}: {num} over {den}")
                        dcs[e].settle(side, num // den, "the class search")
        self._wl_depth += 1
        for e in found:
            self._wl_classes[e] = self._wl_depth
        self._wl_frontier = list(found)
        return True

    def _generator_classes(self) -> list[int]:
        """The distinct classes of S-hat, in S-hat order, sized by their
        left walks, R(s) = L(inv s): they seed the class search."""
        out = list(dict.fromkeys(self.dc(self._intern(g))
                                 for g in self.pair.shat()))
        for s in out:
            self.dcs[s].settle("R", self.class_L(self.class_inverse(s)),
                               "the left walk of its inverse")
        return out

    def classes_in_ball(self, r: int) -> list[int]:
        """Double-coset ids met by the radius-r ball, in id order."""
        return sorted({self.dc(cid) for cid in self.ball_ids(r)})

    # -- export --------------------------------------------------------------

    def snapshot(self, compute_classes: bool = True) -> dict:
        """JSON-ready snapshot, deterministically ordered by id.  Every
        class it lists has its members built, each as soon as it is named,
        so the cosets they intern get the same ids on every run."""
        pair = self.pair
        if compute_classes:
            i = 0
            while i < len(self.reps):
                self.class_members(self.dc(i))
                i += 1
            for d in range(len(self.dcs)):
                self.class_L(d)
                self.class_members(self.class_inverse(d))
        cosets = [{"id": cid, "rep": pair.render(rep), "wl": self.wl[cid],
                   "dc": self.dc_of[cid]} for cid, rep in enumerate(self.reps)]
        dcs = [{"id": obj.id, "rep": pair.render(self.reps[obj.rep_cid]),
                "R": obj.R, "L": obj.L,
                "delta": (None if obj.L is None or obj.R is None
                          else str(Fraction(obj.L, obj.R))),
                "inv": obj.inv} for obj in self.dcs]
        return {
            "pair": pair.describe(),
            "radius_complete": self.radius_complete,
            "saturated": self.saturated,
            "cosets": cosets,
            "double_cosets": dcs,
        }


# ---------------------------------------------------------------------------
# module-level operations


def enumerate_ball(pair: HeckePair, r_max: int,
                   caps: Caps = Caps()) -> CosetStore:
    """A new store with the full ball {H s1..sk : k <= r_max, s in S-hat}
    enumerated; it grows on later calls like any other store."""
    store = CosetStore(pair, caps)
    store.enumerate_to(r_max)
    return store


def left_L_count(pair: HeckePair, g, max_orbit: int = DEFAULT_MAX_ORBIT) -> list:
    """Representatives of the L(g) left cosets of H inside HgH (so
    L(g) is the length of the list).  tH -> Ht^{-1} maps the left cosets
    of HgH onto the right cosets of Hg^{-1}H, so they are walked as the
    right-H orbit of Hg^{-1}, keyed by ``coset_fingerprint``, and the list
    is inverted at the end: the step y -> y h^{-1} is the inverse of the
    left step t -> h t, so the list holds g first and then each h t in the
    order a left-H walk from gH meets the cosets."""
    h_invs = [pair.inv(h) for h in pair.h_gens_sym()]
    reps = [pair.inv(pair.canon(g))]
    seen = {pair.coset_fingerprint(reps[0])}
    i = 0
    while i < len(reps):
        y = reps[i]
        i += 1
        for h_inv in h_invs:
            z = pair.mul(y, h_inv)
            key = pair.coset_fingerprint(z)
            if key in seen:
                continue
            if len(reps) >= max_orbit:
                raise OrbitCapExceeded(
                    f"left-H orbit exceeded max_orbit={max_orbit}")
            seen.add(key)
            reps.append(z)
    # one element at a time, so no second list is held at the peak
    for i, y in enumerate(reps):
        reps[i] = pair.inv(y)
    return reps


def relative_modular(pair: HeckePair, g,
                     max_orbit: int = DEFAULT_MAX_ORBIT) -> Fraction:
    """Delta(g) = L(g) / R(g) with R(g) = L(g^{-1}); exactly 1 on H.  Both
    counts are walks of ``left_L_count``, so both are right-H orbits keyed
    by ``coset_fingerprint``: of Hg^{-1} for L and of Hg for R.  It reads
    no store: the arbiter of the class records' Delta."""
    if pair.in_h(pair.canon(g)):
        return Fraction(1)
    left = len(left_L_count(pair, g, max_orbit))
    right = len(left_L_count(pair, pair.inv(g), max_orbit))
    return Fraction(left, right)


@dataclass
class UnimodularityReport:
    verdict: bool
    witnesses: list  # (element, Fraction) per probed generator


def unimodularity_check(pair: HeckePair,
                        max_orbit: int = DEFAULT_MAX_ORBIT) -> UnimodularityReport:
    """The unimodularity report of a fresh store of ``pair`` under this
    orbit cap (``CosetStore.unimodularity``)."""
    return CosetStore(pair, Caps(max_orbit=max_orbit)).unimodularity()


def check_interning_soundness(store: CosetStore,
                              limit: int = 10_000) -> list[tuple[int, int]]:
    """Re-test the store's interning with the membership test, in both
    directions.  Keys too fine: distinct ids must hold distinct cosets
    (quadratic in cosets).  Keys too coarse: every Schreier edge from a
    ball coset to an interned coset, tid = lookup(rep(cid) s), must hold
    rep(cid) s rep(tid)^{-1} in H (linear in edges).  Class keys are
    re-tested by the orbit BFS: every coset must lie in the right-H orbit
    of the class its key names (keys not too coarse), and every coset of
    that orbit must carry the class's key (not too fine); they are
    re-tested only once the cosets pass.  Returns
    offending id pairs (empty on a sound store); intended for stores of at
    most ``limit`` cosets."""
    n = len(store)
    if n > limit:
        raise HeckeError(f"store too large for exhaustive check ({n} cosets)")
    pair = store.pair
    bad = []
    invs = [pair.inv(r) for r in store.reps]
    for i in range(n):
        gi = store.reps[i]
        for j in range(i + 1, n):
            if pair.in_h(pair.mul(gi, invs[j])):
                bad.append((i, j))
    for cid in store.ball:
        for s in pair.shat():
            y = pair.mul(store.reps[cid], s)
            tid = store.lookup(y)
            if tid is not None and not pair.in_h(pair.mul(y, invs[tid])):
                bad.append((cid, tid))
    if bad:
        return bad
    orbits: dict[int, set[int]] = {}
    for cid in range(n):
        d = store.dc(cid)
        if d not in orbits:
            rep = store.dcs[d].rep_cid
            orbit = store._orbit(rep)
            orbits[d] = set(orbit)
            key = pair.class_key(store.reps[rep])
            bad.extend((rep, m) for m in orbit
                       if pair.class_key(store.reps[m]) != key)
        if cid not in orbits[d]:
            bad.append((store.dcs[d].rep_cid, cid))
    return bad

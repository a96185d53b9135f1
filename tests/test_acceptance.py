"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Tolerances and budgets are pinned here, not deferred: exact equality for
all rational arithmetic, the stated float tolerances for the spectral
estimators, and the stated wall-clock budgets measured around each body.
"""

import json
import math
import random
import time
from fractions import Fraction as Q

import heckepairs as hp
from heckepairs.algebra import (HeckeElement, basis_element, convolve,
                                identity_element, involution, norms,
                                power_moments)
from heckepairs.cosets import Caps, relative_modular, unimodularity_check
from heckepairs.groups import Aff, get_pair
from heckepairs.lengths import (averaged_length, characteristic_length,
                                check_length_axioms, indicator_length,
                                word_length)
from heckepairs.growth import classify_growth, growth_series
from heckepairs.oracle import finite_group_oracle, oracle_matches_engine
from heckepairs.rd import (kesten_diagnostic, operator_matrix, rd_profile,
                           spectral_lower_bound, truncated_norm)
from heckepairs.verify import golden_snapshot_path

from conftest import FG_LABELS
from oracles import (central_trinomial, covering_radius,
                     exact_truncated_moment)


class criterion:
    def __init__(self, n, text):
        self.n = n
        self.text = text

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        status = "PASS" if exc_type is None else "FAIL"
        dt = time.monotonic() - self.t0
        print(f"\nACCEPTANCE {self.n:>2} [{self.text}]: {status} ({dt:.1f}s)")
        return False


def test_criterion_01_finite_oracle_equivalence():
    with criterion(1, "finite-oracle equivalence") as c:
        for label, h_kind in (("s3-h12", None), ("s4-h12", None),
                              ("s4-h12-34", None)):
            pair = get_pair(label)
            store = hp.enumerate_ball(pair, 12)
            store.snapshot()   # materialize classes, L, inverses
            oracle = finite_group_oracle(
                [g.images for g in pair.g_generators],
                [h.images for h in pair.h_elements()])
            assert oracle_matches_engine(store, oracle) == []
        # includes the pinned S3 identity T_d * T_d = 2 T_e + T_d
        store = hp.enumerate_ball(get_pair("s3-h12"), 6)
        classes = store.classes_in_ball(6)
        e = store.identity_class()
        d = next(x for x in classes if x != e)
        td = basis_element(store, d)
        assert convolve(td, td) == HeckeElement(store, {e: Q(2), d: Q(1)})
        assert time.monotonic() - c.t0 < 5.0


def test_criterion_02_algebra_laws_randomized():
    with criterion(2, "algebra laws, 200 cases per pair") as c:
        # triple products on the tree pairs reach the level-9 sphere
        # (393216 cosets), so the orbit cap is raised above the CLI default
        caps = Caps(max_cosets=2_000_000, max_orbit=500_000)
        for label in FG_LABELS:
            pair = get_pair(label)
            store = hp.enumerate_ball(pair, 3, caps)
            classes = store.classes_in_ball(3)
            rng = random.Random(0xC0FFEE)
            ident = identity_element(store)

            def rand_elt():
                supp = rng.sample(classes,
                                  k=rng.randint(1, min(3, len(classes))))
                return HeckeElement(store, {
                    d: Q(rng.randint(-9, 9), rng.randint(1, 4))
                    for d in supp})

            for _ in range(200):
                f, g, h = rand_elt(), rand_elt(), rand_elt()
                assert convolve(convolve(f, g), h) == convolve(f, convolve(g, h))
                assert convolve(ident, f) == f == convolve(f, ident)
                assert involution(involution(f)) == f
                assert involution(convolve(f, g)) == convolve(
                    involution(g), involution(f))
        assert time.monotonic() - c.t0 < 60.0


def test_criterion_03_unimodularity_verdicts():
    with criterion(3, "unimodularity verdicts") as c:
        for p in (2, 3, 5):
            rep = unimodularity_check(get_pair(f"bcp:{p}"))
            assert rep.verdict is False
            witness = dict(rep.witnesses)
            assert witness[Aff(Q(0), Q(p))] == Q(1, p)
        bc = get_pair("bc")
        rep = unimodularity_check(bc)
        assert rep.verdict is False
        assert dict(rep.witnesses)[Aff(Q(0), Q(2))] == Q(1, 2)
        for p in (2, 3, 5):   # pointwise witnesses on the full pair
            assert relative_modular(bc, Aff(Q(0), Q(p))) == Q(1, p)
        for label in ("z:1", "z:2", "dinf", "psl2z1p:2"):
            assert unimodularity_check(get_pair(label)).verdict is True
        assert time.monotonic() - c.t0 < 10.0


def test_criterion_04_rd_obstruction_deterministic():
    with criterion(4, "RD obstruction on bcp:2"):
        pair = get_pair("bcp:2")
        outcomes = []
        for _ in range(3):
            store = hp.CosetStore(pair)
            outcomes.append(rd_profile(store, None, 6, seed=0))
        assert outcomes[0].verdict == "obstructed-nonunimodular"
        assert outcomes[0] == outcomes[1] == outcomes[2]


def test_criterion_05_growth():
    with criterion(5, "growth balls and verdicts") as c:
        z1 = hp.enumerate_ball(get_pair("z:1"), 40)
        s1 = growth_series(z1, 40)
        assert s1.ball == [2 * r + 1 for r in range(41)]
        v1 = classify_growth(s1)
        assert v1.kind == "polynomial" and abs(v1.alpha - 1) <= 0.3

        z2 = hp.enumerate_ball(get_pair("z:2"), 25)
        s2 = growth_series(z2, 25)
        assert s2.ball == [2 * r * r + 2 * r + 1 for r in range(26)]
        v2 = classify_growth(s2)
        assert v2.kind == "polynomial" and abs(v2.alpha - 2) <= 0.3

        psl = hp.enumerate_ball(get_pair("psl2z1p:2"), 8)
        sp = growth_series(psl, 8)
        vp = classify_growth(sp)
        assert vp.kind == "exponential"
        tail_shell_ratios = [sp.shell[i + 1] / sp.shell[i]
                             for i in range(4, 8)]
        assert min(tail_shell_ratios) >= 3
        assert time.monotonic() - c.t0 < 300.0


def test_criterion_06_tree_side_double_coset_sizes():
    with criterion(6, "tree-side class sizes pinned by snapshot"):
        pair = get_pair("psl2z1p:2")
        store = hp.enumerate_ball(pair, 2)
        # snapshot-pinned regression contract (first derivation matched the
        # 3-regular-tree sphere counts 6 and 24)
        golden = json.loads(golden_snapshot_path("psl2z1p:2", 2).read_text())
        assert store.snapshot() == golden
        pinned = {d["rep"]: d for d in golden["double_cosets"]}
        assert pinned["mat 2 0 0 1/2"]["R"] == 6
        assert pinned["mat 4 0 0 1/4"]["R"] == 24
        g2 = pair.parse("mat 2 0 0 1/2")
        d1 = store.dc(store.lookup(g2))
        d2 = store.dc(store.lookup(pair.mul(g2, g2)))
        assert store.class_R(d1) == pinned["mat 2 0 0 1/2"]["R"]
        assert store.class_R(d2) == pinned["mat 4 0 0 1/4"]["R"]
        for d in (d1, d2):
            assert store.class_R(d) == store.class_L(store.class_inverse(d))
            assert store.class_delta(d) == 1


def test_criterion_07_spectral_estimators_on_z():
    with criterion(7, "spectral estimators on Z") as c:
        store = hp.enumerate_ball(get_pair("z:1"), 50)
        pair = store.pair
        f = HeckeElement(store, {
            store.dc(store.lookup(pair.parse(f"zvec {n}"))): Q(1)
            for n in (-1, 0, 1)})
        moments = power_moments(f, 20)
        assert moments[0] == 3 and moments[1] == 19
        assert moments == [central_trinomial(2 * n) for n in range(1, 21)]
        rho = spectral_lower_bound(f, 20)
        assert 2.70 <= rho[19] <= 3.00
        tn = truncated_norm(operator_matrix(f, store, 50))
        assert abs(tn - (1 + 2 * math.cos(math.pi / 102))) <= 1e-3
        kes = kesten_diagnostic(store, f, 20,
                                config={"kesten.trunc_radius": 50})
        assert kes.amenability_index >= 0.93
        assert time.monotonic() - c.t0 < 60.0


# per-pair radii for the default profile runs of criterion 8
PROFILE_RMAX = {"z:1": 8, "z:2": 6, "dinf": 8, "s3-h12": 6, "s4-h12": 6,
                "s4-h12-34": 6, "bcp:2": 4, "sl2z1p:2": 3, "psl2z1p:2": 3}


def test_criterion_08_estimator_coherence_everywhere():
    with criterion(8, "estimator coherence on default profiles"):
        for label in FG_LABELS:
            pair = get_pair(label)
            store = hp.enumerate_ball(pair, PROFILE_RMAX[label])
            unimod = unimodularity_check(pair)
            prof = rd_profile(store, None, PROFILE_RMAX[label] - 2, seed=0)
            if not unimod.verdict:
                assert prof.verdict == "obstructed-nonunimodular"
            # default symmetrized ball-1 test function
            ball1 = store.classes_in_ball(1)
            f = HeckeElement(store, {d: Q(1) for d in ball1})
            f = Q(1, 2) * (f + involution(f))
            f = Q(1, norms(f).l1_exact) * f
            # rho monotonicity (tol 1e-12)
            moments = power_moments(f, 4)
            rho = [float(a) ** (1 / (2 * n))
                   for n, a in enumerate(moments, start=1)]
            for a, b in zip(rho, rho[1:]):
                assert b >= a - 1e-12
            # moment/matrix exactness at sufficient padding, bit for bit:
            # the ball must hold every member coset the 2n-step moment
            # can reach
            pad = covering_radius(f, 2)
            op = operator_matrix(f, store, pad)
            for n in (1, 2):
                assert exact_truncated_moment(op, n) == moments[n - 1]
            # projection monotonicity (tol 1e-9)
            radii = sorted({1, max(1, pad // 2), pad})
            tns = [truncated_norm(operator_matrix(f, store, r))
                   for r in radii]
            for a, b in zip(tns, tns[1:]):
                assert b >= a - 1e-9
            # rho_n <= truncated norm at covering padding (tol 1e-6)
            assert rho[1] <= tns[-1] + 1e-6
            # l1 upper bound for relatively unimodular pairs (tol 1e-9)
            if unimod.verdict:
                assert tns[-1] <= float(norms(f).l1) + 1e-9


# (enumeration radius, half radius) per pair for criterion 9
LENGTH_RADII = {"z:1": (8, 4), "z:2": (6, 3), "dinf": (8, 4),
                "s3-h12": (6, 3), "s4-h12": (6, 3), "s4-h12-34": (6, 3),
                "bcp:2": (6, 3), "sl2z1p:2": (4, 2), "psl2z1p:2": (4, 2)}


def test_criterion_09_length_function_suite():
    with criterion(9, "length-function axioms, exact"):
        for label in FG_LABELS:
            r, half = LENGTH_RADII[label]
            pair = get_pair(label)
            store = hp.enumerate_ball(pair, r)
            assert check_length_axioms(store, word_length(store), half) == []
            assert check_length_axioms(store, indicator_length(store), half) == []
            if unimodularity_check(pair).verdict:
                lc = characteristic_length(store)
            else:
                lc = characteristic_length(store, use_lr=True)
            assert check_length_axioms(store, lc, half) == []
            if pair.h_elements() is not None and pair.word_length_on_g(
                    pair.identity()) is not None:
                av = averaged_length(pair, pair.word_length_on_g)
                assert check_length_axioms(
                    store, av.as_length_function(store), half) == []
        # the H-averaging bound, exact on the dihedral radius-8 ball:
        # l1(g) <= |H| l(g) + 2 sum_{h in H} l(h)
        pair = get_pair("dinf")
        store = hp.enumerate_ball(pair, 8)
        av = averaged_length(pair, pair.word_length_on_g)
        h_sum = sum(pair.word_length_on_g(h) for h in pair.h_elements())
        for cid in store.ball_ids(8):
            for h in pair.h_elements():
                g = pair.mul(h, store.reps[cid])
                assert av.l1(g) <= len(pair.h_elements()) \
                    * pair.word_length_on_g(g) + 2 * h_sum


def test_criterion_10_rd_compatibility_shadows():
    with criterion(10, "RD compatibility shadows"):
        z1 = hp.enumerate_ball(get_pair("z:1"), 22)
        p1 = rd_profile(z1, None, 20, seed=0)
        assert p1.verdict == "polynomial-compatible"
        assert p1.s_hat is not None and p1.c_hat is not None

        z2 = hp.enumerate_ball(get_pair("z:2"), 12)
        p2 = rd_profile(z2, None, 10, seed=0)
        assert p2.verdict == "polynomial-compatible"
        assert p2.s_hat is not None and p2.c_hat is not None

        psl = hp.enumerate_ball(get_pair("psl2z1p:2"), 6)
        pp = rd_profile(psl, None, 5, seed=0,
                        config={"rd.pad": 1, "rd.n_random": 1,
                                "rd.max_matrix_cost": 500_000})
        assert pp.unimodular
        assert pp.poly_slope is not None and pp.poly_slope <= 2.5


def test_criterion_11_cli_determinism(tmp_path):
    with criterion(11, "byte-identical CLI artifacts"):
        from heckepairs.cli import main
        commands = [
            ["growth", "--pair", "z:2", "--rmax", "10"],
            ["ltable", "--pair", "s4-h12-34", "--rmax", "4"],
            ["rd-profile", "--pair", "z:1", "--rmax", "6", "--seed", "7"],
            ["kesten", "--pair", "dinf", "--rmax", "6"],
            ["enumerate", "--pair", "psl2z1p:2", "--rmax", "2"],
        ]
        for idx, cmd in enumerate(commands):
            blobs = []
            for run in ("a", "b"):
                out = tmp_path / f"{idx}{run}"
                code = main(cmd + ["--out", str(out)])
                assert code == 0
                blobs.append(sorted(
                    (p.name, p.read_bytes()) for p in out.iterdir()))
            assert blobs[0] == blobs[1]

import importlib.machinery
import importlib.util
import inspect
import json
import math
import os
import random
import re
import sys
import warnings
from fractions import Fraction as Q

import numpy as np
import pytest

import heckepairs as hp
from heckepairs import algebra, cli, rd
from heckepairs.algebra import (HeckeElement, basis_element, identity_element,
                                involution, norms, power_moments)
from heckepairs.errors import (BallIncomplete, ConvergenceWarning,
                               HeckeError, NoStableFit,
                               NotRelativelyUnimodular, StoreMismatch)
from heckepairs.groups import get_pair
from heckepairs.lengths import characteristic_length
from heckepairs.config import (RD_DEFAULTS, RD_KEYS, S_GRID_MAX_POINTS,
                               check_domains)
from heckepairs.rd import (RdProfile, RdTestRecord, kesten_diagnostic,
                           operator_matrix, rd_profile, rd_weighted_fit,
                           spectral_lower_bound, truncated_norm)

from oracles import (base_column_matches_f, brute_operator_matrix,
                     central_trinomial, direct_class_table, entries_to_csr,
                     exact_truncated_moment, fraction_weighted_norms,
                     is_symmetric, off_domain, operator_entries,
                     reference_truncated_norm, to_csr)


def z_delta(store, n):
    pair = store.pair
    return basis_element(store, store.dc(store.lookup(pair.parse(f"zvec {n}"))))


def z_walk(store):
    return z_delta(store, -1) + z_delta(store, 0) + z_delta(store, 1)


def written(report, tmp_path):
    """The report as the CLI writes it, read back."""
    path = tmp_path / "report.json"
    cli.write_json(str(path), report)
    return json.loads(path.read_text())


def test_operator_identity_is_identity_matrix(z1_store):
    op = operator_matrix(identity_element(z1_store), 3)
    assert op.dim == 7
    for j, col in enumerate(op.cols):
        assert col == [(j, Q(1))]
    assert truncated_norm(op) == pytest.approx(1.0, abs=1e-9)


def test_operator_z_is_tridiagonal_with_diagonal(z1_store):
    # frozen structure: at R=2 the matrix of delta_{-1}+delta_0+delta_1 is
    # the 5x5 adjacency-plus-identity of the path -2..2
    op = operator_matrix(z_walk(z1_store), 2)
    assert op.dim == 5
    coords = [z1_store.reps[cid].coords[0] for cid in op.ball]
    entries = {(coords[i], coords[j]): v
               for j, col in enumerate(op.cols) for i, v in col}
    assert all(v == 1 for v in entries.values())
    assert set(entries) == {(a, b) for a in range(-2, 3) for b in range(-2, 3)
                            if abs(a - b) <= 1}


def test_operator_s3_row_sums():
    store = hp.enumerate_ball(get_pair("s3-h12"), 3)
    classes = store.classes_in_ball(3)
    d = next(x for x in classes if x != store.identity_class())
    op = operator_matrix(basis_element(store, d), 3)
    assert op.dim == 3
    rows = {}
    for col in op.cols:
        for i, v in col:
            rows[i] = rows.get(i, 0) + v
    assert all(v == store.class_R(d) == 2 for v in rows.values())


def test_operator_base_column_and_symmetry(z1_store):
    f = z_walk(z1_store)
    op = operator_matrix(f, 6)
    assert base_column_matches_f(op, f, z1_store)
    assert is_symmetric(op)
    # row support per column bounded by sum of R over the support
    bound = sum(z1_store.class_R(d) for d in f.coeffs)
    assert all(len(col) <= bound for col in op.cols)


def test_operator_requires_complete_ball(z1_store):
    with pytest.raises(BallIncomplete):
        operator_matrix(identity_element(z1_store), 99)


@pytest.mark.parametrize("label,r", [
    ("z:1", 6), ("z:2", 4), ("dinf", 5), ("s4-h12", 3), ("bcp:2", 3),
    ("psl2z1p:2", 3)])
def test_operator_matrix_matches_member_loop(label, r):
    # radii up, then down (table extension and slicing), then after the
    # store grows (the table is kept); every build interns nothing.  The
    # member lists intern cosets past the ball before the BFS resumes, so
    # the ball's order is not id order there: entries are compared keyed
    # by (row coset id, column coset id)
    store = hp.enumerate_ball(get_pair(label), r)
    classes = store.classes_in_ball(r)
    rng = random.Random(label)

    def check(radius):
        f = HeckeElement(store, {
            d: Q(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
            for d in classes})
        for d in classes:     # member lists are built on first use
            store.class_members(d)
        n = len(store)
        op = operator_matrix(f, radius)
        assert len(store) == n
        entries = brute_operator_matrix(f, store, radius)
        assert sorted(op.ball) == store.ball_ids(radius)
        assert operator_entries(op) == entries
        got, want = to_csr(op), entries_to_csr(entries, op.ball)
        for attr in ("indptr", "indices", "data"):
            a, b = getattr(got, attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), attr

    for radius in list(range(r + 1)) + list(range(r - 1, -1, -1)):
        check(radius)
    store.enumerate_to(r + 1)
    for radius in (r + 1, r - 1):
        check(radius)


def test_operator_products_pinned_by_class_patterns(monkeypatch):
    # over one profile, operator_matrix pays for one class table: at most
    # one product per entry of the largest ball, and fewer than multiplying
    # each member of a class by each column of the largest ball the class
    # was requested on
    pair = get_pair("z:2")
    store = hp.enumerate_ball(pair, 8)
    requested: dict[int, int] = {}
    products = [0]
    inside = [False]
    real_mul, real_operator = pair.mul, rd.operator_matrix

    def mul(x, y):
        products[0] += inside[0]
        return real_mul(x, y)

    def operator(f, radius):
        for d in f.coeffs:
            requested[d] = max(requested.get(d, -1), radius)
        inside[0] = True
        try:
            return real_operator(f, radius)
        finally:
            inside[0] = False

    monkeypatch.setattr(pair, "mul", mul)
    monkeypatch.setattr(rd, "operator_matrix", operator)
    rd_profile(store, 6, seed=0)
    dim = len(store.ball_ids(max(requested.values())))
    member_loop = sum(store.class_R(d) * len(store.ball_ids(radius))
                      for d, radius in requested.items())
    assert 0 < products[0] <= dim ** 2
    assert products[0] < member_loop


def test_operator_builds_no_orbit_and_interns_nothing(monkeypatch):
    # the class table reads class keys of products: no member list is
    # built, and no coset is interned, however large the support classes
    pair = get_pair("psl2z1p:2")
    store = hp.CosetStore(pair)
    orbits = []
    sizes = []
    real_operator = rd.operator_matrix

    def operator(f, radius):
        n = len(f.store)
        op = real_operator(f, radius)
        sizes.append((n, len(f.store)))
        return op

    monkeypatch.setattr(hp.CosetStore, "_compute_orbit",
                        lambda self, start: orbits.append(start))
    monkeypatch.setattr(rd, "operator_matrix", operator)
    prof = rd_profile(store, 4, seed=0)
    assert orbits == []
    assert sizes and all(before == after for before, after in sizes)
    assert all(rec.trunc_norm > 0 for rec in prof.records)


def test_class_table_finds_classes_named_after_it():
    # codes are keyed by class key: a table built before any class is
    # named still gives the entries of a class named afterwards
    store = hp.enumerate_ball(get_pair("z:2"), 4)
    zero = operator_matrix(HeckeElement(store, {}), 4)
    assert zero.dim == 41 and len(zero.indices) == 0
    assert store.dcs == [] and store.class_table.radius == 4
    ball = store.ball_ids(3)
    d1, d2 = store.dc(ball[7]), store.dc(ball[-1])
    f = HeckeElement(store, {d1: Q(2), d2: Q(-3, 5)})
    op = operator_matrix(f, 3)
    entries = brute_operator_matrix(f, store, 3)
    assert op.ball == store.ball_ids(3)
    assert operator_entries(op) == entries
    assert len(op.indices) > 0
    got, want = to_csr(op), entries_to_csr(entries, op.ball)
    for attr in ("indptr", "indices", "data"):
        a, b = getattr(got, attr), getattr(want, attr)
        assert a.dtype == b.dtype and np.array_equal(a, b), attr


def test_class_table_cap_skips_truncated_norm():
    # 16 * max_cosets = 1600 entries hold the 25-coset ball of radius 3,
    # not the 41-coset ball of radius 4: the profile zeroes the truncated
    # norm from r = 2 on, and the refused extensions leave the table as is
    pair = get_pair("z:2")
    store = hp.CosetStore(pair, hp.Caps(max_cosets=100))
    prof = rd_profile(store, 4, seed=0)
    assert prof.partial
    assert all((rec.trunc_norm > 0) == (rec.r < 2) for rec in prof.records)
    assert prof.warnings == [
        f"truncated norm skipped at r={r}: class table of {n} cosets "
        f"exceeds 1600 entries (16 * max_cosets=100)"
        for r, n in ((2, 41), (3, 61), (4, 85))]
    table = store.class_table
    assert table.radius == 3 and len(table.codes) == 25
    assert table.codes.shape == (25, 25)


def assert_table_matches_direct_fill(table, store, radius):
    names = {code: key for key, code in table.code_of.items()}
    want = direct_class_table(store, radius)
    got = table.codes.tolist()
    assert len(got) == len(want) == store.ball_ends[radius]
    assert [[names[c] for c in row] for row in got] == want


# (pair, radius) of the balls whose move-filled class tables are checked
# entry by entry against the direct fill
TABLE_BALLS = [("z:1", 10), ("z:2", 8), ("dinf", 8), ("s4-h12", 4),
               ("psl2z1p:2", 5), ("psl2z1p:3", 3), ("sl2z1p:2", 3),
               ("bcp:2", 4)]


@pytest.mark.parametrize("label,radius", TABLE_BALLS)
def test_class_table_moves_match_the_direct_fill(label, radius):
    # generator moves copy entries between rows; every entry must still
    # be the class of rep(x_i) rep(x_j)^{-1}, whether the table grows
    # shell by shell or in one jump
    pair = get_pair(label)
    store = hp.enumerate_ball(pair, radius)
    steps = rd._ClassTable(pair)
    for r in range(radius + 1):
        steps.extend(store, r)
    jump = rd._ClassTable(pair)
    jump.extend(store, radius)
    for table in (steps, jump):
        assert_table_matches_direct_fill(table, store, radius)


@pytest.mark.parametrize("label,radius", TABLE_BALLS)
def test_class_table_moves_on_a_ball_out_of_id_order(label, radius):
    # member lists, and a coset of the next shell, are interned before
    # the BFS resumes, so ball positions and coset ids part; the moves
    # follow ball positions, and a move that led off the radius-1 ball
    # is looked up again once the ball has grown
    pair = get_pair(label)
    store = hp.CosetStore(pair)
    store.enumerate_to(1)
    table = rd._ClassTable(pair)
    table.extend(store, 1)
    for d in store.classes_in_ball(1):
        store.class_members(d)
    last = store.reps[store.ball[-1]]
    store.intern(next(g for g in (pair.mul(last, t)
                                  for t in reversed(pair.shat()))
                      if store.lookup(g) is None))
    store.enumerate_to(radius)
    n = store.ball_ends[radius]
    assert store.ball[:n] != sorted(store.ball[:n])
    table.extend(store, radius)
    assert_table_matches_direct_fill(table, store, radius)


@pytest.mark.parametrize("label,radius,share", [("z:2", 12, 0.10),
                                                ("psl2z1p:2", 6, 0.25)])
def test_class_table_pays_few_products(monkeypatch, label, radius, share):
    # the direct fill pays dim (dim - 1) / 2 class-key products; the moves
    # leave 6.0 % of them on z:2 and 22 % on the tree.  Every class key
    # the fill reads is a product's, except one inverse key per new code
    pair = get_pair(label)
    store = hp.enumerate_ball(pair, radius)
    table = rd._ClassTable(pair)
    codes = len(table.code_of)
    calls = [0]
    real_key = pair.class_key

    def key(x):
        calls[0] += 1
        return real_key(x)

    monkeypatch.setattr(pair, "class_key", key)
    table.extend(store, radius)
    products = calls[0] - (len(table.code_of) - codes)
    dim = store.ball_ends[radius]
    assert 0 < products <= share * dim * (dim - 1) / 2


@pytest.fixture(scope="module", params=[("z:2", 10), ("psl2z1p:2", 5)],
                ids=["z:2", "psl2z1p:2"])
def profiled(request):
    """One default profile of the pair to r_max: its store, each operator
    it built as (f, radius, op), and each record with its f, length and
    grid."""
    label, r_max = request.param
    store = hp.CosetStore(get_pair(label))
    ops, records = [], []
    real_operator, real_record = rd.operator_matrix, rd._test_record

    def operator(f, radius):
        ops.append((f, radius, real_operator(f, radius)))
        return ops[-1][2]

    def record(r, family, nonneg, f, l, grid, powers, profile):
        rec = real_record(r, family, nonneg, f, l, grid, powers, profile)
        records.append((f, l, list(grid), rec))
        return rec

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rd, "operator_matrix", operator)
        mp.setattr(rd, "_test_record", record)
        rd_profile(store, r_max, seed=1)
    return store, ops, records


def fraction_data(op):
    return np.array([float(c) for c in op.coeffs])[op.terms]


def test_profile_operators_equal_cold_builds(profiled):
    # the ball, random and signed functions of one radius share one
    # pattern; each shared or fresh build must equal a build on a new
    # table and the CSR of the direct class-key fill, array for array
    store, ops, _ = profiled
    dim_max = max(op.dim for _, _, op in ops)
    radius_max = max(r for _, r, op in ops if op.dim == dim_max)
    keys = direct_class_table(store, radius_max)
    key_id: dict = {}
    direct = np.array([[key_id.setdefault(k, len(key_id)) for k in row]
                       for row in keys], dtype=np.int64)
    shared = 0
    for n, (f, radius, op) in enumerate(ops):
        table = store.class_table
        store.class_table = rd._ClassTable(store.pair)
        try:
            cold = operator_matrix(f, radius)
        finally:
            store.class_table = table
        term = np.zeros(len(key_id), dtype=np.int64)
        for k, d in enumerate(sorted(f.num)):
            if store.dcs[d].key in key_id:
                term[key_id[store.dcs[d].key]] = k + 1
        hit = term[direct[:op.dim, :op.dim]]
        rows, cols = np.nonzero(hit)
        want = {"indptr": np.concatenate(
                    ([0], np.cumsum(np.bincount(rows, minlength=op.dim)))),
                "indices": cols, "terms": hit[rows, cols] - 1,
                "data": fraction_data(op)}
        for attr, value in want.items():
            got = getattr(op, attr)
            assert got.shape == value.shape and (got == value).all(), attr
            again = getattr(cold, attr)
            assert again.dtype == got.dtype, attr
            assert again.shape == got.shape and (again == got).all(), attr
        assert op.nums == cold.nums and op.den == cold.den
        assert op.indptr.dtype == op.indices.dtype == np.int32
        assert op.terms.dtype == np.int32
        shared += n > 0 and op.indptr is ops[n - 1][2].indptr
    assert shared > 0
    f, radius, op = ops[-1]
    assert store.class_table.pattern[0] == (op.dim, sorted(f.num))
    assert store.class_table.pattern[1] == (op.indptr, op.indices, op.terms)


def test_the_table_keeps_one_pattern():
    # one slot: a second support replaces the first pattern, a repeat of
    # it shares the arrays, and shared arrays are read-only
    store = hp.enumerate_ball(get_pair("z:1"), 4)
    a = operator_matrix(z_walk(store), 3)
    table = store.class_table
    assert table.pattern[1] == (a.indptr, a.indices, a.terms)
    b = operator_matrix(z_walk(store), 3)
    assert all(x is y for x, y in zip(table.pattern[1],
                                      (b.indptr, b.indices, b.terms)))
    assert b.indptr is a.indptr and b.terms is a.terms
    with pytest.raises(ValueError):
        b.indices[0] = 0
    c = operator_matrix(z_walk(store), 4)
    assert c.indptr is not a.indptr and len(table.pattern) == 2
    assert table.pattern[0] == (c.dim, sorted(z_walk(store).num))
    d = operator_matrix(identity_element(store), 4)
    assert table.pattern[0] == (d.dim, [store.identity_class()])
    assert d.indices.tolist() == list(range(d.dim))


def test_profile_weighted_norms_equal_the_fraction_oracle(profiled):
    # the profile computes each class's powers once; every record's norms
    # are still the floats of the Fraction loop
    _, _, records = profiled
    assert records
    for f, l, grid, rec in records:
        assert rec.weighted_norms == fraction_weighted_norms(f, l, grid)
        assert rec.weighted_norms == algebra.weighted_norms(f, l, grid, {})


@pytest.mark.parametrize("label,r_max", [("z:1", 8), ("z:2", 4),
                                         ("psl2z1p:2", 3), ("bcp:2", 5),
                                         ("bcp:3", 4)])
def test_truncated_norm_equals_the_linalg_reference(monkeypatch, label,
                                                    r_max):
    # sqrt(w . w) is what np.linalg.norm computes for a 1-D float64
    # array, and the scipy kernels run on the operator's arrays are the
    # products of the scipy matrices A and A.T.tocsr(), in the same order,
    # so every norm is the same float, capped or not.  The bcp pairs are
    # not relatively unimodular: rd-profile builds no operator there, and
    # kesten's, as `hecke kesten --rmax r_max` builds it, is not symmetric,
    # so A^T w is not A w
    ops = []
    real_operator = rd.operator_matrix

    def operator(f, radius):
        ops.append(real_operator(f, radius))
        return ops[-1]

    monkeypatch.setattr(rd, "operator_matrix", operator)
    store = hp.enumerate_ball(get_pair(label), r_max)
    if store.unimodularity().verdict:
        store.enumerate_to(r_max + RD_DEFAULTS["rd.pad"])
        rd_profile(store, r_max, seed=0)
    else:
        kesten_diagnostic(store, config={"kesten.n": 1})
        assert not all(is_symmetric(op) for op in ops)
    assert ops
    for op in ops:
        assert truncated_norm(op) == reference_truncated_norm(op)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            for k in (1, 2, 7):
                assert (truncated_norm(op, max_iter=k)
                        == reference_truncated_norm(op, max_iter=k))


def test_library_builds_no_sparse_matrix(monkeypatch):
    # the power iteration runs scipy's kernels on the operator's own
    # arrays: neither A nor its transpose becomes a scipy matrix
    import scipy.sparse as sp

    def refuse(*args, **kwargs):
        raise AssertionError("a scipy sparse matrix was built")

    for name in ("csr_matrix", "csc_matrix"):
        monkeypatch.setattr(getattr(sp, name), "__init__", refuse)
        monkeypatch.setattr(sp, name, refuse)
    with pytest.raises(AssertionError):
        sp.csr_matrix((2, 2))
    store = hp.enumerate_ball(get_pair("z:2"), 4 + RD_DEFAULTS["rd.pad"])
    prof = rd_profile(store, 4, seed=0)
    assert all(rec.trunc_norm > 0 for rec in prof.records)
    store = hp.enumerate_ball(get_pair("bcp:2"), 5)
    assert kesten_diagnostic(store).trunc_norm > 0


@pytest.mark.parametrize("lost", ["scipy", "kernels"])
def test_missing_kernels_raise_import_error(monkeypatch, lost):
    # the kernels come from scipy's sparse/ directory or not at all: when
    # scipy, or its compiled _sparsetools there, is not found, the power
    # iteration raises ImportError naming scipy and where it looked
    store = hp.enumerate_ball(get_pair("z:1"), 2)
    op = operator_matrix(z_walk(store), 2)
    kernels = rd._sparse_kernels()
    with monkeypatch.context() as patch:
        patch.delitem(sys.modules, "scipy.sparse._sparsetools")
        if lost == "scipy":
            patch.setattr(importlib.util, "find_spec",
                          lambda name, package=None: None)
            where = "sys.path"
        else:
            class Finder(importlib.machinery.FileFinder):
                def find_spec(self, fullname, target=None):
                    return None

            patch.setattr(importlib.machinery, "FileFinder", Finder)
            where = os.path.dirname(kernels.__file__)
        with pytest.raises(ImportError, match="scipy") as err:
            truncated_norm(op)
        assert where in str(err.value)
        assert "scipy.sparse._sparsetools" not in sys.modules
    assert sys.modules["scipy.sparse._sparsetools"] is kernels
    assert truncated_norm(op) == reference_truncated_norm(op)


def test_truncated_norm_closed_form(z1_store):
    # eigenvalues of the 101-point section are 1 + 2cos(k pi / 102)
    op = operator_matrix(z_walk(z1_store), 50)
    want = 1 + 2 * math.cos(math.pi / 102)
    assert truncated_norm(op) == pytest.approx(want, abs=1e-4)


def test_truncated_norm_warns_at_its_iteration_cap(z1_store):
    # one step of power iteration on A^T A reads ||A v|| for a unit v, so
    # the capped value still lies below the converged norm
    op = operator_matrix(z_walk(z1_store), 10)
    with pytest.warns(ConvergenceWarning):
        capped = truncated_norm(op, max_iter=1)
    assert 0 < capped <= truncated_norm(op)


def test_profile_reports_a_capped_power_iteration(monkeypatch, z1_store):
    # the cap's ConvergenceWarning goes into the report, once per radius,
    # and not to stderr; the iteration is still rd.truncated_norm's, so a
    # tracer that wraps it sees every call
    calls = []
    real_norm = rd.truncated_norm

    def norm(*args):
        calls.append(args)
        return real_norm(*args)

    monkeypatch.setattr(rd, "truncated_norm", norm)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        prof = rd_profile(z1_store, 8, config={"rd.max_iter": 3},
                          seed=1)
    assert not [w for w in caught if w.category is ConvergenceWarning]
    assert len(calls) == len(prof.records)
    assert prof.warnings == [
        f"power iteration at r={r} hit its iteration cap (rd.max_iter=3): "
        f"trunc_norm there is not converged" for r in range(9)]
    assert not prof.partial


def test_kesten_reports_a_capped_power_iteration(monkeypatch, tmp_path):
    # as in rd-profile: the cap goes into the report's warnings, not to
    # stderr, through the module-level rd.truncated_norm
    calls = []
    real_norm = rd.truncated_norm

    def norm(*args):
        calls.append(args)
        return real_norm(*args)

    monkeypatch.setattr(rd, "truncated_norm", norm)
    store = hp.enumerate_ball(get_pair("z:1"), 6)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = kesten_diagnostic(store, config={"kesten.n": 2,
                                               "rd.max_iter": 3})
    assert not [w for w in caught if w.category is ConvergenceWarning]
    assert len(calls) == 1
    assert rep.warnings == [
        "power iteration at trunc_radius=6 hit its iteration cap "
        "(rd.max_iter=3): trunc_norm there is not converged"]
    assert written(rep, tmp_path)["warnings"] == rep.warnings
    converged = kesten_diagnostic(store, config={"kesten.n": 2})
    assert rep.trunc_norm < converged.trunc_norm


@pytest.mark.parametrize("label,r_max", [("z:1", 12), ("psl2z1p:2", 6),
                                         ("bcp:2", 5)])
def test_default_kesten_converges(label, r_max, tmp_path):
    store = hp.enumerate_ball(get_pair(label), r_max)
    rep = kesten_diagnostic(store)
    assert rep.trunc_norm > 0
    assert rep.warnings == [] and written(rep, tmp_path)["warnings"] == []


@pytest.mark.parametrize("label,r_max", [("z:1", 30), ("z:2", 6),
                                         ("psl2z1p:2", 5), ("dinf", 5)])
def test_default_profiles_converge(label, r_max):
    # the longest iterations at default settings (993 steps for z:1's
    # signed test function at r = 12) stay under rd.max_iter, so a
    # default report names no capped iteration
    store = hp.enumerate_ball(get_pair(label), r_max + RD_DEFAULTS["rd.pad"])
    prof = rd_profile(store, r_max, seed=1)
    assert prof.records
    assert not [w for w in prof.warnings if "iteration cap" in w]


def test_truncated_norm_of_the_zero_operator(z1_store):
    op = operator_matrix(HeckeElement(z1_store, {}), 3)
    assert op.dim == 7 and op.indices.size == 0
    assert truncated_norm(op) == 0.0


def test_negative_truncation_radius_gives_the_empty_operator():
    # on a store never enumerated the radius is -1 and the class table is
    # fresh; after a larger build the table holds balls of radius >= 0
    # only, and radius -1 must not read one of them
    pair = get_pair("z:1")
    store = hp.CosetStore(pair)
    rep = kesten_diagnostic(store, identity_element(store),
                            config={"kesten.n": 2})
    assert rep.trunc_radius == -1 and rep.trunc_norm == 0.0
    store = hp.enumerate_ball(pair, 3)
    f = z_walk(store)
    assert operator_matrix(f, 3).dim == 7
    op = operator_matrix(f, -1)
    assert op.dim == 0 and op.ball == [] and op.indices.size == 0
    assert list(op.indptr) == [0]
    assert truncated_norm(op) == 0.0


def test_projection_monotonicity(z1_store):
    f = z_walk(z1_store)
    values = [truncated_norm(operator_matrix(f, r))
              for r in (5, 10, 20, 50)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


def test_spectral_lower_bound_values(z1_store):
    assert spectral_lower_bound(identity_element(z1_store), 4) == [1.0] * 4
    f = z_walk(z1_store)
    rho = spectral_lower_bound(f, 20)
    assert rho[0] == pytest.approx(math.sqrt(3), abs=1e-9)
    assert 2.70 <= rho[19] <= 3.00
    # cross-oracle: the moments are central trinomial coefficients
    assert power_moments(f, 5) == [central_trinomial(2 * n)
                                   for n in range(1, 6)]
    for a, b in zip(rho, rho[1:]):
        assert b >= a - 1e-12


def test_moment_roots_round_down_exactly():
    # rho = a^(1/k) is the largest float r with r^k <= a, decided exactly:
    # on the moments T(2n) / 9^n of the normalised z:1 walk (k = 2n) and on
    # seeded random rationals
    cases = [(Q(central_trinomial(2 * n), 9 ** n), 2 * n)
             for n in range(1, 21)]
    rng = random.Random(31)
    cases += [(Q(rng.randint(1, 10 ** 15), rng.randint(1, 10 ** 12)),
               rng.randint(1, 40)) for _ in range(500)]
    for a, k in cases:
        r = rd._nth_root(a, k)
        assert Q(r) ** k <= a < Q(math.nextafter(r, math.inf)) ** k, (a, k)
    assert rd._nth_root(Q(0), 4) == 0.0
    assert rd._nth_root(Q(9, 4), 2) == 1.5


@pytest.mark.parametrize("moment_n,per_record", [(0, 1), (1, 1), (3, 3)])
def test_each_record_computes_its_moments_once(monkeypatch, moment_n,
                                               per_record):
    # the moments give both the root (the last) and l2 (the first is
    # ||f||_2^2), so a record takes no norms beyond its moments; without
    # moments l2 comes from one norms call.  Each record still holds what
    # the last root of spectral_lower_bound and norms(f).l2 give
    calls, fs = [0], []
    real_norms, real_weighted = algebra.norms, rd.weighted_norms

    def counted(f):
        calls[0] += 1
        return real_norms(f)

    def recorded(f, *args):
        fs.append(f)
        return real_weighted(f, *args)

    monkeypatch.setattr(algebra, "norms", counted)
    monkeypatch.setattr(rd, "norms", counted)
    monkeypatch.setattr(rd, "weighted_norms", recorded)
    store = hp.enumerate_ball(get_pair("psl2z1p:2"), 4)
    prof = rd_profile(store, 3, config={"rd.moment_n": moment_n}, seed=1)
    assert len(prof.records) == len(fs) > 10
    assert calls[0] == per_record * len(prof.records)
    for rec, f in zip(prof.records, fs):
        assert rec.l2 == real_norms(f).l2
        assert rec.moment_root == (spectral_lower_bound(f, moment_n)[-1]
                                   if moment_n else 0.0)


def test_moment_matrix_exactness(z1_store):
    # at padding R >= 2 n max-length the compressions see every path, so
    # the convolution moment equals the matrix moment bit for bit
    f = z_walk(z1_store)
    moments = power_moments(f, 3)
    op = operator_matrix(f, 10)
    for n in (1, 2, 3):
        assert exact_truncated_moment(op, n) == moments[n - 1]

    store = hp.enumerate_ball(get_pair("s3-h12"), 6)
    classes = store.classes_in_ball(1)
    g = HeckeElement(store, {d: Q(1, 3) for d in classes})
    g = Q(1, 2) * (g + involution(g))
    m = power_moments(g, 4)
    opg = operator_matrix(g, 6)
    for n in range(1, 5):
        assert exact_truncated_moment(opg, n) == m[n - 1]


def test_lower_bound_coherence(z1_store):
    # rho_n <= truncated norm once the padding covers all length-2n paths
    f = z_walk(z1_store)
    rho = spectral_lower_bound(f, 5)
    for n in range(1, 6):
        tn = truncated_norm(operator_matrix(f, 2 * n))
        assert rho[n - 1] <= tn + 1e-6


def test_l1_upper_bound_for_unimodular(z1_store):
    rng = random.Random(77)
    classes = z1_store.classes_in_ball(5)
    for _ in range(10):
        supp = rng.sample(classes, k=3)
        f = HeckeElement(z1_store, {d: Q(rng.randint(1, 5)) for d in supp})
        tn = truncated_norm(operator_matrix(f, 20))
        assert tn <= float(norms(f).l1) + 1e-9


def test_rd_profile_z_polynomial_compatible():
    store = hp.enumerate_ball(get_pair("z:1"), 22)
    prof = rd_profile(store, 20, seed=0)
    assert prof.verdict == "polynomial-compatible"
    assert prof.s_hat is not None and prof.s_hat <= 1.5
    assert prof.c_hat is not None and prof.c_hat > 0
    floor = 1.0 / math.sqrt(len(store.ball_ids(store.radius_complete)))
    for best in prof.best:
        assert best.ratio >= floor
    assert not prof.warnings


def test_rd_profile_obstructed_for_bcp():
    pair = get_pair("bcp:2")
    runs = []
    for _ in range(2):
        store = hp.CosetStore(pair)
        runs.append(rd_profile(store, 5, seed=3))
    assert runs[0].verdict == "obstructed-nonunimodular"
    assert runs[0] == runs[1]          # deterministic
    assert runs[0].records == []       # no ratio data is even collected


def test_rd_profile_psl2_shell_slope():
    pair = get_pair("psl2z1p:2")
    store = hp.enumerate_ball(pair, 6)
    prof = rd_profile(store, 5,
                      config={"rd.pad": 1, "rd.n_random": 1}, seed=0)
    assert prof.unimodular
    assert prof.poly_slope is not None and prof.poly_slope <= 2.5
    shells = [rec for rec in prof.records if rec.family == "shell"]
    assert [rec.r for rec in shells] == [0, 1, 2, 3, 4, 5]


def test_rd_profile_seed_recorded_and_deterministic():
    a = rd_profile(hp.enumerate_ball(get_pair("z:1"), 8), 6, seed=42)
    b = rd_profile(hp.enumerate_ball(get_pair("z:1"), 8), 6, seed=42)
    assert a == b
    assert a.seed == 42
    assert a.config["rd.pad"] == RD_DEFAULTS["rd.pad"]


@pytest.mark.parametrize("label,r_max,config", [
    ("z:2", 10, {}), ("psl2z1p:2", 5, {"rd.pad": 1})])
def test_rd_profile_searches_classes_to_r_max(label, r_max, config):
    # the records read the word length only on classes of length <= r_max,
    # so the class search stops there; a store searched through the padded
    # radius first gives the same records
    fresh = hp.CosetStore(get_pair(label))
    prof = rd_profile(fresh, r_max, config=config)
    assert fresh.class_search_depth == r_max
    searched = hp.CosetStore(get_pair(label))
    searched.word_lengths(r_max + config.get("rd.pad", RD_DEFAULTS["rd.pad"]))
    assert rd_profile(searched, r_max, config=config).records == prof.records


def test_rd_profile_checks_self_adjointness_once_per_record(monkeypatch):
    # the moments check no self-adjointness: a_n = ||f^{*n}||^2 is a lower
    # bound for every f, so a record calls no involution
    calls = [0]
    real = algebra.involution

    def involution_counted(f):
        calls[0] += 1
        return real(f)

    monkeypatch.setattr(algebra, "involution", involution_counted)
    store = hp.enumerate_ball(get_pair("z:1"), 6)
    prof = rd_profile(store, 4, seed=0)
    assert len(prof.records) == 25
    assert calls[0] == 0
    assert all(rec.moment_root > 0 for rec in prof.records)


def test_kesten_checks_self_adjointness_once(monkeypatch):
    # the moments check no self-adjointness, so a given f costs no
    # involution
    calls = [0]
    real = algebra.involution

    def involution_counted(f):
        calls[0] += 1
        return real(f)

    monkeypatch.setattr(algebra, "involution", involution_counted)
    pair = get_pair("z:1")
    store = hp.enumerate_ball(pair, 6)
    rep = kesten_diagnostic(store, z_walk(store), config={"kesten.n": 3})
    assert calls[0] == 0
    assert len(rep.moments) == 3


def test_reports_read_the_pair_from_the_store():
    # the pair is the store's: no second argument can name another pair
    bcp = hp.enumerate_ball(get_pair("bcp:2"), 2)
    with pytest.raises(NotRelativelyUnimodular):
        characteristic_length(bcp, 2)
    z2 = hp.enumerate_ball(get_pair("z:2"), 4)
    prof = rd_profile(z2, 2, seed=0)
    assert prof.pair == z2.pair.label == "z:2"
    assert prof.verdict != "obstructed-nonunimodular"
    rep = kesten_diagnostic(z2, config={"kesten.n": 2})
    assert rep.pair == "z:2" and rep.relatively_unimodular
    rep = kesten_diagnostic(bcp, config={"kesten.n": 2})
    assert rep.pair == bcp.pair.label == "bcp:2"


def test_unimodularity_verdict_is_the_stores(monkeypatch):
    # one verdict per store, read off its class records by rd-profile,
    # kesten and the characteristic length; no caller can hand in another
    # pair's verdict, and no generator class is walked a second time
    bcp = hp.enumerate_ball(get_pair("bcp:2"), 2)
    assert rd_profile(bcp, 2, seed=0).verdict \
        == "obstructed-nonunimodular"
    z2 = hp.enumerate_ball(get_pair("z:2"), 4)
    pair = z2.pair
    walked = []
    real = hp.cosets.left_L_count

    def counted(pair, g, *args):
        walked.append(pair.class_key(pair.canon(g)))
        return real(pair, g, *args)

    monkeypatch.setattr(hp.cosets, "left_L_count", counted)
    prof = rd_profile(z2, 2, seed=0)
    assert prof.unimodular and prof.verdict != "obstructed-nonunimodular"
    assert kesten_diagnostic(z2, config={"kesten.n": 2}).relatively_unimodular
    characteristic_length(z2, 4)
    generators = {pair.class_key(s) for s in pair.shat()}
    assert generators <= set(walked)
    assert len(walked) == len(set(walked))
    assert z2.unimodularity() is z2.unimodularity()


def synthetic_profile(lowers, **settings):
    """A profile of one nonnegative record per radius r, with lower bound
    ``lowers[r]`` and every weighted norm 1, over the grid 0, 0.5, 1."""
    cfg = dict(RD_DEFAULTS, **{"rd.s_grid_max": 1.0, "rd.s_grid_step": 0.5},
               **settings)
    prof = RdProfile("synthetic", "inconclusive", True, max(lowers), 0, cfg)
    for r, lower in sorted(lowers.items()):
        prof.records.append(RdTestRecord(
            r, "ball", True, lower, lower, r, 0.0, 1.0, lower,
            {s: 1.0 for s in (0.0, 0.5, 1.0)}))
    return prof


def test_rd_weighted_fit_identity_family():
    # a flat profile fits at s = 0; its tail slope is 0.0 exactly, and a
    # slope equal to rd.stable_slope is accepted
    flat = {r: 1.0 for r in range(6)}
    assert rd_weighted_fit(synthetic_profile(flat)) == (0.0, 1.0)
    assert rd_weighted_fit(
        synthetic_profile(flat, **{"rd.stable_slope": 0.0})) == (0.0, 1.0)


def test_rd_weighted_fit_needs_four_radii():
    # with the whole profile as its tail, three flat radii would give a
    # slope; the fit refuses them and takes four
    flat = {"rd.tail_fraction": 1.0}
    with pytest.raises(NoStableFit, match="too few radii"):
        rd_weighted_fit(synthetic_profile({r: 1.0 for r in range(3)}, **flat))
    assert rd_weighted_fit(
        synthetic_profile({r: 1.0 for r in range(4)}, **flat)) == (0.0, 1.0)


def test_rd_weighted_fit_constant_bounds_the_whole_profile():
    # the tail (r >= 2 of 0..5) is flat at 1, and the largest ratio, 3,
    # comes before it: c_hat bounds every sampled radius
    lowers = {r: 1.0 for r in range(6)}
    lowers[0] = 3.0
    assert rd_weighted_fit(synthetic_profile(lowers)) == (0.0, 3.0)


# (pair, r_max, s_hat, c_hat) of default profiles at seed 1
FITS = [("z:1", 8, 0.5, 1.521479751787), ("z:1", 20, 0.5, 1.593324160248),
        ("dinf", 8, 0.5, 1.507182633888), ("z:2", 10, 1.0, 1.241939421996),
        ("psl2z1p:2", 7, 0.0, 2.586161065676)]


@pytest.mark.parametrize("label,r_max,s_hat,c_hat", FITS)
def test_default_profiles_keep_their_fit(label, r_max, s_hat, c_hat):
    prof = rd_profile(hp.CosetStore(get_pair(label)), r_max, seed=1)
    assert prof.verdict == "polynomial-compatible"
    assert prof.s_hat == s_hat
    assert prof.c_hat == pytest.approx(c_hat, rel=1e-9)


def test_rd_weighted_fit_no_stable_fit():
    prof = synthetic_profile({r: math.exp(r) for r in range(8)})
    with pytest.raises(NoStableFit, match="no exponent"):
        rd_weighted_fit(prof)


def test_kesten_z_at_n20():
    store = hp.enumerate_ball(get_pair("z:1"), 50)
    f = z_walk(store)
    rep = kesten_diagnostic(store, f, config={"kesten.n": 20,
                                              "kesten.trunc_radius": 50})
    assert rep.amenability_index >= 0.93
    assert rep.amenability_index <= 1 + 1e-12
    assert rep.l1 == pytest.approx(3.0)
    assert rep.moments[0] == 3 and rep.moments[1] == 19
    for a, b in zip(rep.rho, rep.rho[1:]):
        assert b >= a - 1e-12


def test_kesten_s3_norm_attained():
    store = hp.enumerate_ball(get_pair("s3-h12"), 4)
    rep = kesten_diagnostic(store)
    assert rep.amenability_index == pytest.approx(1.0, abs=1e-6)
    assert rep.relatively_unimodular


def test_kesten_psl2_gap():
    # normalized indicator of the first tree sphere: the simple random
    # walk operator; its norm has a genuine spectral gap below 1
    pair = get_pair("psl2z1p:2")
    store = hp.enumerate_ball(pair, 2)
    g2 = pair.parse("mat 2 0 0 1/2")
    c = store.dc(store.lookup(g2))
    f = basis_element(store, c)
    f = Q(1, 2) * (f + involution(f))
    f = Q(1, norms(f).l1_exact) * f
    rep = kesten_diagnostic(store, f, config={"kesten.n": 8})
    assert 0.5 <= rep.amenability_index <= 0.95
    assert rep.hint.startswith("gap-suggests-nonamenable")


def test_kesten_flags_nonunimodular():
    pair = get_pair("bcp:2")
    store = hp.enumerate_ball(pair, 2)
    rep = kesten_diagnostic(store, config={"kesten.n": 4})
    assert not rep.relatively_unimodular
    assert "flagged" in rep.hint


def test_kesten_takes_a_non_symmetric_f(z1_store):
    # the shift T_1 is unitary: each moment ||T_1^{*n}||^2 is 1
    rep = kesten_diagnostic(z1_store, z_delta(z1_store, 1),
                            config={"kesten.n": 3})
    assert rep.moments == [1, 1, 1]
    assert rep.rho == [1.0, 1.0, 1.0]


def test_kesten_refuses_an_f_from_another_store():
    # class ids follow the order of first calls, so a second z:2 store
    # built in another order gives f's ids to other classes: read against
    # it, f would be another element (index 0.9864 instead of 0.9033)
    pair = get_pair("z:2")
    a = hp.enumerate_ball(pair, 4)
    b = hp.CosetStore(pair)
    b.word_lengths(3)
    b.enumerate_to(4)
    d = a.dc(a.ball[a.ball_ends[4] - 1])
    f = identity_element(a) + basis_element(a, d)
    assert [a.dcs[c].key for c in f.coeffs] != [b.dcs[c].key for c in f.coeffs]
    with pytest.raises(StoreMismatch):
        kesten_diagnostic(b, f)
    rep = kesten_diagnostic(a, f)
    assert rep.amenability_index == pytest.approx(0.9033, abs=1e-4)


def test_overlapping_kesten_thresholds_are_refused(z1_store):
    # an index between amenable_min and nonamenable_max would fit both
    # hints; equal thresholds leave no such index and are allowed
    overlap = {"kesten.amenable_min": 0.5, "kesten.nonamenable_max": 0.9}
    for call in (lambda: kesten_diagnostic(z1_store, config=overlap),
                 lambda: rd_profile(z1_store, 1, config=overlap)):
        with pytest.raises(HeckeError, match=r"kesten\.nonamenable_max=0\.9 "
                           r"exceeds kesten\.amenable_min=0\.5"):
            call()
    rep = kesten_diagnostic(z1_store, config={
        "kesten.n": 1, "kesten.amenable_min": 0.9,
        "kesten.nonamenable_max": 0.9})
    assert rep.hint in ("consistent-with-amenable", "gap-suggests-nonamenable")


def test_kesten_index_at_amenable_min_reads_amenable(z1_store):
    # an index equal to kesten.amenable_min is amenable, also when
    # kesten.nonamenable_max equals it too
    index = kesten_diagnostic(
        z1_store, config={"kesten.n": 1}).amenability_index
    rep = kesten_diagnostic(z1_store, config={
        "kesten.n": 1, "kesten.amenable_min": index,
        "kesten.nonamenable_max": index})
    assert rep.amenability_index == index
    assert rep.hint == "consistent-with-amenable"


def test_rd_profile_keeps_each_warning_once():
    # the five test functions at r = 2 all hold the level-2 class (R = L =
    # 24): its left-coset representatives (the counts of f^{*3}) pass the
    # orbit cap once per function, and the warning is kept once.  The
    # truncated norm reads class keys only, so it never meets the cap
    pair = get_pair("psl2z1p:2")
    store = hp.enumerate_ball(pair, 2, hp.Caps(max_orbit=23))
    prof = rd.rd_profile(store, 2, config={"rd.moment_n": 3})
    assert prof.partial
    at_2 = [rec for rec in prof.records if rec.r == 2]
    assert len(at_2) == 5
    assert all(rec.trunc_norm > 0 for rec in at_2)
    assert prof.warnings == [
        "moments skipped at r=2: left-H orbit exceeded max_orbit=23"]


# the first three cases, then one off each remaining domain row of RD_KEYS
_OFF_DOMAIN = [("rd.s_grid_step", 0.0), ("rd.max_iter", 0), ("kesten.n", -1)]


@pytest.mark.parametrize("key,value", _OFF_DOMAIN + [
    case for case in off_domain(RD_KEYS) if case not in _OFF_DOMAIN])
@pytest.mark.parametrize("call", [
    lambda store, config: rd_profile(store, 1, config=config),
    lambda store, config: kesten_diagnostic(
        store, config={"kesten.n": 1, **config})],
    ids=["rd_profile", "kesten_diagnostic"])
def test_library_calls_check_config_domains(z1_store, call, key, value):
    # the CLI's domain rows hold for library callers too: a step of 0
    # would grow the s grid without end, an iteration cap of 0 would read
    # trunc_norm 0.0
    with pytest.raises(HeckeError, match=re.escape(key)):
        call(z1_store, {key: value})
    with pytest.raises(HeckeError, match=re.escape("rd.tol")):
        call(z1_store, {"rd.tol": math.nan})
    # an unknown key is a config error like the others
    with pytest.raises(HeckeError, match=re.escape("rd.bogus")):
        call(z1_store, {"rd.bogus": 1})


def test_library_values_must_fit_their_defaults_type():
    # a value is set as its default's type only if that type holds it
    # exactly, as on the command line
    store = hp.enumerate_ball(get_pair("z:1"), 6)
    for key, value in (("rd.n_random", 1.9), ("kesten.n", 2.5),
                       ("kesten.trunc_radius", math.inf),
                       ("rd.tol", 10**400), ("rd.pad", "x")):
        with pytest.raises(HeckeError, match=f"'{re.escape(key)}' needs"):
            kesten_diagnostic(store, config={key: value})
    with pytest.raises(HeckeError, match="'rd.n_random' needs int, got 1.9"):
        rd_profile(store, 2, config={"rd.n_random": 1.9})
    rep = kesten_diagnostic(store, config={"kesten.n": 3.0, "rd.tol": 1})
    assert rep.n == 3 and type(rep.n) is int
    assert type(rep.config["rd.tol"]) is float
    prof = rd_profile(store, 2, config={"rd.s_grid_max": 1})
    assert prof.config["rd.s_grid_max"] == 1.0
    assert list(prof.records[0].weighted_norms) == [0.0, 0.25, 0.5, 0.75,
                                                    1.0]


def test_kesten_n_is_the_moment_count_it_echoes():
    store = hp.enumerate_ball(get_pair("z:1"), 6)
    assert "n_moments" not in inspect.signature(kesten_diagnostic).parameters
    for config in (None, {"kesten.n": 3}, {"kesten.n": 0}):
        rep = kesten_diagnostic(store, config=config)
        assert rep.n == rep.config["kesten.n"] == len(rep.moments)


@pytest.mark.parametrize("setting", [{"rd.s_grid_step": 1e-9},
                                     {"rd.s_grid_max": 1e12},
                                     {"rd.s_grid_max": 2500.0}])
def test_oversized_weighted_norm_grid_is_refused(setting):
    # counted from the two values before any grid point is made
    store = hp.enumerate_ball(get_pair("z:1"), 4)
    for call in (lambda: rd_profile(store, 2, config=setting),
                 lambda: kesten_diagnostic(store, config=setting)):
        with pytest.raises(HeckeError, match=r"rd\.s_grid_max=.* and "
                           r"rd\.s_grid_step=.* more than 10000 points"):
            call()


def test_largest_weighted_norm_grid_is_accepted():
    cfg = {**RD_DEFAULTS, "rd.s_grid_max": 2499.75}
    check_domains(cfg, RD_KEYS)
    assert len(rd._s_grid(cfg)) == S_GRID_MAX_POINTS

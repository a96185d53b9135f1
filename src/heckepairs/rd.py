"""Operator-norm lower bounds and the empirical RD / amenability verdicts.

Nothing here ever claims the value of ||lambda(f)||.  The moment roots
a_n^(1/2n) are certified lower bounds for every f, each decided in exact
arithmetic: a_n = ||f^{*n}||^2 is the squared R-norm of
lambda(f)^n delta_H.
The norm of the truncated operator P_R lambda(f) P_R is a float, ||Av||
for the float unit vector v that power iteration ends on, so it is a lower
bound only up to rounding.  For relatively unimodular pairs the l1 norm is
an upper bound.  Verdicts are threshold reports over those raw numbers;
the thresholds live in the config echoed into every report.  A profile
reads word lengths only to its r_max.  Each setting is one row of
``config.RD_KEYS``, its default and its domain; a library call's
``config`` is set and checked by the rule the CLI runs, so the code reads
resolved values of their defaults' types.

A truncated operator holds only its ball, f's ints and its CSR arrays,
gathered from one class table per store.  The table's code ->
inverse-code map is an array grown in place, and the table keeps the
last pattern it gave, so the test functions of one radius that share a
support scan its block once.  Floats come from f's ints, n / den, never
from Fractions; a profile computes each class's weighted-norm powers
once.  numpy is loaded by the class table, the operator and the power
iteration.  Of scipy, the power iteration alone loads one compiled
module, the sparse kernels ``_sparsetools``, straight from its file
without the scipy or scipy.sparse package; it runs them on the
operator's arrays and builds no sparse matrix.  A command that builds no
truncated operator loads neither numpy nor any of scipy.
The exact references that check an operator (its exact matvec, symmetry,
base column and moments) are test oracles, not library code.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .algebra import (HeckeElement, involution, norms, power_moments,
                      weighted_norms)
from .config import RD_DEFAULTS, RD_KEYS, check_domains, set_values
from .cosets import CosetStore
from .errors import (BallIncomplete, CapExceeded, HeckeError, NoStableFit,
                     StoreMismatch)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "TruncatedOperator", "operator_matrix", "truncated_norm",
    "spectral_lower_bound", "RdProfile", "BestRatio", "rd_profile",
    "rd_weighted_fit", "KestenReport", "kesten_diagnostic",
]


def _config(overrides: Optional[dict]) -> dict:
    cfg = dict(RD_DEFAULTS)
    if overrides:
        set_values(cfg, RD_KEYS, overrides.items(), "rd config")
        check_domains(cfg, RD_KEYS)
    return cfg


# ---------------------------------------------------------------------------
# truncated operator


@dataclass
class TruncatedOperator:
    """P_R lambda(f) P_R on the span of the radius-R ball cosets ``ball``,
    listed in the store's BFS order, so H comes first.

    Stored in CSR form: row i holds the columns ``indices[indptr[i]:
    indptr[i + 1]]`` in increasing order, and each entry is the coefficient
    ``nums[terms[k]] / den`` of one support class.  Row and column i are
    the coset ``ball[i]``.  The three index arrays are read-only: operators
    of one support and radius share them.  ``cols`` is the exact view,
    built on first read: the column of the j-th ball coset as (row index,
    Fraction coefficient) pairs; per column the row support is bounded by
    sum_d R(d) over supp(f).  The operator keeps neither f nor its store:
    the exact references that check it against them live with the test
    oracles.
    """

    ball: list[int]
    nums: list[int]     # f's numerator per support class, by class id
    den: int            # f's denominator
    indptr: np.ndarray
    indices: np.ndarray
    terms: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.ball)

    @property
    def data(self) -> np.ndarray:
        """The float value of each stored entry, in CSR order: the
        quotient n / den of f's ints, correctly rounded as
        float(Fraction(n, den)) is, with no Fraction built."""
        import numpy as np

        den = self.den
        return np.array([n / den for n in self.nums])[self.terms]

    @cached_property
    def cols(self) -> list[list[tuple[int, Fraction]]]:
        import numpy as np

        rows = np.repeat(np.arange(self.dim), np.diff(self.indptr))
        order = np.lexsort((rows, self.indices))
        out: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.dim)]
        coeffs = [Fraction(n, self.den) for n in self.nums]
        for i, j, t in zip(rows[order].tolist(), self.indices[order].tolist(),
                           self.terms[order].tolist()):
            out[j].append((i, coeffs[t]))
        return out


# a class table may hold this many entries per coset of the store's
# max_cosets cap: 64 bytes of int32 codes, against the 290-490 bytes the
# store spends on each coset it interns
TABLE_ENTRIES_PER_COSET = 16
_OFF_BALL = 2**31 - 1         # back-index entry of a move that leaves the ball


class _ClassTable:
    """Class codes of the ordered pairs of enumerated ball cosets:
    ``codes[i, j]`` is the code of the class of rep(x_i) rep(x_j)^{-1}
    for the cosets x_i = ``store.ball[i]``, so each ball is a prefix.  A
    code is local to the table and keyed by the pair's class key, not by
    class id, so a class named after the table was built is still found.
    The table grows by whole BFS shells; the store's ball is append-only,
    so its entries stay valid as the ball grows.

    Right translation by any g keeps the class of x y^{-1}, so the entry
    of (H x s^{-1}, H y s^{-1}) is the entry of (Hx, Hy) for every
    generator s.  A row copies its entries along those moves from the
    rows before it; only the entries that no generator reaches are read
    as class keys of products.  Neither names a class nor interns a
    coset.

    The code -> inverse-code map is an int32 array, grown in place
    (doubling) as codes are added, so a row's mirror is one gather.  The
    table also keeps the last operator pattern that ``operator_matrix``
    gathered from it, one entry: (dim, support class ids) -> (indptr,
    indices, terms).  A block's entries never change as the table grows,
    so that pattern stays valid."""

    def __init__(self, pair):
        import numpy as np

        self.pair = pair
        self.radius = -1
        self.codes = np.zeros((0, 0), dtype=np.int32)
        self.code_of: dict = {}       # class key -> code
        self._inverse = np.zeros(16, dtype=np.int32)  # code -> inverse code
        self.pattern = None           # ((dim, support), (indptr, ...))
        self._invs: list = []         # rep(x_i)^{-1}
        # back[s, j]: ball position of H rep(x_j) s^{-1}, else _OFF_BALL
        self._back = None
        e = pair.identity()
        self._identity = self._code(pair.class_key(e), e)

    def _code(self, key, g) -> int:
        """Code of the class with key ``key``, of which ``g`` is one
        element; a new code is given the code of its inverse class by
        inverting ``g``."""
        code = self.code_of.get(key)
        if code is None:
            code = self.code_of[key] = len(self.code_of)
            if code == len(self._inverse):
                import numpy as np

                grown = np.empty(2 * code, dtype=np.int32)
                grown[:code] = self._inverse
                self._inverse = grown
            g_inv = self.pair.inv(g)
            self._inverse[code] = self._code(self.pair.class_key(g_inv),
                                             g_inv)
        return code

    def _grown_back(self, store: CosetStore, n0: int, n: int):
        """The back-index grown to the first ``n`` ball cosets: the new
        columns, and the old ones that led off the smaller ball, are
        looked up in the store without interning."""
        import numpy as np

        pair = self.pair
        moves = [pair.inv(s) for s in pair.shat()]
        back = np.full((len(moves), n), _OFF_BALL, dtype=np.int32)
        if self._back is not None:
            back[:, :n0] = self._back
        ball, reps, mul = store.ball, store.reps, pair.mul
        position = {cid: p for p, cid in enumerate(ball[:n])}
        for row, s_inv in zip(back, moves):
            redo = np.flatnonzero(row[:n0] == _OFF_BALL).tolist()
            for j in redo + list(range(n0, n)):
                p = position.get(store._intern(mul(reps[ball[j]], s_inv),
                                               insert=False))
                if p is not None:
                    row[j] = p
        return back

    def extend(self, store: CosetStore, radius: int) -> None:
        """Add the shells of depth up to ``radius``, one row at a time.
        Row i copies K[i][j] = K[back[s, i]][back[s, j]] for every
        generator s that moves both cosets to earlier rows, takes the
        class key of a product for each entry left, and fills K[j][i]
        with the inverse class, read from the per-code inverse map.
        Raises CapExceeded, before any change, when the table would hold
        more than TABLE_ENTRIES_PER_COSET * max_cosets entries."""
        import numpy as np

        if radius <= self.radius:
            return
        n0, n = len(self.codes), store.ball_ends[radius]
        limit = TABLE_ENTRIES_PER_COSET * store.caps.max_cosets
        if n * n > limit:
            raise CapExceeded(
                f"class table of {n} cosets exceeds {limit} entries "
                f"({TABLE_ENTRIES_PER_COSET} * max_cosets="
                f"{store.caps.max_cosets})")
        pair = self.pair
        mul, key = pair.mul, pair.class_key
        invs = self._invs + [pair.inv(store.reps[cid])
                             for cid in store.ball[n0:n]]
        back = self._grown_back(store, n0, n)
        codes = np.empty((n, n), dtype=np.int32)
        codes[:n0, :n0] = self.codes
        for i in range(n0, n):
            row = codes[i, :i]
            row.fill(-1)
            for moves in back:
                b = moves[i]
                if b < i:
                    cols = moves[:i]
                    ok = cols < i
                    row[ok] = codes[b, cols[ok]]
            left = np.flatnonzero(row < 0).tolist()
            if left:
                x = store.reps[store.ball[i]]
                keys = [key(mul(x, invs[j])) for j in left]
                got = list(map(self.code_of.get, keys))
                if None in got:
                    for k, code in enumerate(got):
                        if code is None:
                            got[k] = self._code(keys[k], mul(x, invs[left[k]]))
                row[left] = got
            codes[:i, i] = self._inverse[row]
            codes[i, i] = self._identity
        self.codes, self._invs, self._back = codes, invs, back
        self.radius = radius


def operator_matrix(f: HeckeElement, radius: int) -> TruncatedOperator:
    """Exact matrix of the compression of lambda(f) to the radius ball of
    f's store: A[x][y] = f evaluated at the class of rep(x) rep(y)^{-1}.

    Gathered from the class table of f's store (``store.class_table``),
    which is extended to ``radius`` first: each entry is the coefficient
    of its code's class.  The ball is the prefix of the store's BFS order
    that the table rows follow, so one flat scan of the gathered block
    gives the nonzeros in row-major order.  The pattern (indptr, indices,
    terms) depends only on the ball's size and f's support, so the table
    keeps the last one; a call with the same support and radius, as the
    ball, random and signed test functions of one profile radius are,
    reuses its arrays and only the coefficients differ.  A radius below 0
    gives the empty operator, as the ball of that radius is empty."""
    store = f.store
    if radius > store.radius_complete:
        raise BallIncomplete(
            f"ball complete to {store.radius_complete}, need {radius}")
    table = store.class_table
    if table is None:
        table = store.class_table = _ClassTable(store.pair)
    table.extend(store, radius)
    dim = store.ball_ends[radius] if radius >= 0 else 0
    support = sorted(f.num)
    key = (dim, support)
    if table.pattern is not None and table.pattern[0] == key:
        arrays = table.pattern[1]
    else:
        arrays = _pattern(table, store, dim, support)
        for a in arrays:
            a.flags.writeable = False
        table.pattern = (key, arrays)
    return TruncatedOperator(store.ball[:dim],
                             [f.num[d] for d in support], f.den, *arrays)


def _pattern(table: _ClassTable, store: CosetStore, dim: int,
             support: list[int]):
    """(indptr, indices, terms) of the operators on the first ``dim``
    ball cosets with the given sorted support: the block's nonzeros by
    one ``flatnonzero`` over the gathered block, row-major, each row's
    start found by ``searchsorted``."""
    import numpy as np

    term = np.zeros(len(table.code_of), dtype=np.int32)   # code -> 1 + term
    for k, d in enumerate(support):
        code = table.code_of.get(store.dcs[d].key)
        if code is not None:
            term[code] = k + 1
    hit = term[table.codes[:dim, :dim]].ravel()
    flat = np.flatnonzero(hit)
    step = max(dim, 1)
    indptr = np.searchsorted(flat, np.arange(0, dim * dim + 1, step))
    return (indptr.astype(np.int32), (flat % step).astype(np.int32),
            hit[flat] - 1)


_KERNELS = "scipy.sparse._sparsetools"


def _sparse_kernels():
    """scipy's compiled sparse kernels, the extension module
    ``scipy.sparse._sparsetools``, loaded from its file in scipy's
    ``sparse/`` directory without running the ``__init__`` of scipy or
    scipy.sparse, which load 325 modules (75 of them scipy's) and about
    22 MB that the kernels do not use.  ``importlib.util.find_spec``
    locates scipy without importing it.

    The module is loaded under its real name and entered in
    ``sys.modules``, where a later call and a later ``import
    scipy.sparse`` find it; one already there, whichever import loaded
    it, is returned as it is.  So one copy is loaded in either order.  A
    scipy.sparse imported later serves it to ``from scipy.sparse import
    _sparsetools`` but has no ``_sparsetools`` attribute, as with any
    submodule entered before its package.  Raises ImportError naming
    scipy and the directory searched when scipy or the extension is not
    found; there is no other way to the kernels."""
    module = sys.modules.get(_KERNELS)
    if module is not None:
        return module
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError(f"scipy not found on sys.path {sys.path}")
    where = os.path.join(scipy.submodule_search_locations[0], "sparse")
    spec = importlib.machinery.FileFinder(where, (
        importlib.machinery.ExtensionFileLoader,
        importlib.machinery.EXTENSION_SUFFIXES)).find_spec(_KERNELS)
    if spec is None:
        raise ImportError(f"scipy's compiled {_KERNELS} not found in {where}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[_KERNELS] = module
    spec.loader.exec_module(module)
    return module


def truncated_norm(op: TruncatedOperator, tol: float = RD_DEFAULTS["rd.tol"],
                   max_iter: int = RD_DEFAULTS["rd.max_iter"]
                   ) -> tuple[float, bool]:
    """Largest singular value of the truncated operator via power iteration
    on A^T A, from the deterministic start vector delta_He + uniform, and
    whether the iteration converged: False when it hit ``max_iter`` before
    five steps in a row moved sigma by at most ``tol`` relative.

    Each step runs scipy's compiled sparse kernels, which
    ``_sparse_kernels`` loads without importing scipy.sparse, on the
    operator's own arrays, into two vectors allocated once:
    ``csr_matvec`` is the product that ``csr_matrix @ v`` runs after its
    checks, and ``csc_matvec`` reads the CSR arrays of A as the CSC arrays
    of A^T, summing each entry over A's rows in ascending order, as the
    sorted rows of A^T in CSR form would.  So no transpose is built and
    every float is that of the scipy-matrix iteration.  The entries are
    ``op.data``, built from f's ints without a Fraction.  Each norm is
    math.sqrt(w.dot(w)), the float that np.linalg.norm returns for a 1-D
    float64 array, without its dispatch."""
    import numpy as np

    kernels = _sparse_kernels()
    csr_matvec, csc_matvec = kernels.csr_matvec, kernels.csc_matvec
    n = op.dim
    if n == 0:
        return 0.0, True
    data = op.data
    indptr, indices = op.indptr, op.indices
    v = np.full(n, 1.0 / math.sqrt(n))
    # row of H: the ball is in BFS order, so H comes first
    v[0] += 1.0
    v /= math.sqrt(v.dot(v))
    w = np.empty(n)
    u = np.empty(n)
    prev = -1.0
    stable = 0
    sigma = 0.0
    for _ in range(max_iter):
        w.fill(0.0)
        csr_matvec(n, n, indptr, indices, data, v, w)      # w = A v
        sigma = math.sqrt(w.dot(w))
        if sigma == 0.0:
            return 0.0, True
        u.fill(0.0)
        csc_matvec(n, n, indptr, indices, data, w, u)      # u = A^T w
        nu = math.sqrt(u.dot(u))
        if nu == 0.0:
            return sigma, True
        np.divide(u, nu, out=v)
        if prev >= 0 and abs(sigma - prev) <= tol * max(sigma, 1e-300):
            stable += 1
            if stable >= 5:
                return sigma, True
        else:
            stable = 0
        prev = sigma
    return sigma, False


# ---------------------------------------------------------------------------
# moment roots


def _nth_root(q: Fraction, k: int) -> float:
    """The largest float r with r^k <= q, decided in exact arithmetic: the
    float estimate is stepped by ulps until the exact test holds for r and
    fails for the next float up, so r never exceeds the true root."""
    if q == 0:
        return 0.0
    r = math.exp((math.log(q.numerator) - math.log(q.denominator)) / k)
    while Fraction(r) ** k > q:
        r = math.nextafter(r, 0.0)
    while Fraction(math.nextafter(r, math.inf)) ** k <= q:
        r = math.nextafter(r, math.inf)
    return r


def spectral_lower_bound(f: HeckeElement, n_max: int) -> list[float]:
    """rho_n = a_n^(1/2n); each is a certified lower bound for
    ||lambda(f)||, for every f."""
    moments = power_moments(f, n_max)
    return [_nth_root(a, 2 * n) for n, a in enumerate(moments, start=1)]


# ---------------------------------------------------------------------------
# RD profile


@dataclass
class RdTestRecord:
    r: int
    family: str
    nonneg: bool
    lower_bound: float     # max of truncated norm and moment root
    trunc_norm: float
    trunc_radius: int
    moment_root: float
    l2: float
    ratio: float
    weighted_norms: dict    # s -> ||f||_{s,l}


@dataclass(frozen=True)
class BestRatio:
    r: int
    ratio: float
    witness: str            # the family that attains it


@dataclass
class RdProfile:
    pair: str
    verdict: str            # obstructed-nonunimodular | polynomial-compatible
    #                       # | superpolynomial-ratio | inconclusive
    unimodular: bool
    r_max: int
    seed: int
    config: dict
    records: list = field(default_factory=list)
    best: list = field(default_factory=list)   # BestRatio per radius
    poly_slope: Optional[float] = None
    poly_r2: Optional[float] = None
    exp_slope: Optional[float] = None
    s_hat: Optional[float] = None
    c_hat: Optional[float] = None
    partial: bool = False
    warnings: list = field(default_factory=list)


def _symmetrized_random(store: CosetStore, classes: list[int], rng,
                        coeff_max: int, signed: bool) -> HeckeElement:
    coeffs: dict[int, int] = {}
    for d in classes:
        v = rng.randint(1, coeff_max)
        if signed and rng.random() < 0.5:
            v = -v
        coeffs[d] = coeffs.get(d, 0) + v
        e = store.class_inverse(d)
        coeffs[e] = coeffs.get(e, 0) + v
    return HeckeElement(store, coeffs)


def rd_profile(store: CosetStore, r_max: int, config: Optional[dict] = None,
               seed: int = 0) -> RdProfile:
    """Best norm-to-l2 ratios over families of test functions supported in
    the word-length balls of radius r <= r_max (the class search runs to
    r_max), with weighted-norm stability fits, for the store's pair.

    A non-unimodular pair short-circuits to the obstruction verdict: no
    ratio data can rescue property (RD) there.  The verdict is the
    store's (``CosetStore.unimodularity``)."""
    import random

    cfg = _config(config)
    pair = store.pair
    unimod = store.unimodularity()
    profile = RdProfile(pair.label, "inconclusive", unimod.verdict,
                        r_max, seed, cfg)
    if not unimod.verdict:
        profile.verdict = "obstructed-nonunimodular"
        return profile

    store.enumerate_to(r_max + cfg["rd.pad"])
    l = store.word_lengths(r_max)
    rng = random.Random(seed)

    # the ball of radius r holds the classes with l <= r, and its shell
    # those of length r
    shells: dict[int, list[int]] = {}
    for d, n in l.items():
        shells.setdefault(n, []).append(d)

    # the weighted-norm grid, and each class's powers over it, computed
    # once for the profile
    grid = _s_grid(cfg)
    powers: dict[int, list[float]] = {}
    best: dict[int, tuple[float, str]] = {}
    ball_classes: list[int] = []
    for r in range(r_max + 1):
        shell_classes = sorted(shells.get(r, []))
        ball_classes = sorted(ball_classes + shell_classes)
        fams: list[tuple[str, bool, HeckeElement]] = []
        if shell_classes:
            fams.append(("shell", True, HeckeElement(
                store, {d: Fraction(1) for d in shell_classes})))
        if ball_classes:
            fams.append(("ball", True, HeckeElement(
                store, {d: Fraction(1) for d in ball_classes})))
        for i in range(cfg["rd.n_random"]):
            fams.append((f"random-{i}", True, _symmetrized_random(
                store, ball_classes, rng, cfg["rd.coeff_max"], False)))
        fams.append(("signed", False, _symmetrized_random(
            store, ball_classes, rng, cfg["rd.coeff_max"], True)))
        for family, nonneg, f in fams:
            rec = _test_record(r, family, nonneg, f, l, grid, powers,
                               profile)
            profile.records.append(rec)
            if nonneg and (r not in best or rec.ratio > best[r][0]):
                best[r] = (rec.ratio, family)

    profile.best = [BestRatio(r, v, w) for r, (v, w) in sorted(best.items())]
    floor = 1.0 / math.sqrt(len(store.ball))
    for b in profile.best:
        if b.ratio < floor:
            profile.warnings.append(
                f"best ratio at r={b.r} below the sanity floor {floor:.3g}")

    if len(profile.best) >= 2:
        xs = [math.log(1.0 + b.r) for b in profile.best]
        ys = [math.log(max(b.ratio, 1e-300)) for b in profile.best]
        profile.poly_slope, _, profile.poly_r2 = linfit(xs, ys)
        profile.exp_slope, _, _ = linfit(
            [float(b.r) for b in profile.best], ys)

    if len(profile.best) < 4:
        profile.verdict = "inconclusive"
        return profile
    try:
        fit = rd_weighted_fit(profile)
        profile.s_hat, profile.c_hat = fit
        profile.verdict = "polynomial-compatible"
    except NoStableFit:
        profile.verdict = "superpolynomial-ratio"
    return profile


def _truncation_radius(f: HeckeElement, want: int, budget: int) -> int:
    """Largest truncation radius, at most ``want``, of f's store within
    the matrix-cost budget (rd.max_matrix_cost): the column count times
    the per-column row support sum_d R(d).  Any radius gives a
    valid lower bound, so the rule only trades sharpness for size,
    deterministically.  It bounds the operator's nonzeros, not the build:
    that is one class table per store, dim^2 entries of which generator
    moves copy most and class-key products fill the rest.  It is kept so
    that reports stay the same."""
    store = f.store
    supp = sum(store.class_R(d) for d in f.num)
    radius = 0
    for rr in range(1, min(want, store.radius_complete) + 1):
        if store.ball_ends[rr] * supp > budget:
            break
        radius = rr
    return radius


def _test_record(r, family, nonneg, f, l, grid, powers,
                 profile) -> RdTestRecord:
    """f's bounds by ``_bounds``, which zeroes a capped one (the profile
    is then partial), its weighted norms over ``grid`` (with the profile's
    class powers ``powers``) and l2, under the profile's config; each
    skip, clipped truncation radius or capped power iteration is warned
    of once.  l2 is read off a_1 = ||f||_2^2 when there are moments.  A
    weighted norm too large for a float is a HeckeError naming
    rd.s_grid_max, so no report carries one."""
    cfg = profile.config
    want = r + cfg["rd.pad"]
    r_trunc = _truncation_radius(f, want, cfg["rd.max_matrix_cost"])
    if r_trunc < want:
        _warn(profile, f"truncation radius at r={r} clipped to {r_trunc} "
                       f"of {want} wanted (rd.max_matrix_cost)")
    moments, roots, trunc, lower = _bounds(
        f, cfg, cfg["rd.moment_n"], r_trunc, f"at r={r}",
        lambda text: _warn(profile, text),
        lambda text: _warn(profile, text, partial=True))
    try:
        weighted = weighted_norms(f, l, grid, powers)
        finite = math.isfinite(weighted[grid[-1]])   # the norms grow with s
    except OverflowError:
        finite = False
    if not finite:
        raise HeckeError(f"rd.s_grid_max={cfg['rd.s_grid_max']} overflows "
                         f"the weighted norms at r={r}")
    l2 = math.sqrt(moments[0]) if moments else norms(f).l2
    return RdTestRecord(r, family, nonneg, lower, trunc, r_trunc,
                        roots[-1] if roots else 0.0, l2,
                        lower / l2 if l2 else 0.0, weighted)


def _bounds(f: HeckeElement, cfg: dict, n: int, radius: int, where: str,
            note, skip=None) -> tuple[list, list, float, float]:
    """An rd-profile record's and kesten's lower bounds for ||lambda(f)||:
    f's moments a_1..a_n, their roots a_k^(1/2k) (certified for every f),
    the truncated norm at ``radius`` and max(last root, truncated norm).
    The moments are computed first.  A power iteration that returns
    unconverged, having hit rd.max_iter, gives ``note`` a warning naming
    ``where``.  With no ``skip`` (kesten) a CapExceeded propagates, the
    moments' first, and the CLI exits 3; with ``skip`` (rd-profile) a
    capped bound is zeroed and ``skip`` gets "<bound> skipped <where>:
    <cap>", the truncated norm's first."""
    moments, moments_cap = [], None
    if n > 0:
        try:
            moments = power_moments(f, n)
        except CapExceeded as exc:
            if skip is None:
                raise
            moments_cap = exc
    roots = [_nth_root(a, 2 * k) for k, a in enumerate(moments, start=1)]
    trunc, converged, max_iter = 0.0, True, cfg["rd.max_iter"]
    try:
        trunc, converged = truncated_norm(operator_matrix(f, radius),
                                          cfg["rd.tol"], max_iter)
    except CapExceeded as exc:
        if skip is None:
            raise
        skip(f"truncated norm skipped {where}: {exc}")
    if not converged:
        note(f"power iteration {where} hit its iteration cap "
             f"(rd.max_iter={max_iter}): trunc_norm there is not converged")
    if moments_cap is not None:
        skip(f"moments skipped {where}: {moments_cap}")
    return moments, roots, trunc, max(roots[-1] if roots else 0.0, trunc)


def _warn(profile: RdProfile, text: str, partial: bool = False) -> None:
    """Record a warning once (the test functions of one radius share
    their causes), and mark the profile partial if ``partial``."""
    profile.partial |= partial
    if text not in profile.warnings:
        profile.warnings.append(text)


def _s_grid(cfg) -> list[float]:
    step, s_max = cfg["rd.s_grid_step"], cfg["rd.s_grid_max"]
    out = []
    s = 0.0
    while s <= s_max + 1e-9:
        out.append(round(s, 6))
        s += step
    return out


def linfit(xs: list[float], ys: list[float]) -> tuple[float, float, float]:
    """Least-squares line y = slope * x + intercept and its r2.  With a
    single x value the slope is 0, the intercept mean(y) and r2 1."""
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    if sxx == 0:
        return 0.0, my, 1.0
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    intercept = my - slope * mx
    syy = sum((y - my) ** 2 for y in ys)
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    r2 = 1.0 if syy < 1e-30 else max(0.0, 1.0 - ss_res / syy)
    return slope, intercept, r2


def rd_weighted_fit(profile: RdProfile) -> tuple[float, float]:
    """Smallest s in the profile's grid (0 to rd.s_grid_max in steps of
    rd.s_grid_step) whose weighted ratios N(f)/||f||_{s,l} show no upward
    tail trend, together with the constant c that bounds them on the
    sampled range.  Raises NoStableFit when every s trends upward, or on
    fewer than four radii, a guard for direct callers, since
    ``rd_profile`` reads such a profile as inconclusive before fitting."""
    stable_slope = profile.config["rd.stable_slope"]
    tail_fraction = profile.config["rd.tail_fraction"]
    per_r: dict[int, dict[float, float]] = {}
    for rec in profile.records:
        if not rec.nonneg:
            continue
        for s, w in rec.weighted_norms.items():
            if w <= 0:
                continue
            ratio = rec.lower_bound / w
            slot = per_r.setdefault(rec.r, {})
            slot[s] = max(slot.get(s, 0.0), ratio)
    rs = sorted(per_r)
    if len(rs) < 4:
        raise NoStableFit("too few radii for a stability fit")
    tail_start = rs[0] + int((rs[-1] - rs[0]) * (1.0 - tail_fraction))
    tail = [r for r in rs if r >= tail_start] or rs[-3:]
    for s in _s_grid(profile.config):
        xs = [math.log(1.0 + r) for r in tail if s in per_r[r]]
        ys = [math.log(max(per_r[r][s], 1e-300)) for r in tail if s in per_r[r]]
        if len(xs) < 3:
            continue
        slope, _, _ = linfit(xs, ys)
        if slope <= stable_slope:
            c_hat = max(per_r[r][s] for r in rs if s in per_r[r])
            return float(s), float(c_hat)
    raise NoStableFit("no exponent in the grid stabilized the ratios")


# ---------------------------------------------------------------------------
# Kesten diagnostic


@dataclass
class KestenReport:
    pair: str
    f: str
    n: int
    moments: list            # exact Fractions a_k = ||f^{*k}||^2, k = 1..n
    rho: list                # floats a_n^(1/2n)
    l1: float
    trunc_norm: float
    trunc_radius: int
    amenability_index: float
    relatively_unimodular: bool
    config: dict
    hint: str
    warnings: list = field(default_factory=list)


def kesten_diagnostic(store: CosetStore, f: Optional[HeckeElement] = None,
                      config: Optional[dict] = None) -> KestenReport:
    """amenability_index = (best lower bound for ||lambda(f)||) / ||f||_1.

    The index sits in (0, 1] for relatively unimodular pairs; an index
    pinned near 1 is the amenable direction of the l1-norm criterion, a
    persistent gap is the non-amenable direction.  The hint thresholds are
    explicit config and the report is flagged when the pair is not
    relatively unimodular (the criterion is stated for the unimodular
    setting).  The pair and its unimodularity verdict are the store's, and
    a given f must live over the store (else StoreMismatch); the default f
    is read off the classes of word length <= 1.  The moment
    count is kesten.n, the one that the report echoes.  A power iteration
    that hits rd.max_iter is named in the report's warnings."""
    if f is not None and f.store is not store:
        raise StoreMismatch("f lives over another store")
    cfg = _config(config)
    pair = store.pair
    n = cfg["kesten.n"]
    unimod = store.unimodularity()
    if f is None:
        if store.radius_complete < 1:
            store.enumerate_to(1)   # the least truncation radius
        raw = HeckeElement(store, {d: Fraction(1)
                                   for d in sorted(store.word_lengths(1))})
        sym = Fraction(1, 2) * (raw + involution(raw))
        f = Fraction(1, norms(sym).l1_exact) * sym
    r_trunc = min(cfg["kesten.trunc_radius"], store.radius_complete)
    notes: list[str] = []
    moments, rho, trunc, lower = _bounds(
        f, cfg, n, r_trunc, f"at trunc_radius={r_trunc}", notes.append)
    l1 = norms(f).l1
    index = lower / l1 if l1 else 0.0
    if index >= cfg["kesten.amenable_min"]:
        hint = "consistent-with-amenable"
    elif index <= cfg["kesten.nonamenable_max"]:
        hint = "gap-suggests-nonamenable"
    else:
        hint = "inconclusive"
    if not unimod.verdict:
        hint += " (flagged: pair is not relatively unimodular)"
    return KestenReport(pair.label, f.to_text(), n, moments, rho, l1,
                        trunc, r_trunc, index, unimod.verdict, cfg, hint,
                        notes)

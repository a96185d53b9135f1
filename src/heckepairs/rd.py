"""Operator-norm lower bounds and the empirical RD / amenability verdicts.

Nothing here ever claims the value of ||lambda(f)||.  The moment roots
a_n^(1/2n) are certified lower bounds, each decided in exact arithmetic.
The norm of the truncated operator P_R lambda(f) P_R is a float, ||Av||
for the float unit vector v that power iteration ends on, so it is a lower
bound only up to rounding.  For relatively unimodular pairs the l1 norm is
an upper bound.  Verdicts are threshold reports over those raw numbers;
the thresholds live in the config echoed into every report.

A truncated operator holds only its ball and its CSR arrays, gathered from
one class table per store.  numpy is loaded by the class table, the
operator and the power iteration, and scipy by the power iteration alone,
which runs scipy's sparse kernels on the operator's arrays and builds no
sparse matrix; a command that builds no truncated operator loads neither.
The exact references that check an operator (its exact matvec, symmetry,
base column and moments) are test oracles, not library code.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .algebra import (HeckeElement, involution, norms, power_moments,
                      weighted_norms)
from .cosets import CosetStore
from .errors import (BallIncomplete, CapExceeded, ConvergenceWarning,
                     HeckeError, NoStableFit, NotSelfAdjoint)
from .lengths import LengthFunction, linfit, word_length

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "RD_DEFAULTS", "RD_DOMAINS", "check_domains", "TruncatedOperator",
    "operator_matrix", "truncated_norm", "spectral_lower_bound", "RdProfile",
    "BestRatio", "rd_profile", "rd_weighted_fit", "KestenReport",
    "kesten_diagnostic",
]

RD_DEFAULTS = {
    "rd.pad": 2,                 # padding radius beyond the support radius
    # picks each truncation radius by dim * sum R(d), unchanged so that
    # reports stay the same; the build costs one class table per store,
    # quadratic in the ball, with most entries copied by generator moves
    "rd.max_matrix_cost": 3_000_000,
    "rd.moment_n": 1,            # moment order mixed into the lower bound
    "rd.n_random": 2,            # random nonnegative test functions per radius
    "rd.coeff_max": 9,           # coefficient range of random functions
    "rd.s_grid_max": 3.0,        # weighted-fit exponent grid
    "rd.s_grid_step": 0.25,
    "rd.stable_slope": 0.1,      # max log-log tail slope for a "stable" ratio
    "rd.tail_fraction": 0.5,
    "rd.tol": 1e-8,              # power iteration relative tolerance
    "rd.max_iter": 20000,
    "kesten.n": 8,               # moments in the Kesten diagnostic
    "kesten.trunc_radius": 6,
    "kesten.amenable_min": 0.99,     # report hints only; flagged heuristic
    "kesten.nonamenable_max": 0.95,
}


# the values of RD_DEFAULTS with a domain: (key, comparison, bound); each
# must be a finite number on the right side of its bound (a key with two
# bounds is listed twice), and every other float value must be finite
RD_DOMAINS = (
    ("rd.pad", ">=", 0),
    ("rd.max_matrix_cost", ">=", 1),
    ("rd.moment_n", ">=", 0),
    ("rd.n_random", ">=", 0),
    ("rd.coeff_max", ">=", 1),
    ("rd.s_grid_max", ">=", 0),
    ("rd.s_grid_step", ">", 0),
    ("rd.tail_fraction", ">", 0),
    ("rd.tail_fraction", "<=", 1),
    ("rd.tol", ">", 0),
    ("rd.max_iter", ">=", 1),
    ("kesten.n", ">=", 0),
    ("kesten.trunc_radius", ">=", 0),
)
_COMPARE = {">": operator.gt, ">=": operator.ge, "<=": operator.le}


def check_domains(cfg: dict, domains) -> None:
    """Raise HeckeError naming the first key of ``domains`` whose value is
    off its bound or a float that is not finite, else the first float of
    ``cfg`` that is not finite.  Integers are compared exactly, so one too
    large for a float is checked like any other."""
    for key, op, bound in domains:
        value = cfg[key]
        finite = not isinstance(value, float) or math.isfinite(value)
        if not (finite and _COMPARE[op](value, bound)):
            raise HeckeError(
                f"{key} must be finite and {op} {bound}, got {value}")
    for key, value in cfg.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise HeckeError(f"{key} must be finite, got {value}")


def _config(overrides: Optional[dict]) -> dict:
    cfg = dict(RD_DEFAULTS)
    if overrides:
        unknown = set(overrides) - set(cfg)
        if unknown:
            raise KeyError(f"unknown rd config keys: {sorted(unknown)}")
        cfg.update(overrides)
        check_domains(cfg, RD_DOMAINS)
    return cfg


# ---------------------------------------------------------------------------
# truncated operator


@dataclass
class TruncatedOperator:
    """P_R lambda(f) P_R on the span of the radius-R ball cosets ``ball``,
    listed in the store's BFS order, so H comes first.

    Stored in CSR form: row i holds the columns ``indices[indptr[i]:
    indptr[i + 1]]`` in increasing order, and each entry is the coefficient
    ``coeffs[terms[k]]`` of one support class.  Row and column i are the
    coset ``ball[i]``.  ``cols[j]`` is the exact column of the j-th ball
    coset as (row index, coefficient) pairs; per column the row support is
    bounded by sum_d R(d) over supp(f).  The operator keeps neither f nor
    its store: the exact references that check it against them live with
    the test oracles.
    """

    radius: int
    ball: list[int]
    coeffs: list[Fraction]      # c_d per support class, by class id
    indptr: np.ndarray
    indices: np.ndarray
    terms: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.ball)

    @cached_property
    def cols(self) -> list[list[tuple[int, Fraction]]]:
        import numpy as np

        rows = np.repeat(np.arange(self.dim), np.diff(self.indptr))
        order = np.lexsort((rows, self.indices))
        out: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.dim)]
        coeffs = self.coeffs
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
    coset."""

    def __init__(self, pair):
        import numpy as np

        self.pair = pair
        self.radius = -1
        self.codes = np.zeros((0, 0), dtype=np.int32)
        self.code_of: dict = {}       # class key -> code
        self.inverse: list[int] = []  # code -> code of the inverse class
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
            code = self.code_of[key] = len(self.inverse)
            self.inverse.append(code)
            g_inv = self.pair.inv(g)
            self.inverse[code] = self._code(self.pair.class_key(g_inv), g_inv)
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
                f"{store.caps.max_cosets})", cap=store.caps.max_cosets)
        pair = self.pair
        mul, key = pair.mul, pair.class_key
        invs = self._invs + [pair.inv(store.reps[cid])
                             for cid in store.ball[n0:n]]
        back = self._grown_back(store, n0, n)
        codes = np.empty((n, n), dtype=np.int32)
        codes[:n0, :n0] = self.codes
        inverse = np.array(self.inverse, dtype=np.int32)
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
                    inverse = np.array(self.inverse, dtype=np.int32)
                row[left] = got
            codes[:i, i] = inverse[row]
            codes[i, i] = self._identity
        self.codes, self._invs, self._back = codes, invs, back
        self.radius = radius


def operator_matrix(f: HeckeElement, store: CosetStore,
                    radius: int) -> TruncatedOperator:
    """Exact matrix of the compression of lambda(f) to the radius ball:
    A[x][y] = f evaluated at the class of rep(x) rep(y)^{-1}.

    Gathered from the store's class table (``store.class_table``), which
    is extended to ``radius`` first: each entry is the coefficient of its
    code's class.  The ball is the prefix of the store's BFS order that
    the table rows follow, so the nonzeros of the gather come out in
    row-major order.  A radius below 0 gives the empty operator, as the
    ball of that radius is empty."""
    import numpy as np

    if radius > store.radius_complete:
        raise BallIncomplete(
            f"ball complete to {store.radius_complete}, need {radius}")
    table = store.class_table
    if table is None:
        table = store.class_table = _ClassTable(store.pair)
    table.extend(store, radius)
    dim = store.ball_ends[radius] if radius >= 0 else 0
    support = sorted(f.coeffs)
    term = np.zeros(len(table.inverse), dtype=np.int32)   # code -> 1 + term
    for k, d in enumerate(support):
        code = table.code_of.get(store.dcs[d].key)
        if code is not None:
            term[code] = k + 1
    if term.any():
        hit = term[table.codes[:dim, :dim]]
        i, j = np.nonzero(hit)
        terms = hit[i, j] - 1
    else:
        i = j = np.zeros(0, dtype=np.int64)
        terms = np.zeros(0, dtype=np.int32)
    indptr = np.zeros(dim + 1, dtype=np.int32)
    np.cumsum(np.bincount(i, minlength=dim), out=indptr[1:])
    return TruncatedOperator(radius, store.ball[:dim],
                             [f.coeffs[d] for d in support], indptr,
                             j.astype(np.int32), terms)


def truncated_norm(op: TruncatedOperator, tol: float = 1e-8,
                   max_iter: int = 20000) -> float:
    """Largest singular value of the truncated operator via power iteration
    on A^T A, from the deterministic start vector delta_He + uniform.

    Each step runs scipy's sparse kernels on the operator's own arrays,
    into two vectors allocated once: ``csr_matvec`` is the product that
    ``csr_matrix @ v`` runs after its checks, and ``csc_matvec`` reads the
    CSR arrays of A as the CSC arrays of A^T, summing each entry over A's
    rows in ascending order, as the sorted rows of A^T in CSR form would.
    So no transpose is built and every float is that of the scipy-matrix
    iteration.  Each norm is math.sqrt(w.dot(w)), the float that
    np.linalg.norm returns for a 1-D float64 array, without its dispatch."""
    import numpy as np
    from scipy.sparse._sparsetools import csc_matvec, csr_matvec

    n = op.dim
    if n == 0:
        return 0.0
    data = np.array([float(c) for c in op.coeffs])[op.terms]
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
            return 0.0
        u.fill(0.0)
        csc_matvec(n, n, indptr, indices, data, w, u)      # u = A^T w
        nu = math.sqrt(u.dot(u))
        if nu == 0.0:
            return sigma
        np.divide(u, nu, out=v)
        if prev >= 0 and abs(sigma - prev) <= tol * max(sigma, 1e-300):
            stable += 1
            if stable >= 5:
                return sigma
        else:
            stable = 0
        prev = sigma
    warnings.warn("power iteration hit its iteration cap",
                  ConvergenceWarning)
    return sigma


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
    ||lambda(f)|| when f* = f."""
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


def rd_profile(store: CosetStore, l: Optional[LengthFunction], r_max: int,
               config: Optional[dict] = None, seed: int = 0) -> RdProfile:
    """Best norm-to-l2 ratios over families of test functions supported in
    the radius-r balls, with weighted-norm stability fits, for the store's
    pair.

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

    pad = int(cfg["rd.pad"])
    store.enumerate_to(r_max + pad)
    if l is None:
        l = word_length(store)
    rng = random.Random(seed)
    s_grid = _s_grid(cfg)
    ball_size = len(store.ball)

    classes_by_r: dict[int, list[int]] = {}
    for d, v in l.values.items():
        r = int(math.floor(float(v)))
        classes_by_r.setdefault(r, []).append(d)

    best: dict[int, tuple[float, str]] = {}
    for r in range(r_max + 1):
        ball_classes = sorted(
            d for d, v in l.values.items() if float(v) <= r)
        shell_classes = sorted(classes_by_r.get(r, []))
        fams: list[tuple[str, bool, HeckeElement]] = []
        if shell_classes:
            fams.append(("shell", True, HeckeElement(
                store, {d: Fraction(1) for d in shell_classes})))
        if ball_classes:
            fams.append(("ball", True, HeckeElement(
                store, {d: Fraction(1) for d in ball_classes})))
        for i in range(int(cfg["rd.n_random"])):
            fams.append((f"random-{i}", True, _symmetrized_random(
                store, ball_classes, rng, int(cfg["rd.coeff_max"]), False)))
        fams.append(("signed", False, _symmetrized_random(
            store, ball_classes, rng, int(cfg["rd.coeff_max"]), True)))
        for family, nonneg, f in fams:
            if not f:
                continue
            rec = _test_record(r, family, nonneg, f, store, l, s_grid, cfg,
                               profile)
            profile.records.append(rec)
            if nonneg and (r not in best or rec.ratio > best[r][0]):
                best[r] = (rec.ratio, family)

    profile.best = [BestRatio(r, v, w) for r, (v, w) in sorted(best.items())]
    floor = 1.0 / math.sqrt(ball_size)
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
        fit = rd_weighted_fit(profile, s_grid)
        profile.s_hat, profile.c_hat = fit
        profile.verdict = "polynomial-compatible"
    except NoStableFit:
        profile.verdict = "superpolynomial-ratio"
    return profile


def _truncation_radius(store: CosetStore, f: HeckeElement, want: int,
                       cfg: dict) -> int:
    """Largest truncation radius within the matrix-cost budget: the column
    count times the per-column row support sum_d R(d).  Any radius gives a
    valid lower bound, so the rule only trades sharpness for size,
    deterministically.  It bounds the operator's nonzeros, not the build:
    that is one class table per store, dim^2 entries of which generator
    moves copy most and class-key products fill the rest.  It is kept so
    that reports stay the same."""
    budget = int(cfg["rd.max_matrix_cost"])
    supp = sum(store.class_R(d) for d in f.coeffs)
    hist = store.depth_histogram()
    radius = 0
    dim = 0
    for rr in range(min(want, store.radius_complete) + 1):
        dim += hist[rr] if rr < len(hist) else 0
        if rr > 0 and dim * supp > budget:
            break
        radius = rr
    return radius


def _test_record(r, family, nonneg, f, store, l, s_grid, cfg,
                 profile) -> RdTestRecord:
    """Both lower bounds, the weighted norms and l2 of one test function.
    A cap hit on either bound zeroes that bound and marks the profile
    partial; a truncation radius the budget clips is warned of, and so is
    a power iteration that hits its iteration cap, whose ConvergenceWarning
    goes into the report instead of to stderr.  A function that is not
    self-adjoint has no moment root: the moments refuse it."""
    want = r + int(cfg["rd.pad"])
    r_trunc = _truncation_radius(store, f, want, cfg)
    if r_trunc < want:
        _warn(profile, f"truncation radius at r={r} clipped to {r_trunc} "
                       f"of {want} wanted (rd.max_matrix_cost)")
    trunc = 0.0
    try:
        trunc = _noted_truncated_norm(
            f, store, r_trunc, cfg, f"at r={r}",
            lambda text: _warn(profile, text))
    except CapExceeded as exc:
        profile.partial = True
        _warn(profile, f"truncated norm skipped at r={r}: {exc}")
    root = 0.0
    n_mom = int(cfg["rd.moment_n"])
    if n_mom > 0:
        try:
            root = spectral_lower_bound(f, n_mom)[-1]
        except NotSelfAdjoint:
            pass
        except CapExceeded as exc:
            profile.partial = True
            _warn(profile, f"moments skipped at r={r}: {exc}")
    weighted = weighted_norms(f, l, s_grid)
    l2 = norms(f).l2
    lower = max(trunc, root)
    return RdTestRecord(r, family, nonneg, lower, trunc, r_trunc, root, l2,
                        lower / l2 if l2 else 0.0, weighted)


def _noted_truncated_norm(f: HeckeElement, store: CosetStore, radius: int,
                          cfg: dict, where: str, note) -> float:
    """``truncated_norm`` of f's operator at the radius, by the
    module-level function.  A power iteration that hits rd.max_iter is
    passed to ``note`` as a report warning naming ``where``, instead of
    reaching stderr as a ConvergenceWarning; any other warning is
    re-emitted unchanged, and a CapExceeded propagates."""
    max_iter = int(cfg["rd.max_iter"])
    caught: list = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            return truncated_norm(operator_matrix(f, store, radius),
                                  float(cfg["rd.tol"]), max_iter)
    finally:
        for w in caught:
            if issubclass(w.category, ConvergenceWarning):
                note(f"power iteration {where} hit its iteration cap "
                     f"(rd.max_iter={max_iter}): trunc_norm there is not "
                     f"converged")
            else:
                warnings.warn_explicit(w.message, w.category, w.filename,
                                       w.lineno, source=w.source)


def _warn(profile: RdProfile, text: str) -> None:
    """Record a warning once: the test functions of one radius share
    their causes."""
    if text not in profile.warnings:
        profile.warnings.append(text)


def _s_grid(cfg) -> list[float]:
    step = float(cfg["rd.s_grid_step"])
    s_max = float(cfg["rd.s_grid_max"])
    out = []
    s = 0.0
    while s <= s_max + 1e-9:
        out.append(round(s, 6))
        s += step
    return out


def rd_weighted_fit(profile: RdProfile,
                    s_grid: Optional[list[float]] = None) -> tuple[float, float]:
    """Smallest s in the grid whose weighted ratios N(f)/||f||_{s,l} show
    no upward tail trend, together with the constant c that bounds them on
    the sampled range.  Raises NoStableFit when every s trends upward."""
    if s_grid is None:
        s_grid = _s_grid(profile.config)
    stable_slope = float(profile.config["rd.stable_slope"])
    tail_fraction = float(profile.config["rd.tail_fraction"])
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
    for s in s_grid:
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
    moments: list            # exact Fractions a_1..a_n
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
                      n_moments: Optional[int] = None,
                      config: Optional[dict] = None) -> KestenReport:
    """amenability_index = (best lower bound for ||lambda(f)||) / ||f||_1.

    The index sits in (0, 1] for relatively unimodular pairs; an index
    pinned near 1 is the amenable direction of the l1-norm criterion, a
    persistent gap is the non-amenable direction.  The hint thresholds are
    explicit config and the report is flagged when the pair is not
    relatively unimodular (the criterion is stated for the unimodular
    setting).  The pair and its unimodularity verdict are the store's.
    A power iteration that hits rd.max_iter is named in the report's
    warnings."""
    cfg = _config(config)
    pair = store.pair
    n = int(cfg["kesten.n"]) if n_moments is None else n_moments
    unimod = store.unimodularity()
    if f is None:
        if store.radius_complete < 1:
            store.enumerate_to(1)
        ball1 = store.classes_in_ball(1)
        raw = HeckeElement(store, {d: Fraction(1) for d in ball1})
        sym = Fraction(1, 2) * (raw + involution(raw))
        f = Fraction(1, norms(sym).l1_exact) * sym
    try:
        moments = power_moments(f, n)     # checks f* = f, once
    except NotSelfAdjoint:
        raise NotSelfAdjoint("kesten diagnostic needs f* = f") from None
    rho = [_nth_root(a, 2 * k) for k, a in enumerate(moments, start=1)]
    r_trunc = min(int(cfg["kesten.trunc_radius"]), store.radius_complete)
    notes: list[str] = []
    trunc = _noted_truncated_norm(f, store, r_trunc, cfg,
                                  f"at trunc_radius={r_trunc}", notes.append)
    l1 = norms(f).l1
    lower = max(rho[-1] if rho else 0.0, trunc)
    index = lower / l1 if l1 else 0.0
    if index >= float(cfg["kesten.amenable_min"]):
        hint = "consistent-with-amenable"
    elif index <= float(cfg["kesten.nonamenable_max"]):
        hint = "gap-suggests-nonamenable"
    else:
        hint = "inconclusive"
    if not unimod.verdict:
        hint += " (flagged: pair is not relatively unimodular)"
    return KestenReport(pair.label, f.to_text(), n, moments, rho, l1,
                        trunc, r_trunc, index, unimod.verdict, cfg, hint,
                        notes)

"""Independent oracles used to derive expected values.

Everything here is deliberately primitive and separate from the library:
plain 2x2 rational matrix products, Laurent-polynomial expansion, brute
force closures.  Tests compute expected values through these routes and
compare the library against them.
"""

import json
from dataclasses import dataclass, fields, is_dataclass
from fractions import Fraction

from heckepairs.algebra import HeckeElement
from heckepairs.errors import DomainError
from heckepairs.groups import HeckePair


def off_domain(table):
    """(key, value) pairs, one per domain row of a config table whose rows
    are (default, (comparison, bound), ...): each value lies just off its
    bound, read from the row alone."""
    step = {">=": -1, ">": 0, "<=": 1}
    return [(key, bound + step[op]) for key, (_, *bounds) in table.items()
            for op, bound in bounds]


def _jsonable(obj):
    """A report as plain JSON data: a dataclass is its fields by name, a
    Fraction its string, every dict key a string, a tuple a list, and a
    float keeps 12 significant digits."""
    if isinstance(obj, float):
        return float(format(obj, ".12g"))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in fields(obj)}
    return obj


def reference_report_json(obj) -> str:
    """The text of a JSON report by the json module's own encoder: sorted
    keys, a one-space indent, ASCII escapes, NaN and Infinity as literals."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=1) + "\n"


def mat_mul(m, n):
    """2x2 rational matrix product on ((a,b),(c,d)) nests."""
    (a1, b1), (c1, d1) = m
    (a2, b2), (c2, d2) = n
    return ((a1 * a2 + b1 * c2, a1 * b2 + b1 * d2),
            (c1 * a2 + d1 * c2, c1 * b2 + d1 * d2))


def mat_inv_det1(m):
    (a, b), (c, d) = m
    assert a * d - b * c == 1
    return ((d, -b), (-c, a))


def aff_to_mat(b, a):
    return ((Fraction(1), Fraction(b)), (Fraction(0), Fraction(a)))


# The affine group law and its coset keys on (b, a) Fraction pairs, for
# the matrices [[1, b], [0, a]] with a > 0: the rules the integer
# payload in groups.AffinePair is held to.

def fraction_aff_mul(x, y):
    (b1, a1), (b2, a2) = x, y
    return (b2 + b1 * a2, a1 * a2)


def fraction_aff_inv(x):
    b, a = x
    return (-b / a, 1 / a)


def fraction_aff_in_h(x):
    b, a = x
    return a == 1 and b.denominator == 1


def fraction_aff_fingerprint(x):
    # H(b,a) = {(b + n*a, a)} <-> (a, b mod aZ)
    b, a = x
    return (a, b - (b / a).__floor__() * a)


def fraction_aff_class_key(x):
    # H(b,a)H = {(b + n*a + m, a)} <-> (a, b mod (Z + aZ)), and
    # Z + aZ = (1/den a) Z
    b, a = x
    return (a, b % Fraction(1, a.denominator))


def laurent_mul(f, g):
    """Product of Laurent polynomials given as {exponent: coeff}."""
    out = {}
    for i, c in f.items():
        for j, d in g.items():
            out[i + j] = out.get(i + j, 0) + c * d
    return {k: v for k, v in out.items() if v}


def laurent_power(f, n):
    out = {0: 1}
    for _ in range(n):
        out = laurent_mul(out, f)
    return out


def central_trinomial(n):
    """[x^0] (x^{-1} + 1 + x)^n by direct expansion."""
    return laurent_power({-1: 1, 0: 1, 1: 1}, n).get(0, 0)


def dih_mul(x, y):
    """Infinite dihedral composition on (shift, flip) pairs, applying x
    first: (x*y)(t) = y(x(t))."""
    n1, f1 = x
    n2, f2 = y
    return (n2 + (-n1 if f2 else n1), f1 ^ f2)


def dih_inv(x):
    n, f = x
    return (n, True) if f else (-n, False)


def perm_mul(x, y):
    """(x*y)(i) = y(x(i))."""
    return tuple(y[i] for i in x)


def perm_inv(x):
    out = [0] * len(x)
    for i, j in enumerate(x):
        out[j] = i
    return tuple(out)


# Frozen-dataclass forms of groups.Vec, groups.Dih and groups.Perm, under
# the same names so that their reprs compare, and the group laws on them:
# the rules the slots payloads are held to.

@dataclass(frozen=True, slots=True)
class Vec:
    coords: tuple


@dataclass(frozen=True, slots=True)
class Dih:
    shift: int
    flip: bool


@dataclass(frozen=True, slots=True)
class Perm:
    images: tuple


def dataclass_mul(x, y):
    if isinstance(x, Vec):
        return Vec(tuple(a + b for a, b in zip(x.coords, y.coords)))
    if isinstance(x, Dih):
        return Dih(*dih_mul((x.shift, x.flip), (y.shift, y.flip)))
    return Perm(perm_mul(x.images, y.images))


def dataclass_inv(x):
    if isinstance(x, Vec):
        return Vec(tuple(-a for a in x.coords))
    if isinstance(x, Dih):
        return Dih(*dih_inv((x.shift, x.flip)))
    return Perm(perm_inv(x.images))


def group_closure(gens, mul, identity, cap=100000):
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
                    assert len(seen) <= cap
        frontier = nxt
    return seen


def right_cosets(elements, h_set, mul):
    """Partition a finite element set into right cosets of h_set."""
    cosets = []
    seen = set()
    for x in sorted(elements):
        if x in seen:
            continue
        coset = frozenset(mul(h, x) for h in h_set)
        seen |= coset
        cosets.append(coset)
    return cosets


def double_coset(x, h_set, mul):
    return frozenset(mul(mul(a, x), b) for a in h_set for b in h_set)


def word(pair, letters):
    """Product of generator letters (ints indexing ``pair.shat()``)."""
    g = pair.identity()
    shat = pair.shat()
    for i in letters:
        g = pair.mul(g, shat[i])
    return g


def same_right_coset(pair, x, y):
    """Hx == Hy, decided by the membership test x y^{-1} in H: the arbiter
    that the tests hold coset keys to."""
    return pair.in_h(pair.mul(x, pair.inv(y)))


def same_left_coset(pair, x, y):
    """xH == yH, decided by the membership test x^{-1} y in H: the arbiter
    that the tests hold the left-coset walk to."""
    return pair.in_h(pair.mul(pair.inv(x), y))


def brute_structure_constants(store, d1, d2):
    """Coefficients of T_{d1} * T_{d2} by the full member-pair count: intern
    a*b for every pair of member representatives (R(d1) R(d2) products),
    count hits per target coset, and require the count to be constant on
    every member of every target class.  Bypasses the store's cache."""
    pair = store.pair
    counter = {}
    for a in store.class_members(d1):
        for b in store.class_members(d2):
            t = store._intern(pair.mul(store.reps[a], store.reps[b]))
            counter[t] = counter.get(t, 0) + 1
    out = {}
    for cid in sorted(counter):
        d = store.dc(cid)
        if d in out:
            continue
        vals = {counter.get(m, 0) for m in store.class_members(d)}
        assert len(vals) == 1, (d1, d2, d, vals)
        out[d] = counter[cid]
    return out


# Exact Hecke-algebra arithmetic term by term in Fractions: the references
# for the library's integer-numerator sums.  Each builds its output dict in
# the order the library's loops visit classes and drops zeros itself, so a
# library result must match it item for item.


def _element(store, coeffs):
    from heckepairs.algebra import HeckeElement

    return HeckeElement(store, {d: c for d, c in coeffs.items() if c != 0})


def fraction_add(f, g, sign=1):
    """f + sign * g, by class in f's order and then g's."""
    out = dict(f.coeffs)
    for d, c in g.coeffs.items():
        out[d] = out.get(d, Fraction(0)) + sign * c
    return _element(f.store, out)


def fraction_scale(s, f):
    """s * f, by class in f's order."""
    return _element(f.store, {d: Fraction(s) * c for d, c in f.coeffs.items()})


def fraction_convolve(f, g):
    """f * g summed term by term over the library's structure constants."""
    from heckepairs.algebra import structure_constants

    store = f.store
    out = {}
    for d1, c1 in f.coeffs.items():
        for d2, c2 in g.coeffs.items():
            w = c1 * c2
            for d, n in structure_constants(store, d1, d2).items():
                out[d] = out.get(d, Fraction(0)) + w * n
    return _element(store, out)


def fraction_involution(f):
    """f* = sum_d c_d Delta(d) T_{inv d}."""
    store = f.store
    out = {}
    for d, c in f.coeffs.items():
        e = store.class_inverse(d)
        out[e] = out.get(e, Fraction(0)) + store.class_delta(d) * c
    return _element(store, out)


def fraction_norms(f):
    """(l1, l2^2) = (sum |c_d| R(d), sum c_d^2 R(d))."""
    l1 = l2sq = Fraction(0)
    for d, c in f.coeffs.items():
        r = f.store.class_R(d)
        l1 += abs(c) * r
        l2sq += c * c * r
    return l1, l2sq


def fraction_weighted_norms(f, l, s_grid):
    """s -> sqrt(sum_d float(c_d^2 R(d)) (1 + l(d))^(2s))."""
    import math

    terms = [(float(c * c * f.store.class_R(d)), 1.0 + float(l(d)))
             for d, c in f.coeffs.items()]
    out = {}
    for s in s_grid:
        wsq = 0.0
        for w, base in terms:
            wsq += w * base ** (2.0 * s)
        out[s] = math.sqrt(wsq)
    return out


def fraction_power_moments(f, n_max):
    """a_n = ||f^{*n}||^2 = sum_d R(d) f^{*n}(d)^2 for n = 1..n_max."""
    out = []
    g = f
    for n in range(1, n_max + 1):
        if n > 1:
            g = fraction_convolve(g, f)
        out.append(fraction_norms(g)[1])
    return out


def brute_operator_matrix(f, store, radius):
    """Exact entries of the compression of lambda(f) to the radius ball by
    the per-member loop: for every ball coset y and every member a of every
    support class, look up H a y and add c_d at (H a y, y).  Returns
    {(row coset id, column coset id): coefficient}, so it fixes no order
    of the ball."""
    pair = store.pair
    ball = set(store.ball_ids(radius))
    per_class = [(c, [store.reps[m] for m in store.class_members(d)])
                 for d, c in sorted(f.coeffs.items())]
    out = {}
    for cid in ball:
        y = store.reps[cid]
        for c, reps_a in per_class:
            for a in reps_a:
                tid = store.lookup(pair.mul(a, y))
                if tid in ball:
                    out[tid, cid] = out.get((tid, cid), Fraction(0)) + c
    return out


def direct_class_table(store, radius):
    """Class keys of the ordered pairs of the radius ball's cosets by the
    direct row-by-row fill: ``keys[i][j]`` is the class key of
    rep(x_i) rep(x_j)^{-1} for x_i = ``store.ball[i]``.  Each entry below
    the diagonal is the key of a product, and its mirror the key of that
    product's inverse: dim (dim - 1) products, no generator moves."""
    pair = store.pair
    key, mul, inv = pair.class_key, pair.mul, pair.inv
    n = store.ball_ends[radius]
    reps = [store.reps[cid] for cid in store.ball[:n]]
    keys = [[None] * n for _ in range(n)]
    for i in range(n):
        keys[i][i] = key(pair.identity())
        for j in range(i):
            g = mul(reps[i], inv(reps[j]))
            keys[i][j] = key(g)
            keys[j][i] = key(inv(g))
    return keys


def to_csr(op):
    """The truncated operator as a float scipy CSR matrix over its own
    arrays: entry k is the coefficient ``op.coeffs[op.terms[k]]``."""
    import numpy as np
    from scipy.sparse import csr_matrix

    values = np.array([float(c) for c in op.coeffs])
    return csr_matrix((values[op.terms], op.indices, op.indptr),
                      shape=(op.dim, op.dim))


def reference_truncated_norm(op, tol=1e-8, max_iter=20000):
    """The power iteration of ``rd.truncated_norm`` through scipy's public
    sparse matrices, with every norm taken by ``np.linalg.norm``: on A^T A
    from delta_He + uniform, with A^T built by ``a.T.tocsr()``, stopping
    after five steps within ``tol``.  Warns of nothing at its cap."""
    import math

    import numpy as np

    if op.dim == 0:
        return 0.0
    a = to_csr(op)
    at = a.T.tocsr()
    v = np.full(op.dim, 1.0 / math.sqrt(op.dim))
    v[0] += 1.0
    v /= np.linalg.norm(v)
    prev = -1.0
    stable = 0
    sigma = 0.0
    for _ in range(max_iter):
        w = a @ v
        sigma = float(np.linalg.norm(w))
        if sigma == 0.0:
            return 0.0
        u = at @ w
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            return sigma
        v = u / nu
        if prev >= 0 and abs(sigma - prev) <= tol * max(sigma, 1e-300):
            stable += 1
            if stable >= 5:
                return sigma
        else:
            stable = 0
        prev = sigma
    return sigma


def operator_entries(op):
    """The operator's exact entries keyed by (row coset id, column coset
    id)."""
    return {(op.ball[i], op.ball[j]): v
            for j, col in enumerate(op.cols) for i, v in col}


def entries_to_csr(entries, ball):
    """Float CSR matrix of entries keyed by coset ids, with row and column
    i the coset ``ball[i]``, through scipy's COO conversion of the entries
    in row-major order."""
    from scipy.sparse import csr_matrix

    index = {cid: i for i, cid in enumerate(ball)}
    coo = sorted((index[x], index[y], float(v))
                 for (x, y), v in entries.items())
    rows, js, vals = zip(*coo) if coo else ((), (), ())
    return csr_matrix((list(vals), (list(rows), list(js))),
                      shape=(len(ball), len(ball)))


def exact_matvec(op, vec):
    """A v in exact rational arithmetic over the operator's columns, for a
    sparse vector {row index: value}; zero entries are dropped."""
    out = {}
    for j, v in vec.items():
        if not v:
            continue
        for i, a in op.cols[j]:
            out[i] = out.get(i, Fraction(0)) + a * v
    return {i: v for i, v in out.items() if v}


def is_symmetric(op):
    """Every entry (i, j) of the operator equals the entry (j, i)."""
    entries = {(i, j): v for j, col in enumerate(op.cols) for i, v in col}
    return all(entries.get((j, i)) == v for (i, j), v in entries.items())


def base_column_matches_f(op, f, store):
    """A delta_He equals f viewed on H\\G: the column of H (coset 0, found
    by its id in the operator's ball) holds c_d on every member of every
    support class inside the ball."""
    index = {cid: i for i, cid in enumerate(op.ball)}
    want = {}
    for d, c in f.coeffs.items():
        for m in store.class_members(d):
            if m in index:
                want[index[m]] = want.get(index[m], Fraction(0)) + c
    return dict(op.cols[index[0]]) == want


def exact_truncated_moment(op, n):
    """<A^(2n) delta_He, delta_He> in exact rational arithmetic."""
    h = op.ball.index(0)        # coset 0 is H
    vec = {h: Fraction(1)}
    for _ in range(2 * n):
        vec = exact_matvec(op, vec)
    return vec.get(h, Fraction(0))


def exact_truncated_norm_sq(op, n):
    """||A^n delta_He||^2 in exact rational arithmetic."""
    vec = {op.ball.index(0): Fraction(1)}
    for _ in range(n):
        vec = exact_matvec(op, vec)
    return sum(c * c for c in vec.values())


def structure_constants_csv(store, dcids):
    """CSV dump 'd1,d2,d,coeff' of the library's structure constants for
    all ordered pairs from ``dcids``."""
    from heckepairs.algebra import structure_constants

    lines = ["d1,d2,d,coeff"]
    for d1 in dcids:
        for d2 in dcids:
            sc = structure_constants(store, d1, d2)
            for d in sorted(sc):
                lines.append(f"{d1},{d2},{d},{sc[d]}")
    return "\n".join(lines) + "\n"


def covering_radius(f, n):
    """Smallest Schreier radius whose ball holds every member coset of
    supp(f^{*k}) for k <= 2n.  At that padding the truncation clips
    nothing that the 2n-step walk from H can reach, so ||A^k delta_He||^2
    equals the moment a_k for k <= 2n bit for bit (and rho_n <= truncated
    norm).  Extends the store's BFS as needed."""
    from heckepairs.algebra import convolve

    store = f.store
    classes = set(f.coeffs)
    g = f
    for _ in range(2 * n - 1):
        g = convolve(g, f)
        classes |= set(g.coeffs)
    members = [m for d in classes for m in store.class_members(d)]
    while any(store.wl[m] is None for m in members):
        store.enumerate_to(store.radius_complete + 1)
    return max(store.wl[m] for m in members)

# ---------------------------------------------------------------------------
# closed forms for the tree pairs (P)SL2(Z[1/p]) over (P)SL2(Z): the pair
# acts on the (p+1)-regular tree, the class T_k of an element is the
# exponent k of its reduced form p^-k num, and T_k is the sphere operator
# A_2k on the even vertices (Serre, Trees, ch. II.1; Cartier 1973)


def tree_level(entries, p):
    """The exponent k of a matrix over Z[1/p], given by its four rational
    entries: the largest power of p in a denominator."""
    k = 0
    for f in entries:
        n, e = f.denominator, 0
        while n % p == 0:
            n //= p
            e += 1
        k = max(k, e)
    return k


def tree_class_size(p, k):
    """R_k = L_k: 1 for H itself, else the (p+1) p^(2k-1) vertices at
    distance 2k."""
    return 1 if k == 0 else (p + 1) * p ** (2 * k - 1)


def tree_ball(p, r):
    """Right cosets with word length <= r: sum of R_k over k <= r."""
    return sum(tree_class_size(p, k) for k in range(r + 1))


def tree_nonneg_norm(p, coeffs):
    """||lambda(f)|| for f = sum_k coeffs[k] T_k with every coeffs[k] >= 0.
    T_k = S_2k(A_1), where S_0 = 1, S_1 = x, S_2 = x^2 - (p+1) and
    S_(n+1) = x S_n - p S_(n-1); A_1's spectrum on the tree is
    [-2 sqrt p, 2 sqrt p] and |S_n| peaks at its ends, so the norm is the
    value at 2 sqrt p, where S_2k = p^(k-1) (p + 1 + 2k (p - 1)) for k >= 1
    (Cartier 1973; Figa-Talamanca-Nebbia, LMS LN 162, 1991)."""
    return sum(c if k == 0 else c * p ** (k - 1) * (p + 1 + 2 * k * (p - 1))
               for k, c in coeffs.items())


def _sphere_times_a1(op, p):
    """A_1 * sum_n c_n A_n by A_1 A_0 = A_1, A_1 A_1 = A_2 + (p+1) A_0 and
    A_1 A_n = A_{n+1} + p A_{n-1} for n >= 2."""
    out = {}
    for n, c in op.items():
        terms = {1: 1} if n == 0 else {n + 1: 1, n - 1: p + 1 if n == 1 else p}
        for m, t in terms.items():
            out[m] = out.get(m, 0) + c * t
    return {m: c for m, c in out.items() if c}


def tree_t1_times_tk(p, k):
    """{level: coefficient} of T_1 * T_k, from T_1 = A_2 = A_1^2 - (p+1)."""
    a1a1 = _sphere_times_a1(_sphere_times_a1({2 * k: 1}, p), p)
    a1a1[2 * k] = a1a1.get(2 * k, 0) - (p + 1)
    return {n // 2: c for n, c in a1a1.items() if c}


def tree_tj_times_tk(p, j, k):
    """{level: coefficient} of T_j * T_k = A_2j A_2k: A_2j is expanded in
    powers of A_1 by A_1 = A_1, A_2 = A_1^2 - (p+1) and
    A_{n+1} = A_1 A_n - p A_{n-1} for n >= 2, and each power is applied to
    A_2k by ``_sphere_times_a1``."""
    polys = [{0: 1}, {1: 1}]        # A_n as {power of A_1: coefficient}
    for n in range(1, 2 * j):
        q = p + 1 if n == 1 else p
        nxt = {i + 1: c for i, c in polys[n].items()}
        for i, c in polys[n - 1].items():
            nxt[i] = nxt.get(i, 0) - q * c
        polys.append({i: c for i, c in nxt.items() if c})
    out = {}
    power = {2 * k: 1}              # A_1^i A_2k
    for i in range(max(polys[2 * j]) + 1):
        for n, c in power.items():
            out[n] = out.get(n, 0) + polys[2 * j].get(i, 0) * c
        power = _sphere_times_a1(power, p)
    assert all(n % 2 == 0 for n, c in out.items() if c)
    return {n // 2: c for n, c in out.items() if c}


# ---------------------------------------------------------------------------
# product pairs


class ProductPair(HeckePair):
    """(G1 x G2, H1 x H2) over two pairs, generated by the union of the
    factors' embedded generators.  A payload is a tuple (x1, x2); the law,
    inverse, membership and both keys act componentwise, so classes are
    pairs of classes, the word length is l1 + l2, and L, R and Delta
    multiply."""

    payload_type = tuple

    def __init__(self, a: HeckePair, b: HeckePair):
        self.factors = (a, b)
        self.kind = "product"
        self.label = f"{a.label}*{b.label}"
        e1, e2 = a.identity(), b.identity()
        self.g_generators = ([(g, e2) for g in a.g_generators]
                             + [(e1, g) for g in b.g_generators])
        self.h_generators = ([(h, e2) for h in a.h_generators]
                             + [(e1, h) for h in b.h_generators])
        super().__init__()

    def mul(self, x, y):
        a, b = self.factors
        return (a.mul(x[0], y[0]), b.mul(x[1], y[1]))

    def inv(self, x):
        a, b = self.factors
        return (a.inv(x[0]), b.inv(x[1]))

    def identity(self):
        a, b = self.factors
        return (a.identity(), b.identity())

    def canon(self, x):
        a, b = self.factors
        return (a.canon(x[0]), b.canon(x[1]))

    def in_h(self, x) -> bool:
        a, b = self.factors
        return a.in_h(x[0]) and b.in_h(x[1])

    def validate(self, x) -> None:
        self._check_payload(x)
        if len(x) != 2:
            raise DomainError("a product payload is a pair")
        a, b = self.factors
        a.validate(x[0])
        b.validate(x[1])

    def coset_fingerprint(self, x):
        a, b = self.factors
        return (a.coset_fingerprint(x[0]), b.coset_fingerprint(x[1]))

    def class_key(self, x):
        a, b = self.factors
        return (a.class_key(x[0]), b.class_key(x[1]))

    def render(self, x) -> str:
        a, b = self.factors
        return f"{a.render(x[0])} ; {b.render(x[1])}"


# ---------------------------------------------------------------------------
# the finite-H transfer


class LiftPair(HeckePair):
    """(G, {1}) over a pair (G, H): the base pair's law, inverse and canon,
    with H trivial, so each coset and each class is one element and both
    keys are the element.  For H finite, iota(f)(g) = f(HgH) / |H| maps the
    base's Hecke algebra into C[G] as a *-homomorphism (``lift``), and
    ||phi||_R^2 = |H| ||iota phi||^2, so a_n(iota f) |H| = a_n(f)."""

    def __init__(self, base: HeckePair):
        self.base = base
        self.kind = "lift"
        self.label = f"lift({base.label})"
        self.payload_type = base.payload_type
        self.g_generators = [*base.g_generators, *base.h_generators]
        self.h_generators = []
        super().__init__()

    def mul(self, x, y):
        return self.base.mul(x, y)

    def inv(self, x):
        return self.base.inv(x)

    def identity(self):
        return self.base.identity()

    def canon(self, x):
        return self.base.canon(x)

    def in_h(self, x) -> bool:
        return x == self.base.identity()

    def coset_fingerprint(self, x):
        return self.base.canon(x)

    class_key = coset_fingerprint

    def lift(self, f, store):
        """iota(f) on ``store``, a store of this pair, for f on a store of
        the base pair: each element of each class HxH carries f / |H|."""
        base, hs = self.base, self.base.h_elements()
        coeffs = {}
        for d, c in f.coeffs.items():
            x = f.store.reps[f.store.dcs[d].rep_cid]
            for a in hs:
                for b in hs:
                    g = base.canon(base.mul(base.mul(a, x), b))
                    coeffs[store.class_of(g)] = c / len(hs)
        return HeckeElement(store, coeffs)

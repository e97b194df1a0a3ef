"""Trace calculus for SL(2, C) representations of free groups.

Classification of elements, translation lengths on hyperbolic 3-space,
the trace-length gauge, the Fricke/Vogt quadratic for triple products,
and Jacobians of trace and length coordinates with respect to generator
deformations.  Words in the generators are plain lists of signed 1-based
indices: [1, -2, 1] means g1 g2^{-1} g1.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

DET_TOL = 1e-12
CLASSIFY_TOL = 1e-9
RANK_RTOL = 1e-8
FD_STEP = 1e-5

__all__ = [
    "NonLoxodromicError",
    "SL2",
    "SL2Rep",
    "check_word",
    "word_inverse",
    "classify",
    "length",
    "length_gauge",
    "gauge_to_length",
    "trace_word",
    "vogt",
    "trace_jacobian",
    "length_jacobian",
    "svd_rank",
    "rank_report",
    "default_f2_words",
    "coordinate_words",
    "is_nonelementary",
    "random_sl2",
    "random_loxodromic",
]


class NonLoxodromicError(ValueError):
    """A word required to be loxodromic evaluates to something else."""

    def __init__(self, message, word=None, classification=None):
        super().__init__(message)
        self.word = list(word) if word is not None else None
        self.classification = classification


# basis of traceless 2x2 matrices; tangent directions at a generator X
# are X @ E (right translation), which is tangent to det = 1
TRACELESS_BASIS = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
)


def _expm_traceless(M):
    # for traceless M, M^2 = -det(M) I, so exp is cosh(mu) I + sinh(mu)/mu M
    mu2 = -(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    mu = cmath.sqrt(mu2)
    if abs(mu) < 1e-40:
        return np.eye(2, dtype=complex) + M
    return np.cosh(mu) * np.eye(2, dtype=complex) + (np.sinh(mu) / mu) * M


class SL2:
    """A determinant-one 2x2 complex matrix."""

    __slots__ = ("_m",)

    def __init__(self, entries, check=True):
        m = np.asarray(entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("SL2 expects a 2x2 matrix, got shape %s" % (m.shape,))
        if check:
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det - 1.0) > DET_TOL * max(1.0, float(np.abs(m).max()) ** 2):
                raise ValueError("determinant %s is not 1 within tolerance" % det)
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "_m", m)

    def __setattr__(self, name, value):
        raise AttributeError("SL2 is immutable")

    @property
    def mat(self):
        return self._m

    @classmethod
    def identity(cls):
        return cls(np.eye(2, dtype=complex), check=False)

    @classmethod
    def diagonal(cls, lam):
        lam = complex(lam)
        if lam == 0:
            raise ValueError("zero eigenvalue")
        return cls(np.diag([lam, 1.0 / lam]), check=False)

    def inverse(self):
        m = self._m
        # adjugate; exact for det = 1
        inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]], dtype=complex)
        return SL2(inv, check=False)

    def __matmul__(self, other):
        if not isinstance(other, SL2):
            return NotImplemented
        return SL2(self._m @ other._m, check=False)

    def trace(self):
        return complex(self._m[0, 0] + self._m[1, 1])

    def entrywise_conj(self):
        """The Galois twin: complex-conjugate every entry."""
        return SL2(np.conj(self._m), check=False)

    def isclose(self, other, tol=1e-10):
        return bool(np.abs(self._m - other._m).max() <= tol)

    def to_list(self):
        return [[[float(z.real), float(z.imag)] for z in row] for row in self._m]

    @classmethod
    def from_list(cls, data):
        m = np.array([[complex(z[0], z[1]) for z in row] for row in data])
        return cls(m)

    def __repr__(self):
        return "SL2(%r)" % (self._m.tolist(),)


class SL2Rep:
    """A representation of a free group: an ordered tuple of SL2 generators."""

    __slots__ = ("_gens",)

    def __init__(self, generators):
        gens = tuple(g if isinstance(g, SL2) else SL2(g) for g in generators)
        if not gens:
            raise ValueError("need at least one generator")
        object.__setattr__(self, "_gens", gens)

    def __setattr__(self, name, value):
        raise AttributeError("SL2Rep is immutable")

    @property
    def generators(self):
        return self._gens

    @property
    def arity(self):
        return len(self._gens)

    def generator(self, i):
        return self._gens[i]

    def evaluate(self, word):
        check_word(word, self.arity)
        out = np.eye(2, dtype=complex)
        for letter in word:
            g = self._gens[abs(letter) - 1]
            out = out @ (g.mat if letter > 0 else g.inverse().mat)
        return SL2(out, check=False)

    def conjugated(self, c):
        ci = c.inverse()
        return SL2Rep(tuple(c @ g @ ci for g in self._gens))

    def entrywise_conj(self):
        return SL2Rep(tuple(g.entrywise_conj() for g in self._gens))

    def to_list(self):
        return [g.to_list() for g in self._gens]

    @classmethod
    def from_list(cls, data):
        return cls([SL2.from_list(g) for g in data])

    def __repr__(self):
        return "SL2Rep(arity=%d)" % self.arity


def check_word(word, arity):
    for letter in word:
        # bool is an int subclass, but True is not a letter
        if not isinstance(letter, (int, np.integer)) or isinstance(letter, bool) or letter == 0:
            raise ValueError("word letters are nonzero signed integers, got %r" % (letter,))
        if abs(letter) > arity:
            raise ValueError("letter %d out of range for arity %d" % (letter, arity))
    return list(int(l) for l in word)


def word_inverse(word):
    return [-l for l in reversed(word)]


def classify(A):
    """One of 'identity', 'parabolic', 'elliptic', 'loxodromic'.

    Loxodromic means the trace lies off the real interval [-2, 2]
    (within 1e-9).  On the boundary trace = +-2 the element is the
    identity when it equals +-I and parabolic otherwise.
    """
    return _classify_trace(A.trace(), A.mat)


def _classify_trace(t, m):
    # classify from the trace t of the determinant-one matrix m; m is
    # None for a matrix past the float range, which is not +-I
    if abs(t.imag) > CLASSIFY_TOL:
        return "loxodromic"
    x = t.real
    if x > 2.0 + CLASSIFY_TOL or x < -2.0 - CLASSIFY_TOL:
        return "loxodromic"
    if abs(x - 2.0) <= CLASSIFY_TOL or abs(x + 2.0) <= CLASSIFY_TOL:
        sign = 1.0 if x > 0 else -1.0
        if m is not None and np.abs(m - sign * np.eye(2)).max() <= CLASSIFY_TOL:
            return "identity"
        return "parabolic"
    return "elliptic"


def _expanding_eigenvalue(t, det=1.0):
    # the larger root of x^2 - t x + det
    root = cmath.sqrt(t * t - 4.0 * det)
    lam1 = (t + root) / 2.0
    lam2 = (t - root) / 2.0
    return lam1 if abs(lam1) >= abs(lam2) else lam2


def length(A):
    """Translation length 2 log|lambda| of a loxodromic element."""
    kind = classify(A)
    if kind != "loxodromic":
        raise NonLoxodromicError("element is %s, not loxodromic" % kind, classification=kind)
    return _scaled_length(A.trace(), 0)


def _scaled_length(t, e):
    """Translation length of the determinant-one matrix 2^e S from the
    trace t of S: 2 (e log 2 + log|mu|), mu the expanding root of
    x^2 - t x + 4^-e.  length(A) is the case S = A, e = 0."""
    mu = _expanding_eigenvalue(t, math.ldexp(1.0, -2 * e))
    return 2.0 * (e * math.log(2.0) + math.log(abs(mu)))


def length_gauge(A):
    """|tr - 2| + |tr + 2|; equals 2(e^{l/2} + e^{-l/2}) for loxodromics."""
    t = A.trace()
    return abs(t - 2.0) + abs(t + 2.0)


def gauge_to_length(g):
    """Invert the gauge on loxodromics: g >= 4 maps to 2 log((g + sqrt(g^2-16))/4)."""
    g = float(g)
    if g < 4.0 - 1e-12:
        raise ValueError("gauge %s below the loxodromic threshold 4" % g)
    disc = max(g * g - 16.0, 0.0)
    return 2.0 * math.log((g + math.sqrt(disc)) / 4.0)


def trace_word(rep, word):
    return rep.evaluate(word).trace()


def vogt(x1, x2, x3, y12, y13, y23):
    """Fricke quadratic data for a triple with the given single and
    double traces.  Returns (P, Q, Delta, roots); the two roots are the
    possible triple-product traces."""
    P = x1 * y23 + x2 * y13 + x3 * y12 - x1 * x2 * x3
    Q = (
        x1 * x1 + x2 * x2 + x3 * x3
        + y12 * y12 + y13 * y13 + y23 * y23
        + y12 * y13 * y23
        - x1 * x2 * y12 - x1 * x3 * y13 - x2 * x3 * y23
        - 4.0
    )
    delta = P * P - 4.0 * Q
    root = cmath.sqrt(delta)
    return P, Q, delta, ((P + root) / 2.0, (P - root) / 2.0)


def _word_matrices(rep, word):
    mats = []
    for letter in word:
        g = rep.generator(abs(letter) - 1)
        mats.append(g.mat if letter > 0 else g.inverse().mat)
    return mats


def _prefix_suffix(mats):
    n = len(mats)
    pre = [np.eye(2, dtype=complex)]
    for m in mats:
        pre.append(pre[-1] @ m)
    suf = [np.eye(2, dtype=complex)]
    for m in reversed(mats):
        suf.append(m @ suf[-1])
    suf.reverse()
    return pre, suf


def _dtrace_word(rep, word, gen_index, xi):
    # d/dt tr(word) along the curve X_i exp(t xi); for an inverse letter
    # the derivative of X^{-1} is -xi X^{-1}
    word = check_word(word, rep.arity)
    mats = _word_matrices(rep, word)
    pre, suf = _prefix_suffix(mats)
    g = rep.generator(gen_index)
    ginv = g.inverse().mat
    total = 0.0 + 0.0j
    for p, letter in enumerate(word):
        if abs(letter) - 1 != gen_index:
            continue
        dL = g.mat @ xi if letter > 0 else -(xi @ ginv)
        total += np.trace(pre[p] @ dL @ suf[p + 1])
    return complex(total)


def _trace_jacobian_analytic(rep, words):
    k = rep.arity
    J = np.zeros((len(words), 3 * k), dtype=complex)
    for r, w in enumerate(words):
        for i in range(k):
            for j, e in enumerate(TRACELESS_BASIS):
                J[r, 3 * i + j] = _dtrace_word(rep, w, i, e)
    return J


def _trace_jacobian_fd(rep, words, step=FD_STEP):
    k = rep.arity
    J = np.zeros((len(words), 3 * k), dtype=complex)
    gens = [g.mat for g in rep.generators]
    scale = [max(1.0, float(np.abs(m).max())) for m in gens]
    for i in range(k):
        h = step * scale[i]
        for j, e in enumerate(TRACELESS_BASIS):
            plus = list(gens)
            minus = list(gens)
            plus[i] = gens[i] @ _expm_traceless(h * e)
            minus[i] = gens[i] @ _expm_traceless(-h * e)
            rp = SL2Rep([SL2(m, check=False) for m in plus])
            rm = SL2Rep([SL2(m, check=False) for m in minus])
            for r, w in enumerate(words):
                J[r, 3 * i + j] = (trace_word(rp, w) - trace_word(rm, w)) / (2.0 * h)
    return J


def svd_rank(matrix, rtol=RANK_RTOL):
    """Rank by singular values above rtol * sigma_max.

    Returns (rank, singular_values, threshold)."""
    M = np.asarray(matrix)
    if M.size == 0:
        return 0, np.zeros(0), 0.0
    if np.iscomplexobj(M):
        s = np.linalg.svd(M, compute_uv=False)
    else:
        s = np.linalg.svd(M.astype(float), compute_uv=False)
    if s[0] == 0.0:
        return 0, s, 0.0
    thr = rtol * s[0]
    return int(np.sum(s > thr)), s, float(thr)


def rank_report(matrix, rtol=RANK_RTOL):
    rank, s, thr = svd_rank(matrix, rtol)
    return {
        "singular_values": [float(v) for v in s],
        "rank": rank,
        "tolerance": thr,
    }


def trace_jacobian(rep, words, method="analytic", step=FD_STEP):
    """Complex Jacobian of word traces with respect to traceless tangent
    directions at each generator (three per generator).

    method 'analytic' differentiates the word product directly;
    'fd' uses central differences along determinant-preserving curves.
    Returns (matrix, rank)."""
    if method == "analytic":
        J = _trace_jacobian_analytic(rep, words)
    elif method == "fd":
        J = _trace_jacobian_fd(rep, words, step)
    else:
        raise ValueError("method must be 'analytic' or 'fd'")
    rank, _, _ = svd_rank(J)
    return J, rank


def length_jacobian(rep, words, step=FD_STEP):
    """Real Jacobian of word translation lengths over the 6 * arity real
    tangent parameters of the generator tuple.

    The real tangent basis at generator X is {X E_j, i X E_j} for the
    three traceless E_j.  For a loxodromic word with trace t and
    expanding eigenvalue lambda the length differential along a trace
    perturbation dt is 2 Re(dt / (2 lambda - t)).  Raises
    NonLoxodromicError naming the first offending word.  Returns
    (matrix, rank)."""
    k = rep.arity
    lams = []
    for w in words:
        A = rep.evaluate(w)
        kind = classify(A)
        if kind != "loxodromic":
            raise NonLoxodromicError(
                "word %r evaluates to a %s element" % (list(w), kind),
                word=w,
                classification=kind,
            )
        lams.append(_expanding_eigenvalue(A.trace()))
    J = np.zeros((len(words), 6 * k))
    for r, w in enumerate(words):
        t = trace_word(rep, w)
        denom = 2.0 * lams[r] - t
        for i in range(k):
            for j, e in enumerate(TRACELESS_BASIS):
                dt = _dtrace_word(rep, w, i, e)
                J[r, 6 * i + j] = 2.0 * (dt / denom).real
                dt_im = 1j * dt  # direction i*X*E is the real curve X exp(t i E)
                J[r, 6 * i + 3 + j] = 2.0 * (dt_im / denom).real
    rank, _, _ = svd_rank(J)
    return J, rank


def default_f2_words():
    """Six words on two generators whose lengths give a full local chart."""
    return [[1], [2], [1, 2], [1, -2], [1, 1, 2], [1, 2, 2]]


def _reduced_words(arity, max_len):
    """All freely reduced words of length 1..max_len, shortest first."""
    letters = [i for i in range(1, arity + 1)] + [-i for i in range(1, arity + 1)]
    frontier = [[l] for l in letters]
    for w in frontier:
        yield list(w)
    for _ in range(max_len - 1):
        nxt = []
        for w in frontier:
            for l in letters:
                if l == -w[-1]:
                    continue
                nxt.append(w + [l])
        for w in nxt:
            yield list(w)
        frontier = nxt


def _is_inf(z):
    return z == math.inf or (isinstance(z, complex) and (math.isinf(z.real) or math.isinf(z.imag)))


def _to_proj(z):
    if _is_inf(z):
        return np.array([1.0, 0.0], dtype=complex)
    v = np.array([complex(z), 1.0], dtype=complex)
    return v / np.linalg.norm(v)


def _sphere_distance(z, w):
    """Chordal distance of two points of the Riemann sphere (complex or
    math.inf), |det [u v]| for unit lifts u, v in C^2."""
    u, v = _to_proj(z), _to_proj(w)
    return abs(u[0] * v[1] - u[1] * v[0])


def _eigenvector_ratio(m, lam):
    # (m - lam) v = 0; ratio v0/v1 on the sphere, read off the larger row
    # so the cancellation of the quadratic formula never enters
    r1 = (m[0, 0] - lam, m[0, 1])
    r2 = (m[1, 0], m[1, 1] - lam)
    row = r1 if max(abs(r1[0]), abs(r1[1])) >= max(abs(r2[0]), abs(r2[1])) else r2
    a, b = row
    if abs(a) <= 1e-14 * max(1.0, abs(b)):
        return math.inf
    return complex(-b / a)


def _sphere_fixed_points(A):
    """Fixed points of the Mobius action of A on the Riemann sphere, as
    [attracting, repelling]: the eigenvector ratios of the expanding
    eigenvalue lambda and of 1/lambda.  The two coincide for parabolics;
    +-I fixes every point and gives []."""
    m = A.mat
    if m[0, 1] == 0 and m[1, 0] == 0 and m[0, 0] == m[1, 1]:
        return []
    lam = _expanding_eigenvalue(A.trace())
    return [_eigenvector_ratio(m, lam), _eigenvector_ratio(m, 1.0 / lam)]


def is_nonelementary(rep, tol=1e-8, extra_words=None):
    """Numeric proxy: some pair of words has four distinct fixed points
    and no common fixed point within tol."""
    words = [[i + 1] for i in range(rep.arity)]
    for i in range(rep.arity):
        for j in range(rep.arity):
            if i != j:
                words.append([i + 1, j + 1])
    if extra_words:
        words.extend(extra_words)
    fixed = []
    for w in words:
        pts = _sphere_fixed_points(rep.evaluate(w))
        if len(pts) == 2 and _sphere_distance(pts[0], pts[1]) > tol:
            fixed.append(pts)
    for a in range(len(fixed)):
        for b in range(a + 1, len(fixed)):
            shared = False
            for u in fixed[a]:
                for v in fixed[b]:
                    if _sphere_distance(u, v) <= tol:
                        shared = True
            if not shared:
                return True
    return False


def _commutes(A, B, tol=1e-9):
    m = A.mat @ B.mat - B.mat @ A.mat
    scale = max(1.0, float(np.abs(A.mat).max() * np.abs(B.mat).max()))
    return float(np.abs(m).max()) <= tol * scale


def coordinate_words(rep, seed_words, budget=40):
    """Massage a word set into length coordinates: every word loxodromic,
    first three pairwise non-commuting, then grow until the length
    Jacobian reaches maximal rank (6 * arity - 6) or the budget runs out.
    """
    if not is_nonelementary(rep):
        raise ValueError("representation is elementary; no length chart exists")
    words = [check_word(w, rep.arity) for w in seed_words]

    # find a loxodromic pivot among seeds, generators, and short products
    pivot = None
    candidates = list(words) + [[i + 1] for i in range(rep.arity)]
    for i in range(rep.arity):
        for j in range(rep.arity):
            candidates.append([i + 1, j + 1])
            candidates.append([i + 1, -(j + 1)])
    for w in candidates:
        if classify(rep.evaluate(w)) == "loxodromic":
            pivot = w
            break
    if pivot is None:
        raise ValueError("no loxodromic element found among short words")

    fixed = []
    for w in words:
        if classify(rep.evaluate(w)) == "loxodromic":
            fixed.append(w)
            continue
        for candidate in (pivot + w, word_inverse(pivot) + w):
            if classify(rep.evaluate(candidate)) == "loxodromic":
                fixed.append(candidate)
                break
        # traces of dropped words are recoverable via tr(XY)+tr(XY^{-1})=tr(X)tr(Y)
    if pivot not in fixed:
        fixed.insert(0, pivot)

    # first three pairwise non-commuting, replacing a commuting pair by
    # products with the pivot word
    def reorder_noncommuting(ws):
        n = len(ws)
        mats = [rep.evaluate(w) for w in ws]
        for a in range(n):
            for b in range(a + 1, n):
                if _commutes(mats[a], mats[b]):
                    continue
                for c in range(n):
                    if c in (a, b):
                        continue
                    if not _commutes(mats[a], mats[c]) and not _commutes(mats[b], mats[c]):
                        order = [a, b, c] + [i for i in range(n) if i not in (a, b, c)]
                        return [ws[i] for i in order], True
                # replace (w_a, w_c, w_b): w_a w_c, w_a w_b, w_b
                for c in range(n):
                    if c in (a, b):
                        continue
                    trio = [ws[a] + ws[c], ws[a] + ws[b], ws[b]]
                    tm = [rep.evaluate(w) for w in trio]
                    if (
                        all(classify(m) == "loxodromic" for m in tm)
                        and not _commutes(tm[0], tm[1])
                        and not _commutes(tm[0], tm[2])
                        and not _commutes(tm[1], tm[2])
                    ):
                        rest = [ws[i] for i in range(n) if i not in (a, b, c)]
                        return trio + rest, True
        return ws, False

    if len(fixed) >= 3:
        fixed, ok = reorder_noncommuting(fixed)
        if not ok:
            # seeds too degenerate; fall back to generator products
            extras = []
            for i in range(rep.arity):
                extras.append([i + 1])
                for j in range(i + 1, rep.arity):
                    extras.append([i + 1, j + 1])
            extras = [w for w in extras if classify(rep.evaluate(w)) == "loxodromic"]
            fixed, ok = reorder_noncommuting(fixed + extras)
            if not ok:
                raise ValueError("could not arrange three pairwise non-commuting words")

    target = 6 * rep.arity - 6
    max_len = 4 if rep.arity <= 2 else 3
    pool = list(_reduced_words(rep.arity, max_len))
    seen = {tuple(w) for w in fixed}
    result = list(fixed)

    def current_rank(ws):
        try:
            _, rank = length_jacobian(rep, ws)
        except NonLoxodromicError:
            return -1
        return rank

    rank = current_rank(result)
    for w in pool:
        if len(result) >= budget or rank >= target:
            break
        if tuple(w) in seen:
            continue
        if classify(rep.evaluate(w)) != "loxodromic":
            continue
        trial = result + [w]
        r2 = current_rank(trial)
        if r2 > rank:
            result = trial
            rank = r2
            seen.add(tuple(w))
    return result


def random_sl2(rng, scale=1.0):
    """A random determinant-one matrix from a complex Gaussian."""
    while True:
        m = scale * (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) > 1e-6:
            return SL2(m / cmath.sqrt(det), check=False)


def random_loxodromic(rng, length_range=(0.4, 2.5)):
    """A random loxodromic element: conjugated complex dilation."""
    l = rng.uniform(*length_range)
    theta = rng.uniform(-math.pi, math.pi)
    lam = cmath.exp((l + 1j * theta) / 2.0)
    core = SL2.diagonal(lam)
    c = random_sl2(rng)
    return c @ core @ c.inverse()

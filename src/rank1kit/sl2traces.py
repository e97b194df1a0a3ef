"""Trace calculus for SL(2, C) representations of free groups.

Classification of elements, translation lengths on hyperbolic 3-space,
the trace-length gauge, the Fricke/Vogt quadratic for triple products,
and Jacobians of trace and length coordinates with respect to generator
deformations.  Words in the generators are plain lists of signed 1-based
indices: [1, -2, 1] means g1 g2^{-1} g1.

Every many-word and derivative computation, here and in spectrum, goes
through one engine: a prefix trie of the words (_word_plan) evaluated
for a batch of generator tuples (_evaluate_plan).  SL2Rep.evaluate is
the letter-by-letter product of a single word.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

import numpy as np

from .algebra import decode_complex, encode_complex

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
            if not np.isfinite(m).all():
                raise ValueError("SL2 entries must be finite")
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
        """The matrix as JSON rows; each entry a plain number when real,
        else an [re, im] pair."""
        return [[encode_complex(z) for z in row] for row in self._m]

    @classmethod
    def from_list(cls, data, field):
        """Validated matrix from to_list's rows: malformed JSON, a
        non-finite entry or a determinant off 1 raises ValueError naming
        field or the failing entry, as in 'a[1][0]'."""
        if not (isinstance(data, list) and len(data) == 2
                and all(isinstance(row, list) and len(row) == 2 for row in data)):
            raise ValueError("field %r must be a 2 x 2 matrix" % field)
        m = [[decode_complex(z, "%s[%d][%d]" % (field, i, j)) for j, z in enumerate(row)]
             for i, row in enumerate(data)]
        try:
            return cls(m)
        except ValueError as e:
            raise ValueError("field %r: %s" % (field, e)) from None

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
    def from_list(cls, data, field):
        """Validated representation from a nonempty list of SL2.to_list
        matrices; errors name the entry, as in 'generators[0][1][0]'."""
        if not isinstance(data, list) or not data:
            raise ValueError("field %r must be a nonempty list of 2 x 2 matrices" % field)
        return cls([SL2.from_list(g, "%s[%d]" % (field, k)) for k, g in enumerate(data)])

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
    """|tr - 2| + |tr + 2| of an SL2 element A, or of the trace A itself;
    equals 2(e^{l/2} + e^{-l/2}) for loxodromics."""
    t = A.trace() if isinstance(A, SL2) else A
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
    possible triple-product traces.  The traces may be arrays of
    triples."""
    P = x1 * y23 + x2 * y13 + x3 * y12 - x1 * x2 * x3
    Q = (
        x1 * x1 + x2 * x2 + x3 * x3
        + y12 * y12 + y13 * y13 + y23 * y23
        + y12 * y13 * y23
        - x1 * x2 * y12 - x1 * x3 * y13 - x2 * x3 * y23
        - 4.0
    )
    delta = P * P - 4.0 * Q
    root = np.sqrt(np.asarray(delta, dtype=complex))
    return P, Q, delta, ((P + root) / 2.0, (P - root) / 2.0)


_WordPlan = namedtuple("_WordPlan", "size levels ends")


def _word_plan(words, arity):
    """A word list as a prefix trie, built once and evaluated per batch.

    Node 0 is the empty word and every other node is its parent times
    one generator slot, the slots ordered (g1..gk, g1^-1..gk^-1) for
    arity k, so a prefix shared by several words is multiplied once.
    Nodes are numbered by depth: each entry (lo, hi, parents, slots) of
    levels makes nodes lo..hi-1, one depth deeper than their parents,
    and ends[i] is the node of words[i]."""
    edges = {}
    nodes = [(0, 0, 0)]  # (depth, parent, slot) per node
    ends = []
    for w in words:
        node = 0
        for letter in check_word(w, arity):
            key = (node, abs(letter) - 1 + (arity if letter < 0 else 0))
            if key not in edges:
                edges[key] = len(nodes)
                nodes.append((nodes[node][0] + 1,) + key)
            node = edges[key]
        ends.append(node)
    depth, parent, slot = (np.array(c) for c in zip(*nodes))
    order = np.argsort(depth, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    bounds = np.searchsorted(depth[order], np.arange(1, depth.max() + 2))
    levels = [(lo, hi, rank[parent[order[lo:hi]]], slot[order[lo:hi]])
              for lo, hi in zip(bounds[:-1], bounds[1:])]
    return _WordPlan(len(nodes), levels, rank[np.array(ends, dtype=int)])


def _matmul(A, B, out=None, scratch=None):
    """Products of the n x n matrices of (..., n, n, P) batches, summed in
    the order of A @ B, into out with the later terms in scratch."""
    out = np.multiply(A[..., :, 0, None, :], B[..., None, 0, :, :], out)
    for j in range(1, A.shape[-2]):
        out += np.multiply(A[..., :, j, None, :], B[..., None, j, :, :], scratch)
    return out


def _adjugate(A):
    # the inverses of determinant-one 2x2 matrices (..., 2, 2, P)
    a, b, c, d = (A[..., i, j, :] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return np.moveaxis(np.array([[d, -b], [-c, a]]), (0, 1), (-3, -2))


def _with_inverses(gens):
    """Engine slots (g1..gk, g1^-1..gk^-1) of P tuples (k, 2, 2, P)."""
    return np.concatenate([gens, _adjugate(gens)])


def _evaluate_plan(plan, slots):
    """The (size, n, n, P) node matrices of a plan, plan.ends the words'
    ends, for P slot tuples (S, n, n, P): one product per node and row,
    so a row does not depend on the rest of the batch.  The nodes and each
    depth's factors and terms share one work array allocated per call."""
    n, P = slots.shape[1], slots.shape[3]
    width = max((hi - lo for lo, hi, _, _ in plan.levels), default=0)
    work = np.empty((plan.size + 3 * width, n, n, P), dtype=complex)
    nodes = work[:plan.size]
    nodes[0] = np.eye(n)[:, :, None]
    for lo, hi, parents, s in plan.levels:
        A, B, T = (work[plan.size + i * width:][:hi - lo] for i in range(3))
        nodes.take(parents, axis=0, out=A, mode="clip")
        slots.take(s, axis=0, out=B, mode="clip")
        _matmul(A, B, nodes[lo:hi], T)
    return nodes


def _rep_slots(rep):
    return _with_inverses(np.stack([g.mat for g in rep.generators])[..., None])


def _word_ends(rep, words):
    """The images of words under rep, a (W, 2, 2) array: one engine call."""
    plan = _word_plan(words, rep.arity)
    return _evaluate_plan(plan, _rep_slots(rep))[plan.ends, :, :, 0]


def _kinds(ends):
    """classify of each (2, 2) end matrix, from its trace."""
    return [_classify_trace(complex(m[0, 0] + m[1, 1]), m) for m in ends]


def _tangent_ends(rep, words):
    """The images (W, 2, 2) of words under rep and their trace
    differentials (W, 3k) along the curves X_i exp(t E_j), column 3i + j,
    from one engine call: direction 3i + j is the batch row of block
    slots [[G, dG], [0, G]], whose products are [[M, dM], [0, M]]."""
    k = rep.arity
    G = _rep_slots(rep)
    slots = np.zeros((2 * k, 4, 4, 3 * k), dtype=complex)
    slots[:, :2, :2] = slots[:, 2:, 2:] = G
    for i in range(k):
        for j, E in enumerate(TRACELESS_BASIS):
            # X exp(t E) moves X by X E and X^-1 by -E X^-1
            slots[i, :2, 2:, 3 * i + j] = G[i, :, :, 0] @ E
            slots[k + i, :2, 2:, 3 * i + j] = -(E @ G[k + i, :, :, 0])
    plan = _word_plan(words, k)
    ends = _evaluate_plan(plan, slots)[plan.ends]
    return ends[:, :2, :2, 0], ends[:, 0, 2] + ends[:, 1, 3]


def _trace_jacobian_fd(rep, words):
    # central differences along X_i exp(+-h E_j), h = FD_STEP max(1, |X_i|);
    # the 6k perturbed generator tuples are one engine batch
    k = rep.arity
    mats = [g.mat for g in rep.generators]
    stacks = np.repeat(np.stack(mats)[..., None], 6 * k, axis=3)
    h = np.empty(3 * k)
    for i, X in enumerate(mats):
        for j, E in enumerate(TRACELESS_BASIS):
            c = 3 * i + j
            h[c] = FD_STEP * max(1.0, float(np.abs(X).max()))
            stacks[i, :, :, 2 * c] = X @ _expm_traceless(h[c] * E)
            stacks[i, :, :, 2 * c + 1] = X @ _expm_traceless(-h[c] * E)
    plan = _word_plan(words, k)
    ends = _evaluate_plan(plan, _with_inverses(stacks))[plan.ends]
    t = ends[:, 0, 0] + ends[:, 1, 1]
    return (t[:, 0::2] - t[:, 1::2]) / (2.0 * h)


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


def trace_jacobian(rep, words, method="analytic"):
    """Complex Jacobian of word traces with respect to traceless tangent
    directions at each generator (three per generator).

    method 'analytic' carries each word product and its derivative
    through the word engine; 'fd' uses central differences along
    determinant-preserving curves.  Returns (matrix, rank)."""
    if method == "analytic":
        J = _tangent_ends(rep, words)[1]
    elif method == "fd":
        J = _trace_jacobian_fd(rep, words)
    else:
        raise ValueError("method must be 'analytic' or 'fd'")
    rank, _, _ = svd_rank(J)
    return J, rank


def length_jacobian(rep, words):
    """Real Jacobian of word translation lengths over the 6 * arity real
    tangent parameters of the generator tuple.

    The real tangent basis at generator X is {X E_j, i X E_j} for the
    three traceless E_j.  For a loxodromic word with trace t and
    expanding eigenvalue lambda the length differential along a trace
    perturbation dt is 2 Re(dt / (2 lambda - t)).  Raises
    NonLoxodromicError naming the first offending word.  Returns
    (matrix, rank)."""
    ends, dT = _tangent_ends(rep, words)
    for w, kind in zip(words, _kinds(ends)):
        if kind != "loxodromic":
            raise NonLoxodromicError(
                "word %r evaluates to a %s element" % (list(w), kind),
                word=w,
                classification=kind,
            )
    J = _length_rows(ends, dT)
    rank, _, _ = svd_rank(J)
    return J, rank


def _length_rows(ends, dT):
    # length differentials of loxodromic words from their images and
    # trace differentials; the direction i X E moves the trace by i dt
    t = ends[:, 0, 0] + ends[:, 1, 1]
    lam = np.array([_expanding_eigenvalue(complex(z)) for z in t], dtype=complex)
    q = dT / (2.0 * lam - t)[:, None]
    k = dT.shape[1] // 3
    rows = np.concatenate([q.real.reshape(-1, k, 3), -q.imag.reshape(-1, k, 3)], axis=2)
    return 2.0 * rows.reshape(len(t), 6 * k)


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


def _sphere_fixed_points(m):
    """Fixed points of the Mobius action of the determinant-one matrix m
    on the Riemann sphere, as [attracting, repelling]: the eigenvector
    ratios of the expanding eigenvalue lambda and of 1/lambda.  The two
    coincide for parabolics; +-I fixes every point and gives []."""
    if m[0, 1] == 0 and m[1, 0] == 0 and m[0, 0] == m[1, 1]:
        return []
    lam = _expanding_eigenvalue(complex(m[0, 0] + m[1, 1]))
    return [_eigenvector_ratio(m, lam), _eigenvector_ratio(m, 1.0 / lam)]


def is_nonelementary(rep):
    """Numeric proxy: among the generators and their pairwise products,
    some pair of words has four distinct fixed points and no common
    fixed point within 1e-8."""
    k = rep.arity
    words = [[i + 1] for i in range(k)]
    words += [[i + 1, j + 1] for i in range(k) for j in range(k) if i != j]
    fixed = []
    for m in _word_ends(rep, words):
        pts = _sphere_fixed_points(m)
        if len(pts) == 2 and _sphere_distance(pts[0], pts[1]) > 1e-8:
            fixed.append(pts)
    for a in range(len(fixed)):
        for b in range(a + 1, len(fixed)):
            if not any(_sphere_distance(u, v) <= 1e-8 for u in fixed[a] for v in fixed[b]):
                return True
    return False


def _commutes(A, B):
    m = A @ B - B @ A
    scale = max(1.0, float(np.abs(A).max() * np.abs(B).max()))
    return float(np.abs(m).max()) <= 1e-9 * scale


def _loxodromic(rep, words):
    return [kind == "loxodromic" for kind in _kinds(_word_ends(rep, words))]


def coordinate_words(rep, seed_words, budget=40):
    """Massage a word set into length coordinates: every word loxodromic,
    first three pairwise non-commuting, then grow until the length
    Jacobian reaches maximal rank (6 * arity - 6) or the budget runs out.
    """
    if not is_nonelementary(rep):
        raise ValueError("representation is elementary; no length chart exists")
    k = rep.arity
    words = [check_word(w, k) for w in seed_words]

    # find a loxodromic pivot among seeds, generators, and short products
    candidates = list(words) + [[i + 1] for i in range(k)]
    for i in range(k):
        for j in range(k):
            candidates.append([i + 1, j + 1])
            candidates.append([i + 1, -(j + 1)])
    lox = _loxodromic(rep, candidates)
    if not any(lox):
        raise ValueError("no loxodromic element found among short words")
    pivot = candidates[lox.index(True)]

    # a seed that is not loxodromic gives way to its product with the
    # pivot or the pivot's inverse, or is dropped; traces of dropped
    # words are recoverable via tr(XY)+tr(XY^{-1})=tr(X)tr(Y)
    repairs = [c for w in words for c in (pivot + w, word_inverse(pivot) + w)]
    repaired = _loxodromic(rep, repairs)
    fixed = []
    for n, w in enumerate(words):
        options = zip([w] + repairs[2 * n:2 * n + 2], [lox[n]] + repaired[2 * n:2 * n + 2])
        fixed += [c for c, ok in options if ok][:1]
    if pivot not in fixed:
        fixed.insert(0, pivot)

    # first three pairwise non-commuting, replacing a commuting pair by
    # products with the pivot word
    def reorder_noncommuting(ws):
        n = len(ws)
        mats = _word_ends(rep, ws)
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
                    tm = _word_ends(rep, trio)
                    if (
                        all(kind == "loxodromic" for kind in _kinds(tm))
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
            for i in range(k):
                extras.append([i + 1])
                for j in range(i + 1, k):
                    extras.append([i + 1, j + 1])
            extras = [w for w, ok in zip(extras, _loxodromic(rep, extras)) if ok]
            fixed, ok = reorder_noncommuting(fixed + extras)
            if not ok:
                raise ValueError("could not arrange three pairwise non-commuting words")

    # grow from the pool of short reduced words in order, keeping a word
    # when it raises the rank; the length Jacobian rows of the chosen
    # words and of the whole pool come from one engine call
    target = 6 * k - 6
    seen = {tuple(w) for w in fixed}
    pool = [w for w in _reduced_words(k, 4 if k <= 2 else 3) if tuple(w) not in seen]
    ends, dT = _tangent_ends(rep, fixed + pool)
    lox = np.array([kind == "loxodromic" for kind in _kinds(ends)])
    if not lox[:len(fixed)].all():
        return fixed
    rows = np.zeros((len(lox), 6 * k))
    rows[lox] = _length_rows(ends[lox], dT[lox])
    chosen = list(range(len(fixed)))
    rank = svd_rank(rows[chosen])[0]
    for n in np.flatnonzero(lox[len(fixed):]) + len(fixed):
        if len(chosen) >= budget or rank >= target:
            break
        trial = svd_rank(rows[chosen + [n]])[0]
        if trial > rank:
            chosen.append(n)
            rank = trial
    return [(fixed + pool)[n] for n in chosen]


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

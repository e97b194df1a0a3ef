"""Trace calculus for SL(2, C) representations of free groups.

Classification of elements, translation lengths on hyperbolic 3-space,
the trace-length gauge, the Fricke/Vogt quadratic for triple products,
and Jacobians of trace and length coordinates with respect to generator
deformations.  Words in the generators are plain lists of signed 1-based
indices: [1, -2, 1] means g1 g2^{-1} g1.

Every many-word and derivative computation, here and in spectrum, goes
through one engine: a product tree of the words (_word_plan, built once
per word list) evaluated for a batch of generator tuples
(_evaluate_plan), in forward mode given slot tangents, each product and
its differentials a dual pair (M, dM).  One reader, _plan_traces, takes
the images and traces of the words from it; for a representation,
_word_traces raises ArithmeticError naming a word whose trace leaves the
float range, so SL2Rep.evaluate (a batch of one), trace_word, the length
oracle and the Jacobians do.  check_word is the one word validator.

Every translation length is read from traces by one batched kernel
(_trace_lengths), whose length differentials are _length_rows, and one
check (_loxodromic) raises NonLoxodromicError, naming the class and any
word, for an element that must be loxodromic.  Points of the Riemann
sphere have one representation, their lifts to C^2 ((z, 1), and (1, 0)
for infinity): _lift reads math.inf from a point, _point writes it.
"""

from __future__ import annotations

import cmath
import functools
import math
from collections import namedtuple

import numpy as np

from .algebra import _frozen, _Value, decode_complex, encode_complex

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


class SL2(_Value):
    """A determinant-one 2x2 complex matrix."""

    __slots__ = ("_m",)

    def __init__(self, entries, check=True):
        m = np.asarray(entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("SL2 expects a 2x2 matrix, got shape %s" % (m.shape,))
        if check:
            if not np.isfinite(m).all():
                raise ValueError("SL2 entries must be finite")
            with np.errstate(over="ignore", invalid="ignore"):
                det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
                scale = max(1.0, float(np.abs(m).max()))
            # the tolerance grows with the entries squared; an overflowed det fails
            if not abs(det - 1.0) / scale <= DET_TOL * scale:
                raise ValueError("determinant %s is not 1 within tolerance" % det)
        self._set(m.copy())

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


class SL2Rep(_Value):
    """A representation of a free group: an ordered tuple of SL2 generators."""

    __slots__ = ("_gens",)

    def __init__(self, generators):
        gens = tuple(g if isinstance(g, SL2) else SL2(g) for g in generators)
        if not gens:
            raise ValueError("need at least one generator")
        self._set(gens)

    @property
    def generators(self):
        return self._gens

    @property
    def arity(self):
        return len(self._gens)

    def evaluate(self, word):
        """The image of word: _word_traces on a batch of one, so an overflow raises."""
        return SL2(_word_traces(self, [word])[0][0], check=False)

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
        if type(letter) is int and letter and -arity <= letter <= arity:
            continue  # the usual letter
        # bool is an int subclass, but True is not a letter
        if not isinstance(letter, (int, np.integer)) or isinstance(letter, bool) or letter == 0:
            raise ValueError("word letters are nonzero signed integers, got %r" % (letter,))
        if abs(letter) > arity:
            raise ValueError("letter %d out of range for arity %d" % (letter, arity))
    return list(map(int, word))


def word_inverse(word):
    return [-l for l in reversed(word)]


def classify(A):
    """One of 'identity', 'parabolic', 'elliptic', 'loxodromic'.

    Loxodromic means the trace lies off the real interval [-2, 2]
    (within 1e-9).  On the boundary trace = +-2 the element is the
    identity when it equals +-I and parabolic otherwise.
    """
    t = A.trace()
    if _trace_lengths(t).loxodromic:
        return "loxodromic"
    x = t.real
    if abs(x - 2.0) <= CLASSIFY_TOL or abs(x + 2.0) <= CLASSIFY_TOL:
        sign = 1.0 if x > 0 else -1.0
        if np.abs(A.mat - sign * np.eye(2)).max() <= CLASSIFY_TOL:
            return "identity"
        return "parabolic"
    return "elliptic"


class _Lengths(namedtuple("_Lengths", "lam root length loxodromic")):
    __slots__ = ()

    @property
    def translation(self):
        """The translation length: length where loxodromic, and 0 on the
        other traces, where the smooth length can read a rounding error."""
        return np.where(self.loxodromic, self.length, 0.0)


def _scaled(z, k):
    # z 2^k for complex z, part by part: exact, and bit for bit z where k = 0
    with np.errstate(over="ignore"):
        return np.stack([np.ldexp(z.real, k), np.ldexp(z.imag, k)], axis=-1).view(complex)[..., 0]


def _trace_lengths(t, e=0):
    """The translation length from the traces t of matrices S and exponents
    e (arrays that broadcast), 2^e S of determinant one: lam, the expanding
    root of x^2 - t x + 4^-e; root = 2 lam - t; length = 2 max(e log 2 +
    log|lam|, 0), the length of a loxodromic 2^e S, smooth elsewhere; and
    the loxodromic mask, classify's rule on the trace 2^e t.  A trace with
    a part of 2^256 or more moves into e by an exact power of two, below it
    no bit moves; a non-finite trace gives non-finite values, no warning."""
    t = np.asarray(t, dtype=complex)
    re, im = np.abs(t.real), np.abs(t.imag)
    k = np.frexp(np.maximum(re, im))[1]  # 0 for a non-finite trace
    if k.max(initial=0) > 256:  # so that t t cannot overflow
        k = np.where(k > 256, k, 0)
        r = _trace_lengths(_scaled(t, -k), e + k)
        return r._replace(lam=_scaled(r.lam, k), root=_scaled(r.root, k))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        root = np.sqrt(t * t - np.ldexp(4.0, -2 * e))
        plus, minus = (t + root) / 2.0, (t - root) / 2.0
        a, b = np.abs(plus), np.abs(minus)
        up = a >= b
        length = 2.0 * np.maximum(np.log(np.maximum(a, b)) + e * math.log(2.0), 0.0)
        # |2^e t| against classify's bounds, compared at the scale of t
        loxodromic = (im > CLASSIFY_TOL * 2.0 ** -e) | (re > (2.0 + CLASSIFY_TOL) * 2.0 ** -e)
    return _Lengths(np.where(up, plus, minus), np.where(up, root, -root), length, loxodromic)


def _loxodromic(r, mats, e=0, word=None):
    """r, the _trace_lengths of the matrices 2^e mats, if all are
    loxodromic; else NonLoxodromicError with the class of the first that
    is not, and its word word(i) for row i when word is given."""
    if r.loxodromic.all():
        return r
    i = int(np.argmin(r.loxodromic))
    kind = classify(SL2(_scaled(mats[i], np.broadcast_to(e, r.loxodromic.shape)[i]), check=False))
    w = None if word is None else list(word(i))
    name = "element" if w is None else "word %r" % (w,)
    raise NonLoxodromicError("%s is %s, not loxodromic" % (name, kind), word=w, classification=kind)


def length(A):
    """Translation length 2 log|lambda| of a loxodromic element."""
    return float(_loxodromic(_trace_lengths([A.trace()]), [A.mat]).length[0])


def length_gauge(A):
    """|tr - 2| + |tr + 2| of an SL2 element A, or of the trace A itself;
    equals 2(e^{l/2} + e^{-l/2}) for loxodromics."""
    t = A.trace() if isinstance(A, SL2) else A
    return abs(t - 2.0) + abs(t + 2.0)


def gauge_to_length(g):
    """Invert the gauge on loxodromics: g >= 4 maps to
    2 log((g + sqrt(g^2-16))/4) = 2 acosh(g / 4), which does not overflow."""
    g = float(g)
    if g < 4.0 - 1e-12:
        raise ValueError("gauge %s below the loxodromic threshold 4" % g)
    return 2.0 * math.acosh(max(g / 4.0, 1.0))


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
    """A word list as a product tree, built once per list and evaluated
    per batch: check_word checks the words, and the plan of the checked
    words is memoised (_product_tree), so equal lists share one plan."""
    return _product_tree(tuple(tuple(check_word(w, arity)) for w in words), arity)


@functools.lru_cache(maxsize=64)
def _product_tree(words, arity):
    """The plan of checked word tuples, its arrays read-only.

    Nodes 0..2k are the empty word and the generator slots, ordered
    (g1..gk, g1^-1..gk^-1) for arity k.  Every later node is the product
    of two earlier nodes: a word w of length L >= 2 is w[:h] w[h:], h the
    largest power of two below L, so it is ceil(log2 L) products deep,
    and a subword shared by several words is one node.  Nodes are
    numbered by depth: each entry (lo, hi, left, right) of levels makes
    nodes lo..hi-1 as products of the nodes left and right, and ends[i]
    is the node of words[i]."""
    depth, operands, memo = [0] * (1 + 2 * arity), [(0, 0)] * (1 + 2 * arity), {}

    def node(w):
        if len(w) < 2:
            return abs(w[0]) + (arity if w[0] < 0 else 0) if w else 0
        if w not in memo:
            h = 1 << (len(w) - 1).bit_length() - 1
            a, b = node(w[:h]), node(w[h:])
            memo[w] = len(depth)
            depth.append(max(depth[a], depth[b]) + 1)
            operands.append((a, b))
        return memo[w]

    ends = [node(w) for w in words]
    depth, (left, right) = np.array(depth), np.array(operands).T
    order = np.argsort(depth, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    bounds = np.searchsorted(depth[order], np.arange(1, depth.max() + 2))
    levels = tuple((int(lo), int(hi), _frozen(rank[left[order[lo:hi]]]), _frozen(rank[right[order[lo:hi]]]))
                   for lo, hi in zip(bounds[:-1], bounds[1:]))
    return _WordPlan(len(depth), levels, _frozen(rank[np.array(ends, dtype=int)]))


def _matmul(A, B, out=None, scratch=None):
    """Products of the n x n matrices of (m, n, n, ...) batches, broadcast
    over the rest, summed in the order of A @ B, later terms in scratch."""
    out = np.multiply(A[:, :, 0, None], B[:, None, 0], out)
    for j in range(1, A.shape[2]):
        out += np.multiply(A[:, :, j, None], B[:, None, j], scratch)
    return out


def _adjugate(A):
    # inverses of determinant-one 2x2 matrices (k, 2, 2, ...); linear, so it maps tangents too
    a, b, c, d = (A[:, i, j] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    return np.array([[d, -b], [-c, a]]).transpose(2, 0, 1, *range(3, A.ndim))  # cheaper than np.moveaxis


def _with_inverses(gens):
    """Engine slots (g1..gk, g1^-1..gk^-1), or their tangents, of (k, 2, 2, ...)."""
    return np.concatenate([gens, _adjugate(gens)])


def _evaluate_plan(plan, slots, tangents=None):
    """The (size, n, n, P) node matrices of a plan, plan.ends the words'
    ends, for P slot tuples (S, n, n, P): one product per node and row,
    so a row does not depend on the rest of the batch.  Slot tangents
    (S, n, n, q, P) make the nodes dual pairs (size, n, n, 1 + q, P), value
    first on one component axis, at two products [M|dM] B and M dB a
    node.  The nodes and each depth's factors and terms share one work
    array allocated per call.  A product past the float range reads inf
    or NaN without a warning; callers check."""
    slots = slots[:, :, :, None] if tangents is None else np.concatenate(
        [slots[:, :, :, None], tangents], axis=3)
    width = max((hi - lo for lo, hi, _, _ in plan.levels), default=0)
    work = np.empty((plan.size + 3 * width,) + slots.shape[1:], dtype=complex)
    C = slots.shape[3]
    nodes, factors = work[:plan.size], work[plan.size:].reshape((3, width) + work.shape[1:])
    nodes[0] = np.eye(slots.shape[1])[:, :, None, None] * np.eye(C, 1)
    nodes[1:1 + len(slots)] = slots
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi, left, right in plan.levels:
            A, B, T = factors[:, :hi - lo]
            nodes.take(left, axis=0, out=A, mode="clip")
            nodes.take(right, axis=0, out=B, mode="clip")
            _matmul(A, B[:, :, :, :1], nodes[lo:hi], T)
            if C > 1:  # M dB, with the left factors' spent differentials as scratch
                nodes[lo:hi, :, :, 1:] += _matmul(A[..., :1, :], B[..., 1:, :], T[..., 1:, :], A[..., 1:, :])
    return nodes if C > 1 else nodes[:, :, :, 0]


def _rep_slots(rep):
    return _with_inverses(np.stack([g.mat for g in rep.generators])[..., None])


def _plan_traces(plan, slots, tangents=None):
    """The word ends of a plan for slot tuples, (W, n, n, P) or with slot
    tangents (W, n, n, 1 + q, P) as _evaluate_plan lays them out, and
    their traces (W, P) or (W, 1 + q, P): one engine call."""
    ends = _evaluate_plan(plan, slots, tangents)[plan.ends]
    return ends, ends[:, 0, 0] + ends[:, 1, 1]


def _word_traces(rep, words, plan=None, tangents=False):
    """The images (W, 2, 2) of words under rep and their traces (W,), or
    with tangents (W, 1 + 3k), column 1 + 3i + j the differential along the
    curve X_i exp(t E_j): one engine call, through plan if given (the plan
    of words).  ArithmeticError names the first word whose image, trace or
    a differential is not finite: a product past the float range."""
    k = rep.arity
    G, dG = _rep_slots(rep), None
    if tangents:
        dG = np.zeros((2 * k, 2, 2, 3 * k, 1), dtype=complex)
        for i in range(k):
            for j, E in enumerate(TRACELESS_BASIS):
                # X exp(t E) moves X by X E and X^-1 by -E X^-1
                dG[i, :, :, 3 * i + j, 0] = G[i, :, :, 0] @ E
                dG[k + i, :, :, 3 * i + j, 0] = -(E @ G[k + i, :, :, 0])
    ends, T = _plan_traces(_word_plan(words, k) if plan is None else plan, G, dG)
    ends, T = ends[..., 0], T[..., 0]
    if not (np.isfinite(T).all() and np.isfinite(ends).all()):
        bad = [~np.isfinite(a).reshape(len(a), -1).all(axis=1) for a in (ends, T)]
        raise ArithmeticError("word %r overflows the float range" % (list(words[int(np.argmax(bad[0] | bad[1]))]),))
    return (ends[:, :, :, 0] if tangents else ends), T


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
    t = _plan_traces(_word_plan(words, k), _with_inverses(stacks))[1]
    return (t[:, 0::2] - t[:, 1::2]) / (2.0 * h)


def svd_rank(matrix, rtol=RANK_RTOL):
    """Rank by singular values above rtol * sigma_max.

    Returns (rank, singular_values, threshold)."""
    M = np.asarray(matrix)
    if M.size == 0:
        return 0, np.zeros(0), 0.0
    s = np.linalg.svd(M if np.iscomplexobj(M) else M.astype(float), compute_uv=False)
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
        J = _word_traces(rep, words, tangents=True)[1][:, 1:]
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
    three traceless E_j; _length_rows gives the rows.  Raises
    NonLoxodromicError naming the first word that is not loxodromic, and
    ArithmeticError naming one whose product overflows.  Returns
    (matrix, rank)."""
    ends, T = _word_traces(rep, words, tangents=True)
    r = _loxodromic(_trace_lengths(T[:, 0]), ends, word=words.__getitem__)
    J = _length_rows(T[:, 1:], r.root)
    rank, _, _ = svd_rank(J)
    return J, rank


def _length_rows(dT, root, group=3):
    """Length differentials (..., 2d) from the differentials dT (..., d) of
    traces t along d holomorphic directions and root = 2 lambda - t (...)
    from _trace_lengths: 2 Re q along dt and -2 Im q along i dt,
    q = dt / root; real columns first in each block of group directions."""
    q = dT / root[..., None]
    q = q.reshape(q.shape[:-1] + (-1, group))
    return 2.0 * np.concatenate([q.real, -q.imag], axis=-1).reshape(root.shape + (-1,))


def default_f2_words():
    """Six words on two generators whose lengths give a full local chart."""
    return [[1], [2], [1, 2], [1, -2], [1, 1, 2], [1, 2, 2]]


def _reduced_words(arity, max_len):
    """All freely reduced words of length 1..max_len, shortest first."""
    letters = [i for i in range(1, arity + 1)] + [-i for i in range(1, arity + 1)]
    frontier = [[l] for l in letters]
    yield from (list(w) for w in frontier)
    for _ in range(max_len - 1):
        frontier = [w + [l] for w in frontier for l in letters if l != -w[-1]]
        yield from (list(w) for w in frontier)


def _lift(z):
    """The lift of a point of the Riemann sphere to C^2: (1, 0) for
    infinity (math.inf, or a complex with an infinite part), (z, 1) for
    finite z, or past 2^500 its multiple (2^-e z, 2^-e), exact and with
    finite squares.  The one reader of the encoding of infinity."""
    if abs(z) <= 2.0 ** 500:
        return (complex(z), 1.0)
    if cmath.isinf(z):
        return (1.0, 0.0)
    s = 2.0 ** -math.frexp(abs(z))[1]
    return (complex(z) * s, s)


def _point(v):
    """The point v0/v1 lifted to v, math.inf exactly where v1 = 0: the one
    writer of the encoding of infinity.  numpy divides by forming 1/v1, so
    a lift with |v1| below 2^-500 is first scaled by 2^500, exactly.  A
    quotient past the float range raises ArithmeticError; numpy's warning
    is the caller's to silence."""
    if v[1] == 0:
        return math.inf
    a, b = v
    if abs(b) < 2.0 ** -500:
        a, b = a * 2.0 ** 500, b * 2.0 ** 500
    z = complex(a / b)
    if not cmath.isfinite(z):
        raise ArithmeticError("fixed point %r / %r overflows the float range" % (complex(v[0]), complex(v[1])))
    return z


def _sphere_distance(z, w):
    """Chordal distance |det [u v]| of two points with unit lifts u, v."""
    u, v = np.array(_lift(z), dtype=complex), np.array(_lift(w), dtype=complex)
    u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
    return abs(u[0] * v[1] - u[1] * v[0])


def _sphere_fixed_points(m, lam):
    """Lifts [attracting, repelling] of the fixed points of m in SL2: the
    eigenvectors (-b, a) of its expanding eigenvalue lam (_trace_lengths)
    and of 1/lam, off the larger row (a, b) of m - lam, so the quadratic
    formula's cancellation never enters; equal for parabolics, 0 for +-I."""
    lifts = []
    for mu in (lam, 1.0 / lam):
        r1, r2 = (m[0, 0] - mu, m[0, 1]), (m[1, 0], m[1, 1] - mu)
        a, b = r1 if max(abs(r1[0]), abs(r1[1])) >= max(abs(r2[0]), abs(r2[1])) else r2
        lifts.append((-b, a))
    return lifts


def is_nonelementary(rep):
    """Numeric proxy: among the generators and their pairwise products,
    some pair of words has four distinct fixed points and no common
    fixed point within 1e-8, in the chordal distance of their lifts."""
    k = rep.arity
    words = [[i + 1] for i in range(k)]
    words += [[i + 1, j + 1] for i in range(k) for j in range(k) if i != j]
    ends, t = _word_traces(rep, words)
    U = np.array([_sphere_fixed_points(m, lam) for m, lam in zip(ends, _trace_lengths(t).lam.tolist())])
    U /= np.maximum(np.abs(U).max(axis=-1, keepdims=True), np.finfo(float).tiny)  # no product below overflows
    # far[i, j, p, q]: point p of word i, lifted to U[i, p], is more than 1e-8 from point q of word j
    u, v = U[:, None, :, None], U[None, :, None, :]
    far = (np.abs(u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0])
           > 1e-8 * np.linalg.norm(u, axis=-1) * np.linalg.norm(v, axis=-1))
    distinct = np.diagonal(far[:, :, 0, 1])  # +-I, with lifts 0, has none
    return bool(np.triu(far.all(axis=(2, 3)) & distinct[:, None] & distinct[None, :], 1).any())


def _commutes(A, B):
    m = A @ B - B @ A
    scale = max(1.0, float(np.abs(A).max() * np.abs(B).max()))
    return float(np.abs(m).max()) <= 1e-9 * scale


def coordinate_words(rep, seed_words):
    """Massage a word set into length coordinates, every word loxodromic.

    Each seed is kept if it is loxodromic, or else gives way to the first
    loxodromic of its letter products g w (g = 1, -1, 2, -2, ...), or is
    dropped; a word kept for two seeds is kept once, at the first. First
    come the first 3 pairwise non-commuting loxodromic words, in order from
    the kept seeds and then the pool of short reduced words; then the other
    kept seeds; then each pool word that raises the length Jacobian's rank,
    until the rank reaches 6 * arity - 6 or 40 words are chosen. The
    traces, differentials and matrices of all candidates are one engine call.
    """
    if not is_nonelementary(rep):
        raise ValueError("representation is elementary; no length chart exists")
    k = rep.arity
    seeds = [check_word(w, k) for w in seed_words]
    letters = [g for i in range(1, k + 1) for g in (i, -i)]
    words = [v for w in seeds for v in [w] + [[g] + w for g in letters]]
    n_seeded = len(words)
    words += list(_reduced_words(k, 4 if k <= 2 else 3))
    M, T = _word_traces(rep, words, tangents=True)
    r = _trace_lengths(T[:, 0])
    lox = r.loxodromic
    if not lox.any():
        raise ValueError("no loxodromic element found among short words")
    rows = np.zeros((len(words), 6 * k))
    rows[lox] = _length_rows(T[lox, 1:], r.root[lox])

    step = len(letters) + 1
    kept = [s + int(np.argmax(lox[s:s + step])) for s in range(0, n_seeded, step) if lox[s:s + step].any()]
    kept = [n for i, n in enumerate(kept) if words[n] not in [words[m] for m in kept[:i]]]
    seen = {tuple(words[n]) for n in kept}
    pool = [n for n in range(n_seeded, len(words)) if lox[n] and tuple(words[n]) not in seen]
    chosen = []
    for n in kept + pool:
        if len(chosen) < 3 and not any(_commutes(M[n], M[c]) for c in chosen):
            chosen.append(n)
    chosen += [n for n in kept if n not in chosen]
    rank = svd_rank(rows[chosen])[0]
    for n in [n for n in pool if n not in chosen]:
        if len(chosen) >= 40 or rank >= 6 * k - 6:
            break
        trial = svd_rank(rows[chosen + [n]])[0]
        if trial > rank:
            chosen.append(n)
            rank = trial
    return [words[n] for n in chosen]


def random_sl2(rng):
    """A random determinant-one matrix from a complex Gaussian."""
    while True:
        m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
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

"""Length-spectrum estimation and inversion for SL(2, C) representations.

The product-length sequence e^{l(a^n) + l(b^n) - l(a^n b^n)} converges to
the modulus of the boundary cross-ratio of the four fixed points; this
module computes the sequence, extrapolates its limit, and inverts a
length oracle back to a representation, unique up to conjugacy and
entrywise complex conjugation.  The same sequence is available for
form-preserving matrix isometries of real, complex and quaternionic
hyperbolic space, whose powers are stepped on their complex embeddings.
Every word evaluation goes through the word engine of sl2traces, read by
its one reader (_plan_traces), every SL2 length through its one length
kernel (_trace_lengths), and every element that must be loxodromic
through its one check (_loxodromic).
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from collections import namedtuple

import numpy as np

from .ballmodel import crossratio_ball
from .isometry import _complex_embedding, _hyperbolic, boundary_fixed_points
from .nilboundary import _crossratio_quotient
from . import sl2traces
from .sl2traces import (
    SL2,
    SL2Rep,
    NonLoxodromicError,
    check_word,
    is_nonelementary,
    word_inverse,
    _length_rows,
    _lift,
    _loxodromic,
    _plan_traces,
    _point,
    _reduced_words,
    _rep_slots,
    _sphere_distance,
    _sphere_fixed_points,
    _trace_lengths,
    _word_traces,
)

__all__ = [
    "LengthOracle",
    "FixedPair",
    "fixed_points",
    "lemma1_sequence",
    "lemma1_matrix_sequence",
    "matrix_crossratio_reference",
    "crossratio_estimate",
    "crossratio_of_pair",
    "default_budget_words",
    "reconstruct",
    "reconstruct_report",
    "conjugacy_distance",
    "random_schottky_pair",
]


class OracleMissError(KeyError):
    """A table-backed oracle was asked for a word it does not cover."""

    def __init__(self, word):
        super().__init__("oracle table has no entry for word %r" % (list(word),))
        self.word = list(word)


class LengthOracle:
    """Queryable translation-length function on words.

    Backed either by a representation (lengths computed on demand, a word
    list with one engine call; non-loxodromic words have geometric length
    0, and a product past the float range raises ArithmeticError) or by a
    stored table.  check_word checks each word against the arity: the
    representation's, or the table's largest letter.  Optional additive
    noise of scale sigma is deterministic per word."""

    def __init__(self, rep=None, table=None, noise=0.0, seed=0):
        if (rep is None) == (table is None):
            raise ValueError("provide exactly one of rep or table")
        self._rep = rep
        self._table = None if table is None else {tuple(k): float(v) for k, v in table.items()}
        for word, value in (self._table or {}).items():
            if not math.isfinite(value):
                raise ValueError("table length of word %r is not finite: %r" % (list(word), value))
        self._noise = float(noise)
        self._seed = int(seed)

    @property
    def rep(self):
        return self._rep

    @functools.cached_property
    def arity(self):
        """The rep's arity, or the table's largest letter; a table key with
        a letter that is not a nonzero integer raises ValueError naming it."""
        if self._rep:
            return self._rep.arity
        letters = tuple(itertools.chain.from_iterable(self._table))
        if set(map(type, letters)) <= {int}:  # plain int letters, read at C speed
            sizes = set(map(abs, letters))
            if 0 not in sizes:
                return max(sizes, default=0)
        # a key holding each distinct letter, told apart by type too:
        # True and 1.0 hash as 1
        holders = {(type(l), l): w for w in self._table for l in w}
        for (_, letter), w in holders.items():
            try:
                check_word([letter], math.inf)
            except ValueError as err:
                raise ValueError("table key %r: %s" % (w, err)) from None
        return max((abs(l) for _, l in holders), default=0)

    def lengths(self, words):
        """The lengths of a word list; OracleMissError names a table miss."""
        arity = self.arity
        return self._checked_lengths(tuple(tuple(check_word(w, arity)) for w in words))

    def _checked_lengths(self, words):
        # lengths of a tuple of checked word tuples: the read behind lengths,
        # and reconstruct_report's read of its cached word lists
        if self._table is not None:
            return self._lookup(words)
        traces = _word_traces(self._rep, words, sl2traces._product_tree(words, self.arity))[1]
        return self._answers(words, _trace_lengths(traces).translation)

    def _lookup(self, words):
        try:  # the table's answers for checked word tuples
            bases = [self._table[w] for w in words]
        except KeyError as miss:
            raise OracleMissError(miss.args[0]) from None
        return self._answers(words, bases)

    def length(self, word):
        return self.lengths([word])[0]

    def __call__(self, word):
        return self.length(word)

    def _answers(self, words, bases):
        # the exact lengths bases of words clamped at 0, in one call for an
        # exact oracle; only a noisy oracle reads the words
        if self._noise > 0.0:
            return [self._answer(w, b) for w, b in zip(words, map(float, bases))]
        return np.maximum(bases, 0.0).tolist()

    def _answer(self, word, base):
        # the exact length base plus the word's deterministic noise draw, clamped at 0
        mix = np.random.default_rng((self._seed, 1789, abs(hash(tuple(word))) % (2**32)))
        return max(base + self._noise * mix.standard_normal(), 0.0)

    def power_lengths(self, a, b, N, check=True):
        """The lengths of a^n, b^n and a^n b^n for n = 1..N, as N triples.

        A table oracle looks each power word up.  A rep oracle reads the
        images of a and b once and steps their powers by _scaled_powers,
        so every length is finite and the cost is linear in N.  With
        check=True a non-loxodromic power raises NonLoxodromicError naming
        the power word; with check=False its length is 0."""
        _check_count(N)
        if not len(a) or not len(b):
            raise ValueError("argument '%s' is an empty word" % ("b" if len(a) else "a"))
        a, b = (tuple(check_word(w, self.arity)) for w in (a, b))

        def power(i):  # a^n, b^n or a^n b^n, n = i // 3 + 1
            n = i // 3 + 1
            return (a * n, b * n, a * n + b * n)[i % 3]

        if self._table is not None:  # power words of checked a and b
            flat = self._lookup([power(i) for i in range(3 * N)])
        else:
            A, B = _word_traces(self._rep, (a, b), sl2traces._product_tree((a, b), self.arity))[0]
            S, e = _scaled_powers(A, B, N)
            r = _trace_lengths(S[:, 0, 0] + S[:, 1, 1], e)
            if check:
                _loxodromic(r, S, e, power)
            flat = self._answers(map(power, range(3 * N)), r.translation)
        return [tuple(flat[i:i + 3]) for i in range(0, 3 * N, 3)]


def _check_count(N):
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)) or N < 1:
        raise ValueError("argument 'N' must be a positive integer, got %r" % (N,))


def _scaled_powers(A, B, N):
    """The powers A^n, B^n and A^n B^n of two complex square matrices for
    n = 1..N, in that order, as a stack S (3N, n, n) and integer exponents
    e (3N,) with 2^e S the power.  A^n and B^n step in lockstep, one
    stacked product [A^(n-1), B^(n-1)] @ [A, B] per n, and every A^n B^n
    comes from one batched product at the end; a matrix past 2^256 is
    rescaled by _rescaled.

    A size check runs only when a bound says a power may pass 2^256.
    Rounded products obey |fl(PG)| <= |P||G|(1 + gamma) entrywise (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, 3.5), so k steps
    after a check whose largest entry was top, every entry is at most
    rows * top * g^k, g the largest absolute row sum of A and B with a
    rounding slack.  A step the bound keeps below 2^256 could not have
    rescaled, so (S, e) are those of a check at every step; a NaN or
    infinite bound always checks.  A check skips NaN entries, so a NaN in
    one power leaves the other's rescale, as _rescaled one at a time does."""
    G = np.stack([A, B])
    P = np.empty((N, 3) + G.shape[1:], dtype=G.dtype)
    shifts = np.zeros((N, 3), dtype=int)  # the exponent each rescale adds
    P[0, :2] = G
    absG = np.abs(G)
    g = float(absG.sum(axis=-1).max()) * (1.0 + 1e-10)
    bound = G.shape[1] * float(absG.max())
    for n in range(1, N):
        np.matmul(P[n - 1, :2], G, out=P[n, :2])
        bound *= g
        if not bound <= 2.0 ** 256:
            top = np.fmax.reduce(np.abs(P[n, :2]), axis=None)
            if top > 2.0 ** 256:
                for j in (0, 1):
                    P[n, j], shifts[n, j] = _rescaled(P[n, j], 0)
                top = np.fmax.reduce(np.abs(P[n, :2]), axis=None)
            bound = G.shape[1] * float(top)
    e = np.cumsum(shifts, axis=0)
    e[:, 2] = e[:, 0] + e[:, 1]
    np.matmul(P[:, 0], P[:, 1], out=P[:, 2])
    for n in np.flatnonzero(np.abs(P[:, 2]).max(axis=(1, 2)) > 2.0 ** 256):
        P[n, 2], e[n, 2] = _rescaled(P[n, 2], e[n, 2])
    return P.reshape((3 * N,) + G.shape[1:]), e.reshape(3 * N)


def _rescaled(S, e):
    # (S', e') with 2^e' S' = 2^e S and entries of S' at most 2^256: the
    # product of two such stays below 2^513 and, rescaled once more, has
    # a finite squared trace
    big = float(np.abs(S).max())
    if big <= 2.0 ** 256:
        return S, e
    k = math.frexp(big)[1]
    return S * math.ldexp(1.0, -k), e + k


class FixedPair:
    """Repelling and attracting fixed points on the Riemann sphere.

    Points are complex numbers or math.inf for the point at infinity.
    """

    __slots__ = ("repelling", "attracting")

    def __init__(self, repelling, attracting):
        if _sphere_distance(repelling, attracting) < 1e-14:
            raise ValueError("fixed points must be distinct")
        object.__setattr__(self, "repelling", repelling)
        object.__setattr__(self, "attracting", attracting)

    def __setattr__(self, name, value):
        raise AttributeError("FixedPair is immutable")

    def swapped(self):
        return FixedPair(self.attracting, self.repelling)

    def __repr__(self):
        return "FixedPair(repelling=%r, attracting=%r)" % (self.repelling, self.attracting)


def fixed_points(A):
    """Fixed points of a loxodromic element, labeled by dynamics: the
    attracting point is the eigenvector ratio of the expanding
    eigenvalue.  diag(2, 1/2) attracts to infinity and repels from 0."""
    return _fixed_pairs(A)[0]


def _fixed_pairs(*mats):
    # fixed_points of each element, from one call of the length kernel
    lams = _loxodromic(_trace_lengths([A.trace() for A in mats]), [A.mat for A in mats]).lam
    with np.errstate(over="ignore", invalid="ignore"):  # _point raises on a point past the float range
        return [FixedPair(*map(_point, _sphere_fixed_points(A.mat, lam)[::-1])) for A, lam in zip(mats, lams.tolist())]


def complex_crossratio(x1, x2, x3, x4):
    """(x1-x3)(x2-x4) / ((x1-x4)(x2-x3)) on the Riemann sphere.

    Each difference xi - xj is det [lift_i, lift_j] of the lifts to C^2,
    so infinity needs no rule of its own, and the quotient follows the
    one cross-ratio policy of every model (_crossratio_quotient)."""
    (a1, b1), (a2, b2), (a3, b3), (a4, b4) = map(_lift, (x1, x2, x3, x4))
    n = (a1 * b3 - b1 * a3) * (a2 * b4 - b2 * a4)
    d = (a1 * b4 - b1 * a4) * (a2 * b3 - b2 * a3)
    return _crossratio_quotient(n, d)


def crossratio_of_pair(A, B):
    """Modulus-squared cross-ratio of the fixed-point quadruple
    (repelling A, repelling B, attracting A, attracting B); this is the
    limit of the product-length sequence."""
    fa, fb = _fixed_pairs(A, B)
    return abs(complex_crossratio(fa.repelling, fb.repelling, fa.attracting, fb.attracting)) ** 2


def lemma1_sequence(oracle, a, b, N, check=True):
    """The sequence e^{l(a^n) + l(b^n) - l(a^n b^n)} for n = 1..N.

    The lengths come from oracle.power_lengths, so for a rep oracle the
    terms are finite for any N and the cost is linear in N.  With
    check=True a non-loxodromic power raises; check=False lets the
    degenerate cases through (b = a^{-1} gives a divergent sequence)."""
    return [math.exp(la + lb - lab) for la, lb, lab in oracle.power_lengths(a, b, N, check)]


def lemma1_matrix_sequence(A, B, N):
    """Product-length sequence for two hyperbolic form-preserving
    matrices acting on real, complex or quaternionic hyperbolic space.
    A non-hyperbolic generator raises NotHyperbolicError naming it; early
    products that are not hyperbolic contribute geometric length 0.  The
    complex embeddings of A and B are powered and rescaled as in
    power_lengths, so every term is finite and the cost is linear in N."""
    _check_count(N)
    if A.config != B.config:
        raise ValueError("configuration mismatch")
    emb = _complex_embedding(A.config.kind, np.stack([A.coeffs, B.coeffs]))
    l = _hyperbolic(*_scaled_powers(emb[0], emb[1], N), ("generator A", "generator B"))
    return [math.exp(l[i] + l[i + 1] - l[i + 2]) for i in range(0, 3 * N, 3)]


def matrix_crossratio_reference(A, B):
    """Ball-model cross-ratio of the fixed-point quadruple of two
    hyperbolic matrices; the limit of lemma1_matrix_sequence."""
    att_a, rep_a = boundary_fixed_points(A)
    att_b, rep_b = boundary_fixed_points(B)
    return crossratio_ball(rep_a, rep_b, att_a, att_b)


def crossratio_estimate(seq):
    """Extrapolated limit of a geometrically converging sequence.

    Fits s_n ~ c + A r^n on the window of the last 8 terms and returns
    (c, confidence) where confidence is the RMS relative misfit of the
    model on the window; 0 means exact.  A non-convergent tail (|r| >= 1)
    is flagged by a large confidence, never an exception."""
    s = [float(v) for v in seq]
    if len(s) < 4:
        raise ValueError("need at least 4 terms to extrapolate")
    w = s[-8:]
    d = [w[i + 1] - w[i] for i in range(len(w) - 1)]
    scale = max(abs(v) for v in w)
    if scale == 0.0:
        return 0.0, 0.0
    if all(abs(x) <= 1e-14 * scale for x in d):
        c = w[-1]
        return c, 0.0
    ratios = []
    for i in range(len(d) - 1):
        if abs(d[i]) > 1e-300:
            ratios.append(d[i + 1] / d[i])
    if not ratios:
        return w[-1], 0.0
    r = _median(ratios)
    if abs(r) >= 0.999:
        spread = (max(w) - min(w)) / scale
        if spread < 1e-4:
            # converged to within noise that hides the ratio: the median
            return _median(w), spread
        # not converging on this window; report last term, flag loudly
        return w[-1], max(1.0, spread)
    c = w[-1] + d[-1] * r / (1.0 - r)
    amp = d[-1] / (r ** (len(w) - 2) * (r - 1.0)) if r != 0 else 0.0
    resid = 0.0
    for i, v in enumerate(w):
        model = c + amp * r ** i
        resid += (v - model) ** 2
    confidence = math.sqrt(resid / len(w)) / scale
    return c, confidence


def _median(values):
    # np.median of a few floats without an array: NaN if one is NaN, else
    # statistics.median's value, without the ~3 ms import of statistics
    if any(map(math.isnan, values)):
        return math.nan
    s, h = sorted(values), len(values) // 2
    return s[h] if len(s) % 2 else (s[h - 1] + s[h]) / 2.0


def _cyclic_inverse_class(word):
    # canonical representative of the word class under cyclic rotation
    # and inversion; lengths are constant on these classes
    w = tuple(word)
    best = None
    for cand in (w, tuple(word_inverse(list(w)))):
        for k in range(len(cand)):
            rot = cand[k:] + cand[:k]
            if best is None or rot < best:
                best = rot
    return best


def default_budget_words(arity=2, max_len=4, power_max=8):
    """Reduced words of length <= max_len, deduplicated up to the
    length-preserving symmetries, plus the product-power family
    a^n b^n used by the cross-ratio estimate; fresh lists each call."""
    return [list(w) for w in _budget_words(arity, max_len, power_max)]


@functools.lru_cache(maxsize=8)
def _budget_words(arity, max_len, power_max):
    seen = {}
    for w in _reduced_words(arity, max_len):
        key = _cyclic_inverse_class(w)
        if key not in seen:
            seen[key] = list(w)
    words = sorted(seen.values(), key=lambda w: (len(w), w))
    if arity >= 2:
        for n in range(1, power_max + 1):
            w = [1] * n + [2] * n
            key = _cyclic_inverse_class(w)
            if key not in seen:
                seen[key] = w
                words.append(w)
    return tuple(tuple(w) for w in words)


# -(1 + 0j) and -(0 + 0j), the negated complex one and zero, and the
# numerators of 1/g and -1/g
_MINUS_ONE, _MINUS_ZERO = complex(-1.0, -0.0), complex(-0.0, -0.0)
_UNITS = np.array([[[1.0]], [[-1.0]]])


def _generator_batch(params, tangents=False):
    """The generators of a batch of parameter vectors.

    Returns (slots, dslots, bad): slots[s, i, j, p] is entry (i, j) of
    generator slot s (a, b, a^-1, b^-1) for parameter row p, dslots (None
    unless tangents) adds an axis c after j for the derivatives along
    (length_a + i angle_a, length_b + i angle_b, z), and bad marks the rows
    whose b has its repelling point z on its attracting point 1."""
    # gauge: a diagonal with fixed points (repelling 0, attracting inf),
    # b = s diag(mu, 1/mu) s^-1 with attracting point 1, repelling point z
    # (the columns of s = [[1, z], [1, 1]]); eigenvalues from half
    # length-angle exponents.  Each entry is the product s D s^-1 of 2 x 2
    # matrices in _matmul's operands and order, less its exact 0 and 1
    # factors, so the slots are the composed products bit for bit
    p = np.asarray(params, dtype=float)
    c = p[:, 0::2] + 1j * p[:, 1::2]  # the exponents of lam and mu, and z
    bad = np.abs(c[:, 2] - 1.0) < 1e-10
    z = np.where(bad, 0.0, c[:, 2])  # keeps 1 / (1 - z) finite; callers mask these rows
    D, P = 1 + bool(tangents), len(p)
    # E[2d + r, g] for g = lam, mu: E[0] = g and E[1] = 1/g, and with
    # tangents E[2] = g/2 and E[3] = (-1/g)/2, the diagonal's derivatives
    E = np.empty((2 * D, 2, P), dtype=complex)
    np.exp(c[:, :2].T / 2.0, out=E[0])
    np.divide(_UNITS[:D], E[0], out=E[1::2])
    if tangents:
        E[2] = E[0]
        E[2:] /= 2.0
    si = np.empty((2, 2, P), dtype=complex)  # s^-1 = [[1, -z], [-1, 1]] / (1 - z)
    si.reshape(4, P)[::3] = 1.0
    si[1, 0] = _MINUS_ONE
    np.negative(z, out=si[0, 1])
    si /= 1.0 - z
    # K[i, j, d] = sum over k of (s diag(u, v))[i, k] s^-1[k, j], with
    # s diag(u, v) = [[u, z v], [u, v]]: d = 0 is b, d = 1 its derivative
    # s diag(mu, -1/mu) s^-1 / 2
    u, v = E[0::2, 1], E[1::2, 1]
    W = np.empty((2, D, P), dtype=complex)
    # numpy's complex product has two kernels that round apart, picked by
    # the operands' layout: z[None] keeps this one-row product on the
    # composition's kernel
    np.multiply(z[None], v, out=W[0])
    W[1] = v
    K = u * si[0, :, None] + W[:, None] * si[1, None, :, None]
    slots = np.empty((4, 2, 2, P), dtype=complex)
    # row 4s + 2i + j of f is entry (i, j) of a, b, a^-1 = adj a, b^-1 = adj b:
    # lam at a[0, 0] and a^-1[1, 1], 1/lam at a[1, 1] and a^-1[0, 0]
    f = slots.reshape(16, P)
    f[0:12:11], f[3:9:5] = E[0, 0], E[1, 0]
    f[1:3], f[9:11] = 0.0, _MINUS_ZERO
    slots[1] = K[:, :, 0]
    f[12:16:3] = f[7:3:-3]
    np.negative(f[5:7], out=f[13:15])
    if not tangents:
        return slots, None, bad
    dslots = np.zeros((4, 2, 2, 3, P), dtype=complex)
    f = dslots.reshape(16, 3, P)
    f[0:12:11, 0], f[3:9:5, 0] = E[2, 0], E[3, 0]
    dslots[1, :, :, 1] = K[:, :, 1]
    # b moves with z by n b - b n, n = (ds/dz) s^-1 = [[0, 1], [0, 0]] s^-1,
    # whose first row is the second row of s^-1
    b, n = K[:, :, 0], si[1]
    np.negative(b[:, :1] * n, out=dslots[1, :, :, 2])
    nb = n[:, None] * b
    dslots[1, 0, :, 2] += nb[0] + nb[1]
    f[12:16:3, 1:] = f[7:3:-3, 1:]
    np.negative(f[5:7, 1:], out=f[13:15, 1:])
    return slots, dslots, bad


def _rep_from_params(p):
    slots, _, bad = _generator_batch(np.asarray(p, dtype=float)[None])
    if bad[0]:
        return None
    return SL2Rep([SL2(slots[s, :, :, 0], check=False) for s in (0, 1)])


def _residual_batch(params, plan, targets, jacobian=False):
    """Smooth word lengths minus targets for a (P, 6) batch of parameter
    vectors, (P, W), and with jacobian=True their Jacobian (P, W, 6) in
    forward mode, the smooth length of _trace_lengths.  Rows with z on 1
    read 1e6 with a zero Jacobian, and rows with a non-finite residual have
    a NaN Jacobian."""
    # a trial step far outside the chart overflows to a non-finite cost,
    # which the solver rejects like any other uphill step
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slots, dslots, bad = _generator_batch(params, jacobian)
        T = _plan_traces(plan, slots, dslots)[1]
        T = T.transpose(-1, *range(T.ndim - 1))  # (P, W, 1 + 3) or (P, W)
        r = _trace_lengths(T[..., 0] if jacobian else T)
        out = r.length - np.asarray(targets, dtype=float)
        J = _length_rows(T[..., 1:], r.root, group=1) if jacobian else None  # columns 2c, 2c + 1: Re, Im
    out[bad] = 1e6
    if not jacobian:
        return out
    J[bad], J[~np.isfinite(out).all(axis=1)] = 0.0, np.nan
    return out, J


def _dot_rows(a, b):
    # one BLAS dot per row
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _solve_rows(A, b):
    """Solutions of the systems A[i] x = b[i] and a mask of the singular
    ones, whose rows of x are NaN."""
    singular = np.zeros(len(A), dtype=bool)
    try:
        return np.linalg.solve(A, b[:, :, None])[:, :, 0], singular
    except np.linalg.LinAlgError:
        pass
    x = np.full_like(b, np.nan)
    for i in range(len(A)):
        try:
            x[i] = np.linalg.solve(A[i], b[i])
        except np.linalg.LinAlgError:
            singular[i] = True
    return x, singular


_Solve = namedtuple("_Solve", "x cost iterations reasons calls rows")

# the solver's fixed limits: the points at which a restart tests its
# gradient, the gradient and step sizes that stop it, and the damping
# values it tries at one point
_MAX_ITER, _GTOL, _XTOL, _TRIALS = 160, 1e-12, 1e-14, 24


def _lockstep_levenberg_marquardt(fun, starts, ftol=1e-8, fitted=0.0):
    """Levenberg-Marquardt from every row of the (R, n) array starts at
    once, with Nielsen's damping update.

    fun maps a (P, n) batch of parameter vectors, with jacobian=True, to
    their (P, W) residuals and (P, W, n) Jacobian.  Each restart keeps its
    own point, residuals, Jacobian, cost and damping lam, so it follows
    the path it would follow alone.  A round makes one call to fun, with
    one trial step per running restart, damped by its lam: a step that
    lowers the cost is accepted and carries its residuals and Jacobian to
    the next point, and a rejected or singular one multiplies lam by 4 for
    the next round.  A restart stops on "gtol" (small gradient at a new
    point), "xtol" (small step), "ftol" (an accepted step whose actual and
    predicted cost reductions are both at most ftol times the cost before
    it: a stalled restart, as in MINPACK), "no_step" (24 damping values at
    one point gave no descent), "raced" or "max_iter" (the gradient tested
    at 160 points); iterations counts its accepted steps.  An accepted
    step lowers the cost, so ftol=0 never stops a restart.

    The race: at the top of a round, once a restart stopped on "gtol" or
    "xtol" has a cost below fitted and no running restart has a cost as
    low (a NaN cost is not low), every running restart stops on "raced".
    Restarts are independent until then, so the lowest-cost restart is a
    converged one and follows its unraced path bit for bit; a cost is never
    below 0, so fitted=0 never races.  calls counts the calls to fun and
    rows the parameter vectors sent to it."""
    calls = rows = 0

    def evaluate(P):
        nonlocal calls, rows
        calls += 1
        rows += len(P)
        # the engine returns column-major batches; row-major rows and (W, n)
        # blocks give every dot product the same BLAS kernel whatever the batch size
        return tuple(np.ascontiguousarray(a) for a in fun(P, jacobian=True))

    X = np.array(starts, dtype=float)
    F, J = evaluate(X)
    cost = 0.5 * _dot_rows(F, F)
    lam = np.full(len(X), 1e-3)
    iterations = np.zeros(len(X), dtype=int)
    fails = np.zeros(len(X), dtype=int)  # the trials rejected at the current point
    reasons = ["max_iter"] * len(X)
    running = np.ones(len(X), dtype=bool)

    def stop(which, reason):
        running[which] = False
        for i in which:
            reasons[i] = reason

    diag = np.arange(X.shape[1])
    while True:
        live = np.flatnonzero(running)
        won = cost[[r in ("gtol", "xtol") for r in reasons]]
        if len(won) and won.min() < fitted and not (cost[live] <= won.min()).any():
            stop(live, "raced")
        if not running.any():
            break
        Jl = J[live]
        g = (Jl.transpose(0, 2, 1) @ F[live][:, :, None])[:, :, 0]
        # at a new point, before its first trial there, a restart stops on
        # max_iter once it has made _MAX_ITER steps, or on a small gradient
        new = fails[live] == 0
        stop(live[iterations[live] >= _MAX_ITER], "max_iter")
        stop(live[new & running[live] & (np.abs(g).max(axis=1) < _GTOL)], "gtol")
        keep = running[live]
        live, Jl, g = live[keep], Jl[keep], g[keep]
        H = Jl.transpose(0, 2, 1) @ Jl
        A = H.copy()
        A[:, diag, diag] += lam[live, None] * np.maximum(np.diagonal(H, axis1=1, axis2=2), 1e-12)
        dx, singular = _solve_rows(A, -g)
        short = ~singular & (np.abs(dx).max(axis=1) < _XTOL * (1.0 + np.abs(X[live]).max(axis=1)))
        stop(live[short], "xtol")
        k = np.flatnonzero(~singular & ~short)
        down = np.zeros(len(live), dtype=bool)
        if len(k):
            Ft, Jt = evaluate(X[live[k]] + dx[k])
            cost_t = 0.5 * _dot_rows(Ft, Ft)
            down[k] = cost_t < cost[live[k]]
            ok = down[k]
            k, cost_t = k[ok], cost_t[ok]
            a, dxa = live[k], dx[k]
            hdx = (H[k] @ dxa[:, :, None])[:, :, 0]
            predicted = -_dot_rows(g[k], dxa) - 0.5 * _dot_rows(dxa, hdx)
            actual = cost[a] - cost_t
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.where(predicted > 0, actual / predicted, -1.0)
            # Nielsen's factor one restart at a time in C pow, which numpy's
            # vector power can miss in the last bit; from a gain of 1 on the
            # factor is 1/3, and the clip keeps the cube finite
            lam[a] = [max(l * max(1.0 / 3.0, 1.0 - (2.0 * min(float(q), 1.0) - 1.0) ** 3), 1e-12)
                      for l, q in zip(lam[a], gain)]
            floor = ftol * cost[a]
            stalled = a[(actual <= floor) & (predicted <= floor)]
            X[a] += dxa
            F[a], J[a], cost[a] = Ft[ok], Jt[ok], cost_t
            iterations[a] += 1
            fails[a] = 0
            stop(stalled, "ftol")
        missed = live[~down & ~short]
        lam[missed] *= 4.0
        fails[missed] += 1
        stop(missed[fails[missed] == _TRIALS], "no_step")
    return _Solve(X, cost, iterations, reasons, calls, rows)


def _initial_guesses(oracle):
    la, lb = oracle.lengths([(1,), (2,)])

    def limit(b):
        # the extrapolated limit of the sequence of [1] and b, if it converges
        try:
            L, confidence = crossratio_estimate(lemma1_sequence(oracle, [1], b, 16, check=False))
        except (OracleMissError, NonLoxodromicError, ValueError, OverflowError):
            return None
        return L if L > 0 and confidence < 0.5 else None

    # circle intersection from the two cross-ratio limits:
    # |1 - z| = sqrt(L1) and |z| = sqrt(L1 / L2)
    L1 = limit([2])
    L2 = limit([-2]) if L1 is not None else None
    r1 = math.sqrt(L1) if L1 is not None else 1.0
    if L2 is not None:
        r0 = math.sqrt((r1 * r1) / L2)
    else:
        r0 = max(r1 - 1.0, 1.0 + 1e-3) if r1 > 2.0 else 1.0 + r1 / 2.0
    xre = (r0 * r0 + 1.0 - r1 * r1) / 2.0
    im2 = r0 * r0 - xre * xre
    xim = math.sqrt(im2) if im2 > 0 else 0.0
    # lengths carry no phase information per word, so the angles need a
    # full independent grid of restarts to reach the right basin; the
    # starts with -xim are the entrywise conjugates of these up to a 2 pi
    # angle shift, on which lengths, and so the solver's paths, agree
    angles = (0.0, math.pi / 2.0, math.pi, -math.pi / 2.0)
    starts = [np.array([la, ta, lb, tb, xre, xim]) for ta in angles for tb in angles]
    # circles tangent to within 1e-3 of r0 point to a real pair, where
    # lengths cannot tell the pair from its entrywise conjugate and the
    # length map folds: the fit Jacobian has rank 3 of 6, and the grid
    # restarts creep along the fold.  At a real start with every fit word
    # hyperbolic all traces are real, so the Jacobian columns of the angles
    # and Im z are exact zeros and every step keeps them at 0: this restart
    # solves on the full-rank real chart (length_a, length_b, Re z).  A row
    # never depends on its batch, so the grid restarts keep their paths.
    # Circles that do not meet give Im z = 0, where restart 0 is that start
    if 0 < im2 <= (1e-3 * r0) ** 2:
        starts.append(np.array([la, 0.0, lb, 0.0, xre, 0.0]))
    return starts


@functools.lru_cache(maxsize=8)
def _fit_words(budget):
    """The fit words of a budget, as word tuples: default_budget_words(2)
    with its longest plain words trimmed to fit, keeping the power family."""
    words = _budget_words(2, 4, 8)
    if len(words) <= budget:
        return words
    powers = [w for w in words if _is_power_word(w)]
    plain = [w for w in words if not _is_power_word(w)]
    return tuple(plain[:budget - len(powers)] + powers)


@functools.lru_cache(maxsize=8)
def _hold_words(budget):
    """The held-out words of a budget: the last six reduced words up to
    length 5 (default_budget_words(2, 5, 0)) that are not fit words."""
    fit = set(_fit_words(budget))
    return tuple(w for w in _budget_words(2, 5, 0) if w not in fit)[-6:]


def _fitted_cost(targets):
    """The cost of a residual of 4.5 ulps of the largest target on every
    word: an exact oracle's fit, which a noisy oracle never reaches."""
    return 0.5 * len(targets) * (4.5 * np.finfo(float).eps * float(np.abs(targets).max())) ** 2


def reconstruct_report(oracle, budget=30):
    """Invert a length oracle of arity 2: fit a two-generator
    representation whose translation lengths match the oracle on a word
    budget.

    The restarts are a 4 x 4 grid of the two angles at one start for z,
    and, when the two start circles for z are tangent, as at a real pair,
    one real start with both angles and Im z at 0, which solves on the real
    chart (see _initial_guesses) and fits a real pair to rounding.  They
    run in lockstep, one damped trial step each per engine call.

    Returns a dict with the fitted rep, parameters, per-word residuals,
    the RMS residual, and held-out errors, plus diagnostics: for each
    restart its start, accepted iterations, termination reason (see
    _lockstep_levenberg_marquardt; a restart stalled at a local minimum
    stops on "ftol", and once a converged restart fits the targets to
    rounding, the running ones stop on "raced") and final cost, the count
    of engine calls and rows of the solve, and the singular values of the
    fit's Jacobian.  The parameters are reported in one orientation (see
    _folded).  Raises ValueError for an oracle whose arity is not 2, a
    budget below _MIN_BUDGET words or an elementary oracle, RuntimeError
    when no restart converges."""
    if oracle.arity != 2:
        raise ValueError("reconstruction is supported for arity 2 (got %d)" % oracle.arity)
    if budget < _MIN_BUDGET:
        raise ValueError("argument 'budget' must be at least %d words (the 8 product-power "
                         "words and 4 plain words), got %d" % (_MIN_BUDGET, budget))
    if oracle.rep is not None and not is_nonelementary(oracle.rep):
        raise ValueError("oracle is generated by an elementary representation")

    fit_words, targets = _covered(oracle, _fit_words(budget))
    if len(fit_words) < 8:
        raise ValueError("oracle covers only %d of the budget words" % len(fit_words))
    targets = np.asarray(targets)

    if max(targets) <= 1e-12:
        raise ValueError("oracle lengths all vanish; elementary or trivial source")

    starts = np.array(_initial_guesses(oracle))
    plan = sl2traces._product_tree(fit_words, 2)
    solve = _lockstep_levenberg_marquardt(
        lambda P, jacobian=False: _residual_batch(P, plan, targets, jacobian), starts,
        fitted=_fitted_cost(targets))

    best_idx = min(range(len(starts)), key=lambda i: solve.cost[i])
    best_x = _folded(solve.x[best_idx])
    rms = math.sqrt(2.0 * float(solve.cost[best_idx]) / len(fit_words))
    rep = _rep_from_params(best_x)
    # a NaN rms fails this test too
    if rep is None or not rms <= 1e-2 * max(1.0, float(np.abs(targets).max())):
        raise RuntimeError(
            "reconstruction did not converge: best residual RMS %.3e over %d words, "
            "from restart %d, which stopped on %s after %d iterations"
            % (rms, len(fit_words), best_idx, solve.reasons[best_idx],
               solve.iterations[best_idx])
        )

    covered, hold_targets = _covered(oracle, _hold_words(budget))
    # the fit's residuals and Jacobian and the held-out errors from one
    # dual call: a word's row does not depend on the other words, and the
    # value part of the dual evaluation is the plain product
    m = len(fit_words)
    F, J = _residual_batch(best_x[None], sl2traces._product_tree(fit_words + covered, 2),
                           [*targets, *hold_targets], jacobian=True)
    return {
        "rep": rep,
        "parameters": [float(v) for v in best_x],
        "words": [list(w) for w in fit_words],
        "residuals": [float(r) for r in F[0, :m]],
        "rms": rms,
        "restart_index": best_idx,
        "holdout_errors": {" ".join(str(l) for l in w): float(e) for w, e in zip(covered, np.abs(F[0, m:]))},
        "diagnostics": {
            "restarts": [
                {"start": [float(v) for v in x0], "iterations": int(n),
                 "reason": reason, "cost": float(c)}
                for x0, n, reason, c in zip(starts, solve.iterations, solve.reasons, solve.cost)
            ],
            "engine_calls": solve.calls,
            "engine_rows": solve.rows,
            "singular_values": [float(v) for v in np.linalg.svd(J[0, :m], compute_uv=False)],
        },
    }


# the smallest word budget: the eight product-power words a^n b^n of
# default_budget_words and four plain words
_MIN_BUDGET = 12


def _folded(x):
    """The parameter vector x in one orientation: Im z >= 0 and both
    angles in (-pi, pi].  Entrywise conjugation maps (angle_a, angle_b, z)
    to (-angle_a, -angle_b, conj z), and a 2 pi shift of an angle flips the
    sign of its generator; translation lengths see neither."""
    x = np.array(x, dtype=float)
    if x[5] < 0.0:
        x[[1, 3, 5]] = -x[[1, 3, 5]]
    x[[1, 3]] = math.pi - np.mod(math.pi - x[[1, 3]], 2.0 * math.pi)
    return x


def _covered(oracle, words):
    """The checked word tuples the oracle answers, in order, and their
    lengths: one list read, repeated without each word the oracle misses.
    The read skips check_word unless the oracle answers lengths its own way."""
    read = oracle._checked_lengths if type(oracle).lengths is LengthOracle.lengths else oracle.lengths
    while True:
        try:
            return words, read(words)
        except OracleMissError as miss:
            words = tuple(w for w in words if list(w) != miss.word)


def _is_power_word(w):
    n = len(w) // 2
    return len(w) >= 2 and len(w) % 2 == 0 and w == (1,) * n + (2,) * n


def reconstruct(oracle, budget=30):
    """The fitted representation only; see reconstruct_report."""
    return reconstruct_report(oracle, budget)["rep"]


def _coordinate_word_list(arity):
    gens = range(1, arity + 1)
    return ([[i] for i in gens] + [[i, j] for i, j in itertools.combinations(gens, 2)]
            + [w for i, j, k in itertools.combinations(gens, 3) for w in ([i, j, k], [j, i, k])])


def conjugacy_distance(r1, r2):
    """Max deviation of the trace coordinates, minimized over the moves
    that every translation length is blind to: entrywise conjugation of
    r2 and sign flips of individual generators (a sign flip changes the
    matrix but not its projective action, so lengths cannot see it)."""
    if r1.arity != r2.arity:
        raise ValueError("representations have different arities")
    # the coordinate traces of r1, r2 and its twin from one engine batch
    words = _coordinate_word_list(r1.arity)
    slots = np.concatenate([_rep_slots(r) for r in (r1, r2, r2.entrywise_conj())], axis=3)
    plan = sl2traces._word_plan(words, r1.arity)
    c1, *candidates = _plan_traces(plan, slots)[1].T
    best = math.inf
    for c2 in candidates:
        for mask in range(1 << r1.arity):
            # generator i flipped iff bit i-1 is set; a word's trace picks
            # up one factor of -1 per flipped letter occurrence
            scale = np.array([
                -1.0 if sum((mask >> (abs(l) - 1)) & 1 for l in w) % 2 else 1.0
                for w in words])
            best = min(best, float(np.abs(c1 - scale * c2).max()))
    return best


def _sl2_from_fixed_points(rep_pt, att_pt, lam):
    s = np.array([[att_pt, rep_pt], [1.0, 1.0]], dtype=complex)
    det = att_pt - rep_pt
    si = np.array([[1.0, -rep_pt], [-1.0, att_pt]], dtype=complex) / det
    return SL2(s @ np.diag([lam, 1.0 / lam]) @ si, check=False)


def random_schottky_pair(rng):
    """Two loxodromic generators of lengths in [0.8, 2.2], with fixed points
    more than 0.6 apart on the sphere; free and nonelementary with margin."""
    while True:
        pts = []
        for _ in range(64):
            z = complex(rng.standard_normal(), rng.standard_normal())
            if rng.uniform() < 0.15:
                z = 1.0 / z if z != 0 else complex(2.0, 0.0)
            if all(_sphere_distance(z, q) > 0.6 for q in pts):
                pts.append(z)
            if len(pts) == 4:
                break
        if len(pts) < 4:
            continue
        la = rng.uniform(0.8, 2.2)
        lb = rng.uniform(0.8, 2.2)
        ta = rng.uniform(-math.pi, math.pi)
        tb = rng.uniform(-math.pi, math.pi)
        A = _sl2_from_fixed_points(pts[0], pts[1], cmath.exp((la + 1j * ta) / 2.0))
        B = _sl2_from_fixed_points(pts[2], pts[3], cmath.exp((lb + 1j * tb) / 2.0))
        rep = SL2Rep([A, B])
        if not is_nonelementary(rep):
            continue
        if _trace_lengths(_word_traces(rep, [[1, 2], [1, -2], [1, 1, 2], [1, 2, 2]])[1]).loxodromic.all():
            return rep

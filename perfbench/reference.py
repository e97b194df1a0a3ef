"""Reference computations that do not import rank1kit.

The benchmark checks the library's outputs against these: plain numpy
2x2 word products, translation lengths from traces, fixed points from
eigenvectors, |cross-ratio|^2 of fixed-point quadruples, ball-model
cross-ratios of matrix fixed points, and a Cayley-Dickson product with
its norm for the four normed algebras.

Run this file to self-test the references against closed forms.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# SL(2, C) words


def word_matrix(gens, word):
    """Product of generators along a word of signed 1-based letters."""
    out = np.eye(2, dtype=complex)
    for letter in word:
        g = gens[abs(letter) - 1]
        if letter < 0:
            g = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]]) / (
                g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0])
        out = out @ g
    return out


def trace_length(m):
    """2 log of the larger eigenvalue modulus, read from the trace of a
    determinant-one matrix; 0 for elements without an expanding one."""
    t = complex(m[0, 0] + m[1, 1])
    root = np.sqrt(t * t - 4.0 + 0j)
    lam = max(abs((t + root) / 2.0), abs((t - root) / 2.0))
    return 2.0 * math.log(max(lam, 1.0))


def reduced_words(arity, length):
    """Every freely reduced word of exactly the given length."""
    letters = [l for i in range(1, arity + 1) for l in (i, -i)]
    words = [[l] for l in letters]
    for _ in range(length - 1):
        words = [w + [l] for w in words for l in letters if l != -w[-1]]
    return words


def coordinate_traces(gens):
    """Traces of g1, g2 and g1 g2, which fix a nonelementary pair up to
    conjugacy."""
    return np.array([np.trace(word_matrix(gens, w)) for w in ([1], [2], [1, 2])])


def coordinate_distance(gens_a, gens_b):
    """Largest trace-coordinate gap, minimised over the moves every
    length is blind to: sign flips of single generators and complex
    conjugation of one side."""
    ta = coordinate_traces(gens_a)
    best = math.inf
    for tb in (coordinate_traces(gens_b), np.conj(coordinate_traces(gens_b))):
        for s1, s2 in itertools.product((1.0, -1.0), repeat=2):
            flipped = tb * np.array([s1, s2, s1 * s2])
            best = min(best, float(np.max(np.abs(ta - flipped))))
    return best


def worst_length_gap(gens_a, gens_b, lengths=(5, 6)):
    """Largest translation-length gap over every reduced word of the
    given lengths."""
    worst = 0.0
    for n in lengths:
        for w in reduced_words(2, n):
            gap = abs(trace_length(word_matrix(gens_a, w)) - trace_length(word_matrix(gens_b, w)))
            worst = max(worst, gap)
    return worst


def _eigen_pair(m):
    """(attracting, repelling) eigenvectors of a loxodromic matrix."""
    vals, vecs = np.linalg.eig(np.asarray(m, dtype=complex))
    order = np.argsort(np.abs(vals))
    return vecs[:, order[-1]], vecs[:, order[0]]


def sl2_crossratio_sq(a, b):
    """|cross-ratio|^2 of (repelling a, repelling b, attracting a,
    attracting b) on the Riemann sphere, from eigenvectors taken as
    homogeneous coordinates; the limit of the product-length sequence."""
    att_a, rep_a = _eigen_pair(a)
    att_b, rep_b = _eigen_pair(b)

    def bracket(u, v):
        return u[0] * v[1] - u[1] * v[0]

    cr = (bracket(rep_a, att_a) * bracket(rep_b, att_b)) / (
        bracket(rep_a, att_b) * bracket(rep_b, att_a))
    return abs(cr) ** 2


# ---------------------------------------------------------------------------
# real and complex hyperbolic matrices (row action, form diag(1, .., 1, -1))


def ball_fixed_points(m):
    """(attracting, repelling) boundary points of a hyperbolic matrix
    acting on row vectors, as unit vectors in C^(n-1)."""
    out = []
    for v in _eigen_pair(np.asarray(m, dtype=complex).T):
        x = v[:-1] / v[-1]
        out.append(x / np.linalg.norm(x))
    return out[0], out[1]


def ball_crossratio(x, y, z, w):
    """<<z,x>> <<w,y>> / (<<w,x>> <<z,y>>) with <<u,v>> = |1 - <u,v>|."""

    def chord(u, v):
        return abs(1.0 - np.vdot(v, u))

    return chord(z, x) * chord(w, y) / (chord(w, x) * chord(z, y))


def matrix_crossratio(a, b):
    """Cross-ratio of (repelling a, repelling b, attracting a, attracting b)."""
    att_a, rep_a = ball_fixed_points(a)
    att_b, rep_b = ball_fixed_points(b)
    return ball_crossratio(rep_a, rep_b, att_a, att_b)


# ---------------------------------------------------------------------------
# normed algebras by Cayley-Dickson doubling on coefficient arrays


def cd_conj(x):
    out = -x
    out[..., 0] = x[..., 0]
    return out


def cd_mul(x, y):
    """Product on trailing coefficient axes of size 1, 2, 4 or 8:
    (a, b)(c, d) = (ac - conj(d) b, d a + b conj(c))."""
    n = x.shape[-1]
    if n == 1:
        return x * y
    h = n // 2
    a, b = x[..., :h], x[..., h:]
    c, d = y[..., :h], y[..., h:]
    return np.concatenate(
        [cd_mul(a, c) - cd_mul(cd_conj(d), b), cd_mul(d, a) + cd_mul(b, cd_conj(c))], axis=-1)


def cd_norm(x):
    return np.sqrt(np.sum(x * x, axis=-1))


# ---------------------------------------------------------------------------
# nil-model coordinates: a point is (center, horizontal) coefficient arrays


def gauge_norm(center, horizontal):
    """|A(g)| = sqrt(|k|^4 + |c|^2), the modulus of the gauge."""
    k2 = float(np.sum(horizontal * horizontal))
    return math.sqrt(k2 * k2 + float(np.sum(center * center)))


# ---------------------------------------------------------------------------
# self-test against closed forms


def _expect(cond, what=None):
    if not cond:
        raise AssertionError("reference self-test failed: %r" % (what,))


def selftest():
    """Raise AssertionError unless every reference meets its closed form."""
    a = np.array([[2.0, 0.0], [0.0, 0.5]], dtype=complex)
    b = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    want = (1.0 + phi ** -2) ** 2
    got = sl2_crossratio_sq(a, b)
    _expect(abs(got - want) <= 1e-13 * want, (got, want))
    _expect(abs(want - 1.9098300562505257) <= 1e-15)

    rng = np.random.default_rng(0)
    for _ in range(100):
        lam = complex(*rng.standard_normal(2)) * 3.0 + 0.01
        d = np.diag([lam, 1.0 / lam])
        want = 2.0 * abs(math.log(abs(lam)))
        _expect(abs(trace_length(d) - want) <= 1e-12 * max(1.0, want), (lam, trace_length(d)))
        # conjugation leaves the length alone
        c = np.array([[1.0, 0.3 + 0.2j], [0.1j, 1.0]])
        c = c / np.sqrt(np.linalg.det(c))
        moved = c @ d @ np.linalg.inv(c)
        _expect(abs(trace_length(moved) - want) <= 1e-9 * max(1.0, want))

    for dim in (1, 2, 4, 8):
        x = rng.standard_normal((1000, dim))
        y = rng.standard_normal((1000, dim))
        lhs = cd_norm(cd_mul(x, y))
        rhs = cd_norm(x) * cd_norm(y)
        _expect(np.max(np.abs(lhs - rhs) / rhs) <= 1e-13, dim)
        one = cd_mul(x, cd_conj(x) / (cd_norm(x) ** 2)[:, None])
        one[:, 0] -= 1.0
        _expect(np.max(np.abs(one)) <= 1e-13, dim)

    _expect(len(reduced_words(2, 5)) == 4 * 3 ** 4)
    _expect(len(reduced_words(2, 6)) == 4 * 3 ** 5)
    # a conjugate pair has distance zero; a perturbed one does not
    flipped = [-a, np.conj(b)]
    _expect(coordinate_distance([a, b], flipped) <= 1e-15)
    _expect(coordinate_distance([a, b], [a, b + 1e-3]) > 1e-4)


if __name__ == "__main__":
    selftest()
    print("reference self-test passed")

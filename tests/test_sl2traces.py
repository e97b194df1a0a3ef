import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1kit.sl2traces import (
    SL2,
    SL2Rep,
    NonLoxodromicError,
    check_word,
    classify,
    coordinate_words,
    default_f2_words,
    gauge_to_length,
    is_nonelementary,
    length,
    length_gauge,
    length_jacobian,
    random_loxodromic,
    random_sl2,
    rank_report,
    svd_rank,
    trace_jacobian,
    trace_word,
    vogt,
    word_inverse,
)
from rank1kit import sl2traces
from rank1kit.spectrum import random_schottky_pair

README_PAIR = SL2Rep([SL2([[2.0, 0.0], [0.0, 0.5]]), SL2([[2.0, 1.0], [1.0, 1.0]])])
EPS = np.finfo(float).eps

TRACELESS = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
)


def _letter_product(rep, word):
    # the reference for the word engine: the product taken one letter at a time
    out = np.eye(2, dtype=complex)
    for letter in word:
        g = rep.generators[abs(letter) - 1]
        out = out @ (g.mat if letter > 0 else g.inverse().mat)
    return SL2(out, check=False)


def commuting_configuration():
    """Two diagonal loxodromics plus a symmetric third generator."""
    za, zb = 1.3 + 0.2j, 0.7 + 0.1j
    zd = (1.0 + zb * zb) / za
    return SL2Rep(
        [
            SL2.diagonal(2.0 + 0.3j),
            SL2.diagonal(1.5 - 0.2j),
            SL2([[za, zb], [zb, zd]]),
        ]
    )


def test_classify_examples():
    assert classify(SL2([[2.0, 1.0], [1.0, 1.0]])) == "loxodromic"  # trace 3
    c, s = math.cos(1.0), math.sin(1.0)
    assert classify(SL2([[c, -s], [s, c]])) == "elliptic"  # trace 2 cos 1
    lam = 1.01 * cmath.exp(0.4j)
    assert classify(SL2.diagonal(lam)) == "loxodromic"
    assert classify(SL2.identity()) == "identity"
    assert classify(SL2([[-1.0, 0.0], [0.0, -1.0]])) == "identity"
    assert classify(SL2([[1.0, 1.0], [0.0, 1.0]])) == "parabolic"


def test_length_values():
    assert abs(length(SL2.diagonal(2.0)) - 2.0 * math.log(2.0)) <= 1e-15
    rng = np.random.default_rng(0)
    for _ in range(100):
        A = random_loxodromic(rng)
        l = length(A)
        assert abs(length(A @ A) - 2.0 * l) <= 1e-12 * l
        C = random_sl2(rng)
        assert abs(length(C @ A @ C.inverse()) - l) <= 1e-9 * l
    with pytest.raises(NonLoxodromicError):
        length(SL2.identity())
    with pytest.raises(NonLoxodromicError):
        c, s = math.cos(0.5), math.sin(0.5)
        length(SL2([[c, -s], [s, c]]))


def test_length_gauge_values():
    assert length_gauge(SL2.diagonal(2.0)) == 5.0  # |2.5-2| + |2.5+2|
    assert length_gauge(SL2.identity()) == 4.0
    assert abs(gauge_to_length(5.0) - 2.0 * math.log(2.0)) <= 1e-15
    assert gauge_to_length(4.0) == 0.0
    with pytest.raises(ValueError):
        gauge_to_length(3.0)


def test_gauge_to_length_does_not_overflow():
    # g^2 overflows past g ~ 1e154; the length is 2 log(g / 2) there
    for g in (2e200, 2e160, 1e300):
        want = 2.0 * math.log(g / 2.0)
        assert abs(gauge_to_length(g) - want) <= 1e-15 * want
    assert gauge_to_length(5.0) == 1.3862943611198906


def test_determinant_check_does_not_overflow():
    A = SL2([[1e200, 0.0], [0.0, 1e-200]])
    assert A.trace() == 1e200
    assert abs(length(A) - 2.0 * math.log(1e200)) <= 1e-15 * length(A)
    # a determinant that overflows is not one
    with pytest.raises(ValueError, match="determinant"):
        SL2([[1e200, 1e200], [1e200, 1e200]])
    with pytest.raises(ValueError, match="determinant"):
        SL2([[2.0, 0.0], [0.0, 1.0]])


def _reference_length(t, e):
    # 2 (e log 2 + log|mu|) floored at 0, mu the expanding root of
    # x^2 - t x + 4^-e; past |t| = 4 the root is t (1 + sqrt(1 - 4^(1-e) / t^2)) / 2,
    # whose square root cannot overflow
    d = math.ldexp(1.0, -2 * e)
    if abs(t) <= 4.0:
        root = cmath.sqrt(t * t - 4.0 * d)
        log_mu = math.log(max(abs(t + root), abs(t - root)) / 2.0)
    else:
        w = cmath.sqrt(1.0 - 4.0 * d * (1.0 / t) ** 2)
        log_mu = math.log(abs(t)) + math.log(abs(1.0 + w) / 2.0)
    return 2.0 * max(e * math.log(2.0) + log_mu, 0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(decade=st.floats(-3.0, 300.0),
       angle=st.one_of(st.sampled_from([0.0, math.pi / 2.0, math.pi]), st.floats(-math.pi, math.pi)),
       e=st.sampled_from([0, 1, 40, 700, 1100]))
def test_trace_lengths_kernel(decade, angle, e):
    t = 10.0 ** decade * cmath.exp(1j * angle)
    r = sl2traces._trace_lengths(np.array([t]), e)
    got = float(r.length[0])
    want = _reference_length(t, e)
    assert abs(got - want) <= 4.0 * EPS * max(1.0, want)
    # the mask is classify's on the trace 2^e t of the determinant-one matrix
    try:
        tau = complex(math.ldexp(t.real, e), math.ldexp(t.imag, e))
    except OverflowError:  # 2^e t is past the float range
        assert r.loxodromic[0]
        return
    M = SL2([[tau, -1.0], [1.0, 0.0]], check=False)
    assert r.loxodromic[0] == (classify(M) == "loxodromic")
    if r.loxodromic[0] and e == 0:
        assert got == length(M)
        # lam is the expanding root and root = 2 lam - t
        lam, root = complex(r.lam[0]), complex(r.root[0])
        assert abs(lam - t + 1.0 / lam) <= 8.0 * EPS * abs(lam) and abs(lam) >= 1.0
        assert abs(root - (2.0 * lam - t)) <= 4.0 * EPS * abs(lam)


def test_translation_length_vanishes_on_the_real_elliptic_grid():
    # the smooth length reads up to 4.4e-16 where |lam| rounds above 1
    r = sl2traces._trace_lengths(np.linspace(-2.0, 2.0, 100_001))
    assert not r.loxodromic.any() and (r.length > 0.0).sum() > 0
    assert np.all(r.translation == 0.0)
    # off the grid the translation length is the smooth one
    r = sl2traces._trace_lengths([2.5, 1e200, 3j])
    assert r.loxodromic.all() and np.array_equal(r.translation, r.length)


def test_gauge_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(500):
        A = random_loxodromic(rng)
        l = length(A)
        ref = 2.0 * (math.exp(l / 2.0) + math.exp(-l / 2.0))
        assert abs(length_gauge(A) - ref) <= 1e-12 * ref


def test_trace_word_identities():
    rng = np.random.default_rng(2)
    rep = SL2Rep([random_sl2(rng), random_sl2(rng)])
    assert trace_word(rep, []) == 2.0
    tx = trace_word(rep, [1])
    ty = trace_word(rep, [2])
    lhs = trace_word(rep, [1, 2]) + trace_word(rep, [1, -2])
    assert abs(lhs - tx * ty) <= 1e-12 * max(1.0, abs(tx * ty))
    assert abs(trace_word(rep, [1, 1]) - (tx * tx - 2.0)) <= 1e-12 * max(1.0, abs(tx) ** 2)


def test_vogt_identity_point():
    P, Q, delta, roots = vogt(2, 2, 2, 2, 2, 2)
    assert P == 4.0 and Q == 4.0 and delta == 0.0
    assert roots[0] == roots[1] == 2.0


def test_vogt_roots_are_triple_traces():
    rng = np.random.default_rng(3)
    for _ in range(300):
        rep = SL2Rep([random_sl2(rng) for _ in range(3)])
        x1, x2, x3 = (trace_word(rep, [i]) for i in (1, 2, 3))
        y12 = trace_word(rep, [1, 2])
        y13 = trace_word(rep, [1, 3])
        y23 = trace_word(rep, [2, 3])
        P, Q, delta, roots = vogt(x1, x2, x3, y12, y13, y23)
        scale = max(1.0, abs(P), abs(Q))
        for z in (trace_word(rep, [1, 2, 3]), trace_word(rep, [2, 1, 3])):
            assert abs(z * z - P * z + Q) <= 1e-10 * scale
        assert abs(roots[0] + roots[1] - P) <= 1e-12 * scale
        assert abs(roots[0] * roots[1] - Q) <= 1e-10 * scale
        assert delta == P * P - 4.0 * Q


def test_trace_jacobian_kernel_dimensions():
    six = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]
    rep = commuting_configuration()
    J, rank = trace_jacobian(rep, six)
    assert J.shape == (6, 9)
    assert J.shape[1] - rank == 4

    rng = np.random.default_rng(4)
    rep2 = SL2Rep([random_loxodromic(rng) for _ in range(3)])
    J2, rank2 = trace_jacobian(rep2, six)
    assert J2.shape[1] - rank2 == 3


def test_trace_jacobian_identity_rep():
    rep = SL2Rep([SL2.identity(), SL2.identity()])
    _, rank = trace_jacobian(rep, default_f2_words())
    assert rank == 0


def test_trace_jacobian_methods_agree():
    rng = np.random.default_rng(5)
    for _ in range(5):
        rep = SL2Rep([random_loxodromic(rng), random_loxodromic(rng)])
        words = default_f2_words()
        J_an, _ = trace_jacobian(rep, words, method="analytic")
        J_fd, _ = trace_jacobian(rep, words, method="fd")
        gap = np.abs(J_an - J_fd) / np.maximum(1.0, np.abs(J_an))
        assert float(gap.max()) <= 1e-7
    with pytest.raises(ValueError):
        trace_jacobian(rep, words, method="bogus")


def test_seventh_trace_pins_on_six_word_kernel():
    # along any direction killing the six coordinate traces, the
    # triple-product trace differential also vanishes when delta != 0
    rng = np.random.default_rng(6)
    six = [[1], [2], [3], [1, 2], [1, 3], [2, 3]]
    rep = SL2Rep([random_loxodromic(rng) for _ in range(3)])
    J6, _ = trace_jacobian(rep, six)
    _, s, vh = np.linalg.svd(J6)
    null = vh[np.sum(s > 1e-8 * s[0]):]
    J7, _ = trace_jacobian(rep, [[1, 2, 3]])
    scale = 1.0 + float(np.abs(J7).max())
    for v in null:
        assert float(np.abs(J7 @ v.conj())[0]) / scale <= 1e-7


def test_length_jacobian_generic_rank():
    rng = np.random.default_rng(7)
    for _ in range(5):
        rep = SL2Rep([random_loxodromic(rng), random_loxodromic(rng)])
        J, rank = length_jacobian(rep, default_f2_words())
        assert J.shape == (6, 12)
        assert rank == 6


def test_length_jacobian_shared_axis():
    rep = SL2Rep([SL2.diagonal(2.0), SL2.diagonal(1.5 + 0.3j)])
    _, rank = length_jacobian(rep, default_f2_words())
    assert rank <= 2


def test_length_jacobian_conjugation_kernel():
    rng = np.random.default_rng(8)
    rep = SL2Rep([random_loxodromic(rng), random_loxodromic(rng)])
    J, _ = length_jacobian(rep, default_f2_words())
    for E in TRACELESS:
        v = np.zeros(12)
        for i, g in enumerate(rep.generators):
            m = g.mat
            w = np.linalg.solve(m, E @ m) - E  # X^-1 E X - E, traceless
            coeffs = (w[0, 0], w[0, 1], w[1, 0])
            for j, c in enumerate(coeffs):
                v[6 * i + j] = c.real
                v[6 * i + 3 + j] = c.imag
        norm = np.linalg.norm(v)
        if norm == 0.0:
            continue
        assert float(np.abs(J @ v).max()) / norm <= 1e-8 * float(np.abs(J).max())


def _expm_traceless(M):
    # exp of a traceless 2x2 matrix: M^2 = -det(M) I, and M^2 = 0 when
    # M is nilpotent
    mu = cmath.sqrt(-(M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]))
    return cmath.cosh(mu) * np.eye(2) + (cmath.sinh(mu) / mu if mu else 1.0) * M


def test_length_jacobian_values_match_central_differences():
    # column 6i + j moves generator i along X exp(t E_j), column
    # 6i + 3 + j along X exp(t i E_j)
    rng = np.random.default_rng(15)
    cases = [
        (random_schottky_pair(rng), [[1], [2, 2, -1], [1, -2, 1, 2], [-1, -1, 2], [1, 2, -1, -2, -2]]),
        (SL2Rep([random_loxodromic(rng) for _ in range(3)]),
         [[3], [1, -3], [2, 3, 3], [-1, 2, -3, 2], [3, -2, -2, 1, 1]]),
    ]
    h = 1e-5
    for rep, words in cases:
        J, _ = length_jacobian(rep, words)
        mats = [g.mat for g in rep.generators]
        for i in range(rep.arity):
            for j, E in enumerate(TRACELESS):
                for col, xi in ((6 * i + j, E), (6 * i + 3 + j, 1j * E)):
                    sided = []
                    for sign in (1.0, -1.0):
                        moved = list(mats)
                        moved[i] = mats[i] @ _expm_traceless(sign * h * xi)
                        rep_h = SL2Rep([SL2(m, check=False) for m in moved])
                        sided.append(np.array([length(rep_h.evaluate(w)) for w in words]))
                    fd = (sided[0] - sided[1]) / (2.0 * h)
                    assert np.abs(J[:, col] - fd).max() <= 1e-7 * max(1.0, np.abs(J).max())


def test_word_engine_arity3_inverse_letters():
    from rank1kit import sl2traces
    from rank1kit.spectrum import LengthOracle

    rng = np.random.default_rng(16)
    reps = [SL2Rep([random_sl2(rng) for _ in range(3)]) for _ in range(4)]
    words = [[], [-3], [1, -2, 3], [3, 3, -1], [-2, -2, -1, 3, 1], [1, -2, 3, -3, 2]]
    plan = sl2traces._word_plan(words, 3)
    gens = np.stack([np.stack([g.mat for g in r.generators]) for r in reps], axis=-1)
    slots = sl2traces._with_inverses(gens)
    ends = sl2traces._evaluate_plan(plan, slots)[plan.ends]
    assert ends.shape == (len(words), 2, 2, len(reps))
    for p, rep in enumerate(reps):
        for n, w in enumerate(words):
            ref = _letter_product(rep, w).mat
            assert np.abs(ends[n, :, :, p] - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        # a batch of one gives its row of the larger batch bit for bit
        alone = sl2traces._evaluate_plan(plan, slots[..., p:p + 1])[plan.ends, :, :, 0]
        assert np.array_equal(alone, ends[..., p])
        # and a plan of one word the same end as a plan of many, which
        # SL2Rep.evaluate is
        for n, w in enumerate(words):
            assert np.array_equal(sl2traces._word_traces(rep, [w])[0][0], ends[n, :, :, p])
            assert np.array_equal(rep.evaluate(w).mat, ends[n, :, :, p])

    c, s = math.cos(0.7), math.sin(0.7)
    rep = SL2Rep([SL2.diagonal(2.0), SL2([[1.0, 1.0], [0.0, 1.0]]), SL2([[c, -s], [s, c]])])
    oracle = LengthOracle(rep=rep)
    for w in ((2,), (3,), (-3, -3), (1, 3, -3, -1), (-2, 3, 2)):
        assert oracle(w) == 0.0
    assert abs(oracle((-1,)) - 2.0 * math.log(2.0)) <= 1e-15


def test_dual_evaluation_carries_values_and_differentials():
    from rank1kit import sl2traces

    rng = np.random.default_rng(17)
    words = [[], [2], [1, -2, 3], [3, 3, -1], [-2, -2, -1, 3, 1], [1, -2, 3, -3, 2]]
    plan = sl2traces._word_plan(words, 3)

    def gaussian(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    slots, tangents = gaussian(6, 2, 2, 5), gaussian(6, 2, 2, 4, 5)
    plain = sl2traces._evaluate_plan(plan, slots)
    dual = sl2traces._evaluate_plan(plan, slots, tangents)
    assert dual.shape == plain.shape[:3] + (5, 5)
    # the value component is the plain evaluation, bit for bit
    assert np.array_equal(dual[:, :, :, 0], plain)
    # a word is a polynomial in the slot entries, so central differences
    # along each slot tangent have only an O(h^2) error
    h = 1e-5
    for c in range(4):
        sided = [sl2traces._evaluate_plan(plan, slots + s * h * tangents[:, :, :, c])
                 for s in (1.0, -1.0)]
        fd = (sided[0] - sided[1]) / (2.0 * h)
        assert np.abs(dual[:, :, :, 1 + c] - fd).max() <= 1e-8 * np.abs(fd).max()
    assert np.all(dual[plan.ends[0], :, :, 1:] == 0.0)  # the empty word is constant


def test_word_plan_is_memoised_on_checked_words():
    words = [[1], [2, -1], [1, 2, 2, -1, 1], []]
    plan = sl2traces._word_plan(words, 2)
    # equal word lists share one plan, whatever holds the letters
    for same in ([tuple(w) for w in words], tuple(map(tuple, words)),
                 [[np.int64(l) for l in w] for w in words]):
        assert sl2traces._word_plan(same, 2) is plan
    assert sl2traces._word_plan(words, 3) is not plan
    arrays = [plan.ends] + [a for level in plan.levels for a in level[2:]]
    assert len(arrays) == 1 + 2 * len(plan.levels) >= 5
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError):
        plan.ends[0] = 0
    # True == 1 and hashes as 1, so the memo keys on checked words: a
    # malformed word raises although the plan of [[1]] is cached
    sl2traces._word_plan([[1]], 2)
    for bad in ([[True]], [[1.5]], [[0]], [[3]]):
        with pytest.raises(ValueError):
            sl2traces._word_plan(bad, 2)


def test_word_plan_is_a_log_depth_product_tree():
    from rank1kit import sl2traces

    rng = np.random.default_rng(18)
    letters = [1, 2, 3, -1, -2, -3]
    words = [[], [2], [-3], [1, 2, 3, 1, 2], [1, 2, 3, 1, 3, 3]]
    for n in rng.integers(2, 41, 40):
        # freely reduced, so that no product cancels to a small end
        w = [int(rng.choice(letters))]
        while len(w) < n:
            w += [l for l in [int(rng.choice(letters))] if l != -w[-1]]
        words.append(w)
    plan = sl2traces._word_plan(words, 3)
    base = 7  # the empty word and six slots
    # the empty word and single letters are base nodes, no product
    assert list(plan.ends[:3]) == [0, 2, 6] and plan.levels[0][0] == base
    depth = np.zeros(plan.size, dtype=int)
    operands = {}
    for d, (lo, hi, left, right) in enumerate(plan.levels, start=1):
        assert np.all(left < lo) and np.all(right < lo)
        depth[lo:hi] = np.maximum(depth[left], depth[right]) + 1
        assert np.all(depth[lo:hi] == d)
        operands.update(zip(range(lo, hi), zip(left, right)))
    assert plan.levels[-1][1] == plan.size
    for w, end in zip(words[3:], plan.ends[3:]):
        assert depth[end] == math.ceil(math.log2(len(w)))

    # a subword shared by several words is one node
    def pieces(w):
        if len(w) < 2:
            return set()
        h = 2 ** (math.ceil(math.log2(len(w))) - 1)
        return {tuple(w)} | pieces(w[:h]) | pieces(w[h:])

    assert plan.size == base + len(set().union(*map(pieces, words)))
    assert operands[plan.ends[3]][0] == operands[plan.ends[4]][0]  # both heads are [1, 2, 3, 1]
    reps = [SL2Rep([random_sl2(rng) for _ in range(3)]) for _ in range(3)]
    slots = sl2traces._with_inverses(np.stack([np.stack([g.mat for g in r.generators]) for r in reps], axis=-1))
    ends = sl2traces._evaluate_plan(plan, slots)[plan.ends]
    for p, rep in enumerate(reps):
        for n, w in enumerate(words):
            ref = _letter_product(rep, w).mat
            assert np.abs(ends[n, :, :, p] - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())


def test_length_jacobian_names_bad_word():
    A = random_loxodromic(np.random.default_rng(9))
    rep = SL2Rep([A, A])
    with pytest.raises(NonLoxodromicError) as err:
        length_jacobian(rep, default_f2_words())
    assert err.value.word == [1, -2]
    assert err.value.classification == "identity"


def test_length_jacobian_of_powers_past_the_square_root_overflow():
    # the trace of a^1000 is 2^1000, whose square overflows
    J, rank = length_jacobian(README_PAIR, [[1] * 1000, [2], [1, 2]])
    assert rank == 3
    row = length_jacobian(README_PAIR, [[1]])[0][0]
    assert np.abs(J[0] - 1000.0 * row).max() <= 1e-12 * 1000.0 * np.abs(row).max()


@pytest.mark.parametrize("word", [[1] * 1023, [1] * 1030, [1] * 1100, [2] * 800])
def test_overflowing_words_raise_arithmetic_error(word):
    # a product, or for [1] * 1023 its differential, past the float range
    # has no length and no Jacobian row
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArithmeticError, match="overflows"):
            length_jacobian(README_PAIR, [[2], word])
        with pytest.raises(ArithmeticError, match="overflows"):
            trace_jacobian(README_PAIR, [word])


def test_an_infinite_product_with_a_finite_trace_raises():
    # the square of [[1, 1e308], [0, 1]] has trace 2 and the entry 2e308
    rep = SL2Rep([SL2([[1.0, 1e308], [0.0, 1.0]])])
    assert rep.evaluate([1]).mat[0, 1] == 1e308
    for read in (rep.evaluate, lambda w: trace_word(rep, w)):
        with pytest.raises(ArithmeticError) as err:
            read([1, 1])
        assert str(err.value) == "word [1, 1] overflows the float range"


_ROTATION = [[math.cos(1.0), -math.sin(1.0)], [math.sin(1.0), math.cos(1.0)]]


@pytest.mark.parametrize("b, seeds, first", [
    ([[1.0, 1.0], [0.0, 1.0]], [[2], [1]], [1, 2]),
    ([[1.0, 1.0], [0.0, 1.0]], [[1], [2], [1, 2]], [1]),
    (_ROTATION, [[1], [2], [1, 2]], [1]),
], ids=["parabolic", "parabolic-repeat", "elliptic-repeat"])
def test_coordinate_words_fixes_parabolic_seed(b, seeds, first):
    # the non-loxodromic seed [2] gives way to [2] times letter 1, [1, 2],
    # which is kept once when it is also a seed
    rng = np.random.default_rng(10)
    C = random_sl2(rng)
    rep = SL2Rep([SL2.diagonal(2.0), C @ SL2(b) @ C.inverse()])
    assert is_nonelementary(rep)
    out = coordinate_words(rep, seeds)
    assert out[0] == first
    assert [1, 2] in out and len({tuple(w) for w in out}) == len(out)
    assert length_jacobian(rep, out)[1] == 6
    for w in out:
        assert classify(rep.evaluate(w)) == "loxodromic"


def test_coordinate_words_keeps_good_seed():
    rng = np.random.default_rng(11)
    rep = SL2Rep([random_loxodromic(rng), random_loxodromic(rng)])
    seed = [[1], [2], [1, 2]]
    out = coordinate_words(rep, seed)
    for w in seed:
        assert w in out
    _, rank = length_jacobian(rep, out)
    assert rank == 6


def test_coordinate_words_commuting_first_pair():
    rng = np.random.default_rng(12)
    rep = SL2Rep(
        [SL2.diagonal(2.0), SL2.diagonal(1.7), random_loxodromic(rng)]
    )
    out = coordinate_words(rep, [[1], [2], [3]])
    first = [rep.evaluate(w).mat for w in out[:3]]
    for a in range(3):
        for b in range(a + 1, 3):
            comm = first[a] @ first[b] - first[b] @ first[a]
            assert float(np.abs(comm).max()) > 1e-6


@pytest.mark.parametrize("k", [2, 3, 4])
def test_coordinate_words_reach_the_full_chart_rank(k):
    # 6k - 6, the dimension of the character variety of k generators
    rng = np.random.default_rng(5)
    rep = SL2Rep([random_loxodromic(rng) for _ in range(k)])
    out = coordinate_words(rep, [[1], [2]])
    assert length_jacobian(rep, out)[1] == 6 * k - 6


@pytest.mark.parametrize("seeds", [[[1], [2]], [[2], [1]], [], default_f2_words()])
def test_coordinate_words_make_two_engine_calls(monkeypatch, seeds):
    # is_nonelementary and one forward-mode call over every candidate
    rng = np.random.default_rng(6)
    rep = SL2Rep([random_loxodromic(rng), random_loxodromic(rng)])
    calls = []
    engine = sl2traces._evaluate_plan
    monkeypatch.setattr(sl2traces, "_evaluate_plan", lambda *a: calls.append(1) or engine(*a))
    coordinate_words(rep, seeds)
    assert len(calls) == 2


def test_coordinate_words_rejects_elementary():
    rep = SL2Rep([SL2.diagonal(2.0), SL2.diagonal(3.0)])
    with pytest.raises(ValueError):
        coordinate_words(rep, [[1], [2]])


def test_word_utilities():
    assert word_inverse([1, -2, 1]) == [-1, 2, -1]
    with pytest.raises(ValueError):
        check_word([0], 2)
    with pytest.raises(ValueError):
        check_word([3], 2)
    with pytest.raises(ValueError):
        check_word([True, 2], 2)
    with pytest.raises(ValueError):
        SL2([[2.0, 0.0], [0.0, 2.0]])


def test_rank_helpers():
    M = np.diag([1.0, 1e-3, 1e-12])
    rank, s, thr = svd_rank(M)
    assert rank == 2 and s[0] == 1.0 and thr == 1e-8
    rep = rank_report(M)
    assert rep["rank"] == 2 and len(rep["singular_values"]) == 3


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    rep = SL2Rep([random_sl2(rng), random_sl2(rng)])
    back = SL2Rep.from_list(rep.to_list(), "generators")
    for a, b in zip(rep.generators, back.generators):
        assert a.isclose(b, tol=1e-15)
    # the CLI's format: a real entry is a plain number, others [re, im]
    assert SL2.diagonal(2.0).to_list() == [[2.0, 0.0], [0.0, 0.5]]
    assert SL2.diagonal(1j).to_list() == [[[0.0, 1.0], 0.0], [0.0, [0.0, -1.0]]]


@pytest.mark.parametrize("entries", [
    [[math.nan, 0.0], [0.0, 0.5]],
    [[math.inf, 0.0], [0.0, 0.0]],
    [[2.0, complex(0.0, math.inf)], [0.0, 0.5]],
])
def test_sl2_rejects_non_finite_entries(entries):
    with pytest.raises(ValueError, match="finite"):
        SL2(entries)


@pytest.mark.parametrize("data,field", [
    ([[[2.0, 0.0], [0.0, 0.5]], [[2.0, 1.0], [math.nan, 1.0]]], "generators[1][1][0]"),
    ([[[2.0, 0.0], [0.0, True]]], "generators[0][1][1]"),
    ([[[2.0, 0.0], [0.0, [0.5, 0.0, 0.0]]]], "generators[0][1][1]"),
    ([[[2.0, 0.0], [0.0, 0.5, 1.0]]], "generators[0]"),
    ([[[2.0, 0.0], [0.0, 2.0]]], "generators[0]"),
    ([], "generators"),
])
def test_from_list_names_the_failing_entry(data, field):
    with pytest.raises(ValueError, match=r"^field %s" % re.escape(repr(field))):
        SL2Rep.from_list(data, "generators")


def test_is_nonelementary_reps():
    parab = SL2([[1.0, 1.0], [0.0, 1.0]])
    elementary = (
        [SL2.diagonal(2.0), SL2.diagonal(3.0 + 1.0j)],
        [parab, SL2([[1.0, 0.5], [0.0, 1.0]])],
        [SL2.identity(), SL2.diagonal(2.0)],
        [parab, SL2.diagonal(2.0)],
    )
    for gens in elementary:
        assert not is_nonelementary(SL2Rep(gens))
    assert is_nonelementary(random_schottky_pair(np.random.default_rng(4)))
    # fixed-point lifts with parts far past the square root of the float range
    B = SL2([[2.0, 1.0], [1.0, 1.0]])
    for s in (1e160, 1e200):
        A = SL2([[s, 0.0], [0.0, 1.0 / s]])
        assert is_nonelementary(SL2Rep([A, B])) and is_nonelementary(SL2Rep([B @ A @ B.inverse(), B]))
        assert not is_nonelementary(SL2Rep([B @ A @ B.inverse(), B @ SL2.diagonal(3.0) @ B.inverse()]))

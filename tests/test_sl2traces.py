import cmath
import math
import re

import numpy as np
import pytest

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
from rank1kit.spectrum import random_schottky_pair

TRACELESS = (
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
    np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex),
    np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex),
)


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
            ref = rep.evaluate(w).mat
            assert np.abs(ends[n, :, :, p] - ref).max() <= 1e-13 * max(1.0, np.abs(ref).max())
        # a batch of one gives its row of the larger batch bit for bit
        alone = sl2traces._evaluate_plan(plan, slots[..., p:p + 1])[plan.ends, :, :, 0]
        assert np.array_equal(alone, ends[..., p])
        # and a plan of one word the same end as a plan of many
        for n, w in enumerate(words):
            assert np.array_equal(sl2traces._word_ends(rep, [w])[0], ends[n, :, :, p])

    c, s = math.cos(0.7), math.sin(0.7)
    rep = SL2Rep([SL2.diagonal(2.0), SL2([[1.0, 1.0], [0.0, 1.0]]), SL2([[c, -s], [s, c]])])
    oracle = LengthOracle(rep=rep)
    for w in ((2,), (3,), (-3, -3), (1, 3, -3, -1), (-2, 3, 2)):
        assert oracle(w) == 0.0
    assert abs(oracle((-1,)) - 2.0 * math.log(2.0)) <= 1e-15


def test_length_jacobian_names_bad_word():
    A = random_loxodromic(np.random.default_rng(9))
    rep = SL2Rep([A, A])
    with pytest.raises(NonLoxodromicError) as err:
        length_jacobian(rep, default_f2_words())
    assert err.value.word == [1, -2]
    assert err.value.classification == "identity"


def test_coordinate_words_fixes_parabolic_seed():
    rng = np.random.default_rng(10)
    C = random_sl2(rng)
    parab = C @ SL2([[1.0, 1.0], [0.0, 1.0]]) @ C.inverse()
    rep = SL2Rep([SL2.diagonal(2.0), parab])
    assert is_nonelementary(rep)
    out = coordinate_words(rep, [[2], [1]])
    assert out
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

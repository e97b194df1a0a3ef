import cmath
import json
import math
import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1kit.algebra import AlgebraKind, mat_mul, random_unit
from rank1kit.isometry import (
    GroupMatrix, NormalIsometry, NotHyperbolicError, embed_normal, random_form_preserving,
    random_normal_isometry, random_rotation_block, translation_length)
from rank1kit import isometry
from rank1kit.nilboundary import SpaceConfig
from rank1kit.sl2traces import (
    SL2, SL2Rep, NonLoxodromicError, classify, length, random_loxodromic, random_sl2)
from rank1kit import sl2traces, spectrum
from rank1kit.spectrum import (
    FixedPair,
    LengthOracle,
    OracleMissError,
    complex_crossratio,
    conjugacy_distance,
    crossratio_estimate,
    crossratio_of_pair,
    default_budget_words,
    fixed_points,
    lemma1_matrix_sequence,
    lemma1_sequence,
    matrix_crossratio_reference,
    random_schottky_pair,
    reconstruct,
    reconstruct_report,
)


README_PAIR = SL2Rep([SL2([[2.0, 0.0], [0.0, 0.5]]), SL2([[2.0, 1.0], [1.0, 1.0]])])


def _letter_product(rep, word):
    # the reference for the word engine: the product taken one letter at a time
    out = np.eye(2, dtype=complex)
    for letter in word:
        g = rep.generators[abs(letter) - 1]
        out = out @ (g.mat if letter > 0 else g.inverse().mat)
    return SL2(out, check=False)


def mobius(C, z):
    m = C.mat
    if z == math.inf:
        return math.inf if abs(m[1, 0]) < 1e-14 else complex(m[0, 0] / m[1, 0])
    den = m[1, 0] * z + m[1, 1]
    if abs(den) < 1e-14:
        return math.inf
    return complex((m[0, 0] * z + m[0, 1]) / den)


def test_oracle_source_rules():
    rng = np.random.default_rng(0)
    rep = SL2Rep([random_loxodromic(rng), random_loxodromic(rng)])
    with pytest.raises(ValueError):
        LengthOracle()
    with pytest.raises(ValueError):
        LengthOracle(rep=rep, table={(1,): 1.0})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            LengthOracle(table={(1,): 1.0, (1, 2): bad})
    table = LengthOracle(table={(1,): 1.0, (2,): 2.0})
    assert table((2,)) == 2.0
    with pytest.raises(OracleMissError) as err:
        table((1, 2))
    assert err.value.word == [1, 2]


def test_oracle_conventions():
    # non-loxodromic words have geometric length 0; noise never goes negative
    rep = SL2Rep([SL2.diagonal(2.0), SL2([[1.0, 1.0], [0.0, 1.0]])])
    oracle = LengthOracle(rep=rep)
    assert oracle((2,)) == 0.0
    assert abs(oracle((1,)) - 2.0 * math.log(2.0)) <= 1e-15
    noisy = LengthOracle(table={(1,): 1e-12}, noise=0.5, seed=3)
    for _ in range(5):
        assert noisy((1,)) >= 0.0
    # deterministic per word and seed
    again = LengthOracle(table={(1,): 1e-12}, noise=0.5, seed=3)
    assert noisy((1,)) == again((1,))


def test_oracle_list_form_equals_per_word_reads(monkeypatch):
    rep = random_schottky_pair(np.random.default_rng(15))
    # the fit words, a non-loxodromic word and the empty word
    words = default_budget_words(2) + [[1, -1], []]
    calls = []
    engine = sl2traces._evaluate_plan
    monkeypatch.setattr(sl2traces, "_evaluate_plan", lambda *a: calls.append(1) or engine(*a))
    exact = LengthOracle(rep=rep)
    for oracle in (exact, LengthOracle(rep=rep, noise=0.2, seed=5)):
        calls.clear()
        batch = oracle.lengths(words)
        assert len(calls) == 1  # one engine call for the whole list
        assert batch == [oracle.length(w) for w in words]
        assert oracle.lengths([]) == []
    assert exact.lengths(words)[-2:] == [0.0, 0.0]
    # a table oracle: _covered drops the words the table misses from a
    # tuple of checked word tuples
    table = {tuple(w): v for n, (w, v) in enumerate(zip(words, exact.lengths(words))) if n % 3}
    checked = tuple(map(tuple, words))
    for oracle in (LengthOracle(table=table), LengthOracle(table=table, noise=0.2, seed=5)):
        covered, lengths = spectrum._covered(oracle, checked)
        assert covered == tuple(w for n, w in enumerate(checked) if n % 3)
        assert lengths == [oracle.length(w) for w in covered]
        with pytest.raises(OracleMissError):
            oracle.lengths(words)
        assert spectrum._covered(oracle, ()) == ((), [])


def test_oracle_lengths_past_the_square_root_overflow():
    # the trace 2^n + 2^-n of a^n has a square past the float range from n = 512
    ns = (511, 512, 600, 1000)
    got = LengthOracle(rep=README_PAIR).lengths([[1] * n for n in ns])
    for n, v in zip(ns, got):
        assert abs(v - 2.0 * n * math.log(2.0)) <= 1e-12 * 2.0 * n * math.log(2.0)


@pytest.mark.parametrize("word", [[1] * 1030, [1] * 1100, [2] * 800])
def test_oracle_overflow_raises_arithmetic_error(word):
    # a NaN trace is not an elliptic element, nor an image: each read
    # fails, naming the word
    reads = [LengthOracle(rep=README_PAIR).length, README_PAIR.evaluate,
             lambda w: sl2traces.trace_word(README_PAIR, w),
             lambda w: LengthOracle(rep=README_PAIR).power_lengths(w, [2], 3)]
    for read in reads:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="overflows") as err:
                read(word)
        assert str(err.value) == "word %r overflows the float range" % (word,)


_SIXTH_TURN = SL2([[0.5, -math.sqrt(0.75)], [math.sqrt(0.75), 0.5]])  # elliptic, as its square
_SHEAR = SL2([[1.0, 1.0], [0.0, 1.0]])  # parabolic, as its square


@pytest.mark.parametrize("bad, kind", [(_SIXTH_TURN, "elliptic"), (_SHEAR, "parabolic")])
@pytest.mark.parametrize("call, word", [
    (lambda A, B: length(B), None),
    (lambda A, B: fixed_points(B), None),
    (lambda A, B: crossratio_of_pair(A, B), None),
    (lambda A, B: LengthOracle(rep=SL2Rep([A, B])).power_lengths([1], [2, 2], 4), [2, 2]),
    (lambda A, B: sl2traces.length_jacobian(SL2Rep([A, B]), [[1], [2, 2], [1, 2]]), [2, 2]),
])
def test_non_loxodromic_inputs_raise_one_error(bad, kind, call, word):
    # one check states the contract: the classification, and the word
    # (for power_lengths the power word) when the call takes words
    with pytest.raises(NonLoxodromicError) as err:
        call(SL2.diagonal(2.0), bad)
    assert (err.value.classification, err.value.word) == (kind, word)
    name = "element" if word is None else "word %r" % (word,)
    assert str(err.value) == "%s is %s, not loxodromic" % (name, kind)


@pytest.mark.parametrize("bad, message", [
    ([1.5], "nonzero signed integers"), ([True], "nonzero signed integers"),
    (["1"], "nonzero signed integers"), ([0], "nonzero signed integers"),
    ([3], "out of range for arity 2"),
])
def test_oracle_words_are_checked_against_the_arity(bad, message):
    # no letter is coerced: 1.5, True and "1" are not the letter 1, for
    # either kind of oracle, and the arity bounds the letters of both
    rep = random_schottky_pair(np.random.default_rng(2))
    words = default_budget_words(2)
    table = dict(zip(map(tuple, words), LengthOracle(rep=rep).lengths(words)))
    for oracle in (LengthOracle(rep=rep), LengthOracle(table=table)):
        assert oracle.arity == 2
        for call in (lambda: oracle.lengths([[1], bad]), lambda: oracle.length([2] + bad),
                     lambda: oracle.power_lengths(bad, [2], 4), lambda: oracle.power_lengths([1], bad, 4)):
            with pytest.raises(ValueError, match=message):
                call()


@pytest.mark.parametrize("table, key, letter", [
    ({("1",): 1.0, (2,): 2.0}, "('1',)", "'1'"),
    ({(1,): 1.0, (2, 1.5): 2.0}, "(2, 1.5)", "1.5"),
    # True == 1 and hashes as 1: the key is read even where the letter 1 came first
    ({(1,): 1.0, (True, 2): 2.0}, "(True, 2)", "True"),
    ({(1,): 1.0, (2, 0): 2.0}, "(2, 0)", "0"),
])
def test_table_keys_are_checked_with_the_arity(table, key, letter):
    # a malformed key raises from the first read of the arity, naming the key
    oracle = LengthOracle(table=table)
    for call in (lambda: oracle.arity, lambda: oracle.lengths([[1]]),
                 lambda: oracle.power_lengths([1], [2], 2)):
        with pytest.raises(ValueError) as err:
            call()
        assert str(err.value) == "table key %s: word letters are nonzero signed integers, got %s" % (key, letter)
    assert LengthOracle(table={(np.int64(2), -1): 1.0, (1,): 0.5}).arity == 2
    assert LengthOracle(table={}).arity == 0


def test_fixed_pair_guards():
    p = FixedPair(math.inf, 0.0)
    assert p.swapped().attracting == math.inf
    with pytest.raises(ValueError):
        FixedPair(1.0 + 0j, 1.0 + 0j)
    # a point whose squared modulus overflows is still apart from 0
    assert FixedPair(0.0, 1e200).attracting == 1e200


def test_fixed_points_diagonal_convention():
    p = fixed_points(SL2.diagonal(2.0))
    assert p.attracting == math.inf and p.repelling == 0.0
    q = fixed_points(SL2.diagonal(2.0).inverse())
    assert q.attracting == 0.0 and q.repelling == math.inf
    with pytest.raises(NonLoxodromicError):
        fixed_points(SL2.identity())
    # [[1, 0], [t, 1]] moves infinity to 1/t: a finite point, however far
    for t in (1e-13, 1e-14, 1e-15, 1e-16, 1e-160, 1e-300):
        C = SL2([[1.0, 0.0], [t, 1.0]])
        p = fixed_points(C @ SL2.diagonal(2.0) @ C.inverse())
        assert p.repelling == 0.0 and abs(p.attracting - 1.0 / t) <= 1e-15 / t


def test_fixed_points_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(50):
        A = random_loxodromic(rng)
        C = random_sl2(rng)
        p = fixed_points(A)
        q = fixed_points(C @ A @ C.inverse())
        for mine, ref in ((q.repelling, mobius(C, p.repelling)),
                          (q.attracting, mobius(C, p.attracting))):
            if ref == math.inf:
                assert mine == math.inf or abs(mine) > 1e12
            else:
                assert abs(mine - ref) <= 1e-8 * max(1.0, abs(ref))


def test_complex_crossratio_infinity_handling():
    # the infinity factors cancel pairwise
    z = complex_crossratio(math.inf, 1.0 + 0j, 0.0 + 0j, 2.0 + 0j)
    # [(x3-x1)(x4-x2)] / [(x4-x1)(x3-x2)] with x1-factors cancelled
    ref = (2.0 - 1.0) / (0.0 - 1.0)
    assert abs(z - ref) <= 1e-14
    with pytest.raises(ArithmeticError):
        complex_crossratio(1.0 + 0j, 1.0 + 0j, 1.0 + 0j, 1.0 + 0j)
    # coincident infinite points follow the rule of coincident finite ones
    inf = math.inf
    for at_inf, finite, want in (((inf, inf, 0.0, 1.0), (5.0, 5.0, 0.0, 1.0), 1.0),
                                 ((inf, 1.0, inf, 2.0), (5.0, 1.0, 5.0, 2.0), 0.0),
                                 ((inf, 1.0, 2.0, inf), (5.0, 1.0, 2.0, 5.0), inf)):
        assert complex_crossratio(*at_inf) == complex_crossratio(*finite) == want
    for quad in ((inf, inf, inf, 1.0), (5.0, 5.0, 5.0, 1.0)):
        with pytest.raises(ArithmeticError, match="0/0"):
            complex_crossratio(*quad)
    # far points, whose factors multiply past the float range
    assert abs(complex_crossratio(1e200, -1e200, 0.0, 1.0) - 1.0) <= 1e-15


def test_lemma1_sequence_converges_to_crossratio():
    rng = np.random.default_rng(2)
    for _ in range(5):
        A, B = random_schottky_pair(rng).generators
        oracle = LengthOracle(rep=SL2Rep([A, B]))
        ref = crossratio_of_pair(A, B)
        seq = lemma1_sequence(oracle, [1], [2], 22)
        assert abs(seq[-1] - ref) <= 1e-6 * ref


def test_lemma1_companion_sequences_vanish():
    rng = np.random.default_rng(3)
    A, B = random_schottky_pair(rng).generators
    oracle = LengthOracle(rep=SL2Rep([A, B]))
    comp_a = []
    comp_b = []
    for n in range(1, 21):
        la = oracle([1] * n)
        lb = oracle([2] * n)
        lab = oracle([1] * n + [2] * n)
        comp_a.append(math.exp(la - lab))
        comp_b.append(math.exp(lb - lab))
    assert comp_a[-1] < 1e-6 and comp_b[-1] < 1e-6
    assert comp_a[-1] < comp_a[0] and comp_b[-1] < comp_b[0]


def test_lemma1_degenerate_inverse_pair():
    rng = np.random.default_rng(4)
    A, _ = random_schottky_pair(rng).generators
    rep = SL2Rep([A, A.inverse()])
    oracle = LengthOracle(rep=rep)
    with pytest.raises(NonLoxodromicError) as err:
        lemma1_sequence(oracle, [1], [2], 6)
    # the first power word that is not loxodromic is a b = 1
    assert (err.value.word, err.value.classification) == ([1, 2], "identity")
    seq = lemma1_sequence(oracle, [1], [2], 6, check=False)
    la = oracle([1])
    for n, v in enumerate(seq, start=1):
        assert abs(v - math.exp(2.0 * n * la)) <= 1e-9 * v
    assert seq[-1] > seq[0]


def _letter_loop_lengths(rep, a, b, n):
    # the reference: each power word evaluated letter by letter
    return [length(_letter_product(rep, w)) for w in (a * n, b * n, a * n + b * n)]


@pytest.mark.parametrize("a, b", [([1], [2]), ([1, -2], [2, 2, 1]), ([1, 2], [-2])])
def test_power_lengths_match_letter_loop(a, b):
    rep = random_schottky_pair(np.random.default_rng(8))
    rows = LengthOracle(rep=rep).power_lengths(a, b, 40)
    assert len(rows) == 40
    for n, row in enumerate(rows, start=1):
        for got, want in zip(row, _letter_loop_lengths(rep, a, b, n)):
            assert abs(got - want) <= 1e-12 * want


def test_noisy_power_lengths_add_the_per_word_draw():
    rep = random_schottky_pair(np.random.default_rng(9))
    oracle = LengthOracle(rep=rep, noise=0.3, seed=4)
    a, b = [1, -2], [2]
    seq = lemma1_sequence(oracle, a, b, 12, check=False)
    for n, v in enumerate(seq, start=1):
        want = math.exp(oracle(a * n) + oracle(b * n) - oracle(a * n + b * n))
        assert abs(v - want) <= 1e-12 * want


def _stepped_powers(A, B, N):
    # the reference for _scaled_powers: A^n, B^n and A^n B^n stepped one
    # product at a time, each rescaled on its own
    rows, An, ea, Bn, eb = [], A, 0, B, 0
    for n in range(1, N + 1):
        if n > 1:
            An, ea = spectrum._rescaled(An @ A, ea)
            Bn, eb = spectrum._rescaled(Bn @ B, eb)
        rows += [(An, ea), (Bn, eb), spectrum._rescaled(An @ Bn, ea + eb)]
    S, e = zip(*rows)
    return np.array(S), np.array(e)


def _assert_stepped_powers(A, B, N, equal_nan=False):
    S, e = spectrum._scaled_powers(A, B, N)
    S0, e0 = _stepped_powers(A, B, N)
    assert S.shape == S0.shape and S.dtype == S0.dtype and e.dtype == e0.dtype
    assert np.array_equal(S, S0, equal_nan=equal_nan) and (e == e0).all()
    return e.reshape(N, 3)


@pytest.mark.parametrize("N", [1, 2, 16, 48, 400])
def test_scaled_powers_are_the_stepped_powers(N):
    for seed in range(50):
        rep = random_schottky_pair(np.random.default_rng(seed))
        e = _assert_stepped_powers(*sl2traces._word_traces(rep, [[1], [2]])[0], N)
        assert e.any() == (N == 400)  # the products a^n b^n pass 2^256 before n = 400


def test_scaled_powers_rescale_each_matrix_on_its_own():
    B = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    # only A^n passes 2^256, from n = 7 on
    e = _assert_stepped_powers(np.diag([2.0 ** 40, 2.0 ** -40]).astype(complex), B, 40)
    assert e[6:, 0].all() and not e[:6, 0].any() and not e[:, 1].any()
    # A^n B^n passes 2^256 at n = 12, where neither A^n nor B^n does
    e = _assert_stepped_powers(np.diag([2.0 ** 21, 2.0 ** -21]).astype(complex), B, 12)
    assert not e[:, :2].any() and not e[:11, 2].any() and e[11, 2] > 0


@pytest.mark.parametrize("dtype", [float, complex])
def test_scaled_powers_past_2_256_from_the_first_steps(dtype):
    # A^n and A^n B^n pass 2^256 from n = 2 on: the bound checks every step
    B = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=dtype)
    for N in (1, 2, 3, 40):
        e = _assert_stepped_powers(np.diag([2.0 ** 200, 2.0 ** -200]).astype(dtype), B, N)
        assert not e[0].any() and e[1:, 0].all() and e[1:, 2].all() and not e[:, 1].any()
    e = _assert_stepped_powers(np.diag([2.0 ** 200, 2.0 ** -200]).astype(dtype),
                               np.diag([2.0 ** -300, 2.0 ** 300]).astype(dtype), 40)
    assert e[1:, :2].all()


def _boosted(M, s, t):
    # M conjugated by the boost diag(s, 1/s) after a rotation by t: row
    # sums near s^2 |M|, spectral radius that of M
    C = np.diag([s, 1.0 / s]) @ np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
    return C @ M @ np.linalg.inv(C)


@pytest.mark.parametrize("s", [1.0, 1e2, 1e4, 1e6])
def test_scaled_powers_of_boosted_elliptics_and_parabolics(s, monkeypatch):
    # row sums far above the spectral radius 1: the bound passes 2^256
    # and checks, but no power grows, so none rescales
    elliptic = np.diag([cmath.exp(0.9j), cmath.exp(-0.9j)])
    parabolic = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    for A, B in ((elliptic, parabolic), (parabolic, -parabolic), (elliptic, elliptic.conj())):
        A, B = _boosted(A, s, 0.3), _boosted(B, s, 1.1)
        for N in (1, 7, 100, 400):
            assert not _assert_stepped_powers(A, B, N).any()
        checks = []
        real = np.abs
        with monkeypatch.context() as m:
            m.setattr(np, "abs", lambda x: checks.append(1) or real(x))
            spectrum._scaled_powers(A, B, 400)
        # the bound grows like (s^2)^n, so it checks more often the larger s
        assert len(checks) > 20 or s < 1e2


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(math.inf, math.nan)])
def test_scaled_powers_with_non_finite_entries(bad):
    # a NaN or infinite bound checks every step, as the stepped loop does
    A = np.array([[2.0, 1.0], [1.0, 1.0]], dtype=complex)
    B = A.copy()
    B[0, 1] = bad
    big = np.diag([2.0 ** 200, 2.0 ** -200]).astype(complex)
    with np.errstate(all="ignore"):
        for N in (1, 2, 40):
            _assert_stepped_powers(A, B, N, equal_nan=True)
            _assert_stepped_powers(B, A, N, equal_nan=True)
            _assert_stepped_powers(B, B, N, equal_nan=True)
            # a NaN in B^n leaves the rescales of A^n
            e = _assert_stepped_powers(big, B, N, equal_nan=True)
            assert e[1:, 0].all() and not e[:, 1].any()


def test_scaled_powers_of_the_zero_matrix():
    Z = np.zeros((2, 2), dtype=complex)
    A = np.array([[2.0 ** 200, 1.0], [1.0, 2.0 ** -200]], dtype=complex)
    for N in (1, 2, 40):
        assert not _assert_stepped_powers(Z, Z, N).any()
        _assert_stepped_powers(Z, A, N)
        _assert_stepped_powers(A, Z, N)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), la=st.floats(1e-3, 50.0), lb=st.floats(1e-3, 50.0),
       s=st.floats(1.0, 1e4), N=st.integers(1, 400))
def test_scaled_powers_property_over_conjugated_pairs(seed, la, lb, s, N):
    # loxodromics of lengths up to 50 conjugated by random SL2 matrices
    # after a boost by s, whose row sums can far exceed their spectral radii
    rng = np.random.default_rng(seed)
    A, B = (_boosted(random_loxodromic(rng, (l, l)).mat, s, rng.uniform(-math.pi, math.pi))
            for l in (la, lb))
    _assert_stepped_powers(A, B, N)


def test_scaled_powers_size_check_budget(monkeypatch):
    # at N = 48 a Schottky pair's powers stay far below 2^256: the bound
    # skips every per-step size check, leaving the two of |A|, |B| and the
    # one of the products A^n B^n
    checks = []
    real = np.abs
    monkeypatch.setattr(np, "abs", lambda x: checks.append(1) or real(x))
    for seed in range(20):
        A, B = sl2traces._word_traces(random_schottky_pair(np.random.default_rng(seed)), [[1], [2]])[0]
        checks.clear()
        spectrum._scaled_powers(A, B, 48)
        assert len(checks) == 2


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_power_lengths_are_homogeneous_past_overflow(seed):
    # the unscaled products overflow long before n = 400
    rep = random_schottky_pair(np.random.default_rng(seed))
    oracle = LengthOracle(rep=rep)
    la, lb = oracle([1]), oracle([2])
    rows = oracle.power_lengths([1], [2], 400)
    assert all(math.isfinite(v) for row in rows for v in row)
    assert abs(rows[-1][0] - 400 * la) <= 1e-12 * 400 * la
    assert abs(rows[-1][1] - 400 * lb) <= 1e-12 * 400 * lb
    ref = crossratio_of_pair(*rep.generators)
    term = math.exp(rows[-1][0] + rows[-1][1] - rows[-1][2])
    assert abs(term - ref) <= 1e-9 * ref


def test_scaled_classification_agrees_with_classify():
    rng = np.random.default_rng(10)
    C = random_sl2(rng)
    mats = [
        SL2.identity(),
        SL2(-np.eye(2)),
        SL2([[1.0, 3.0], [0.0, 1.0]]),
        C @ SL2([[-1.0, 2.0], [0.0, -1.0]]) @ C.inverse(),
        C @ SL2.diagonal(cmath.exp(0.7j)) @ C.inverse(),
        random_loxodromic(rng),
    ]
    for M in mats:
        for e in (0, 1, 40, 700):
            S = M.mat * math.ldexp(1.0, -e)
            mask = sl2traces._trace_lengths(S[0, 0] + S[1, 1], e).loxodromic
            assert mask == (classify(M) == "loxodromic")
    # 2^1100 S is past the float range; its trace still decides
    S = random_loxodromic(rng).mat
    assert sl2traces._trace_lengths(S[0, 0] + S[1, 1], 1100).loxodromic


@pytest.mark.parametrize("a, b, N, name", [
    ([], [2], 4, "a"), ([1], [], 4, "b"), ([], [], 4, "a"),
    ([1], [2], True, "N"), ([1], [2], 3.5, "N"), ([1], [2], 0, "N"),
])
def test_lemma1_sequence_rejects_bad_arguments(a, b, N, name):
    oracle = LengthOracle(rep=random_schottky_pair(np.random.default_rng(2)))
    with pytest.raises(ValueError, match="argument '%s'" % name):
        lemma1_sequence(oracle, a, b, N)


def test_lemma1_matrix_route():
    rng = np.random.default_rng(5)
    for kind, m in ((AlgebraKind.R, 3), (AlgebraKind.C, 2)):
        cfg = SpaceConfig(kind, m)
        C = random_form_preserving(cfg, rng)
        D = random_form_preserving(cfg, rng)
        A = C @ embed_normal(random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))) @ C.inverse()
        B = D @ embed_normal(random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))) @ D.inverse()
        seq = lemma1_matrix_sequence(A, B, 24)
        ref = matrix_crossratio_reference(A, B)
        assert abs(seq[-1] - ref) <= 1e-5 * ref
        # the powers pass the float range near n = 300 and are rescaled
        long = lemma1_matrix_sequence(A, B, 400)
        assert long[:24] == seq
        assert all(math.isfinite(v) for v in long)
        assert abs(long[-1] - ref) <= 1e-9 * ref


def _hyperbolic_pair(kind, m, seed):
    # two hyperbolic matrices with generic axes, as in test_lemma1_matrix_route
    cfg = SpaceConfig(kind, m)
    rng = np.random.default_rng(seed)
    C = random_form_preserving(cfg, rng)
    D = random_form_preserving(cfg, rng)
    A = C @ embed_normal(random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))) @ C.inverse()
    B = D @ embed_normal(random_normal_isometry(cfg, rng, s_range=(0.7, 1.8))) @ D.inverse()
    return A, B


def _elliptic_start_pair():
    # translations by 1 along two axes 1 apart, the second reversed: the
    # products a^n b^n are elliptic for n = 1, 2 and hyperbolic after
    cfg = SpaceConfig(AlgebraKind.R, 3)
    A = embed_normal(NormalIsometry.dilation(cfg, 1.0))
    t = np.zeros((4, 4, 1))
    t[:, :, 0] = np.eye(4)
    t[0, 0, 0] = t[3, 3, 0] = math.cosh(1.0)
    t[0, 3, 0] = t[3, 0, 0] = math.sinh(1.0)
    T = GroupMatrix(cfg, t)
    return A, T @ A.inverse() @ T.inverse()


_MATRIX_PAIRS = {
    "R3": lambda: _hyperbolic_pair(AlgebraKind.R, 3, 5),
    "C2": lambda: _hyperbolic_pair(AlgebraKind.C, 2, 6),
    "H2": lambda: _hyperbolic_pair(AlgebraKind.H, 2, 7),
    "R4": lambda: _hyperbolic_pair(AlgebraKind.R, 4, 8),
    "elliptic start": _elliptic_start_pair,
}


def _ref_matrix_lengths(S, e):
    # the list build of isometry._matrix_lengths before it read plain lists:
    # it walks the numpy rows of S and the exponents e
    radii = np.abs(np.linalg.eigvals(S)).max(axis=-1).tolist()
    classes = ["hyperbolic" if ei else isometry._classify(m, r) for m, r, ei in zip(S, radii, e)]
    return classes, [ei * math.log(2.0) + math.log(r) if c == "hyperbolic" else 0.0
                     for c, r, ei in zip(classes, radii, e)]


def _assert_matrix_lengths(S, e):
    classes, lengths = isometry._matrix_lengths(S, e)
    ref_classes, ref_lengths = _ref_matrix_lengths(S, e)
    assert classes == ref_classes and lengths == ref_lengths
    assert all(type(l) is float for l in lengths)
    return classes


@pytest.mark.parametrize("N", [1, 5, 40, 400])
@pytest.mark.parametrize("case", list(_MATRIX_PAIRS))
def test_matrix_lengths_are_the_row_walk(case, N):
    A, B = _MATRIX_PAIRS[case]()
    emb = isometry._complex_embedding(A.config.kind, np.stack([A.coeffs, B.coeffs]))
    classes = _assert_matrix_lengths(*spectrum._scaled_powers(emb[0], emb[1], N))
    # the elliptic start's first products reach _classify
    assert classes[2:6:3] == ["elliptic", "elliptic"][:N] or case != "elliptic start"
    for M in (A, B, A @ B):
        _assert_matrix_lengths(M.complex_embedding()[None], [0])


@pytest.mark.parametrize("kind, m", [(AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.H, 2)])
def test_matrix_lengths_of_seeded_stacks(kind, m):
    # boosts of 0 to 2e-3 put spectral radii on both sides of 1 + _SPLIT_TOL,
    # so rows reach _classify, with exponents 0 and not
    cfg = SpaceConfig(kind, m)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        mats = [random_form_preserving(cfg, rng, boost_range=(0.0, 2e-3)) for _ in range(12)]
        mats += [random_form_preserving(cfg, rng) for _ in range(4)] + list(_hyperbolic_pair(kind, m, seed))
        S = np.stack([M.complex_embedding() for M in mats])
        classes = _assert_matrix_lengths(S, np.zeros(len(mats), dtype=int))
        assert {"hyperbolic", "elliptic"} <= set(classes)
        _assert_matrix_lengths(S, rng.integers(0, 3, len(mats)))
        _assert_matrix_lengths(S, [0] * len(mats))


def _length(emb, e):
    # the translation length of 2^e emb from one eigvals call of its own
    radius = float(np.max(np.abs(np.linalg.eigvals(emb))))
    if not e and isometry._classify(emb, radius) != "hyperbolic":
        return 0.0
    return e * math.log(2.0) + math.log(radius)


def _sequence(l):
    return [math.exp(l[i] + l[i + 1] - l[i + 2]) for i in range(0, len(l), 3)]


def _per_power_sequence(A, B, N):
    # lemma1_matrix_sequence with one eigvals call per power
    emb = isometry._complex_embedding(A.config.kind, np.stack([A.coeffs, B.coeffs]))
    S, e = _stepped_powers(emb[0], emb[1], N)
    return _sequence([_length(s, ei) for s, ei in zip(S, e)])


def _coefficient_sequence(A, B, N):
    # the powers stepped on coefficient arrays by mat_mul, each embedded
    # on its own
    kind = A.config.kind
    l = []
    An, ea, Bn, eb = A.coeffs, 0, B.coeffs, 0
    for n in range(1, N + 1):
        if n > 1:
            An, ea = spectrum._rescaled(mat_mul(kind, An, A.coeffs), ea)
            Bn, eb = spectrum._rescaled(mat_mul(kind, Bn, B.coeffs), eb)
        ABn, eab = spectrum._rescaled(mat_mul(kind, An, Bn), ea + eb)
        l += [_length(isometry._complex_embedding(kind, S), e)
              for S, e in ((An, ea), (Bn, eb), (ABn, eab))]
    return _sequence(l)


@pytest.mark.parametrize("N", [1, 5, 40, 400])
@pytest.mark.parametrize("case", list(_MATRIX_PAIRS))
def test_lemma1_matrix_sequence_is_the_per_power_loop(case, N):
    A, B = _MATRIX_PAIRS[case]()
    emb = isometry._complex_embedding(A.config.kind, np.stack([A.coeffs, B.coeffs]))
    e = _assert_stepped_powers(emb[0], emb[1], N)
    assert e.any() == (N == 400)  # the powers pass 2^256 near n = 300 and are rescaled
    seq = lemma1_matrix_sequence(A, B, N)
    assert seq == _per_power_sequence(A, B, N)
    if case == "elliptic start":
        assert (A @ B).classify() == "elliptic"
        assert seq[0] == math.exp(translation_length(A) + translation_length(B))


@pytest.mark.parametrize("N", [1, 5, 40, 400])
@pytest.mark.parametrize("case", list(_MATRIX_PAIRS))
def test_lemma1_matrix_sequence_is_the_coefficient_power_loop(case, N):
    # the embedding is multiplicative, so the powers of the embeddings
    # agree with the embedded coefficient powers up to rounding
    A, B = _MATRIX_PAIRS[case]()
    seq = lemma1_matrix_sequence(A, B, N)
    ref = _coefficient_sequence(A, B, N)
    assert max(abs(x - y) / abs(y) for x, y in zip(seq, ref)) <= 1e-12


@pytest.mark.parametrize("N", [1, 5, 40, 400])
def test_lemma1_matrix_sequence_eigvals_budget(monkeypatch, N):
    # one embedding, and one eigvals call reads all 3N spectral radii; no
    # power needs eig, and none is a coefficient product
    A, B = _MATRIX_PAIRS["C2"]()
    calls = {"eigvals": 0, "eig": 0, "_complex_embedding": 0, "mat_mul": 0}
    for module, name in [(np.linalg, "eigvals"), (np.linalg, "eig"),
                         (spectrum, "_complex_embedding"), (isometry, "mat_mul")]:
        def counted(*args, name=name, real=getattr(module, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)
    lemma1_matrix_sequence(A, B, N)
    assert calls == {"eigvals": 1, "eig": 0, "_complex_embedding": 1, "mat_mul": 0}


def _elliptic(A):
    # a rotation about the axis of the normal form, with no translation
    rng = np.random.default_rng(11)
    cfg = A.config
    return embed_normal(NormalIsometry(cfg, random_rotation_block(cfg, rng), random_unit(cfg.kind, rng), 0.0))


@pytest.mark.parametrize("N, other, message", [
    (0, None, "argument 'N'"), (-2, None, "argument 'N'"), (True, None, "argument 'N'"),
    (3.5, None, "argument 'N'"), (4, (AlgebraKind.C, 2), "configuration mismatch"),
    (4, (AlgebraKind.R, 4), "configuration mismatch"),
    (4, "elliptic A", "generator A is elliptic, not hyperbolic"),
    (4, "identity B", "generator B is elliptic, not hyperbolic"),
])
def test_lemma1_matrix_sequence_rejects_bad_arguments(N, other, message):
    A, B = _MATRIX_PAIRS["R3"]()
    if other == "elliptic A":
        A = _elliptic(A)
    elif other == "identity B":
        B = GroupMatrix.identity(B.config)
    elif other is not None:
        B = _hyperbolic_pair(*other, 9)[1]
    error = NotHyperbolicError if "generator" in message else ValueError
    with pytest.raises(error, match=message):
        lemma1_matrix_sequence(A, B, N)


def test_crossratio_estimate_cases():
    c, conf = crossratio_estimate([7.25] * 10)
    assert c == 7.25 and conf == 0.0
    seq = [3.0 + 2.0 * 0.5**n for n in range(1, 13)]
    c, conf = crossratio_estimate(seq)
    assert abs(c - 3.0) <= 1e-9
    assert conf <= 1e-9
    rng = np.random.default_rng(6)
    noisy = [3.0 + float(rng.standard_normal()) for _ in range(12)]
    _, conf = crossratio_estimate(noisy)
    assert conf > 1e-2
    with pytest.raises(ValueError):
        crossratio_estimate([1.0, 2.0, 3.0])


def test_noisy_converged_tail_keeps_its_limit():
    # at noise 1e-6, seed 0, the README pair's sequence of [1] and [2] ends
    # 1.9098302, 1.9098317, 1.9098231: noise hides the ratio (|r| >= 0.999),
    # but the window agrees to 5e-6, so the limit is kept; the start
    # circles do not meet, so the grid starts at Im z = 0 and restart 0 is
    # the real start
    oracle = LengthOracle(rep=README_PAIR, noise=1e-6, seed=0)
    L, confidence = crossratio_estimate(lemma1_sequence(oracle, [1], [2], 16, check=False))
    ref = crossratio_of_pair(*README_PAIR.generators)
    assert abs(L - ref) <= 1e-5 * ref and confidence < 1e-4
    starts = spectrum._initial_guesses(oracle)
    assert len(starts) == 16
    assert starts[0][5] == 0.0


def test_default_budget_words():
    words = default_budget_words(2)
    assert [1] in words and [2] in words
    for n in range(1, 9):
        assert [1] * n + [2] * n in words
    # no duplicates up to cyclic rotation and inversion
    seen = set()
    for w in words:
        assert tuple(w) not in seen
        seen.add(tuple(w))
    # every call hands out fresh lists
    words[0].append(2)
    words.append([2, 2])
    fresh = default_budget_words(2)
    assert fresh[0] == [1] and fresh[1:] == words[1:-1]


def test_reconstruct_round_trip():
    rng = np.random.default_rng(7)
    A, B = random_schottky_pair(rng).generators
    truth = SL2Rep([A, B])
    rep = reconstruct(LengthOracle(rep=truth))
    assert conjugacy_distance(rep, truth) <= 1e-4


def test_reconstruct_conjugated_oracle_same_class():
    rng = np.random.default_rng(8)
    A, B = random_schottky_pair(rng).generators
    truth = SL2Rep([A, B])
    mirrored = truth.entrywise_conj()
    rep = reconstruct(LengthOracle(rep=mirrored))
    assert conjugacy_distance(rep, truth) <= 1e-4


def test_reconstruct_report_fields_and_determinism():
    rng = np.random.default_rng(9)
    A, B = random_schottky_pair(rng).generators
    oracle = LengthOracle(rep=SL2Rep([A, B]))
    r1 = reconstruct_report(oracle)
    r2 = reconstruct_report(oracle)
    assert r1["parameters"] == r2["parameters"]
    assert r1["rms"] == r2["rms"] and r1["restart_index"] == r2["restart_index"]
    assert r1["rms"] <= 1e-6
    assert len(r1["words"]) == len(r1["residuals"])
    assert r1["holdout_errors"]
    for v in r1["holdout_errors"].values():
        assert v <= 1e-3


def _letter_by_letter_residuals(p, words, targets):
    # reference: generators built entry by entry from the gauge, every
    # word evaluated one letter at a time
    la, ta, lb, tb, zr, zi = p
    z = complex(zr, zi)
    if abs(z - 1.0) < 1e-10:
        return np.full(len(words), 1e6)
    lam, mu = cmath.exp((la + 1j * ta) / 2.0), cmath.exp((lb + 1j * tb) / 2.0)
    s = np.array([[1.0, z], [1.0, 1.0]])
    si = np.array([[1.0, -z], [-1.0, 1.0]]) / (1.0 - z)
    rep = SL2Rep([SL2.diagonal(lam), SL2(s @ np.diag([mu, 1.0 / mu]) @ si, check=False)])
    out = []
    for w, target in zip(words, targets):
        t = _letter_product(rep, w).trace()
        root = cmath.sqrt(t * t - 4.0)
        modulus = max(abs((t + root) / 2.0), abs((t - root) / 2.0))
        out.append(2.0 * math.log(max(modulus, 1.0)) - target)
    return np.array(out)


def _random_params(rng, n):
    return np.column_stack([
        rng.uniform(0.1, 3.0, n), rng.uniform(-math.pi, math.pi, n),
        rng.uniform(0.1, 3.0, n), rng.uniform(-math.pi, math.pi, n),
        rng.normal(0.0, 2.0, n), rng.normal(0.0, 2.0, n)])


def test_residual_batch_matches_letter_by_letter():
    rng = np.random.default_rng(13)
    words = default_budget_words(2) + [[-1, -2, 1, 2], [2, -1, -1, -2, 1]]
    targets = rng.uniform(0.0, 5.0, len(words))
    params = _random_params(rng, 40)
    params[7, 4:] = (1.0 + 3e-11, -2e-11)  # z within 1e-10 of 1
    plan = sl2traces._word_plan(words, 2)
    batch = spectrum._residual_batch(params, plan, targets)
    assert batch.shape == (40, len(words))
    assert np.all(batch[7] == 1e6)
    for p, row in zip(params, batch):
        ref = _letter_by_letter_residuals(p, words, targets)
        assert np.abs(row - ref).max() <= 1e-12 * max(1.0, np.abs(ref).max())
    # a batch of one gives the same row
    alone = spectrum._residual_batch(params[3:4], plan, targets)[0]
    assert np.abs(alone - batch[3]).max() <= 1e-14 * max(1.0, np.abs(batch[3]).max())


def _composed_generator_batch(params, tangents=False):
    # the reference for _generator_batch: the gauge's generators composed
    # as 2 x 2 products by _matmul, inverses by _with_inverses
    matmul = sl2traces._matmul
    p = np.asarray(params, dtype=float)
    z = p[:, 4] + 1j * p[:, 5]
    bad = np.abs(z - 1.0) < 1e-10
    z = np.where(bad, 0.0, z)
    lam = np.exp((p[:, 0] + 1j * p[:, 1]) / 2.0)
    mu = np.exp((p[:, 2] + 1j * p[:, 3]) / 2.0)
    one, zero = np.ones_like(z), np.zeros_like(z)
    s = np.array([[[one, z], [one, one]]])
    si = np.array([[[one, -z], [-one, one]]]) / (1.0 - z)
    b = matmul(matmul(s, np.array([[[mu, zero], [zero, 1.0 / mu]]])), si)
    slots = sl2traces._with_inverses(np.concatenate([np.array([[[lam, zero], [zero, 1.0 / lam]]]), b]))
    if not tangents:
        return slots, None, bad
    n = np.array([[[-one, one], [zero, zero]]]) / (1.0 - z)
    dgens = np.zeros((2, 2, 2, 3, len(p)), dtype=complex)
    dgens[0, :, :, 0] = np.array([[lam, zero], [zero, -1.0 / lam]]) / 2.0
    dgens[1, :, :, 1] = matmul(matmul(s, np.array([[[mu, zero], [zero, -1.0 / mu]]]) / 2.0), si)[0]
    dgens[1, :, :, 2] = (matmul(n, b) - matmul(b, n))[0]
    return slots, sl2traces._with_inverses(dgens), bad


def test_generator_batch_is_the_composed_product():
    # the closed-form entries drop only exact 0 and 1 factors of the
    # composition: the slots are its bits, signed zeros included, at the
    # real start (angles 0, Im z = 0), at angles of +-pi and -0.0, and on
    # the rows with z on 1; the tangents are equal
    rng = np.random.default_rng(21)
    X = _random_params(rng, 400)
    X[::3, [1, 3]] = rng.choice([0.0, -0.0, math.pi, -math.pi], (len(X[::3]), 2))
    X[::4, 5] = rng.choice([0.0, -0.0], len(X[::4]))
    X[::5, 4] = rng.choice([0.0, -0.0, 2.0, -1.0], len(X[::5]))
    X[::7, 4:] = (1.0, 0.0)
    X[1::7, 4:] = (1.0 + 3e-11, -2e-11)
    X[::11, [1, 3, 5]] = 0.0
    assert spectrum._generator_batch(X)[2][::7].all()
    # one-row batches too: numpy's complex product has two kernels, picked by layout
    for P in (X, X[:2], X[:17], *X[:60, None]):
        for tangents in (False, True):
            slots, dslots, bad = spectrum._generator_batch(P, tangents)
            ref, dref, ref_bad = _composed_generator_batch(P, tangents)
            assert np.array_equal(bad, ref_bad)
            assert np.array_equal(slots.view(np.int64), ref.view(np.int64))
            assert tangents == (dslots is not None) and np.array_equal(dslots, dref)


def test_fit_and_held_out_words_are_the_list_built_ones():
    # the parent construction from fresh lists, against the cached tuples
    for budget in (12, 30, 31, 47, 100):
        words = default_budget_words(2)
        powers = [w for w in words if len(w) % 2 == 0 and w == [1] * (len(w) // 2) + [2] * (len(w) // 2)]
        fit = words if len(words) <= budget else (
            [w for w in words if w not in powers][:budget - len(powers)] + powers)
        hold = [w for w in default_budget_words(2, max_len=5, power_max=0) if w not in fit][-6:]
        assert [list(w) for w in spectrum._fit_words(budget)] == fit
        assert [list(w) for w in spectrum._hold_words(budget)] == hold
        assert spectrum._fit_words(budget) is spectrum._fit_words(budget)


def test_report_makes_one_engine_call_after_the_solve(monkeypatch):
    # the report's residuals, Jacobian and held-out errors come from one
    # dual call; its held-out errors are the plain call's over their own plan
    engine, lockstep = sl2traces._evaluate_plan, spectrum._lockstep_levenberg_marquardt
    calls = []

    def counted(*args):
        calls.append("engine")
        return engine(*args)

    def solve(*args, **kwargs):
        result = lockstep(*args, **kwargs)
        calls.append("solved")
        return result

    monkeypatch.setattr(sl2traces, "_evaluate_plan", counted)
    monkeypatch.setattr(spectrum, "_lockstep_levenberg_marquardt", solve)
    rep = random_schottky_pair(np.random.default_rng(4))
    words = default_budget_words(2, 5, 16)
    table = dict(zip(map(tuple, words), LengthOracle(rep=rep).lengths(words)))
    for oracle in (LengthOracle(table=table), LengthOracle(rep=rep, noise=1e-6)):
        calls.clear()
        report = reconstruct_report(oracle)
        after = calls[calls.index("solved") + 1:]
        # a rep oracle reads the held-out lengths through the engine as well
        assert after == ["engine"] * (1 if oracle.rep is None else 2)
        hold = [[int(l) for l in w.split()] for w in report["holdout_errors"]]
        assert hold == [list(w) for w in spectrum._hold_words(30)]
        plain = spectrum._residual_batch(np.array(report["parameters"])[None], sl2traces._word_plan(hold, 2),
                                         oracle.lengths(hold))[0]
        assert list(report["holdout_errors"].values()) == np.abs(plain).tolist()


def test_report_checks_only_the_words_it_is_given(monkeypatch):
    # the cached fit and held-out lists are read unchecked; check_word runs
    # on the start's words alone, whatever the budget
    checked = []
    real = sl2traces.check_word
    for module in (sl2traces, spectrum):
        monkeypatch.setattr(module, "check_word", lambda w, k: checked.append(tuple(w)) or real(w, k))
    rep = random_schottky_pair(np.random.default_rng(4))
    words = default_budget_words(2, 5, 16)
    table = dict(zip(map(tuple, words), LengthOracle(rep=rep).lengths(words)))
    for oracle in (LengthOracle(rep=rep), LengthOracle(table=table)):
        seen = []
        for budget in (30, 60):
            checked.clear()
            reconstruct_report(oracle, budget)
            seen.append(sorted(checked))
        # the lengths of a and b, a and b of the limits' power words, and for
        # a rep is_nonelementary's four words
        assert seen[0] == seen[1] and len(seen[0]) <= 10 and max(map(len, seen[0])) <= 2


@pytest.mark.parametrize("bad", [[True], [1.5], [0], [3]])
def test_cached_plans_leave_caller_words_checked(bad):
    # True == 1 and 1.5 hashes apart, but no caller's word list is looked up
    # before check_word reads it, so a cached [[1]] does not answer [[True]]
    rep = random_schottky_pair(np.random.default_rng(2))
    table = {(1,): 1.0, (2,): 2.0}
    for oracle in (LengthOracle(rep=rep), LengthOracle(table=table)):
        oracle.lengths([[1]])
        with pytest.raises(ValueError):
            oracle.lengths([bad])
        with pytest.raises(ValueError):
            oracle.length(bad)


def test_exact_answers_clamp_at_zero_in_one_call():
    # an exact oracle clamps its lengths as the per-word max(base, 0.0);
    # a noisy one adds each word's draw first
    bases = [2.5, -1e-17, 0.0, -0.0, 1e-300, -3.0, 7.0]
    words = [(1,) * (n + 1) for n in range(len(bases))]
    for oracle in (LengthOracle(rep=README_PAIR), LengthOracle(table={(1,): 1.0})):
        assert oracle._answers(words, bases) == [max(b, 0.0) for b in bases]
        assert oracle._answers(words, np.array(bases)) == [max(b, 0.0) for b in bases]
    noisy = LengthOracle(rep=README_PAIR, noise=0.1, seed=2)
    assert noisy._answers(words, np.array(bases)) == [noisy._answer(w, b) for w, b in zip(words, bases)]


def test_median_is_numpys_median():
    rng = np.random.default_rng(22)
    for n in range(1, 9):
        for _ in range(50):
            values = rng.standard_normal(n).tolist()
            for k, special in enumerate((math.inf, -math.inf, math.nan)):
                if rng.uniform() < 0.2:
                    values[int(rng.integers(n))] = special
            want = float(np.median(values))
            got = spectrum._median(values)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == want == statistics.median(values)


def test_residual_jacobian_matches_central_differences():
    rng = np.random.default_rng(14)
    words = default_budget_words(2)
    targets = rng.uniform(0.0, 5.0, len(words))
    plan = sl2traces._word_plan(words, 2)

    def fun(P):
        return spectrum._residual_batch(P, plan, targets)

    X = np.vstack([
        _random_params(rng, 5),
        [1.0, 0.0, 1.0, 0.0, 1.0 + 3e-11, 0.0],  # z on 1: every residual reads 1e6
        [1e3, 0.0, 1e3, 0.0, 0.5, 0.5],  # every residual overflows
        [0.0, 1.0, 1.2, 0.3, -0.5, 0.8],  # a is elliptic, and with it [1] and [1, 1]
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F, J = spectrum._residual_batch(X, plan, targets, jacobian=True)
    assert J.shape == (len(X), len(words), 6)
    # the dual call's residuals are the plain call's, bit for bit
    assert np.array_equal(F, fun(X), equal_nan=True)
    assert np.all(F[5] == 1e6) and np.all(J[5] == 0.0)
    assert not np.isfinite(F[6]).all() and np.isnan(J[6]).all()
    assert np.isfinite(J[7]).all()
    rep = spectrum._rep_from_params(X[7])
    lox = np.array([classify(rep.evaluate(w)) == "loxodromic" for w in words])
    assert not lox[words.index([1])] and lox.sum() >= len(words) - 8
    for i in (0, 1, 2, 3, 4, 7):
        x = X[i]
        for j in range(6):
            h = 1e-6 * max(1.0, abs(x[j]))
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            col = (fun(xp[None])[0] - fun(xm[None])[0]) / (2.0 * h)
            # an elliptic word's smooth length has a kink, where forward
            # mode reads a one-sided derivative
            rows = lox if i == 7 else slice(None)
            # the rounding of the residuals, divided by the step 2h, and
            # the central difference's O(h^2) error are all that may differ
            err = np.abs(J[i, rows, j] - col[rows]).max()
            assert err <= 1e-8 * max(1.0, np.abs(col[rows]).max())


def test_mirror_and_angle_shifts_leave_the_residuals():
    # entrywise conjugation and a 2 pi turn of an angle, which flips a
    # generator's sign, are invisible to lengths
    rng = np.random.default_rng(15)
    words = default_budget_words(2)
    targets = rng.uniform(0.0, 5.0, len(words))
    plan = sl2traces._word_plan(words, 2)
    X = _random_params(rng, 20)
    F = spectrum._residual_batch(X, plan, targets)
    tau = 2.0 * math.pi
    for Y in (X * [1, -1, 1, -1, 1, -1], X + [0, tau, 0, 0, 0, 0], X + [0, 0, 0, -tau, 0, 0]):
        assert np.abs(spectrum._residual_batch(Y, plan, targets) - F).max() <= 1e-12 * np.abs(F).max()


def test_one_orientation_grid_covers_the_mirror_starts():
    oracle = LengthOracle(rep=random_schottky_pair(np.random.default_rng(3)))
    starts = np.array(spectrum._initial_guesses(oracle))
    assert len(starts) == 16 and np.all(starts[:, 5] > 0.0)
    for x in starts:
        # the dropped start with -Im z, conjugated, is a kept start up to
        # 2 pi turns of the angles
        image = (x * [1, 1, 1, 1, 1, -1]) * [1, -1, 1, -1, 1, -1]
        turns = (starts - image) / (2.0 * math.pi)
        hits = [k for k, d in enumerate(turns)
                if np.all(d[[0, 2, 4, 5]] == 0.0) and np.all(d[[1, 3]] == np.round(d[[1, 3]]))]
        assert len(hits) == 1


def _solver_case(seed):
    # the full word budget of a seeded pair, and the solver's 16 starts
    return _fit_problem(random_schottky_pair(np.random.default_rng(seed)))


def _fit_problem(rep, words=None):
    # the solver's problem on a word list, by default the full word budget
    oracle = LengthOracle(rep=rep)
    words = default_budget_words(2) if words is None else words
    plan = sl2traces._word_plan(words, 2)
    targets = np.array([oracle(w) for w in words])
    starts = np.array(spectrum._initial_guesses(oracle))
    return (lambda P, jacobian=False: spectrum._residual_batch(P, plan, targets, jacobian)), starts


def test_lockstep_restarts_are_independent():
    fun, starts = _solver_case(0)
    joint = spectrum._lockstep_levenberg_marquardt(fun, starts)
    # restarts leave the lockstep at different iterations and for
    # different reasons
    assert len(set(joint.reasons)) >= 2 and len(set(joint.iterations)) >= 2
    for i, x0 in enumerate(starts):
        alone = spectrum._lockstep_levenberg_marquardt(fun, x0[None])
        assert alone.reasons == [joint.reasons[i]]
        # equal up to the rounding of a converged cost
        assert np.allclose(alone.cost, joint.cost[i], rtol=1e-9, atol=1e-24)


def test_lockstep_poisoned_starts_leave_the_others():
    fun, starts = _solver_case(0)
    clean = spectrum._lockstep_levenberg_marquardt(fun, starts[:8])
    on_one = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]  # z on 1: every row reads 1e6
    overflow = [1e3, 0.0, 1e3, 0.0, 0.5, 0.5]  # every residual overflows
    mixed_starts = np.vstack([starts[:4], [on_one], starts[4:8], [overflow]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mixed = spectrum._lockstep_levenberg_marquardt(fun, mixed_starts)
    others = [0, 1, 2, 3, 5, 6, 7, 8]
    assert [mixed.reasons[i] for i in others] == clean.reasons
    assert np.allclose(mixed.cost[others], clean.cost, rtol=1e-9, atol=1e-24)
    assert mixed.reasons[9] == "no_step" and mixed.iterations[9] == 0


def _one_value_per_call_lm(fun, starts, max_iter=160, gtol=1e-12, xtol=1e-14, ftol=1e-8):
    # reference: Levenberg-Marquardt one restart at a time, with Nielsen's
    # update and one damping value per call to fun, in batches of one
    diag = np.arange(starts.shape[1])
    xs, costs, iterations, reasons = [], [], [], []
    for x0 in starts:
        x = np.array(x0, dtype=float)[None]
        f = np.ascontiguousarray(fun(x))
        cost = 0.5 * spectrum._dot_rows(f, f)
        lam, steps, reason = 1e-3, 0, "max_iter"
        for _ in range(max_iter):
            J = np.ascontiguousarray(fun(x, jacobian=True)[1])
            g = (J.transpose(0, 2, 1) @ f[:, :, None])[:, :, 0]
            if np.abs(g).max() < gtol:
                reason = "gtol"
                break
            H = J.transpose(0, 2, 1) @ J
            d = np.maximum(np.diagonal(H, axis1=1, axis2=2), 1e-12)
            for _ in range(24):
                A = H.copy()
                A[:, diag, diag] += lam * d
                try:
                    dx = np.linalg.solve(A, -g[:, :, None])[:, :, 0]
                except np.linalg.LinAlgError:
                    lam *= 4.0
                    continue
                if np.abs(dx).max() < xtol * (1.0 + np.abs(x).max()):
                    reason = "xtol"
                    break
                ft = np.ascontiguousarray(fun(x + dx))
                cost_t = 0.5 * spectrum._dot_rows(ft, ft)
                if cost_t[0] < cost[0]:
                    hdx = (H @ dx[:, :, None])[:, :, 0]
                    predicted = -spectrum._dot_rows(g, dx) - 0.5 * spectrum._dot_rows(dx, hdx)
                    q = (cost - cost_t)[0] / predicted[0] if predicted[0] > 0 else -1.0
                    lam = max(lam * max(1.0 / 3.0, 1.0 - (2.0 * min(float(q), 1.0) - 1.0) ** 3), 1e-12)
                    if (cost - cost_t)[0] <= ftol * cost[0] and predicted[0] <= ftol * cost[0]:
                        reason = "ftol"
                    x, f, cost = x + dx, ft, cost_t
                    steps += 1
                    break
                lam *= 4.0
            else:
                reason = "no_step"
            if reason != "max_iter":
                break
        xs.append(x[0])
        costs.append(cost[0])
        iterations.append(steps)
        reasons.append(reason)
    return np.array(xs), np.array(costs), iterations, reasons


def _poisoned_case():
    fun, starts = _solver_case(0)
    on_one = [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]  # z on 1: every row reads 1e6
    overflow = [1e3, 0.0, 1e3, 0.0, 0.5, 0.5]  # every residual overflows
    return fun, np.vstack([starts[:4], [on_one], starts[4:8], [overflow]])


@pytest.mark.parametrize("case", ["seed 0", "seed 1", "readme", "poisoned"])
def test_lockstep_solve_is_the_one_value_per_call_solve(case):
    # one trial per restart per round, with its Jacobian carried to the next
    # point, changes how many calls the solver makes, not one bit of any
    # restart's path
    fun, starts = {"seed 0": lambda: _solver_case(0), "seed 1": lambda: _solver_case(1),
                   "readme": lambda: _fit_problem(README_PAIR), "poisoned": _poisoned_case}[case]()
    for options in ({"ftol": 0.0}, {}):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, cost, iterations, reasons = _one_value_per_call_lm(fun, starts, **options)
            solve = spectrum._lockstep_levenberg_marquardt(fun, starts, **options)
        assert np.array_equal(solve.x, x) and np.array_equal(solve.cost, cost, equal_nan=True)
        assert solve.iterations.tolist() == iterations and solve.reasons == reasons
        if case == "seed 1":
            # without the relative-reduction stop, stalled restarts crawl on to xtol
            assert ({"gtol", "xtol"} if options else {"gtol", "ftol"}) <= set(reasons)
        if case == "poisoned":
            assert reasons[4] == "gtol" and reasons[9] == "no_step"


def test_ftol_stops_only_stalled_restarts(monkeypatch):
    # the relative-reduction stop ends restarts stalled at a local minimum,
    # never the one that fits an exact oracle
    lockstep = spectrum._lockstep_levenberg_marquardt
    for rep in [random_schottky_pair(np.random.default_rng(s)) for s in [*range(20), 111]] + [README_PAIR]:
        oracle = LengthOracle(rep=rep)
        solves, reports = [], []
        for options in ({"ftol": 0.0}, {}):
            def recorded(*args, **kwargs):
                solves.append(lockstep(*args, **kwargs, **options))
                return solves[-1]
            monkeypatch.setattr(spectrum, "_lockstep_levenberg_marquardt", recorded)
            reports.append(reconstruct_report(oracle))
        (plain, stopped), (before, after) = solves, reports
        assert after["parameters"] == before["parameters"]
        best = after["restart_index"]
        assert best == before["restart_index"]
        assert np.array_equal(stopped.x[best], plain.x[best]) and stopped.cost[best] == plain.cost[best]
        assert stopped.iterations[best] == plain.iterations[best]
        assert stopped.reasons[best] == plain.reasons[best]
        assert all(c >= 1e-6 for c, r in zip(stopped.cost, stopped.reasons) if r == "ftol")


@pytest.mark.parametrize("rep, budget, most", [
    (README_PAIR, 30, 4), (README_PAIR, 47, 4), (random_schottky_pair(np.random.default_rng(1)), 30, 10),
    (random_schottky_pair(np.random.default_rng(24)), 30, 24)],
    ids=["readme", "readme 47 words", "seed 1", "seed 24"])
def test_reconstruct_engine_call_budget(rep, budget, most):
    # one trial per restart per call, each with its Jacobian, takes 3, 3, 8
    # and 20 calls (the README pair fits to rounding on the real start and
    # races the rest); a damping ladder of up to 24 values per iteration in
    # at most three calls takes 5, 6, 12 and 38, over these bounds
    report = reconstruct_report(LengthOracle(rep=rep), budget=budget)
    assert report["diagnostics"]["engine_calls"] <= most


def _near_real_pair(eps):
    # the README pair with b conjugated by [[1, i eps], [0, 1]]: not real
    # for eps > 0, and closer to a real pair the smaller eps
    a, b = README_PAIR.generators
    c = np.array([[1.0, 1j * eps], [0.0, 1.0]])
    return SL2Rep([a, SL2(c @ b.mat @ np.linalg.inv(c))])


def test_readme_pair_fits_on_the_real_chart():
    # the README pair is real, so its start circles are tangent and the
    # grid gains the real start, which fits it to rounding
    oracle = LengthOracle(rep=README_PAIR)
    starts = spectrum._initial_guesses(oracle)
    assert len(starts) == 17 and starts[16][[1, 3, 5]].tolist() == [0.0, 0.0, 0.0]
    report = reconstruct_report(oracle)
    assert report["restart_index"] == 16
    la, ta, lb, tb, zr, zi = report["parameters"]
    assert ta == 0.0 and tb == 0.0 and zi == 0.0
    assert conjugacy_distance(report["rep"], README_PAIR) <= 1e-12


def test_real_start_jacobian_has_zero_imaginary_columns():
    # every fit word is hyperbolic at the real start and every trace real,
    # so the columns of the angles and Im z are exact zeros and the rest,
    # the real chart, has full rank
    oracle = LengthOracle(rep=README_PAIR)
    words = spectrum._fit_words(30)
    x = spectrum._initial_guesses(oracle)[16]
    plan = sl2traces._word_plan(words, 2)
    _, J = spectrum._residual_batch(x[None], plan, oracle.lengths(words), jacobian=True)
    assert np.all(J[0][:, [1, 3, 5]] == 0.0)
    s = np.linalg.svd(J[0][:, [0, 2, 4]], compute_uv=False)
    assert s[-1] > 1e-2 * s[0]


_GRID_CASES = {
    **{"near-real %g" % eps: (lambda eps=eps: LengthOracle(rep=_near_real_pair(eps)), eps < 1e-3)
       for eps in (1e-2, 1e-4, 1e-6)},
    # at seeds 0 and 1 the circles do not meet: restart 0 is the real start
    **{"noisy %d" % k: (lambda k=k: LengthOracle(rep=README_PAIR, noise=1e-6, seed=k), False)
       for k in range(4)},
    **{"seed %d" % s: (lambda s=s: LengthOracle(rep=random_schottky_pair(np.random.default_rng(s))), False)
       for s in [*range(20), 111]},
}


@pytest.mark.parametrize("case", list(_GRID_CASES))
def test_real_start_leaves_the_grid_fits(monkeypatch, case):
    # the real start wins only where it fits better, and a row never depends
    # on its batch, so these fits equal the 16-start grid's; "tangent" says
    # whether the case has the real start at all
    make, tangent = _GRID_CASES[case]
    oracle = make()
    grid = spectrum._initial_guesses
    assert (len(grid(oracle)) == 17) == tangent
    report = reconstruct_report(oracle)
    monkeypatch.setattr(spectrum, "_initial_guesses", lambda o: grid(o)[:16])
    plain = reconstruct_report(oracle)
    assert report["parameters"] == plain["parameters"]
    assert report["restart_index"] == plain["restart_index"]
    assert report["diagnostics"]["engine_calls"] == plain["diagnostics"]["engine_calls"]


@pytest.mark.parametrize("seed", ["readme", 0, 1, 12, 13, 24])
def test_race_keeps_the_winning_path(seed):
    # the race stops only restarts that cannot beat a converged fit, and
    # every other restart follows its unraced path bit for bit
    rep = README_PAIR if seed == "readme" else random_schottky_pair(np.random.default_rng(seed))
    # reconstruct_report's problem: its 30 fit words and its race threshold
    words = spectrum._fit_words(30)
    fun, starts = _fit_problem(rep, words)
    fitted = spectrum._fitted_cost(np.array(LengthOracle(rep=rep).lengths(words)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plain = spectrum._lockstep_levenberg_marquardt(fun, starts)
        raced = spectrum._lockstep_levenberg_marquardt(fun, starts, fitted=fitted)
    kept = [i for i, r in enumerate(raced.reasons) if r != "raced"]
    gone = [i for i, r in enumerate(raced.reasons) if r == "raced"]
    assert gone and "raced" not in plain.reasons
    assert np.array_equal(raced.x[kept], plain.x[kept]) and np.array_equal(raced.cost[kept], plain.cost[kept])
    assert np.array_equal(raced.iterations[kept], plain.iterations[kept])
    assert [raced.reasons[i] for i in kept] == [plain.reasons[i] for i in kept]
    assert np.all(raced.iterations[gone] <= plain.iterations[gone])
    assert raced.reasons[int(np.nanargmin(raced.cost))] in ("gtol", "xtol")
    assert raced.calls <= plain.calls


@pytest.mark.parametrize("seed", [34, 97, 121])
def test_race_keeps_the_fit_precision(seed):
    # a race threshold 2e6 times looser ends these solves at a
    # restart converged short of rounding, 2.8e-12 to 3.1e-11 away
    truth = random_schottky_pair(np.random.default_rng(seed))
    assert conjugacy_distance(reconstruct(LengthOracle(rep=truth)), truth) <= 1e-12


@pytest.mark.parametrize("seed", ["readme", 0])
def test_race_leaves_noisy_solves(monkeypatch, seed):
    # a noisy oracle's fit never reaches rounding level, so the race never
    # fires and the solve is the unraced one
    rep = README_PAIR if seed == "readme" else random_schottky_pair(np.random.default_rng(seed))
    oracle = LengthOracle(rep=rep, noise=1e-6)
    raced = reconstruct_report(oracle)
    lockstep = spectrum._lockstep_levenberg_marquardt
    monkeypatch.setattr(spectrum, "_lockstep_levenberg_marquardt",
                        lambda *args, **kwargs: lockstep(*args, **{**kwargs, "fitted": 0.0}))
    plain = reconstruct_report(oracle)
    assert raced["parameters"] == plain["parameters"]
    assert raced["restart_index"] == plain["restart_index"]
    assert raced["diagnostics"]["engine_calls"] == plain["diagnostics"]["engine_calls"]
    assert "raced" not in [e["reason"] for e in raced["diagnostics"]["restarts"]]


def test_solve_rows_marks_singular_systems():
    A = np.array([np.eye(3), np.zeros((3, 3)), 2.0 * np.eye(3)])
    b = np.arange(9.0).reshape(3, 3)
    x, singular = spectrum._solve_rows(A, b)
    assert singular.tolist() == [False, True, False]
    assert np.array_equal(x[0], b[0]) and np.array_equal(x[2], b[2] / 2.0)


def test_reconstruct_report_diagnostics():
    oracle = LengthOracle(rep=random_schottky_pair(np.random.default_rng(12)))
    report = reconstruct_report(oracle)
    diag = report["diagnostics"]
    starts = spectrum._initial_guesses(oracle)
    assert len(diag["restarts"]) == len(starts) == 16
    for entry, x0 in zip(diag["restarts"], starts):
        assert set(entry) == {"start", "iterations", "reason", "cost"}
        assert entry["start"] == [float(v) for v in x0]
        assert entry["reason"] in ("gtol", "xtol", "ftol", "no_step", "raced", "max_iter")
        # the gradient test runs before each of the 160 iterations, so
        # only max_iter reaches 160 accepted steps
        assert 0 <= entry["iterations"] <= 160
        assert (entry["reason"] == "max_iter") == (entry["iterations"] == 160)
    best = diag["restarts"][report["restart_index"]]
    assert best["cost"] == min(e["cost"] for e in diag["restarts"])
    assert best["reason"] in ("gtol", "xtol")
    assert report["rms"] == math.sqrt(2.0 * best["cost"] / len(report["words"]))
    assert 3 <= diag["engine_calls"] < diag["engine_rows"]
    json.dumps(diag, allow_nan=False)


def test_folded_parameters_pick_one_orientation():
    x = np.array([1.3, 2.0, 0.9, -2.5, 0.4, -0.7])
    folded = spectrum._folded(x)
    assert folded[5] > 0.0 and np.all(np.abs(folded[[1, 3]]) <= math.pi)
    twin = x * [1.0, -1.0, 1.0, -1.0, 1.0, -1.0]
    tau = 2.0 * math.pi
    for y in (x, twin, x + [0, tau, 0, 0, 0, 0], x + [0, -2 * tau, 0, 3 * tau, 0, 0],
              twin + [0, tau, 0, -tau, 0, 0]):
        assert np.allclose(spectrum._folded(y), folded, rtol=0.0, atol=1e-12)
    # the folded fit is the same representation up to the moves lengths
    # cannot see
    rep = spectrum._rep_from_params(x)
    assert conjugacy_distance(rep, spectrum._rep_from_params(folded)) <= 1e-12
    assert np.array_equal(spectrum._folded(folded), folded)


def test_reconstruct_reports_one_orientation():
    truth = random_schottky_pair(np.random.default_rng(0))
    fits = [reconstruct_report(LengthOracle(rep=r)) for r in (truth, truth.entrywise_conj())]
    for fit in fits:
        x = fit["parameters"]
        assert x[5] >= 0.0 and abs(x[1]) <= math.pi and abs(x[3]) <= math.pi
    assert np.allclose(fits[0]["parameters"], fits[1]["parameters"], rtol=0.0, atol=1e-10)
    readme = reconstruct_report(LengthOracle(rep=README_PAIR))
    la, ta, lb, tb, zr, zi = readme["parameters"]
    assert zi >= 0.0 and abs(ta) < 1e-5 and abs(tb) < 1e-5
    assert np.abs(readme["rep"].generators[0].mat - np.diag([2.0, 0.5])).max() < 1e-5


def test_reconstruct_budget_below_the_minimum_raises():
    oracle = LengthOracle(rep=README_PAIR)
    for budget in (0, -3, 11):
        with pytest.raises(ValueError, match="'budget'"):
            reconstruct_report(oracle, budget=budget)
    assert len(reconstruct_report(oracle, budget=12)["words"]) == 12


def test_fit_jacobian_singular_values_show_the_fold():
    # the README pair is real, on the fixed locus of entrywise
    # conjugation, where the length map folds: three directions vanish
    s = reconstruct_report(LengthOracle(rep=README_PAIR))["diagnostics"]["singular_values"]
    assert len(s) == 6 and s == sorted(s, reverse=True)
    assert max(s[3:]) < 1e-5 * s[0]
    s = reconstruct_report(LengthOracle(rep=random_schottky_pair(
        np.random.default_rng(0))))["diagnostics"]["singular_values"]
    assert s[-1] > 1e-3 * s[0]


@pytest.mark.parametrize("seed", [*range(20), 111])
def test_reconstruct_round_trip_precision(seed):
    truth = random_schottky_pair(np.random.default_rng(seed))
    assert conjugacy_distance(reconstruct(LengthOracle(rep=truth)), truth) <= 1e-10


def test_reconstruct_nan_length_does_not_converge():
    # a NaN target makes every cost NaN; the report must not come back
    # with a NaN rms
    class NaNAt(LengthOracle):
        def lengths(self, words):
            return [math.nan if tuple(w) == (1, 2) else v for w, v in zip(words, super().lengths(words))]

    rep = SL2Rep([SL2([[2.0, 0.0], [0.0, 0.5]]), SL2([[2.0, 1.0], [1.0, 1.0]])])
    with pytest.raises(RuntimeError) as err:
        reconstruct_report(NaNAt(rep=rep))
    assert "did not converge" in str(err.value)


def test_reconstruct_rejects_elementary():
    rep = SL2Rep([SL2.diagonal(2.0), SL2.diagonal(3.0)])
    with pytest.raises(ValueError):
        reconstruct(LengthOracle(rep=rep))
    # the arity is the oracle's: an arity-3 rep or a table with a letter 3
    # is not fitted as its first two generators
    rng = np.random.default_rng(3)
    rep3 = SL2Rep(random_schottky_pair(rng).generators + (random_loxodromic(rng),))
    words = default_budget_words(2) + [[1, 3]]
    table = dict(zip(map(tuple, words), LengthOracle(rep=rep3).lengths(words)))
    for oracle in (LengthOracle(rep=rep3), LengthOracle(table=table)):
        assert oracle.arity == 3
        with pytest.raises(ValueError, match=r"arity 2 \(got 3\)"):
            reconstruct(oracle)


def test_reconstruct_nonconvergent_table():
    # a table that is not a length spectrum of anything nearby
    rng = np.random.default_rng(10)
    A, B = random_schottky_pair(rng).generators
    oracle = LengthOracle(rep=SL2Rep([A, B]))
    table = {}
    for w in default_budget_words(2)[:14]:
        table[tuple(w)] = oracle(w) + float(rng.uniform(1.5, 4.0))
    with pytest.raises(RuntimeError) as err:
        reconstruct(LengthOracle(table=table))
    assert "did not converge" in str(err.value)
    assert "max_iter" in str(err.value) or "no_step" in str(err.value)


def test_conjugacy_distance_invariances():
    rng = np.random.default_rng(11)
    A, B = random_schottky_pair(rng).generators
    r = SL2Rep([A, B])
    assert conjugacy_distance(r, r) == 0.0
    C = random_sl2(rng)
    assert conjugacy_distance(r, r.conjugated(C)) <= 1e-12
    assert conjugacy_distance(r, r.entrywise_conj()) <= 1e-12
    # generator sign flips act trivially on lengths; the metric ignores them
    flipped = SL2Rep([SL2(-A.mat), B])
    assert conjugacy_distance(r, flipped) <= 1e-12
    other = SL2Rep([random_loxodromic(rng), random_loxodromic(rng)])
    assert conjugacy_distance(r, other) > 1e-3
    with pytest.raises(ValueError):
        conjugacy_distance(r, SL2Rep([A]))


def test_random_schottky_pair_properties():
    rng = np.random.default_rng(12)
    for _ in range(20):
        A, B = random_schottky_pair(rng).generators
        from rank1kit.sl2traces import classify, is_nonelementary

        assert classify(A) == "loxodromic" and classify(B) == "loxodromic"
        assert is_nonelementary(SL2Rep([A, B]))

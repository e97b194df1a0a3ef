import numpy as np
import pytest

from rank1kit.algebra import (
    AlgebraElement,
    AlgebraKind,
    inv_coeffs,
    isclose,
    mat_mul,
    pairing,
    random_element,
    split,
)


def unit(kind, i):
    return AlgebraElement.unit(kind, i)


def test_quaternion_table_i_times_j():
    kind = AlgebraKind.H
    assert isclose(unit(kind, 1) * unit(kind, 2), unit(kind, 3))
    assert isclose(unit(kind, 2) * unit(kind, 1), -unit(kind, 3))


def test_doubling_second_slot_square():
    # (0,1)(0,1) = (-1,0)
    kind = AlgebraKind.O
    e4 = unit(kind, 4)
    assert isclose(e4 * e4, -AlgebraElement.one(kind))


def test_unit_law():
    rng = np.random.default_rng(0)
    one = AlgebraElement.one(AlgebraKind.O)
    for _ in range(50):
        x = random_element(AlgebraKind.O, rng)
        assert isclose(one * x, x)
        assert isclose(x * one, x)


def test_conj_values():
    kind = AlgebraKind.O
    assert isclose(AlgebraElement.one(kind).conj(), AlgebraElement.one(kind))
    # the pair (i, j): first-slot i is e1, second-slot j is e6
    pair = unit(kind, 1) + unit(kind, 6)
    assert isclose(pair.conj(), -unit(kind, 1) - unit(kind, 6))


def test_conj_antihomomorphism():
    rng = np.random.default_rng(1)
    for _ in range(300):
        x = random_element(AlgebraKind.O, rng)
        y = random_element(AlgebraKind.O, rng)
        gap = ((x * y).conj() - y.conj() * x.conj()).norm()
        assert gap <= 1e-12 * max(1.0, x.norm() * y.norm())


def test_norm_values():
    kind = AlgebraKind.O
    assert unit(kind, 1).norm() == 1.0
    pair = AlgebraElement.one(kind) + unit(kind, 4)
    assert abs(pair.norm() - np.sqrt(2.0)) <= 1e-15


def test_norm_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(300):
        x = random_element(AlgebraKind.O, rng)
        y = random_element(AlgebraKind.O, rng)
        assert abs((x * y).norm() - x.norm() * y.norm()) <= 1e-12 * x.norm() * y.norm()


def test_inv_values():
    kind = AlgebraKind.O
    two = AlgebraElement.from_real(kind, 2.0)
    assert isclose(two.inv(), AlgebraElement.from_real(kind, 0.5))
    assert isclose(unit(kind, 1).inv(), -unit(kind, 1))


def test_inv_antihomomorphism():
    rng = np.random.default_rng(3)
    for _ in range(300):
        x = random_element(AlgebraKind.O, rng)
        y = random_element(AlgebraKind.O, rng)
        gap = ((x * y).inv() - y.inv() * x.inv()).norm()
        assert gap <= 1e-12 * max(1.0, (x * y).inv().norm())


def test_inv_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        AlgebraElement.zero(AlgebraKind.H).inv()
    x = np.ones((3, 8))
    x[1] = 0.0
    with pytest.raises(ZeroDivisionError):
        inv_coeffs(AlgebraKind.O, x)


@pytest.mark.parametrize("kind", list(AlgebraKind))
def test_inverses_past_the_squared_norm_range_are_rescaled_exactly(kind):
    # |x|^2 overflows at 2^600 and underflows to 0 at 2^-600; the inverse
    # of 2^e x is 2^-e x^-1 exactly, without a warning, and the other rows
    # of a batch keep their bits
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, kind.dim))
    want = inv_coeffs(kind, x)
    for e in (600, -600, 1000, -1000):
        scaled = np.ldexp(x, e)
        assert np.array_equal(inv_coeffs(kind, scaled), np.ldexp(want, -e))
        assert np.array_equal(AlgebraElement(kind, scaled[0]).inv().coeffs, np.ldexp(want[0], -e))
        mixed = x.copy()
        mixed[2] = scaled[2]
        got = inv_coeffs(kind, mixed)
        assert np.array_equal(got[2], np.ldexp(want[2], -e))
        assert np.array_equal(np.delete(got, 2, axis=0), np.delete(want, 2, axis=0))


def test_value_arrays_are_read_only():
    from rank1kit.ballmodel import stereo
    from rank1kit.isometry import GroupMatrix, random_normal_isometry
    from rank1kit.nilboundary import SpaceConfig, random_point
    from rank1kit.sl2traces import SL2

    cfg = SpaceConfig(AlgebraKind.C, 2)
    rng = np.random.default_rng(12)
    g = random_point(cfg, rng)
    arrays = [AlgebraElement.one(AlgebraKind.H).coeffs, g.coeffs, stereo(g).coeffs,
              random_normal_isometry(cfg, rng).M, GroupMatrix.identity(cfg).coeffs,
              SL2.identity().mat]
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0


def test_split():
    kind = AlgebraKind.C
    re, im = split(unit(kind, 1))
    assert re == 0.0 and isclose(im, unit(kind, 1))
    re, im = split(AlgebraElement(kind, [3.0, 4.0]))
    assert re == 3.0 and isclose(im, AlgebraElement(kind, [0.0, 4.0]))


def test_inner_product_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(300):
        x = random_element(AlgebraKind.O, rng)
        y = random_element(AlgebraKind.O, rng)
        assert abs((x * y.conj()).re - (y * x.conj()).re) <= 1e-12 * x.norm() * y.norm()


def test_alternative_laws():
    rng = np.random.default_rng(5)
    for _ in range(400):
        x = random_element(AlgebraKind.O, rng)
        y = random_element(AlgebraKind.O, rng)
        assert ((x * y) * y.inv() - x).norm() <= 1e-12 * max(1.0, x.norm())
        gap = (x * (x * y) - (x * x) * y).norm()
        assert gap <= 1e-12 * max(1.0, x.norm() ** 2 * y.norm())


def test_associativity_by_kind():
    rng = np.random.default_rng(6)
    for kind in (AlgebraKind.R, AlgebraKind.C, AlgebraKind.H):
        for _ in range(200):
            x = random_element(kind, rng)
            y = random_element(kind, rng)
            z = random_element(kind, rng)
            gap = ((x * y) * z - x * (y * z)).norm()
            assert gap <= 1e-12 * x.norm() * y.norm() * z.norm()
    witness = 0.0
    for _ in range(100):
        x = random_element(AlgebraKind.O, rng)
        y = random_element(AlgebraKind.O, rng)
        z = random_element(AlgebraKind.O, rng)
        gap = ((x * y) * z - x * (y * z)).norm() / (x.norm() * y.norm() * z.norm())
        witness = max(witness, gap)
    assert witness > 1e-6


def test_embeddings_commute():
    rng = np.random.default_rng(7)
    chain = (
        (AlgebraKind.R, AlgebraKind.C),
        (AlgebraKind.C, AlgebraKind.H),
        (AlgebraKind.H, AlgebraKind.O),
    )
    for small, big in chain:
        for _ in range(100):
            x = random_element(small, rng)
            y = random_element(small, rng)
            assert isclose((x * y).embed(big), x.embed(big) * y.embed(big))
            assert isclose(x.conj().embed(big), x.embed(big).conj())
            assert isclose(x.inv().embed(big), x.embed(big).inv())
            assert abs(x.norm() - x.embed(big).norm()) <= 1e-12


def test_pairing_and_mat_mul_match_product_loops():
    # the matmul-form kernel against plain sums of binary products; the
    # summation order differs, so agreement is to a few ulps
    rng = np.random.default_rng(9)
    for kind in AlgebraKind:
        for n in (1, 2, 3):
            xs = [random_element(kind, rng) for _ in range(n)]
            ys = [random_element(kind, rng) for _ in range(n)]
            ref = AlgebraElement.zero(kind)
            for x, y in zip(xs, ys):
                ref = ref + x * y.conj()
            got = pairing(kind, np.array([x.coeffs for x in xs]), np.array([y.coeffs for y in ys]))
            assert isclose(AlgebraElement(kind, got), ref, tol=1e-14)
            a = rng.standard_normal((2, n, kind.dim))
            b = rng.standard_normal((n, 3, kind.dim))
            got = mat_mul(kind, a, b)
            for i in range(2):
                for j in range(3):
                    ref = AlgebraElement.zero(kind)
                    for k in range(n):
                        ref = ref + AlgebraElement(kind, a[i, k]) * AlgebraElement(kind, b[k, j])
                    assert isclose(AlgebraElement(kind, got[i, j]), ref, tol=1e-14)


def test_kind_mismatch_raises():
    with pytest.raises(ValueError):
        AlgebraElement.one(AlgebraKind.C) * AlgebraElement.one(AlgebraKind.H)


def test_coefficient_round_trip():
    rng = np.random.default_rng(8)
    x = random_element(AlgebraKind.O, rng)
    assert isclose(AlgebraElement(AlgebraKind.O, x.to_list()), x)

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1kit.algebra import AlgebraElement, AlgebraKind
from rank1kit.nilboundary import (
    NilPoint,
    SpaceConfig,
    crossratio_nil,
    crossratio_nil_coeffs,
    dist,
    gauge,
    ninv,
    nmul,
    qnorm,
    qnorm_coeffs,
    random_point,
)

KINDS = (
    (AlgebraKind.R, 3),
    (AlgebraKind.C, 2),
    (AlgebraKind.H, 2),
    (AlgebraKind.O, 2),
)


def test_real_kind_product_adds_horizontals():
    cfg = SpaceConfig(AlgebraKind.R, 3)
    rng = np.random.default_rng(0)
    g = random_point(cfg, rng)
    h = random_point(cfg, rng)
    out = nmul(g, h)
    assert out.center.norm() == 0.0
    for a, b, c in zip(out.horizontal, g.horizontal, h.horizontal):
        assert abs(a.coeffs[0] - (b.coeffs[0] + c.coeffs[0])) <= 1e-15


def test_complex_kind_product_value():
    # [(i), 1] [(0), i] has center i + 2 Im<1, i> = i - 2i = -i
    cfg = SpaceConfig(AlgebraKind.C, 2)
    kind = cfg.kind
    i = AlgebraElement.unit(kind, 1)
    one = AlgebraElement.one(kind)
    g = NilPoint(cfg, i, (one,))
    h = NilPoint(cfg, AlgebraElement.zero(kind), (i,))
    out = nmul(g, h)
    assert (out.center - (-i)).norm() <= 1e-15
    assert (out.horizontal[0] - (one + i)).norm() <= 1e-15


def test_identity_and_inverse():
    rng = np.random.default_rng(1)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        e = NilPoint.identity(cfg)
        for _ in range(100):
            g = random_point(cfg, rng)
            assert nmul(g, e).isclose(g, tol=1e-14)
            assert nmul(e, g).isclose(g, tol=1e-14)
            assert nmul(g, ninv(g)).isclose(e, tol=1e-13)
            assert ninv(ninv(g)).isclose(g, tol=1e-15)
        assert ninv(e).isclose(e)


def test_associativity_all_kinds():
    rng = np.random.default_rng(2)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(100):
            g, h, k = (random_point(cfg, rng) for _ in range(3))
            assert nmul(nmul(g, h), k).isclose(nmul(g, nmul(h, k)), tol=1e-12)


def test_gauge_values():
    cfg = SpaceConfig(AlgebraKind.O, 2)
    e = NilPoint.identity(cfg)
    assert gauge(e).norm() == 0.0
    rng = np.random.default_rng(3)
    c = AlgebraElement(AlgebraKind.O, np.r_[0.0, rng.standard_normal(7)])
    g = NilPoint(cfg, c, (AlgebraElement.zero(AlgebraKind.O),))
    assert (gauge(g) - c).norm() <= 1e-15
    for _ in range(200):
        g = random_point(cfg, rng)
        assert abs(gauge(g).norm() - qnorm(g) ** 2) <= 1e-12 * qnorm(g) ** 2


def test_qnorm_pure_center():
    cfg = SpaceConfig(AlgebraKind.C, 2)
    c = AlgebraElement(AlgebraKind.C, [0.0, 0.81])
    g = NilPoint(cfg, c, (AlgebraElement.zero(AlgebraKind.C),))
    assert abs(qnorm(g) - math.sqrt(0.81)) <= 1e-15


def test_dist_properties():
    rng = np.random.default_rng(4)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(100):
            g = random_point(cfg, rng)
            h = random_point(cfg, rng)
            # exact cancellation leaves a fourth-root floor
            assert dist(g, g) <= 1e-7
            d = dist(g, h)
            assert abs(d - dist(h, g)) <= 1e-12 * d


def test_dist_left_invariance():
    rng = np.random.default_rng(5)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(250):
            c, g, h = (random_point(cfg, rng) for _ in range(3))
            d = dist(g, h)
            assert abs(dist(nmul(c, g), nmul(c, h)) - d) <= 1e-12 * d


def test_crossratio_endpoint_reductions():
    rng = np.random.default_rng(6)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        e = NilPoint.identity(cfg)
        top = NilPoint.infinity(cfg)
        for _ in range(100):
            xi = random_point(cfg, rng)
            xj = random_point(cfg, rng)
            got = crossratio_nil(xi, xj, e, top)
            ref = qnorm(xi) ** 2 / qnorm(xj) ** 2
            assert abs(got - ref) <= 1e-12 * ref
            got = crossratio_nil(e, xi, top, xj)
            ref = dist(xi, xj) ** 2 / qnorm(xj) ** 2
            assert abs(got - ref) <= 1e-10 * max(1.0, ref)


def test_crossratio_left_invariance():
    rng = np.random.default_rng(7)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(100):
            gs = [random_point(cfg, rng) for _ in range(4)]
            c = random_point(cfg, rng)
            ref = crossratio_nil(*gs)
            got = crossratio_nil(*[nmul(c, g) for g in gs])
            assert abs(got - ref) <= 1e-11 * ref


def test_crossratio_translation_reduction():
    rng = np.random.default_rng(8)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        e = NilPoint.identity(cfg)
        top = NilPoint.infinity(cfg)
        for _ in range(100):
            g1 = random_point(cfg, rng)
            g2 = random_point(cfg, rng)
            lhs = crossratio_nil(e, g1, top, g2)
            rhs = crossratio_nil(ninv(g2), nmul(ninv(g2), g1), top, e)
            assert abs(lhs - rhs) <= 1e-12 * lhs


def test_infinity_conventions():
    cfg = SpaceConfig(AlgebraKind.H, 2)
    rng = np.random.default_rng(9)
    g = random_point(cfg, rng)
    top = NilPoint.infinity(cfg)
    with pytest.raises(ValueError):
        nmul(g, top)
    with pytest.raises(ValueError):
        qnorm(top)
    with pytest.raises(ValueError):
        crossratio_nil(top, g, top, random_point(cfg, rng))


def test_degenerate_crossratios():
    cfg = SpaceConfig(AlgebraKind.C, 2)
    rng = np.random.default_rng(10)
    g1, g2, g3 = (random_point(cfg, rng) for _ in range(3))
    # zero denominator factor with the remaining factors finite
    assert crossratio_nil(g1, g2, g3, g1) == math.inf
    with pytest.raises(ArithmeticError):
        crossratio_nil(g1, g1, g1, g1)


def test_config_mismatch():
    a = random_point(SpaceConfig(AlgebraKind.C, 2), np.random.default_rng(11))
    b = random_point(SpaceConfig(AlgebraKind.H, 2), np.random.default_rng(11))
    with pytest.raises(ValueError):
        nmul(a, b)


def test_json_round_trip():
    rng = np.random.default_rng(12)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        g = random_point(cfg, rng)
        assert NilPoint.from_dict(g.to_dict()).isclose(g, tol=1e-15)
    top = NilPoint.infinity(SpaceConfig(AlgebraKind.O, 2))
    assert NilPoint.from_dict(top.to_dict()).is_infinity
    # the center check takes no square of a far center
    far = {"config": {"kind": "C", "m": 2}, "center": [0.0, 1e300], "horizontal": [[1e300, -1e300]]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert NilPoint.from_dict(far).to_dict() == {"infinity": False, **far}


def _dilate(g, e):
    # the exact Heisenberg dilation by 2^e: k -> 2^e k, center -> 2^2e center
    c = np.ldexp(g.coeffs, e)
    c[0] = np.ldexp(g.coeffs[0], 2 * e)
    return NilPoint._wrap(g.config, c)


@pytest.mark.parametrize("kind,m", KINDS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-300, 300))
def test_dilations_at_any_scale(kind, m, seed, e):
    # the cross-ratio is dilation invariant and qnorm and dist homogeneous
    # of degree 1, bit for bit, far past the range of |k|^4 and |center|^2;
    # in a batch, the rows at scale 1 keep their bits
    cfg = SpaceConfig(kind, m)
    rng = np.random.default_rng(seed)
    pts = [random_point(cfg, rng) for _ in range(4)]
    moved = [_dilate(p, e) for p in pts]
    cr = crossratio_nil(*pts)
    assert crossratio_nil(*moved) == cr
    assert dist(moved[0], moved[1]) == math.ldexp(dist(pts[0], pts[1]), e)
    assert qnorm(moved[2]) == math.ldexp(qnorm(pts[2]), e)
    quads = np.array([[p.coeffs for p in pts], [p.coeffs for p in moved]])
    assert crossratio_nil_coeffs(kind, quads).tolist() == [cr, cr]
    assert qnorm_coeffs(quads[:, 2]).tolist() == [qnorm(pts[2]), qnorm(moved[2])]

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1kit.algebra import AlgebraElement, AlgebraKind
from rank1kit.ballmodel import (
    BallPoint,
    chordal,
    coshdist,
    crossratio_ball,
    inner,
    random_boundary,
    random_interior,
    rform,
    stereo,
    stereo_inv,
)
from rank1kit.isometry import act_interior, random_form_preserving
from rank1kit.nilboundary import (
    NilPoint,
    SpaceConfig,
    crossratio_nil,
    gauge,
    ninv,
    qnorm,
    random_point,
)
from rank1kit.spectrum import complex_crossratio

KINDS = (
    (AlgebraKind.R, 3),
    (AlgebraKind.C, 2),
    (AlgebraKind.H, 2),
    (AlgebraKind.O, 2),
)


def test_inner_poles():
    cfg = SpaceConfig(AlgebraKind.C, 2)
    north = BallPoint.pole(cfg, 1)
    south = BallPoint.pole(cfg, -1)
    v = inner(north, south)
    assert v.re == -1.0 and v.im().norm() == 0.0


def test_inner_self_nonnegative_and_symmetry():
    cfg = SpaceConfig(AlgebraKind.H, 2)
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = random_boundary(cfg, rng)
        y = random_boundary(cfg, rng)
        s = inner(x, x)
        assert s.im().norm() <= 1e-14 and s.re >= 0.0
        assert (inner(x, y).conj() - inner(y, x)).norm() <= 1e-14


def test_rform_annihilators():
    cfg = SpaceConfig(AlgebraKind.O, 2)
    rng = np.random.default_rng(1)
    south = BallPoint.pole(cfg, -1)
    for _ in range(100):
        v = random_boundary(cfg, rng)
        assert rform(v, south) == 0.0
        assert abs(rform(v, v)) <= 1e-14


def test_rform_vanishes_on_embedded_quaternions():
    # associativity restores cyclicity of the real part
    h = SpaceConfig(AlgebraKind.H, 2)
    o = SpaceConfig(AlgebraKind.O, 2)
    rng = np.random.default_rng(2)
    for _ in range(200):
        xs = []
        for _ in range(2):
            p = random_boundary(h, rng)
            xs.append(
                BallPoint(
                    o,
                    tuple(c.embed(AlgebraKind.O) for c in p.w1),
                    p.w2.embed(AlgebraKind.O),
                )
            )
        assert abs(rform(xs[0], xs[1])) <= 1e-12


def test_rform_zero_for_associative_kinds():
    cfg = SpaceConfig(AlgebraKind.C, 2)
    rng = np.random.default_rng(3)
    assert rform(random_boundary(cfg, rng), random_boundary(cfg, rng)) == 0.0


def test_chordal_values():
    rng = np.random.default_rng(4)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        assert chordal(BallPoint.pole(cfg, 1), BallPoint.pole(cfg, -1)) == 2.0
        x = random_boundary(cfg, rng)
        # square root of cancellation noise for O, hence the loose floor
        assert chordal(x, x) <= 1e-7


def test_chordal_against_group_coordinates():
    # <<stereo(g), (0,-1)>> has the closed form 2 / sqrt((1+|k|^2)^2 + |c|^2)
    rng = np.random.default_rng(5)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        south = BallPoint.pole(cfg, -1)
        for _ in range(100):
            g = random_point(cfg, rng)
            k2 = g.horizontal_norm_sq()
            ref = 2.0 / math.sqrt((1.0 + k2) ** 2 + g.center.norm_sq())
            assert abs(chordal(stereo(g), south) - ref) <= 1e-12 * ref


def test_coshdist_values():
    cfg = SpaceConfig(AlgebraKind.C, 2)
    origin = BallPoint.origin(cfg)
    assert abs(coshdist(origin, origin) - 1.0) <= 1e-15
    for s in (0.3, 0.9, 1.7):
        x = BallPoint(
            cfg,
            (AlgebraElement.zero(cfg.kind),),
            AlgebraElement.from_real(cfg.kind, math.tanh(s)),
        )
        assert abs(coshdist(origin, x) - math.cosh(s)) <= 1e-12 * math.cosh(s)


def test_coshdist_symmetry_and_domain():
    rng = np.random.default_rng(6)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(100):
            x = random_interior(cfg, rng)
            y = random_interior(cfg, rng)
            d = coshdist(x, y)
            assert d >= 1.0 - 1e-12
            assert abs(d - coshdist(y, x)) <= 1e-12 * d
    cfg = SpaceConfig(AlgebraKind.R, 3)
    with pytest.raises(ValueError):
        coshdist(BallPoint.origin(cfg), BallPoint.pole(cfg, 1))


def test_crossratio_gauge_identity():
    rng = np.random.default_rng(7)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        south = BallPoint.pole(cfg, -1)
        north = BallPoint.pole(cfg, 1)
        for _ in range(100):
            g1 = random_point(cfg, rng)
            g2 = random_point(cfg, rng)
            got = crossratio_ball(south, north, stereo(g1), stereo(g2))
            ref = gauge(ninv(g2)).norm() / gauge(ninv(g1)).norm()
            assert abs(got - ref) <= 1e-9 * ref
            ref2 = qnorm(g2) ** 2 / qnorm(g1) ** 2
            assert abs(got - ref2) <= 1e-9 * ref2


def test_crossratio_swap_symmetry():
    rng = np.random.default_rng(8)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(100):
            x, y, z, w = (random_boundary(cfg, rng) for _ in range(4))
            a = crossratio_ball(x, y, z, w)
            b = crossratio_ball(y, x, w, z)
            assert abs(a - b) <= 1e-10 * abs(a)


def test_crossratio_matches_nil_chart():
    rng = np.random.default_rng(9)
    for kind, m in ((AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.H, 2)):
        cfg = SpaceConfig(kind, m)
        for _ in range(100):
            gs = [random_point(cfg, rng) for _ in range(4)]
            ref = crossratio_nil(*gs)
            got = crossratio_ball(*[stereo(g) for g in gs])
            assert abs(got - ref) <= 1e-9 * ref


def test_stereo_poles_exact():
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        e = stereo(NilPoint.identity(cfg))
        for c in e.w1:
            assert np.all(c.coeffs == 0.0)
        assert e.w2.re == 1.0 and e.w2.im().norm() == 0.0
        top = stereo(NilPoint.infinity(cfg))
        for c in top.w1:
            assert np.all(c.coeffs == 0.0)
        assert top.w2.re == -1.0 and top.w2.im().norm() == 0.0


def test_stereo_lands_on_sphere():
    # from scale 1e78 on, |d|^2 = |1 + |k|^2 - c|^2 leaves the float
    # range and d is inverted after a rescale: the image is still a unit
    # vector, with w1 of size about 2 / scale, not the origin
    rng = np.random.default_rng(10)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for scale, count in ((1.0, 200), (1e78, 20), (1e100, 20)):
            for _ in range(count):
                x = stereo(random_point(cfg, rng, scale=scale))
                assert abs(x.norm_sq() - 1.0) <= 1e-10
                assert np.any(x.coeffs[:-1] != 0.0)


def test_round_trip():
    rng = np.random.default_rng(11)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(200):
            g = random_point(cfg, rng)
            h = stereo_inv(stereo(g))
            assert (h.center - g.center).norm() <= 1e-10
            for a, b in zip(h.horizontal, g.horizontal):
                assert (a - b).norm() <= 1e-10
        assert stereo_inv(BallPoint.pole(cfg, -1)).is_infinity


def _nil_coeffs(g):
    return np.concatenate([g.center.coeffs] + [k.coeffs for k in g.horizontal])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind_index=st.integers(0, len(KINDS) - 1), log_scale=st.floats(-3.0, 6.0),
       seed=st.integers(0, 2**32 - 1))
def test_round_trip_across_scales(kind_index, log_scale, seed):
    # near the pole 1 + w2 is of size 2 / |g|^2, so its rounding error
    # costs the round trip a relative |g|^2 eps; finite points stay finite
    cfg = SpaceConfig(*KINDS[kind_index])
    g = random_point(cfg, np.random.default_rng(seed), scale=10.0**log_scale)
    back = stereo_inv(stereo(g))
    assert not back.is_infinity
    before, after = _nil_coeffs(g), _nil_coeffs(back)
    size = max(1.0, float(np.linalg.norm(before)))
    gap = float(np.abs(after - before).max()) / size
    assert gap <= 64.0 * np.finfo(float).eps * size * size


def test_stereo_inv_rejects_interior():
    cfg = SpaceConfig(AlgebraKind.C, 2)
    with pytest.raises(ValueError):
        stereo_inv(BallPoint.origin(cfg))


def test_stereo_inv_rejects_exterior():
    # |x|^2 = 9.04: renormalizing would silently move the point
    cfg = SpaceConfig(AlgebraKind.C, 2)
    x = BallPoint(cfg, (AlgebraElement(cfg.kind, [3.0, 0.0]),), AlgebraElement(cfg.kind, [0.2, 0.0]))
    with pytest.raises(ValueError, match="boundary point"):
        stereo_inv(x)


def test_expanded_projection_formula():
    # scalar-denominator form: with a = |k|^2, den = (1+a)^2 + |c|^2,
    # w1 = (2/den) ((1+a) + c) k and w2 = ((1 - a^2 - |c|^2) + 2c) / den
    cfg = SpaceConfig(AlgebraKind.O, 2)
    rng = np.random.default_rng(12)
    for _ in range(200):
        g = random_point(cfg, rng)
        a = g.horizontal_norm_sq()
        c = g.center
        den = (1.0 + a) ** 2 + c.norm_sq()
        u = AlgebraElement.from_real(cfg.kind, 1.0 + a) + c
        w1 = (2.0 / den) * (u * g.horizontal[0])
        w2 = (AlgebraElement.from_real(cfg.kind, 1.0 - a * a - c.norm_sq()) + 2.0 * c) / den
        x = stereo(g)
        assert (x.w1[0] - w1).norm() <= 1e-10
        assert (x.w2 - w2).norm() <= 1e-10


def test_factorization_identity():
    # (a^2 + a + m)^2 + m = (a^2 + m)((1+a)^2 + m) with a = |k|^2, m = |c|^2
    rng = np.random.default_rng(13)
    for _ in range(500):
        a, m = rng.random(2) * np.array([4.0, 9.0])
        lhs = (a * a + a + m) ** 2 + m
        rhs = (a * a + m) * ((1.0 + a) ** 2 + m)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_coshdist_invariant_under_interior_action():
    rng = np.random.default_rng(14)
    for kind, m in ((AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.H, 2)):
        cfg = SpaceConfig(kind, m)
        for _ in range(50):
            A = random_form_preserving(cfg, rng)
            x = random_interior(cfg, rng)
            y = random_interior(cfg, rng)
            d = coshdist(x, y)
            got = coshdist(act_interior(A, x), act_interior(A, y))
            assert abs(got - d) <= 1e-9 * d


def test_json_round_trip():
    rng = np.random.default_rng(15)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        x = random_boundary(cfg, rng)
        assert BallPoint.from_dict(x.to_dict()).isclose(x, tol=1e-15)


def _three_points(model):
    """The cross-ratio of one model and three distinct points of it."""
    cfg = SpaceConfig(AlgebraKind.C, 2)
    rng = np.random.default_rng(31)
    if model == "nil":
        return crossratio_nil, [random_point(cfg, rng) for _ in range(3)]
    if model == "ball":
        # poles have exact unit norm, so a coincident pair pairs to exactly 0
        return crossratio_ball, [BallPoint.pole(cfg, 1), BallPoint.pole(cfg, -1), random_boundary(cfg, rng)]
    return complex_crossratio, [0.5 + 1.0j, -2.0, 3.0j]


@pytest.mark.parametrize("model", ["nil", "ball", "complex"])
def test_crossratio_zero_denominator_policy(model):
    cr, (p, q, r) = _three_points(model)
    assert cr(p, q, r, p) == math.inf
    with pytest.raises(ArithmeticError, match="0/0"):
        cr(p, q, p, p)


_C2 = SpaceConfig(AlgebraKind.C, 2)
_ONE_C = AlgebraElement.one(AlgebraKind.C)


@pytest.mark.parametrize("call,exc,fragment", [
    pytest.param(lambda: BallPoint(_C2, [], _ONE_C), ValueError,
                 "expected 1 first-block coordinates", id="first-block-count"),
    pytest.param(lambda: BallPoint(_C2, [_ONE_C], AlgebraElement.one(AlgebraKind.H)), ValueError,
                 "coordinate kind does not match the configuration", id="coordinate-kind"),
    pytest.param(lambda: BallPoint.from_dict([0.0, 1.0]), ValueError,
                 "a point must be an object", id="from-dict-not-object"),
    pytest.param(lambda: BallPoint.from_dict({"config": _C2.to_dict(), "w2": [1.0, 0.0]}), ValueError,
                 "a ball point needs fields 'w1' and 'w2'", id="from-dict-missing-field"),
    pytest.param(lambda: chordal(BallPoint.origin(_C2), BallPoint.pole(_C2)), ValueError,
                 "cannot renormalize the origin onto the sphere", id="chordal-at-origin"),
])
def test_ballmodel_validation_raises(call, exc, fragment):
    with pytest.raises(exc) as err:
        call()
    assert fragment in str(err.value)

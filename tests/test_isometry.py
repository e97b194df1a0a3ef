import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1kit.algebra import AlgebraElement, AlgebraKind, mat_mul
from rank1kit.ballmodel import (
    BallPoint,
    coshdist,
    crossratio_ball,
    random_boundary,
    random_interior,
    stereo,
)
from rank1kit.isometry import (
    GroupMatrix,
    NormalIsometry,
    NotHyperbolicError,
    act_ball,
    act_interior,
    act_nil,
    action_identity_residual,
    boundary_fixed_points,
    embed_normal,
    random_form_preserving,
    random_normal_isometry,
    random_rotation_block,
    random_unit,
    translation_length,
)
from rank1kit import isometry
from rank1kit.nilboundary import NilPoint, SpaceConfig, dist, nmul, random_point

KINDS = (
    (AlgebraKind.R, 3),
    (AlgebraKind.C, 2),
    (AlgebraKind.H, 2),
    (AlgebraKind.O, 2),
)
MATRIX_KINDS = ((AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.H, 2))


def test_axis_endpoints_fixed():
    rng = np.random.default_rng(0)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        iso = random_normal_isometry(cfg, rng)
        e = NilPoint.identity(cfg)
        assert act_nil(iso, e).isclose(e, tol=1e-12)
        assert act_nil(iso, NilPoint.infinity(cfg)).is_infinity
        north = BallPoint.pole(cfg, 1)
        south = BallPoint.pole(cfg, -1)
        assert act_ball(iso, north).isclose(north, tol=1e-12)
        assert act_ball(iso, south).isclose(south, tol=1e-12)


def test_pure_dilation_scales_coordinates():
    rng = np.random.default_rng(1)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(50):
            s = float(rng.uniform(-1.5, 1.5))
            iso = NormalIsometry.dilation(cfg, s)
            g = random_point(cfg, rng)
            h = act_nil(iso, g)
            ref_c = math.exp(-2.0 * s) * g.center
            assert (h.center - ref_c).norm() <= 1e-12 * max(1.0, ref_c.norm())
            for a, b in zip(h.horizontal, g.horizontal):
                d = (a - math.exp(-s) * b).norm()
                assert d <= 1e-12 * max(1.0, b.norm())


def test_real_plane_rotation():
    cfg = SpaceConfig(AlgebraKind.R, 2)
    rng = np.random.default_rng(2)
    for s, msign in ((0.4, 1.0), (-0.9, -1.0)):
        M = np.full((1, 1, 1), msign)
        iso = NormalIsometry(cfg, M, AlgebraElement.one(cfg.kind), s)
        k = float(rng.standard_normal())
        g = NilPoint(
            cfg,
            AlgebraElement.zero(cfg.kind),
            (AlgebraElement.from_real(cfg.kind, k),),
        )
        h = act_nil(iso, g)
        assert abs(h.horizontal[0].re - math.exp(-s) * k * msign) <= 1e-14


def test_ball_origin_slides_along_axis():
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for s in (0.3, -1.1):
            iso = NormalIsometry.dilation(cfg, s)
            x = act_ball(iso, BallPoint.origin(cfg))
            for c in x.w1:
                assert c.norm() <= 1e-15
            assert abs(x.w2.re - math.tanh(s)) <= 1e-14
            assert x.w2.im().norm() <= 1e-15


def test_equivariance_of_charts():
    rng = np.random.default_rng(3)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(100):
            iso = random_normal_isometry(cfg, rng)
            g = random_point(cfg, rng)
            assert stereo(act_nil(iso, g)).isclose(act_ball(iso, stereo(g)), tol=1e-9)


def test_interior_action_paths_agree():
    rng = np.random.default_rng(4)
    for kind, m in MATRIX_KINDS:
        cfg = SpaceConfig(kind, m)
        eye = GroupMatrix.identity(cfg)
        for _ in range(50):
            x = random_interior(cfg, rng)
            assert act_interior(eye, x).isclose(x, tol=1e-14)
            iso = random_normal_isometry(cfg, rng)
            assert act_interior(embed_normal(iso), x).isclose(act_ball(iso, x), tol=1e-10)


def test_interior_action_preserves_distance():
    rng = np.random.default_rng(5)
    for kind, m in MATRIX_KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(50):
            A = random_form_preserving(cfg, rng)
            x = random_interior(cfg, rng)
            y = random_interior(cfg, rng)
            d = coshdist(x, y)
            assert abs(coshdist(act_interior(A, x), act_interior(A, y)) - d) <= 1e-10 * d


def test_form_residual_small_for_samplers():
    rng = np.random.default_rng(6)
    for kind, m in MATRIX_KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(25):
            assert random_form_preserving(cfg, rng).form_residual() <= 1e-10
            assert embed_normal(random_normal_isometry(cfg, rng)).form_residual() <= 1e-10


@settings(max_examples=60, deadline=None)
@given(config=st.sampled_from([(AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.H, 2),
                               (AlgebraKind.R, 4)]),
       seed=st.integers(0, 2**32 - 1), boost=st.floats(0.0, 5.0))
def test_complex_embedding_is_multiplicative(config, seed, boost):
    # the powers of lemma1_matrix_sequence are stepped on the embeddings
    kind, m = config
    cfg = SpaceConfig(kind, m)
    rng = np.random.default_rng(seed)
    A, B = (random_form_preserving(cfg, rng, (0.0, boost)).coeffs for _ in range(2))
    ea, eb = isometry._complex_embedding(kind, A), isometry._complex_embedding(kind, B)
    gap = np.abs(isometry._complex_embedding(kind, mat_mul(kind, A, B)) - ea @ eb).max()
    assert gap <= 1e-14 * np.abs(ea).max() * np.abs(eb).max()


def test_translation_length_normal_form():
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        rng = np.random.default_rng(7)
        iso = NormalIsometry(
            cfg, random_rotation_block(cfg, rng), random_unit(cfg.kind, rng), 0.7
        )
        assert translation_length(iso) == 0.7
    with pytest.raises(NotHyperbolicError):
        translation_length(
            NormalIsometry.dilation(SpaceConfig(AlgebraKind.C, 2), 0.0)
        )


def test_translation_length_matrix_routes():
    rng = np.random.default_rng(8)
    for kind, m in MATRIX_KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(10):
            iso = random_normal_isometry(cfg, rng, s_range=(0.4, 1.2))
            C = random_form_preserving(cfg, rng)
            A = C @ embed_normal(iso) @ C.inverse()
            l = translation_length(A)
            assert abs(l - abs(iso.s)) <= 1e-6 * abs(iso.s)
            power = A
            for k in range(2, 401):
                power = power @ A
                if k in (2, 7, 64, 400):
                    assert abs(translation_length(power) - k * l) <= 1e-12 * k * l
        with pytest.raises(NotHyperbolicError) as err:
            translation_length(GroupMatrix.identity(cfg))
        assert "elliptic" in str(err.value)


@pytest.mark.parametrize("kind, m, length", [
    (AlgebraKind.R, 3, 1.2428634889120265),
    (AlgebraKind.C, 2, 0.5058916011678546),
    (AlgebraKind.H, 2, 0.7976307738611406),
], ids=["R", "C", "H"])
def test_matrix_classes_and_lengths_are_pinned(kind, m, length):
    # classify and translation_length on one matrix of each class
    cfg = SpaceConfig(kind, m)
    n = m + 1
    rng = np.random.default_rng(11)
    C = random_form_preserving(cfg, rng)
    rotation = NormalIsometry(cfg, random_rotation_block(cfg, rng), random_unit(kind, rng), 0.0)
    hyperbolic = C @ embed_normal(random_normal_isometry(cfg, rng)) @ C.inverse()
    # I + E_{0,n-1} is triangular, so its spectrum reads exactly 1 and only
    # its defective eigenvectors tell it apart; it leaves the form
    unipotent = np.zeros((n, n, kind.dim))
    unipotent[..., 0] = np.eye(n)
    unipotent[0, n - 1, 0] = 1.0
    cases = [
        (GroupMatrix.identity(cfg), "elliptic"),
        (C @ embed_normal(rotation) @ C.inverse(), "elliptic"),
        (GroupMatrix(cfg, unipotent, check=False), "parabolic"),
    ]
    for A, cls in cases:
        assert A.classify() == cls
        with pytest.raises(NotHyperbolicError) as err:
            translation_length(A)
        assert err.value.classification == cls
    assert hyperbolic.classify() == "hyperbolic"
    assert math.isclose(translation_length(hyperbolic), length, rel_tol=4e-16)


def _null_rotation(t):
    # exp(t X) = I + t X + t^2 X^2 / 2 in SO(3,1), X v = u <n, v> - n <u, v>
    # for the null n = e2 + e3 and the unit u = e0 orthogonal to it
    J = np.diag([1.0, 1.0, 1.0, -1.0])
    u, n = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 1.0])
    X = t * (np.outer(u, n) - np.outer(n, u)) @ J
    return (np.eye(4) + X + X @ X / 2)[..., None]


def _heisenberg_translation(kind, m, t):
    # I + i t v v* J for the null v = e_{m-1} + e_m
    v = np.zeros(m + 1)
    v[-2:] = 1.0
    out = np.zeros((m + 1, m + 1, kind.dim))
    out[..., 0] = np.eye(m + 1)
    out[..., 1] = t * np.outer(v, v) @ np.diag([1.0] * m + [-1.0])
    return out


@pytest.mark.parametrize("t", [0.3, 1.0, 5.0])
@pytest.mark.parametrize("kind, m", [
    (AlgebraKind.R, 3), (AlgebraKind.C, 2), (AlgebraKind.C, 3), (AlgebraKind.H, 2),
], ids=["SO(3,1)", "U(2,1)", "U(3,1)", "Sp(2,1)"])
def test_unipotent_parabolics_have_no_length(kind, m, t):
    # LAPACK splits their eigenvalue 1 by 1e-9 to 1e-4, so the spectral
    # radius alone reads them as hyperbolic
    cfg = SpaceConfig(kind, m)
    coeffs = _null_rotation(t) if kind is AlgebraKind.R else _heisenberg_translation(kind, m, t)
    P = GroupMatrix(cfg, coeffs)
    C = random_form_preserving(cfg, np.random.default_rng(3))
    for A in (P, C @ P @ C.inverse()):
        assert A.classify() == "parabolic"
        with pytest.raises(NotHyperbolicError) as err:
            translation_length(A)
        assert err.value.classification == "parabolic"


def test_fixed_points_of_axis_translation():
    for kind, m in ((AlgebraKind.R, 3), (AlgebraKind.C, 2)):
        cfg = SpaceConfig(kind, m)
        A = embed_normal(NormalIsometry.dilation(cfg, 0.8))
        att, rep = boundary_fixed_points(A)
        assert att.isclose(BallPoint.pole(cfg, 1), tol=1e-9)
        assert rep.isclose(BallPoint.pole(cfg, -1), tol=1e-9)


def test_rotation_preserves_group_distance():
    rng = np.random.default_rng(9)
    for kind, m in MATRIX_KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(50):
            iso = NormalIsometry(
                cfg, random_rotation_block(cfg, rng), random_unit(cfg.kind, rng), 0.0
            )
            g = random_point(cfg, rng)
            h = random_point(cfg, rng)
            d = dist(g, h)
            assert abs(dist(act_nil(iso, g), act_nil(iso, h)) - d) <= 1e-10 * d


def test_dilation_scales_group_distance():
    rng = np.random.default_rng(10)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(50):
            s = float(rng.uniform(-1.2, 1.2))
            iso = NormalIsometry.dilation(cfg, s)
            g = random_point(cfg, rng)
            h = random_point(cfg, rng)
            ref = math.exp(-s) * dist(g, h)
            assert abs(dist(act_nil(iso, g), act_nil(iso, h)) - ref) <= 1e-11 * ref


def test_crossratio_invariance_under_ball_action():
    rng = np.random.default_rng(11)
    for kind, m in MATRIX_KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(50):
            iso = random_normal_isometry(cfg, rng)
            xs = [random_boundary(cfg, rng) for _ in range(4)]
            ref = crossratio_ball(*xs)
            got = crossratio_ball(*[act_ball(iso, x) for x in xs])
            assert abs(got - ref) <= 1e-9 * ref
    # octonion dilations preserve the bracket; generic O rotations do not
    cfg = SpaceConfig(AlgebraKind.O, 2)
    for _ in range(50):
        iso = NormalIsometry.dilation(cfg, float(rng.uniform(-1.2, 1.2)))
        xs = [random_boundary(cfg, rng) for _ in range(4)]
        ref = crossratio_ball(*xs)
        got = crossratio_ball(*[act_ball(iso, x) for x in xs])
        assert abs(got - ref) <= 1e-9 * ref


def test_crossratio_invariance_under_left_translation():
    rng = np.random.default_rng(12)
    for kind, m in KINDS:
        cfg = SpaceConfig(kind, m)
        for _ in range(50):
            c = random_point(cfg, rng)
            gs = [random_point(cfg, rng) for g in range(4)]
            ref = crossratio_ball(*[stereo(g) for g in gs])
            got = crossratio_ball(*[stereo(nmul(c, g)) for g in gs])
            assert abs(got - ref) <= 1e-9 * ref


def test_action_identity_trivial_unit():
    rng = np.random.default_rng(13)
    for kind in (AlgebraKind.H, AlgebraKind.O):
        q = AlgebraElement(kind, np.r_[0.0, rng.standard_normal(kind.dim - 1)])
        r = action_identity_residual(0.6, q, AlgebraElement.one(kind), 0.9)
        assert r <= 1e-14


def test_action_identity_associative_case():
    rng = np.random.default_rng(14)
    for _ in range(200):
        q = AlgebraElement(AlgebraKind.H, np.r_[0.0, rng.standard_normal(3)])
        nu = random_unit(AlgebraKind.H, rng)
        s = float(rng.uniform(0.1, 1.5))
        knorm = float(rng.uniform(0.1, 2.0))
        assert action_identity_residual(s, q, nu, knorm) <= 1e-12


def test_action_identity_readings_disagree_for_octonions():
    rng = np.random.default_rng(15)
    worst_ok = 0.0
    worst_bad = 0.0
    for _ in range(200):
        q = AlgebraElement(AlgebraKind.O, np.r_[0.0, rng.standard_normal(7)])
        nu = random_unit(AlgebraKind.O, rng)
        s = float(rng.uniform(0.1, 1.5))
        knorm = float(rng.uniform(0.1, 2.0))
        worst_ok = max(worst_ok, action_identity_residual(s, q, nu, knorm))
        worst_bad = max(
            worst_bad, action_identity_residual(s, q, nu, knorm, reading="literal")
        )
    assert worst_ok <= 1e-10
    assert worst_bad > 1e-3


def test_group_matrix_construction_guard():
    cfg = SpaceConfig(AlgebraKind.C, 2)
    bad = np.zeros((3, 3, 2))
    bad[0, 0, 0] = bad[1, 1, 0] = bad[2, 2, 0] = 2.0
    with pytest.raises(ValueError):
        GroupMatrix(cfg, bad)
    with pytest.raises(ValueError):
        GroupMatrix(SpaceConfig(AlgebraKind.O, 2), np.zeros((3, 3, 8)))


def test_json_round_trip():
    rng = np.random.default_rng(16)
    cfg = SpaceConfig(AlgebraKind.H, 2)
    iso = random_normal_isometry(cfg, rng)
    back = NormalIsometry.from_dict(iso.to_dict())
    assert back.s == iso.s
    assert np.max(np.abs(back.M - iso.M)) == 0.0
    assert (back.nu - iso.nu).norm() == 0.0
    A = random_form_preserving(cfg, rng)
    B = GroupMatrix.from_dict(A.to_dict())
    assert np.max(np.abs(A.coeffs - B.coeffs)) == 0.0


_R3, _C2, _H2, _O2 = (SpaceConfig(kind, m) for kind, m in KINDS)


def _one(kind):
    return AlgebraElement.one(kind)


def _normal(config, M=None, nu=None):
    kind = config.kind
    M = isometry._mat_identity(kind, config.horizontal_len) if M is None else M
    return NormalIsometry(config, M, _one(kind) if nu is None else nu, 0.5)


@pytest.mark.parametrize("call,exc,fragment", [
    pytest.param(lambda: GroupMatrix(_C2, np.zeros((3, 3, 1))), ValueError,
                 "expected coefficient shape (3, 3, 2)", id="matrix-shape"),
    pytest.param(lambda: GroupMatrix.identity(_R3) @ GroupMatrix.identity(_C2), ValueError,
                 "configuration mismatch", id="matmul-across-configurations"),
    pytest.param(lambda: GroupMatrix.from_dict([[1.0]]), ValueError, "a matrix must be an object",
                 id="matrix-from-dict-not-object"),
    pytest.param(lambda: _normal(_C2, M=np.ones((2, 2, 2))), ValueError,
                 "rotation block must have shape (1, 1, 2)", id="normal-block-shape"),
    pytest.param(lambda: _normal(_C2, nu=_one(AlgebraKind.H)), ValueError, "kind mismatch", id="normal-nu-kind"),
    pytest.param(lambda: _normal(_C2, nu=_one(AlgebraKind.C) * 2.0), ValueError, "nu must be a unit",
                 id="normal-nu-unit"),
    pytest.param(lambda: _normal(_O2, M=_one(AlgebraKind.O) * 2.0), ValueError,
                 "octonion rotation block must be a unit scalar", id="normal-octonion-block"),
    pytest.param(lambda: _normal(_R3, M=2.0 * np.eye(2)[..., None]), ValueError,
                 "rotation block is not unitary", id="normal-block-unitary"),
    pytest.param(lambda: NormalIsometry.from_dict("s"), ValueError, "an isometry must be an object",
                 id="normal-from-dict-not-object"),
    pytest.param(lambda: embed_normal(_normal(_O2)), ValueError,
                 "matrix isometries need an associative kind", id="embed-normal-octonion"),
    pytest.param(lambda: random_form_preserving(_O2, np.random.default_rng(0)), ValueError,
                 "matrix isometries need an associative kind", id="random-form-preserving-octonion"),
    pytest.param(lambda: act_interior(GroupMatrix.identity(_R3), BallPoint.origin(_C2)), ValueError,
                 "configuration mismatch", id="act-interior-across-configurations"),
    pytest.param(lambda: translation_length(np.eye(4)), TypeError,
                 "expected a NormalIsometry or a GroupMatrix", id="translation-length-non-isometry"),
    pytest.param(lambda: boundary_fixed_points(GroupMatrix.identity(_H2)), NotImplementedError,
                 "fixed points via eigenvectors need a commutative kind", id="fixed-points-quaternion"),
    pytest.param(lambda: action_identity_residual(0.5, AlgebraElement.unit(AlgebraKind.C, 1),
                                                  _one(AlgebraKind.H), 1.0), ValueError,
                 "kind mismatch", id="identity-kind"),
    pytest.param(lambda: action_identity_residual(0.5, _one(AlgebraKind.C), _one(AlgebraKind.C), 1.0), ValueError,
                 "Q must be purely imaginary", id="identity-imaginary"),
    pytest.param(lambda: action_identity_residual(0.5, AlgebraElement.unit(AlgebraKind.C, 1),
                                                  _one(AlgebraKind.C) * 2.0, 1.0), ValueError,
                 "nu must be a unit", id="identity-unit"),
    pytest.param(lambda: action_identity_residual(0.5, AlgebraElement.unit(AlgebraKind.C, 1),
                                                  _one(AlgebraKind.C), 1.0, reading="other"), ValueError,
                 "unknown reading 'other'", id="identity-reading"),
])
def test_isometry_validation_raises(call, exc, fragment):
    with pytest.raises(exc) as err:
        call()
    assert fragment in str(err.value)

"""Batch kernels against the scalar API, and the algebra kernels against
structure-tensor loops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1kit import ballmodel as B, isometry as I, nilboundary as N
from rank1kit.algebra import AlgebraKind, mat_mul, mul_coeffs, structure_tensor

KINDS = (
    (AlgebraKind.R, 3),
    (AlgebraKind.C, 2),
    (AlgebraKind.H, 2),
    (AlgebraKind.O, 2),
)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def _stack(points):
    return np.stack([p.coeffs for p in points])


def _same(batch, scalars):
    # bit for bit, row by row
    for row, value in zip(batch, scalars):
        got = np.asarray(value.coeffs if hasattr(value, "coeffs") else value)
        assert np.array_equal(row, got), (row, got)


@PROPERTY
@given(kind_index=st.integers(0, 3), n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_nil_kernels_match_scalar_calls(kind_index, n, seed):
    kind, m = KINDS[kind_index]
    cfg = N.SpaceConfig(kind, m)
    rng = np.random.default_rng(seed)
    g = [N.random_point(cfg, rng) for _ in range(n)]
    h = [N.random_point(cfg, rng) for _ in range(n)]
    G, H = _stack(g), _stack(h)
    _same(N.nmul_coeffs(kind, G, H), [N.nmul(a, b) for a, b in zip(g, h)])
    _same(N.ninv_coeffs(G), [N.ninv(a) for a in g])
    _same(N.gauge_coeffs(G), [N.gauge(a) for a in g])
    _same(N.qnorm_coeffs(G), [N.qnorm(a) for a in g])
    _same(N.dist_coeffs(kind, G, H), [N.dist(a, b) for a, b in zip(g, h)])
    iso = I.random_normal_isometry(cfg, rng)
    _same(I.act_nil_coeffs(kind, iso.M, iso.nu.coeffs, iso.s, G), [I.act_nil(iso, a) for a in g])

    # quadruples with at most one point at infinity, and a stereo batch with some
    inf = N.NilPoint.infinity(cfg)
    quads = [[N.random_point(cfg, rng) for _ in range(4)] for _ in range(n)]
    for q in quads:
        slot = int(rng.integers(-2, 4))
        if slot >= 0:
            q[slot] = inf
    mask = np.array([[p.is_infinity for p in q] for q in quads])
    got = N.crossratio_nil_coeffs(kind, np.stack([_stack(q) for q in quads]), mask)
    _same(got, [N.crossratio_nil(*q) for q in quads])
    pts = [inf if rng.random() < 0.3 else p for p in g]
    mask = np.array([p.is_infinity for p in pts])
    _same(B.stereo_coeffs(kind, _stack(pts), mask), [B.stereo(p) for p in pts])


@PROPERTY
@given(kind_index=st.integers(0, 3), n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
def test_ball_kernels_match_scalar_calls(kind_index, n, seed):
    kind, m = KINDS[kind_index]
    cfg = N.SpaceConfig(kind, m)
    rng = np.random.default_rng(seed)
    # boundary points with the poles mixed in; the south pole is infinity
    xs = [B.random_boundary(cfg, rng) for _ in range(4 * n)]
    for i in rng.choice(4 * n, size=min(2, n), replace=False):
        xs[i] = B.BallPoint.pole(cfg, -1 if i % 2 else 1)
    X = _stack(xs)
    a, b = X[0::2], X[1::2]
    pa, pb = xs[0::2], xs[1::2]
    _same(B.inner_coeffs(kind, a, b), [B.inner(x, y) for x, y in zip(pa, pb)])
    _same(B.rform_coeffs(kind, a, b), [B.rform(x, y) for x, y in zip(pa, pb)])
    _same(B.chordal_coeffs(kind, a, b), [B.chordal(x, y) for x, y in zip(pa, pb)])
    quads = [xs[4 * i:4 * i + 4] for i in range(n)]
    try:
        scalars = [B.crossratio_ball(*q) for q in quads]
    except ArithmeticError:
        with pytest.raises(ArithmeticError):
            B.crossratio_ball_coeffs(kind, X.reshape(n, 4, m, kind.dim))
    else:
        _same(B.crossratio_ball_coeffs(kind, X.reshape(n, 4, m, kind.dim)), scalars)
    coeffs, mask = B.stereo_inv_coeffs(kind, X)
    backs = [B.stereo_inv(x) for x in xs]
    assert np.array_equal(mask, [p.is_infinity for p in backs])
    _same(coeffs, backs)
    iso = I.random_normal_isometry(cfg, rng)
    _same(I.act_ball_coeffs(kind, iso.M, iso.nu.coeffs, iso.s, X), [I.act_ball(iso, x) for x in xs])

    ys = [B.random_interior(cfg, rng) for _ in range(2 * n)]
    Y = _stack(ys)
    _same(B.coshdist_coeffs(kind, Y[0::2], Y[1::2]),
          [B.coshdist(x, y) for x, y in zip(ys[0::2], ys[1::2])])
    if kind is not AlgebraKind.O:
        A = I.random_form_preserving(cfg, rng)
        _same(I.act_interior_coeffs(kind, A.coeffs, Y), [I.act_interior(A, y) for y in ys])


def _loop_product(kind, x, y):
    t = structure_tensor(kind)
    out = np.zeros(np.broadcast_shapes(x.shape, y.shape))
    for a in range(kind.dim):
        for b in range(kind.dim):
            out += t[a, b] * (x[..., a, None] * y[..., b, None])
    return out


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(kind_index=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_products_match_structure_tensor_loops(n, kind_index, seed):
    kind = KINDS[kind_index][0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, kind.dim))
    y = rng.standard_normal((n, kind.dim))
    scale = np.abs(x).max() * np.abs(y).max()
    assert np.abs(mul_coeffs(kind, x, y) - _loop_product(kind, x, y)).max() <= 1e-14 * scale
    # one element against the whole batch, from both sides
    assert np.abs(mul_coeffs(kind, x[0], y) - _loop_product(kind, x[0], y)).max() <= 1e-14 * scale
    assert np.abs(mul_coeffs(kind, x, y[0]) - _loop_product(kind, x, y[0])).max() <= 1e-14 * scale
    # rows (n, 1, 3) times a fixed 3 x 2 matrix
    a = rng.standard_normal((n, 1, 3, kind.dim))
    b = rng.standard_normal((3, 2, kind.dim))
    ref = sum(_loop_product(kind, a[:, :, k, None, :], b[k][None, None]) for k in range(3))
    got = mat_mul(kind, a, b)
    assert got.shape == (n, 1, 2, kind.dim)
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(a).max() * np.abs(b).max()


# the last coefficient of each draw from seed 2024, as the einsum-based
# kernels drew them: (point, M, nu, s, 2 x 2 unitary)
_PINNED = {
    "R": (1.6419200406711503, 0.998838213004965, 1.0, 0.6022876401461992, -0.7611670846906592),
    "C": (-0.9731795154745656, 0.508882425527861, 0.3831183222429528, -1.4945427285251067,
          0.3189455271807978),
    "H": (0.509186798845688, 0.7097122787316884, -0.2633370393254032, -0.6675409591961563,
          0.8755129050060693),
    "O": (0.8115201169815576, -0.10215898973999922, 0.8903826583633622, 1.468308856917099, None),
}


@pytest.mark.parametrize("kind,m", KINDS)
def test_samplers_draw_pinned_values(kind, m):
    cfg = N.SpaceConfig(kind, m)
    rng = np.random.default_rng(2024)
    g = N.random_point(cfg, rng)
    iso = I.random_normal_isometry(cfg, rng)
    drawn = [g.coeffs[-1, -1], iso.M[-1, -1, -1], iso.nu.coeffs[-1], iso.s]
    if kind is not AlgebraKind.O:
        drawn.append(I._random_unitary(kind, 2, rng)[-1, -1, -1])
    want = [v for v in _PINNED[kind.name] if v is not None]
    assert [float(v) for v in drawn] == want

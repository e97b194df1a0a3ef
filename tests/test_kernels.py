"""Batch kernels against the scalar API, the algebra kernels against
structure-tensor loops, and every kernel against its reference body."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rank1kit import ballmodel as B, isometry as I, nilboundary as N
from rank1kit.algebra import AlgebraKind, inv_coeffs, mat_mul, mul_coeffs, pairing, structure_tensor

KINDS = (
    (AlgebraKind.R, 3),
    (AlgebraKind.C, 2),
    (AlgebraKind.H, 2),
    (AlgebraKind.O, 2),
)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("kernel, tail", [
    (lambda kind, pts: N.nmul_coeffs(kind, pts[:, 0], pts[:, 1]), lambda m, d: (m, d)),
    (lambda kind, pts: N.dist_coeffs(kind, pts[:, 0], pts[:, 1]), lambda m, d: ()),
    (lambda kind, pts: N.crossratio_nil_coeffs(kind, pts, np.zeros((0, 4), dtype=bool)), lambda m, d: ()),
    (lambda kind, pts: B.inner_coeffs(kind, pts[:, 0], pts[:, 1]), lambda m, d: (d,)),
    (lambda kind, pts: B.crossratio_ball_coeffs(kind, pts), lambda m, d: ()),
], ids=["nmul", "dist", "crossratio_nil", "inner", "crossratio_ball"])
@pytest.mark.parametrize("kind, m", KINDS)
def test_kernels_take_empty_batches(kernel, tail, kind, m):
    # zero rows in, zero rows out, as for the other kernels
    out = kernel(kind, np.zeros((0, 4, m, kind.dim)))
    assert out.shape == (0,) + tail(m, kind.dim)


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


def _running_mat_mul(kind, a, b):
    # (ab)_ij as a running sum of the binary products a_ik,e (e_e b_kj),
    # over k and then e in order; e_e y is y @ t[e], one signed coefficient each
    t = structure_tensor(kind)
    out = None
    for k in range(b.shape[-3]):
        for e in range(kind.dim):
            term = a[..., :, k, e][..., None, None] * (b[..., None, k, :, :] @ t[e])
            out = term if out is None else out + term
    return out


def _running_pairing(kind, x, y):
    # sum_i x_i conj(y_i), over i and then e in order, as _running_mat_mul
    t = structure_tensor(kind)
    conj_y = y * np.where(np.arange(kind.dim) == 0, 1.0, -1.0)
    out = None
    for i in range(x.shape[-2]):
        for e in range(kind.dim):
            term = x[..., i, e, None] * (conj_y[..., i, :] @ t[e])
            out = term if out is None else out + term
    return out


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 3000])
@settings(max_examples=4, deadline=None, derandomize=True, database=None)
@given(kind_index=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_products_match_structure_tensor_loops(n, kind_index, seed):
    # the kernels sum in the loops' order, so they agree bit for bit
    kind = KINDS[kind_index][0]
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, kind.dim))
    y = rng.standard_normal((n, kind.dim))
    assert np.array_equal(mul_coeffs(kind, x, y), _loop_product(kind, x, y))
    # one element against the whole batch, from both sides
    assert np.array_equal(mul_coeffs(kind, x[0], y), _loop_product(kind, x[0], y))
    assert np.array_equal(mul_coeffs(kind, x, y[0]), _loop_product(kind, x, y[0]))
    # rows (n, 1, 3) times a fixed 3 x 2 matrix
    a = rng.standard_normal((n, 1, 3, kind.dim))
    b = rng.standard_normal((3, 2, kind.dim))
    got = mat_mul(kind, a, b)
    assert got.shape == (n, 1, 2, kind.dim)
    assert np.array_equal(got, _running_mat_mul(kind, a, b))
    # a sum of whole products per k adds in another order: a few ulps
    ref = sum(_loop_product(kind, a[:, :, k, None, :], b[k][None, None]) for k in range(3))
    assert np.abs(got - ref).max() <= 1e-14 * np.abs(a).max() * np.abs(b).max()
    xs = rng.standard_normal((n, 3, kind.dim))
    ys = rng.standard_normal((n, 3, kind.dim))
    assert np.array_equal(pairing(kind, xs, ys), _running_pairing(kind, xs, ys))


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


# ---------------------------------------------------------------------------
# references: each rewritten kernel's body as it was before its numpy calls
# were cut, on reference algebra kernels of the same vintage; the kernels
# must give the same bits, signs of zeros included

_REF_BLOCK = 1024
_reduce = np.add.reduce


def _ref_signs(kind):
    return np.concatenate([[1.0], -np.ones(kind.dim - 1)])


def _ref_table(kind, y):
    d = kind.dim
    right = structure_tensor(kind).transpose(1, 0, 2).reshape(d, d * d)
    return (y @ right).reshape(y.shape[:-1] + (d, d))


def _ref_mul(kind, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if max(x.size, y.size) <= _REF_BLOCK * kind.dim:
        return _reduce(x[..., :, None] * _ref_table(kind, y), axis=-2)
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape)
    for start in range(0, len(x), _REF_BLOCK):
        rows = slice(start, start + _REF_BLOCK)
        table = _ref_table(kind, y[rows])
        table *= x[rows, ..., :, None]
        _reduce(table, axis=-2, out=out[rows])
    return out


def _ref_inv(kind, x):
    n2 = _reduce(x * x, axis=-1, keepdims=True)
    if (n2 == 0.0).any():
        raise ZeroDivisionError("zero element has no inverse")
    out = x * _ref_signs(kind)
    out /= n2
    return out


def _ref_mat_mul(kind, a, b):
    d = kind.dim
    r, p = b.shape[-3], b.shape[-2]
    table = np.swapaxes(_ref_table(kind, b), -4, -3).reshape(b.shape[:-3] + (1, p, r * d, d))
    flat = a.reshape(a.shape[:-2] + (1, r * d, 1))
    return _reduce(flat * table, axis=-2)


def _ref_pairing(kind, x, y):
    terms = x[..., :, :, None] * _ref_table(kind, y * _ref_signs(kind))
    return _reduce(terms.reshape(terms.shape[:-3] + (-1, kind.dim)), axis=-2)


def _ref_norm_sq(x):
    return _reduce(_reduce(x * x, axis=-1), axis=-1)


def _ref_nmul(kind, g, h):
    out = g + h
    out[..., 0, 1:] += 2.0 * _ref_pairing(kind, g[..., 1:, :], h[..., 1:, :])[..., 1:]
    return out


def _ref_gauge_sq(g):
    k2 = _ref_norm_sq(g[..., 1:, :])
    return k2 * k2 + _reduce(g[..., 0, :] ** 2, axis=-1)


def _ref_dist(kind, g, h):
    return np.sqrt(np.sqrt(_ref_gauge_sq(_ref_nmul(kind, -h, g))))


def _ref_quotient(num, den):
    num, den = np.asarray(num), np.asarray(den)
    zero = den == 0
    if zero.any():
        if (zero & (num == 0)).any():
            raise ArithmeticError("indeterminate cross-ratio (0/0)")
        out = np.where(zero, np.inf, num / np.where(zero, 1.0, den))
    else:
        out = num / den
    return out if out.ndim else out.item()


def _ref_crossratio_nil(kind, pts, infinity=None):
    fh, fg = [2, 3, 3, 2], [0, 1, 0, 1]
    h, g = pts[..., fh, :, :], pts[..., fg, :, :]
    f = np.sqrt(_ref_gauge_sq(_ref_nmul(kind, -h, g)))
    if infinity is not None:
        infinity = np.asarray(infinity, dtype=bool)
        if (np.count_nonzero(infinity, axis=-1) > 1).any():
            raise ValueError("at most one cross-ratio argument may be infinity")
        f = np.where(infinity[..., fh] | infinity[..., fg], 1.0, f)
    return _ref_quotient(f[..., 0] * f[..., 1], f[..., 2] * f[..., 3])


def _ref_renormalized(x):
    n2 = _ref_norm_sq(x)
    if (n2 == 0.0).any():
        raise ValueError("cannot renormalize the origin onto the sphere")
    return x / np.sqrt(n2)[..., None, None]


def _ref_seminorm(kind, x, y):
    u = -_ref_pairing(kind, x, y)
    u[..., 0] += 1.0
    base_sq = _reduce(u * u, axis=-1)
    if kind is not AlgebraKind.O:
        return np.sqrt(base_sq)
    return np.sqrt(np.maximum(base_sq + 2.0 * B.rform_coeffs(kind, x, y), 0.0))


def _ref_crossratio_ball(kind, pts):
    pts = _ref_renormalized(pts)
    f = _ref_seminorm(kind, pts[..., [2, 3, 3, 2], :, :], pts[..., [0, 1, 0, 1], :, :])
    return _ref_quotient(f[..., 0] * f[..., 1], f[..., 2] * f[..., 3])


def _ref_stereo(kind, g, infinity=None):
    k2 = _ref_norm_sq(g[..., 1:, :])
    c = g[..., 0, :]
    d = -c
    d[..., 0] += 1.0 + k2
    n = c.copy()
    n[..., 0] += 1.0 - k2
    out = _ref_mul(kind, _ref_inv(kind, d)[..., None, :],
                   np.concatenate([g[..., 1:, :], n[..., None, :]], axis=-2))
    out[..., :-1, :] *= 2.0
    if infinity is not None:
        pole = np.zeros(g.shape[-2:])
        pole[-1, 0] = -1.0
        out[np.asarray(infinity, dtype=bool)] = pole
    return out


def _ref_stereo_inv(kind, x):
    tol = 1e-10
    n2 = _ref_norm_sq(x)
    if (n2 < 1.0 - tol).any() or (n2 > 1.0 + tol).any():
        raise ValueError("stereo_inv needs a boundary point")
    x = x / np.sqrt(n2)[..., None, None]
    u = x[..., -1, :].copy()
    u[..., 0] += 1.0
    infinity = _reduce(u * u, axis=-1) + _ref_norm_sq(x[..., :-1, :]) <= tol * tol
    if infinity.any():
        u[infinity] = np.eye(1, kind.dim)[0]
    e = -x[..., -1, :]
    e[..., 0] += 1.0
    prod = _ref_mul(kind, _ref_inv(kind, u)[..., None, :],
                    np.concatenate([x[..., :-1, :], e[..., None, :]], axis=-2))
    out = np.empty_like(prod)
    out[..., 1:, :] = prod[..., :-1, :]
    out[..., 0, :] = -prod[..., -1, :]
    out[..., 0, 0] = -0.0
    out[infinity] = 0.0
    return out, infinity


def _ref_act_nil(kind, M, nu, s, g):
    nu_inv = nu * _ref_signs(kind)
    c, k = g[..., :1, :], g[..., 1:, :]
    k2 = _ref_norm_sq(k)
    dd = np.concatenate([-c, -c], axis=-2)
    dd[..., 0, 0] += np.exp(2.0 * s) + k2
    dd[..., 1, 0] += 1.0 + k2
    pair = np.concatenate([c, dd[..., :1, :]], axis=-2)
    twisted = _ref_mul(kind, _ref_mul(kind, nu_inv[..., None, :], pair), nu[..., None, :])
    dd_inv = _ref_inv(kind, dd)
    mid = _ref_mul(kind, nu_inv, _ref_mul(kind, dd_inv[..., 0, :], dd[..., 1, :]))
    scaled = _ref_mul(kind, dd_inv[..., 1, None, :], k)
    rotated = _ref_mat_mul(kind, scaled[..., None, :, :], M)[..., 0, :, :]
    inner = _ref_mul(kind, mid[..., None, :], rotated)
    out = np.empty(np.shape(g))
    out[..., 0, :] = np.exp(-2.0 * s)[..., None] * twisted[..., 0, :]
    out[..., 0, 0] = 0.0
    out[..., 1:, :] = np.exp(-s)[..., None, None] * _ref_mul(kind, twisted[..., 1, None, :], inner)
    return out


def _ref_act_ball(kind, M, nu, s, x):
    ch = np.cosh(s)[..., None]
    sh = np.sinh(s)[..., None]
    w2nu = _ref_mul(kind, x[..., -1, :], nu)
    e_inv = _ref_inv(kind, w2nu * sh + ch * nu)
    rows = np.empty(np.shape(x))
    rows[..., :-1, :] = _ref_mat_mul(kind, x[..., None, :-1, :], M)[..., 0, :, :]
    rows[..., -1, :] = w2nu * ch + sh * nu
    return _ref_mul(kind, e_inv[..., None, :], rows)


def _bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _edge_points(cfg, rng, n):
    """n group points (n, m, dim) with zero entries of both signs: real
    parts of the centers +0 and -0, the identity, a point with k = 0, a
    pure horizontal point and scattered -0.0 coefficients."""
    g = N.random_point_coeffs(cfg, rng, (n,))
    g[1::2, 0, 0] = -0.0
    g[2] = 0.0
    g[3, 1:] = -0.0
    g[4, 0] = 0.0
    g[5:][rng.random(g[5:].shape) < 0.15] = -0.0
    return g


def _edge_sphere(cfg, rng, n):
    """n boundary points (n, m, dim): random ones, both poles (the south
    pole with -0.0 coordinates) and charted images of _edge_points."""
    x = rng.standard_normal((n,) + cfg.shape)
    x /= np.sqrt(_ref_norm_sq(x))[:, None, None]
    x[0] = 0.0
    x[0, -1, 0] = 1.0
    x[1] = -0.0
    x[1, -1, 0] = -1.0
    x[2:n // 2] = _ref_stereo(cfg.kind, _edge_points(cfg, rng, n // 2 - 2))
    return x


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind,m", KINDS)
def test_kernels_match_their_references_bit_for_bit(kind, m, seed):
    cfg = N.SpaceConfig(kind, m)
    rng = np.random.default_rng([seed, kind.dim])
    n = 24
    g, h = _edge_points(cfg, rng, n), _edge_points(cfg, rng, n)[::-1].copy()
    x = _edge_sphere(cfg, rng, n)
    mask = rng.random(n) < 0.3
    mask[:3] = [True, False, True]
    r = m - 1
    M = np.stack([I.random_rotation_block(cfg, rng) for _ in range(n)])
    nu = np.stack([I.random_unit(kind, rng).coeffs for _ in range(n)])
    s = rng.uniform(-1.5, 1.5, n)
    iso = I.random_normal_isometry(cfg, rng)
    assert M.shape == (n, r, r, kind.dim)
    # the algebra kernels, on rows with zeros of both signs
    a, b = g.reshape(-1, kind.dim), h.reshape(-1, kind.dim)
    _bits(mul_coeffs(kind, a, b), _ref_mul(kind, a, b))
    _bits(mul_coeffs(kind, a[0], b), _ref_mul(kind, a[0], b))
    nonzero = _ref_norm_sq(a[:, None, :]) > 0
    _bits(inv_coeffs(kind, a[nonzero]), _ref_inv(kind, a[nonzero]))
    _bits(pairing(kind, g, h), _ref_pairing(kind, g, h))
    _bits(mat_mul(kind, g[:, None, 1:, :], M), _ref_mat_mul(kind, g[:, None, 1:, :], M))
    # each geometry kernel on the batch and on one point
    for rows in (slice(None), 0):
        _bits(N.dist_coeffs(kind, g[rows], h[rows]), _ref_dist(kind, g[rows], h[rows]))
        _bits(N.qnorm_coeffs(g[rows]), np.sqrt(np.sqrt(_ref_gauge_sq(g[rows]))))
        _bits(B.stereo_coeffs(kind, g[rows]), _ref_stereo(kind, g[rows]))
        _bits(B.stereo_coeffs(kind, g[rows], mask[rows]), _ref_stereo(kind, g[rows], mask[rows]))
        for got, want in zip(B.stereo_inv_coeffs(kind, x[rows]), _ref_stereo_inv(kind, x[rows])):
            _bits(got, want)
        _bits(B.chordal_coeffs(kind, x[rows], x[::-1][rows]),
              _ref_seminorm(kind, _ref_renormalized(x[rows]), _ref_renormalized(x[::-1][rows])))
        for args in ((iso.M, iso.nu.coeffs, iso.s), (M[rows], nu[rows], s[rows])):
            _bits(I.act_nil_coeffs(kind, *args, g[rows]), _ref_act_nil(kind, *args, g[rows]))
            _bits(I.act_ball_coeffs(kind, *args, x[rows]), _ref_act_ball(kind, *args, x[rows]))
    assert np.flatnonzero(_ref_stereo_inv(kind, x)[1]).tolist() == [1]  # the south pole
    # quadruples: one point at infinity in some, the identity and the poles in others
    quads = np.stack([g[:n // 4 * 4], h[:n // 4 * 4]]).reshape(-1, 4, m, kind.dim)
    inf = np.zeros(quads.shape[:2], dtype=bool)
    inf[np.arange(0, len(inf), 3), rng.integers(0, 4, size=len(inf[::3]))] = True
    for rows in (slice(None), 0):
        _bits(N.crossratio_nil_coeffs(kind, quads[rows]), _ref_crossratio_nil(kind, quads[rows]))
        _bits(N.crossratio_nil_coeffs(kind, quads[rows], inf[rows]),
              _ref_crossratio_nil(kind, quads[rows], inf[rows]))
    balls = x.reshape(-1, 4, m, kind.dim)
    for rows in (slice(None), 0):
        _bits(B.crossratio_ball_coeffs(kind, balls[rows]), _ref_crossratio_ball(kind, balls[rows]))

"""Unit-ball coordinates and the boundary projection.

Points live in F^(m-1) x F as w = (w1, w2) with |w1|^2 + |w2|^2 < 1 in
the interior and = 1 on the boundary sphere. The Hermitian pairing is

    <x, y> = sum_a x_a conj(y_a)

over all m coordinates. For the octonionic plane the chordal boundary
seminorm needs a correction term

    R<v, w> = Re[(v1 conj(v2)) (w2 conj(w1))] - Re[(conj(v2) w2) (conj(w1) v1)]

which vanishes identically for associative kinds; then

    <<x, y>> = |1 - <x, y>|                      (R, C, H)
    <<x, y>> = (|1 - <x, y>|^2 + 2 R<x, y>)^1/2  (O)

and cosh of the hyperbolic distance between interior points is
<<x, y>> / ((1 - <x,x>)(1 - <y,y>))^(1/2). The cross-ratio of four
boundary points is

    [x, y, z, w] = <<z, x>> <<w, y>> / (<<w, x>> <<z, y>>).

The boundary group chart maps onto the sphere minus the south pole by

    w1 = 2 (1 + |k|^2 - c)^-1 k,
    w2 = (1 + |k|^2 - c)^-1 (1 - |k|^2 + c),

with c the (imaginary) center; infinity goes to (0, -1) and the group
identity to (0, 1). Inverses act by left multiplication exactly as
written; with x = (w1, w2) on the sphere and w2 != -1 the inverse chart
is k = (1 + w2)^-1 w1, c = -Im[(1 + w2)^-1 (1 - w2)].

A point is one read-only (m, dim) coefficient array, w1 in rows
0..m-2 and w2 in row m-1, and every primitive is a kernel over arrays
(..., m, dim) with any leading batch axes, as in nilboundary.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraKind,
    _frozen,
    conj_coeffs,
    decode_coeffs,
    inv_coeffs,
    mul_coeffs,
    pairing,
)
from .nilboundary import NilPoint, SpaceConfig, _check_pair, _crossratio_quotient, _norm_sq

__all__ = [
    "BallPoint",
    "inner",
    "rform",
    "chordal",
    "coshdist",
    "crossratio_ball",
    "stereo",
    "stereo_inv",
    "random_interior",
    "random_boundary",
    "inner_coeffs",
    "rform_coeffs",
    "chordal_coeffs",
    "coshdist_coeffs",
    "crossratio_ball_coeffs",
    "stereo_coeffs",
    "stereo_inv_coeffs",
]

_SPHERE_TOL = 1e-10
_reduce = np.add.reduce


class BallPoint:
    """Point (w1, w2) of the closed unit ball in F^(m-1) x F.

    `coeffs` holds w1 in rows 0..m-2 and w2 in row m-1.
    """

    __slots__ = ("config", "coeffs")

    def __init__(self, config: SpaceConfig, w1, w2: AlgebraElement):
        w1 = tuple(w1)
        if len(w1) != config.horizontal_len:
            raise ValueError(f"expected {config.horizontal_len} first-block coordinates")
        for c in w1 + (w2,):
            if c.kind is not config.kind:
                raise ValueError("coordinate kind does not match the configuration")
        self._set(config, _frozen(np.array([c.coeffs for c in w1 + (w2,)])))

    def _set(self, config, coeffs):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _wrap(cls, config: SpaceConfig, coeffs: np.ndarray) -> "BallPoint":
        """A point around a kernel result, without validation."""
        self = object.__new__(cls)
        self._set(config, _frozen(coeffs))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("BallPoint is immutable")

    @classmethod
    def origin(cls, config: SpaceConfig) -> "BallPoint":
        return cls._wrap(config, np.zeros(config.shape))

    @classmethod
    def pole(cls, config: SpaceConfig, sign: int = 1) -> "BallPoint":
        """The distinguished boundary points (0, +1) and (0, -1)."""
        return cls._wrap(config, _pole(config.shape, float(np.sign(sign) or 1.0)))

    @property
    def w1(self) -> tuple[AlgebraElement, ...]:
        return self.coords()[:-1]

    @property
    def w2(self) -> AlgebraElement:
        return AlgebraElement(self.config.kind, self.coeffs[-1])

    def coords(self) -> tuple[AlgebraElement, ...]:
        return tuple(AlgebraElement(self.config.kind, c) for c in self.coeffs)

    def norm_sq(self) -> float:
        return float(_norm_sq(self.coeffs))

    def renormalized(self) -> "BallPoint":
        """Radially projected onto the unit sphere."""
        return BallPoint._wrap(self.config, _renormalized(self.coeffs))

    def isclose(self, other: "BallPoint", tol: float = 1e-9) -> bool:
        if self.config != other.config:
            return False
        return bool(np.max(np.abs(self.coeffs - other.coeffs)) <= tol)

    def __repr__(self):
        return f"BallPoint(w1={list(self.w1)!r}, w2={self.w2!r})"

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "w1": self.coeffs[:-1].tolist(),
            "w2": self.coeffs[-1].tolist(),
        }

    @classmethod
    def from_dict(cls, d) -> "BallPoint":
        """Validated point from JSON; malformed input raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("a point must be an object")
        config = SpaceConfig.from_dict(d.get("config"))
        if "w1" not in d or "w2" not in d:
            raise ValueError("a ball point needs fields 'w1' and 'w2'")
        w1 = decode_coeffs(d["w1"], (config.m - 1, config.kind.dim), "w1")
        w2 = decode_coeffs(d["w2"], (config.kind.dim,), "w2")[None]
        return cls._wrap(config, np.concatenate([w1, w2]))


def _pole(shape, sign: float) -> np.ndarray:
    out = np.zeros(shape)
    out[..., -1, 0] = sign
    return out


def _renormalized(x: np.ndarray) -> np.ndarray:
    n2 = _norm_sq(x)
    if not n2.all():
        raise ValueError("cannot renormalize the origin onto the sphere")
    return x / np.sqrt(n2)[..., None, None]


# ---------------------------------------------------------------------------
# kernels on (..., m, dim) coefficient arrays


def inner_coeffs(kind: AlgebraKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> = sum_a x_a conj(y_a) over all m coordinates."""
    return pairing(kind, x, y)


def rform_coeffs(kind: AlgebraKind, v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Octonionic correction term; identically zero for associative kinds."""
    if kind is not AlgebraKind.O:
        return np.zeros(np.broadcast_shapes(v.shape, w.shape)[:-2])
    if v.shape != w.shape:
        v, w = np.broadcast_arrays(v, w)
    v1, v2 = v[..., :1, :], v[..., 1:, :]
    w1, w2 = w[..., :1, :], w[..., 1:, :]
    cv2, cw1 = conj_coeffs(kind, v2), conj_coeffs(kind, w1)
    # [v1 conj(v2), w2 conj(w1), conj(v2) w2, conj(w1) v1], then first and second
    pairs = mul_coeffs(kind, np.concatenate([v1, w2, cv2, cw1], axis=-2),
                       np.concatenate([cv2, cw1, w2, v1], axis=-2))
    reals = mul_coeffs(kind, pairs[..., 0::2, :], pairs[..., 1::2, :])[..., 0]
    return reals[..., 0] - reals[..., 1]


def _seminorm(kind: AlgebraKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """|1 - <x, y>|, with the octonionic correction (|.|^2 + 2 R<x, y>)^1/2."""
    u = pairing(kind, x, y)  # <x, y> - 1 has the squared norm of 1 - <x, y>
    u[..., 0] -= 1.0
    base_sq = _reduce(u * u, axis=-1)
    if kind is not AlgebraKind.O:
        return np.sqrt(base_sq)
    return np.sqrt(np.maximum(base_sq + 2.0 * rform_coeffs(kind, x, y), 0.0))


def chordal_coeffs(kind: AlgebraKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Boundary seminorm <<x, y>>; inputs are renormalized onto the sphere."""
    return _seminorm(kind, _renormalized(x), _renormalized(y))


def coshdist_coeffs(kind: AlgebraKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """cosh of the distance between interior points."""
    nx, ny = _norm_sq(x), _norm_sq(y)
    if (nx >= 1.0 - _SPHERE_TOL).any() or (ny >= 1.0 - _SPHERE_TOL).any():
        raise ValueError("coshdist needs interior points")
    return _seminorm(kind, x, y) / np.sqrt((1.0 - nx) * (1.0 - ny))


# the chordal pairs of [x, y, z, w]: numerator (z, x) and (w, y),
# denominator (w, x) and (z, y)
_PAIR_A = np.array([2, 3, 3, 2])
_PAIR_B = np.array([0, 1, 0, 1])


def crossratio_ball_coeffs(kind: AlgebraKind, pts: np.ndarray) -> np.ndarray:
    """[x, y, z, w] of quadruples (..., 4, m, dim) of boundary points."""
    pts = _renormalized(pts)
    f = _seminorm(kind, pts.take(_PAIR_A, axis=-3), pts.take(_PAIR_B, axis=-3))
    return _crossratio_quotient(f[..., 0] * f[..., 1], f[..., 2] * f[..., 3])


def stereo_coeffs(kind: AlgebraKind, g: np.ndarray, infinity=None) -> np.ndarray:
    """Boundary chart: group coordinates to the unit sphere; the points
    that `infinity` marks go to the south pole."""
    k2 = _norm_sq(g[..., 1:, :])
    # (k, n) with n = 1 - |k|^2 + c, the center moved last
    kn = np.concatenate([g[..., 1:, :], g[..., :1, :]], axis=-2)
    d = -kn[..., -1, :]
    d[..., 0] += 1.0 + k2
    kn[..., -1, 0] += 1.0 - k2
    out = mul_coeffs(kind, inv_coeffs(kind, d)[..., None, :], kn)
    out[..., :-1, :] *= 2.0
    if infinity is not None:
        out[np.asarray(infinity, dtype=bool)] = _pole(g.shape[-2:], -1.0)
    return out


def stereo_inv_coeffs(kind: AlgebraKind, x: np.ndarray):
    """Inverse chart on boundary points: (coefficients, infinity mask).

    A finite point g = (c, k) lands at |w1| = 2|k| / |d| and
    |1 + w2| = 2 / |d|, with d = 1 + |k|^2 - c, so 1 + w2 shrinks like
    |w1|^2 towards the pole.  Infinity is therefore decided by the
    chordal distance (|w1|^2 + |1 + w2|^2)^(1/2) to the pole, which
    |w1| dominates; a point farther than _SPHERE_TOL whose 1 + w2 still
    rounds to zero cannot be resolved and raises ZeroDivisionError.
    Points off the sphere by more than _SPHERE_TOL in |x|^2 raise ValueError."""
    n2 = _norm_sq(x)
    if (n2 < 1.0 - _SPHERE_TOL).any():
        raise ValueError("stereo_inv needs a boundary point, not an interior one")
    if (n2 > 1.0 + _SPHERE_TOL).any():
        raise ValueError(f"stereo_inv needs a boundary point, got |x|^2 = {float(np.max(n2)):.6g}")
    x = x / np.sqrt(n2)[..., None, None]
    u = x[..., -1, :].copy()
    u[..., 0] += 1.0
    infinity = _reduce(u * u, axis=-1) + _norm_sq(x[..., :-1, :]) <= _SPHERE_TOL * _SPHERE_TOL
    at_pole = infinity.any()
    if at_pole:
        u[infinity] = np.eye(1, kind.dim)[0]  # any unit; these rows are cleared below
    e = -x[..., -1, :]
    e[..., 0] += 1.0
    prod = mul_coeffs(kind, inv_coeffs(kind, u)[..., None, :],
                      np.concatenate([x[..., :-1, :], e[..., None, :]], axis=-2))
    out = np.empty_like(prod)
    out[..., 1:, :] = prod[..., :-1, :]
    out[..., 0, :] = -prod[..., -1, :]
    out[..., 0, 0] = -0.0
    if at_pole:
        out[infinity] = 0.0
    return out, infinity


# ---------------------------------------------------------------------------
# scalar API


def inner(x: BallPoint, y: BallPoint) -> AlgebraElement:
    """<x, y> = sum_a x_a conj(y_a) over all m coordinates."""
    _check_pair(x, y)
    return AlgebraElement(x.config.kind, inner_coeffs(x.config.kind, x.coeffs, y.coeffs))


def rform(v: BallPoint, w: BallPoint) -> float:
    """Octonionic correction term; identically zero for associative kinds."""
    _check_pair(v, w)
    return float(rform_coeffs(v.config.kind, v.coeffs, w.coeffs))


def chordal(x: BallPoint, y: BallPoint) -> float:
    """Boundary seminorm <<x, y>>; inputs are renormalized onto the sphere."""
    _check_pair(x, y)
    return float(chordal_coeffs(x.config.kind, x.coeffs, y.coeffs))


def coshdist(x: BallPoint, y: BallPoint) -> float:
    """cosh of the distance between interior points."""
    _check_pair(x, y)
    return float(coshdist_coeffs(x.config.kind, x.coeffs, y.coeffs))


def crossratio_ball(x: BallPoint, y: BallPoint, z: BallPoint, w: BallPoint) -> float:
    """[x, y, z, w] = <<z,x>> <<w,y>> / (<<w,x>> <<z,y>>) on boundary points."""
    for p in (y, z, w):
        _check_pair(x, p)
    return float(crossratio_ball_coeffs(
        x.config.kind, np.array([x.coeffs, y.coeffs, z.coeffs, w.coeffs])))


def stereo(g: NilPoint) -> BallPoint:
    """Boundary chart: group coordinates to the unit sphere."""
    if g.is_infinity:
        return BallPoint.pole(g.config, -1)
    return BallPoint._wrap(g.config, stereo_coeffs(g.config.kind, g.coeffs))


def stereo_inv(x: BallPoint) -> NilPoint:
    """Inverse chart; the south pole (0, -1) goes to infinity.

    See stereo_inv_coeffs for the infinity test and the errors."""
    coeffs, infinity = stereo_inv_coeffs(x.config.kind, x.coeffs)
    return NilPoint._wrap(x.config, coeffs, bool(infinity))


def random_interior(config: SpaceConfig, rng: np.random.Generator) -> BallPoint:
    """Random interior point, uniform direction with radius below 0.8."""
    dim = config.kind.dim * config.m
    v = rng.standard_normal(dim)
    v *= (0.8 * rng.random() ** (1.0 / dim)) / np.linalg.norm(v)
    return BallPoint._wrap(config, v.reshape(config.shape))


def random_boundary(config: SpaceConfig, rng: np.random.Generator) -> BallPoint:
    v = rng.standard_normal(config.kind.dim * config.m)
    v /= np.linalg.norm(v)
    return BallPoint._wrap(config, v.reshape(config.shape))

"""Nilpotent group coordinates on the boundary of a rank-one space.

The boundary minus one point is parametrized by pairs

    g = [center, horizontal]

with `horizontal` a vector of m-1 coordinates over the algebra and
`center` a purely imaginary algebra element (which is forced to zero over
R, spans i over C, Im H over H and Im O over O). The group law adds both
parts and twists the center:

    g g' = [center + center' + 2 Im<k, k'>,  k + k']

where <k, k'> = sum_i k_i conj(k'_i). A gauge map

    A(g) = |k|^2 + center

and the quasi-norm |g| = (|k|^4 + |center|^2)^(1/4) = sqrt(|A(g)|) induce
the left-invariant quasi-distance d(g, g') = |g'^-1 g| and the four-point
cross-ratio

    [g1, g2, g3, g4] = |A(g3^-1 g1)| |A(g4^-1 g2)|
                       / (|A(g4^-1 g1)| |A(g3^-1 g2)|),

where any factor whose argument contains the point at infinity is
replaced by 1.

A point is one read-only (m, dim) coefficient array: the center in row
0 and the horizontal coordinates in rows 1..m-1. Every primitive is a
kernel over arrays (..., m, dim) with any leading batch axes, and a
batch marks its points at infinity with a boolean mask (...); the
scalar functions check the configuration and infinity, call the kernel
once and wrap the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, AlgebraKind, _frozen, decode_coeffs, pairing

__all__ = [
    "SpaceConfig",
    "NilPoint",
    "nmul",
    "ninv",
    "gauge",
    "qnorm",
    "dist",
    "crossratio_nil",
    "random_point",
    "random_point_coeffs",
    "nmul_coeffs",
    "ninv_coeffs",
    "gauge_coeffs",
    "qnorm_coeffs",
    "dist_coeffs",
    "crossratio_nil_coeffs",
]

_CENTER_TOL = 1e-9
_reduce = np.add.reduce


@dataclass(frozen=True)
class SpaceConfig:
    """Choice of coordinate algebra and rank-one dimension parameter m."""

    kind: AlgebraKind
    m: int

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("m must be at least 2")
        if self.kind is AlgebraKind.O and self.m != 2:
            raise ValueError("the octonionic space only exists for m = 2")

    @property
    def horizontal_len(self) -> int:
        return self.m - 1

    @property
    def shape(self) -> tuple[int, int]:
        """Shape (m, dim) of one point's coefficient array."""
        return (self.m, self.kind.dim)

    def to_dict(self) -> dict:
        return {"kind": self.kind.name, "m": self.m}

    @classmethod
    def from_dict(cls, d) -> "SpaceConfig":
        if not isinstance(d, dict):
            raise ValueError("field 'config' must be an object")
        kind = d.get("kind")
        if not isinstance(kind, str):
            raise ValueError("field 'config.kind' must be one of R, C, H, O")
        m = d.get("m")
        if isinstance(m, bool) or not isinstance(m, int):
            raise ValueError("field 'config.m' must be an integer")
        return cls(AlgebraKind.from_name(kind), m)


def _norm_sq(x: np.ndarray) -> np.ndarray:
    """Sum of squares over the trailing (rows, coefficients) axes."""
    return _reduce(_reduce(x * x, axis=-1), axis=-1)


class NilPoint:
    """A boundary point: group element [center, horizontal] or infinity.

    `coeffs` holds the center in row 0 and the horizontal coordinates in
    rows 1..m-1; it is all zeros at infinity.
    """

    __slots__ = ("config", "coeffs", "is_infinity")

    def __init__(self, config: SpaceConfig, center: AlgebraElement | None = None,
                 horizontal=None, is_infinity: bool = False):
        coeffs = np.zeros(config.shape)
        if not is_infinity:
            if center is not None:
                if center.kind is not config.kind:
                    raise ValueError("center kind does not match the configuration")
                coeffs[0] = center.coeffs
            if horizontal is not None:
                horizontal = tuple(horizontal)
                if len(horizontal) != config.horizontal_len:
                    raise ValueError(f"expected {config.horizontal_len} horizontal coordinates")
                for i, h in enumerate(horizontal, 1):
                    if h.kind is not config.kind:
                        raise ValueError("horizontal kind does not match the configuration")
                    coeffs[i] = h.coeffs
            _check_center(coeffs)
        self._set(config, _frozen(coeffs), bool(is_infinity))

    def _set(self, config, coeffs, is_infinity):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "is_infinity", is_infinity)

    @classmethod
    def _wrap(cls, config: SpaceConfig, coeffs: np.ndarray, is_infinity: bool = False) -> "NilPoint":
        """A point around a kernel result, without validation."""
        self = object.__new__(cls)
        self._set(config, _frozen(coeffs), is_infinity)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("NilPoint is immutable")

    @classmethod
    def identity(cls, config: SpaceConfig) -> "NilPoint":
        return cls(config)

    @classmethod
    def infinity(cls, config: SpaceConfig) -> "NilPoint":
        return cls(config, is_infinity=True)

    @property
    def center(self) -> AlgebraElement | None:
        if self.is_infinity:
            return None
        return AlgebraElement(self.config.kind, self.coeffs[0])

    @property
    def horizontal(self) -> tuple[AlgebraElement, ...] | None:
        if self.is_infinity:
            return None
        return tuple(AlgebraElement(self.config.kind, c) for c in self.coeffs[1:])

    def horizontal_norm_sq(self) -> float:
        return float(_norm_sq(self.coeffs[1:]))

    def isclose(self, other: "NilPoint", tol: float = 1e-9) -> bool:
        if self.config != other.config:
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        a, b = self.coeffs, other.coeffs
        scale = max(
            1.0,
            float(np.linalg.norm(a[0])), float(np.linalg.norm(b[0])),
            float(np.linalg.norm(a[1:])), float(np.linalg.norm(b[1:])),
        )
        return bool(np.max(np.abs(a - b)) <= tol * scale)

    def __repr__(self):
        if self.is_infinity:
            return f"NilPoint({self.config.kind.name}, m={self.config.m}, infinity)"
        return f"NilPoint(center={self.center!r}, horizontal={list(self.horizontal)!r})"

    def to_dict(self) -> dict:
        d = {"config": self.config.to_dict(), "infinity": self.is_infinity}
        if not self.is_infinity:
            d["center"] = self.coeffs[0].tolist()
            d["horizontal"] = self.coeffs[1:].tolist()
        return d

    @classmethod
    def from_dict(cls, d) -> "NilPoint":
        """Validated point from JSON; malformed input raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("a point must be an object")
        config = SpaceConfig.from_dict(d.get("config"))
        infinity = d.get("infinity", False)
        if not isinstance(infinity, bool):
            raise ValueError("field 'infinity' must be true or false")
        if infinity:
            return cls.infinity(config)
        if "center" not in d or "horizontal" not in d:
            raise ValueError("a finite point needs fields 'center' and 'horizontal'")
        # decoded before anything of size m is allocated
        horizontal = decode_coeffs(d["horizontal"], (config.m - 1, config.kind.dim), "horizontal")
        center = decode_coeffs(d["center"], (config.kind.dim,), "center")[None]
        coeffs = np.concatenate([center, horizontal])
        _check_center(coeffs)
        return cls._wrap(config, coeffs)


def _check_center(coeffs: np.ndarray):
    """Validate that the center is imaginary, and clear its real part."""
    c = coeffs[0]
    if abs(c[0]) > _CENTER_TOL * max(1.0, math.hypot(*c)):  # hypot cannot overflow
        raise ValueError("center must be purely imaginary")
    if c[0] != 0.0:
        c[0] = 0.0


def _check_pair(g, h):
    """Points of either model, and the isometries acting on them, must
    share their configuration."""
    if g.config is not h.config and g.config != h.config:
        raise ValueError("configuration mismatch")


def _require_finite(g: NilPoint, what: str):
    if g.is_infinity:
        raise ValueError(f"{what} is not defined at infinity")


# ---------------------------------------------------------------------------
# kernels on (..., m, dim) coefficient arrays


def nmul_coeffs(kind: AlgebraKind, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Group law; the center picks up twice the imaginary part of <k, k'>."""
    out = g + h
    out[..., 0, 1:] += 2.0 * pairing(kind, g[..., 1:, :], h[..., 1:, :])[..., 1:]
    return out


def ninv_coeffs(g: np.ndarray) -> np.ndarray:
    return -g


def gauge_coeffs(g: np.ndarray) -> np.ndarray:
    """A(g) = |horizontal|^2 + center, as (..., dim) algebra elements."""
    out = g[..., 0, :].copy()
    out[..., 0] += _norm_sq(g[..., 1:, :])
    return out


def _gauge_sq(g: np.ndarray) -> np.ndarray:
    """|A(g)|^2 = |k|^4 + |center|^2."""
    rows = _reduce(g * g, axis=-1)  # |center|^2, then |k_i|^2
    k2 = _reduce(rows[..., 1:], axis=-1)
    return k2 * k2 + rows[..., 0]


def _dilation(pts, axis=(-2, -1)):
    """(e, pts dilated by k -> 2^-e k, center -> 2^-2e center) for the point
    arrays pts of a kernel call, a row the points reduced over axis: e takes
    M = max(max|k|, sqrt(max|center|)) from outside [2^-100, 2^100] into
    [1/2, 1), and is 0 on the other rows, which keep their bits.  (None, pts)
    if no row needs it, as for one row whose squared coordinates sum
    (np.vdot, which never warns) to within 2^+-200."""
    if pts[0].ndim == pts[-1].ndim == len(axis) and 2.0 ** -200 <= sum(map(np.vdot, pts, pts)) <= 2.0 ** 200:
        return None, pts
    M = 0.0
    for a in map(np.abs, pts):
        k = a[..., 1:, :].max(axis, keepdims=True, initial=0.0)
        M = np.fmax(M, np.fmax(k, np.sqrt(a[..., :1, :].max(axis, keepdims=True, initial=0.0))))
    e = np.where((M < 2.0 ** -100) | (M > 2.0 ** 100), np.frexp(M)[1], 0)  # 0 for M 0, inf or NaN
    if not e.any():
        return None, pts
    out = [np.ldexp(p, -e) for p in pts]
    for o, p in zip(out, pts):
        o[..., 0, :] = np.ldexp(p[..., 0, :], -2 * e[..., 0, :])
    return e, out


def qnorm_coeffs(g: np.ndarray) -> np.ndarray:
    """Homogeneous quasi-norm (|k|^4 + |center|^2)^(1/4), at any scale (_dilation)."""
    e, (g,) = _dilation((g,))
    if e is not None:
        return np.ldexp(qnorm_coeffs(g), e[..., 0, 0])
    # two correctly rounded square roots: a SIMD power would round a
    # batch differently from a single point
    return np.sqrt(np.sqrt(_gauge_sq(g)))


def dist_coeffs(kind: AlgebraKind, g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Left-invariant quasi-distance |h^-1 g|, at any scale (_dilation)."""
    e, (g, h) = _dilation((g, h))
    if e is not None:
        return np.ldexp(dist_coeffs(kind, g, h), e[..., 0, 0])
    return np.sqrt(np.sqrt(_gauge_sq(nmul_coeffs(kind, ninv_coeffs(h), g))))


def _crossratio_quotient(num, den):
    """num / den, elementwise, under the one cross-ratio policy of every
    model: a vanishing denominator gives inf, and 0/0 is indeterminate."""
    num, den = np.asarray(num), np.asarray(den)
    if den.all():
        out = num / den
    else:
        zero = den == 0
        if (zero & (num == 0)).any():
            raise ArithmeticError("indeterminate cross-ratio (0/0)")
        out = np.where(zero, np.inf, num / np.where(zero, 1.0, den))
    return out if out.ndim else out.item()


# the four factors |A(h^-1 g)| of [g1, g2, g3, g4], as (h, g) point indices:
# numerator (3, 1) and (4, 2), denominator (4, 1) and (3, 2)
_FACTOR_H = np.array([2, 3, 3, 2])
_FACTOR_G = np.array([0, 1, 0, 1])


def crossratio_nil_coeffs(kind: AlgebraKind, pts: np.ndarray, infinity=None) -> np.ndarray:
    """Cross-ratios of quadruples (..., 4, m, dim), at any scale (_dilation);
    `infinity` (..., 4) marks points at infinity, whose factors are 1."""
    e, (pts,) = _dilation((pts,), (-3, -2, -1))
    if e is not None:  # a dilation leaves the cross-ratio
        return crossratio_nil_coeffs(kind, pts, infinity)
    h, g = pts.take(_FACTOR_H, axis=-3), pts.take(_FACTOR_G, axis=-3)
    f = np.sqrt(_gauge_sq(nmul_coeffs(kind, ninv_coeffs(h), g)))
    if infinity is not None:
        infinity = np.asarray(infinity, dtype=bool)
        if (_reduce(infinity, axis=-1, dtype=int) > 1).any():
            raise ValueError("at most one cross-ratio argument may be infinity")
        f = np.where(infinity.take(_FACTOR_H, axis=-1) | infinity.take(_FACTOR_G, axis=-1), 1.0, f)
    return _crossratio_quotient(f[..., 0] * f[..., 1], f[..., 2] * f[..., 3])


# ---------------------------------------------------------------------------
# scalar API


def nmul(g: NilPoint, h: NilPoint) -> NilPoint:
    """Group law; the center picks up twice the imaginary part of <k, k'>."""
    _check_pair(g, h)
    _require_finite(g, "nmul")
    _require_finite(h, "nmul")
    return NilPoint._wrap(g.config, nmul_coeffs(g.config.kind, g.coeffs, h.coeffs))


def ninv(g: NilPoint) -> NilPoint:
    _require_finite(g, "ninv")
    return NilPoint._wrap(g.config, ninv_coeffs(g.coeffs))


def gauge(g: NilPoint) -> AlgebraElement:
    """A(g) = |horizontal|^2 + center, as one algebra element."""
    _require_finite(g, "gauge")
    return AlgebraElement(g.config.kind, gauge_coeffs(g.coeffs))


def qnorm(g: NilPoint) -> float:
    """Homogeneous quasi-norm (|k|^4 + |center|^2)^(1/4)."""
    _require_finite(g, "qnorm")
    return float(qnorm_coeffs(g.coeffs))


def dist(g: NilPoint, h: NilPoint) -> float:
    """Left-invariant quasi-distance |h^-1 g|."""
    _check_pair(g, h)
    if g.is_infinity or h.is_infinity:
        raise ValueError("distance to infinity is not defined")
    return float(dist_coeffs(g.config.kind, g.coeffs, h.coeffs))


def crossratio_nil(g1: NilPoint, g2: NilPoint, g3: NilPoint, g4: NilPoint) -> float:
    """Four-point cross-ratio on the boundary group.

    Requires at most one argument at infinity. Returns math.inf when a
    denominator factor vanishes against a nonzero numerator, and raises on
    the indeterminate 0/0 configuration.
    """
    pts = (g1, g2, g3, g4)
    for p in pts[1:]:
        _check_pair(g1, p)
    infinity = [p.is_infinity for p in pts]
    return float(crossratio_nil_coeffs(
        g1.config.kind, np.array([p.coeffs for p in pts]), infinity if any(infinity) else None))


def random_point_coeffs(config: SpaceConfig, rng: np.random.Generator, shape) -> np.ndarray:
    """Coefficient arrays shape + (m, dim) of random finite points with
    N(0, 1) coordinates, one draw per point in the order center then
    horizontals (R has no center), as consecutive random_point calls."""
    shape = tuple(shape)
    m, d = config.shape
    if config.kind is AlgebraKind.R:
        out = np.zeros(shape + (m, d))
        out[..., 1:, :] = rng.standard_normal(shape + (m - 1, d))
    else:
        out = rng.standard_normal(shape + (m, d))
        out[..., 0, 0] = 0.0
    return out


def random_point(config: SpaceConfig, rng: np.random.Generator, scale: float = 1.0) -> NilPoint:
    """Random finite point with N(0, scale^2) coordinates, drawn as in
    random_point_coeffs."""
    return NilPoint._wrap(config, scale * random_point_coeffs(config, rng, ()))

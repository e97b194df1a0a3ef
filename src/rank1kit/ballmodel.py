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
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraElement, AlgebraKind, pairing
from .nilboundary import NilPoint, SpaceConfig, _crossratio_quotient

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
]

_SPHERE_TOL = 1e-10


class BallPoint:
    """Point (w1, w2) of the closed unit ball in F^(m-1) x F."""

    __slots__ = ("config", "w1", "w2")

    def __init__(self, config: SpaceConfig, w1, w2: AlgebraElement):
        w1 = tuple(w1)
        if len(w1) != config.horizontal_len:
            raise ValueError(f"expected {config.horizontal_len} first-block coordinates")
        for c in w1:
            if c.kind is not config.kind:
                raise ValueError("coordinate kind does not match the configuration")
        if w2.kind is not config.kind:
            raise ValueError("coordinate kind does not match the configuration")
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)

    def __setattr__(self, name, value):
        raise AttributeError("BallPoint is immutable")

    @classmethod
    def origin(cls, config: SpaceConfig) -> "BallPoint":
        return cls(
            config,
            tuple(AlgebraElement.zero(config.kind) for _ in range(config.horizontal_len)),
            AlgebraElement.zero(config.kind),
        )

    @classmethod
    def pole(cls, config: SpaceConfig, sign: int = 1) -> "BallPoint":
        """The distinguished boundary points (0, +1) and (0, -1)."""
        w2 = AlgebraElement.from_real(config.kind, float(np.sign(sign) or 1.0))
        return cls(
            config,
            tuple(AlgebraElement.zero(config.kind) for _ in range(config.horizontal_len)),
            w2,
        )

    def coords(self) -> tuple[AlgebraElement, ...]:
        return self.w1 + (self.w2,)

    def norm_sq(self) -> float:
        return sum(c.norm_sq() for c in self.coords())

    def is_interior(self, tol: float = _SPHERE_TOL) -> bool:
        return self.norm_sq() < 1.0 - tol

    def is_boundary(self, tol: float = _SPHERE_TOL) -> bool:
        return abs(self.norm_sq() - 1.0) <= tol

    def renormalized(self) -> "BallPoint":
        """Radially projected onto the unit sphere."""
        n = math.sqrt(self.norm_sq())
        if n == 0.0:
            raise ValueError("cannot renormalize the origin onto the sphere")
        return BallPoint(self.config, tuple(c / n for c in self.w1), self.w2 / n)

    def isclose(self, other: "BallPoint", tol: float = 1e-9) -> bool:
        if self.config != other.config:
            return False
        return all(
            np.max(np.abs(a.coeffs - b.coeffs)) <= tol
            for a, b in zip(self.coords(), other.coords())
        )

    def __repr__(self):
        return f"BallPoint(w1={list(self.w1)!r}, w2={self.w2!r})"

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "w1": [c.to_list() for c in self.w1],
            "w2": self.w2.to_list(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BallPoint":
        config = SpaceConfig.from_dict(d["config"])
        w1 = [AlgebraElement(config.kind, c) for c in d["w1"]]
        w2 = AlgebraElement(config.kind, d["w2"])
        return cls(config, w1, w2)


def _check_pair(x: BallPoint, y: BallPoint):
    if x.config != y.config:
        raise ValueError("configuration mismatch")


def inner(x: BallPoint, y: BallPoint) -> AlgebraElement:
    """<x, y> = sum_a x_a conj(y_a) over all m coordinates."""
    _check_pair(x, y)
    return pairing(x.coords(), y.coords())


def rform(v: BallPoint, w: BallPoint) -> float:
    """Octonionic correction term; identically zero for associative kinds."""
    _check_pair(v, w)
    if v.config.kind is not AlgebraKind.O:
        return 0.0
    v1, v2 = v.w1[0], v.w2
    w1, w2 = w.w1[0], w.w2
    first = (v1 * v2.conj()) * (w2 * w1.conj())
    second = (v2.conj() * w2) * (w1.conj() * v1)
    return first.re - second.re


def _seminorm(x: BallPoint, y: BallPoint) -> float:
    """|1 - <x, y>|, with the octonionic correction (|.|^2 + 2 R<x, y>)^1/2."""
    base = (AlgebraElement.one(x.config.kind) - inner(x, y)).norm()
    if x.config.kind is not AlgebraKind.O:
        return base
    return math.sqrt(max(base * base + 2.0 * rform(x, y), 0.0))


def chordal(x: BallPoint, y: BallPoint) -> float:
    """Boundary seminorm <<x, y>>; inputs are renormalized onto the sphere."""
    _check_pair(x, y)
    return _seminorm(x.renormalized(), y.renormalized())


def coshdist(x: BallPoint, y: BallPoint) -> float:
    """cosh of the distance between interior points."""
    _check_pair(x, y)
    if not (x.is_interior() and y.is_interior()):
        raise ValueError("coshdist needs interior points")
    den = math.sqrt((1.0 - x.norm_sq()) * (1.0 - y.norm_sq()))
    return _seminorm(x, y) / den


def crossratio_ball(x: BallPoint, y: BallPoint, z: BallPoint, w: BallPoint) -> float:
    """[x, y, z, w] = <<z,x>> <<w,y>> / (<<w,x>> <<z,y>>) on boundary points."""
    for p in (y, z, w):
        _check_pair(x, p)
    num = chordal(z, x) * chordal(w, y)
    den = chordal(w, x) * chordal(z, y)
    return _crossratio_quotient(num, den)


def stereo(g: NilPoint) -> BallPoint:
    """Boundary chart: group coordinates to the unit sphere."""
    config = g.config
    if g.is_infinity:
        return BallPoint.pole(config, -1)
    k2 = g.horizontal_norm_sq()
    d = AlgebraElement.from_real(config.kind, 1.0 + k2) - g.center
    dinv = d.inv()
    w1 = tuple(2.0 * (dinv * k) for k in g.horizontal)
    n = AlgebraElement.from_real(config.kind, 1.0 - k2) + g.center
    return BallPoint(config, w1, dinv * n)


def stereo_inv(x: BallPoint, tol: float = _SPHERE_TOL) -> NilPoint:
    """Inverse chart; the south pole (0, -1) goes to infinity.

    A finite point g = (c, k) lands at |w1| = 2|k| / |d| and
    |1 + w2| = 2 / |d|, with d = 1 + |k|^2 - c, so 1 + w2 shrinks like
    |w1|^2 towards the pole.  Infinity is therefore decided by the
    chordal distance (|w1|^2 + |1 + w2|^2)^(1/2) to the pole, which
    |w1| dominates; a point farther than tol whose 1 + w2 still rounds
    to zero cannot be resolved and raises ZeroDivisionError."""
    if x.is_interior(tol):
        raise ValueError("stereo_inv needs a boundary point")
    x = x.renormalized()
    config = x.config
    one = AlgebraElement.one(config.kind)
    u = one + x.w2
    to_pole_sq = u.norm_sq() + sum(c.norm_sq() for c in x.w1)
    if to_pole_sq <= tol * tol:
        return NilPoint.infinity(config)
    uinv = u.inv()
    horizontal = tuple(uinv * c for c in x.w1)
    e = uinv * (one - x.w2)
    return NilPoint(config, -e.im(), horizontal)


def random_interior(config: SpaceConfig, rng: np.random.Generator, radius: float = 0.8) -> BallPoint:
    """Random interior point, uniform direction with radius below the cap."""
    dim = config.kind.dim * config.m
    v = rng.standard_normal(dim)
    v *= (radius * rng.random() ** (1.0 / dim)) / np.linalg.norm(v)
    kd = config.kind.dim
    coords = [
        AlgebraElement(config.kind, v[i * kd : (i + 1) * kd]) for i in range(config.m)
    ]
    return BallPoint(config, coords[:-1], coords[-1])


def random_boundary(config: SpaceConfig, rng: np.random.Generator) -> BallPoint:
    dim = config.kind.dim * config.m
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    kd = config.kind.dim
    coords = [
        AlgebraElement(config.kind, v[i * kd : (i + 1) * kd]) for i in range(config.m)
    ]
    return BallPoint(config, coords[:-1], coords[-1])

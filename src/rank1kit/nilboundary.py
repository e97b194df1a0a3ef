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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraElement, AlgebraKind, pairing

__all__ = [
    "SpaceConfig",
    "NilPoint",
    "nmul",
    "ninv",
    "gauge",
    "qnorm",
    "dist",
    "horizontal_inner",
    "crossratio_nil",
    "random_point",
]

_CENTER_TOL = 1e-9


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
    def boundary_dim(self) -> int:
        # horizontal block plus the imaginary center directions
        return self.kind.dim * self.m - 1

    def to_dict(self) -> dict:
        return {"kind": self.kind.name, "m": self.m}

    @classmethod
    def from_dict(cls, d: dict) -> "SpaceConfig":
        return cls(AlgebraKind.from_name(d["kind"]), int(d["m"]))


class NilPoint:
    """A boundary point: group element [center, horizontal] or infinity."""

    __slots__ = ("config", "center", "horizontal", "is_infinity")

    def __init__(self, config: SpaceConfig, center: AlgebraElement | None = None,
                 horizontal=None, is_infinity: bool = False):
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "is_infinity", bool(is_infinity))
        if is_infinity:
            object.__setattr__(self, "center", None)
            object.__setattr__(self, "horizontal", None)
            return
        if center is None:
            center = AlgebraElement.zero(config.kind)
        if center.kind is not config.kind:
            raise ValueError("center kind does not match the configuration")
        scale = max(1.0, center.norm())
        if abs(center.re) > _CENTER_TOL * scale:
            raise ValueError("center must be purely imaginary")
        if abs(center.re) > 0.0:
            c = center.coeffs.copy()
            c[0] = 0.0
            center = AlgebraElement(config.kind, c)
        if horizontal is None:
            horizontal = tuple(AlgebraElement.zero(config.kind) for _ in range(config.horizontal_len))
        horizontal = tuple(horizontal)
        if len(horizontal) != config.horizontal_len:
            raise ValueError(f"expected {config.horizontal_len} horizontal coordinates")
        for h in horizontal:
            if h.kind is not config.kind:
                raise ValueError("horizontal kind does not match the configuration")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "horizontal", horizontal)

    def __setattr__(self, name, value):
        raise AttributeError("NilPoint is immutable")

    @classmethod
    def identity(cls, config: SpaceConfig) -> "NilPoint":
        return cls(config)

    @classmethod
    def infinity(cls, config: SpaceConfig) -> "NilPoint":
        return cls(config, is_infinity=True)

    def horizontal_norm_sq(self) -> float:
        return sum(h.norm_sq() for h in self.horizontal)

    def isclose(self, other: "NilPoint", tol: float = 1e-9) -> bool:
        if self.config != other.config:
            return False
        if self.is_infinity or other.is_infinity:
            return self.is_infinity and other.is_infinity
        scale = max(
            1.0,
            self.center.norm(), other.center.norm(),
            math.sqrt(self.horizontal_norm_sq()), math.sqrt(other.horizontal_norm_sq()),
        )
        if np.max(np.abs(self.center.coeffs - other.center.coeffs)) > tol * scale:
            return False
        return all(
            np.max(np.abs(a.coeffs - b.coeffs)) <= tol * scale
            for a, b in zip(self.horizontal, other.horizontal)
        )

    def __repr__(self):
        if self.is_infinity:
            return f"NilPoint({self.config.kind.name}, m={self.config.m}, infinity)"
        return f"NilPoint(center={self.center!r}, horizontal={list(self.horizontal)!r})"

    def to_dict(self) -> dict:
        d = {"config": self.config.to_dict(), "infinity": self.is_infinity}
        if not self.is_infinity:
            d["center"] = self.center.to_list()
            d["horizontal"] = [h.to_list() for h in self.horizontal]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NilPoint":
        config = SpaceConfig.from_dict(d["config"])
        if d.get("infinity"):
            return cls.infinity(config)
        center = AlgebraElement(config.kind, d["center"])
        horizontal = [AlgebraElement(config.kind, h) for h in d["horizontal"]]
        return cls(config, center, horizontal)


def _require_finite(g: NilPoint, what: str):
    if g.is_infinity:
        raise ValueError(f"{what} is not defined at infinity")


def horizontal_inner(g: NilPoint, h: NilPoint) -> AlgebraElement:
    """Hermitian pairing sum_i k_i conj(k'_i) of the horizontal parts."""
    _require_finite(g, "horizontal_inner")
    _require_finite(h, "horizontal_inner")
    return pairing(g.horizontal, h.horizontal)


def nmul(g: NilPoint, h: NilPoint) -> NilPoint:
    """Group law; the center picks up twice the imaginary part of <k, k'>."""
    if g.config != h.config:
        raise ValueError("configuration mismatch")
    _require_finite(g, "nmul")
    _require_finite(h, "nmul")
    twist = horizontal_inner(g, h).im()
    center = g.center + h.center + 2.0 * twist
    horizontal = tuple(a + b for a, b in zip(g.horizontal, h.horizontal))
    return NilPoint(g.config, center, horizontal)


def ninv(g: NilPoint) -> NilPoint:
    _require_finite(g, "ninv")
    return NilPoint(g.config, -g.center, tuple(-h for h in g.horizontal))


def gauge(g: NilPoint) -> AlgebraElement:
    """A(g) = |horizontal|^2 + center, as one algebra element."""
    _require_finite(g, "gauge")
    c = g.center.coeffs.copy()
    c[0] += g.horizontal_norm_sq()
    return AlgebraElement(g.config.kind, c)


def qnorm(g: NilPoint) -> float:
    """Homogeneous quasi-norm (|k|^4 + |center|^2)^(1/4)."""
    _require_finite(g, "qnorm")
    k2 = g.horizontal_norm_sq()
    return (k2 * k2 + g.center.norm_sq()) ** 0.25


def dist(g: NilPoint, h: NilPoint) -> float:
    """Left-invariant quasi-distance |h^-1 g|."""
    if g.config != h.config:
        raise ValueError("configuration mismatch")
    if g.is_infinity or h.is_infinity:
        raise ValueError("distance to infinity is not defined")
    return qnorm(nmul(ninv(h), g))


def _gauge_factor(h: NilPoint, g: NilPoint) -> float:
    """|A(h^-1 g)|, with the convention that factors involving infinity are 1."""
    if h.is_infinity or g.is_infinity:
        return 1.0
    return gauge(nmul(ninv(h), g)).norm()


def _crossratio_quotient(num, den):
    """num / den under the one cross-ratio policy of every model: a
    vanishing denominator gives math.inf, and 0/0 is indeterminate."""
    if den == 0:
        if num == 0:
            raise ArithmeticError("indeterminate cross-ratio (0/0)")
        return math.inf
    return num / den


def crossratio_nil(g1: NilPoint, g2: NilPoint, g3: NilPoint, g4: NilPoint) -> float:
    """Four-point cross-ratio on the boundary group.

    Requires at most one argument at infinity. Returns math.inf when a
    denominator factor vanishes against a nonzero numerator, and raises on
    the indeterminate 0/0 configuration.
    """
    pts = (g1, g2, g3, g4)
    cfg = g1.config
    if any(p.config != cfg for p in pts):
        raise ValueError("configuration mismatch")
    if sum(p.is_infinity for p in pts) > 1:
        raise ValueError("at most one cross-ratio argument may be infinity")
    num = _gauge_factor(g3, g1) * _gauge_factor(g4, g2)
    den = _gauge_factor(g4, g1) * _gauge_factor(g3, g2)
    return _crossratio_quotient(num, den)


def random_point(config: SpaceConfig, rng: np.random.Generator, scale: float = 1.0) -> NilPoint:
    """Random finite point with N(0, scale^2) coordinates."""
    from .algebra import random_imaginary, random_element

    if config.kind is AlgebraKind.R:
        center = AlgebraElement.zero(config.kind)
    else:
        center = random_imaginary(config.kind, rng, scale)
    horizontal = tuple(random_element(config.kind, rng, scale) for _ in range(config.horizontal_len))
    return NilPoint(config, center, horizontal)

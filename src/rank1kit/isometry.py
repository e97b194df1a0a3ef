"""Axis-fixing normal-form isometries and matrix isometry groups.

A normal form is the data (M, nu, s): a unitary rotation block M of
size (m-1) x (m-1), a unit scalar nu and a real translation parameter
s. It fixes the boundary points (0, 1) and (0, -1) of the ball and
acts there by

    w1' = E^-1 (w1 M),   w2' = E^-1 ((w2 nu) cosh s + nu sinh s),

with E = (w2 nu) sinh s + nu cosh s. Conjugating through the boundary
chart gives the action on the group coordinates (c, k):

    c' = e^-2s nu^-1 c nu,
    k' = e^-s (nu^-1 Ds nu) { [nu^-1 (Ds^-1 D1)] [(D1^-1 k) M] },

where Ds = e^2s + |k|^2 - c and D1 = 1 + |k|^2 - c. The bracketing is
the one forced by the chart computation; for nonassociative inputs it
is not optional. Everything in sight lies in subalgebras generated by
two elements except the final triple product, so Artin's theorem does
most of the verification work.

For the associative kinds the full isometry group is realized by
(m+1) x (m+1) matrices over F preserving the indefinite form
J = diag(1, ..., 1, -1), acting on row vectors (x, 1) from the right.
The image point is recovered by left multiplying with the inverse of
the last coordinate: left normalization is what keeps left F-lines and
the displacement formula intact over the quaternions.

Translation lengths come in two flavors that agree on overlaps: |s|
for a normal form, and for a matrix over R, C or H the log of the
spectral radius of its complex embedding.

The actions are kernels over point arrays (..., m, dim) with any
leading batch axes, as in nilboundary and ballmodel; the normal-form
data (M, nu, s) may carry the same batch axes, one isometry per point.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import (
    AlgebraElement,
    AlgebraKind,
    _Value,
    conj_coeffs,
    decode_coeffs,
    inv_coeffs,
    mat_mul,
    mul_coeffs,
    norm_coeffs,
    pairing,
    random_unit,
)
from .ballmodel import BallPoint
from .nilboundary import NilPoint, SpaceConfig, _check_pair, _norm_sq

__all__ = [
    "NormalIsometry",
    "GroupMatrix",
    "NotHyperbolicError",
    "act_nil",
    "act_ball",
    "act_interior",
    "act_nil_coeffs",
    "act_ball_coeffs",
    "act_interior_coeffs",
    "embed_normal",
    "translation_length",
    "boundary_fixed_points",
    "action_identity_residual",
    "action_identity_coeffs",
    "random_form_preserving",
    "random_rotation_block",
    "random_normal_isometry",
]

_FORM_TOL = 1e-10
_UNIT_TOL = 1e-12
_RADIUS_TOL = 1e-9
_SPLIT_TOL = 1e-3


class NotHyperbolicError(ValueError):
    """Translation length requested for an element without an axis."""

    def __init__(self, classification: str, message: str | None = None):
        self.classification = classification
        super().__init__(message or f"element is {classification}, not hyperbolic")


# ---------------------------------------------------------------------------
# coefficient matrices over F


def _mat_conj_t(kind: AlgebraKind, a: np.ndarray) -> np.ndarray:
    return conj_coeffs(kind, a.transpose(1, 0, 2))


def _mat_identity(kind: AlgebraKind, n: int) -> np.ndarray:
    out = np.zeros((n, n, kind.dim))
    out[np.arange(n), np.arange(n), 0] = 1.0
    return out


def _jsigns(n: int) -> np.ndarray:
    s = np.ones(n)
    s[-1] = -1.0
    return s


def _complex_embedding(kind: AlgebraKind, coeffs: np.ndarray) -> np.ndarray:
    # coefficient matrices (..., n, n, dim) to complex ones with the same spectra
    if kind is AlgebraKind.R:
        return coeffs[..., 0].astype(complex)
    if kind is AlgebraKind.C:
        return coeffs[..., 0] + 1j * coeffs[..., 1]
    z = coeffs[..., 0] + 1j * coeffs[..., 1]
    w = coeffs[..., 2] + 1j * coeffs[..., 3]
    n = coeffs.shape[-2]
    out = np.zeros(coeffs.shape[:-3] + (2 * n, 2 * n), dtype=complex)
    out[..., 0::2, 0::2] = z
    out[..., 0::2, 1::2] = w
    out[..., 1::2, 0::2] = -np.conj(w)
    out[..., 1::2, 1::2] = np.conj(z)
    return out


def _classify(e: np.ndarray, radius: float) -> str:
    # the classification of a complex embedding e with spectral radius
    # radius (GroupMatrix.classify): a parabolic's eigenvalue 1 splits
    # under LAPACK, so radii near 1 go to the eigenvector test
    if radius > 1.0 + _SPLIT_TOL:
        return "hyperbolic"
    _, vecs = np.linalg.eig(e)
    if np.linalg.cond(vecs) > 1e6:
        return "parabolic"
    return "hyperbolic" if radius > 1.0 + _RADIUS_TOL else "elliptic"


def _matrix_lengths(S: np.ndarray, e) -> tuple[list[str], list[float]]:
    """Classifications and translation lengths e log 2 + log rho(S) of the
    matrices 2^e S, for a stack S (k, n, n) of complex embeddings and k
    integer exponents e, rho the spectral radius, from one eigvals call;
    a scaled power (e > 0) grew exponentially: hyperbolic.  A
    non-hyperbolic matrix has geometric length 0.  The rows are read as
    lists; S is indexed only for the rows _classify must examine."""
    radii = np.abs(np.linalg.eigvals(S)).max(axis=-1).tolist()
    e = np.asarray(e).tolist()
    classes = ["hyperbolic" if ei or r > 1.0 + _SPLIT_TOL else _classify(S[i], r)
               for i, (r, ei) in enumerate(zip(radii, e))]
    log2 = math.log(2.0)
    return classes, [ei * log2 + math.log(r) if c == "hyperbolic" else 0.0
                     for c, r, ei in zip(classes, radii, e)]


def _hyperbolic(S: np.ndarray, e, names=("element",)) -> list[float]:
    """The lengths of 2^e S (_matrix_lengths) when its first rows, one per
    name, are hyperbolic; else NotHyperbolicError naming the first that is not."""
    classes, lengths = _matrix_lengths(S, e)
    for name, kind in zip(names, classes):
        if kind != "hyperbolic":
            raise NotHyperbolicError(kind, f"{name} is {kind}, not hyperbolic")
    return lengths


class GroupMatrix(_Value):
    """Matrix over F in {R, C, H} preserving J = diag(1, ..., 1, -1).

    Stored as an (m+1, m+1, dim) real coefficient array. The invariant
    G* J G = J is validated on construction; use the module helpers for
    raw power iterations that deliberately leave the group.
    """

    __slots__ = ("config", "coeffs")

    def __init__(self, config: SpaceConfig, coeffs: np.ndarray, check: bool = True):
        if config.kind is AlgebraKind.O:
            raise ValueError("matrix isometries need an associative kind")
        coeffs = np.asarray(coeffs, dtype=float)
        n = config.m + 1
        if coeffs.shape != (n, n, config.kind.dim):
            raise ValueError(f"expected coefficient shape {(n, n, config.kind.dim)}")
        self._set(config, coeffs.copy())
        if check:
            r = self.form_residual()
            if r > _FORM_TOL:
                raise ValueError(f"matrix does not preserve the form (residual {r:.3e})")

    @classmethod
    def identity(cls, config: SpaceConfig) -> "GroupMatrix":
        return cls(config, _mat_identity(config.kind, config.m + 1), check=False)

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]

    def form_residual(self) -> float:
        kind = self.config.kind
        j = _jsigns(self.size)
        gjg = mat_mul(kind, _mat_conj_t(kind, self.coeffs), self.coeffs * j[:, None, None])
        gjg -= _mat_identity(kind, self.size) * j[:, None, None]
        return float(np.max(norm_coeffs(gjg)))

    def __matmul__(self, other: "GroupMatrix") -> "GroupMatrix":
        if self.config != other.config:
            raise ValueError("configuration mismatch")
        return GroupMatrix(
            self.config, mat_mul(self.config.kind, self.coeffs, other.coeffs), check=False
        )

    def inverse(self) -> "GroupMatrix":
        # G^-1 = J G* J, entrywise sign flips on the conjugate transpose
        j = _jsigns(self.size)
        c = _mat_conj_t(self.config.kind, self.coeffs)
        c = c * j[:, None, None] * j[None, :, None]
        return GroupMatrix(self.config, c, check=False)

    def complex_embedding(self) -> np.ndarray:
        """Complex matrix with the same spectral data.

        R and C embed entrywise; a quaternion a+bi+cj+dk becomes the
        2x2 block [[a+bi, c+di], [-c+di, a-bi]].
        """
        return _complex_embedding(self.config.kind, self.coeffs)

    def classify(self) -> str:
        """'hyperbolic', 'elliptic' or 'parabolic' by spectral radius.

        A spectral radius within 1e-3 of 1 is split by diagonalizability
        of the complex embedding: an eigenvector condition above 1e6 is
        parabolic, whose eigenvalue 1 LAPACK splits by up to about 1e-4;
        otherwise a radius above 1 + 1e-9 is hyperbolic and the rest
        elliptic. A parabolic with large entries (a null rotation or
        Heisenberg translation of 100 under a boost of 3) can split by
        more than 1e-3 and reads hyperbolic.
        """
        return _matrix_lengths(self.complex_embedding()[None], [0])[0][0]

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "entries": [
                [self.coeffs[i, j].tolist() for j in range(self.size)]
                for i in range(self.size)
            ],
        }

    @classmethod
    def from_dict(cls, d) -> "GroupMatrix":
        """Validated matrix from JSON; malformed input raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("a matrix must be an object")
        config = SpaceConfig.from_dict(d.get("config"))
        n = config.m + 1
        return cls(config, decode_coeffs(d.get("entries"), (n, n, config.kind.dim), "entries"))

    def __repr__(self):
        return f"GroupMatrix({self.config.kind.name}, size {self.size})"


class NormalIsometry(_Value):
    """Axis-fixing normal form (M, nu, s) for a given space."""

    __slots__ = ("config", "M", "nu", "s")

    def __init__(self, config: SpaceConfig, M, nu: AlgebraElement, s: float):
        kind = config.kind
        if isinstance(M, AlgebraElement):
            M = np.asarray(M.coeffs)[None, None, :]
        M = np.asarray(M, dtype=float)
        r = config.horizontal_len
        if M.shape != (r, r, kind.dim):
            raise ValueError(f"rotation block must have shape {(r, r, kind.dim)}")
        if nu.kind is not kind:
            raise ValueError("kind mismatch")
        if abs(nu.norm() - 1.0) > _UNIT_TOL:
            raise ValueError("nu must be a unit")
        if kind is AlgebraKind.O:
            if abs(math.sqrt(float(np.sum(M * M))) - 1.0) > _UNIT_TOL:
                raise ValueError("octonion rotation block must be a unit scalar")
        else:
            res = mat_mul(kind, _mat_conj_t(kind, M), M) - _mat_identity(kind, r)
            if np.max(norm_coeffs(res)) > _FORM_TOL:
                raise ValueError("rotation block is not unitary")
        self._set(config, M.copy(), nu, float(s))

    @classmethod
    def dilation(cls, config: SpaceConfig, s: float) -> "NormalIsometry":
        return cls(
            config,
            _mat_identity(config.kind, config.horizontal_len),
            AlgebraElement.one(config.kind),
            s,
        )

    def to_dict(self) -> dict:
        r = self.config.horizontal_len
        return {
            "config": self.config.to_dict(),
            "M": [[self.M[i, j].tolist() for j in range(r)] for i in range(r)],
            "nu": self.nu.to_list(),
            "s": self.s,
        }

    @classmethod
    def from_dict(cls, d) -> "NormalIsometry":
        """Validated normal form from JSON; malformed input raises ValueError."""
        if not isinstance(d, dict):
            raise ValueError("an isometry must be an object")
        config = SpaceConfig.from_dict(d.get("config"))
        kind, r = config.kind, config.horizontal_len
        M = decode_coeffs(d.get("M"), (r, r, kind.dim), "M")
        nu = decode_coeffs(d.get("nu"), (kind.dim,), "nu")
        s = decode_coeffs(d.get("s"), (), "s")
        return cls(config, M, AlgebraElement(kind, nu), float(s))

    def __repr__(self):
        return f"NormalIsometry({self.config.kind.name}, s={self.s!r})"


def act_nil_coeffs(kind: AlgebraKind, M: np.ndarray, nu: np.ndarray, s,
                   g: np.ndarray) -> np.ndarray:
    """Normal-form action (M, nu, s) on finite group coordinates (..., m, dim);
    M (..., r, r, dim), nu (..., dim) and s (...) broadcast with the points."""
    nu_inv = conj_coeffs(kind, nu)  # unit
    c, k = g[..., :1, :], g[..., 1:, :]
    k2 = _norm_sq(k)
    # rows c, Ds, D1, k with Ds = e^2s + |k|^2 - c and D1 = 1 + |k|^2 - c
    minus_c = -c
    rows = np.concatenate([c, minus_c, minus_c, k], axis=-2)
    rows[..., 1, 0] += np.exp(2.0 * s) + k2
    rows[..., 2, 0] += 1.0 + k2
    # (nu^-1 c) nu, the center before scaling, and lead = (nu^-1 Ds) nu
    twisted = mul_coeffs(kind, mul_coeffs(kind, nu_inv[..., None, :], rows[..., :2, :]), nu[..., None, :])
    dd_inv = inv_coeffs(kind, rows[..., 1:3, :])
    # Ds^-1 D1 and D1^-1 k in one product
    quotients = mul_coeffs(kind, dd_inv.take([0] + [1] * k.shape[-2], axis=-2), rows[..., 2:, :])
    mid = mul_coeffs(kind, nu_inv, quotients[..., 0, :])
    rotated = mat_mul(kind, quotients[..., None, 1:, :], M)[..., 0, :, :]
    inner = mul_coeffs(kind, mid[..., None, :], rotated)
    out = np.empty(np.shape(g))
    out[..., 0, :] = np.exp(-2.0 * s)[..., None] * twisted[..., 0, :]
    out[..., 0, 0] = 0.0
    out[..., 1:, :] = np.exp(-s)[..., None, None] * mul_coeffs(kind, twisted[..., 1, None, :], inner)
    return out


def act_ball_coeffs(kind: AlgebraKind, M: np.ndarray, nu: np.ndarray, s,
                    x: np.ndarray) -> np.ndarray:
    """Normal-form action (M, nu, s) on ball coordinates (..., m, dim);
    M, nu and s broadcast with the points as in act_nil_coeffs."""
    ch = np.cosh(s)[..., None]
    sh = np.sinh(s)[..., None]
    w2nu = mul_coeffs(kind, x[..., -1, :], nu)
    e_inv = inv_coeffs(kind, w2nu * sh + ch * nu)
    rows = np.empty(np.shape(x))
    rows[..., :-1, :] = mat_mul(kind, x[..., None, :-1, :], M)[..., 0, :, :]
    rows[..., -1, :] = w2nu * ch + sh * nu
    return mul_coeffs(kind, e_inv[..., None, :], rows)


def act_interior_coeffs(kind: AlgebraKind, A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row action of the matrix A on homogeneous coordinates (x, 1).

    The image is renormalized into the affine chart by left
    multiplication with the inverse of the last coordinate, which is
    the operation that stays inside a left F-line.
    """
    row = np.zeros(np.shape(x)[:-2] + (1, x.shape[-2] + 1, kind.dim))
    row[..., 0, :-1, :] = x
    row[..., 0, -1, 0] = 1.0
    image = mat_mul(kind, row, A)[..., 0, :, :]
    return mul_coeffs(kind, inv_coeffs(kind, image[..., -1, :])[..., None, :], image[..., :-1, :])


def act_nil(iso: NormalIsometry, g: NilPoint) -> NilPoint:
    """Normal-form action in group coordinates; fixes e and infinity."""
    _check_pair(iso, g)
    if g.is_infinity:
        return g
    return NilPoint._wrap(g.config, act_nil_coeffs(g.config.kind, iso.M, iso.nu.coeffs, iso.s, g.coeffs))


def act_ball(iso: NormalIsometry, x: BallPoint) -> BallPoint:
    """Normal-form action on the closed ball; fixes (0, 1) and (0, -1)."""
    _check_pair(iso, x)
    return BallPoint._wrap(x.config, act_ball_coeffs(x.config.kind, iso.M, iso.nu.coeffs, iso.s, x.coeffs))


def embed_normal(iso: NormalIsometry) -> GroupMatrix:
    """The (m+1) x (m+1) matrix realizing act_ball for R, C, H."""
    config = iso.config
    kind = config.kind
    if kind is AlgebraKind.O:
        raise ValueError("matrix isometries need an associative kind")
    n = config.m + 1
    out = np.zeros((n, n, kind.dim))
    r = config.horizontal_len
    out[:r, :r] = iso.M
    ch = math.cosh(iso.s)
    sh = math.sinh(iso.s)
    nu = iso.nu.coeffs
    out[n - 2, n - 2] = ch * nu
    out[n - 2, n - 1] = sh * nu
    out[n - 1, n - 2] = sh * nu
    out[n - 1, n - 1] = ch * nu
    return GroupMatrix(config, out)


def act_interior(A: GroupMatrix, x: BallPoint) -> BallPoint:
    """Row action on homogeneous coordinates (x, 1); works on interior
    and boundary points alike (see act_interior_coeffs)."""
    if A.config != x.config:
        raise ValueError("configuration mismatch")
    return BallPoint._wrap(x.config, act_interior_coeffs(x.config.kind, A.coeffs, x.coeffs))


def translation_length(A) -> float:
    """Length of the axis translation; error for elliptic/parabolic.

    Accepts a NormalIsometry (returns |s|) or a GroupMatrix (log of the
    spectral radius of its complex embedding, over R, C and H).
    """
    if isinstance(A, NormalIsometry):
        if A.s == 0.0:
            raise NotHyperbolicError("elliptic")
        return abs(A.s)
    if not isinstance(A, GroupMatrix):
        raise TypeError("expected a NormalIsometry or a GroupMatrix")
    return _hyperbolic(A.complex_embedding()[None], [0])[0]


def boundary_fixed_points(A: GroupMatrix) -> tuple[BallPoint, BallPoint]:
    """(attracting, repelling) boundary fixed points, kinds R and C.

    Row eigenvectors of the matrix, read off from eigenvectors of the
    plain transpose, labeled by eigenvalue modulus. Both lifts are
    isotropic for a hyperbolic element, so the affine chart never
    degenerates.
    """
    kind = A.config.kind
    if kind not in (AlgebraKind.R, AlgebraKind.C):
        raise NotImplementedError("fixed points via eigenvectors need a commutative kind")
    e = A.complex_embedding()
    _hyperbolic(e[None], [0])
    vals, vecs = np.linalg.eig(e.T)
    order = np.argsort(np.abs(vals))
    out = []
    for idx in (order[-1], order[0]):
        v = vecs[:-1, idx] / vecs[-1, idx]
        coeffs = np.stack([v.real, v.imag], axis=-1)[:, : kind.dim]
        out.append(BallPoint._wrap(A.config, coeffs).renormalized())
    return out[0], out[1]


def action_identity_residual(
    s: float,
    Q: AlgebraElement,
    nu: AlgebraElement,
    knorm: float,
    reading: str = "corrected",
) -> float:
    """Residual of the product-form identity behind the w2 action.

    With r1 = e^2s + |k|^2, r2 = e^2s - |k|^2, r3 = 1 + |k|^2 and Q the
    imaginary center, the chart chain for the transformed last ball
    coordinate equals the clean conjugation product

        [(nu^-1 (r1-Q)^-1) nu] [nu^-1 ((r2+Q) nu)].

    reading='corrected' evaluates the chain as

        [nu^-1 ((r1-Q)^-1 (r3-Q))] [((r3-Q)^-1 (r2+Q)) nu],

    which is an identity by Artin's theorem. reading='literal'
    evaluates the variant with (r1+Q)^-1 and a plain (r3+Q) factor,
    which fails by a dimensional-analysis slip; it is kept so the two
    can be compared side by side.
    """
    kind = Q.kind
    if nu.kind is not kind:
        raise ValueError("kind mismatch")
    if abs(Q.re) > 1e-9 * max(1.0, Q.norm()):
        raise ValueError("Q must be purely imaginary")
    if abs(nu.norm() - 1.0) > 1e-9:
        raise ValueError("nu must be a unit")
    return float(action_identity_coeffs(kind, s, Q.coeffs, nu.coeffs, knorm, reading))


def action_identity_coeffs(kind: AlgebraKind, s, Q: np.ndarray, nu: np.ndarray, knorm,
                           reading: str) -> np.ndarray:
    """action_identity_residual over batches: s and knorm (...), the
    imaginary Q and the unit nu (..., dim)."""
    e2s, k2 = np.exp(2.0 * np.asarray(s, dtype=float)), np.square(knorm)
    r1, r2, r3 = (np.multiply.outer(r, np.eye(1, kind.dim)[0]) for r in (e2s + k2, e2s - k2, 1.0 + k2))

    def mul(x, y):
        return mul_coeffs(kind, x, y)

    def inv(x):
        return inv_coeffs(kind, x)

    nu_inv = conj_coeffs(kind, nu)
    if reading == "corrected":
        lhs = mul(mul(nu_inv, mul(inv(r1 - Q), r3 - Q)), mul(mul(inv(r3 - Q), r2 + Q), nu))
    elif reading == "literal":
        lhs = mul(mul(nu_inv, mul(inv(r1 + Q), r3 - Q)), mul(mul(r3 + Q, r2 + Q), nu))
    else:
        raise ValueError(f"unknown reading {reading!r}")
    rhs = mul(mul(mul(nu_inv, inv(r1 - Q)), nu), mul(nu_inv, mul(r2 + Q, nu)))
    return norm_coeffs(lhs - rhs)


# ---------------------------------------------------------------------------
# random elements


def _random_unitary(kind: AlgebraKind, size: int, rng: np.random.Generator) -> np.ndarray:
    """Unitary size x size coefficient matrix by Euclidean Gram-Schmidt."""
    out = np.zeros((size, size, kind.dim))
    for i in range(size):
        for attempt in range(64):
            u = rng.standard_normal((size, kind.dim))
            for prev in out[:i]:
                u = u - mul_coeffs(kind, pairing(kind, u, prev), prev)
            phi = pairing(kind, u, u)[0]
            if phi <= 1e-3:
                continue
            out[i] = (1.0 / math.sqrt(phi)) * u
            break
        else:
            raise ArithmeticError("unitary Gram-Schmidt failed to converge")
    return out


def random_form_preserving(
    config: SpaceConfig,
    rng: np.random.Generator,
    boost_range: tuple[float, float] = (0.2, 1.5),
) -> GroupMatrix:
    """Random element of the matrix group.

    Sampled as K1 B K2: unitary-block elements (random unitary m x m
    over F times a unit scalar in the last slot, each exactly
    J-preserving) around a boost mixing the last positive coordinate
    with the negative one. Gram-Schmidt directly against J on Gaussian
    rows is fragile in the last positive slot, where the remaining
    (1,1)-signature plane can be Euclidean-thin; this factored sampler
    covers the same group without that failure mode.
    """
    kind = config.kind
    if kind is AlgebraKind.O:
        raise ValueError("matrix isometries need an associative kind")
    n = config.m + 1

    def compact_factor() -> GroupMatrix:
        out = np.zeros((n, n, kind.dim))
        out[: n - 1, : n - 1] = _random_unitary(kind, n - 1, rng)
        out[n - 1, n - 1] = random_unit(kind, rng).coeffs
        return GroupMatrix(config, out, check=False)

    sigma = float(rng.uniform(*boost_range)) * float(rng.choice([-1.0, 1.0]))
    boost = _mat_identity(kind, n)
    boost[n - 2, n - 2, 0] = math.cosh(sigma)
    boost[n - 2, n - 1, 0] = math.sinh(sigma)
    boost[n - 1, n - 2, 0] = math.sinh(sigma)
    boost[n - 1, n - 1, 0] = math.cosh(sigma)
    product = compact_factor() @ GroupMatrix(config, boost, check=False) @ compact_factor()
    return GroupMatrix(config, product.coeffs)


def random_rotation_block(
    config: SpaceConfig, rng: np.random.Generator
) -> np.ndarray:
    """Random unitary (m-1) x (m-1) block over F; unit scalar for O."""
    kind = config.kind
    r = config.horizontal_len
    if kind is AlgebraKind.O:
        v = rng.standard_normal(kind.dim)
        v /= np.linalg.norm(v)
        return v[None, None, :]
    return _random_unitary(kind, r, rng)


def random_normal_isometry(
    config: SpaceConfig,
    rng: np.random.Generator,
    s_range: tuple[float, float] = (0.2, 1.5),
) -> NormalIsometry:
    s = float(rng.uniform(*s_range)) * float(rng.choice([-1.0, 1.0]))
    return NormalIsometry(config, random_rotation_block(config, rng), random_unit(config.kind, rng), s)

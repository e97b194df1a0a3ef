"""Arithmetic in the four real normed division algebras R, C, H, O.

An element is a real coefficient vector against the basis

    e0 = 1, e1 = i, e2 = j, e3 = k          (first quaternion slot)
    e4..e7 = (0,1), (0,i), (0,j), (0,k)     (second slot of an octonion pair)

so dim = 1, 2, 4, 8 for kind R, C, H, O. Quaternions use the Hamilton
table (ij = k). Octonions are pairs of quaternions multiplied by the
doubling rule

    (q1, q2) (p1, p2) = (q1 p1 - conj(p2) q2,  p2 q1 + q2 conj(p1))

which is the unique placement of the conjugations, with this first slot,
that keeps the norm multiplicative. Every product is encoded once as a
structure tensor T with e_a e_b = sum_c T[a,b,c] e_c; single elements and
batched coefficient arrays then share one einsum code path.
"""

from __future__ import annotations

import enum

import numpy as np

__all__ = [
    "AlgebraKind",
    "AlgebraElement",
    "split",
    "isclose",
    "random_element",
    "random_imaginary",
    "random_unit",
    "mul_coeffs",
    "conj_coeffs",
    "norm_coeffs",
    "inv_coeffs",
    "mat_mul",
    "pairing",
    "structure_tensor",
]

# comparisons are relative to the largest operand, floored at unit scale
DEFAULT_TOL = 1e-12


class AlgebraKind(enum.Enum):
    """The four coordinate algebras, keyed by real dimension."""

    R = 1
    C = 2
    H = 4
    O = 8

    @property
    def dim(self) -> int:
        return self.value

    @property
    def is_associative(self) -> bool:
        return self is not AlgebraKind.O

    @property
    def is_commutative(self) -> bool:
        return self.value <= 2

    @classmethod
    def from_name(cls, name: str) -> "AlgebraKind":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown algebra kind {name!r}") from None


# Hamilton table, row a, column b -> (index, sign) of e_a e_b
_HAMILTON = [
    [(0, 1), (1, 1), (2, 1), (3, 1)],
    [(1, 1), (0, -1), (3, 1), (2, -1)],
    [(2, 1), (3, -1), (0, -1), (1, 1)],
    [(3, 1), (2, 1), (1, -1), (0, -1)],
]


def _tensor_from_table(table) -> np.ndarray:
    d = len(table)
    t = np.zeros((d, d, d))
    for a in range(d):
        for b in range(d):
            c, s = table[a][b]
            t[a, b, c] = s
    return t


def _octonion_tensor(tq: np.ndarray) -> np.ndarray:
    sq = np.array([1.0, -1.0, -1.0, -1.0])

    def qmul(x, y):
        return np.einsum("abc,a,b->c", tq, x, y)

    eye = np.eye(4)
    t = np.zeros((8, 8, 8))
    for a in range(8):
        q1 = eye[a] if a < 4 else np.zeros(4)
        q2 = eye[a - 4] if a >= 4 else np.zeros(4)
        for b in range(8):
            p1 = eye[b] if b < 4 else np.zeros(4)
            p2 = eye[b - 4] if b >= 4 else np.zeros(4)
            t[a, b, :4] = qmul(q1, p1) - qmul(sq * p2, q2)
            t[a, b, 4:] = qmul(p2, q1) + qmul(q2, sq * p1)
    return t


_T_H = _tensor_from_table(_HAMILTON)
_TENSORS = {
    AlgebraKind.R: np.ones((1, 1, 1)),
    AlgebraKind.C: _tensor_from_table([[(0, 1), (1, 1)], [(1, 1), (0, -1)]]),
    AlgebraKind.H: _T_H,
    AlgebraKind.O: _octonion_tensor(_T_H),
}

_CONJ_SIGNS = {
    kind: np.concatenate([[1.0], -np.ones(kind.dim - 1)]) for kind in AlgebraKind
}


def structure_tensor(kind: AlgebraKind) -> np.ndarray:
    """Structure tensor T with (xy)_c = sum_ab T[a,b,c] x_a y_b."""
    return _TENSORS[kind]


# ---------------------------------------------------------------------------
# batched coefficient operations; the trailing axis is the coefficient axis


def mul_coeffs(kind: AlgebraKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return np.einsum("abc,...a,...b->...c", _TENSORS[kind], x, y)


def conj_coeffs(kind: AlgebraKind, x: np.ndarray) -> np.ndarray:
    return x * _CONJ_SIGNS[kind]


def norm_coeffs(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=-1))


def inv_coeffs(kind: AlgebraKind, x: np.ndarray) -> np.ndarray:
    n2 = np.sum(x * x, axis=-1, keepdims=True)
    if np.any(n2 == 0.0):
        raise ZeroDivisionError("zero element has no inverse")
    return conj_coeffs(kind, x) / n2


def mat_mul(kind: AlgebraKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient matrices over F: (ab)_ij = sum_k a_ik b_kj.

    a is (n, r, dim) and b is (r, p, dim). Every entry is a sum of binary
    products, so the product is defined over O as well; it is the one
    kernel behind matrix products, row actions and Hermitian pairings.
    """
    return np.einsum("abc,ika,kjb->ijc", _TENSORS[kind], a, b)


class AlgebraElement:
    """A single element of R, C, H or O.

    Thin wrapper around a read-only float64 coefficient vector. Supports
    +, -, unary -, * (same-kind element or real scalar) and / by a real
    scalar; everything else goes through the module functions.
    """

    __slots__ = ("kind", "coeffs")

    def __init__(self, kind: AlgebraKind, coeffs):
        arr = np.asarray(coeffs, dtype=float)
        if arr.shape != (kind.dim,):
            raise ValueError(
                f"kind {kind.name} expects {kind.dim} coefficients, got shape {arr.shape}"
            )
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coeffs", arr)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors

    @classmethod
    def zero(cls, kind: AlgebraKind) -> "AlgebraElement":
        return cls(kind, np.zeros(kind.dim))

    @classmethod
    def one(cls, kind: AlgebraKind) -> "AlgebraElement":
        c = np.zeros(kind.dim)
        c[0] = 1.0
        return cls(kind, c)

    @classmethod
    def unit(cls, kind: AlgebraKind, index: int) -> "AlgebraElement":
        c = np.zeros(kind.dim)
        c[index] = 1.0
        return cls(kind, c)

    @classmethod
    def from_real(cls, kind: AlgebraKind, value: float) -> "AlgebraElement":
        c = np.zeros(kind.dim)
        c[0] = float(value)
        return cls(kind, c)

    @classmethod
    def from_complex(cls, kind: AlgebraKind, value: complex) -> "AlgebraElement":
        if kind.dim < 2:
            raise ValueError("kind R cannot hold an imaginary part")
        c = np.zeros(kind.dim)
        c[0], c[1] = value.real, value.imag
        return cls(kind, c)

    # -- arithmetic

    def _check(self, other: "AlgebraElement"):
        if self.kind is not other.kind:
            raise ValueError(f"kind mismatch: {self.kind.name} vs {other.kind.name}")

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(self.kind, self.coeffs + other.coeffs)

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(self.kind, self.coeffs - other.coeffs)

    def __neg__(self):
        return AlgebraElement(self.kind, -self.coeffs)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            self._check(other)
            return AlgebraElement(self.kind, mul_coeffs(self.kind, self.coeffs, other.coeffs))
        return AlgebraElement(self.kind, self.coeffs * float(other))

    def __rmul__(self, other):
        return AlgebraElement(self.kind, self.coeffs * float(other))

    def __truediv__(self, other):
        return AlgebraElement(self.kind, self.coeffs / float(other))

    def conj(self) -> "AlgebraElement":
        return AlgebraElement(self.kind, conj_coeffs(self.kind, self.coeffs))

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def norm_sq(self) -> float:
        return float(np.dot(self.coeffs, self.coeffs))

    def inv(self) -> "AlgebraElement":
        n2 = self.norm_sq()
        if n2 == 0.0:
            raise ZeroDivisionError("zero element has no inverse")
        return AlgebraElement(self.kind, conj_coeffs(self.kind, self.coeffs) / n2)

    @property
    def re(self) -> float:
        return float(self.coeffs[0])

    def im(self) -> "AlgebraElement":
        c = self.coeffs.copy()
        c[0] = 0.0
        return AlgebraElement(self.kind, c)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def embed(self, kind: AlgebraKind) -> "AlgebraElement":
        if kind.dim < self.kind.dim:
            raise ValueError(f"cannot embed {self.kind.name} into smaller {kind.name}")
        c = np.zeros(kind.dim)
        c[: self.kind.dim] = self.coeffs
        return AlgebraElement(kind, c)

    # -- misc

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.kind is other.kind
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.kind, self.coeffs.tobytes()))

    def __repr__(self):
        vals = ", ".join(f"{v:.6g}" for v in self.coeffs)
        return f"{self.kind.name}[{vals}]"

    def to_list(self) -> list:
        return [float(v) for v in self.coeffs]


# ---------------------------------------------------------------------------
# module-level operations


def pairing(xs, ys) -> AlgebraElement:
    """Hermitian pairing sum_i x_i conj(y_i) of two equal-length sequences."""
    kind = xs[0].kind
    x = np.array([v.coeffs for v in xs])
    y = conj_coeffs(kind, np.array([v.coeffs for v in ys]))
    return AlgebraElement(kind, mat_mul(kind, x[None], y[:, None])[0, 0])


def split(a: AlgebraElement) -> tuple[float, AlgebraElement]:
    """Decompose a = re + im with re real and im purely imaginary."""
    return a.re, a.im()


def isclose(a: AlgebraElement, b: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Coefficientwise comparison at tol scaled by the largest operand norm."""
    a._check(b)
    scale = max(1.0, a.norm(), b.norm())
    return bool(np.all(np.abs(a.coeffs - b.coeffs) <= tol * scale))


def random_element(kind: AlgebraKind, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    """Element with independent N(0, scale^2) coefficients."""
    return AlgebraElement(kind, scale * rng.standard_normal(kind.dim))


def random_imaginary(kind: AlgebraKind, rng: np.random.Generator, scale: float = 1.0) -> AlgebraElement:
    c = scale * rng.standard_normal(kind.dim)
    c[0] = 0.0
    return AlgebraElement(kind, c)


def random_unit(kind: AlgebraKind, rng: np.random.Generator) -> AlgebraElement:
    while True:
        x = rng.standard_normal(kind.dim)
        n = np.linalg.norm(x)
        if n > 1e-6:
            return AlgebraElement(kind, x / n)

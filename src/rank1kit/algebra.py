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
batched coefficient arrays then share one code path. It multiplies the
right factor by T with one matmul, which is exact because each (a, c)
meets a single b, and then sums over the left factor's index a in order.
Summing in that order keeps every product bit-identical to the plain
einsum over T.
"""

from __future__ import annotations

import enum
import math

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
    "decode_coeffs",
    "decode_complex",
    "encode_complex",
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

    def __init__(self, value):
        # a plain attribute: the real dimension is read on every kernel call
        self.dim = value

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
    kind.dim: np.concatenate([[1.0], -np.ones(kind.dim - 1)]) for kind in AlgebraKind
}


def structure_tensor(kind: AlgebraKind) -> np.ndarray:
    """Structure tensor T with (xy)_c = sum_ab T[a,b,c] x_a y_b."""
    return _TENSORS[kind]


# ---------------------------------------------------------------------------
# batched coefficient operations; the trailing axis is the coefficient axis

# [b, (a, c)] = T[a, b, c]: y @ _RIGHT[kind] gives the left-multiplication
# table sum_b T[a, b, c] y_b of y, whose entries are single signed coefficients
# (keyed by dim, which hashes faster than the enum)
_RIGHT = {
    kind.dim: t.transpose(1, 0, 2).reshape(kind.dim, kind.dim * kind.dim)
    for kind, t in _TENSORS.items()
}
# y @ _RIGHT_CONJ[kind] is the table of conj(y): each column of _RIGHT holds
# one +-1, so flipping the signs of its rows is exact
_RIGHT_CONJ = {d: _CONJ_SIGNS[d][:, None] * right for d, right in _RIGHT.items()}
# rows per block of mul_coeffs, which keeps its (rows, dim, dim) table small
_BLOCK = 1024
_reduce = np.add.reduce


def _frozen(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place."""
    a.setflags(write=False)
    return a


def mul_coeffs(kind: AlgebraKind, x, y) -> np.ndarray:
    """Products x y of broadcast coefficient arrays (..., dim).

    A large batch walks its leading axis in blocks of _BLOCK rows, so
    the (rows, dim, dim) multiplication table stays small.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = kind.dim
    if x.size <= _BLOCK * d >= y.size:
        # the sum over a runs in order down a non-contiguous axis
        return _reduce(x[..., :, None] * (y @ _RIGHT[d]).reshape(y.shape[:-1] + (d, d)), axis=-2)
    x, y = np.broadcast_arrays(x, y)
    out = np.empty(x.shape)
    for start in range(0, len(x), _BLOCK):
        rows = slice(start, start + _BLOCK)
        table = y[rows] @ _RIGHT[d]
        table = table.reshape(table.shape[:-1] + (d, d))
        table *= x[rows, ..., :, None]
        _reduce(table, axis=-2, out=out[rows])
    return out


def conj_coeffs(kind: AlgebraKind, x: np.ndarray) -> np.ndarray:
    return x * _CONJ_SIGNS[kind.dim]


def norm_coeffs(x: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(x * x, axis=-1))


def inv_coeffs(kind: AlgebraKind, x: np.ndarray) -> np.ndarray:
    """Inverses conj(x) / |x|^2 of coefficient arrays (..., dim).

    |x|^2 overflows for |x| above about 1.3e154 and underflows to 0
    below about 1.5e-162. The floating-point error that either raises
    (an overflow, or a division by zero) sends the call to
    _rescaled_inverse, which inverts those rows after an exact
    power-of-two rescale, so every other row keeps its bits and no
    warning is printed. A zero element raises ZeroDivisionError.
    """
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            n2 = _reduce(x * x, axis=-1, keepdims=True)
            out = x * _CONJ_SIGNS[kind.dim]
            out /= n2
    except FloatingPointError:
        return _rescaled_inverse(kind, x)
    return out


def _rescaled_inverse(kind: AlgebraKind, x: np.ndarray) -> np.ndarray:
    signs = _CONJ_SIGNS[kind.dim]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        n2 = _reduce(x * x, axis=-1, keepdims=True)
        bad = ((n2 == 0.0) | (n2 == math.inf))[..., 0]
        # x = 2^e y with max |y_a| in [1/2, 1), so conj(x) / |x|^2 = 2^-e conj(y) / |y|^2
        e = np.frexp(np.abs(x[bad]).max(axis=-1, keepdims=True))[1]
        y = np.ldexp(x[bad], -e)
        y2 = _reduce(y * y, axis=-1, keepdims=True)
        if not y2.all():
            raise ZeroDivisionError("zero element has no inverse")
        out = x * signs
        out /= n2
        out[bad] = np.ldexp(y * signs / y2, -e)
    return out


def mat_mul(kind: AlgebraKind, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of coefficient matrices over F: (ab)_ij = sum_k a_ik b_kj.

    a is (..., n, r, dim) and b is (..., r, p, dim), with broadcast
    leading axes. Every entry is a sum of binary products, summed over
    k and then a in order, so the product is defined over O as well; it
    is the one kernel behind matrix products, row actions and Hermitian
    pairings.
    """
    d = kind.dim
    r, p = b.shape[-3], b.shape[-2]
    # [..., j, (k, a), c]: the table of b_kj, rows ordered by k, then a
    table = (b.swapaxes(-3, -2) @ _RIGHT[d]).reshape(b.shape[:-3] + (1, p, r * d, d))
    return _reduce(a.reshape(a.shape[:-2] + (1, r * d, 1)) * table, axis=-2)


def pairing(kind: AlgebraKind, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Hermitian pairing sum_i x_i conj(y_i) of (..., r, dim) arrays
    with the same r."""
    d = kind.dim
    # rows ordered by i, then a, as in mat_mul; sizes spelled out, as -1 cannot resolve an empty batch
    table = (y @ _RIGHT_CONJ[d]).reshape(y.shape[:-2] + (y.shape[-2] * d, d))
    return _reduce(x.reshape(x.shape[:-2] + (x.shape[-2] * d, 1)) * table, axis=-2)


def decode_coeffs(value, shape: tuple, field: str) -> np.ndarray:
    """Validated float array of the given shape from nested JSON lists.

    Every leaf must be a finite JSON number; booleans, strings, NaN and
    infinities raise ValueError naming the field.
    """
    def walk(v, dims, where):
        if not dims:
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                raise ValueError(f"field {where!r} must be a number")
            try:
                v = float(v)
            except OverflowError:
                v = math.inf
            if not math.isfinite(v):
                raise ValueError(f"field {where!r} must be a finite number")
            return v
        if not isinstance(v, list) or len(v) != dims[0]:
            raise ValueError(f"field {where!r} must be a list of {dims[0]}")
        return [walk(e, dims[1:], f"{where}[{i}]") for i, e in enumerate(v)]

    return np.array(walk(value, tuple(shape), field), dtype=float).reshape(shape)


def decode_complex(value, field: str) -> complex:
    """A complex number from JSON: a finite number, or an [re, im] pair of
    finite numbers; anything else raises ValueError naming the field."""
    pair = value if isinstance(value, list) else [value, 0.0]
    try:
        re, im = decode_coeffs(pair, (2,), field)
    except ValueError:
        raise ValueError(f"field {field!r} must be a finite number or an [re, im] pair of them") from None
    return complex(re, im)


def encode_complex(z):
    """The JSON form decode_complex reads: a plain number when real, else an
    [re, im] pair; a number with an infinite part encodes as "inf"."""
    z = complex(z)
    if math.isinf(z.real) or math.isinf(z.imag):
        return "inf"
    return z.real if z.imag == 0.0 else [z.real, z.imag]


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
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "coeffs", _frozen(arr.copy()))

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
        return AlgebraElement(self.kind, inv_coeffs(self.kind, self.coeffs))

    @property
    def re(self) -> float:
        return float(self.coeffs[0])

    def im(self) -> "AlgebraElement":
        c = self.coeffs.copy()
        c[0] = 0.0
        return AlgebraElement(self.kind, c)

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


def split(a: AlgebraElement) -> tuple[float, AlgebraElement]:
    """Decompose a = re + im with re real and im purely imaginary."""
    return a.re, a.im()


def isclose(a: AlgebraElement, b: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Coefficientwise comparison at tol scaled by the largest operand norm."""
    a._check(b)
    scale = max(1.0, a.norm(), b.norm())
    return bool(np.all(np.abs(a.coeffs - b.coeffs) <= tol * scale))


def random_element(kind: AlgebraKind, rng: np.random.Generator) -> AlgebraElement:
    """Element with independent N(0, 1) coefficients."""
    return AlgebraElement(kind, rng.standard_normal(kind.dim))


def random_imaginary(kind: AlgebraKind, rng: np.random.Generator) -> AlgebraElement:
    c = rng.standard_normal(kind.dim)
    c[0] = 0.0
    return AlgebraElement(kind, c)


def random_unit(kind: AlgebraKind, rng: np.random.Generator) -> AlgebraElement:
    while True:
        x = rng.standard_normal(kind.dim)
        n = np.linalg.norm(x)
        if n > 1e-6:
            return AlgebraElement(kind, x / n)

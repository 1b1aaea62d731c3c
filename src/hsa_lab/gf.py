"""Exact arithmetic over prime fields F_q and dense linear algebra on top of it.

Matrices are read-only numpy int64 arrays of residues in [0, q).  Validate at
the edge, trust inside: the public FieldMatrix constructor copies, checks and
reduces its input; the results built here are wrapped without a copy.  All
operations are exact: products route through an overflow-safe path and row
reduction uses deterministic pivoting (leftmost nonzero column, first row
with a nonzero entry), so reduced forms are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CauchyDegenerate,
    DivisionByZero,
    InvalidArgument,
    NoSuchRoot,
    ShapeError,
    SingularMatrix,
)

_MAX_Q = 2**31
_INT64_MAX = 2**63 - 1


def is_prime(n: int) -> bool:
    """Primality by trial division; adequate for moduli up to 2**31."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n, ascending."""
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_q.  q is validated at construction."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or not is_prime(self.q):
            raise InvalidArgument(f"modulus {self.q!r} is not prime")
        if self.q > _MAX_Q:
            raise InvalidArgument(f"modulus {self.q} exceeds the 2**31 limit")

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def inv(self, a: int) -> int:
        """Multiplicative inverse via the extended Euclidean algorithm."""
        a = a % self.q
        if a == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.q}")
        old_r, r = self.q, a
        old_t, t = 0, 1
        while r != 0:
            quo = old_r // r
            old_r, r = r, old_r - quo * r
            old_t, t = t, old_t - quo * t
        return old_t % self.q

    def rand(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.integers(0, self.q, size=size, dtype=np.int64)

    def __repr__(self):
        return f"F_{self.q}"


class FieldMatrix:
    """Dense matrix over a prime field, immutable after construction."""

    __slots__ = ("field", "a")

    def __init__(self, field: PrimeField, entries):
        arr = np.array(entries, dtype=np.int64)
        if arr.ndim != 2:
            raise ShapeError(f"expected a 2-d array, got ndim={arr.ndim}")
        arr %= field.q
        arr.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", arr)

    @classmethod
    def _wrap(cls, field: PrimeField, arr: np.ndarray) -> "FieldMatrix":
        """No-copy constructor: arr is 2-d int64, reduced mod q, never written again."""
        arr.flags.writeable = False
        m = object.__new__(cls)
        object.__setattr__(m, "field", field)
        object.__setattr__(m, "a", arr)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    # -- structure ---------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def T(self) -> "FieldMatrix":
        return FieldMatrix._wrap(self.field, self.a.T)

    def row(self, r: int) -> np.ndarray:
        return self.a[r]

    def take_rows(self, idx: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix._wrap(self.field, self.a[list(idx), :])

    def take_cols(self, idx: Sequence[int]) -> "FieldMatrix":
        return FieldMatrix._wrap(self.field, self.a[:, list(idx)])

    def tolist(self) -> list[list[int]]:
        return self.a.tolist()

    def is_zero(self) -> bool:
        return not self.a.any()

    def __eq__(self, other):
        return (
            isinstance(other, FieldMatrix)
            and self.field == other.field
            and self.a.shape == other.a.shape
            and bool(np.array_equal(self.a, other.a))
        )

    def __hash__(self):
        return hash((self.field.q, self.a.shape, self.a.tobytes()))

    def __repr__(self):
        return f"FieldMatrix({self.field}, {self.a.tolist()})"

    # -- arithmetic --------------------------------------------------------

    def _check_same_field(self, other: "FieldMatrix"):
        if self.field != other.field:
            raise ShapeError("operands live in different fields")

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.a.shape != other.a.shape:
            raise ShapeError(f"shape mismatch {self.a.shape} + {other.a.shape}")
        return FieldMatrix._wrap(self.field, (self.a + other.a) % self.field.q)

    def __sub__(self, other: "FieldMatrix") -> "FieldMatrix":
        return self + (-other)

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix._wrap(self.field, (-self.a) % self.field.q)

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.a.shape} by {other.a.shape}")
        return FieldMatrix._wrap(self.field, _matmul(self.a, other.a, self.field.q))

    # -- linear algebra ----------------------------------------------------

    def rank(self) -> int:
        return len(_rref(self.a, self.field)[1])

    def inverse(self) -> "FieldMatrix":
        """Inverse of a square nonsingular matrix (Gauss-Jordan).

        Raises:
            ShapeError: if the matrix is not square.
            SingularMatrix: if no inverse exists.
        """
        n = self.rows
        if n != self.cols:
            raise ShapeError(f"cannot invert a {self.rows}x{self.cols} matrix")
        aug = np.hstack([self.a, np.eye(n, dtype=np.int64)])
        red, pivots = _rref(aug, self.field)
        if pivots != list(range(n)):
            raise SingularMatrix(f"matrix of rank {len(pivots)} < {n} has no inverse")
        return FieldMatrix._wrap(self.field, red[:, n:])


def _matmul(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    # int64 products are exact as long as the accumulated dot cannot overflow
    if (q - 1) * (q - 1) * inner <= _INT64_MAX:
        return (a @ b) % q
    return ((a.astype(object) @ b.astype(object)) % q).astype(np.int64)


def _rref(a: np.ndarray, field: PrimeField) -> tuple[np.ndarray, list[int]]:
    q = field.q
    m = a.copy()  # the caller's array stays untouched
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        m[r] = (m[r] * field.inv(int(m[r, c]))) % q
        others = np.nonzero(m[:, c])[0]
        for o in others:
            if o != r:
                m[o] = (m[o] - m[o, c] * m[r]) % q
        pivots.append(c)
        r += 1
    return m, pivots


# -- constructors ------------------------------------------------------------


def zeros(field: PrimeField, rows: int, cols: int) -> FieldMatrix:
    return FieldMatrix._wrap(field, np.zeros((rows, cols), dtype=np.int64))


def identity(field: PrimeField, n: int) -> FieldMatrix:
    return FieldMatrix._wrap(field, np.eye(n, dtype=np.int64))


def hstack(mats: Iterable[FieldMatrix]) -> FieldMatrix:
    mats = list(mats)
    return FieldMatrix._wrap(mats[0].field, np.hstack([m.a for m in mats]))


def vstack(mats: Iterable[FieldMatrix]) -> FieldMatrix:
    mats = list(mats)
    return FieldMatrix._wrap(mats[0].field, np.vstack([m.a for m in mats]))


# -- structured matrices ------------------------------------------------------


def cauchy(alphas: Sequence[int], betas: Sequence[int], field: PrimeField) -> FieldMatrix:
    """Matrix with entry (i, j) = 1 / (alpha_i + beta_j).

    Requires the alphas pairwise distinct, the betas pairwise distinct and
    every alpha_i + beta_j nonzero, all modulo q; such a matrix has every
    square submatrix nonsingular.

    Raises:
        CauchyDegenerate: if any requirement fails.
    """
    q = field.q
    al = [a % q for a in alphas]
    be = [b % q for b in betas]
    if len(set(al)) != len(al):
        raise CauchyDegenerate("alpha parameters collide mod q")
    if len(set(be)) != len(be):
        raise CauchyDegenerate("beta parameters collide mod q")
    ent = np.zeros((len(al), len(be)), dtype=np.int64)
    for i, a in enumerate(al):
        for j, b in enumerate(be):
            s = (a + b) % q
            if s == 0:
                raise CauchyDegenerate(f"alpha_{i} + beta_{j} = 0 mod {q}")
            ent[i, j] = field.inv(s)
    return FieldMatrix(field, ent)


def circulant(first_row: Sequence[int], field: PrimeField) -> FieldMatrix:
    """K x K circulant; row r is the first row cyclically right-shifted r-1 times,
    so row 2 begins with the last entry of row 1."""
    base = np.array(first_row, dtype=np.int64) % field.q
    k = base.size
    rows = [np.roll(base, r) for r in range(k)]
    return FieldMatrix(field, np.vstack(rows))


def vandermonde(points: Sequence[int], n_rows: int, field: PrimeField) -> FieldMatrix:
    """n_rows x len(points) matrix with entry (i, j) = points_j ** i.

    With pairwise distinct points every n_rows x n_rows submatrix is a
    Vandermonde matrix on distinct nodes, hence nonsingular.
    """
    q = field.q
    pts = [p % q for p in points]
    if len(set(pts)) != len(pts):
        raise InvalidArgument("evaluation points must be distinct mod q")
    ent = np.zeros((n_rows, len(pts)), dtype=np.int64)
    for j, p in enumerate(pts):
        v = 1
        for i in range(n_rows):
            ent[i, j] = v
            v = (v * p) % q
    return FieldMatrix(field, ent)


def mds_check(m: FieldMatrix) -> bool:
    """True iff every rows x rows column-submatrix is nonsingular.

    Exhaustive over all C(cols, rows) column choices; intended for the small
    matrices this package builds (at most a few dozen columns).

    Raises:
        ShapeError: if rows > cols.
    """
    if m.rows > m.cols:
        raise ShapeError(f"mds_check needs rows <= cols, got {m.rows}x{m.cols}")
    if m.rows == 0:
        return True
    for sel in combinations(range(m.cols), m.rows):
        if m.take_cols(sel).rank() < m.rows:
            return False
    return True


def root_of_unity(field: PrimeField, t: int) -> int:
    """A primitive t-th root of unity in F_q, found by powering a generator.

    Raises:
        NoSuchRoot: if t does not divide q - 1.
    """
    q = field.q
    if t < 1 or (q - 1) % t != 0:
        raise NoSuchRoot(f"{t} does not divide {q - 1}")
    if t == 1:
        return 1
    facs = prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // p, q) != 1 for p in facs):
            return pow(g, (q - 1) // t, q)
    raise NoSuchRoot(f"no generator found for F_{q}")  # unreachable for prime q

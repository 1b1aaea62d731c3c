"""Exact arithmetic over prime fields F_q and dense linear algebra on top of it.

Matrices are read-only numpy arrays of residues in [0, q).  Validate at the
edge, trust inside: the public FieldMatrix constructor copies, checks and
reduces its input into int64; the results built here are signed integer
residues wrapped without a copy, int64 except in the round simulator: its
`_matmul` and `_sum` compute in the first of int8/int16/int32/int64 that is no
narrower than their narrowest operand and holds their bound.  All operations
are exact: products route through an overflow-safe path, and elimination
pivots deterministically (leftmost nonzero column, first row with a nonzero
entry at or below the row pointer).  Every elimination is fraction-free and
runs a stack of matrices in lockstep, one matrix as a block of one: a row
becomes pivot * row - entry * pivot_row, exact in int64 since q <= 2**31.
`_lockstep_ranks` takes ranks, `_inverses` inverses (with one modular inverse
per diagonal entry, at the end) and `_all_nonsingular` `mds_check`'s minors.
Every reduction whose size grows with columns or minors (the constructor,
sums, negation, products, the elimination updates) goes through `_reduce`,
x - (x // q) * q, which numpy vectorizes where it does not vectorize `%`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice
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
_SIGNED = tuple(np.dtype(t) for t in (np.int8, np.int16, np.int32, np.int64))
_SIGNED_MAX = tuple(int(np.iinfo(t).max) for t in _SIGNED)
_MINOR_CHUNK = 4096  # minors judged per batch by mds_check


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
        # the limit first: trial division up to sqrt(2**61) would run for minutes
        if isinstance(self.q, int) and self.q > _MAX_Q:
            raise InvalidArgument(f"modulus {self.q} exceeds the 2**31 limit")
        if not isinstance(self.q, int) or not is_prime(self.q):
            raise InvalidArgument(f"modulus {self.q!r} is not prime")

    def neg(self, a: int) -> int:
        return (-a) % self.q

    def inv(self, a: int) -> int:
        """Multiplicative inverse, by Python's modular pow."""
        if a % self.q == 0:
            raise DivisionByZero(f"0 has no inverse in F_{self.q}")
        return pow(int(a), -1, self.q)

    def rand(self, rng: np.random.Generator, size: tuple[int, ...]) -> np.ndarray:
        """Uniform int64 residues; MemoryError, not numpy's ValueError, past numpy's
        largest array."""
        if math.prod(size) * 8 > _INT64_MAX:
            raise MemoryError(f"an int64 array of shape {size} exceeds numpy's largest array")
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
        _reduce(arr, field.q)
        arr.flags.writeable = False
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "a", arr)

    @classmethod
    def _wrap(cls, field: PrimeField, arr: np.ndarray) -> "FieldMatrix":
        """No-copy constructor: arr is 2-d signed integer and reduced mod q, and is not written
        while the wrapper is in use; it may be a view of a buffer whose other rows are."""
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
        # equal matrices may hold different dtypes, so hash the int64 bytes
        return hash((self.field.q, self.a.shape, self.a.astype(np.int64, copy=False).tobytes()))

    def __repr__(self):
        return f"FieldMatrix({self.field}, {self.a.tolist()})"

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "FieldMatrix":
        return FieldMatrix._wrap(self.field, _reduce(-self.a, self.field.q))

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.field != other.field:
            raise ShapeError("operands live in different fields")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.a.shape} by {other.a.shape}")
        return FieldMatrix._wrap(self.field, _matmul(self.field.q, (self.a, other.a)))

    # -- linear algebra ----------------------------------------------------

    def rank(self) -> int:
        # a block of one: the int64 copy is the fresh stack the kernel eliminates
        return int(_lockstep_ranks(self.a.astype(np.int64)[None], self.field.q)[0])

    def inverse(self) -> "FieldMatrix":
        """Inverse of a square nonsingular matrix, a block of one of `_inverses`.

        Raises:
            ShapeError: if the matrix is not square.
            SingularMatrix: if no inverse exists.
        """
        if self.rows != self.cols:
            raise ShapeError(f"cannot invert a {self.rows}x{self.cols} matrix")
        return FieldMatrix._wrap(self.field, _inverses(self.a[None], self.field.q)[0])


def _reduce(x: np.ndarray, q: int) -> np.ndarray:
    """Reduce the signed integer array x mod q in place and return it; x must be fresh.

    numpy vectorizes floor division by a scalar but not `%`, so this is the
    faster form on large arrays.  It equals Python's `%` entry by entry: `//`
    floors, and a wrap in `t *= q` cancels in `x -= t`.
    """
    t = x // q
    t *= q
    x -= t
    return x


def _narrowest(bound: int, floor: np.dtype = _SIGNED[0]) -> np.dtype:
    """The first of int8/int16/int32/int64, no narrower than floor, whose maximum
    holds bound; int64 if none does."""
    return next((t for t, top in zip(_SIGNED, _SIGNED_MAX)
                 if t.itemsize >= floor.itemsize and bound <= top), _SIGNED[-1])


def _dtype_for(bound: int, arrays) -> np.dtype:
    """`_narrowest(bound)` no narrower than the narrowest of the arrays' dtypes.

    bound is at least q - 1 unless the arrays are empty, so the dtype holds
    every residue, and the wider operands can be cast down to it."""
    return _narrowest(bound, min((x.dtype for x in arrays), key=lambda d: d.itemsize))


def _sum(q: int, arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Sum of the residue arrays mod q, reduced once, in `_dtype_for(count * (q - 1))`."""
    total = arrays[0].astype(_dtype_for(len(arrays) * (q - 1), arrays))
    for x in arrays[1:]:
        total += x
    return _reduce(total, q)


def _matmul(q: int, *terms: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Sum of a @ b over the (a, b) terms, mod q, reduced once while the sum is exact,
    in `_dtype_for((q - 1)**2 * sum of inner sizes)`; past int64, of the terms
    reduced one by one (a lone term: by object dtype)."""
    bound = (q - 1) * (q - 1) * sum(a.shape[1] for a, _ in terms)
    dt = _dtype_for(bound, [x for term in terms for x in term])
    terms = tuple((a.astype(dt, copy=False), b.astype(dt, copy=False)) for a, b in terms)
    fits = bound <= _INT64_MAX
    if not fits and len(terms) == 1:
        return ((terms[0][0].astype(object) @ terms[0][1].astype(object)) % q).astype(np.int64)
    # einsum runs integer products with thousands of columns about twice as fast as `@`
    parts = (np.einsum("ij,jk->ik", a, b) if fits else _matmul(q, (a, b)) for a, b in terms)
    total = next(parts)
    for part in parts:
        total += part
    return _reduce(total, q)


def _all_nonsingular(stack: np.ndarray, q: int) -> bool:
    """True iff every matrix of the (B, n, n) stack is nonsingular.

    Eliminates all B matrices in lockstep, fraction-free, in an int64 copy
    whatever the stack's dtype: at step k each one needs a nonzero at or
    below row k in column k, and the first matrix without one ends the check.
    """
    m = stack.astype(np.int64)
    b, n, _ = m.shape
    batch = np.arange(b)
    for k in range(n):
        nz = m[:, k:, k] != 0
        if not nz.any(axis=1).all():
            return False
        p = k + nz.argmax(axis=1)
        pivot_rows = m[batch, p]
        m[batch, p] = m[:, k]
        m[:, k] = pivot_rows
        m[:, k + 1:, k + 1:] = _reduce(pivot_rows[:, k, None, None] * m[:, k + 1:, k + 1:]
                                       - m[:, k + 1:, k, None] * pivot_rows[:, None, k + 1:], q)
    return True


def _inverses(stack: np.ndarray, q: int) -> np.ndarray:
    """Inverses over F_q of each matrix of a (B, n, n) stack, as a new int64 stack;
    SingularMatrix if one of them has none.

    Gauss-Jordan on every [A | I] in lockstep, in an int64 copy: at step k each
    matrix pivots on its first nonzero at or below row k in column k and clears
    that column from every other row, fraction-free.  Each left half ends
    diagonal, d; each right half, row r divided by d[r], is then an inverse.
    """
    b, n, _ = stack.shape
    m = np.dstack([stack.astype(np.int64), np.broadcast_to(np.eye(n, dtype=int), stack.shape)])
    batch = np.arange(b)
    for k in range(n):
        nz = m[:, k:, k] != 0
        if not (pivoted := nz.any(axis=1)).all():
            raise SingularMatrix(f"matrix {int(pivoted.argmin())} of the stack is singular")
        p = k + nz.argmax(axis=1)
        pivot_rows = m[batch, p]
        m[batch, p] = m[:, k]
        m = _reduce(pivot_rows[:, k, None, None] * m - m[:, :, k, None] * pivot_rows[:, None, :], q)
        m[:, k] = pivot_rows  # the update cleared the pivot row itself
    # one Python pow per diagonal entry; int64 even when the diagonal is empty
    scale = [pow(d, -1, q) for d in m.diagonal(axis1=1, axis2=2).ravel().tolist()]
    return _reduce(m[:, :, n:] * np.array(scale, dtype=np.int64).reshape(b, n, 1), q)


def _lockstep_ranks(stack: np.ndarray, q: int) -> np.ndarray:
    """Ranks over F_q of each matrix of a fresh (B, rows, cols) stack, which
    is eliminated in place, all matrices together.

    Each step, every matrix that is not yet zero pivots on the first nonzero
    of its first nonzero column and clears that column from all of its rows
    fraction-free, pivot * row - row[col] * pivot_row.  The pivot row turns
    to zero and is independent of the rows left, which all vanish in the
    column, so the step adds 1 to the rank; after `rows` steps every matrix
    is zero.  Both products stay below q**2 <= 2**62, so int64 is exact for
    every q < 2**31.
    """
    m = stack.transpose(0, 2, 1)  # (B, cols, rows): column-major order finds the pivot
    left, (_, cols, rows) = np.arange(len(m)), m.shape
    ranks = np.zeros(len(m), dtype=np.int64)
    for _ in range(rows if m.size else 0):
        nonzero = (m != 0).reshape(len(m), cols * rows)
        first = nonzero.argmax(axis=1)
        if not (pivoted := nonzero[np.arange(len(m)), first]).all():
            left, m, first = left[pivoted], m[pivoted], first[pivoted]
            if not left.size:
                break
        ranks[left] += 1
        b, (c, p) = np.arange(len(m)), np.divmod(first, rows)
        pivot_row, column = m[b, :, p], m[b, c]
        m *= pivot_row[b, c][:, None, None]
        m -= pivot_row[:, :, None] * column[:, None]
        _reduce(m, q)
    return ranks


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

    Exhaustive over all C(cols, rows) column choices, judged a batch of minors
    at a time; intended for the small matrices this package builds (at most a
    few dozen columns).

    Raises:
        ShapeError: if rows > cols.
    """
    if m.rows > m.cols:
        raise ShapeError(f"mds_check needs rows <= cols, got {m.rows}x{m.cols}")
    combos = combinations(range(m.cols), m.rows)
    while (chunk := np.fromiter(chain.from_iterable(islice(combos, _MINOR_CHUNK)),
                                dtype=np.intp)).size:
        # minors[b, i, j] = m[i, chunk[b][j]]
        minors = m.a[:, chunk.reshape(-1, m.rows)].transpose(1, 0, 2)
        if not _all_nonsingular(minors, m.field.q):
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

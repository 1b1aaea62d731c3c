"""Concrete secure-aggregation codes for three-layer networks.

Every scheme is a key generator composed with a fixed placement of each
user's key symbols on its n links.  `key_map` sends the seed vector to the
user keys; `Scheme.key_spreads` place each user's keys on its links, and
`Scheme.link_keys` is the derived map from seeds to link keys that the
protocol and every certificate read.  Two families are built here:

* variant "A"  - n independent key symbols per user, one per link, with the
  last user's keys derived so that all masks cancel under the server's
  decoding matrix.  Works on any homogeneous topology, key rates (1, N-1).
* variant "BL" - a single key symbol per user, spread over that user's
  links by a weight matrix whose product with the key generator and the
  decoding matrix vanishes.  Needs a (multiple) cyclic topology, key rates
  (1/n, (t_u+m)/n).

Both families share the input encoding: user i multiplies its length-n
input block by the inverse of the decoding matrix's column block for its
relays, so that plain per-relay sums already carry the aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Optional

import numpy as np

from . import gf
from .bounds import RateTuple
from .errors import (
    CauchyDegenerate,
    ConstructionFailed,
    FieldTooSmall,
    InfeasibleParameters,
    InvalidArgument,
    ShapeError,
    SingularMatrix,
    as_int,
    at_least_one,
)
from .gf import FieldMatrix, PrimeField
from .topology import Topology, build_multiple_cyclic, cyclic_copies

VARIANT_LINK_KEYS = "A"
VARIANT_WEIGHTED = "BL"

_SCHEME_SCHEMA = "hsa-lab/scheme/1"

# the checks that can reject a build_scheme_b candidate, in the order it runs them
_B_REJECTIONS = ("Cauchy degenerate", "block sum not MDS", "singular completion",
                 "null block not MDS", "circulant singular", "decoder not MDS")


@dataclass(frozen=True)
class Scheme:
    """A fully instantiated aggregation code.

    decode_matrix is n x K; encoders[i-1] is the n x n inverse of its
    column block for user i's relays.  key_map sends the seed vector to
    the concatenated user keys: keys_per_user columns per user, n for
    variant A and 1 for variant BL.  key_weights is the N x K link weight
    matrix of variant BL, None for variant A.  link_keys (seeds x N*n) is
    derived and never serialized, as are the gather tables stack_rows, whose
    first N*n rows are the coefficients of every wire message that the
    adversary view and the rank route gather, stack_supports, stack_index
    and key_gather.
    """

    variant: str
    topology: Topology
    field: PrimeField
    decode_matrix: FieldMatrix
    encoders: tuple[FieldMatrix, ...]
    key_map: FieldMatrix
    key_weights: Optional[FieldMatrix] = None
    t_u: Optional[int] = None

    @property
    def seed_count(self) -> int:
        return self.key_map.rows

    @property
    def keys_per_user(self) -> int:
        return self.topology.n if self.variant == VARIANT_LINK_KEYS else 1

    def link_index(self, user: int, relay: int) -> int:
        """User-major index of link (user, relay), relays sorted within each user."""
        return (user - 1) * self.topology.n + self.topology.user_links[user - 1].index(relay)

    def column_block(self, user: int) -> FieldMatrix:
        """Columns of the decoding matrix indexed by the user's relays."""
        return _column_blocks(self.decode_matrix, self.topology)[user - 1]

    @cached_property
    def key_spreads(self) -> tuple[FieldMatrix, ...]:
        """Per user, the keys_per_user x n placement of its keys on its sorted links."""
        if self.variant == VARIANT_LINK_KEYS:
            return (gf.identity(self.field, self.topology.n),) * self.topology.N
        return tuple(FieldMatrix(self.field, [self.key_weights.a[i, [j - 1 for j in links]]])
                     for i, links in enumerate(self.topology.user_links))

    def user_key_map(self, user: int) -> FieldMatrix:
        """Seeds x keys_per_user map from the seed vector to one user's keys."""
        k = self.keys_per_user
        return self.key_map.take_cols(range((user - 1) * k, user * k))

    @cached_property
    def link_keys(self) -> FieldMatrix:
        """Seeds x N*n map from the seed vector to every link key, user-major."""
        return gf.hstack([self.user_key_map(i) @ self.key_spreads[i - 1]
                          for i in range(1, self.topology.N + 1)])

    @cached_property
    def stack_rows(self) -> np.ndarray:
        """Read-only, over (seeds, inputs): every row that a rank stack or the
        adversary view gathers.  Row link_index(i, j), one of the first N*n, is
        wire message (i, j): the link key, then the row of encoders[i-1] at
        relay j's position in user i's sorted relays, in user i's input
        columns.  Then one row per user key (its key_map column over the
        seeds, zero over the inputs), then a zero row."""
        big_n, n, seeds = self.topology.N, self.topology.n, self.seed_count
        rows = np.zeros((big_n * n + self.key_map.cols + 1, seeds + big_n * n), dtype=np.int64)
        rows[:big_n * n, :seeds] = self.link_keys.a.T
        for i, e in enumerate(self.encoders):  # block diagonal over the inputs
            rows[i * n:(i + 1) * n, seeds + i * n:seeds + (i + 1) * n] = e.a
        rows[big_n * n:-1, :seeds] = self.key_map.a.T
        rows.flags.writeable = False
        return rows

    @cached_property
    def stack_supports(self) -> np.ndarray:
        """Seed supports of stack_rows, packed as bits into uint64 words."""
        bits = np.packbits(self.stack_rows[:, :self.seed_count] != 0, axis=1, bitorder="little")
        pad = -bits.shape[1] % 8
        return np.pad(bits, ((0, 0), (0, pad))).view(np.uint64)

    @cached_property
    def stack_index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of stack_rows by 1-based id, row 0 unused: per relay, the row and
        the user of each of its links in relay_links order, padded to the
        largest relay degree with the zero row and user 0; per user, its key rows."""
        top, k, zero = self.topology, self.keys_per_user, len(self.stack_rows) - 1
        users = np.zeros((top.K + 1, max(map(len, top.relay_links), default=0)), dtype=np.intp)
        rows = np.full(users.shape, zero, dtype=np.intp)
        for j, linked in enumerate(top.relay_links, 1):
            users[j, :len(linked)] = linked
            rows[j, :len(linked)] = [self.link_index(i, j) for i in linked]
        keys = top.N * top.n + np.arange(-k, top.N * k, dtype=np.intp).reshape(-1, k)
        return rows, users, keys

    @cached_property
    def key_gather(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """derive_user_keys' split of key_map's columns: the unit columns (one
        nonzero, equal to 1) and the seed row each copies, then the other
        columns and, read-only, their transposed key map."""
        a = self.key_map.a
        unit = ((a != 0).sum(axis=0) == 1) & ((a == 1).sum(axis=0) == 1)
        rest_map = a[:, ~unit].T
        rest_map.flags.writeable = False
        return (np.flatnonzero(unit), np.nonzero(a[:, unit].T)[1], np.flatnonzero(~unit),
                rest_map)

    def to_dict(self) -> dict:
        return {
            "schema": _SCHEME_SCHEMA,
            "variant": self.variant,
            "field_q": self.field.q,
            "topology": self.topology.to_dict(),
            "decode_matrix": self.decode_matrix.tolist(),
            "encoders": [e.tolist() for e in self.encoders],
            "key_map": self.key_map.tolist(),
            "key_weights": None if self.key_weights is None else self.key_weights.tolist(),
            "t_u": self.t_u,
        }

    @staticmethod
    def from_dict(d: dict) -> "Scheme":
        if d.get("schema") != _SCHEME_SCHEMA:
            raise InvalidArgument(f"unsupported scheme schema {d.get('schema')!r}")
        field = PrimeField(as_int(d["field_q"], "field_q"))
        top = Topology.from_dict(d["topology"])
        variant = d["variant"]
        if variant not in (VARIANT_LINK_KEYS, VARIANT_WEIGHTED):
            raise InvalidArgument(f"unknown scheme variant {variant!r}")
        weights = d.get("key_weights")
        scheme = Scheme(
            variant=variant,
            topology=top,
            field=field,
            decode_matrix=_read_matrix(field, d["decode_matrix"], "decode_matrix"),
            encoders=tuple(_read_matrix(field, e, "encoders") for e in d["encoders"]),
            key_map=_read_matrix(field, d["key_map"], "key_map"),
            key_weights=None if weights is None else _read_matrix(field, weights, "key_weights"),
            t_u=None if d.get("t_u") is None else as_int(d["t_u"], "t_u"),
        )
        scheme._check_shapes()
        return scheme

    def _check_shapes(self):
        top, n = self.topology, self.topology.n
        if (self.decode_matrix.rows, self.decode_matrix.cols) != (n, top.K):
            raise InvalidArgument("decoding matrix shape does not match the topology")
        if len(self.encoders) != top.N or any(
                (e.rows, e.cols) != (n, n) for e in self.encoders):
            raise InvalidArgument("need one n x n encoder per user")
        key_cols = top.N * self.keys_per_user
        if self.key_map.cols != key_cols:
            raise InvalidArgument(f"key map must have {key_cols} columns")
        if self.variant == VARIANT_WEIGHTED:
            if self.key_weights is None or \
                    (self.key_weights.rows, self.key_weights.cols) != (top.N, top.K):
                raise InvalidArgument("weighted schemes need an N x K weight matrix")


def _read_matrix(field: PrimeField, rows, what: str) -> FieldMatrix:
    """A scheme-file matrix: a list of rows of integers that fit int64."""
    if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
        raise InvalidArgument(f"{what} must be a list of rows")
    entries = [[as_int(x, f"an entry of {what}") for x in r] for r in rows]
    if any(not -2**63 <= x < 2**63 for r in entries for x in r):
        raise InvalidArgument(f"an entry of {what} does not fit int64")
    return FieldMatrix(field, entries)


@dataclass(frozen=True)
class KeyMaterial:
    """Sampled key seeds and the per-user keys derived from them."""

    seeds: FieldMatrix                     # seed_count x width
    per_user: tuple[FieldMatrix, ...]      # keys_per_user x width

    @property
    def width(self) -> int:
        return self.seeds.cols


def _column_blocks(decode_matrix: FieldMatrix, top: Topology) -> list[FieldMatrix]:
    """Per user, the columns of the decoding matrix indexed by its relays."""
    return [decode_matrix.take_cols([j - 1 for j in links]) for links in top.user_links]


def link_key_constraint_ok(s: Scheme) -> bool:
    """Mask-cancellation certificate.

    The link keys cancel under the decoding matrix for every seed value
    iff link_keys composed with the stacked column blocks is identically
    zero.
    """
    blocks = _column_blocks(s.decode_matrix, s.topology)
    return (s.link_keys @ gf.vstack([b.T for b in blocks])).is_zero()


@dataclass(frozen=True)
class WeightedConditions:
    """The three structural conditions of the weighted variant."""

    generator_is_mds: bool       # key generator has every square minor nonsingular
    decoder_is_mds: bool
    support_matches_links: bool  # weight (i, j) nonzero only when j serves i
    masks_cancel: bool           # generator x weights x decoder^T == 0

    @property
    def all_hold(self) -> bool:
        return (self.generator_is_mds and self.decoder_is_mds
                and self.support_matches_links and self.masks_cancel)


def check_weighted_conditions(s: Scheme) -> WeightedConditions:
    if s.variant != VARIANT_WEIGHTED:
        raise InvalidArgument("structural conditions apply to the weighted variant only")
    top = s.topology
    support_ok = True
    for i in range(1, top.N + 1):
        allowed = set(top.user_links[i - 1])
        for j in range(1, top.K + 1):
            if j not in allowed and s.key_weights.a[i - 1, j - 1] != 0:
                support_ok = False
    cancel = (s.key_map @ s.key_weights @ s.decode_matrix.T).is_zero()
    return WeightedConditions(
        generator_is_mds=gf.mds_check(s.key_map),
        decoder_is_mds=gf.mds_check(s.decode_matrix),
        support_matches_links=support_ok,
        masks_cancel=cancel,
    )


def _encoders_from(decode_matrix: FieldMatrix, top: Topology) -> tuple[FieldMatrix, ...]:
    return tuple(block.inverse() for block in _column_blocks(decode_matrix, top))


def build_scheme_a(top: Topology, field: PrimeField, seed: int = 0,
                   decode_matrix: Optional[FieldMatrix] = None) -> Scheme:
    """Per-link-key scheme on an arbitrary homogeneous topology.

    The decoding matrix defaults to a Vandermonde matrix on K distinct
    evaluation points drawn from a seeded generator (one draw; MDS by
    construction); a caller-supplied matrix is checked to be MDS instead.
    Users 1..N-1 get independent seed symbols on their links and the last
    user's link keys are the unique values that make all masks cancel.

    Raises:
        FieldTooSmall: if q < K, so no set of K distinct points exists.
        InvalidArgument: if a supplied decoding matrix is unusable.
    """
    n, k, big_n = top.n, top.K, top.N
    if decode_matrix is None:
        if field.q < k:
            raise FieldTooSmall(f"need q >= K = {k} distinct evaluation points, got q = {field.q}")
        points = np.random.default_rng(seed).permutation(field.q)[:k]
        decode_matrix = gf.vandermonde([int(p) for p in points], n, field)
    else:
        if decode_matrix.field != field:
            raise InvalidArgument("decoding matrix field does not match")
        if (decode_matrix.rows, decode_matrix.cols) != (n, k):
            raise ShapeError(f"decoding matrix must be {n}x{k}")
        if not gf.mds_check(decode_matrix):
            raise InvalidArgument("supplied decoding matrix is not MDS")

    blocks = _column_blocks(decode_matrix, top)
    encoders = tuple(block.inverse() for block in blocks)

    # Seeds: one per link of users 1..N-1.  The last user's keys are the
    # unique linear functions of those seeds that cancel the masks:
    #   keys_N = -(sum over i<N of keys_i * block_i^T) * (block_N^T)^{-1}
    stacked = gf.vstack([b.T for b in blocks[:-1]])           # (N-1)n x n
    last_inv_t = encoders[-1].T                    # (block_N^T)^{-1} = (block_N^{-1})^T
    key_map = gf.hstack([gf.identity(field, (big_n - 1) * n), -(stacked @ last_inv_t)])

    return Scheme(
        variant=VARIANT_LINK_KEYS,
        topology=top,
        field=field,
        decode_matrix=decode_matrix,
        encoders=encoders,
        key_map=key_map,
    )


def scheme_b_parameters(top: Topology, field: PrimeField, t_u: int) -> tuple[int, int]:
    """Check the hypotheses of build_scheme_b; return (copies, root of unity).

    Raises:
        InfeasibleParameters: the topology is not multiple cyclic, or
            t_u + m > min(N-1, K-n).
        InvalidArgument: t_u < 0.
        FieldTooSmall: q <= t_u + m.
        NoSuchRoot: the copy count does not divide q - 1.
    """
    if (copies := cyclic_copies(top)) is None:
        raise InfeasibleParameters("weighted scheme needs a (multiple) cyclic topology")
    if t_u < 0:
        raise InvalidArgument("t_u must be nonnegative")
    n_seeds = t_u + top.m
    limit = min(top.N - 1, top.K - top.n)
    if n_seeds > limit:
        raise InfeasibleParameters(f"need t_u + m <= min(N-1, K-n) = {limit}, got {n_seeds}")
    if n_seeds >= field.q:
        raise FieldTooSmall(f"need q > t_u + m = {n_seeds} for distinct Cauchy parameters")
    return copies, gf.root_of_unity(field, copies)


def build_scheme_b(top: Topology, field: PrimeField, t_u: int, seed: int = 0,
                   max_attempts: int = 1000) -> Scheme:
    """Minimal-key scheme on a multiple cyclic network (one colluding relay).

    Key generator: a Cauchy matrix over parameters i and c_j * w^p, where w
    is a primitive root of unity of order equal to the number of cyclic
    copies; the column blocks then sum to another Cauchy-shaped matrix.
    The link weights are stacked copies of a circulant whose first row has
    support on the first n relays, and the decoding matrix is solved
    exactly from weights^(-1) applied to a nullspace block of the summed
    generator, so the masks cancel by construction.  Every random choice is
    resampled on failure, up to max_attempts.  Of the three minor checks,
    only those that can fail run: the decoder's always; the block sum's
    only with several copies (with one it is the Cauchy generator); the
    null block's only when t_u + m < K - n (at K - n it spans the dual of
    an MDS code, which is itself MDS).

    Raises:
        InfeasibleParameters, InvalidArgument, FieldTooSmall, NoSuchRoot:
            from scheme_b_parameters.
        FieldTooSmall: q cannot host K usable Cauchy parameters.
        ConstructionFailed: resampling budget exhausted; its rejections
            count the candidates each check rejected.
    """
    copies, w = scheme_b_parameters(top, field, t_u)
    n, k, big_n, q = top.n, top.K, top.N, field.q
    n_seeds = t_u + top.m

    rng = np.random.default_rng(seed)
    alphas = list(range(1, n_seeds + 1))
    # candidate c values may not produce a zero denominator in any copy;
    # with several copies 0 would collide with itself across blocks
    forbidden = {(-a * field.inv(pow(w, p, q))) % q
                 for a in alphas for p in range(copies)}
    if copies > 1:
        forbidden.add(0)
    usable = np.ones(q, dtype=bool)
    usable[list(forbidden)] = False
    pool_arr = np.flatnonzero(usable)
    if pool_arr.size < k:
        raise FieldTooSmall(f"only {pool_arr.size} usable Cauchy parameters over F_{q}, need {k}")
    rejections = dict.fromkeys(_B_REJECTIONS, 0)
    for attempt in range(1, max_attempts + 1):
        c = [int(v) for v in rng.permutation(pool_arr)[:k]]
        betas = [(c[(j - 1) % k] * pow(w, (j - 1) // k, q)) % q for j in range(1, big_n + 1)]
        try:
            generator = gf.cauchy(alphas, betas, field)
        except CauchyDegenerate:
            rejections["Cauchy degenerate"] += 1
            continue
        block_sum = FieldMatrix(field, sum(generator.a[:, p * k:(p + 1) * k] for p in range(copies)) % q)
        if copies > 1 and not gf.mds_check(block_sum):
            rejections["block sum not MDS"] += 1
            continue

        extra = FieldMatrix(field, rng.integers(0, q, (k - n_seeds, k)))
        try:
            completed_inv = gf.vstack([block_sum, extra]).inverse()
        except SingularMatrix:
            rejections["singular completion"] += 1
            continue
        null_block = completed_inv.take_cols(range(k - n, k))   # K x n, killed by block_sum
        if n_seeds < k - n and not gf.mds_check(null_block.T):
            rejections["null block not MDS"] += 1
            continue

        weights_row = [int(v) for v in rng.integers(1, q, n)] + [0] * (k - n)
        base_weights = gf.circulant(weights_row, field)
        try:
            base_inv = base_weights.inverse()
        except SingularMatrix:
            rejections["circulant singular"] += 1
            continue
        decode_matrix = (base_inv @ null_block).T               # weights_1 @ D^T = null_block
        if not gf.mds_check(decode_matrix):
            rejections["decoder not MDS"] += 1
            continue

        return Scheme(
            variant=VARIANT_WEIGHTED,
            topology=top,
            field=field,
            decode_matrix=decode_matrix,
            encoders=_encoders_from(decode_matrix, top),
            key_map=generator,
            key_weights=gf.vstack([base_weights] * copies),     # N x K
            t_u=t_u,
        )
    counts = ", ".join(f"{name} {n}" for name, n in rejections.items() if n) or "none"
    raise ConstructionFailed(
        f"no valid weighted scheme after {max_attempts} attempts (rejected: {counts})",
        attempts=max_attempts, rejections=rejections)


def build_scheme_c(n_users: int, field: PrimeField) -> Scheme:
    """Closed-form minimal-key scheme for the two-regular cyclic network.

    For N = K, n = m = 2 and t_u = N - 3 every matrix is explicit: the
    decoding matrix has columns (1, j); the weight matrix is bidiagonal
    with superdiagonal (i - N - 1)/(N - i) and a wrap entry of -1/N, which
    makes every row of weights x decoder^T proportional to (1, N + 1); the
    key generator extends an identity with the column that cancels that
    common direction.  The structural conditions hold for every prime
    q >= N + 2; check_weighted_conditions certifies them.

    Raises:
        InvalidArgument: if n_users < 3.
        FieldTooSmall: if q < n_users + 2.
    """
    big_n = n_users
    if big_n < 3:
        raise InvalidArgument("the two-regular cyclic construction needs at least 3 users")
    q = field.q
    if q < big_n + 2:
        raise FieldTooSmall(f"need a prime q >= N + 2 = {big_n + 2}, got {q}")

    top = build_multiple_cyclic(big_n, 2, 1)
    decode_matrix = FieldMatrix(field, np.vstack([
        np.ones(big_n, dtype=np.int64),
        np.arange(1, big_n + 1, dtype=np.int64),
    ]))

    lam = [(i - big_n - 1) * field.inv(big_n - i) % q for i in range(1, big_n)]
    # Wrap weight -1/N: the unique value making row N of weights x decoder^T
    # proportional to (1, N+1) like all other rows, so that one generator
    # column cancels everything.
    lam_wrap = field.neg(field.inv(big_n % q))
    weights = np.zeros((big_n, big_n), dtype=np.int64)
    for i in range(1, big_n):
        weights[i - 1, i - 1] = 1
        weights[i - 1, i] = lam[i - 1]
    weights[big_n - 1, big_n - 1] = 1
    weights[big_n - 1, 0] = lam_wrap

    scale = field.neg(field.inv((1 + lam_wrap) % q))
    last_col = np.array([(1 + lam[i - 1]) * scale % q for i in range(1, big_n)],
                        dtype=np.int64)
    generator = np.hstack([np.eye(big_n - 1, dtype=np.int64), last_col.reshape(-1, 1)])

    return Scheme(
        variant=VARIANT_WEIGHTED,
        topology=top,
        field=field,
        decode_matrix=decode_matrix,
        encoders=_encoders_from(decode_matrix, top),
        key_map=FieldMatrix(field, generator),
        key_weights=FieldMatrix(field, weights),
        t_u=big_n - 3,
    )


def derive_user_keys(s: Scheme, seeds: FieldMatrix) -> KeyMaterial:
    """Every user's keys from explicit seed columns: user i's are the i-th block of
    keys_per_user rows of key_map^T @ seeds, user_key_map(i)^T @ seeds.

    A key whose key_map column is a unit column is a copy of one seed row, so
    those rows are gathered (Scheme.key_gather); the other columns, if any,
    go through one product.  Variant A's keys of users 1..N-1 are all such
    copies.  The keys take the product's dtype, never narrower than the seeds'."""
    if seeds.field != s.field:
        raise ShapeError("seeds live in another field")
    if seeds.rows != s.seed_count:
        raise ShapeError(f"expected {s.seed_count} seed rows, got {seeds.rows}")
    unit, rows, rest, rest_map = s.key_gather
    product = gf._matmul(s.field.q, (rest_map, seeds.a))
    keys = np.empty((s.key_map.cols, seeds.cols), dtype=product.dtype)
    keys[unit], keys[rest] = seeds.a[rows], product
    per_user = tuple(FieldMatrix._wrap(s.field, z)
                     for z in keys.reshape(s.topology.N, s.keys_per_user, seeds.cols))
    return KeyMaterial(seeds=seeds, per_user=per_user)


def sample_keys(s: Scheme, width: int = 1, seed: int = 0) -> KeyMaterial:
    """Draw uniform i.i.d. seed symbols and derive all user keys.

    Raises:
        InvalidArgument: if width < 1.
    """
    at_least_one(width, "block width")
    rng = np.random.default_rng(seed)
    seeds = FieldMatrix(s.field, s.field.rand(rng, (s.seed_count, width)))
    return derive_user_keys(s, seeds)


def rates(s: Scheme) -> RateTuple:
    """Rates from structure: per-link loads 1/n, key rates from symbol counts."""
    n = s.topology.n
    return RateTuple(
        r_x=Fraction(1, n),
        r_y=Fraction(1, n),
        r_z=Fraction(s.keys_per_user, n),
        r_zsigma=Fraction(s.seed_count, n),
    )

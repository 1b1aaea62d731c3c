"""Decodability and security certification.

Two independent routes are provided for every security question:

* an algebraic route that reduces mutual information to matrix ranks
  (exact for linear maps of uniform independent seeds), and
* a brute-force oracle that enumerates the whole seed space, tabulates
  exact joint counts and decides zero mutual information by integer
  factorization of those counts.  No floating point is involved anywhere.

The oracle exists to check the algebra, so it never calls into the rank
path; agreement between the two is itself a tested property.  It evaluates
each output symbol only over the variables in that row's support, read off
the row's nonzero coefficients.  That needs no elimination, so the oracle
still makes no rank calls, and a map's count over all states is its count
over its support times q for every variable outside it.  The rank route
works on the quotient by the colluders' known inputs: two ranks per pattern.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from . import gf
from .errors import InvalidArgument, TooLargeToEnumerate
from .gf import FieldMatrix, PrimeField
from .protocol import run_round
from .schemes import Scheme, VARIANT_LINK_KEYS, derive_user_keys, link_key_constraint_ok

_CHUNK_ROWS = 1 << 16


@dataclass(frozen=True)
class CollusionPattern:
    """One adversary instance: a set of relays and a set of users."""

    relays: tuple[int, ...]
    users: tuple[int, ...]

    def __init__(self, relays: Iterable[int], users: Iterable[int]):
        object.__setattr__(self, "relays", tuple(sorted(set(int(r) for r in relays))))
        object.__setattr__(self, "users", tuple(sorted(set(int(u) for u in users))))

    def validate(self, s: Scheme):
        top = s.topology
        if any(not 1 <= r <= top.K for r in self.relays):
            raise InvalidArgument(f"relay ids out of range in {self}")
        if any(not 1 <= u <= top.N for u in self.users):
            raise InvalidArgument(f"user ids out of range in {self}")

    def as_dict(self) -> dict:
        return {"relays": list(self.relays), "users": list(self.users)}


@dataclass(frozen=True)
class LinearView:
    """Coefficients of every message a relay coalition sees.

    Row r reconstructs the message labeled row_labels[r] as
    c_w[r] . input_coords + c_r[r] . key_seeds.
    """

    c_w: FieldMatrix
    c_r: FieldMatrix
    row_labels: tuple[tuple[int, int], ...]

    @property
    def coefficients(self) -> FieldMatrix:
        return gf.hstack([self.c_w, self.c_r])


def adversary_view(s: Scheme, p: CollusionPattern) -> LinearView:
    """Stack the coefficient rows of all messages received by p.relays."""
    p.validate(s)
    top, n = s.topology, s.topology.n
    labels = [(i, j) for j in p.relays for i in top.relay_links[j - 1]]
    c_w = np.zeros((len(labels), top.N * n), dtype=np.int64)
    for r, (i, j) in enumerate(labels):
        c_w[r, (i - 1) * n:i * n] = s.encoders[i - 1].a[s.link_pos(i, j), :]
    c_r = s.link_keys.a[:, [s.link_index(i, j) for i, j in labels]].T
    return LinearView(c_w=FieldMatrix._wrap(s.field, c_w), c_r=FieldMatrix._wrap(s.field, c_r),
                      row_labels=tuple(labels))


def _known_rows(s: Scheme, input_users: Iterable[int], key_users: Iterable[int]) -> np.ndarray:
    """Coefficients of (inputs of input_users, keys of key_users)."""
    n, n_w = s.topology.n, s.topology.N * s.topology.n
    input_cols = [(i - 1) * n + p for i in input_users for p in range(n)]
    keys = [s.user_key_map(i).a.T for i in key_users]
    rows = np.zeros((len(input_cols) + sum(k.shape[0] for k in keys), n_w + s.seed_count),
                    dtype=np.int64)
    rows[range(len(input_cols)), input_cols] = 1
    if keys:
        rows[len(input_cols):, n_w:] = np.vstack(keys)
    return rows


def rank_leak(s: Scheme, p: CollusionPattern) -> int:
    """Exact mutual information (log_q units per block column) via ranks.

    I(inputs; view | colluders' data) for linear maps of uniform seeds.  A
    known input is a unit row on a column no other row conditions on, so it
    adds 1 to every rank and clears its column; with V = [V_w | V_s] the view
    and K_c the colluders' key rows, the leak comes down to
    rank([V_w on the free users' inputs | V_s ; 0 | K_c]) - rank([V_s ; K_c]).
    """
    n, n_w = s.topology.n, s.topology.N * s.topology.n
    stack = np.vstack([adversary_view(s, p).coefficients.a, _known_rows(s, (), p.users)])
    seeds = list(range(n_w, stack.shape[1]))
    free = [c for c in range(n_w) if c // n + 1 not in p.users]
    return (FieldMatrix._wrap(s.field, stack[:, free + seeds]).rank()
            - FieldMatrix._wrap(s.field, stack[:, seeds]).rank())


def check_security_rank(s: Scheme, p: CollusionPattern) -> bool:
    """True iff the coalition learns nothing beyond its own data."""
    return rank_leak(s, p) == 0


def check_key_space_disjoint(s: Scheme, p: CollusionPattern) -> bool:
    """Variant A sufficient condition for security of one pattern.

    Stacks the key-placement rows of the observed messages (restricted to
    the non-colluding users' key columns) on top of the non-colluding
    decoding-column blocks; security follows when the two row spaces
    intersect trivially, i.e. the stack's rank is the sum of the parts.

    Raises:
        InvalidArgument: for the weighted variant.
    """
    if s.variant != VARIANT_LINK_KEYS:
        raise InvalidArgument("the key-placement check applies to variant A only")
    p.validate(s)
    top = s.topology
    n = top.n
    free_users = [i for i in range(1, top.N + 1) if i not in p.users]
    if not free_users:
        return True  # nothing left to protect; both matrices are empty
    cols = [(i - 1) * n + k for i in free_users for k in range(n)]
    observed = [s.link_index(i, j) for j in p.relays for i in top.relay_links[j - 1]]
    placement = FieldMatrix(s.field, np.eye(top.N * n, dtype=np.int64)[np.ix_(observed, cols)])

    decode_blocks = gf.hstack([s.column_block(i) for i in free_users])
    stack = gf.vstack([placement, decode_blocks])
    return stack.rank() == placement.rank() + decode_blocks.rank()


# -- exhaustive enumeration engine --------------------------------------------
# States form a grid with one length-q axis per variable.  An image of a map is
# (ranks, n): ranks labels the map's value at each grid state with 0..n-1 and
# has length-1 axes for the variables outside the map's support.

_TABLE_FACTOR = 1  # a lookup table has at most this many entries per grid state


def _assignments(q: int, n_vars: int) -> Iterator[np.ndarray]:
    """All q**n_vars assignments, yielded as chunks of rows."""
    total = q ** n_vars
    if n_vars == 0:
        yield np.zeros((1, 0), dtype=np.int64)
        return
    powers = np.array([q ** (n_vars - 1 - i) for i in range(n_vars)], dtype=np.int64)
    for start in range(0, total, _CHUNK_ROWS):
        idx = np.arange(start, min(start + _CHUNK_ROWS, total), dtype=np.int64)
        yield (idx[:, None] // powers) % q


def _expand_for_width(mat: np.ndarray, width: int) -> np.ndarray:
    return np.kron(mat, np.eye(width, dtype=np.int64))


def _dense_ranks(keys: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Relabel keys in [0, size) as 0..n-1 in key order; returns (ranks, n).

    Uses a lookup table while size is at most _TABLE_FACTOR per key (which
    _fold keeps true for linear maps), and sorting beyond that.
    """
    flat = keys.ravel()
    if size > _TABLE_FACTOR * flat.size:
        uniq, inverse = np.unique(flat, return_inverse=True)
        return inverse.reshape(keys.shape), uniq.size
    present = np.flatnonzero(np.bincount(flat, minlength=size))
    lut = np.zeros(size, dtype=np.int64)
    lut[present] = np.arange(present.size)
    return lut[keys], present.size


def _row_symbols(row: np.ndarray, q: int, n_vars: int) -> np.ndarray:
    """row . s mod q on the grid, as an outer sum over the row's support only."""
    dtype = np.min_scalar_type(2 * q - 1)
    digits = np.arange(q, dtype=np.int64)
    sym = np.zeros((1,) * n_vars, dtype=dtype)
    for v in np.flatnonzero(row):
        axis = [1] * n_vars
        axis[v] = q
        sym = sym + ((int(row[v]) * digits) % q).astype(dtype).reshape(axis)
        sym = np.minimum(sym, sym - dtype.type(q))  # unsigned wrap keeps sym < q
    return sym


def _fold(image: tuple[np.ndarray, int], mat: np.ndarray, q: int) -> tuple[np.ndarray, int]:
    """Image of the joint map (image, mat . s).

    Each row's symbol is appended to the keys as one more base-q digit.  The
    keys are densified first whenever the digit would take their range past
    the grid size: after that a linear image either has one cell per class,
    so the row cannot split any class, or at most grid/q classes.
    """
    if q ** mat.shape[0] > 2**62:
        raise TooLargeToEnumerate(f"image of {mat.shape[0]} symbols over F_{q} cannot be keyed")
    keys, n = image
    for row in mat % q:
        if not row.any():
            continue
        sym = _row_symbols(row, q, keys.ndim)
        cells = math.prod(np.broadcast_shapes(keys.shape, sym.shape))
        if n * q > _TABLE_FACTOR * cells:
            keys, n = _dense_ranks(keys, n)
            if n == cells:  # every class is one cell of the grid: nothing to split
                continue
        keys = keys * q + sym
        n *= q
    return _dense_ranks(keys, n)


def _entropy_sum(image: tuple[np.ndarray, int], q: int, total: int) -> int:
    """Sum over image classes of c * log_q(c), c the class's count of all states.

    That count is the class's count on the image's grid times q**free, for
    the `free` variables the image does not depend on.  Raises
    InvalidArgument if a count is not a power of q (never for linear maps).
    """
    ranks, n = image
    counts = np.bincount(ranks.ravel(), minlength=n)
    exps = np.zeros(n, dtype=np.int64)
    rest = counts.copy()
    while (divisible := (rest > 1) & (rest % q == 0)).any():
        rest[divisible] //= q
        exps[divisible] += 1
    if (rest != 1).any():
        raise InvalidArgument(f"class count {int(counts[rest != 1][0])} is not a power of {q}")
    free = ranks.shape.count(1)
    return q**free * int(counts @ exps) + total * free


def _cond_entropy(given: tuple[np.ndarray, int], a_mat: np.ndarray, q: int,
                  total: int) -> int:
    """total * H(A.s | B.s) in log_q units, for `given` the image of B."""
    return _entropy_sum(given, q, total) - _entropy_sum(_fold(given, a_mat, q), q, total)


@dataclass(frozen=True)
class OracleResult:
    is_zero: bool
    mi_value: Fraction
    states: int


def mi_oracle(s: Scheme, p: CollusionPattern, width: int = 1,
              cap: int = 10**8) -> OracleResult:
    """Brute-force mutual information of (inputs; view | colluders' data).

    Enumerates every assignment of the input symbols and key seeds,
    tabulates the exact class counts of the colluders' data C, the inputs
    U and the view V, and returns I(U; V | C) = H(V | C) - H(V | U, C)
    exactly (log_q units).  Peak memory is at most about 48 bytes per
    state of the variables the maps depend on (42.6 measured for scheme C
    on cyclic(3, 2) at q = 5, where they depend on all 390 625 states).

    Raises:
        TooLargeToEnumerate: if q**((N*n + seeds) * width) exceeds cap.
    """
    p.validate(s)
    q = s.field.q
    n_vars = (s.topology.N * s.topology.n + s.seed_count) * width
    total = q ** n_vars
    if total > cap:
        raise TooLargeToEnumerate(f"{q}**{n_vars} states exceed the cap {cap}")

    u_mat = _expand_for_width(_known_rows(s, range(1, s.topology.N + 1), ()), width)
    v_mat = _expand_for_width(adversary_view(s, p).coefficients.a, width)
    c_mat = _expand_for_width(_known_rows(s, p.users, p.users), width)

    c_image = _fold((np.zeros((1,) * n_vars, dtype=np.int64), 1), c_mat, q)
    uc_image = _fold(c_image, u_mat, q)
    mi = Fraction(_cond_entropy(c_image, v_mat, q, total)
                  - _cond_entropy(uc_image, v_mat, q, total), total)
    return OracleResult(is_zero=(mi == 0), mi_value=mi, states=total)


def cond_entropy_enumerated(a_map: FieldMatrix, b_map: FieldMatrix,
                            cap: int = 10**8) -> Fraction:
    """H(A.s | B.s) for uniform independent s, by exhaustive counting.

    Both maps must share the same number of columns (seed coordinates).

    Raises:
        TooLargeToEnumerate: if q**cols exceeds cap.
    """
    if a_map.cols != b_map.cols or a_map.field != b_map.field:
        raise InvalidArgument("maps must share a field and a seed space")
    q = a_map.field.q
    n_vars = a_map.cols
    total = q ** n_vars
    if total > cap:
        raise TooLargeToEnumerate(f"{q}**{n_vars} states exceed the cap {cap}")
    b_image = _fold((np.zeros((1,) * n_vars, dtype=np.int64), 1), b_map.a, q)
    return Fraction(_cond_entropy(b_image, a_map.a, q, total), total)


# -- decodability --------------------------------------------------------------


def _simulate_columns(s: Scheme, columns: np.ndarray) -> bool:
    """Run one batched round where each column is an independent assignment."""
    top = s.topology
    n_w = top.N * top.n
    inputs = [FieldMatrix._wrap(s.field, columns[(i - 1) * top.n:i * top.n, :])
              for i in range(1, top.N + 1)]
    keys = derive_user_keys(s, FieldMatrix._wrap(s.field, columns[n_w:, :]))
    return not run_round(s, inputs, keys=keys).mismatch


def check_decodability(s: Scheme, samples: Optional[int] = None, width: int = 1,
                       seed: int = 0, cap: int = 10**8) -> bool:
    """Simulate rounds and check decode == direct sum, plus the certificate.

    samples=None runs every (inputs, seeds) assignment exactly once
    (chunked, so memory stays bounded); each column of a width-w block is
    an independent round, so that is exhaustive for every width.
    Otherwise `samples` random assignments are drawn.  The algebraic
    cancellation certificate is asserted in both modes, and the result is
    the conjunction, so a disagreement between simulation and certificate
    can only surface as a failure.

    Raises:
        TooLargeToEnumerate: exhaustive state space above cap.
    """
    top, q = s.topology, s.field.q
    n_vars = top.N * top.n + s.seed_count
    if samples is None:
        if q ** n_vars > cap:
            raise TooLargeToEnumerate(f"{q}**{n_vars} states exceed the cap {cap}")
        sim_ok = all(_simulate_columns(s, chunk.T) for chunk in _assignments(q, n_vars))
    else:
        rng = np.random.default_rng(seed)
        columns = rng.integers(0, q, size=(n_vars, samples * width), dtype=np.int64)
        sim_ok = _simulate_columns(s, columns)

    return sim_ok and link_key_constraint_ok(s)


# -- pattern sweeps ------------------------------------------------------------


def _pattern_sizes(t_h: int, t_u: int, all_sizes: bool):
    """(relay sizes, user sizes) of the patterns a sweep covers."""
    return (range(t_h + 1), range(t_u + 1)) if all_sizes else ((t_h,), (t_u,))


def iter_patterns(top, t_h: int, t_u: int, all_sizes: bool) -> Iterator[CollusionPattern]:
    """All collusion patterns at the given budgets.

    all_sizes walks the full sub-pattern lattice (|relays| <= t_h,
    |users| <= t_u); otherwise only maximal patterns are produced.
    Security of a maximal pattern does not formally imply security of its
    sub-patterns, hence the lattice option.
    """
    relay_sizes, user_sizes = _pattern_sizes(t_h, t_u, all_sizes)
    for rs in relay_sizes:
        for us in user_sizes:
            for relays in itertools.combinations(range(1, top.K + 1), rs):
                for users in itertools.combinations(range(1, top.N + 1), us):
                    yield CollusionPattern(relays, users)


def count_patterns(top, t_h: int, t_u: int, all_sizes: bool) -> int:
    relay_sizes, user_sizes = _pattern_sizes(t_h, t_u, all_sizes)
    return sum(math.comb(top.K, rs) * math.comb(top.N, us)
               for rs in relay_sizes for us in user_sizes)


@dataclass
class SweepReport:
    method: str
    all_sizes: bool
    total_patterns: int
    checked: int = 0
    passed: int = 0
    failed: int = 0
    skipped_cap: int = 0
    disagreements: int = 0
    subsampled: bool = False
    first_failure: Optional[CollusionPattern] = None

    @property
    def all_passed(self) -> bool:
        return self.failed == 0 and self.disagreements == 0

    def as_dict(self) -> dict:
        return {
            "method": self.method,
            "all_sizes": self.all_sizes,
            "total_patterns": self.total_patterns,
            "checked": self.checked,
            "passed": self.passed,
            "failed": self.failed,
            "skipped_cap": self.skipped_cap,
            "disagreements": self.disagreements,
            "subsampled": self.subsampled,
            "first_failure": None if self.first_failure is None else self.first_failure.as_dict(),
        }


def _reservoir(patterns: Iterator[CollusionPattern], budget: int,
               seed: int) -> list[CollusionPattern]:
    rng = np.random.default_rng(seed)
    chosen: list[CollusionPattern] = []
    for k, pat in enumerate(patterns):
        if k < budget:
            chosen.append(pat)
        else:
            r = int(rng.integers(0, k + 1))
            if r < budget:
                chosen[r] = pat
    return chosen


def sweep_security(s: Scheme, t_h: int, t_u: int, budget: int = 100_000,
                   all_sizes: Optional[bool] = None, method: str = "rank",
                   width: int = 1, oracle_cap: int = 10**8, seed: int = 0) -> SweepReport:
    """Check every collusion pattern at the given budgets.

    method is "rank", "oracle", or "both"; with "both" any disagreement
    between the two routes is counted separately from plain failures.
    Patterns beyond `budget` are randomly subsampled (seeded).  Oracle
    runs that exceed oracle_cap count as skipped, never as passed.
    """
    if all_sizes is None:
        all_sizes = s.topology.N <= 6 and s.topology.K <= 6
    total = count_patterns(s.topology, t_h, t_u, all_sizes)
    report = SweepReport(method=method, all_sizes=all_sizes, total_patterns=total)
    patterns: Iterable[CollusionPattern] = iter_patterns(s.topology, t_h, t_u, all_sizes)
    if total > budget:
        patterns = _reservoir(patterns, budget, seed)
        report.subsampled = True

    for pat in patterns:
        report.checked += 1
        rank_ok = oracle_ok = None
        if method in ("rank", "both"):
            rank_ok = check_security_rank(s, pat)
        if method in ("oracle", "both"):
            try:
                oracle_ok = mi_oracle(s, pat, width=width, cap=oracle_cap).is_zero
            except TooLargeToEnumerate:
                report.skipped_cap += 1
        if rank_ok is not None and oracle_ok is not None and rank_ok != oracle_ok:
            report.disagreements += 1
        verdicts = [v for v in (rank_ok, oracle_ok) if v is not None]
        if verdicts and all(verdicts):
            report.passed += 1
        elif verdicts:
            report.failed += 1
            if report.first_failure is None:
                report.first_failure = pat
    return report


# -- converse spot checks -------------------------------------------------------


@dataclass(frozen=True)
class ConverseChecks:
    """Enumerated key-structure identities that any optimal-load code obeys.

    per_link_entropy[(i, j)] is H(key of link (i,j) | all other users'
    keys); on two-regular cyclic networks at optimal load every value
    must be zero and the per-user key entropies must sum to at least
    N * L (L = n * width, log_q units).
    """

    per_link_entropy: dict
    all_links_determined: bool
    user_entropy_sum: Fraction
    sum_lower_bound: Fraction

    @property
    def sum_meets_bound(self) -> bool:
        return self.user_entropy_sum >= self.sum_lower_bound

    def as_dict(self) -> dict:
        return {
            "per_link_entropy": {f"{i},{j}": str(v) for (i, j), v in
                                 sorted(self.per_link_entropy.items())},
            "all_links_determined": self.all_links_determined,
            "user_entropy_sum": str(self.user_entropy_sum),
            "sum_lower_bound": str(self.sum_lower_bound),
            "sum_meets_bound": self.sum_meets_bound,
        }


def converse_spot_checks(s: Scheme, width: int = 1, cap: int = 10**8) -> ConverseChecks:
    """Enumerate H(link key | other users' keys) for every link, and the
    per-user key entropy sum, over the key-seed space."""
    top = s.topology
    per_link: dict[tuple[int, int], Fraction] = {}
    for i in range(1, top.N + 1):
        others = np.vstack([s.user_key_map(k).a.T for k in range(1, top.N + 1) if k != i])
        others_m = _expand_width_matrix(s.field, others, width)
        for j in top.user_links[i - 1]:
            target = _expand_width_matrix(s.field, s.link_keys.a[:, [s.link_index(i, j)]].T,
                                          width)
            per_link[(i, j)] = cond_entropy_enumerated(target, others_m, cap=cap)

    empty = gf.zeros(s.field, 0, s.seed_count * width)
    total = Fraction(0)
    for i in range(1, top.N + 1):
        mine = _expand_width_matrix(s.field, s.user_key_map(i).a.T, width)
        total += cond_entropy_enumerated(mine, empty, cap=cap)

    return ConverseChecks(
        per_link_entropy=per_link,
        all_links_determined=all(v == 0 for v in per_link.values()),
        user_entropy_sum=total,
        sum_lower_bound=Fraction(top.N * top.n * width),
    )


def _expand_width_matrix(field: PrimeField, mat: np.ndarray, width: int) -> FieldMatrix:
    return FieldMatrix._wrap(field, _expand_for_width(mat, width))

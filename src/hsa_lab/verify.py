"""Decodability and security certification.

Two independent routes are provided for every security question:

* an algebraic route that reduces mutual information to matrix ranks
  (exact for linear maps of uniform independent seeds), and
* a brute-force oracle that enumerates the whole seed space, tabulates
  exact joint counts and decides zero mutual information by integer
  factorization of those counts.  No floating point is involved anywhere.

The oracle exists to check the algebra, so it never calls into the rank
path; agreement between the two is itself a tested property.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
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
    return LinearView(c_w=FieldMatrix(s.field, c_w), c_r=FieldMatrix(s.field, c_r),
                      row_labels=tuple(labels))


def _user_key_rows(s: Scheme, user: int) -> np.ndarray:
    """Coefficient rows (over the key seeds) of one user's full key."""
    return s.user_key_map(user).a.T


def _known_rows(s: Scheme, input_users: Iterable[int], key_users: Iterable[int]) -> FieldMatrix:
    """Coefficients of (inputs of input_users, keys of key_users)."""
    n, n_w = s.topology.n, s.topology.N * s.topology.n
    input_cols = [(i - 1) * n + p for i in input_users for p in range(n)]
    keys = [_user_key_rows(s, i) for i in key_users]
    rows = np.zeros((len(input_cols) + sum(k.shape[0] for k in keys), n_w + s.seed_count),
                    dtype=np.int64)
    rows[range(len(input_cols)), input_cols] = 1
    if keys:
        rows[len(input_cols):, n_w:] = np.vstack(keys)
    return FieldMatrix(s.field, rows)


def rank_leak(s: Scheme, p: CollusionPattern) -> int:
    """Exact mutual information (log_q units per block column) via ranks.

    For linear images of uniform independent seeds,
    I(inputs; view | colluders' data) =
    [rank(view+cond) - rank(cond)] - [rank(view+full) - rank(full)].
    """
    view = adversary_view(s, p).coefficients
    cond = _known_rows(s, p.users, p.users)
    full = _known_rows(s, range(1, s.topology.N + 1), p.users)
    h_view_given_cond = gf.vstack([view, cond]).rank() - cond.rank()
    h_view_given_full = gf.vstack([view, full]).rank() - full.rank()
    return h_view_given_cond - h_view_given_full


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
    if width == 1:
        return mat
    return np.kron(mat, np.eye(width, dtype=np.int64))


def _image_keys(chunk: np.ndarray, mat: np.ndarray, q: int) -> np.ndarray:
    """Integer keys of mat . s for each assignment row s (base-q encoding)."""
    r = mat.shape[0]
    if r == 0:
        return np.zeros(chunk.shape[0], dtype=np.int64)
    if q ** r > 2**62:
        raise TooLargeToEnumerate(f"image of {r} symbols over F_{q} cannot be keyed")
    vals = (chunk @ mat.T) % q
    radix = np.array([q ** (r - 1 - i) for i in range(r)], dtype=np.int64)
    return vals @ radix


def _dense_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Collision-free combination of two dense rank arrays."""
    return a * (int(b.max(initial=0)) + 1) + b


def _log_q_exact(num: np.ndarray, den: np.ndarray, q: int) -> np.ndarray:
    """Exponents e with num/den = q**e, verified exactly per unique ratio.

    Raises:
        InvalidArgument: if some ratio is not an integer power of q
            (cannot happen for images of linear maps).
    """
    g = np.gcd(num, den)
    nr, dr = num // g, den // g
    out = np.zeros(num.shape[0], dtype=np.int64)
    for sign, part in ((1, nr), (-1, dr)):
        mask = part > 1
        if not mask.any():
            continue
        for v in np.unique(part[mask]):
            e = 0
            x = int(v)
            while x % q == 0:
                x //= q
                e += 1
            if x != 1:
                raise InvalidArgument(f"count ratio {int(v)} is not a power of {q}")
            out[part == v] += sign * e
    return out


@dataclass(frozen=True)
class OracleResult:
    is_zero: bool
    mi_value: Fraction
    states: int


def mi_oracle(s: Scheme, p: CollusionPattern, width: int = 1,
              cap: int = 10**8) -> OracleResult:
    """Brute-force mutual information of (inputs; view | colluders' data).

    Enumerates every assignment of the input symbols and key seeds,
    tabulates the exact joint distribution and decides independence by
    count factorization; the returned value is exact (log_q units).
    Memory grows linearly with the state count.

    Raises:
        TooLargeToEnumerate: if q**((N*n + seeds) * width) exceeds cap.
    """
    p.validate(s)
    q = s.field.q
    n_base = s.topology.N * s.topology.n + s.seed_count
    n_vars = n_base * width
    total = q ** n_vars
    if total > cap:
        raise TooLargeToEnumerate(f"{q}**{n_vars} states exceed the cap {cap}")

    u_mat = _expand_for_width(_known_rows(s, range(1, s.topology.N + 1), ()).a, width)
    v_mat = _expand_for_width(adversary_view(s, p).coefficients.a, width)
    c_mat = _expand_for_width(_known_rows(s, p.users, p.users).a, width)

    ku = np.empty(total, dtype=np.int64)
    kv = np.empty(total, dtype=np.int64)
    kc = np.empty(total, dtype=np.int64)
    at = 0
    for chunk in _assignments(q, n_vars):
        nrows = chunk.shape[0]
        ku[at:at + nrows] = _image_keys(chunk, u_mat, q)
        kv[at:at + nrows] = _image_keys(chunk, v_mat, q)
        kc[at:at + nrows] = _image_keys(chunk, c_mat, q)
        at += nrows

    _, u_rank = np.unique(ku, return_inverse=True)
    _, v_rank = np.unique(kv, return_inverse=True)
    _, c_rank = np.unique(kc, return_inverse=True)
    uc = _dense_pair(c_rank, u_rank)
    vc = _dense_pair(c_rank, v_rank)
    _, uc_rank, uc_counts = np.unique(uc, return_inverse=True, return_counts=True)
    _, vc_rank, vc_counts = np.unique(vc, return_inverse=True, return_counts=True)
    c_counts = np.bincount(c_rank)
    triple = _dense_pair(uc_rank, v_rank)
    _, first, triple_counts = np.unique(triple, return_index=True, return_counts=True)

    n_uvc = triple_counts
    n_c = c_counts[c_rank[first]]
    n_uc = uc_counts[uc_rank[first]]
    n_vc = vc_counts[vc_rank[first]]
    num = n_uvc * n_c
    den = n_uc * n_vc
    if np.array_equal(num, den):
        return OracleResult(is_zero=True, mi_value=Fraction(0), states=total)
    exps = _log_q_exact(num, den, q)
    mi = Fraction(int(np.sum(n_uvc * exps)), total)
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
    ka = np.empty(total, dtype=np.int64)
    kb = np.empty(total, dtype=np.int64)
    at = 0
    for chunk in _assignments(q, n_vars):
        nrows = chunk.shape[0]
        ka[at:at + nrows] = _image_keys(chunk, a_map.a, q)
        kb[at:at + nrows] = _image_keys(chunk, b_map.a, q)
        at += nrows
    _, b_rank = np.unique(kb, return_inverse=True)
    b_counts = np.bincount(b_rank)
    _, a_rank = np.unique(ka, return_inverse=True)
    pair = _dense_pair(b_rank, a_rank)
    _, first, pair_counts = np.unique(pair, return_index=True, return_counts=True)
    n_b = b_counts[b_rank[first]]
    exps = _log_q_exact(n_b, pair_counts, q)
    return Fraction(int(np.sum(pair_counts * exps)), total)


# -- decodability --------------------------------------------------------------


def _simulate_columns(s: Scheme, columns: np.ndarray) -> bool:
    """Run one batched round where each column is an independent assignment."""
    top = s.topology
    n_w = top.N * top.n
    inputs = [FieldMatrix(s.field, columns[(i - 1) * top.n:i * top.n, :])
              for i in range(1, top.N + 1)]
    keys = derive_user_keys(s, FieldMatrix(s.field, columns[n_w:, :]))
    return not run_round(s, inputs, keys=keys).mismatch


def check_decodability(s: Scheme, samples: Optional[int] = None, width: int = 1,
                       seed: int = 0, cap: int = 10**8) -> bool:
    """Simulate rounds and check decode == direct sum, plus the certificate.

    samples=None runs every (inputs, seeds) assignment exactly once
    (chunked, so memory stays bounded); otherwise `samples` random
    assignments are drawn.  The algebraic cancellation certificate is
    asserted in both modes, and the result is the conjunction, so a
    disagreement between simulation and certificate can only surface as
    a failure.

    Raises:
        TooLargeToEnumerate: exhaustive state space above cap.
    """
    top, q = s.topology, s.field.q
    n_vars = top.N * top.n + s.seed_count
    if samples is None:
        total = q ** (n_vars * width)
        if total > cap:
            raise TooLargeToEnumerate(f"{q}**{n_vars * width} states exceed the cap {cap}")
        sim_ok = all(_simulate_columns(s, chunk.T) for chunk in _assignments(q, n_vars))
    else:
        rng = np.random.default_rng(seed)
        columns = rng.integers(0, q, size=(n_vars, samples * width), dtype=np.int64)
        sim_ok = _simulate_columns(s, columns)

    return sim_ok and link_key_constraint_ok(s)


# -- pattern sweeps ------------------------------------------------------------


def iter_patterns(top, t_h: int, t_u: int, all_sizes: bool) -> Iterator[CollusionPattern]:
    """All collusion patterns at the given budgets.

    all_sizes walks the full sub-pattern lattice (|relays| <= t_h,
    |users| <= t_u); otherwise only maximal patterns are produced.
    Security of a maximal pattern does not formally imply security of its
    sub-patterns, hence the lattice option.
    """
    relay_sizes = range(0, t_h + 1) if all_sizes else (t_h,)
    user_sizes = range(0, t_u + 1) if all_sizes else (t_u,)
    for rs in relay_sizes:
        for us in user_sizes:
            for relays in itertools.combinations(range(1, top.K + 1), rs):
                for users in itertools.combinations(range(1, top.N + 1), us):
                    yield CollusionPattern(relays, users)


def count_patterns(top, t_h: int, t_u: int, all_sizes: bool) -> int:
    relay_sizes = range(0, t_h + 1) if all_sizes else (t_h,)
    user_sizes = range(0, t_u + 1) if all_sizes else (t_u,)
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
    failures: list = dc_field(default_factory=list)

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
                   width: int = 1, oracle_cap: int = 10**8, seed: int = 0,
                   threads: int = 1) -> SweepReport:
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

    def check(pat: CollusionPattern):
        rank_ok = oracle_ok = None
        skipped = False
        if method in ("rank", "both"):
            rank_ok = check_security_rank(s, pat)
        if method in ("oracle", "both"):
            try:
                oracle_ok = mi_oracle(s, pat, width=width, cap=oracle_cap).is_zero
            except TooLargeToEnumerate:
                skipped = True
        return pat, rank_ok, oracle_ok, skipped

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(check, patterns))
    else:
        results = [check(pat) for pat in patterns]

    for pat, rank_ok, oracle_ok, skipped in results:
        report.checked += 1
        if skipped:
            report.skipped_cap += 1
            if method == "oracle":
                continue
        verdicts = [v for v in (rank_ok, oracle_ok) if v is not None]
        if method == "both" and rank_ok is not None and oracle_ok is not None \
                and rank_ok != oracle_ok:
            report.disagreements += 1
        if verdicts and all(verdicts):
            report.passed += 1
        elif verdicts:
            report.failed += 1
            report.failures.append(pat)
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
        others = np.vstack([_user_key_rows(s, k) for k in range(1, top.N + 1) if k != i])
        others_m = _expand_width_matrix(s.field, others, width)
        for j in top.user_links[i - 1]:
            target = _expand_width_matrix(s.field, s.link_keys.a[:, [s.link_index(i, j)]].T,
                                          width)
            per_link[(i, j)] = cond_entropy_enumerated(target, others_m, cap=cap)

    empty = gf.zeros(s.field, 0, s.seed_count * width)
    total = Fraction(0)
    for i in range(1, top.N + 1):
        mine = _expand_width_matrix(s.field, _user_key_rows(s, i), width)
        total += cond_entropy_enumerated(mine, empty, cap=cap)

    return ConverseChecks(
        per_link_entropy=per_link,
        all_links_determined=all(v == 0 for v in per_link.values()),
        user_entropy_sum=total,
        sum_lower_bound=Fraction(top.N * top.n * width),
    )


def _expand_width_matrix(field: PrimeField, mat: np.ndarray, width: int) -> FieldMatrix:
    return FieldMatrix(field, _expand_for_width(mat, width))

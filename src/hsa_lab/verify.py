"""Decodability and security certification.

Two independent routes are provided for every security question:

* an algebraic route that reduces mutual information to matrix ranks
  (exact for linear maps of uniform independent seeds), and
* a brute-force oracle that enumerates the unknown inputs and seeds,
  tabulates exact joint counts and decides zero mutual information by integer
  factorization of those counts.  No floating point is involved anywhere.

The oracle exists to check the algebra, so it never calls into the rank
path; agreement between the two is itself a tested property.  A known
input symbol is a unit row: conditioning on it only shifts the other maps
by a known constant, so by independence its column leaves the grid.  Each
output symbol is evaluated only over its row's support, and a map's count
over all states is its count there times q per variable outside it.
Neither step needs elimination.  The rank route reduces the same quotient
by the known inputs once per pattern, gathered from `Scheme.link_rows`
without the rows and columns that cannot change the leak (see rank_leak).
Before any arithmetic it peels, by seed supports alone, every row that is
the only nonzero of a seed column: such a row is independent of the
others both in the whole stack and in its seed block, so it adds 1 to
both ranks and leaves the leak as it is.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from . import gf
from .errors import InvalidArgument, TooLargeToEnumerate
from .gf import FieldMatrix
from .protocol import run_round
from .schemes import Scheme, derive_user_keys, link_key_constraint_ok

_CHUNK_COLUMNS = 1 << 16
_DRAW_BLOCK = 4096  # reservoir replacement indices drawn per call


def _at_least_one(value: int, what: str):
    if value < 1:
        raise InvalidArgument(f"{what} must be at least 1, got {value}")


def _states(q: int, n_vars: int, cap: int) -> int:
    """q**n_vars, the states of a grid to enumerate; raises TooLargeToEnumerate past cap."""
    if (states := q ** n_vars) > cap:
        raise TooLargeToEnumerate(f"{q}**{n_vars} states exceed the cap {cap}")
    return states


@dataclass(frozen=True)
class CollusionPattern:
    """One adversary instance: a set of relays and a set of users."""

    relays: tuple[int, ...]
    users: tuple[int, ...]

    def __init__(self, relays: Iterable[int], users: Iterable[int]):
        object.__setattr__(self, "relays", tuple(sorted(set(int(r) for r in relays))))
        object.__setattr__(self, "users", tuple(sorted(set(int(u) for u in users))))

    def validate(self, s: Scheme):
        # the ids are sorted, so only the ends can be out of range
        top = s.topology
        if self.relays and (self.relays[0] < 1 or self.relays[-1] > top.K):
            raise InvalidArgument(f"relay ids out of range in {self}")
        if self.users and (self.users[0] < 1 or self.users[-1] > top.N):
            raise InvalidArgument(f"user ids out of range in {self}")


@dataclass(frozen=True)
class LinearView:
    """Coefficients of every message a relay coalition sees.

    Row r reconstructs the message labeled row_labels[r] as
    c_w[r] . input_coords + c_r[r] . key_seeds.
    """

    c_w: FieldMatrix
    c_r: FieldMatrix
    row_labels: tuple[tuple[int, int], ...]


def adversary_view(s: Scheme, p: CollusionPattern) -> LinearView:
    """Gather the coefficient rows of all messages received by p.relays."""
    p.validate(s)
    links = [(i, j, row) for j in p.relays for i, row in s.relay_rows[j - 1]]
    rows, seeds = s.link_rows[[row for _, _, row in links]], s.seed_count
    return LinearView(c_w=FieldMatrix._wrap(s.field, rows[:, seeds:]),
                      c_r=FieldMatrix._wrap(s.field, rows[:, :seeds]),
                      row_labels=tuple((i, j) for i, j, _ in links))


def _peel(supports: list[int]) -> list[int]:
    """Indices of the rows left once every seed column with one nonzero has pivoted.

    supports[r] is row r's seed support as a bitmask.  A column in exactly
    one live row's support pivots on that row, which leaves; repeat.
    """
    live = list(range(len(supports)))
    while True:
        once = twice = 0
        for r in live:
            twice |= once & supports[r]
            once |= supports[r]
        if not (single := once & ~twice):
            return live
        live = [r for r in live if not supports[r] & single]


def rank_leak(s: Scheme, p: CollusionPattern) -> int:
    """Exact mutual information (log_q units per block column) via one reduction.

    I(inputs; view | colluders' data) for linear maps of uniform seeds.  A
    known input is a unit row on a column no other row conditions on, so it
    adds 1 to every rank and clears its column; with V = [V_w | V_s] the view
    and K_c the colluders' key rows, the leak comes down to
    rank([V_s | V_w on the free users' inputs ; K_c | 0]) - rank([V_s ; K_c]),
    which is the number of pivots past the seed columns.  Two exact trims
    shrink that stack, for every scheme object whatever its matrices:

    * a colluder's message row leaves it: its input part lies in deleted
      columns, and its seed part, its link key, is a combination of the
      colluder's key rows (link_keys = user_key_map @ key_spreads), so it is
      in the row space of [K_c | 0] and moves neither rank;
    * the input columns of a free user with no link in the view leave it:
      they are zero in every row, and a zero column never pivots.

    Then a peel by seed supports alone (Scheme.seed_supports), before any
    arithmetic: a row that is the only nonzero of some seed column is
    independent of the other rows, in the whole stack and in its seed block
    alike, so it adds 1 to both ranks and leaves without changing the leak.
    Its removal can leave another seed column with one nonzero, so the peel
    repeats until none has.  If no row is left the leak is 0; otherwise the
    survivors are reduced, and the input columns of a free user with no
    surviving row leave as zero columns.  A survivor with no seed entry
    stays: if its input part is nonzero it is a leak pivot.
    """
    p.validate(s)
    top, seeds, k = s.topology, s.seed_count, s.keys_per_user
    seen = [row for j in p.relays for i, row in s.relay_rows[j - 1] if i not in p.users]
    keys = [(i - 1) * k + t for i in p.users for t in range(k)]
    link_supports, key_supports = s.seed_supports
    supports = [link_supports[r] for r in seen] + [key_supports[c] for c in keys]
    live = _peel(supports)
    if not live:
        return 0
    n_seen = len(seen)
    seen = [seen[r] for r in live if r < n_seen]
    keys = [keys[r - n_seen] for r in live if r >= n_seen]
    users = sorted({row // top.n for row in seen})  # 0-based
    cols = [*range(seeds), *(seeds + u * top.n + t for u in users for t in range(top.n))]
    stack = np.zeros((len(live), len(cols)), dtype=np.int64)
    stack[:len(seen)] = s.link_rows.take(seen, 0).take(cols, 1)
    stack[len(seen):, :seeds] = s.key_map.a.T.take(keys, 0)
    pivots = gf.pivots(FieldMatrix._wrap(s.field, stack))
    return len(pivots) - bisect.bisect_left(pivots, seeds)


def check_security_rank(s: Scheme, p: CollusionPattern) -> bool:
    """True iff the coalition learns nothing beyond its own data."""
    return rank_leak(s, p) == 0


# -- exhaustive enumeration engine --------------------------------------------
# States form a grid with one length-q axis per variable.  An image of a map is
# (ranks, n): ranks labels the map's value at each grid state with 0..n-1 and
# has length-1 axes for the variables outside the map's support.


def _assignments(q: int, n_vars: int, dtype: np.dtype) -> Iterator[np.ndarray]:
    """All q**n_vars assignments in row-major order, as columns of C-contiguous (n_vars, q**k)
    chunks of dtype (k maximal with q**k <= 2**16): one per high-digit value over the low block."""
    k = 0
    while k < n_vars and q ** (k + 1) <= _CHUNK_COLUMNS:
        k += 1
    low = np.indices((q,) * k, dtype=dtype).reshape(k, q ** k)
    for high in np.ndindex((q,) * (n_vars - k)):
        chunk = np.empty((n_vars, low.shape[1]), dtype=dtype)
        chunk[:n_vars - k] = np.array(high, dtype=dtype)[:, None]
        chunk[n_vars - k:] = low
        yield chunk


def _dense_ranks(keys: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Relabel keys in [0, size) as 0..n-1 in key order; returns (ranks, n).

    The table never outgrows keys: _fold keeps the key range within the cell
    count, since a linear image with fewer classes than cells has at most cells/q.
    """
    present = np.flatnonzero(np.bincount(keys.ravel(), minlength=size))
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
        if n * q > cells:
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


def _cond_entropy(a_mat: np.ndarray, b_mat: np.ndarray, q: int) -> Fraction:
    """H(A.s | B.s) in log_q units, s uniform over the maps' columns."""
    n_vars = a_mat.shape[1]
    total = q ** n_vars
    given = _fold((np.zeros((1,) * n_vars, dtype=np.int64), 1), b_mat, q)
    return Fraction(_entropy_sum(given, q, total)
                    - _entropy_sum(_fold(given, a_mat, q), q, total), total)


@dataclass(frozen=True)
class OracleResult:
    is_zero: bool
    mi_value: Fraction
    states: int


def _oracle_states(s: Scheme, width: int, cap: int) -> int:
    """mi_oracle's `states`, within cap: every input and seed of the whole block."""
    return _states(s.field.q, (s.topology.N * s.topology.n + s.seed_count) * width, cap)


def mi_oracle(s: Scheme, p: CollusionPattern, width: int = 1,
              cap: int = 10**8) -> OracleResult:
    """Brute-force mutual information of (inputs; view | colluders' data).

    Returns I(U; V | C) = H(V | C) - H(V | U, C) exactly (log_q units), for
    U the inputs, V the view and C the colluders' inputs and keys.  A known
    input is a unit row: conditioning on it only shifts the other maps by a
    known constant, so its column leaves the grid.  H(V | C) is thus counted
    over the free users' inputs and the seeds, H(V | U, C) over the seeds
    alone.  Both count one block column, times width: the width-w maps are w
    copies of the width-1 maps on disjoint variables.  The cap and `states`
    still cover every input and seed of the whole block.

    Raises:
        InvalidArgument: if width < 1.
        TooLargeToEnumerate: if q**((N*n + seeds) * width) exceeds cap.
    """
    _at_least_one(width, "block width")
    p.validate(s)
    q, total = s.field.q, _oracle_states(s, width, cap)
    # the view V = [V_w | V_s] without the colluders' input columns, and their key rows
    view, n, k = adversary_view(s, p), s.topology.n, s.keys_per_user
    v_s = view.c_r.a
    v_free = view.c_w.a[:, [c for c in range(s.topology.N * n) if c // n + 1 not in p.users]]
    keys = s.key_map.a[:, [(i - 1) * k + t for i in p.users for t in range(k)]].T
    given = np.hstack([keys, np.zeros((keys.shape[0], v_free.shape[1]), dtype=np.int64)])
    mi = width * (_cond_entropy(np.hstack([v_s, v_free]), given, q) - _cond_entropy(v_s, keys, q))
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
    _states(a_map.field.q, a_map.cols, cap)
    return _cond_entropy(a_map.a, b_map.a, a_map.field.q)


# -- decodability --------------------------------------------------------------


def _simulate_columns(s: Scheme, columns: np.ndarray) -> bool:
    """Run one batched round where each column is an independent assignment."""
    top = s.topology
    n_w = top.N * top.n
    inputs = [FieldMatrix._wrap(s.field, columns[(i - 1) * top.n:i * top.n, :])
              for i in range(1, top.N + 1)]
    keys = derive_user_keys(s, FieldMatrix._wrap(s.field, columns[n_w:, :]))
    return not run_round(s, inputs, keys=keys).mismatch


@dataclass(frozen=True)
class Decodability:
    """check_decodability's verdict, "exhaustive" over `states` width-1 columns
    or "sampled" over `samples` rounds of the block width (the other is None)."""

    mode: str
    passed: bool
    states: Optional[int] = None
    samples: Optional[int] = None

    def as_dict(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


def check_decodability(s: Scheme, samples: int = 10_000, width: int = 1,
                       seed: int = 0, cap: int = 10**8) -> Decodability:
    """Simulate rounds and check decode == direct sum, plus the certificate.

    If the q**(N*n + seeds) assignments of inputs and seeds are at most cap,
    each runs exactly once (chunked, so memory stays bounded); each column
    of a width-w block is an independent round, so that is exhaustive for
    every width.  Otherwise samples * width random int64 columns are drawn.
    Either way the columns enter the round in the narrowest signed dtype
    that holds (q - 1)**2; each kernel widens on its own to a dtype that
    holds its bound, so the verdict is an int64 round's.  The algebraic
    cancellation certificate is asserted in both modes, and `passed` is the
    conjunction, so a disagreement between simulation and certificate can
    only surface as a failure.

    Raises:
        InvalidArgument: if width < 1 or samples < 1.
    """
    _at_least_one(width, "block width")
    _at_least_one(samples, "samples")
    top, q = s.topology, s.field.q
    n_vars = top.N * top.n + s.seed_count
    # every product of the round widens its operands to at least a dtype that holds one
    # term, (q - 1)**2, so narrower columns would only be cast up again in each product
    dtype = gf._narrowest((q - 1) ** 2)
    if (states := q ** n_vars) <= cap:
        mode, count = "exhaustive", {"states": states}
        sim_ok = all(_simulate_columns(s, chunk) for chunk in _assignments(q, n_vars, dtype))
    else:
        mode, count = "sampled", {"samples": samples}
        rng = np.random.default_rng(seed)
        sim_ok = _simulate_columns(s, rng.integers(0, q, size=(n_vars, samples * width),
                                                   dtype=np.int64).astype(dtype, copy=False))
    return Decodability(mode, sim_ok and link_key_constraint_ok(s), **count)


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
    for relays, users in _pattern_tuples(top, t_h, t_u, all_sizes):
        yield CollusionPattern(relays, users)


def _pattern_tuples(top, t_h: int, t_u: int,
                    all_sizes: bool) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (relays, users) tuples of iter_patterns, in its order."""
    relay_sizes, user_sizes = _pattern_sizes(t_h, t_u, all_sizes)
    for rs in relay_sizes:
        for us in user_sizes:
            for relays in itertools.combinations(range(1, top.K + 1), rs):
                for users in itertools.combinations(range(1, top.N + 1), us):
                    yield relays, users


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
        return asdict(self)


def _reservoir(tuples: Iterator[tuple[tuple[int, ...], tuple[int, ...]]], budget: int,
               seed: int) -> list[CollusionPattern]:
    """A seeded uniform sample of `budget` patterns; only the kept ones are built.

    The walk streams in blocks with one draw call each.  numpy draws an
    array of bounds element by element, so the sample is that of one scalar
    draw per tuple, and memory stays O(budget + block).
    """
    rng = np.random.default_rng(seed)
    tuples = iter(tuples)
    chosen = list(itertools.islice(tuples, budget))
    k = len(chosen)
    while block := list(itertools.islice(tuples, _DRAW_BLOCK)):
        draws = rng.integers(0, np.arange(k + 1, k + len(block) + 1))
        for pos in np.flatnonzero(draws < budget).tolist():
            chosen[draws[pos]] = block[pos]
        k += len(block)
    return [CollusionPattern(relays, users) for relays, users in chosen]


def sweep_security(s: Scheme, t_h: int, t_u: int, budget: int = 100_000,
                   all_sizes: Optional[bool] = None, width: int = 1,
                   oracle_cap: int = 10**8, seed: int = 0) -> tuple[SweepReport, SweepReport]:
    """Check every collusion pattern at the given budgets by rank and by oracle.

    One walk serves both routes and returns (rank report, oracle report).
    Patterns beyond `budget` are randomly subsampled (seeded).  An oracle
    run past oracle_cap gives no verdict and counts as skipped, never as
    passed; if the whole block is past the cap, the oracle is not called.
    A pattern the routes decide differently is a disagreement in both.

    Raises:
        InvalidArgument: for a budget or width below 1.
    """
    _at_least_one(budget, "sweep budget")
    _at_least_one(width, "block width")
    if all_sizes is None:
        all_sizes = s.topology.N <= 6 and s.topology.K <= 6
    total = count_patterns(s.topology, t_h, t_u, all_sizes)
    reports = tuple(SweepReport(method, all_sizes, total, subsampled=total > budget)
                    for method in ("rank", "oracle"))
    try:
        _oracle_states(s, width, oracle_cap)  # the cap does not depend on the pattern
        run_oracle = True
    except TooLargeToEnumerate:
        run_oracle = False
    if total > budget:
        patterns: Iterable[CollusionPattern] = _reservoir(
            _pattern_tuples(s.topology, t_h, t_u, all_sizes), budget, seed)
    else:
        patterns = iter_patterns(s.topology, t_h, t_u, all_sizes)

    for pat in patterns:
        verdicts = [check_security_rank(s, pat), None]  # None: no oracle verdict
        if run_oracle:
            try:
                verdicts[1] = mi_oracle(s, pat, width=width, cap=oracle_cap).is_zero
            except TooLargeToEnumerate:  # an image with too many symbols to key
                pass
        disagree = verdicts[1] is not None and verdicts[0] != verdicts[1]
        for report, ok in zip(reports, verdicts):
            report.checked += 1
            report.disagreements += disagree
            if ok is None:
                report.skipped_cap += 1
            elif ok:
                report.passed += 1
            else:
                report.failed += 1
                report.first_failure = report.first_failure or pat
    return reports


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
    per-user key entropy sum, over the key-seed space: for one block column,
    times width, as in mi_oracle.

    Raises:
        InvalidArgument: if width < 1.
        TooLargeToEnumerate: if q**(seeds * width) exceeds cap.
    """
    _at_least_one(width, "block width")
    top = s.topology
    _states(s.field.q, s.seed_count * width, cap)
    per_link: dict[tuple[int, int], Fraction] = {}
    for i in range(1, top.N + 1):
        others = gf.vstack([s.user_key_map(k).T for k in range(1, top.N + 1) if k != i])
        for j in top.user_links[i - 1]:
            target = s.link_keys.take_cols([s.link_index(i, j)]).T
            per_link[(i, j)] = width * cond_entropy_enumerated(target, others, cap=cap)

    empty = gf.zeros(s.field, 0, s.seed_count)
    total = Fraction(0)
    for i in range(1, top.N + 1):
        total += width * cond_entropy_enumerated(s.user_key_map(i).T, empty, cap=cap)

    return ConverseChecks(
        per_link_entropy=per_link,
        all_links_determined=all(v == 0 for v in per_link.values()),
        user_entropy_sum=total,
        sum_lower_bound=Fraction(top.N * top.n * width),
    )

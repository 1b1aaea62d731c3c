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
by a known constant, so by independence its column is a free axis of the
grid.  Each output symbol is evaluated over its row's support alone, once
per scheme for a stack row, and a map's count over all states is its count
there times q per variable outside it.  Neither step needs elimination.
The rank route reduces the same quotient by the known inputs, for a block
of same-size patterns at once; rank_leak explains its gather, peel and
lockstep elimination.  A sweep walks pattern indices: it draws its
subsample over them and unranks only the patterns it checks, and it
refuses more than _WALK_LIMIT patterns before it walks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from . import gf
from .errors import InvalidArgument, TooLargeToEnumerate, at_least_one
from .gf import FieldMatrix
from .protocol import run_round
from .schemes import KeyMaterial, Scheme, derive_user_keys, link_key_constraint_ok

_CHUNK_COLUMNS = 1 << 17
_DRAW_BLOCK = 4096  # reservoir replacement indices drawn per call
_BLOCK_ENTRIES = 1 << 17  # entries a sweep block's peel, or a rank-kernel chunk, holds at most
_WALK_LIMIT = 1 << 32  # patterns a sweep walks, at most


def _states(q: int, n_vars: int, cap: int) -> int:
    """q**n_vars, the states of a grid to enumerate; raises TooLargeToEnumerate past cap."""
    # q >= 2, so from cap.bit_length() variables on q**n_vars > cap: never build that power
    if n_vars >= cap.bit_length() or (states := q ** n_vars) > cap:
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
    relay_rows, relay_users, _ = s.stack_index
    links = [(i, j, row) for j in p.relays
             for i, row in zip(relay_users[j].tolist(), relay_rows[j].tolist()) if i]
    rows, seeds = s.stack_rows[[row for _, _, row in links]], s.seed_count
    return LinearView(c_w=FieldMatrix._wrap(s.field, rows[:, seeds:]),
                      c_r=FieldMatrix._wrap(s.field, rows[:, :seeds]),
                      row_labels=tuple((i, j) for i, j, _ in links))


def _peel(idx: np.ndarray, supports: np.ndarray, zero: int):
    """Point each row of the (B, rows) idx that the peel removes at the zero row.

    supports[b, r] holds row idx[b, r]'s seed support as packed bits.  A seed
    column set in exactly one live row's support pivots on that row, which
    leaves: a row leaves if its support has a bit outside `twice`, the
    columns set in two rows or more.  Repeat until no row leaves.
    """
    while supports.any():
        before = np.bitwise_or.accumulate(supports, axis=1)
        twice = np.bitwise_or.reduce(supports[:, 1:] & before[:, :-1], axis=1)
        if not (peeled := (supports & ~twice[:, None]).any(axis=2)).any():
            return
        idx[peeled], supports[peeled] = zero, 0


def _leaks(s: Scheme, relays: np.ndarray, users: np.ndarray) -> np.ndarray:
    """rank_leak of each pattern of a block: relays and users are (B, size)
    arrays of in-range 1-based ids, one pattern per row, of one size.  Only the
    peel's survivors are eliminated, in chunks of at most _BLOCK_ENTRIES entries."""
    relay_rows, relay_users, key_rows = s.stack_index
    zero = len(s.stack_rows) - 1
    seen = relay_rows[relays]
    # a colluder's own messages leave the stack (see rank_leak)
    seen[(relay_users[relays][..., None] == users[:, None, None]).any(axis=3)] = zero
    idx = np.concatenate([seen.reshape(len(seen), -1), key_rows[users].reshape(len(seen), -1)],
                         axis=1)
    _peel(idx, s.stack_supports[idx], zero)
    live = (idx != zero).sum(axis=1)
    leaks = np.zeros(len(idx), dtype=np.int64)
    todo = np.flatnonzero(live)
    step = max(1, _BLOCK_ENTRIES // max(1, idx.shape[1] * s.stack_rows.shape[1]))
    for start in range(0, todo.size, step):
        chunk = todo[start:start + step]
        stacks = idx[chunk]
        seed_ranks = gf._lockstep_ranks(s.stack_rows[:, :s.seed_count][stacks], s.field.q)
        if (short := seed_ranks < live[chunk]).any():  # else each seed block has full row rank
            leaks[chunk[short]] = (gf._lockstep_ranks(s.stack_rows[stacks[short]], s.field.q)
                                   - seed_ranks[short])
    return leaks


def rank_leak(s: Scheme, p: CollusionPattern) -> int:
    """Exact mutual information (log_q units per block column) via one reduction.

    I(inputs; view | colluders' data) for linear maps of uniform seeds.  A
    known input is a unit row on a column no other row conditions on, so it
    adds 1 to every rank and clears its column; with V = [V_w | V_s] the view
    and K_c the colluders' key rows, the leak comes down to
    rank([V_s | V_w on the free users' inputs ; K_c | 0]) - rank([V_s ; K_c]).
    A colluder's message row leaves that stack, for every scheme object
    whatever its matrices: its input part lies in deleted columns, and its
    seed part, its link key, is a combination of the colluder's key rows
    (link_keys = user_key_map @ key_spreads), so it is in the row space of
    [K_c | 0] and moves neither rank.  An input column no row touches is
    zero and never pivots, so the stack keeps every input column.

    The pattern is a block of one for the block kernel the sweep runs on
    many patterns at once: one gather of row indices into Scheme.stack_rows
    through Scheme.stack_index, with the colluders' links pointed at its
    zero row; then a peel on the packed seed supports alone
    (Scheme.stack_supports), before any arithmetic: a row that is the only
    nonzero of some seed column is independent of the other rows, in the
    whole stack and in its seed block alike, so it adds 1 to both ranks and
    leaves without changing the leak.  Its removal can leave another seed
    column with one nonzero, so the peel repeats until none has.  If no row
    is left the leak is 0.  Otherwise the survivors' seed blocks are reduced
    in one lockstep elimination, and only a stack whose seed block has rank
    below its count of rows is reduced at full width: the leak is the
    difference of the two ranks.
    """
    p.validate(s)
    return int(_leaks(s, *(np.array([ids], dtype=np.intp).reshape(1, -1)
                            for ids in (p.relays, p.users)))[0])


def check_security_rank(s: Scheme, p: CollusionPattern) -> bool:
    """True iff the coalition learns nothing beyond its own data."""
    return rank_leak(s, p) == 0


# -- exhaustive enumeration engine --------------------------------------------
# States form a grid with one length-q axis per variable.  An image of a map is
# (ranks, n): ranks labels the map's value at each grid state with 0..n-1 and
# has length-1 axes for the variables outside the map's support.


def _assignments(q: int, n_vars: int, dtype: np.dtype) -> Iterator[np.ndarray]:
    """All q**n_vars assignments in row-major order, as columns of one C-contiguous (n_vars, q**k)
    buffer of dtype (k maximal with q**k <= _CHUNK_COLUMNS) whose low rows are written once: each
    chunk rewrites the high rows with the next high-digit value, so it is valid until the next."""
    k = 0
    while k < n_vars and q ** (k + 1) <= _CHUNK_COLUMNS:
        k += 1
    chunk = np.empty((n_vars, q ** k), dtype=dtype)
    for v in range(k):  # low row v repeats each digit q**(k - 1 - v) times, q**v times over
        chunk[n_vars - k + v].reshape(q ** v, q, -1)[:] = np.arange(q, dtype=dtype)[:, None]
    for high in np.ndindex((q,) * (n_vars - k)):
        chunk[:n_vars - k] = np.array(high, dtype=dtype)[:, None]
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
    """row . s mod q on the grid, as an outer sum over the row's support only, reduced once."""
    support = np.flatnonzero(row)
    dtype = gf._narrowest(max(len(support), 1) * q)  # holds q and the sum, for any support
    table = (row[support, None] * np.arange(q) % q).astype(dtype)
    sym = np.zeros((1,) * n_vars, dtype=dtype)
    for v, terms in zip(support, table):
        sym = sym + terms.reshape((1,) * v + (q,) + (1,) * (n_vars - 1 - v))
    return sym % dtype.type(q)


def _stack_symbol(s: Scheme, key: tuple[int, bool]) -> np.ndarray:
    """A symbol of Scheme.stack_rows, kept in Scheme.stack_symbols: key (row, True) is its seed
    part on the seeds, a grid's leading axes, and (row, False) all of it on (seeds, inputs)."""
    if key not in s.stack_symbols:
        row = s.stack_rows[key[0]][:s.seed_count if key[1] else None]
        s.stack_symbols[key] = _row_symbols(row, s.field.q, len(row))
    return s.stack_symbols[key]


def _fold_stack(s: Scheme, image, rows, whole=()) -> tuple[np.ndarray, int]:
    """_fold of Scheme.stack_rows from the memo: all of each row in whole, else its seed part."""
    keys = [(row, row not in whole) for row in np.ravel(rows).tolist()]
    return _fold(image, keys, s.field.q, lambda key: _stack_symbol(s, key))


def _fold(image: tuple[np.ndarray, int], rows, q: int, symbols=None) -> tuple[np.ndarray, int]:
    """Image of the joint map (image, the rows' symbols).

    symbols(row), asked for once the rows fit int64 keys, is a row's symbol
    on the grid or its leading axes (by default the rows are a matrix's).
    It is appended to the keys as one more base-q digit, after densifying
    them if the digit would take their range past the grid size: then a
    linear image has one cell per class, which no row splits, or grid/q.
    """
    if q ** len(rows) > 2**62:
        raise TooLargeToEnumerate(f"image of {len(rows)} symbols over F_{q} cannot be keyed")
    keys, n = image
    symbols = symbols or (lambda row, n_vars=keys.ndim: _row_symbols(row % q, q, n_vars))
    for row in rows:
        if (sym := symbols(row)).size == 1:  # a zero row's: constant
            continue
        sym = sym.reshape(sym.shape + (1,) * (keys.ndim - sym.ndim))
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
    powers = [1]  # in Python ints up to the largest count: q ** np.arange(...) wraps in int64
    while powers[-1] * q <= counts.max():
        powers.append(powers[-1] * q)
    exps = np.searchsorted(powers, counts, side="right") - 1
    if (bad := np.array(powers)[exps] != counts).any():
        raise InvalidArgument(f"class count {int(counts[bad][0])} is not a power of {q}")
    free = ranks.shape.count(1)
    return q**free * int(counts @ exps) + total * free


def _no_image(n_vars: int) -> tuple[np.ndarray, int]:
    """The image of no map on a grid of n_vars variables: one class."""
    return np.zeros((1,) * n_vars, dtype=np.int64), 1


def _cond_entropy(a_mat: np.ndarray, b_mat: np.ndarray, q: int) -> Fraction:
    """H(A.s | B.s) in log_q units, s uniform over the maps' columns."""
    given, total = _fold(_no_image(b_mat.shape[1]), b_mat, q), q ** b_mat.shape[1]
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

    Returns I(U; V | C) exactly (log_q units), for U the inputs, V the view
    and C the colluders' inputs and keys.  A known input is a unit row that
    only shifts the other maps by a known constant, so its column is a free
    axis of the grid (seeds, inputs), which scales every count by q and
    cancels: with K the colluders' key rows and V = [V_s | V_free] (V_free
    is 0 on their own messages), I = H(V | C) - H(V | U, C) = H(K, V) -
    H(K, V_s), as H(K) cancels.  K is folded once and two joint images are
    counted, for one block column, times width: a width-w block is w copies
    of the width-1 maps on disjoint variables.  The cap and `states` cover
    every input and seed of the whole block.  V and K are Scheme.stack_rows,
    whose symbols _stack_symbol keeps; a view without rows folds nothing.

    Raises:
        InvalidArgument: if width < 1 or p has an id out of range.
        TooLargeToEnumerate: if q**((N*n + seeds) * width) exceeds cap.
    """
    at_least_one(width, "block width")
    p.validate(s)
    q, states = s.field.q, _oracle_states(s, width, cap)
    rows, users = (a[list(p.relays)].ravel().tolist() for a in s.stack_index[:2])
    view = [row for row, user in zip(rows, users) if user]
    if not view:
        return OracleResult(is_zero=True, mi_value=Fraction(0), states=states)
    n_vars = s.stack_rows.shape[1]
    given = _fold_stack(s, _no_image(n_vars), s.stack_index[2][list(p.users)])
    whole = {row for row, user in zip(rows, users) if user not in p.users}  # V_free's rows
    h_v, h_vs = (_entropy_sum(_fold_stack(s, given, view, w), q, q ** n_vars) for w in (whole, ()))
    mi = width * Fraction(h_vs - h_v, q ** n_vars)
    return OracleResult(is_zero=(mi == 0), mi_value=mi, states=states)


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


def _simulate_columns(s: Scheme, columns: np.ndarray, keys: Optional[KeyMaterial] = None) -> bool:
    """Run one batched round where each column is an independent assignment."""
    top = s.topology
    inputs = [FieldMatrix._wrap(s.field, columns[(i - 1) * top.n:i * top.n, :])
              for i in range(1, top.N + 1)]
    if keys is None:  # else they are the keys the columns' seed rows derive
        keys = derive_user_keys(s, FieldMatrix._wrap(s.field, columns[top.N * top.n:, :]))
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
    each runs exactly once; each column of a width-w block is an independent
    round, so that is exhaustive for every width.  They run as one batched
    round per chunk of at most _CHUNK_COLUMNS = 2**17 columns, rewritten in
    one buffer (see _assignments), so memory stays bounded.  The seeds are
    the lowest digits: if a chunk spans all their values, every chunk holds
    the same seed rows and the keys are derived once, else once per chunk.
    Keys read in place (see derive_user_keys) are views of the buffer: of its
    low rows, written once, when derived once; else of the chunk's own seed
    rows.  Otherwise samples * width random int64 columns are drawn.  The
    columns enter the round in the narrowest signed dtype that holds
    (q - 1)**2; each kernel widens on its own to a dtype that holds its
    bound, so the verdict is an int64 round's.  The algebraic cancellation
    certificate is asserted in both modes, and `passed` is the conjunction,
    so a disagreement between simulation and certificate can only surface
    as a failure.

    Raises:
        InvalidArgument: if width < 1 or samples < 1.
    """
    at_least_one(width, "block width")
    at_least_one(samples, "samples")
    top, q = s.topology, s.field.q
    n_vars = top.N * top.n + s.seed_count
    # every product of the round widens its operands to at least a dtype that holds one
    # term, (q - 1)**2, so narrower columns would only be cast up again in each product
    dtype = gf._narrowest((q - 1) ** 2)
    if (states := q ** n_vars) <= cap:
        mode, count = "exhaustive", {"states": states}
        chunks = _assignments(q, n_vars, dtype)
        first = next(chunks)
        # the seeds are the lowest digits: if a chunk spans them, all chunks share their keys
        keys = (derive_user_keys(s, FieldMatrix._wrap(s.field, first[n_vars - s.seed_count:]))
                if first.shape[1] >= q ** s.seed_count else None)
        sim_ok = all(_simulate_columns(s, c, keys) for c in itertools.chain([first], chunks))
    else:
        mode, count = "sampled", {"samples": samples}
        columns = s.field.rand(np.random.default_rng(seed), (n_vars, samples * width))
        sim_ok = _simulate_columns(s, columns.astype(dtype, copy=False))
    return Decodability(mode, sim_ok and link_key_constraint_ok(s), **count)


# -- pattern sweeps ------------------------------------------------------------


def _pattern_sizes(top, t_h: int, t_u: int, all_sizes: bool):
    """(relay sizes, user sizes) of the patterns a sweep covers; a budget past
    the network's K relays or N users covers all of them.  Raises InvalidArgument below 0."""
    if t_h < 0 or t_u < 0:
        raise InvalidArgument(f"collusion budgets must be at least 0, got t_h={t_h}, t_u={t_u}")
    t_h, t_u = min(t_h, top.K), min(t_u, top.N)
    return (range(t_h + 1), range(t_u + 1)) if all_sizes else ((t_h,), (t_u,))


def iter_patterns(top, t_h: int, t_u: int, all_sizes: bool) -> Iterator[CollusionPattern]:
    """All collusion patterns at the given budgets.

    all_sizes walks the full sub-pattern lattice (|relays| <= t_h,
    |users| <= t_u); otherwise only maximal patterns are produced.
    Security of a maximal pattern does not formally imply security of its
    sub-patterns, hence the lattice option.  The order is by size block,
    then relay combination, then user combination, each lexicographic; a
    pattern's place in it is its index.
    """
    relay_sizes, user_sizes = _pattern_sizes(top, t_h, t_u, all_sizes)
    for rs in relay_sizes:
        for us in user_sizes:
            for relays in itertools.combinations(range(1, top.K + 1), rs):
                for users in itertools.combinations(range(1, top.N + 1), us):
                    yield CollusionPattern(relays, users)


def count_patterns(top, t_h: int, t_u: int, all_sizes: bool) -> int:
    relay_sizes, user_sizes = _pattern_sizes(top, t_h, t_u, all_sizes)
    return sum(math.comb(top.K, rs) * math.comb(top.N, us)
               for rs in relay_sizes for us in user_sizes)


def _unrank(index: np.ndarray, n: int, r: int) -> np.ndarray:
    """The r-combinations of 1..n at the given lexicographic ranks, one per row.

    With its first i ids fixed, the last of them prev, a combination whose
    next id is c has C(n - prev, t) - C(n + 1 - c, t) predecessors among
    those sharing the fixed ids (t = r - i), so c = n + 1 - m for the least
    m with C(m, t) >= C(n - prev, t) - index.  Each table entry is at most
    C(n, r).
    """
    out = np.empty((len(index), r), dtype=np.intp)
    prev, rest = np.zeros(len(index), dtype=np.intp), index
    for i in range(r):
        table = np.array([math.comb(m, r - i) for m in range(n - i + 1)], dtype=np.int64)
        above = table[n - prev] - rest
        m = np.searchsorted(table, above)
        out[:, i] = prev = n + 1 - m
        rest = table[m] - above
    return out


def _pattern_blocks(top, t_h: int, t_u: int, all_sizes: bool, indices: np.ndarray,
                    block: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The patterns of iter_patterns at `indices`, unranked in blocks of at
    most `block` patterns of one size: (places in indices, relays, users) per
    block, the ids as rows of 1-based arrays.  No other pattern is built."""
    order = np.argsort(indices, kind="stable")
    ranked, lo, end = indices[order], 0, 0
    relay_sizes, user_sizes = _pattern_sizes(top, t_h, t_u, all_sizes)
    for rs in relay_sizes:
        for us in user_sizes:
            n_users = math.comb(top.N, us)
            begin, end = end, end + math.comb(top.K, rs) * n_users
            hi = int(np.searchsorted(ranked, end))
            for start in range(lo, hi, block):
                local = ranked[start:min(start + block, hi)] - begin
                yield (order[start:start + len(local)], _unrank(local // n_users, top.K, rs),
                       _unrank(local % n_users, top.N, us))
            lo = hi


@dataclass
class SweepReport:
    """One route's tally over a sweep.

    all_passed means no pattern failed and the routes never disagreed; it
    does not mean that anything was decided.  A report whose every pattern
    was skipped at the cap (skipped_cap == checked, passed == 0) reads as
    passed: the oracle report of a sweep whose grid exceeds the cap does,
    and the rank report alone then decides the sweep.
    """

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


def _sample(total: int, budget: int, seed: int) -> np.ndarray:
    """The indices of a seeded uniform sample of `budget` of `total` patterns,
    in slot order: the reservoir over the walk, drawn without building a pattern.

    Slot i starts with index i, and index k >= budget replaces slot r for a
    uniform r in [0, k] if r < budget.  The draws come in blocks with one
    call each; numpy draws an array of bounds element by element, so the
    sample is that of one scalar draw per index, and memory stays
    O(budget + block).
    """
    rng = np.random.default_rng(seed)
    chosen = np.arange(budget, dtype=np.int64)
    for start in range(budget, total, _DRAW_BLOCK):
        draws = rng.integers(0, np.arange(start + 1, min(start + _DRAW_BLOCK, total) + 1))
        hits = np.flatnonzero(draws < budget)[::-1]  # latest first: a slot keeps its last draw
        slots, last = np.unique(draws[hits], return_index=True)
        chosen[slots] = start + hits[last]
    return chosen


def sweep_security(s: Scheme, t_h: int, t_u: int, budget: int = 100_000,
                   all_sizes: Optional[bool] = None, width: int = 1,
                   oracle_cap: int = 10**8, seed: int = 0) -> tuple[SweepReport, SweepReport]:
    """Check every collusion pattern at the given budgets by rank and by oracle.

    One walk serves both routes and returns (rank report, oracle report).
    Patterns beyond `budget` are randomly subsampled (seeded); the sample
    is drawn over pattern indices, and only its patterns are unranked.
    Drawing it walks every index, so a sweep is refused past _WALK_LIMIT
    patterns, which also keeps every index within int64.  An
    oracle run past oracle_cap gives no verdict and counts as skipped,
    never as passed.  If the grid of the whole block width is past the cap,
    the oracle is not called, and the rank route checks the patterns in
    blocks (see rank_leak) without building them: a block is sized by the
    support words its gather and peel hold, and _leaks eliminates the
    patterns the peel leaves in chunks of bounded size; where the
    oracle runs, each pattern is built and checked by check_security_rank
    and mi_oracle.  A pattern the routes decide differently is a
    disagreement in both; first_failure is the first failing pattern of
    the walk.

    Raises:
        InvalidArgument: for a budget or width below 1.
        TooLargeToEnumerate: past _WALK_LIMIT patterns, before any is
            sampled or checked.
    """
    at_least_one(budget, "sweep budget")
    at_least_one(width, "block width")
    top = s.topology
    if all_sizes is None:
        all_sizes = top.N <= 6 and top.K <= 6
    if (total := count_patterns(top, t_h, t_u, all_sizes)) > _WALK_LIMIT:
        raise TooLargeToEnumerate(f"{total} collusion patterns exceed the sweep's walk limit "
                                  f"{_WALK_LIMIT}")
    reports = tuple(SweepReport(method, all_sizes, total, subsampled=total > budget)
                    for method in ("rank", "oracle"))
    try:
        _oracle_states(s, width, oracle_cap)  # the cap does not depend on the pattern
        run_oracle = True
    except TooLargeToEnumerate:
        run_oracle = False
    indices = _sample(total, budget, seed) if total > budget else np.arange(total)
    max_rows = min(t_h, top.K) * s.stack_index[0].shape[1] + min(t_u, top.N) * s.keys_per_user
    # a block's gather and peel hold about four words of supports per row of each pattern
    block = max(1, _BLOCK_ENTRIES // max(1, 4 * max_rows * s.stack_supports.shape[1]))
    verdicts = np.full((2, len(indices)), -1, dtype=np.int8)  # 1 passed, 0 failed, -1 none
    for places, relays, users in _pattern_blocks(top, t_h, t_u, all_sizes, indices, block):
        if not run_oracle:
            verdicts[0, places] = _leaks(s, relays, users) == 0
            continue
        for place, r, u in zip(places.tolist(), relays.tolist(), users.tolist()):
            pat = CollusionPattern(r, u)
            verdicts[0, place] = check_security_rank(s, pat)
            try:
                verdicts[1, place] = mi_oracle(s, pat, width=width, cap=oracle_cap).is_zero
            except TooLargeToEnumerate:  # an image with too many symbols to key
                pass
    disagreements = int(((verdicts[1] >= 0) & (verdicts[0] != verdicts[1])).sum())
    for report, ok in zip(reports, verdicts):
        report.checked, report.disagreements = len(ok), disagreements
        report.passed, report.failed, report.skipped_cap = (int((ok == v).sum())
                                                            for v in (1, 0, -1))
        if report.failed:  # unranked once more, from its index
            _, relays, users = next(_pattern_blocks(top, t_h, t_u, all_sizes,
                                                    indices[[(ok == 0).argmax()]], 1))
            report.first_failure = CollusionPattern(relays[0].tolist(), users[0].tolist())
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
    """Enumerate H(link key | other users' keys) for every link, folding the other users' keys
    once per user, and the per-user key entropy sum, over the key-seed space: for one block
    column, times width, as in mi_oracle, on the seed parts of Scheme.stack_rows, whose
    symbols _stack_symbol keeps: a converse after a sweep evaluates none anew.

    Raises:
        InvalidArgument: if width < 1.
        TooLargeToEnumerate: if q**(seeds * width) exceeds cap.
    """
    at_least_one(width, "block width")
    top, q, key_rows = s.topology, s.field.q, s.stack_index[2]
    _states(q, s.seed_count * width, cap)
    none, states = _no_image(s.seed_count), q ** s.seed_count
    per_link: dict[tuple[int, int], Fraction] = {}
    for i in range(1, top.N + 1):
        others = _fold_stack(s, none, np.delete(key_rows[1:], i - 1, axis=0))
        h_others = _entropy_sum(others, q, states)
        for j in top.user_links[i - 1]:
            link = _fold_stack(s, others, s.link_index(i, j))
            per_link[(i, j)] = width * Fraction(h_others - _entropy_sum(link, q, states), states)

    h_none = _entropy_sum(none, q, states)
    total = width * Fraction(sum(h_none - _entropy_sum(_fold_stack(s, none, keys), q, states)
                                 for keys in key_rows[1:]), states)

    return ConverseChecks(
        per_link_entropy=per_link,
        all_links_determined=all(v == 0 for v in per_link.values()),
        user_entropy_sum=total,
        sum_lower_bound=Fraction(top.N * top.n * width),
    )

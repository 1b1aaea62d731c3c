"""Independent brute-force oracles used to freeze expected test values.

Everything here is deliberately naive and separate from the library code
paths it checks.
"""

from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np


def brute_inverse(a: int, q: int) -> int:
    """Field inverse by scanning all residues."""
    for c in range(1, q):
        if (a * c) % q == 1:
            return c
    raise ValueError(f"{a} has no inverse mod {q}")


def brute_collusion_threshold(top, t_h: int) -> int:
    """Minimum union of user sets over all relay subsets of the mandated size."""
    size = top.K - t_h - top.n + 1
    best = None
    for subset in combinations(range(top.K), size):
        users = set()
        for j in subset:
            users.update(top.relay_links[j])
        if best is None or len(users) < best:
            best = len(users)
    return best


def _edges(top):
    """All edges of the three-layer graph: user->relay links and relay->server links."""
    uplinks = [("u", i, j) for i in range(1, top.N + 1) for j in top.user_links[i - 1]]
    downlinks = [("r", j) for j in range(1, top.K + 1)]
    return uplinks + downlinks


def _some_user_disconnected(top, cut: set) -> bool:
    for i in range(1, top.N + 1):
        blocked = all(
            ("u", i, j) in cut or ("r", j) in cut for j in top.user_links[i - 1]
        )
        if blocked:
            return True
    return False


def brute_min_cut(top) -> int:
    """Smallest edge set whose removal disconnects some user from the server,
    by exhaustive subset enumeration in ascending size."""
    edges = _edges(top)
    for size in range(1, len(edges) + 1):
        for subset in combinations(edges, size):
            if _some_user_disconnected(top, set(subset)):
                return size
    raise AssertionError("no cut found")


def _all_states(q: int, n_vars: int) -> np.ndarray:
    """Every assignment of n_vars variables over F_q, first variable most significant."""
    index = np.arange(q ** n_vars, dtype=np.int64)[:, None]
    return (index // q ** np.arange(n_vars - 1, -1, -1, dtype=np.int64)) % q


def _images(q: int, *mats) -> list:
    """Per state, the tuple of values of every map (mat . s mod q)."""
    states = _all_states(q, mats[0].shape[1])
    parts = [(states @ np.asarray(m, dtype=np.int64).T) % q for m in mats]
    return [tuple(tuple(int(x) for x in part[k]) for part in parts)
            for k in range(states.shape[0])]


def _log_q(ratio: Fraction, q: int) -> int:
    """The integer e with ratio == q**e; fails if there is none."""
    e, x = 0, ratio
    while x > 1 and x.numerator % q == 0:
        x, e = x / q, e + 1
    while x < 1 and x.denominator % q == 0:
        x, e = x * q, e - 1
    assert x == 1, f"{ratio} is not a power of {q}"
    return e


def brute_cond_entropy(a, b, q: int) -> Fraction:
    """H(A.s | B.s) in log_q units for s uniform over F_q^cols, one state at a time."""
    images = _images(q, a, b)
    n_ab = Counter(images)
    n_b = Counter(img_b for _, img_b in images)
    return sum((Fraction(count, len(images)) * _log_q(Fraction(n_b[img_b], count), q)
                for (_, img_b), count in n_ab.items()), Fraction(0))


def brute_mutual_information(u, v, c, q: int) -> Fraction:
    """I(U.s; V.s | C.s) in log_q units for s uniform, from the joint counts."""
    images = _images(q, u, v, c)
    n_uvc = Counter(images)
    n_uc = Counter((iu, ic) for iu, _, ic in images)
    n_vc = Counter((iv, ic) for _, iv, ic in images)
    n_c = Counter(ic for _, _, ic in images)
    return sum((Fraction(count, len(images))
                * _log_q(Fraction(count * n_c[ic], n_uc[(iu, ic)] * n_vc[(iv, ic)]), q)
                for (iu, iv, ic), count in n_uvc.items()), Fraction(0))


def brute_rank(mat, q: int) -> int:
    """Rank over F_q by Gauss-Jordan elimination, one pivot column at a time."""
    m = np.asarray(mat, dtype=np.int64) % q
    rank = 0
    for col in range(m.shape[1]):
        pivots = np.flatnonzero(m[rank:, col])
        if pivots.size == 0:
            continue
        m[[rank, rank + pivots[0]]] = m[[rank + pivots[0], rank]]
        m[rank] = m[rank] * brute_inverse(int(m[rank, col]), q) % q
        others = np.arange(m.shape[0]) != rank
        m[others] = (m[others] - np.outer(m[others, col], m[rank])) % q
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def four_rank_leak(u, v, c, q: int) -> int:
    """I(U.s; V.s | C.s) in log_q units as H(V | C) - H(V | U, C), four ranks.

    u holds every input row, v the view and c the colluders' inputs and keys:
    [rank(v+c) - rank(c)] - [rank(v+u+c) - rank(u+c)].
    """
    uc = np.vstack([u, c])
    return ((brute_rank(np.vstack([v, c]), q) - brute_rank(c, q))
            - (brute_rank(np.vstack([v, uc]), q) - brute_rank(uc, q)))

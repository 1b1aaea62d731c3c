"""Homogeneous three-layer user/relay/server networks.

A topology has N users, K relays and one server.  Every user feeds exactly
n relays and every relay serves exactly m users, so N*n = K*m.  Ids are
1-based; per-user relay sets are kept sorted ascending, which fixes the
coordinate order of every length-n vector indexed by them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import InvalidArgument, InvalidTopology, TooLargeToEnumerate, as_int


def _wrap(a: int, k: int) -> int:
    """Map a onto [1..k] (the residue k is used instead of 0)."""
    r = a % k
    return r if r != 0 else k


@dataclass(frozen=True)
class Topology:
    N: int  # users
    K: int  # relays
    n: int  # relays per user
    m: int  # users per relay
    user_links: tuple[tuple[int, ...], ...]  # sorted relay ids per user
    relay_links: tuple[tuple[int, ...], ...]  # sorted user ids per relay

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "K": self.K,
            "n": self.n,
            "user_links": [list(h) for h in self.user_links],
        }

    @staticmethod
    def from_dict(d: dict) -> "Topology":
        return build_explicit(as_int(d["N"], "topology N"), as_int(d["K"], "topology K"),
                              d["user_links"])


def build_explicit(n_users: int, n_relays: int, user_links: Sequence[Sequence[int]]) -> Topology:
    """Validate an explicit user-relay association and derive the relay side.

    Raises:
        InvalidTopology: on degree violations, duplicate links, N*n != K*m,
            or a user degree of zero or reaching the relay count.
        InvalidArgument: if user_links is not a list of integer lists.
    """
    if n_users < 1 or n_relays < 1:
        raise InvalidTopology("need at least one user and one relay")
    if not isinstance(user_links, (list, tuple)) or \
            not all(isinstance(h, (list, tuple)) for h in user_links):
        raise InvalidArgument("user_links must be a list of relay lists")
    if len(user_links) != n_users:
        raise InvalidTopology(f"expected {n_users} adjacency lists, got {len(user_links)}")

    links: list[tuple[int, ...]] = []
    for i, h in enumerate(user_links, start=1):
        h = tuple(sorted(as_int(j, "a user_links entry") for j in h))
        if len(set(h)) != len(h):
            raise InvalidTopology(f"user {i} lists a relay twice")
        if any(j < 1 or j > n_relays for j in h):
            raise InvalidTopology(f"user {i} links outside [1..{n_relays}]")
        links.append(h)

    degree = len(links[0])
    if any(len(h) != degree for h in links):
        raise InvalidTopology("user degrees are not homogeneous")
    if degree < 1:
        raise InvalidTopology("every user needs at least one relay")
    if degree >= n_relays:
        raise InvalidTopology(f"user degree {degree} must be below the relay count {n_relays}")
    if n_relays > n_users * degree:  # checked before the K relay lists are allocated
        raise InvalidTopology(f"relay degrees are not homogeneous: {n_relays} relays, "
                              f"{n_users * degree} links")

    relay_links: list[list[int]] = [[] for _ in range(n_relays)]
    for i, h in enumerate(links, start=1):
        for j in h:
            relay_links[j - 1].append(i)
    relay_degrees = {len(u) for u in relay_links}
    if len(relay_degrees) != 1:
        raise InvalidTopology(f"relay degrees are not homogeneous: {sorted(relay_degrees)}")
    m = relay_degrees.pop()
    if n_users * degree != n_relays * m:
        raise InvalidTopology("link count mismatch between the two layers")

    return Topology(
        N=n_users,
        K=n_relays,
        n=degree,
        m=m,
        user_links=tuple(links),
        relay_links=tuple(tuple(u) for u in relay_links),
    )


def build_cyclic(n_relays: int, relays_per_user: int) -> Topology:
    """Cyclic wrap-around network: N = K and user i feeds relays i..i+n-1."""
    k, n = n_relays, relays_per_user
    if n >= k:
        raise InvalidTopology(f"user degree {n} must be below the relay count {k}")
    links = [[_wrap(i + s, k) for s in range(n)] for i in range(1, k + 1)]
    return build_explicit(k, k, links)


def build_multiple_cyclic(n_relays: int, relays_per_user: int, copies: int) -> Topology:
    """Stack of `copies` cyclic layers on the same relays: N = copies * K.

    User p*K + i (p >= 0) has the same relay set as user i of the single
    cyclic network, so every relay serves copies * n users.
    """
    if copies < 1:
        raise InvalidTopology("need at least one cyclic copy")
    base = build_cyclic(n_relays, relays_per_user)
    links = [list(base.user_links[i]) for _ in range(copies) for i in range(n_relays)]
    return build_explicit(copies * n_relays, n_relays, links)


def cyclic_copies(top: Topology) -> int | None:
    """copies if top equals build_multiple_cyclic(K, n, copies), else None: by value, so a
    relabelled cyclic network is not recognised."""
    copies, rest = divmod(top.N, top.K)
    return copies if rest == 0 and top == build_multiple_cyclic(top.K, top.n, copies) else None


def build_tree(n_relays: int, users_per_relay: int) -> Topology:
    """Tree network: each of the K relays owns its own block of V users (n = 1)."""
    if n_relays < 2:
        raise InvalidTopology("a tree needs at least two relays so that n < K")
    links = [[j] for j in range(1, n_relays + 1) for _ in range(users_per_relay)]
    return build_explicit(n_relays * users_per_relay, n_relays, links)


def collusion_threshold(top: Topology, t_h: int, cap: int = 10**8) -> int:
    """Minimum user count covering some set of K - t_h - n + 1 relays.

    This is the user-collusion feasibility boundary: a scheme at per-link
    load 1/n tolerates t_u colluding users iff t_u stays strictly below this
    value.

    On a (multiple) cyclic network, recognised by value, it is copies * (K - t_h):
    relay j serves the copies of base users j-n+1..j (mod K), so relays S are
    covered by copies * |S - {0..n-1}| users.  Each of the n - 1 steps
    T -> T | (T - 1) adds a user unless T is empty or all of Z_K (1 generates
    Z_K), so |S| = K - t_h - n + 1 needs at least K - t_h users (t_h >= 1),
    and consecutive relays meet that bound.  Other topologies are searched
    exhaustively over all relay subsets of the required size, with an early
    exit once the union cannot shrink further.

    Raises:
        InvalidArgument: unless 0 < t_h <= K - n.
        TooLargeToEnumerate: if that search has more than cap subsets.
    """
    if not 0 < t_h <= top.K - top.n:
        raise InvalidArgument(f"t_h={t_h} outside (0, K-n] = (0, {top.K - top.n}]")
    if copies := cyclic_copies(top):
        return copies * (top.K - t_h)
    size = top.K - t_h - top.n + 1
    if math.comb(top.K, size) > cap:
        raise TooLargeToEnumerate(f"collusion threshold: C({top.K}, {size}) subsets > cap {cap}")
    best = top.N + 1
    for subset in combinations(range(top.K), size):
        union: set[int] = set()
        for j in subset:
            union.update(top.relay_links[j])
        if len(union) < best:
            best = len(union)
            if best == top.m:  # one relay already contributes m users
                break
    return best


def min_cut(top: Topology) -> int:
    """Smallest edge cut separating some user from the server.

    For a homogeneous topology this equals n: the n outgoing edges of any
    user form a cut, and the n edge-disjoint two-hop paths from that user
    to the server rule out anything smaller.
    """
    return top.n

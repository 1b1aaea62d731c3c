"""Closed-form feasibility thresholds and rate lower bounds.

All rates are exact `fractions.Fraction` values, normalized by the input
length L.  No floating point is used anywhere in this module: the
acceptance checks downstream compare these numbers for equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvalidArgument
from .topology import Topology, collusion_threshold

#: Verdict labels for the two rules that partition the parameter space:
#: the impossibility rule fires when the collusion budgets cross the
#: threshold, otherwise the link-key construction witnesses achievability.
WITNESS_INFEASIBLE = "threshold-exceeded"
WITNESS_FEASIBLE = "threshold-met"

#: Tag for the tightened key bound on two-regular cyclic networks
#: (N = K, n = m = 2, one colluding relay, N - 2 colluding users).
SPECIAL_CASE_PAIR_CYCLIC = "two-regular-cyclic"


@dataclass(frozen=True)
class RateTuple:
    """Achievable or bounding rates (symbols per input symbol)."""

    r_x: Fraction
    r_y: Fraction
    r_z: Fraction
    r_zsigma: Fraction

    def __post_init__(self):
        for name in ("r_x", "r_y", "r_z", "r_zsigma"):
            if getattr(self, name) < 0:
                raise InvalidArgument(f"{name} must be nonnegative")

    def as_dict(self) -> dict:
        return {
            "r_x": str(self.r_x),
            "r_y": str(self.r_y),
            "r_z": str(self.r_z),
            "r_zsigma": str(self.r_zsigma),
        }


@dataclass(frozen=True)
class BoundsReport:
    feasible: bool
    witness: str
    comm_lower: tuple[Fraction, Fraction]
    rz_lower: Optional[Fraction]
    rzsigma_lower: Optional[Fraction]
    special_case: Optional[str]

    def as_dict(self) -> dict:
        return {
            "verdict": "feasible" if self.feasible else "infeasible",
            "witness": self.witness,
            "r_x_lower": str(self.comm_lower[0]),
            "r_y_lower": str(self.comm_lower[1]),
            "r_z_lower": None if self.rz_lower is None else str(self.rz_lower),
            "r_zsigma_lower": None if self.rzsigma_lower is None else str(self.rzsigma_lower),
            "special_case": self.special_case,
        }


def comm_lower(top: Topology) -> tuple[Fraction, Fraction]:
    """Per-link communication lower bounds: both loads are at least 1/n."""
    b = Fraction(1, top.n)
    return (b, b)


def feasibility(top: Topology, t_h: int, t_u: int) -> bool:
    """Whether a secure scheme at per-link load 1/n can exist at all.

    Infeasible iff t_h >= K - n + 1, or t_u reaches the collusion
    threshold of the topology; feasible otherwise.  The two rules
    partition the parameter space, so the verdict is always decided.

    Raises:
        InvalidArgument: unless t_h >= 1 and t_u >= 0.
    """
    if t_h < 1:
        raise InvalidArgument("at least one colluding relay is assumed (t_h >= 1)")
    if t_u < 0:
        raise InvalidArgument("t_u must be nonnegative")
    if t_h >= top.K - top.n + 1:
        return False
    if t_u >= collusion_threshold(top, t_h):
        return False
    return True


def _pair_cyclic_case(top: Topology, t_h: int, t_u: int) -> bool:
    return top.N == top.K and top.n == 2 and top.m == 2 and t_h == 1 and t_u == top.N - 2


def key_lower(top: Topology, t_h: int, t_u: int) -> tuple[Fraction, Optional[Fraction]]:
    """Lower bounds on the per-user and source key rates at optimal load.

    r_z >= min(t_h/n, 1) always.  The source-key bound
    min(t_h*(t_u+m)/n, (t_u*n + t_h*m)/n) only holds under the premise
    t_h*m + t_u < N and is reported as absent (None) outside it.  On a
    two-regular cyclic network with t_h = 1 and t_u = N - 2 a tighter
    pair (1, N-1) applies and overrides both values.

    Raises:
        InvalidArgument: if the parameters are infeasible.
    """
    if not feasibility(top, t_h, t_u):
        raise InvalidArgument("key bounds are stated only for feasible parameters")
    return _key_bounds(top, t_h, t_u)


def _key_bounds(top: Topology, t_h: int, t_u: int) -> tuple[Fraction, Optional[Fraction]]:
    """key_lower for parameters already known to be feasible."""
    n, m, big_n = top.n, top.m, top.N
    if _pair_cyclic_case(top, t_h, t_u):
        return Fraction(1), Fraction(big_n - 1)
    rz = min(Fraction(t_h, n), Fraction(1))
    rzsigma: Optional[Fraction] = None
    if t_h * m + t_u < big_n:
        rzsigma = min(Fraction(t_h * (t_u + m), n), Fraction(t_u * n + t_h * m, n))
    return rz, rzsigma


def bounds_report(top: Topology, t_h: int, t_u: int) -> BoundsReport:
    """Assemble the full feasibility-plus-lower-bounds verdict."""
    feas = feasibility(top, t_h, t_u)
    if not feas:
        return BoundsReport(
            feasible=False,
            witness=WITNESS_INFEASIBLE,
            comm_lower=comm_lower(top),
            rz_lower=None,
            rzsigma_lower=None,
            special_case=None,
        )
    rz, rzsigma = _key_bounds(top, t_h, t_u)
    special = SPECIAL_CASE_PAIR_CYCLIC if _pair_cyclic_case(top, t_h, t_u) else None
    return BoundsReport(
        feasible=True,
        witness=WITNESS_FEASIBLE,
        comm_lower=comm_lower(top),
        rz_lower=rz,
        rzsigma_lower=rzsigma,
        special_case=special,
    )


@dataclass(frozen=True)
class PairCyclicRegion:
    """Optimal key rates for two-regular cyclic networks under one colluding relay."""

    exists: bool
    clause: str
    rz: Optional[Fraction]
    rzsigma: Optional[Fraction]

    def as_dict(self) -> dict:
        return {
            "exists": self.exists,
            "clause": self.clause,
            "r_z": None if self.rz is None else str(self.rz),
            "r_zsigma": None if self.rzsigma is None else str(self.rzsigma),
        }


def pair_cyclic_region(n_users: int, t: int) -> PairCyclicRegion:
    """Optimal (r_z, r_zsigma) on a cyclic network with n = m = 2 and t
    colluding users (one colluding relay).

    t <= N-3 gives (1/2, t/2 + 1); t = N-2 gives (1, N-1); from t = N-1
    on, no scheme at optimal communication load exists.  The boundary
    t = N-2 is resolved in favor of the exact pair (1, N-1), which is
    both achievable and matched by the tightened lower bound.
    """
    if n_users < 3:
        raise InvalidArgument("a two-regular cyclic network needs at least 3 users")
    if t < 0:
        raise InvalidArgument("t must be nonnegative")
    if t <= n_users - 3:
        return PairCyclicRegion(True, "small-collusion", Fraction(1, 2), Fraction(t, 2) + 1)
    if t == n_users - 2:
        return PairCyclicRegion(True, "max-collusion", Fraction(1), Fraction(n_users - 1))
    return PairCyclicRegion(False, "none", None, None)


@dataclass(frozen=True)
class ReferenceRegion:
    """A prior-work rate region, kept for report comparisons.

    `server_security_terms` annotates bound components that stem from a
    colluding server, which the schemes in this package do not model.
    """

    kind: str
    empty: bool
    bounds: Optional[dict[str, Fraction]]
    server_security_terms: dict[str, str]

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "empty": self.empty,
            "bounds": None if self.bounds is None else {k: str(v) for k, v in self.bounds.items()},
            "server_security_terms": dict(self.server_security_terms),
        }


def reference_region(kind: str, **params) -> ReferenceRegion:
    """Reference regions from earlier settings.

    kind="tree": params U (relays), V (users per relay), T (colluding
    users).  Empty when T >= (U-1)*V; otherwise r_x, r_y, r_z >= 1 and
    r_zsigma >= max(V+T, min(U*V-1, U+T-1)), where the second max-term
    comes from server security.

    kind="cyclic_nocollusion": params K, n with n <= K-1.  All of r_x,
    r_y, r_z >= 1/n and r_zsigma >= max(1, K/n - 1), whose K/n - 1 term
    comes from server security.
    """
    if kind == "tree":
        u, v, t = int(params["U"]), int(params["V"]), int(params["T"])
        if u < 2 or v < 1 or t < 0:
            raise InvalidArgument("tree region needs U >= 2, V >= 1, T >= 0")
        if t >= (u - 1) * v:
            return ReferenceRegion("tree", True, None, {})
        one = Fraction(1)
        rzs = max(Fraction(v + t), min(Fraction(u * v - 1), Fraction(u + t - 1)))
        return ReferenceRegion(
            "tree",
            False,
            {"r_x": one, "r_y": one, "r_z": one, "r_zsigma": rzs},
            {"r_zsigma": f"the min({u * v - 1}, {u + t - 1}) term assumes a colluding server"},
        )
    if kind == "cyclic_nocollusion":
        k, n = int(params["K"]), int(params["n"])
        if not 1 <= n <= k - 1:
            raise InvalidArgument("cyclic region needs 1 <= n <= K-1")
        base = Fraction(1, n)
        rzs = max(Fraction(1), Fraction(k, n) - 1)
        return ReferenceRegion(
            "cyclic_nocollusion",
            False,
            {"r_x": base, "r_y": base, "r_z": base, "r_zsigma": rzs},
            {"r_zsigma": f"the K/n - 1 = {Fraction(k, n) - 1} term assumes a colluding server"},
        )
    raise InvalidArgument(f"unknown reference region kind {kind!r}")

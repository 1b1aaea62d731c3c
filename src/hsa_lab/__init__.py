"""Hierarchical secure aggregation on three-layer networks.

Library layout:

* ``gf``        exact prime-field arithmetic and dense linear algebra
* ``topology``  homogeneous user/relay/server networks and thresholds
* ``bounds``    feasibility verdicts and exact rate lower bounds
* ``schemes``   concrete aggregation codes (per-link and weighted keys)
* ``protocol``  one aggregation round with a full transcript
* ``verify``    rank-based and brute-force security certification
* ``cli``       batch commands over JSON configs and artifacts
"""

from .bounds import (
    BoundsReport,
    RateTuple,
    bounds_report,
    comm_lower,
    pair_cyclic_region,
    feasibility,
    key_lower,
    reference_region,
)
from .gf import FieldMatrix, PrimeField, cauchy, circulant, mds_check, root_of_unity
from .protocol import Transcript, relay_aggregate, run_round, server_decode, user_encode
from .schemes import (
    KeyMaterial,
    Scheme,
    build_scheme_a,
    build_scheme_b,
    build_scheme_c,
    check_weighted_conditions,
    link_key_constraint_ok,
    rates,
    sample_keys,
)
from .topology import (
    Topology,
    build_cyclic,
    build_explicit,
    build_multiple_cyclic,
    build_tree,
    collusion_threshold,
    min_cut,
)
from .verify import (
    CollusionPattern,
    Decodability,
    LinearView,
    adversary_view,
    check_decodability,
    check_security_rank,
    cond_entropy_enumerated,
    converse_spot_checks,
    mi_oracle,
    sweep_security,
)

__version__ = "0.1.0"

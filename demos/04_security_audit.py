#!/usr/bin/env python3
"""Two independent routes to the same security verdict.

The rank route reduces mutual information to four matrix ranks; the
oracle route enumerates every assignment of inputs and key seeds and
tabulates exact counts.  They must agree on sound schemes and on broken
ones, and the broken scheme's leak is visible as a positive MI value.
"""

from hsa_lab import (
    CollusionPattern,
    FieldMatrix,
    PrimeField,
    build_cyclic,
    build_scheme_a,
    check_security_rank,
    converse_spot_checks,
    mi_oracle,
    sweep_security,
)
from hsa_lab.gf import zeros
from hsa_lab.schemes import Scheme
from hsa_lab.verify import iter_patterns, rank_leak

field = PrimeField(3)
top = build_cyclic(3, 2)
scheme = build_scheme_a(top, field, decode_matrix=FieldMatrix(field, [[1, 0, 1], [0, 1, 1]]))

print("sound scheme, every pattern with one relay and one user:")
for pattern in iter_patterns(top, 1, 1, all_sizes=False):
    rank_ok = check_security_rank(scheme, pattern)
    oracle = mi_oracle(scheme, pattern, cap=10**6)
    print(f"  relays={pattern.relays} users={pattern.users}: "
          f"rank secure={rank_ok}, enumerated MI={oracle.mi_value} "
          f"({oracle.states} states)")

print("\nsame scheme with all keys zeroed out:")
broken = Scheme(variant=scheme.variant, topology=top, field=field,
                decode_matrix=scheme.decode_matrix, encoders=scheme.encoders,
                key_map=zeros(field, scheme.key_map.rows, scheme.key_map.cols))
for relays in ([1], [1, 2]):
    pattern = CollusionPattern(relays, [])
    oracle = mi_oracle(broken, pattern, cap=10**6)
    print(f"  relays={relays}: rank leak={rank_leak(broken, pattern)} symbols, "
          f"enumerated MI={oracle.mi_value}")

print("\nbeyond the feasibility threshold (two colluding relays) even the")
print("sound scheme must leak somewhere:")
report, _ = sweep_security(scheme, 2, 0, all_sizes=False)
print(f"  {report.failed}/{report.checked} maximal patterns leak; "
      f"first: relays={report.first_failure.relays}")
leak = mi_oracle(scheme, report.first_failure, cap=10**6)
print(f"  oracle confirms: MI = {leak.mi_value} > 0")

print("\nkey-structure identities forced by optimal communication load:")
checks = converse_spot_checks(scheme, cap=10**6)
print(f"  every link key determined by the other users' keys: "
      f"{checks.all_links_determined}")
print(f"  sum of per-user key entropies: {checks.user_entropy_sum} "
      f">= {checks.sum_lower_bound}: {checks.sum_meets_bound}")

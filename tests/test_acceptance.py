"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS line (pytest -s) after its assertions, and
enforces the intended wall-clock budget.
"""

import time
from fractions import Fraction

import numpy as np

from hsa_lab import gf
from hsa_lab.bounds import RateTuple, bounds_report, feasibility, key_lower
from hsa_lab.cli import parse_config, report_document
from hsa_lab.gf import FieldMatrix, PrimeField, is_prime
from hsa_lab.protocol import direct_sum, run_round
from hsa_lab.schemes import (
    Scheme,
    build_scheme_a,
    build_scheme_b,
    build_scheme_c,
    check_weighted_conditions,
    derive_user_keys,
    rates,
)
from hsa_lab.topology import (
    build_cyclic,
    build_explicit,
    build_multiple_cyclic,
    build_tree,
    collusion_threshold,
    min_cut,
)
from hsa_lab.verify import (
    check_decodability,
    check_security_rank,
    cond_entropy_enumerated,
    converse_spot_checks,
    iter_patterns,
    mi_oracle,
    sweep_security,
)

from oracles import brute_collusion_threshold, brute_min_cut

F = Fraction
EXAMPLE_D = [[1, 0, 1], [0, 1, 1]]


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"took {elapsed:.1f}s, budget {self.limit}s"
        return elapsed


def _pass(num, text, budget=None):
    suffix = f" ({budget.check():.1f}s)" if budget else ""
    print(f"criterion {num:2d}: PASS - {text}{suffix}")


def example_scheme(q):
    field = PrimeField(q)
    return build_scheme_a(build_cyclic(3, 2), field,
                          decode_matrix=FieldMatrix(field, EXAMPLE_D))


def symbolic_messages(s):
    """Coefficient rows of every first-hop message over (inputs, seeds).

    Extracted by pushing basis columns through the protocol itself: with
    inputs set to the identity over the input coordinates and seeds set to
    the identity over the seed coordinates, each transmitted block IS its
    own coefficient vector.
    """
    top = s.topology
    n_w = top.N * top.n
    width = n_w + s.seed_count
    basis = np.eye(width, dtype=np.int64)
    inputs = [FieldMatrix(s.field, basis[(i - 1) * top.n:i * top.n, :])
              for i in range(1, top.N + 1)]
    keys = derive_user_keys(s, FieldMatrix(s.field, basis[n_w:, :]))
    transcript = run_round(s, inputs, keys=keys)
    coeffs = {label: (msg[:n_w], msg[n_w:]) for label, msg in transcript.x_msgs.items()}
    return coeffs, transcript


def test_criterion_01_worked_example_golden():
    budget = Budget(1.0)
    for q in (5, 7):
        s = example_scheme(q)
        f = s.field
        assert s.decode_matrix.tolist() == [[1, 0, 1], [0, 1, 1]]
        assert s.encoders[1] == FieldMatrix(f, [[-1, 1], [1, 0]])
        assert s.encoders[2] == FieldMatrix(f, [[1, -1], [0, 1]])
        # derived keys of the last user over the four seeds
        assert s.key_map.take_cols([4]).T.tolist() == [[v % q for v in (-1, 1, 1, 0)]]
        assert s.key_map.take_cols([5]).T.tolist() == [[v % q for v in (0, -1, -1, -1)]]

        x, transcript = symbolic_messages(s)
        expect = {
            (1, 1): ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0)),
            (1, 2): ((0, 1, 0, 0, 0, 0), (0, 1, 0, 0)),
            (2, 2): ((0, 0, -1, 1, 0, 0), (0, 0, 1, 0)),
            (2, 3): ((0, 0, 1, 0, 0, 0), (0, 0, 0, 1)),
            (3, 1): ((0, 0, 0, 0, 1, -1), (-1, 1, 1, 0)),
            (3, 3): ((0, 0, 0, 0, 0, 1), (0, -1, -1, -1)),
        }
        assert set(x) == set(expect)
        for label, (cw, cr) in expect.items():
            assert x[label][0].tolist() == [v % q for v in cw], label
            assert x[label][1].tolist() == [v % q for v in cr], label

        # relay outputs as actually transmitted by the protocol
        expect_y = {
            1: ((1, 0, 0, 0, 1, -1), (0, 1, 1, 0)),
            2: ((0, 1, -1, 1, 0, 0), (0, 1, 1, 0)),
            3: ((0, 0, 1, 0, 0, 1), (0, -1, -1, 0)),
        }
        for j, (cw, cr) in expect_y.items():
            got = transcript.y_msgs[j]
            assert got.tolist() == [v % q for v in cw] + [v % q for v in cr], j

        # the decode combinations are relay sums 1+3 and 2+3, and both
        # recover the plain input sum with every key cancelled
        assert s.decode_matrix.row(0).tolist() == [1, 0, 1]
        assert s.decode_matrix.row(1).tolist() == [0, 1, 1]
        for out_row, picks in ((0, (1, 3)), (1, (2, 3))):
            combo = sum(transcript.y_msgs[j] for j in picks) % q
            assert combo.tolist() == transcript.decoded.row(out_row).tolist()
            want = np.zeros(10, dtype=np.int64)
            want[out_row:6:2] = 1  # that coordinate of every user's input, no keys
            assert combo.tolist() == want.tolist()
        assert not transcript.mismatch
    _pass(1, "worked-example matrices, keys, messages and decode combinations", budget)


def test_criterion_02_exhaustive_decodability():
    budget = Budget(30.0)
    s = example_scheme(3)
    assert check_decodability(s, cap=10**6).passed  # all 3**10 assignments
    _pass(2, "exhaustive decode over all 59049 seed assignments", budget)


def test_criterion_03_dual_method_security():
    budget = Budget(60.0)
    s = example_scheme(3)
    maximal = sweep_security(s, 1, 1, all_sizes=False, method="both", oracle_cap=10**6)
    assert maximal.checked == 9 and maximal.passed == 9
    assert maximal.failed == 0 and maximal.disagreements == 0 and maximal.skipped_cap == 0
    lattice = sweep_security(s, 1, 1, all_sizes=True, method="both", oracle_cap=10**6)
    assert lattice.checked == 16 and lattice.passed == 16 and lattice.failed == 0
    for pat in iter_patterns(s.topology, 1, 1, all_sizes=True):
        assert mi_oracle(s, pat, cap=10**6).mi_value == 0
    _pass(3, "all 9 maximal and 16 lattice patterns: rank and oracle agree at MI=0", budget)


CRITERION_4_TOPOLOGIES = [
    ("cyclic(3,2)", build_cyclic(3, 2), 5),
    ("cyclic(4,2)", build_cyclic(4, 2), 5),
    ("cyclic(4,3)", build_cyclic(4, 3), 5),
    ("explicit(6,3,2)", build_explicit(6, 3, [[1, 2], [2, 3], [1, 3],
                                              [1, 2], [2, 3], [1, 3]]), 5),
    ("multiple_cyclic(4,2,2)", build_multiple_cyclic(4, 2, 2), 5),
]


def test_criterion_04_link_key_scheme_rates():
    budget = Budget(60.0)
    for name, top, q in CRITERION_4_TOPOLOGIES:
        s = build_scheme_a(top, PrimeField(q), seed=1)
        assert rates(s) == RateTuple(F(1, top.n), F(1, top.n), F(1), F(top.N - 1)), name
        max_t_h = top.K - top.n
        for t_h in range(1, max_t_h + 1):
            for t_u in range(0, collusion_threshold(top, t_h)):
                assert feasibility(top, t_h, t_u), (name, t_h, t_u)
        # the extremal feasible budgets pass a full maximal rank sweep
        t_h = max_t_h
        t_u = collusion_threshold(top, t_h) - 1
        rep = sweep_security(s, t_h, t_u, all_sizes=False, method="rank")
        assert rep.failed == 0 and not rep.subsampled, name
    _pass(4, "link-key scheme builds at rates (1/n, 1/n, 1, N-1) on all five topologies", budget)


def test_criterion_05_weighted_scheme_optimality():
    budget = Budget(60.0)
    top = build_cyclic(6, 2)
    field = PrimeField(13)
    for t_u in (0, 1, 2):
        s = build_scheme_b(top, field, t_u=t_u, seed=7)
        assert check_weighted_conditions(s).all_hold
        assert check_decodability(s, samples=10_000, seed=t_u).passed
        rep = sweep_security(s, 1, t_u, all_sizes=True, method="rank")
        assert rep.failed == 0 and rep.checked == rep.total_patterns
        achieved = rates(s)
        assert achieved == RateTuple(F(1, 2), F(1, 2), F(1, 2), F(t_u + 2, 2))
        rz, rzsigma = key_lower(top, 1, t_u)
        assert (achieved.r_z, achieved.r_zsigma) == (rz, rzsigma)
    config = parse_config({
        "schema": "hsa-lab/config/1",
        "topology": {"kind": "cyclic", "K": 6, "n": 2},
        "field_q": 13,
        "scheme": {"variant": "B", "t_u": 2},
        "security": {"t_h": 1, "t_u": 2},
        "block_width": 1,
        "seed": 7,
        "caps": {"enumeration": 10**6, "sweep_budget": 10**5},
    })
    doc, ok = report_document(config, all_sizes=None)
    assert ok
    assert all(row["status"] == "optimal" for row in doc["comparison"])
    _pass(5, "weighted scheme meets the key lower bounds with all report rows optimal", budget)


def _next_prime(n):
    while not is_prime(n):
        n += 1
    return n


def test_criterion_06_closed_form_scheme():
    budget = Budget(60.0)
    for n_users in (5, 6, 7):
        q = _next_prime(n_users + 2)
        s = build_scheme_c(n_users, PrimeField(q))
        assert (s.key_map @ s.key_weights @ s.decode_matrix.T).is_zero()
        assert check_weighted_conditions(s).all_hold
        rep = sweep_security(s, 1, n_users - 3, all_sizes=False, method="rank")
        assert rep.checked == rep.total_patterns and rep.failed == 0
        assert rates(s).r_zsigma == F(n_users - 1, 2)
        assert rates(s).r_z == F(1, 2)
    _pass(6, "closed-form scheme verifies exactly for N in {5, 6, 7}", budget)


def test_criterion_07_infeasibility_thresholds():
    budget = Budget(60.0)
    for k in range(2, 7):
        for n in range(1, k):
            top = build_cyclic(k, n)
            for t_h in range(1, k + 1):
                for t_u in range(0, top.N + 2):
                    expected = not (
                        t_h >= k - n + 1
                        or t_u >= brute_collusion_threshold(top, t_h)
                    ) if t_h <= k - n else False
                    assert feasibility(top, t_h, t_u) == expected, (k, n, t_h, t_u)
    # beyond the relay threshold the link-key scheme must leak somewhere
    s = example_scheme(3)
    rep = sweep_security(s, 2, 0, all_sizes=False, method="rank")
    assert rep.failed >= 1
    leak = mi_oracle(s, rep.first_failure, cap=10**6)
    assert not leak.is_zero and leak.mi_value > 0
    _pass(7, "feasibility matches the threshold formula; over-threshold patterns leak", budget)


def test_criterion_08_pair_cyclic_tightness():
    budget = Budget(60.0)
    top = build_cyclic(3, 2)
    rep = bounds_report(top, 1, 1)
    assert (rep.rz_lower, rep.rzsigma_lower) == (F(1), F(2))
    s = example_scheme(3)
    achieved = rates(s)
    assert (achieved.r_z, achieved.r_zsigma) == (F(1), F(2))

    config = parse_config({
        "schema": "hsa-lab/config/1",
        "topology": {"kind": "cyclic", "K": 3, "n": 2},
        "field_q": 3,
        "scheme": {"variant": "A"},
        "security": {"t_h": 1, "t_u": 1},
        "block_width": 1,
        "seed": 0,
        "caps": {"enumeration": 10**6, "sweep_budget": 10**5},
    })
    doc, ok = report_document(config, all_sizes=None)
    assert ok
    statuses = {row["rate"]: row["status"] for row in doc["comparison"]}
    assert statuses == {"r_x": "optimal", "r_y": "optimal",
                        "r_z": "optimal", "r_zsigma": "optimal"}

    checks = converse_spot_checks(s, cap=10**6)
    assert checks.all_links_determined
    assert checks.user_entropy_sum == F(6) >= checks.sum_lower_bound == F(6)
    assert doc["converse"]["all_links_determined"] is True
    _pass(8, "pair-cyclic bounds (1, 2) are achieved exactly; converse identities hold", budget)


def _mds_for(top, q):
    """A minor-checked decoding matrix for fields too small to sample from."""
    table = {
        (3, 1): [[1, 1, 1]],
        (4, 1): [[1, 1, 1, 1]],
        (3, 2): [[1, 0, 1], [0, 1, 1]],
        (4, 3): [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]],
    }
    key = (top.K, top.n)
    if q >= top.K:
        return None
    entries = table[key]
    return entries


def _scheme_a_instance(top, q, seed):
    field = PrimeField(q)
    injected = _mds_for(top, q)
    if injected is None:
        return build_scheme_a(top, field, seed=seed)
    return build_scheme_a(top, field, decode_matrix=FieldMatrix(field, injected))


def _mutants(s, seed):
    rng = np.random.default_rng(seed)
    km = s.key_map.a.copy()
    r = int(rng.integers(0, km.shape[0]))
    c = int(rng.integers(0, km.shape[1]))
    km[r, c] = (km[r, c] + 1 + int(rng.integers(0, s.field.q - 1))) % s.field.q
    tweaked = Scheme(variant=s.variant, topology=s.topology, field=s.field,
                     decode_matrix=s.decode_matrix, encoders=s.encoders,
                     key_map=FieldMatrix(s.field, km),
                     key_weights=s.key_weights, t_u=s.t_u)
    zeroed = Scheme(variant=s.variant, topology=s.topology, field=s.field,
                    decode_matrix=s.decode_matrix, encoders=s.encoders,
                    key_map=gf.zeros(s.field, s.key_map.rows, s.key_map.cols),
                    key_weights=s.key_weights, t_u=s.t_u)
    return [tweaked, zeroed]


def test_criterion_09_oracle_equivalence_suite():
    budget = Budget(300.0)
    combos = [
        (build_cyclic(2, 1), (2, 3, 5)),
        (build_cyclic(3, 1), (2, 3, 5)),
        (build_cyclic(3, 2), (2, 3)),
        (build_cyclic(4, 1), (2, 3, 5)),
        (build_cyclic(4, 3), (2,)),
        (build_multiple_cyclic(2, 1, 2), (2, 3, 5)),
        (build_tree(2, 2), (2, 3, 5)),
    ]
    instances = []
    for top, fields in combos:
        for q in fields:
            for seed in (0, 1):
                clean = _scheme_a_instance(top, q, seed)
                instances.append(clean)
                instances.extend(_mutants(clean, seed))
    clean_b = build_scheme_b(build_cyclic(4, 1), PrimeField(5), t_u=0, seed=3)
    instances.append(clean_b)
    instances.extend(_mutants(clean_b, 0))
    c_scheme = build_scheme_c(3, PrimeField(5))
    instances.append(c_scheme)
    instances.extend(_mutants(c_scheme, 0))
    assert len(instances) >= 100

    rng = np.random.default_rng(42)
    patterns_checked = 0
    for idx, s in enumerate(instances):
        top = s.topology
        candidates = [p for p in iter_patterns(top, min(2, top.K), 1, all_sizes=True)
                      if p.relays or p.users]
        picks = rng.choice(len(candidates), size=min(6, len(candidates)), replace=False)
        for pick in picks:
            pat = candidates[int(pick)]
            res = mi_oracle(s, pat, cap=4 * 10**6)
            assert res.is_zero == check_security_rank(s, pat), (idx, pat)
            patterns_checked += 1
    assert patterns_checked >= 500

    # entropy-as-rank sanity for the oracle machinery itself
    for trial in range(1000):
        q = int(rng.choice([2, 3, 5]))
        field = PrimeField(q)
        cols = int(rng.integers(1, 5))
        a = FieldMatrix(field, rng.integers(0, q, (int(rng.integers(1, 4)), cols)))
        b = FieldMatrix(field, rng.integers(0, q, (int(rng.integers(0, 4)), cols)))
        h = cond_entropy_enumerated(a, b, cap=10**4)
        assert h == gf.vstack([a, b]).rank() - b.rank(), trial
    _pass(9, f"rank/oracle agree on {len(instances)} schemes "
             f"({patterns_checked} patterns); 1000 entropy-as-rank checks", budget)


def test_criterion_10_keyless_baseline_and_min_cut():
    budget = Budget(120.0)
    rng = np.random.default_rng(7)
    for name, top, q in CRITERION_4_TOPOLOGIES:
        s = build_scheme_a(top, PrimeField(q), seed=2)
        zero_seeds = gf.zeros(s.field, s.seed_count, 2)
        keys = derive_user_keys(s, zero_seeds)
        assert all(z.is_zero() for z in keys.per_user)
        inputs = [FieldMatrix(s.field, s.field.rand(rng, (top.n, 2)))
                  for _ in range(top.N)]
        tr = run_round(s, inputs, keys=keys)
        assert not tr.mismatch and tr.decoded == direct_sum(s, inputs), name
        # n input symbols per block column ride on one symbol per link: rate n
        assert all(v.shape == (2,) for v in tr.x_msgs.values())
        assert all(v.shape == (2,) for v in tr.y_msgs.values())

    grid = [build_cyclic(k, n) for k in range(2, 7) for n in range(1, k)]
    grid += [build_multiple_cyclic(2, 1, 2), build_multiple_cyclic(2, 1, 3),
             build_multiple_cyclic(3, 1, 2), build_multiple_cyclic(3, 2, 2),
             build_tree(2, 2), build_tree(3, 2),
             build_explicit(6, 3, [[1, 2], [2, 3], [1, 3], [1, 2], [2, 3], [1, 3]])]
    for top in grid:
        assert min_cut(top) == top.n
        assert brute_min_cut(top) == top.n, (top.N, top.K, top.n)
    _pass(10, "keyless baseline computes the sum at rate n; min-cut matches brute force", budget)


def test_oracle_sweep_over_ten_million_states():
    # A on cyclic(3,2), q=5: 16 lattice patterns over 5**10 inputs and seeds each
    budget = Budget(2.0)
    s = build_scheme_a(build_cyclic(3, 2), PrimeField(5), seed=0)
    rep = sweep_security(s, 1, 1, all_sizes=True, method="oracle", oracle_cap=10**7)
    assert (rep.checked, rep.passed, rep.skipped_cap) == (16, 16, 0)
    assert mi_oracle(s, next(iter_patterns(s.topology, 1, 1, True)), cap=10**7).states == 5**10
    print(f"oracle sweep: PASS - 16 patterns of 5**10 states each ({budget.check():.1f}s)")

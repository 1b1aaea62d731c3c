from fractions import Fraction

import numpy as np
import pytest

from hsa_lab import gf
from hsa_lab.errors import InvalidArgument, TooLargeToEnumerate
from hsa_lab.gf import FieldMatrix, PrimeField
from hsa_lab.schemes import Scheme, build_scheme_a, build_scheme_b, build_scheme_c
from hsa_lab.topology import build_cyclic, build_multiple_cyclic
from hsa_lab.verify import (
    CollusionPattern,
    adversary_view,
    check_decodability,
    check_key_space_disjoint,
    check_security_rank,
    cond_entropy_enumerated,
    converse_spot_checks,
    count_patterns,
    iter_patterns,
    mi_oracle,
    rank_leak,
    sweep_security,
)

from test_acceptance import symbolic_messages

F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
EXAMPLE_D = [[1, 0, 1], [0, 1, 1]]


def example_scheme(q=3):
    field = PrimeField(q)
    return build_scheme_a(build_cyclic(3, 2), field,
                          decode_matrix=FieldMatrix(field, EXAMPLE_D))


def tampered(scheme, row=0, col=-1):
    km = scheme.key_map.a.copy()
    km[row, col] = (km[row, col] + 1) % scheme.field.q
    return Scheme(variant=scheme.variant, topology=scheme.topology, field=scheme.field,
                  decode_matrix=scheme.decode_matrix, encoders=scheme.encoders,
                  key_map=FieldMatrix(scheme.field, km),
                  key_weights=scheme.key_weights, t_u=scheme.t_u)


def keyless(scheme):
    return Scheme(variant=scheme.variant, topology=scheme.topology, field=scheme.field,
                  decode_matrix=scheme.decode_matrix, encoders=scheme.encoders,
                  key_map=gf.zeros(scheme.field, scheme.key_map.rows, scheme.key_map.cols),
                  key_weights=scheme.key_weights, t_u=scheme.t_u)


# -- adversary view ---------------------------------------------------------------


def test_view_relay_one():
    s = example_scheme()
    view = adversary_view(s, CollusionPattern([1], []))
    assert view.row_labels == ((1, 1), (3, 1))
    assert view.c_r.tolist() == [[1, 0, 0, 0], [-1 % 3, 1, 1, 0]]
    assert view.c_w.row(0).tolist() == [1, 0, 0, 0, 0, 0]
    assert view.c_w.row(1).tolist() == [0, 0, 0, 0, 1, -1 % 3]


def test_view_empty():
    s = example_scheme()
    view = adversary_view(s, CollusionPattern([], [1]))
    assert view.c_w.rows == 0 and view.row_labels == ()


def test_view_weighted_scheme():
    s = build_scheme_c(5, F7)
    view = adversary_view(s, CollusionPattern([2], []))
    assert view.row_labels == ((1, 2), (2, 2))
    for row, (i, _) in zip(range(2), view.row_labels):
        expected = (s.link_weight(i, 2) * s.key_map.a[:, i - 1]) % 7
        assert view.c_r.row(row).tolist() == expected.tolist()


def test_view_matches_wire():
    # the rank route and the oracle both read adversary_view; its rows must
    # be the coefficients of the messages the protocol actually sends
    schemes = [build_scheme_a(build_cyclic(4, 2), F5, seed=1),
               build_scheme_b(build_cyclic(6, 2), PrimeField(13), 2, seed=0),
               build_scheme_b(build_multiple_cyclic(7, 2, 2), PrimeField(29), 1, seed=3),
               build_scheme_c(5, F7)]
    for s in schemes + [tampered(s) for s in schemes]:
        wire, _ = symbolic_messages(s)
        view = adversary_view(s, CollusionPattern(range(1, s.topology.K + 1), []))
        assert set(view.row_labels) == set(wire)
        for r, label in enumerate(view.row_labels):
            assert view.c_w.row(r).tolist() == wire[label][0].tolist(), label
            assert view.c_r.row(r).tolist() == wire[label][1].tolist(), label


def test_view_validates_ids():
    s = example_scheme()
    with pytest.raises(InvalidArgument):
        adversary_view(s, CollusionPattern([9], []))


def test_view_row_count_is_sum_of_relay_degrees():
    for s in (example_scheme(), build_scheme_c(5, F7)):
        top = s.topology
        for pat in iter_patterns(top, 2, 0, all_sizes=True):
            view = adversary_view(s, pat)
            expected = sum(len(top.relay_links[j - 1]) for j in pat.relays)
            assert view.c_w.rows == view.c_r.rows == len(view.row_labels) == expected


# -- rank security ----------------------------------------------------------------


def test_rank_security_example_all_singletons():
    s = example_scheme()
    for r in range(1, 4):
        for u in range(1, 4):
            assert check_security_rank(s, CollusionPattern([r], [u]))


def test_rank_security_detects_unmasked():
    s = keyless(example_scheme())
    assert not check_security_rank(s, CollusionPattern([1], []))
    assert rank_leak(s, CollusionPattern([1], [])) > 0


def test_key_space_disjoint():
    s = example_scheme(5)
    assert check_key_space_disjoint(s, CollusionPattern([1], [3]))
    assert check_key_space_disjoint(s, CollusionPattern([1], [1, 2, 3]))  # vacuous
    s4 = build_scheme_a(build_cyclic(4, 2), F5, seed=1)
    for pat in iter_patterns(s4.topology, 1, 1, all_sizes=False):
        assert check_key_space_disjoint(s4, pat)
        assert check_security_rank(s4, pat)
    with pytest.raises(InvalidArgument):
        check_key_space_disjoint(build_scheme_c(5, F7), CollusionPattern([1], []))


def test_key_space_disjoint_implies_rank_security():
    for seed in range(3):
        s = build_scheme_a(build_cyclic(4, 3), F5, seed=seed)
        for pat in iter_patterns(s.topology, 1, 1, all_sizes=True):
            if check_key_space_disjoint(s, pat):
                assert check_security_rank(s, pat)


# -- oracle -----------------------------------------------------------------------


def test_oracle_example_singletons_zero():
    s = example_scheme()
    for r in range(1, 4):
        for u in range(1, 4):
            res = mi_oracle(s, CollusionPattern([r], [u]))
            assert res.is_zero and res.mi_value == 0


def test_oracle_broken_scheme_positive():
    s = keyless(example_scheme())
    res = mi_oracle(s, CollusionPattern([1], []))
    assert not res.is_zero
    assert res.mi_value > 0


def test_oracle_no_collusion_zero():
    s = example_scheme()
    res = mi_oracle(s, CollusionPattern([], []))
    assert res.is_zero and res.mi_value == 0


def test_oracle_cap():
    s = example_scheme(7)
    with pytest.raises(TooLargeToEnumerate):
        mi_oracle(s, CollusionPattern([1], []), cap=10**4)


def test_oracle_monotone_under_fewer_relays():
    # dropping a relay from the coalition can only shrink its view
    for s in (keyless(example_scheme()), tampered(example_scheme())):
        for relays in ([1, 2], [1, 3], [2, 3], [1, 2, 3]):
            for users in ([], [1]):
                sup = mi_oracle(s, CollusionPattern(relays, users)).mi_value
                for dropped in relays:
                    kept = [r for r in relays if r != dropped]
                    sub = mi_oracle(s, CollusionPattern(kept, users)).mi_value
                    assert sub <= sup, (relays, dropped, users)


def test_oracle_width_scales_linearly():
    # every map is linear, so a width-w block carries w independent copies
    good = build_scheme_a(build_cyclic(2, 1), F3, seed=0)
    broken = keyless(good)
    pat = CollusionPattern([1], [])
    for s in (good, broken):
        one = mi_oracle(s, pat, width=1, cap=10**6)   # 3**3 states
        three = mi_oracle(s, pat, width=3, cap=10**6)  # 3**9 states
        assert three.is_zero == one.is_zero
        assert three.mi_value == 3 * one.mi_value


def test_oracle_agrees_with_rank_both_ways():
    good = example_scheme()
    bad = tampered(good)
    worse = keyless(good)
    for s in (good, bad, worse):
        for pat in iter_patterns(s.topology, 1, 1, all_sizes=True):
            assert mi_oracle(s, pat).is_zero == check_security_rank(s, pat)


# -- decodability -------------------------------------------------------------------


def test_decodability_exhaustive_small():
    top = build_cyclic(2, 1)
    s = build_scheme_a(top, F3, seed=0)
    assert check_decodability(s)  # 3**3 assignments


@pytest.mark.parametrize("top,q,injected", [
    (build_cyclic(2, 1), 2, None),
    (build_cyclic(3, 2), 2, [[1, 0, 1], [0, 1, 1]]),
    (build_cyclic(3, 2), 3, [[1, 0, 1], [0, 1, 1]]),
    (build_cyclic(4, 1), 3, [[1, 1, 2, 1]]),
    (build_cyclic(4, 3), 2, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]]),
])
def test_decodability_exhaustive_grid(top, q, injected):
    field = PrimeField(q)
    d = None if injected is None else FieldMatrix(field, injected)
    s = build_scheme_a(top, field, seed=1, decode_matrix=d)
    assert check_decodability(s, cap=10**7)


def test_decodability_exhaustive_width():
    s = build_scheme_a(build_cyclic(2, 1), F3, seed=0)
    assert check_decodability(s, width=2, cap=10**6)  # 3**6 state bound


def test_decodability_sampled_and_tampered():
    s = example_scheme(5)
    assert check_decodability(s, samples=200, seed=1)
    assert not check_decodability(tampered(s), samples=200, seed=1)


def test_decodability_cap():
    s = example_scheme(7)
    with pytest.raises(TooLargeToEnumerate):
        check_decodability(s, cap=10**3)


def test_decodability_weighted():
    s = build_scheme_b(build_cyclic(6, 2), PrimeField(13), t_u=2, seed=0)
    assert check_decodability(s, samples=500, seed=2)
    bad = tampered(s)
    assert not check_decodability(bad, samples=500, seed=2)


# -- sweeps -----------------------------------------------------------------------


def test_sweep_counts_and_pass():
    s = example_scheme()
    rep = sweep_security(s, 1, 1, all_sizes=False)
    assert rep.total_patterns == 9 and rep.checked == 9
    assert rep.passed == 9 and rep.failed == 0
    rep_all = sweep_security(s, 1, 1, all_sizes=True)
    assert rep_all.total_patterns == 16 and rep_all.passed == 16
    assert count_patterns(s.topology, 1, 1, True) == 16


def test_sweep_first_failure():
    s = example_scheme()
    rep = sweep_security(s, 2, 0, all_sizes=False)
    assert rep.failed >= 1
    assert rep.first_failure is not None
    assert not check_security_rank(s, rep.first_failure)


def test_sweep_budget_subsampling_is_deterministic():
    s = build_scheme_a(build_cyclic(6, 2), F7, seed=0)
    r1 = sweep_security(s, 1, 2, budget=10, all_sizes=True, seed=5)
    r2 = sweep_security(s, 1, 2, budget=10, all_sizes=True, seed=5)
    assert r1.subsampled and r1.checked == 10
    assert r1.as_dict() == r2.as_dict()


def test_sweep_threads_match_serial():
    s = example_scheme()
    serial = sweep_security(s, 1, 1, all_sizes=True, threads=1)
    threaded = sweep_security(s, 1, 1, all_sizes=True, threads=4)
    assert serial.as_dict() == threaded.as_dict()


def test_sweep_oracle_and_both():
    s = example_scheme()
    rep = sweep_security(s, 1, 1, all_sizes=True, method="both", oracle_cap=10**6)
    assert rep.passed == 16 and rep.disagreements == 0 and rep.skipped_cap == 0
    capped = sweep_security(s, 1, 1, all_sizes=False, method="oracle", oracle_cap=10)
    assert capped.skipped_cap == 9 and capped.passed == 0 and capped.failed == 0


# -- enumerated entropy -------------------------------------------------------------


def test_cond_entropy_matches_rank_identity():
    rng = np.random.default_rng(3)
    for _ in range(60):
        q = int(rng.choice([2, 3, 5]))
        field = PrimeField(q)
        cols = int(rng.integers(2, 5))
        a = FieldMatrix(field, rng.integers(0, q, (int(rng.integers(1, 4)), cols)))
        b = FieldMatrix(field, rng.integers(0, q, (int(rng.integers(1, 4)), cols)))
        h = cond_entropy_enumerated(a, b)
        assert h == gf.vstack([a, b]).rank() - b.rank()


def test_cond_entropy_requires_matching_shape():
    with pytest.raises(InvalidArgument):
        cond_entropy_enumerated(gf.zeros(F3, 1, 2), gf.zeros(F3, 1, 3))


def test_converse_spot_checks_example():
    s = example_scheme()
    checks = converse_spot_checks(s)
    assert checks.all_links_determined
    assert set(checks.per_link_entropy) == set(s.links)
    assert checks.user_entropy_sum == Fraction(6)  # 3 users x L, L = 2
    assert checks.sum_lower_bound == Fraction(6)
    assert checks.sum_meets_bound

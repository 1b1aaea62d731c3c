from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsa_lab import gf, verify
from hsa_lab.errors import InvalidArgument, TooLargeToEnumerate
from hsa_lab.gf import FieldMatrix, PrimeField
from hsa_lab.schemes import Scheme, build_scheme_a, build_scheme_b, build_scheme_c
from hsa_lab.topology import build_cyclic, build_multiple_cyclic, build_tree
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

from oracles import brute_cond_entropy, brute_mutual_information, four_rank_leak
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


def test_sweep_oracle_and_both():
    s = example_scheme()
    rep = sweep_security(s, 1, 1, all_sizes=True, method="both", oracle_cap=10**6)
    assert rep.passed == 16 and rep.disagreements == 0 and rep.skipped_cap == 0
    capped = sweep_security(s, 1, 1, all_sizes=False, method="oracle", oracle_cap=10)
    assert capped.skipped_cap == 9 and capped.passed == 0 and capped.failed == 0


def test_sweep_both_decides_oracle_skips_by_rank():
    # a skipped oracle run gives no verdict: the rank route alone decides the
    # pattern, and no disagreement is counted with only one route run
    for s in (example_scheme(), keyless(example_scheme())):
        both = sweep_security(s, 1, 1, all_sizes=True, method="both", oracle_cap=10)
        rank = sweep_security(s, 1, 1, all_sizes=True, method="rank")
        assert both.skipped_cap == both.checked == 16 and both.disagreements == 0
        assert (both.passed, both.failed, both.first_failure) == \
            (rank.passed, rank.failed, rank.first_failure)
    assert rank.failed > 0


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


# the oracle workload's triangle configs, one clean and one leaking
TRIANGLES = [lambda: build_scheme_a(build_cyclic(3, 2), F3, seed=0),
             lambda: build_scheme_c(3, F5)]


def oracle_values(s):
    patterns = iter_patterns(s.topology, 1, 1, all_sizes=True)
    return ([mi_oracle(s, pat) for pat in patterns],
            cond_entropy_enumerated(s.link_keys.T, s.user_key_map(1).T),
            converse_spot_checks(s))


def test_oracle_stays_off_the_rank_path(monkeypatch):
    # build first (construction inverts matrices), then forbid every elimination
    schemes = [build() for build in TRIANGLES]
    expected = [oracle_values(build()) for build in TRIANGLES]
    assert any(not res.is_zero for res in expected[1][0])

    def no_elimination(*args):
        raise AssertionError("the oracle reached gf._rref")

    monkeypatch.setattr(gf, "_rref", no_elimination)
    with pytest.raises(AssertionError):
        schemes[0].key_map.rank()
    assert [oracle_values(s) for s in schemes] == expected


# -- enumeration engine vs the per-state reference ----------------------------------


def oracle_maps(s, p, width):
    """U (every input), V (the view) and C (the colluders' inputs and keys)."""
    n, n_w = s.topology.n, s.topology.N * s.topology.n
    eye = np.eye(n_w + s.seed_count, dtype=np.int64)
    keys = [np.hstack([np.zeros((m.cols, n_w), dtype=np.int64), m.a.T])
            for m in map(s.user_key_map, p.users)]
    c = np.vstack([eye[(i - 1) * n:i * n] for i in p.users] + keys + [eye[:0]])
    v = adversary_view(s, p).coefficients.a
    return [np.kron(m, np.eye(width, dtype=np.int64)) for m in (eye[:n_w], v, c)]


def small_matrix(data, q, rows, cols):
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=rows * cols,
                                 max_size=rows * cols))
    return np.array(entries, dtype=np.int64).reshape(rows, cols)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 4), st.integers(0, 4),
       st.integers(0, 4), st.data())
def test_cond_entropy_matches_reference(q, cols, a_rows, b_rows, data):
    field = PrimeField(q)
    a = small_matrix(data, q, a_rows, cols)
    b = small_matrix(data, q, b_rows, cols)
    h = cond_entropy_enumerated(FieldMatrix(field, a), FieldMatrix(field, b))
    assert h == brute_cond_entropy(a, b, q)


# (K, q, width) with at most 3**9 states, so the reference stays quick
ORACLE_GRID = [(2, 2, 1), (2, 3, 1), (2, 5, 1), (2, 7, 1), (2, 2, 3), (2, 3, 3),
               (3, 3, 1), (3, 5, 1), (3, 7, 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_GRID), st.sampled_from(["clean", "keyless", "random"]),
       st.data())
def test_mi_oracle_matches_reference(grid, key_map, data):
    k, q, width = grid
    s = build_scheme_a(build_cyclic(k, 1), PrimeField(q), seed=1)
    if key_map == "keyless":
        s = keyless(s)
    elif key_map == "random":
        km = small_matrix(data, q, s.key_map.rows, s.key_map.cols)
        s = Scheme(variant=s.variant, topology=s.topology, field=s.field,
                   decode_matrix=s.decode_matrix, encoders=s.encoders,
                   key_map=FieldMatrix(s.field, km), key_weights=s.key_weights, t_u=s.t_u)
    pat = data.draw(st.sampled_from(list(iter_patterns(s.topology, k, k, all_sizes=True))))
    res = mi_oracle(s, pat, width=width)
    expected = brute_mutual_information(*oracle_maps(s, pat, width), q)
    assert res.mi_value == expected and res.is_zero is (expected == 0)
    assert res.states == q ** ((k + s.seed_count) * width)


def test_engine_sort_fallback_matches_reference():
    # with no room for lookup tables every dense ranking goes through np.unique
    rng = np.random.default_rng(11)
    s = keyless(build_scheme_a(build_cyclic(3, 1), F5, seed=0))
    pat = CollusionPattern([1], [2])
    a, b = rng.integers(0, 7, (3, 4)), rng.integers(0, 7, (2, 4))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "_TABLE_FACTOR", 0)
        leak = mi_oracle(s, pat)
        h = cond_entropy_enumerated(FieldMatrix(F7, a), FieldMatrix(F7, b))
    assert leak.mi_value == brute_mutual_information(*oracle_maps(s, pat, 1), 5) > 0
    assert h == brute_cond_entropy(a, b, 7)


# -- rank route vs the four-rank formula and the oracle ------------------------------


def with_key_map(s, km):
    return Scheme(variant=s.variant, topology=s.topology, field=s.field,
                  decode_matrix=s.decode_matrix, encoders=s.encoders,
                  key_map=FieldMatrix(s.field, km), key_weights=s.key_weights, t_u=s.t_u)


# (scheme, t_h, t_u): every pattern of the lattice below (t_h, t_u) is checked
FOUR_RANK_CASES = {
    "B cyclic(6,2) q=13": (lambda: build_scheme_b(build_cyclic(6, 2), PrimeField(13), 2, seed=0),
                           2, 2),
    "B multiple_cyclic(7,2,2) q=29": (
        lambda: build_scheme_b(build_multiple_cyclic(7, 2, 2), PrimeField(29), 1, seed=3), 1, 1),
    "C(5) q=7": (lambda: build_scheme_c(5, F7), 1, 3),
    "A tree(3,2) q=7": (lambda: build_scheme_a(build_tree(3, 2), F7, seed=0), 2, 2),
}


@pytest.mark.parametrize("case", list(FOUR_RANK_CASES))
def test_rank_leak_matches_four_rank_formula(case):
    # the two-rank quotient form must give the four-rank value on every pattern,
    # for the clean scheme and for schemes whose key map leaks
    build, t_h, t_u = FOUR_RANK_CASES[case]
    clean = build()
    rng = np.random.default_rng(7)
    random_map = rng.integers(0, clean.field.q, clean.key_map.a.shape)
    leaks = 0
    for s in (clean, tampered(clean), keyless(clean), with_key_map(clean, random_map)):
        for pat in iter_patterns(s.topology, t_h, t_u, all_sizes=True):
            expected = four_rank_leak(*oracle_maps(s, pat, 1), s.field.q)
            assert rank_leak(s, pat) == expected, (case, pat)
            leaks += expected > 0
    assert leaks > 0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([g for g in ORACLE_GRID if g[2] == 1]),
       st.sampled_from(["clean", "keyless", "random"]), st.data())
def test_rank_leak_equals_oracle_value(grid, key_map, data):
    # not only zero against nonzero: the two routes give the same number
    k, q, _ = grid
    s = build_scheme_a(build_cyclic(k, 1), PrimeField(q), seed=1)
    if key_map == "keyless":
        s = keyless(s)
    elif key_map == "random":
        s = with_key_map(s, small_matrix(data, q, s.key_map.rows, s.key_map.cols))
    pat = data.draw(st.sampled_from(list(iter_patterns(s.topology, k, k, all_sizes=True))))
    assert rank_leak(s, pat) == mi_oracle(s, pat).mi_value

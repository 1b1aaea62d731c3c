import dataclasses
import itertools
import math
import tracemalloc
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
    Decodability,
    SweepReport,
    _assignments,
    _leaks,
    _pattern_blocks,
    _sample,
    _unrank,
    adversary_view,
    check_decodability,
    check_security_rank,
    cond_entropy_enumerated,
    converse_spot_checks,
    count_patterns,
    iter_patterns,
    mi_oracle,
    rank_leak,
    sweep_security,
)

from oracles import (_all_states, _expand_for_width, brute_cond_entropy,
                     brute_mutual_information, four_rank_leak, full_grid_mi_oracle,
                     reservoir_walk)
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
        expected = (int(s.key_weights.a[i - 1, 1]) * s.key_map.a[:, i - 1]) % 7
        assert view.c_r.row(row).tolist() == expected.tolist()


def wire_schemes():
    """A, B, multiple-cyclic B and C, each clean and tampered."""
    schemes = [build_scheme_a(build_cyclic(4, 2), F5, seed=1),
               build_scheme_b(build_cyclic(6, 2), PrimeField(13), 2, seed=0),
               build_scheme_b(build_multiple_cyclic(7, 2, 2), PrimeField(29), 1, seed=3),
               build_scheme_c(5, F7)]
    return schemes + [tampered(s) for s in schemes]


def test_link_rows_match_wire():
    # the first N*n rows of the one gather table: row link_index(i, j) is message
    # (i, j) over (seeds, inputs), as the protocol computes it
    for s in wire_schemes():
        wire, _ = symbolic_messages(s)
        link_rows = s.stack_rows[:s.topology.N * s.topology.n]
        assert link_rows.shape == (len(wire), s.seed_count + s.topology.N * s.topology.n)
        assert not s.stack_rows.flags.writeable
        for (i, j), (c_w, c_r) in wire.items():
            assert link_rows[s.link_index(i, j)].tolist() == [*c_r, *c_w], (i, j)


def test_view_matches_wire():
    # the oracle reads adversary_view (the rank route gathers Scheme.stack_rows
    # directly); its rows must be the coefficients of the messages the protocol
    # actually sends
    for s in wire_schemes():
        wire, _ = symbolic_messages(s)
        view = adversary_view(s, CollusionPattern(range(1, s.topology.K + 1), []))
        assert set(view.row_labels) == set(wire)
        for r, label in enumerate(view.row_labels):
            assert view.c_w.row(r).tolist() == wire[label][0].tolist(), label
            assert view.c_r.row(r).tolist() == wire[label][1].tolist(), label


def test_view_validates_ids():
    s = example_scheme()  # K = N = 3
    CollusionPattern([1, 3], [1, 3]).validate(s)
    # an id past either end of the relays or of the users, for every check of one pattern
    for relays, users in [([9], []), ([0], []), ([1, 4], []), ([-1, 2], [1]), ([], [0, 1]),
                          ([2], [3, 4])]:
        for check in (adversary_view, rank_leak, check_security_rank, mi_oracle):
            with pytest.raises(InvalidArgument):
                check(s, CollusionPattern(relays, users))


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


def test_oracle_cap_covers_the_whole_grid():
    # the counted grids are 3**8 (free inputs and seeds) and 3**4 (seeds), yet
    # the cap still applies to all 3**10 inputs and seeds
    s = example_scheme(3)
    pat = CollusionPattern([1], [1])
    with pytest.raises(TooLargeToEnumerate):
        mi_oracle(s, pat, cap=3**10 - 1)
    assert mi_oracle(s, pat, cap=3**10).states == 3**10
    with pytest.raises(TooLargeToEnumerate):
        mi_oracle(s, pat, width=10**20, cap=10**30)  # refused without building 3**(10**21)
    readme_b = build_scheme_b(build_cyclic(6, 2), PrimeField(13), 2, seed=7)
    _, rep = sweep_security(readme_b, 1, 2, oracle_cap=10**6)
    assert (rep.checked, rep.skipped_cap, rep.passed, rep.failed) == (154, 154, 0, 0)
    rank, rep = sweep_security(s, 1, 0, width=10**20)
    assert (rep.checked, rep.skipped_cap) == (4, 4) and rank.passed == 4


def test_states_decides_the_cap_without_building_a_power_past_it():
    # q >= 2, so from cap.bit_length() variables on the grid is past the cap
    for cap in (1, 2, 3, 80, 81, 2**20 - 1, 2**20, 10**30):
        for q in (2, 3, 65537):
            for n_vars in range(cap.bit_length() + 2):
                if q ** n_vars <= cap:
                    assert verify._states(q, n_vars, cap) == q ** n_vars
                else:
                    with pytest.raises(TooLargeToEnumerate):
                        verify._states(q, n_vars, cap)


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
    # every map is linear, so a width-w block carries w independent copies; the
    # full-grid reference expands every map itself, so it checks the factor rule
    good = build_scheme_a(build_cyclic(2, 1), F3, seed=0)
    cases = [(good, CollusionPattern([1], []), 3),           # 3**9 states
             (keyless(good), CollusionPattern([1], []), 3),
             (tampered(example_scheme(2)), CollusionPattern([3], [3]), 2)]  # 2**20 states
    for s, pat, width in cases:
        one = mi_oracle(s, pat, width=1, cap=10**7)
        wide = mi_oracle(s, pat, width=width, cap=10**7)
        assert wide.is_zero == one.is_zero
        assert wide.mi_value == width * one.mi_value
        assert wide == full_grid_mi_oracle(s, pat, width=width, cap=10**7)
    assert not mi_oracle(*cases[2][:2]).is_zero


def test_oracle_agrees_with_rank_both_ways():
    good = example_scheme()
    bad = tampered(good)
    worse = keyless(good)
    for s in (good, bad, worse):
        for pat in iter_patterns(s.topology, 1, 1, all_sizes=True):
            assert mi_oracle(s, pat).is_zero == check_security_rank(s, pat)


# -- decodability -------------------------------------------------------------------


@pytest.mark.parametrize("q, n_vars", [(2, 0), (5, 0), (3, 1), (2, 5), (3, 11), (7, 7),
                                       (2, 17), (257, 2)])
def test_assignments_are_the_row_major_enumeration(q, n_vars):
    chunks = list(_assignments(q, n_vars, np.int64))
    assert all(chunk.shape[0] == n_vars and 1 <= chunk.shape[1] <= verify._CHUNK_COLUMNS
               for chunk in chunks)
    assert all(chunk.flags.c_contiguous for chunk in chunks)
    assert np.array_equal(np.hstack(chunks).T, _all_states(q, n_vars))


def test_an_exhaustive_decode_runs_in_bounded_memory():
    # the 5**10 = 9,765,625 states of A on cyclic(3,2) go through the round in chunks
    # of at most _CHUNK_COLUMNS columns; a chunk of 2**20 columns peaks at about 22 MiB
    s = example_scheme(5)
    tracemalloc.start()
    try:
        deco = check_decodability(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert deco == Decodability("exhaustive", True, states=5**10)
    assert peak < 8 * 2**20


def test_decodability_exhaustive_small():
    top = build_cyclic(2, 1)
    s = build_scheme_a(top, F3, seed=0)
    assert check_decodability(s) == Decodability("exhaustive", True, states=3**3)


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
    assert check_decodability(s, cap=10**7).passed


def test_decodability_exhaustive_width():
    s = build_scheme_a(build_cyclic(2, 1), F3, seed=0)
    assert check_decodability(s, width=2, cap=10**6).passed  # 3**6 state bound


def test_decodability_sampled_and_tampered():
    s = example_scheme(5)
    assert check_decodability(s, samples=200, seed=1, cap=1).passed
    assert not check_decodability(tampered(s), samples=200, seed=1, cap=1).passed


def test_decodability_cap():
    # past the cap the decode samples its default 10,000 rounds instead of enumerating
    s = example_scheme(7)
    assert check_decodability(s, cap=7**10 - 1) == Decodability("sampled", True, samples=10_000)


def test_decodability_weighted():
    s = build_scheme_b(build_cyclic(6, 2), PrimeField(13), t_u=2, seed=0)
    assert check_decodability(s, samples=500, seed=2).passed
    bad = tampered(s)
    assert not check_decodability(bad, samples=500, seed=2).passed


def tampered_decoder(scheme, row=0, col=-1):
    d = scheme.decode_matrix.a.copy()
    d[row, col] = (d[row, col] + 1) % scheme.field.q
    return dataclasses.replace(scheme, decode_matrix=FieldMatrix(scheme.field, d))


def decode(s, samples, seed):
    """check_decodability of s: exhaustive if samples is None, else `samples` sampled rounds."""
    if samples is None:
        return check_decodability(s, seed=seed)
    return check_decodability(s, samples=samples, seed=seed, cap=1)


def decode_cases():
    """(scheme, samples) per q: exhaustive where the grid is small, sampled on cyclic(3,2)."""
    for q in (3, 5, 7, 13, 101):
        field = PrimeField(q)
        yield build_scheme_a(build_cyclic(2, 1), field, seed=0), None
        if q == 3:
            yield example_scheme(q), None
        yield example_scheme(q), 300
        if q == 13:
            yield build_scheme_b(build_cyclic(6, 2), field, t_u=2, seed=0), 300


@pytest.mark.parametrize("scheme, samples", list(decode_cases()),
                         ids=lambda v: f"{v.variant} q={v.field.q} K={v.topology.K}"
                         if isinstance(v, Scheme) else f"samples={v}")
def test_narrow_decode_verdicts_equal_the_int64_reference(monkeypatch, scheme, samples):
    # clean schemes pass, and a tampered decode matrix or key map fails, in both dtypes
    cases = [(scheme, True), (tampered(scheme), False), (tampered_decoder(scheme), False)]
    narrow = [decode(s, samples, 4).passed for s, _ in cases]
    monkeypatch.setattr(gf, "_narrowest", lambda bound, floor=None: np.dtype(np.int64))
    reference = [decode(s, samples, 4).passed for s, _ in cases]
    assert narrow == reference == [passes for _, passes in cases]


@pytest.mark.parametrize("q, samples, columns, decoded", [
    (3, None, np.int8, np.int8), (5, None, np.int8, np.int8), (5, 100, np.int8, np.int8),
    (101, 100, np.int16, np.int32), (65537, 100, np.int64, np.int64)])
def test_decode_runs_in_the_narrowest_dtype_its_bound_allows(monkeypatch, q, samples,
                                                             columns, decoded):
    # A on cyclic(3,2): the columns hold (q - 1)**2; the encode's bound is (q - 1)**2 * 4
    s = build_scheme_a(build_cyclic(3, 2), PrimeField(q), seed=0)
    assert max(s.seed_count, 2 + s.keys_per_user) == 4
    run_round, seen = verify.run_round, []

    def first_round(s, inputs, keys):  # record the first round's dtypes and stop there
        t = run_round(s, inputs, keys=keys)
        seen.append((inputs[0].a.dtype, t.decoded.a.dtype))
        return dataclasses.replace(t, mismatch=True)

    monkeypatch.setattr(verify, "run_round", first_round)
    assert not decode(s, samples, 0).passed
    assert seen == [(np.dtype(columns), np.dtype(decoded))]


def test_decode_past_every_dtype_bound_stays_exact_at_the_largest_field():
    # at q = 2**31 - 1 the columns are int64, and the products' bounds are past int64's
    s = build_scheme_c(3, PrimeField(2**31 - 1))
    assert check_decodability(s, samples=200, seed=1).passed
    assert not check_decodability(tampered_decoder(s), samples=200, seed=1).passed
    assert check_decodability(s).mode == "sampled"


# -- sweeps -----------------------------------------------------------------------


def test_sweep_counts_and_pass():
    s = example_scheme()
    for rep in sweep_security(s, 1, 1, all_sizes=False):
        assert rep.total_patterns == 9 and rep.checked == 9
        assert rep.passed == 9 and rep.failed == 0
    for rep_all in sweep_security(s, 1, 1, all_sizes=True):
        assert rep_all.total_patterns == 16 and rep_all.passed == 16
    assert count_patterns(s.topology, 1, 1, True) == 16


def test_sweep_first_failure():
    s = example_scheme()
    rep, _ = sweep_security(s, 2, 0, all_sizes=False)
    assert rep.failed >= 1
    assert rep.first_failure is not None
    assert not check_security_rank(s, rep.first_failure)


@pytest.mark.parametrize("budget", [3, 100])
def test_a_sweep_walks_at_most_its_walk_limit(monkeypatch, budget):
    # the 9 maximal patterns of the example at (1,1): a sweep at the limit runs, one past raises
    s = example_scheme()
    monkeypatch.setattr(verify, "_WALK_LIMIT", 9)
    rank, _ = sweep_security(s, 1, 1, budget=budget, all_sizes=False)
    assert (rank.total_patterns, rank.checked) == (9, min(9, budget))
    monkeypatch.setattr(verify, "_WALK_LIMIT", 8)
    with pytest.raises(TooLargeToEnumerate, match="^9 collusion patterns exceed"):
        sweep_security(s, 1, 1, budget=budget, all_sizes=False)


def test_a_sweep_of_a_quarter_billion_patterns_is_within_the_walk_limit():
    # cyclic(30,3) at (2,6), 2.6e8 patterns, about 8 s to sweep: counted here, not run
    assert count_patterns(build_cyclic(30, 3), 2, 6, False) == 435 * 593_775 <= verify._WALK_LIMIT


def test_a_budget_past_the_network_covers_all_of_it():
    # there is no pattern of more than K relays or N users, so such a budget sweeps
    # the patterns of budget K or N: it may neither check no pattern nor count
    # range(t_u + 1) up to a huge t_u
    tri, octagon = build_cyclic(3, 2), build_cyclic(8, 2)
    assert count_patterns(tri, 1, 10**12, True) == count_patterns(tri, 1, 3, True) == 32
    assert list(iter_patterns(tri, 1, 10**12, True)) == list(iter_patterns(tri, 1, 3, True))
    assert count_patterns(octagon, 9, 1, False) == count_patterns(octagon, 8, 1, False) == 8
    s = build_scheme_a(tri, F5, seed=0)
    reports = sweep_security(s, 1, 10**12)
    assert reports == sweep_security(s, 1, 3)
    assert [(r.checked, r.failed) for r in reports] == [(32, 6), (32, 6)]
    s = build_scheme_a(octagon, PrimeField(13), seed=0)
    rank, oracle = sweep_security(s, 9, 1)
    assert (rank, oracle) == sweep_security(s, 8, 1)
    assert (rank.checked, rank.failed, oracle.skipped_cap) == (8, 8, 8)


@pytest.mark.parametrize("kwargs", [{"budget": 0}, {"budget": -3}])
def test_sweep_rejects_an_empty_budget(kwargs):
    # a zero budget would check nothing and still report all_passed
    with pytest.raises(InvalidArgument):
        sweep_security(example_scheme(), 1, 1, **kwargs)


def test_sweep_budget_subsampling_is_deterministic():
    s = build_scheme_a(build_cyclic(6, 2), F7, seed=0)
    r1 = sweep_security(s, 1, 2, budget=10, all_sizes=True, seed=5)
    r2 = sweep_security(s, 1, 2, budget=10, all_sizes=True, seed=5)
    assert all(r.subsampled and r.checked == 10 for r in r1)
    assert [r.as_dict() for r in r1] == [r.as_dict() for r in r2]


def unranked(top, t_h, t_u, all_sizes, indices):
    """The patterns at `indices` (iter_patterns order), in the order of indices."""
    patterns = [None] * len(indices)
    for places, relays, users in _pattern_blocks(top, t_h, t_u, all_sizes, np.asarray(indices),
                                                 7):
        for place, r, u in zip(places.tolist(), relays.tolist(), users.tolist()):
            patterns[place] = CollusionPattern(r, u)
    return patterns


def sampled_patterns(top, t_h, t_u, all_sizes, budget, seed):
    """The subsampled sweep's patterns, in its slot order."""
    total = count_patterns(top, t_h, t_u, all_sizes)
    return unranked(top, t_h, t_u, all_sizes, _sample(total, budget, seed))


@pytest.mark.parametrize("top, t_h, t_u, all_sizes, budget, seed", [
    (build_cyclic(6, 2), 1, 2, True, 10, 5),
    (build_cyclic(12, 3), 2, 3, False, 100, 0),
    (build_multiple_cyclic(7, 2, 2), 2, 1, False, 17, 3),
    (build_tree(3, 2), 2, 2, True, 1, 11),
    (build_cyclic(6, 2), 1, 2, True, 153, 2),  # budget = total - 1
])
def test_reservoir_draws_the_sample_of_the_full_walk(top, t_h, t_u, all_sizes, budget, seed):
    # the sample is drawn over pattern indices; only the kept ones are unranked
    assert count_patterns(top, t_h, t_u, all_sizes) > budget
    sample = sampled_patterns(top, t_h, t_u, all_sizes, budget, seed)
    assert sample == reservoir_walk(iter_patterns(top, t_h, t_u, all_sizes), budget, seed)


@pytest.mark.parametrize("budget", [10, 1500, 14520 - 2 * 4096])
def test_reservoir_draws_the_scalar_sample_across_draw_blocks(budget):
    # 14,520 maximal patterns: the draws span several blocks of 4,096, and
    # end partway through one or, at the last budget, on a block boundary
    top = build_cyclic(12, 3)
    sample = sampled_patterns(top, 2, 3, False, budget, 4)
    assert sample == reservoir_walk(iter_patterns(top, 2, 3, False), budget, 4)


def test_block_draws_equal_scalar_draws_across_two_to_the_32():
    # the property _sample's block draws rest on, at bounds past 32 bits
    start = 2**32 - 3000
    scalar = np.random.default_rng(9)
    block = np.random.default_rng(9).integers(0, np.arange(start + 1, start + 6001))
    assert block.tolist() == [int(scalar.integers(0, k + 1)) for k in range(start, start + 6000)]


@pytest.mark.parametrize("n", range(8))
def test_unrank_equals_the_lexicographic_combinations(n):
    for r in range(n + 1):
        expected = [list(c) for c in itertools.combinations(range(1, n + 1), r)]
        assert _unrank(np.arange(math.comb(n, r)), n, r).tolist() == expected, (n, r)


@pytest.mark.parametrize("top", [build_cyclic(3, 2), build_cyclic(5, 2), build_tree(3, 2),
                                 build_multiple_cyclic(7, 2, 2)])
@pytest.mark.parametrize("t_h, t_u", [(0, 0), (1, 0), (0, 2), (2, 1), (2, 3)])
@pytest.mark.parametrize("all_sizes", [False, True])
def test_unranking_equals_iter_patterns_at_every_index(top, t_h, t_u, all_sizes):
    # all_sizes adds the size-0 blocks; the helper unranks in blocks of 7,
    # and a reversed index list comes back reversed
    expected = list(iter_patterns(top, t_h, t_u, all_sizes))
    indices = list(range(len(expected)))
    assert len(expected) == count_patterns(top, t_h, t_u, all_sizes)
    assert unranked(top, t_h, t_u, all_sizes, indices) == expected
    assert unranked(top, t_h, t_u, all_sizes, indices[::-1]) == expected[::-1]


@pytest.mark.parametrize("total, budget, seed", [
    (2, 1, 0), (10, 9, 3), (5000, 4999, 1),            # budget = total - 1
    (100 + 4096, 100, 2), (100 + 4096 + 1, 100, 2),    # one block exactly, and one more draw
    (7 + 2 * 4096 - 1, 7, 5), (3 + 3 * 4096 + 17, 3, 8),
])
def test_index_sample_equals_the_reservoir_walk(total, budget, seed):
    assert _sample(total, budget, seed).tolist() == reservoir_walk(range(total), budget, seed)


def test_a_sweep_the_oracle_skips_entirely_passes_on_the_rank_route_alone():
    # all_passed means no failure and no disagreement, not that anything was
    # decided: the README's B scheme is past the oracle's default cap, so its
    # oracle report skips all 154 patterns and still reads as passed
    scheme = build_scheme_b(build_cyclic(6, 2), PrimeField(13), t_u=2, seed=7)
    rank, oracle = sweep_security(scheme, t_h=1, t_u=2)
    assert (rank.checked, rank.passed, rank.failed, rank.all_passed) == (154, 154, 0, True)
    assert (oracle.checked, oracle.skipped_cap, oracle.passed, oracle.failed) == (154, 154, 0, 0)
    assert oracle.all_passed


def test_a_full_sweep_streams_in_bounded_memory():
    # the 14,520 maximal patterns of A on cyclic(12,3) at (2,3) go through the
    # rank kernel in blocks of bounded size; a block that grew with the
    # pattern count would hold about 57 MiB of stack entries
    s = build_scheme_a(build_cyclic(12, 3), PrimeField(65537), seed=0)
    sweep_security(s, 2, 3, budget=10)  # the scheme's tables are built and cached
    tracemalloc.start()
    try:
        rank, _ = sweep_security(s, 2, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rank.checked, rank.passed, rank.subsampled) == (14520, 14520, False)
    assert peak < 4 * 2**20


def test_sweep_oracle_and_both():
    s = example_scheme()
    for rep in sweep_security(s, 1, 1, all_sizes=True, oracle_cap=10**6):
        assert rep.passed == 16 and rep.disagreements == 0 and rep.skipped_cap == 0
    rank, capped = sweep_security(s, 1, 1, all_sizes=False, oracle_cap=10)
    assert capped.skipped_cap == 9 and capped.passed == 0 and capped.failed == 0
    assert rank.passed == 9 and rank.skipped_cap == 0


def test_sweep_both_decides_oracle_skips_by_rank():
    # a skipped oracle run gives no verdict: the rank route alone decides the
    # pattern, and no disagreement is counted with only one route run
    for s in (example_scheme(), keyless(example_scheme())):
        rank, oracle = sweep_security(s, 1, 1, all_sizes=True, oracle_cap=10)
        assert oracle.skipped_cap == oracle.checked == 16 and oracle.disagreements == 0
        assert (oracle.passed, oracle.failed, oracle.first_failure) == (0, 0, None)
        assert rank == sweep_security(s, 1, 1, all_sizes=True, oracle_cap=10**6)[0]
    assert rank.failed > 0 and rank.disagreements == 0


def capped_oracle_sweep(s, t_h, t_u, budget, all_sizes, cap, seed):
    """The oracle sweep's per-pattern loop where every mi_oracle call hits the cap."""
    total = count_patterns(s.topology, t_h, t_u, all_sizes)
    rep = SweepReport(method="oracle", all_sizes=all_sizes, total_patterns=total,
                      subsampled=total > budget)
    patterns = (sampled_patterns(s.topology, t_h, t_u, all_sizes, budget, seed)
                if rep.subsampled else iter_patterns(s.topology, t_h, t_u, all_sizes))
    for pat in patterns:
        with pytest.raises(TooLargeToEnumerate):
            mi_oracle(s, pat, cap=cap)
        rep.checked += 1
        rep.skipped_cap += 1
    return rep


@pytest.mark.parametrize("make, t_h, t_u, all_sizes, budget", [
    (example_scheme, 1, 1, True, 1000),
    (example_scheme, 1, 1, True, 5),
    (lambda: keyless(example_scheme()), 1, 1, False, 4),
    (lambda: build_scheme_a(build_cyclic(12, 3), PrimeField(13), seed=0), 2, 3, False, 100),
])
def test_capped_oracle_sweep_equals_the_per_pattern_loop(monkeypatch, make, t_h, t_u,
                                                         all_sizes, budget):
    s = make()
    expected = capped_oracle_sweep(s, t_h, t_u, budget, all_sizes, 10, 3)
    assert expected.checked == min(expected.total_patterns, budget)

    def unreachable(*args, **kwargs):
        raise AssertionError("a capped oracle sweep called the oracle")

    monkeypatch.setattr(verify, "mi_oracle", unreachable)
    _, got = sweep_security(s, t_h, t_u, budget=budget, all_sizes=all_sizes, oracle_cap=10,
                            seed=3)
    assert got == expected


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
    assert set(checks.per_link_entropy) == {(i, j) for i, links in
                                           enumerate(s.topology.user_links, 1) for j in links}
    assert checks.user_entropy_sum == Fraction(6)  # 3 users x L, L = 2
    assert checks.sum_lower_bound == Fraction(6)
    assert checks.sum_meets_bound


def width_two(m):
    return FieldMatrix(m.field, _expand_for_width(m.a, 2))


@pytest.mark.parametrize("build", [lambda: example_scheme(3), lambda: build_scheme_c(3, F5)])
def test_converse_spot_checks_count_one_block_column(build):
    s = build()
    one, two = converse_spot_checks(s), converse_spot_checks(s, width=2)
    assert two.per_link_entropy == {k: 2 * v for k, v in one.per_link_entropy.items()}
    assert two.user_entropy_sum == 2 * one.user_entropy_sum
    assert two.sum_lower_bound == 2 * one.sum_lower_bound
    # against the width-2 maps counted over all q**(2 * seeds) seed values
    for (i, j), h in two.per_link_entropy.items():
        others = gf.vstack([s.user_key_map(k).T for k in range(1, s.topology.N + 1) if k != i])
        target = s.link_keys.take_cols([s.link_index(i, j)]).T
        assert h == cond_entropy_enumerated(width_two(target), width_two(others))
    empty = gf.zeros(s.field, 0, 2 * s.seed_count)
    assert two.user_entropy_sum == sum(
        cond_entropy_enumerated(width_two(s.user_key_map(i).T), empty)
        for i in range(1, s.topology.N + 1))


def test_converse_spot_checks_cap_covers_the_whole_block():
    s = example_scheme(3)  # 4 seeds
    assert converse_spot_checks(s, width=2, cap=3**8).all_links_determined
    with pytest.raises(TooLargeToEnumerate):
        converse_spot_checks(s, width=2, cap=3**8 - 1)
    converse_spot_checks(s, width=1, cap=3**4)
    with pytest.raises(TooLargeToEnumerate):
        converse_spot_checks(s, width=10**20, cap=10**30)  # 3**(4 * 10**20) is never built


@pytest.mark.parametrize("width", [0, -1])
@pytest.mark.parametrize("check", [
    lambda s, width: mi_oracle(s, CollusionPattern([1], [1]), width=width),
    lambda s, width: sweep_security(s, 1, 1, width=width),
    lambda s, width: sweep_security(s, 1, 1, width=width, oracle_cap=10),
    lambda s, width: check_decodability(s, width=width).passed,
    lambda s, width: check_decodability(s, samples=100, width=width).passed,
    lambda s, width: check_decodability(s, samples=width).passed,
    lambda s, width: converse_spot_checks(s, width=width),
])
def test_a_width_or_sample_count_below_one_is_rejected(check, width):
    # each used to check nothing and pass, even on the leaking C and a broken decoder
    for s in (build_scheme_c(3, F5), tampered_decoder(example_scheme(5))):
        with pytest.raises(InvalidArgument):
            check(s, width)


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
        raise AssertionError("the oracle reached an elimination routine or the rank peel")

    for routine in ("_all_nonsingular", "_lockstep_ranks", "_rref"):
        monkeypatch.setattr(gf, routine, no_elimination)
    for routine in ("_leaks", "_peel"):
        monkeypatch.setattr(verify, routine, no_elimination)
    monkeypatch.setattr(Scheme, "stack_supports", property(no_elimination))
    key_map = schemes[0].key_map
    square = key_map.take_cols(range(key_map.rows))
    one = np.ones((1, 1), dtype=np.intp)
    for eliminate in (key_map.rank, square.inverse, lambda: gf.mds_check(key_map),
                      lambda: verify._leaks(schemes[1], one, one), lambda: verify._peel(one, one, 0),
                      lambda: gf._lockstep_ranks(np.ones((1, 1, 1), dtype=np.int64), 3),
                      lambda: schemes[1].stack_supports,
                      lambda: rank_leak(schemes[1], CollusionPattern([1], [2]))):
        with pytest.raises(AssertionError):
            eliminate()
    assert [oracle_values(s) for s in schemes] == expected


# -- enumeration engine vs the per-state reference ----------------------------------


def oracle_maps(s, p, width):
    """U (every input), V (the view) and C (the colluders' inputs and keys)."""
    n, n_w = s.topology.n, s.topology.N * s.topology.n
    eye = np.eye(n_w + s.seed_count, dtype=np.int64)
    keys = [np.hstack([np.zeros((m.cols, n_w), dtype=np.int64), m.a.T])
            for m in map(s.user_key_map, p.users)]
    c = np.vstack([eye[(i - 1) * n:i * n] for i in p.users] + keys + [eye[:0]])
    view = adversary_view(s, p)
    v = np.hstack([view.c_w.a, view.c_r.a])
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
ORACLE_GRID = [(2, 2, 1), (2, 3, 1), (2, 5, 1), (2, 7, 1), (2, 2, 2), (2, 3, 2), (2, 2, 3),
               (2, 3, 3), (3, 3, 1), (3, 5, 1), (3, 7, 1)]


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
    assert res == full_grid_mi_oracle(s, pat, width=width)


def test_engine_matches_reference_on_a_leak_and_random_maps():
    rng = np.random.default_rng(11)
    s = keyless(build_scheme_a(build_cyclic(3, 1), F5, seed=0))
    pat = CollusionPattern([1], [2])
    a, b = rng.integers(0, 7, (3, 4)), rng.integers(0, 7, (2, 4))
    leak = mi_oracle(s, pat)
    h = cond_entropy_enumerated(FieldMatrix(F7, a), FieldMatrix(F7, b))
    assert leak.mi_value == brute_mutual_information(*oracle_maps(s, pat, 1), 5) > 0
    assert h == brute_cond_entropy(a, b, 7)


# the oracle workload's three report configs
ORACLE_WORKLOAD = {
    "triangle-A-q3": lambda: build_scheme_a(build_cyclic(3, 2), F3, seed=0),
    "tree22-A-q7": lambda: build_scheme_a(build_tree(2, 2), F7, seed=0),
    "triangle-C-q5": lambda: build_scheme_c(3, F5),
}


@pytest.mark.parametrize("config", list(ORACLE_WORKLOAD))
def test_factored_oracle_equals_full_grid_on_the_workload(config):
    clean = ORACLE_WORKLOAD[config]()
    leaks = 0
    for s in (clean, tampered(clean), keyless(clean)):
        for pat in iter_patterns(s.topology, 1, 1, all_sizes=True):
            res = mi_oracle(s, pat)
            assert res == full_grid_mi_oracle(s, pat), (config, pat)
            leaks += not res.is_zero
    assert leaks > 0


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


def wire_maps(s, wire, p):
    """U, V and C as oracle_maps builds them, with V read from the wire."""
    u, _, c = oracle_maps(s, p, 1)
    v = [np.hstack(wire[(i, j)]) for j in p.relays for i in s.topology.relay_links[j - 1]]
    return u, np.array(v, dtype=np.int64).reshape(-1, u.shape[1]), c


@pytest.mark.parametrize("case", list(FOUR_RANK_CASES))
def test_rank_leak_matches_four_rank_formula_on_random_encoders(case):
    # the trimmed stack must not rest on invertible encoders or on the
    # built key map: every other user gets a singular encoder
    build, t_h, t_u = FOUR_RANK_CASES[case]
    clean = build()
    q, n = clean.field.q, clean.topology.n
    rng = np.random.default_rng(5)
    leaks = 0
    for _ in range(2):
        encoders = []
        for i in range(clean.topology.N):
            e = rng.integers(0, q, (n, n))
            if i % 2:
                e[-1] = rng.integers(0, q) * e[:-1].sum(axis=0) % q
            encoders.append(FieldMatrix(clean.field, e))
        s = dataclasses.replace(clean, encoders=tuple(encoders),
                                key_map=FieldMatrix(clean.field, rng.integers(
                                    0, q, clean.key_map.a.shape)))
        assert any(e.rank() < n for e in s.encoders)
        wire, _ = symbolic_messages(s)
        for pat in iter_patterns(s.topology, t_h, t_u, all_sizes=True):
            expected = four_rank_leak(*wire_maps(s, wire, pat), q)
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


def mixed_key_map(data, q, seeds, cols):
    """A key map whose columns are each a unit column (one nonzero), dense random or
    zero; a zero column leaves its user's messages with no seed entry."""
    km = np.zeros((seeds, cols), dtype=np.int64)
    for c in range(cols):
        kind = data.draw(st.sampled_from(["unit", "dense", "zero"]))
        if kind == "unit":
            km[data.draw(st.integers(0, seeds - 1)), c] = data.draw(st.integers(1, q - 1))
        elif kind == "dense":
            km[:, c] = small_matrix(data, q, seeds, 1)[:, 0]
    return km


def maybe_singular_encoders(data, s):
    """The built encoders, or random ones of which some are made singular."""
    if data.draw(st.booleans()):
        return s.encoders
    q, n = s.field.q, s.topology.n
    encoders = []
    for _ in range(s.topology.N):
        e = small_matrix(data, q, n, n)
        if data.draw(st.booleans()):
            e[-1] = data.draw(st.integers(0, q - 1)) * e[0] % q
        encoders.append(FieldMatrix(s.field, e))
    return tuple(encoders)


PEEL_SCHEMES = [lambda: build_scheme_a(build_cyclic(3, 2), F5, seed=0),
                lambda: build_scheme_a(build_cyclic(5, 2), F7, seed=1),
                lambda: build_scheme_a(build_tree(3, 2), F7, seed=0),
                lambda: build_scheme_c(5, F7)]


def test_rank_leak_peel_matches_four_rank_formula(monkeypatch):
    # the support peel must not change the leak whether it clears a stack, part
    # of it or none of it; the examples are derandomized so all three occur
    outcomes = set()
    peel = verify._peel

    def recording_peel(idx, supports, zero):
        rows = (idx != zero).sum(axis=1)
        peel(idx, supports, zero)
        for before, after in zip(rows.tolist(), (idx != zero).sum(axis=1).tolist()):
            if before:
                outcomes.add("to nothing" if not after else
                             "partly" if after < before else "not at all")

    monkeypatch.setattr(verify, "_peel", recording_peel)
    schemes = [build() for build in PEEL_SCHEMES]

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(range(len(schemes))), st.data())
    def check(which, data):
        clean = schemes[which]
        q = clean.field.q
        s = dataclasses.replace(
            clean, encoders=maybe_singular_encoders(data, clean),
            key_map=FieldMatrix(clean.field, mixed_key_map(data, q, *clean.key_map.a.shape)))
        pat = data.draw(st.sampled_from(list(iter_patterns(s.topology, 2, 2, all_sizes=True))))
        assert rank_leak(s, pat) == four_rank_leak(*oracle_maps(s, pat, 1), q), pat

    check()
    assert outcomes == {"to nothing", "partly", "not at all"}


BLOCK_SCHEMES = [lambda: build_scheme_a(build_cyclic(4, 2), F5, seed=1),
                 lambda: build_scheme_b(build_cyclic(6, 2), PrimeField(13), 2, seed=0),
                 lambda: build_scheme_a(build_tree(3, 2), F7, seed=0),
                 lambda: build_scheme_c(5, F7)]


def test_block_leaks_match_four_rank_formula():
    # the kernel on blocks of patterns, as the sweep unranks them: a drawn
    # index list of every size up to (2, 2), cut into blocks of 1 to 64
    schemes = [build() for build in BLOCK_SCHEMES]

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(range(len(schemes))),
           st.sampled_from(["clean", "tampered", "singular"]), st.sampled_from([1, 3, 7, 64]),
           st.data())
    def check(which, kind, block, data):
        s = schemes[which]
        if kind == "tampered":
            s = tampered(s)
        elif kind == "singular":
            s = dataclasses.replace(s, encoders=maybe_singular_encoders(data, s))
        total = count_patterns(s.topology, 2, 2, True)
        indices = data.draw(st.lists(st.integers(0, total - 1), min_size=1, max_size=40))
        for _, relays, users in _pattern_blocks(s.topology, 2, 2, True, np.array(indices), block):
            for leak, r, u in zip(_leaks(s, relays, users).tolist(), relays.tolist(),
                                  users.tolist()):
                pat = CollusionPattern(r, u)
                assert leak == four_rank_leak(*oracle_maps(s, pat, 1), s.field.q), pat

    check()


@pytest.mark.parametrize("budget", [1000, 40])
def test_sweep_tallies_the_four_rank_leaks_across_blocks(monkeypatch, budget):
    # blocks of one pattern: the rank report counts the same failures and
    # names the same first failure as a per-pattern walk of the four ranks
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 1)
    s = tampered(build_scheme_c(5, F7))
    rank, _ = sweep_security(s, 2, 2, budget=budget, all_sizes=True, oracle_cap=10, seed=1)
    patterns = (sampled_patterns(s.topology, 2, 2, True, budget, 1) if rank.subsampled
                else list(iter_patterns(s.topology, 2, 2, True)))
    failing = [p for p in patterns if four_rank_leak(*oracle_maps(s, p, 1), s.field.q)]
    assert (rank.checked, rank.failed) == (len(patterns), len(failing)) and failing
    assert rank.first_failure == failing[0]

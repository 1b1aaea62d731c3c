from fractions import Fraction

import pytest

from hsa_lab.bounds import (
    SPECIAL_CASE_PAIR_CYCLIC,
    WITNESS_FEASIBLE,
    WITNESS_INFEASIBLE,
    RateTuple,
    bounds_report,
    comm_lower,
    pair_cyclic_region,
    feasibility,
    key_lower,
    reference_region,
)
from hsa_lab.errors import InvalidArgument
from hsa_lab.topology import build_cyclic, build_multiple_cyclic, build_tree, collusion_threshold

F = Fraction


def test_comm_lower():
    assert comm_lower(build_cyclic(3, 2)) == (F(1, 2), F(1, 2))
    assert comm_lower(build_tree(2, 2)) == (F(1), F(1))
    assert comm_lower(build_cyclic(6, 3)) == (F(1, 3), F(1, 3))


def test_feasibility_examples():
    top = build_cyclic(3, 2)
    assert not feasibility(top, 2, 0)       # relay budget reaches K - n + 1
    assert not feasibility(top, 1, 2)       # user budget reaches the threshold
    assert feasibility(top, 1, 1)


def test_feasibility_domain():
    top = build_cyclic(3, 2)
    with pytest.raises(InvalidArgument):
        feasibility(top, 0, 0)
    with pytest.raises(InvalidArgument):
        feasibility(top, 1, -1)


@pytest.mark.parametrize("top", [build_cyclic(4, 2), build_cyclic(6, 3), build_tree(3, 2)])
def test_feasibility_antitone(top):
    for t_h in range(1, top.K + 1):
        for t_u in range(0, top.N + 1):
            if not feasibility(top, t_h, t_u):
                assert not feasibility(top, t_h + 1, t_u)
                assert not feasibility(top, t_h, t_u + 1)


def test_key_lower_examples():
    assert key_lower(build_cyclic(5, 2), 1, 1) == (F(1, 2), F(3, 2))
    # two-regular cyclic at maximal user collusion: the exact pair applies
    assert key_lower(build_cyclic(3, 2), 1, 1) == (F(1), F(2))
    # saturated per-user bound once t_h reaches n
    assert key_lower(build_cyclic(5, 2), 2, 0) == (F(1), F(4, 2))


def test_key_lower_absent_source_bound():
    # t_h*m + t_u = N and n > 2, so no source-key bound and no override
    rz, rzsigma = key_lower(build_cyclic(5, 3), 1, 2)
    assert rz == F(1, 3)
    assert rzsigma is None


def test_key_lower_requires_feasible():
    with pytest.raises(InvalidArgument):
        key_lower(build_cyclic(3, 2), 2, 0)


def test_key_lower_rz_window():
    for top in (build_cyclic(4, 2), build_cyclic(6, 3), build_multiple_cyclic(3, 2, 2)):
        for t_h in range(1, top.K - top.n + 1):
            for t_u in range(0, collusion_threshold(top, t_h)):
                rz, _ = key_lower(top, t_h, t_u)
                assert F(1, top.n) <= rz <= 1


def test_single_relay_source_bound_matches_achieved_form():
    # with one colluding relay the min always lands on (t_u + m)/n
    for top in (build_cyclic(5, 2), build_cyclic(6, 2), build_multiple_cyclic(3, 2, 2)):
        for t_u in range(0, collusion_threshold(top, 1)):
            if top.m + t_u >= top.N or (top.n == 2 and t_u == top.N - 2):
                continue
            _, rzsigma = key_lower(top, 1, t_u)
            assert rzsigma == F(t_u + top.m, top.n)


def test_bounds_report_witnesses():
    top = build_cyclic(3, 2)
    rep = bounds_report(top, 1, 1)
    assert rep.feasible and rep.witness == WITNESS_FEASIBLE
    assert rep.special_case == SPECIAL_CASE_PAIR_CYCLIC
    assert (rep.rz_lower, rep.rzsigma_lower) == (F(1), F(2))
    rep2 = bounds_report(top, 2, 0)
    assert not rep2.feasible and rep2.witness == WITNESS_INFEASIBLE
    assert rep2.rz_lower is None and rep2.rzsigma_lower is None


def test_pair_cyclic_region():
    assert pair_cyclic_region(6, 3) == pair_cyclic_region(6, 3)
    r = pair_cyclic_region(6, 3)
    assert (r.exists, r.rz, r.rzsigma) == (True, F(1, 2), F(5, 2))
    r = pair_cyclic_region(6, 4)
    assert (r.exists, r.rz, r.rzsigma) == (True, F(1), F(5))
    assert not pair_cyclic_region(6, 5).exists
    assert not pair_cyclic_region(6, 6).exists


def test_pair_cyclic_region_agrees_with_key_lower():
    for n_users in (4, 5, 6):
        top = build_cyclic(n_users, 2)
        for t in range(0, n_users - 2):
            region = pair_cyclic_region(n_users, t)
            assert region.exists
            assert key_lower(top, 1, t) == (region.rz, region.rzsigma)


def test_tree_feasibility_matches_reference_emptiness():
    # the general threshold formula collapses to the tree region boundary
    for u in (2, 3):
        for v in (1, 2, 3):
            top = build_tree(u, v)
            for t in range(0, u * v + 1):
                assert feasibility(top, 1, t) == (not reference_region(
                    "tree", U=u, V=v, T=t).empty), (u, v, t)


def test_reference_tree():
    assert reference_region("tree", U=2, V=2, T=4).empty
    r = reference_region("tree", U=3, V=2, T=1)
    assert r.bounds["r_zsigma"] == F(3)
    assert "r_zsigma" in r.server_security_terms


def test_reference_cyclic():
    r = reference_region("cyclic_nocollusion", K=4, n=2)
    assert r.bounds == {"r_x": F(1, 2), "r_y": F(1, 2), "r_z": F(1, 2), "r_zsigma": F(1)}
    assert "r_zsigma" in r.server_security_terms
    with pytest.raises(InvalidArgument):
        reference_region("cyclic_nocollusion", K=4, n=4)
    with pytest.raises(InvalidArgument):
        reference_region("hypercube")


def test_reference_region_reads_integers_by_the_package_rule():
    # a fraction is refused, not truncated to the U = 2 region; 3.0 and "2" are integers
    for kind, params in [("tree", {"U": 2.5, "V": 1, "T": 0}),
                         ("tree", {"U": 3, "V": True, "T": 0}),
                         ("cyclic_nocollusion", {"K": 4, "n": 1.5})]:
        with pytest.raises(InvalidArgument):
            reference_region(kind, **params)
    assert reference_region("tree", U=3.0, V="2", T=1) == reference_region("tree", U=3, V=2, T=1)


def test_rate_tuple_validation():
    with pytest.raises(InvalidArgument):
        RateTuple(F(-1), F(1), F(1), F(1))

import pytest

from hsa_lab.errors import InvalidArgument, InvalidTopology, TooLargeToEnumerate
from hsa_lab.topology import (
    Topology,
    build_cyclic,
    build_explicit,
    build_multiple_cyclic,
    build_tree,
    collusion_threshold,
    min_cut,
)

from oracles import brute_collusion_threshold, brute_min_cut


def test_explicit_triangle():
    top = build_explicit(3, 3, [[1, 2], [2, 3], [1, 3]])
    assert top.m == 2
    assert top.relay_links == ((1, 3), (1, 2), (2, 3))


def test_explicit_two_trees():
    top = build_explicit(2, 2, [[1], [2]])
    assert (top.n, top.m) == (1, 1)


def test_explicit_rejections():
    with pytest.raises(InvalidTopology):
        build_explicit(3, 3, [[1, 2], [2, 3], [3]])  # degree violation
    with pytest.raises(InvalidTopology):
        build_explicit(2, 2, [[1, 2], [1, 2]])  # n == K
    with pytest.raises(InvalidTopology):
        build_explicit(2, 3, [[1, 1], [2, 3]])  # duplicate link
    with pytest.raises(InvalidTopology):
        build_explicit(2, 3, [[1, 4], [2, 3]])  # id out of range
    with pytest.raises(InvalidTopology):
        # homogeneous user degree but uneven relay degrees
        build_explicit(4, 4, [[1, 2], [1, 2], [3, 4], [1, 3]])


@pytest.mark.parametrize("n_relays", [4, 2**31 - 1, 2**62])
def test_relays_beyond_the_link_count_are_rejected_before_allocation(n_relays):
    # 3 users of degree 1 leave a relay idle; a per-relay list of 2**62 relays would never end
    with pytest.raises(InvalidTopology, match=f"{n_relays} relays, 3 links"):
        build_explicit(3, n_relays, [[1], [2], [3]])


def test_cyclic_wrap():
    top = build_cyclic(3, 2)
    assert top.user_links == ((1, 2), (2, 3), (1, 3))
    assert build_cyclic(2, 1).user_links == ((1,), (2,))
    top6 = build_cyclic(6, 2)
    assert top6.user_links[4] == (5, 6)
    assert top6.user_links[5] == (1, 6)
    with pytest.raises(InvalidTopology):
        build_cyclic(3, 3)


def test_multiple_cyclic():
    assert build_multiple_cyclic(3, 2, 1) == build_cyclic(3, 2)
    top = build_multiple_cyclic(4, 2, 2)
    assert (top.N, top.m) == (8, 4)
    assert set(top.relay_links[0]) == {1, 4, 5, 8}
    assert all(len(u) == 4 for u in top.relay_links)


def test_tree():
    top = build_tree(2, 2)
    assert (top.N, top.K, top.n, top.m) == (4, 2, 1, 2)
    assert top.user_links == ((1,), (1,), (2,), (2,))


@pytest.mark.parametrize("top", [
    build_cyclic(3, 2), build_cyclic(5, 3), build_cyclic(6, 2),
    build_multiple_cyclic(4, 2, 2), build_multiple_cyclic(3, 2, 3),
    build_tree(3, 2),
])
def test_bipartite_consistency(top):
    for i in range(1, top.N + 1):
        assert len(top.user_links[i - 1]) == top.n
        for j in top.user_links[i - 1]:
            assert i in top.relay_links[j - 1]
    for j in range(1, top.K + 1):
        assert len(top.relay_links[j - 1]) == top.m
        for i in top.relay_links[j - 1]:
            assert j in top.user_links[i - 1]
    assert top.N * top.n == top.K * top.m


def test_collusion_threshold_examples():
    assert collusion_threshold(build_cyclic(3, 2), 1) == 2
    assert collusion_threshold(build_cyclic(6, 2), 1) == 5
    # largest admissible t_h reduces to a single relay: the union is m
    for top in (build_cyclic(4, 2), build_cyclic(6, 3), build_multiple_cyclic(3, 2, 2)):
        assert collusion_threshold(top, top.K - top.n) == top.m


def test_collusion_threshold_range():
    top = build_cyclic(4, 2)
    with pytest.raises(InvalidArgument):
        collusion_threshold(top, 0)
    with pytest.raises(InvalidArgument):
        collusion_threshold(top, 3)  # K - n = 2


@pytest.mark.parametrize("top", [
    build_cyclic(4, 2), build_cyclic(5, 2), build_cyclic(6, 2),
    build_cyclic(6, 3), build_multiple_cyclic(3, 2, 2), build_tree(3, 2),
])
def test_collusion_threshold_matches_oracle_and_is_monotone(top):
    values = []
    for t_h in range(1, top.K - top.n + 1):
        v = collusion_threshold(top, t_h)
        assert v == brute_collusion_threshold(top, t_h)
        assert top.m <= v <= top.N
        values.append(v)
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_collusion_threshold_search_is_capped():
    # cyclic(4, 2) with its users listed in reverse takes the exhaustive path:
    # C(4, 2) = 6 relay subsets at t_h = 1, C(4, 3) = 4 for a tree at t_h = 1
    top = build_explicit(4, 4, [[1, 4], [3, 4], [2, 3], [1, 2]])
    assert collusion_threshold(top, 1, cap=6) == brute_collusion_threshold(top, 1)
    for top, cap in ((top, 5), (build_tree(4, 2), 3)):
        with pytest.raises(TooLargeToEnumerate):
            collusion_threshold(top, 1, cap=cap)


@pytest.mark.parametrize("top, t_h", [(build_cyclic(30, 2), 14),
                                      (build_multiple_cyclic(7, 3, 2), 2)])
def test_cyclic_collusion_threshold_ignores_the_cap(top, t_h):
    # the closed form visits no subset: C(30, 15) would take minutes
    assert collusion_threshold(top, t_h, cap=1) == top.N // top.K * (top.K - t_h)


@pytest.mark.parametrize("k", range(3, 13))
def test_collusion_threshold_closed_form_matches_exhaustive(k):
    # the users listed in reverse make a network equal to no cyclic build,
    # so it takes the exhaustive path
    for n in range(1, k):
        for copies in (1, 2, 3):
            top = build_multiple_cyclic(k, n, copies)
            relabeled = build_explicit(top.N, k, [list(h) for h in reversed(top.user_links)])
            for t_h in range(1, k - n + 1):
                expected = brute_collusion_threshold(top, t_h)
                assert collusion_threshold(top, t_h) == copies * (k - t_h) == expected
                assert collusion_threshold(relabeled, t_h) == expected


@pytest.mark.parametrize("top", [
    build_cyclic(3, 2), build_cyclic(4, 3), build_cyclic(6, 2),
    build_multiple_cyclic(4, 2, 2), build_tree(2, 2),
])
def test_min_cut(top):
    assert min_cut(top) == top.n
    assert brute_min_cut(top) == top.n


def test_serialization_roundtrip():
    top = build_multiple_cyclic(4, 2, 2)
    assert Topology.from_dict(top.to_dict()) == top

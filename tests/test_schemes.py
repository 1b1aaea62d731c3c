import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsa_lab import gf
from hsa_lab.bounds import RateTuple
from hsa_lab.errors import (
    ConstructionFailed,
    FieldTooSmall,
    InfeasibleParameters,
    InvalidArgument,
    NoSuchRoot,
    ShapeError,
    SingularMatrix,
)
from hsa_lab.gf import FieldMatrix, PrimeField, root_of_unity
from hsa_lab.schemes import (
    Scheme,
    build_scheme_a,
    build_scheme_b,
    build_scheme_c,
    check_weighted_conditions,
    derive_user_keys,
    link_key_constraint_ok,
    rates,
    sample_keys,
)
from hsa_lab.topology import build_cyclic, build_explicit, build_multiple_cyclic, build_tree

F = Fraction
F5 = PrimeField(5)
F7 = PrimeField(7)
F13 = PrimeField(13)

EXAMPLE_D = [[1, 0, 1], [0, 1, 1]]


def example_scheme(q=5):
    field = PrimeField(q)
    top = build_cyclic(3, 2)
    return build_scheme_a(top, field, decode_matrix=FieldMatrix(field, EXAMPLE_D))


# -- per-link-key scheme ---------------------------------------------------------


@pytest.mark.parametrize("q", [5, 7])
def test_example_encoders(q):
    s = example_scheme(q)
    field = s.field
    assert s.encoders[0] == gf.identity(field, 2)
    assert s.encoders[1] == FieldMatrix(field, [[-1, 1], [1, 0]])
    assert s.encoders[2] == FieldMatrix(field, [[1, -1], [0, 1]])


@pytest.mark.parametrize("q", [5, 7])
def test_example_derived_keys(q):
    s = example_scheme(q)
    field = s.field
    # user 3's two link keys as functions of the four seeds
    user3 = s.key_map.take_cols([4, 5])
    assert user3 == FieldMatrix(field, [[-1, 0], [1, -1], [1, -1], [0, -1]])
    assert link_key_constraint_ok(s)


def test_mask_cancellation_on_samples():
    s = example_scheme(7)
    keys = sample_keys(s, width=4, seed=9)
    total = sum((s.column_block(i) @ keys.per_user[i - 1]).a for i in range(1, 4))
    assert FieldMatrix(s.field, total).is_zero()


def test_build_a_sampled_matrix():
    # one Vandermonde draw on distinct points is MDS, so the builder does not check it
    for top, q in [(build_cyclic(4, 2), 5),
                   (build_cyclic(5, 3), 5),            # q = K: the draw permutes the whole field
                   (build_cyclic(7, 4), 7),            # q = K again, with more rows
                   (build_multiple_cyclic(4, 2, 2), 11),
                   (build_tree(3, 2), 13)]:
        field = PrimeField(q)
        for seed in range(10):
            s = build_scheme_a(top, field, seed=seed)
            assert gf.mds_check(s.decode_matrix), (top, q, seed)
            for i in range(1, top.N + 1):
                assert s.encoders[i - 1] @ s.column_block(i) == gf.identity(field, top.n)
            assert link_key_constraint_ok(s)
            assert rates(s) == RateTuple(F(1, top.n), F(1, top.n), F(1), F(top.N - 1))


def test_build_a_deterministic():
    top = build_cyclic(4, 2)
    assert build_scheme_a(top, F5, seed=3).to_dict() == build_scheme_a(top, F5, seed=3).to_dict()


def test_build_a_field_too_small():
    with pytest.raises(FieldTooSmall):
        build_scheme_a(build_cyclic(5, 2), PrimeField(3), seed=0)


def test_build_a_rejects_bad_matrix():
    top = build_cyclic(3, 2)
    with pytest.raises(InvalidArgument):
        build_scheme_a(top, F5, decode_matrix=FieldMatrix(F5, [[1, 0, 1], [2, 0, 2]]))


@pytest.mark.parametrize("top,q", [
    (build_cyclic(3, 2), 5),
    (build_cyclic(4, 2), 5),
    (build_cyclic(4, 3), 5),
    (build_multiple_cyclic(4, 2, 2), 5),
    (build_explicit(6, 3, [[1, 2], [2, 3], [1, 3], [1, 2], [2, 3], [1, 3]]), 5),
])
def test_rates_a_family(top, q):
    s = build_scheme_a(top, PrimeField(q), seed=1)
    assert rates(s) == RateTuple(F(1, top.n), F(1, top.n), F(1), F(top.N - 1))
    assert s.seed_count == (top.N - 1) * top.n


def _relabeled(top, seed):
    """The same network with relays renamed by a random permutation."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(top.K) + 1
    links = [[int(perm[j - 1]) for j in h] for h in top.user_links]
    return build_explicit(top.N, top.K, links)


def test_rates_a_on_relabeled_topologies():
    for base in (build_cyclic(4, 2), build_cyclic(5, 3), build_multiple_cyclic(3, 2, 2)):
        for seed in range(3):
            top = _relabeled(base, seed)
            s = build_scheme_a(top, PrimeField(7), seed=seed)
            assert rates(s) == RateTuple(F(1, top.n), F(1, top.n), F(1), F(top.N - 1))
            for i in range(1, top.N + 1):
                assert s.encoders[i - 1] @ s.column_block(i) == gf.identity(s.field, top.n)


# -- weighted-key scheme ----------------------------------------------------------


def test_build_b_conditions_and_rates():
    top = build_cyclic(6, 2)
    for t_u in (0, 1, 2):
        s = build_scheme_b(top, F13, t_u=t_u, seed=7)
        assert check_weighted_conditions(s).all_hold
        assert rates(s) == RateTuple(F(1, 2), F(1, 2), F(1, 2), F(t_u + 2, 2))


def test_build_b_deterministic():
    top = build_cyclic(6, 2)
    assert (build_scheme_b(top, F13, 2, seed=4).to_dict()
            == build_scheme_b(top, F13, 2, seed=4).to_dict())


def test_build_b_hypothesis_violations():
    top = build_cyclic(6, 2)
    with pytest.raises(InfeasibleParameters):
        build_scheme_b(top, F13, t_u=3, seed=0)  # t_u + m = 5 > K - n = 4
    shifted = build_explicit(3, 3, [[1, 3], [1, 2], [2, 3]])  # not the wrap layout
    with pytest.raises(InfeasibleParameters):
        build_scheme_b(shifted, F13, t_u=0, seed=0)


def test_build_b_failure_counts_rejections_by_check():
    # at q = 101 a random completion of the block sum rarely leaves an MDS null block
    for t_u, counts in [(0, {"singular completion": 1, "null block not MDS": 39}),
                        (2, {"null block not MDS": 40})]:
        with pytest.raises(ConstructionFailed) as failure:
            build_scheme_b(build_cyclic(12, 4), PrimeField(101), t_u=t_u, seed=0, max_attempts=40)
        assert failure.value.rejections == {
            "Cauchy degenerate": 0, "block sum not MDS": 0, "singular completion": 0,
            "null block not MDS": 0, "circulant singular": 0, "decoder not MDS": 0} | counts
        assert failure.value.attempts == 40
        listed = ", ".join(f"{name} {n}" for name, n in counts.items())
        assert str(failure.value) == \
            f"no valid weighted scheme after 40 attempts (rejected: {listed})"


def test_build_b_needs_root_of_unity():
    top = build_multiple_cyclic(8, 2, 3)  # 24 users, m = 6 = K - n
    with pytest.raises(NoSuchRoot):
        build_scheme_b(top, PrimeField(53), t_u=0, seed=0)  # 3 does not divide 52


def test_build_b_two_copies():
    top = build_multiple_cyclic(6, 2, 2)  # N = 12, m = 4 = K - n
    s = build_scheme_b(top, PrimeField(29), t_u=0, seed=2)
    assert check_weighted_conditions(s).all_hold
    assert rates(s) == RateTuple(F(1, 2), F(1, 2), F(1, 2), F(2))
    # weight rows repeat per copy and track each user's relay pair
    assert np.array_equal(s.key_weights.a[:6], s.key_weights.a[6:])


def test_block_sum_is_cauchy_shaped():
    # summing the per-copy column blocks of a Cauchy matrix built on
    # parameters c_j * w^p collapses to t * a^(t-1) / (a^t - (-c)^t);
    # cross-checked against the direct entry sums
    for t, q in ((2, 7), (2, 13), (3, 13)):
        field = PrimeField(q)
        w = root_of_unity(field, t)
        alpha, c = 1, 3
        direct = sum(field.inv((alpha + c * pow(w, p, q)) % q) for p in range(t)) % q
        denom = (pow(alpha, t, q) - pow(-c, t, q)) % q
        closed = t * pow(alpha, t - 1, q) * field.inv(denom) % q
        assert direct == closed
    # frozen instance: t=2, alpha=1, c=3 over F_7 gives 5
    f7 = PrimeField(7)
    w = root_of_unity(f7, 2)
    assert (f7.inv(1 + 3) + f7.inv((1 + 3 * w) % 7)) % 7 == 5


def test_generator_blocks_killed_by_nullspace_columns():
    top = build_multiple_cyclic(6, 2, 2)
    s = build_scheme_b(top, PrimeField(29), t_u=0, seed=2)
    k = top.K
    block_sum = FieldMatrix(s.field, (s.key_map.a[:, :k] + s.key_map.a[:, k:]) % s.field.q)
    # the weighted decode columns span the summed generator's right nullspace
    prod = block_sum @ (FieldMatrix(s.field, s.key_weights.a[:k]) @ s.decode_matrix.T)
    assert prod.is_zero()
    # its right nullspace has k - seed_count columns exactly when it has full row rank
    assert block_sum.rank() == s.seed_count


# one copy at n_seeds = K - n, the case where build_scheme_b checks neither the
# block sum nor the null block: t_u = K - 2n >= 0; over F_13 an MDS decoder with
# K >= 8 columns is too rare to build
_FULL_DUAL = [(k, n, q) for q in (13, 29, 101) for n in (2, 3, 4)
              for k in range(2 * n, 8 if q == 13 else 10)]


@pytest.mark.parametrize("k,n,q", _FULL_DUAL)
def test_one_copy_full_dual_b_is_mds_by_construction(k, n, q):
    field = PrimeField(q)
    for seed in range(15):
        s = build_scheme_b(build_cyclic(k, n), field, t_u=k - 2 * n, seed=seed)
        assert s.seed_count == k - n
        # with one copy the block sum is the Cauchy generator itself
        assert gf.mds_check(s.key_map)
        # the null block spans the dual of the MDS code the generator spans
        assert gf.mds_check(s.decode_matrix @ FieldMatrix(field, s.key_weights.a[:k]).T)


@pytest.mark.parametrize("q", [7, 11, 13, 29])
def test_dual_of_a_cauchy_code_is_mds(q):
    # builder-free: for any completion of a (K-n) x K Cauchy matrix to an
    # invertible K x K matrix, the last n columns of its inverse span the
    # right kernel of the Cauchy rows, the dual of an MDS code
    field = PrimeField(q)
    rng = np.random.default_rng(q)
    checked = 0
    for _ in range(60):
        k = int(rng.integers(3, min(q // 2, 9) + 1))
        n = int(rng.integers(1, k))
        params = [int(v) for v in rng.permutation(q)[:k - n + k]]
        alphas, betas = params[:k - n], [-b % q for b in params[k - n:]]
        generator = gf.cauchy(alphas, betas, field)    # alpha_i + beta_j = a - b != 0
        extra = FieldMatrix(field, rng.integers(0, q, (n, k)))
        try:
            inverse = gf.vstack([generator, extra]).inverse()
        except SingularMatrix:
            continue
        null_block = inverse.take_cols(range(k - n, k))
        assert (generator @ null_block).is_zero()
        assert gf.mds_check(null_block.T)
        checked += 1
    assert checked >= 30


# -- closed-form two-regular scheme -----------------------------------------------


def test_build_c_frozen_small_instance():
    s = build_scheme_c(5, F7)
    assert s.decode_matrix.tolist() == [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]]
    # superdiagonal weights and the wrap entry
    lam = [int(s.key_weights.a[i, i + 1]) for i in range(4)]
    assert lam == [4, 1, 2, 5]
    assert int(s.key_weights.a[4, 0]) == 4
    # last generator column
    assert s.key_map.take_cols([4]).T.tolist() == [[6, 1, 5, 3]]
    assert (s.key_map @ s.key_weights @ s.decode_matrix.T).is_zero()


@pytest.mark.parametrize("n_users,q", [(5, 7), (6, 11), (7, 11), (8, 13)])
def test_build_c_conditions(n_users, q):
    s = build_scheme_c(n_users, PrimeField(q))
    conds = check_weighted_conditions(s)
    assert conds.all_hold
    assert s.t_u == n_users - 3
    assert rates(s) == RateTuple(F(1, 2), F(1, 2), F(1, 2), F(n_users - 1, 2))
    # every row of weights @ decoder^T lies on the same direction (1, N+1),
    # which is exactly what the last generator column cancels
    prod = (s.key_weights @ s.decode_matrix.T).a
    for i in range(n_users):
        assert prod[i, 1] == (n_users + 1) * prod[i, 0] % q
        assert prod[i, 0] != 0


def test_build_c_rejections():
    with pytest.raises(FieldTooSmall):
        build_scheme_c(6, F7)
    with pytest.raises(InvalidArgument):
        build_scheme_c(2, F13)
    with pytest.raises(InvalidArgument):
        PrimeField(6)


# -- key material -----------------------------------------------------------------


def test_sample_keys_shapes_and_determinism():
    s = example_scheme(5)
    k1 = sample_keys(s, width=1, seed=3)
    assert k1.seeds.rows == 4 and k1.seeds.cols == 1
    assert all(z.rows == 2 and z.cols == 1 for z in k1.per_user)
    k3 = sample_keys(s, width=3, seed=3)
    assert k3.seeds.cols == 3 and all(z.cols == 3 for z in k3.per_user)
    assert sample_keys(s, width=2, seed=8).seeds == sample_keys(s, width=2, seed=8).seeds
    with pytest.raises(InvalidArgument):
        sample_keys(s, width=0)


def test_derived_keys_follow_key_map():
    top = build_cyclic(6, 2)
    s = build_scheme_b(top, F13, t_u=1, seed=1)
    seeds = FieldMatrix(F13, [[1], [2], [3]])
    keys = derive_user_keys(s, seeds)
    for i in range(1, 7):
        expected = s.key_map.take_cols([i - 1]).T @ seeds
        assert keys.per_user[i - 1] == expected
    with pytest.raises(ShapeError, match="another field"):
        derive_user_keys(s, FieldMatrix(F7, [[1], [2], [3]]))


@pytest.mark.parametrize("width", [1, 3])
def test_derive_user_keys_equals_the_per_user_products(width):
    # variant A has n key rows per user, so its slices are blocks of several rows
    rng = np.random.default_rng(width)
    for s in (example_scheme(7), build_scheme_a(build_multiple_cyclic(4, 3, 2), F13, seed=2),
              build_scheme_b(build_cyclic(6, 2), F13, 2, seed=0), build_scheme_c(5, F7)):
        seeds = FieldMatrix(s.field, rng.integers(0, s.field.q, (s.seed_count, width)))
        keys = derive_user_keys(s, seeds)
        assert keys.seeds == seeds
        assert keys.per_user == tuple(s.user_key_map(i).T @ seeds
                                      for i in range(1, s.topology.N + 1))


# key_map columns by kind: only "unit" is a copy of one seed row; "two" has one
# nonzero other than 1, "pair" two nonzeros, one of them a 1, "dense" none zero
UNIT_KINDS = {"all": ("unit",), "part": ("unit", "two", "pair", "dense", "zero"),
              "none": ("two", "pair", "dense", "zero")}


@pytest.mark.parametrize("mix", list(UNIT_KINDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data(), q=st.sampled_from([5, 13, 2**31 - 1]), weighted=st.booleans(),
       seed_count=st.integers(2, 5), width=st.integers(1, 4),
       dt=st.sampled_from([np.int8, np.int16, np.int64]))
def test_gathered_keys_equal_the_per_user_products(data, mix, q, weighted, seed_count, width,
                                                   dt):
    field = PrimeField(q)
    base = (build_scheme_c(3, field) if weighted else
            build_scheme_a(build_cyclic(3, 2), field, decode_matrix=FieldMatrix(field, EXAMPLE_D)))
    cols = base.key_map.cols
    kinds = data.draw(st.lists(st.sampled_from(UNIT_KINDS[mix]), min_size=cols, max_size=cols))
    if mix == "part":  # at least one unit column and one other
        kinds[:2] = ["unit", data.draw(st.sampled_from(UNIT_KINDS["none"]))]
    km = np.zeros((seed_count, cols), dtype=np.int64)
    for c, kind in enumerate(kinds):
        rows = data.draw(st.permutations(range(seed_count)))[:2]
        if kind == "unit":
            km[rows[0], c] = 1
        elif kind == "two":
            km[rows[0], c] = data.draw(st.sampled_from([2, q - 1]))
        elif kind == "pair":
            km[rows, c] = 1, data.draw(st.integers(1, q - 1))
        elif kind == "dense":
            km[:, c] = data.draw(st.lists(st.integers(1, q - 1), min_size=seed_count,
                                          max_size=seed_count))
    s = dataclasses.replace(base, key_map=FieldMatrix(field, km))
    # a user reads its keys in place iff its block copies consecutive seed rows, in order
    k = s.keys_per_user
    copied = [int(km[:, c].argmax()) if kind == "unit" else None for c, kind in enumerate(kinds)]
    assert s.key_gather[0] == tuple(
        b[0] if None not in b and b == list(range(b[0], b[0] + k)) else -1
        for b in (copied[c:c + k] for c in range(0, cols, k)))
    top = min(q - 1, int(np.iinfo(dt).max))
    seeds = FieldMatrix._wrap(field, np.array(
        data.draw(st.lists(st.lists(st.integers(0, top), min_size=width, max_size=width),
                           min_size=seed_count, max_size=seed_count)), dtype=dt))
    keys = derive_user_keys(s, seeds)
    assert keys.seeds is seeds
    assert keys.per_user == tuple(s.user_key_map(i).T @ seeds for i in range(1, s.topology.N + 1))


def test_keys_of_users_1_to_n_minus_1_are_read_in_place():
    # A's and C's users 1..N-1 copy consecutive seed rows in order, so their keys are
    # views of the seeds; user N's, and every key of B, are rows of the one product
    for s, shared in ((build_scheme_a(build_cyclic(12, 3), PrimeField(65537), seed=0), 11),
                      (build_scheme_c(5, F7), 4), (build_scheme_b(build_cyclic(6, 2), F13, 2), 0)):
        keys = sample_keys(s, width=3, seed=1)
        assert [np.shares_memory(z.a, keys.seeds.a) for z in keys.per_user] == \
            [True] * shared + [False] * (s.topology.N - shared)
    # at q=5 with 2 seeds, only user 1's unit block runs 0, 1 in order: user 2's runs
    # backwards, and a two-row slice from user 3's first row, the last seed row, would run
    # past the seeds, so both take the product
    base = build_scheme_a(build_cyclic(3, 2), F5, decode_matrix=FieldMatrix(F5, EXAMPLE_D))
    s = dataclasses.replace(base, key_map=FieldMatrix(F5, [[1, 0, 0, 1, 0, 0], [0, 1, 1, 0, 1, 1]]))
    assert s.key_gather[0] == (0, -1, -1)
    seeds = FieldMatrix(F5, [[1, 2], [3, 4]])
    keys = derive_user_keys(s, seeds)
    assert [np.shares_memory(z.a, seeds.a) for z in keys.per_user] == [True, False, False]
    assert keys.per_user == tuple(s.user_key_map(i).T @ seeds for i in (1, 2, 3))


def test_deriving_the_keys_of_a_peaks_below_one_mib():
    # 33 of A's 36 key rows on cyclic(12,3) are views of the seeds; only user N's 3 rows
    # are computed, where a copy of every key row would peak at about 5.5 MiB
    s = build_scheme_a(build_cyclic(12, 3), PrimeField(65537), seed=0)
    seeds = FieldMatrix(s.field, s.field.rand(np.random.default_rng(0), (s.seed_count, 10_000)))
    derive_user_keys(s, seeds)  # the scheme's plan is built and cached
    tracemalloc.start()
    try:
        derive_user_keys(s, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_scheme_serialization_roundtrip():
    for s in (example_scheme(5),
              build_scheme_b(build_cyclic(6, 2), F13, 2, seed=0),
              build_scheme_c(5, F7)):
        clone = Scheme.from_dict(s.to_dict())
        assert clone.to_dict() == s.to_dict()
        assert clone.decode_matrix == s.decode_matrix
        assert clone.encoders == s.encoders


# -- one mask-cancellation certificate ---------------------------------------------


def test_one_certificate_for_every_variant():
    for s in (example_scheme(),
              build_scheme_a(build_cyclic(4, 2), F5, seed=1),
              build_scheme_b(build_cyclic(6, 2), F13, 2, seed=0),
              build_scheme_b(build_multiple_cyclic(7, 2, 2), PrimeField(29), 1, seed=3),
              build_scheme_c(5, F7)):
        km = s.key_map.a.copy()
        km[0, 0] = (km[0, 0] + 1) % s.field.q
        mutant = dataclasses.replace(s, key_map=FieldMatrix(s.field, km))
        for candidate, cancels in ((s, True), (mutant, False)):
            assert link_key_constraint_ok(candidate) == cancels
            if candidate.variant == "BL":
                assert check_weighted_conditions(candidate).masks_cancel == cancels
        assert rates(s).r_z == Fraction(s.key_spreads[0].rows, s.topology.n)

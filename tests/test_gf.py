import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hsa_lab import gf
from hsa_lab.errors import (
    CauchyDegenerate,
    DivisionByZero,
    InvalidArgument,
    NoSuchRoot,
    ShapeError,
    SingularMatrix,
)
from hsa_lab.gf import FieldMatrix, PrimeField

from oracles import brute_inverse, brute_rank

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)

SMALL_PRIMES = [2, 3, 5, 7, 11, 13]


# -- field element ops ---------------------------------------------------------


def test_prime_validation():
    with pytest.raises(InvalidArgument):
        PrimeField(6)
    with pytest.raises(InvalidArgument):
        PrimeField(1)
    with pytest.raises(InvalidArgument):
        PrimeField(2**31 + 11)
    PrimeField(2**31 - 1)  # Mersenne prime at the size limit


def test_inverse_examples():
    assert F7.inv(4) == 2
    assert F5.neg(0) == 0
    # frozen from the scan oracle
    assert brute_inverse(3, 7) == 5
    assert F7.inv(3) == 5


def test_inverse_of_zero():
    with pytest.raises(DivisionByZero):
        F7.inv(0)


@given(st.sampled_from(SMALL_PRIMES), st.integers(min_value=1, max_value=10**6))
def test_inverse_property(q, a):
    field = PrimeField(q)
    a %= q
    if a == 0:
        a = 1
    assert a * field.inv(a) % q == 1
    assert field.inv(np.int64(a)) == brute_inverse(a, q)


# -- matrix arithmetic -----------------------------------------------------------


def test_matmul_identity():
    m = FieldMatrix(F7, [[1, 2, 3], [4, 5, 6]])
    assert gf.identity(F7, 2) @ m == m
    assert m @ gf.identity(F7, 3) == m


def test_matmul_shape_error():
    a = FieldMatrix(F7, [[1, 2]])
    with pytest.raises(ShapeError):
        a @ a


def test_row_times_identity_encoder():
    # a unit encoder passes the input through unchanged
    w = FieldMatrix(F5, [[3, 1, 4]])
    assert w @ gf.identity(F5, 3).T == w


def test_matmul_large_modulus_exact():
    q = 2**31 - 1
    field = PrimeField(q)
    a = FieldMatrix(field, [[q - 1] * 8])
    b = FieldMatrix(field, [[q - 1]] * 8)
    # (q-1)^2 * 8 overflows int64; the object-dtype path must stay exact
    expected = (8 * (q - 1) * (q - 1)) % q
    assert (a @ b).tolist() == [[expected]]


@pytest.mark.parametrize("q", [2, 13, 65537, 2**31 - 1])
@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.integers(0, 4), st.lists(st.integers(0, 4), min_size=1, max_size=3),
       st.data())
def test_fused_matmul_is_the_exact_sum_of_products(q, rows, cols, inners, data):
    # at 2**31 - 1 an inner total of 3 or more leaves int64: each term is then
    # reduced alone, by the object path if its own inner dimension is 3 or more
    field = PrimeField(q)
    terms = [(drawn_matrix(data, field, rows, k).a, drawn_matrix(data, field, k, cols).a)
             for k in inners]
    expected = sum(a.astype(object) @ b.astype(object) for a, b in terms) % q
    got = gf._matmul(q, *terms)
    assert got.dtype == np.int64 and got.tolist() == expected.tolist()


def test_fused_matmul_is_exact_at_the_int64_edge():
    # at 2**31 - 1 an inner total of 2 still sums in int64, one of 3 does not
    q = 2**31 - 1
    for inners in ([1, 1], [1, 2], [2, 2], [3], [1, 1, 1]):
        terms = [(np.full((1, k), q - 1), np.full((k, 1), q - 1)) for k in inners]
        assert gf._matmul(q, *terms).tolist() == [[sum(inners) * (q - 1) ** 2 % q]]


# -- narrow dtypes: the round simulator's kernels at their dtype edges -----------------

NARROW = (np.int8, np.int16, np.int32)
EDGE_PRIMES = (2, 3, 13, 181, 46337, 65537)
EDGE_SIZE_LIMIT = 1 << 17  # larger edges (q = 2 or 3 at int32) would need gigabytes


def narrow_edges(unit):
    """(q, dtype, size, fits): per narrow dtype holding the residues of q, the largest
    size with size * unit(q) <= its maximum, and one more, which must widen."""
    for q in EDGE_PRIMES:
        for dt in NARROW:
            top = np.iinfo(dt).max
            if q - 1 > top:
                continue
            at = top // unit(q)
            for size, fits in ((at, True), (at + 1, False)):
                if 1 <= size <= EDGE_SIZE_LIMIT:
                    yield pytest.param(q, dt, size, fits,
                                       id=f"q={q}-{np.dtype(dt).name}-{size}")


def wider(dt):
    # one step past a narrow dtype's edge at most doubles the bound, so the next dtype holds it
    return {np.int8: np.int16, np.int16: np.int32, np.int32: np.int64}[dt]


def edge_residues(rng, q, shape, saturate, dt):
    # saturated operands (every entry q - 1) reach the bound exactly
    a = np.full(shape, q - 1) if saturate else rng.integers(0, q, shape)
    return a.astype(dt)


@pytest.mark.parametrize("q, dt, inner, fits", list(narrow_edges(lambda q: (q - 1) ** 2)))
@settings(max_examples=6, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.booleans(), st.booleans(), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_narrow_matmul_is_exact_at_its_dtype_edge(q, dt, inner, fits, rows, cols, split,
                                                  saturate, wide_left, seed):
    # one or two terms of narrow right operands; the left ones may be int64 coefficients
    rng = np.random.default_rng(seed)
    inners = [inner // 2, inner - inner // 2] if split and inner > 1 else [inner]
    left_dt = np.int64 if wide_left else dt
    terms = [(edge_residues(rng, q, (rows, k), saturate, left_dt),
              edge_residues(rng, q, (k, cols), saturate, dt)) for k in inners]
    expected = sum(a.astype(object) @ b.astype(object) for a, b in terms) % q
    got = gf._matmul(q, *terms)
    assert got.dtype == (dt if fits else wider(dt))
    assert got.tolist() == expected.tolist()


@pytest.mark.parametrize("bound, floor, dt", [
    (127, np.int8, np.int8), (128, np.int8, np.int16), (1, np.int32, np.int32),
    (2**15, np.int8, np.int32), (2**31, np.int16, np.int64), (2**63 - 1, np.int8, np.int64),
    (2**63, np.int8, np.int64), (2**70, np.int64, np.int64)])
def test_narrowest_dtype_holds_the_bound_or_falls_back_to_int64(bound, floor, dt):
    # integer limits only: np.min_scalar_type(-128) is int8, yet int8 cannot hold 128
    assert gf._narrowest(bound, np.dtype(floor)) == dt


def test_equal_matrices_hash_equal_across_dtypes():
    m = FieldMatrix(F5, [[0, 4, 2], [3, 1, 0]])
    for dt in NARROW:
        narrow = FieldMatrix._wrap(F5, m.a.astype(dt))
        assert narrow == m and hash(narrow) == hash(m)
    assert len({m, FieldMatrix._wrap(F5, m.a.astype(np.int8)), m.T.T}) == 1


@pytest.mark.parametrize("q", [5, 7])
def test_inverse_matrix_example(q):
    field = PrimeField(q)
    d2 = FieldMatrix(field, [[0, 1], [1, 1]])
    expected = FieldMatrix(field, [[-1, 1], [1, 0]])
    assert d2.inverse() == expected


def test_inverse_identity():
    for n in (1, 2, 5):
        assert gf.identity(F7, n).inverse() == gf.identity(F7, n)


def test_inverse_frozen_value():
    m = FieldMatrix(F5, [[1, 1], [1, 2]])
    inv = m.inverse()
    assert inv == FieldMatrix(F5, [[2, 4], [4, 1]])
    assert m @ inv == gf.identity(F5, 2)


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        FieldMatrix(F5, [[1, 2], [2, 4]]).inverse()
    with pytest.raises(ShapeError):
        FieldMatrix(F5, [[1, 2]]).inverse()


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.data())
def test_inverse_times_matrix_is_identity(q, n, data):
    field = PrimeField(q)
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=n * n, max_size=n * n))
    m = FieldMatrix(field, np.array(entries).reshape(n, n))
    try:
        inv = m.inverse()
    except SingularMatrix:
        assert m.rank() < n
        return
    assert m @ inv == gf.identity(field, n)
    assert inv @ m == gf.identity(field, n)


# -- rank -------------------------------------------------------------------------


def test_rank_examples():
    assert gf.zeros(F5, 3, 3).rank() == 0
    assert FieldMatrix(F5, [[1, 0, 1], [0, 1, 1]]).rank() == 2


def test_rank_of_printed_stack():
    # key-placement rows stacked on decoding blocks: full rank means the
    # row spaces intersect trivially
    placement = FieldMatrix(F5, [[1, 0, 0, 0], [0, 0, 1, 0]])
    blocks = FieldMatrix(F5, [[1, 1, 1, 0], [0, 1, 0, 1]])
    stack = gf.vstack([placement, blocks])
    assert stack.rank() == 4
    assert stack.rank() == placement.rank() + blocks.rank()


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 4), st.integers(1, 4), st.data())
def test_rank_properties(q, r, c, data):
    field = PrimeField(q)
    entries = data.draw(st.lists(st.integers(0, q - 1), min_size=r * c, max_size=r * c))
    m = FieldMatrix(field, np.array(entries).reshape(r, c))
    assert m.rank() == m.T.rank()
    stack = gf.vstack([m, m])
    assert stack.rank() == m.rank()
    assert m.rank() == brute_rank(m.a, q)


# -- edge constructor and internal results -----------------------------------------

# 2**31 - 1 sends products with 3 or more terms down the object path of _matmul
INVARIANT_PRIMES = [2, 3, 5, 7, 2**31 - 1]


def drawn_matrix(data, field, rows, cols):
    # entries near q - 1 make every unreduced sum or product show
    entry = st.integers(0, field.q - 1) | st.integers(max(field.q - 3, 0), field.q - 1)
    entries = data.draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols))
    return FieldMatrix(field, np.array(entries, dtype=np.int64).reshape(rows, cols))


@pytest.mark.parametrize("q", INVARIANT_PRIMES)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.data())
def test_internal_results_meet_the_edge_contract(q, r, c, k, data):
    # results wrapped without a copy must be what the public constructor would build
    field = PrimeField(q)
    a, b = drawn_matrix(data, field, r, c), drawn_matrix(data, field, r, c)
    cols = data.draw(st.lists(st.integers(0, c - 1), max_size=4)) if c else []
    results = [a.T, a.take_cols(cols), gf.hstack([a, b]),
               gf.vstack([a, b]), -a, a @ drawn_matrix(data, field, c, k)]
    try:
        results.append(drawn_matrix(data, field, c, c).inverse())
    except SingularMatrix:
        pass
    for m in results:
        assert m.a.ndim == 2 and m.a.dtype == np.int64
        assert ((m.a >= 0) & (m.a < q)).all()
        assert not m.a.flags.writeable
        assert m == FieldMatrix(field, m.a)


@pytest.mark.parametrize("q", INVARIANT_PRIMES)
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers(0, 5), st.sampled_from(["random", "deficient", "zero"]),
       st.data())
def test_pivots_count_the_rank_of_every_leading_block(q, r, c, kind, data):
    # rank_leak reads rank(m) - rank(m[:, :k]) off a single pivot list
    field = PrimeField(q)
    if kind == "random":
        m = drawn_matrix(data, field, r, c)
    elif kind == "deficient":
        inner = data.draw(st.integers(0, max(min(r, c) - 1, 0)))
        m = drawn_matrix(data, field, r, inner) @ drawn_matrix(data, field, inner, c)
    else:
        m = gf.zeros(field, r, c)
    pivots = gf.pivots(m)
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    assert len(pivots) == brute_rank(m.a, q)
    for k in range(c + 1):
        assert sum(p < k for p in pivots) == brute_rank(m.a[:, :k], q), k


@pytest.mark.parametrize("q", INVARIANT_PRIMES)
@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6),
       st.sampled_from(["random", "repeated row", "zero row", "zero"]), st.data())
def test_all_nonsingular_matches_a_rank_per_matrix(q, n, b, kind, data):
    field = PrimeField(q)
    stack = np.stack([drawn_matrix(data, field, n, n).a for _ in range(b)])
    if kind == "zero":
        stack[:] = 0
    elif kind != "random":
        # one member, anywhere in the stack, loses a row
        member, row = data.draw(st.integers(0, b - 1)), data.draw(st.integers(0, n - 1))
        if kind == "zero row":
            stack[member, row] = 0
        elif n > 1:
            stack[member, row] = stack[member, (row + data.draw(st.integers(1, n - 1))) % n]
    expected = all(brute_rank(m, q) == n for m in stack)
    before = stack.copy()
    assert gf._all_nonsingular(stack, q) == expected
    assert np.array_equal(stack, before)


@given(st.sampled_from(INVARIANT_PRIMES),
       st.lists(st.integers(-2**40, 2**40), min_size=6, max_size=6))
@example(5, [-1, 5, 12, -10, 4, 0])
def test_edge_constructor_reduces_and_copies(q, entries):
    source = np.array(entries, dtype=np.int64).reshape(2, 3)
    m = FieldMatrix(PrimeField(q), source)
    source += 1
    assert m.tolist() == [[e % q for e in entries[:3]], [e % q for e in entries[3:]]]
    assert not m.a.flags.writeable


INT64 = np.iinfo(np.int64)


def int64_entries(q):
    # the whole int64 range, its two ends, and values next to multiples of q
    near = st.tuples(st.integers(INT64.min // q, INT64.max // q), st.integers(-1, 1)).map(
        lambda kd: min(max(kd[0] * q + kd[1], int(INT64.min)), int(INT64.max)))
    return (st.integers(int(INT64.min), int(INT64.max)) | near
            | st.sampled_from([int(INT64.min), int(INT64.min) + 1, -1, 0, 1, int(INT64.max)]))


@st.composite
def reduce_cases(draw):
    q = draw(st.sampled_from([2, 3, 5, 7, 65537, 2**31 - 1]))
    shape = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    size = int(np.prod(shape))
    return q, shape, draw(st.lists(int64_entries(q), min_size=size, max_size=size))


@settings(max_examples=300, deadline=None)
@given(reduce_cases())
@example((3, [2], [int(INT64.min), int(INT64.max)]))
@example((2**31 - 1, [0, 3], []))
def test_reduce_is_python_mod(case):
    q, shape, entries = case
    x = np.array(entries, dtype=np.int64).reshape(shape)
    out = gf._reduce(x, q)
    assert out is x and out.dtype == np.int64 and out.shape == tuple(shape)
    assert out.ravel().tolist() == [e % q for e in entries]


# -- structured matrices -----------------------------------------------------------


def test_mds_check_reads_every_chunk_of_minors():
    # C(100, 2) = 4950 minors span two chunks; the one singular minor comes last
    f101 = PrimeField(101)
    assert gf.mds_check(gf.vandermonde(range(100), 2, f101))
    repeated = gf.hstack([gf.vandermonde(range(99), 2, f101), gf.vandermonde([98], 2, f101)])
    assert not gf.mds_check(repeated)


def test_mds_examples():
    assert gf.mds_check(FieldMatrix(F2, [[1, 0, 1], [0, 1, 1]]))
    with_zero_col = FieldMatrix(F5, [[1, 0, 2], [1, 0, 3]])
    assert not gf.mds_check(with_zero_col)
    f11 = PrimeField(11)
    assert gf.mds_check(gf.cauchy([1, 2], [3, 4, 5, 6], f11))
    with pytest.raises(ShapeError):
        gf.mds_check(FieldMatrix(F5, [[1], [2]]))
    assert gf.mds_check(gf.zeros(F5, 0, 3))
    assert gf.mds_check(FieldMatrix(F5, [[1, 2], [3, 4]]))       # rows = cols: one minor
    assert not gf.mds_check(FieldMatrix(F5, [[1, 2], [2, 4]]))


@settings(max_examples=40)
@given(st.sampled_from([7, 11, 13]), st.integers(1, 3), st.integers(1, 4), st.data())
def test_cauchy_always_mds(q, r, c, data):
    field = PrimeField(q)
    pool = list(range(q))
    alphas = data.draw(st.permutations(pool).map(lambda p: p[:r]))
    betas = data.draw(st.permutations(pool).map(lambda p: p[:c]))
    try:
        m = gf.cauchy(alphas, betas, field)
    except CauchyDegenerate:
        return
    if r <= c:
        assert gf.mds_check(m)
    else:
        assert gf.mds_check(m.T)


def test_cauchy_values():
    m = gf.cauchy([1, 2], [3, 4], F7)
    assert m.tolist() == [[2, 3], [3, 6]]
    assert gf.cauchy([1], [0], F7).tolist() == [[1]]
    with pytest.raises(CauchyDegenerate):
        gf.cauchy([1], [-1], F7)
    with pytest.raises(CauchyDegenerate):
        gf.cauchy([1, 8], [3], F7)  # 8 == 1 mod 7


def test_circulant():
    assert gf.circulant([1, 0, 0], F5) == gf.identity(F5, 3)
    m = gf.circulant([1, 2, 3], F7)
    assert m.row(1).tolist() == [3, 1, 2]
    assert gf.circulant([1, 2], F3).tolist() == [[1, 2], [2, 1]]
    for k in (1, 2, 4, 6):
        e1 = [1] + [0] * (k - 1)
        assert gf.circulant(e1, F7) == gf.identity(F7, k)


def test_vandermonde_mds():
    v = gf.vandermonde([0, 1, 2, 3, 4], 3, F5)
    assert gf.mds_check(v)
    with pytest.raises(InvalidArgument):
        gf.vandermonde([0, 5], 2, F5)


def test_root_of_unity():
    assert gf.root_of_unity(F7, 1) == 1
    assert gf.root_of_unity(F5, 1) == 1
    assert gf.root_of_unity(F7, 2) == 6
    w = gf.root_of_unity(F7, 3)
    assert w in (2, 4)
    assert pow(w, 3, 7) == 1 and w != 1 and pow(w, 2, 7) != 1
    with pytest.raises(NoSuchRoot):
        gf.root_of_unity(F7, 5)
    with pytest.raises(NoSuchRoot):
        gf.root_of_unity(F7, 0)


def test_matrix_immutability():
    m = gf.identity(F5, 2)
    with pytest.raises(AttributeError):
        m.a = None
    with pytest.raises(ValueError):
        m.a[0, 0] = 3

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
    rows = data.draw(st.lists(st.integers(0, r - 1), max_size=4)) if r else []
    cols = data.draw(st.lists(st.integers(0, c - 1), max_size=4)) if c else []
    results = [a.T, a.take_rows(rows), a.take_cols(cols), gf.hstack([a, b]),
               gf.vstack([a, b]), a + b, a - b, -a, a @ drawn_matrix(data, field, c, k)]
    try:
        results.append(drawn_matrix(data, field, c, c).inverse())
    except SingularMatrix:
        pass
    for m in results:
        assert m.a.ndim == 2 and m.a.dtype == np.int64
        assert ((m.a >= 0) & (m.a < q)).all()
        assert not m.a.flags.writeable
        assert m == FieldMatrix(field, m.a)


@given(st.sampled_from(INVARIANT_PRIMES),
       st.lists(st.integers(-2**40, 2**40), min_size=6, max_size=6))
@example(5, [-1, 5, 12, -10, 4, 0])
def test_edge_constructor_reduces_and_copies(q, entries):
    source = np.array(entries, dtype=np.int64).reshape(2, 3)
    m = FieldMatrix(PrimeField(q), source)
    source += 1
    assert m.tolist() == [[e % q for e in entries[:3]], [e % q for e in entries[3:]]]
    assert not m.a.flags.writeable


# -- structured matrices -----------------------------------------------------------


def test_mds_examples():
    assert gf.mds_check(FieldMatrix(F2, [[1, 0, 1], [0, 1, 1]]))
    with_zero_col = FieldMatrix(F5, [[1, 0, 2], [1, 0, 3]])
    assert not gf.mds_check(with_zero_col)
    f11 = PrimeField(11)
    assert gf.mds_check(gf.cauchy([1, 2], [3, 4, 5, 6], f11))
    with pytest.raises(ShapeError):
        gf.mds_check(FieldMatrix(F5, [[1], [2]]))


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

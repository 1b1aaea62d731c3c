from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hsa_lab import gf
from hsa_lab.errors import ProtocolViolation, ShapeError
from hsa_lab.gf import FieldMatrix, PrimeField
from hsa_lab.protocol import (
    direct_sum,
    relay_aggregate,
    run_round,
    server_decode,
    user_encode,
)
from hsa_lab.schemes import (
    build_scheme_a,
    build_scheme_b,
    build_scheme_c,
    derive_user_keys,
    sample_keys,
)
from hsa_lab.topology import build_cyclic

from test_gf import edge_residues, narrow_edges, wider

F7 = PrimeField(7)
F13 = PrimeField(13)


def example_scheme(q=7):
    field = PrimeField(q)
    top = build_cyclic(3, 2)
    return build_scheme_a(top, field, decode_matrix=FieldMatrix(field, [[1, 0, 1], [0, 1, 1]]))


def explicit_keys(scheme, seed_values):
    seeds = FieldMatrix(scheme.field, np.array(seed_values, dtype=np.int64).reshape(-1, 1))
    return derive_user_keys(scheme, seeds)


def test_user_encode_example_messages():
    # with explicit seed values the first-hop messages are checkable by hand
    s = example_scheme()
    q = 7
    r = [2, 3, 4, 5]  # R_1..R_4
    keys = explicit_keys(s, r)
    w1 = FieldMatrix(s.field, [[1], [5]])
    x1 = user_encode(s, 1, w1, keys)
    assert x1[1].tolist() == [(1 + r[0]) % q]            # W1(1) + R1
    assert x1[2].tolist() == [(5 + r[1]) % q]            # W1(2) + R2
    w2 = FieldMatrix(s.field, [[2], [6]])
    x2 = user_encode(s, 2, w2, keys)
    assert x2[2].tolist() == [(-2 + 6 + r[2]) % q]       # -W2(1) + W2(2) + R3
    assert x2[3].tolist() == [(2 + r[3]) % q]            # W2(1) + R4
    w3 = FieldMatrix(s.field, [[3], [4]])
    x3 = user_encode(s, 3, w3, keys)
    z31 = (-r[0] + r[1] + r[2]) % q
    z33 = (-r[1] - r[2] - r[3]) % q
    assert x3[1].tolist() == [(3 - 4 + z31) % q]         # W3(1) - W3(2) + Z3,1
    assert x3[3].tolist() == [(4 + z33) % q]             # W3(2) + Z3,3


def test_user_encode_zero_everything():
    s = example_scheme()
    keys = explicit_keys(s, [0, 0, 0, 0])
    out = user_encode(s, 1, gf.zeros(s.field, 2, 1), keys)
    assert all(v.tolist() == [0] for v in out.values())


def test_user_encode_shape_error():
    s = example_scheme()
    keys = sample_keys(s, width=1, seed=0)
    with pytest.raises(ShapeError):
        user_encode(s, 1, gf.zeros(s.field, 3, 1), keys)
    with pytest.raises(ShapeError):
        user_encode(s, 1, gf.zeros(s.field, 2, 2), keys)


def test_relay_aggregate():
    s = example_scheme()
    one = np.array([3], dtype=np.int64)
    two = np.array([6], dtype=np.int64)
    assert relay_aggregate(s, 1, {1: one, 3: two}).tolist() == [2]  # 9 mod 7
    with pytest.raises(ProtocolViolation):
        relay_aggregate(s, 1, {1: one})  # missing user 3
    with pytest.raises(ProtocolViolation):
        relay_aggregate(s, 1, {1: one, 2: two, 3: one})  # extraneous sender


def test_relay_single_user_passthrough():
    top = build_cyclic(2, 1)
    s = build_scheme_a(top, F7, seed=0)
    msg = np.array([4, 2], dtype=np.int64)
    assert relay_aggregate(s, 1, {1: msg}).tolist() == [4, 2]


def test_relay_sum_of_largest_entries_is_exact():
    # three messages of q - 1 at q = 2**31 - 1, summed in int64 and reduced once
    q = 2**31 - 1
    field = PrimeField(q)
    top = build_cyclic(6, 3)
    s = build_scheme_a(top, field, decode_matrix=gf.vandermonde(range(1, 7), 3, field))
    for relay in range(1, top.K + 1):
        users = top.relay_links[relay - 1]
        assert len(users) >= 3
        incoming = {u: np.full(5, q - 1, dtype=np.int64) for u in users}
        reference = np.zeros(5, dtype=np.int64)
        for v in incoming.values():
            reference = (reference + v) % q
        assert relay_aggregate(s, relay, incoming).tolist() == reference.tolist()
        assert reference.tolist() == [(len(users) * (q - 1)) % q] * 5
        assert all(v.tolist() == [q - 1] * 5 for v in incoming.values())  # inputs untouched


@pytest.mark.parametrize("q, dt, count, fits", list(narrow_edges(lambda q: q - 1)))
@settings(max_examples=4, deadline=None)
@given(st.integers(1, 3), st.booleans(), st.integers(0, 2**32 - 1))
def test_narrow_sums_are_exact_at_their_dtype_edge(q, dt, count, fits, width, saturate, seed):
    # both sums read only q, the relay's user list and the arrays, so a stub holds any count
    rng = np.random.default_rng(seed)
    field = PrimeField(q)
    block = edge_residues(rng, q, (count, width), saturate, dt)
    msgs = list(block)
    expected = (block.astype(object).sum(axis=0) % q).tolist()
    relay = SimpleNamespace(field=field, topology=SimpleNamespace(
        K=1, relay_links=(tuple(range(1, count + 1)),)))
    got = relay_aggregate(relay, 1, dict(enumerate(msgs, start=1)))
    assert got.dtype == (dt if fits else wider(dt)) and got.tolist() == expected
    total = direct_sum(SimpleNamespace(field=field),
                       [FieldMatrix._wrap(field, v[:, None]) for v in msgs])
    assert total.a.dtype == (dt if fits else wider(dt)) and total.a[:, 0].tolist() == expected


@pytest.mark.parametrize("dt", [np.int8, np.int16, np.int32])
def test_round_keeps_the_dtype_of_narrow_columns(dt):
    # every message of a narrow round is narrow and equal to the int64 round's
    s = example_scheme(5)
    rng = np.random.default_rng(8)
    inputs = [s.field.rand(rng, (2, 40)) for _ in range(3)]
    seeds = s.field.rand(rng, (s.seed_count, 40))
    wide = run_round(s, [FieldMatrix(s.field, w) for w in inputs],
                     keys=derive_user_keys(s, FieldMatrix(s.field, seeds)))
    narrow = run_round(s, [FieldMatrix._wrap(s.field, w.astype(dt)) for w in inputs],
                       keys=derive_user_keys(s, FieldMatrix._wrap(s.field, seeds.astype(dt))))
    assert not narrow.mismatch and narrow.decoded == wide.decoded
    assert narrow.decoded.a.dtype == dt
    for wire, narrow_msgs in ((wide.x_msgs, narrow.x_msgs), (wide.y_msgs, narrow.y_msgs)):
        assert all(v.dtype == dt for v in narrow_msgs.values())
        assert {k: v.tolist() for k, v in narrow_msgs.items()} == {
            k: v.tolist() for k, v in wire.items()}


def test_server_decode_requires_all_relays():
    s = example_scheme()
    with pytest.raises(ProtocolViolation):
        server_decode(s, {1: np.array([0]), 2: np.array([0])})


def test_example_round_decodes_and_matches_relay_lines():
    s = example_scheme()
    q = 7
    r = [2, 3, 4, 5]
    keys = explicit_keys(s, r)
    inputs = [FieldMatrix(s.field, [[1], [5]]),
              FieldMatrix(s.field, [[2], [6]]),
              FieldMatrix(s.field, [[3], [4]])]
    tr = run_round(s, inputs, keys=keys)
    w = [(1, 5), (2, 6), (3, 4)]
    # relay outputs follow the closed forms of the worked example
    y1 = (w[0][0] + w[2][0] - w[2][1] + r[1] + r[2]) % q
    y2 = (w[0][1] - w[1][0] + w[1][1] + r[1] + r[2]) % q
    y3 = (w[1][0] + w[2][1] - r[1] - r[2]) % q
    assert tr.y_msgs[1].tolist() == [y1]
    assert tr.y_msgs[2].tolist() == [y2]
    assert tr.y_msgs[3].tolist() == [y3]
    # the decoding combinations are the relay sums picked by the decode rows
    assert tr.decoded.a[0, 0] == (y1 + y3) % q
    assert tr.decoded.a[1, 0] == (y2 + y3) % q
    assert not tr.mismatch
    assert tr.decoded == direct_sum(s, inputs)


@pytest.mark.parametrize("make", [
    lambda: build_scheme_a(build_cyclic(4, 2), PrimeField(5), seed=2),
    lambda: build_scheme_b(build_cyclic(6, 2), F13, t_u=2, seed=3),
    lambda: build_scheme_c(5, F7),
])
def test_random_rounds_decode(make):
    s = make()
    rng = np.random.default_rng(0)
    for seed in range(20):
        inputs = [FieldMatrix(s.field, s.field.rand(rng, (s.topology.n, 1)))
                  for _ in range(s.topology.N)]
        tr = run_round(s, inputs, seed=seed)
        assert not tr.mismatch
        assert tr.decoded == direct_sum(s, inputs)


def test_round_linearity():
    s = example_scheme()
    rng = np.random.default_rng(4)
    mk = lambda: [FieldMatrix(s.field, s.field.rand(rng, (2, 1))) for _ in range(3)]
    in1, in2 = mk(), mk()
    k1 = explicit_keys(s, [1, 2, 3, 4])
    k2 = explicit_keys(s, [5, 6, 0, 1])
    ksum = explicit_keys(s, [6, 1, 3, 5])  # componentwise sum mod 7
    t1 = run_round(s, in1, keys=k1)
    t2 = run_round(s, in2, keys=k2)
    tsum = run_round(s, [FieldMatrix(s.field, a.a + b.a) for a, b in zip(in1, in2)], keys=ksum)
    for link in t1.x_msgs:
        assert tsum.x_msgs[link].tolist() == ((t1.x_msgs[link] + t2.x_msgs[link]) % 7).tolist()
    assert tsum.decoded == FieldMatrix(s.field, t1.decoded.a + t2.decoded.a)


def test_keys_vanish_under_decoding():
    s = example_scheme()
    zeros = [gf.zeros(s.field, 2, 1) for _ in range(3)]
    for seed in range(10):
        tr = run_round(s, zeros, seed=seed)
        assert tr.decoded.is_zero()
        assert not tr.mismatch


def test_per_link_load_is_width():
    s = example_scheme()
    for width in (1, 3):
        rng = np.random.default_rng(1)
        inputs = [FieldMatrix(s.field, s.field.rand(rng, (2, width))) for _ in range(3)]
        tr = run_round(s, inputs, seed=0)
        assert len(tr.x_msgs) == s.topology.N * s.topology.n
        assert all(v.shape == (width,) for v in tr.x_msgs.values())
        assert all(v.shape == (width,) for v in tr.y_msgs.values())
        assert not tr.mismatch


def test_wide_blocks_decode():
    s = build_scheme_c(5, F7)
    rng = np.random.default_rng(8)
    inputs = [FieldMatrix(s.field, s.field.rand(rng, (2, 3))) for _ in range(5)]
    tr = run_round(s, inputs, seed=1)
    assert not tr.mismatch
    assert tr.decoded.cols == 3


def test_round_reads_the_width_from_its_inputs():
    s = build_scheme_a(build_cyclic(3, 2), PrimeField(5), seed=0)
    rng = np.random.default_rng(4)
    inputs = [FieldMatrix(s.field, s.field.rand(rng, (2, 3))) for _ in range(3)]
    tr = run_round(s, inputs, seed=2)
    assert tr.keys.width == tr.decoded.cols == 3
    assert tr.keys.seeds == sample_keys(s, width=3, seed=2).seeds
    assert not tr.mismatch


def test_transcript_serialization():
    s = example_scheme()
    rng = np.random.default_rng(2)
    inputs = [FieldMatrix(s.field, s.field.rand(rng, (2, 1))) for _ in range(3)]
    doc = run_round(s, inputs, seed=5).to_dict()
    assert doc["schema"] == "hsa-lab/transcript/1"
    assert set(doc["x_msgs"]) == {"1,1", "1,2", "2,2", "2,3", "3,1", "3,3"}
    assert doc["mismatch"] is False

"""One aggregation round: user encoding, relay sums, server decoding.

Inputs are n x width blocks over F_q; every matrix operation is applied
column-wise, so a round over width > 1 is just `width` independent rounds
sharing one transcript.  That is why the certificates in `verify` count one
block column and multiply by width.  Relays are pure folds; there is no
timing model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ProtocolViolation, ShapeError
from .gf import FieldMatrix, _matmul, _sum
from .schemes import KeyMaterial, Scheme, sample_keys

_TRANSCRIPT_SCHEMA = "hsa-lab/transcript/1"


@dataclass(frozen=True)
class Transcript:
    """Everything one round produced, plus the decode-vs-direct-sum verdict."""

    inputs: tuple[FieldMatrix, ...]
    keys: KeyMaterial
    x_msgs: dict[tuple[int, int], np.ndarray]   # (user, relay) -> width symbols
    y_msgs: dict[int, np.ndarray]               # relay -> width symbols
    decoded: FieldMatrix                        # n x width
    mismatch: bool

    def to_dict(self) -> dict:
        return {
            "schema": _TRANSCRIPT_SCHEMA,
            "inputs": [w.tolist() for w in self.inputs],
            "seeds": self.keys.seeds.tolist(),
            "user_keys": [z.tolist() for z in self.keys.per_user],
            "x_msgs": {f"{i},{j}": v.tolist() for (i, j), v in sorted(self.x_msgs.items())},
            "y_msgs": {str(j): v.tolist() for j, v in sorted(self.y_msgs.items())},
            "decoded": self.decoded.tolist(),
            "mismatch": self.mismatch,
        }


def user_encode(s: Scheme, user: int, w: FieldMatrix, keys: KeyMaterial) -> dict[int, np.ndarray]:
    """Messages user -> relay for one user: encoded input plus its key mask, with both
    products summed in one reduction; each message is a read-only row of that sum.

    Raises:
        ShapeError: if the input block is not n x width.
    """
    top = s.topology
    if not 1 <= user <= top.N:
        raise ProtocolViolation(f"no user {user}")
    if (w.rows, w.cols) != (top.n, keys.width):
        raise ShapeError(f"input of user {user} must be {top.n}x{keys.width}")
    # n x width, rows indexed by the user's sorted relays
    enc, spread, z = s.encoders[user - 1].a, s.key_spreads[user - 1].a, keys.per_user[user - 1].a
    sent = FieldMatrix._wrap(s.field, _matmul(s.field.q, (enc, w.a), (spread.T, z)))
    return {relay: sent.row(pos) for pos, relay in enumerate(top.user_links[user - 1])}


def relay_aggregate(s: Scheme, relay: int, incoming: dict[int, np.ndarray]) -> np.ndarray:
    """Component-wise field sum of exactly the messages this relay serves.

    Raises:
        ProtocolViolation: if the sender set is not exactly the relay's users.
    """
    top = s.topology
    if not 1 <= relay <= top.K:
        raise ProtocolViolation(f"no relay {relay}")
    expected = set(top.relay_links[relay - 1])
    if set(incoming) != expected:
        raise ProtocolViolation(
            f"relay {relay} expected users {sorted(expected)}, got {sorted(incoming)}")
    return _sum(s.field.q, list(incoming.values()))


def server_decode(s: Scheme, y: dict[int, np.ndarray]) -> FieldMatrix:
    """Recover the input sum by applying the decoding matrix to the relay outputs.

    Raises:
        ProtocolViolation: unless all K relay messages are present.
    """
    top = s.topology
    if set(y) != set(range(1, top.K + 1)):
        raise ProtocolViolation("server needs a message from every relay")
    # K x width; relay outputs are residues, like the messages relay_aggregate sums
    stacked = np.vstack([y[j] for j in range(1, top.K + 1)])
    return FieldMatrix._wrap(s.field, _matmul(s.field.q, (s.decode_matrix.a, stacked)))


def direct_sum(s: Scheme, inputs) -> FieldMatrix:
    return FieldMatrix._wrap(s.field, _sum(s.field.q, [w.a for w in inputs]))


def run_round(s: Scheme, inputs, width: int = 1, seed: int = 0,
              keys: KeyMaterial | None = None) -> Transcript:
    """Execute one full round and compare the decode against the direct sum.

    `keys` overrides the sampled key material (used to replay transcripts
    and to run the keyless baseline); otherwise seeds are drawn from the
    given generator seed.
    """
    top = s.topology
    if len(inputs) != top.N:
        raise ShapeError(f"need {top.N} inputs, got {len(inputs)}")
    if keys is None:
        keys = sample_keys(s, width=width, seed=seed)

    x_msgs: dict[tuple[int, int], np.ndarray] = {}
    inbox: dict[int, dict[int, np.ndarray]] = {j: {} for j in range(1, top.K + 1)}
    for i in range(1, top.N + 1):
        for relay, msg in user_encode(s, i, inputs[i - 1], keys).items():
            x_msgs[(i, relay)] = msg
            inbox[relay][i] = msg

    y_msgs = {j: relay_aggregate(s, j, inbox[j]) for j in range(1, top.K + 1)}
    decoded = server_decode(s, y_msgs)
    mismatch = decoded != direct_sum(s, inputs)
    return Transcript(
        inputs=tuple(inputs),
        keys=keys,
        x_msgs=x_msgs,
        y_msgs=y_msgs,
        decoded=decoded,
        mismatch=mismatch,
    )

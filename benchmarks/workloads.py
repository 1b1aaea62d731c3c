"""Workload definitions: the invocations of each pass and their expected outcomes.

Each workload is a closed loop with one client: a pass calls
``hsa_lab.cli.main(argv)`` once per invocation, in order, and starts an
invocation only after the previous one returned.  NOTES.md says why each
workload and each config is there.

``--seed n`` sets every config's ``seed`` to its listed seed plus ``n``, so
seed 0 reproduces the listed configs.  Expected outcomes below hold for every
seed; only the scheme-file digests are pinned to seed 0.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_SCHEMA = "hsa-lab/config/1"
BIG_Q = 1048573            # largest prime below 2**20


@dataclass(frozen=True)
class Invocation:
    id: str
    command: str           # "report" or "build"
    topology: dict
    q: int
    scheme: dict
    security: tuple[int, int]
    seed: int
    expect: dict
    caps: dict = field(default_factory=dict)

    def config(self, seed_offset: int) -> dict:
        t_h, t_u = self.security
        cfg = {
            "schema": CONFIG_SCHEMA,
            "topology": self.topology,
            "field_q": self.q,
            "scheme": self.scheme,
            "security": {"t_h": t_h, "t_u": t_u},
            "block_width": 1,
            "seed": self.seed + seed_offset,
        }
        if self.caps:
            cfg["caps"] = self.caps
        return cfg

    def argv(self, config_path: Path, out_path: Path) -> list[str]:
        return [self.command, "--config", str(config_path), "--out", str(out_path)]


def _cyclic(k, n):
    return {"kind": "cyclic", "K": k, "n": n}


def _report(verdict, rank, oracle, decodability, comparison, converse=False):
    """Expected summary of a report; see summarize_report for the fields."""
    return {
        "exit": 0 if verdict == "pass" else 1,
        "verdict": verdict,
        "security_rank": list(rank),
        "security_oracle": list(oracle),
        "decodability": list(decodability),
        "comparison": comparison,
        "converse": converse,
    }


def _construct(inv_id, k, n, q, t_u, seed, sha256_at_seed_0):
    """`hsa-lab build` of scheme B on cyclic(k, n), secure against (1, t_u)."""
    # `build` ignores caps; the untimed `verify` of a build made under a
    # non-default seed samples 100 collusion patterns
    return Invocation(inv_id, "build", _cyclic(k, n), q, {"variant": "B", "t_u": t_u}, (1, t_u),
                      seed, {"exit": 0, "sha256": sha256_at_seed_0},
                      caps={"sweep_budget": 100})


_OPT = "optimal"
_ANT = "achievable-not-tight"
_DEF = "defect"
_ALL_OPT = {"r_x": _OPT, "r_y": _OPT, "r_z": _OPT, "r_zsigma": _OPT}

WORKLOADS: dict[str, list[Invocation]] = {
    "oracle": [
        Invocation("triangle-A-q3", "report", _cyclic(3, 2), 3, {"variant": "A"}, (1, 1), 0,
                   _report("pass", (16, 0), (0, 0), ("exhaustive", 59049, True), _ALL_OPT,
                           converse=True)),
        Invocation("tree22-A-q7", "report", {"kind": "tree", "U": 2, "V": 2}, 7,
                   {"variant": "A"}, (1, 1), 0,
                   _report("pass", (15, 0), (0, 0), ("exhaustive", 823543, True), _ALL_OPT)),
        Invocation("triangle-C-q5-leak", "report", _cyclic(3, 2), 5, {"variant": "C"}, (1, 1), 0,
                   _report("fail", (16, 3), (3, 0), ("exhaustive", 390625, True),
                           {"r_x": _OPT, "r_y": _OPT, "r_z": _DEF, "r_zsigma": _DEF},
                           converse=True)),
    ],
    "rank": [
        Invocation("readme-B", "report", _cyclic(6, 2), 13, {"variant": "B", "t_u": 2},
                   (1, 2), 7,
                   _report("pass", (154, 0), (0, 0), ("sampled", None, True),
                           _ALL_OPT)),
        Invocation("mc-B", "report", {"kind": "multiple_cyclic", "K": 7, "n": 2, "t": 2}, 29,
                   {"variant": "B", "t_u": 1}, (1, 1), 3,
                   _report("pass", (98, 0), (0, 0), ("sampled", None, True),
                           _ALL_OPT)),
        Invocation("tree-A", "report", {"kind": "tree", "U": 4, "V": 3}, 101, {"variant": "A"},
                   (1, 2), 0,
                   _report("pass", (264, 0), (0, 0), ("sampled", None, True),
                           {"r_x": _OPT, "r_y": _OPT, "r_z": _OPT, "r_zsigma": _ANT})),
        Invocation("C7", "report", _cyclic(7, 2), 11, {"variant": "C"}, (1, 4), 0,
                   _report("pass", (245, 0), (0, 0), ("sampled", None, True),
                           _ALL_OPT)),
        Invocation("cyc12-A-sub", "report", _cyclic(12, 3), 65537, {"variant": "A"}, (2, 3), 0,
                   _report("pass", (1500, 0), (0, 0), ("sampled", None, True),
                           {"r_x": _OPT, "r_y": _OPT, "r_z": _ANT, "r_zsigma": _ANT}),
                   caps={"sweep_budget": 1500}),
    ],
    "construct": [
        _construct("cyc14-B-big", 14, 6, BIG_Q, 2, 1,
                   "c25ba60f00ec22b128a9936714efac8b9b71b0c65d6783792261f122b02a9e30"),
        _construct("cyc13-B-big", 13, 6, BIG_Q, 1, 0,
                   "144009205b20a213af36b7fa35eed876448ec927b49cf4585c4848867a5a0973"),
        _construct("cyc12-B-big", 12, 5, BIG_Q, 2, 0,
                   "6e85460ed37472a3da0f8f809db13f4da00086d180237c4941f7a58908a2a11b"),
    ] + [
        _construct(f"cyc6-B-q13-s{seed}", 6, 2, 13, 2, seed, digest)
        for seed, digest in enumerate([
            "c89179c7cfac8ef04d68be91e4727dccc8f5bb009749bf12ac41bd3719f8ed5e",
            "16f6757181e1382665e2059b9358b21ba3a692d0ca00eada1e9f382db3a4a367",
            "320000929b7a40d45cbeddb79cdbb5956ec8d31b3fa84e95aa52c270f522b503",
            "30214108167e0b29b30a20b3776337ac7b16ef98fc0ce85b00bd8da86cbed8b7",
            "4043e5b063efd25ec92c7471725cc677f02462b7b73988a1dbff85570c563df4",
            "ce3e761c0a7ca57898365baf9defe8b8318947489a0a7ff5e1cc2f5168fdd990",
            "31d606c152b1086f9b59ef4545fa2466c253c1fc184e10147a155af546a79e82",
            "1d006b041805d0eb78a0b00514924bf59673c36dff529fbfb8f8f3162d83a160",
            "89be87e4ca7aec514d47779e072e7edb1633bc6b776a7e6a0fb56b8d94e405d5",
            "f8767de75356f6928c0b2fc740c6e9aed2336f592d85ac47b37a6f11c00d2d9f",
        ])
    ],
}


def summarize_report(code: int, path: Path) -> dict:
    """The checked fields of a report; the `timing` block is never read."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("timing", None)
    rank, oracle, deco = doc["security_rank"], doc["security_oracle"], doc["decodability"]
    return {
        "exit": code,
        "verdict": doc["verdict"],
        "security_rank": [rank["checked"], rank["failed"]],
        "security_oracle": [oracle["failed"], oracle["disagreements"]],
        "decodability": [deco["mode"], deco.get("states"), deco["passed"]],
        "comparison": {row["rate"]: row["status"] for row in doc["comparison"]},
        "converse": "converse" in doc,
    }


def summarize_build(code: int, path: Path) -> dict:
    return {"exit": code, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}

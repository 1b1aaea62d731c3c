"""Self-test of the benchmark's tracer and output checks.

Run with ``python -m pytest benchmarks`` from the root of the repository.
"""

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import hsa_lab.protocol  # noqa: E402
import hsa_lab.verify  # noqa: E402
from hsa_lab.gf import FieldMatrix  # noqa: E402

from tracer import Tracer  # noqa: E402
from worker import Workload, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _invocation(workload, inv_id):
    return next(inv for inv in WORKLOADS[workload] if inv.id == inv_id)


def test_traced_counts_on_triangle(tmp_path):
    workload = Workload([_invocation("oracle", "triangle-A-q3")], 0, tmp_path)
    with Tracer() as t:
        p = workload.run_pass()
    assert (workload.attempted, workload.failed, workload.problems) == (1, 0, [])
    m = layer_metrics(t, p["wall"], p["out_bytes"])
    assert m["verify.rank_leak.calls"] == 16
    assert m["verify.mi_oracle.calls"] == 16
    assert m["verify.mi_oracle.states"] == 944784
    assert m["verify.mi_oracle.skipped"] == 0
    assert m["protocol.run_round.calls"] == 1
    assert m["protocol.run_round.columns"] == 59049
    assert m["cli.main.calls"] == 1


def test_tracer_restores_every_binding():
    originals = (FieldMatrix.rank, hsa_lab.verify.run_round, hsa_lab.protocol.run_round)
    with Tracer():
        # verify imported run_round by name; the tracer must see calls through it
        assert hsa_lab.verify.run_round is hsa_lab.protocol.run_round
        assert hsa_lab.protocol.run_round is not originals[2]
    assert (FieldMatrix.rank, hsa_lab.verify.run_round, hsa_lab.protocol.run_round) == originals


def test_wrong_outcome_counts_as_failed(tmp_path):
    inv = _invocation("oracle", "triangle-A-q3")
    wrong = dataclasses.replace(inv, expect={**inv.expect, "security_rank": [16, 1]})
    workload = Workload([wrong], 0, tmp_path)
    workload.run_pass()
    assert workload.failed == 1 and "triangle-A-q3" in workload.problems[0]


def test_build_digest_at_seed_0_and_verify_at_other_seeds(tmp_path):
    inv = _invocation("construct", "cyc6-B-q13-s0")
    (tmp_path / "seed0").mkdir()
    pinned = Workload([inv], 0, tmp_path / "seed0")
    pinned.run_pass()
    assert pinned.failed == 0

    (tmp_path / "seed5").mkdir()
    other = Workload([inv], 5, tmp_path / "seed5")
    other.run_pass()
    other.run_pass()
    assert (other.attempted, other.failed) == (2, 0)
    assert other.verify_s > 0 and inv.id in other.digests

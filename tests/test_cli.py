import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hsa_lab import cli, verify
from hsa_lab.cli import main
from hsa_lab.schemes import Scheme

BASE = {
    "schema": "hsa-lab/config/1",
    "topology": {"kind": "cyclic", "K": 3, "n": 2},
    "field_q": 5,
    "scheme": {"variant": "A"},
    "security": {"t_h": 1, "t_u": 1},
    "block_width": 1,
    "seed": 11,
    "caps": {"enumeration": 10**6, "sweep_budget": 10000},
    "outputs": {},
}


def write_config(tmp_path, name="config.json", **overrides):
    doc = json.loads(json.dumps(BASE))
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_json(path):
    return json.loads(path.read_text())


def test_bounds_pair_cyclic(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert main(["bounds", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] == "feasible"
    assert doc["lower_bounds"]["r_z_lower"] == "1"
    assert doc["lower_bounds"]["r_zsigma_lower"] == "2"
    assert doc["lower_bounds"]["special_case"] == "two-regular-cyclic"
    assert doc["pair_cyclic_region"]["r_zsigma"] == "2"


def test_bounds_infeasible_expect_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, security={"t_h": 2, "t_u": 0})
    assert main(["bounds", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["feasibility"]["verdict"] == "infeasible"
    assert doc["feasibility"]["witness"] == "threshold-exceeded"
    assert main(["bounds", "--config", str(cfg), "--expect-feasible"]) == 1


@pytest.mark.parametrize("command", ["bounds", "report"])
def test_threshold_search_over_the_cap_exits_2(tmp_path, capsys, command):
    # cyclic(4, 2) with its users listed in reverse: the threshold search at
    # t_h = 1 has C(4, 2) = 6 relay subsets, one more than the cap
    cfg = write_config(tmp_path, caps={"enumeration": 5}, topology={
        "kind": "explicit", "N": 4, "K": 4, "user_links": [[1, 4], [3, 4], [2, 3], [1, 2]]})
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("configuration error: collusion threshold: C(4, 2)")


def test_bounds_tree_reference(tmp_path, capsys):
    cfg = write_config(tmp_path, topology={"kind": "tree", "U": 2, "V": 2},
                       security={"t_h": 1, "t_u": 4}, field_q=7)
    assert main(["bounds", "--config", str(cfg)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reference_region"]["empty"] is True
    assert doc["feasibility"]["verdict"] == "infeasible"


def test_build_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert main(["build", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["build", "--config", str(cfg), "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = read_json(out1)
    assert doc["schema"] == "hsa-lab/scheme/1"
    assert doc["variant"] == "A"


# the benchmark's invocations, read from its source without importing it as a module;
# most `construct` builds are B at n_seeds = K - n, where the builder checks no null block
WORKLOADS = runpy.run_path(str(Path(__file__).parents[1] / "benchmarks" / "workloads.py"))[
    "WORKLOADS"]
CONSTRUCT = WORKLOADS["construct"]


@pytest.mark.parametrize("inv", CONSTRUCT, ids=[inv.id for inv in CONSTRUCT])
def test_build_matches_the_pinned_construct_digest(tmp_path, inv):
    cfg, out = tmp_path / "config.json", tmp_path / "scheme.json"
    cfg.write_text(json.dumps(inv.config(0)))
    assert main(inv.argv(cfg, out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == inv.expect["sha256"]


# sha256 of each seed-0 `oracle` and `rank` report without its `timing` block,
# re-dumped with sorted keys and an indent of 2
REPORT_DIGESTS = {
    "triangle-A-q3": "e4a12b909b39dcc8aa471c1845e4ee1f43c52d89b4c40b0799aa446a6a5dacaa",
    "tree22-A-q7": "c3d620cdb87c8c2361460233d9a8af6a78a9887766e015bc9f2144c7003acf73",
    "triangle-C-q5-leak": "d06f12ec7eae33ee941f3ba99d6311870f81da148c54e38b16394eb0e5a01cb7",
    "readme-B": "e6ce026e737216c25f5dced90283b1fda2ec12640a4b857f28748cd16c9894de",
    "mc-B": "ab884f7cf7a972db51034630166925d17e5950896007160f972ccc53386a74a5",
    "tree-A": "597cd2092c592970a3dde291603b3d6518c9bfb0bcdf7b9ee97a93a752c30e0f",
    "C7": "4e2ab0f9158e3e0865002018c4ef263c49fcd509e3ed4ea873db825896871709",
    "cyc12-A-sub": "781c5cf0f4b652b661853cb70a0e63b7522ba41d0d02782bf4f95c8cc142499c",
}
REPORTS = WORKLOADS["oracle"] + WORKLOADS["rank"]


@pytest.mark.parametrize("inv", REPORTS, ids=[inv.id for inv in REPORTS])
def test_report_matches_the_pinned_report_digest(tmp_path, inv):
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(inv.config(0)))
    assert main(inv.argv(cfg, out)) == inv.expect["exit"]
    doc = read_json(out)
    doc.pop("timing")
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True, indent=2).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[inv.id]


@pytest.mark.parametrize("inv_id, streamed", [("cyc12-A-sub", 0), ("triangle-A-q3", 1)])
def test_a_report_walks_its_patterns_once(tmp_path, monkeypatch, inv_id, streamed):
    # a report unranks its patterns in one walk over pattern indices, a
    # subsampled one only the 1,500 it keeps of 14,520, a streamed one all 16;
    # neither walks the pattern tuples of iter_patterns
    walks, real = [], verify._pattern_blocks

    def counted(*args):
        walks.append(0)
        for block in real(*args):
            walks[-1] += len(block[0])
            yield block

    def no_tuples(*args):
        raise AssertionError("a report walked the pattern tuples")

    monkeypatch.setattr(verify, "_pattern_blocks", counted)
    monkeypatch.setattr(verify, "iter_patterns", no_tuples)
    inv = next(inv for inv in REPORTS if inv.id == inv_id)
    cfg, out = tmp_path / "config.json", tmp_path / "report.json"
    cfg.write_text(json.dumps(inv.config(0)))
    assert main(inv.argv(cfg, out)) == 0
    assert walks == [16 if streamed else 1500]


def test_a_route_disagreement_fails_both_reports_and_the_run(tmp_path, monkeypatch):
    flipped, real = verify.CollusionPattern([1], [2]), verify.mi_oracle

    def flip_one(s, p, **kwargs):
        result = real(s, p, **kwargs)
        return dataclasses.replace(result, is_zero=not result.is_zero) if p == flipped else result

    monkeypatch.setattr(verify, "mi_oracle", flip_one)
    cfg = write_config(tmp_path, field_q=3)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    rank, oracle = verify.sweep_security(Scheme.from_dict(read_json(scheme_path)), 1, 1,
                                         oracle_cap=10**6)
    assert rank.disagreements == oracle.disagreements == 1
    assert (rank.failed, oracle.failed) == (0, 1) and oracle.first_failure == flipped
    assert not rank.all_passed and not oracle.all_passed
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
    doc = read_json(out)
    assert doc["verdict"] == "fail"
    assert doc["security_rank"]["disagreements"] == doc["security_oracle"]["disagreements"] == 1


def test_build_scheme_c_writes_closed_form(tmp_path):
    cfg = write_config(tmp_path, topology={"kind": "cyclic", "K": 5, "n": 2},
                       field_q=7, scheme={"variant": "C"},
                       security={"t_h": 1, "t_u": 2})
    out = tmp_path / "c.json"
    assert main(["build", "--config", str(cfg), "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["decode_matrix"] == [[1, 1, 1, 1, 1], [1, 2, 3, 4, 5]]
    assert doc["variant"] == "BL"


def test_composite_field_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, topology={"kind": "cyclic", "K": 4, "n": 2},
                       field_q=6, scheme={"variant": "C"},
                       security={"t_h": 1, "t_u": 1})
    assert main(["build", "--config", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_missing_field_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"schema": "hsa-lab/config/1"}))
    assert main(["bounds", "--config", str(path)]) == 2


def test_verify_pass_and_tamper(tmp_path, capsys):
    cfg = write_config(tmp_path, field_q=3)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--scheme", str(scheme_path),
                 "--all-sizes", "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["verdict"] == "pass"
    assert doc["decodability"]["mode"] == "exhaustive"
    assert doc["security_rank"]["failed"] == 0
    assert doc["security_oracle"]["checked"] == doc["security_rank"]["checked"] == 16

    tampered = read_json(scheme_path)
    tampered["key_map"][0][0] = (tampered["key_map"][0][0] + 1) % 3
    bad_path = tmp_path / "tampered.json"
    bad_path.write_text(json.dumps(tampered))
    assert main(["verify", "--config", str(cfg), "--scheme", str(bad_path),
                 "--out", str(tmp_path / "v2.json")]) == 1


@pytest.mark.parametrize("topology,q,security,checked_failed", [
    ({"K": 8}, 13, {"t_h": 9, "t_u": 1}, (8, 8)),        # t_h past K = 8 relays
    ({"K": 3}, 5, {"t_h": 1, "t_u": 10**12}, (32, 6)),  # t_u past N = 3 users
])
def test_a_budget_past_the_network_sweeps_all_of_it(tmp_path, topology, q, security,
                                                    checked_failed):
    # a vacuous pass past K, or a walk of range(t_u + 1) past N, would be wrong
    cfg = write_config(tmp_path, topology=topology, field_q=q, security=security)
    scheme_path, out, report = (tmp_path / name for name in ("scheme.json", "verify.json",
                                                             "report.json"))
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    start = time.monotonic()
    assert main(["verify", "--config", str(cfg), "--scheme", str(scheme_path),
                 "--out", str(out)]) == 1
    assert time.monotonic() - start < 10
    doc = read_json(out)
    assert doc["verdict"] == "fail"
    assert (doc["security_rank"]["checked"], doc["security_rank"]["failed"]) == checked_failed
    assert main(["report", "--config", str(cfg), "--out", str(report)]) == 1
    assert read_json(report)["verdict"] == "infeasible"


def test_verify_topology_mismatch(tmp_path):
    cfg = write_config(tmp_path, field_q=3)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    other = write_config(tmp_path, name="other.json",
                         topology={"kind": "cyclic", "K": 4, "n": 2}, field_q=5)
    assert main(["verify", "--config", str(other), "--scheme", str(scheme_path)]) == 2


def test_simulate(tmp_path, capsys):
    cfg = write_config(tmp_path, block_width=3)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    out = tmp_path / "transcript.json"
    assert main(["simulate", "--config", str(cfg), "--scheme", str(scheme_path),
                 "--out", str(out)]) == 0
    assert "decoded == direct sum: True" in capsys.readouterr().err
    doc = read_json(out)
    assert doc["mismatch"] is False
    assert all(len(v) == 3 for v in doc["x_msgs"].values())
    assert doc["decoded"] == doc["direct_sum"]


def test_simulate_stdout_is_json(tmp_path, capsys):
    cfg = write_config(tmp_path)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    capsys.readouterr()
    assert main(["simulate", "--config", str(cfg), "--scheme", str(scheme_path)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["mismatch"] is False
    assert "decoded == direct sum: True" in captured.err


def test_exhaustive_decodability_counts_enumerated_columns(tmp_path):
    # each column of a width-2 block is its own round: 3**10 columns cover them all
    cfg = write_config(tmp_path, field_q=3, block_width=2)
    doc = read_json(cfg)
    del doc["caps"]
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    deco = read_json(out)["decodability"]
    assert deco == {"mode": "exhaustive", "states": 59049, "passed": True}


@pytest.mark.parametrize("below", [False, True], ids=["at count", "one below"])
@pytest.mark.parametrize("block, exponent", [
    ("decodability", lambda w: 10),        # q**(N*n + seeds), whatever the width
    ("converse", lambda w: 4 * w),         # q**(seeds * width)
    ("security_oracle", lambda w: 10 * w),  # q**((N*n + seeds) * width)
], ids=["decodability", "converse", "oracle"])
@pytest.mark.parametrize("width", [1, 2])
def test_each_certificate_runs_up_to_its_cap(tmp_path, width, block, exponent, below):
    # A on cyclic(3,2), q=3: 4 seeds, and N*n = 6 inputs
    cap = 3 ** exponent(width) - below
    cfg = write_config(tmp_path, field_q=3, block_width=width,
                       caps={"enumeration": cap, "sweep_budget": 10000})
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    got = read_json(out)[block]
    if block == "decodability":
        assert got == ({"mode": "sampled", "samples": 10000, "passed": True} if below else
                       {"mode": "exhaustive", "states": 59049, "passed": True})
    elif block == "converse":
        assert (got == {"skipped": "cap"}) if below else got["all_links_determined"]
    else:
        assert got["checked"] == 16 and got["skipped_cap"] == (16 if below else 0)


def test_converse_too_wide_to_key_is_skipped(tmp_path, capsys):
    # 65537**4 states pass the cap, but 4 symbols over F_65537 cannot be keyed in int64:
    # the converse is skipped, as the oracle sweep counts the same exception
    cfg = write_config(tmp_path, field_q=65537, caps={"enumeration": 10**20})
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["converse"] == {"skipped": "cap"} and doc["verdict"] == "pass"
    assert capsys.readouterr().err == ""


def test_report_optimal_rows_scheme_b(tmp_path):
    cfg = write_config(tmp_path, topology={"kind": "cyclic", "K": 6, "n": 2},
                       field_q=13, scheme={"variant": "B", "t_u": 2},
                       security={"t_h": 1, "t_u": 2})
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["verdict"] == "pass"
    assert {row["rate"]: row["status"] for row in doc["comparison"]} == {
        "r_x": "optimal", "r_y": "optimal", "r_z": "optimal", "r_zsigma": "optimal"}


def test_report_loose_rows_scheme_a(tmp_path):
    cfg = write_config(tmp_path, topology={"kind": "cyclic", "K": 6, "n": 2},
                       field_q=7, scheme={"variant": "A"},
                       security={"t_h": 1, "t_u": 2})
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    doc = read_json(out)
    statuses = {row["rate"]: row["status"] for row in doc["comparison"]}
    assert statuses["r_x"] == "optimal"
    assert statuses["r_z"] == "achievable-not-tight"
    assert statuses["r_zsigma"] == "achievable-not-tight"


def test_verify_large_weighted_scheme_skips_oracle(tmp_path):
    # 16 users over 8 relays, two cyclic copies: the rank path runs in full
    # while every oracle call lands beyond the enumeration cap
    cfg = write_config(tmp_path,
                       topology={"kind": "multiple_cyclic", "K": 8, "n": 2, "t": 2},
                       field_q=37, scheme={"variant": "B", "t_u": 2},
                       security={"t_h": 1, "t_u": 2},
                       caps={"enumeration": 10**5, "sweep_budget": 10**5})
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    out = tmp_path / "verify.json"
    assert main(["verify", "--config", str(cfg), "--scheme", str(scheme_path),
                 "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["verdict"] == "pass"
    assert doc["decodability"]["mode"] == "sampled"
    assert doc["security_rank"]["failed"] == 0
    assert doc["security_oracle"]["skipped_cap"] == doc["security_oracle"]["checked"] > 0
    assert doc["security_oracle"]["passed"] == 0


def test_report_multiple_cyclic_scheme_a(tmp_path):
    cfg = write_config(tmp_path,
                       topology={"kind": "multiple_cyclic", "K": 3, "n": 2, "t": 2},
                       field_q=7, scheme={"variant": "A"},
                       security={"t_h": 1, "t_u": 2})
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    doc = read_json(out)
    assert doc["verdict"] == "pass"
    assert "pair_cyclic_region" not in doc  # N > K here
    assert doc["achieved"]["r_zsigma"] == "5"


def test_report_deterministic_excluding_timing(tmp_path):
    cfg = write_config(tmp_path, field_q=3)
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["report", "--config", str(cfg), "--out", str(o1)]) == 0
    assert main(["report", "--config", str(cfg), "--out", str(o2)]) == 0
    d1, d2 = read_json(o1), read_json(o2)
    d1.pop("timing"), d2.pop("timing")
    assert d1 == d2


def test_report_infeasible(tmp_path):
    cfg = write_config(tmp_path, security={"t_h": 2, "t_u": 0})
    out = tmp_path / "report.json"
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 1
    assert read_json(out)["verdict"] == "infeasible"


def test_verify_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path, field_q=3)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    o1, o2 = tmp_path / "v1.json", tmp_path / "v2.json"
    for out in (o1, o2):
        assert main(["verify", "--config", str(cfg), "--scheme", str(scheme_path),
                     "--out", str(out)]) == 0
    assert o1.read_bytes() == o2.read_bytes()


def test_artifact_field_names_frozen(tmp_path):
    cfg = write_config(tmp_path, field_q=3)
    scheme_path = tmp_path / "scheme.json"
    main(["build", "--config", str(cfg), "--out", str(scheme_path)])
    assert set(read_json(scheme_path)) == {
        "schema", "variant", "field_q", "topology", "decode_matrix",
        "encoders", "key_map", "key_weights", "t_u"}
    tr_path = tmp_path / "tr.json"
    main(["simulate", "--config", str(cfg), "--scheme", str(scheme_path),
          "--out", str(tr_path)])
    assert set(read_json(tr_path)) == {
        "schema", "inputs", "seeds", "user_keys", "x_msgs", "y_msgs",
        "decoded", "direct_sum", "mismatch"}
    rep_path = tmp_path / "rep.json"
    main(["report", "--config", str(cfg), "--out", str(rep_path)])
    assert set(read_json(rep_path)) == {
        "schema", "config", "feasibility", "lower_bounds", "pair_cyclic_region",
        "scheme", "achieved", "comparison", "decodability", "structural",
        "security_rank", "security_oracle", "converse", "verdict", "timing"}


def test_round_trip_verify_matches_in_memory(tmp_path):
    from hsa_lab.cli import load_config, build_scheme
    from hsa_lab.schemes import Scheme
    cfg_path = write_config(tmp_path, field_q=3)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg_path), "--out", str(scheme_path)]) == 0
    cfg = load_config(str(cfg_path))
    built = build_scheme(cfg)
    parsed = Scheme.from_dict(read_json(scheme_path))
    assert parsed.to_dict() == built.to_dict()


def test_scheme_c_rejects_other_topology(tmp_path, capsys):
    # same size as cyclic(4, 2), but build_scheme_c would certify cyclic(4, 2)
    cfg = write_config(tmp_path, topology={
        "kind": "explicit", "N": 4, "K": 4, "user_links": [[1, 2], [1, 2], [3, 4], [3, 4]]},
        field_q=7, scheme={"variant": "C"}, security={"t_h": 1, "t_u": 1})
    assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["K not an integer", "config is a list",
                                  "scheme t_u not an integer", "scheme file field_q"])
def test_bad_values_exit_2_without_traceback(tmp_path, capsys, case):
    cfg = write_config(tmp_path)
    argv = ["bounds", "--config", str(cfg)]
    if case == "K not an integer":
        write_config(tmp_path, topology={"K": "six"})
    elif case == "config is a list":
        cfg.write_text(json.dumps([BASE]))
    elif case == "scheme t_u not an integer":
        write_config(tmp_path, topology={"K": 6}, field_q=13,
                     scheme={"variant": "B", "t_u": "x"})
    else:
        scheme_path = tmp_path / "scheme.json"
        assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
        doc = read_json(scheme_path)
        doc["field_q"] = "x"
        scheme_path.write_text(json.dumps(doc))
        argv = ["verify", "--config", str(cfg), "--scheme", str(scheme_path)]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1, err


@pytest.mark.parametrize("path,edit", [
    (["field_q"], lambda q: q + 0.5),
    (["topology", "N"], lambda n: n + 0.9),
    (["decode_matrix", 0, 0], lambda x: x + 0.5),
    (["topology", "user_links", 0, 0], lambda j: j + 0.5),
    (["key_map", 0, 0], lambda x: 10**30),
], ids=["field_q 3.5", "N 3.9", "decode_matrix entry + 0.5", "user_links entry + 0.5",
        "key_map entry 10**30"])
def test_scheme_file_values_exit_2(tmp_path, capsys, path, edit):
    # a scheme file's integers follow the config rule, and matrix entries must fit int64
    cfg = write_config(tmp_path, field_q=3)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    doc = read_json(scheme_path)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = edit(target[path[-1]])
    scheme_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--config", str(cfg), "--scheme", str(scheme_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1, err


@pytest.mark.parametrize("command", ["build", "report"])
@pytest.mark.parametrize("overrides", [
    {"caps": {"sweep_budget": 0}},
    {"caps": {"sweep_budget": -5}},
    {"caps": {"enumeration": 0}},
    {"caps": {"enumeration": -1}},
    {"seed": -1},
    {"topology": {"K": 3.7}},
    {"topology": {"n": True}},
    {"topology": {"n": 0}},
    {"field_q": 2**61 - 1},
], ids=["sweep_budget 0", "sweep_budget -5", "enumeration 0", "enumeration -1", "seed -1",
        "K 3.7", "n true", "n 0", "field_q 2**61 - 1"])
def test_invalid_values_exit_2_before_any_work(tmp_path, capsys, overrides, command):
    # a budget or cap below 1 would certify a scheme without checking a single pattern;
    # a prime field past 2**31 is refused before trial division (about 1.5e9 steps)
    cfg = write_config(tmp_path, **{"field_q": 3, **overrides})
    out = tmp_path / "out.json"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bounds", "build", "report", "simulate"])
@pytest.mark.parametrize("target", ["missing directory", "directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, command, target):
    cfg = write_config(tmp_path, field_q=3)
    argv = [command, "--config", str(cfg)]
    if command == "simulate":
        scheme_path = tmp_path / "scheme.json"
        assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
        argv += ["--scheme", str(scheme_path)]
    out = tmp_path / "missing" / "out.json" if target == "missing directory" else tmp_path
    capsys.readouterr()
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: cannot write") and err.count("\n") == 1, err


# the function each command hands its work to, as the command looks it up
WORK = {"bounds": "hsa_lab.bounds.bounds_report", "build": "hsa_lab.cli.build_scheme",
        "report": "hsa_lab.cli.report_document", "verify": "hsa_lab.cli.verify_blocks",
        "simulate": "hsa_lab.cli.run_round"}


@pytest.mark.parametrize("command,target", [
    ("build", "none"),
    *((c, t) for c in WORK for t in ("missing directory", "directory")),
])
def test_output_path_checked_before_any_work(tmp_path, capsys, monkeypatch, command, target):
    cfg = write_config(tmp_path, field_q=3)
    argv = [command, "--config", str(cfg)]
    if command in ("verify", "simulate"):
        scheme_path = tmp_path / "scheme.json"
        assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
        argv += ["--scheme", str(scheme_path)]
    if target != "none":
        out = tmp_path / "missing" / "out.json" if target == "missing directory" else tmp_path
        argv += ["--out", str(out)]

    def unreachable(*args, **kwargs):
        raise AssertionError(f"{command} started its work")

    monkeypatch.setattr(WORK[command], unreachable)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error") and err.count("\n") == 1, err


@pytest.mark.parametrize("path", [1, "", ["x.json"]], ids=["fd 1", "empty", "list"])
def test_outputs_entry_must_be_a_file_name(tmp_path, capsys, monkeypatch, path):
    # a number would be opened as a file descriptor: 1 wrote the scheme to stdout
    cfg = write_config(tmp_path, field_q=3, outputs={"scheme": path})
    monkeypatch.setattr(WORK["build"], lambda cfg: pytest.fail("build started its work"))
    assert main(["build", "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("configuration error: cannot write")


def test_integral_values_in_any_json_form_accepted(tmp_path):
    paths = []
    for q in (5, 5.0, "5"):
        cfg = write_config(tmp_path, field_q=q, seed=float(BASE["seed"]))
        paths.append(tmp_path / f"scheme-{q!r}.json")
        assert main(["build", "--config", str(cfg), "--out", str(paths[-1])]) == 0
    assert len({p.read_bytes() for p in paths}) == 1


FUZZ_FIELDS = [("topology", "K"), ("topology", "n"), (None, "field_q"),
               ("security", "t_h"), ("security", "t_u"), (None, "block_width"),
               (None, "seed"), ("caps", "enumeration"), ("caps", "sweep_budget")]
FUZZ_VALUES = (st.integers(-3, 8) | st.floats(-3, 8)
               | st.sampled_from([math.nan, math.inf, -math.inf]) | st.booleans()
               | st.text(max_size=4) | st.none() | st.lists(st.integers(-3, 8), max_size=3))


@settings(max_examples=100, deadline=None)
@given(field=st.sampled_from(FUZZ_FIELDS), value=FUZZ_VALUES)
def test_fuzzed_config_never_ends_in_traceback(field, value):
    section, key = field
    doc = json.loads(json.dumps(BASE))
    (doc if section is None else doc[section])[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        for argv in (["bounds", "--config", str(cfg)],
                     ["build", "--config", str(cfg), "--out", str(Path(tmp) / "scheme.json")]):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2)
            assert err.getvalue().count("\n") <= 1, err.getvalue()


SCHEME_FIELDS = [("field_q",), ("variant",), ("schema",), ("t_u",), ("key_weights",),
                 ("topology",), ("topology", "N"), ("topology", "K"), ("topology", "n"),
                 ("topology", "user_links"), ("topology", "user_links", 0),
                 ("topology", "user_links", 0, 0), ("decode_matrix",), ("decode_matrix", 0),
                 ("decode_matrix", 0, 0), ("encoders",), ("encoders", 0), ("encoders", 0, 0, 0),
                 ("key_map",), ("key_map", 0), ("key_map", 0, 0), ("key_map", -1, -1)]
SCHEME_VALUES = (st.integers(0, 12) | FUZZ_VALUES
                 | st.sampled_from([2**31 - 1, 2**62, -(2**63), 10**30, [[0]], {}]))


@settings(max_examples=120, deadline=None)
@given(q=st.sampled_from([3, 13]), field=st.sampled_from(SCHEME_FIELDS), value=SCHEME_VALUES)
def test_fuzzed_scheme_file_never_ends_in_traceback(q, field, value):
    # under the 10**6 cap, q = 3 decodes all 3**10 columns in int8, q = 13 samples in int16
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        cfg, scheme_path = write_config(tmp, field_q=q), tmp / "scheme.json"
        assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
        doc = read_json(scheme_path)
        target = doc
        for key in field[:-1]:
            target = target[key]
        target[field[-1]] = value
        scheme_path.write_text(json.dumps(doc))
        for command in ("verify", "simulate"):
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg), "--scheme", str(scheme_path),
                             "--out", str(tmp / f"{command}.json")])
            assert code in (0, 1, 2)
            assert err.getvalue().count("\n") <= 1, err.getvalue()


NUMPY_OOM = "Unable to allocate 16.0 GiB for an array with shape (2147483647,) and data type int64"


@pytest.mark.parametrize("command", ["build", "report"])
@pytest.mark.parametrize("message,shown", [(NUMPY_OOM, NUMPY_OOM), ("", "allocation failed")],
                         ids=["numpy message", "no message"])
def test_out_of_memory_exits_1_with_one_line(tmp_path, capsys, monkeypatch, command, message,
                                             shown):
    # variant A at q = 2**31 - 1 draws from a q-element permutation; the test never allocates it
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr("hsa_lab.cli.build_scheme_a", exhausted)
    cfg = write_config(tmp_path, field_q=2**31 - 1)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"run failed: out of memory ({shown})\n"
    assert not (tmp_path / "out.json").exists()


def test_a_huge_width_is_refused_by_each_cap_without_building_its_power(tmp_path, capsys):
    # at width 10**20 the oracle and converse grids are 5**(10 * 10**20) and
    # 5**(4 * 10**20) states; the exhaustive decode does not depend on the width
    cfg = write_config(tmp_path, block_width=10**20, caps={"enumeration": 10**8})
    out, start = tmp_path / "report.json", time.monotonic()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 0
    assert time.monotonic() - start < 30  # about 0.3 s
    doc = read_json(out)
    assert doc["decodability"] == {"mode": "exhaustive", "states": 5**10, "passed": True}
    assert doc["security_oracle"]["skipped_cap"] == doc["security_oracle"]["checked"] == 16
    assert doc["converse"] == {"skipped": "cap"}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["report", "simulate"])
def test_an_undrawable_width_exits_1_with_one_line(tmp_path, capsys, command):
    # a sampled decode draws 10**4 * 10**20 columns, a round 10**20: more than numpy
    # can address, which numpy reports as a ValueError
    cfg = write_config(tmp_path, block_width=10**20, caps={"enumeration": 1000})
    scheme = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme)]) == 0
    out = tmp_path / "out.json"
    args = ["--scheme", str(scheme)] if command == "simulate" else []
    assert main([command, "--config", str(cfg), "--out", str(out), *args]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("run failed: out of memory (an int64 array of shape (")
    assert captured.err.count("\n") == 1


def test_a_sweep_past_the_walk_limit_exits_2_with_one_line(tmp_path, capsys):
    # A on cyclic(40,3) at (1,12): 40 * C(40,12) = 2.2e11 patterns, which the
    # sampler would walk one index at a time for over an hour
    cfg = write_config(tmp_path, topology={"kind": "cyclic", "K": 40, "n": 3}, field_q=65537,
                       security={"t_h": 1, "t_u": 12}, caps={"sweep_budget": 1000})
    out, start = tmp_path / "report.json", time.monotonic()
    assert main(["report", "--config", str(cfg), "--out", str(out)]) == 2
    assert time.monotonic() - start < 30  # the build and the sampled decode: about 0.1 s
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("configuration error: 223474139200 collusion patterns exceed "
                            f"the sweep's walk limit {verify._WALK_LIMIT}\n")


# -- one parser per process ---------------------------------------------------------


def test_a_flag_does_not_outlive_its_call(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args.all_sizes) or 0)
    cfg = str(write_config(tmp_path))
    assert [main(["report", "--config", cfg, "--all-sizes"]),
            main(["report", "--config", cfg])] == [0, 0]
    assert seen == [True, False]


def test_a_rejected_argv_leaves_the_parser_usable(tmp_path, capsys):
    with pytest.raises(SystemExit) as rejected:
        main(["report", "--all-sizes"])  # no --config
    assert rejected.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert main(["bounds", "--config", str(write_config(tmp_path))]) == 0
    assert json.loads(capsys.readouterr().out)["feasibility"]["verdict"] == "feasible"


COUNT_PARSERS = """
import argparse
built, init = [], argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)
import hsa_lab.cli
print(len(built))
for _ in range(2):
    try:
        hsa_lab.cli.main(["bounds"])
    except SystemExit:
        print(len(built))
"""


def test_the_parser_is_built_on_the_first_call_only():
    # none at import; one parser and its five subparsers at the first call; none after
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", COUNT_PARSERS], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.stdout.split() == ["0", "6", "6"]

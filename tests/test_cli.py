import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hsa_lab.cli import main

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


def test_thread_cap_env_var(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, field_q=3)
    scheme_path = tmp_path / "scheme.json"
    assert main(["build", "--config", str(cfg), "--out", str(scheme_path)]) == 0
    o1, o2 = tmp_path / "v1.json", tmp_path / "v2.json"
    assert main(["verify", "--config", str(cfg), "--scheme", str(scheme_path),
                 "--out", str(o1)]) == 0
    monkeypatch.setenv("HSA_LAB_THREADS", "3")
    assert main(["verify", "--config", str(cfg), "--scheme", str(scheme_path),
                 "--out", str(o2)]) == 0
    assert read_json(o1) == read_json(o2)


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
], ids=["sweep_budget 0", "sweep_budget -5", "enumeration 0", "enumeration -1", "seed -1",
        "K 3.7", "n true", "n 0"])
def test_invalid_values_exit_2_before_any_work(tmp_path, capsys, overrides, command):
    # a budget or cap below 1 would certify a scheme without checking a single pattern
    cfg = write_config(tmp_path, field_q=3, **overrides)
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

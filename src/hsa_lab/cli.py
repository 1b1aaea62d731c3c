"""Batch front end: config ingestion, build/verify/simulate commands, reports.

All file formats are plain JSON with a schema tag and integer matrices,
serialized with sorted keys so that identical configs produce byte-identical
artifacts (timing fields excluded).  Exit codes: 0 all checks passed,
1 verification failure or failed run (out of memory included), 2 configuration
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import bounds as bounds_mod
from . import verify as verify_mod
from .errors import (
    ConstructionFailed,
    HsaLabError,
    InvalidArgument,
    ProtocolViolation,
    TooLargeToEnumerate,
    as_int,
)
from .gf import FieldMatrix, PrimeField
from .protocol import direct_sum, run_round
from .schemes import (
    Scheme,
    VARIANT_LINK_KEYS,
    build_scheme_a,
    build_scheme_b,
    build_scheme_c,
    check_weighted_conditions,
    link_key_constraint_ok,
    rates,
    scheme_b_parameters,
)
from .topology import (
    Topology,
    build_cyclic,
    build_explicit,
    build_multiple_cyclic,
    build_tree,
    cyclic_copies,
)

CONFIG_SCHEMA = "hsa-lab/config/1"
REPORT_SCHEMA = "hsa-lab/report/1"
BOUNDS_SCHEMA = "hsa-lab/bounds/1"

DEFAULT_ENUMERATION_CAP = 10**7
DEFAULT_SWEEP_BUDGET = 100_000

_EXIT_OK = 0
_EXIT_VERIFICATION = 1
_EXIT_CONFIG = 2


class ConfigError(HsaLabError):
    """Configuration file is missing fields or violates preconditions."""


@dataclass
class RunConfig:
    raw: dict
    topology: Topology
    topology_kind: str
    field: PrimeField
    scheme_variant: str            # "A", "B" or "C"
    scheme_t_u: Optional[int]
    t_h: int
    t_u: int
    block_width: int
    seed: int
    enumeration_cap: int
    sweep_budget: int
    outputs: dict


def _object(value, ctx: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{ctx} must be a JSON object")
    return value


def _require(d: dict, key: str, ctx: str):
    if key not in d:
        raise ConfigError(f"missing required field {key!r} in {ctx}")
    return d[key]


def _int(d: dict, key: str, ctx: str, default: Optional[int] = None) -> int:
    """Integer field `key` of section `ctx`; required unless a default is given."""
    value = _require(d, key, ctx) if default is None else d.get(key, default)
    return as_int(value, f"field {key!r} in {ctx}")


def _build_topology(spec: dict) -> tuple[Topology, str]:
    kind = _require(spec, "kind", "topology")
    if kind == "cyclic":
        return build_cyclic(_int(spec, "K", "topology"), _int(spec, "n", "topology")), kind
    if kind == "multiple_cyclic":
        return build_multiple_cyclic(_int(spec, "K", "topology"), _int(spec, "n", "topology"),
                                     _int(spec, "t", "topology")), kind
    if kind == "explicit":
        return build_explicit(_int(spec, "N", "topology"), _int(spec, "K", "topology"),
                              _require(spec, "user_links", "topology")), kind
    if kind == "tree":
        return build_tree(_int(spec, "U", "topology"), _int(spec, "V", "topology")), kind
    raise ConfigError(f"unknown topology kind {kind!r}")


def parse_config(d: dict) -> RunConfig:
    """Validate a config document completely before any work happens."""
    _object(d, "config")
    if d.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(f"expected schema {CONFIG_SCHEMA!r}, got {d.get('schema')!r}")
    top, kind = _build_topology(_object(_require(d, "topology", "config"), "topology"))
    field = PrimeField(_int(d, "field_q", "config"))

    scheme = _object(_require(d, "scheme", "config"), "scheme")
    variant = _require(scheme, "variant", "scheme")
    if variant not in ("A", "B", "C"):
        raise ConfigError(f"scheme variant must be A, B or C, got {variant!r}")
    scheme_t_u = None
    if variant == "B":
        scheme_t_u = _int(scheme, "t_u", "scheme")
        try:
            scheme_b_parameters(top, field, scheme_t_u)
        except HsaLabError as exc:
            raise ConfigError(f"scheme B: {exc}") from exc
    if variant == "C":
        if top.n != 2 or cyclic_copies(top) != 1:
            raise ConfigError("scheme C needs a cyclic topology with n = 2")
        if field.q < top.N + 2:
            raise ConfigError(f"scheme C needs q >= N + 2 = {top.N + 2}")
    if variant == "A" and field.q < top.K:
        raise ConfigError(f"scheme A needs q >= K = {top.K}")

    security = _object(_require(d, "security", "config"), "security")
    t_h = _int(security, "t_h", "security")
    t_u = _int(security, "t_u", "security")
    if t_h < 1 or t_u < 0:
        raise ConfigError("security needs t_h >= 1 and t_u >= 0")

    width = _int(d, "block_width", "config", default=1)
    if width < 1:
        raise ConfigError("block_width must be at least 1")
    seed = _int(d, "seed", "config", default=0)
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    caps = _object(d.get("caps", {}), "caps")
    enumeration_cap = _int(caps, "enumeration", "caps", default=DEFAULT_ENUMERATION_CAP)
    sweep_budget = _int(caps, "sweep_budget", "caps", default=DEFAULT_SWEEP_BUDGET)
    for key, value in (("enumeration", enumeration_cap), ("sweep_budget", sweep_budget)):
        if value < 1:
            raise ConfigError(f"caps.{key} must be at least 1")
    outputs = _object(d.get("outputs", {}), "outputs")
    return RunConfig(
        raw=d,
        topology=top,
        topology_kind=kind,
        field=field,
        scheme_variant=variant,
        scheme_t_u=scheme_t_u,
        t_h=t_h,
        t_u=t_u,
        block_width=width,
        seed=seed,
        enumeration_cap=enumeration_cap,
        sweep_budget=sweep_budget,
        outputs=outputs,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(d)


def _output_path(path) -> Optional[str]:
    """path (None: stdout), checked before any work to name a file in an existing directory."""
    if path is not None and not (isinstance(path, str) and path and not os.path.isdir(path)
                                 and os.path.isdir(os.path.dirname(path) or ".")):
        raise ConfigError(f"cannot write {path!r}: not a file in an existing directory")
    return path


def dump_json(obj: dict, path: Optional[str]):
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def build_scheme(cfg: RunConfig) -> Scheme:
    if cfg.scheme_variant == "A":
        return build_scheme_a(cfg.topology, cfg.field, seed=cfg.seed)
    if cfg.scheme_variant == "B":
        return build_scheme_b(cfg.topology, cfg.field, cfg.scheme_t_u, seed=cfg.seed)
    return build_scheme_c(cfg.topology.N, cfg.field)


# -- command bodies -----------------------------------------------------------


def bounds_fragment(cfg: RunConfig, rep: bounds_mod.BoundsReport) -> dict:
    frag = {
        "schema": BOUNDS_SCHEMA,
        "config": cfg.raw,
        "feasibility": {
            "verdict": "feasible" if rep.feasible else "infeasible",
            "witness": rep.witness,
        },
        "lower_bounds": rep.as_dict(),
    }
    kind = cfg.topology_kind
    if kind == "tree" and cfg.t_h == 1:
        frag["reference_region"] = bounds_mod.reference_region(
            "tree", U=cfg.topology.K, V=cfg.topology.m, T=cfg.t_u).as_dict()
    elif kind == "cyclic" and cfg.t_h == 1 and cfg.t_u == 0:
        frag["reference_region"] = bounds_mod.reference_region(
            "cyclic_nocollusion", K=cfg.topology.K, n=cfg.topology.n).as_dict()
    if cfg.topology.N == cfg.topology.K and cfg.topology.n == 2 and cfg.t_h == 1:
        frag["pair_cyclic_region"] = bounds_mod.pair_cyclic_region(
            cfg.topology.N, cfg.t_u).as_dict()
    return frag


def verify_blocks(cfg: RunConfig, scheme: Scheme, all_sizes: Optional[bool]) -> tuple[dict, bool]:
    """Run decodability, the structural checks and one sweep by both routes; return (report, ok)."""
    deco = verify_mod.check_decodability(scheme, width=cfg.block_width, seed=cfg.seed,
                                         cap=cfg.enumeration_cap)
    rank_sweep, oracle_sweep = verify_mod.sweep_security(
        scheme, cfg.t_h, cfg.t_u, budget=cfg.sweep_budget, all_sizes=all_sizes,
        width=cfg.block_width, oracle_cap=cfg.enumeration_cap, seed=cfg.seed)
    if scheme.variant == VARIANT_LINK_KEYS:
        structural = {"mask_cancellation": link_key_constraint_ok(scheme)}
        structural_ok = structural["mask_cancellation"]
    else:
        conds = check_weighted_conditions(scheme)
        structural = asdict(conds)
        structural_ok = conds.all_hold
    blocks = {
        "decodability": deco.as_dict(),
        "structural": structural,
        "security_rank": rank_sweep.as_dict(),
        "security_oracle": oracle_sweep.as_dict(),
    }
    ok = deco.passed and structural_ok and rank_sweep.all_passed and oracle_sweep.all_passed
    return blocks, ok


def _comparison_rows(achieved, lower: bounds_mod.BoundsReport) -> list[dict]:
    pairs = [
        ("r_x", achieved.r_x, lower.comm_lower[0]),
        ("r_y", achieved.r_y, lower.comm_lower[1]),
        ("r_z", achieved.r_z, lower.rz_lower),
        ("r_zsigma", achieved.r_zsigma, lower.rzsigma_lower),
    ]
    rows = []
    for name, got, low in pairs:
        if low is None:
            status = "no-known-bound"
        elif got == low:
            status = "optimal"
        elif got > low:
            status = "achievable-not-tight"
        else:
            status = "defect"
        rows.append({
            "rate": name,
            "achieved": str(got),
            "lower": None if low is None else str(low),
            "status": status,
        })
    return rows


def _converse_block(cfg: RunConfig, scheme: Scheme) -> dict:
    try:
        return verify_mod.converse_spot_checks(scheme, width=cfg.block_width,
                                               cap=cfg.enumeration_cap).as_dict()
    except TooLargeToEnumerate:  # past the cap, or an image too wide to key
        return {"skipped": "cap"}


def report_document(cfg: RunConfig, all_sizes: Optional[bool]) -> tuple[dict, bool]:
    t0 = time.monotonic()
    lower = bounds_mod.bounds_report(cfg.topology, cfg.t_h, cfg.t_u, cap=cfg.enumeration_cap)
    doc = bounds_fragment(cfg, lower) | {"schema": REPORT_SCHEMA}
    if not lower.feasible:
        doc["verdict"] = "infeasible"
        doc["timing"] = {"seconds": round(time.monotonic() - t0, 3)}
        return doc, False

    scheme = build_scheme(cfg)
    doc["scheme"] = {"variant": cfg.scheme_variant, "seed_count": scheme.seed_count}
    achieved = rates(scheme)
    doc["achieved"] = achieved.as_dict()
    doc["comparison"] = _comparison_rows(achieved, lower)
    blocks, ok = verify_blocks(cfg, scheme, all_sizes)
    doc.update(blocks)
    # the enumerated key identities are guaranteed only in the bounds' special case
    if lower.special_case == bounds_mod.SPECIAL_CASE_PAIR_CYCLIC:
        doc["converse"] = _converse_block(cfg, scheme)
    defect = any(row["status"] == "defect" for row in doc["comparison"])
    doc["verdict"] = "pass" if (ok and not defect) else "fail"
    doc["timing"] = {"seconds": round(time.monotonic() - t0, 3)}
    return doc, ok and not defect


# -- argparse commands ---------------------------------------------------------


def cmd_bounds(args) -> int:
    cfg = load_config(args.config)
    out = _output_path(args.out)
    frag = bounds_fragment(cfg, bounds_mod.bounds_report(cfg.topology, cfg.t_h, cfg.t_u,
                                                         cap=cfg.enumeration_cap))
    dump_json(frag, out)
    if args.expect_feasible and frag["feasibility"]["verdict"] != "feasible":
        return _EXIT_VERIFICATION
    return _EXIT_OK


def cmd_build(args) -> int:
    cfg = load_config(args.config)
    out = _output_path(args.out or cfg.outputs.get("scheme"))
    if out is None:
        raise ConfigError("no output path: pass --out or set outputs.scheme")
    dump_json(build_scheme(cfg).to_dict(), out)
    return _EXIT_OK


def _load_scheme_for(cfg: RunConfig, path: str) -> Scheme:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        scheme = Scheme.from_dict(_object(doc, "scheme file"))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            InvalidArgument) as exc:
        raise ConfigError(f"cannot read scheme {path}: {exc}") from exc
    if scheme.topology != cfg.topology:
        raise ConfigError("scheme file topology does not match the config")
    if scheme.field != cfg.field:
        raise ConfigError("scheme file field does not match the config")
    return scheme


def cmd_verify(args) -> int:
    cfg = load_config(args.config)
    out = _output_path(args.out)
    scheme = _load_scheme_for(cfg, args.scheme)
    all_sizes = True if args.all_sizes else None
    blocks, ok = verify_blocks(cfg, scheme, all_sizes)
    doc = {"schema": REPORT_SCHEMA, "config": cfg.raw,
           "verdict": "pass" if ok else "fail"} | blocks
    dump_json(doc, out)
    return _EXIT_OK if ok else _EXIT_VERIFICATION


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    out = _output_path(args.out or cfg.outputs.get("transcript"))
    scheme = _load_scheme_for(cfg, args.scheme)
    rng = np.random.default_rng(cfg.seed)
    inputs = [FieldMatrix(cfg.field, cfg.field.rand(rng, (cfg.topology.n, cfg.block_width)))
              for _ in range(cfg.topology.N)]
    transcript = run_round(scheme, inputs, seed=cfg.seed)
    doc = transcript.to_dict()
    doc["direct_sum"] = direct_sum(scheme, inputs).tolist()
    dump_json(doc, out)
    print(f"decoded == direct sum: {not transcript.mismatch}", file=sys.stderr)
    return _EXIT_OK if not transcript.mismatch else _EXIT_VERIFICATION


def cmd_report(args) -> int:
    cfg = load_config(args.config)
    out = _output_path(args.out or cfg.outputs.get("report"))
    all_sizes = True if args.all_sizes else None
    doc, ok = report_document(cfg, all_sizes)
    dump_json(doc, out)
    return _EXIT_OK if ok else _EXIT_VERIFICATION


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsa-lab",
        description="Build, verify and simulate hierarchical secure aggregation codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, scheme_arg=False, expect_feasible=False, all_sizes=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output path (default: stdout/config)")
        if scheme_arg:
            p.add_argument("--scheme", required=True, help="path to a built scheme file")
        if expect_feasible:
            p.add_argument("--expect-feasible", action="store_true",
                           help="exit nonzero if the parameters are infeasible")
        if all_sizes:
            p.add_argument("--all-sizes", action="store_true",
                           help="sweep every sub-pattern, not only maximal ones")
        return p

    add("bounds", "feasibility verdict and rate lower bounds", expect_feasible=True)
    add("build", "construct a scheme and write it to disk")
    add("verify", "check decodability and security of a scheme file",
        scheme_arg=True, all_sizes=True)
    add("simulate", "run one aggregation round and write the transcript", scheme_arg=True)
    add("report", "one-shot pipeline: bounds + build + verify + rates", all_sizes=True)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """make_parser's parser, built on the first main call, not at import, and
    reused: parsing an argv leaves it unchanged."""
    return make_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # command `name` runs cmd_<name>, looked up per call: the cached parser pins no function
        return globals()[f"cmd_{args.command}"](args)
    except HsaLabError as exc:
        # a ConfigError, or work past a cap the run cannot skip, is the config's to change
        if isinstance(exc, (ConstructionFailed, ProtocolViolation)):
            print(f"run failed: {exc}", file=sys.stderr)
            return _EXIT_VERIFICATION
        print(f"configuration error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except MemoryError as exc:
        # e.g. variant A at q near 2^31 draws from a q-element permutation
        print(f"run failed: out of memory ({str(exc) or 'allocation failed'})", file=sys.stderr)
        return _EXIT_VERIFICATION


if __name__ == "__main__":
    sys.exit(main())

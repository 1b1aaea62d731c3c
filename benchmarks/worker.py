"""One workload in a fresh interpreter: set up, run timed passes, check outputs.

Started by run.py.  It prints ``ready`` once ``hsa_lab.cli`` is imported and
the workload's config files are written (run.py times set-up up to that
line), then, unless ``--setup-only``, runs passes until ``--seconds`` would
be exceeded and prints one JSON line with the measured values.

``--trace 0``: untraced passes; reports wall and CPU seconds per pass and
the process's peak RSS.  ``--trace 1``: alternating untraced and traced
passes after one warm-up pass; reports the per-layer values of the traced
passes and the tracing overhead (traced minus untraced wall time).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import hsa_lab.cli  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS, summarize_build, summarize_report  # noqa: E402


# per-layer values that must repeat exactly from one traced pass to the next
REPEATABLE = (".calls", ".minors", ".attempts", ".columns", ".skipped", ".states")


class Workload:
    """A workload's invocations bound to config and output files in `work`."""

    def __init__(self, invocations, seed: int, work: Path):
        self.seed = seed
        self.invocations = invocations
        self.work = work
        for inv in self.invocations:
            self.config_path(inv).write_text(
                json.dumps(inv.config(seed), indent=2, sort_keys=True) + "\n", encoding="utf-8")
        self.digests: dict[str, str] = {}     # build outputs checked in an earlier pass
        self.verify_s = 0.0                   # seconds spent in one-off verifies
        self.failed = 0
        self.attempted = 0
        self.problems: list[str] = []

    def config_path(self, inv) -> Path:
        return self.work / f"{inv.id}.config.json"

    def out_path(self, inv) -> Path:
        return self.work / f"{inv.id}.{inv.command}.json"

    def run_pass(self) -> dict:
        """One closed-loop pass; outputs are checked after the timed region."""
        codes = []
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for inv in self.invocations:
            try:
                codes.append(hsa_lab.cli.main(inv.argv(self.config_path(inv), self.out_path(inv))))
            except Exception:
                traceback.print_exc()
                codes.append(None)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        out_bytes = 0
        for inv, code in zip(self.invocations, codes):
            self.attempted += 1
            problem = self.check(inv, code)
            if problem:
                self.failed += 1
                self.problems.append(f"{inv.id}: {problem}")
            elif self.out_path(inv).exists():
                out_bytes += self.out_path(inv).stat().st_size
        return {"wall": wall, "cpu": cpu, "out_bytes": out_bytes}

    def check(self, inv, code) -> str | None:
        if code is None:
            return "raised"
        try:
            if inv.command == "report":
                got = summarize_report(code, self.out_path(inv))
                return None if got == inv.expect else f"got {got}, expected {inv.expect}"
            got = summarize_build(code, self.out_path(inv))
        except (OSError, KeyError, ValueError) as exc:
            return f"unreadable output ({exc!r}), exit {code}"
        if got["exit"] != inv.expect["exit"]:
            return f"exit {got['exit']}, expected {inv.expect['exit']}"
        if self.seed == 0:
            want = inv.expect["sha256"]
        else:
            # digests are pinned for seed 0 only: verify the first build of
            # each scheme (untimed), then require later passes to repeat it
            want = self.digests.get(inv.id)
            if want is None:
                problem = self.verify_build(inv)
                if problem:
                    return problem
                want = self.digests[inv.id] = got["sha256"]
        return None if got["sha256"] == want else f"scheme sha256 {got['sha256']}, expected {want}"

    def verify_build(self, inv) -> str | None:
        out = self.work / f"{inv.id}.verify.json"
        start = time.perf_counter()
        code = hsa_lab.cli.main(["verify", "--config", str(self.config_path(inv)),
                                 "--scheme", str(self.out_path(inv)), "--out", str(out)])
        self.verify_s += time.perf_counter() - start
        verdict = json.loads(out.read_text(encoding="utf-8"))["verdict"]
        return None if (code, verdict) == (0, "pass") else f"verify gave exit {code}, {verdict}"


def layer_metrics(t: Tracer, wall: float, out_bytes: int) -> dict:
    """Per-layer values of one traced pass, keyed by BENCHMARK.json names."""
    def ratio(a, b):
        return a / b if b else 0.0

    builds = [f"schemes.build_scheme_{v}" for v in "abc"]
    oracle_calls = t.calls["verify.mi_oracle"]
    skipped = t.tallies["verify.mi_oracle.skipped"]
    attempts = t.under("schemes.build_scheme_b", "gf.cauchy")
    m = {
        "gf.rank.calls": t.calls["gf.rank"],
        "gf.rank.self_s": t.self_s["gf.rank"],
        "gf.rank.us_per_call": 1e6 * ratio(t.total["gf.rank"], t.calls["gf.rank"]),
        "gf.mds_check.calls": t.calls["gf.mds_check"],
        "gf.mds_check.minors": t.under("gf.mds_check", "gf.rank"),
        "gf.mds_check.total_s": t.total["gf.mds_check"],
        "gf.inverse.calls": t.calls["gf.inverse"],
        "gf.inverse.self_s": t.self_s["gf.inverse"],
        "gf.matmul.calls": t.calls["gf.matmul"],
        "gf.matmul.self_s": t.self_s["gf.matmul"],
        "topology.collusion_threshold.calls": t.calls["topology.collusion_threshold"],
        "topology.collusion_threshold.self_s": t.self_s["topology.collusion_threshold"],
        "bounds.bounds_report.total_s": t.total["bounds.bounds_report"],
        "schemes.build.calls": sum(t.calls[b] for b in builds),
        "schemes.build.total_s": sum(t.total[b] for b in builds),
        "schemes.build.self_s": sum(t.self_s[b] for b in builds),
        "schemes.build_scheme_b.attempts": attempts,
        "schemes.build_scheme_b.accept_ratio": ratio(t.calls["schemes.build_scheme_b"], attempts),
        "schemes.check_weighted_conditions.total_s": t.total["schemes.check_weighted_conditions"],
        "protocol.run_round.calls": t.calls["protocol.run_round"],
        "protocol.run_round.self_s": t.self_s["protocol.run_round"],
        "protocol.run_round.columns": t.tallies["protocol.run_round.columns"],
        "protocol.run_round.columns_per_s": ratio(t.tallies["protocol.run_round.columns"],
                                                  t.total["protocol.run_round"]),
        "verify.rank_leak.calls": t.calls["verify.rank_leak"],
        "verify.rank_leak.self_s": t.self_s["verify.rank_leak"],
        "verify.rank_leak.us_per_call": 1e6 * ratio(t.total["verify.rank_leak"],
                                                    t.calls["verify.rank_leak"]),
        "verify.adversary_view.self_s": t.self_s["verify.adversary_view"],
        "verify.sweep_security.self_s": t.self_s["verify.sweep_security"],
        "verify.mi_oracle.calls": oracle_calls,
        "verify.mi_oracle.skipped": skipped,
        "verify.mi_oracle.run_ratio": ratio(oracle_calls - skipped, oracle_calls),
        "verify.mi_oracle.states": t.tallies["verify.mi_oracle.states"],
        "verify.mi_oracle.self_s": t.self_s["verify.mi_oracle"],
        "verify.mi_oracle.states_per_s": ratio(t.tallies["verify.mi_oracle.states"],
                                               t.total["verify.mi_oracle"]),
        "verify.check_decodability.total_s": t.total["verify.check_decodability"],
        "verify.cond_entropy_enumerated.calls": t.calls["verify.cond_entropy_enumerated"],
        "cli.main.calls": t.calls["cli.main"],
        "cli.out_bytes": out_bytes,
        "trace.traced_wall_s": wall,
    }
    for layer in LAYERS:
        m[f"{layer}.calls"] = t.layer_calls(layer)
        m[f"{layer}.self_s"] = t.layer_self(layer)
    return m


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    """Run passes until another one would end after `seconds`.

    The one-off verifies of build outputs are not part of the measured time.
    """
    start = time.perf_counter()
    plain, traced = [], []
    if trace:
        # the first pass of a process runs slower; keep it out of the overhead
        workload.run_pass()
    while True:
        plain.append(workload.run_pass())
        if trace:
            with Tracer() as t:
                p = workload.run_pass()
            traced.append(layer_metrics(t, p["wall"], p["out_bytes"]))
        elapsed = time.perf_counter() - start - workload.verify_s
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break
    result = {"attempted": workload.attempted, "failed": workload.failed,
              "problems": workload.problems, "passes": len(plain)}
    if not trace:
        result["metrics"] = {
            "wall_s": statistics.median(p["wall"] for p in plain),
            "cpu_s": statistics.median(p["cpu"] for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return result
    counts = [{k: v for k, v in m.items() if k.endswith(REPEATABLE)} for m in traced]
    if any(c != counts[0] for c in counts):
        result["problems"].append(f"traced passes disagree on counts: {counts}")
    metrics = {k: v if isinstance(v, int) else statistics.median(m[k] for m in traced)
               for k, v in traced[0].items()}
    untraced = statistics.median(p["wall"] for p in plain)
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - untraced
    metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / untraced
    result["metrics"] = metrics
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    workload = Workload(WORKLOADS[args.workload], args.seed, args.work_dir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(run(workload, args.seconds, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

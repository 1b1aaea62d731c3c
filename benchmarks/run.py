"""hsa-lab benchmark: closed-loop CLI workloads in fresh processes.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload oracle --seed 0 --seconds 60 --trace 0
    python3 benchmarks/run.py --workload all

The workloads are defined in workloads.py.  BENCHMARK.json lists the ones
whose metrics gate a change (``oracle`` and ``rank``); ``construct`` runs with
``--workload construct`` or ``all`` (NOTES.md says why it is not gated).

Each workload runs in its own fresh interpreter (worker.py) that calls
``hsa_lab.cli.main`` in-process, one invocation after another.  Set-up time
is measured on that process and on SETUP_PROBES more that only set up.  The
metric names and units come from BENCHMARK.json at the checkout root:
``--trace 0`` reports its ``end_to_end`` list, ``--trace 1`` its
``per_layer`` list.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; earlier lines give
the environment and a readable summary.  Exit status is 0 only when every
metric was measured; a run whose outputs are wrong still exits 0 with
``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 4
TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict:
    """Users' default: HSA_LAB_THREADS unset, BLAS/OpenMP pinned to one thread."""
    env = dict(os.environ)
    env.pop("HSA_LAB_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def environment(env: dict) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, env={**env, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "HSA_LAB_THREADS": env.get("HSA_LAB_THREADS"),
        **{var: env[var] for var in THREAD_VARS},
    }


def start_worker(args: list[str], env: dict, deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; return it with its set-up seconds."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"worker did not set up (exit {proc.returncode})")
    if time.monotonic() > deadline:
        stop(proc)
        raise BenchError("set-up overran the time limit")
    return proc, setup


def stop(proc: subprocess.Popen):
    if proc.poll() is None:
        proc.kill()
    proc.wait()
    proc.stdout.close()


def run_workload(name: str, seed: int, seconds: int, trace: bool, env: dict) -> dict:
    deadline = time.monotonic() + TIMEOUT_S
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        common = ["--workload", name, "--seed", str(seed)]
        setups = []
        for k in range(SETUP_PROBES):
            probe_dir = work / f"probe{k}"
            probe_dir.mkdir()
            proc, setup = start_worker([*common, "--work-dir", str(probe_dir), "--setup-only"],
                                       env, deadline)
            stop(proc)
            setups.append(setup)
        proc, setup = start_worker([*common, "--seconds", str(seconds), "--trace", str(int(trace)),
                                    "--work-dir", str(work)], env, deadline)
        setups.append(setup)
        try:
            out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload {name} overran {TIMEOUT_S} s") from None
        finally:
            stop(proc)
        if proc.returncode != 0 or not out.strip():
            raise BenchError(f"worker for {name} exited {proc.returncode}")
        result = json.loads(out.strip().splitlines()[-1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(setups)
    return result


def report_line(name: str, result: dict, specs: list[dict]) -> dict:
    """Print a readable summary; return the metrics named in `specs`, with units."""
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: {result['passes']} passes, {attempted} invocations, {failed} failed, "
          f"failed_frac = {failed / attempted:.4f}")
    for problem in result["problems"]:
        print(f"{name}: CHECK FAILED {problem}")
    metrics = {}
    for spec in specs:
        if spec["name"] not in result["metrics"]:
            raise BenchError(f"metric {spec['name']} was not measured")
        value = result["metrics"][spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name}: {spec['name']} = {shown} {spec['unit']}")
    return metrics


def main(argv=None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file() or not (ROOT / "src" / "hsa_lab" / "cli.py").is_file():
        print("error: run from a checkout that holds BENCHMARK.json and src/hsa_lab",
              file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description="Run the hsa-lab benchmark.")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    specs = bench["per_layer" if args.trace else "end_to_end"]
    # on SIGTERM, unwind so that the worker is stopped and its files removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    env = child_env()
    print("environment: " + json.dumps(environment(env), sort_keys=True))
    chosen = list(WORKLOADS) if args.workload == "all" else [args.workload]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        for name in chosen:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace), env)
            metrics = report_line(name, result, specs)
            total["correct"] &= result["failed"] == 0 and not result["problems"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            prefix = "" if len(chosen) == 1 else f"{name}."
            total["metrics"].update({prefix + k: v for k, v in metrics.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(total))
    return 0


if __name__ == "__main__":
    sys.exit(main())

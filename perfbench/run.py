#!/usr/bin/env python3
"""Host-time benchmark of the ssomp simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 30 --trace 0

Builds perfbench/ together with the simulator sources it compiles into
.bench_build/perfbench, runs one measurement, checks the simulated
results against perfbench/fingerprints.json, and prints one JSON result
line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--record` rewrites perfbench/fingerprints.json from seed-0 runs. Use it
only for a change that is meant to alter simulated results.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
FINGERPRINTS = HERE / "fingerprints.json"
CI_SMOKE_BASELINE = ROOT / "bench" / "baselines" / "ci_smoke_sweep.json"
WORKLOADS = ("paper_grid", "tiny_mix", "modelcheck")
DEFAULT_SEED = 0
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns the binary."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        subprocess.run(cmd, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    return BUILD / "perfbench"


def run_binary(exe, workload, seed, seconds, trace):
    """Runs one measurement; returns (human-readable lines, report)."""
    work = BUILD / "work" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [str(exe), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--plans", str(HERE / "plans"), "--work", str(work)]
    proc = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines[:-1], json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def fingerprint_checks(workload, report, expected):
    """Yields (ok, why) per fingerprint: the simulated results recorded for
    the default seed, which a host-only change must reproduce exactly."""
    want = expected[workload]
    if workload == "modelcheck":
        bad = [c for c in report["checker_counts"] if c != want]
        yield not bad, f"checker counts {bad[:1]} differ from {want}"
        return
    for plan, path in report["aggregates"].items():
        ok = plan in want and sha256(path) == want[plan]["sha256"]
        yield ok, f"{plan}: aggregate differs from the recorded fingerprint"
    if workload == "tiny_mix":
        ci = Path(report["aggregates"]["ci-smoke"]).read_bytes()
        ok = CI_SMOKE_BASELINE.exists() and CI_SMOKE_BASELINE.read_bytes() == ci
        yield ok, f"ci-smoke: aggregate differs from {CI_SMOKE_BASELINE.name}"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def record(exe):
    out = {"default_seed": DEFAULT_SEED}
    for workload in WORKLOADS:
        _, report = run_binary(exe, workload, DEFAULT_SEED, 1, 0)
        if report["failed"]:
            sys.exit(f"perfbench: {workload} failed: {report['reasons']}")
        if workload == "modelcheck":
            out[workload] = report["checker_counts"][0]
        else:
            out[workload] = {
                plan: {"sha256": sha256(path)}
                for plan, path in report["aggregates"].items()
            }
    FINGERPRINTS.write_text(json.dumps(out, indent=2) + "\n")
    log(f"wrote {FINGERPRINTS}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite fingerprints.json from seed-0 runs")
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not args.record and args.workload is None:
        ap.error("--workload is required")

    try:
        exe = build()
        if args.record:
            record(exe)
            return 0
        lines, report = run_binary(exe, args.workload, args.seed,
                                   args.seconds, args.trace)
        expected = json.loads(FINGERPRINTS.read_text())
        names = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError, subprocess.SubprocessError) as e:
        log(f"failed: {e}")
        return 1

    metrics = report["metrics"]
    if list(metrics) != names:
        log(f"metrics {list(metrics)} do not match BENCHMARK.json {names}")
        return 1
    attempted, failed = report["attempted"], report["failed"]
    reasons = list(report["reasons"])
    for ok, why in fingerprint_checks(args.workload, report, expected):
        attempted += 1
        if not ok:
            failed += 1
            reasons.append(why)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": report["compiler"],
        "build_type": report["build_type"],
        "jobs": 1,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({"environment": env, "report": report,
                              "result": result}, indent=2) + "\n")

    for line in lines:
        print(line)
    if "point_tail" in report:
        t = report["point_tail"]
        print(f"  point_tail_ms is p{t['percentile']:.2f} of {t['samples']} "
              f"samples, {t['beyond']} beyond it")
    print("environment: " + json.dumps(env))
    for reason in reasons:
        print(f"FAILED: {reason}")
    print(f"  {'fail_frac':<26} {failed / attempted:18.9g} "
          f"({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

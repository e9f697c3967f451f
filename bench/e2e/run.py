#!/usr/bin/env python3
"""End-to-end benchmark of the sinet pipelines (see bench/e2e/README.md).

    python3 bench/e2e/run.py [--workload W] [--repeats N] [--seed S]
                             [--seconds S] [--trace [0|1]] [--smoke]

Builds bench/e2e in Release into build-bench/, then runs each
(workload, repeat) in a fresh sinet_bench_e2e process, interleaving the
workloads across repeats. Every run checks its outputs; a failed check
makes the exit status nonzero. Prints one line per metric,
`workload/metric value unit (median, IQR, min, n)`, writes
build-bench/e2e_results.json, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.

Without --workload every workload runs (5 repeats by default, 1 with
--trace). With --workload only that workload runs (1 repeat by default),
and the final line's metrics are keyed by metric name, as BENCHMARK.json
lists them. --trace runs the per-layer variant instead: a Chrome trace
per workload in build-bench/trace/ and a layer table; its metrics are
BENCHMARK.json's per-layer metrics (0 for a layer the workload does not
use). --smoke runs every workload at a tiny size, untraced and traced,
and checks that BENCHMARK.json names exactly what this script emits.

Outside --smoke, a run does not start while the 1-minute load average
exceeds the core count and more tasks than cores are runnable right now
(see host_busy): it waits up to LOAD_WAIT_S for that to end, then refuses.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / "build-bench"
BENCH = BUILD / "sinet_bench_e2e"
CLI = BUILD / "sinet" / "examples" / "sinet"
SPEC = ROOT / "BENCHMARK.json"

WORKLOADS = ["campaign-30d", "contact-plan-30d", "dts-trace-2k",
             "dts-fleet-10k", "serve-zipf"]


def finite(f, values):
    """f(values), or None (not finite) when a value is null."""
    return None if None in values else f(values)


# End-to-end metrics of one run, from its sinet_bench_e2e report. A run's
# wall_s is its fastest unit: every unit does the same work, and the
# host's interference only ever adds time to a unit.
E2E_METRICS = {
    "wall_s": lambda r: finite(min, r["wall_s"]),
    "setup_s": lambda r: finite(statistics.median, r["setup_s"]),
    "peak_rss_mb": lambda r: r["peak_rss_mb"],
}

LOAD_WAIT_S = 30


def run_timeout_s(seconds):
    """Per-run limit. A traced serve run takes about 2.5x --seconds plus
    up to 5 s of drain per capacity probe and a few server starts; an
    untraced run ends within --seconds or after its minimum units."""
    return 3 * seconds + 60


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log(f"run.py: {message}")
    sys.exit(2)


def load_spec():
    try:
        return json.loads(SPEC.read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read {SPEC}: {e}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no sinet sources at {ROOT}; run from a full checkout")
    steps = [["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)]]
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.insert(0, configure)
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    for binary in (BENCH, CLI):
        if not binary.is_file():
            fail(f"build did not produce {binary}")


def loadavg():
    try:
        return float(Path("/proc/loadavg").read_text().split()[0])
    except (OSError, ValueError, IndexError):
        return float("nan")


def runnable_now(window_s=1.0):
    """Mean count of runnable tasks over window_s, not counting this one:
    the quantity the load average smooths, read over one second."""
    samples = []
    end = time.monotonic() + window_s
    while time.monotonic() < end:
        try:
            field = Path("/proc/loadavg").read_text().split()[3]
            samples.append(int(field.split("/")[0]) - 1)
        except (OSError, ValueError, IndexError):
            return float("nan")
        time.sleep(0.05)
    return statistics.mean(samples)


def host_busy(nproc):
    """The 1-minute load average exceeds the core count, and not only
    because of this benchmark's previous run: that run has ended, yet the
    average counts it for a minute more. So the host must also have more
    runnable tasks than cores right now."""
    return loadavg() > nproc and runnable_now() > nproc


def wait_for_quiet_host(nproc):
    deadline = time.monotonic() + LOAD_WAIT_S
    while host_busy(nproc):
        if time.monotonic() > deadline:
            fail(f"1-minute load average {loadavg()} exceeds {nproc} cores "
                 "and the host is busy; the numbers would not be comparable")
        time.sleep(2)


def provenance(seed, seconds):
    def cache_value(key):
        try:
            for line in (BUILD / "CMakeCache.txt").read_text().splitlines():
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1]
        except OSError:
            pass
        return ""

    # git must not look for a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def command(cmd):
        try:
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                 text=True, timeout=30, env=env)
            return out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            return None

    compiler = cache_value("CMAKE_CXX_COMPILER")
    version = command([compiler, "--version"]) if compiler else None
    revision = command(["git", "rev-parse", "HEAD"])
    status = command(["git", "status", "--porcelain"]) if revision else None
    return {
        "nproc": os.cpu_count(),
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "compiler": version.splitlines()[0] if version else compiler,
        "git_revision": revision or "unknown",
        "git_dirty": bool(status) if revision else None,
        "seed": seed,
        "run_seconds": seconds,
    }


def run_once(workload, seed, seconds, smoke, traced):
    cmd = [str(BENCH), workload, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        (BUILD / "trace").mkdir(exist_ok=True)
        cmd += ["--trace", str(BUILD / "trace" / f"{workload}.json")]
    if workload == "serve-zipf":
        work = BUILD / "work"
        work.mkdir(exist_ok=True)
        cmd += ["--cli", str(CLI), "--work-dir", str(work)]
    if not smoke:
        wait_for_quiet_host(os.cpu_count() or 1)
    before = loadavg()
    timeout = run_timeout_s(seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"{workload} failed (exit {proc.returncode})")
    report = json.loads(lines[-1])
    report["exit_status"] = proc.returncode
    report["loadavg_before"] = before
    report["loadavg_after"] = loadavg()
    return report


def summary(values):
    values = sorted(values)
    if len(values) >= 2:
        q = statistics.quantiles(values, n=4)
        iqr = q[2] - q[0]
    else:
        iqr = 0.0
    return {"median": statistics.median(values), "iqr": iqr,
            "min": values[0], "n": len(values), "values": values}


def fmt(x):
    return f"{x:.6g}"


def check_names(spec, emitted_e2e, emitted_layers, workloads):
    """--smoke: BENCHMARK.json must name exactly what this script emits."""
    problems = []
    if [w["name"] for w in spec["workloads"]] != workloads:
        problems.append("workloads differ from " + ", ".join(workloads))
    listed_e2e = {m["name"] for m in spec["end_to_end"]}
    if listed_e2e != emitted_e2e:
        problems.append(f"end_to_end {sorted(listed_e2e ^ emitted_e2e)}")
    listed_layers = {m["name"] for m in spec["per_layer"]}
    if listed_layers != emitted_layers:
        problems.append(f"per_layer {sorted(listed_layers ^ emitted_layers)}")
    for p in problems:
        log(f"BENCHMARK.json mismatch: {p}")
    return not problems


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--repeats", type=int)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    workloads = [args.workload] if args.workload else WORKLOADS
    repeats = args.repeats or \
        (1 if args.workload or args.smoke or args.trace else 5)
    seconds = args.seconds or (1.0 if args.smoke else spec["run_seconds"])
    if repeats < 1 or seconds <= 0 or args.seed < 1:
        fail("--repeats, --seconds and --seed must be positive")

    build()
    info = provenance(args.seed, seconds)

    modes = [False, True] if args.smoke else [bool(args.trace)]
    reports = {}  # (workload, traced) -> [report]
    for traced in modes:
        for _ in range(repeats):
            for w in workloads:
                log(f"run.py: {w}{' (traced)' if traced else ''} "
                    f"seed {args.seed}")
                reports.setdefault((w, traced), []).append(
                    run_once(w, args.seed, seconds, args.smoke, traced))

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    results = {}
    final_metrics = {}
    emitted_layers = set()
    correct = True
    attempted = failed = 0
    for (w, traced), runs in reports.items():
        for r in runs:
            correct = correct and r["exit_status"] == 0 and \
                all(r["checks"].values())
            attempted += r["attempted"]
            failed += r["failed"]
        entry = results.setdefault(w, {"runs": {}})
        entry["runs"]["traced" if traced else "untraced"] = runs
        if traced:
            for r in runs:
                emitted_layers |= set(r["metrics"])
            names = [m["name"] for m in spec["per_layer"]]
            per_run = {n: [r["metrics"].get(n, 0.0) for r in runs]
                       for n in names}
            total_name, total = runs[-1]["layer_total"]
            entry["layer_total"] = [total_name, total]
            entry["layers"] = runs[-1]["layers"]
            print(f"{w} layer table ({total_name} = {fmt(total)}):")
            for name, value in runs[-1]["layers"]:
                share = 100.0 * value / total if total else 0.0
                print(f"  {name:<28} {fmt(value):>10} {units.get(name, '')}"
                      f"  {share:5.1f}%")
        else:
            per_run = {n: [f(r) for r in runs]
                       for n, f in E2E_METRICS.items() if n in units}
        stats = entry.setdefault("per_layer" if traced else "end_to_end", {})
        for name, values in per_run.items():
            # A non-finite value reaches here as null. It is no measurement,
            # and no stand-in number may replace it: the run fails.
            if any(v is None for v in values):
                fail(f"{w}/{name} was not finite in some run")
            s = summary(values)
            s["unit"] = units.get(name, "")
            stats[name] = s
            key = name if args.workload else f"{w}/{name}"
            final_metrics[key] = {"value": s["median"], "unit": s["unit"]}
            if traced and not any(name in r["metrics"] for r in runs):
                continue  # a layer this workload does not use
            print(f"{w}/{name} {fmt(s['median'])} {s['unit']} "
                  f"(median {fmt(s['median'])}, IQR {fmt(s['iqr'])}, "
                  f"min {fmt(s['min'])}, n {s['n']})")

    if args.smoke and not args.workload:
        ok = check_names(spec, set(E2E_METRICS), emitted_layers, WORKLOADS)
        correct = correct and ok
    BUILD.mkdir(exist_ok=True)
    (BUILD / "e2e_results.json").write_text(json.dumps(
        {"provenance": info, "smoke": args.smoke, "results": results},
        indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

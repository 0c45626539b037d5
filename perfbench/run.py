#!/usr/bin/env python3
"""The benchmark's one command: builds the benchmark from source, runs a
workload, prints a report, and prints the result as one JSON object on the
last stdout line.

  python3 perfbench/run.py --workload orbit_read --seed 42 --trace 0
  python3 perfbench/run.py              # every workload, one after another
  python3 perfbench/run.py --self-test  # short runs that check the benchmark

Run it from the repository root. It builds into .bench_build/ (CMake, the
package in this directory) and reads and writes nothing outside the
checkout. README.md describes the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Fresh processes per run for the cold set-up time: one cold set-up varies
# by a third from process to process, so a run takes at least 11 and keeps
# going while they are cheap.
SETUP_PROCESSES = (11, 41)
SETUP_SECONDS = 1.5
# Fresh processes per traced run for the cold key-space build.
BUILD_PROCESSES = 5
# Every benchmark process must end well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def log(msg=""):
    print(msg, flush=True)


def spec():
    with open(SPEC) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; build output goes to stderr
    so the last stdout line stays the result."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise BenchError("no src/ beside perfbench/: nothing to build")
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)


def bench(*args):
    """Runs one benchmark process and returns its JSON document."""
    proc = subprocess.run([BINARY, *args], stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=PROCESS_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("perfbench %s exited %d" %
                         (" ".join(args), proc.returncode))
    return json.loads(lines[-1])


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def environment():
    def cpu_model():
        try:
            with open("/proc/cpuinfo") as f:
                for line in f:
                    if line.startswith("model name"):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    def git_rev():
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
        return "none (not a git checkout)"

    def source_digest():
        # Identifies the code measured when there is no git revision.
        h = hashlib.sha256()
        for base in ("src", "perfbench"):
            top = os.path.join(ROOT, base)
            for dirpath, dirnames, filenames in os.walk(top):
                dirnames.sort()
                for name in sorted(filenames):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
        return h.hexdigest()[:16]

    return {"nproc": os.cpu_count(), "cpu": cpu_model(), "git": git_rev(),
            "source_sha256": source_digest()}


def metric(value, unit):
    return {"value": value, "unit": unit}


def cold_setups(args, quick):
    """setup_s samples, each from a fresh process."""
    least, most = (1, 1) if quick else SETUP_PROCESSES
    setups = []
    start = time.monotonic()
    while len(setups) < least or (len(setups) < most and
                                  time.monotonic() - start < SETUP_SECONDS):
        setups.append(bench("setup", *args)["setup_s"])
    return setups


def run_workload(name, seed, seconds, trace, corrupt_pass=-1, quick=False):
    """One benchmark run; returns the result object. `quick` takes a single
    set-up sample (self-test)."""
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    env = environment()
    args = ["--workload", name, "--seed", str(seed)]
    run_args = ["run", *args, "--seconds", str(seconds)]
    if trace:
        run_args.append("--trace")
    if corrupt_pass >= 0:
        run_args += ["--corrupt-pass", str(corrupt_pass)]

    if trace:
        builds = [bench("build", *args)["build_s"]
                  for _ in range(BUILD_PROCESSES)]
    else:
        setups = cold_setups(args, quick)
    doc = bench(*run_args)

    sim = doc["sim"]
    walls = [p["wall_s"] for p in doc["passes"]]
    cpus = [p["cpu_s"] for p in doc["passes"]]
    correct = bool(doc["correct"]) and doc["verify"]["violations"] == 0
    attempted = int(doc["attempted"])

    log("== %s  seed %d  %s" % (name, seed, "traced run" if trace else
                                  "timed run"))
    log("   offered %.0f RPS, %d timed passes over %d sub-seeds, compiler %s, "
        "build %s" % (doc["offered_rps"], len(walls), doc["sub_seeds"],
                      doc["compiler"], doc["build_type"]))
    log("   nproc %s, cpu %s" % (env["nproc"], env["cpu"]))
    log("   git %s, source sha256 %s" % (env["git"], env["source_sha256"]))
    log("   correctness: %d timed + verify%s pass ResultMetrics JSON %s; "
        "verify %d violations over %d replies" %
        (len(walls), " + traced" if trace else "",
         "identical" if not doc["mismatches"] else "DIFFER",
         doc["verify"]["violations"], doc["verify"]["replies_checked"]))
    for m in doc["mismatches"]:
        log("   MISMATCH: %s" % m)
    by_cpu = {}
    for p in doc["passes"]:
        by_cpu.setdefault(p["on_cpu"], []).append(p["wall_s"])
    log("   wall_s median by CPU: %s" % ", ".join(
        "cpu%d %.4f s (n=%d)" % (c, statistics.median(w), len(w))
        for c, w in sorted(by_cpu.items())))

    samples = {"wall_s": walls, "cpu_s": cpus}
    if not trace:
        samples["setup_s"] = setups
    values = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": doc["peak_rss_mb"],
        "sim_rx_mrps": sim["rx_mrps"],
    }
    if not trace:
        values["setup_s"] = statistics.median(setups)
    log("   %-16s %14s %14s %14s %8s  %s" %
        ("metric", "median", "q1", "q3", "spread", "unit"))
    for name_, v in values.items():
        unit = bounds[name_]["unit"]
        if name_ in samples:
            q1, med, q3 = quartiles(samples[name_])
            spread = (q3 - q1) / med if med else 0
            flag = ("  SPREAD > bound %.2f" % bounds[name_]["bound"]
                    if spread > bounds[name_]["bound"] else "")
            log("   %-16s %14.6f %14.6f %14.6f %7.1f%%  %s  (n=%d)%s" %
                (name_, med, q1, q3, 100 * spread, unit, len(samples[name_]),
                 flag))
        else:
            log("   %-16s %14.6f %14s %14s %8s  %s" % (name_, v, "", "", "",
                                                     unit))
    log("   simulated outcome (deterministic for the seed): "
        "read p50 %.3f us, p99 %.3f us over %d reads; loss %.6f; "
        "%d events" % (sim["read_p50_us"], sim["read_p99_us"],
                       sim["read_samples"], sim["loss"], sim["events"]))

    if trace:
        per_layer = {m["name"]: m["unit"] for m in spec()["per_layer"]}
        t = doc["trace"]
        metrics = dict(t["metrics"])
        metrics["workload.build_s"] = metric(statistics.median(builds), "s")
        metrics["sim.read_p50_us"] = metric(sim["read_p50_us"], "us")
        metrics["sim.read_p99_us"] = metric(sim["read_p99_us"], "us")
        metrics["sim.read_samples"] = metric(sim["read_samples"], "count")
        metrics["sim.loss_frac"] = metric(sim["loss"], "ratio")
        log("   per-layer (traced pass %.3f s; timed median %.3f s):" %
            (t["traced_wall_s"], values["wall_s"]))
        for key in per_layer:
            log("     %-28s %18.6f %s" % (key, metrics[key]["value"],
                                          metrics[key]["unit"]))
        log("   estimated host time by layer (count x probe ns/op):")
        total = 0.0
        for r in t["layers"]:
            total += r["est_s"]
            log("     %-11s %-20s %14.0f x %9.2f ns = %8.4f s" %
                (r["layer"], r["work"], r["count"], r["ns_per_op"],
                 r["est_s"]))
        log("     explained %.4f s of the measured wall_s %.4f s (%.0f%%); "
            "the rest is unexplained" %
            (total, values["wall_s"], 100 * total / values["wall_s"]))
        metrics = {k: metrics[k] for k in per_layer}
    else:
        metrics = {k: metric(values[k], bounds[k]["unit"]) for k in bounds}

    return {"correct": correct, "attempted": attempted,
            "failed": 0 if correct else attempted, "metrics": metrics}


def self_test(seconds):
    """Short runs of every workload: each must be correct and emit every
    metric BENCHMARK.json names, with its unit; a run whose timed pass 1
    is altered must be reported incorrect, with every operation failed."""
    s = spec()
    ok = True
    for w in s["workloads"]:
        for trace, listed in ((0, s["end_to_end"]), (1, s["per_layer"])):
            r = run_workload(w["name"], 42, seconds, trace, quick=True)
            for m in listed:
                got = r["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    log("SELF-TEST FAIL: %s trace %d: metric %s missing or "
                        "wrong unit (%r)" % (w["name"], trace, m["name"], got))
                    ok = False
            if not r["correct"] or r["failed"]:
                log("SELF-TEST FAIL: %s trace %d: run not correct" %
                    (w["name"], trace))
                ok = False
        r = run_workload(w["name"], 42, 0, 0, corrupt_pass=1, quick=True)
        if r["correct"] or r["failed"] != r["attempted"]:
            log("SELF-TEST FAIL: %s: altered pass was not detected" %
                w["name"])
            ok = False
        else:
            log("self-test: %s: altered pass detected" % w["name"])
    log("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", help="workload name (default: every one)")
    p.add_argument("--seed", type=int, default=42,
                   help="workload seed (default 42, the figures' seed)")
    p.add_argument("--seconds", type=float, default=30,
                   help="host seconds of timed passes per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = traced pass and per-layer probes")
    p.add_argument("--self-test", action="store_true",
                   help="check the benchmark itself with short runs")
    a = p.parse_args()

    names = [w["name"] for w in spec()["workloads"]]
    if a.workload is not None and a.workload not in names:
        log("unknown workload %r (have %s)" % (a.workload, ", ".join(names)))
        return 2
    try:
        build()
        if a.self_test:
            return self_test(min(a.seconds, 1))
        results = {}
        for name in [a.workload] if a.workload else names:
            results[name] = run_workload(name, a.seed, a.seconds, a.trace)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    # The last stdout line is the result.
    print(json.dumps(results[a.workload] if a.workload else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())

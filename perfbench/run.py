#!/usr/bin/env python3
"""The repo benchmark: builds the driver from source, runs one workload, and
prints every metric by name with its unit, then one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest [--seed N]

Run from the root of a checkout. The driver is built on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); scratch files
go to .bench_work/ and are removed at exit; each result, with its host
context and (for trace runs) the span dump, is kept in .bench_results/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_BUDGET_S = 175  # memory probes + measuring process, after the build
BUILD_TIMEOUT_S = 850
# Memory probes before and after a run this far apart (as a ratio) mean the
# host changed phase inside it: such a run is measured again, once, if the
# budget allows. Probes read ~125-140 ns in quiet phases, 170-240 ns in busy.
PHASE_CHANGE_RATIO = 1.35


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build_driver():
    """Configures and builds the driver (incrementally, under a lock)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/CMakeLists.txt not found: run from a checkout holding the library sources")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found on PATH")
    target_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_root, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(build_dir, "CMakeCache.txt")
        if not os.path.isfile(cache):
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            run_build_step(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        run_build_step(["cmake", "--build", build_dir, "--target", "perfbench_driver", "-j", jobs])
    return os.path.join(build_dir, "perfbench_driver")


def run_build_step(cmd):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def cpu_times():
    """Aggregate /proc/stat cpu counters (user..steal), or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return [int(x) for x in fields[1:9]]
    except (OSError, ValueError, IndexError):
        return None


def steal_share(before, after):
    if before is None or after is None:
        return None
    total = sum(after) - sum(before)
    return (after[7] - before[7]) / total if total > 0 else 0.0


def host_context():
    model = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        git_rev = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        git_rev = None
    return {
        "cpu_model": model,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "git_rev": git_rev,
        "source_digest": source_digest(),
    }


def source_digest():
    """sha256 over the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def memory_probe(driver):
    """ns per dependent load through 32 MiB, in its own process."""
    done = subprocess.run([driver, "--probe"], capture_output=True, text=True, timeout=60)
    return json.loads(done.stdout)["memory_probe_ns"] if done.returncode == 0 else None


def phase_changed(before, after):
    if not before or not after:
        return False
    return max(before, after) / min(before, after) > PHASE_CHANGE_RATIO


def run_driver(driver, args, work, deadline, corrupt=False):
    """Runs the measuring process."""
    try:
        cmd = [driver, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace), "--work", work]
        if corrupt:
            cmd.append("--corrupt")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=deadline - time.monotonic())
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_BUDGET_S} s")
    sys.stderr.write(done.stderr)
    lines = [l for l in done.stdout.splitlines() if l.startswith("{")]
    if done.returncode != 0 or not lines:
        fail(f"driver failed ({done.returncode}) on {args.workload}")
    return json.loads(lines[-1])


def measure(spec, driver, args, deadline, corrupt=False):
    """One run: returns (final result line dict, full record dict). A run
    the host changed phase in is measured again once, if time allows."""
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    try:
        host = host_context()
        discarded = []
        while True:
            shutil.rmtree(work, ignore_errors=True)
            os.makedirs(work)
            started = time.monotonic()
            probe_before = memory_probe(driver)
            before = cpu_times()
            out = run_driver(driver, args, work, deadline, corrupt)
            host["steal_share"] = steal_share(before, cpu_times())
            host["memory_probe_ns_before"] = probe_before
            host["memory_probe_ns"] = memory_probe(driver)
            changed = phase_changed(probe_before, host["memory_probe_ns"])
            took = time.monotonic() - started
            if not changed or discarded or deadline - time.monotonic() < 1.5 * took:
                break
            print(f"perfbench: host phase changed during the run (memory probe "
                  f"{probe_before:.0f} -> {host['memory_probe_ns']:.0f} ns); measuring again",
                  file=sys.stderr)
            discarded.append({"memory_probe_ns_before": probe_before,
                              "memory_probe_ns": host["memory_probe_ns"],
                              "metrics": out["metrics"]})
        host["phase_changed"] = changed
        host["discarded_runs"] = discarded
        spans = os.path.join(work, "spans.json")
        record_base = os.path.join(ROOT, ".bench_results",
                                   f"{args.workload}-s{args.seed}-t{args.trace}")
        os.makedirs(os.path.dirname(record_base), exist_ok=True)
        if os.path.isfile(spans):
            shutil.copyfile(spans, record_base + ".spans.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    missing = sorted(set(units) - set(out["metrics"]))
    if missing:
        fail(f"driver did not report {', '.join(missing)}", 3)
    metrics = {name: {"value": out["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": bool(out["correct"]) and out["attempted"] >= 1,
              "attempted": int(out["attempted"]), "failed": int(out["failed"]),
              "metrics": metrics}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    record = dict(result, workload=args.workload, why=why, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, host=host, detail=out["detail"])
    with open(record_base + ".json", "w") as f:
        json.dump(record, f, indent=1)
    return result, record


def selftest(spec, driver, seed):
    """Each workload, clean and with one expected byte corrupted: ok_share
    must be 1 clean and below 1 corrupted."""
    good = True
    for w in spec["workloads"]:
        for corrupt in (False, True):
            args = argparse.Namespace(workload=w["name"], seed=seed, seconds=1, trace=0)
            result, _ = measure(spec, driver, args, time.monotonic() + RUN_BUDGET_S, corrupt)
            share = result["metrics"]["ok_share"]["value"]
            ok = share < 1.0 if corrupt else share == 1.0
            good = good and ok
            print(f"{w['name']:<14} {'corrupted' if corrupt else 'clean':<9} "
                  f"ok_share={share:.6f} {'pass' if ok else 'FAIL'}")
    return 0 if good else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    spec = load_spec()
    if not args.selftest and args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    driver = build_driver()
    if args.selftest:
        return selftest(spec, driver, args.seed)

    result, record = measure(spec, driver, args, time.monotonic() + RUN_BUDGET_S)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']} {m['unit']}")
    print(f"{args.workload} ok {result['attempted'] - result['failed']}/{result['attempted']}, "
          f"steal {record['host']['steal_share']}, "
          f"record .bench_results/{args.workload}-s{args.seed}-t{args.trace}.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

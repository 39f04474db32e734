#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 lsmbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 lsmbench/run.py --selftest

Run from the repository root. It builds lilsm, lilsm_server and the
lsmbench binary from source in Release (into .bench_build/), runs one
workload, prints every metric with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. It exits non-zero on a wrong answer, and
without a result when the sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(".bench_build", "lsmbench")
WORK_DIR = ".lsmbench_run"
WORKLOADS = ["lookup_cold", "write_mixed", "serve_mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then brings the build up to date. Returns the
    paths of the lsmbench and lilsm_server binaries, or None."""
    steps = []
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(cache):
        # A build tree configured for another checkout cannot be reused.
        with open(cache) as f:
            home = [line.split("=", 1)[1].strip() for line in f
                    if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home != [os.path.join(ROOT, "lsmbench")]:
            shutil.rmtree(BUILD_DIR)
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", "lsmbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4",
                  "--target", "lsmbench", "lilsm_server"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("lsmbench: build failed: " + " ".join(cmd))
            return None
    bench = os.path.join(BUILD_DIR, "lsmbench")
    server = os.path.join(BUILD_DIR, "lilsm", "lilsm_server")
    for path in (bench, server):
        if not os.path.isfile(path):
            log("lsmbench: missing built binary " + path)
            return None
    return bench, server


def run_binary(cmd):
    """Runs cmd in its own process group (so a lilsm_server it started
    cannot outlive it) and returns (exit code, stdout)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("lsmbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1, ""
    finally:
        try:  # reap anything left in the group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out


def run_workload(binaries, spec, workload, seed, seconds, trace, extra=()):
    """Runs one workload. Returns (exit code, result dict or None)."""
    bench, server = binaries
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server-bin", server,
           "--work-dir", os.path.join(WORK_DIR, workload)] + list(extra)
    code, out = run_binary(cmd)
    lines = out.strip().splitlines()
    if not lines:
        log("lsmbench: no result (exit %d)" % code)
        return code or 1, None
    raw = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(raw["metrics"]) != sorted(names):
        log("lsmbench: emitted metrics differ from BENCHMARK.json: "
            "missing %s, extra %s" % (
                sorted(set(names) - set(raw["metrics"])),
                sorted(set(raw["metrics"]) - set(names))))
        return 1, None
    if raw.get("error"):
        log("lsmbench: WRONG ANSWER: " + raw["error"])
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {m["name"]: {"value": raw["metrics"][m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    if code == 0 and not result["correct"]:
        code = 1
    return code, result


def print_result(result):
    for name, m in result["metrics"].items():
        print("%-28s %16.6g %s" % (name, m["value"], m["unit"]))
    print(json.dumps(result), flush=True)


def selftest(binaries, spec):
    """Every workload at tiny scale, traced and untraced, must answer
    correctly and emit every named metric; the checker must reject a
    deliberately wrong expected value."""
    bench, _ = binaries
    ok = run_binary([bench, "--selftest-checker",
                     "--work-dir", os.path.join(WORK_DIR, "selftest")])[0] == 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(
                binaries, spec, workload, 3, 0.5, trace,
                extra=["--keys", "20000"])
            good = (code == 0 and result is not None and result["correct"]
                    and result["failed"] == 0 and result["attempted"] > 0)
            log("selftest %-12s trace=%d %s" % (workload, trace,
                                                "ok" if good else "FAILED"))
            ok = ok and good
    log("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    os.chdir(ROOT)
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("lsmbench: cannot read BENCHMARK.json: %s" % e)
        return 1
    binaries = build()
    if binaries is None:
        return 1
    if args.selftest:
        return selftest(binaries, spec)
    code, result = run_workload(binaries, spec, args.workload, args.seed,
                                args.seconds, args.trace)
    if result is not None:
        print_result(result)
    return code


if __name__ == "__main__":
    sys.exit(main())

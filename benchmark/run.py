#!/usr/bin/env python3
"""End-to-end benchmark of GPUMech: the one command.

Builds the benchmark project (benchmark/CMakeLists.txt: the library,
the gpumech_serve daemon and the gpumech_bench driver) into .bench_build
at the root of the checkout, runs each benchmark workload in its own
driver process, prints every metric by name and unit, and writes a
results JSON.

    python3 benchmark/run.py                       # all four workloads
    python3 benchmark/run.py --workload validate --seed 3
    python3 benchmark/run.py --trace               # per-layer metrics
    python3 benchmark/run.py --smoke               # about 15 s in all

With --workload, the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with --trace. The exit code is
0 when every check passed and 1 otherwise (a failed check, build or
driver run). Uses the python3 standard library only.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ("model_cold", "validate", "explore", "serve_warm")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BUILD_TYPE = "RelWithDebInfo"

# Set-up is timed in this many extra driver processes per run, besides
# the measured one; setup_s is the median. serve_warm's set-up starts
# and warms a daemon, so it gets fewer.
SETUP_ONLY_RUNS = {"model_cold": 20, "validate": 20, "explore": 20,
                   "serve_warm": 2}

# A run must end within 180 s once built: a hung driver is stopped.
SETUP_TIMEOUT_S = 10
RUN_TIMEOUT_S = 120


class BenchError(Exception):
    """A build or driver failure: no result can be reported."""


def fan_out():
    """J = min(4, nproc): thread fan-out and connection budget."""
    return min(4, len(os.sched_getaffinity(0)))


def build(jobs):
    """Configure (once) and build the benchmark targets; return paths."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(jobs),
                  "--target", "gpumech_bench", "gpumech_serve"])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, cwd=ROOT, stdout=log, env=env,
                               stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise BenchError("build failed: " + " ".join(step))
    return (os.path.join(BUILD_DIR, "gpumech_bench"),
            os.path.join(BUILD_DIR, "gpumech_serve"))


def run_driver(argv, timeout_s):
    """Run one driver process; return (set-up seconds, result or None).

    The driver prints "ready <CLOCK_MONOTONIC ns>" when its set-up is
    done; Python's monotonic clock is the same clock, so set-up is timed
    from just before the spawn. The driver runs in its own process
    group so that a timeout also stops any daemon it started.
    """
    start_ns = time.monotonic_ns()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("driver timed out: " + " ".join(argv))
    lines = out.splitlines()
    ready = [l for l in lines if l.startswith("ready ")]
    if proc.returncode not in (0, 1) or not ready:
        raise BenchError("driver failed (exit %d): %s"
                         % (proc.returncode, " ".join(argv)))
    setup_s = (int(ready[0].split()[1]) - start_ns) / 1e9
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return setup_s, result


def run_workload(bench, serve, name, seed, seconds, trace, smoke, jobs):
    """Run one benchmark workload; return its run record."""
    argv = [bench, "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--jobs", str(jobs),
            "--serve-bin", serve,
            "--socket", os.path.join(".bench_build",
                                     "serve-%d.sock" % os.getpid())]
    if smoke:
        argv += ["--max-kernels", "8", "--min-passes", "1"]
    if trace:
        argv.append("--trace")
    setups = []
    if not trace and not smoke:
        for _ in range(SETUP_ONLY_RUNS[name]):
            setups.append(run_driver(argv + ["--setup-only"],
                                     SETUP_TIMEOUT_S)[0])
    setup_s, result = run_driver(argv, RUN_TIMEOUT_S)
    if result is None:
        raise BenchError("driver printed no result: " + " ".join(argv))
    setups.append(setup_s)
    metrics = dict(result["metrics"])
    if not trace:
        metrics["setup_s"] = {"value": statistics.median(setups),
                              "unit": "s"}
    return {"workload": name, "seed": seed, "trace": int(trace),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "failures": result["failures"],
            "metrics": metrics, "setup_samples_s": setups,
            "info": result["info"]}


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def revision():
    """The checkout's git revision; "unknown" outside a git checkout."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="measured time per workload run")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                   choices=(0, 1), help="per-layer traced run")
    p.add_argument("--smoke", action="store_true",
                   help="1 pass over 8 kernels, 2 s of serving")
    p.add_argument("--out", help="results JSON (default: under "
                   ".bench_build/results/)")
    args = p.parse_args()
    if not 0 <= args.seed < 2**32:
        p.error("--seed must be in [0, 2^32)")
    if args.smoke:
        args.seconds = 2.0
    return args


def main():
    args = parse_args()
    jobs = fan_out()
    names = [args.workload] if args.workload else list(WORKLOADS)
    try:
        bench, serve = build(jobs)
        runs = [run_workload(bench, serve, name, args.seed, args.seconds,
                             args.trace, args.smoke, jobs)
                for name in names]
    except BenchError as e:
        sys.stderr.write("run.py: %s\n" % e)
        return 1

    wanted = declared_metrics(args.trace)
    for run in runs:
        missing = [m for m in wanted if m not in run["metrics"]]
        run["attempted"] += 1
        if missing:
            run["correct"] = False
            run["failed"] += 1
            run["failures"].append("metrics missing: " + ", ".join(missing))
        run["metrics"] = {m: run["metrics"][m] for m in wanted
                          if m in run["metrics"]}
        print("== %s (seed %d%s)" % (run["workload"], args.seed,
                                     ", traced" if args.trace else ""))
        for name, m in run["metrics"].items():
            print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
        print("  %-28s %14s %d/%d failed" % ("checks", "correct"
              if run["correct"] else "FAILED", run["failed"],
              run["attempted"]))
        for failure in run["failures"]:
            print("    " + failure)

    label = "%s-seed%d%s" % (args.workload or "all", args.seed,
                             "-trace" if args.trace else "")
    out = args.out or os.path.join(BUILD_DIR, "results", label + ".json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    env = {"nproc": len(os.sched_getaffinity(0)), "jobs": jobs,
           "build_type": BUILD_TYPE, "revision": revision(),
           "seconds": args.seconds, "smoke": args.smoke}
    with open(out, "w") as f:
        json.dump({"env": env, "runs": runs}, f, indent=1)
    print("results: " + os.path.relpath(out))

    ok = all(run["correct"] for run in runs)
    if args.workload:
        run = runs[0]
        print(json.dumps({"correct": run["correct"],
                          "attempted": run["attempted"],
                          "failed": run["failed"],
                          "metrics": run["metrics"]}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

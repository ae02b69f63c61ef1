#!/usr/bin/env python3
"""The benchmark's one command.

    python3 perfbench/run.py --workload dashboard|adhoc|firehose \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It builds aqua_serve and the benchmark's
two binaries from source (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR or .bench_build, then:

  --trace 0  runs perfbench_loadgen: a fresh aqua_serve per set-up, pinned to
             every CPU but the last, with the generator on the last CPU; the
             workload's traffic; the audit.  Prints the end-to-end metrics.
  --trace 1  does the same untraced run for its /stats counters, audit and
             harness figures, then runs perfbench_replay (the traced replay)
             for the span metrics.  Prints the per-layer metrics.

The line before the last holds the run's environment and correctness gate;
the last line is the result object.  The exit code is nonzero when a
correctness check fails (after printing the result) or when the benchmark
cannot build or run (without printing one).  Metric names and units come
from BENCHMARK.json at the checkout root.  The raw records of the last run
of each workload stay in <build dir>/runs/<workload>.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import bench_lib  # noqa: E402

TIME_LIMIT_S = 170
WORKLOADS = ("dashboard", "adhoc", "firehose")
# A run in which the host stole more than this share of the CPUs' time, or
# the generator CPU's speed moved more than this, says so on stderr.
NOISY_STEAL_SHARE = 0.02
NOISY_CALIBRATION_DRIFT = 0.05


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures and builds the three binaries; returns their paths."""
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs, "--target",
              "aqua_serve", "perfbench_loadgen", "perfbench_replay"]]
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT) != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed")
    return (os.path.join(build_dir, "aqua", "server", "aqua_serve"),
            os.path.join(build_dir, "perfbench_loadgen"),
            os.path.join(build_dir, "perfbench_replay"))


def cpu_split():
    """Server on every CPU but the last, generator on the last."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus[0]
    return cpus[:-1], cpus[-1]


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def run_checked(command, deadline, **kwargs):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time")
    try:
        return subprocess.run(command, timeout=remaining, check=True, **kwargs)
    except subprocess.TimeoutExpired:
        fail(f"{os.path.basename(command[0])} timed out")
    except subprocess.CalledProcessError as e:
        fail(f"{os.path.basename(command[0])} exited {e.returncode}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(ROOT, build_dir))
    server, loadgen, replay = build(build_dir)
    deadline = time.monotonic() + TIME_LIMIT_S
    end_to_end_spec, per_layer_spec = declared_metrics()

    server_cpus, generator_cpu = cpu_split()
    run_dir = os.path.join(build_dir, "runs", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    run_checked([loadgen, "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--server", server,
                 "--out", run_dir,
                 "--server-cpus", ",".join(map(str, server_cpus)),
                 "--generator-cpu", str(generator_cpu)], deadline)
    end_to_end, per_layer, env, gate, counts = bench_lib.analyze(run_dir)

    if args.trace:
        spans_path = os.path.join(run_dir, "spans.csv")
        out = run_checked([replay, "--workload", args.workload,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--spans", spans_path], deadline,
                          stdout=subprocess.PIPE, text=True)
        per_layer.update(bench_lib.replay_metrics(json.loads(out.stdout)))
        chosen, spec = per_layer, per_layer_spec
    else:
        chosen, spec = end_to_end, end_to_end_spec

    metrics = {}
    for m in spec:
        value = chosen.get(m["name"])
        if value is None:
            fail(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    correct = all(gate.values())
    if env["steal_share"] > NOISY_STEAL_SHARE:
        print(f"perfbench: the host stole {env['steal_share']:.1%} of the "
              "CPUs' time during the window", file=sys.stderr)
    if env["server_thread_split"]["reactors"] == 0:
        print("perfbench: no reactor thread found; the server's threads "
              "shared the server CPUs", file=sys.stderr)
    if env["calibration_drift"] > NOISY_CALIBRATION_DRIFT:
        print("perfbench: the generator CPU's speed moved "
              f"{env['calibration_drift']:.1%} across the window",
              file=sys.stderr)
    print(json.dumps({"env": env, "gate": gate}))
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    sys.stdout.flush()
    if not correct:
        failed = [name for name, ok in gate.items() if not ok]
        print(f"perfbench: correctness checks failed: {', '.join(failed)}",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()

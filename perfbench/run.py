#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as one JSON line.

    python3 perfbench/run.py --workload table2 --seed 1 \
        --seconds 45 --trace 0

Builds the runner (perfbench/CMakeLists.txt, which compiles the library from
src/) into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs
it, compares its output digests with perfbench/digests.json when the seed is
the default one, and prints

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

as the last line of standard output. Exits 1 when any correctness check
fails, 2 when the runner cannot be built or run.

    python3 perfbench/run.py --workload live-rpc --write-digests

re-records the committed digests of a workload from a run with the default
seed and seconds, after that run passed every oracle check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("table2", "live-rpc")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 45
# The runner itself must finish well inside the 180 s a run may take.
RUNNER_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds the runner; returns its path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs,
                  "--target", "perfbench_runner"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "perfbench_runner")


def run_runner(runner, out, args):
    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUNNER_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"runner exited with {proc.returncode}")
        return None
    return json.loads(lines[-1])


def metric_set_errors(args, metrics):
    """The printed metrics must be exactly the ones BENCHMARK.json declares
    for this mode: end_to_end untraced, per_layer traced."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return []
    with open(path) as f:
        spec = json.load(f)
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got == want:
        return []
    return ["metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"unit mismatch {sorted(k for k in want if k in got and want[k] != got[k])}"]


def digest_errors(args, digests):
    """Mismatches against the committed digests of the default seed.

    A dataset's digest key names its analog and index; a shorter run makes
    fewer datasets, so only the keys both runs have are compared."""
    with open(DIGESTS) as f:
        committed = json.load(f).get(args.workload)
    if committed is None or args.seed != committed["seed"]:
        return []
    errors = []
    compared = 0
    for key, want in committed["digests"].items():
        # The final live relations depend on how many update batches the run
        # applied, which only the committed seconds and an untraced run fix.
        if key.startswith("live.final.") and (args.seconds != committed["seconds"]
                                              or args.trace):
            continue
        got = digests.get(key)
        if got is None:
            continue
        compared += 1
        if got != want:
            errors.append(f"{key}: digest {got} differs from committed {want}")
    if compared == 0:
        errors.append("no output digest in common with the committed ones")
    return errors


def write_digests(args, result):
    with open(DIGESTS) as f:
        table = json.load(f)
    table[args.workload] = {"seed": args.seed, "seconds": args.seconds,
                            "digests": result["digests"]}
    with open(DIGESTS, "w") as f:
        json.dump(table, f, indent=2, sort_keys=True)
        f.write("\n")
    log(f"recorded {len(result['digests'])} digests for {args.workload}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args()
    if args.write_digests and (args.seed != DEFAULT_SEED or args.trace
                               or args.seconds != DEFAULT_SECONDS):
        parser.error("--write-digests uses the default seed, seconds and trace")

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    runner = build(out)
    if runner is None:
        return 2
    result = run_runner(runner, out, args)
    if result is None:
        return 2

    errors = list(result["errors"]) + metric_set_errors(args, result["metrics"])
    if args.write_digests:
        if errors:
            log("not recording digests of a run that failed its checks")
        else:
            write_digests(args, result)
    else:
        errors += digest_errors(args, result["digests"])
    for e in errors:
        log("check failed: " + e)
    correct = bool(result["correct"]) and not errors
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

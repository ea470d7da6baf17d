#!/usr/bin/env python3
"""Repository benchmark: builds the TAPS libraries and the harness from
source, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (a path
relative to the checkout root; default .bench_build)/perfbench. The last line
of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 only when every output
check passed; a failed check still prints the result, with "correct": false.

    python3 perfbench/run.py --record-outcomes

re-records perfbench/expected.json: the outcome of every simulation (and the
service's responses) for the default and the held-out seed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
HARNESS_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log, timeout):
    with open(log, "w") as f:
        proc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT, timeout=timeout)
    if proc.returncode != 0:
        with open(log) as f:
            tail = f.readlines()[-30:]
        sys.stderr.write("".join(tail))
        die(f"command failed: {' '.join(cmd)} (log: {log})")


def build():
    """Configures (once) and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no TAPS sources (src/CMakeLists.txt) in this checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                   os.path.join(out, "configure.log"), BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", out, "--target", "perfbench_harness", "-j", jobs],
               os.path.join(out, "build.log"), BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench_harness")


def source_identity():
    """The git commit when the checkout is a repository, and always a digest
    of the sources the harness is built from."""
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):  # never look above the checkout
        try:
            proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return commit, digest.hexdigest()[:16]


def run_harness(harness, workload, seed, seconds, trace):
    cmd = [harness, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{workload} did not finish within {HARNESS_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        die(f"harness exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("harness printed nothing")
    return json.loads(lines[-1])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def outcome_problems(workload, seed, outcomes):
    """Simulations (or service runs) whose outcome differs from the recorded
    one. Seeds without a record are checked by the harness's own checks only."""
    if not os.path.isfile(EXPECTED):
        return [], False
    recorded = load_json(EXPECTED)["outcomes"].get(workload, {}).get(str(seed))
    if recorded is None:
        return [], False
    common = [k for k in outcomes if k in recorded]
    if not common:  # e.g. another --seconds gave the service stream another size
        return [], False
    return [f"{k}: outcome {outcomes[k]} != recorded {recorded[k]}"
            for k in common if outcomes[k] != recorded[k]], True


def select_metrics(bench, measured, not_measured, trace):
    """BENCHMARK.json's metric list for this mode, valued from the harness.
    A metric of a layer the workload does not run reads 0; any other gap is
    a benchmark bug."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    out = {}
    for spec in wanted:
        name, unit = spec["name"], spec["unit"]
        if name in measured:
            got = measured[name]
            if got["unit"] != unit or got["value"] is None:
                die(f"metric {name}: harness gave {got}, BENCHMARK.json wants unit {unit}")
            out[name] = {"value": got["value"], "unit": unit}
        elif any(name == n or name.startswith(n + ".") for n in not_measured):
            out[name] = {"value": 0, "unit": unit}
        else:
            die(f"harness did not report metric {name}")
    return out


def measure(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        die(f"unknown workload {args.workload}")
    harness = build()
    self_test = subprocess.run([harness, "--self-test"], capture_output=True, text=True,
                               timeout=HARNESS_TIMEOUT_S)
    if self_test.returncode != 0:
        sys.stderr.write(self_test.stderr)
        die("harness self-tests failed")

    started = time.time()
    doc = run_harness(harness, args.workload, args.seed, args.seconds, args.trace)
    commit, digest = source_identity()
    context = dict(doc["context"], git_commit=commit, source_digest=digest,
                   harness_s=round(time.time() - started, 3))

    failures = list(doc["failures"])
    mismatches, recorded = outcome_problems(args.workload, args.seed, doc["outcomes"])
    failures += mismatches
    failed = int(doc["failed"]) + len(mismatches)
    metrics = select_metrics(bench, doc["metrics"], doc["not_measured"], args.trace)

    print("context " + json.dumps(context, sort_keys=True))
    for note in doc["notes"]:
        print("note    " + note)
    print(f"check   outcomes {'compared with the record' if recorded else 'not recorded for this seed'}")
    for f in failures:
        print("FAILED  " + f)
    for name, m in doc["metrics"].items():
        print(f"metric  {name:28s} {m['value']:.6g} {m['unit']}")
    result = {"correct": not failures, "attempted": int(doc["attempted"]), "failed": failed,
              "metrics": metrics}

    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{int(args.trace)}-{int(time.time())}"
    with open(os.path.join(results, stamp + ".json"), "w") as f:
        json.dump(dict(result, context=context, all_metrics=doc["metrics"],
                       failures=failures), f, indent=1, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if not failures else 1


def record_outcomes():
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    record = load_json(EXPECTED)
    harness = build()
    seconds = bench["run_seconds"]
    outcomes = {}
    for w in bench["workloads"]:
        for seed in (record["default_seed"], record["held_out_seed"]):
            doc = run_harness(harness, w["name"], seed, seconds, False)
            if doc["failures"]:
                die(f"{w['name']} seed {seed} failed its checks: {doc['failures']}")
            outcomes.setdefault(w["name"], {})[str(seed)] = doc["outcomes"]
            print(f"recorded {w['name']} seed {seed}: {len(doc['outcomes'])} outcomes")
    record["run_seconds"] = seconds
    record["outcomes"] = outcomes
    with open(EXPECTED, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--record-outcomes", action="store_true")
    args = p.parse_args()
    if args.record_outcomes:
        return record_outcomes()
    if args.workload is None or args.seed is None or args.seconds is None or args.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    args.trace = bool(args.trace)
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())

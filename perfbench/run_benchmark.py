#!/usr/bin/env python3
"""The SiMRA-DRAM benchmark's one command.

Builds perfbench/ (the simra_bench binary) from the repository's sources,
runs workloads in fresh processes, checks their outputs and prints every
metric by name with its unit.

  run_benchmark.py --workload W [--seed N] [--seconds S] [--trace 0|1]
      One run of one workload. The last line of stdout is one JSON object:
      {"correct", "attempted", "failed", "metrics"}, holding BENCHMARK.json's
      end-to-end metrics (--trace 0) or its per-layer metrics (--trace 1).
  run_benchmark.py [--seeds 1,2,3] [--trace 1] [--out FILE]
      Every workload once per seed; appends the runs to a results file.
  run_benchmark.py --compare PARENT.json CHANGE.json
      The choosing-metrics section 8 rule for every (workload, metric).
  run_benchmark.py --smoke        quick run of every workload + validation
  run_benchmark.py --reference A.json B.json
      Writes two sets' medians and quartiles to perfbench/reference.json.

Exit codes: 0 ok, 1 build or run error, 2 usage, 3 figure table hash,
4 serve accounting, 5 serve response hash, 6 validity guard (generator
lateness or thread count), 7 invalid BENCHMARK.json, 8 --compare found a
regression, an unresolved or missing metric, or a refused workload.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
CATALOGUE_PATH = os.path.join(HERE, "catalogue.json")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(ROOT, "bench-out")

KINDS = {"fig3_fleet": "figure", "fig7_quick": "figure",
         "serve_copy": "serve", "serve_majx": "serve"}
# Worker threads per kind. Figure sweeps run on a pool of four (the main
# thread is worker 0). Serve runs a pool of three (the scheduler thread
# plus two helpers) beside the one generator thread.
THREADS = {"figure": 4, "serve": 3}
SETUP_RUNS = 15          # fresh processes whose set-up times give setup_s
MAX_LATE_P90_US = 50.0   # generator lateness above this voids a serve run
RUN_TIMEOUT_S = 170.0    # for all processes of one run, after the build
DEFAULT_SEED = 1

EXIT_ERROR, EXIT_USAGE, EXIT_TABLE, EXIT_ACCOUNTING = 1, 2, 3, 4
EXIT_RESPONSES, EXIT_VALIDITY, EXIT_SPEC, EXIT_COMPARE = 5, 6, 7, 8

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class Failure(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def load_json(path):
    with open(path) as f:
        return json.load(f)


def log(*args):
    print(*args, flush=True)


# --------------------------------------------------------------------------
# BENCHMARK.json and the catalogue

def validate_spec(spec, catalogue):
    """Raises Failure(EXIT_SPEC) on the first problem found."""
    def bad(why):
        raise Failure(EXIT_SPEC, "BENCHMARK.json: " + why)

    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        bad("keys must be exactly %s" % sorted(keys))
    workloads = [w["name"] for w in spec["workloads"]]
    if not 2 <= len(workloads) <= 8:
        bad("needs 2 to 8 workloads")
    if len(spec["end_to_end"]) > 16 or len(spec["per_layer"]) > 128:
        bad("at most 16 end-to-end and 128 per-layer metrics")
    if not spec["end_to_end"] or not spec["per_layer"]:
        bad("needs end-to-end and per-layer metrics")
    names = workloads + [m["name"] for m in spec["end_to_end"]] + \
        [m["name"] for m in spec["per_layer"]]
    for name in names:
        if not NAME_RE.match(name):
            bad("bad name %r" % name)
    for group in ("workloads", "end_to_end", "per_layer"):
        seen = [x["name"] for x in spec[group]]
        if len(seen) != len(set(seen)):
            bad("duplicate name in %s" % group)
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not 0 < len(w["why"]) <= 200:
            bad("workload %s needs exactly a name and a one-line why" % w)
        if w["name"] not in KINDS:
            bad("workload %s is not one the benchmark runs" % w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"}:
            bad("end-to-end metric %s has the wrong keys" % m.get("name"))
        if not 0 < m["bound"] <= 0.25:
            bad("bound of %s must be in (0, 0.25]" % m["name"])
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            bad("per-layer metric %s has the wrong keys" % m.get("name"))
    for m in spec["end_to_end"] + spec["per_layer"]:
        if m["better"] not in ("lower", "higher") or not UNIT_RE.match(
                m["unit"]):
            bad("metric %s: bad unit or direction" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad("needs setup_s in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        bad("setup_s must have the largest bound")
    if not 1 <= spec["run_seconds"] <= 60 or \
            int(spec["run_seconds"]) != spec["run_seconds"]:
        bad("run_seconds must be a whole number from 1 to 60")

    # Every reference in the catalogue must resolve.
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    entries = list(catalogue["per_layer"].items()) + \
        list(catalogue["detail"].items())
    for name in catalogue["per_layer"]:
        if name not in layers:
            bad("catalogue names unknown per-layer metric %s" % name)
    for name, entry in entries:
        if not NAME_RE.match(name) or not entry["moves"]:
            bad("catalogue entry %s needs a valid name and moves" % name)
        for target in entry["moves"]:
            if target not in e2e:
                bad("%s moves unknown metric %s" % (name, target))
        if entry["workload"] not in workloads:
            bad("%s names unknown workload %s" % (name, entry["workload"]))
    missing = layers - set(catalogue["per_layer"])
    if missing:
        bad("catalogue lacks per-layer metrics %s" % sorted(missing))
    for key in catalogue["checks"]:
        if key.split("@")[0] not in workloads:
            bad("pinned check %s names an unknown workload" % key)


def load_spec():
    try:
        spec, catalogue = load_json(SPEC_PATH), load_json(CATALOGUE_PATH)
    except (OSError, ValueError) as e:
        raise Failure(EXIT_SPEC, "cannot read the benchmark spec: %s" % e)
    validate_spec(spec, catalogue)
    return spec, catalogue


def spec_sha256():
    with open(SPEC_PATH, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


# --------------------------------------------------------------------------
# Build and run

def build(build_dir):
    """Configures (once) and builds simra_bench; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure(EXIT_ERROR, "repository sources (src/) not found")
    os.makedirs(build_dir, exist_ok=True)
    logfile = os.path.join(build_dir, "perfbench-build.log")
    with open(logfile, "a") as out:
        def step(cmd):
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                raise Failure(EXIT_ERROR, "build failed (%s); see %s" %
                              (" ".join(cmd[:2]), logfile))
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            step(cmd)
        step(["cmake", "--build", build_dir, "--target", "simra_bench",
              "-j", str(os.cpu_count() or 1)])
    return os.path.join(build_dir, "simra_bench")


def child_env(kind):
    # Clear every SIMRA_* knob (tracing, verify, optimizer, fault
    # injection, ...) so a run measures the default program.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SIMRA_")}
    env["SIMRA_THREADS"] = str(THREADS[kind])
    return env


def thread_count(pid):
    try:
        with open("/proc/%d/status" % pid) as f:
            for line in f:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def run_child(binary, workload, seed, seconds, args, tag, deadline):
    """Runs simra_bench once, killing it at `deadline` (time.monotonic());
    returns (its JSON, peak thread count)."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, "%s.%s.json" % (workload, tag))
    err = os.path.join(OUT_DIR, "%s.%s.stderr" % (workload, tag))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--out", out] + args
    if os.path.exists(out):
        os.remove(out)
    threads = 0
    with open(err, "w") as errf:
        proc = subprocess.Popen(cmd, env=child_env(KINDS[workload]),
                                stdout=subprocess.DEVNULL, stderr=errf)
        try:
            # Five looks a second: the workload's threads live for the
            # whole run, and the runner should not take CPU from them.
            while proc.poll() is None:
                threads = max(threads, thread_count(proc.pid))
                if time.monotonic() > deadline:
                    raise Failure(EXIT_ERROR, "%s timed out" % workload)
                try:
                    proc.wait(timeout=0.2)
                except subprocess.TimeoutExpired:
                    pass
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        with open(err) as f:
            raise Failure(EXIT_ERROR, "%s exited %d: %s" %
                          (workload, proc.returncode, f.read().strip()))
    return load_json(out), threads


def run_workload(binary, workload, seed, seconds, trace, smoke=False):
    """One measured run of one workload, with set-up measured in
    separate fresh processes. Returns the run record."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    flags = ["--smoke"] if smoke else []
    setup = []

    def set_up(count):
        for _ in range(count):
            result, _ = run_child(binary, workload, seed, seconds,
                                  flags + ["--setup-only"], "setup", deadline)
            setup.append(result["end_to_end"]["setup_s"]["value"])

    # Half the set-up processes run before the measured one and half after,
    # so their median spans the host's state over the whole run.
    setup_runs = 0 if trace else 1 if smoke else SETUP_RUNS
    set_up(setup_runs // 2)
    if trace:
        flags += ["--trace", os.path.join(OUT_DIR, workload + ".trace.json")]
    result, threads = run_child(binary, workload, seed, seconds, flags,
                                "layers" if trace else "run", deadline)
    set_up(setup_runs - setup_runs // 2)
    if setup:
        result["end_to_end"]["setup_s"]["value"] = statistics.median(setup)
        result["setup_runs_s"] = setup
    result["max_threads"] = threads
    return result


def check_run(result, catalogue, smoke):
    """Returns the (exit code, message) of every failed check."""
    failures = []
    workload, checks = result["workload"], result["checks"]
    if result["kind"] == "figure":
        if not checks["table_hash_stable"]:
            failures.append((EXIT_TABLE, "figure tables differ between "
                             "sweeps or worker counts"))
        pinned = catalogue["checks"].get(
            workload + ("@smoke" if smoke else ""))
        if result["seed"] == DEFAULT_SEED and pinned is not None and \
                checks["table_hash"] != pinned["table_fnv1a"]:
            failures.append((EXIT_TABLE, "table hash %s != pinned %s" %
                             (checks["table_hash"], pinned["table_fnv1a"])))
    elif result["trace"]:
        if not checks["replay_matches_live"]:
            failures.append((EXIT_RESPONSES, "replayed batches answered "
                             "differently from the live service"))
    else:
        if not checks["accounting_exactly_once"]:
            failures.append((EXIT_ACCOUNTING, "a request was not delivered "
                             "exactly once"))
        if checks["response_hash"] != checks["replay_hash"]:
            failures.append((EXIT_RESPONSES, "response hash %s != "
                             "synchronous replay %s" %
                             (checks["response_hash"], checks["replay_hash"])))
    # The traced run's own pump loop spins on a fourth core, so only
    # untraced runs hold the generator to the lateness limit. The limit is
    # on p90: the host preempts the generator now and then, which reaches
    # its p99 without it falling behind the schedule.
    if result["kind"] == "serve" and not smoke and not result["trace"]:
        late = max(v["value"] for k, v in result["detail"].items()
                   if k.endswith("gen.late_p90_us"))
        if late > MAX_LATE_P90_US:
            failures.append((EXIT_VALIDITY, "generator ran late: p90 %.1f us "
                             "> %.0f us" % (late, MAX_LATE_P90_US)))
    cpus = os.cpu_count() or 1
    if result["max_threads"] > cpus:
        failures.append((EXIT_VALIDITY, "%d threads on %d CPUs" %
                         (result["max_threads"], cpus)))
    if result["failed"] != 0:
        failures.append((EXIT_ERROR, "%d of %d operations failed" %
                         (result["failed"], result["attempted"])))
    return failures


# --------------------------------------------------------------------------
# Results files

def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit():
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.check_output(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], env=env,
            stderr=subprocess.DEVNULL, text=True).strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def host_record(simd, build_type):
    return {"host_cpus": os.cpu_count() or 1, "cpu_model": cpu_model(),
            "simd": simd, "build_type": build_type, "commit": git_commit(),
            "benchmark_sha256": spec_sha256()}


def fingerprint(host):
    return (host["host_cpus"], host["cpu_model"], host["simd"],
            host["benchmark_sha256"])


def write_results(path, runs, append):
    """Writes runs to a results file, or appends them to it, refusing a
    file from another host or benchmark definition."""
    host = host_record(runs[0]["simd"], runs[0]["build_type"])
    doc = {"host": host, "runs": []}
    if append and os.path.exists(path):
        doc = load_json(path)
        if fingerprint(doc["host"]) != fingerprint(host):
            raise Failure(EXIT_USAGE, "%s was recorded on another host or "
                          "benchmark definition" % path)
    doc["runs"].extend(runs)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


# --------------------------------------------------------------------------
# Printing

def fmt(value):
    return "%.6g" % value if value is not None else "null"


def print_run(result):
    log("== %s seed=%d (%s%s) ==" % (
        result["workload"], result["seed"], result["kind"],
        ", traced" if result["trace"] else ""))
    sections = [("per-layer", result["per_layer"])] if result["trace"] \
        else [("end-to-end", result["end_to_end"])]
    sections.append(("detail", result["detail"]))
    for title, metrics in sections:
        log("  %s:" % title)
        for name, m in metrics.items():
            log("    %-44s %14s %s" % (name, fmt(m["value"]), m["unit"]))
    log("  checks: " + ", ".join("%s=%s" % kv for kv in
                                 result["checks"].items()))
    log("  threads: %d; operations: %d attempted, %d failed" % (
        result["max_threads"], result["attempted"], result["failed"]))


def contract_line(result, spec, correct):
    group = "per_layer" if result["trace"] else "end_to_end"
    metrics = {}
    for m in spec[group]:
        got = result[group].get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            raise Failure(EXIT_ERROR, "run did not report %s in %s" %
                          (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


# --------------------------------------------------------------------------
# --compare: choosing-metrics section 8

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(parent, change, better, bound):
    """Verdict for one (workload, metric): gain, same, regression or
    unresolved, with the numbers behind it."""
    sign = 1.0 if better == "higher" else -1.0
    n = min(len(parent), len(change))
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = max((p3 - p1) / pm if pm else 0.0, (c3 - c1) / cm if cm else 0.0)
    worse = -sign * (cm - pm) / pm if pm else 0.0
    all_better = all(sign * (c - p) > 0 for c in change for p in parent)
    if sign * (cm - pm) > 0 and wins >= 0.9 * n and abs(cm - pm) > p3 - p1:
        verdict = "gain"
    elif spread > bound and not all_better:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "same"
    return {"verdict": verdict, "pairs": n, "wins": wins,
            "parent": [p1, pm, p3], "change": [c1, cm, c3],
            "spread": spread, "worse_by": worse}


def runs_by_key(doc):
    table = {}
    for run in doc["runs"]:
        group = "per_layer" if run["trace"] else "end_to_end"
        for name, m in run[group].items():
            table.setdefault((run["workload"], run["trace"], name), []).append(
                m["value"])
    return table


def failures_by_workload(doc):
    """(incorrect runs, failed operations) per workload, untraced runs."""
    table = {}
    for run in doc["runs"]:
        if not run["trace"]:
            incorrect, failed = table.get(run["workload"], (0, 0))
            table[run["workload"]] = (incorrect + (not run["correct"]),
                                      failed + run["failed"])
    return table


def load_results(path):
    try:
        doc = load_json(path)
    except (OSError, ValueError) as e:
        raise Failure(EXIT_USAGE, "cannot read %s: %s" % (path, e))
    if not isinstance(doc, dict) or not {"host", "runs"} <= set(doc):
        raise Failure(EXIT_USAGE, "%s is not a results file" % path)
    return doc


def compare(parent_path, change_path, spec):
    parent, change = load_results(parent_path), load_results(change_path)
    if fingerprint(parent["host"]) != fingerprint(change["host"]):
        raise Failure(EXIT_USAGE, "results come from different hosts or "
                      "benchmark definitions; refusing to compare")
    p_runs, c_runs = runs_by_key(parent), runs_by_key(change)
    p_fail, c_fail = failures_by_workload(parent), failures_by_workload(change)
    bad = 0
    log("%-11s %-22s %-10s %5s  %-32s %-32s" % (
        "workload", "metric", "verdict", "wins", "parent q1/med/q3",
        "change q1/med/q3"))
    for w in spec["workloads"]:
        name = w["name"]
        # A gain does not count when the change is incorrect or fails more
        # operations, and a workload missing on either side is no result.
        problems = []
        if name not in p_fail or name not in c_fail:
            problems.append("no untraced runs in %s" % (
                "both files" if name not in p_fail and name not in c_fail
                else "the parent" if name not in p_fail else "the change"))
        else:
            for side, (incorrect, _) in (("parent", p_fail[name]),
                                         ("change", c_fail[name])):
                if incorrect:
                    problems.append("%d %s run(s) failed a correctness "
                                    "check" % (incorrect, side))
            if c_fail[name][1] > p_fail[name][1]:
                problems.append("the change failed %d operations, the parent "
                                "%d" % (c_fail[name][1], p_fail[name][1]))
        for problem in problems:
            log("%-11s %-22s %-10s %s" % (name, "-", "refused", problem))
        bad += len(problems)
        for m in spec["end_to_end"]:
            key = (name, False, m["name"])
            if key not in p_runs or key not in c_runs:
                if not problems:
                    log("%-11s %-22s %-10s" % (name, m["name"], "missing"))
                    bad += 1
                continue
            r = compare_metric(p_runs[key], c_runs[key], m["better"],
                               m["bound"])
            bad += r["verdict"] in ("regression", "unresolved")
            log("%-11s %-22s %-10s %2d/%-2d  %-32s %-32s" % (
                name, m["name"], r["verdict"], r["wins"], r["pairs"],
                "/".join(fmt(v) for v in r["parent"]),
                "/".join(fmt(v) for v in r["change"])))
    return EXIT_COMPARE if bad else 0


def write_reference(paths, spec):
    """Medians and quartiles of each results set, per (workload, metric),
    over every untraced run, with the number that failed a check."""
    sets = []
    for path in paths:
        doc = load_results(path)
        table, failures = runs_by_key(doc), failures_by_workload(doc)
        stats = {}
        for w in spec["workloads"]:
            stats[w["name"]] = {
                "incorrect_runs": failures.get(w["name"], (0, 0))[0]}
            for m in spec["end_to_end"]:
                values = table.get((w["name"], False, m["name"]))
                if values:
                    q1, q2, q3 = quartiles(values)
                    stats[w["name"]][m["name"]] = {
                        "q1": q1, "median": q2, "q3": q3, "runs": len(values)}
        sets.append({"host": doc["host"], "metrics": stats})
    with open(REFERENCE_PATH, "w") as f:
        json.dump({"sets": sets}, f, indent=1)
        f.write("\n")
    log("wrote %s" % REFERENCE_PATH)


# --------------------------------------------------------------------------

def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seeds", help="comma-separated seeds for a full set")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--build", help="build directory (default: "
                    "$CARGO_TARGET_DIR or .bench_build)")
    ap.add_argument("--binary", help="use this simra_bench, skip the build")
    ap.add_argument("--out", help="results file runs are appended to")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    ap.add_argument("--reference", nargs=2, metavar=("SET_A", "SET_B"))
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    spec, catalogue = load_spec()
    if args.compare:
        return compare(args.compare[0], args.compare[1], spec)
    if args.reference:
        write_reference(args.reference, spec)
        return 0

    build_dir = args.build or os.environ.get("CARGO_TARGET_DIR") or \
        os.path.join(ROOT, ".bench_build")
    binary = args.binary or build(os.path.abspath(build_dir))
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    if args.workload:
        if args.workload not in workloads:
            raise Failure(EXIT_USAGE, "unknown workload %s" % args.workload)
        seed = DEFAULT_SEED if args.seed is None else args.seed
        result = run_workload(binary, args.workload, seed, seconds,
                              bool(args.trace))
        print_run(result)
        failures = check_run(result, catalogue, smoke=False)
        for code, message in failures:
            log("FAILED: " + message)
        result["correct"] = not failures
        write_results(args.out or os.path.join(
            OUT_DIR, "%s.results.json" % args.workload), [result],
            append=bool(args.out))
        log(contract_line(result, spec, not failures))
        return failures[0][0] if failures else 0

    # Smoke, or a full set: every workload, for each seed.
    seeds = [DEFAULT_SEED] if args.smoke or not args.seeds else \
        [int(s) for s in args.seeds.split(",")]
    runs, failures = [], []
    for seed in seeds:
        for workload in workloads:
            for trace in ([False, True] if args.smoke else [bool(args.trace)]):
                result = run_workload(binary, workload, seed, seconds, trace,
                                      smoke=args.smoke)
                print_run(result)
                contract_line(result, spec, True)  # every metric present
                run_failures = check_run(result, catalogue, args.smoke)
                for code, message in run_failures:
                    log("FAILED: %s: %s" % (workload, message))
                    failures.append(code)
                result["correct"] = not run_failures
                runs.append(result)
    if not args.smoke:
        out = args.out or os.path.join(OUT_DIR, "results.json")
        write_results(out, runs, append=True)
        log("appended %d runs to %s" % (len(runs), out))
    return failures[0] if failures else 0


def terminate(signum, frame):
    raise Failure(EXIT_ERROR, "terminated by signal %d" % signum)


if __name__ == "__main__":
    # A terminated runner still stops the workload process it started.
    signal.signal(signal.SIGTERM, terminate)
    try:
        sys.exit(main(sys.argv[1:]))
    except Failure as e:
        print("run_benchmark: " + str(e), file=sys.stderr)
        sys.exit(e.code)

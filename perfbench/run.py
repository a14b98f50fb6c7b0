#!/usr/bin/env python3
"""The repository benchmark: throughput, latency, set-up time and memory of
gl2kisin on four seeded workloads, with every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...    # every workload in turn
    python3 perfbench/run.py --self-test

Workloads (see BENCHMARK.json for why each exists): classify, classify_ext,
rigidity, profile.  Each run starts the workload in its own process
(worker.py).  An untraced run first starts SETUP_RUNS - 1 processes that only
set up; setup_s is the median, over all SETUP_RUNS processes, of the time from
process start to the first timed item.

The shared host's speed swings by up to 2x over seconds, so every time metric
is scaled to a reference host speed: the worker times a fixed pure-Python
loop (calibrate.py) between items and between the steps of its set-up, and a
time t measured while the loop took r seconds on average is reported as
t * REFERENCE_S / r.  items_per_s is items over their scaled latencies
summed; the raw times are printed beside the metrics.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics of tracer.py and trace_overhead.  Human-readable lines come first;
the last line is one JSON object {"correct", "attempted", "failed",
"metrics"}.  The exit code is 0 when the run completed, even if an answer was
wrong (then "correct" is false), and non-zero when it could not run.

Stdlib only.  The package is imported from ./src of the checkout; nothing is
built.
"""

import argparse
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_work")
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (stdlib only; imports nothing from the package)
import tracer  # noqa: E402

WORKLOADS = ("classify", "classify_ext", "rigidity", "profile")
DEFAULT_SEED = 1
SETUP_RUNS = 5
TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_recorded():
    with open(os.path.join(HERE, "recorded.json")) as fh:
        return json.load(fh)


def spawn(workload, seed, seconds, trace, setup_only, tag):
    """Run one worker; returns (seconds from spawn to READY scaled to the
    reference host speed the worker measured while it set up, result or
    None)."""
    workdir = os.path.join(WORKDIR, "%s-%d-%s" % (workload, os.getpid(), tag))
    argv = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--workdir", workdir,
    ]
    if setup_only:
        argv.append("--setup-only")
    deadline = time.monotonic() + TIMEOUT_S
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=TIMEOUT_S):
                raise BenchError("%s: no READY within %d s" % (workload, TIMEOUT_S))
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        if not line.startswith("READY "):
            proc.wait(timeout=max(deadline - time.monotonic(), 1))
            raise BenchError("%s: worker failed during set-up (exit %s)" % (workload, proc.returncode))
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError("%s: worker did not finish within %d s" % (workload, TIMEOUT_S))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError("%s: worker exited %d" % (workload, proc.returncode))
    setup_s *= calibrate.REFERENCE_S / float(line.split()[1])
    if setup_only:
        return setup_s, None
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError("%s: worker printed no result" % workload)
    return setup_s, json.loads(lines[-1])


def environment(seed, backend):
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "backend": backend,
        "seed": seed,
    }


def check_result(workload, seed, result, problems):
    """Append to problems every way the run's answers were wrong."""
    if result["failed"]:
        problems.append("%d of %d items failed" % (result["failed"], result["attempted"]))
    digests = result["digests"]
    if len(set(digests)) > 1:
        problems.append("CLI report digest changed between passes: %s" % digests)
    if workload == "profile" and seed == DEFAULT_SEED:
        want = load_recorded()["profile_sha256"]
        if digests and digests[0] != want:
            problems.append("CLI report digest %s differs from the recorded %s" % (digests[0], want))
    if not result.get("repeat_exact", True):
        problems.append("calls or work counts differed between traced passes")


def end_to_end(result, setups):
    items = result["items"]
    return [
        ("items_per_s", items / result["scaled_busy_s"], "items/s",
         "n=%d items in %d rounds over %.2f s (%.2f s in items; %d reference loops, mean %.3f ms)"
         % (items, result["rounds"], result["elapsed_s"], result["busy_s"],
            result["references"], result["reference_s"] * 1e3)),
        ("item_p50_ms", result["p50_s"] * 1e3, "ms", "n=%d" % items),
        ("item_p90_ms", result["p90_s"] * 1e3, "ms", "n=%d, %d above" % (items, result["above_p90"])),
        ("setup_s", statistics.median(setups), "s",
         "median of n=%d: %s" % (len(setups), " ".join("%.3f" % s for s in setups))),
        ("peak_rss_mib", result["peak_rss_kib"] / 1024, "MiB", "n=1 process"),
        ("failed_frac", result["failed"] / result["attempted"], "ratio",
         "n=%d attempted, %d failed" % (result["attempted"], result["failed"])),
    ]


def per_layer(result):
    out = {}
    functions = result["functions"]
    for name, _module, _path in tracer.TARGETS:
        out[name + ".calls"] = functions[name]["calls"]
        out[name + ".self_s"] = functions[name]["self_s"]
    for layer in tracer.LAYERS:
        out[layer + ".errors"] = sum(
            v["errors"] for k, v in functions.items() if k.split(".", 1)[0] == layer
        )
    out.update(result["counts"])
    out["trace_overhead"] = result["untraced_s"] / result["traced_s"] - 1
    return out


def print_trace_report(result):
    pass_s = result["traced_s"] / result["passes"]
    print("  traced passes: %d, %d items each; untraced %.3f s, traced %.3f s per pass"
          % (result["passes"], result["items"] // result["passes"],
             result["untraced_s"] / result["passes"], pass_s))
    ranked = sorted(result["functions"].items(), key=lambda kv: -kv[1]["self_s"])
    print("  %-30s %12s %10s %7s" % ("function", "calls", "self_s", "share"))
    for name, v in ranked:
        if v["calls"]:
            print("  %-30s %12d %10.4f %6.1f%%" % (name, v["calls"], v["self_s"], 100 * v["self_s"] / pass_s))
    for kind, shares in sorted(result["kind_shares"].items()):
        top = sorted(shares.items(), key=lambda kv: -kv[1])
        print("  %-10s layer self-time share of item time: %s; outside traced functions %.1f%%" % (
            kind, ", ".join("%s %.1f%%" % (k, 100 * v) for k, v in top if v >= 0.005),
            100 * (1 - sum(shares.values()))))


def run(workload, seed, seconds, trace):
    setups = []
    for i in range(0 if trace else SETUP_RUNS - 1):
        setups.append(spawn(workload, seed, seconds, trace, True, "setup%d" % i)[0])
    setup_s, result = spawn(workload, seed, seconds, trace, False, "run")
    setups.append(setup_s)

    problems = []
    check_result(workload, seed, result, problems)
    env = environment(seed, result["backend"])
    baseline = load_recorded()["baseline"]
    print("perfbench workload=%s seed=%d seconds=%g trace=%d" % (workload, seed, seconds, trace))
    print("env " + json.dumps(env, sort_keys=True))
    if env["backend"] != baseline["env"]["backend"]:
        print("note: backend %s differs from the recorded baseline's %s; do not compare"
              % (env["backend"], baseline["env"]["backend"]))
    metrics = {}
    if trace:
        print_trace_report(result)
        units = dict(tracer.metric_names())
        for name, value in per_layer(result).items():
            metrics[name] = {"value": value, "unit": units[name]}
        print("  trace_overhead %.4f (traced items/s / untraced - 1)" % metrics["trace_overhead"]["value"])
    else:
        for name, value, unit, samples in end_to_end(result, setups):
            print("  %-13s %14.4f %-8s %s" % (name, value, unit, samples))
            # failed_frac is 0 on a good run, so it is reported here and
            # through "failed", not as a compared metric
            if name != "failed_frac":
                metrics[name] = {"value": value, "unit": unit}
    for p in problems:
        print("CHECK FAILED: " + p)
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))


def self_test():
    """Two traced runs per workload on the default seed: answers correct,
    calls/errors/work counts identical, profile digest as recorded."""
    ok = True
    for workload in WORKLOADS:
        results = [spawn(workload, DEFAULT_SEED, 1, 1, False, "self%d" % i)[1] for i in range(2)]
        problems = []
        for result in results:
            check_result(workload, DEFAULT_SEED, result, problems)
        a, b = (per_layer(r) for r in results)
        for name in a:
            exact = not name.endswith(".self_s") and name != "trace_overhead"
            if exact and a[name] != b[name]:
                problems.append("%s differs between runs: %s vs %s" % (name, a[name], b[name]))
        if workload == "profile" and not results[0]["digests"]:
            problems.append("no complete pass, so no digest was checked")
        print("self-test %-13s %s" % (workload, "ok" if not problems else "FAILED"))
        for p in problems:
            print("  " + p)
        ok = ok and not problems
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gl2kisin", "__init__.py")):
        print("perfbench: no gl2kisin package under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if not args.workload:
            ap.error("--workload is required")
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            run(workload, args.seed, args.seconds, args.trace)
        return 0
    except BenchError as exc:
        print("perfbench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        try:
            os.rmdir(WORKDIR)
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one process: set up, signal READY, measure, report.

Run by run.py, which times process start to the READY line as set-up and
scales it by the mean reference loop time that the line carries.  The last
line on stdout is one JSON object with the measurements.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S
        --trace 0|1 --workdir DIR [--setup-only]

Untraced (--trace 0): a closed loop with one client.  The next item starts
when the previous one has finished and been checked; whole rounds run until
another round would pass --seconds.  Each item's latency includes its check
and is scaled to the reference host speed of calibrate.py.

Traced (--trace 1): alternate one untraced and one traced pass over the
leading TRACE_ROUNDS rounds of the pool until another pair would pass
--seconds (at least one pair).  Calls and work counts are per pass and must
repeat exactly in every traced pass; self times are the mean per pass.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

import calibrate  # noqa: E402  (stdlib only; imports nothing from the package)

WARMUP_REFERENCES = 50
# Reference loops run before and after the package import; set-up also
# samples the speed while it builds the pool.
SETUP_REFERENCES = 10


def import_package():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import gl2kisin

    if not os.path.abspath(gl2kisin.__file__).startswith(src + os.sep):
        raise ImportError("gl2kisin was imported from %s, not %s" % (gl2kisin.__file__, src))


class Runner:
    """Runs items in order, counting failures and hashing returned bytes."""

    def __init__(self, pool):
        self.pool = pool
        self.attempted = 0
        self.failed = 0
        self.digests = []  # sha256 of each whole pass that returned bytes
        self._hash = hashlib.sha256()
        self._hashed = False
        self._next_round = 0

    def run_item(self, item):
        _kind, fn, args = item
        self.attempted += 1
        try:
            out = fn(*args)
        except Exception:
            # a raise is a failed item, never a crash of the benchmark
            self.failed += 1
            if self.failed <= 3:
                traceback.print_exc(file=sys.stderr)
            return
        if out is not None:
            self._hash.update(out)
            self._hashed = True

    def next_round(self):
        items = self.pool[self._next_round]
        self._next_round = (self._next_round + 1) % len(self.pool)
        return items

    def end_round(self):
        if self._next_round == 0 and self._hashed:
            self.digests.append(self._hash.hexdigest())
            self._hash = hashlib.sha256()
            self._hashed = False


def timed_phase(runner, seconds):
    """Closed loop over whole rounds.  The reference loop of calibrate.py runs
    before an item whenever calibrate.EVERY_S has passed since it last ran,
    and each latency is scaled by the host speed around it."""
    clock = time.perf_counter
    speed = calibrate.Speed(clock)
    for _ in range(WARMUP_REFERENCES):
        calibrate.reference()
    raw = []  # (start, seconds as measured) of each item
    rounds = 0
    start = clock()
    while True:
        for item in runner.next_round():
            speed.tick()
            t0 = clock()
            runner.run_item(item)
            raw.append((t0, clock() - t0))
        runner.end_round()
        rounds += 1
        elapsed = clock() - start
        if elapsed * (rounds + 1) / rounds > seconds:
            break
    latencies = sorted(dt * speed.scale(t0 + dt / 2) for t0, dt in raw)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return {
        "rounds": rounds,
        "elapsed_s": elapsed,
        "busy_s": sum(dt for _, dt in raw),
        "scaled_busy_s": sum(latencies),
        "references": len(speed.durations),
        "reference_s": statistics.fmean(speed.durations),
        "items": len(latencies),
        "p50_s": statistics.median(latencies),
        "p90_s": p90,
        "above_p90": sum(1 for x in latencies if x > p90),
    }


def run_pass(runner, tracer=None, by_kind=None):
    """One pass over the pool; returns its wall seconds.  With a tracer,
    by_kind[kind] accumulates [wall ns, {layer: self ns}] per item kind."""
    clock = time.perf_counter_ns
    start = clock()
    for _ in range(len(runner.pool)):
        for item in runner.next_round():
            if tracer is None:
                runner.run_item(item)
                continue
            before = tracer.self_ns_by_layer()
            t0 = clock()
            runner.run_item(item)
            wall = clock() - t0
            after = tracer.self_ns_by_layer()
            acc = by_kind.setdefault(item[0], [0, dict.fromkeys(after, 0)])
            acc[0] += wall
            for layer, ns in after.items():
                acc[1][layer] += ns - before[layer]
        runner.end_round()
    return (clock() - start) / 1e9


def traced_phase(runner, seconds):
    import tracer as tracer_mod

    tracer = tracer_mod.Tracer()
    by_kind = {}
    untraced_s = traced_s = 0.0
    passes = 0
    snapshot = None
    repeat_exact = True
    self_ns = [0] * len(tracer.names)
    start = time.perf_counter()
    while True:
        untraced_s += run_pass(runner)
        tracer.reset()
        tracer.install()
        try:
            traced_s += run_pass(runner, tracer, by_kind)
        finally:
            tracer.uninstall()
        passes += 1
        now = tracer.snapshot()
        if snapshot is not None and now != snapshot:
            repeat_exact = False
        snapshot = now
        for i, stat in enumerate(tracer.stats):
            self_ns[i] += stat[1]
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    per_function = {
        name: {
            "calls": snapshot["calls"][name],
            "errors": snapshot["errors"][name],
            "self_s": self_ns[i] / passes / 1e9,
        }
        for i, name in enumerate(tracer.names)
    }
    shares = {
        kind: {layer: ns / wall for layer, ns in layers.items()}
        for kind, (wall, layers) in by_kind.items()
    }
    return {
        "passes": passes,
        "items": passes * sum(len(r) for r in runner.pool),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "functions": per_function,
        "counts": snapshot["counts"],
        "repeat_exact": repeat_exact,
        "kind_shares": shares,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    proto = sys.stdout
    speed = calibrate.Speed(time.perf_counter)
    for _ in range(SETUP_REFERENCES):
        speed.sample()
    import_package()
    import workloads

    for _ in range(SETUP_REFERENCES):
        speed.sample()
    os.makedirs(args.workdir)
    try:
        pool = workloads.build(args.workload, args.seed, args.workdir, speed.tick)
        proto.write("READY %r\n" % statistics.fmean(speed.durations))
        proto.flush()
        if args.setup_only:
            return 0
        if args.trace:
            runner = Runner(pool[: workloads.TRACE_ROUNDS[args.workload]])
            result = traced_phase(runner, args.seconds)
        else:
            runner = Runner(pool)
            result = timed_phase(runner, args.seconds)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    import gl2kisin.fp_linalg

    result.update(
        {
            "attempted": runner.attempted,
            "failed": runner.failed,
            "digests": runner.digests,
            "backend": gl2kisin.fp_linalg.BACKEND,
            "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        }
    )
    proto.write(json.dumps(result, sort_keys=True) + "\n")
    proto.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())

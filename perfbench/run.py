"""degseq benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; degseq is imported from ``src/``.  The
workloads, their output checks and the layer each one stresses are described
in ``perfbench/workloads.py`` and ``perfbench/spec.json``; the metric names
and units come from ``BENCHMARK.json``.

``--trace 0`` times a closed loop of ops for S seconds of op time with no
tracing and reports the end-to-end metrics.  Set-up (``import degseq`` in a
fresh process, building the workload's inputs and oracles, and one warm-up
op) is timed in this process and in two more fresh ones; ``setup_s`` is the
median of the three.

``--trace 1`` reports the per-layer metrics from a fixed number of ops, so
call counts repeat exactly for a given seed and do not depend on S: the ops
run untraced and traced in alternating chunks, then once more with counts
only; the two counted passes must agree on the exact counts, and traced over
untraced op time is ``trace.overhead_ratio``.  The spans are written to
``perfbench/out``.

The last line of standard output is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 2  # fresh processes timed besides the benchmark's own
PROBE_TIMEOUT_S = 120
TRACE_CHUNKS = 4
REF_LOOP_N = 20000
REF_INTERVAL_S = 0.02


def parse_args(argv):
    parser = argparse.ArgumentParser(description="degseq benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def set_up(wl_cls, seed):
    """Build a workload and run its warm-up op, which is not judged."""
    from workloads import WARMUP_INDEX

    wl = wl_cls(seed, OUT)
    wl.setup()
    try:
        wl.op(WARMUP_INDEX)
    except Exception:  # failing ops are counted in the timed loop, not here
        pass
    return wl


def setup_probe(wl_cls, seed):
    """Time import + set-up + one warm-up op in this (fresh) process."""
    start = time.perf_counter()
    set_up(wl_cls, seed)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def timed_setups(workload, seed):
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


class Loop:
    """Outcome of a sequence of ops: latencies, failures, and the gate."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies = []
        self.ref_times = []  # reference-loop seconds around each op (timed runs)
        self.completed = 0
        self.failed = 0
        self.reasons = {}
        self.unexpected = 0
        self.unexpected_examples = []
        self.gate_passed = None
        self.gate_details = {}

    def run_op(self, i):
        wl = self.wl
        start = time.perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:
            problem = "raised %s: %s" % (type(exc).__name__, exc)
        else:
            problem = None
        self.latencies.append(time.perf_counter() - start)
        if problem is None:
            self.completed += 1
            try:
                problem = wl.check(i, out)
            except Exception as exc:
                problem = "check raised %s: %s" % (type(exc).__name__, exc)
            if problem is None:
                wl.collect(out)
        if problem is not None:
            self.failed += 1
            self.reasons[problem] = self.reasons.get(problem, 0) + 1
            if not wl.known_failure(i):
                self.unexpected += 1
                if len(self.unexpected_examples) < 20:
                    self.unexpected_examples.append({"op": i, "problem": problem})

    def run_gate(self):
        try:
            self.gate_passed, self.gate_details = self.wl.gate()
        except Exception as exc:
            self.gate_passed = False
            self.gate_details = {"raised": "%s: %s" % (type(exc).__name__, exc)}
        if not self.gate_passed:
            # the run's outputs are judged together, so all of them fail
            self.failed = self.attempted

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def correct(self):
        return bool(self.gate_passed) and not self.unexpected


def reference_loop():
    """Time a fixed pure-Python loop (about 1 ms): the yardstick op times are
    divided by, so that a host running slower for a while slows both."""
    start = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP_N):
        acc += i * i
    return time.perf_counter() - start


def run_timed(wl, seconds):
    """Closed loop until the ops' own time reaches ``seconds``, stopping on a
    multiple of the workload's period and after at least ``min_ops`` ops.

    Between ops, the reference loop is timed whenever REF_INTERVAL_S has
    passed since the last time, and once more at the end; each op is scored
    against the mean of the reference times just before and just after it.
    """
    loop = Loop(wl)
    refs = []  # (index of the next op, reference seconds)
    last_ref = float("-inf")
    busy = 0.0
    i = 0
    while True:
        if time.perf_counter() - last_ref >= REF_INTERVAL_S:
            refs.append((i, reference_loop()))
            last_ref = time.perf_counter()
        loop.run_op(i)
        busy += loop.latencies[-1]
        i += 1
        if i % wl.period == 0 and i >= wl.min_ops and busy >= seconds:
            break
    refs.append((i, reference_loop()))
    k = 0
    for op in range(i):
        while refs[k + 1][0] <= op:
            k += 1
        loop.ref_times.append((refs[k][1] + refs[k + 1][1]) / 2)
    loop.run_gate()
    return loop


def run_fixed(wl, n_ops):
    loop = Loop(wl)
    for i in range(n_ops):
        loop.run_op(i)
    loop.run_gate()
    return loop


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[int(round(q * 100)) - 1]


def end_to_end_metrics(loop, setup_samples, names):
    """The end-to-end metrics named in BENCHMARK.json, and the rest of what
    the run measured for the record.  ``*_ref`` metrics are op times divided
    by the reference loop's time around them."""
    wl = loop.wl
    busy = sum(loop.latencies)
    ratios = [t / r for t, r in zip(loop.latencies, loop.ref_times)]
    measured = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ref": statistics.median(ratios),
        "op_p90_ref": quantile(ratios, 0.9),
        "ops_per_ref": loop.completed / sum(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "error_ratio": loop.failed / loop.attempted,
        "ops_per_s": loop.completed / busy,
        "graphs_per_s": (loop.completed * wl.graphs_per_op / busy) if wl.graphs_per_op else None,
        "op_p10_ms": quantile(loop.latencies, 0.1) * 1e3,
        "op_p50_ms": statistics.median(loop.latencies) * 1e3,
        "op_p90_ms": quantile(loop.latencies, 0.9) * 1e3,
        "ref_p50_ms": statistics.median(loop.ref_times) * 1e3,
        "op_samples": loop.attempted,
        "busy_s": busy,
    }
    values = {name: measured.pop(name) for name in names}
    measured["setup_samples_s"] = setup_samples
    return values, measured


def per_layer_metrics(rec, names, untraced_s, traced_s):
    times = rec.self_times()
    accepted, drawn = rec.accepted_pairings()
    values = {}
    for key in names:
        if key == "trace.overhead_ratio":
            values[key] = traced_s / untraced_s
        elif key == "sampler.accept_ratio":
            values[key] = accepted / drawn if drawn else 0.0
        elif key.endswith(".self_s"):
            values[key] = times.get(key[: -len(".self_s")], 0.0)
        elif key.endswith(".calls"):
            values[key] = rec.counts.get(key[: -len(".calls")], 0)
        else:
            values[key] = rec.counts.get(key, 0)
    return values


def run_traced(wl_cls, seed, names):
    """Per-layer metrics from ``trace_ops`` ops run twice, untraced and traced,
    in alternating chunks so that drift on a shared host hits both sides; then
    a counts-only pass of the same ops must repeat the exact counts."""
    from spans import COUNTS, OFF, SPANS, Recorder

    n_ops = wl_cls.trace_ops
    untraced = Loop(set_up(wl_cls, seed))
    rec = Recorder()
    try:
        rec.install()
        rec.reset(SPANS)
        traced = Loop(wl_cls(seed, OUT))
        traced.wl.setup()
        rec.mode = OFF
        step = -(-n_ops // TRACE_CHUNKS)
        for first in range(0, n_ops, step):
            rec.uninstall()
            for i in range(first, min(first + step, n_ops)):
                untraced.run_op(i)
            rec.install()
            rec.mode = SPANS
            for i in range(first, min(first + step, n_ops)):
                traced.run_op(i)
            rec.mode = OFF
        untraced.run_gate()
        rec.mode = SPANS
        traced.run_gate()
        rec.mode = OFF
        values = per_layer_metrics(rec, names, sum(untraced.latencies), sum(traced.latencies))
        rec.dump(os.path.join(OUT, "spans-%s-seed%d.json" % (wl_cls.name, seed)))
        counted = rec.exact_counts()

        rec.reset(COUNTS)
        again = wl_cls(seed, OUT)
        again.setup()
        run_fixed(again, n_ops)
        recounted = rec.exact_counts()
    finally:
        rec.uninstall()
    repeat = counted == recounted
    extra = {
        "trace_ops": n_ops,
        "exact_counts": counted,
        "exact_counts_repeat": repeat,
        "exact_counts_second_pass": recounted,
        "untraced_ops_s": sum(untraced.latencies),
        "traced_ops_s": sum(traced.latencies),
        "untraced_correct": untraced.correct,
    }
    return traced, values, extra, repeat and untraced.correct


def git_sha():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_record(wl, args):
    import degseq
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "params": wl.params(),
        "machine": {
            "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
            "cpu_model": cpu_model(),
            "shared_host": True,
            "platform": platform.platform(),
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "degseq": degseq.__version__,
        },
        "git_sha": git_sha(),
        "timer": "time.perf_counter",
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "degseq", "__init__.py")):
        print("perfbench: no degseq sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    wl_cls = WORKLOADS.get(args.workload)
    if wl_cls is None:
        print("perfbench: unknown workload %r (have %s)" % (args.workload, ", ".join(WORKLOADS)),
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        return setup_probe(wl_cls, args.seed)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        loop, values, extra, repeat = run_traced(wl_cls, args.seed, names)
        correct = loop.correct and repeat
    else:
        start = time.perf_counter()
        wl = set_up(wl_cls, args.seed)
        setup_samples = [time.perf_counter() - start] + timed_setups(args.workload, args.seed)
        loop = run_timed(wl, args.seconds)
        names = [m["name"] for m in bench["end_to_end"]]
        values, extra = end_to_end_metrics(loop, setup_samples, names)
        correct = loop.correct

    record = machine_record(loop.wl, args)
    record.update(
        metrics=values,
        extra=extra,
        attempted=loop.attempted,
        failed=loop.failed,
        failure_reasons=loop.reasons,
        unexpected_failures={"count": loop.unexpected, "first": loop.unexpected_examples},
        gate={"passed": loop.gate_passed, **loop.gate_details},
        correct=correct,
    )
    with open(os.path.join(OUT, "record-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for key, value in values.items():
        print("%-42s %14.6g %s" % (key, value, units[key]))
    for key, value in extra.items():
        if not isinstance(value, (dict, list)):
            print("%-42s %14s" % (key, "n/a" if value is None else "%.6g" % value))
    print("record " + json.dumps(record, default=str))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

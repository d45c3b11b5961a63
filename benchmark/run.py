#!/usr/bin/env python3
"""thetakit benchmark: one closed-loop client running one workload.

Usage, from the root of a source checkout:

    python3 benchmark/run.py --workload contiguity --seed 1 --seconds 30 --trace 0

Workloads: contiguity, normal_form, cli (see README.md).  With
``--trace 0`` the run measures the end-to-end metrics for --seconds
(whole rounds, at least MIN_OPS operations).  With ``--trace 1`` it runs
a fixed number of rounds in-process (each op untraced and with spans,
then once more counting scalar operations) and reports the per-layer
metrics, so that every count repeats exactly for a given seed.

Every output is checked by benchmark/oracles.py.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import (  # noqa: E402
    REF_NOMINAL_S, ROOT, child_env, import_thetakit, median, quantile, reference_seconds,
)
from inputs import workload_rng  # noqa: E402
from tracing import Patches, ScalarCounter, SpanTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else [0]
SETUP_REPEATS = 7
IMPORTTIME_REPEATS = 3

REF_EVERY_S = 0.1  # op time between two reference timings

IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); import thetakit; "
    "d = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "from common import reference_seconds; print(d, reference_seconds())"
)


def fresh_import_seconds():
    """(wall, calibrated) time of `import thetakit` in a fresh interpreter.

    The child times the reference loop right after the import, on the
    same CPU, and the calibrated time is scaled by it.
    """
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(HERE)],
        capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60, check=True,
    )
    wall, ref = (float(x) for x in proc.stdout.split()[-2:])
    return wall, wall * REF_NOMINAL_S / ref


def import_times() -> dict:
    """Cumulative `-X importtime` seconds of thetakit and numpy (medians)."""
    found = {"thetakit": [], "numpy": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import thetakit"],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=60, check=True,
        )
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S+)\s*$", line)
            if m and m.group(2) in found:
                found[m.group(2)].append(int(m.group(1)) / 1e6)
    return {name: median(v) if v else 0.0 for name, v in found.items()}


def on_cpu(k=None):
    """Pin this process, and the children it starts, to the k-th usable
    CPU (cyclically), or to all of them when k is None.  Each CPU of a
    shared machine has its own slow stretches; alternating gives every
    label samples from both."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, set(CPUS) if k is None else {CPUS[k % len(CPUS)]})
        except OSError:  # pinning refused: measure unpinned
            pass


def import_samples(first_cpu):
    """SETUP_REPEATS fresh-interpreter import times, alternating CPUs."""
    samples = []
    for k in range(SETUP_REPEATS):
        on_cpu(first_cpu + k)
        samples.append(fresh_import_seconds())
    return samples


def run_op(op):
    """(seconds, ok) of one operation; only the call is timed."""
    t0 = perf_counter()
    try:
        result, exc = op.call(), None
    except Exception as e:  # a raise is an outcome the check judges
        result, exc = None, e
    elapsed = perf_counter() - t0
    return elapsed, op.check(result, exc)


class Tally:
    """Operations attempted and failed, and the labels of unexpected failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []

    def add(self, op, ok):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if not op.known_faulty:
                self.unexpected.append(op.label)


def round_figures(samples, labels):
    """(throughput_ops_s, latency_p50_ms, latency_p90_ms) of one round
    with every op at its label's median latency."""
    by_label = {label: median(v) for label, v in samples.items()}
    latencies = sorted(by_label[label] for label in labels)
    return (
        len(latencies) / sum(latencies),
        quantile(latencies, 0.5) * 1e3,
        quantile(latencies, 0.9) * 1e3,
    )


class Calibrated:
    """Op times put on the reference speed scale.

    The reference loop is timed when a round starts (just after the CPU
    switch), after every REF_EVERY_S of op time and when the round ends.
    Each op time is multiplied by REF_NOMINAL_S over the mean of the two
    reference timings around it.  The wall times are kept as well.
    """

    def __init__(self):
        self.samples, self.wall = {}, {}
        self.pending, self.since, self.ref = [], 0.0, None

    def start_round(self):
        self.ref = reference_seconds()

    def add(self, label, elapsed):
        self.pending.append((label, elapsed))
        self.since += elapsed
        if self.since >= REF_EVERY_S:
            self.settle()

    def settle(self):
        ref = reference_seconds()
        scale = 2 * REF_NOMINAL_S / (self.ref + ref)
        for label, elapsed in self.pending:
            self.samples.setdefault(label, []).append(elapsed * scale)
            self.wall.setdefault(label, []).append(elapsed)
        self.pending, self.since, self.ref = [], 0.0, ref


def measure(workload, seed, seconds):
    """Closed loop of whole rounds for `seconds`, at least MIN_OPS ops.

    Ops with one label do the same work on other values.  A label's
    latency is the median of all its calibrated samples in the run (see
    Calibrated); throughput and the latency percentiles are those of one
    round with every op at its label's latency.  On a shared machine
    each CPU runs up to twice as slow for stretches of seconds to
    minutes: calibration takes most of that out, per-label medians the
    rest, and the rounds alternate between the CPUs.

    setup_s is the median of 2 * SETUP_REPEATS calibrated imports, half
    before the loop and half after it.

    Returns the tally, the metrics, and the same figures in wall time.
    """
    fresh_import_seconds()  # compiles the bytecode caches, paid once per install
    before = import_samples(0)
    for op in workload.round(workload_rng(seed, "warmup-" + workload.name))[:3]:
        run_op(op)
    rng = workload_rng(seed, workload.name)
    tally, times, rounds = Tally(), Calibrated(), 0
    start = perf_counter()
    while perf_counter() - start < seconds or tally.attempted < MIN_OPS:
        on_cpu(rounds)
        times.start_round()
        labels = []
        for op in workload.round(rng):
            elapsed, ok = run_op(op)
            tally.add(op, ok)
            times.add(op.label, elapsed)
            labels.append(op.label)
        times.settle()
        rounds += 1
    after = import_samples(1)
    on_cpu(None)
    names = ("throughput_ops_s", "latency_p50_ms", "latency_p90_ms")
    units = ("ops/s", "ms", "ms")
    metrics = dict(zip(names, zip(round_figures(times.samples, labels), units)))
    metrics["peak_rss_mb"] = (workload.peak_rss_mb(), "MB")
    metrics["setup_s"] = (median([c for _, c in before + after]), "s")
    wall = dict(zip(names, zip(round_figures(times.wall, labels), units)))
    wall["setup_s"] = (median([w for w, _ in before + after]), "s")
    return tally, metrics, wall


def recorded(op, recorder):
    """run_op with the recorder switched on for the timed call only."""
    recorder.active = True
    try:
        return run_op(op)
    finally:
        recorder.active = False


def trace(workload, seed):
    """Per-layer metrics over a fixed number of rounds, run in-process."""
    rng = workload_rng(seed, workload.name)
    ops = [op for _ in range(workload.trace_rounds) for op in workload.round(rng, in_process=True)]
    for op in ops[:3]:  # warm-up, as in measure()
        run_op(op)

    # Each op runs once untraced and once traced, in alternating order,
    # so that drift over the pass weighs on both sides alike.
    spans, tally = SpanTracer(), Tally()
    untraced = traced = 0.0
    for index, op in enumerate(ops):
        if index % 2:
            untraced += run_op(op)[0]
        with Patches() as patches:
            spans.install(patches)
            spans.op = index
            elapsed, ok = recorded(op, spans)
        traced += elapsed
        tally.add(op, ok)
        if not index % 2:
            untraced += run_op(op)[0]

    scalars = ScalarCounter()
    with Patches() as patches:
        scalars.install(patches)
        for op in ops:
            recorded(op, scalars)

    metrics = {}
    for name, vals in spans.summary().items():
        metrics[name + ".calls"] = (vals["calls"], "count")
        metrics[name + ".self_s"] = (vals["self_s"], "s")
    metrics["theta.mul.term_pairs"] = (spans.term_pairs, "count")
    for name, value in scalars.summary().items():
        metrics["scalars." + name] = (value, "share" if name.endswith("share") else "count")
    inverses = metrics["linalg.inverse.calls"][0]
    metrics["rigidity.inverses_per_op"] = (inverses / len(ops), "count/op")
    imports = import_times()
    metrics["cli.import.thetakit_s"] = (imports["thetakit"], "s")
    metrics["cli.import.numpy_s"] = (imports["numpy"], "s")
    metrics["trace.ops"] = (len(ops), "count")
    metrics["trace.untraced_throughput_ops_s"] = (len(ops) / untraced, "ops/s")
    metrics["trace.traced_throughput_ops_s"] = (len(ops) / traced, "ops/s")
    metrics["trace.overhead_share"] = (traced / untraced - 1.0, "share")
    return tally, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        tk = import_thetakit()
    except ImportError as exc:
        sys.stderr.write("error: cannot import thetakit: %s\n" % (exc,))
        return 2
    workload = WORKLOADS[args.workload](tk)

    print("# workload=%s seed=%d seconds=%g trace=%d" % (
        workload.name, args.seed, args.seconds, args.trace))
    print("# backend=%s python=%s nproc=%d" % (
        tk.BACKEND, platform.python_version(), os.cpu_count() or 0))

    if args.trace:
        tally, metrics = trace(workload, args.seed)
        wall = {}
    else:
        tally, metrics, wall = measure(workload, args.seed, args.seconds)

    for name, (value, unit) in sorted(metrics.items()):
        print("# %-40s %14.6g %s" % (name, value, unit))
    for name, (value, unit) in sorted(wall.items()):
        print("# %-40s %14.6g %s" % ("wall." + name, value, unit))
    print("# attempted=%d failed=%d unexpected=%s" % (
        tally.attempted, tally.failed, sorted(set(tally.unexpected)) or "none"))
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded closed-loop benchmark of the quadloc toolkit.

Run from the root of a checkout::

    python3 perfbench/run.py --workload maps --seed 1 --seconds 30 --trace 0

One process runs one workload with a single client and no threads.  It
builds the workload's inputs from ``--seed``, then runs whole rounds of the
same ops until the next round would end after ``--seconds`` of wall time
(at least ``MIN_ROUNDS`` rounds).  After each of the first rounds it builds
the inputs again, to time the set-up ``SETUP_RUNS`` times in all.  Every
time is taken at nominal speed: multiplied by the speed factor that
``reference_work``, timed just before, gives.  The latency percentiles are
taken over every op of every round, ``ops_per_s`` over the median round and
``setup_s`` is the median build.  Every op's output is
checked between ops, outside the timed intervals.  Each metric is printed
on its own line as ``name value unit n=samples``; the last line of standard
output is a JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``).  A traced run alternates
``TRACED_ROUNDS`` untraced and ``TRACED_ROUNDS`` traced rounds, then runs
the workload's ladder ops once, traced, and writes its spans to
``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A timed run has at least this many rounds.
MIN_ROUNDS = 5
# The set-up runs this many times in a timed run; setup_s is the median.
SETUP_RUNS = 7
# Untraced and traced rounds of a traced run, each.
TRACED_ROUNDS = 2
# The time reference_work takes at the nominal speed the end-to-end times
# are quoted in (about its median on the 2-core machine this was tuned on).
REFERENCE_S = 0.001

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer self-time stems; each gives <stem>_s and <stem>_s.calls.
SPAN_STEMS = (
    "textio.parse", "textio.write",
    "surface_map.faces", "surface_map.classify", "surface_map.medial",
    "surface_map.double_cover", "surface_map.assemble",
    "quadform.parity", "quadform.profile", "quadform.excess", "quadform.phi3_cert",
    "quadform.refine", "quadform.crosscap", "quadform.diag_identify",
    "trisub.subdivide", "trisub.flip_walk", "trisub.tq_bound",
    "localcolor.search", "localcolor.verify",
    "semifree.reduce", "semifree.table", "semifree.walk_label",
    "constructions.build",
)
# Work counts recorded at the same boundaries: metric -> (count, time stem).
RATES = {
    "textio.parse_darts_per_s": ("textio.parse_darts", "textio.parse"),
    "surface_map.faces_darts_per_s": ("surface_map.faces_darts", "surface_map.faces"),
    "surface_map.assemble_darts_per_s": ("surface_map.assemble_darts", "surface_map.assemble"),
    "trisub.flips_per_s": ("trisub.flips", "trisub.flip_walk"),
    "localcolor.nodes_per_s": ("localcolor.nodes", "localcolor.search"),
    "semifree.letters_per_s": ("semifree.letters_in", "semifree.reduce"),
}
COUNTS = ("trisub.flips", "localcolor.nodes", "localcolor.budget_stops",
          "semifree.letters_in", "semifree.letters_cancelled")
# Mean self time per call of one layer on one input size: the readings the
# roadmap's "done when" thresholds are stated in.  Map readings are by the
# refine level of the input; each level is a 9x step in size.
READINGS = (
    [("quadform.refine", f"L{k}") for k in (0, 1, 2)]
    + [(stem, f"L{k}") for stem in ("textio.parse", "surface_map.faces", "quadform.profile",
                                    "surface_map.medial") for k in (1, 2, 3)]
    + [("trisub.subdivide", f"L{k}") for k in (1, 2)]
    + [("surface_map.faces", f"C{n}") for n in (1000, 2000, 4000, 8000)]
    + [("semifree.reduce", f"w{n}") for n in (250, 500, 1000, 2000)]
)


def per_layer_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for stem in SPAN_STEMS:
        units[f"{stem}_s"] = "s"
        units[f"{stem}_s.calls"] = "count"
    for name in RATES:
        units[name] = "1/s"
    for name in COUNTS:
        units[name] = "count"
    units["localcolor.nodes_to_verdict"] = "count"
    for stem, tag in READINGS:
        units[f"{stem}.{tag}_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Records a span around each public call an op makes.

    Disabled, it calls straight through.  Enabled, it keeps spans in memory
    as ``(name, tag, start, end, op_id, parent)``; ``parent`` is the index of
    the enclosing span.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.counts = defaultdict(int)
        self.verdict_nodes = []
        self.op_id = None
        self.tag = ""
        self._stack = []

    def call(self, name, fn, *args, tag=None):
        if not self.enabled:
            return fn(*args)
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, tag or self.tag, start, end, self.op_id, parent)

    def count(self, name, n):
        if self.enabled:
            self.counts[name] += n

    def search_outcome(self, nodes, verdict):
        if self.enabled:
            self.counts["localcolor.nodes"] += nodes
            if verdict:
                self.verdict_nodes.append(nodes)
            else:
                self.counts["localcolor.budget_stops"] += 1

    def self_times(self):
        """(name, tag) -> [self time per span]; op spans are left out."""
        child = [0.0] * len(self.spans)
        for name, tag, start, end, op, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(list)
        for i, (name, tag, start, end, op, parent) in enumerate(self.spans):
            if not name.startswith("op "):
                out[(name, tag)].append(end - start - child[i])
        return out

    def dump(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, tag, start, end, op, parent in self.spans:
                fh.write(json.dumps({"name": name, "tag": tag, "start": start, "end": end,
                                     "op": op, "parent": parent}) + "\n")


def reference_work():
    """A fixed pure-Python loop that calls no quadloc code.

    The machine this benchmark was tuned on is shared, and the speed it
    gives one process drifts by up to 1.7 times, over seconds and over
    minutes, for this loop and for the program alike.  Timed just before
    each op, the loop measures the speed the op ran at."""
    table, n = {}, 0
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
        n += len(str(i))
    return n


def speed():
    """The current speed: nominal time of ``reference_work`` over its time now."""
    start = time.perf_counter()
    reference_work()
    return REFERENCE_S / (time.perf_counter() - start)


def run_setup(workload, name, seed, tracer):
    """Builds the inputs from the seed; returns them, the build time and the
    speed just before it."""
    tracer.op_id, tracer.tag = "setup", ""
    rng = random.Random(f"perfbench/{name}/{seed}")
    gc.collect()
    factor = speed()
    start = time.perf_counter()
    inputs = workload.setup(rng, tracer)
    return inputs, time.perf_counter() - start, factor


def run_ops(ops, tracer, label):
    """Runs the ops in order under ``tracer``; returns their latencies, the
    speed just before each, and the failures."""
    latencies, speeds, failures = [], [], []
    for i, op in enumerate(ops):
        tracer.op_id, tracer.tag = f"{label}.{i}", op.tag
        # Each op starts with no garbage left by the last, as a fresh
        # CLI process does, so no op pays for another's collection.
        gc.collect()
        speeds.append(speed())
        start = time.perf_counter()
        try:
            out = tracer.call("op " + op.kind, op.run, tracer)
            error = None
        except Exception as exc:  # a raising op is a failed op
            error = exc
        latencies.append(time.perf_counter() - start)
        if error is None:
            try:
                op.check(out)
            except Exception as exc:  # a wrong output is a failed op
                error = exc
        if error is not None:
            failures.append(f"{op.kind} [{op.tag}]: {type(error).__name__}: {error}")
    return latencies, speeds, failures


def end_to_end(rounds, setup_times):
    """The end-to-end metrics from ``(time, speed)`` pairs: each time is
    multiplied by the speed just before it, which gives it at nominal speed."""
    ms = [t * v * 1000 for pairs in rounds for t, v in pairs]
    round_s = [sum(t * v for t, v in pairs) for pairs in rounds]
    return {
        "ops_per_s": (len(rounds[0]) / statistics.median(round_s), len(rounds)),
        "op_p50_ms": (statistics.median(ms), len(ms)),
        "op_p90_ms": (statistics.quantiles(ms, n=10)[8], len(ms)),
        "setup_s": (statistics.median(t * v for t, v in setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
    }


def per_layer(tracer, overhead_ratio):
    selfs = tracer.self_times()
    by_stem = defaultdict(list)
    for (name, _tag), xs in selfs.items():
        by_stem[name].extend(xs)
    out = {}
    for stem in SPAN_STEMS:
        xs = by_stem.get(stem, [])
        out[f"{stem}_s"] = (sum(xs), len(xs))
        out[f"{stem}_s.calls"] = (len(xs), len(xs))
    for name, (count, stem) in RATES.items():
        t = sum(by_stem.get(stem, []))
        out[name] = (tracer.counts[count] / t if t else 0.0, len(by_stem.get(stem, [])))
    for name in COUNTS:
        out[name] = (tracer.counts[name], 1)
    v = tracer.verdict_nodes
    out["localcolor.nodes_to_verdict"] = (sum(v) / len(v) if v else 0.0, len(v))
    for stem, tag in READINGS:
        xs = selfs.get((stem, tag), [])
        out[f"{stem}.{tag}_s"] = (sum(xs) / len(xs) if xs else 0.0, len(xs))
    out["trace.overhead_ratio"] = (overhead_ratio, 1)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    if not (SRC / "quadloc" / "__init__.py").is_file():
        print(f"perfbench: no quadloc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = Tracer(bool(args.trace))
    untraced = Tracer(False)
    inputs, setup_s, factor = run_setup(workload, args.workload, args.seed, tracer)
    # The modules and inputs live all run; frozen, the collector skips them,
    # as a CLI process holds only its own op's objects.
    gc.freeze()

    rounds, failures = [], []
    if args.trace:
        # A fixed amount of work, so per-layer totals compare across commits:
        # untraced and traced rounds alternate, and the ratio of their op
        # times at nominal speed gives the tracing overhead.  The ladder ops
        # run last.
        nominal = [0.0, 0.0]
        for r in range(2 * TRACED_ROUNDS):
            latencies, speeds, failed = run_ops(workload.round(inputs), (untraced, tracer)[r % 2], r)
            nominal[r % 2] += sum(t * v for t, v in zip(latencies, speeds))
            rounds.append(latencies)
            failures += failed
        tracer.op_id, tracer.tag = "ladder", ""
        ladder = workload.ladder(inputs, random.Random(f"perfbench/{args.workload}/{args.seed}/ladder"),
                                 tracer)
        latencies, _speeds, failed = run_ops(ladder, tracer, "ladder")
        rounds.append(latencies)
        failures += failed
        overhead = nominal[1] / nominal[0] - 1
        metrics = per_layer(tracer, overhead)
        units = per_layer_units()
        tracer.dump(ROOT / ".bench_build" / "perfbench" / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        setup_times, longest = [(setup_s, factor)], 0.0
        while True:
            start = time.perf_counter()
            latencies, speeds, failed = run_ops(workload.round(inputs), untraced, len(rounds))
            rounds.append(list(zip(latencies, speeds)))
            failures += failed
            if len(setup_times) < SETUP_RUNS:
                again, setup_s, factor = run_setup(workload, args.workload, args.seed, untraced)
                if again != inputs:
                    raise RuntimeError("set-up is not deterministic for a fixed seed")
                setup_times.append((setup_s, factor))
            longest = max(longest, time.perf_counter() - start)
            if len(rounds) >= MIN_ROUNDS and time.perf_counter() + longest > deadline:
                break
        metrics = end_to_end(rounds, setup_times)
        units = END_TO_END
        raw = end_to_end([[(t, 1.0) for t, _v in pairs] for pairs in rounds],
                         [(t, 1.0) for t, _v in setup_times])
        print(f"speed: median {statistics.median(v for pairs in rounds for _t, v in pairs):.4f} of nominal; "
              "times as measured: " + ", ".join(f"{name} {raw[name][0]:.6g}" for name in
                                                 ("ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s")))

    attempted = sum(map(len, rounds))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(rounds)} rounds, "
          f"{attempted} ops, {len(failures)} failed, fail_ratio {len(failures) / attempted:.4f}")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    for name, (value, samples) in metrics.items():
        print(f"  {name} {value:.6g} {units[name]} n={samples}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, (value, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

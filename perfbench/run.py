"""Benchmark relgw on one workload, end to end or per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures set-up in fresh interpreters, then runs whole passes over
the workload's inputs for about S seconds and reports the end-to-end
metrics, times in reference seconds (see speedmeter.py).  --trace 1 runs one untraced and one traced pass and reports the
per-layer metrics.  Every op's output is checked outside the timed region.
Human-readable lines come first; the last line of stdout is one JSON object.
Exit status is 2 when the program cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter

from speedmeter import SpeedMeter, rescale
from tracer import Tracer, layer_metrics
from workloads import DEGREE_ZERO_GAP, HERE, ROOT, WORKLOADS, Relgw, failure_reason

SETUP_REPEATS = 15


def measure_setup(entries) -> tuple[float, float]:
    """Median reference and wall seconds of set-up in fresh interpreters."""
    refs, walls = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *entries],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        ref, wall = map(float, done.stdout.split()[-2:])
        refs.append(ref)
        walls.append(wall)
    return statistics.median(refs), statistics.median(walls)


def run_pass(rg, wl, tracer: Tracer | None = None):
    """One pass over the workload's ops: (wall seconds, [(t0, t1, out, error)])."""
    clock = time.perf_counter
    results = []
    start = clock()
    for op in wl.ops:
        t0 = clock()
        try:
            if tracer is None:
                out = wl.run(rg, op)
            else:
                with tracer.span("bench.op"):
                    out = wl.run(rg, op)
            err = None
        except Exception as exc:   # an op failure is recorded, the run goes on
            out, err = None, exc
        results.append((t0, clock(), out, err))
    return clock() - start, results


class Tally:
    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.reasons: Counter = Counter()
        self.correct = True

    @property
    def failed(self) -> int:
        return self.attempted - self.ok

    def judge(self, rg, wl, results) -> None:
        for op, (_, _, out, err) in zip(wl.ops, results):
            self.attempted += 1
            if err is not None:
                reason = failure_reason(err)
                known_gap = wl.degree_zero(op) and reason == DEGREE_ZERO_GAP
                if not known_gap and not self.reasons[reason]:
                    traceback.print_exception(err, file=sys.stderr)
            else:
                reason = wl.check(rg, op, out)
                known_gap = False
            if reason is None:
                self.ok += 1
                continue
            self.reasons[reason] += 1
            if not known_gap:
                self.correct = False


def _percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def pass_summary(spans, ticks) -> tuple[float, float, float]:
    """(reference seconds, op p50 ms, op p99 ms) of one pass's op spans."""
    refs = [rescale(t0, t1, ticks)[1] for t0, t1 in spans]
    return sum(refs), _percentile(refs, 50) * 1e3, _percentile(refs, 99) * 1e3


def end_to_end(rg, wl, seconds: float, tally: Tally) -> dict:
    """Whole passes under a SpeedMeter, each op's time rescaled to the
    reference speed; medians are over passes."""
    setup_s, setup_wall_s = measure_setup(wl.setup_entries)
    rg.setup(wl.setup_entries)
    wl.prepare(rg)
    walls, summaries, spans = [], [], None
    with SpeedMeter() as meter:
        while True:
            wall, results = run_pass(rg, wl)
            tally.judge(rg, wl, results)
            # the previous pass's last tick has come by now; summing as we
            # go keeps memory the same whatever the number of passes
            if spans:
                summaries.append(pass_summary(spans, meter.ticks))
            spans = [(t0, t1) for t0, t1, _, _ in results]
            del results   # one pass's outputs at a time
            walls.append(wall)
            if sum(walls) + statistics.median(walls) > seconds:
                break
    summaries.append(pass_summary(spans, meter.ticks))
    pass_ref_s, p50, p99 = (statistics.median(col) for col in zip(*summaries))
    return {
        "setup_s": (setup_s, "s"),
        "pass_ref_s": (pass_ref_s, "s"),
        "ops_per_ref_s": (tally.ok / len(walls) / pass_ref_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
        "ok_ratio": (tally.ok / tally.attempted, "ratio"),
        "passes": (len(walls), "count"),
        "samples": (tally.attempted, "count"),
        "setup_wall_s": (setup_wall_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "slowdown": (meter.slowdown(), "ratio"),
        "op_p50_ref_ms": (p50, "ms"),
        "op_p99_ref_ms": (p99, "ms"),
    }


def per_layer(rg, wl, seed: int, tally: Tally) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.span("bench.setup"):
            rg.setup(wl.setup_entries)
    finally:
        tracer.uninstall()
    wl.prepare(rg)
    plain_wall, results = run_pass(rg, wl)
    tally.judge(rg, wl, results)
    tracer.install()
    try:
        with tracer.span("bench.pass"):
            traced_wall, results = run_pass(rg, wl, tracer)
    finally:
        tracer.uninstall()
    tally.judge(rg, wl, results)

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer.write(out_dir / f"spans-{wl.name}-{seed}.tsv.gz")

    metrics = layer_metrics(tracer)
    totals = tracer.totals()
    wall = sum(totals[name][1] for name in ("bench.setup", "bench.pass"))
    layer_self = sum(row[2] for name, row in totals.items()
                     if not name.startswith("bench."))
    metrics["trace.wall_s"] = (wall, "s")
    metrics["trace.layer_self_s"] = (layer_self, "s")
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        rg = Relgw()
        wl = WORKLOADS[args.workload](args.seed)
    except (RuntimeError, ImportError, OSError) as exc:
        print(f"error: cannot load the program or its inputs: {exc}",
              file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        metrics = per_layer(rg, wl, args.seed, tally)
    else:
        metrics = end_to_end(rg, wl, args.seconds, tally)
        # printed for the reader, not reported as metrics: wall times move
        # with the state of a shared machine more than any regression
        # bound allows, and the median op of scenario_files is a 4 ms file
        # whose reference time still does (see README.md)
        for name in ("passes", "samples", "setup_wall_s", "wall_s", "slowdown",
                     "op_p50_ref_ms"):
            value, unit = metrics.pop(name)
            print(f"{name}\t{value}\t{unit}")

    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value:.6g}\t{unit}")
    for reason, n in sorted(tally.reasons.items()):
        print(f"failed\t{n}\t{reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

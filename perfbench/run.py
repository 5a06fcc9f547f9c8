"""Benchmark of the steinercycles solver, run from the root of a checkout.

    python3 perfbench/run.py --workload refute|sweep|corpus --seed N \
        --seconds S --trace 0|1 [--size full|smoke]

One process, one thread, one caller asking for one verdict at a time (a
closed loop).  The run imports the package from `src/` and builds the
workload's inputs from the seed several times (`setup_s` is the median),
then repeats the workload's fixed batch of verdicts until the next batch
would overrun `--seconds` (always at least one batch).  Every answer is
checked against an independent reference after the timed part.  Reported
times are rescaled to a reference machine speed (see speed.py); the raw
ones are printed in the report.

With `--trace 0` the last line of stdout is a JSON object holding the
end-to-end metrics; with `--trace 1` the first half of the time runs
untraced and the second half traced, and the JSON holds the per-layer
metrics derived from the spans (medians over traced batches), which are
also written to `perfbench/out/`.  Lines before the JSON are a
human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import Tracer, layer_metrics, write_spans
from speed import INTERVAL_S, REFERENCE_S, SpeedProbe
from workloads import WORKLOADS, Outcome

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p90_ms": "ms",
    "agree_share": "share",
    "peak_rss_mb": "MB",
}
# Counts that repeat exactly from run to run on one seed.
EXACT = ("packing.nodes", "families.decompose.nodes", "gadgets.out_arcs")

# Set-up is repeated until both floors are met, so its median is steady
# even where one set-up takes a few milliseconds.
SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 200


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ns_per_node"):
        return "ns"
    return "count"


def load_package():
    """Import steinercycles from src/ afresh (a set-up includes the import)."""
    for name in [m for m in sys.modules
                 if m == "steinercycles" or m.startswith("steinercycles.")]:
        del sys.modules[name]
    sc = importlib.import_module("steinercycles")
    if Path(sc.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"steinercycles was imported from {sc.__file__}, "
                          f"not from {SRC}")
    return sc


def nearest_rank(values, pct):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


@dataclass
class Batch:
    """One pass over the workload's instances."""

    raw: list      # measured seconds per verdict, in instance order
    scales: list   # speed rescaling factor per verdict (see speed.py)
    records: list  # what each verdict returned
    tracer: Tracer
    probe: SpeedProbe

    @property
    def times(self) -> list:
        return [t * f for t, f in zip(self.raw, self.scales)]

    @property
    def wall(self) -> float:
        return sum(self.times)


def run(workload, seed, seconds, trace, size="full"):
    """Run one workload; returns the result dict the report prints."""
    setup, verdict, check = WORKLOADS[workload]

    setup_probe = SpeedProbe()
    setup_raw, setup_times = [], []
    while True:
        setup_probe.sample(force=True)
        start = perf_counter()
        sc = load_package()
        insts = setup(sc, seed, size)
        setup_raw.append(perf_counter() - start)
        setup_times.append(setup_raw[-1] * REFERENCE_S / setup_probe.samples[-1])
        if len(setup_times) >= SETUP_MAX_REPS or (
                len(setup_times) >= SETUP_MIN_REPS
                and sum(setup_times) >= SETUP_MIN_S):
            break

    def batch(tracer):
        # Every batch starts from the same collector state: objects left by
        # set-up and by earlier batches are frozen, so a collection inside
        # the batch scans only what the batch itself allocated.
        gc.collect()
        gc.freeze()
        out = Batch([], [], [], tracer, SpeedProbe())
        probe = out.probe
        probe.sample(force=True)
        for inst in insts:
            probe.sample()
            before = probe.samples[-1]
            start = perf_counter()
            with tracer.verdict(f"{workload}/{inst[0]}"):
                try:
                    rec = verdict(sc, tracer, inst)
                except Exception as exc:  # a crash is a failed verdict
                    rec = {"error": f"{type(exc).__name__}: {exc}"}
            took = perf_counter() - start
            # A short verdict runs at the speed of the sample just before
            # it; a long one is bracketed by samples on both sides.
            kernel_s = before
            if took >= INTERVAL_S:
                probe.sample(force=True)
                kernel_s = (before + probe.samples[-1]) / 2
            out.raw.append(took)
            out.scales.append(REFERENCE_S / kernel_s)
            out.records.append(rec)
        return out

    def batches(budget, traced):
        out = []
        begin = perf_counter()
        while True:
            out.append(batch(Tracer(traced)))
            if perf_counter() - begin + sum(out[-1].raw) > budget:
                return out

    plain = batches(seconds / 2 if trace else seconds, False)
    traced = batches(seconds / 2, True) if trace else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    all_insts, all_records = [], []
    for b in plain + traced:
        all_insts.extend(insts)
        all_records.extend(b.records)
    outcomes = [None] * len(all_records)
    good = [i for i, rec in enumerate(all_records) if "error" not in rec]
    checked = check(sc, [all_insts[i] for i in good], [all_records[i] for i in good])
    for i, outcome in zip(good, checked):
        outcomes[i] = outcome
    problems = []
    for i, rec in enumerate(all_records):
        if outcomes[i] is None:
            outcomes[i] = Outcome(True, True, rec["error"])
        if outcomes[i].failed:
            problems.append(f"{all_insts[i][0]}: {outcomes[i].detail}")
    attempted = len(outcomes)
    failed = sum(o.failed for o in outcomes)

    # Each instance's time is its median over the untraced batches, which
    # keeps a collection or a preemption from landing on one percentile.
    times = [statistics.median(b.times[i] for b in plain) for i in range(len(insts))]
    result = {
        "workload": workload, "seed": seed, "size": size,
        "batches": len(plain), "traced_batches": len(traced),
        "raw_walls": [sum(b.raw) for b in plain],
        "kernel_ms": [b.probe.kernel_s * 1e3 for b in plain],
        "raw_setup_s": statistics.median(setup_raw),
        "verdicts_per_batch": len(insts), "setup_reps": len(setup_times),
        "problems": problems,
        "correct": not any(o.wrong for o in outcomes),
        "attempted": attempted, "failed": failed,
        "end_to_end": {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(b.wall for b in plain),
            "verdict_p50_ms": nearest_rank(times, 50) * 1e3,
            "verdict_p90_ms": nearest_rank(times, 90) * 1e3,
            "agree_share": 1 - failed / attempted,
            "peak_rss_mb": peak_rss_mb,
        },
    }
    if trace:
        per_batch = [layer_metrics(b.tracer.spans, b.tracer.counts, b.probe.scale)
                     for b in traced]
        layers = {name: (statistics.median if per_layer_unit(name) != "count"
                         else statistics.median_low)(b[name] for b in per_batch)
                  for name in per_batch[0]}
        result["traced_wall_s"] = statistics.median(b.wall for b in traced)
        layers["bench.trace_overhead_s"] = (result["traced_wall_s"]
                                            - result["end_to_end"]["wall_s"])
        result["per_layer"] = layers
        result["exact_repeat"] = all(
            len({b[name] for b in per_batch}) == 1 for name in EXACT)
        OUT.mkdir(exist_ok=True)
        result["spans_file"] = OUT / f"spans-{workload}-seed{seed}-{size}.jsonl"
        write_spans(result["spans_file"], [b.tracer.spans for b in traced])
    return result


def report(result, trace) -> str:
    """Human-readable lines, then the JSON result line."""
    e2e = result["end_to_end"]
    lines = [
        f"workload {result['workload']} seed {result['seed']} "
        f"size {result['size']}: {result['verdicts_per_batch']} verdicts "
        f"per batch, {result['batches']} untraced and "
        f"{result['traced_batches']} traced batches, "
        f"{result['setup_reps']} set-ups",
        f"times are rescaled to a {REFERENCE_S * 1e3:g} ms speed kernel "
        f"(perfbench/speed.py); raw below",
        "  raw batch walls (s): "
        + " ".join(f"{w:.4f}" for w in result["raw_walls"]),
        "  kernel medians (ms): "
        + " ".join(f"{k:.4f}" for k in result["kernel_ms"]),
        f"  raw setup_s: {result['raw_setup_s']:.6f}",
        f"verdict percentiles over {result['verdicts_per_batch']} instances, "
        f"each the median of its {result['batches']} untraced times "
        f"(nearest rank)",
    ]
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<16} {e2e[name]:>14.6f} {unit}")
    lines.append(f"  {'failed_share':<16} {1 - e2e['agree_share']:>14.6f} share "
                 f"({result['failed']}/{result['attempted']})")
    for problem in sorted(set(result["problems"]))[:20]:
        lines.append(f"  failed: {problem}")
    if trace:
        layers = result["per_layer"]
        lines.append(f"per layer, medians over traced batches (traced wall "
                     f"{result['traced_wall_s']:.6f} s); busy_s is self time; "
                     f"spans in {result['spans_file'].relative_to(HERE.parent)}")
        for name, value in layers.items():
            lines.append(f"  {name:<28} {value:>16.6f} {per_layer_unit(name)}")
        lines.append(f"  exact counts repeat across traced batches: "
                     f"{result['exact_repeat']}")
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    lines.append(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
    }))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "steinercycles" / "__init__.py").is_file():
        print(f"error: no steinercycles package under {SRC}; run from the "
              "root of a steinercycles checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.size)
    print(report(result, bool(args.trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare two checkouts of steinercycles on the benchmark.

    python3 perfbench/compare.py --parent DIR --change DIR [--save runs.json]
    python3 perfbench/compare.py --load runs.json

Runs `perfbench/run.py` of each checkout in ten pairs per workload of
BENCHMARK.json, one pair per seed (seeds 1000 to 1009), both sides on the
same seed for `run_seconds`, alternating which side runs first.  Per workload
and end-to-end metric it prints each side's median and quartiles, the
share of pairs the change won (ties count for neither side), the parent's
own spread (quartile distance over median) and a reading:

* gain: the change won at least nine tenths of the pairs and the medians
  differ, in the better direction, by more than the parent's quartile
  distance;
* regression: the change's median is worse than the parent's by more than
  the metric's bound in BENCHMARK.json;
* unresolved: the parent's spread is wider than the bound, unless every
  change run beats every parent run;
* same: none of the above.

A gain is reported as void when the change failed more verdicts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
PAIRS = 10
FIRST_SEED = 1000


def run_side(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def same_benchmark(parent: Path, change: Path) -> bool:
    """True when both checkouts carry byte-identical benchmark files."""
    def files(root):
        bench = root / "perfbench"
        return {p.relative_to(bench): p.read_bytes() for p in bench.iterdir()
                if p.is_file() and p.suffix in (".py", ".json")}
    return files(parent) == files(change)


def collect(parent: Path, change: Path, workloads, seconds):
    if not same_benchmark(parent, change):
        print("warning: the two checkouts run different benchmark code",
              file=sys.stderr)
    runs = []
    for workload in workloads:
        for i in range(PAIRS):
            seed = FIRST_SEED + i
            order = (("parent", parent), ("change", change))
            if i % 2:
                order = order[::-1]
            for position, (side, checkout) in enumerate(order):
                result = run_side(checkout, workload, seed, seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "first": position == 0, "result": result})
                print(f"{workload} seed {seed} {side}: "
                      + " ".join(f"{k}={v['value']:.6g}"
                                 for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def analyse(runs, metrics) -> list:
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        by_seed = {}
        for r in mine:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
        paired = [s for s in by_seed.values() if len(s) == 2]
        failed = {side: sum(s[side]["failed"] for s in paired)
                  for side in ("parent", "change")}
        correct = all(s[side]["correct"] for s in paired for side in s)
        lines.append(f"== {workload}: {len(paired)} pairs; failed verdicts "
                     f"parent {failed['parent']}, change {failed['change']}; "
                     f"all correct: {correct}")
        lines.append(f"  {'metric':<16} {'parent median [q1, q3]':>34} "
                     f"{'change median [q1, q3]':>34} {'delta':>8} "
                     f"{'won':>5} {'p.spread':>8} {'bound':>6}  reading")
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            p = [s["parent"]["metrics"][name]["value"] for s in paired]
            c = [s["change"]["metrics"][name]["value"] for s in paired]
            pm, cm = statistics.median(p), statistics.median(c)
            p1, p3 = quartiles(p)
            c1, c3 = quartiles(c)

            def better(a, b):
                return a < b if lower else a > b

            wins = sum(better(cv, pv) for pv, cv in zip(p, c))
            won = wins / len(paired)
            spread = (p3 - p1) / pm if pm else 0.0
            gap = (cm - pm) if lower else (pm - cm)  # > 0 means worse
            if won >= 0.9 and -gap > p3 - p1:
                reading = "gain" if failed["change"] <= failed["parent"] else \
                    "gain void: more failures"
            elif gap > m["bound"] * abs(pm):
                reading = "regression"
            elif spread > m["bound"] and not all(better(cv, pv)
                                                 for cv in c for pv in p):
                reading = "unresolved"
            else:
                reading = "same"
            delta = (cm - pm) / pm if pm else 0.0
            lines.append(
                f"  {name:<16} {pm:>12.6g} [{p1:>9.6g}, {p3:>9.6g}] "
                f"{cm:>12.6g} [{c1:>9.6g}, {c3:>9.6g}] {delta:>+8.2%} "
                f"{won:>5.0%} {spread:>8.2%} {m['bound']:>6.1%}  {reading}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--load", type=Path)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    if args.load:
        runs = json.loads(args.load.read_text(encoding="utf-8"))
    else:
        if args.parent is None or args.change is None:
            parser.error("--parent and --change are required without --load")
        runs = collect(args.parent.resolve(), args.change.resolve(),
                       [w["name"] for w in bench["workloads"]],
                       bench["run_seconds"])
        if args.save:
            args.save.write_text(json.dumps(runs, indent=1), encoding="utf-8")
    print("\n".join(analyse(runs, bench["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())

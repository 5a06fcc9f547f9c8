"""Tests of the benchmark itself, on the tiny smoke size.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import run as bench  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def _cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_metric(workload, trace):
    proc = _cli("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    report = proc.stdout.splitlines()[:-1]
    for m in wanted:
        assert any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                   for line in report), m["name"]
    assert any(line.split()[:1] == ["failed_share"] for line in report)


def test_eulerian_divergence_is_counted_not_filtered():
    # eulerian-004 is one of the 17 criterion-5 divergences of the corpus.
    result = bench.run("corpus", 3, 0.1, False, "smoke")
    batches = result["batches"]
    assert result["correct"]
    assert result["failed"] == batches
    assert result["problems"] == ["eulerian-004: oracle no, gadget packs"] * batches
    assert result["end_to_end"]["agree_share"] == 1 - batches / result["attempted"]


def _with_solver(monkeypatch, name, wrap):
    """Make bench.run load a package whose `name` is wrapped by `wrap`."""
    real_load = bench.load_package

    def load():
        sc = real_load()
        monkeypatch.setattr(sc, name, wrap(sc, getattr(sc, name)))
        return sc

    monkeypatch.setattr(bench, "load_package", load)


def test_injected_wrong_verdict_raises_failures(monkeypatch):
    clean = bench.run("refute", 3, 0.1, False, "smoke")
    assert clean["failed"] == 0 and clean["correct"]

    def claims_too_much(sc, real):
        def claim(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), exists=True)
        return claim

    _with_solver(monkeypatch, "packing_exists", claims_too_much)
    broken = bench.run("refute", 3, 0.1, False, "smoke")
    # one refutation per batch now claims a packing it cannot show
    assert broken["failed"] == broken["batches"]
    assert not broken["correct"]
    assert broken["end_to_end"]["agree_share"] < 1


def test_corpus_yes_with_a_short_witness_is_wrong(monkeypatch):
    # Every decision says yes and shows an empty packing of the right host
    # and terminals: valid by verify_packing, but no witness for the claim.
    def says_yes(sc, real):
        def claim(d, terminals, size, **kwargs):
            empty = sc.CyclePacking(d, frozenset(terminals), ())
            return dataclasses.replace(real(d, terminals, size, **kwargs),
                                       exists=True, certified=True,
                                       packing=empty)
        return claim

    _with_solver(monkeypatch, "packing_exists", says_yes)
    broken = bench.run("corpus", 3, 0.1, False, "smoke")
    assert not broken["correct"]
    assert any("witness does not verify" in p for p in broken["problems"])


def test_sweep_value_above_its_witness_is_wrong(monkeypatch):
    # The value stays right, but the witness drops a cycle, so it no longer
    # shows that many cycles pack.
    def short_witness(sc, real):
        def claim(d, k, **kwargs):
            res = real(d, k, **kwargs)
            if not res.value:
                return res
            short = dataclasses.replace(res.witness,
                                        cycles=res.witness.cycles[1:])
            return dataclasses.replace(res, witness=short)
        return claim

    _with_solver(monkeypatch, "min_packing_number", short_witness)
    broken = bench.run("sweep", 3, 0.1, False, "smoke")
    assert not broken["correct"]
    assert any("witness does not verify" in p for p in broken["problems"])


def test_exact_counts_repeat_across_runs():
    exact = ("packing.nodes", "families.decompose.nodes", "gadgets.out_arcs")
    for workload in WORKLOADS:
        first = bench.run(workload, 5, 0.1, True, "smoke")
        second = bench.run(workload, 5, 0.1, True, "smoke")
        assert first["exact_repeat"] and second["exact_repeat"]
        assert [first["per_layer"][n] for n in exact] == \
            [second["per_layer"][n] for n in exact]
        assert first["per_layer"]["packing.nodes"] > 0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli("--workload", "refute", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _fake_runs(parent_walls, change_walls):
    runs = []
    for seed, (p, c) in enumerate(zip(parent_walls, change_walls)):
        for side, wall in (("parent", p), ("change", c)):
            metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]}
                       for m in BENCH["end_to_end"]}
            metrics["wall_s"]["value"] = wall
            runs.append({"workload": "refute", "seed": seed, "side": side,
                         "first": True, "result": {
                             "correct": True, "attempted": 4, "failed": 0,
                             "metrics": metrics}})
    return runs


def test_compare_reads_gain_and_regression():
    parent = [3.00, 3.02, 2.98, 3.01, 2.99, 3.03, 2.97, 3.00, 3.01, 2.99]
    faster = [w * 0.8 for w in parent]
    slower = [w * 1.5 for w in parent]
    wall = next(m for m in BENCH["end_to_end"] if m["name"] == "wall_s")
    gain = compare.analyse(_fake_runs(parent, faster), [wall])
    loss = compare.analyse(_fake_runs(parent, slower), [wall])
    same = compare.analyse(_fake_runs(parent, parent[::-1]), [wall])
    assert gain[-1].endswith("gain")
    assert loss[-1].endswith("regression")
    assert same[-1].endswith("same")

"""Smoke tests of the benchmark itself: python3 -m pytest perfbench

Each workload runs at its smoke size in both modes and must print every
metric BENCHMARK.json names, with its unit, and a correct result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload: str, trace: int) -> dict:
    done = bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--size", "smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def expected_units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_the_workloads():
    assert NAMES == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_end_to_end_metrics(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 3
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_per_layer_metrics(workload):
    result = smoke(workload, 1)
    assert result["correct"] is True
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == expected_units("per_layer")


def test_inputs_follow_the_seed():
    def inputs(name, seed):
        wl = workloads.build(name, seed, "smoke")
        return getattr(wl, "stream", None) or getattr(wl, "cases", None)

    for name in ("ladder-corpus", "cli-session"):
        assert inputs(name, 5) == inputs(name, 5)
        assert inputs(name, 5) != inputs(name, 6)


def test_oracle_matches_known_renderings():
    w_w1 = ((((oracle.ONE, 1), (oracle.ZERO, 1)), 3), (oracle.ZERO, 5))
    assert oracle.render(w_w1) == "w^(w + 1)*3 + 5"
    assert oracle.render(oracle.wpow(oracle.wpow(oracle.nat(3)))) == "w^(w^3)"
    assert oracle.cmp(oracle.OMEGA, oracle.nat(10 ** 6)) == 1
    assert oracle.hyper(4, 3, 3, 16384) == 7625597484987
    assert oracle.left_hyper(4, 2, 3, 16384) == 1  # the leftward tower collapses


def test_tracer_leaves_the_package_as_it_found_it():
    import transfinite as tf

    t = tracer.Tracer()
    t.install()
    assert not tracer.untraced()
    assert tf.synth(2, tf.OMEGA, tf.OMEGA) == tf.mul(tf.OMEGA, tf.OMEGA)
    t.uninstall()
    assert tracer.untraced()
    assert t.metrics()["synthesis.synth.L2.calls"][0] == 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(tmp_path, "--workload", NAMES[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0")
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_oracle_arithmetic_and_level_4():
    w, two = oracle.OMEGA, oracle.nat(2)
    w_1 = oracle.add(w, oracle.ONE)
    assert oracle.add(oracle.ONE, w) == w
    assert oracle.mul(two, w) == w
    assert oracle.mul(w_1, w_1) == ((two, 1), (oracle.ONE, 1), (oracle.ZERO, 1))
    assert oracle.power(two, w_1, 16384) == ((oracle.ONE, 2),)  # w*2
    assert oracle.power(w_1, w_1, 16384) == ((w_1, 1), (w, 1))  # w^(w+1) + w^w
    assert oracle.power(oracle.ZERO, w, 16384) == oracle.ONE
    assert oracle.tetration(two, w_1, 16384) == oracle.wpow(two)
    assert oracle.tetration(w, oracle.nat(3), 16384) == oracle.wpow(oracle.wpow(w))
    with pytest.raises(oracle.Unrepresentable):
        oracle.tetration(w, w, 16384)
    with pytest.raises(oracle.TooBig):
        oracle.tetration(two, oracle.nat(5), 16384)

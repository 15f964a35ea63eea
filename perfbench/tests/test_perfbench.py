"""Tests of the benchmark itself: BENCHMARK.json, tracer, determinism, checks.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import workloads  # noqa: E402
from layers import LayerTracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# -- BENCHMARK.json ------------------------------------------------------------


def test_benchmark_json_lists_every_workload_and_layer():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert {f"self_share.{layer}" for layer in layers.LAYERS} <= per_layer


def test_benchmark_json_shape():
    spec = _benchmark_json()
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["perfbench"]
    assert spec["command"][:2] == ["python3", "perfbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])
    assert len(json.dumps(spec)) <= 64 * 1024


# -- tracer --------------------------------------------------------------------


class _Toy:
    def outer(self, n):
        time.sleep(0.002)
        for _ in range(n):
            self.inner()
        return n

    def inner(self):
        time.sleep(0.001)

    async def loop(self, n):
        for _ in range(n):
            self.inner()
            await asyncio.sleep(0)
        return "done"


def test_self_time_sums_to_traced_wall(monkeypatch):
    monkeypatch.setitem(sys.modules, "toy_module", sys.modules[__name__])
    original_outer = _Toy.outer
    tracer = LayerTracer()
    tracer.install([
        ("toy_module", "_Toy.outer", "a"),
        ("toy_module", "_Toy.inner", "b"),
        ("toy_module", "_Toy.loop", "a"),
        ("toy_module", "_Toy.gone", "c"),
    ])
    try:
        t0 = time.perf_counter()
        toy = _Toy()
        assert toy.outer(3) == 3
        assert asyncio.run(toy.loop(2)) == "done"
        time.sleep(0.003)  # not inside any entry point
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert _Toy.outer is original_outer
    assert tracer.missing == {"toy_module:_Toy.gone"}
    rows = layers.layer_table(tracer, wall)
    assert sum(r[1] for r in rows) == pytest.approx(wall, abs=1e-9)
    self_s = tracer.layer_self_s()
    assert self_s["b"] >= 0.005  # five inner calls of >= 1 ms
    assert 0.002 <= self_s["a"] < self_s["b"]
    assert rows[-1][1] >= 0.003  # the unattributed sleep
    _s, _t, calls = tracer.entry("_Toy.inner")
    assert calls == 5


# -- determinism ---------------------------------------------------------------


def _small_open_loop(requests=300, burst=8, ticks=4):
    return workloads.OpenLoopWorkload(schedules=2, requests=requests, burst=burst, ticks=ticks)


@pytest.mark.parametrize("burst,ticks", [(8, 4), (10, 2)], ids=["sustained", "overload"])
def test_open_loop_deterministic_and_unperturbed(burst, ticks):
    from repro.serve import run_sustained

    first = _small_open_loop(burst=burst, ticks=ticks)
    first.setup(seed=5)
    a = first.run(seconds=0.0)
    b = first.run(seconds=0.0, tracer=LayerTracer())
    second = _small_open_loop(burst=burst, ticks=ticks)
    second.setup(seed=5)
    c = second.run(seconds=0.0)
    assert a["deterministic"] == b["deterministic"] == c["deterministic"]
    for key in ("goodput_share", "active_joules_per_req"):
        assert a["metrics"][key] == c["metrics"][key]
    # The probes and the tracer do not change what the program does.
    for spec, figures in zip(first.specs, a["deterministic"]):
        assert run_sustained(spec).digest == figures["digest"]


def test_paper_apps_deterministic(monkeypatch):
    wl = workloads.PaperAppsWorkload()
    wl.setup(seed=2)
    keep = {"blackscholes", "gemm"}
    wl.apps = {k: v for k, v in wl.apps.items() if k in keep}
    a = wl.run(seconds=0.0)
    b = wl.run(seconds=0.0)
    assert a["deterministic"] == b["deterministic"]
    assert a["metrics"]["active_joules_per_req"] == b["metrics"]["active_joules_per_req"]


# -- output checks catch corruption -------------------------------------------


def test_open_loop_check_catches_digest_drift(monkeypatch):
    wl = _small_open_loop(requests=200)
    wl.setup(seed=3)
    real = wl._run_sustained
    seen = []

    def drifting(spec):
        result = real(spec)
        seen.append(spec.seed)
        if seen.count(spec.seed) == 2:  # the replay of a schedule drifts
            result = dataclasses.replace(result, digest="0" * 64)
        return result

    wl._run_sustained = drifting
    with pytest.raises(workloads.CheckFailed, match="digest"):
        wl.run(seconds=0.0)


def test_open_loop_check_catches_violations():
    wl = _small_open_loop(requests=200)
    wl.setup(seed=3)
    real = wl._run_sustained
    wl._run_sustained = lambda spec: dataclasses.replace(real(spec), violations=["lost 1"])
    with pytest.raises(workloads.CheckFailed, match="violations"):
        wl.run(seconds=0.0)


def test_paper_apps_check_catches_wrong_values():
    wl = workloads.PaperAppsWorkload()
    wl.setup(seed=2)
    wl.apps = {"gemm": wl.apps["gemm"]}
    app = wl.apps["gemm"]
    real = app.run_gptpu

    def corrupt(inputs, ctx):
        result = real(inputs, ctx)
        return dataclasses.replace(result, value=result.value * 1.5)

    app.run_gptpu = corrupt
    with pytest.raises(workloads.CheckFailed, match="gemm"):
        wl.run(seconds=0.0)


# -- the command ---------------------------------------------------------------


def _run(args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_listed_metric(trace):
    done = _run(["--workload", "sustained", "--seed", "2", "--seconds", "0", "--trace", trace])
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _benchmark_json()["end_to_end" if trace == "0" else "per_layer"]
    expected = [(m["name"], m["unit"]) for m in spec]
    assert [(k, v["unit"]) for k, v in result["metrics"].items()] == expected
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    else:
        assert result["metrics"]["tensorizer.self_us_per_req"]["value"] > 0
        assert "per-layer self time" in done.stdout


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(["--workload", "sustained", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

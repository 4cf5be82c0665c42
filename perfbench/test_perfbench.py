"""Tests of the benchmark itself (not collected by the package's test suite).

    python3 -m pytest -q perfbench

The smoke runs use the small windows of workloads.SMOKE and take about a
minute on two cores.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from references import banded_eigenvalues, match  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import BASE_PROFILE, PERTURB, WORKLOADS, build_inputs, profile_params  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("circle-high", 0), ("oracle-verify", 0), ("oracle-verify", 1), ("torus-p1", 1),
])
def test_smoke_emits_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(out["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if trace:
        assert out["metrics"]["trace.absent_layers"]["value"] == 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "torus-p1",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_seed_zero_is_stored_input_and_others_stay_in_range():
    assert profile_params(0) == BASE_PROFILE
    for seed in (1, 2, 99):
        params = profile_params(seed)
        assert params == profile_params(seed)
        for x, base in zip(params, BASE_PROFILE):
            assert abs(x / base - 1.0) <= PERTURB
    assert profile_params(1) != profile_params(2)


def test_banded_solver_matches_dense():
    from conebands.oracle import assemble, dense_hermitian_eigenvalues

    _, channels, profile = build_inputs(WORKLOADS["torus-p1"], 3)
    for ch in (channels[0], channels[-2]):  # a scalar and an H5 pair
        for theta in (0.0, math.pi):
            fm = assemble(ch, theta, profile, 200)
            dense = dense_hermitian_eigenvalues(fm.K, fm.W, lam_window=(-1.0, 9.0))
            banded = banded_eigenvalues(fm.K, fm.W, lam_window=(-1.0, 9.0))
            assert len(banded) == len(dense)
            assert max(abs(banded - dense)) < 1e-9


def test_tracer_reports_missing_name_as_absent():
    mod = types.ModuleType("conebands.radial")
    mod.cone_basis = lambda *a: None
    tr = Tracer()
    with tr:
        tr.wrap(mod, "monodromy")
        tr.wrap(mod, "cone_basis")
        mod.cone_basis(1.0)
    assert tr.absent == ["radial.monodromy"]
    assert tr.calls("radial.cone_basis") == 1
    assert not hasattr(mod, "monodromy")


def test_tracer_splits_scan_and_polish_monodromies():
    mod = types.ModuleType("conebands.radial")
    mod.monodromy = lambda x: x
    mod.brentq = lambda f, a, b: f(a) + f(b)
    tr = Tracer()
    with tr:
        for attr in ("monodromy", "brentq"):
            tr.wrap(mod, attr)
        mod.monodromy(1.0)
        mod.brentq(mod.monodromy, 0.0, 1.0)
    assert tr.calls("radial.monodromy.scan") == 1
    assert tr.calls("radial.monodromy.polish") == 2


def test_match_counts_exactly_and_ignores_window_edge():
    assert match([1.0, 2.0], [1.0, 2.0 + 1e-9], 8.0)[0]
    assert not match([1.0], [1.0, 2.0], 8.0)[0]
    assert not match([1.0, 2.1], [1.0, 2.0], 8.0)[0]
    assert match([1.0, 8.0 - 1e-7], [1.0], 8.0)[0]


def test_failing_unit_is_counted_and_timed_not_fatal():
    from run import Unit, execute

    raising = Unit("raises", "census.scalar", lambda: 1 / 0, [1.0])
    wrong = Unit("wrong", "census.scalar", lambda: [1.0, 2.5], [1.0, 2.0])
    right = Unit("right", "census.scalar", lambda: [1.0, 2.0], [1.0, 2.0])
    for unit in (raising, raising, wrong, right):
        execute(unit, 8.0)
    assert raising.fails == 2 and len(raising.walls) == 2
    assert wrong.fails == 1 and right.fails == 0

"""The benchmark at tiny sizes: every metric is emitted with its unit, and a
wrong output is counted as a failed operation instead of passing silently.

Run with ``python -m pytest perfbench/tests``.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from gstft import gabor  # noqa: E402

TINY = {
    "cli-roundtrip": workloads.CliConfig(sizes=(8, 10)),
    "stream-transform": workloads.StreamConfig(hypercube_dim=3, random_n=10),
    "certify-decay": workloads.CertifyConfig(hypercube_dim=3, ring_n=8, random_n=12, degrees=(3, 4)),
}
WORKLOAD_METRICS = {
    "setup_s", "roundtrip_s", "transform_per_s", "transform_ms", "transform_ms.p99",
    "certify_s", "failed_frac", "peak_rss_mb",
}
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(name: str, traced: bool = False) -> dict:
    return workloads.run(name, seed=5, seconds=0.2, traced=traced, config=TINY[name])


@pytest.fixture(scope="module")
def results():
    return {(name, traced): tiny_run(name, traced) for name in workloads.WORKLOADS for traced in (False, True)}


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_contract_metrics_emitted_with_units(results, name):
    plain, traced = results[name, False], results[name, True]
    assert plain["failed"] == traced["failed"] == 0, plain["failures"] + traced["failures"]
    assert plain["attempted"] >= 1
    assert units(plain["end_to_end"]) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert units(traced["layers"]) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(m["value"] > 0 for m in plain["end_to_end"].values())


def test_workload_metrics_emitted_with_units(results):
    named = {}
    for name in workloads.WORKLOADS:
        named.update(results[name, False]["named_metrics"])
    assert set(named) == WORKLOAD_METRICS
    assert all(m["unit"] for m in named.values())


def test_layers_measured_where_they_run(results):
    cli = results["cli-roundtrip", True]["layers"]
    for name in ("cli.startup.s", "cli.gen.s", "cli.gstft.s", "cli.reconstruct.s", "cli.self_s",
                 "formats.bytes_written", "formats.bytes_read", "formats.matrix_to_csv.s"):
        assert cli[name]["value"] > 0, name
    assert cli["spectral.decompose.calls"]["value"] == 2  # gstft and reconstruct replays

    stream = results["stream-transform", True]["layers"]
    assert stream["heat.heat_kernel.calls"]["value"] == 1
    assert stream["spectral.decompose.calls"]["value"] == 0  # decomposed during set-up

    certify = results["certify-decay", True]["layers"]
    graphs_per_pass = 4 + len(TINY["certify-decay"].degrees)
    grid = 101
    assert certify["gabor.frame_report.calls"]["value"] == graphs_per_pass * grid
    assert certify["heat.heat_kernel.calls"]["value"] == graphs_per_pass * grid
    assert certify["graphs.random_regular_graph.calls"]["value"] == 2
    assert certify["gabor.tightness_sweep.self_s"]["value"] > 0


def test_perturbed_inprocess_reconstruction_fails(monkeypatch):
    inverse = gabor.inverse_gstft
    monkeypatch.setattr(gabor, "inverse_gstft", lambda *a: inverse(*a) * (1 + 1e-7))
    result = tiny_run("stream-transform")
    assert result["failed"] == result["attempted"] >= 2
    # A failed operation enters no timing.
    assert result["end_to_end"]["op_ms"]["value"] is None
    assert "transform_ms" not in result["named_metrics"]


def test_perturbed_cli_reconstruction_fails(monkeypatch):
    read = workloads.CliRoundtrip._read_signal
    monkeypatch.setattr(workloads.CliRoundtrip, "_read_signal", lambda self, p: read(self, p) + 1e-7)
    result = tiny_run("cli-roundtrip")
    assert result["failed"] == result["attempted"] >= 2


def _with_gaps(sweep, gap):
    reports = tuple(dataclasses.replace(r, gap=gap(r)) for r in sweep.reports)
    return dataclasses.replace(sweep, reports=reports)


@pytest.mark.parametrize(
    "wrong_gap",
    [
        lambda r: 1e-3 if r.tight else r.gap,  # a tight graph reported with a gap
        lambda r: 0.0,  # a random graph reported tight everywhere
    ],
)
def test_wrong_tightness_verdict_fails(monkeypatch, wrong_gap):
    sweep = gabor.tightness_sweep
    monkeypatch.setattr(gabor, "tightness_sweep", lambda dec, grid: _with_gaps(sweep(dec, grid), wrong_gap))
    result = tiny_run("certify-decay")
    assert result["failed"] == result["attempted"] >= 1


def test_gates_read_gap_not_tight_flag():
    report = type("Report", (), {"t": 1.0, "gap": 1e-3, "bound_b": 0.5, "tight": True})()
    assert checks.tight_at_every_t([report]) is not None
    flagged_untight = type("Report", (), {"t": 1.0, "gap": 0.0, "bound_b": 0.5, "tight": False})()
    assert checks.untight_somewhere([flagged_untight]) is not None


def test_roundtrip_gate_threshold():
    f = np.array([1.0 + 2.0j, -3.0, 0.5j])
    assert checks.roundtrip(f, f + 1e-10) is None
    assert checks.roundtrip(f, f + 1e-8) is not None
    assert checks.roundtrip(f, f[:2]) is not None


def test_fiedler_gate():
    lap = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    assert checks.fiedler(1.0, lap) is None
    assert checks.fiedler(1.0 + 1e-6, lap) is not None


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "stream-transform",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

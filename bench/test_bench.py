"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

The library workloads run here at reduced path counts; the CLI determinism
test runs the real ``cli-narrow`` configs at 1 and 2 workers (~30 s).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import session  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "SADDLE_PATHS": 40,
    "ESCAPE_PATHS": 10,
    "CHAIN_PATHS": 40,
    "CENSOR_TARGET": 0.05,  # 40 paths: one admissible rung needs zero censored
    "WEAK_PATHS": 4000,
    "WEAK_ETAS": (1.0, 0.5, 0.25),
    "DEVIATION_PATHS": 100,
    "SUP_GAP_PATHS": 50,
    "ANNEAL_PATHS": 20,
    "ANNEAL_T": 20.0,
    "GROWN_PATHS": 5,
    "GROWN_STEPS": 20,
}


@pytest.fixture
def small(monkeypatch):
    for name, value in SMALL.items():
        monkeypatch.setattr(workloads, name, value)


def _round(name, seed, tmp_path, traced=False):
    potential = tracing.traced_potential if traced else (lambda p: p)
    ops = workloads.WORKLOADS[name](seed, tmp_path, potential=potential)
    tracer = tracing.Tracer() if traced else None
    scored = session.score_round(ops, session.run_round(ops, tracer))
    if traced:
        scored["layers"] = tracing.layer_metrics(tracer)
    return scored


def _digests(scored):
    return [op["digest"] for op in scored["ops"]]


@pytest.mark.parametrize("name", ["exit-wide", "fixed-horizon"])
def test_same_seed_same_inputs_and_work(small, tmp_path, name):
    a = _round(name, 7, tmp_path / "a")
    b = _round(name, 7, tmp_path / "b")
    c = _round(name, 8, tmp_path / "c")
    assert a["work"] == b["work"]
    assert _digests(a) == _digests(b)
    assert _digests(a) != _digests(c)
    assert all(op["error"] is None for op in a["ops"])


def test_cli_configs_come_from_the_seed():
    assert workloads.cli_config_texts(7) == workloads.cli_config_texts(7)
    assert workloads.cli_config_texts(7) != workloads.cli_config_texts(8)


@pytest.mark.parametrize("name", ["exit-wide", "fixed-horizon"])
def test_traced_round_does_identical_work(small, tmp_path, name):
    plain = _round(name, 3, tmp_path / "plain")
    traced = _round(name, 3, tmp_path / "traced", traced=True)
    assert traced["work"] == plain["work"]
    assert _digests(traced) == _digests(plain)
    for key, layer_names in run.TRACE_WORK.items():
        assert sum(traced["layers"][n] for n in layer_names) == plain["work"][key], key
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    produced = set(traced["layers"]) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_tracer_is_removed_after_a_round(small, tmp_path):
    import sgdlab
    import sgdlab.cli

    before = (sgdlab.streams.path_streams, sgdlab.cli.hitting_time_mc, sgdlab.Domain.contains)
    _round("exit-wide", 1, tmp_path, traced=True)
    after = (sgdlab.streams.path_streams, sgdlab.cli.hitting_time_mc, sgdlab.Domain.contains)
    assert before == after
    assert tracing._ACTIVE is None


def test_cli_digests_equal_at_one_and_two_workers(tmp_path):
    digests = {}
    for workers in (1, 2):
        ops = workloads.cli_narrow(11, tmp_path / f"w{workers}", workers=workers)
        scored = session.score_round(ops, session.run_round(ops))
        assert not any(op["failed"] for op in scored["ops"]), scored["ops"]
        digests[workers] = _digests(scored)
        work = scored["work"]
    assert digests[1] == digests[2]
    assert work["paths"] > 0 and work["lockstep_steps"] > 0


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exit-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""End-to-end tests for the command-line interface and its artifacts."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from sgdlab.cli import main

WEAK_ORDER_CFG = """\
experiment = weak-order
potential = quadratic_well
sigma = 1.0
x0 = 1.0
T = 1.0
eta_list = 0.2, 0.1, 0.05, 0.025
drift_order = both
source = exact
seed = 3
"""

DEVIATION_CFG = """\
experiment = deviation
potential = quadratic_well
sigma = 1.0
eta = 0.02
T = 0.5
x0 = 1.0
n_paths = 400
seed = 11
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _digest(path):
    return "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_weak_order_run_produces_consistent_artifacts(tmp_path):
    cfg = _write(tmp_path, "w.cfg", WEAK_ORDER_CFG)
    out = str(tmp_path / "wo")
    assert main(["weak-order", "--config", cfg, "--out", out]) == 0
    manifest = json.loads((tmp_path / "wo.manifest").read_text())
    assert manifest["experiment"] == "weak-order"
    assert manifest["workers"] == 1
    files = manifest["files"]
    assert "wo.summary.csv" in files
    for name, digest in files.items():
        assert _digest(tmp_path / name) == digest
    summary = (tmp_path / "wo.summary.csv").read_text().splitlines()
    assert summary[0] == "key,value"
    keys = {line.split(",")[0] for line in summary[1:]}
    assert {"fitted_order_first", "fitted_order_second"} <= keys


def test_reruns_are_byte_identical(tmp_path):
    cfg = _write(tmp_path, "d.cfg", DEVIATION_CFG)
    digests = []
    for tag in ("a", "b"):
        out = str(tmp_path / tag / "dev")
        (tmp_path / tag).mkdir()
        assert main(["deviation", "--config", cfg, "--out", out]) == 0
        manifest = json.loads((tmp_path / tag / "dev.manifest").read_text())
        digests.append(manifest["files"])
        assert all(
            _digest(tmp_path / tag / name) == d for name, d in manifest["files"].items()
        )
    assert {k.split("/")[-1]: v for k, v in digests[0].items()} == {
        k.split("/")[-1]: v for k, v in digests[1].items()
    }


ANNEAL_CFG = """\
experiment = anneal
potential = asym_double_well_1d
potential_params = -0.05
seed = 1
gamma = 3.0
T = 20
n_paths = 45
epsilon = 0.5
n_checkpoints = 1000
"""


def test_worker_count_does_not_change_results(tmp_path):
    # 2 workers split anneal's 45 paths 23 + 22, where occupancy fractions
    # re-weighted from per-chunk fractions would differ in the last bit;
    # 3 workers' 15-path chunks would re-weight exactly.
    cases = [
        ("deviation", DEVIATION_CFG, (1, 3)),
        ("anneal", ANNEAL_CFG, (1, 2)),
    ]
    for experiment, text, worker_counts in cases:
        cfg = _write(tmp_path, f"{experiment}.cfg", text)
        results = {}
        for workers in worker_counts:
            sub = tmp_path / f"{experiment}-w{workers}"
            sub.mkdir()
            out = str(sub / "run")
            argv = [experiment, "--config", cfg, "--out", out, "--workers", str(workers)]
            assert main(argv) == 0
            manifest = json.loads((sub / "run.manifest").read_text())
            assert manifest["workers"] == workers
            results[workers] = {k.split("/")[-1]: v for k, v in manifest["files"].items()}
        assert results[worker_counts[0]] == results[worker_counts[1]], experiment


def test_workers_env_variable_is_honoured(tmp_path):
    cfg = _write(tmp_path, "d.cfg", DEVIATION_CFG)
    env = dict(os.environ, SDL_WORKERS="2")
    out = str(tmp_path / "dev")
    proc = subprocess.run(
        [sys.executable, "-m", "sgdlab.cli", "deviation", "--config", cfg, "--out", out],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "dev.manifest").read_text())
    assert manifest["workers"] == 2


def test_set_overrides_are_applied_and_recorded(tmp_path):
    cfg = _write(tmp_path, "d.cfg", DEVIATION_CFG)
    out = str(tmp_path / "dev")
    assert main(["deviation", "--config", cfg, "--out", out, "--set", "seed=99"]) == 0
    manifest = json.loads((tmp_path / "dev.manifest").read_text())
    assert manifest["config"]["seed"] == "99"


def test_bad_config_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.cfg", "experiment = anneal\nbogus = 1\n")
    assert main(["anneal", "--config", cfg, "--out", str(tmp_path / "x")]) == 2
    assert "config-error" in capsys.readouterr().err


def test_numerical_failure_exits_3(tmp_path, capsys):
    # a two-point ladder cannot support an order fit
    text = WEAK_ORDER_CFG.replace("eta_list = 0.2, 0.1, 0.05, 0.025", "eta_list = 0.2, 0.1")
    cfg = _write(tmp_path, "short.cfg", text)
    out = str(tmp_path / "x")
    assert main(["weak-order", "--config", cfg, "--out", out]) == 3
    assert "numerical-error" in capsys.readouterr().err
    assert not (tmp_path / "x.manifest").exists()


def test_failed_check_exits_4(tmp_path, capsys):
    # step sizes near the stability edge break the first-order slope band
    text = WEAK_ORDER_CFG.replace(
        "eta_list = 0.2, 0.1, 0.05, 0.025", "eta_list = 0.5, 0.25, 0.2, 0.125"
    ).replace("drift_order = both", "drift_order = first")
    cfg = _write(tmp_path, "edge.cfg", text)
    out = str(tmp_path / "edge")
    assert main(["weak-order", "--config", cfg, "--out", out, "--check"]) == 4
    captured = capsys.readouterr()
    assert "check-failed" in captured.err
    assert "[FAIL]" in captured.out
    manifest = json.loads((tmp_path / "edge.manifest").read_text())
    assert manifest["check_passed"] is False


def test_passing_check_reports_and_exits_0(tmp_path, capsys):
    cfg = _write(tmp_path, "w.cfg", WEAK_ORDER_CFG)
    out = str(tmp_path / "wo")
    assert main(["weak-order", "--config", cfg, "--out", out, "--check"]) == 0
    assert "[PASS]" in capsys.readouterr().out
    manifest = json.loads((tmp_path / "wo.manifest").read_text())
    assert manifest["check_passed"] is True


def test_console_script_is_installed():
    proc = subprocess.run(["sgdlab", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("weak-order", "exit-min", "exit-saddle", "kramers",
                "anneal", "deviation", "batch-cov", "ode-limit"):
        assert sub in proc.stdout

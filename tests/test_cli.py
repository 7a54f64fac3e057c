"""End-to-end tests for the command-line interface and its artifacts."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sgdlab import cli
from sgdlab.cli import main

KRAMERS_CFG = str(Path(__file__).resolve().parents[1] / "configs" / "kramers.cfg")

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


def test_a_run_forks_one_process_pool_and_shuts_it_down(tmp_path, monkeypatch):
    # anneal scatters once per arm.  One run builds one executor for both
    # scatters and shuts it down before main returns, also when the run
    # fails after the pool has started.
    built, shut = [], []

    class Counting(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

        def shutdown(self, *args, **kwargs):
            shut.append(self)
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", Counting)
    cfg = _write(tmp_path, "a.cfg", ANNEAL_CFG)
    argv = ["anneal", "--config", cfg, "--out", str(tmp_path / "a"), "--workers", "2"]
    assert main(argv) == 0
    assert len(built) == 1 and shut == built

    arms, first_arm = [], cli.anneal_experiment

    def second_arm_fails(*args, **kwargs):
        arms.append(kwargs["mode"])
        if len(arms) == 2:
            raise cli.NumericalError("the second arm failed")
        return first_arm(*args, **kwargs)

    monkeypatch.setattr(cli, "anneal_experiment", second_arm_fails)
    built.clear()
    shut.clear()
    assert main(argv) == 3
    assert len(arms) == 2 and len(built) == 1 and shut == built


EXIT_MIN_CFG = """\
experiment = exit-min
potential = quadratic_well
sigma = 1.0
domain = interval
domain_lo = -1
domain_hi = 1
eta_list = 0.5, 0.4
source = mc
n_paths = 8
dt = 1e-2
horizon = 200
emit_records = 1
seed = 4
"""


def test_an_exit_ladder_is_one_scatter_over_its_rungs(tmp_path, monkeypatch):
    # Both rungs go to the pool in one scatter of 8 x 2 path-major cells,
    # so at 2 workers each chunk is paths 0-3 or 4-7 of both rungs.
    calls = []

    def scatter(self, fn, n, *args):
        ranges = cli._chunk_ranges(n, self.workers)
        calls.append((n, ranges))
        return [fn(*args, lo, hi) for lo, hi in ranges]

    monkeypatch.setattr(cli.Pool, "_scatter", scatter)
    cfg = _write(tmp_path, "m.cfg", EXIT_MIN_CFG)
    files = {}
    for workers in (1, 2):
        calls.clear()
        out = str(tmp_path / f"w{workers}")
        argv = ["exit-min", "--config", cfg, "--out", out, "--workers", str(workers)]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / f"w{workers}.manifest").read_text())
        files[workers] = {k.split(".", 1)[1]: v for k, v in manifest["files"].items()}
    assert calls == [(16, [(0, 8), (8, 16)])]
    assert files[1] == files[2]
    assert {"records.eta0.csv", "records.eta1.csv"} <= files[1].keys()


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


def test_unreadable_config_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.cfg")
    assert main(["anneal", "--config", missing, "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "config-error" in err and "cannot read config file" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", ["sigma", "eta_list"])
def test_non_finite_config_values_exit_2(key, value, tmp_path, capsys):
    text = f"{key}=0.1, {value}" if key == "eta_list" else f"{key}={value}"
    argv = ["kramers", "--config", KRAMERS_CFG, "--out", str(tmp_path / "x"), "--set", text]
    assert main(argv) == 2
    assert "config-error" in capsys.readouterr().err


def test_kramers_scales_its_predictor_and_slope_by_sigma(tmp_path):
    # The law reads eta * sigma^2 where unit noise reads eta: the predictor
    # must match the BVP mean, and the slope of log E[T] against 1/eta is
    # 2 dF / sigma^2, at sigma = 0.8 as at sigma = 1.
    out = tmp_path / "k"
    argv = ["kramers", "--config", KRAMERS_CFG, "--out", str(out), "--set", "sigma=0.8"]
    assert main([*argv, "--check"]) == 0
    rows = (tmp_path / "k.csv").read_text().splitlines()[1:]
    ratios = [float(row.split(",")[-1]) for row in rows]
    assert len(ratios) == 2 and all(0.9 < r < 1.0 for r in ratios)
    summary = dict(line.split(",") for line in (tmp_path / "k.summary.csv").read_text().split())
    assert float(summary["slope_reference"]) == pytest.approx(0.5 / 0.64)


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

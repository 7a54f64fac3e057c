"""End-to-end tests for the command-line interface and its artifacts."""

import hashlib
import json
import os
import resource
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from sgdlab import cli, streams
from sgdlab.cli import main
from sgdlab.config import EXPERIMENTS

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


FORK_AFTER_HELPER = """\
import json
import sys

import numpy as np

from sgdlab import Domain, SdeConfig, builtin, cli, hitting_time_mc, streams

# Start lockstep's helper thread, on any CPU count, with a long exit rung.
streams._usable_cpus = lambda: 2
rung = SdeConfig(builtin("inverted_quadratic"), 1e-3, 1e-4, 1.0, np.zeros(1))
hitting_time_mc(rung, Domain.interval(-1.0, 1.0), 64, 1.0)
assert streams._helper_pool is not None
files = {}
for workers in (2, 1):
    out = f"w{workers}"
    argv = ["exit-min", "--config", sys.argv[1], "--out", out, "--workers", str(workers)]
    assert cli.main(argv) == 0
    manifest = json.load(open(f"{out}.manifest"))
    files[workers] = {k.split(".", 1)[1]: v for k, v in manifest["files"].items()}
print(files[1] == files[2])
"""


def test_pool_workers_fork_cleanly_after_the_helper_thread_started(tmp_path):
    # A forked worker inherits the helper's executor but not its thread;
    # were it to hand the helper a block, it would wait forever.  At 256
    # paths each worker steps 128 paths of each rung, whose 1,024-step blocks
    # are large enough to split.
    text = EXIT_MIN_CFG.replace("n_paths = 8", "n_paths = 256")
    cfg = _write(tmp_path, "m.cfg", text)
    proc = subprocess.Popen(
        [sys.executable, "-c", FORK_AFTER_HELPER, cfg],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        # Take the stuck workers down with the run.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("a 2-worker run hung after the helper thread started")
    assert proc.returncode == 0, stderr
    assert stdout.splitlines()[-1] == "True"


SPAWNED_WORKERS = """\
import multiprocessing

from sgdlab import cli, streams


def helper_absent(lo, hi):
    return streams._helper() is None


if __name__ == "__main__":
    multiprocessing.set_start_method("spawn", force=True)
    with cli.Pool(2) as pool:
        print(pool._scatter(helper_absent, 2))
"""


def test_pool_workers_that_are_not_forked_start_no_helper_thread(tmp_path):
    # A spawned worker is no forked child, so only the pool can tell it that
    # the CPUs are taken.  Spawn re-imports the main module, hence a file.
    if streams._usable_cpus() < 2:
        pytest.skip("one usable CPU starts no helper anywhere")
    script = tmp_path / "spawn_check.py"
    script.write_text(SPAWNED_WORKERS)
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1])),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[True, True]"


def test_the_manifest_records_peak_memory_and_lists_only_the_csvs(tmp_path):
    cfg = _write(tmp_path, "d.cfg", DEVIATION_CFG)
    out = str(tmp_path / "dev")
    assert main(["deviation", "--config", cfg, "--out", out, "--workers", "2"]) == 0
    manifest = json.loads((tmp_path / "dev.manifest").read_text())
    rss = manifest["peak_rss_mb"]
    assert 0 < rss["self"] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert rss["children"] > 0  # the run's two workers, reaped
    assert manifest["files"] and all(name.endswith(".csv") for name in manifest["files"])


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


@pytest.mark.parametrize(
    "experiment, setting",
    [
        ("exit-min", "dim=3"),
        ("deviation", "dim=2"),
        ("exit-min", "source=exact"),
        ("exit-saddle", "source=exact"),
        ("weak-order", "source=bvp_1d"),
    ],
)
def test_a_value_the_run_would_ignore_or_fail_on_exits_2(experiment, setting, tmp_path, capsys):
    """exit-min and deviation used to run the 1-D well at dim = 3 or 2 and
    record that dim in the manifest; exit-min at source = exact failed in
    its ladder, past the config check."""
    config = Path(KRAMERS_CFG).with_name(f"{experiment.replace('-', '_')}.cfg")
    argv = [experiment, "--config", str(config), "--out", str(tmp_path / "x")]
    assert main([*argv, "--set", setting]) == 2
    err = capsys.readouterr().err
    assert "config-error" in err and setting.split("=")[0] in err
    assert not (tmp_path / "x.manifest").exists()


# The centre and radius of the 1-D ball with the ends of each config's interval.
INTERVAL_AS_BALL = {"exit-min": ("0", "1"), "kramers": ("0.5", "1.5")}


@pytest.mark.parametrize("experiment", sorted(INTERVAL_AS_BALL))
def test_an_interval_and_its_one_coordinate_box_write_the_same_csvs(experiment, tmp_path):
    """Both experiments used to refuse a one-coordinate box, and then a 1-D
    ball with the same ends, with exit code 2."""
    config = Path(KRAMERS_CFG).with_name(f"{experiment.replace('-', '_')}.cfg")
    center, radius = INTERVAL_AS_BALL[experiment]
    csvs = {}
    for kind, sets in (
        ("interval", []),
        ("box", []),
        ("ball", ["--set", f"domain_center={center}", "--set", f"domain_radius={radius}"]),
    ):
        argv = [experiment, "--config", str(config), "--out", str(tmp_path / kind)]
        assert main([*argv, "--set", f"domain={kind}", *sets]) == 0
        csvs[kind] = {p.name[len(kind):]: p.read_bytes() for p in tmp_path.glob(f"{kind}.*csv")}
    assert ".csv" in csvs["interval"] and ".summary.csv" in csvs["interval"]
    assert csvs["box"] == csvs["interval"]
    assert csvs["ball"] == csvs["interval"]


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


def test_kramers_overflowing_predictor_exits_3(tmp_path, capsys):
    argv = ["kramers", "--config", KRAMERS_CFG, "--out", str(tmp_path / "x")]
    assert main([*argv, "--set", "eta_list=0.1, 0.0005"]) == 3
    assert "numerical-error" in capsys.readouterr().err


def test_kramers_start_off_a_critical_point_exits_2(tmp_path, capsys):
    """x0 = 0.8 used to report the predictor for F(0.8) and F''(0.8)."""
    argv = ["kramers", "--config", KRAMERS_CFG, "--out", str(tmp_path / "x")]
    assert main([*argv, "--set", "x0=0.8"]) == 2
    err = capsys.readouterr().err
    assert "config-error" in err and "x_star=[0.8] is not a stationary point" in err


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


def test_weak_order_mc_runs_on_a_nonconvex_builtin(tmp_path, capsys):
    # The Monte Carlo source takes any 1-D builtin: on the double well the
    # chain's weak error against its diffusion falls at first order.
    text = (
        WEAK_ORDER_CFG.replace("quadratic_well", "double_well_1d")
        .replace("sigma = 1.0", "sigma = 0.5")
        .replace("x0 = 1.0", "x0 = 1.2")
        .replace("drift_order = both", "drift_order = first")
        .replace("source = exact", "source = mc\nn_paths = 40000")
    )
    cfg = _write(tmp_path, "dw.cfg", text)
    out = str(tmp_path / "dw")
    assert main(["weak-order", "--config", cfg, "--out", out, "--check"]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 3
    text = text.replace("source = mc\nn_paths = 40000", "source = exact")
    cfg = _write(tmp_path, "dw-exact.cfg", text)
    assert main(["weak-order", "--config", cfg, "--out", out]) == 2
    assert "source = exact" in capsys.readouterr().err


def test_console_script_is_installed():
    proc = subprocess.run(["sgdlab", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("weak-order", "exit-min", "exit-saddle", "kramers",
                "anneal", "deviation", "batch-cov", "ode-limit"):
        assert sub in proc.stdout


def test_every_experiment_has_one_runner_in_the_listed_order():
    assert tuple(cli._RUNNERS) == EXPERIMENTS

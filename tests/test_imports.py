"""Start-up cost: scipy is imported only by the code that calls it.

The pytest process has long since imported scipy, so every check runs in a
fresh interpreter and reports what that interpreter's ``sys.modules`` holds.
"""

import ast
import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import sgdlab

SRC = str(Path(sgdlab.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))

REPORT = "\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))\n"

CASES = {
    "import": "import sgdlab, sgdlab.cli",
    "help": """\
        import runpy
        sys.argv = ["sgdlab", "--help"]
        try:
            runpy.run_module("sgdlab.cli", run_name="__main__")
        except SystemExit as exc:
            assert exc.code == 0, exc.code
        """,
    "builtins": """\
        from sgdlab import builtin
        from sgdlab.potentials import _BUILTIN_NAMES
        for name in _BUILTIN_NAMES:
            builtin(name, (0.5, -0.5) if name == "gaussian_cloud_finite_sum" else ())
        """,
    "bvp-interval": """\
        from sgdlab import Domain, builtin, minimizer_scaling_fit
        report = minimizer_scaling_fit(
            builtin("quadratic_well"), 1.0, Domain.interval(-1.0, 1.0), [0.25, 0.125]
        )
        assert len(report.entries) == 2
        """,
    "exit-mc": """\
        from sgdlab import Domain, builtin, minimizer_scaling_fit, sde
        report = minimizer_scaling_fit(
            builtin("quadratic_well"), 1.0, Domain.interval(-1.0, 1.0), [0.5, 0.4],
            source="mc", n_paths=32,
        )
        assert len(report.entries) == 2
        assert sde._linear_filter.cache_info().currsize == 1  # the block stepper ran
        """,
    # An arm whose interval is never read computes none, so it loads no scipy.
    "anneal-counts": """\
        from sgdlab import anneal_experiment, builtin
        tilted = builtin("asym_double_well_1d", (-0.05,))
        result = anneal_experiment(tilted, 0.4, 20.0, 16, 0.25, dt=0.05)
        assert 0 <= result.successes <= 16
        assert result.success_prob == result.successes / 16
        assert result.occupancy_fracs[-1] == result.success_prob
        """,
}


def _python(args, cwd) -> str:
    """The last line that ``python *args`` prints, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, *args], env=ENV, cwd=cwd, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


@pytest.mark.parametrize("case", sorted(CASES))
def test_path_loads_no_scipy(case, tmp_path):
    script = "import sys\n" + textwrap.dedent(CASES[case]) + REPORT
    assert _python(["-c", script], tmp_path) == "[]"


EXIT_MC = """\
experiment = exit-min
potential = quadratic_well
sigma = 1.0
domain = interval
domain_lo = -1
domain_hi = 1
eta_list = 0.5, 0.4
source = mc
"""

DEVIATION = """\
experiment = deviation
potential = quadratic_well
sigma = 1.0
eta = 0.02
T = 0.5
x0 = 1.0
n_paths = 400
"""


TWO_WORKER_EXIT_MC = f"""\
import json
import multiprocessing
import sys

from sgdlab import cli, sde
from sgdlab.config import parse_config_text, validate_config

# Inherited by the forked workers: each probe waits for the other, so the two
# probes run on the two workers.
BARRIER = multiprocessing.Barrier(2)


def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))


def probe(lo, hi):
    BARRIER.wait(timeout=60)
    return sde._linear_filter.cache_info().currsize, scipy_modules()


if __name__ == "__main__":
    cfg = validate_config(parse_config_text({EXIT_MC!r}))
    with cli.Pool(2) as pool:
        cli._RUNNERS[cfg.experiment](cfg, "e", pool._scatter)
        workers = pool._scatter(probe, 2)
    print(json.dumps([workers, scipy_modules()]))
"""


def test_a_two_worker_exit_mc_run_loads_no_scipy_anywhere(tmp_path):
    # The workers step the ladder's rungs through the block stepper, which
    # loads scipy's compiled filter without any scipy package, so neither
    # they nor the parent list a scipy module.
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the probes meet at a barrier that only forked workers share")
    script = tmp_path / "exit_mc_check.py"
    script.write_text(TWO_WORKER_EXIT_MC)
    workers, parent = json.loads(_python([str(script)], tmp_path))
    assert parent == []
    assert [modules for _, modules in workers] == [[], []]
    assert any(loaded for loaded, _ in workers)  # a worker ran the block stepper


def test_a_two_worker_deviation_run_forks_without_scipy(tmp_path):
    # No deviation chunk reaches the block stepper or any scipy function.
    (tmp_path / "d.cfg").write_text(DEVIATION)
    script = textwrap.dedent(
        """\
        import sys

        from sgdlab import cli

        assert cli.main(["deviation", "--config", "d.cfg", "--out", "d", "--workers", "2"]) == 0
        """
    )
    assert _python(["-c", script + REPORT], tmp_path) == "[]"


def test_annealing_loads_no_scipy_beyond_scipy_special(tmp_path):
    # ``_binomial_ci`` is annealing's one use of scipy; a wider import (say
    # ``scipy.stats``) would add tens of MB of RSS to every annealing run.
    bare = _python(["-c", "import sys\nimport scipy.special" + REPORT], tmp_path)
    script = textwrap.dedent(
        """\
        import sys

        from sgdlab import anneal_experiment, builtin

        tilted = builtin("asym_double_well_1d", (-0.05,))
        result = anneal_experiment(tilted, 0.4, 20.0, 16, 0.25, dt=0.05)
        assert 0.0 <= result.ci_low <= result.ci_high <= 1.0
        """
    )
    loaded = ast.literal_eval(_python(["-c", script + REPORT], tmp_path))
    assert "scipy.special" in loaded
    assert set(loaded) <= set(ast.literal_eval(bare))


def test_import_starts_no_thread(tmp_path):
    script = "import threading\nimport sgdlab, sgdlab.cli\nprint(threading.active_count())"
    assert _python(["-c", script], tmp_path) == "1"

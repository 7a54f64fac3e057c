"""Start-up cost: scipy is imported only by the code that calls it.

The pytest process has long since imported scipy, so every check runs in a
fresh interpreter and reports what that interpreter's ``sys.modules`` holds.
"""

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


def test_pool_workers_inherit_scipy_signal(tmp_path):
    # A chunk reaches scipy only through lfilter, in the block stepper of an
    # exit rung on a diagonal quadratic; the pool of such a run imports
    # scipy.signal before it forks, so no worker imports it again.
    script = tmp_path / "fork_check.py"
    script.write_text(
        textwrap.dedent(
            f"""\
            import sys

            from sgdlab import cli
            from sgdlab.config import parse_config_text, validate_config


            def signal_loaded(lo, hi):
                return "scipy.signal" in sys.modules


            if __name__ == "__main__":
                cfg = validate_config(parse_config_text({EXIT_MC!r}))
                assert "scipy.signal" not in sys.modules
                with cli.Pool(2, cli._chunk_imports(cfg)) as pool:
                    print(pool._scatter(signal_loaded, 8))
            """
        )
    )
    assert _python([str(script)], tmp_path) == "[True, True]"


def test_a_two_worker_deviation_run_forks_without_scipy(tmp_path):
    # No deviation chunk reaches lfilter, so its pool imports nothing
    # before it forks.
    (tmp_path / "d.cfg").write_text(DEVIATION)
    script = textwrap.dedent(
        """\
        import sys

        from sgdlab import cli

        assert cli.main(["deviation", "--config", "d.cfg", "--out", "d", "--workers", "2"]) == 0
        """
    )
    assert _python(["-c", script + REPORT], tmp_path) == "[]"


def test_import_starts_no_thread(tmp_path):
    script = "import threading\nimport sgdlab, sgdlab.cli\nprint(threading.active_count())"
    assert _python(["-c", script], tmp_path) == "1"

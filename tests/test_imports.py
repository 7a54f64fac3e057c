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
        for name in ("quadratic_well", "inverted_quadratic", "saddle_2d", "double_well_1d"):
            builtin(name)
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


def test_pool_workers_inherit_scipy_signal(tmp_path):
    # A chunk reaches scipy only through lfilter; the pool imports
    # scipy.signal before it forks, so no worker imports it again.
    script = tmp_path / "fork_check.py"
    script.write_text(
        textwrap.dedent(
            """\
            import sys

            from sgdlab import cli


            def signal_loaded(lo, hi):
                return "scipy.signal" in sys.modules


            if __name__ == "__main__":
                assert "scipy.signal" not in sys.modules
                with cli.Pool(2) as pool:
                    print(pool._scatter(signal_loaded, 8))
            """
        )
    )
    assert _python([str(script)], tmp_path) == "[True, True]"

"""Golden digests: the CSV bytes of every tiny CLI experiment, pinned.

Criterion 11 checks that the worker count does not change the CSVs of a
run; this test checks that a change to the program does not change them
either.  Each ``TINY_CONFIGS`` entry runs at ``--workers 1`` and the
sha256 of every emitted CSV must equal the digest recorded below, and the
run's manifest must list exactly those CSVs, so a run writes each result
once and in no other format.  A second leg runs them all again in a child
process whose numpy dispatches no SIMD loop beyond its baseline, and
checks the same digests, so they hold at any SIMD level of one platform.
The digests were recorded with numpy 2.4 on x86-64 Linux; a platform whose
libm rounds differently in the last bit would need them recorded afresh.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from test_acceptance import TINY_CONFIGS

import sgdlab
from sgdlab.cli import main as cli_main

GOLDEN_DIGESTS = {
    "weak-order": {
        "run.first.csv": "4d3894ca03f1ad0060bf737562e5ce3237c37c6c953fd7ff8e9af083b357a889",
        "run.second.csv": "a2738169e0a01d6a99158620eb2b064718a58c1a896649eff48f8597c8d68f11",
        "run.summary.csv": "5585886b77526f88cdd47d7c570fcbb45b776dbabb56626f1d3fe2fbf79750ae",
    },
    "exit-min": {
        "run.csv": "b0cf491d4eb71e74e66bca74c93186c2d9a82f1c994bb6234524ff8472841869",
        "run.summary.csv": "3de4214d423845f9348b50adee9cc3ad0aacf823cf38a4069336ed4828454fd9",
    },
    "exit-saddle": {
        "run.csv": "576bac16b310952185e8c79979310c40aa2916b89acc7a637da74ad4b30f0a6b",
        "run.summary.csv": "5deabad65b883521195076b433ae8fab90c44e0678eccae2a6732eb61738fdba",
    },
    "kramers": {
        "run.csv": "79eafbcbf9e388ab819ce1b448903d05a0acf02abdc04aac3ab6dffbf8f0102a",
        "run.summary.csv": "5aa613579a7c83c7932674e4583e4c7f7510e2374c216b9aba247b83c3c10c9a",
    },
    "anneal": {
        "run.constant.csv": "c4cbe2889c51d34fb55b1b5e92f54fb03533e3c6dcd0107977891623fa830118",
        "run.cooling.csv": "3a55a56ca027bc372dec2c48a971448945422525280c0448669d039403de6d71",
        "run.csv": "cfdaf39e84d7b6a2b76090a1d6e63b7ff83a5ad3b096269207791f8530b347bf",
        "run.summary.csv": "a82bbb97202c917aeeb9ce6a4f04c56e2ce226fef1937a1bb592ef468f3bfe8c",
    },
    "deviation": {
        "run.csv": "70cf6053347c2f9f6a63420b5fdf57a7e4de4b6c743f9ca55073f005d9458d64",
        "run.summary.csv": "59a20f0164ecd976934338126eeff31649dff4679fa56abf95bac21f4979fc03",
    },
    "batch-cov": {
        "run.csv": "29cbc326356bfbd7f6407f77a831cce1c249484df36c7d43d7cb7670163eb59b",
        "run.summary.csv": "640de3ae761e783d8d58ad0ec8347b6304ff774f96e5bcc2563ce3d2b6d0b786",
    },
    "ode-limit": {
        "run.csv": "073b2ccbdaf905af60f688397b7a1efa34d1ef2a2fd22b2e9d125a91b7e8efb5",
        "run.summary.csv": "1213d8d2fa4dc78b532d6aa6e65f86910b31c70a8d1bdc4d72cb2d1537bed890",
    },
}


@pytest.mark.parametrize("name", sorted(TINY_CONFIGS))
def test_tiny_config_csvs_match_golden_digests(name, tmp_path):
    cfg_path = tmp_path / f"{name}.cfg"
    cfg_path.write_text(TINY_CONFIGS[name])
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    rc = cli_main(
        [name, "--config", str(cfg_path), "--out", str(out_dir / "run"), "--workers", "1"]
    )
    assert rc == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.glob("*.csv"))
    }
    assert digests == GOLDEN_DIGESTS[name]
    manifest = json.loads((out_dir / "run.manifest").read_text())
    assert sorted(manifest["files"]) == sorted(GOLDEN_DIGESTS[name])


# Runs each config of the JSON on stdin and writes the CSV digests, and the
# SIMD features numpy still dispatches to, to digests.json.
BASELINE_RUN = """\
import hashlib, json, pathlib, sys

from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from sgdlab.cli import main

digests = {}
for name, text in json.load(sys.stdin).items():
    out = pathlib.Path(name)
    out.mkdir()
    (out / "run.cfg").write_text(text)
    argv = [name, "--config", str(out / "run.cfg"), "--out", str(out / "run"), "--workers", "1"]
    assert main(argv) == 0, name
    csvs = sorted(out.glob("*.csv"))
    digests[name] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in csvs}
dispatched = [f for f in __cpu_dispatch__ if __cpu_features__[f]]
pathlib.Path("digests.json").write_text(json.dumps({"digests": digests, "dispatched": dispatched}))
"""


def _simd_features_beyond_baseline() -> list[str]:
    """The SIMD features numpy found on this CPU beyond its build baseline."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:
        return []
    return [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]


def test_tiny_config_csvs_keep_their_digests_at_baseline_simd_dispatch(tmp_path):
    """np.tanh in the weak-order observables used to give other last bits
    with numpy's dispatch held to its baseline, and so other digests."""
    features = _simd_features_beyond_baseline()
    if not features:
        pytest.skip("numpy dispatches no SIMD loop beyond its baseline on this CPU")
    env = dict(
        os.environ,
        NPY_DISABLE_CPU_FEATURES=" ".join(features),
        PYTHONPATH=str(Path(sgdlab.__file__).resolve().parents[1]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", BASELINE_RUN],
        input=json.dumps(TINY_CONFIGS),
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads((tmp_path / "digests.json").read_text())
    assert result["dispatched"] == []
    assert result["digests"] == GOLDEN_DIGESTS

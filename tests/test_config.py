"""Tests for config-file parsing, validation, and overrides."""

import numpy as np
import pytest

from sgdlab import builtin
from sgdlab.config import (
    ConfigError,
    apply_overrides,
    build_potential,
    load_config,
    parse_config_text,
    validate_config,
    x0_array,
)

ANNEAL_TEXT = """\
# basin-hopping run
[run]
experiment = anneal
potential = asym_double_well_1d
potential_params = -0.05
gamma = 0.4
T = 500
n_paths = 10
epsilon = 0.25
"""


def test_parse_skips_comments_blanks_and_section_headers():
    raw = parse_config_text(ANNEAL_TEXT)
    assert raw["experiment"] == "anneal"
    assert raw["gamma"] == "0.4"
    assert "[run]" not in raw


def test_duplicate_keys_are_rejected_with_line_number():
    with pytest.raises(ConfigError, match=r"duplicate key 'experiment' \(line 2\)"):
        parse_config_text("experiment = anneal\nexperiment = anneal\n")


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        validate_config(parse_config_text("experiment = anneal\nbogus = 1\n"))


def test_unknown_experiment_is_rejected():
    with pytest.raises(ConfigError, match="expected one of"):
        validate_config(parse_config_text("experiment = bogus-exp\n"))


def test_missing_required_keys_are_reported_together():
    with pytest.raises(ConfigError, match="missing required keys"):
        validate_config(parse_config_text("experiment = anneal\n"))


def test_type_errors_name_the_offending_key():
    text = ANNEAL_TEXT.replace("n_paths = 10", "n_paths = x")
    with pytest.raises(ConfigError, match="key 'n_paths': expected an integer"):
        validate_config(parse_config_text(text))


def test_typed_values_round_trip():
    cfg = validate_config(
        parse_config_text(
            "experiment = weak-order\npotential = quadratic_well\nsigma = 1.0\n"
            "x0 = 1.0\nT = 1.0\neta_list = 0.2, 0.1, 0.05\ndrift_order = both\n"
            "source = exact\nseed = 3\n"
        )
    )
    assert cfg.experiment == "weak-order"
    assert cfg.get("eta_list") == (0.2, 0.1, 0.05)
    assert cfg.get("seed") == 3
    assert cfg.get("dt", None) is None


def test_overrides_replace_and_extend():
    raw = parse_config_text(ANNEAL_TEXT)
    out = apply_overrides(raw, ["gamma=1.0", "seed=9"])
    assert out["gamma"] == "1.0"
    assert out["seed"] == "9"
    cfg = validate_config(out)
    assert cfg.get("gamma") == 1.0
    assert cfg.get("seed") == 9


def test_malformed_override_is_rejected():
    raw = parse_config_text(ANNEAL_TEXT)
    with pytest.raises(ConfigError, match="not of the form key=value"):
        apply_overrides(raw, ["nonsense"])


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(ANNEAL_TEXT)
    cfg = load_config(path)
    assert cfg.experiment == "anneal"
    assert cfg.get("T") == 500.0


def test_build_potential_and_x0_helpers():
    cfg = validate_config(
        parse_config_text(
            "experiment = exit-min\npotential = quadratic_well\nsigma = 1.0\n"
            "domain = interval\ndomain_lo = -1\ndomain_hi = 1\neta_list = 0.25\n"
            "source = bvp_1d\n"
        )
    )
    pot = build_potential(cfg)
    ref = builtin("quadratic_well")
    x = np.array([0.7])
    assert pot.value(x) == ref.value(x)
    cfg2 = validate_config(
        parse_config_text(
            "experiment = deviation\npotential = quadratic_well\nsigma = 1.0\n"
            "eta = 0.01\nT = 1\nn_paths = 10\nx0 = 0.5, -0.5\n"
        )
    )
    np.testing.assert_allclose(x0_array(cfg2, dim=2), [0.5, -0.5])


SAMPLE_VARIANCE_TEXTS = {
    "deviation": "potential = quadratic_well\nsigma = 1.0\neta = 0.02\nT = 0.5\nx0 = 1.0\n",
    "ode-limit": "potential = double_well_1d\nsigma = 0.3\nx0 = 1.5\nT = 1.0\neta_list = 0.1\n",
    "weak-order": "potential = quadratic_well\nsigma = 1.0\nx0 = 1.0\nT = 1.0\n"
    "eta_list = 0.2, 0.1\nsource = mc\n",
}


@pytest.mark.parametrize("experiment", sorted(SAMPLE_VARIANCE_TEXTS))
def test_sample_variance_experiments_need_two_paths(experiment):
    text = f"experiment = {experiment}\n" + SAMPLE_VARIANCE_TEXTS[experiment]
    validate_config(parse_config_text(text + "n_paths = 2\n"))
    with pytest.raises(ConfigError, match=r"key 'n_paths': must be >= 2"):
        validate_config(parse_config_text(text + "n_paths = 1\n"))


def test_negative_checkpoint_count_is_rejected():
    validate_config(parse_config_text(ANNEAL_TEXT + "n_checkpoints = 0\n"))
    with pytest.raises(ConfigError, match="key 'n_checkpoints': must be non-negative"):
        validate_config(parse_config_text(ANNEAL_TEXT + "n_checkpoints = -3\n"))

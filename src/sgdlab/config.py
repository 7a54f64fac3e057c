"""Experiment configuration: flat ``key = value`` files with a strict schema.

The format is plain UTF-8 text.  Blank lines and lines starting with ``#``
are ignored; ``[section]`` headers are allowed for grouping but carry no
meaning — keys form a single flat namespace so command-line overrides
(``--set key=value``) compose with no nesting rules.  Every key must be in
the schema, be valid for the selected experiment, and appear at most once;
violations raise ConfigError naming the offending key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .errors import ConfigError
from .exit_times import Domain
from .oracles import WITH_REPLACEMENT, WITHOUT_REPLACEMENT
from .potentials import FiniteSumSpec, PotentialSpec, builtin
from .sde import FIRST_ORDER, SECOND_ORDER

_GLOBAL_KEYS = frozenset({"experiment", "seed", "workers", "out", "emit_records"})

#: The keys that shape a potential and a domain, shared by experiments.
_POTENTIAL_KEYS = frozenset({"potential_params", "dim"})
_DOMAIN_KEYS = frozenset({"domain_lo", "domain_hi", "domain_center", "domain_radius"})

#: Keys each experiment accepts beyond the globals (required first).
_EXPERIMENT_KEYS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "weak-order": (
        frozenset({"potential", "sigma", "x0", "T", "eta_list"}),
        _POTENTIAL_KEYS | {"drift_order", "source", "n_paths", "dt_factor"},
    ),
    "exit-min": (
        frozenset({"potential", "sigma", "domain", "eta_list"}),
        _POTENTIAL_KEYS | _DOMAIN_KEYS | {"x0", "source", "n_paths", "dt", "horizon"},
    ),
    "exit-saddle": (
        frozenset({"potential", "sigma", "domain", "x0", "eta_list"}),
        _POTENTIAL_KEYS | _DOMAIN_KEYS | {"source", "n_paths", "dt", "horizon"},
    ),
    "kramers": (
        frozenset({"potential", "eta_list", "domain"}),
        _POTENTIAL_KEYS | _DOMAIN_KEYS | {"sigma", "x0"},
    ),
    "anneal": (
        frozenset({"potential", "gamma", "T", "n_paths", "epsilon"}),
        _POTENTIAL_KEYS | {"x0", "dt", "n_checkpoints"},
    ),
    "deviation": (
        frozenset({"potential", "sigma", "eta", "T", "x0", "n_paths"}),
        _POTENTIAL_KEYS,
    ),
    "batch-cov": (
        _POTENTIAL_KEYS | {"potential", "m_list", "x0"},
        frozenset({"batch_mode"}),
    ),
    "ode-limit": (
        frozenset({"potential", "sigma", "eta_list", "T", "x0"}),
        _POTENTIAL_KEYS | {"n_paths"},
    ),
}

#: Experiment names, in the order the command line lists them.
EXPERIMENTS = tuple(_EXPERIMENT_KEYS)


# ---------------------------------------------------------------------------
# Value parsers.
# ---------------------------------------------------------------------------


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {text!r}") from None


def _parse_float(key: str, text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: expected a finite number, got {text!r}")
    return value


def _parse_floats(key: str, text: str) -> tuple[float, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"key {key!r}: expected a comma-separated list of numbers")
    return tuple(_parse_float(key, s) for s in items)


def _parse_ints(key: str, text: str) -> tuple[int, ...]:
    items = [s.strip() for s in text.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"key {key!r}: expected a comma-separated list of integers")
    return tuple(_parse_int(key, s) for s in items)


def _parse_str(key: str, text: str) -> str:
    return text.strip()


def _parse_bool(key: str, text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"key {key!r}: expected a boolean (0/1), got {text!r}")


def _choice(options: Sequence[str]) -> Callable[[str, str], str]:
    def parse(key: str, text: str) -> str:
        val = text.strip()
        if val not in options:
            raise ConfigError(f"key {key!r}: expected one of {list(options)}, got {val!r}")
        return val

    return parse


#: Schema: key -> (parser, one-line description).
KEY_SPECS: dict[str, tuple[Callable[[str, str], object], str]] = {
    "experiment": (_choice(EXPERIMENTS), "experiment name"),
    "seed": (_parse_int, "base seed for all random streams"),
    "workers": (_parse_int, "worker process count"),
    "out": (_parse_str, "output path prefix"),
    "emit_records": (_parse_bool, "also write per-path exit records"),
    "potential": (_parse_str, "builtin objective name"),
    "potential_params": (_parse_floats, "objective parameters, comma separated"),
    "dim": (_parse_int, "ambient dimension (finite-sum center reshape)"),
    "sigma": (_parse_float, "isotropic noise amplitude"),
    "batch_mode": (
        _choice((WITHOUT_REPLACEMENT, WITH_REPLACEMENT)),
        "mini-batch sampling mode",
    ),
    "domain": (_choice(("interval", "ball", "box")), "domain kind"),
    "domain_lo": (_parse_floats, "interval/box lower bounds"),
    "domain_hi": (_parse_floats, "interval/box upper bounds"),
    "domain_center": (_parse_floats, "ball center"),
    "domain_radius": (_parse_float, "ball radius"),
    "eta": (_parse_float, "learning rate"),
    "eta_list": (_parse_floats, "learning-rate ladder, comma separated"),
    "n_paths": (_parse_int, "Monte Carlo path count"),
    "T": (_parse_float, "time horizon"),
    "horizon": (_parse_float, "explicit exit-search horizon"),
    "dt": (_parse_float, "integrator step"),
    "dt_factor": (_parse_float, "integrator step as a fraction of eta"),
    "x0": (_parse_floats, "start point"),
    "drift_order": (
        _choice((FIRST_ORDER, SECOND_ORDER, "both")),
        "diffusion drift order",
    ),
    "source": (_choice(("bvp_1d", "mc", "exact")), "exit-time / error source"),
    "gamma": (_parse_float, "annealing noise scale"),
    "epsilon": (_parse_float, "success window around the global minimizers"),
    "m_list": (_parse_ints, "mini-batch sizes to tabulate"),
    "n_checkpoints": (_parse_int, "occupancy checkpoints for annealing"),
}

@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment description.

    ``values`` holds parsed entries; ``raw`` echoes the exact strings that
    produced them (file plus overrides), which is what the run manifest
    records.
    """

    experiment: str
    values: dict[str, object]
    raw: dict[str, str] = field(default_factory=dict)

    def get(self, key: str, default=None):
        return self.values.get(key, default)

    def library_kwargs(self, *keys: str) -> dict[str, object]:
        """The ``keys`` this config sets, as keyword arguments under the
        library's names, so that a key it leaves out takes the library
        default and no default is written twice."""
        library = {
            "emit_records": "keep_records", "batch_mode": "mode", "potential_params": "params"
        }
        return {library.get(k, k): self.values[k] for k in keys if k in self.values}


# ---------------------------------------------------------------------------
# Parsing and validation.
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Read ``key = value`` lines into an ordered dict, rejecting duplicates."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if stripped.startswith("[") and stripped.endswith("]"):
            continue  # section headers group keys visually, nothing more
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in raw:
            raise ConfigError(f"duplicate key {key!r} (line {lineno})")
        raw[key] = value
    return raw


def apply_overrides(raw: dict[str, str], overrides: Sequence[str]) -> dict[str, str]:
    """Apply ``key=value`` override strings on top of the parsed file."""
    out = dict(raw)
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        key, _, value = item.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"override {item!r} has an empty key")
        out[key] = value.strip()
    return out


def validate_config(raw: Mapping[str, str]) -> ExperimentConfig:
    """Schema-check raw entries and parse them into typed values."""
    if "experiment" not in raw:
        raise ConfigError("missing required key 'experiment'")
    for key in raw:
        if key not in KEY_SPECS:
            raise ConfigError(f"unknown key {key!r}")
    experiment = KEY_SPECS["experiment"][0]("experiment", raw["experiment"])
    required, optional = _EXPERIMENT_KEYS[experiment]
    allowed = _GLOBAL_KEYS | required | optional
    for key in raw:
        if key not in allowed:
            raise ConfigError(
                f"key {key!r} is not valid for experiment {experiment!r}"
            )
    missing = sorted(required - set(raw))
    if missing:
        raise ConfigError(
            f"experiment {experiment!r} is missing required keys: {', '.join(missing)}"
        )
    values: dict[str, object] = {}
    for key, text in raw.items():
        parser, _ = KEY_SPECS[key]
        values[key] = parser(key, text)
    _cross_validate(experiment, values)
    return ExperimentConfig(experiment=experiment, values=values, raw=dict(raw))


def _cross_validate(experiment: str, values: dict[str, object]) -> None:
    if "seed" in values and values["seed"] < 0:
        raise ConfigError("key 'seed': must be non-negative")
    if "workers" in values and values["workers"] < 1:
        raise ConfigError("key 'workers': must be >= 1")
    # These three report sample variances, which need two paths.
    least = 2 if experiment in ("deviation", "ode-limit", "weak-order") else 1
    if values.get("n_paths", least) < least:
        raise ConfigError(f"key 'n_paths': must be >= {least} for {experiment}")
    if values.get("n_checkpoints", 0) < 0:
        raise ConfigError("key 'n_checkpoints': must be non-negative")
    for key in ("sigma", "T", "dt", "eta", "epsilon", "domain_radius", "dt_factor"):
        if key in values and values[key] <= 0:
            raise ConfigError(f"key {key!r}: must be positive")
    if "eta_list" in values and any(e <= 0 for e in values["eta_list"]):
        raise ConfigError("key 'eta_list': entries must be positive")
    # Every ladder keys its rungs by eta (a scaling fit's records, the gap keys).
    if "eta_list" in values and len(set(values["eta_list"])) < len(values["eta_list"]):
        raise ConfigError("key 'eta_list': entries must be distinct")
    # Only weak-order, exit-min and exit-saddle take a source, each its own two.
    sources = ("exact", "mc") if experiment == "weak-order" else ("bvp_1d", "mc")
    if values.get("source", "mc") not in sources:
        raise ConfigError(
            f"key 'source': expected one of {list(sources)} for {experiment}, "
            f"got {values['source']!r}"
        )
    if "gamma" in values and values["gamma"] < 0:
        raise ConfigError("key 'gamma': must be non-negative")
    kind = values.get("domain")
    if kind == "interval" or kind == "box":
        if "domain_lo" not in values or "domain_hi" not in values:
            raise ConfigError(f"domain={kind} requires domain_lo and domain_hi")
    elif kind == "ball":
        if "domain_center" not in values or "domain_radius" not in values:
            raise ConfigError("domain=ball requires domain_center and domain_radius")


# ---------------------------------------------------------------------------
# Building experiment objects from a validated config.
# ---------------------------------------------------------------------------


def build_potential(cfg: ExperimentConfig) -> Union[PotentialSpec, FiniteSumSpec]:
    try:
        return builtin(cfg.get("potential"), **cfg.library_kwargs("potential_params", "dim"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def base_of(potential: Union[PotentialSpec, FiniteSumSpec]) -> PotentialSpec:
    return potential.base if isinstance(potential, FiniteSumSpec) else potential


def build_domain(cfg: ExperimentConfig) -> Domain:
    kind = cfg.get("domain")
    try:
        if kind == "interval":
            lo, hi = cfg.get("domain_lo"), cfg.get("domain_hi")
            if len(lo) != 1 or len(hi) != 1:
                raise ConfigError("domain=interval takes scalar domain_lo/domain_hi")
            return Domain.interval(lo[0], hi[0])
        if kind == "ball":
            return Domain.ball(cfg.get("domain_center"), cfg.get("domain_radius"))
        if kind == "box":
            return Domain.box(cfg.get("domain_lo"), cfg.get("domain_hi"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    raise ConfigError(f"experiment {cfg.experiment!r} needs a domain")


def x0_array(cfg: ExperimentConfig, dim: int) -> np.ndarray:
    vals = cfg.get("x0")
    if vals is None:
        raise ConfigError("missing required key 'x0'")
    x0 = np.asarray(vals, dtype=float)
    if x0.size != dim:
        raise ConfigError(f"x0 has {x0.size} components, the objective has dim {dim}")
    return x0

"""Experiment configuration: defaults, key-value files, env overrides.

Config files are plain text, one ``key = value`` pair per line, ``#``
comments allowed.  Every key has a default, so an empty (or absent) file
reproduces the standard benchmark experiment.  Environment variables
override file values: key ``gen.n_steps`` maps to ``QUACK_GEN_N_STEPS``
(dots to underscores, uppercased).  CLI flags override both.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .kernels import KERNEL_KINDS, MATERN_NUS
from .qkernel import QUBIT_CEILING
from .timeseries import GenSpec

ENV_PREFIX = "QUACK_"


@dataclass
class ExperimentConfig:
    gen: GenSpec = field(default_factory=GenSpec)
    window: int = 5
    train_overlap: int = 2
    train_frac: float = 0.75
    kernel: str = "iqp"
    matern_nu: float = 2.5
    matern_all: bool = False
    mean_lo: float = -1.0
    mean_hi: float = 1.0
    noise_lo: float = 0.0
    noise_hi: float = 1.0
    n0: int = 25
    n_query: int = 25
    restarts: int = 2
    seed_bo: int = 0
    out_dir: str = "runs"
    landscape_alpha: float = 0.243
    landscape_grid: int = 61
    ablate_n_steps: int = 480
    ablate_train_overlap: int = 4
    ablate_qubits: tuple[int, ...] = (5, 6, 7, 8, 9, 10)

    def validate(self) -> None:
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.gen.n_steps < 2 * self.window:
            raise ConfigError(
                f"n_steps={self.gen.n_steps} must be at least twice the window "
                f"length {self.window}"
            )
        if not 0 <= self.train_overlap < self.window:
            raise ConfigError(
                f"train_overlap={self.train_overlap} must satisfy 0 <= overlap < window"
            )
        if not 0.0 < self.train_frac < 1.0:
            raise ConfigError(f"train_frac must be in (0, 1), got {self.train_frac}")
        if self.n0 < 1 or self.n_query < 1:
            raise ConfigError(f"n0={self.n0} and n_query={self.n_query} must be >= 1")
        if self.restarts < 1:
            raise ConfigError(f"restarts must be >= 1, got {self.restarts}")
        if self.gen.seed < 0 or self.seed_bo < 0:
            raise ConfigError(
                f"seed_data={self.gen.seed} and seed_bo={self.seed_bo} must be >= 0"
            )
        if self.window > QUBIT_CEILING:
            raise ConfigError(f"window={self.window} exceeds qubit ceiling {QUBIT_CEILING}")
        if not self.mean_lo < self.mean_hi:
            raise ConfigError("mean bounds must satisfy mean_lo < mean_hi")
        if self.noise_lo < 0 or not self.noise_lo < self.noise_hi:
            raise ConfigError("noise bounds must satisfy 0 <= noise_lo < noise_hi")
        if self.gen.sine1_period == 0 or self.gen.sine2_period == 0:
            raise ConfigError("gen.sine1_period and gen.sine2_period must be nonzero")
        if self.landscape_grid < 2:
            raise ConfigError(f"landscape_grid must be >= 2, got {self.landscape_grid}")
        if self.kernel not in KERNEL_KINDS:
            raise ConfigError(f"kernel must be one of {KERNEL_KINDS}, got {self.kernel!r}")
        if self.matern_nu not in MATERN_NUS:
            raise ConfigError(f"matern_nu must be one of {MATERN_NUS}, got {self.matern_nu}")
        if not 0.0 <= self.landscape_alpha <= 1.0:
            raise ConfigError(f"landscape.alpha must be in [0, 1], got {self.landscape_alpha}")
        if not self.ablate_qubits:
            raise ConfigError("ablate.qubits must list at least one window length")
        if len(set(self.ablate_qubits)) != len(self.ablate_qubits):
            raise ConfigError(
                f"ablate.qubits lists a window length twice: {list(self.ablate_qubits)}"
            )
        for w in self.ablate_qubits:
            if not 1 <= w <= QUBIT_CEILING:
                raise ConfigError(
                    f"ablate.qubits entry {w} must be in [1, {QUBIT_CEILING}] "
                    "(the qubit ceiling)"
                )
            if w <= self.ablate_train_overlap:
                raise ConfigError(
                    f"ablate.qubits entry {w} must exceed "
                    f"ablate.train_overlap={self.ablate_train_overlap}"
                )
            if self.ablate_n_steps < 2 * w:
                raise ConfigError(
                    f"ablate.n_steps={self.ablate_n_steps} must be at least twice "
                    f"ablate.qubits entry {w}"
                )


# key -> (target attribute path, parser)
def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_optional_float(text: str) -> float | None:
    return None if text.strip().lower() in ("auto", "none") else _parse_float(text)


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


_SCHEMA: dict[str, tuple[str, object]] = {
    "gen.n_steps": ("gen.n_steps", int),
    "gen.n_trend_changes": ("gen.n_trend_changes", int),
    "gen.slope": ("gen.slope", _parse_float),
    "gen.sine1_period": ("gen.sine1_period", _parse_float),
    "gen.sine1_amplitude": ("gen.sine1_amplitude", _parse_float),
    "gen.sine2_period": ("gen.sine2_period", _parse_optional_float),
    "gen.sine2_amplitude": ("gen.sine2_amplitude", _parse_float),
    "gen.noise_sd": ("gen.noise_sd", _parse_float),
    "window": ("window", int),
    "train_overlap": ("train_overlap", int),
    "train_frac": ("train_frac", _parse_float),
    "kernel": ("kernel", str),
    "matern_nu": ("matern_nu", _parse_float),
    "matern_all": ("matern_all", _parse_bool),
    "bounds.mean_lo": ("mean_lo", _parse_float),
    "bounds.mean_hi": ("mean_hi", _parse_float),
    "bounds.noise_lo": ("noise_lo", _parse_float),
    "bounds.noise_hi": ("noise_hi", _parse_float),
    "n0": ("n0", int),
    "n_query": ("n_query", int),
    "restarts": ("restarts", int),
    "seed_data": ("gen.seed", int),
    "seed_bo": ("seed_bo", int),
    "out_dir": ("out_dir", str),
    "landscape.alpha": ("landscape_alpha", _parse_float),
    "landscape.grid": ("landscape_grid", int),
    "ablate.n_steps": ("ablate_n_steps", int),
    "ablate.train_overlap": ("ablate_train_overlap", int),
    "ablate.qubits": ("ablate_qubits", _parse_int_tuple),
}


def _locate(cfg: ExperimentConfig, path: str) -> tuple[object, str]:
    """The object holding a schema path's attribute, and its name:
    ``gen.n_steps`` is ``(cfg.gen, "n_steps")``, ``window`` ``(cfg, "window")``."""
    holder_name, _, attr = path.rpartition(".")
    return (getattr(cfg, holder_name) if holder_name else cfg), attr


def _assign(cfg: ExperimentConfig, key: str, raw: str, origin: str) -> None:
    if key not in _SCHEMA:
        raise ConfigError(f"{origin}: unknown config key {key!r}")
    path, parser = _SCHEMA[key]
    try:
        value = parser(raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{origin}: bad value for {key!r}: {raw!r} ({exc})") from exc
    setattr(*_locate(cfg, path), value)


def _env_name(key: str) -> str:
    return ENV_PREFIX + key.replace(".", "_").upper()


def load_config(path=None, env: dict[str, str] | None = None) -> ExperimentConfig:
    """Build a config from defaults, an optional file and the environment."""
    cfg = ExperimentConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        for lineno, raw in enumerate(lines, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            _assign(cfg, key.strip(), value.strip(), origin=f"{path}:{lineno}")
    env = os.environ if env is None else env
    for key in _SCHEMA:
        name = _env_name(key)
        if name in env:
            _assign(cfg, key, env[name], origin=f"environment {name}")
    return cfg


def snapshot(cfg: ExperimentConfig) -> dict:
    """Flat, JSON-serializable view of every config key."""
    out: dict[str, object] = {}
    for key, (path, _) in _SCHEMA.items():
        value = getattr(*_locate(cfg, path))
        if isinstance(value, tuple):
            value = list(value)
        out[key] = value
    return out


def describe_schema() -> str:
    """Human-readable key listing with defaults, for --help and the README."""
    cfg = ExperimentConfig()
    lines = []
    for key, (path, _) in sorted(_SCHEMA.items()):
        default = getattr(*_locate(cfg, path))
        lines.append(f"{key} (default {default!r}, env {_env_name(key)})")
    return "\n".join(lines)


__all__ = [
    "ExperimentConfig",
    "ENV_PREFIX",
    "load_config",
    "snapshot",
    "describe_schema",
]

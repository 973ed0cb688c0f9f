"""Run configuration with environment-variable overrides.

Every numeric knob can be overridden through an EXPTRIPLE_* variable so
batch jobs can retune the tool without editing command lines.  Invalid
values raise UsageError rather than being silently ignored.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from .errors import UsageError

OUTPUT_FORMATS = ("json-lines", "csv", "human")


@dataclass(frozen=True)
class SearchBounds:
    """Box limits for the direct search over small constituent parts.

    a1_max and g_max bound the coprime seed bases, b1_max bounds the
    second seed base, and exp_max bounds every exponent appearing in a
    candidate identity.  rad_bound and height_bound control equation
    generation for the pipeline search.
    """

    a1_max: int = 20
    g_max: int = 20
    b1_max: int = 200
    exp_max: int = 6
    rad_bound: int = 100
    height_bound: int = 10_000

    def __post_init__(self) -> None:
        for name in ("a1_max", "g_max", "b1_max", "exp_max", "rad_bound", "height_bound"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise UsageError(f"search bound {name} must be a positive integer")
        if self.g_max < 2:
            raise UsageError("search bound g_max must be at least 2")


@dataclass(frozen=True)
class RunConfig:
    """Top-level knobs shared by the library entry points and the CLI.

    max_bits is the enumeration bit budget and worker_count the number
    of search processes.
    """

    max_bits: int = 128
    bounds: SearchBounds = field(default_factory=SearchBounds)
    worker_count: int = 1
    output_format: str = "human"

    def __post_init__(self) -> None:
        for name in ("max_bits", "worker_count"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise UsageError(f"configuration value {name} must be a positive integer")
        if self.output_format not in OUTPUT_FORMATS:
            raise UsageError(
                f"unknown output format {self.output_format!r}; "
                f"choose one of {', '.join(OUTPUT_FORMATS)}"
            )


_ENV_INT_FIELDS = {
    "EXPTRIPLE_MAX_BITS": "max_bits",
    "EXPTRIPLE_WORKERS": "worker_count",
}

_ENV_BOUND_FIELDS = {
    "EXPTRIPLE_A1_MAX": "a1_max",
    "EXPTRIPLE_G_MAX": "g_max",
    "EXPTRIPLE_B1_MAX": "b1_max",
    "EXPTRIPLE_EXP_MAX": "exp_max",
    "EXPTRIPLE_RAD_BOUND": "rad_bound",
    "EXPTRIPLE_HEIGHT_BOUND": "height_bound",
}

_ENV_FORMAT = "EXPTRIPLE_FORMAT"


def _env_int(environ: dict[str, str], key: str) -> int:
    raw = environ[key]
    try:
        return int(raw, 10)
    except ValueError:
        raise UsageError(f"environment variable {key} must be an integer, got {raw!r}")


def load_config(environ: dict[str, str] | None = None) -> RunConfig:
    """Build a RunConfig from defaults plus EXPTRIPLE_* overrides."""
    if environ is None:
        environ = dict(os.environ)

    config_updates: dict[str, int | str] = {}
    for key, attr in _ENV_INT_FIELDS.items():
        if key in environ:
            config_updates[attr] = _env_int(environ, key)
    if _ENV_FORMAT in environ:
        config_updates["output_format"] = environ[_ENV_FORMAT]

    bound_updates: dict[str, int] = {}
    for key, attr in _ENV_BOUND_FIELDS.items():
        if key in environ:
            bound_updates[attr] = _env_int(environ, key)

    config = RunConfig()
    if bound_updates:
        config = replace(config, bounds=replace(config.bounds, **bound_updates))
    if config_updates:
        config = replace(config, **config_updates)
    return config

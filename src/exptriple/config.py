"""Run configuration: the direct-search box and the bit budget.

Both types check their values on construction, so a bad value raises
UsageError before any work starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError


@dataclass(frozen=True)
class SearchBounds:
    """Box limits for the direct search over small constituent parts.

    a1_max and g_max bound the coprime seed bases, b1_max bounds the
    second seed base, and exp_max bounds every exponent appearing in a
    candidate identity.
    """

    a1_max: int = 20
    g_max: int = 20
    b1_max: int = 200
    exp_max: int = 6

    def __post_init__(self) -> None:
        for name in ("a1_max", "g_max", "b1_max", "exp_max"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise UsageError(f"search bound {name} must be a positive integer")
        if self.g_max < 2:
            raise UsageError("search bound g_max must be at least 2")


@dataclass(frozen=True)
class RunConfig:
    """The bit budget for enumerated and verified values."""

    max_bits: int = 128

    def __post_init__(self) -> None:
        if not isinstance(self.max_bits, int) or self.max_bits < 1:
            raise UsageError("configuration value max_bits must be a positive integer")

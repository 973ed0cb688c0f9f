"""Run configuration: the direct-search box and the bit budget.

Both types check their values on construction, unpickling included, so a
bad value raises UsageError before any work starts.  checked gives the
same guarantee to the other records whose values must be checked.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, TypeVar

from .errors import UsageError


_Record = TypeVar("_Record", bound=type)


def checked(cls: _Record) -> _Record:
    """Make every construction of the NamedTuple class cls run its __post_init__.

    The hook is looked up on each construction, so a class may replace it
    later.  Unpickling and copying construct through __new__ too, so a
    record sent to a worker process is checked again on arrival; only
    _make and _replace build the tuple directly and skip the check.
    """
    make = cls.__new__

    @functools.wraps(make)
    def __new__(klass, *args, **kwargs):
        self = make(klass, *args, **kwargs)
        self.__post_init__()
        return self

    cls.__new__ = staticmethod(__new__)
    return cls


@checked
class SearchBounds(NamedTuple):
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


@checked
class RunConfig(NamedTuple):
    """The bit budget for enumerated and verified values."""

    max_bits: int = 128

    def __post_init__(self) -> None:
        if not isinstance(self.max_bits, int) or self.max_bits < 1:
            raise UsageError("configuration value max_bits must be a positive integer")

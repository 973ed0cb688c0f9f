"""Tests for the package's export list and its value records."""

import pytest

import exptriple


def test_every_export_resolves():
    missing = [name for name in exptriple.__all__ if not hasattr(exptriple, name)]
    assert missing == []


def test_exports_unique_and_sorted():
    names = exptriple.__all__
    assert len(set(names)) == len(names)
    assert names == sorted(names)


_TRIPLE_REPR = (
    "Triple(a=2, b=6, c=38, common_primes=(2,), exponents={2: (1, 1, 1)}, "
    "a1=1, b1=3, c1=19)"
)


@pytest.mark.parametrize(
    "record, field",
    [
        (exptriple.factorize(12), "value"),
        (exptriple.build_triple(2, 6, 38), "a"),
        (exptriple.Solution(1, 2, 1), "x"),
        (exptriple.enumerate_solutions(exptriple.build_triple(2, 6, 38), 64), "max_bits"),
    ],
    ids=["Factored", "Triple", "Solution", "SolutionSet"],
)
def test_value_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 3)


def test_value_record_reprs():
    assert repr(exptriple.factorize(12)) == "Factored(value=12, factors=((2, 2), (3, 1)))"
    t = exptriple.build_triple(2, 6, 38)
    assert repr(t) == _TRIPLE_REPR
    assert repr(exptriple.enumerate_solutions(t, 64)) == (
        f"SolutionSet(triple={_TRIPLE_REPR}, max_bits=64, "
        "solutions=(Solution(x=1, y=2, z=1), Solution(x=5, y=1, z=1)), "
        "classes=((Solution(x=1, y=2, z=1),), (Solution(x=5, y=1, z=1),)), "
        "bound_too_small=False)"
    )


def test_value_records_are_tuples():
    s = exptriple.Solution(5, 1, 1)
    x, y, z = s
    assert (x, y, z) == s == (5, 1, 1)
    assert exptriple.factorize(12) == (12, ((2, 2), (3, 1)))

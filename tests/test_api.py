"""Tests for the package's export list and its value records."""

import pickle

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


def _records():
    """One instance of each record of the package, by class name."""
    from exptriple.acceptance import CheckResult

    t = exptriple.build_triple(2, 6, 38)
    nine = exptriple.make_nine_tuple(2, 6, 38, 1, 2, 1, 5, 1, 1)
    member = exptriple.gen_family("I", {"u": 1, "h": 3})
    left = exptriple.Identity("a", 3, 1, 1, None, 2, 1, 5, 1)
    right = exptriple.Identity("b", 3, 1, 1, None, 2, 3, 5, 2)
    system, _ = exptriple.pair_and_solve(left, right)
    report = exptriple.ingest_equations(["16 3 19", "1 18 19"])
    records = [
        report.records[0],
        report,
        left,
        system,
        exptriple.reconstruct_and_verify(left, right, system, 128),
        exptriple.run_pipeline(report.records),
        nine,
        exptriple.in_family(member),
        exptriple.classify_nine(nine),
        exptriple.detect_special_case(exptriple.build_triple(3, 5, 2)),
        exptriple.g_decomposition(t, {2}),
        exptriple.type_profile(t, exptriple.Solution(1, 2, 1)),
        exptriple.SearchBounds(),
        exptriple.RunConfig(),
        CheckResult(1, "name", True, "detail", 0.5),
    ]
    return {type(r).__name__: r for r in records}


_RECORDS = _records()
_MODULES = ("arith", "classify", "config", "families", "search", "solve", "triple")


def test_every_record_class_has_an_instance_here():
    import exptriple.acceptance

    modules = [exptriple.acceptance, *(getattr(exptriple, m) for m in _MODULES)]
    classes = {
        name for module in modules for name, value in vars(module).items()
        if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
    }
    assert classes == set(_RECORDS) | {"Factored", "Triple", "Solution", "SolutionSet"}


# each record that checks its values, with one field and a value it refuses
_CHECKED = [
    ("SearchBounds", "g_max", 1, exptriple.UsageError),
    ("RunConfig", "max_bits", 0, exptriple.UsageError),
    ("Identity", "c1", 4, ValueError),
    ("SolvedSystem", "gamma", 0, ValueError),
]


@pytest.mark.parametrize("name, field, bad, error", _CHECKED, ids=[c[0] for c in _CHECKED])
def test_checked_records_check_on_construction_and_unpickling(name, field, bad, error):
    record = _RECORDS[name]
    assert pickle.loads(pickle.dumps(record)) == record
    with pytest.raises(error):
        type(record)(**{**record._asdict(), field: bad})
    # _replace skips the check, so it can make the value that unpickling must refuse
    unchecked = record._replace(**{field: bad})
    with pytest.raises(error):
        pickle.loads(pickle.dumps(unchecked))


@pytest.mark.parametrize("name", sorted(_RECORDS))
def test_records_are_immutable(name):
    record = _RECORDS[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])
    with pytest.raises(AttributeError):
        record.unknown = 1


def test_search_bounds_repr():
    assert repr(exptriple.SearchBounds()) == (
        "SearchBounds(a1_max=20, g_max=20, b1_max=200, exp_max=6)"
    )

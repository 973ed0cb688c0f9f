"""The ten known anomalous nine-tuples and lookup helpers.

These are the only known two-solution nine-tuples with gcd(a, b) > 1
that belong to none of the four infinite families.  Dividing either
solution a^x + b^y = c^z of a row by the common factor of its two terms
leaves a coprime equation A + B = C.  For every row both equations have
C, and so rad(C), below SEARCHED_RADICAL_BOUND.  The bound does not
hold for the triple radical: rad(ABC) equals rad(abc) of the row's bases
and reaches 35,946,991,470 for (30, 4930, 24304930), so the list makes
no claim of completeness below any bound on rad(ABC).
"""

from __future__ import annotations

from .families import NineTuple, canonical_nine, make_nine_tuple

# listed with a < b (neither base a perfect power) and solutions ordered
# by first exponent
KNOWN_ANOMALOUS_ROWS: tuple[tuple[int, ...], ...] = (
    (2, 6, 38, 1, 2, 1, 5, 1, 1),
    (2, 88, 6, 5, 2, 5, 7, 1, 3),
    (3, 6, 15, 2, 1, 1, 2, 3, 2),
    (3, 6, 7857, 4, 5, 1, 8, 4, 1),
    (3, 1215, 6, 4, 1, 4, 8, 1, 5),
    (5, 275, 280, 1, 1, 1, 7, 1, 2),
    (5, 280, 78405, 1, 2, 1, 7, 1, 1),
    (6, 15, 231, 1, 2, 1, 3, 1, 1),
    (30, 70, 4930, 1, 2, 1, 5, 2, 2),
    (30, 4930, 24304930, 1, 2, 1, 5, 1, 1),
)

SEARCHED_RADICAL_BOUND = 10**7

KNOWN_ANOMALOUS: tuple[NineTuple, ...] = tuple(
    make_nine_tuple(*row) for row in KNOWN_ANOMALOUS_ROWS
)


_CANONICAL_KNOWN = frozenset(canonical_nine(n).as_tuple() for n in KNOWN_ANOMALOUS)


def is_known_anomalous(nine: NineTuple) -> bool:
    """Membership in the known list, up to base swap and solution order."""
    return canonical_nine(nine).as_tuple() in _CANONICAL_KNOWN

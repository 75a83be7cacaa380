"""Hand-entered reference objects used as fixtures throughout the package.

Triples (a, b, c) over Z_m x GF(p^2) denote the group element a paired with
the field element b*l + c, where l is the chosen primitive root; internally
the field element is the ascending coefficient tuple (c, b).
"""

from __future__ import annotations

from collections import Counter

from .carrier import ProductCarrier
from .diffs import GMultiset
from .families import RelativeDifferenceFamily, StrongDifferenceFamily
from .gf import FiniteField
from .groups import AbelianGroup


def example51() -> StrongDifferenceFamily:
    """The (5,5,4) difference multiset {0,1,1,4,4} on Z_5; additive."""
    group = AbelianGroup((5,))
    block = GMultiset(group, [(0,), (1,), (1,), (4,), (4,)])
    return StrongDifferenceFamily(group, 5, 4, [block])


# six base blocks of a (Z_5 x F_25, Z_5 x {0}, 5, 1)-DF; F_25 built on x^2+x+2
_Z5_BLOCKS = [
    [(0, 0, 0), (1, 0, 1), (1, 0, 4), (4, 1, 0), (4, 4, 0)],
    [(0, 0, 0), (1, 4, 3), (1, 1, 2), (4, 4, 2), (4, 1, 3)],
    [(0, 0, 0), (1, 3, 2), (1, 2, 3), (4, 4, 4), (4, 1, 1)],
    [(0, 0, 0), (1, 0, 2), (1, 0, 3), (4, 2, 0), (4, 3, 0)],
    [(0, 0, 0), (1, 3, 1), (1, 2, 4), (4, 3, 4), (4, 2, 1)],
    [(0, 0, 0), (1, 1, 4), (1, 4, 1), (4, 3, 3), (4, 2, 2)],
]

# eight base blocks of a (Z_7^3, Z_7 x {0} x {0}, 7, 1)-DF
_Z7_BLOCKS = [
    [(0, 0, 0), (1, 1, 0), (1, 6, 0), (2, 2, 1), (2, 5, 6), (4, 2, 0), (4, 5, 0)],
    [(0, 0, 0), (1, 2, 4), (1, 5, 3), (2, 0, 3), (2, 0, 4), (4, 4, 1), (4, 3, 6)],
    [(0, 0, 0), (1, 2, 2), (1, 5, 5), (2, 2, 6), (2, 5, 1), (4, 4, 4), (4, 3, 3)],
    [(0, 0, 0), (1, 3, 5), (1, 4, 2), (2, 1, 6), (2, 6, 1), (4, 6, 3), (4, 1, 4)],
    [(0, 0, 0), (1, 0, 1), (1, 0, 6), (2, 6, 2), (2, 1, 5), (4, 0, 2), (4, 0, 5)],
    [(0, 0, 0), (1, 3, 2), (1, 4, 5), (2, 4, 0), (2, 3, 0), (4, 6, 4), (4, 1, 3)],
    [(0, 0, 0), (1, 5, 2), (1, 2, 5), (2, 1, 2), (2, 6, 5), (4, 3, 4), (4, 4, 3)],
    [(0, 0, 0), (1, 2, 3), (1, 5, 4), (2, 1, 1), (2, 6, 6), (4, 4, 6), (4, 3, 1)],
]


def _triple_df(
    group_order: int, p: int, triples: list[list[tuple[int, int, int]]], k: int
) -> RelativeDifferenceFamily:
    field = FiniteField(p, 2, (2, 1, 1)) if p == 5 else FiniteField(p, 2)
    carrier = ProductCarrier(AbelianGroup((group_order,)), field)
    blocks = []
    for t in triples:
        blocks.append(
            GMultiset(carrier, [carrier.join((a,), (c, b)) for a, b, c in t])
        )
    return RelativeDifferenceFamily(carrier, carrier.forbidden_subgroup(), k, 1, blocks)


def thm62_z5() -> RelativeDifferenceFamily:
    """The six-block additive (Z_5 x F_25, Z_5 x {0}, 5, 1)-DF."""
    return _triple_df(5, 5, _Z5_BLOCKS, 5)


def thm62_z7() -> RelativeDifferenceFamily:
    """The eight-block additive (Z_7^3, Z_7 x {0} x {0}, 7, 1)-DF."""
    return _triple_df(7, 7, _Z7_BLOCKS, 7)


def sigma_prime() -> StrongDifferenceFamily:
    """The additive (15,15,42)-SDF of three blocks {0} u 2*A_i on Z_15."""
    group = AbelianGroup((15,))
    halves = [
        [1, 2, 3, 7, 9, 11, 12],
        [1, 3, 4, 5, 7, 12, 13],
        [1, 5, 8, 10, 11, 12, 13],
    ]
    blocks = []
    for a_set in halves:
        entries: Counter = Counter({(0,): 1})
        for a in a_set:
            entries[(a,)] += 2
        blocks.append(GMultiset(group, entries))
    return StrongDifferenceFamily(group, 15, 42, blocks)


def paper_signed_lifting_z5() -> tuple[FiniteField, list[dict]]:
    """The GF(25) plus/minus lifting of the (5,5,4) multiset:
    {(0,0), (1,+-1), (4,+-l)} with l a root of x^2+x+2."""
    field = FiniteField(5, 2, (2, 1, 1))
    ell = (0, 1)
    return field, [{(1,): field.one, (4,): ell}]


def section4_table() -> list[tuple[int, int]]:
    """The six (v, k) pairs of the divisibility-admissible but problematic
    parameter list: v = 3 * 2^a * q^b with k = 3 * 2^c * q."""
    return [
        (3 * 2**6 * 5**10, 3 * 2**2 * 5),
        (3 * 2**18 * 11**10, 3 * 2**2 * 11),
        (3 * 5 * 11**7, 3 * 5 * 11),
        (3 * 2**21 * 7**3, 3 * 2**3 * 7),
        (3 * 5**22 * 13**4, 3 * 5 * 13),
        (3 * 2**26 * 5**6, 3 * 2**4 * 5),
    ]


FIXTURES = {
    "example51": example51,
    "thm62-z5": thm62_z5,
    "thm62-z7": thm62_z7,
    "sigma-prime": sigma_prime,
}

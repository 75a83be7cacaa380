import time

import pytest

from difam.carrier import ProductCarrier
from difam.gf import FiniteField
from difam.groups import (
    AbelianGroup,
    GroupError,
    Subgroup,
    generated_subgroup,
    involution_subgroup,
    is_binary,
    is_zero_sum_group,
    radical,
    sum_of,
)


def test_group_basics():
    g = AbelianGroup((5,))
    assert g.order == 5
    assert g.rank == 1
    assert g.zero == (0,)
    assert g.add((3,), (4,)) == (2,)
    assert g.sub((1,), (4,)) == (2,)
    assert g.neg((2,)) == (3,)


def test_product_group_arithmetic():
    g = AbelianGroup((3, 4))
    assert g.order == 12
    assert g.add((2, 3), (2, 2)) == (1, 1)
    assert g.neg((1, 1)) == (2, 3)
    assert list(g.elements())[0] == (0, 0)
    assert len(list(g.elements())) == 12


def test_encode_decode_roundtrip():
    g = AbelianGroup((3, 5, 2))
    for i, e in enumerate(g.elements()):
        assert g.encode(e) == i
        assert g.decode(i) == e


def test_contains_and_check():
    g = AbelianGroup((4,))
    assert g.contains((3,))
    assert not g.contains((4,))
    assert not g.contains((0, 0))
    with pytest.raises(GroupError):
        g.check((7,))


def test_bad_orders_rejected():
    with pytest.raises(GroupError):
        AbelianGroup(())
    with pytest.raises(GroupError):
        AbelianGroup((0,))


def test_carrier_equality_is_one_key():
    # a plain group once equalled every product carrier with its cyclic
    # orders, while two of those products with different moduli differed
    plain = AbelianGroup((5, 5, 5))
    a = ProductCarrier(AbelianGroup((5,)), FiniteField(5, 2, (2, 1, 1)))
    b = ProductCarrier(AbelianGroup((5,)), FiniteField(5, 2, (2, 4, 1)))
    same_a = ProductCarrier(AbelianGroup((5,)), FiniteField(5, 2, (2, 1, 1)))
    carriers = [plain, a, b, same_a]
    for x in carriers:
        for y in carriers:
            assert (x == y) == (y == x) == (x._key == y._key)
            for z in carriers:
                assert not (x == y and y == z) or x == z
    assert a == same_a and hash(a) == hash(same_a)
    assert a != plain and plain != a and a != b
    assert len({plain, a, b, same_a}) == 3
    assert AbelianGroup((5, 5, 5)) == plain and hash(AbelianGroup((5, 5, 5))) == hash(plain)


def test_presentation_matters():
    # isomorphic but differently presented groups compare unequal on purpose
    assert AbelianGroup((6,)) != AbelianGroup((2, 3))


def test_subgroup_verification():
    g = AbelianGroup((6,))
    sub = Subgroup(g, [(0,), (2,), (4,)])
    assert sub.order == 3
    assert (2,) in sub.elements
    with pytest.raises(GroupError):
        Subgroup(g, [(0,), (2,)])  # not closed: 2+2=4 missing
    with pytest.raises(GroupError):
        Subgroup(g, [(2,), (4,)])  # no identity


def test_generated_subgroup():
    g = AbelianGroup((12,))
    sub = generated_subgroup(g, [(4,)])
    assert sub.elements == ((0,), (4,), (8,))
    whole = generated_subgroup(g, [(5,)])
    assert whole.order == 12


def test_sum_of_accepts_multisets_and_iterables():
    g = AbelianGroup((5,))
    assert sum_of(g, [(1,), (2,)]) == (3,)
    assert sum_of(g, [(1,), (1,), (4,), (1,)]) == (2,)  # a multiset, repeats written out
    assert sum_of(g, []) == (0,)


def test_involutions_and_binary():
    assert involution_subgroup(AbelianGroup((8,))).order == 2
    assert involution_subgroup(AbelianGroup((2, 2, 3))).order == 4
    assert is_binary(AbelianGroup((8,)))
    assert not is_binary(AbelianGroup((2, 2)))
    assert not is_binary(AbelianGroup((5,)))


def test_zero_sum_groups():
    assert is_zero_sum_group(AbelianGroup((5,)))
    assert is_zero_sum_group(AbelianGroup((2, 2)))
    assert not is_zero_sum_group(AbelianGroup((2,)))
    assert not is_zero_sum_group(AbelianGroup((6,)))


def test_radical():
    # (radical, part left unfactored): 1 when the radical is exact
    assert radical(1) == (1, 1)
    assert radical(12) == (6, 1)
    assert radical(125) == (5, 1)
    assert radical(360) == (30, 1)
    with pytest.raises(ValueError):
        radical(0)


def test_radical_of_large_numbers_is_fast():
    # trial division to sqrt(v) would take about 10^9 steps on each
    start = time.perf_counter()
    assert radical(1000000000000000003) == (1000000000000000003, 1)  # prime
    assert radical(4294967291 * 4294967279) == (4294967291 * 4294967279, 1)  # near 2^64
    assert radical(2**40 * 4294967291**2) == (2 * 4294967291, 1)
    assert time.perf_counter() - start < 2


def test_radical_leaves_what_it_cannot_factor_quickly():
    # sympy's unbounded factorint took 9.7 s on a 41-digit semiprime, and
    # over 60 s on this 51-digit one; 10**25 + 13 and 3 * 10**25 + 67 are prime
    semiprime = (10**25 + 13) * (3 * 10**25 + 67)
    huge = 3**5 * 7 * (10**25 + 13) ** 40  # past the bits the search factors
    start = time.perf_counter()
    assert radical(semiprime) == (1, semiprime)
    assert radical(12 * semiprime) == (6, semiprime)
    assert radical(huge) == (21, (10**25 + 13) ** 40)
    assert time.perf_counter() - start < 5


def test_every_package_error_is_a_difam_error():
    from difam.designs import DesignError
    from difam.families import FamilyError
    from difam.gf import FieldError
    from difam.groups import DifamError
    from difam.io import FamilyFormatError
    from difam.lifting import LiftingError

    assert issubclass(DifamError, ValueError)
    for cls in (GroupError, FieldError, FamilyError, FamilyFormatError, LiftingError, DesignError):
        assert issubclass(cls, DifamError), cls
    with pytest.raises(DifamError):
        radical(0)

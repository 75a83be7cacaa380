import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from difam.carrier import ProductCarrier
from difam.families import FamilyError, PartialSpread
from difam.gf import FiniteField
from difam.groups import (
    AbelianGroup,
    GroupError,
    Subgroup,
    generated_subgroup,
    involution_subgroup,
    is_binary,
    is_prime,
    is_zero_sum_group,
    radical,
)
from group_reference import ref

PROPERTY = settings(
    database=None,
    derandomize=True,
    deadline=None,
    max_examples=300,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_group_basics():
    g = AbelianGroup((5,))
    assert g.order == 5
    assert g.rank == 1
    assert g.sub_codes(1, 4) == 2
    assert g.sub_codes(0, 2) == 3  # -2
    assert g.sum_codes([3, 4]) == 2


def test_product_group_arithmetic():
    g = AbelianGroup((3, 4))
    assert g.order == 12
    # (2, 3) + (2, 2) = (1, 1), codes 11 + 10 = 5; -(1, 1) = (2, 3)
    assert g.sum_codes([11, 10]) == 5
    assert g.sub_codes(0, 5) == 11
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
    sub = Subgroup(g, [4, 0, 2, 2])
    assert sub.order == 3
    assert sub.codes.tolist() == [0, 2, 4] and sub.codes.dtype == np.int64
    assert not sub.codes.flags.writeable
    assert sub == Subgroup(g, np.array([0, 2, 4])) and hash(sub) == hash(Subgroup(g, [0, 2, 4]))
    assert sub != Subgroup(AbelianGroup((3, 2)), [0, 2, 4])  # the same codes in Z_3 x Z_2
    with pytest.raises(GroupError, match="not closed"):
        Subgroup(g, [0, 2])  # 2+2=4 missing
    with pytest.raises(GroupError, match="identity"):
        Subgroup(g, [2, 4])
    for bad in ([(0,), (3,)], [0, 6], [-1, 0], [[0, 3]]):  # tuples, codes out of range, 2-d
        with pytest.raises(GroupError, match="1-d array of codes"):
            Subgroup(g, bad)


def test_generated_subgroup():
    g = AbelianGroup((12,))
    sub = generated_subgroup(g, [4])
    assert sub.codes.tolist() == [0, 4, 8]
    whole = generated_subgroup(g, [5])
    assert whole.order == 12
    assert generated_subgroup(g, []).codes.tolist() == [0]


def test_sum_codes_counts_repeats():
    g = AbelianGroup((5,))
    assert g.sum_codes([1, 2]) == 3
    assert g.sum_codes([1, 1, 4, 1]) == 2  # a multiset, repeats written out
    assert g.sum_codes([]) == 0
    assert g.sum_codes([[1, 2], [4, 4], [0, 0]]).tolist() == [3, 3, 0]  # one sum per row
    h = AbelianGroup((2, 3))
    assert h.sum_codes([h.encode((1, 2)), h.encode((1, 2))]) == h.encode((0, 1))


def test_subgroups_of_large_groups_are_checked_in_time():
    # the pairwise check took 5.0 / 17.2 s on 2,048 / 4,096 elements
    start = time.perf_counter()
    for orders in ((2**17,), (2,) * 17, (2**8, 2**9)):
        g = AbelianGroup(orders)
        assert Subgroup(g, np.arange(0, g.order, 2)).order == 2**16
        with pytest.raises(GroupError, match="not closed"):
            Subgroup(g, np.arange(0, g.order, 2)[:-1])
    assert generated_subgroup(AbelianGroup((2,) * 20), 1 << np.arange(20)).order == 2**20
    assert time.perf_counter() - start < 5


@st.composite
def _code_sets(draw):
    """A small group and codes from it: any, a subgroup (a closure), a
    subgroup with one element dropped (0 or another), or any with repeats."""
    group = AbelianGroup(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    code = st.integers(0, group.order - 1)
    codes = draw(st.lists(code, max_size=6))
    how = draw(st.sampled_from(["any", "closure", "closure-minus-one", "repeats"]))
    if how != "any" and how != "repeats":
        codes = sorted(group.encode(e) for e in ref(group).closure(map(group.decode, codes)))
        if how == "closure-minus-one":
            del codes[draw(st.integers(0, len(codes) - 1))]
    elif how == "repeats":
        codes = codes + codes[: draw(st.integers(0, len(codes)))]
    return group, codes, [draw(st.lists(code, max_size=2)) for _ in range(draw(st.integers(0, 4)))]


@PROPERTY
@given(case=_code_sets())
def test_subgroup_check_and_span_agree_with_the_tuple_closure(case):
    group, codes, spread_gens = case
    r = ref(group)
    elems = {group.decode(c) for c in codes}
    closure = r.closure(elems)
    expected = sorted(group.encode(e) for e in closure)
    assert generated_subgroup(group, codes).codes.tolist() == expected
    if closure == elems:  # a subgroup: nonempty, as it holds zero
        assert Subgroup(group, codes).codes.tolist() == expected
    else:
        with pytest.raises(GroupError):
            Subgroup(group, codes)
    # a partial spread: pairwise trivial intersections of the members
    members = [generated_subgroup(group, gens) for gens in spread_gens]
    sets = [r.closure(map(group.decode, gens)) for gens in spread_gens]
    trivial = all(a & b == {r.zero} for i, a in enumerate(sets) for b in sets[i + 1 :])
    try:
        PartialSpread(members)
        assert trivial
    except FamilyError:
        assert not trivial


def test_involutions_and_binary():
    assert involution_subgroup(AbelianGroup((8,))).order == 2
    assert involution_subgroup(AbelianGroup((2, 2, 3))).order == 4
    assert is_binary(AbelianGroup((8,)))
    assert not is_binary(AbelianGroup((2, 2)))
    assert not is_binary(AbelianGroup((5,)))


def test_is_prime_by_trial_division():
    primes = [n for n in range(200) if is_prime(n)]
    assert primes == [n for n in range(200) if n > 1 and all(n % d for d in range(2, n))]
    assert is_prime(4194301) and not is_prime(4194303) and not is_prime(2**22)
    assert not is_prime(0) and not is_prime(-7)


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

import pytest

from difam.carrier import ProductCarrier
from difam.gf import FiniteField
from difam.groups import (
    AbelianGroup,
    GroupError,
    Subgroup,
    cosets,
    element_order,
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
    assert g.smul(3, (4,)) == (2,)


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


def test_product_carrier_hashes_like_equal_group():
    pc = ProductCarrier(AbelianGroup((5,)), FiniteField(5, 2))
    ag = AbelianGroup((5, 5, 5))
    assert pc == ag and ag == pc
    assert hash(pc) == hash(ag)
    assert len({pc, ag}) == 1


def test_presentation_matters():
    # isomorphic but differently presented groups compare unequal on purpose
    assert AbelianGroup((6,)) != AbelianGroup((2, 3))


def test_subgroup_verification():
    g = AbelianGroup((6,))
    sub = Subgroup(g, [(0,), (2,), (4,)])
    assert sub.order == 3
    assert (2,) in sub
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
    from collections import Counter

    assert sum_of(g, Counter({(1,): 2, (4,): 2})) == (0,)
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


def test_element_order():
    g = AbelianGroup((12, 5))
    assert element_order(g, (0, 0)) == 1
    assert element_order(g, (6, 0)) == 2
    assert element_order(g, (4, 1)) == 15
    assert element_order(g, (1, 1)) == 60


def test_cosets_partition():
    g = AbelianGroup((6,))
    sub = Subgroup(g, [(0,), (3,)])
    cs = cosets(sub)
    assert len(cs) == 3
    flat = sorted(e for c in cs for e in c)
    assert flat == sorted(g.elements())


def test_radical():
    assert radical(1) == 1
    assert radical(12) == 6
    assert radical(125) == 5
    assert radical(360) == 30
    with pytest.raises(ValueError):
        radical(0)

import random

import numpy as np
import pytest

from difam.carrier import ProductCarrier
from difam.diffs import GMultiset, coverage, delta_family, stack_rows
from difam.gf import FiniteField
from difam.groups import AbelianGroup, GroupError, Subgroup
from group_reference import ref


Z5 = AbelianGroup((5,))


def test_multiset_basics():
    m = GMultiset(Z5, [(1,), (1,), (4,), (0,)])
    assert m.size == 4
    assert m.codes.tolist() == [0, 1, 1, 4]
    assert not m.is_set()
    assert m.expand() == [(0,), (1,), (1,), (4,)]
    assert GMultiset(Z5, [(0,), (2,)]).is_set()


def test_multiset_from_counter():
    # a multiset is built from its elements with repeats written out
    m = GMultiset(Z5, [(2,)] * 3)
    assert m.expand() == [(2,), (2,), (2,)]
    assert m == GMultiset(Z5, [(2,), (2,), (2,)])
    assert hash(m) == hash(GMultiset(Z5, [(2,)] * 3))
    assert m != GMultiset(AbelianGroup((7,)), [(2,)] * 3)


def test_multiset_checks_elements():
    with pytest.raises(GroupError):
        GMultiset(Z5, [(5,)])


def test_delta_block_example():
    # {0,1,1,4,4}: every nonzero element covered 4 times, zero 4 times too
    block = GMultiset(Z5, [(0,), (1,), (1,), (4,), (4,)])
    d = delta_family(stack_rows([block], 5), Z5)
    assert d.sum() == 20
    assert all(d[Z5.encode((g,))] == 4 for g in range(5))


def test_delta_block_needs_two_elements():
    with pytest.raises(GroupError):
        delta_family(stack_rows([GMultiset(Z5, [(0,)])], 1), Z5)


def test_delta_family_union():
    b1 = GMultiset(Z5, [(0,), (1,)])
    b2 = GMultiset(Z5, [(0,), (2,)])
    d = delta_family(stack_rows([b1, b2], 2), Z5)
    assert d.sum() == 4
    assert d[Z5.encode((1,))] == 1
    assert d[Z5.encode((4,))] == 1


def test_delta_translation_invariance():
    rng = random.Random(7)
    group = AbelianGroup((4, 9))
    elems = list(group.elements())
    for _ in range(20):
        block = GMultiset(group, [rng.choice(elems) for _ in range(5)])
        g = rng.choice(elems)
        moved = group.sub_codes(block.codes, group.encode(ref(group).neg(g)))  # block + g
        assert np.array_equal(delta_family(moved[None], group),
                              delta_family(stack_rows([block], 5), group))


def test_delta_involution_parity():
    """The multiplicity of any element and its negative agree, so elements
    equal to their own negative get even counts from the paired positions."""
    rng = random.Random(11)
    group = AbelianGroup((2, 8))
    elems = list(group.elements())
    for _ in range(20):
        block = GMultiset(group, [rng.choice(elems) for _ in range(6)])
        d = delta_family(stack_rows([block], 6), group)
        for e in elems:
            assert d[group.encode(e)] == d[group.encode(ref(group).neg(e))]


def test_coverage_constant():
    block = GMultiset(Z5, [(0,), (1,), (1,), (4,), (4,)])
    counts = delta_family(stack_rows([block], 5), Z5)
    verdict = coverage(counts, Z5)
    assert verdict.ok
    assert verdict.constant_lambda == 4
    assert counts[Z5.encode((3,))] == 4
    assert counts.sum() == 20


def test_coverage_nonconstant():
    block = GMultiset(Z5, [(0,), (1,), (3,)])
    verdict = coverage(delta_family(stack_rows([block], 3), Z5), Z5)
    assert verdict.constant_lambda is None
    assert not verdict.ok
    assert verdict.failures


def test_coverage_with_excluded_subgroup():
    group = AbelianGroup((2, 3))
    sub = Subgroup(group, group.encode_elements([(0, 0), (1, 0)]))
    # differences of {(0,1),(0,2)} land on (0,1),(0,2): not constant outside
    block = GMultiset(group, [(0, 1), (0, 2)])
    verdict = coverage(delta_family(stack_rows([block], 2), group), group, sub)
    assert verdict.excluded_clean
    assert verdict.constant_lambda is None


def test_coverage_excluded_dirty():
    group = AbelianGroup((6,))
    sub = Subgroup(group, [0, 3])
    block = GMultiset(group, [(0,), (3,)])
    verdict = coverage(delta_family(stack_rows([block], 2), group), group, sub)
    assert not verdict.excluded_clean
    assert ((3,), 2) in verdict.failures


def test_coverage_vacuous_when_all_excluded():
    group = AbelianGroup((3,))
    sub = Subgroup(group, range(group.order))
    verdict = coverage(np.zeros(group.order, dtype=np.int64), group, sub)
    assert verdict.constant_lambda == 0
    assert verdict.ok


def test_coverage_carrier_mismatch():
    with pytest.raises(GroupError):
        coverage(np.zeros(Z5.order, dtype=np.int64), AbelianGroup((7,)))


def test_product_carrier_split_join():
    field = FiniteField(5, 2, (2, 1, 1))
    carrier = ProductCarrier(AbelianGroup((5,)), field)
    e = (3, 1, 4)
    assert carrier.split(e) == ((3,), (1, 4))
    # a product code is group_code * q + field_code
    assert carrier.encode(e) == 3 * field.q + field.additive_group.encode((1, 4))


def test_forbidden_subgroup():
    field = FiniteField(5, 2, (2, 1, 1))
    carrier = ProductCarrier(AbelianGroup((5,)), field)
    sub = carrier.forbidden_subgroup()
    assert sub.order == 5
    assert all(carrier.split(carrier.decode(c))[1] == (0, 0) for c in sub.codes.tolist())


def test_delta_family_slices_wide_blocks_by_pair_count(monkeypatch):
    # 4,096 rows of 640 points in one slice would take 12.5 GiB of differences
    group = AbelianGroup((641,))
    rows = np.tile(np.arange(640, dtype=np.int64), (3, 1))
    sizes, sub_codes = [], group.sub_codes
    monkeypatch.setattr(group, "sub_codes", lambda a, b: sizes.append(a.size) or sub_codes(a, b))
    counts = delta_family(rows, group)
    assert sizes == [640 * 639] * 3  # one row to a slice
    assert counts[1] == 3 * 639 and counts.sum() == 3 * 640 * 639

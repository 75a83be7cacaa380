import numpy as np
import pytest

import difam.families
from difam.catalog import example51, sigma_prime, thm62_z5
from difam.diffs import CoverageVerdict, GMultiset, delta_family, stack_rows
from difam.families import (
    FamilyError,
    PartialSpread,
    RdfVerdict,
    field_for_prime_power,
    jungnickel_compose,
    paley_sdf,
    spread_conditions,
    theorem82_core_sdf,
    theorem82_coverage_forms,
    verify_dm,
    verify_rdf,
    verify_sdf,
    zero_sum_dm,
)
from difam.groups import AbelianGroup, Subgroup


def test_verify_sdf_example():
    sdf = example51()
    verdict = verify_sdf(sdf.blocks, sdf.group, 5, 4)
    assert verdict.is_sdf
    assert verdict.is_additive
    assert verdict.lam == 4


def test_verify_sdf_rejects_wrong_lambda_and_shape():
    sdf = example51()
    assert not verify_sdf(sdf.blocks, sdf.group, 5, 2).is_sdf
    assert not verify_sdf(sdf.blocks, sdf.group, 4, 4).is_sdf
    assert not verify_sdf([], sdf.group, 5, 4).is_sdf


def test_verify_sdf_non_additive():
    group = AbelianGroup((3,))
    # {0,0,1} covers every element twice but sums to 1, not 0
    block = GMultiset(group, [(0,), (0,), (1,)])
    verdict = verify_sdf([block], group, 3, 2)
    assert verdict.is_sdf
    assert not verdict.is_additive


def test_sigma_prime_is_sdf():
    sdf = sigma_prime()
    verdict = verify_sdf(sdf.blocks, sdf.group, 15, 42)
    assert verdict.is_sdf
    assert verdict.is_additive
    assert delta_family(stack_rows(sdf.blocks, 15), sdf.group).sum() == 42 * 15


def test_paley_sdf():
    for q in (5, 9, 13, 25):
        sdf = paley_sdf(q)
        verdict = verify_sdf(sdf.blocks, sdf.group, q, q - 1)
        assert verdict.is_sdf
    # q = 3 mod 4: the squares do not sum to zero
    assert not paley_sdf(3).additive
    assert paley_sdf(5).additive
    with pytest.raises(FamilyError):
        paley_sdf(8)
    with pytest.raises(FamilyError):
        paley_sdf(15)


def test_paley5_matches_handmade_example():
    assert paley_sdf(5).blocks == example51().blocks


def test_field_for_prime_power():
    assert field_for_prime_power(49).q == 49
    with pytest.raises(FamilyError):
        field_for_prime_power(12)


def test_verify_rdf_fixture():
    rdf = thm62_z5()
    verdict = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 1)
    assert verdict.is_rdf
    assert verdict.is_additive
    assert verdict.lam == 1


def test_verify_rdf_requires_sets():
    rdf = thm62_z5()
    carrier = rdf.group
    doubled = GMultiset(carrier, rdf.blocks[0].expand()[:4] + rdf.blocks[0].expand()[:1])
    verdict = verify_rdf([doubled] + rdf.blocks[1:], carrier, rdf.forbidden, 5, 1)
    assert not verdict.is_rdf


def test_verify_rdf_additive_needs_nonbinary_forbidden():
    # zero-sum blocks relative to a subgroup with a unique involution do
    # not count as additive; relative to an odd-order subgroup they do
    group = AbelianGroup((4,))
    sub = Subgroup(group, [0, 2])
    blocks = [GMultiset(group, [(1,), (3,)])]
    assert not verify_rdf(blocks, group, sub, 2, 1).is_additive

    group6 = AbelianGroup((6,))
    sub6 = Subgroup(group6, [0, 2, 4])
    blocks6 = [GMultiset(group6, [(1,), (5,)])]
    assert verify_rdf(blocks6, group6, sub6, 2, 1).is_additive


def test_verify_rdf_refuses_a_block_of_the_wrong_size_or_carrier():
    # the same residues on Z_5^3 are the same codes as on Z_5 x GF(25), and
    # would verify; a block of four points would not stack
    rdf = thm62_z5()
    short = GMultiset(rdf.group, rdf.blocks[0].expand()[:4])
    flat = AbelianGroup(rdf.group.cyclic_orders)
    elsewhere = [GMultiset(flat, b.expand()) for b in rdf.blocks]
    assert verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 1).is_rdf
    refused = RdfVerdict(False, False, None, CoverageVerdict(0, True))
    for blocks in ([short] + rdf.blocks[1:], elsewhere):
        assert verify_rdf(blocks, rdf.group, rdf.forbidden, 5, 1) == refused


def test_verify_rdf_wrong_parent():
    group = AbelianGroup((4,))
    other = AbelianGroup((8,))
    sub = Subgroup(other, [0, 4])
    with pytest.raises(FamilyError):
        verify_rdf([], group, sub, 2, 1)


def test_partial_spread_validation():
    group = AbelianGroup((2, 2))
    a, b, c = (Subgroup(group, [0, x]) for x in (2, 1, 3))  # (1, 0), (0, 1), (1, 1)
    spread = PartialSpread([a, b, c])
    assert {c for sub in spread.members for c in sub.codes.tolist()} == set(range(group.order))
    with pytest.raises(FamilyError):
        PartialSpread([a, a])
    with pytest.raises(FamilyError):
        PartialSpread([a, Subgroup(AbelianGroup((2, 4)), [0, 4])])


def test_spread_conditions():
    verdict = spread_conditions(AbelianGroup((5, 5, 5)), 5, 31)
    assert verdict.all_pass  # 125/5 = 25 = 1 mod 4, 31 = 1 mod 5
    assert not spread_conditions(126, 5, 31).all_pass
    assert not spread_conditions(125, 5, 30).all_pass
    # a group with too many involutions for the spread to absorb
    bad = spread_conditions(AbelianGroup((2,) * 4), 2, 5)
    assert not bad.all_pass


def test_spread_conditions_refuses_k_below_two():
    for k in (1, 0, -1):
        with pytest.raises(FamilyError, match="need k >= 2"):
            spread_conditions(AbelianGroup((5, 5)), k, 6)
        with pytest.raises(FamilyError, match="need k >= 2"):
            spread_conditions(25, k, 6)


def test_verify_dm_zero_sum():
    h = AbelianGroup((3,))
    dm = zero_sum_dm(h, 3)
    assert dm.mu == 3
    assert len(dm.columns) == 9
    verdict = verify_dm(dm.columns, h, 3, 3)
    assert verdict.is_dm
    assert verdict.is_additive

    dm5 = zero_sum_dm(h, 5)
    assert dm5.mu == 27
    assert verify_dm(dm5.columns, h, 5, 27).is_dm


def test_verify_dm_rejects_perturbation():
    h = AbelianGroup((3,))
    dm = zero_sum_dm(h, 3)
    cols = dm.columns.copy()
    cols[0, 0] = (cols[0, 0] + 1) % 3
    verdict = verify_dm(cols, h, 3, 3)
    assert not verdict.is_dm
    assert verdict.failures


def test_verify_dm_shape_errors():
    h = AbelianGroup((3,))
    # anything but an (n, k) int64 code array is refused: element lists,
    # ragged or flat input, floats, a width other than k, codes out of range
    for bad in ([[(0,), (0,)], [(0,)]], [[0, 0]], np.zeros(4, np.int64), np.zeros((2, 2)),
                np.zeros((3, 3), np.int64), np.zeros((3, 2, 1), np.int64),
                np.array([[0, 3]] * 3), np.array([[0, -1]] * 3)):
        with pytest.raises(FamilyError):
            verify_dm(bad, h, 2, 1)
    # wrong column count is a verdict, not an exception
    assert verify_dm(np.zeros((1, 2), np.int64), h, 2, 2).failures == [(-1, -1, (0,), 1)]


def test_zero_sum_dm_cap():
    with pytest.raises(FamilyError):
        zero_sum_dm(AbelianGroup((11,)), 9)  # 11^8 columns, over MAX_DM_COLUMNS
    with pytest.raises(FamilyError, match="past the cap"):
        zero_sum_dm(AbelianGroup((3,)), 10**8)  # refused before 3^(10^8 - 1) is formed


def test_zero_sum_dm_rejects_k_below_two():
    # k = 1 gave mu = |H|^(k-2) = 1/3, a fractional index
    for k in (1, 0):
        with pytest.raises(FamilyError):
            zero_sum_dm(AbelianGroup((3,)), k)


def test_jungnickel_compose():
    sdf = example51()
    dm = zero_sum_dm(AbelianGroup((3,)), 5)
    out = jungnickel_compose(sdf, dm)
    assert out.group == AbelianGroup((5, 3))
    assert out.k == 5
    assert out.lam == 4 * 27
    assert out.additive
    verdict = verify_sdf(out.blocks, out.group, 5, 108)
    assert verdict.is_sdf
    assert verdict.is_additive
    with pytest.raises(FamilyError):
        jungnickel_compose(sdf, zero_sum_dm(AbelianGroup((3,)), 3))


def test_theorem82_core_sdf_k15():
    sdf = theorem82_core_sdf(15)
    assert sdf.group.order == 5
    assert sdf.lam == 14 * 9
    verdict = verify_sdf(sdf.blocks, sdf.group, 15, 126)
    assert verdict.is_sdf
    assert verdict.is_additive


def test_theorem82_closed_forms_match_brute_force():
    for k in (15, 45):
        sdf = theorem82_core_sdf(k)
        q = sdf.group.order
        r = k // q
        forms = theorem82_coverage_forms(q, r)
        # block A = r*{0} u 2r*squares, blocks B = r*F_q
        d_a = delta_family(stack_rows(sdf.blocks[:1], k), sdf.group)
        d_b = delta_family(stack_rows(sdf.blocks[1:2], k), sdf.group)
        zero = sdf.group.decode(0)
        nonzero = next(e for e in sdf.group.elements() if e != zero)
        assert d_a[sdf.group.encode(zero)] == forms["alpha0"]
        assert all(
            d_a[sdf.group.encode(e)] == forms["alphax"]
            for e in sdf.group.elements()
            if e != zero
        )
        assert d_b[sdf.group.encode(zero)] == forms["beta0"]
        assert d_b[sdf.group.encode(nonzero)] == forms["betax"]
        assert forms["sigma"] == (k - 1) * r * r
        total = d_a
        for _ in range(r - 1):
            total = total + d_b
        assert all(total[sdf.group.encode(e)] == forms["sigma"] for e in sdf.group.elements())


def test_theorem82_out_of_scope_k():
    for k in (9, 10, 12):
        with pytest.raises(FamilyError):
            theorem82_core_sdf(k)
    # a k past the field cap is refused before it is factored
    for k in (2**22 + 15, (10**25 + 13) * (3 * 10**25 + 67)):
        with pytest.raises(FamilyError, match="no field under the cap"):
            theorem82_core_sdf(k)
    # k = 2^19 * 5: its r x k rows would take 10 TiB
    with pytest.raises(FamilyError, match="524288 blocks of 2621440 points, over the cap"):
        theorem82_core_sdf(2**19 * 5)


def test_theorem82_core_sdf_with_lambda_past_the_field_cap():
    # k = 2^7 * 5: lambda = 639 * 128^2 is past MAX_FIELD_ORDER, but the simple
    # lifting needs only a field of order q' > k, such as F_641
    sdf = theorem82_core_sdf(640)
    assert (sdf.k, sdf.lam, len(sdf.blocks)) == (640, 639 * 128**2, 128)


def test_counter_entries_survive_multiset():
    group = AbelianGroup((15,))
    m = GMultiset(group, [(0,), (1,), (1,)])
    assert m.size == 3


def test_verifiers_call_the_module_count_and_coverage_once(monkeypatch):
    # the benchmark times the count and the coverage by wrapping the names
    # that difam.families looks up, so each verifier must call each of them
    # through the module, once per family
    calls = []
    for name in ("delta_family", "coverage"):
        real = getattr(difam.families, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(difam.families, name, counting)
    sdf = example51()
    assert verify_sdf(sdf.blocks, sdf.group, sdf.k, sdf.lam).is_sdf
    assert sorted(calls) == ["coverage", "delta_family"]
    calls.clear()
    rdf = thm62_z5()
    assert verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam).is_rdf
    assert sorted(calls) == ["coverage", "delta_family"]


def test_verify_rdf_expands_each_block_once(monkeypatch):
    # the count and the additivity check read the stacked code rows: no
    # block is expanded into tuples, and no code is decoded
    rdf, sdf = thm62_z5(), example51()
    calls = []
    for cls, name in ((GMultiset, "expand"), (AbelianGroup, "decode"), (AbelianGroup, "decode_array")):
        real = getattr(cls, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)
    verdict = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam)
    assert verdict.is_rdf and verdict.is_additive and verdict.lam == 1
    assert verify_sdf(sdf.blocks, sdf.group, sdf.k, sdf.lam).is_sdf
    assert calls == []

import pytest

from difam.carrier import ProductCarrier
from difam.catalog import example51, paper_signed_lifting_z5, sigma_prime, thm62_z5
from difam.diffs import GMultiset
from difam.families import FamilyError, verify_rdf
from difam.gf import FiniteField, coset_reps, cyclotomic_class
from difam.groups import AbelianGroup, sum_of
from difam.io import parse_family, render_family
from difam.lifting import (
    Lifting,
    LiftingError,
    MultiplierSet,
    apply_multipliers,
    build_psi,
    check_lifting,
    extend_field,
    greedy_lift,
    signed_lift,
    signed_lifting_from_assignments,
    simple_lift,
    verify_psi,
    verify_signed_lifting,
    zero_sum_adjust,
    zero_sum_lift,
)


# psi seed 59 is one of the few seeds whose assignment admits a lifting of
# the (5,5,4) multiset over GF(13); the search itself is exhaustive, so a
# failure with a workable seed would be a real regression
GREEDY_PSI_SEED = 59


def test_build_psi_invariants():
    sdf = example51()
    for seed in (0, 1, GREEDY_PSI_SEED):
        psi = build_psi(sdf, 4, seed=seed)
        assert verify_psi(psi)
        assert len(psi.table) == 20


def test_build_psi_involution_elements():
    # over Z_2 x Z_2 every element is its own negative, exercising the
    # in-place pairing branch
    group = AbelianGroup((2, 2))
    block = GMultiset(group, [(0, 0), (0, 1), (1, 0), (1, 1)])
    from difam.families import StrongDifferenceFamily

    # every nonzero difference appears 4 times within the single block
    sdf = StrongDifferenceFamily(group, 4, 4, [block])
    psi = build_psi(sdf, 4, seed=3)
    assert verify_psi(psi)


def test_build_psi_rejects_odd_lambda():
    sdf = sigma_prime()
    with pytest.raises(LiftingError):
        build_psi(sdf, 21)
    with pytest.raises(LiftingError):
        build_psi(sdf, 42 + 2)  # mismatched lambda


def test_build_psi_rejects_non_sdf():
    from difam.families import StrongDifferenceFamily

    group = AbelianGroup((5,))
    block = GMultiset(group, [(0,), (1,), (3,)])
    fake = StrongDifferenceFamily(group, 3, 2, [block])
    with pytest.raises(LiftingError):
        build_psi(fake, 2)


def test_greedy_lift_gf13():
    sdf = example51()
    field = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=GREEDY_PSI_SEED)
    lifting = greedy_lift(sdf, field, psi)
    assert check_lifting(lifting, psi)
    blocks = lifting.lifted_blocks()
    assert len(blocks) == 1
    assert blocks[0].size == 5


def test_greedy_lift_congruence_error():
    sdf = example51()
    psi = build_psi(sdf, 4, seed=0)
    with pytest.raises(LiftingError):
        greedy_lift(sdf, FiniteField(11, 1), psi)  # 11 = 3 mod 8


def test_greedy_lift_budget_exhaustion():
    sdf = example51()
    field = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=GREEDY_PSI_SEED)
    with pytest.raises(LiftingError) as info:
        greedy_lift(sdf, field, psi, budget=2)
    assert info.value.nodes > 0


def test_apply_multipliers_gf13():
    sdf = example51()
    field = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=GREEDY_PSI_SEED)
    lifting = greedy_lift(sdf, field, psi)
    mults = MultiplierSet(field, cyclotomic_class(field, 4, 0))
    rdf, verdict = apply_multipliers(lifting, mults)
    assert verdict.ok
    assert verdict.failing_g is None
    assert rdf.lam == 1
    assert rdf.s == 3
    assert verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 1).is_rdf
    # one moved second coordinate breaks the coverage of several g
    lifting.second_coords[0][1] = field.add(lifting.second_coords[0][1], field.one)
    _, damaged = apply_multipliers(lifting, mults)
    assert damaged.ok is False
    assert damaged.failing_g == (1,)


def test_apply_multipliers_size_check():
    sdf = example51()
    field = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=GREEDY_PSI_SEED)
    lifting = greedy_lift(sdf, field, psi)
    with pytest.raises(FamilyError):
        apply_multipliers(lifting, MultiplierSet(field, [field.one]))


def test_multiplier_set_rejects_zero():
    field = FiniteField(13, 1)
    with pytest.raises(FamilyError):
        MultiplierSet(field, [field.zero, field.one])


def test_zero_sum_adjust():
    sdf = example51()
    field = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=GREEDY_PSI_SEED)
    lifting = greedy_lift(sdf, field, psi)
    rdf, _ = apply_multipliers(lifting, MultiplierSet(field, cyclotomic_class(field, 4, 0)))
    adjusted = zero_sum_adjust(rdf, 5)
    assert adjusted.additive
    for b in adjusted.blocks:
        assert sum_of(adjusted.group, b) == adjusted.group.zero
    verdict = verify_rdf(adjusted.blocks, adjusted.group, adjusted.forbidden, 5, 1)
    assert verdict.is_rdf
    assert verdict.is_additive


def test_zero_sum_adjust_rejects_characteristic_divisor():
    rdf = thm62_z5()
    with pytest.raises(LiftingError):
        zero_sum_adjust(rdf, 5)


def test_zero_sum_lift_gf5_5():
    sdf = example51()
    field = FiniteField(5, 5)
    psi = build_psi(sdf, 4, seed=0)
    lifting = zero_sum_lift(sdf, field, psi)
    assert check_lifting(lifting, psi)
    for coords in lifting.second_coords:
        acc = field.zero
        for x in coords:
            acc = field.add(acc, x)
        assert acc == field.zero


def test_zero_sum_lift_preconditions():
    sdf = example51()
    psi = build_psi(sdf, 4, seed=0)
    # rad(q) does not divide k
    with pytest.raises(LiftingError):
        zero_sum_lift(sdf, FiniteField(13, 1), psi)
    # wrong congruence
    with pytest.raises(LiftingError):
        zero_sum_lift(sdf, FiniteField(5, 2), psi)


def test_zero_sum_lift_rejects_k3():
    from difam.families import StrongDifferenceFamily

    group = AbelianGroup((3,))
    block = GMultiset(group, [(0,), (0,), (1,)])
    sdf = StrongDifferenceFamily(group, 3, 2, [block])
    psi = build_psi(sdf, 2, seed=0)
    with pytest.raises(LiftingError):
        zero_sum_lift(sdf, FiniteField(3, 3), psi)


def test_signed_lift_gf25():
    sdf = example51()
    field = FiniteField(5, 2, (2, 1, 1))
    lifting = signed_lift(sdf, field, 2)
    assert lifting.strategy == "signed"
    coords = lifting.second_coords[0]
    assert coords[0] == field.zero
    # the two coordinates over each group element are negatives
    assert coords[2] == field.neg(coords[1])
    assert coords[4] == field.neg(coords[3])


def test_signed_lift_reference_assignment_accepted():
    field, assigns = paper_signed_lifting_z5()
    sdf = example51()
    assert verify_signed_lifting(sdf, field, assigns, 2)
    lifting = signed_lifting_from_assignments(sdf, field, assigns)
    mults = MultiplierSet(field, coset_reps(field, ("pm1-in-index", 2)))
    rdf, verdict = apply_multipliers(lifting, mults)
    assert verdict.ok


def test_signed_lift_shape_error():
    from difam.families import StrongDifferenceFamily

    group = AbelianGroup((4,))
    block = GMultiset(group, [(0,), (1,), (1,), (2,)])
    sdf = StrongDifferenceFamily(group, 4, 4, [block])
    with pytest.raises(LiftingError):
        signed_lift(sdf, FiniteField(5, 2), 2)


def test_signed_lift_parameter_errors():
    sdf = example51()
    with pytest.raises(LiftingError):
        signed_lift(sdf, FiniteField(5, 2), 3)  # lambda mismatch
    with pytest.raises(LiftingError):
        signed_lift(sdf, FiniteField(2, 4), 2)  # even field
    with pytest.raises(LiftingError):
        signed_lift(sdf, FiniteField(7, 1), 2)  # -1 outside C^2 (7 = 3 mod 4)


def test_verify_signed_lifting_rejects_bad_assignment():
    field, assigns = paper_signed_lifting_z5()
    sdf = example51()
    bad = [dict(assigns[0])]
    bad[0][(4,)] = bad[0][(1,)]  # equal coordinates give a zero difference
    assert not verify_signed_lifting(sdf, field, bad, 2)


def test_lifted_blocks_reject_repeats():
    sdf = example51()
    field = FiniteField(13, 1)
    same = [[field.one] * 5]
    lifting = Lifting(sdf, field, same, "greedy")
    with pytest.raises(LiftingError):
        lifting.lifted_blocks()


def test_extend_field_identity_and_growth():
    rdf = thm62_z5()
    assert extend_field(rdf, 1) is rdf
    big = extend_field(rdf, 2)
    assert big.group.field.q == 625
    assert big.s == 6 * 26
    assert big.additive
    verdict = verify_rdf(big.blocks, big.group, big.forbidden, 5, 1)
    assert verdict.is_rdf
    assert verdict.is_additive


def test_extend_field_errors():
    rdf = thm62_z5()
    with pytest.raises(LiftingError):
        extend_field(rdf, 0)
    from difam.gf import FieldError

    with pytest.raises(FieldError):
        extend_field(rdf, 12)  # 5^24 blows past the field cap


def test_simple_lift_unsigned():
    sdf = example51()
    field = FiniteField(7, 1)
    rdf = simple_lift(sdf, field)
    assert rdf.lam == 4
    assert rdf.s == 6
    assert rdf.additive
    verdict = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 4)
    assert verdict.is_rdf


def test_simple_lift_additive_follows_binary_forbidden():
    # an additive SDF over Z_2 lifts to zero-sum blocks, but the forbidden
    # subgroup Z_2 x {0} is binary, so the relative family is not additive
    from difam.families import StrongDifferenceFamily

    group = AbelianGroup((2,))
    sdf = StrongDifferenceFamily(group, 16, 120, [GMultiset(group, [(0,)] * 10 + [(1,)] * 6)])
    assert sdf.additive
    field = FiniteField(17, 1)
    nonzero = [e for e in field.elements() if e != field.zero]
    rdf = simple_lift(sdf, field, L=nonzero)
    verdict = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam)
    assert rdf.additive is False
    assert rdf.additive == verdict.is_additive
    assert parse_family(render_family(rdf)) == rdf


def test_simple_lift_signed_halves_lambda():
    sdf = example51()
    field = FiniteField(7, 1)
    rdf = simple_lift(sdf, field, signed=True)
    assert rdf.lam == 2
    verdict = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 2)
    assert verdict.is_rdf
    assert verdict.is_additive


def test_simple_lift_validates_L():
    sdf = example51()
    field = FiniteField(7, 1)
    # explicit zero-sum 5-set
    L = [(0,), (1,), (2,), (5,), (6,)]
    assert verify_rdf(
        simple_lift(sdf, field, L=L).blocks,
        ProductCarrier(sdf.group, field),
        ProductCarrier(sdf.group, field).forbidden_subgroup(),
        5,
        4,
    ).is_rdf
    with pytest.raises(LiftingError):
        simple_lift(sdf, field, L=[(0,), (1,), (2,), (3,), (4,)])  # sums to 10
    with pytest.raises(LiftingError):
        simple_lift(sdf, field, L=[(0,), (1,), (2,), (3,)])  # wrong size
    with pytest.raises(LiftingError):
        simple_lift(sdf, field, L=[(1,), (2,), (3,), (5,), (6,)], signed=True)  # no zero
    with pytest.raises(LiftingError):
        simple_lift(sdf, field, L=[(0,), (1,), (2,), (4,), (6,)], signed=True)


def test_simple_lift_requires_large_field():
    sdf = sigma_prime()
    with pytest.raises(LiftingError):
        simple_lift(sdf, FiniteField(13, 1))


def test_simple_lift_requires_additive_sdf():
    from difam.families import StrongDifferenceFamily

    group = AbelianGroup((3,))
    block = GMultiset(group, [(0,), (0,), (1,)])
    sdf = StrongDifferenceFamily(group, 3, 2, [block])
    with pytest.raises(LiftingError):
        simple_lift(sdf, FiniteField(7, 1))

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import difam.lifting
from difam.carrier import ProductCarrier
from difam.catalog import example51, paper_signed_lifting_z5, sigma_prime, thm62_z5
from difam.diffs import GMultiset
from difam.families import (
    FamilyError,
    StrongDifferenceFamily,
    paley_sdf,
    theorem82_core_sdf,
    verify_rdf,
)
from difam.gf import FiniteField, coset_reps, cyclotomic_class
from difam.groups import AbelianGroup
from difam.io import parse_family, render_family
from difam.lifting import (
    Lifting,
    LiftingError,
    MultiplierSet,
    PsiAssignment,
    _default_zero_sum_subset,
    _pair_differences,
    _sdf_rows,
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
import lifting_reference
from gf_reference import RefField
from group_reference import ref


# psi seed 59 is one of the few seeds whose assignment admits a lifting of
# the (5,5,4) multiset over GF(13); the search itself is exhaustive, so a
# failure with a workable seed would be a real regression
GREEDY_PSI_SEED = 59


def test_build_psi_invariants():
    sdf = example51()
    for seed in (0, 1, GREEDY_PSI_SEED):
        psi = build_psi(sdf, 4, seed=seed)
        assert verify_psi(psi)
        assert psi.table.shape == (1, 5, 5)
        assert (psi.table >= 0).sum() == 20  # every ordered pair, -1 on the diagonal


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


def _psi_edits():
    """A valid psi of example51 (lambda = 4) and edits of its table that
    verify_psi must refuse, each by one of its checks."""
    psi = build_psi(example51(), 4, seed=0)
    table = psi.table
    edits = {
        "shape": table[:, :, :-1],
        "dtype": table.astype(float),
        "diagonal": table.copy(),
        "class past lambda": table.copy(),
        "negative class": table.copy(),
    }
    edits["diagonal"][0, 2, 2] = 0
    edits["class past lambda"][0, 0, 1] += 4  # and its transpose still lambda/2 on
    edits["negative class"][0, 0, 1] = -1
    return psi, edits


@pytest.mark.parametrize("edit", list(_psi_edits()[1]))
def test_verify_psi_refuses_a_table_of_the_wrong_form(edit):
    psi, edits = _psi_edits()
    assert verify_psi(psi)
    assert not verify_psi(PsiAssignment(psi.sdf, psi.lam, edits[edit]))


def test_verify_psi_refuses_lambda_below_one_and_an_unreadable_family():
    psi = build_psi(example51(), 4, seed=0)
    assert not verify_psi(PsiAssignment(psi.sdf, 0, psi.table))
    sdf = psi.sdf
    short = GMultiset(sdf.group, sdf.blocks[0].expand()[:4])  # 4 points where k = 5
    family = StrongDifferenceFamily(sdf.group, sdf.k, sdf.lam, [short])
    assert not verify_psi(PsiAssignment(family, psi.lam, psi.table))


def test_verify_psi_refuses_classes_that_are_not_antisymmetric():
    # two places (i, j) of one difference g swap their classes: each g still
    # meets every class once, so only psi(j, i) = psi(i, j) + lambda/2 fails
    psi = build_psi(example51(), 4, seed=0)
    diffs = _pair_differences(psi.sdf.group, _sdf_rows(psi.sdf))[0]
    table = psi.table.copy()
    off = [(i, j) for i in range(5) for j in range(5) if i != j]
    a, b = next(
        (a, b) for a in off for b in off
        if a < b and diffs[a] == diffs[b] and table[0][a] != table[0][b] and b != a[::-1]
    )
    table[0][a], table[0][b] = table[0][b], table[0][a]
    places = ~np.eye(5, dtype=bool)
    assert np.bincount(diffs[places] * 4 + table[0][places]).max() == 1  # the count passes
    assert not verify_psi(PsiAssignment(psi.sdf, psi.lam, table))


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
    lifting.second_coords[0, 1] = (lifting.second_coords[0, 1] + 1) % 13
    _, damaged = apply_multipliers(lifting, mults)
    assert damaged.ok is False
    assert damaged.failing_g == (1,)


def test_apply_multipliers_size_check():
    sdf = example51()
    field = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=GREEDY_PSI_SEED)
    lifting = greedy_lift(sdf, field, psi)
    with pytest.raises(FamilyError):
        apply_multipliers(lifting, MultiplierSet(field, [1]))


def test_multiplier_set_rejects_zero():
    field = FiniteField(13, 1)
    with pytest.raises(FamilyError):
        MultiplierSet(field, [0, 1])


def test_zero_sum_adjust():
    sdf = example51()
    field = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=GREEDY_PSI_SEED)
    lifting = greedy_lift(sdf, field, psi)
    rdf, _ = apply_multipliers(lifting, MultiplierSet(field, cyclotomic_class(field, 4, 0)))
    adjusted = zero_sum_adjust(rdf, 5)
    for b in adjusted.blocks:
        assert ref(adjusted.group).sum(b.expand()) == ref(adjusted.group).zero
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
    digits = field.additive_group.decode_array(lifting.second_coords)  # (s, k, n)
    assert not np.any(digits.sum(axis=1) % 5)


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


class _Searched(Exception):
    """Raised in place of the search, once its levels are in hand."""


def test_zero_sum_lift_leaves_out_a_zero_prefix_sum_in_characteristic_three(monkeypatch):
    # In characteristic 3 the options at position k-4 leave out the x that
    # makes x_0 + ... + x_{k-4} zero.  The search reaches that level (on
    # Paley(9) over GF(3^10), psi seeds 0-2), but there x meets
    # all k-4 class constraints only about once in 8^5 nodes, so the
    # exclusion is pinned on a prefix drawn for it, at the node's own options.
    sdf, field, lam = paley_sdf(9), FiniteField(3, 6), 8  # k = 9; 729 = lambda + 1 mod 16
    psi = build_psi(sdf, lam, seed=0)
    levels = {}

    def searched(sdf, field, psi, budget, seed, what, search):
        levels["search"] = search
        raise _Searched

    monkeypatch.setattr(difam.lifting, "_lift_blocks", searched)
    with pytest.raises(_Searched):
        zero_sum_lift(sdf, field, psi)
    expand = levels["search"](0)[1]
    group, i = field.additive_group, sdf.k - 4
    classes = psi.table[0, i, :i]
    # prefixes of i nonzero points whose x = -(sum) meets every constraint
    prefix = np.random.default_rng(0).integers(1, field.q, size=(100_000, i))
    x = group.sub_codes(0, group.sum_codes(prefix))
    diffs = group.sub_codes(x[:, None], prefix)
    meets = ((diffs != 0) & (field.log[diffs] % lam == classes)).all(axis=1)
    row = int(np.flatnonzero(meets)[0])
    chosen = (field.log[prefix[row]] + 1).tolist()  # log codes: code j + 1 is exp[j]
    left_out = int(field.log[x[row]]) + 1
    met = field.class_masks(lam).meet(list(zip(chosen, classes.tolist())))
    assert left_out in met
    assert expand(i - 1, chosen) == [c for c in met if c != left_out]


def test_signed_lift_gf25():
    sdf = example51()
    field = FiniteField(5, 2, (2, 1, 1))
    lifting = signed_lift(sdf, field, 2)
    assert lifting.strategy == "signed"
    coords = field.additive_group.decode_array(lifting.second_coords[0])
    assert not coords[0].any()
    # the two coordinates over each group element are negatives
    assert not np.any((coords[2] + coords[1]) % 5)
    assert not np.any((coords[4] + coords[3]) % 5)


def test_signed_lift_reference_assignment_accepted():
    field, assigns = paper_signed_lifting_z5()
    sdf = example51()
    assert verify_signed_lifting(sdf, field, assigns, 2)
    lifting = signed_lifting_from_assignments(sdf, field, assigns)
    mults = MultiplierSet(field, coset_reps(field, 2))
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
    bad[0][4] = bad[0][1]  # equal coordinates give a zero difference
    assert not verify_signed_lifting(sdf, field, bad, 2)


@pytest.mark.parametrize(
    "coords",
    [[], np.zeros((0, 5), np.int64), [[1, 11]], np.array([[1, 11]]), [[1, 11, 4, 12]],
     [[1, 11, 4, 12, 3], [1, 11, 4, 12, 3]], [[1, 11, 4, 12, 13]], [[1, 11, 4, 12, -1]],
     [[1.0, 11.0, 4.0, 12.0, 3.0]]],
    ids=["no rows", "empty array", "two coords", "two-coord array", "four coords",
         "extra row", "code q", "code -1", "floats"],
)
def test_coordinates_not_one_code_per_point_are_refused(coords):
    # a lifting must give every point of every block one field code: with no
    # rows, or a short first row, the pair check used to pass vacuously and
    # the products to end in numpy's broadcast ValueError
    sdf = example51()
    field = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=GREEDY_PSI_SEED)
    assert check_lifting(Lifting(sdf, field, [[1, 11, 4, 12, 3]], "greedy"), psi)
    lifting = Lifting(sdf, field, coords, "greedy")
    assert not check_lifting(lifting, psi)
    with pytest.raises(LiftingError, match=r"must be an \(1, 5\) array of codes below 13"):
        lifting.lifted_blocks()
    with pytest.raises(LiftingError):
        apply_multipliers(lifting, MultiplierSet(field, cyclotomic_class(field, 4, 0)))


def _ref_check_lifting(ref, coords, table, lam):
    """check_lifting pair by pair on the reference field: every ordered pair
    i != j of row h has its difference in class table[h][i][j]."""
    return all(
        ref.cls(ref.sub(ref.element(row[i]), ref.element(row[j])), lam) == classes[i][j]
        for row, classes in zip(coords, table)
        for i in range(len(row))
        for j in range(len(row))
        if i != j
    )


REF_FIELDS = [(13, 1), (5, 2), (5, 3)]


@settings(database=None, derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_check_lifting_agrees_with_the_per_pair_reference(data):
    sdf = example51()
    field = FiniteField(*data.draw(st.sampled_from(REF_FIELDS), label="field"))
    ref = RefField(field)
    row = data.draw(st.lists(st.integers(0, field.q - 1), min_size=5, max_size=5), label="row")
    kind = data.draw(st.sampled_from(["built psi", "matched", "damaged", "repeat"]), label="kind")
    if kind == "built psi":  # a valid psi, which a random row almost never meets
        table = build_psi(sdf, 4, seed=data.draw(st.integers(0, 200))).table
    else:  # the psi the row meets, read off by the reference; any class at a zero difference
        fill = data.draw(st.integers(0, 3))
        classes = [[-1 if i == j else ref.cls(ref.sub(ref.element(x), ref.element(y)), 4)
                    for j, y in enumerate(row)] for i, x in enumerate(row)]
        table = np.array([[[fill if c is None else c for c in r] for r in classes]])
        i, j = data.draw(st.permutations(range(5)))[:2]
        if kind == "damaged":
            row[i] = data.draw(st.integers(0, field.q - 1).filter(lambda x: x != row[i]))
        elif kind == "repeat":
            row[i] = row[j]
    psi = PsiAssignment(sdf, 4, table)
    want = _ref_check_lifting(ref, [row], table.tolist(), 4)
    assert check_lifting(Lifting(sdf, field, np.array([row]), "greedy"), psi) == want
    if kind == "repeat":
        assert not want


def test_lifted_blocks_reject_repeats():
    sdf = example51()
    field = FiniteField(13, 1)
    lifting = Lifting(sdf, field, np.ones((1, 5), np.int64), "greedy")
    with pytest.raises(LiftingError):
        lifting.lifted_blocks()


def test_extend_field_identity_and_growth():
    rdf = thm62_z5()
    assert extend_field(rdf, 1) is rdf
    big = extend_field(rdf, 2)
    assert big.group.field.q == 625
    assert big.s == 6 * 26
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
    verdict = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 4)
    assert verdict.is_rdf
    assert verdict.is_additive


def test_simple_lift_additive_follows_binary_forbidden():
    # an additive SDF over Z_2 lifts to zero-sum blocks, but the forbidden
    # subgroup Z_2 x {0} is binary, so the relative family is not additive
    from difam.families import StrongDifferenceFamily

    group = AbelianGroup((2,))
    sdf = StrongDifferenceFamily(group, 16, 120, [GMultiset(group, [(0,)] * 10 + [(1,)] * 6)])
    assert sdf.additive
    field = FiniteField(17, 1)
    rdf = simple_lift(sdf, field)  # L: the 16 nonzero elements, the first zero-sum 16-set
    verdict = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam)
    assert verdict.is_additive is False
    assert parse_family(render_family(rdf)) == rdf


def test_simple_lift_signed_halves_lambda():
    sdf = example51()
    field = FiniteField(7, 1)
    rdf = simple_lift(sdf, field, signed=True)
    assert rdf.lam == 2
    verdict = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 2)
    assert verdict.is_rdf
    assert verdict.is_additive


def test_simple_lift_pairs_every_block_with_the_first_zero_sum_set():
    sdf = example51()
    field = FiniteField(7, 1)
    # {0, 1, 2, 5, 6}: the complement of {3, 4}, the last zero-sum 2-set
    L = [(0,), (1,), (2,), (5,), (6,)]
    assert _default_zero_sum_subset(field, 5).tolist() == [0, 1, 2, 5, 6]
    rdf = simple_lift(sdf, field)
    carrier = ProductCarrier(sdf.group, field)
    assert verify_rdf(rdf.blocks, carrier, carrier.forbidden_subgroup(), 5, 4).is_rdf
    first = [GMultiset(carrier, [g + x for g, x in zip(b.expand(), L)]) for b in sdf.blocks]
    assert rdf.blocks[:: field.q - 1] == first  # each block times r^0 = 1, then r^1, ...


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



def test_simple_lift_default_subset_gf8():
    # in characteristic 2 every 6-subset that contains 0 completes to one of
    # its own points, so a walk that keeps the least element never ends;
    # GF(8)* is itself a zero-sum 7-subset
    sdf = paley_sdf(7)
    rdf = simple_lift(sdf, FiniteField(2, 3))
    assert (rdf.group.order, rdf.k, rdf.lam, rdf.s) == (56, 7, 6, 7)
    assert verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 7, 6).is_rdf


def test_simple_lift_without_zero_sum_subset():
    # in characteristic 2, x + y = 0 forces x = y: GF(4) has no zero-sum 2-subset
    from difam.families import StrongDifferenceFamily

    group = AbelianGroup((1,))
    sdf = StrongDifferenceFamily(group, 2, 2, [GMultiset(group, [(0,), (0,)])])
    with pytest.raises(LiftingError, match="no zero-sum 2-subset"):
        simple_lift(sdf, FiniteField(2, 2))


def test_simple_lift_signed_rejects_characteristic_two():
    with pytest.raises(LiftingError, match="odd-order field"):
        simple_lift(paley_sdf(7), FiniteField(2, 3), signed=True)

# -- pinned search outputs ---------------------------------------------------
# Each search is deterministic given its seeds, so these pins fix the node
# counts and the rng consumption as well as the results: a refactor of the
# searches must reproduce them exactly.


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _elements(field, codes):
    """Field codes as nested lists of coefficients, as the pins hash them."""
    return field.additive_group.decode_array(codes).tolist()


@pytest.mark.parametrize(
    "q,psi_seed,failed_nodes,coords",
    [
        (13, 59, 5584, [[1, 11, 4, 12, 3]]),
        (29, 61, 46693, [[4, 26, 2, 19, 9]]),
        (53, 6, 27195, [[49, 10, 51, 6, 5]]),
        (101, 2, 53229, [[77, 17, 32, 12, 35]]),
    ],
)
def test_greedy_first_psi_seed_pinned(q, psi_seed, failed_nodes, coords):
    sdf = example51()
    field = FiniteField(q, 1)
    failed = 0
    for seed in range(psi_seed):
        with pytest.raises(LiftingError) as info:
            greedy_lift(sdf, field, build_psi(sdf, 4, seed=seed), budget=10**5)
        failed += info.value.nodes
    assert failed == failed_nodes
    lifting = greedy_lift(sdf, field, build_psi(sdf, 4, seed=psi_seed), budget=10**5)
    assert lifting.second_coords.tolist() == coords  # over a prime field a code is its residue


@pytest.mark.parametrize("budget,q,nodes,deepest", [(2, 13, 3, 2), (50, 13, 51, 3), (1000, 29, 436, 3)])
def test_greedy_failure_counters_pinned(budget, q, nodes, deepest):
    sdf = example51()
    with pytest.raises(LiftingError) as info:
        greedy_lift(sdf, FiniteField(q, 1), build_psi(sdf, 4, seed=0), budget=budget)
    assert (info.value.nodes, info.value.deepest) == (nodes, deepest)


def test_greedy_success_counters_pinned():
    sdf = example51()
    lifting = greedy_lift(sdf, FiniteField(13, 1), build_psi(sdf, 4, seed=GREEDY_PSI_SEED))
    assert (lifting.nodes, lifting.deepest) == (5, 4)  # one node per level, no backtracking


def _twice_example51():
    """A two-block SDF: example51's block taken twice, lambda = 8."""
    one = example51()
    return StrongDifferenceFamily(one.group, one.k, 2 * one.lam, one.blocks * 2)


_ORACLE_CASES = (
    [(example51, FiniteField(q, 1)) for q in (13, 29, 37, 53, 61, 101, 109, 157, 173)]
    + [(example51, FiniteField(5, 3))]
    + [(_twice_example51, FiniteField(q, 1)) for q in (41, 73, 89)]
)


@settings(database=None, derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    case=st.sampled_from(_ORACLE_CASES),
    psi_seed=st.integers(0, 2**16),
    budget=st.one_of(st.integers(1, 60), st.integers(61, 3000), st.just(10**5)),
    seed=st.integers(0, 2**32),
)
def test_greedy_lift_matches_the_reference_driver(case, psi_seed, budget, seed):
    # the parent-listed options and carried-down masks change what a node
    # costs, not which nodes there are: coordinates, counts, depth and the
    # failure message all match the one-call-per-node reference
    make_sdf, field = case
    sdf = make_sdf()
    psi = build_psi(sdf, sdf.lam, seed=psi_seed)
    try:
        coords, nodes, deepest = lifting_reference.greedy_lift(sdf, field, psi, budget, seed)
    except LiftingError as expected:
        with pytest.raises(LiftingError) as info:
            greedy_lift(sdf, field, psi, budget=budget, seed=seed)
        got, want = info.value, expected
        assert (got.nodes, got.deepest, str(got)) == (want.nodes, want.deepest, str(want))
        return
    lifting = greedy_lift(sdf, field, psi, budget=budget, seed=seed)
    assert lifting.second_coords.tolist() == coords.tolist()
    assert (lifting.nodes, lifting.deepest) == (nodes, deepest)


# example51 over GF(29), psi seed 2, search seed 0 refuses its block with
# F = 1,248 nodes.  The walk ticks nodes 1..8: the root, the node below its
# first option and the subtree below that node's first option.  Then the
# subtrees of level 1's other 6 options are counted, 8 -> 44, and then
# those of level 0's other 28 options, 44 -> 1,248.
_SIBLINGS_F = 1248


@pytest.mark.parametrize(
    "budget",
    [1, 3, 7,  # inside the first walked subtree
     8, 20, 43,  # inside the counted subtrees of level 1's options
     44, 600, 1246,  # inside the counted subtrees of level 0's options
     _SIBLINGS_F - 1, _SIBLINGS_F, _SIBLINGS_F + 1],
)
def test_greedy_sibling_counts_match_the_walk_at_every_budget(budget):
    sdf = example51()
    field, psi = FiniteField(29, 1), build_psi(sdf, 4, seed=2)
    with pytest.raises(LiftingError) as expected:
        lifting_reference.greedy_lift(sdf, field, psi, budget, 0)
    with pytest.raises(LiftingError) as info:
        greedy_lift(sdf, field, psi, budget=budget)
    got, want = info.value, expected.value
    assert (got.nodes, got.deepest, str(got)) == (want.nodes, want.deepest, str(want))
    if budget < _SIBLINGS_F:
        assert str(got).startswith(f"search budget exhausted after {budget + 1} nodes ")
    else:
        assert str(got) == "no greedy lifting for block 0 found (1248 nodes, deepest level 4)"


@pytest.mark.parametrize(
    "q,nodes", [(127, 255), (379, 1517), (2143, 38575), (4159, 141407), (6679, 300001)]
)
def test_theorem82_k15_refusals_pinned(q, nodes):
    # block 0 of the k = 15 core SDF has no greedy lifting over these fields;
    # walking the refused trees takes seconds, counting the isomorphic
    # subtrees milliseconds
    sdf = theorem82_core_sdf(15)
    with pytest.raises(LiftingError) as info:
        greedy_lift(sdf, FiniteField(q, 1), build_psi(sdf, sdf.lam, seed=0), budget=300_000)
    assert (info.value.nodes, info.value.deepest) == (nodes, 2)
    if nodes > 300_000:
        want = "search budget exhausted after 300001 nodes (deepest level 2)"
    else:
        want = f"no greedy lifting for block 0 found ({nodes} nodes, deepest level 2)"
    assert str(info.value) == want


def test_zero_sum_refusal_pinned():
    # the zero-sum search walks every node: a translate changes a block's sum,
    # so the greedy sibling rule does not hold for it
    sdf = example51()
    with pytest.raises(LiftingError) as info:
        zero_sum_lift(sdf, FiniteField(5, 3), build_psi(sdf, 4, seed=2), budget=10**5)
    assert (info.value.nodes, info.value.deepest) == (26879, 3)
    assert str(info.value) == "no zero-sum lifting for block 0 found (26879 nodes, deepest level 3)"


def test_signed_success_counters_pinned():
    lifting = signed_lift(example51(), FiniteField(5, 2, (2, 1, 1)), 2)
    assert (lifting.nodes, lifting.deepest) == (2, 1)


def test_lifting_counters_default_to_zero():
    sdf = example51()
    field = FiniteField(13, 1)
    lifting = Lifting(sdf, field, np.zeros((1, 5), np.int64), "greedy")
    assert (lifting.nodes, lifting.deepest) == (0, 0)


def test_zero_sum_lift_pinned():
    sdf = example51()
    field = FiniteField(5, 5)
    coords = {}
    for psi_seed in range(4):
        psi = build_psi(sdf, 4, seed=psi_seed)
        for seed in range(3):
            lifting = zero_sum_lift(sdf, field, psi, seed=seed)
            coords[f"{psi_seed},{seed}"] = _elements(field, lifting.second_coords)
    assert _digest(coords) == "07cd8eda6932c00bb494916ff44ef813715d5d26897eea0b016cad51dfa537d7"


def test_signed_lift_pinned():
    sdf = example51()
    field = FiniteField(5, 2, (2, 1, 1))
    coords = [_elements(field, signed_lift(sdf, field, 2, seed=seed).second_coords)
              for seed in range(6)]
    assert _digest(coords) == "38e28b715c08276823f9be24fa728938a1ab3e7bad7c0f8fad5853f92242e7a8"


# example51 needs -1 in C^2, so 4 | q - 1; example51 twice needs 8 | q - 1
_SIGNED_CASES = (
    [(example51, (q, 1)) for q in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101)]
    + [(example51, pn) for pn in ((5, 2), (5, 3), (3, 4))]
    + [(_twice_example51, (q, 1)) for q in (41, 73, 89)]
)


def _same_signed_search(sdf, field, half_lambda, budget, seed):
    """signed_lift and the reference search agree: coordinates, node count
    and depth on success, node count, depth and message on failure."""
    try:
        want = lifting_reference.signed_lift(sdf, field, half_lambda, budget, seed)
    except LiftingError as expected:
        with pytest.raises(LiftingError) as info:
            signed_lift(sdf, field, half_lambda, budget=budget, seed=seed)
        got = info.value
        assert (got.nodes, got.deepest, str(got)) == (
            expected.nodes, expected.deepest, str(expected))
        return
    got = signed_lift(sdf, field, half_lambda, budget=budget, seed=seed)
    assert got.second_coords.tolist() == want.second_coords.tolist()
    assert (got.nodes, got.deepest) == (want.nodes, want.deepest)


@settings(database=None, derandomize=True, deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    case=st.sampled_from(_SIGNED_CASES),
    seed=st.integers(0, 7),
    budget=st.one_of(st.integers(1, 60), st.integers(61, 3000), st.just(10**5)),
)
def test_signed_lift_matches_the_reference_search(case, seed, budget):
    # the used-key table and the fit windows refuse exactly the candidates
    # the per-candidate Counter walk refuses, so the rng draws, the nodes
    # and the result are the same
    make_sdf, (p, n) = case
    sdf = make_sdf()
    _same_signed_search(sdf, FiniteField(p, n), sdf.lam // 2, budget, seed)


@pytest.mark.parametrize("q", [43, 127])
@pytest.mark.parametrize("seed", range(3))
def test_signed_lift_matches_the_reference_search_on_sigma_prime(q, seed):
    # 21 levels over three blocks, deep enough to backtrack and undo
    _same_signed_search(sigma_prime(), FiniteField(q, 1), 21, 300, seed)


@pytest.mark.parametrize("seed,deepest", [(0, 17), (1, 13), (2, 13)])
def test_signed_lift_sigma_prime_over_gf5_6_pinned(seed, deepest):
    # the paper's k = 15 route: sigma' over GF(5^6) would give a 2-(234375,15,1) design
    with pytest.raises(LiftingError) as info:
        signed_lift(sigma_prime(), FiniteField(5, 6), 21, budget=30, seed=seed)
    assert (info.value.nodes, info.value.deepest) == (31, deepest)


def test_signed_lift_over_a_million_point_field_in_bounded_memory():
    # each level lists all (q-1)/2 = 500,115 candidates; the fit bytes and
    # the key windows stay small beside those lists
    code = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from difam.catalog import sigma_prime\n"
        "from difam.gf import FiniteField\n"
        "from difam.lifting import LiftingError, signed_lift\n"
        "try:\n"
        "    signed_lift(sigma_prime(), FiniteField(1000231, 1), 21, budget=5)\n"
        "except LiftingError as exc:\n"
        "    print(exc.nodes, exc.deepest)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["6", "5"]


@pytest.mark.parametrize(
    "q,signed,n_blocks,digest",
    [
        (7, False, 6, "d64ee8861b1978472ac42b1411f6d8174f31bcff18edac65b633a5274dcf3aff"),
        (7, True, 3, "bff092c0c1abd5f071caa07e7dc9966caf35e316809c1c3f79d7960dc52d51f7"),
        (11, False, 10, "339f61b3c136645a18ddb6fbb9eb1cbf8f558642c6afe5bd87cb83346c45f828"),
        (11, True, 5, "a0d055e79fda1ad7fe629b1f89f2b2389c40a60d5538e4f8bda6ec89271dd0dc"),
    ],
)
def test_simple_lift_blocks_pinned(q, signed, n_blocks, digest):
    rdf = simple_lift(example51(), FiniteField(q, 1), signed=signed)
    blocks = [b.expand() for b in rdf.blocks]
    assert len(blocks) == n_blocks
    assert _digest(blocks) == digest


def _zero_sum_subset_by_heads(field, k):
    """The walk over (k-1)-heads that _default_zero_sum_subset shortens."""
    group = ref(field.additive_group)
    for head in itertools.combinations(sorted(field.additive_group.elements()), k - 1):
        last = group.neg(group.sum(head))
        if last not in head:
            return list(head) + [last]
    return None


@pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2),
                                 (11, 1), (13, 1), (2, 4)])
def test_default_zero_sum_subset_matches_the_head_walk(p, n):
    field = FiniteField(p, n)
    for k in range(1, field.q + 1):
        expected = _zero_sum_subset_by_heads(field, k)
        if expected is None:
            with pytest.raises(LiftingError):
                _default_zero_sum_subset(field, k)
        else:
            got = _default_zero_sum_subset(field, k).tolist()
            assert [field.additive_group.decode(c) for c in got] == expected, k


def test_default_zero_sum_subset_large_k():
    # k = q-1 walked about C(q-1, 2) heads: 7 s over GF(128)
    field = FiniteField(2, 7)
    assert _default_zero_sum_subset(field, 127).tolist() == list(range(1, 128))


def test_greedy_lift_never_backtracks_above_the_paper_bound():
    # the greedy search cannot get stuck once q > t^2 lambda^(2t): for
    # example51 (k=5, lambda=4, t=4) that is q > 1,048,576, and 1,048,589 is
    # the least prime = 5 (mod 8) above it, so every level has a candidate
    # and each psi seed takes one node per point
    code = (
        "from difam.catalog import example51\n"
        "from difam.gf import FiniteField\n"
        "from difam.lifting import build_psi, greedy_lift\n"
        "sdf = example51()\n"
        "field = FiniteField(1048589, 1)\n"
        "for seed in range(3):\n"
        "    print(greedy_lift(sdf, field, build_psi(sdf, 4, seed=seed)).nodes)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=30, check=True).stdout
    assert out.split() == ["5", "5", "5"]

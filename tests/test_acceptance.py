"""Acceptance gate: fourteen end-to-end criteria, one printed verdict line
per criterion.

Each test exercises a full pipeline (construct, verify, develop, witness)
against exact expected values and a wall-clock budget, and writes a
"criterion NN (name): PASS|FAIL" line that survives pytest's capture.
"""

import random
import time

import numpy as np
import pytest

from difam.catalog import (
    example51,
    paper_signed_lifting_z5,
    section4_table,
    sigma_prime,
    thm62_z5,
    thm62_z7,
)
from difam.designs import anomaly_witness, develop, verify_design, verify_super_regular
from difam.families import (
    jungnickel_compose,
    theorem82_core_sdf,
    theorem82_coverage_forms,
    verify_dm,
    verify_rdf,
    verify_sdf,
    zero_sum_dm,
)
from difam.gf import FiniteField, cyclotomic_class
from difam.groups import AbelianGroup
from difam.lifting import (
    MultiplierSet,
    apply_multipliers,
    build_psi,
    check_lifting,
    extend_field,
    greedy_lift,
    signed_lifting_from_assignments,
    simple_lift,
    verify_signed_lifting,
)
from difam.params import (
    strict_additive_necessary,
    super_regular_necessary,
    theorem41_42,
    trivial_additive,
)
from sympy import n_order

from difam.diffs import delta_family, stack_rows


@pytest.fixture
def report(capsys):
    """Emit one verdict line per criterion, bypassing output capture."""

    def _report(num: int, name: str, ok: bool, elapsed: float, budget: float):
        line = (
            f"criterion {num:02d} ({name}): "
            f"{'PASS' if ok and elapsed < budget else 'FAIL'}"
            f"  [{elapsed:.3f}s / {budget:g}s]"
        )
        with capsys.disabled():
            print(line)
        assert ok
        assert elapsed < budget

    return _report


def _best_of(reps, fn):
    best = float("inf")
    out = None
    for _ in range(reps):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def test_criterion_01_example_multiset(report):
    sdf = example51()
    verdict, elapsed = _best_of(3, lambda: verify_sdf(sdf.blocks, sdf.group, 5, 4))
    ok = verdict.is_sdf and verdict.is_additive and verdict.lam == 4
    report(1, "(5,5,4) multiset verifies additive", ok, elapsed, 0.001)


def test_criterion_02_z5_pipeline(report):
    t0 = time.perf_counter()
    rdf = thm62_z5()
    fam = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 1)
    design = develop(rdf)
    verdict = verify_design(design)
    sr = verify_super_regular(design, design.carrier)
    witness = anomaly_witness(design, 5)
    elapsed = time.perf_counter() - t0
    ok = (
        fam.is_rdf
        and fam.is_additive
        and design.b == 775
        and verdict.is_design
        and verdict.lambda_found == 1
        and verdict.is_simple
        and sr.is_super_regular
        and witness.anomalous
        and witness.closure_size > 25
    )
    report(2, "125-point pipeline with anomaly witness", ok, elapsed, 5.0)


def test_criterion_03_z7_pipeline(report):
    t0 = time.perf_counter()
    rdf = thm62_z7()
    fam = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 7, 1)
    design = develop(rdf)
    verdict = verify_design(design)
    sr = verify_super_regular(design, design.carrier)
    witness = anomaly_witness(design, 7)
    elapsed = time.perf_counter() - t0
    ok = (
        fam.is_rdf
        and fam.is_additive
        and design.v == 343
        and verdict.is_design
        and verdict.lambda_found == 1
        and sr.is_super_regular
        and witness.anomalous
        and witness.closure_size > 49
    )
    report(3, "343-point pipeline with anomaly witness", ok, elapsed, 30.0)


def test_criterion_04_sigma_prime(report):
    sdf = sigma_prime()

    def check():
        verdict = verify_sdf(sdf.blocks, sdf.group, 15, 42)
        total = delta_family(stack_rows(sdf.blocks, 15), sdf.group).sum()
        return verdict, total

    (verdict, total), elapsed = _best_of(3, check)
    ok = verdict.is_sdf and verdict.is_additive and total == 630
    report(4, "(15,15,42) three-block multiset", ok, elapsed, 0.010)


def test_criterion_05_field_extension(report):
    t0 = time.perf_counter()
    big = extend_field(thm62_z5(), 2)
    fam = verify_rdf(big.blocks, big.group, big.forbidden, 5, 1)
    design = develop(big)
    verdict = verify_design(design)
    sr = verify_super_regular(design, design.carrier)
    elapsed = time.perf_counter() - t0
    ok = (
        big.s == 156
        and fam.is_rdf
        and fam.is_additive
        and design.v == 3125
        and verdict.is_design
        and verdict.lambda_found == 1
        and sr.is_super_regular
    )
    report(5, "degree-2 extension to 3125 points", ok, elapsed, 300.0)


def test_criterion_06_cyclotomy_free_lifting(report):
    t0 = time.perf_counter()
    sdf = sigma_prime()
    field = FiniteField(5, 2, (2, 1, 1))
    rdf = simple_lift(sdf, field, signed=True)
    fam = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 15, 21)
    design = develop(rdf)
    verdict = verify_design(design)
    sr = verify_super_regular(design, design.carrier)
    rows, counts = np.unique(design.blocks, axis=0, return_counts=True)
    repeated_21 = int(np.sum(counts == 21))
    unsigned = simple_lift(sdf, field)
    elapsed = time.perf_counter() - t0
    ok = (
        fam.is_rdf
        and fam.is_additive
        and design.v == 375
        and verdict.is_design
        and verdict.lambda_found == 21
        and not verdict.is_simple
        and repeated_21 == 375 // 15  # exactly the forbidden-subgroup cosets
        and sr.is_super_regular
        and unsigned.lam == 42
    )
    report(6, "(375,15,21) non-simple super-regular design", ok, elapsed, 120.0)


def test_criterion_07_core_multiset_closed_forms(report):
    t0 = time.perf_counter()
    ok = True
    for k, q, r in ((15, 5, 3), (45, 9, 5)):
        sdf = theorem82_core_sdf(k)
        forms = theorem82_coverage_forms(q, r)
        cov = verify_sdf(sdf.blocks, sdf.group, k, forms["sigma"])
        ok = ok and cov.is_sdf and cov.is_additive

        zero = sdf.group.decode(0)
        d_a = delta_family(stack_rows(sdf.blocks[:1], k), sdf.group)
        d_b = delta_family(stack_rows(sdf.blocks[1:2], k), sdf.group)
        nonzero = [e for e in sdf.group.elements() if e != zero]
        ok = ok and d_a[sdf.group.encode(zero)] == forms["alpha0"]
        ok = ok and all(d_a[sdf.group.encode(e)] == forms["alphax"] for e in nonzero)
        ok = ok and d_b[sdf.group.encode(zero)] == forms["beta0"]
        ok = ok and all(d_b[sdf.group.encode(e)] == forms["betax"] for e in nonzero)
        ok = ok and forms["sigma"] == (k - 1) * r * r
    elapsed = time.perf_counter() - t0
    report(7, "closed-form coverage of the core multisets", ok, elapsed, 1.0)


def test_criterion_08_product_composition(report):
    t0 = time.perf_counter()
    out = jungnickel_compose(example51(), zero_sum_dm(AbelianGroup((3,)), 5))
    verdict = verify_sdf(out.blocks, out.group, 5, 108)
    elapsed = time.perf_counter() - t0
    ok = (
        out.group == AbelianGroup((5, 3))
        and out.lam == 108
        and verdict.is_sdf
        and verdict.is_additive
    )
    report(8, "(15,5,108) product composition", ok, elapsed, 1.0)


def test_criterion_09_difference_matrices(report):
    t0 = time.perf_counter()
    h = AbelianGroup((3,))
    dm3 = zero_sum_dm(h, 3)
    dm5 = zero_sum_dm(h, 5)
    ok = dm3.mu == 3 and dm5.mu == 27
    ok = ok and verify_dm(dm3.columns, h, 3, 3).is_dm
    ok = ok and verify_dm(dm5.columns, h, 5, 27).is_dm
    cols = dm3.columns.copy()
    cols[0, 0] = (cols[0, 0] + 1) % 3
    ok = ok and not verify_dm(cols, h, 3, 3).is_dm
    elapsed = time.perf_counter() - t0
    report(9, "zero-sum difference matrices", ok, elapsed, 1.0)


def test_criterion_10_lifting_searches(report):
    t0 = time.perf_counter()
    sdf = example51()
    # (a) the reference plus/minus lifting over GF(25)
    field25, assigns = paper_signed_lifting_z5()
    ok = verify_signed_lifting(sdf, field25, assigns, 2)
    # (b) a cyclotomic lifting over GF(13); psi seed 59 is one of the few
    # assignments that admit a lifting at this field size
    field13 = FiniteField(13, 1)
    psi = build_psi(sdf, 4, seed=59)
    lifting = greedy_lift(sdf, field13, psi)
    ok = ok and check_lifting(lifting, psi)
    # (c) multiplier expansion re-verifies as a lambda=1 relative family
    mults = MultiplierSet(field13, cyclotomic_class(field13, 4, 0))
    rdf, verdict = apply_multipliers(lifting, mults)
    ok = ok and verdict.ok
    ok = ok and verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, 5, 1).is_rdf
    # the reference assignment expanded by the even-power multipliers
    # reproduces the six catalog base blocks exactly
    signed = signed_lifting_from_assignments(sdf, field25, assigns)
    mults25 = MultiplierSet(field25, field25.exp[:12:2])
    rdf25, verdict25 = apply_multipliers(signed, mults25)
    ok = ok and verdict25.ok and set(rdf25.blocks) == set(thm62_z5().blocks)
    elapsed = time.perf_counter() - t0
    report(10, "lifting searches and multiplier expansion", ok, elapsed, 30.0)


def test_criterion_11_admissibility_suite(report):
    t0 = time.perf_counter()
    ok = True
    # checkers agree with every constructed lambda=1 fixture
    for v, k in ((125, 5), (343, 7), (3125, 5), (625, 5), (2401, 7)):
        ok = ok and super_regular_necessary(v, k).all_pass
        ok = ok and strict_additive_necessary(v, k).all_pass
        ok = ok and trivial_additive(k)
    ok = ok and super_regular_necessary(234375, 15).all_pass
    rows = section4_table()
    for idx in (0, 1, 4, 5):
        v, k = rows[idx]
        verdict = theorem41_42(v, k)
        residue = verdict.conditions[1].certificate["v/k mod 3"]
        ok = ok and residue == 2 and any("nonexistent" in n for n in verdict.notes)
    for idx in (2, 3):
        # the stated block sizes are not = +-3 (mod 9), so the mod-3 rule
        # cannot apply; the recomputed residue is 1, not 2
        v, k = rows[idx]
        verdict = theorem41_42(v, k)
        residue = verdict.conditions[1].certificate["v/k mod 3"]
        ok = ok and residue == 1 and not verdict.notes
    elapsed = time.perf_counter() - t0
    report(11, "admissibility and nonexistence checkers", ok, elapsed, 1.0)


def test_criterion_12_order_of_two(report):
    t0 = time.perf_counter()
    ok = all(n_order(2, 2**n * 3 - 1) > n * n - n for n in range(1, 41))
    elapsed = time.perf_counter() - t0
    report(12, "order of 2 beats n^2-n through n=40", ok, elapsed, 30.0)


def test_criterion_13_constraint_set_sizes(report):
    from test_gf import _scan_x_set, _x_set  # the searches' ClassMasks.meet, and a field scan

    t0 = time.perf_counter()
    rng = random.Random(13)
    ok = True
    for t, lam in ((1, 2), (2, 2)):
        for q in (25, 81):
            if q <= t * t * lam ** (2 * t):
                continue  # hypothesis q > t^2 lam^{2t} not met
            p = 5 if q == 25 else 3
            field = FiniteField(p, 2 if q == 25 else 4)
            elems = list(range(field.q))  # codes, in element order
            for _ in range(1000):
                points = rng.sample(elems, t)
                cons = [(c, rng.randrange(lam)) for c in points]
                got = _x_set(field, cons, lam)
                if not len(got) > 2 * lam ** (t - 1) or got != _scan_x_set(field, cons, lam):
                    ok = False
    elapsed = time.perf_counter() - t0
    report(13, "constraint sets beat the size bound", ok, elapsed, 30.0)


def test_criterion_14_property_suites(report):
    """Scaled-down slice of every standalone property suite; the full
    ranges (q <= 2000, |G| <= 512, all four affine spaces) run in
    test_properties.py in the same session."""
    import test_properties as props

    t0 = time.perf_counter()
    props.test_delta_translation_invariance_randomized()
    props.test_delta_involution_parity_randomized()
    for q in (13, 25, 27):
        from sympy import factorint

        (p, n), = factorint(q).items()
        field = FiniteField(p, n)
        for d in range(2, q):
            if (q - 1) % d:
                continue
            powers = field.additive_group.decode_array(field.exp[:: (q - 1) // d])
            assert not np.any(powers.sum(axis=0) % p)
    for order in range(2, 65):
        for group in props._abelian_groups_of_order(order):
            from difam.groups import is_binary, is_zero_sum_group

            assert is_zero_sum_group(group) == (not is_binary(group))
    props.test_ag_closures_are_planes(2, 3)
    props.test_develop_verify_equivalence_on_fixtures()
    elapsed = time.perf_counter() - t0
    report(14, "property suites (standalone slice)", True, elapsed, 60.0)

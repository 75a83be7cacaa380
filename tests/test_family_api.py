"""The family calls the benchmark workloads make, on small inputs.

The benchmark builds a block from tuples, reads it back with `expand`,
shuffles a family's block list in place, swaps one block for a damaged copy
and builds a multiplier set from a cyclotomic class.  Each of those calls
must keep working, with the verdicts the benchmark pins.
"""

import random

import pytest

from difam.catalog import example51, thm62_z5
from difam.designs import DesignError, develop
from difam.diffs import GMultiset
from difam.families import verify_rdf
from difam.gf import FiniteField, cyclotomic_class
from difam.groups import AbelianGroup
from difam.lifting import MultiplierSet, apply_multipliers, build_psi, greedy_lift


def _verifies(rdf):
    return verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam).is_rdf


def test_a_block_is_built_from_tuples_and_expands_to_sorted_tuples():
    group = AbelianGroup((3, 4))
    block = GMultiset(group, [(2, 1), (0, 3), (2, 1), (0, 0)])
    assert block.expand() == [(0, 0), (0, 3), (2, 1), (2, 1)]
    assert block.size == 4 and not block.is_set()


def test_a_shuffled_family_still_verifies_and_a_moved_point_fails():
    rdf = thm62_z5()
    random.Random(0).shuffle(rdf.blocks)
    assert rdf.s == 6 and _verifies(rdf)
    assert develop(rdf).b == 6 * 125 + 25
    pts = rdf.blocks[0].expand()
    assert pts == sorted(pts)
    outside = next(e for e in rdf.group.elements() if e not in pts)
    rdf.blocks[0] = GMultiset(rdf.group, pts[:-1] + [outside])
    assert not _verifies(rdf)
    with pytest.raises(DesignError):
        develop(rdf)


def test_a_multiplier_set_from_a_cyclotomic_class_expands_a_lifting():
    sdf, field = example51(), FiniteField(13, 1)
    lifting = greedy_lift(sdf, field, build_psi(sdf, sdf.lam, seed=59))
    rdf, verdict = apply_multipliers(lifting, MultiplierSet(field, cyclotomic_class(field, sdf.lam, 0)))
    assert verdict.ok and rdf.s == 3 and _verifies(rdf)

"""Property suites over randomized and exhaustive input ranges.

Each suite is independent of the fixtures: group laws for difference
lists, the zero-sum facts for multiplicative subgroups and for abelian
groups at large, plane closures in affine spaces, and the agreement of
development with direct verification.
"""

import itertools
import random

import pytest
from sympy import factorint
from sympy.utilities.iterables import partitions

from difam.catalog import FIXTURES
from difam.designs import ag_design, closure, develop, verify_design, _pair_block_table
from difam.diffs import GMultiset, delta_block
from difam.families import RelativeDifferenceFamily, StrongDifferenceFamily
from difam.gf import FiniteField
from difam.groups import AbelianGroup, is_binary, is_zero_sum_group


def _random_groups(rng, count):
    shapes = [(5,), (8,), (2, 6), (3, 3, 3), (4, 9), (2, 2, 5), (15,)]
    return [AbelianGroup(rng.choice(shapes)) for _ in range(count)]


def test_delta_translation_invariance_randomized():
    rng = random.Random(2024)
    for group in _random_groups(rng, 12):
        elems = list(group.elements())
        block = GMultiset(group, [rng.choice(elems) for _ in range(rng.randint(3, 7))])
        for _ in range(4):
            g = rng.choice(elems)
            assert delta_block(block.translate(g)) == delta_block(block)


def test_delta_involution_parity_randomized():
    """Differences come in +-pairs, so self-negative elements always carry
    even multiplicity, and every element matches its negative."""
    rng = random.Random(99)
    for group in _random_groups(rng, 12):
        elems = list(group.elements())
        block = GMultiset(group, [rng.choice(elems) for _ in range(rng.randint(3, 7))])
        d = delta_block(block)
        for e in elems:
            assert d.multiplicity(e) == d.multiplicity(group.neg(e))
            if group.neg(e) == e:
                assert d.multiplicity(e) % 2 == 0


def test_multiplicative_subgroups_are_zero_sum():
    """Every subgroup of order >= 2 of F_q^* sums to zero, for every prime
    power q up to 2000."""
    for q in range(3, 2001):
        fac = factorint(q)
        if len(fac) != 1:
            continue
        (p, n), = fac.items()
        field = FiniteField(p, n)
        for d in range(2, q):
            if (q - 1) % d:
                continue
            step = (q - 1) // d
            total = field.zero
            for j in range(d):
                total = field.add(total, field.exp[step * j])
            assert total == field.zero, (q, d)


def _abelian_groups_of_order(n):
    per_prime = []
    for p, e in factorint(n).items():
        shapes = []
        for part in partitions(e):
            factors = []
            for exp, mult in sorted(part.items()):
                factors.extend([p**exp] * mult)
            shapes.append(tuple(factors))
        per_prime.append(shapes)
    for combo in itertools.product(*per_prime):
        yield AbelianGroup(tuple(f for shape in combo for f in shape))


def test_zero_sum_iff_not_binary():
    """An abelian group sums to zero exactly when it does not have a unique
    involution; exhaustive over all isomorphism types up to order 512."""
    for n in range(2, 513):
        for group in _abelian_groups_of_order(n):
            assert is_zero_sum_group(group) == (not is_binary(group)), group


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 3), (3, 5)])
def test_ag_closures_are_planes(n, p):
    """In the point-line design of AG(n,p) every pair of lines through a
    common point closes to exactly p^2 points; exhaustive over all pairs."""
    design = ag_design(n, p)
    table = _pair_block_table(design)
    by_point = {}
    for bi in range(design.b):
        for c in design.blocks[bi]:
            by_point.setdefault(int(c), []).append(bi)
    for pt, ids in by_point.items():
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                s1 = set(map(int, design.blocks[ids[a]]))
                s2 = set(map(int, design.blocks[ids[b]]))
                if len(s1 & s2) != 1:
                    continue
                cl = closure(design, s1, s2, _table=table)
                assert len(cl) == p * p


def test_develop_verify_equivalence_on_fixtures():
    """Whenever a fixture family verifies, its development verifies with
    the same lambda, and vice versa: damaging the family breaks both."""
    for name, make in FIXTURES.items():
        obj = make()
        if isinstance(obj, StrongDifferenceFamily):
            continue  # only relative families develop into designs
        design = develop(obj)
        verdict = verify_design(design)
        assert verdict.is_design, name
        assert verdict.lambda_found == obj.lam, name
        broken = RelativeDifferenceFamily(
            obj.group, obj.forbidden, obj.k, obj.lam, obj.blocks[:-1]
        )
        from difam.designs import DesignError

        with pytest.raises(DesignError):
            develop(broken)

"""The independent verifiers checked against each other and against brute force.

A relative difference family verifies exactly when the design developed
from it does, damaged or not; `verify_design`'s windowed pair count agrees
with counting every pair; `verify_super_regular`'s generator test agrees
with translating every block by every element of the group.
"""

from collections import Counter
from itertools import combinations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from difam.catalog import sigma_prime, thm62_z5
from difam.designs import (
    Design,
    DesignVerdict,
    _develop_rows,
    verify_design,
    verify_super_regular,
)
from difam.diffs import GMultiset
from difam.families import RelativeDifferenceFamily, verify_rdf
from difam.gf import FiniteField
from difam.groups import AbelianGroup, sum_of
from difam.lifting import simple_lift

PROPERTY = settings(
    database=None,
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)

_RDFS = {
    "thm62-z5": thm62_z5(),
    "sigma-prime": simple_lift(sigma_prime(), FiniteField(5, 2, (2, 1, 1)), signed=True),
}


def _damage(rdf, how, data):
    """A copy of the family with one change that keeps k points per block."""
    blocks = [b.expand() for b in rdf.blocks]
    index = st.integers(0, len(blocks) - 1)
    position = st.integers(0, rdf.k - 1)
    if how == "move":
        i, j = data.draw(index), data.draw(position)
        blocks[i][j] = rdf.group.decode(data.draw(st.integers(0, rdf.group.order - 1)))
    elif how == "duplicate":
        blocks.append(blocks[data.draw(index)])
    elif how == "drop":
        del blocks[data.draw(index)]
    elif how == "swap":
        (i, j), (i2, j2) = data.draw(st.tuples(index, position)), data.draw(st.tuples(index, position))
        blocks[i][j], blocks[i2][j2] = blocks[i2][j2], blocks[i][j]
    gm = [GMultiset(rdf.group, b) for b in blocks]
    return RelativeDifferenceFamily(rdf.group, rdf.forbidden, rdf.k, rdf.lam, gm)


@PROPERTY
@given(
    name=st.sampled_from(sorted(_RDFS)),
    how=st.sampled_from(["none", "move", "duplicate", "drop", "swap"]),
    data=st.data(),
)
def test_verify_rdf_agrees_with_the_developed_design(name, how, data):
    rdf = _damage(_RDFS[name], how, data)
    is_rdf = verify_rdf(rdf.blocks, rdf.group, rdf.forbidden, rdf.k, rdf.lam).is_rdf
    design = Design(rdf.group, _develop_rows(rdf, rdf.lam), rdf.k)
    assert is_rdf == verify_design(design).is_design


@st.composite
def _small_designs(draw):
    """Up to four rows of k <= 4 points over a group of order <= 12, repeated
    points and unsorted rows allowed; with orbits=True every row comes with
    all its translates, and then maybe one row is dropped."""
    orders = draw(
        st.lists(st.integers(1, 12), min_size=1, max_size=2).filter(
            lambda o: int(np.prod(o)) <= 12
        )
    )
    group = AbelianGroup(orders)
    v, k = group.order, draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(st.integers(0, v - 1), min_size=k, max_size=k), max_size=4))
    if draw(st.booleans()):
        rows = [
            [group.encode(group.add(group.decode(c), t)) for c in row]
            for row in rows
            for t in group.elements()
        ]
        if rows and draw(st.booleans()):
            del rows[draw(st.integers(0, len(rows) - 1))]
    return Design(group, np.array(rows, dtype=np.int64).reshape(len(rows), k), k)


def _brute_force_verdict(design):
    """Regular iff translating every block by g leaves the multiset of
    sorted blocks unchanged, for every g in G."""
    group = design.carrier
    points = [[group.decode(c) for c in row] for row in design.blocks.tolist()]

    def translated(t):
        return Counter(tuple(sorted(group.encode(group.add(x, t)) for x in row)) for row in points)

    regular = all(translated(t) == translated(group.zero) for t in group.elements())
    additive = all(sum_of(group, row) == group.zero for row in points)
    return regular, additive


@PROPERTY
@given(design=_small_designs())
def test_super_regular_matches_brute_force(design):
    verdict = verify_super_regular(design, design.carrier)
    assert (verdict.is_regular, verdict.is_strictly_additive) == _brute_force_verdict(design)


def _brute_force_design_verdict(design):
    """Every pair counted with a Counter; the witness is the first pair, in
    row-major order, whose count differs from that of (0, 1)."""
    v, k, rows = design.v, design.k, design.blocks.tolist()
    if not rows:
        return DesignVerdict(False, None, False, False, None)
    simple = len({tuple(sorted(row)) for row in rows}) == len(rows)  # no block repeats
    if any(a >= b for row in rows for a, b in zip(row, row[1:])):
        return DesignVerdict(False, None, simple, False, None)
    pairs = Counter(pair for row in rows for pair in combinations(row, 2))
    lam = pairs[0, 1]
    bad = next((pair for pair in combinations(range(v), 2) if pairs[pair] != lam), None)
    ok = bad is None and lam >= 1
    degrees = Counter(x for row in rows for x in row)
    replication = ok and all(degrees[x] * (k - 1) == lam * (v - 1) for x in range(v))
    lam_found = lam if bad is None else None
    witness = None if bad is None else tuple(map(design.carrier.decode, bad))
    return DesignVerdict(ok and replication, lam_found, simple, replication, witness)


@settings(PROPERTY, max_examples=200)  # 60 draw no witness that a one-sided _pair_points misplaces
@given(design=_small_designs())
def test_verify_design_matches_brute_force(design):
    assert verify_design(design) == _brute_force_design_verdict(design)

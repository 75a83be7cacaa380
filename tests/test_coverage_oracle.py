"""The int-code family verifiers against the tuple verifiers they replaced.

`verify_sdf`, `verify_rdf` and `verify_dm` count differences as int codes
(`diffs.delta_family`, `diffs.coverage`, one `bincount` per DM row pair).
The reference below is the tuple calculus they replaced, copied here: a
`Counter` of tuple differences per block, a dict over every carrier element,
additivity by tuple sums, and the DM's `Counter` per row pair, on the tuple
calculus of `group_reference`.  The one change
is that the reference visits excluded elements in ascending order (it
iterated a set), the order the verdict's failure list now defines.  Every
field of the verdicts must agree, failure lists as lists.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from difam.catalog import FIXTURES
from difam.diffs import GMultiset
from difam.families import (
    DifferenceMatrix,
    PartialSpread,
    RelativeDifferenceFamily,
    StrongDifferenceFamily,
    paley_sdf,
    verify_dm,
    verify_rdf,
    verify_sdf,
    zero_sum_dm,
)
from difam.gf import FiniteField
from difam.groups import AbelianGroup, GroupError, Subgroup, generated_subgroup
from difam.lifting import simple_lift
from group_reference import ref

PROPERTY = settings(
    database=None,
    derandomize=True,
    deadline=None,
    max_examples=80,
    suppress_health_check=[HealthCheck.too_slow],
)


# --- the tuple reference -----------------------------------------------------


def _ref_delta_block(block):
    if block.size < 2:
        raise GroupError(f"difference list needs a block of size >= 2, got {block.size}")
    sub = ref(block.carrier).sub
    elems = block.expand()
    out = Counter()
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            if i != j:
                out[sub(x, y)] += 1
    return out


def _ref_delta_family(blocks):
    if not blocks:
        raise GroupError("empty family has no carrier; pass at least one block")
    carrier = blocks[0].carrier
    out = Counter()
    for b in blocks:
        if b.carrier != carrier:
            raise GroupError("blocks on mixed carriers")
        out.update(_ref_delta_block(b))
    return out


def _ref_coverage(delta, carrier, members=()):
    """(lambda, excluded_clean, failures)."""
    excluded = set()
    for sub in members:
        excluded.update(_elements(sub))
    counts = {e: delta.get(e, 0) for e in carrier.elements()}
    failures = []
    excluded_clean = True
    for e in sorted(excluded):
        if counts[e] != 0:
            excluded_clean = False
            failures.append((e, counts[e]))
    outside = [counts[e] for e in counts if e not in excluded]
    lam = 0
    if outside:
        lam = outside[0]
        for e, m in counts.items():
            if e not in excluded and m != lam:
                failures.append((e, m))
        if any(e not in excluded for e, _ in failures):
            lam = None
    return lam, excluded_clean, failures


def _elements(sub):
    return [sub.parent.decode(c) for c in sub.codes.tolist()]


def _ref_additive(group, blocks, members=()):
    r = ref(group)
    involutions = lambda sub: sum(1 for g in _elements(sub) if r.add(g, g) == r.zero)
    return all(r.sum(b) == r.zero for b in blocks) and not any(
        involutions(sub) == 2 for sub in members
    )


def _ref_verify_sdf(blocks, group, k, lam):
    """(is_sdf, is_additive, lambda, excluded_clean, failures)."""
    if not blocks or any(b.size != k or b.carrier != group for b in blocks):
        return False, False, None, True, []
    found, clean, failures = _ref_coverage(_ref_delta_family(list(blocks)), group)
    ok = found is not None and clean and found == lam
    return ok, _ref_additive(group, [b.expand() for b in blocks]), found, clean, failures


def _ref_verify_rdf(blocks, group, members, k, lam):
    if any(b.size != k or not b.is_set() or b.carrier != group for b in blocks):
        return False, False, None, True, []
    delta = _ref_delta_family(list(blocks)) if blocks else Counter()
    found, clean, failures = _ref_coverage(delta, group, members)
    ok = found is not None and clean and found == lam
    return ok, _ref_additive(group, [b.expand() for b in blocks], members), found, clean, failures


def _ref_verify_dm(columns, group, k, mu):
    """(is_dm, is_additive, failures): the Counter per row pair."""
    r = ref(group)
    cols = [[group.decode(c) for c in row] for row in columns.tolist()]
    if len(cols) != mu * group.order:
        return False, False, [(-1, -1, r.zero, len(cols))]
    failures = []
    for i in range(k):
        for j in range(i + 1, k):
            counts = Counter(r.sub(c[i], c[j]) for c in cols)
            for e in group.elements():
                if counts.get(e, 0) != mu:
                    failures.append((i, j, e, counts.get(e, 0)))
    return not failures, _ref_additive(group, cols), failures


# --- the comparisons -----------------------------------------------------------


def _python_ints(failures):
    return all(type(x) is int for e, m in failures for x in (*e, m))


def _check_sdf(blocks, group, k, lam):
    got = verify_sdf(blocks, group, k, lam)
    cov = got.coverage
    assert (got.is_sdf, got.is_additive, got.lam, cov.excluded_clean, cov.failures) == (
        _ref_verify_sdf(blocks, group, k, lam)
    )
    assert _python_ints(cov.failures)
    assert got.lam is None or type(got.lam) is int


def _check_rdf(blocks, group, forbidden, k, lam):
    members = [forbidden] if isinstance(forbidden, Subgroup) else forbidden.members
    got = verify_rdf(blocks, group, forbidden, k, lam)
    cov = got.coverage
    assert (got.is_rdf, got.is_additive, got.lam, cov.excluded_clean, cov.failures) == (
        _ref_verify_rdf(blocks, group, members, k, lam)
    )
    assert _python_ints(cov.failures)
    assert got.lam is None or type(got.lam) is int


def _check(family):
    if isinstance(family, StrongDifferenceFamily):
        _check_sdf(family.blocks, family.group, family.k, family.lam)
    else:
        _check_rdf(family.blocks, family.group, family.forbidden, family.k, family.lam)


def _paley_lifts():
    out = {}
    for q, fields in ((5, ((7, 1), (3, 2))), (7, ((2, 3), (11, 1))), (9, ((11, 1),))):
        sdf = out[f"paley{q}"] = paley_sdf(q)
        for p, n in fields:
            out[f"paley{q}-lift{p}^{n}"] = simple_lift(sdf, FiniteField(p, n))
            if p % 2:
                out[f"paley{q}-signed{p}^{n}"] = simple_lift(sdf, FiniteField(p, n), signed=True)
    return out


FAMILIES = {**{name: make() for name, make in FIXTURES.items()}, **_paley_lifts()}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_families_agree_with_the_tuple_reference(name):
    _check(FAMILIES[name])


def _damaged(family, how, data):
    """A copy of the family with one point moved or repeated, or one block
    duplicated or dropped; None if the damage does not apply."""
    blocks = [b.expand() for b in family.blocks]
    group = family.group
    i = data.draw(st.integers(0, len(blocks) - 1), label="block")
    j = data.draw(st.integers(0, len(blocks[i]) - 1), label="position")
    if how == "move":
        blocks[i][j] = group.decode(data.draw(st.integers(0, group.order - 1), label="to"))
    elif how == "repeat":  # another point of the block takes this one's place
        blocks[i][j] = blocks[i][(j + 1) % len(blocks[i])]
    elif how == "duplicate":
        blocks.append(blocks[i])
    elif how == "drop":
        if len(blocks) == 1:
            return None
        del blocks[i]
    gm = [GMultiset(group, b) for b in blocks]
    if isinstance(family, StrongDifferenceFamily):
        return StrongDifferenceFamily(group, family.k, family.lam, gm)
    return RelativeDifferenceFamily(group, family.forbidden, family.k, family.lam, gm)


@PROPERTY
@given(
    name=st.sampled_from(sorted(FAMILIES)),
    how=st.sampled_from(["move", "repeat", "duplicate", "drop"]),
    data=st.data(),
)
def test_damaged_families_agree_with_the_tuple_reference(name, how, data):
    family = _damaged(FAMILIES[name], how, data)
    if family is not None:
        _check(family)


@st.composite
def _random_families(draw):
    """Small random blocks over one to three cyclic factors, with a
    generated subgroup or a partial spread of cyclic subgroups forbidden."""
    orders = draw(st.lists(st.integers(2, 6), min_size=1, max_size=3))
    group = AbelianGroup(orders)
    element = st.integers(0, group.order - 1).map(group.decode)
    k = draw(st.integers(2, min(4, group.order)))
    as_sets = draw(st.booleans())
    point_lists = st.lists(element, min_size=k, max_size=k, unique=as_sets)
    blocks = [GMultiset(group, b) for b in draw(st.lists(point_lists, min_size=1, max_size=4))]
    if draw(st.booleans()):
        gens = draw(st.lists(element, max_size=2))
        forbidden = generated_subgroup(group, [group.encode(g) for g in gens])
    else:
        members = []
        for g in draw(st.lists(element, min_size=1, max_size=4)):
            sub = generated_subgroup(group, [group.encode(g)])
            if all(set(sub.codes.tolist()) & set(m.codes.tolist()) == {0} for m in members):
                members.append(sub)
        forbidden = PartialSpread(members)
    return group, forbidden, k, blocks, draw(st.integers(0, 3))


@settings(PROPERTY, max_examples=300)
@given(case=_random_families())
def test_random_families_agree_with_the_tuple_reference(case):
    group, forbidden, k, blocks, lam = case
    _check_rdf(blocks, group, forbidden, k, lam)
    _check_sdf(blocks, group, k, lam)


# --- difference matrices ---------------------------------------------------------


DMS = {
    f"{orders}-k{k}": zero_sum_dm(AbelianGroup(orders), k)
    for orders in ((3,), (2, 2), (5,))
    for k in (3, 4)
}


def _check_dm(dm):
    got = verify_dm(dm.columns, dm.group, dm.k, dm.mu)
    assert (got.is_dm, got.is_additive, got.failures) == _ref_verify_dm(
        dm.columns, dm.group, dm.k, dm.mu
    )
    assert all(type(x) is int for i, j, e, m in got.failures for x in (i, j, *e, m))


@pytest.mark.parametrize("name", sorted(DMS))
def test_difference_matrices_agree_with_the_counter_loop(name):
    _check_dm(DMS[name])


@PROPERTY
@given(
    name=st.sampled_from(sorted(DMS)),
    how=st.sampled_from(["move", "swap", "copy", "duplicate", "drop"]),
    data=st.data(),
)
def test_damaged_difference_matrices_agree_with_the_counter_loop(name, how, data):
    dm = DMS[name]
    cols = dm.columns.tolist()
    i = data.draw(st.integers(0, len(cols) - 1), label="column")
    j = data.draw(st.integers(0, dm.k - 1), label="row")
    if how == "move":
        cols[i][j] = data.draw(st.integers(0, dm.group.order - 1), label="to")
    elif how == "copy":  # another column takes this one's place
        cols[i] = list(cols[(i + 1) % len(cols)])
    elif how == "duplicate":
        cols.append(cols[i])
    elif how == "drop":
        del cols[i]
    else:  # two entries of one column trade places
        j2 = data.draw(st.integers(0, dm.k - 1), label="other row")
        cols[i][j], cols[i][j2] = cols[i][j2], cols[i][j]
    columns = np.array(cols, dtype=np.int64).reshape(-1, dm.k)
    _check_dm(DifferenceMatrix(dm.group, dm.k, dm.mu, columns))

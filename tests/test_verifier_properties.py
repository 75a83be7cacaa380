"""The independent verifiers checked against each other and against brute force.

A relative difference family verifies exactly when the design developed
from it does, damaged or not; `verify_design`'s windowed pair count agrees
with counting every pair; `verify_super_regular`'s rebuild from the blocks
through 0 agrees with translating every block by every element of the
group, and with the lexsort oracle that moves the blocks by each unit
generator; `verify_developed`, which counts a regular design's pairs from
its blocks through 0, agrees with both verifiers; and every consumer of a
design's blocks answers the same on int16, int32 and int64 copies of them.
"""

from collections import Counter
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import difam.designs
import difam.groups

from difam.catalog import sigma_prime, thm62_z5, thm62_z7
from difam.designs import (
    Design,
    DesignError,
    DesignVerdict,
    SuperRegularVerdict,
    _develop_rows,
    _difference_oracle,
    _pair_block_table,
    _table_lookup,
    ag_design,
    anomaly_witness,
    closure,
    develop,
    subspace_replace,
    verify_design,
    verify_developed,
    verify_super_regular,
)
from difam.diffs import GMultiset
from difam.families import RelativeDifferenceFamily, verify_rdf
from difam.gf import FiniteField
from difam.groups import AbelianGroup, generated_subgroup
from difam.io import parse_family, render_family, write_family
from group_reference import ref
from difam.lifting import extend_field, simple_lift
from test_design_kernels import _ORBIT_GROUPS, _oracle_super_regular

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
    design = Design(rdf.group, _develop_rows(rdf), rdf.k)
    assert is_rdf == verify_design(design).is_design


@st.composite
def _small_designs(draw):
    """Up to four rows of k <= 4 points over a group of order <= 12, repeated
    points and unsorted rows allowed; with orbits=True every row comes with
    all its translates, and then maybe one row is dropped.  Then maybe every
    row is sorted and one of them added 256 to 300 times, so that its pairs'
    counts pass 255."""
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
            [group.encode(ref(group).add(group.decode(c), t)) for c in row]
            for row in rows
            for t in group.elements()
        ]
        if rows and draw(st.booleans()):
            del rows[draw(st.integers(0, len(rows) - 1))]
    if rows and draw(st.booleans()):
        rows = [sorted(row) for row in rows]
        rows += [rows[draw(st.integers(0, len(rows) - 1))]] * draw(st.integers(256, 300))
    return Design(group, np.array(rows, dtype=np.int64).reshape(len(rows), k), k)


def _brute_force_verdict(design):
    """Regular iff translating every block by g leaves the multiset of
    sorted blocks unchanged, for every g in G."""
    group, r = design.carrier, ref(design.carrier)
    points = [[group.decode(c) for c in row] for row in design.blocks.tolist()]

    def translated(t):
        return Counter(tuple(sorted(group.encode(r.add(x, t)) for x in row)) for row in points)

    regular = all(translated(t) == translated(r.zero) for t in group.elements())
    additive = all(r.sum(row) == r.zero for row in points)
    return regular, additive


@PROPERTY
@given(design=_small_designs())
def test_super_regular_matches_brute_force(design):
    verdict = verify_super_regular(design, design.carrier)
    assert (verdict.is_regular, verdict.is_strictly_additive) == _brute_force_verdict(design)


def _orbit(group, rep):
    """The distinct translates of a row, each sorted."""
    r = ref(group)
    points = [group.decode(x) for x in rep]
    moved = ([group.encode(r.add(x, g)) for x in points] for g in group.elements())
    return sorted({tuple(sorted(row)) for row in moved})


@st.composite
def _orbit_unions(draw):
    """One to three orbits of k-point rows, each taken one to three times,
    with the rows and the points within each row shuffled.  A rep is k
    points, repeats allowed, or the union of k/|H| cosets of the subgroup H
    that one element generates, so that H fixes it."""
    group = AbelianGroup(draw(st.sampled_from(_ORBIT_GROUPS)))
    r, k = ref(group), draw(st.integers(1, 6))
    point = st.integers(0, group.order - 1)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        sub = generated_subgroup(group, [draw(point)]).codes.tolist()
        if k % len(sub) == 0 and draw(st.booleans()):
            shifts = draw(st.lists(point, min_size=k // len(sub), max_size=k // len(sub)))
            coset = [group.decode(h) for h in sub]
            rep = [group.encode(r.add(h, group.decode(x))) for x in shifts for h in coset]
        else:
            rep = draw(st.lists(point, min_size=k, max_size=k))
        rows += _orbit(group, rep) * draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.permuted(np.array(rows, dtype=np.int64), axis=1)[rng.permutation(len(rows))]
    return Design(group, rows, k)


def _damage_orbits(design, how, data):
    """A copy with one row dropped, repeated or with a point moved, or with
    one row off 0 replaced by another row off 0, which leaves every row
    through 0 as it was."""
    rows, v, k = design.blocks.copy(), design.v, design.k
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    if how == "drop":
        rows = np.delete(rows, i, axis=0)
    elif how == "duplicate":
        rows = np.insert(rows, data.draw(st.integers(0, len(rows))), rows[i], axis=0)
    elif how == "move":
        rows[i, data.draw(st.integers(0, k - 1))] = data.draw(st.integers(0, v - 1))
    elif how == "off-zero":
        off = np.flatnonzero(~(rows == 0).any(axis=1))
        assume(off.size)
        i = off[data.draw(st.integers(0, off.size - 1), label="row off 0")]
        rows[i] = data.draw(st.lists(st.integers(1, v - 1), min_size=k, max_size=k))
    return Design(design.carrier, rows, k)


@PROPERTY
@given(
    design=_orbit_unions(),
    how=st.sampled_from(["none", "drop", "duplicate", "move", "off-zero"]),
    data=st.data(),
)
def test_super_regular_matches_the_oracle_on_unions_of_orbits(design, how, data):
    d = design if how == "none" else _damage_orbits(design, how, data)
    got = verify_super_regular(d, d.carrier)
    assert got == _oracle_super_regular(d)
    # no orbit here is a single row: that row would hold all v >= 8 points
    changed = sorted(map(sorted, d.blocks.tolist())) != sorted(map(sorted, design.blocks.tolist()))
    assert got.is_regular == (not changed)


@st.composite
def _mixed_orbit_unions(draw):
    """An orbit of v rows taken two or three times beside the orbit of a
    union of cosets of a proper subgroup H = <h> of order > 1, which H
    fixes, taken one to three times; rows and points shuffled as in
    `_orbit_unions`.  No orbit is a single row."""
    group = AbelianGroup(draw(st.sampled_from(_ORBIT_GROUPS)))
    r, point = ref(group), st.integers(0, group.order - 1)
    sub = [group.decode(h) for h in generated_subgroup(group, [draw(point.filter(bool))]).codes]
    assume(len(sub) < group.order)
    k = len(sub) * draw(st.integers(1, 2))
    shifts = draw(st.lists(point, min_size=k // len(sub), max_size=k // len(sub)))
    fixed = [group.encode(r.add(h, group.decode(x))) for x in shifts for h in sub]
    free = draw(st.lists(point, min_size=k, max_size=k))
    assume(len(_orbit(group, free)) == group.order)
    rows = _orbit(group, free) * draw(st.integers(2, 3)) + _orbit(group, fixed) * draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.permuted(np.array(rows, dtype=np.int64), axis=1)[rng.permutation(len(rows))]
    return Design(group, rows, k)


# a batch of `_orbit_rows` holds 4 * _CHUNK rows: on these groups of 8 to 25
# points a _CHUNK of 1 splits every orbit; 4 makes two orbits a batch on 8
# points (the copies of one rep may fall in two), one on 9 and splits those
# on 25; 4096 makes them all in one batch
@PROPERTY
@given(
    design=_mixed_orbit_unions(),
    chunk=st.sampled_from([1, 4, 4096]),
    how=st.sampled_from(["none", "drop", "duplicate", "move"]),
    data=st.data(),
)
def test_super_regular_rebuilds_free_orbits_in_batches_beside_fixed_ones(design, chunk, how, data):
    d = design if how == "none" else _damage_orbits(design, how, data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(difam.groups, "_CHUNK", chunk)
        got = verify_super_regular(d, d.carrier)
    assert got == _oracle_super_regular(d)
    changed = sorted(map(sorted, d.blocks.tolist())) != sorted(map(sorted, design.blocks.tolist()))
    assert got.is_regular == (not changed)


@pytest.mark.parametrize("chunk", [1, 512, 4096])
def test_super_regular_rebuilds_sigma_prime_in_batches(chunk, monkeypatch):
    # sigma' developed: 36 orbits of 375 blocks of 15 points, and the 25
    # cosets of its order-15 subgroup taken lambda = 21 times each.  The 36
    # orbits are split (_CHUNK 1), made 5 a batch (512) or all at once (4096)
    d = develop(_RDFS["sigma-prime"])
    rows = Counter(tuple(row) for row in d.blocks.tolist())
    assert max(rows.values()) == 21 and d.k == 15
    monkeypatch.setattr(difam.groups, "_CHUNK", chunk)
    assert verify_super_regular(d, d.carrier) == _oracle_super_regular(d)
    damaged = Design(d.carrier, np.delete(d.blocks, 5, axis=0), d.k)
    assert verify_super_regular(damaged, d.carrier) == _oracle_super_regular(damaged)


@PROPERTY
@given(orders=st.sampled_from(_ORBIT_GROUPS), k=st.integers(1, 6), data=st.data())
def test_super_regular_of_no_row_through_zero(orders, k, data):
    # enough rows to pass the v > bk bound, none of them through 0
    group = AbelianGroup(orders)
    b = data.draw(st.integers(-(-group.order // k), -(-group.order // k) + 4))
    row = st.lists(st.integers(1, group.order - 1), min_size=k, max_size=k)
    d = Design(group, np.array(data.draw(st.lists(row, min_size=b, max_size=b))), k)
    got = verify_super_regular(d, group)
    assert got == _oracle_super_regular(d) and not got.is_regular


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 3], [0, 2, 8], [0, 6, 7]],  # {0,1,3}'s three translates through 0: 9 rows implied
        [[0, 1, 3], [1, 2, 4], [2, 3, 5]],  # one of those three: a third of an orbit
        # four of them, and b = 9: 4/3 of an orbit, whose whole part would fill b
        [[0, 1, 3], [0, 1, 3], [0, 2, 8], [0, 6, 7]] + [[x, x + 1, x + 3] for x in range(1, 6)],
    ],
)
def test_super_regular_refuses_rows_through_zero_before_any_orbit(rows, monkeypatch):
    group = AbelianGroup((9,))
    d = Design(group, np.array(rows), 3)
    expected = _oracle_super_regular(d)

    def refused(*args):
        raise AssertionError("an orbit was built")

    monkeypatch.setattr(difam.designs, "_orbit_rows", refused)
    assert verify_super_regular(d, group) == expected == SuperRegularVerdict(False, False)


def _brute_force_design_verdict(design):
    """Every pair counted with a Counter; the witness is the first pair, in
    row-major order, whose count differs from that of (0, 1)."""
    v, k, rows = design.v, design.k, design.blocks.tolist()
    if not rows:  # no block can repeat
        return DesignVerdict(False, None, True, False, None)
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


def test_verify_design_counts_past_a_byte():
    # {0, 1, 2} over Z_3 taken 300 times: each count wraps to 44 in a byte
    d = Design(AbelianGroup((3,)), np.tile(np.arange(3), (300, 1)), 3)
    verdict = verify_design(d)
    assert verdict == _brute_force_design_verdict(d)
    assert verdict.lambda_found == 300


def test_verify_design_tells_257_from_1():
    # (0, 1) and (0, 2) covered once, (1, 2) 257 times: as bytes all three
    # read 1, and the design would pass as lambda = 1
    rows = np.array([[0, 1], [0, 2]] + [[1, 2]] * 257)
    d = Design(AbelianGroup((3,)), rows, 2)
    verdict = verify_design(d)
    assert verdict == _brute_force_design_verdict(d)
    assert verdict.lambda_found is None and verdict.witness_pair == ((1,), (2,))


def _both_verifiers(design):
    """`verify_developed`'s verdicts, checked against both verifiers; and
    whether it counted no pair, as it must for a regular design whose rows
    strictly increase."""
    with mock.patch.object(difam.designs, "verify_design", wraps=verify_design) as counted:
        got = verify_developed(design)
    assert got == (verify_design(design), verify_super_regular(design, design.carrier))
    return not counted.called


@PROPERTY
@given(
    design=_orbit_unions(),
    how=st.sampled_from(["sorted", "int32", "as drawn", "drop", "duplicate", "move", "off-zero"]),
    data=st.data(),
)
def test_verdicts_from_the_blocks_through_zero_match_both_verifiers(design, how, data):
    # orbits taken up to three times (lambda > 1) and reps fixed by a subgroup
    # (s > 1); "as drawn" keeps the points shuffled within each row
    rows = design.blocks if how == "as drawn" else np.sort(design.blocks, axis=1)
    dtype = np.int32 if how == "int32" else np.int64
    d = _typed(Design(design.carrier, rows, design.k), rows, dtype)
    if how in ("drop", "duplicate", "move", "off-zero"):
        d = _damage_orbits(d, how, data)
    increasing = bool(np.all(d.blocks[:, 1:] > d.blocks[:, :-1]))
    regular = verify_super_regular(d, d.carrier).is_regular
    assert _both_verifiers(d) == (regular and increasing)


def _designs_to_verify():
    sigma = simple_lift(sigma_prime(), FiniteField(5, 2, (2, 1, 1)), signed=True)
    return {
        "sigma-prime": lambda: develop(sigma),  # 2-(375,15,21), non-simple
        "thm62-z5": lambda: develop(thm62_z5()),
        "v=3125": lambda: develop(extend_field(thm62_z5(), 2)),
        "ag(3,5)": lambda: ag_design(3, 5),
        "ag(2,7)": lambda: ag_design(2, 7),
    }


def _edits(design):
    """The design as built, and copies that keep or break regularity."""
    rows = design.blocks
    moved = rows.copy()
    moved[3, 1] = (moved[3, 1] + 1) % design.v
    moved[3].sort()
    reversed_row = rows.copy()
    reversed_row[0] = reversed_row[0, ::-1]
    doubled = np.concatenate([rows, rows])
    dropped_orbit = rows[: rows.shape[0] - design.v] if rows.shape[0] > design.v else rows[:0]
    return {
        "as built": rows,
        "int32": rows.astype(np.int32),
        "rows shuffled": rows[np.random.default_rng(0).permutation(rows.shape[0])],
        "every block twice": doubled,
        "one point moved": moved,
        "one row reversed": reversed_row,
        "one block dropped": rows[1:],
        "last v blocks dropped": dropped_orbit,
    }


@pytest.mark.parametrize("name", sorted(_designs_to_verify()))
def test_verdicts_from_the_blocks_through_zero_on_built_designs(name):
    # dropping the last v blocks of AG leaves whole parallel classes: regular,
    # but no 2-design, so the witness comes from the blocks through 0
    design = _designs_to_verify()[name]()
    for edit, rows in _edits(design).items():
        d = _typed(Design(design.carrier, rows, design.k), rows, rows.dtype)  # "int32" stays int32
        route = _both_verifiers(d)
        regular = verify_super_regular(d, d.carrier).is_regular
        assert route == (regular and edit != "one row reversed"), edit
        if edit in ("as built", "int32", "rows shuffled", "every block twice"):
            assert route, edit
        elif edit in ("one point moved", "one row reversed", "one block dropped"):
            assert not route, edit


@st.composite
def _sorted_row_designs(draw):
    """One to six rows of k distinct points from lo..v-1, each sorted, on
    Z_v, from v <= bk (often v = bk, where the window is short for b >= 2)
    to v = bk + 24; maybe one row reversed or given a repeated point, and
    maybe one row added 256 to 300 times, so that its pairs' counts pass 255."""
    k = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    repeats = draw(st.sampled_from([0, 0, 256, 300]))
    bk = (n + repeats) * k
    v = draw(st.one_of(st.just(min(bk, 24)), st.integers(k, min(bk, 24)), st.integers(bk + 1, bk + 24)))
    lo = draw(st.integers(0, v - k))  # past 0, the witness is often the least place covered
    row = st.lists(st.integers(lo, v - 1), min_size=k, max_size=k, unique=True).map(sorted)
    rows = draw(st.lists(row, min_size=n, max_size=n))
    rows += [rows[draw(st.integers(0, n - 1))]] * repeats
    i, how = draw(st.integers(0, n - 1)), draw(st.sampled_from(["none", "none", "reverse", "repeat"]))
    if how == "reverse":
        rows[i] = rows[i][::-1]
    elif how == "repeat":
        rows[i] = sorted(rows[i][:-1] + rows[i][:1])
    return _on_zv(v, rows)


def _on_zv(v, rows):
    return Design(AbelianGroup((v,)), np.array(rows, dtype=np.int64), len(rows[0]))


@settings(PROPERTY, max_examples=400)
@given(design=_sorted_row_designs())
# b = 6 rows of k = 2 on v = 12: a window of 7 of the 66 places
@example(design=_on_zv(12, [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11]]))
@example(design=_on_zv(12, [[0, 1], [2, 3]]))
@example(design=_on_zv(3, [[0, 1, 2]] * 300))  # each count wraps in a byte
@example(design=_on_zv(600, [[0, 1]] * 257 + [[1, 2]]))
@example(design=_on_zv(5, [[0, 1], [2, 1], [3, 4]]))  # a row that does not increase
@example(design=_on_zv(12, [[0, 1], [3, 3]]))
def test_verify_design_matches_brute_force_on_sorted_rows(design):
    assert verify_design(design) == _brute_force_design_verdict(design)


@pytest.mark.parametrize(
    "rows",
    [
        [[x, x, x + 1] for x in range(9)],  # {0, 0, 1} holds 0 twice, {8, 8, 0} once
        [[x, x, x + 1] for x in range(8)],  # the same with {8, 8, 0} dropped
        [[x, x, x + 1] for x in range(9)] + [[0, 0, 1]],  # {0, 0, 1} twice
        [[x + 3, x + 5, x] for x in range(1, 9)] + [[3, 5, 0]],  # 0 last, in the last row
        [[x + 3, x + 5, x] for x in range(1, 9)] + [[3, 5, 0], [3, 0, 5]],
    ],
)
def test_super_regular_finds_each_row_through_zero_once(rows):
    group = AbelianGroup((9,))
    d = Design(group, np.array(rows, dtype=np.int64) % 9, 3)
    got = verify_super_regular(d, group)
    assert got == _oracle_super_regular(d)
    assert got.is_regular == (len(rows) == 9)


@pytest.fixture(scope="module")
def code_type_designs(tmp_path_factory):
    """Designs whose v^2 passes 2^15, so that a product of two codes
    overflows int16: one on the difference oracle and three on the pair
    table (thm62-z7 read back from its file has no base rows)."""
    z7 = develop(thm62_z7())
    path = tmp_path_factory.mktemp("code-types") / "z7-design.json"
    write_family(z7, path)
    flat = Design(AbelianGroup((5, 5, 5)), develop(thm62_z5()).blocks, 5)
    return {
        "thm62-z7": z7,
        "thm62-z7 from its file": parse_family(path.read_bytes()),
        "ag(3,7)": ag_design(3, 7),
        "planted ag(4,5)": subspace_replace(4, 3, 5, flat),
    }


def _answer(fn, *args):
    """What a consumer returns, or the error it raises, as a comparable value."""
    try:
        got = fn(*args)
    except DesignError as exc:
        return "raised", str(exc)
    return got.tolist() if isinstance(got, np.ndarray) else got


def _consumers(d):
    """Every consumer of `d.blocks`, each answer a comparable value."""
    rows = d.blocks
    b1 = rows[0].tolist()
    meeting = (rows == rows[0, 0]).any(axis=1) & ~np.isin(rows, rows[0, 1:]).any(axis=1)
    b2 = rows[np.flatnonzero(meeting)[-1]].tolist()  # meets b1 in its first point only
    oracle = _difference_oracle(d)

    def lookups(lookup):  # as `_plane_certificates` asks: block slices in the blocks' type
        return np.array([lookup(rows[:, :1], rows[:, 1:]), lookup(rows[:, 1:], rows[:, :1])])

    return {
        "verify_design": _answer(verify_design, d),
        "verify_super_regular": _answer(verify_super_regular, d, d.carrier),
        "verify_developed": _answer(verify_developed, d),
        "anomaly_witness": _answer(anomaly_witness, d, d.k),
        "closure": _answer(lambda: sorted(closure(d, b1, b2))),
        "pair table": _answer(_pair_block_table, d),
        "table lookups": _answer(lambda: lookups(_table_lookup(d))),
        "oracle lookups": None if oracle is None else _answer(lookups, oracle),
        "render": _answer(render_family, d),
    }


def _typed(design, rows, dtype):
    """A copy of `design` with `rows` held in `dtype`, past the frozen field
    and the code-type rule."""
    d = Design(design.carrier, rows, design.k, _base=design._base)
    object.__setattr__(d, "blocks", rows.astype(dtype))
    return d


@pytest.mark.parametrize("edit", ["as built", "one point moved"])
@pytest.mark.parametrize(
    "name", ["thm62-z7", "thm62-z7 from its file", "ag(3,7)", "planted ag(4,5)"]
)
def test_every_consumer_answers_the_same_on_each_code_type(code_type_designs, name, edit):
    design = code_type_designs[name]
    assert design.blocks.dtype == np.int16 and design.v**2 > 2**15
    rows = design.blocks.astype(np.int64)
    if edit == "one point moved":  # a witness for the verifiers, a -1 for the lookups
        rows[3, 1] = (rows[3, 1] + 1) % design.v
        rows[3].sort()
    copies = {dtype: _typed(design, rows, dtype) for dtype in (np.int16, np.int32, np.int64)}
    answers = {dtype: _consumers(d) for dtype, d in copies.items()}
    for dtype in (np.int16, np.int32):
        for consumer, got in answers[dtype].items():
            assert got == answers[np.int64][consumer], (np.dtype(dtype).name, consumer)
    built = answers[np.int64]
    if edit == "as built":  # each block answers its own pairs, in either order
        assert built["verify_design"].is_design
        assert (np.array(built["table lookups"]) == np.arange(design.b)[:, None]).all()
    for d in copies.values():
        back = parse_family(built["render"])
        assert back == d and d == back and back.blocks.dtype == np.int16
        assert all(d == other for other in copies.values())
        assert d != design if edit == "one point moved" else d == design
